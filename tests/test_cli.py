"""Command line interface: payloads, exit codes, determinism."""

import hashlib
import json

import pytest

from lefschetz import bundles, cli

TOG = [
    "--gen", "x^3", "--gen", "y^3", "--gen", "z^3", "--gen", "x*y*z",
    "--variables", "x,y,z", "--degree", "3",
]

HEX_SYSTEM = [
    "--system",
    "--gen", "x^2*y", "--gen", "x^2*z", "--gen", "x*y^2",
    "--gen", "x*z^2", "--gen", "y^2*z", "--gen", "y*z^2",
    "--variables", "x,y,z", "--degree", "3",
]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def tog_document(tmp_path):
    path = tmp_path / "togliatti.json"
    path.write_text(
        json.dumps(
            {
                "variables": ["x", "y", "z"],
                "degree": 3,
                "generators": ["x^3", "y^3", "z^3", "x*y*z"],
                "seed": 5,
            }
        )
    )
    return str(path)


def test_wlp_human_output(capsys):
    code, out, err = run_cli(capsys, "wlp", *TOG)
    assert code == 0
    assert "h-vector: 1 3 6 6 3" in out
    assert "degree 2: 6 -> 6, rank 5, NOT maximal" in out
    assert "WLP fails in degrees: 2" in out


def test_wlp_json_payload(capsys):
    payload = run_json(capsys, "wlp", *TOG)
    assert payload["command"] == "wlp"
    assert (payload["n"], payload["d"], payload["r"]) == (2, 3, 4)
    assert payload["h_vector"] == [1, 3, 6, 6, 3]
    assert payload["failures"] == [2]
    assert payload["wlp"] is False
    assert payload["seed"] == 0
    deg2 = payload["reports"][2]
    assert (deg2["rank"], deg2["maximal"]) == (5, False)
    assert deg2["linear_form"] == "x + y + z"


def test_wlp_output_is_deterministic(capsys):
    first = run_cli(capsys, "wlp", *TOG, "--json")
    second = run_cli(capsys, "wlp", *TOG, "--json")
    assert first == second


def test_document_seed_and_flag_precedence(capsys, tog_document):
    payload = run_json(capsys, "wlp", tog_document)
    assert payload["seed"] == 5
    payload = run_json(capsys, "wlp", tog_document, "--seed", "9")
    assert payload["seed"] == 9


def test_non_integer_document_settings_exit_two(capsys, tmp_path):
    for key, value in (
        ("seed", 1.5),
        ("seed", True),
        ("trials", 2.0),
        ("degree", 3.9),
        ("degree", True),
    ):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "variables": ["x", "y", "z"],
                    "degree": 3,
                    "generators": ["x^3", "y^3", "z^3", "x*y*z"],
                    key: value,
                }
            )
        )
        # every document command checks the keys, sampled or not
        for command in ("wlp", "apolar"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2
            assert out == ""
            assert f"{key} must be an integer" in err


@pytest.mark.parametrize(
    "key, value",
    [("generators", [3]), ("variables", ["x", "y", 3]), ("variables", "xyz")],
    ids=["int-generator", "int-variable", "string-variables"],
)
def test_document_lists_of_strings_exit_two(capsys, tmp_path, key, value):
    document = {
        "variables": ["x", "y", "z"],
        "degree": 3,
        "generators": ["x^3", "y^3", "z^3", "x*y*z"],
        key: value,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "wlp", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key} must be a list of strings, not {value!r}")


# (a file's text, or argv in place of a file; the message it exits 2 with)
DOCUMENT_ERRORS = {
    "unreadable": (None, "cannot read "),
    "invalid-json": ("{", " is not valid JSON: "),
    "json-list": ("[]", "an ideal document is a JSON object"),
    "no-degree": (
        '{"variables": ["x", "y"], "generators": ["x^3"]}', "document needs a degree"
    ),
    "gen-without-variables": (["--gen", "x^3", "--degree", "3"], "--gen needs --variables"),
    "gen-without-degree": (["--gen", "x^3", "--variables", "x,y"], "--gen needs --degree"),
    "duplicate-names": (
        ["--gen", "x^3", "--variables", "x,y,x", "--degree", "3"], "duplicate variable names"
    ),
}


@pytest.mark.parametrize("source, message", DOCUMENT_ERRORS.values(), ids=DOCUMENT_ERRORS)
def test_document_errors_exit_two(capsys, tmp_path, source, message):
    if isinstance(source, list):
        argv = source
    else:
        path = tmp_path / "doc.json"
        if source is not None:
            path.write_text(source)
        argv = [str(path)]
    code, out, err = run_cli(capsys, "wlp", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


ONE_VARIABLE = ["--variables", "x", "--degree", "3", "--gen", "x^3"]


def test_one_variable_documents_fail_with_a_named_reason(capsys):
    # n = 0: no hyperplane to restrict to, and the image of P^0 is a point
    code, out, err = run_cli(capsys, "togliatti", *ONE_VARIABLE)
    assert (code, out) == (1, "")
    assert err.startswith("analysis failed: r = 1 exceeds the generator bound 0")
    code, out, err = run_cli(capsys, "osculate", *ONE_VARIABLE, "--order", "1")
    assert (code, out) == (1, "")
    assert err == (
        "analysis failed: Laplace equations need n >= 1: the image of P^0 is a point\n"
    )


def test_zero_trials_osculate_exits_two(capsys):
    code, out, err = run_cli(capsys, "osculate", *TOG, "--order", "2", "--trials", "0")
    assert code == 2
    assert out == ""
    assert "trials must be at least 1" in err


def test_zero_trials_exits_two(capsys):
    for argv in (
        ("wlp", *TOG, "--trials", "0"),
        ("verify-r4", "--dmin", "4", "--dmax", "4", "--trials", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "trials must be at least 1" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "wlp", *TOG, "--json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "wlp"
    assert payload["failures"] == [2]


def test_out_replaces_a_longer_file(capsys, tmp_path):
    # --out is opened in append mode before the work; the report must still
    # replace every byte the file held
    code, report, err = run_cli(capsys, "example", "--name", "case-1")
    target = tmp_path / "report"
    target.write_text("x" * 2 * len(report))
    code, out, err = run_cli(
        capsys, "example", "--name", "case-1", "--out", str(target)
    )
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == report


@pytest.mark.parametrize(
    "argv",
    [
        ("wlp", *TOG, "--out", "{missing}"),
        ("example", "--name", "case-1", "--out", "{missing}"),
        ("classify", "--n", "2", "--out", "{missing}"),
        ("wlp", *TOG, "--out", "{directory}"),
    ],
    ids=["wlp-out", "example-out", "classify-out", "out-directory"],
)
def test_unwritable_output_path_exits_two(capsys, tmp_path, argv):
    paths = {"missing": tmp_path / "missing" / "f", "directory": tmp_path}
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {argv[-1]}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_out_is_checked_before_the_command_runs(capsys, tmp_path, monkeypatch):
    def census(*args, **kwargs):
        pytest.fail("the census ran before --out was checked")

    monkeypatch.setattr(cli, "enumerate_cubic_togliatti", census)
    target = tmp_path / "missing" / "f"
    code, out, err = run_cli(
        capsys, "classify", "--n", "4", "--max-extra", "5", "--out", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize("before", [b"keep", None], ids=["existing", "absent"])
def test_a_failed_command_leaves_out_as_found(capsys, tmp_path, before):
    # opening --out before the work changes no byte of a file, and a file
    # made by that open is removed when the command fails
    target = tmp_path / "report"
    if before is not None:
        target.write_bytes(before)
    code, out, err = run_cli(
        capsys, "wlp", "--gen", "x^3", "--gen", "y^3",
        "--variables", "x,y,z", "--degree", "3", "--out", str(target),
    )
    assert (code, out) == (1, "")
    assert err.startswith("analysis failed: ")
    assert (target.read_bytes() if target.exists() else None) == before


@pytest.mark.parametrize("name", ["", "1", "x y"], ids=["empty", "digit", "two-names"])
def test_variable_name_the_parser_cannot_read_exits_two(capsys, tmp_path, name):
    # apolar would print members such as "x^2*" or "1^2" that do not parse back
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"variables": ["x", "y", name], "degree": 3, "generators": ["x^3"]})
    )
    for argv in (
        ("apolar", str(path)),
        ("wlp", "--gen", "x^3", "--variables", f"x,y,{name}", "--degree", "3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: variable name {name!r} is not a single name token\n"


def test_wlp_non_artinian_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "wlp", "--gen", "x^3", "--gen", "y^3",
        "--variables", "x,y,z", "--degree", "3",
    )
    assert code == 1
    assert "analysis failed: ideal is not artinian" in err


def test_splitting_non_artinian_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "splitting", "--gen", "x^3", "--gen", "y^3",
        "--variables", "x,y,z", "--degree", "3",
    )
    assert code == 1
    assert out == ""
    assert err == "analysis failed: ideal is not artinian\n"


def test_parse_error_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "wlp", "--gen", "x^3 + q", "--variables", "x,y,z", "--degree", "3",
    )
    assert code == 2
    assert err.startswith("error:")


def test_missing_input_exits_two(capsys):
    code, out, err = run_cli(capsys, "wlp")
    assert code == 2
    assert "document" in err


def test_togliatti_payload(capsys):
    payload = run_json(capsys, "togliatti", *TOG)
    assert payload["togliatti"] is True
    assert payload["fails_dminus1"] is True
    assert payload["hyperplane_dependent"] is True
    assert (payload["laplace_order"], payload["laplace_delta"]) == (2, 1)
    assert (payload["r"], payload["bound"]) == (4, 4)


def test_togliatti_bound_exceeded_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "togliatti",
        "--gen", "x^3", "--gen", "y^3", "--gen", "z^3",
        "--gen", "x^2*y", "--gen", "x*y^2",
        "--variables", "x,y,z", "--degree", "3",
    )
    assert code == 1
    assert "exceeds the generator bound" in err


def test_apolar_payload(capsys):
    payload = run_json(capsys, "apolar", *TOG)
    assert payload["dimension"] == 6
    assert payload["basis"] == [
        "x^2*y", "x^2*z", "x*y^2", "x*z^2", "y^2*z", "y*z^2",
    ]


def test_osculate_payload(capsys):
    payload = run_json(capsys, "osculate", "--order", "2", *TOG)
    assert payload["members"] == 6
    assert payload["projective_target"] == 5
    assert (payload["expected_dim"], payload["actual_dim"]) == (5, 4)
    assert payload["delta"] == 1
    assert payload["degenerate"] is False


def test_osculate_system_flag_matches_apolar_route(capsys):
    direct = run_json(capsys, "osculate", "--order", "2", *HEX_SYSTEM)
    via_ideal = run_json(capsys, "osculate", "--order", "2", *TOG)
    assert direct == via_ideal


def test_polytope_payload(capsys):
    payload = run_json(capsys, "polytope", *TOG)
    assert payload["verdict"] == "smooth"
    assert payload["normalized_volume"] == 6
    assert len(payload["vertices"]) == 6
    assert payload["simple"] is True
    assert payload["edge_rule_fired"] is False


def test_polytope_degenerate_payload(capsys):
    payload = run_json(
        capsys, "polytope", "--system",
        "--gen", "x^3", "--gen", "x^2*y", "--gen", "x*y^2", "--gen", "y^3",
        "--variables", "x,y,z", "--degree", "3",
    )
    assert payload["verdict"] == "degenerate"
    assert payload["affine_dim"] == 1
    assert payload["points"] == [[0, 3], [1, 2], [2, 1], [3, 0]]


def test_polytope_of_a_segment(capsys):
    payload = run_json(
        capsys, "polytope", "--system",
        "--gen", "x^3", "--gen", "x^2*y", "--gen", "y^3", "--variables", "x,y", "--degree", "3",
    )
    assert payload["points"] == [[0], [2], [3]]
    assert (payload["normalized_volume"], payload["verdict"]) == (3, "quasi-smooth")


def test_polytope_rejects_non_monomial(capsys):
    code, out, err = run_cli(
        capsys, "polytope", "--system",
        "--gen", "x^3 + y^3", "--gen", "z^3",
        "--variables", "x,y,z", "--degree", "3",
    )
    assert code == 1
    assert "monomial" in err


def test_polytope_too_large_for_the_sweep_exits_one(capsys, tmp_path):
    # the hull of x_i^11 on P^10 is refused by the facet sweep's int64
    # guard: a failed analysis, with no traceback, and the --out file goes
    names = [f"x{i}" for i in range(11)]
    target = tmp_path / "report"
    code, out, err = run_cli(
        capsys, "polytope", "--system",
        *(arg for name in names for arg in ("--gen", f"{name}^11")),
        "--variables", ",".join(names), "--degree", "11", "--out", str(target),
    )
    assert (code, out) == (1, "")
    assert err == "analysis failed: coordinates too large for the int64 facet sweep\n"
    assert not target.exists()


def test_splitting_payload(capsys):
    payload = run_json(capsys, "splitting", *TOG)
    assert payload["values"] == [-2, -1, 0]
    assert payload["wlp_dminus1"] is False
    assert payload["d"] == 3


def test_classify_n2_human(capsys):
    code, out, err = run_cli(capsys, "classify", "--n", "2")
    assert code == 0
    assert "j=1 r=4 verdict=smooth degree=6 orbit=1" in out
    assert "7 subsets, 2 canonical candidates, 1 Togliatti systems (smooth: 1)" in out


def test_classify_n2_json(capsys):
    code, out, err = run_cli(capsys, "classify", "--n", "2", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert len(lines) == 1
    record = lines[0]
    assert record["generators"] == [[0, 0, 3], [0, 3, 0], [1, 1, 1], [3, 0, 0]]
    assert record["verdict"] == "smooth"
    assert record["toric_degree"] == 6


def test_classify_rejects_max_extra_below_one(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--n", "4", "--max-extra", "0", "--json"
    )
    assert code == 2
    assert out == ""
    assert "--max-extra must be at least 1" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify-r4", "--dmin", "5", "--dmax", "3"), "--dmax must be at least 5"),
        (("verify-r4", "--dmin", "1", "--dmax", "4"), "--dmin must be at least 3"),
        (("verify-r4", "--dmin", "2", "--dmax", "4"), "--dmin must be at least 3"),
        (("osculate", *TOG, "--order", "-1"), "--order must be at least 0"),
        (("classify", "--n", "1"), "--n must be at least 2"),
        (("classify", "--n", "4"), "--max-extra is required for n >= 4"),
    ],
    ids=[
        "dmax-below-dmin",
        "dmin-one",
        "dmin-two",
        "negative-order",
        "classify-n-one",
        "classify-n-four-without-max-extra",
    ],
)
def test_flag_below_its_floor_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv",
    [("--threads", "2"), ("--resume",), ("--cache", "F")],
    ids=["threads", "resume", "cache"],
)
def test_classify_has_no_threads_or_resume_flag(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(capsys, "classify", "--n", "2", *argv)
    assert exit_info.value.code == 2
    message = "unrecognized arguments: " + " ".join(argv)
    assert message in capsys.readouterr().err


def test_classify_n3_contains_the_classical_smooth_systems(capsys):
    # the full surface census; the three systems of degrees 23, 18, 13 must be
    # present among the smooth records
    code, out, err = run_cli(capsys, "classify", "--n", "3", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert all(rec["togliatti"] for rec in records)
    smooth = [rec for rec in records if rec["verdict"] == "smooth"]
    by_degree = {rec["toric_degree"]: rec for rec in smooth}
    for degree in (23, 18, 13):
        assert degree in by_degree, f"missing smooth record of degree {degree}"
        assert by_degree[degree]["r"] == 8


def test_verify_r4_cli(capsys):
    payload = run_json(capsys, "verify-r4", "--dmin", "4", "--dmax", "4")
    assert payload["ok"] is True
    assert payload["violations"] == []
    (entry,) = payload["per_degree"]
    assert (entry["monomial_orbits"], entry["random_samples"]) == (3, 5)
    assert entry["non_wlp_orbits"] == []
    code, out, err = run_cli(capsys, "verify-r4", "--dmin", "4", "--dmax", "4")
    assert code == 0
    assert out.startswith("d=4: 3 monomial orbits + 5 random ideals, ok\n")
    assert "verdict: ok" in out


def test_verify_r4_violation_exits_one_after_its_full_report(capsys, monkeypatch):
    # the orbit of x y z^2 is made to fail WLP in degree 3
    has_wlp = bundles.has_wlp

    def one_orbit_fails(spec, **kwargs):
        if spec.is_monomial and (1, 1, 2) in spec.exponents():
            return False, [3]
        return has_wlp(spec, **kwargs)

    monkeypatch.setattr(bundles, "has_wlp", one_orbit_fails)
    code, out, err = run_cli(capsys, "verify-r4", "--dmin", "4", "--dmax", "4", "--json")
    assert code == 1
    report = json.loads(out)
    assert (report["ok"], report["violations"]) == (False, ["d=4: full WLP failures"])
    (entry,) = report["per_degree"]
    assert entry["full_wlp_failures"] == [["monomial", [1, 1, 2], [3]]]
    assert err == "analysis failed: d=4: full WLP failures\n"


def test_verify_r4_at_d_three_exits_zero(capsys):
    payload = run_json(capsys, "verify-r4", "--dmin", "3", "--dmax", "3")
    assert payload["ok"] is True
    (entry,) = payload["per_degree"]
    assert entry["witness"]["failure_degrees"] == [2]


def test_verify_r4_has_no_monomial_samples_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(
            capsys, "verify-r4", "--dmin", "4", "--dmax", "4", "--monomial-samples", "8"
        )
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --monomial-samples 8" in capsys.readouterr().err


def test_verify_r4_has_no_random_samples_flag(capsys):
    # the count of random ideals per degree is fixed at five
    with pytest.raises(SystemExit) as exit_info:
        run_cli(capsys, "verify-r4", "--dmin", "4", "--dmax", "4", "--random-samples", "1")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --random-samples 1" in capsys.readouterr().err


def test_example_round_trip(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "example", "--name", "partition", "--n", "3",
        "--partition", "0,1|2|3",
    )
    assert code == 0
    document = json.loads(out)
    assert sorted(document) == ["degree", "generators", "variables"]
    path = tmp_path / "doc.json"
    path.write_text(out)
    payload = run_json(capsys, "wlp", str(path))
    assert payload["r"] == 8
    assert payload["failures"] == [2]


@pytest.mark.parametrize("name", ["case-x", "case-"])
def test_example_case_name_that_is_no_number_exits_two(capsys, name):
    code, out, err = run_cli(capsys, "example", "--name", name)
    assert (code, out, err) == (2, "", "error: cases are case-1 .. case-4\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--name", "truncated-simplex"], "--n is required for 'truncated-simplex'"),
        (["--name", "case-2", "--n", "4"], "the classification cases live on P^3"),
        (["--name", "partition", "--n", "3", "--partition", "0,1||2"],
         "empty part in --partition"),
        (["--name", "partition", "--n", "3", "--partition", "0,a|2"],
         "bad --partition: invalid literal for int() with base 10: 'a'"),
    ],
    ids=["no-n", "case-off-p3", "empty-part", "bad-part"],
)
def test_example_errors_exit_two(capsys, argv, message):
    assert run_cli(capsys, "example", *argv) == (2, "", f"error: {message}\n")


def test_example_case_names(capsys):
    payload = json.loads(run_cli(capsys, "example", "--name", "case-3")[1])
    assert len(payload["generators"]) == 8
    code, out, err = run_cli(capsys, "example", "--name", "case-9")
    assert code == 2
    code, out, err = run_cli(capsys, "example", "--name", "no-such", "--n", "3")
    assert code == 2
    assert "unknown example name" in err


# example always writes a JSON document; it, classify, apolar and polytope
# draw no sample
UNSAMPLED = {
    "classify": ("classify", "--n", "2"),
    "apolar": ("apolar", "{document}"),
    "polytope": ("polytope", "{document}"),
}
IGNORED_FLAGS = {
    "seed": (("example", "--name", "case-1"), ("--seed", "1")),
    "trials": (("example", "--name", "case-1"), ("--trials", "0")),
    "json": (("example", "--name", "case-1"), ("--json",)),
    **{
        f"{command}-{flag[0][2:]}": (argv, flag)
        for command, argv in UNSAMPLED.items()
        for flag in (("--seed", "1"), ("--trials", "0"))
    },
}


@pytest.mark.parametrize("argv, flag", IGNORED_FLAGS.values(), ids=IGNORED_FLAGS)
def test_example_rejects_the_flags_it_would_ignore(capsys, tog_document, argv, flag):
    argv = [arg.format(document=tog_document) for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(capsys, *argv, *flag)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err


# Two plane cubic documents with fractional coefficients: the first spans the
# monomial ideal (x^3, y^3, z^3, xyz), the second has a non-monomial apolar
# basis with fractional coefficients of its own.
FRACTION_PLANE_DOCUMENTS = {
    "plane-half": ["x^3", "y^3", "z^3", "x*y*z + 1/2*x^3"],
    "plane-thirds": [
        "2/3*x^3 - y^2*z",
        "y^3 + 5/7*x*z^2",
        "z^3 - 1/4*x^2*y",
        "x*y*z + 3/2*y*z^2 - 1/5*x^3",
    ],
}

GOLDEN_COMMANDS = {
    "apolar": [],
    "togliatti": [],
    "wlp": [],
    "splitting": [],
    "osculate": ["--order", "2"],
}

# Pinned on the monomial case documents only: a lattice polytope needs a
# monomial system
CASE_COMMANDS = {
    "polytope": [],
    "polytope --system": ["--system"],
    "osculate --system": ["--order", "2", "--system"],
}

# SHA-256 of the --json stdout of each command on each document
GOLDEN_JSON = {
    ("case-1", "apolar"): "905dd3dd044505ebade628e40d322ea5a89412e3c950d586e7dfa3e6e14cc4dd",
    ("case-1", "togliatti"): "7436a8328b962cf536626210cd24707be00ac914735531feefe76776631562b4",
    ("case-1", "wlp"): "643d0d8ea3bdbade6157be8ca0748f566786662336db4bcf571681c52643acc3",
    ("case-1", "splitting"): "4c365227aa433b4273a391952468300a74f1c022df9d2177b8a6c09e7f143dfc",
    ("case-1", "osculate"): "fff938c9d7ab7eaf742930d7ca2c5d465bce2feba3778a439062d2df46bbf29c",
    ("case-2", "apolar"): "cc5e07d629646d63c8b686a53f44f40c58bd1111e654468c6946b69bc79e40fd",
    ("case-2", "togliatti"): "7436a8328b962cf536626210cd24707be00ac914735531feefe76776631562b4",
    ("case-2", "wlp"): "f68968ea603179eecfc9b356b373c2f28eee851d54f1e051c92dcaf19070cf79",
    ("case-2", "splitting"): "4c365227aa433b4273a391952468300a74f1c022df9d2177b8a6c09e7f143dfc",
    ("case-2", "osculate"): "fff938c9d7ab7eaf742930d7ca2c5d465bce2feba3778a439062d2df46bbf29c",
    ("case-3", "apolar"): "b5868f9bb9bbc8180748422fe0157fb4a3397fecb38e508c9ed9bd3105aaa9b5",
    ("case-3", "togliatti"): "7436a8328b962cf536626210cd24707be00ac914735531feefe76776631562b4",
    ("case-3", "wlp"): "9faa46d56f5ab7e3b660fbaa3de4d0941a4e0f7a229511a7a5e2de8047514ba0",
    ("case-3", "splitting"): "4c365227aa433b4273a391952468300a74f1c022df9d2177b8a6c09e7f143dfc",
    ("case-3", "osculate"): "fff938c9d7ab7eaf742930d7ca2c5d465bce2feba3778a439062d2df46bbf29c",
    ("case-4", "apolar"): "fb9c0ab29daa6ae932ec0184d06b902b7de4d7525dc0662f110ae8f05c52c7d5",
    ("case-4", "togliatti"): "7436a8328b962cf536626210cd24707be00ac914735531feefe76776631562b4",
    ("case-4", "wlp"): "86b115e3ab6ce5718d93083f82444d019644cec32e4c78aecb055ab07f04b6cc",
    ("case-4", "splitting"): "4c365227aa433b4273a391952468300a74f1c022df9d2177b8a6c09e7f143dfc",
    ("case-4", "osculate"): "fff938c9d7ab7eaf742930d7ca2c5d465bce2feba3778a439062d2df46bbf29c",
    ("plane-half", "apolar"): "f9d59313a1a38cc6ca2ff68adbc41bb37ca08686159bd6b7846dbaf2bfc2db39",
    ("plane-half", "togliatti"): "5834f549098c3cb433d5076ed691fcfa6a51f086574663094f8601f556d550fa",
    ("plane-half", "wlp"): "3392e64221ad9c7db87df5674d077f522e4838b2ec76b43f3ba6c2935247758d",
    ("plane-half", "splitting"): "7a042285462e7c86c7e876154363c78d8bf2d176a2de3719fb8d42c2257cac90",
    ("plane-half", "osculate"): "cd9206d4e79f3d9ec550b8041b6bbafc1a3f032a9fc57c7fcc1e13a186230ea3",
    ("plane-thirds", "apolar"): "a5eeba2ac692c4544bbdb0be88da6a4db969f66ce3e1cba064b160b517a18820",
    ("plane-thirds", "togliatti"): "4510a8fa0233adf612a1a5636fd2edf62583043e5a9af7fe3a8e31e830b193e1",
    ("plane-thirds", "wlp"): "ab250a1ba906c68c54a60007b25766b08a9fdde576888560192454fe70d2dd77",
    ("plane-thirds", "splitting"): "a336992beaff97cd456139c9c48e0a34deb57867a45ad97462549802f06e7394",
    ("plane-thirds", "osculate"): "11a953cff2df2ca09b38521477797a16c25a65d544d98f19bf1f19f6df283202",
    ("case-1", "polytope"): "720eae528e04f69ae14fd7ccfaaf6517ee36a4b379eca3b5c075eb6539f3276d",
    ("case-1", "polytope --system"): "c01cd0f1402b33632f60e3e6848d90ebfc14935f672a67223fa1ac3a10fd2803",
    ("case-1", "osculate --system"): "50de21fed2775f3eddd6c0d8427a8c45c215ccc5551abfa1cfad38eb127f1058",
    ("case-2", "polytope"): "5ae98507255f406424ca8905da6e6a02308d644000077519b77a05f664ebcef4",
    ("case-2", "polytope --system"): "dbf9503b66f0f9a9082e3301d218a570633aadad1697e4be786d084ea315ce5a",
    ("case-2", "osculate --system"): "89990ed094d987498066c211e4070418320736a8d86a95bbab048f18cc19e73d",
    ("case-3", "polytope"): "9847974a48db5dd80a77855a6e9111fb7433d91c629af348c7e653d15cd103eb",
    ("case-3", "polytope --system"): "5b31cbbf6cab8f2bfd70e37255f6205a23fa71fbd2e237840d156d49fd09fd9d",
    ("case-3", "osculate --system"): "70924cf392448add7399aba81a96495525823db65896607caee48720e0e95bd2",
    ("case-4", "polytope"): "a4056522c2ab4bd4a5b369af3d5567db2f106febd5a29a1dfc86acaf080f6efc",
    ("case-4", "polytope --system"): "c5065525c78e096d62f32847b28272f7c27d1ff2007c8a2e0b9a9330a0181a97",
    ("case-4", "osculate --system"): "89990ed094d987498066c211e4070418320736a8d86a95bbab048f18cc19e73d",
}


@pytest.mark.parametrize(
    "document", ["case-1", "case-2", "case-3", "case-4", *FRACTION_PLANE_DOCUMENTS]
)
def test_json_stdout_bytes_are_pinned(capsys, tmp_path, document):
    path = tmp_path / f"{document}.json"
    if document in FRACTION_PLANE_DOCUMENTS:
        generators = FRACTION_PLANE_DOCUMENTS[document]
        path.write_text(
            json.dumps({"variables": ["x", "y", "z"], "degree": 3, "generators": generators})
        )
    else:
        code, _, err = run_cli(capsys, "example", "--name", document, "--out", str(path))
        assert code == 0, err
    commands = dict(GOLDEN_COMMANDS)
    if document not in FRACTION_PLANE_DOCUMENTS:
        commands.update(CASE_COMMANDS)
    digests = {}
    for command, extra in commands.items():
        code, out, err = run_cli(capsys, command.split()[0], str(path), *extra, "--json")
        assert (code, err) == (0, "")
        digests[document, command] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == {key: GOLDEN_JSON[key] for key in digests}


# SHA-256 of the stdout of the full n = 3 census, with and without --json
CLASSIFY_N3 = {
    "--json": "ba1935315ad21f62139153c4bd9daab1a5c33667b03c0ba79c288112086c03d0",
    "": "599b3af768cc7e80f68d4bf79d0dffc7feefe1e4e917f0fe83f3e05face24362",
}


def test_classify_n3_stdout_bytes_are_pinned(capsys):
    digests = {}
    for flag in CLASSIFY_N3:
        code, out, err = run_cli(capsys, "classify", "--n", "3", *flag.split())
        assert (code, err) == (0, "")
        digests[flag] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == CLASSIFY_N3


# SHA-256 of the stdout of the n = 4 census up to four, five and six mixed
# generators, with and without --json; they hold one, six and 36 records
CLASSIFY_N4 = {
    ("4", "--json"): "c912c2d086b2fc9217ba9c678fe2c4aef3f79148290d428299375f29eee812ae",
    ("4", ""): "4ac01a38d022c83bd873936e24f5b8722ddb98a7a70b53aa3d2e6c62bb97c011",
    ("5", "--json"): "b2cda253a9f7a6180e54f3936b26f121e4c614d9fea47499c636ee4e86d79301",
    ("5", ""): "4cafbe50b2ab4f0edb3a8a65fbc1af475b3b9f3a8d030b031d2fc53bb03d236a",
    ("6", "--json"): "9b00c4df820113edb49bd477769002de7016956a954ffb060796f6577280da09",
    ("6", ""): "cd34af3e6d6fe8d879749f35feeb5fdf057038b53c35a4338f46664ea5422e7d",
}


def test_classify_n4_stdout_bytes_are_pinned(capsys):
    digests = {}
    for max_extra, flag in CLASSIFY_N4:
        code, out, err = run_cli(
            capsys, "classify", "--n", "4", "--max-extra", max_extra, *flag.split()
        )
        assert (code, err) == (0, "")
        digests[max_extra, flag] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == CLASSIFY_N4


def test_verify_r4_json_stdout_bytes_are_pinned(capsys):
    # d = 3..9 holds both witnesses (d = 3 and d = 9) and the degrees 3 does
    # not divide, where the first random ideals get a full scan
    code, out, err = run_cli(capsys, "verify-r4", "--dmin", "3", "--dmax", "9", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ec9066bebc987455601ccb8d8739c734d0b4e1ff844eea12717f90c3f8a66856"
    )
