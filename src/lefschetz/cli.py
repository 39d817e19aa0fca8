"""Command-line interface.

Commands take an ideal document (JSON file with ``variables``, ``degree``,
``generators`` and optional ``seed`` / ``trials``) or inline ``--gen``
expressions, and report either human-readable text or canonical JSON
(``--json``; sorted keys, compact separators, so identical inputs and seeds
give byte-identical bytes).  Only the commands that sample on general input
(``wlp``, ``togliatti``, ``osculate``, ``splitting``, ``verify-r4``) take
``--seed`` and ``--trials``; each value comes from its flag, then the
document, then the default.  A document's ``seed`` and ``trials`` are
checked alike by every document command.  A report command returns its
JSON payload and its text lines, and ``main`` renders one of them;
``classify`` and ``example`` return their rendered text.  ``main`` opens
``--out`` before the command runs, in append mode, and writes every
command's output, to stdout or over ``--out``, once the command has
finished: a command that fails leaves ``--out`` as it found it.

Exit status: 0 success, 1 analysis failure (non-artinian input where
artinian is required, certification disagreement, verification violations),
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .apolarity import apolar_complement
from .bundles import AnalysisError, splitting_type, verify_r4_theorem
from .classify import (
    build_named_example,
    canonical_json,
    classification_case_ideal,
    enumerate_cubic_togliatti,
)
from .osculating import laplace_count
from .parser import (
    ParseError, default_names, format_form, is_variable_name, parse_polynomial
)
from .polytope import (
    VERDICT_DEGENERATE,
    DegeneratePolytopeError,
    build_polytope,
    polytope_json,
    smoothness_report,
)
from .sampling import DEFAULT_SEED, DEFAULT_TRIALS
from .wlp import (
    IdealSpec,
    certified_lefschetz_report,
    fails_in_degree_dminus1,
    generator_bound,
    h_vector,
    is_artinian,
)


class UsageError(Exception):
    """Bad document or flags; maps to exit status 2."""


def _open_for_writing(path):
    """``path`` opened in append mode, which changes none of its bytes;
    UsageError when it cannot be written."""
    try:
        return open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
        return
    if out.seekable():  # a pipe holds no earlier bytes to replace
        out.truncate(0)
    out.write(text)


class Document:
    """A parsed ideal document: the spec plus its display names and policy."""

    def __init__(self, spec: IdealSpec, names, seed, trials):
        self.spec = spec
        self.names = names
        self.seed = seed
        self.trials = trials

    def format(self, form) -> str:
        return format_form(form, self.names)


def _integer_setting(name: str, *values):
    """The first of ``values`` that is not None; it must be a true int."""
    for value in values:
        if value is None:
            continue
        if type(value) is not int:
            raise UsageError(f"{name} must be an integer, not {value!r}")
        return value
    return None


def _at_least(name: str, value: int, floor: int) -> int:
    """``value`` itself, or a UsageError when it is below ``floor``."""
    if value < floor:
        raise UsageError(f"{name} must be at least {floor}, not {value}")
    return value


def _sampling_settings(args, data=None):
    """(seed, trials): flag, then document, then default.  A command that
    draws no sample has no flags, but its document is checked alike."""
    data = data or {}
    seed = _integer_setting(
        "seed", getattr(args, "seed", None), data.get("seed"), DEFAULT_SEED
    )
    trials = _integer_setting(
        "trials", getattr(args, "trials", None), data.get("trials"), DEFAULT_TRIALS
    )
    return seed, _at_least("trials", trials, 1)


def _load_document(args) -> Document:
    if getattr(args, "file", None):
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise UsageError(f"cannot read {args.file}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"{args.file} is not valid JSON: {exc}") from exc
    elif getattr(args, "gen", None):
        if not args.variables:
            raise UsageError("--gen needs --variables")
        if args.degree is None:
            raise UsageError("--gen needs --degree")
        data = {
            "variables": [v.strip() for v in args.variables.split(",")],
            "degree": args.degree,
            "generators": args.gen,
        }
    else:
        raise UsageError("give an ideal document file or --gen expressions")
    if not isinstance(data, dict):
        raise UsageError("an ideal document is a JSON object")
    names, expressions = data.get("variables"), data.get("generators")
    for key, value in (("variables", names), ("generators", expressions)):
        if type(value) is not list or not all(type(v) is str for v in value):
            raise UsageError(f"{key} must be a list of strings, not {value!r}")
    degree = _integer_setting("degree", data.get("degree"))
    if degree is None:
        raise UsageError("document needs a degree")
    for name in names:
        if not is_variable_name(name):
            raise UsageError(f"variable name {name!r} is not a single name token")
    if len(set(names)) != len(names):
        raise UsageError("duplicate variable names")
    try:
        forms = [parse_polynomial(src, names, degree) for src in expressions]
        spec = IdealSpec(len(names) - 1, degree, forms)
    except (ParseError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    seed, trials = _sampling_settings(args, data)
    return Document(spec, names, seed, trials)


def _cmd_wlp(args, doc: Document):
    hv = h_vector(doc.spec)
    lines = ["h-vector: " + " ".join(str(h) for h in hv)]
    reports = []
    failures = []
    for j in range(len(hv)):
        step = certified_lefschetz_report(doc.spec, j, seed=doc.seed, trials=doc.trials)
        verdict = "maximal" if step.maximal_rank else "NOT maximal"
        if not step.maximal_rank:
            failures.append(j)
        lines.append(
            f"degree {j}: {step.dim_source} -> {step.dim_target}, "
            f"rank {step.rank}, {verdict}"
        )
        reports.append(
            {
                "degree": j,
                "dim_source": step.dim_source,
                "dim_target": step.dim_target,
                "rank": step.rank,
                "maximal": step.maximal_rank,
                "linear_form": doc.format(step.lefschetz_form),
            }
        )
    if failures:
        lines.append("WLP fails in degrees: " + " ".join(str(j) for j in failures))
    else:
        lines.append("WLP holds")
    payload = {
        "n": doc.spec.n,
        "d": doc.spec.d,
        "r": doc.spec.r,
        "seed": doc.seed,
        "h_vector": list(hv),
        "reports": reports,
        "wlp": not failures,
        "failures": failures,
    }
    return payload, lines


def _cmd_togliatti(args, doc: Document):
    spec = doc.spec
    if not is_artinian(spec):
        raise AnalysisError("ideal is not artinian")
    bound = generator_bound(spec.n, spec.d)
    if spec.r > bound:
        raise AnalysisError(
            f"r = {spec.r} exceeds the generator bound {bound}; "
            "the degree-(d-1) theory does not apply"
        )
    step = certified_lefschetz_report(
        spec, spec.d - 1, seed=doc.seed, trials=doc.trials
    )
    fails_wlp = not step.maximal_rank
    dependent = fails_in_degree_dminus1(spec, seed=doc.seed, trials=doc.trials)
    system = apolar_complement(spec)
    laplace = laplace_count(system, spec.d - 1, seed=doc.seed, trials=doc.trials)
    has_laplace = laplace.delta >= 1
    if not (fails_wlp == dependent == has_laplace):
        raise AnalysisError(
            "equivalence check failed: "
            f"wlp-failure={fails_wlp} hyperplane-dependence={dependent} "
            f"laplace={has_laplace} (delta={laplace.delta})"
        )
    payload = {
        "n": spec.n,
        "d": spec.d,
        "r": spec.r,
        "bound": bound,
        "seed": doc.seed,
        "fails_dminus1": fails_wlp,
        "hyperplane_dependent": dependent,
        "laplace_order": spec.d - 1,
        "laplace_delta": laplace.delta,
        "togliatti": fails_wlp,
    }
    yn = {True: "yes", False: "no"}
    lines = [
        f"r = {spec.r}, generator bound = {bound}",
        f"multiplication drops rank in degree {spec.d - 1}: {yn[fails_wlp]}",
        f"generators dependent on a general hyperplane: {yn[dependent]}",
        f"Laplace equations of order {spec.d - 1}: {laplace.delta}",
        f"Togliatti system: {yn[fails_wlp]}",
    ]
    return payload, lines


def _cmd_osculate(args, doc: Document):
    _at_least("--order", args.order, 0)
    system = doc.spec if args.system else apolar_complement(doc.spec)
    osc = laplace_count(system, args.order, seed=doc.seed, trials=doc.trials)
    payload = {
        "order": osc.order,
        "members": len(system.members),
        "projective_target": system.projective_target,
        "expected_dim": osc.expected_dim,
        "actual_dim": osc.actual_dim,
        "delta": osc.delta,
        "degenerate": osc.degenerate,
        "seed": doc.seed,
    }
    lines = [
        f"system of {len(system.members)} members in P^{system.projective_target}",
        f"osculating space of order {osc.order}: expected dim {osc.expected_dim}, "
        f"actual dim {osc.actual_dim}",
        f"Laplace equations of order {osc.order}: {osc.delta}",
    ]
    if osc.degenerate:
        lines.append("target too small for the expected dimension (degenerate count)")
    return payload, lines


def _cmd_apolar(args, doc: Document):
    system = apolar_complement(doc.spec)
    basis = [doc.format(f) for f in system.members]
    payload = {"n": system.n, "d": system.d, "dimension": len(basis), "basis": basis}
    lines = [f"inverse system dimension {len(basis)} in degree {system.d}"]
    lines += ["  " + text for text in basis]
    return payload, lines


def _cmd_polytope(args, doc: Document):
    polytope = build_polytope(doc.spec if args.system else apolar_complement(doc.spec))
    if not polytope.is_full_dimensional:
        payload = {
            "points": [list(p) for p in polytope.points],
            "affine_dim": polytope.affine_dim,
            "verdict": VERDICT_DEGENERATE,
        }
        lines = [f"degenerate: affine dimension {polytope.affine_dim} < {polytope.dim}"]
        return payload, lines
    smooth = smoothness_report(polytope)
    payload = polytope_json(polytope)
    payload.update(
        {
            "simple": smooth.simple,
            "smooth": smooth.smooth,
            "edge_rule_fired": smooth.edge_rule_fired,
            "verdict": smooth.verdict,
        }
    )
    lines = [
        f"{len(polytope.points)} lattice points, {len(polytope.vertices)} vertices, "
        f"{len(polytope.facets)} facets, {len(polytope.edges)} edges",
        f"verdict: {smooth.verdict}",
        f"normalized volume (toric degree): {payload['normalized_volume']}",
    ]
    return payload, lines


def _cmd_splitting(args, doc: Document):
    result = splitting_type(doc.spec, seed=doc.seed, trials=doc.trials)
    payload = {
        "d": result.d,
        "values": list(result.values),
        "wlp_dminus1": result.wlp_in_degree_dminus1,
        "seed": doc.seed,
    }
    lines = [
        "splitting type on a general line: ("
        + ", ".join(str(a) for a in result.values)
        + ")",
        f"WLP in degree {result.d - 1}: "
        + ("yes" if result.wlp_in_degree_dminus1 else "no"),
    ]
    return payload, lines


def _cmd_classify(args):
    _at_least("--n", args.n, 2)
    if args.max_extra is not None:
        _at_least("--max-extra", args.max_extra, 1)
    elif args.n >= 4:
        raise UsageError("--max-extra is required for n >= 4")
    run = enumerate_cubic_togliatti(args.n, max_extra=args.max_extra)
    if args.json:
        return "".join(
            canonical_json(record.to_json_dict()) + "\n" for record in run.records
        )
    lines = []
    for record in run.records:
        quadric = record.to_json_dict()["quadric"]
        lines.append(
            f"j={record.j} r={record.r} verdict={record.verdict} "
            f"degree={record.toric_degree} orbit={record.orbit_size} "
            f"quadric[{quadric}] generators "
            + " ".join("".join(map(str, e)) for e in record.generators)
        )
    summary = (
        f"{run.subsets_seen} subsets, {run.candidates_tested} canonical "
        f"candidates, {len(run.records)} Togliatti systems"
    )
    counts = Counter(record.verdict for record in run.records)
    if counts:
        summary += " (" + ", ".join(f"{v}: {counts[v]}" for v in sorted(counts)) + ")"
    return "\n".join(lines + [summary]) + "\n"


def _cmd_verify_r4(args):
    seed, trials = _sampling_settings(args)
    # r = 4 generators stay within the bound d + 1 only from d = 3 on
    _at_least("--dmin", args.dmin, 3)
    _at_least("--dmax", args.dmax, args.dmin)
    report_dict = verify_r4_theorem(args.dmin, args.dmax, seed=seed, trials=trials)
    lines = []
    for entry in report_dict["per_degree"]:
        status = "ok"
        if entry["degree_dminus1_failures"] or entry["full_wlp_failures"]:
            status = "FAIL"
        line = (
            f"d={entry['d']}: {entry['monomial_orbits']} monomial orbits + "
            f"{entry['random_samples']} random ideals, {status}"
        )
        if entry["witness"]:
            line += (
                f"; witness {entry['witness']['ideal']} fails in degrees "
                + " ".join(str(j) for j in entry["witness"]["failure_degrees"])
            )
        lines.append(line)
    lines.append("verdict: " + ("ok" if report_dict["ok"] else "VIOLATIONS"))
    return report_dict, lines


def _parse_partition(text: str):
    parts = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError("empty part in --partition")
        try:
            parts.append(tuple(int(i) for i in chunk.split(",")))
        except ValueError as exc:
            raise UsageError(f"bad --partition: {exc}") from exc
    return parts


def _cmd_example(args):
    try:
        if args.name.startswith("case-"):
            case = args.name[len("case-") :]
            if case not in ("1", "2", "3", "4"):
                raise UsageError("cases are case-1 .. case-4")
            if args.n not in (None, 3):
                raise UsageError("the classification cases live on P^3")
            spec = classification_case_ideal(int(case))
        else:
            if args.n is None:
                raise UsageError(f"--n is required for {args.name!r}")
            partition = _parse_partition(args.partition) if args.partition else None
            spec = build_named_example(args.name, args.n, partition)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    names = default_names(spec.n)
    document = {
        "variables": names,
        "degree": spec.d,
        "generators": [format_form(g, names) for g in spec.generators],
    }
    return canonical_json(document) + "\n"


def _add_document_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("file", nargs="?", help="ideal document (JSON)")
    parser.add_argument(
        "--gen",
        action="append",
        metavar="EXPR",
        help="inline generator expression (repeatable; needs --variables/--degree)",
    )
    parser.add_argument("--variables", help="comma-separated variable names")
    parser.add_argument("--degree", type=int, help="generation degree d")
    parser.set_defaults(document=True)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefschetz",
        description="Weak Lefschetz Property, Laplace equations, Togliatti systems",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write the report to this file")
    output.set_defaults(document=False)
    report = argparse.ArgumentParser(add_help=False, parents=[output])
    report.add_argument("--json", action="store_true", help="machine-readable output")
    sampled = argparse.ArgumentParser(add_help=False, parents=[report])
    sampled.add_argument("--seed", type=int, default=None, help="sampling seed")
    sampled.add_argument("--trials", type=int, default=None, help="sampling trials")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text, parent=sampled):
        return commands.add_parser(name, help=help_text, parents=[parent])

    p = add_command("wlp", "full WLP scan of an artinian ideal")
    _add_document_arguments(p)
    p.set_defaults(handler=_cmd_wlp)

    p = add_command("togliatti", "degree-(d-1) failure, checked three equivalent ways")
    _add_document_arguments(p)
    p.set_defaults(handler=_cmd_togliatti)

    p = add_command("osculate", "osculating dimension of the image")
    _add_document_arguments(p)
    p.add_argument("--order", type=int, required=True, help="osculation order s")
    p.add_argument(
        "--system",
        action="store_true",
        help="treat the generators themselves as the linear system "
        "(default: its apolar complement)",
    )
    p.set_defaults(handler=_cmd_osculate)

    p = add_command("apolar", "apolar (Macaulay inverse) system basis", report)
    _add_document_arguments(p)
    p.set_defaults(handler=_cmd_apolar)

    p = add_command("polytope", "lattice polytope certificates", report)
    _add_document_arguments(p)
    p.add_argument(
        "--system",
        action="store_true",
        help="build the polytope from the generators, not the apolar system",
    )
    p.set_defaults(handler=_cmd_polytope)

    p = add_command("splitting", "syzygy-bundle splitting type")
    _add_document_arguments(p)
    p.set_defaults(handler=_cmd_splitting)

    p = add_command("classify", "enumerate monomial Togliatti systems of cubics", report)
    p.add_argument("--n", type=int, required=True, help="projective dimension")
    p.add_argument(
        "--max-extra",
        type=int,
        default=None,
        help="cap on the number of mixed generators (required for n >= 4)",
    )
    p.set_defaults(handler=_cmd_classify)

    p = add_command("verify-r4", "scan the 4-generator picture on P^2 over a degree range")
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(handler=_cmd_verify_r4)

    p = add_command("example", "emit a named example as a document", output)
    p.add_argument(
        "--name",
        required=True,
        help="truncated-simplex | second-example | ilardi-counterexample | "
        "partition | case-1 .. case-4",
    )
    p.add_argument("--n", type=int, default=None, help="projective dimension")
    p.add_argument(
        "--partition",
        help="variable partition, e.g. '0,1|2|3' (with --name partition)",
    )
    p.set_defaults(handler=_cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    out, made = None, False
    try:
        if args.out:  # opened before any work, so that a bad path costs none
            made = not os.path.lexists(args.out)
            out = _open_for_writing(args.out)
        if args.document:
            result = args.handler(args, _load_document(args))
        else:
            result = args.handler(args)
        if isinstance(result, str):  # classify and example render their own text
            text, payload = result, {}
        else:
            payload, lines = result
            payload["command"] = args.command
            if args.json:
                text = canonical_json(payload) + "\n"
            else:
                text = "\n".join(lines) + "\n"
        _emit(text, out)
        made = False  # the file holds the report: keep it
        # a verify-r4 report is written in full before its violations fail
        if payload.get("violations"):
            raise AnalysisError("; ".join(payload["violations"]))
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AnalysisError, DegeneratePolytopeError, NotImplementedError, ValueError) as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if out is not None:
            out.close()
            if made:  # the command failed before its report
                os.remove(args.out)


if __name__ == "__main__":
    sys.exit(main())
