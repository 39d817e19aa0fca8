"""Planted faults: each mutant of the package must fail the test named for it.

Run from the repository root as ``python tests/planted_faults.py``.  For each
mutant, ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a fresh
temporary directory, one exact text replacement is applied to the copied
source, and pytest runs only the named test there, in its own subprocess (the
copied ``pyproject.toml`` puts the copied ``src/`` first on the path).  The
same test must pass on an unmutated copy.  Each run is stopped after
``TIMEOUT`` seconds: a mutant whose test runs that long is caught (it may
have made a loop unbounded), and an unmutated test that does is broken.  Exit
status 1 when a mutant's test passes, a test fails unmutated, or a
replacement no longer matches the source (the table is stale); 0 otherwise.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# seconds per pytest run; the slowest named test takes a few seconds
TIMEOUT = 60

# (name, file under src/lefschetz, text, replacement, test that must fail)
MUTANTS = (
    (
        "ceiling one too low",
        "wlp.py",
        "ceiling=ideal + min(hs, ht)",
        "ceiling=ideal + min(hs, ht) - 1",
        "tests/test_linalg.py::test_deficient_ranks_are_sound_at_a_small_prime",
    ),
    (
        "artinian at Froberg's degree without a rank",
        "wlp.py",
        "    guess = froberg_degree(spec.n, spec.d, spec.r)\n",
        "    return True\n",
        "tests/test_wlp.py::test_is_artinian_is_false_on_forms_with_a_common_factor",
    ),
    (
        "nonzero rows and columns counted over residues, not over Z",
        "linalg.py",
        "if modp == min(sum(map(any, rows)), sum(map(any, zip(*rows)))):",
        "if modp == min(sum(map(any, _to_modp_array(rows))), "
        "sum(map(any, _to_modp_array(rows).T))):",
        "tests/test_linalg.py::test_exact_rank_screen_counts_nonzero_rows_and_columns",
    ),
    (
        "Laplace jets ranked at a point with a zero coordinate",
        "osculating.py",
        "_jet_matrix(system, s, (1,) * system.n)",
        "_jet_matrix(system, s, (0,) + (1,) * (system.n - 1))",
        "tests/test_cli.py::test_json_stdout_bytes_are_pinned",
    ),
    (
        "jet entries without their falling factorials",
        "osculating.py",
        "prod(map(perm, tail, beta))",
        "1",
        "tests/test_osculating.py::test_jet_matrix_matches_the_nested_loop",
    ),
    (
        "census masks with the first mixed monomial as the lowest bit",
        "classify.py",
        "_bit_words(m - 1 - np.arange(m), words)",
        "_bit_words(np.arange(m), words)",
        "tests/test_classify.py::test_n3_matches_brute_force",
    ),
    (
        "census children extended by their parent's maximum as well",
        "classify.py",
        "np.cumsum(m - 1 - parents.max(axis=1, initial=-1))",
        "np.cumsum(m - parents.max(axis=1, initial=-1))",
        "tests/test_classify.py::test_n3_matches_brute_force",
    ),
    (
        "census children admitted without their canonicity test",
        "classify.py",
        "opens = ~above.any(axis=1)",
        "opens = np.ones(len(block), dtype=bool)",
        "tests/test_classify.py::test_n4_partial_census",
    ),
    (
        "shoelace without its closing edge",
        "polytope.py",
        "zip(hull, hull[1:] + hull[:1])",
        "zip(hull, hull[1:])",
        "tests/test_polytope.py::test_case_volumes_match_the_pyramid_recursion",
    ),
    (
        "zero volume let through as a section's volume",
        "polytope.py",
        "if total == 0:",
        "if total < 0:",
        "tests/test_polytope.py::test_degenerate_sections_raise",
    ),
    (
        "cofactor expansion with its alternating signs flipped",
        "polytope.py",
        "(np.subtract if t % 2 else np.add)",
        "(np.add if t % 2 else np.subtract)",
        "tests/test_polytope.py::test_cofactors_are_the_signed_maximal_minors",
    ),
    (
        "facets without the negated rows of the upper side",
        "polytope.py",
        "np.concatenate((table[below[keep]], -table[above[keep]]))",
        "table[below[keep]]",
        "tests/test_polytope.py::test_case_polytopes",
    ),
    (
        "table facets without the maximal-contact filter",
        "polytope.py",
        "keep = support[[not any(s < o for o in sets) for s in sets]]",
        "keep = support",
        "tests/test_polytope.py::test_table_facets_equal_the_sweep",
    ),
    (
        "projected facet volume not divided by |normal[k]|",
        "polytope.py",
        "divmod(_nvol(section, m - 1), abs(normal[k]))",
        "divmod(_nvol(section, m - 1), 1)",
        "tests/test_polytope.py::test_random_volumes_match_the_pyramid_recursion",
    ),
    (
        "splitting floor stop one rank short of onto",
        "bundles.py",
        "if r * (t + 1) - k == t + d + 1:",
        "if r * (t + 1) - k >= t + d:",
        "tests/test_bundles.py::test_kernel_profile_ranks_on_where_a_rank_is_one_short",
    ),
    (
        "hyperplane rows restricting to x_n = 0",
        "wlp.py",
        "rows.append([-c for c in a[:n]])",
        "rows.append([0] * n)",
        "tests/test_classify.py::test_n3_matches_brute_force",
    ),
    (
        "quotient-map rows reading x^e * x_0 for every coefficient",
        "wlp.py",
        "zip(ups, coeffs)",
        "zip([next(iter(ups))] * len(coeffs), coeffs)",
        "tests/test_wlp.py::test_type_b_apolar_rank_matches_the_stacked_rank",
    ),
    (
        "ideal filled upward from x_0 times the degree below only",
        "wlp.py",
        "ups, below = _shift_table(n, s - 1, 1).values(), cache[s - 1][0]",
        "ups, below = [_shift_table(n, s - 1, 1)[pure_power(n, 0)]], cache[s - 1][0]",
        "tests/test_wlp.py::test_quotient_bases_are_the_monomials_no_generator_divides",
    ),
    (
        "h-vector scan without its cap at the artinian bound",
        "wlp.py",
        "for t in range(artinian_bound(spec) + 1):",
        "for t in count():",
        "tests/test_wlp.py::test_degree_scans_stop_at_the_artinian_bound",
    ),
    (
        "degree d-1 failure read as a rank below r - 1",
        "wlp.py",
        "return ranks[-1] < spec.r\n",
        "return ranks[-1] < spec.r - 1\n",
        "tests/test_classify.py::test_n3_verdicts_agree_with_the_laplace_criteria",
    ),
    (
        "Bareiss leaving rows with a zero head unscaled",
        "linalg.py",
        "elif pivot != prev:",
        "elif False:",
        "tests/test_linalg.py::test_bareiss_matches_the_dense_loop",
    ),
    (
        "rational elimination skipping the row under each pivot",
        "linalg.py",
        "for row_i in mat[rank + 1 :]:",
        "for row_i in mat[rank + 2 :]:",
        "tests/test_linalg.py::test_rational_routes_match_gauss_jordan",
    ),
    (
        "row-wise screen skipping the row under each pivot",
        "linalg.py",
        "below = mat[k + 1 :]",
        "below = mat[k + 2 :]",
        "tests/test_linalg.py::test_modp_rank_matches_python_rank_mod_p",
    ),
    (
        "live-row screen skipping the first live row",
        "linalg.py",
        "live = nz[1:] + rank",
        "live = nz[2:] + rank",
        "tests/test_linalg.py::test_modp_rank_matches_python_rank_mod_p",
    ),
    (
        "stacked screen blind to a zero last row",
        "linalg.py",
        "for k in range(mat.shape[1]):",
        "for k in range(mat.shape[1] - 1):",
        "tests/test_classify.py::test_n3_run_totals",
    ),
    (
        "stacked screen that rules out nothing",
        "linalg.py",
        "independent = np.ones(len(mat), dtype=bool)",
        "independent = np.zeros(len(mat), dtype=bool)",
        "tests/test_classify.py::test_the_n3_census_opens_no_random_stream",
    ),
)


def _run(test: str, mutant=None):
    """Whether ``test`` passes on a copy of the sources, mutated if asked;
    None when it runs past ``TIMEOUT``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            filename, text, replacement = mutant
            path = copy / "src" / "lefschetz" / filename
            source = path.read_text()
            if source.count(text) != 1:
                raise LookupError(f"{filename}: {text!r} does not occur exactly once")
            path.write_text(source.replace(text, replacement))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
        try:
            result = subprocess.run(
                command, cwd=copy, capture_output=True, text=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return None
        return result.returncode == 0


def main() -> int:
    status = 0
    for name, filename, text, replacement, test in MUTANTS:
        try:
            passed = _run(test, (filename, text, replacement))
        except LookupError as error:
            print(f"STALE   {name}: {error}")
            status = 1
            continue
        sound = _run(test) is True  # an unmutated timeout is broken too
        verdict = {True: "MISSED", False: "caught", None: "caught (timed out)"}[passed]
        print(f"{verdict}  {name}: {test}")
        if not sound:
            print(f"BROKEN  {test} fails without the mutant")
        status |= passed is True or not sound
    return status


if __name__ == "__main__":
    sys.exit(main())
