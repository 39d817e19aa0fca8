"""Certification checks are explicit raises, so they also run under python -O."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lefschetz

PACKAGE = Path(lefschetz.__file__).resolve().parent


def test_src_has_no_assert_statements():
    # python -O strips assert statements, and a check that can vanish
    # certifies nothing
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _enclosing_functions(name: str) -> list:
    """(file, outermost enclosing function) of each use of ``name`` in the
    package, as a bare name or an attribute; "<module>" outside functions."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        enclosing = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    enclosing.setdefault(inner, node.name)
        found += [
            (path.name, enclosing.get(node, "<module>"))
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
        ]
    return found


def test_rref_serves_only_the_cross_check_and_solve_exact():
    # one rational elimination, kept as the cross-check: every kernel and
    # rank in the package is read off the integer routines instead
    assert sorted(_enclosing_functions("_rref")) == [
        ("linalg.py", "rational_rank"),
        ("linalg.py", "solve_exact"),
    ]


def test_only_the_sampling_loop_opens_a_stream():
    # one loop draws samples: every sampled verdict, and each random ideal of
    # the r = 4 harness, draws through sample_until
    assert _enclosing_functions("rng_for") == [("sampling.py", "sample_until")]


def test_fraction_is_named_only_where_coefficients_are_read_or_printed():
    # integers wherever the entries are integers: Fraction is constructed or
    # named only by these functions, and the list may only shrink
    assert sorted(set(_enclosing_functions("Fraction"))) == [
        ("algebra.py", "__mul__"),  # scalar multiples
        ("algebra.py", "__rmul__"),
        ("algebra.py", "_exact"),  # Form: int when integral, else Fraction
        ("algebra.py", "linear_substitution"),  # one division per output term
        ("linalg.py", "_rref"),  # the rational cross-check route
        ("linalg.py", "kernel_basis"),  # the kernel over Q
        ("linalg.py", "scale_to_integers"),
        ("linalg.py", "solve_exact"),
        ("parser.py", "_term"),  # fractional coefficients in the input
    ]


def test_public_api_is_called_or_exported():
    # no public API that nothing in the package calls: these module-level
    # names are neither referenced by a module nor exported in __all__, and
    # each is kept only because the benchmark scripts call or patch it.  The
    # list may only shrink.
    defined = set()
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined |= {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert sorted(defined - referenced - set(lefschetz.__all__)) == [
        "forms_to_matrix",
        "rational_rank",
        "restricted_generators",
        "solve_exact",
        "substitute_variable",
    ]


DROPPED_VECTOR = """
import sys
from lefschetz import apolarity
from lefschetz.algebra import Form
from lefschetz.wlp import IdealSpec

assert False, "python -O did not strip this assert"


def dropped(kernel):
    return lambda rows, ncols: kernel(rows, ncols)[1:]


# the check both the inverse system and the dual map go through
apolarity.kernel_basis = dropped(apolarity.kernel_basis)
apolarity.integer_kernel = dropped(apolarity.integer_kernel)
spec = IdealSpec(1, 2, [Form(1, 2, {(2, 0): 1, (1, 1): 1}), Form.monomial((0, 2))])
linear = Form.monomial((1, 0))
for route in (
    lambda: apolarity.apolar_complement(spec),
    lambda: apolarity.dual_map_rank(spec, linear),
):
    try:
        route()
    except ArithmeticError as exc:
        print("raised:", exc)
    else:
        sys.exit(1)
"""


def test_apolar_dimension_check_runs_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-O", "-c", DROPPED_VECTOR],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "raised: apolar system has dimension 0, not 1"
    ] * 2
