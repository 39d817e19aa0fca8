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


def test_rref_serves_only_the_cross_check_and_solve_exact():
    # one rational elimination, kept as the cross-check: every kernel and
    # rank in the package is read off the integer routines instead
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
            if (isinstance(node, ast.Name) and node.id == "_rref")
            or (isinstance(node, ast.Attribute) and node.attr == "_rref")
        ]
    assert sorted(found) == [("linalg.py", "rational_rank"), ("linalg.py", "solve_exact")]


DROPPED_VECTOR = """
import sys
from lefschetz import apolarity
from lefschetz.algebra import Form
from lefschetz.wlp import IdealSpec

assert False, "python -O did not strip this assert"
full_kernel = apolarity.kernel_basis
apolarity.kernel_basis = lambda rows, ncols: full_kernel(rows, ncols)[1:]
spec = IdealSpec(1, 2, [Form(1, 2, {(2, 0): 1, (1, 1): 1}), Form.monomial((0, 2))])
try:
    apolarity.apolar_complement(spec)
except ArithmeticError as exc:
    print("raised:", exc)
    sys.exit(0)
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
    assert done.stdout.startswith("raised: apolar system has dimension 0, not 1")
