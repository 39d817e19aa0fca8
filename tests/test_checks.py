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


DROPPED_VECTOR = """
import sys
from lefschetz import apolarity
from lefschetz.algebra import Form
from lefschetz.wlp import IdealSpec

assert False, "python -O did not strip this assert"
full_kernel = apolarity.kernel_basis
apolarity.kernel_basis = lambda rows, ncols: full_kernel(rows, ncols)[1:]
x2, xy, y2 = Form.monomial((2, 0)), Form.monomial((1, 1)), Form.monomial((0, 2))
spec = IdealSpec(1, 2, [x2 + xy, y2])
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
