"""How far the host-speed gauge in run.py is from the library's own code.

    python3 bench/gauge_check.py --seconds 180

Times ``reference_loop`` and four kinds of library work back to back for
``--seconds``, in CPU time as ``run.py`` does: Fraction elimination
(``rational_rank``), fraction-free integer elimination (``bareiss_rank``)
and the numpy mod-p rank (``exact_rank``) on one fixed 14 x 14 matrix, and
``canonical_form`` on n = 4 cubic subsets.  Each kernel's slowdown is its time over its fastest
time.  Rows are grouped by the loop's slowdown, and each kernel's slowdown
is printed as a share of the loop's.  A share of 1 means the gauge converts
that kind of work exactly; a change that moves work from kind a to kind b
is misread in a slow spell by at most (share a - share b) times the share
of the pass it moves.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lefschetz.classify import canonical_form  # noqa: E402
from lefschetz.linalg import bareiss_rank, exact_rank, rational_rank  # noqa: E402
from run import reference_loop  # noqa: E402


def kernels():
    rng = random.Random(7)
    size = 14
    ints = [[rng.randint(-40, 40) for _ in range(size)] for _ in range(size)]
    fractions = [[Fraction(x, 1 + (i + j) % 5) for j, x in enumerate(row)]
                 for i, row in enumerate(ints)]
    cubics = [(a, b, c, 3 - a - b - c) for a in range(4) for b in range(4 - a)
              for c in range(4 - a - b)]
    subsets = [tuple(rng.sample(cubics, 7)) for _ in range(40)]
    return {
        "loop": reference_loop,
        "fraction": lambda: [rational_rank(fractions) for _ in range(4)],
        "integer": lambda: [bareiss_rank(ints) for _ in range(8)],
        "modp": lambda: [exact_rank(ints) for _ in range(60)],
        "canonical": lambda: [canonical_form(s) for s in subsets],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=180.0)
    args = parser.parse_args(argv)
    work = kernels()
    rows = []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        row = {}
        for name, kernel in work.items():
            start = time.thread_time()
            kernel()
            row[name] = time.thread_time() - start
        rows.append(row)
    fastest = {name: min(row[name] for row in rows) for name in work}
    groups = {}
    for row in rows:
        slow = {name: row[name] / fastest[name] for name in work}
        groups.setdefault(round(slow["loop"] * 4) / 4, []).append(slow)
    print("loop ms (fastest): %.1f; rows: %d" % (1000 * fastest["loop"], len(rows)))
    print("loop slowdown  rows  " + "  ".join(f"{name:>9}" for name in work if name != "loop"))
    for level in sorted(groups):
        group = groups[level]
        shares = [
            statistics.median(s[name] / s["loop"] for s in group)
            for name in work if name != "loop"
        ]
        print(f"{level:13.2f}  {len(group):4d}  " + "  ".join(f"{v:9.2f}" for v in shares))


if __name__ == "__main__":
    main()
