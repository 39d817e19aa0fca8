"""Write bench/reference.json: the census outputs the benchmark checks against,
and the shapes of the seed-0 corpus that every other seed redraws.

    python3 bench/make_reference.py

Run it only when a change to the census output is intended and explained;
the reference taken from the initial code includes the fourth smooth n = 3
record (toric degree 9), so the benchmark neither hides nor settles that
disagreement with the paper.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import lefschetz  # noqa: E402
from corpus import generate_corpus, shape  # noqa: E402
from workloads import REFERENCE_PATH, census_summary  # noqa: E402


def main():
    reference = {
        "census_n3": census_summary(lefschetz.enumerate_cubic_togliatti(3, seed=0)),
        "census_n4_partial": census_summary(
            lefschetz.enumerate_cubic_togliatti(4, seed=0, max_extra=3)
        ),
        "corpus_shapes": [shape(spec) for spec in generate_corpus(0)],
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
