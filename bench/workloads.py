"""The three benchmark workloads and the checks on their outputs.

Each workload has ``prepare(seed)``, which builds the inputs and does the
lazy warm-up (timed as set-up), and ``run(seed, inputs, clock, probe)``, one
timed pass that ends in a certified result checked against a reference.  A
pass returns an ``Outcome``: items attempted and failed, the start and
latency of each item on ``clock``, and census counts for the traced ratios.
The censuses time each certified candidate and the audit each ideal.  On
``census_n4_partial`` the candidates come in one burst of a fifth of a
second, shorter than the gauge's period, so the censuses also call
``probe()`` every ``PROBE_EVERY`` items to read the host's speed where the
items are; ``clock`` leaves the probes' time out.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import lefschetz
from corpus import CORPUS_SIZE, audit_ideal, generate_corpus

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# census items between two readings of the host's speed
PROBE_EVERY = 10

# Record fields compared against the reference: every field the census
# reports today.  A field added later does not invalidate the reference.
RECORD_FIELDS = (
    "n", "j", "r", "generators", "extra", "apolar", "togliatti", "trivial_a",
    "trivial_b", "verdict", "edge_rule_fired", "toric_degree", "quadric",
    "laplace_delta", "orbit_size",
)

@dataclass
class Outcome:
    attempted: int
    failed: int
    items: list = field(default_factory=list)  # (start, seconds) per item
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    items_per_pass: int  # counted as failed when a pass raises
    prepare: object
    run: object


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def key_text(key) -> str:
    """Compact text of a canonical generator key, e.g. '0003;0012;...'."""
    return ";".join("".join(str(c) for c in e) for e in key)


def record_digest(record) -> str:
    data = record.to_json_dict()
    return _sha({name: data[name] for name in RECORD_FIELDS})[:16]


def census_summary(census) -> dict:
    """The reference form of a ClassificationRun."""
    return {
        "subsets_seen": census.subsets_seen,
        "candidates_tested": census.candidates_tested,
        "hit_counts": _sha(sorted((key_text(k), c) for k, c in census.hit_counts.items())),
        "smooth": sum(1 for r in census.records if r.verdict == "smooth"),
        "records": {key_text(r.generators): record_digest(r) for r in census.records},
    }


def load_reference(name: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)[name]


def _census(name, n, max_extra):
    def prepare(seed):
        # warm-up: the n = 2 census runs every certification layer once
        lefschetz.enumerate_cubic_togliatti(2, seed=seed)
        return load_reference(name)

    def run(seed, reference, clock, probe):
        items = []
        last = None

        def progress(key, record):
            # one item is one certified candidate, timed between callbacks
            nonlocal last
            now = clock()
            if last is not None:
                items.append((last, now - last))
                if len(items) % PROBE_EVERY == 0:
                    probe()
            last = clock()

        census = lefschetz.enumerate_cubic_togliatti(
            n, seed=seed, max_extra=max_extra, progress=progress
        )
        summary = census_summary(census)
        expected, actual = reference["records"], summary.pop("records")
        attempted = max(census.candidates_tested, reference["candidates_tested"])
        failed = sum(
            expected.get(key) != actual.get(key) for key in expected.keys() | actual.keys()
        )
        if summary != {k: v for k, v in reference.items() if k != "records"}:
            failed = attempted
        info = {
            "subsets": census.subsets_seen,
            "candidates": census.candidates_tested,
            "records": len(census.records),
        }
        return Outcome(attempted, failed, items, info)

    return prepare, run


def _corpus_prepare(seed):
    return generate_corpus(seed, load_reference("corpus_shapes"))


def _corpus_run(seed, specs, clock, _probe):
    items, failed = [], 0
    for i, spec in enumerate(specs):
        start = clock()
        try:
            violated = audit_ideal(seed, i, spec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            violated = ["raised"]
        items.append((start, clock() - start))
        if violated:
            print(f"corpus ideal {i}: {violated}", file=sys.stderr)
            failed += 1
    return Outcome(len(specs), failed, items)


_n3_prepare, _n3_run = _census("census_n3", 3, None)
_n4_prepare, _n4_run = _census("census_n4_partial", 4, 3)

# why each workload is in the benchmark: see README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("census_n3", 714, _n3_prepare, _n3_run),
        Workload("census_n4_partial", 71, _n4_prepare, _n4_run),
        Workload("corpus_audit", CORPUS_SIZE, _corpus_prepare, _corpus_run),
    )
}
