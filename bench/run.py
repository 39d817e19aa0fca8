"""Benchmark runner for the lefschetz library.

    python3 bench/run.py --workload census_n3 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

Imports the library from ``src/`` next to this directory.  Every timed pass
runs in a fresh child process of its own, single-threaded: the child
imports the library, builds the inputs and warms up (timed as set-up), then
runs one pass and reports it.  Nothing cached in one pass can therefore
speed up the next, and every set-up is a cold one.  Passes repeat until the
next one would overrun ``--seconds``; at least one always runs, and set-up
alone is repeated until it has been timed ``SETUP_REPEATS`` times.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are printed.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every checked
output matched its reference.

End-to-end times are the CPU time of the child's thread.  The work is
single-threaded and does no I/O, so that is its wall time less the moments
the virtual machine's host takes the CPU away, pauses of several
milliseconds that otherwise decide the slowest items.  They are reported
at a fixed host speed: the shared host this was written on runs the same
code 1.5 to 2.5 times slower for tens of seconds at a time, so raw seconds
spread far wider than any useful bound.
During set-up and every untraced pass a timer signal runs the fixed
``reference_loop`` every ``GAUGE_PERIOD_S``; its time is taken out of every
measurement, and each stretch of work between two readings is converted to
the speed at which the loop takes ``NOMINAL_LOOP_S``.  The raw seconds are
printed beside the results; traced passes report raw wall seconds.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("census_n3", "census_n4_partial", "corpus_audit")
# set-up is timed at least this many times in a run; its median is reported
SETUP_REPEATS = 3
# the host's speed is read this often during set-up and a pass
GAUGE_PERIOD_S = 0.5
# reference loops read together before and after a timed stretch
LOOPS_AROUND = 3
# what reference_loop takes on the quiet host
NOMINAL_LOOP_S = 0.014
# a whole run ends within this many seconds, whatever --seconds says
RUN_LIMIT_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: what one child process does
    parser.add_argument("--child", choices=("setup", "pass", "traced"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
    }


def reference_loop():
    """About 14 ms of building, sorting and hashing small tuples and adding
    Fractions on a quiet host; fixed, so its time shows the host's speed."""
    counts = {}
    for k in range(3000):
        key = tuple(sorted(((k * 7 + j) % 11, j) for j in range(8)))
        counts[key] = counts.get(key, Fraction(0)) + Fraction(k, 7)
    return len(counts)


class Gauge:
    """Reads the host's speed by timing ``reference_loop`` now and then.

    ``clock()`` is the thread's CPU time minus the time spent in the loop,
    so durations taken with it leave the readings out; ``wall()`` is the
    same on the wall clock.  ``readings`` holds (clock() at the reading,
    loop seconds) in order."""

    def __init__(self):
        self.spent = 0.0
        self.spent_wall = 0.0
        self.readings = []
        self.reading = False

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = time.thread_time()
            if spent == self.spent:  # no reading ran in between
                return now - spent

    def wall(self) -> float:
        return time.perf_counter() - self.spent_wall

    def read(self, count: int = 1):
        if self.reading:  # the timer fired during a reading
            return
        self.reading = True
        wall = time.perf_counter()
        start = time.thread_time()
        at = start - self.spent
        loops = []
        for _ in range(count):
            begin = time.thread_time()
            reference_loop()
            loops.append(time.thread_time() - begin)
        self.readings.append((at, statistics.median(loops)))
        self.spent += time.thread_time() - start
        self.spent_wall += time.perf_counter() - wall
        self.reading = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda *_: self.read())
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def nominal(self, start: float, end: float) -> float:
        """Seconds of work from ``start`` to ``end`` at the nominal speed.

        Each stretch between two readings is taken at the mean loop time
        of the readings at its ends."""
        at = [t for t, _ in self.readings]
        cuts = [start] + at[bisect.bisect_right(at, start):bisect.bisect_left(at, end)] + [end]
        total = 0.0
        for u, v in zip(cuts, cuts[1:]):
            before = self.readings[max(bisect.bisect_right(at, u) - 1, 0)][1]
            after = self.readings[min(bisect.bisect_left(at, v), len(at) - 1)][1]
            total += (v - u) * 2 * NOMINAL_LOOP_S / (before + after)
        return total


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: a measured sample, never an interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, wall: float, info: dict) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    from tracer import SPANS

    stats, edges = tracer.stats, tracer.edges
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (stats[name].calls, "count")
        metrics[f"{name}.self_s"] = (stats[name].self_s, "s")
    exact = stats["linalg.exact_rank"].calls
    fallbacks = edges["linalg.exact_rank", "linalg.bareiss_rank"]
    reports = stats["wlp.certified_lefschetz_report"].calls
    samples = edges["wlp.certified_lefschetz_report", "wlp.multiplication_rank"]
    subsets, candidates = info.get("subsets", 0), info.get("candidates", 0)
    metrics.update({
        "linalg.exact_rank.cells": (stats["linalg.exact_rank"].cells, "count"),
        "linalg.bareiss_fallback.calls": (fallbacks, "count"),
        "linalg.modp_certified_ratio": (1.0 - ratio(fallbacks, exact) if exact else 0.0, "1"),
        "wlp.samples_per_report": (ratio(samples, reports), "1"),
        "classify.candidate_ratio": (ratio(candidates, subsets), "1"),
        "classify.hit_ratio": (ratio(info.get("records", 0), candidates), "1"),
        "polytope.normalized_volume.incl_s": (
            stats["polytope.normalized_volume"].incl_s, "s"
        ),
        "trace.wall_s": (wall, "s"),
        "trace.unspanned_s": (wall - sum(s.self_s for s in stats.values()), "s"),
    })
    return metrics


def child(args) -> dict:
    """One fresh process: cold set-up, then (unless ``setup``) one pass."""
    # numpy's import follows the host's file cache, not its CPU speed, and no
    # change to the library moves it, so it is left out of set-up
    import numpy

    gauge = Gauge()
    gauge.read(LOOPS_AROUND)
    with gauge:
        start, wall = gauge.clock(), gauge.wall()
        sys.path.insert(0, str(SRC))
        import lefschetz
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.prepare(args.seed)
        prepared, setup_wall = gauge.clock(), gauge.wall() - wall
    gauge.read(LOOPS_AROUND)
    if Path(lefschetz.__file__).resolve().parent != SRC / "lefschetz":
        raise RuntimeError(f"imported lefschetz from {lefschetz.__file__}")
    report = {
        "setup_s": gauge.nominal(start, prepared),
        "raw_setup_s": setup_wall,
        "numpy": numpy.__version__,
    }
    if args.child == "setup":
        return report
    gc.collect()
    gauge.read(LOOPS_AROUND)
    tracer, probe = None, gauge.read
    if args.child == "traced":
        from tracer import Tracer

        tracer, probe = Tracer(), lambda: None
    with tracer or gauge:
        start, wall = gauge.clock(), gauge.wall()
        try:
            outcome = workload.run(args.seed, inputs, gauge.clock, probe)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome = workloads.Outcome(workload.items_per_pass, workload.items_per_pass)
        end, wall = gauge.clock(), gauge.wall() - wall
    gauge.read(LOOPS_AROUND)
    report.update({
        "wall_s": gauge.nominal(start, end),
        "raw_wall_s": wall,
        "items": [gauge.nominal(at, at + seconds) for at, seconds in outcome.items],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "loop_s": statistics.median(loop for _, loop in gauge.readings),
    })
    if tracer is not None:
        report["layers"] = {
            name: list(entry)
            for name, entry in layer_metrics(tracer, wall, outcome.info).items()
        }
    return report


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one child process to its end and return its report."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--child", mode,
    ]
    proc = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=False,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, env: dict):
    """Run passes for ``--seconds``; return (attempted, failed, metrics, raw).

    ``raw`` holds figures printed for people but not part of the result."""
    begin = time.perf_counter()
    deadline = begin + RUN_LIMIT_S
    modes = ("pass", "traced") if args.trace else ("pass",)
    reports = {mode: [] for mode in modes}
    while True:
        for mode in modes:
            reports[mode].append(spawn(args, mode, deadline))
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(reports["pass"]) > args.seconds:
            break
    passes = [r for mode in modes for r in reports[mode]]
    env["numpy"] = passes[0]["numpy"]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    untraced = reports["pass"]
    raw = {
        "passes": (len(untraced), "count"),
        "items": (sum(len(r["items"]) for r in untraced), "count"),
        "raw_wall_s": (statistics.median(r["raw_wall_s"] for r in untraced), "s"),
        "reference_loop_ms": (1000.0 * statistics.median(r["loop_s"] for r in passes), "ms"),
        "fail_ratio": (ratio(failed, attempted), "1"),
    }
    if args.trace:
        traced = sorted(reports["traced"], key=lambda r: r["raw_wall_s"])
        layers = {k: tuple(v) for k, v in traced[(len(traced) - 1) // 2]["layers"].items()}
        overhead = layers["trace.wall_s"][0] - raw["raw_wall_s"][0]
        layers["trace.overhead_s"] = (overhead, "s")
        return attempted, failed, layers, raw
    setups = untraced[:]
    while len(setups) < SETUP_REPEATS:
        setups.append(spawn(args, "setup", deadline))
    raw["raw_setup_s"] = (statistics.median(r["raw_setup_s"] for r in setups), "s")
    items = [t for r in untraced for t in r["items"]]
    return attempted, failed, {
        "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
        "item_p50_ms": (1000.0 * percentile(items, 0.50), "ms"),
        "item_p98_ms": (1000.0 * percentile(items, 0.98), "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "peak_rss_mb": (max(r["peak_kib"] for r in untraced) / 1024.0, "MiB"),
        "pass_ratio": (1.0 - ratio(failed, attempted) if attempted else 0.0, "1"),
    }, raw


def run_all(args) -> int:
    """Every workload in turn; metrics keyed '<workload>.<metric>'."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if proc.returncode != 0 or not isinstance(result, dict):
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lefschetz" / "__init__.py").is_file():
        print(f"bench: no lefschetz sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args)))
        return 0
    if args.workload == "all":
        return run_all(args)
    env = environment()
    try:
        attempted, failed, metrics, raw = measure(args, env)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    correct = attempted > 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
