"""Self-tests of the benchmark: tracer coverage, repeatable counts, corpus.

    python3 -m pytest bench/test_bench.py -q

They take about two minutes, most of it in two traced n = 3 census runs and
one audit of a second corpus.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import lefschetz  # noqa: E402
import lefschetz.cli  # noqa: E402,F401  (its imported names must be wrapped too)
import tracer  # noqa: E402
from lefschetz import laplace_count, splitting_type  # noqa: E402
from corpus import audit_ideal, generate_corpus, shape  # noqa: E402
from workloads import load_reference  # noqa: E402


def run_bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def bindings():
    """Every (namespace, attribute, value) binding under the lefschetz package."""
    for modname, module in list(sys.modules.items()):
        if modname != "lefschetz" and not modname.startswith("lefschetz."):
            continue
        for key, value in vars(module).items():
            yield modname, key, value
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    yield f"{modname}.{key}", attr, member


def originals():
    found = {}
    for _, module, attribute in tracer.TARGETS:
        _, _, original = tracer._resolve(module, attribute)
        found[id(original)] = original
    return found


def holding(found):
    """Bindings under ``lefschetz`` that hold one of the ``found`` functions."""
    return [(m, k) for m, k, v in bindings() if found.get(id(v), found) is v]


def test_tracer_wraps_every_binding_and_restores():
    before = originals()
    assert len(before) == len(tracer.TARGETS)
    held = holding(before)
    # the defining module alone holds few of the bindings calls go through
    assert len(held) > 2 * len(tracer.TARGETS)
    run = tracer.Tracer()
    with run:
        assert holding(before) == []
        assert lefschetz.Form.__mul__.bench_span == "algebra.form_mul"
        # names this module imported by name before install are wrapped too
        assert laplace_count.bench_span == "osculating.laplace_count"
        spec = lefschetz.IdealSpec.from_monomials(
            2, 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
        )
        system = lefschetz.LinearSystem.from_apolar(lefschetz.apolar_complement(spec))
        assert laplace_count(system, 2).delta == 1
        assert splitting_type(spec).values == (-2, -1, 0)
    assert run.stats["osculating.laplace_count"].calls == 1
    assert run.stats["bundles.splitting_type"].calls == 1
    assert run.edges["bundles.splitting_type", "bundles.restrict_to_line"] >= 1
    assert sorted(holding(before)) == sorted(held)
    wrappers = [(m, k) for m, k, v in bindings() if hasattr(v, "bench_span")]
    assert wrappers == []
    assert not hasattr(laplace_count, "bench_span")


def test_self_times_partition_the_traced_time():
    run = tracer.Tracer()
    with run:
        start = time.perf_counter()
        census = lefschetz.enumerate_cubic_togliatti(2, seed=0)
        wall = time.perf_counter() - start
    stats = run.stats
    assert stats["classify.certify_candidate"].calls == census.candidates_tested
    assert stats["classify.canonical_form"].calls == census.subsets_seen
    spanned = sum(s.self_s for s in stats.values())
    outermost = sum(
        stats[name].incl_s
        for name in ("classify.canonical_form", "classify.certify_candidate")
    )
    assert all(s.self_s >= 0 for s in stats.values())
    assert spanned == pytest.approx(outermost, rel=1e-9)
    assert spanned <= wall


def test_percentile_is_nearest_rank():
    import run

    assert run.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.percentile(list(range(1, 501)), 0.98) == 490


def test_gauge_converts_each_stretch_at_its_own_speed():
    import run

    gauge = run.Gauge()
    nominal = run.NOMINAL_LOOP_S
    # the loop at its nominal time, then twice as slow from t = 1 on
    gauge.readings = [(0.0, nominal), (1.0, 2 * nominal), (2.0, 2 * nominal)]
    assert gauge.nominal(0.0, 2.0) == pytest.approx(1.0 / 1.5 + 0.5)
    assert gauge.nominal(1.2, 1.4) == pytest.approx(0.1)
    # before the first and after the last reading the nearest one holds
    assert gauge.nominal(2.0, 3.0) == pytest.approx(0.5)


def bench_result(workload, seed, trace):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_end_to_end_metrics_match_the_declaration():
    result = bench_result("census_n4_partial", 0, 0)
    assert units(result) == declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    runs = [bench_result("census_n3", 3, 1) for _ in range(2)]
    values = []
    for result in runs:
        assert units(result) == declared("per_layer")
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert self_total + metrics["trace.unspanned_s"] == pytest.approx(
            metrics["trace.wall_s"], abs=1e-9
        )
        values.append(metrics)
    # everything but the times: calls, cells and ratios
    exact = [{k: v for k, v in metrics.items() if not k.endswith("_s")} for metrics in values]
    assert exact[0] == exact[1]
    assert exact[0]["classify.canonical_form.calls"] == 14892
    assert exact[0]["classify.certify_candidate.calls"] == 714
    assert exact[0]["classify.hit_ratio"] == 224 / 714
    assert exact[0]["bundles.restrict_to_line.calls"] == 0
    print("tracing overhead (s):", [metrics["trace.overhead_s"] for metrics in values])


def _load_test_conftest():
    path = ROOT / "tests" / "conftest.py"
    if not path.is_file():
        pytest.skip("the test suite's conftest.py is not present")
    spec = importlib.util.spec_from_file_location("suite_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_zero_reproduces_the_suite_corpus():
    suite = _load_test_conftest()
    expected = suite.corpus.__wrapped__()
    ours = generate_corpus(0)
    assert len(ours) == len(expected) == 500
    for i, (a, b) in enumerate(zip(ours, expected)):
        assert (a.n, a.d, a.generators) == (b.n, b.d, b.generators), i
    assert sum(s.is_monomial for s in ours) == 286
    assert sum(not s.is_monomial for s in ours) == 214


def test_another_seed_gives_another_corpus_that_passes_every_check():
    shapes = load_reference("corpus_shapes")
    base = generate_corpus(0)
    other = generate_corpus(1, shapes)
    assert [shape(s) for s in base] == shapes == [shape(s) for s in other]
    assert sum(a.generators != b.generators for a, b in zip(base, other)) > 400
    violations = {i: audit_ideal(1, i, spec) for i, spec in enumerate(other)}
    assert {i: v for i, v in violations.items() if v} == {}


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "census_n3", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
