"""The benchmark's calls into the library must keep working.

bench/tracer.py wraps each of its TARGETS at every binding; a target that no
longer resolves breaks every traced benchmark pass, so it is checked here.
bench/corpus.py builds the corpus_audit ideals and audits them through the
public API; it is loaded here the same way, so a change to what it reads
(``spec.is_monomial`` as a bool, say) fails this suite and not only the
benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

from lefschetz import Form

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    path = BENCH / f"{name}.py"
    if not path.is_file():
        pytest.skip(f"the benchmark's {name}.py is not present")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load("tracer")
    assert tracer.TARGETS
    for name, module, attribute in tracer.TARGETS:
        holder, attr, original = tracer._resolve(module, attribute)
        assert callable(original), name


def test_the_benchmark_corpus_audits_clean():
    corpus = _load("corpus")
    # a bound method is truthy, so a flag that became one would send every
    # ideal down the monomial branches; checked first on one general ideal,
    # since the corpus would then redraw its general ideals forever
    general = corpus.IdealSpec(1, 1, [Form(1, 1, {(1, 0): 1, (0, 1): 1})])
    assert general.is_monomial is False
    specs = corpus.generate_corpus(0)
    assert all(type(spec.is_monomial) is bool for spec in specs)
    assert sum(spec.is_monomial for spec in specs) == 286
    assert sum(not spec.is_monomial for spec in specs) == 214
    for i, spec in enumerate(specs[:25]):
        assert corpus.audit_ideal(0, i, spec) == [], i
