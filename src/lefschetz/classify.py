"""Exhaustive classification of monomial Togliatti systems of cubics.

Every monomial artinian ideal generated in degree 3 contains the pure cubes,
so candidates are (x_0^3, ..., x_n^3) plus j mixed cubic monomials with
1 <= j <= comb(n+2, n-1) - (n+1), the generator bound for the degree-2
failure theory.  A subset of the mixed monomials is a sorted tuple of their
indices, and an integer bit mask.  The mixed monomials are listed in
ascending exponent order, the first as the highest bit, so of two subsets
of one size the larger mask is the lex-lesser one.  A subset opens its
orbit under the coordinate permutations iff no permutation maps it to a
larger mask; it is then the orbit's lex-minimal member, its canonical form,
and a candidate.  The enumeration is orderly generation (Read 1978; McKay
1998): it walks the sizes up, and makes the subsets of size j only as the
children of the canonical subsets of size j-1, each extended by every
element above its maximum.  That reaches every canonical subset, since a
canonical subset less its largest element is canonical too: if a
permutation mapped the rest to a lex-lesser set, the image of the whole
subset would be lex-lesser than the subset as well, since adding an
element keeps or lowers each entry of a sorted tuple, and the subset
agrees with the rest up to the place where rest and image differ.
Parents are taken in lex order and each one's children in order, so
candidates open in canonical (size, key) order.  Each block of children is
tested in one numpy pass over their image masks, and only the index rows
of the canonical ones are kept, as the next level's parents.  The number
of subsets seen is computed, not walked: the orbits of the candidates of
size j cover all comb(m, j) subsets of that size.  A candidate is
Togliatti iff its generators' rows in ``wlp._sum_hyperplane_table`` are
dependent, so candidates of one size are stacked and screened together
mod p (``linalg``'s ``_modp_independent_rows``): rows independent mod p
are independent over Q, which rules the candidate out.  Only the rest,
the Togliatti systems and the rare false alarms of the prime, go through
``certify_candidate``, which decides each exactly: ``is_togliatti``, then
for a hit the apolar system, Laplace count re-verified, lattice quadric,
polytope verdict (smooth / quasi-smooth / singular), toric degree,
triviality flags, orbit size.
A ``ClassificationRecord`` keeps only what it certified.  Its r, j, mixed
generators and Togliatti flag are read off the generators, and its JSON
writes them too.  Nothing reads a record back: every run decides every
candidate afresh.

The records are every Togliatti system, minimal or not: a record may keep
the property after a mixed generator is dropped (the n = 3 smooth record of
toric degree 9 does).  ``ClassificationRun.removable_generator`` names such
a generator, or returns None for a minimal system, which is what the
classifications in the literature count.

``build_named_example`` constructs the standard families:

* ``truncated-simplex``: cubes + all squarefree triples (blow-up of the
  n+1 fundamental points; the punctured-hexagon systems).
* ``second-example``: cubes + x_0^2 x_1 + x_0 x_1^2 + the triples not
  containing both x_0 and x_1 (blow-up of n-1 points and a line).
* ``ilardi-counterexample``: (x_0, ..., x_{n-2})^3 + x_{n-1}^3 + x_n^3 +
  (x_i x_{n-1} x_n)_{i <= n-2}; for n = 3 this is the degree-18 smooth case.
* ``partition``: given a partition of the variables with parts of at most
  n-1 elements, the monomials supported inside one part plus the triples
  meeting three distinct parts (blow-up along the part subspaces, then
  projection from the full hexagon centres).  Specializes to all of the
  above.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from math import comb
from typing import Optional

import numpy as np

from .algebra import Form, monomial_basis, pure_powers
from .apolarity import apolar_complement
from .bundles import AnalysisError
from .linalg import _modp_independent_rows
from .osculating import laplace_count, perkinson_quadric
from .parser import default_names, format_form
from .polytope import (
    VERDICT_DEGENERATE,
    build_polytope,
    normalized_volume,
    simplex_table,
    smoothness_report,
)
from .wlp import (
    IdealSpec,
    TypeBResult,
    _sum_hyperplane_table,
    generator_bound,
    is_togliatti,
    trivial_type_a,
    trivial_type_b_test,
)

RECORD_SCHEMA = 1


def permutation_images(exponents):
    """All distinct images of the set under coordinate permutations: the
    image under sigma maps each e to (e[sigma[0]], ..., e[sigma[n]])."""
    exponents = [tuple(e) for e in exponents]
    if not exponents:
        return {()}
    return {
        tuple(sorted(tuple(e[s] for s in sigma) for e in exponents))
        for sigma in itertools.permutations(range(len(exponents[0])))
    }


def canonical_form(exponents):
    """Lex-minimal sorted exponent tuple over all coordinate permutations.

    Idempotent and constant on permutation orbits; the canonical key used
    for deduplication everywhere in this module.
    """
    return min(permutation_images(exponents))


# Bits held in one int64 word of a subset mask; masks of more elements take
# several words, compared from the high word down.
_WORD_BITS = 62
# int64 cells in one block of image masks (the group order times the words
# of a mask times the children tested in the block), and in one stack of
# the screen (candidates times rows times columns).
_BLOCK_CELLS = 1 << 15


def _action_table(mixed):
    """The coordinate permutations as maps on the indices of ``mixed``,
    which is in ascending exponent order.

    Row i holds the index of element i's image under each permutation, in
    the order of ``itertools.permutations``, identity first.  An exponent
    tuple with entries below 4 is coded in base 4, so codes sort as the
    tuples do.
    """
    exponents = np.array(mixed, dtype=np.int64)
    width = exponents.shape[1]
    sigmas = np.array(list(itertools.permutations(range(width))), dtype=np.intp)
    # the image (e[sigma[0]], ..., e[sigma[n]]) puts e[sigma[k]] in digit k
    weights = np.zeros((width, len(sigmas)), dtype=np.int64)
    place = 4 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    weights[sigmas.T, np.arange(len(sigmas))] = place[:, None]
    codes = exponents @ place
    return np.searchsorted(codes, exponents @ weights)


def _bit_words(positions, words: int):
    """Row i: the mask with bit ``positions[i]`` alone, high word first."""
    table = np.zeros((len(positions), words), dtype=np.int64)
    word = words - 1 - positions // _WORD_BITS
    table[np.arange(len(positions)), word] = np.int64(1) << positions % _WORD_BITS
    return table


def _image_masks(table, block):
    """The mask of every image of every subset: ``table[i, g]`` is the mask
    of element i's image under permutation g, ``block`` holds one subset
    of element indices a row.  Shape (subsets, permutations, words)."""
    masks = table[block[:, 0]]
    for column in block.T[1:]:
        masks += table[column]  # distinct bits, so the sum is the union
    return masks


def _above_and_equal(masks, own):
    """Where each mask is above, and where it equals, the ``own`` mask of
    its subset; words are compared from the high word down."""
    above = np.zeros(masks.shape[:-1], dtype=bool)
    equal = np.ones(masks.shape[:-1], dtype=bool)
    for word in range(masks.shape[-1]):
        above |= equal & (masks[..., word] > own[..., word])
        equal &= masks[..., word] == own[..., word]
    return above, equal


def _children(parents, ends, numbers, m: int):
    """The children numbered ``numbers`` of the index rows ``parents``.

    Each parent is extended by every element above its maximum, in order.
    The children of parent p are numbered from ``ends[p - 1]`` (from 0 for
    the first parent) to ``ends[p] - 1``; the last is extended by element
    m-1.
    """
    parent = np.searchsorted(ends, numbers, side="right")
    return np.column_stack((parents[parent], numbers - ends[parent] + m))


def _orbit_openers(images, j_limit: int):
    """Yield (row, orbit size) for each subset of 1 to ``j_limit`` elements
    that opens its orbit under the ``_action_table`` ``images``, in
    canonical (size, key) order, by orderly generation (see the module
    docstring).  A row is the subset's sorted element indices, and element
    i is bit m-1-i of its mask.
    """
    m, group_order = images.shape
    words = -(-m // _WORD_BITS)
    mask_table = _bit_words(m - 1 - np.arange(m), words)[images]
    rows = max(1, _BLOCK_CELLS // (group_order * words))
    # the empty set; rows are kept as int16, a quarter of the memory of intp
    parents = np.zeros((1, 0), dtype=np.int16)
    for j in range(1, j_limit + 1):
        ends = np.cumsum(m - 1 - parents.max(axis=1, initial=-1))
        opening = np.zeros(ends[-1], dtype=bool)
        for start in range(0, ends[-1], rows):
            numbers = np.arange(start, min(start + rows, ends[-1]))
            block = _children(parents, ends, numbers, m)
            # A child opens its orbit iff no image is above its own
            # (identity) mask; it is then the orbit's canonical row.
            masks = _image_masks(mask_table, block)
            above, equal = _above_and_equal(masks, masks[:, :1])
            opens = ~above.any(axis=1)
            opening[start : start + rows] = opens
            sizes = (group_order // equal[opens].sum(axis=1)).tolist()
            yield from zip(block[opens].tolist(), sizes)
        if j < j_limit:  # the canonical rows of the last size parent nothing
            parents = _children(parents, ends, np.flatnonzero(opening), m)
            parents = parents.astype(np.int16)


def _to_json(value, names):
    """A record value as JSON: Forms printed, tuples as lists."""
    if isinstance(value, Form):
        return format_form(value, names)
    if isinstance(value, TypeBResult):
        return asdict(value)
    if isinstance(value, tuple):
        return [_to_json(v, names) for v in value]
    return value


_DERIVED = ("r", "j", "extra", "togliatti")


@dataclass(frozen=True)
class ClassificationRecord:
    """A fully certified monomial Togliatti system of cubics.  The fields
    are its JSON keys; the ``_DERIVED`` keys are written beside them."""

    n: int
    generators: tuple  # canonical, ascending
    apolar: tuple  # exponents of the inverse system, ascending
    trivial_a: Optional[tuple]  # witness monomial of degree 2, or None
    trivial_b: TypeBResult
    verdict: str
    edge_rule_fired: bool
    toric_degree: Optional[int]
    quadric: Optional[Form]
    laplace_delta: int
    orbit_size: int

    togliatti = True  # a record is made for a certified Togliatti system only

    @property
    def extra(self) -> tuple:  # the mixed monomials among the generators
        return tuple(e for e in self.generators if max(e) < 3)

    @property
    def r(self) -> int:
        return len(self.generators)

    @property
    def j(self) -> int:
        return len(self.extra)

    def to_json_dict(self) -> dict:
        names = default_names(self.n)
        data = {"schema": RECORD_SCHEMA}
        for name in _DERIVED + tuple(f.name for f in fields(self)):
            data[name] = _to_json(getattr(self, name), names)
        return data


def certify_candidate(
    n: int, generators, orbit_size: int
) -> Optional[ClassificationRecord]:
    """Full certification of one canonical candidate; None if not Togliatti.
    Every check of monomial input is exact and draws no sample."""
    generators = tuple(sorted(tuple(e) for e in generators))
    spec = IdealSpec.from_monomials(n, 3, generators)
    if not is_togliatti(spec):
        return None
    system = apolar_complement(spec)
    apolar = system.exponents()
    laplace = laplace_count(system, 2)
    if laplace.delta < 1:
        raise AnalysisError(
            f"Togliatti candidate {generators} shows no order-2 Laplace equation"
        )
    quadric = perkinson_quadric(apolar)
    if quadric is None:
        raise AnalysisError(
            f"Togliatti candidate {generators} has no lattice quadric certificate"
        )
    # every apolar exponent lies in 3 * simplex: its table holds every facet
    polytope = build_polytope(system, simplex_table(n, 3))
    verdict, edge_rule_fired, degree = VERDICT_DEGENERATE, False, None
    if polytope.is_full_dimensional:
        report = smoothness_report(polytope)
        verdict, edge_rule_fired = report.verdict, report.edge_rule_fired
        degree = normalized_volume(polytope)
    return ClassificationRecord(
        n=n,
        generators=generators,
        apolar=apolar,
        trivial_a=trivial_type_a(spec),
        trivial_b=trivial_type_b_test(spec),
        verdict=verdict,
        edge_rule_fired=edge_rule_fired,
        toric_degree=degree,
        quadric=quadric,
        laplace_delta=laplace.delta,
        orbit_size=orbit_size,
    )


@dataclass(frozen=True)
class ClassificationRun:
    """Result of an enumeration: records plus raw-count bookkeeping."""

    n: int
    j_max: int
    subsets_seen: int
    candidates_tested: int
    hit_counts: dict  # canonical key -> orbit size, in canonical (size, key) order
    records: tuple

    @cached_property
    def _record_keys(self) -> frozenset:
        return frozenset(record.generators for record in self.records)

    def removable_generator(self, record: ClassificationRecord):
        """A mixed generator whose removal leaves a Togliatti system, or None.

        None means ``record`` is minimal: no proper subsystem that is still
        artinian is Togliatti.  The answer is exact and read off this run
        alone.  Togliatti-ness passes to supersets (generators dependent on
        a general hyperplane stay dependent with more added), so testing one
        removal at a time suffices; removing a pure cube loses artinianity,
        so only mixed generators are tried; and each removal has j - 1 mixed
        generators, so its canonical form was certified by this run, also
        under ``max_extra``.  For j = 1 the removal is the pure cubes alone,
        which are not Togliatti and are never a record.
        """
        if record.generators not in self._record_keys:
            raise ValueError("record does not belong to this run")
        for mixed in record.extra:
            reduced = tuple(e for e in record.generators if e != mixed)
            if canonical_form(reduced) in self._record_keys:
                return mixed
        return None


def enumerate_cubic_togliatti(
    n: int,
    *,
    seed=None,
    max_extra: Optional[int] = None,
    progress=None,
) -> ClassificationRun:
    """All canonical monomial Togliatti systems of cubics on P^n.

    Non-minimal systems are records too; ask the returned run's
    ``removable_generator`` which records are minimal.

    ``max_extra`` >= 1 caps the number j of mixed generators (required
    sanity for n >= 4, where the full range is astronomically large).
    Each orbit's candidate is the subset that opens it, found by orderly
    generation (see the module docstring), so candidates come in canonical
    (size, key) order, the order of ``hit_counts``, and all are found
    before the first is decided.  ``subsets_seen`` is the sum of comb(m, j)
    over the sizes j, for m mixed cubics.  Every candidate is decided, in
    that order, and then passed to ``progress(key, record)``, with record
    None for a non-Togliatti one: candidates whose hyperplane rows are
    independent mod p are ruled out by one stacked screen per block, and
    only the rest are certified.
    ``seed`` changes nothing: every check of monomial input is exact, so
    the census draws no sample.
    """
    if n < 2:
        raise ValueError("classification needs n >= 2")
    j_limit = generator_bound(n, 3) - (n + 1)
    if max_extra is not None:
        if max_extra < 1:
            raise ValueError(f"max_extra must be at least 1, not {max_extra}")
        j_limit = min(j_limit, max_extra)
    elif n >= 4:
        raise ValueError(
            "for n >= 4 pass max_extra: the full enumeration is out of reach"
        )
    cubes = pure_powers(n, 3)
    # The pure cubes are fixed as a set, so only ``mixed`` is permuted.  It
    # is in ascending exponent order, so the lex order of index rows is the
    # lex order of the keys.
    mixed = tuple(e for e in reversed(monomial_basis(n, 3)) if max(e) < 3)
    hit_counts = {
        tuple(sorted(cubes + tuple(mixed[i] for i in row))): size
        for row, size in _orbit_openers(_action_table(mixed), j_limit)
    }
    # Each candidate is artinian, with r at most the generator bound (the
    # table's column count), so it is Togliatti iff its table rows are
    # dependent; rows independent mod p are independent over Q, and only
    # the rest are certified.
    hyperplane = _sum_hyperplane_table(n, 3)
    row_of = {e: i for i, e in enumerate(hyperplane)}
    hyperplane_rows = np.array(list(hyperplane.values()), dtype=np.int64)
    records = []
    for r, same_size in itertools.groupby(hit_counts, len):
        same_size = list(same_size)
        step = max(1, _BLOCK_CELLS // (r * hyperplane_rows.shape[1]))
        for start in range(0, len(same_size), step):
            chunk = same_size[start : start + step]
            stack = hyperplane_rows[[[row_of[e] for e in key] for key in chunk]]
            for key, ruled_out in zip(chunk, _modp_independent_rows(stack).tolist()):
                record = None if ruled_out else certify_candidate(n, key, hit_counts[key])
                if progress is not None:
                    progress(key, record)
                if record is not None:
                    records.append(record)
    return ClassificationRun(
        n=n,
        j_max=j_limit,
        subsets_seen=sum(comb(len(mixed), j) for j in range(1, j_limit + 1)),
        candidates_tested=len(hit_counts),
        hit_counts=hit_counts,
        records=tuple(records),
    )


def canonical_json(payload) -> str:
    """Sorted keys, compact separators: equal payloads give equal bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# The four n = 3 classification cases, by their apolar systems (the
# inverse-system monomials, spelled in a..d with repeats, "aab" for a^2 b);
# the ideals are the complements.
_CASE_SYSTEMS = {
    1: "aab aac aad abb acc add bbc bbd bcc bdd ccd cdd",
    2: "abc abd aac aad acc add bbc bbd bcc bdd ccd cdd",
    3: "abc abd acd bcd aac acc aad add bbc bcc bbd bdd",
    4: "acd bcd aac aad acc add bbc bbd bcc bdd ccd cdd",
}


def _exponent(word: str):
    """The exponent of a monomial spelled in the letters a..d ("aab": a^2 b)."""
    return tuple(map(word.count, "abcd"))


def classification_case_system(case: int):
    """Apolar-system exponents of classification case 1..4 (n = 3)."""
    return tuple(sorted(map(_exponent, _CASE_SYSTEMS[case].split())))


def classification_case_ideal(case: int) -> IdealSpec:
    """The ideal of classification case 1..4 (complement of the system)."""
    system = set(classification_case_system(case))
    gens = [e for e in monomial_basis(3, 3) if e not in system]
    return IdealSpec.from_monomials(3, 3, gens)


def four_prime_projections():
    """The stated (4') projections, each certified rather than asserted.

    Removing system monomials projects the variety; the removed monomials
    join the ideal.  Only non-empty removal subsets are enumerated; removals
    pushing r past the generator bound comb(5, 2) = 10 are reported as out
    of range and not certified.  Returns a list of dicts with label,
    removed monomials, r, in_range, and (when in range) the certified
    record.
    """
    removals = []
    for k in (1, 2):
        for subset in itertools.combinations(("abc", "abd"), k):
            removals.append((2, subset))
    for k in (1, 2, 3, 4):
        for subset in itertools.combinations(("abc", "abd", "acd", "bcd"), k):
            removals.append((3, subset))
    for k in (1, 2):
        for subset in itertools.combinations(("acd", "bcd"), k):
            removals.append((4, subset))
    bound = generator_bound(3, 3)
    results = []
    for case, subset in removals:
        removed = [_exponent(w) for w in subset]
        base = classification_case_ideal(case)
        gens = tuple(sorted(set(base.exponents()) | set(removed)))
        images = permutation_images(gens)
        entry = {
            "label": f"case-{case}-minus-{'-'.join(subset)}",
            "case": case,
            "removed": subset,
            "r": len(gens),
            "in_range": len(gens) <= bound,
            "canonical": min(images),
            "record": None,
        }
        if entry["in_range"]:
            entry["record"] = certify_candidate(3, entry["canonical"], len(images))
        results.append(entry)
    return results


def _partition_generators(n: int, parts):
    seen = set()
    cleaned = []
    for part in parts:
        part = tuple(sorted(int(i) for i in part))
        if not part:
            raise ValueError("empty part")
        for i in part:
            if not 0 <= i <= n:
                raise ValueError(f"variable index {i} out of range")
            if i in seen:
                raise ValueError(f"variable {i} appears in two parts")
            seen.add(i)
        if len(part) > n - 1:
            raise ValueError(
                f"part {part} has {len(part)} points; at most n-1 = {n - 1} allowed"
            )
        cleaned.append(part)
    if seen != set(range(n + 1)):
        raise ValueError("parts must cover all variables")
    part_of = {}
    for k, part in enumerate(cleaned):
        for i in part:
            part_of[i] = k
    gens = []
    for e in monomial_basis(n, 3):
        support = [i for i, c in enumerate(e) if c]
        touched = {part_of[i] for i in support}
        if len(touched) == 1:
            gens.append(e)  # supported inside one part (blown-up subspace)
        elif len(support) == 3 and len(touched) == 3 and max(e) == 1:
            gens.append(e)  # full hexagon centre: three distinct parts
    return tuple(sorted(gens))


def build_named_example(name: str, n: int, partition=None) -> IdealSpec:
    """Construct a named family member; see the module docstring."""
    if n < 2:
        raise ValueError("need n >= 2")
    if name == "truncated-simplex":
        parts = [(i,) for i in range(n + 1)]
        return IdealSpec.from_monomials(n, 3, _partition_generators(n, parts))
    if name == "second-example":
        gens = set(pure_powers(n, 3))
        gens.add(tuple(2 if i == 0 else (1 if i == 1 else 0) for i in range(n + 1)))
        gens.add(tuple(1 if i == 0 else (2 if i == 1 else 0) for i in range(n + 1)))
        for triple in itertools.combinations(range(n + 1), 3):
            if triple[0] == 0 and triple[1] == 1:
                continue
            gens.add(tuple(1 if i in triple else 0 for i in range(n + 1)))
        return IdealSpec.from_monomials(n, 3, sorted(gens))
    if name == "ilardi-counterexample":
        if n < 3:
            raise ValueError("the counterexample family needs n >= 3")
        parts = [tuple(range(n - 1)), (n - 1,), (n,)]
        return IdealSpec.from_monomials(n, 3, _partition_generators(n, parts))
    if name == "partition":
        if partition is None:
            raise ValueError("partition construction needs the partition")
        return IdealSpec.from_monomials(n, 3, _partition_generators(n, partition))
    raise ValueError(f"unknown example name {name!r}")
