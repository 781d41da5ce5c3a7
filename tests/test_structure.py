"""Structure sets, annihilators, ideals and subset utilities."""

import dataclasses
import gc
import importlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from wnc.construct import build_text, corner, quotient
from wnc.decomp import (
    DecompKind,
    kind_takes_subset,
    lifts_idempotents,
    ring_verdict,
    zero_one_subset,
)
from wnc.errors import CrossRingError
from wnc.structure import (
    Subset,
    all_ideals,
    ann_left,
    ann_right,
    element_of,
    ideal_generated_by,
    is_subring_unital,
    maximal_ideals,
    structure,
    subset,
)
from wnc.table import _additive_span, _memo
from wnc.theorems import run_suite


def _assert_arrays_agree(ring, cache, units, radical):
    """unit_mask, inverse_of on the units and radical_mask match the loop oracles,
    and every array of the shared, memoised cache is read-only."""
    ids = sorted(units)
    assert np.flatnonzero(cache.unit_mask).tolist() == ids, ring.label
    assert cache.inverse_of[ids].tolist() == [units[u] for u in ids], ring.label
    assert np.flatnonzero(cache.radical_mask).tolist() == sorted(radical), ring.label
    for field in dataclasses.fields(cache):
        array = getattr(cache, field.name)
        if isinstance(array, np.ndarray):
            with pytest.raises(ValueError):
                array[0] = array[0]


def test_structure_matches_loop_oracles_on_corrupted_tables(rings):
    # nilpotency and nil_index are left out: they are exact on ring tables only,
    # and one of these tables (Z(6) with mul[4,2]=3) differs; see ROADMAP, Known defects
    tables = [bad for label in ("Z(4)", "Z(6)", "T2(Z(2))")
              for bad in naive.corruptions(rings[label])]
    assert len(tables) == 1352
    for bad in tables:
        cache = structure(bad)
        units, radical = naive.units(bad), naive.radical(bad)
        assert cache.inverse == units, bad.label
        assert list(cache.idempotents) == naive.idempotents(bad), bad.label
        assert cache.radical == radical, bad.label
        _assert_arrays_agree(bad, cache, units, radical)


def test_z6_structure_golden(rings):
    cache = structure(rings["Z(6)"])
    assert cache.idempotents == (0, 1, 3, 4)
    assert cache.nilpotency == {0: 1}
    assert sorted(cache.units) == [1, 5]
    assert cache.inverse == {1: 1, 5: 5}
    assert sorted(cache.radical) == [0]


def test_z9_nilpotents_golden(rings):
    cache = structure(rings["Z(9)"])
    assert sorted(cache.nilpotency) == [0, 3, 6]
    assert cache.nilpotency[3] == 2
    assert sorted(cache.radical) == [0, 3, 6]


def test_z4_radical_golden(rings):
    assert sorted(structure(rings["Z(4)"]).radical) == [0, 2]


def test_structure_agrees_with_naive_oracles(rings):
    for label in ("Z(6)", "Z(9)", "Z(12)", "M2(Z(2))", "T2(Z(3))", "skew(Z(6),id,2)",
                  "Z(1)", "Z(256)", "M2(Z(4))"):
        ring = rings[label] if label in rings else build_text(label)
        cache = structure(ring)
        units, nilpotency, radical = naive.units(ring), naive.nilpotents(ring), naive.radical(ring)
        assert cache.inverse == units, label
        assert list(cache.idempotents) == naive.idempotents(ring), label
        assert cache.nilpotency == nilpotency, label
        assert set(cache.radical) == radical, label
        _assert_arrays_agree(ring, cache, units, radical)
        assert [nilpotency.get(x, 0) for x in ring.elements()] == cache.nil_index.tolist()
        assert np.array_equal(cache.nil_mask, cache.nil_index > 0), label


def test_radical_does_not_depend_on_the_row_blocks(monkeypatch):
    module = importlib.import_module("wnc.structure")  # the package exports the function
    labels = ("Z(12)", "M2(Z(2))", "T2(Z(3))", "skew(Z(6),id,2)")
    for entries in (8, 8 * 40, 8 * 200):  # 1 row, then 40 and 200 entries a block
        monkeypatch.setattr(module, "ROW_BLOCK_ENTRIES", entries)
        for ring in [*map(build_text, labels), *naive.corruptions(build_text("Z(4)"))]:
            assert structure(ring).radical == naive.radical(ring), (entries, ring.label)


@pytest.mark.parametrize("label, radical_size", [("M2(Z(5))", 1), ("Z(2000)", 200)])
def test_structure_peak_memory_per_table_entry(label, radical_size):
    # the row-blocked radical copies ROW_BLOCK_ENTRIES // 8 indices at a time
    ring = build_text(label)
    tracemalloc.start()
    try:
        cache = structure(ring)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache.radical) == radical_size
    assert peak < 5 * ring.order ** 2


def test_structure_is_memoized(rings):
    assert structure(rings["Z(6)"]) is structure(rings["Z(6)"])


def _memoise_everything(ring):
    """Fill the memo of ring, its components, corners and quotients; return a weak reference."""
    for part in ring.components:
        structure(part)
    structure(ring)
    ideals = all_ideals(ring)
    for kind in DecompKind:
        s = zero_one_subset(ring) if kind_takes_subset(kind) else None
        ring_verdict(ring, kind, s)
    for f in structure(ring).idempotents:
        assert corner(ring, f) is corner(ring, f)
        structure(corner(ring, f)[0])
    for members in ideals:
        ideal = subset(ring, members)
        structure(quotient(ring, ideal)[0])
        lifts_idempotents(ring, ideal)
    return weakref.ref(ring)


def test_structure_memo_frees_rings():
    gc.collect()
    before = len(_memo)
    refs = [_memoise_everything(build_text(label))
            for label in ("T2(Z(3))", "Z(12)", "prod(Z(2),Z(3))")]
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(_memo) == before


def test_annihilator_examples(rings):
    z6 = rings["Z(6)"]
    assert ann_left(z6, 0).sorted_members() == (0, 1, 2, 3, 4, 5)
    assert ann_left(z6, 1).sorted_members() == (0,)
    scanned = tuple(r for r in range(6) if (r * 3) % 6 == 0)
    assert ann_left(z6, 3).sorted_members() == scanned == (0, 2, 4)
    assert ann_right(z6, 3).sorted_members() == scanned


def test_annihilator_flags(rings):
    t2 = rings["T2(Z(3))"]
    for x in t2.elements():
        left = ann_left(t2, x)
        right = ann_right(t2, x)
        assert left.is_additive_subgroup and left.is_left_ideal
        assert right.is_additive_subgroup and right.is_right_ideal


def test_annihilator_rejects_foreign_element(rings):
    with pytest.raises(CrossRingError):
        ann_left(rings["Z(6)"], 17)


def test_ideal_closure_examples(rings):
    z6, z9 = rings["Z(6)"], rings["Z(9)"]
    assert ideal_generated_by(z6, ()).sorted_members() == (0,)
    assert ideal_generated_by(z6, (2,)).sorted_members() == (0, 2, 4)
    assert ideal_generated_by(z9, (3,)).sorted_members() == (0, 3, 6)
    ideal = ideal_generated_by(z6, (2,))
    assert ideal.is_two_sided_ideal


def test_ideal_closure_is_idempotent(rings):
    z12 = rings["Z(12)"]
    for gens in ((), (2,), (3,), (2, 3), (8,)):
        ideal = ideal_generated_by(z12, gens)
        again = ideal_generated_by(z12, ideal.members)
        assert ideal == again


def test_maximal_ideals(rings):
    assert [m.sorted_members() for m in maximal_ideals(rings["Z(9)"])] == [(0, 3, 6)]
    assert [m.sorted_members() for m in maximal_ideals(rings["Z(6)"])] == [
        (0, 3),
        (0, 2, 4),
    ]
    assert [m.sorted_members() for m in maximal_ideals(rings["Z(2)"])] == [(0,)]


def test_matrix_ring_is_simple(rings, m2z4):
    assert [sorted(i) for i in all_ideals(rings["M2(Z(3))"])] == [
        [0],
        sorted(rings["M2(Z(3))"].elements()),
    ]
    # the ideals of M2(Z(4)) are M2(I) for the three ideals I of Z(4)
    assert [len(i) for i in all_ideals(m2z4)] == [1, 16, 256]


def test_subset_utilities(rings):
    z6 = rings["Z(6)"]
    small = subset(z6, {0})
    evens = subset(z6, {0, 2, 4})
    threes = subset(z6, {0, 3})
    assert small.issubset(evens)
    assert not threes.issubset(evens)
    assert element_of(evens, 4) and not element_of(evens, 3)
    assert evens == subset(z6, (0, 2, 4))
    assert evens != threes
    cache = structure(z6)
    assert cache.idempotent_set & cache.radical == {0}


def test_subsets_of_different_rings_do_not_mix(rings):
    a = subset(rings["Z(6)"], {0})
    b = subset(rings["Z(9)"], {0})
    with pytest.raises(CrossRingError):
        a.issubset(b)


def test_is_subring_unital(rings):
    z6 = rings["Z(6)"]
    assert is_subring_unital(z6, range(6))
    assert not is_subring_unital(z6, {0, 2, 4})  # no unity
    assert not is_subring_unital(z6, {0, 3})  # no unity
    assert not is_subring_unital(z6, {0, 1, 2})  # not closed under addition


def test_subset_flags_recomputable(rings):
    z12 = rings["Z(12)"]
    for members in ({0, 6}, {0, 3, 6, 9}, {0, 1}, {0, 4, 8}):
        handle = subset(z12, members)
        again = subset(z12, handle.members)
        assert (handle.is_additive_subgroup, handle.is_left_ideal, handle.is_right_ideal) == (
            again.is_additive_subgroup,
            again.is_left_ideal,
            again.is_right_ideal,
        )


def test_core_invariants_across_samples(rings):
    for ring in rings.values():
        cache = structure(ring)
        assert set(cache.idempotents) & set(cache.nilpotency) == {ring.zero}, ring.label
        assert ring.one in cache.units, ring.label
        assert ring.zero in cache.radical, ring.label
        rad = subset(ring, cache.radical)
        assert rad.is_two_sided_ideal, ring.label


def test_nilpotent_shift_units_and_geometric_inverse(rings):
    for label in ("Z(4)", "Z(8)", "Z(9)", "Z(12)", "T2(Z(3))", "skew(Z(6),id,2)"):
        ring = rings[label]
        cache = structure(ring)
        for x, k in cache.nilpotency.items():
            plus = int(ring.add[ring.one, x])
            minus = ring.sub(ring.one, x)
            assert plus in cache.units and minus in cache.units
            series = ring.zero
            for i in range(k):
                series = int(ring.add[series, ring.power(x, i)])
            assert cache.inverse[minus] == series
            alternating = ring.zero
            for i in range(k):
                term = ring.power(x, i)
                if i % 2:
                    term = int(ring.neg[term])
                alternating = int(ring.add[alternating, term])
            assert cache.inverse[plus] == alternating


def test_radical_equals_intersection_of_maximal_ideals(rings):
    for ring in rings.values():
        if not ring.is_commutative() or ring.order > 64:
            continue
        expected = set(ring.elements())
        for ideal in maximal_ideals(ring):
            expected &= ideal.members
        assert set(structure(ring).radical) == expected, ring.label


# --- differential tests against the loop oracles in naive.py --------------------


@pytest.fixture(scope="module")
def m2z4():
    return build_text("M2(Z(4))")


@pytest.fixture(scope="module")
def oracle_rings(corpus_entries, m2z4):
    # every default-corpus ideal is principal; the maximal ideal of
    # eqdiag4(Z(2)) needs three generators, so it exercises repeated joins
    return [entry.ring for entry in corpus_entries] + [m2z4, build_text("eqdiag4(Z(2))")]


def _flags(handle):
    return handle.is_additive_subgroup, handle.is_left_ideal, handle.is_right_ideal


def test_all_ideals_match_oracle(oracle_rings):
    # T2(Z(4)) (14 ideals) and Z(2)^7 (128 ideals) need joins as well
    extra = ["T2(Z(4))", "prod(Z(2),Z(2),Z(2),Z(2),Z(2),Z(2),Z(2))"]
    for ring in [*oracle_rings, *map(build_text, extra)]:
        assert all_ideals(ring) == naive.all_ideals(ring), ring.label


@pytest.mark.parametrize("label, ideal_count", [("M2(Z(5))", 2), ("Z(2000)", 20)])
def test_all_ideals_peak_memory_per_table_entry(label, ideal_count):
    # one n x n mask each for R*x and x*R, the rows R*x kept as views
    ring = build_text(label)
    tracemalloc.start()
    try:
        ideals = all_ideals(ring)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ideals) == ideal_count
    assert peak < 3.5 * ring.order ** 2


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_additive_span_matches_the_doubling_oracle(oracle_rings, data):
    ring = data.draw(st.sampled_from(oracle_rings), label="ring")
    ids = data.draw(st.lists(st.integers(0, ring.order - 1), max_size=6), label="ids")
    mask = np.zeros(ring.order, dtype=bool)
    mask[[ring.zero, *ids]] = True
    span, gens = _additive_span(ring, mask)
    assert np.array_equal(span, naive.additive_closure(ring, mask))
    assert mask[gens].all()


def test_whole_ring_has_at_most_log2_n_additive_generators(oracle_rings):
    for ring in oracle_rings:
        span, gens = _additive_span(ring, np.ones(ring.order, dtype=bool))
        assert span.all() and 2 ** len(gens) <= ring.order, ring.label


def test_ideal_generated_by_matches_oracle(oracle_rings):
    for ring in oracle_rings:
        cache = structure(ring)
        n = ring.order
        for gens in ((), (ring.one,), (n // 3,), (n // 2, n - 1), (n - 1, n // 2, n - 1),
                     tuple(cache.nilpotency), cache.idempotents[:3]):
            got = ideal_generated_by(ring, gens)
            assert got.members == naive.ideal_closure(ring, gens), (ring.label, gens)
            assert got.is_two_sided_ideal, (ring.label, gens)


def test_subset_flags_match_oracle(oracle_rings):
    for ring in oracle_rings:
        handles = [subset(ring, members) for members in all_ideals(ring)]
        step = max(1, ring.order // 64)
        for x in range(0, ring.order, step):
            handles += [ann_left(ring, x), ann_right(ring, x)]
        handles.append(subset(ring, {ring.zero, ring.one}))
        for handle in handles:
            assert _flags(handle) == naive.subset_flags(ring, handle.members), handle


def test_quotient_tables_match_oracle(oracle_rings):
    for ring in oracle_rings:
        for members in all_ideals(ring):
            quot, proj = quotient(ring, subset(ring, members))
            add, mul, neg, want_proj = naive.quotient_tables(ring, sorted(members))
            assert proj == want_proj, (ring.label, sorted(members))
            assert quot.add.tolist() == add and quot.mul.tolist() == mul
            assert quot.neg.tolist() == neg
            assert (quot.zero, quot.one) == (proj[ring.zero], proj[ring.one])


def test_is_subring_unital_matches_oracle(corpus_entries):
    for entry in corpus_entries:
        ring = entry.ring
        candidates = list(all_ideals(ring))
        candidates += [corner(ring, e)[1] for e in structure(ring).idempotents]
        prime = [ring.zero]  # the multiples of 1: the prime subring, always unital
        while (x := int(ring.add[prime[-1], ring.one])) != ring.zero:
            prime.append(x)
        candidates += [prime, prime[1:]]
        for members in candidates:
            assert is_subring_unital(ring, members) == naive.is_subring_unital(ring, members), (
                ring.label, sorted(members))
        assert is_subring_unital(ring, prime), ring.label


def test_maximal_ideals_hands_on_found_ideals(monkeypatch, rings):
    def no_subset(ring, members):
        raise AssertionError("an ideal found by all_ideals was tested again")

    module = importlib.import_module("wnc.structure")  # the package exports the function
    monkeypatch.setattr(module, "subset", no_subset)
    for ring in rings.values():
        found = maximal_ideals(ring)
        assert found, ring.label
        for handle in found:
            assert handle.members in all_ideals(ring) and len(handle) < ring.order, handle
            assert _flags(handle) == naive.subset_flags(ring, handle.members) == (True,) * 3
    cells = run_suite(["Z(4)", "Z(8)", "Z(9)", "T2(Z(2))"], checks=["prop-01-unique-maximal"])
    outcomes = {cell["ring"]: cell["outcome"] for cell in cells}
    assert outcomes == {"Z(4)": "pass", "Z(8)": "pass", "Z(9)": "pass",
                        "T2(Z(2))": "not-applicable"}


# --- set arguments: a bool mask of shape (n,) reads as the ids it marks --------


def _mask_of(ring, ids):
    mask = np.zeros(ring.order, dtype=bool)
    mask[list(ids)] = True
    return mask


def _s_verdicts(ring, s):
    return [(v.holds, v.witness, v.s) for v in (
        ring_verdict(ring, kind, s) for kind in DecompKind if kind_takes_subset(kind))]


def _assert_mask_reads_as_ids(ring, mask):
    ids = np.flatnonzero(mask)
    by_mask, by_ids = subset(ring, mask), subset(ring, ids)
    assert by_mask == by_ids and hash(by_mask) == hash(by_ids), (ring.label, ids)
    assert by_mask.members == by_ids.members == frozenset(ids.tolist())
    assert _flags(by_mask) == _flags(by_ids)
    assert ideal_generated_by(ring, mask) == ideal_generated_by(ring, ids), (ring.label, ids)
    assert is_subring_unital(ring, mask) == is_subring_unital(ring, ids), (ring.label, ids)
    idems = ids[np.isin(ids, structure(ring).idempotents)]
    if idems.size:
        assert _s_verdicts(ring, _mask_of(ring, idems)) == _s_verdicts(ring, idems)


def test_structural_masks_read_as_their_ids(corpus_entries):
    for entry in corpus_entries:
        cache = structure(entry.ring)
        for mask in (cache.unit_mask, cache.nil_mask, cache.radical_mask):
            _assert_mask_reads_as_ids(entry.ring, mask)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_masks_and_ids_agree_and_subset_matches_a_frozenset(corpus_entries, data):
    ring = data.draw(st.sampled_from([entry.ring for entry in corpus_entries]), label="ring")
    n = ring.order
    masks = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    mask, other_mask = data.draw(masks, label="mask"), data.draw(masks, label="other")
    _assert_mask_reads_as_ids(ring, mask)
    handle, other = subset(ring, mask), subset(ring, other_mask)
    oracle = frozenset(np.flatnonzero(mask).tolist())
    other_oracle = frozenset(np.flatnonzero(other_mask).tolist())
    assert len(handle) == len(oracle) and handle.sorted_members() == tuple(sorted(oracle))
    assert [x in handle for x in range(-1, n + 1)] == [x in oracle for x in range(-1, n + 1)]
    assert handle.issubset(other) == (oracle <= other_oracle)
    assert (handle == other) == (oracle == other_oracle)
    assert repr(handle) == f"Subset({ring.label}, {sorted(oracle)})"
    mask[:] = ~mask  # the Subset keeps its own read-only copy
    assert handle.members == oracle and not handle.mask.flags.writeable


def test_set_arguments_of_another_shape_or_ring_are_rejected(rings):
    z6 = rings["Z(6)"]
    readers = [
        lambda s: subset(z6, s),
        lambda s: ideal_generated_by(z6, s),
        lambda s: is_subring_unital(z6, s),
        lambda s: ring_verdict(z6, DecompKind.S_WEAK_NIL_CLEAN, s),
    ]
    for bad in (np.ones(5, bool), np.ones(7, bool), np.ones((6, 1), bool), np.ones((2, 6), bool),
                np.array(True), subset(rings["Z(4)"], {0, 1})):
        for read in readers:
            with pytest.raises(CrossRingError):
                read(bad)
    for read in readers[:3]:
        with pytest.raises(CrossRingError, match=r"elements \[-1, 6\]"):
            read([0, 6, -1, 6])
    assert isinstance(subset(z6, subset(z6, {0, 3})), Subset)
