"""Ring table construction and axiom verification."""

import dataclasses
import gc
import reprlib
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
import wnc.table
from wnc import decomp
from wnc.construct import build_text, build_zn, corner, quotient
from wnc.decomp import DecompKind, ring_verdict
from wnc.errors import CrossRingError, TableFormatError
from wnc.structure import _ideal_masks, all_ideals, structure, subset
from wnc.table import (
    AXIOM_NAMES,
    RingTable,
    ring_table,
    tables_to_csv,
    verify_ring_axioms,
)


def test_z6_passes_axioms(rings):
    report = verify_ring_axioms(rings["Z(6)"])
    assert report.passed
    assert [name for name, _, _ in report] == list(AXIOM_NAMES)


def test_zero_ring_is_admitted():
    ring = build_zn(1)
    assert ring.order == 1
    assert ring.zero == ring.one == 0
    assert verify_ring_axioms(ring).passed


def _corrupt_mul(ring, a, b, value):
    mul = np.array(ring.mul)
    mul[a, b] = value
    return ring_table(ring.order, ring.add, mul, ring.neg, ring.zero, ring.one,
                      ring.label + "-corrupt")


def test_corrupted_entry_fails_with_live_witness(rings):
    bad = _corrupt_mul(rings["Z(6)"], 2, 3, 1)
    report = verify_ring_axioms(bad)
    assert not report.passed
    failed = dict((name, witness) for name, witness in report.failures())
    culprits = {"mul-associative", "left-distributive", "right-distributive"}
    assert culprits & set(failed)
    # every reported witness must actually violate its axiom on the raw tables
    add, mul = bad.add, bad.mul
    for name, w in failed.items():
        if name == "mul-associative":
            a, b, c = w
            assert int(mul[mul[a, b], c]) != int(mul[a, mul[b, c]])
        elif name == "left-distributive":
            a, b, c = w
            assert int(mul[a, add[b, c]]) != int(add[mul[a, b], mul[a, c]])
        elif name == "right-distributive":
            b, c, a = w
            assert int(mul[add[b, c], a]) != int(add[mul[b, a], mul[c, a]])


_MALFORMED = [  # (order, add, mul, neg, zero, one, element_names)
    (2, [[0, 1]], [[0, 0], [0, 1]], [0, 1], 0, 1, None),
    (2, [[0, 1], [1, 0]], [0, 1], [0, 1], 0, 1, None),
    (2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], [[0, 1]], 0, 1, None),
    (2, [[0, 1], [1, -1]], [[0, 0], [0, 1]], [0, 1], 0, 1, None),
    (2, [[0, 1], [1, 0]], [[0, 0], [0, 5]], [0, 1], 0, 1, None),
    (2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], [0, 2], 0, 1, None),
    (0, [], [], [], 0, 0, None),
    (2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], [0, 1], 0, 3, None),
    (2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], [0, 1], -1, 1, None),
    (2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], [0, 1], 0, 1, ("0",)),
]


def test_malformed_tables_rejected():
    # the same check and message whether the ring is built by ring_table or directly
    for order, add, mul, neg, zero, one, names in _MALFORMED:
        messages = []
        for make in (ring_table, RingTable):
            with pytest.raises(TableFormatError) as err:
                make(order, add, mul, neg, zero, one, "bad", names)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("value", [-1, -2**31, 3, 2**31 - 1])
@pytest.mark.parametrize("name", ["add", "mul", "neg"])
def test_out_of_range_entries_rejected_at_either_end(name, value):
    # int32 input is range-checked before it is narrowed to uint16, so -1 and
    # 2**31 - 1 cannot wrap into range
    z3 = build_zn(3)
    tables = {op: getattr(z3, op).astype(np.int32) for op in ("add", "mul", "neg")}
    tables[name].flat[-1] = value
    with pytest.raises(TableFormatError, match=f"{name} table contains out-of-range"):
        ring_table(3, tables["add"], tables["mul"], tables["neg"], 0, 1, "bad")
    ring_table(3, z3.add.T, z3.mul.T, z3.neg, 0, 1, "transposed")  # strided uint16 views pass


def test_zero_one_collision_detected():
    z2 = build_zn(2)
    bad = ring_table(2, z2.add, z2.mul, z2.neg, 0, 0, "bad-one")
    report = verify_ring_axioms(bad)
    assert not report.passed
    names = {name for name, _ in report.failures()}
    assert "zero-one-distinct" in names or "one-identity" in names


def test_element_helpers(rings):
    z6 = rings["Z(6)"]
    assert z6.sub(1, 5) == 2
    assert z6.power(2, 3) == 2  # 8 mod 6
    assert z6.power(4, 0) == 1
    assert z6.is_commutative()
    assert not rings["T2(Z(3))"].is_commutative()
    with pytest.raises(CrossRingError):
        z6.check_element(6)


def test_tables_csv_dump():
    z2 = build_zn(2)
    expected = (
        "# ring,Z(2),order,2\n"
        "# table,add\n0,1\n1,0\n"
        "# table,mul\n0,0\n0,1\n"
        "# table,neg\n0,1\n"
        "# zero,0,one,1\n"
    )
    assert tables_to_csv(z2) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_modular_rings_satisfy_axioms(n):
    assert verify_ring_axioms(build_zn(n)).passed


def test_built_samples_pass_axioms(rings):
    for ring in rings.values():
        assert verify_ring_axioms(ring).passed, ring.label


def test_tables_are_immutable(rings):
    with pytest.raises(ValueError):
        rings["Z(6)"].mul[0, 0] = 1


def test_default_corpus_rings_pass_axioms(corpus_entries):
    all_pass = tuple((name, True, None) for name in AXIOM_NAMES)
    for entry in corpus_entries:
        assert verify_ring_axioms(entry.ring).results == all_pass, entry.label


def _stealthy_corruption(data, rings, changes=1):
    """One of the rings with some entries changed so that every O(n^2) test passes.

    add changes are symmetric pairs add[a,b] = add[b,a] with a, b != 0 and
    b != -a; mul changes avoid the row and column of 1.  Only the generator
    steps of verify_ring_axioms can then tell the table from a ring.
    """
    ring = data.draw(st.sampled_from(rings), label="ring")
    n = ring.order
    ids = st.integers(0, n - 1)
    add, mul = np.array(ring.add), np.array(ring.mul)
    for _ in range(changes):
        if data.draw(st.booleans(), label="corrupt add"):
            a = data.draw(ids.filter(lambda x: x != ring.zero))
            b = data.draw(ids.filter(lambda x: x not in (ring.zero, int(ring.neg[a]))))
            value = data.draw(ids.filter(lambda v: v != add[a, b]))
            add[a, b] = add[b, a] = value
        else:
            a = data.draw(ids.filter(lambda x: x != ring.one))
            b = data.draw(ids.filter(lambda x: x != ring.one))
            mul[a, b] = data.draw(ids.filter(lambda v: v != mul[a, b]))
    return ring_table(n, add, mul, ring.neg, ring.zero, ring.one, ring.label + "-corrupt")


def _small_rings(corpus_entries):
    # order 3 is the least with an add change of this kind
    return [entry.ring for entry in corpus_entries if 3 <= entry.ring.order <= 36]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stealthy_corruption_gets_the_full_scan_report(corpus_entries, data):
    bad = _stealthy_corruption(data, _small_rings(corpus_entries))
    assert verify_ring_axioms(bad) == naive.axiom_report(bad)


_QUADRATIC_LAWS = ("add-commutative", "add-identity", "add-inverse", "one-identity",
                   "zero-one-distinct")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_multi_entry_corruptions_get_the_full_scan_report(corpus_entries, data):
    # the proof tests the left law on a, g in G only, so a table with several
    # changed entries must still fail it wherever the scan finds a witness
    changes = data.draw(st.integers(2, 4), label="changes")
    bad = _stealthy_corruption(data, _small_rings(corpus_entries), changes)
    want = naive.axiom_report(bad)
    assert all(ok for name, ok, _ in want if name in _QUADRATIC_LAWS)
    assert verify_ring_axioms(bad) == want


def test_single_entry_corruptions_get_the_full_scan_report(rings):
    # one changed entry can break an O(n^2) law and a cubic law together
    for ring in (rings["Z(4)"], rings["Z(6)"]):
        for bad in naive.corruptions(ring):
            assert verify_ring_axioms(bad) == naive.axiom_report(bad), bad.label


@pytest.mark.parametrize("label", ["M2(Z(5))", "Z(2000)"])
def test_axioms_peak_memory_per_table_entry(label):
    # each law's n x n gathers are freed before the next law's are taken
    ring = build_text(label)
    tracemalloc.start()
    try:
        report = verify_ring_axioms(ring)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 6 * ring.order ** 2


def test_rings_never_reach_the_cubic_scan(corpus_entries, monkeypatch):
    def no_scan(*args):
        raise AssertionError("a ring reached the O(n^3) scan")

    monkeypatch.setattr(wnc.table, "_cubic_witness", no_scan)
    extra = [build_text(text) for text in ("M2(Z(4))", "T2(Z(4))", "eqdiag3(Z(4))")]
    for ring in [entry.ring for entry in corpus_entries] + extra:
        assert verify_ring_axioms(ring).passed, ring.label


def _algebra(p, k, consts):
    """Z(p)^(k+1) with unity e0; consts lists the coordinates of e_i * e_j for
    1 <= i, j <= k, row-major in (i, j, coordinate).

    Every such table is bi-additive with unity, so it is a ring exactly when
    its multiplication is associative.
    """
    basis = np.eye(k + 1, dtype=np.int64)
    c = np.empty((k + 1, k + 1, k + 1), dtype=np.int64)
    c[0], c[:, 0] = basis, basis
    c[1:, 1:] = np.asarray(consts, dtype=np.int64).reshape(k, k, k + 1)
    n = p ** (k + 1)
    x = np.array(np.unravel_index(np.arange(n), (p,) * (k + 1))).T
    encode = p ** np.arange(k, -1, -1)
    add = ((x[:, None, :] + x[None, :, :]) % p) @ encode
    mul = (np.einsum("ai,bj,ijm->abm", x, x, c) % p) @ encode
    neg = ((-x) % p) @ encode
    return ring_table(n, add, mul, neg, 0, int(encode[0]), f"algebra({p},{k},{consts})")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bilinear_algebras_get_the_full_scan_report(data):
    p = data.draw(st.sampled_from([2, 3]), label="p")
    k = data.draw(st.integers(1, 2), label="k")
    coord = st.integers(0, p - 1)
    size = k * k * (k + 1)
    consts = data.draw(st.lists(coord, min_size=size, max_size=size), label="consts")
    algebra = _algebra(p, k, consts)
    assert verify_ring_axioms(algebra) == naive.axiom_report(algebra)


def test_near_rings_fail_one_distributive_law():
    # maps of Z(3) that fix 0, f = (f(1), f(2)) with id 3*f(1) + f(2), added
    # pointwise and multiplied by composition: only a(b+c) = ab + ac fails
    maps = [(0, f1, f2) for f1 in range(3) for f2 in range(3)]
    add = [[maps.index(tuple((f[x] + g[x]) % 3 for x in range(3))) for g in maps] for f in maps]
    mul = [[maps.index(tuple(f[g[x]] for x in range(3))) for g in maps] for f in maps]
    neg = [maps.index(tuple(-v % 3 for v in f)) for f in maps]
    one = maps.index((0, 1, 2))
    for table, failing in ((mul, "left-distributive"), (np.transpose(mul), "right-distributive")):
        near = ring_table(9, add, table, neg, 0, one, "near-ring")
        report = verify_ring_axioms(near)
        assert report == naive.axiom_report(near)
        assert [name for name, _ in report.failures()] == [failing]


def test_cheap_test_failures_get_the_full_scan_report(rings):
    z6 = rings["Z(6)"]
    for x in range(6):
        for v in range(6):
            neg = np.array(z6.neg)
            neg[x] = v
            add = np.array(z6.add)
            add[z6.zero, x] = v
            mul = np.array(z6.mul)
            mul[x, z6.one] = v
            for bad in (ring_table(6, z6.add, z6.mul, neg, 0, 1, "bad-neg"),
                        ring_table(6, add, z6.mul, z6.neg, 0, 1, "bad-add"),
                        ring_table(6, z6.add, mul, z6.neg, 0, 1, "bad-one")):
                assert verify_ring_axioms(bad) == naive.axiom_report(bad), (bad.label, x, v)


def test_span_short_of_the_table_gets_the_full_scan_report():
    # + is commutative with identity 0 and inverses, and 1 is a unity, but 1 + 2 = 2
    # and 2 + 2 = 1 keep the span of {1, 2} at {0, 1, 2}: the proof stops there
    add = [[0, 1, 2, 3], [1, 0, 2, 1], [2, 2, 1, 0], [3, 1, 0, 2]]
    mul = np.zeros((4, 4), dtype=np.int64)
    mul[1], mul[:, 1] = np.arange(4), np.arange(4)
    bad = ring_table(4, add, mul, [0, 1, 3, 2], 0, 1, "short-span")
    span, _ = wnc.table._additive_span(bad, np.ones(4, dtype=bool))
    assert span.tolist() == [True, True, True, False]
    report = verify_ring_axioms(bad)
    assert report == naive.axiom_report(bad)
    assert report.failures() == [("add-associative", (1, 1, 3)),
                                 ("left-distributive", (2, 1, 1)),
                                 ("right-distributive", (1, 1, 2))]


# --- interned tables ------------------------------------------------------------


def _shared(a, b):
    """The results that read the tables alone are one object for both rings."""
    kind = DecompKind.WEAK_NIL_CLEAN
    return (a.core is b.core and structure(a) is structure(b)
            and ring_verdict(a, kind) is ring_verdict(b, kind) and all_ideals(a) is all_ideals(b))


def test_equal_tables_share_results():
    z3, m2 = build_text("Z(3)"), build_text("M2(Z(3))")
    rank_one, _ = corner(m2, 1)  # the matrix unit e11: its corner is Z(3), ids in order
    assert rank_one.label != z3.label and _shared(rank_one, z3)
    whole, _ = corner(m2, m2.one)
    by_zero, _ = quotient(m2, subset(m2, [m2.zero]))
    for ring in (whole, by_zero):
        assert _shared(ring, m2)
        assert all(mine is theirs for mine, theirs in zip((ring.add, ring.mul, ring.neg),
                                                         (m2.add, m2.mul, m2.neg)))
    masks = _ideal_masks(m2)
    assert not masks.flags.writeable
    assert tuple(frozenset(np.flatnonzero(mask).tolist()) for mask in masks) == all_ideals(m2)
    # corners and quotients are computed on each call, and equal results share a core
    assert _shared(build_text("quot(Z(36),[6])"), build_text("Z(6)"))
    again, _ = corner(m2, 1)
    assert again is not rank_one and again.core is rank_one.core


def test_whole_ring_corner_and_quotient_copy_no_table():
    # a copy of one int32 table alone would take 4 bytes per entry
    ring = build_text("M2(Z(4))")
    by_zero = subset(ring, [ring.zero])
    for make in (lambda: corner(ring, ring.one), lambda: quotient(ring, by_zero)):
        tracemalloc.start()
        try:
            whole, _ = make()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert whole.mul is ring.mul and peak < ring.order ** 2


def test_differing_tables_share_nothing():
    z4 = build_text("Z(4)")
    # one off-diagonal product changed: neg, the diagonal of mul and the row add[one]
    # agree, so the fingerprints match and only the full comparison tells them apart
    bad = next(r for r in naive.corruptions(z4, ("mul",)) if r.label == "Z(4)-mul[2,3]=1")
    assert np.array_equal(bad.mul.diagonal(), z4.mul.diagonal())
    assert np.array_equal(bad.add, z4.add) and np.array_equal(bad.neg, z4.neg)
    assert bad.core is not z4.core and structure(bad) is not structure(z4)
    assert ring_verdict(bad, DecompKind.NIL_CLEAN) is not ring_verdict(z4, DecompKind.NIL_CLEAN)
    # the same tables with another unity: x*y = 2 makes 2 a unit too
    other = ring_table(4, z4.add, z4.mul, z4.neg, z4.zero, 2, "Z(4) with one=2")
    assert other.core is not z4.core
    assert structure(z4).unit_mask.tolist() == [False, True, False, True]
    assert structure(other).unit_mask.tolist() == [False, True, True, True]
    for ring in (bad, other):  # each memo entry holds what its own tables give
        fresh = structure.__wrapped__(ring)
        assert all(np.array_equal(getattr(structure(ring), name), getattr(fresh, name))
                   for name in ("unit_mask", "nil_index", "radical_mask")), ring.label


def test_replaced_tables_decide_on_their_own():
    z6 = build_text("Z(6)")
    mul = np.array(z6.mul)
    mul[5, 5] = 0  # not a ring: 5 is nilpotent now, so 2 = 3 + 5 and 5 = 0 + 5 are nil clean
    ring = dataclasses.replace(z6, mul=mul, label="Z(6) with 5*5=0")
    assert ring.core is not z6.core and ring.mul is not z6.mul
    assert structure(ring).nilpotents == {0, 5} and structure(z6).nilpotents == {0}
    assert ring_verdict(ring, DecompKind.NIL_CLEAN).holds
    assert not ring_verdict(z6, DecompKind.NIL_CLEAN).holds


def test_direct_ring_tables_are_interned():
    z6 = build_text("Z(6)")
    tables = (z6.add.tolist(), z6.mul.tolist(), z6.neg.tolist())
    direct = RingTable(6, *tables, 0, 1, "direct", tuple("abcdef"))
    via = ring_table(6, *tables, 0, 1, "via")
    assert direct.core is via.core is z6.core and structure(direct) is structure(via)
    assert direct.mul is z6.mul and not direct.mul.flags.writeable
    assert direct.name_of(5) == "f" and direct.components == ()


def test_caller_views_cannot_change_interned_tables():
    add = np.array([[0, 1], [1, 0]], dtype=np.int32)
    mul = np.array([[0, 0], [0, 1]], dtype=np.int32)
    view = mul.view()
    ring = ring_table(2, add, mul, [0, 1], 0, 1, "F2 from writable arrays")
    assert structure(ring).unit_mask.tolist() == [False, True]
    view[1, 1] = 0
    assert ring.mul.tolist() == [[0, 0], [0, 1]]
    # the caller's arrays stay writable, and writing them changes no ring
    add[1, 1] = 1
    assert ring.add.tolist() == [[0, 1], [1, 0]] and not ring.add.flags.writeable
    assert structure(ring).unit_mask.tolist() == [False, True]
    # a read-only view of memory the caller can still write is copied too
    base = np.array([[0, 0], [0, 1]], dtype=np.int32)
    frozen = base.view()
    frozen.flags.writeable = False
    ring = ring_table(2, ring.add, frozen, ring.neg, 0, 1, "F2 from a read-only view")
    base[1, 1] = 0
    assert ring.mul.tolist() == [[0, 0], [0, 1]] and ring.mul is not frozen
    # a read-only uint16 array that owns its memory is kept as it is (tables no
    # other test builds); one of another dtype is narrowed into a copy
    owned = np.array([[0, 0, 0], [0, 1, 2], [0, 2, 2]], dtype=np.uint16)
    owned.flags.writeable = False
    z3 = build_zn(3)
    assert ring_table(3, z3.add, owned, z3.neg, 0, 1, "not a ring").mul is owned
    wide = owned.astype(np.int32)
    wide.flags.writeable = False
    narrowed = ring_table(3, z3.add, wide, z3.neg, 0, 1, "not a ring, from int32").mul
    assert narrowed is not wide and narrowed.dtype == np.uint16 and not narrowed.flags.writeable


def _referrers(obj) -> str:
    """The type and a short repr of each object that refers to obj, for a failure message."""
    if obj is None:
        return "the object was freed"
    return "still referred to by: " + "; ".join(
        f"{type(ref).__name__} {reprlib.repr(ref)}" for ref in gc.get_referrers(obj))


def test_a_dropped_rings_core_is_freed():
    # outside run_suite nothing keeps a core alive past its rings; Z(12)'s own
    # tables are held by the session fixtures, so its relabelling prod(Z(4),Z(3))
    ring = build_text("prod(Z(4),Z(3))")
    structure(ring)
    core = weakref.ref(ring.core)
    del ring
    gc.collect()
    assert core() is None, _referrers(core())


def test_threads_share_tables_and_free_their_own():
    labels = ("Z(12)", "M2(Z(2))", "quot(Z(36),[6])", "corner(M2(Z(3)),1)", "Z(3)")
    kind = DecompKind.WEAK_NIL_CLEAN

    def results(cache, verdict):
        return cache.unit_mask.tolist(), cache.radical_mask.tolist(), verdict.holds

    expected = {}
    for label in labels:  # the unmemoised bodies, so neither result comes from its memo
        ring = build_text(label)
        expected[label] = results(structure.__wrapped__(ring),
                                  decomp._candidates.__wrapped__(ring, kind, None))
    z16 = build_text("Z(16)")
    count = 4
    # tables built nowhere else, one per thread: Z(16) with 15*15 set to 2..5
    own = []
    for index in range(count):
        mul = np.array(z16.mul)
        mul[15, 15] = index + 2
        own.append(mul)
    cores = [None] * count
    built, release = threading.Barrier(count), [threading.Event() for _ in range(count)]
    errors = []

    def work(index):
        try:
            for _ in range(20):
                for label in labels:
                    ring = build_text(label)
                    got = results(structure(ring), ring_verdict(ring, kind))
                    if got != expected[label]:
                        errors.append(label)
            mine = ring_table(16, z16.add, own[index], z16.neg, 0, 1, f"own {index}")
            structure(mine)
            cores[index] = weakref.ref(mine.core)
            built.wait(timeout=120)
            # each thread's tables intern to a core of their own
            if len({core() for core in cores}) != count:
                errors.append(f"thread {index} shares another thread's table")
            release[index].wait(timeout=120)
        except Exception as exc:  # a thread's exception would be lost: assert on it below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(index,)) for index in range(count)]
        for thread in threads:
            thread.start()
        for index, thread in enumerate(threads):
            release[index].set()
            thread.join(timeout=120)
            gc.collect()
            # freed once its thread drops its ring, while the later threads hold theirs
            assert cores[index]() is None and all(t.is_alive() for t in threads[index + 1:]), (
                _referrers(cores[index]()))
    finally:
        for event in release:
            event.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
