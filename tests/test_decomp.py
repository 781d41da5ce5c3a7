"""Decomposition search, ring verdicts and the auxiliary deciders."""

import dataclasses
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import naive
from test_construct import _exprs
from wnc.construct import build, build_text, corner, order_bound, quotient
from wnc.decomp import (
    DecompCert,
    DecompKind,
    _annihilator_failure,
    _candidates,
    cert_is_valid,
    find_decomp,
    is_exchange,
    is_strongly_pi_regular,
    iter_decomps,
    kind_takes_subset,
    lifts_idempotents,
    lifts_idempotents_weakly,
    nil_clean_count_bound,
    ring_verdict,
    verdict_to_json,
    zero_one_subset,
)
from wnc.errors import CrossRingError, InvalidIdealError, InvalidSubsetError, RingError
from wnc.structure import _multiples, all_ideals, structure, subset
from wnc.table import ring_table


# --- certificates -------------------------------------------------------------


def test_weak_certificates_in_z6_are_canonical(rings):
    z6 = rings["Z(6)"]
    cert5 = find_decomp(z6, 5, DecompKind.WEAK_NIL_CLEAN)
    assert (cert5.companion, cert5.idempotent, cert5.sign) == (0, 1, "-")
    cert2 = find_decomp(z6, 2, DecompKind.WEAK_NIL_CLEAN)
    assert (cert2.companion, cert2.idempotent, cert2.sign) == (0, 4, "-")
    assert cert2.commutes and cert5.commutes


def test_nil_clean_absent_for_two_and_five(rings):
    z6 = rings["Z(6)"]
    assert find_decomp(z6, 2, DecompKind.NIL_CLEAN) is None
    assert find_decomp(z6, 5, DecompKind.NIL_CLEAN) is None
    assert 2 not in naive.expressible(z6, "nil-clean")
    assert 5 not in naive.expressible(z6, "nil-clean")


def test_zero_is_strongly_nil_clean_everywhere(rings):
    for ring in rings.values():
        cert = find_decomp(ring, ring.zero, DecompKind.STRONGLY_NIL_CLEAN)
        assert (cert.companion, cert.idempotent, cert.sign) == (ring.zero, ring.zero, "+")
        assert cert.commutes


def test_weak_j_clean_certificate_in_z4(rings):
    cert = find_decomp(rings["Z(4)"], 3, DecompKind.WEAK_J_CLEAN)
    assert (cert.companion, cert.idempotent, cert.sign) == (2, 1, "+")


def test_search_order_is_idempotent_ascending_plus_first(rings):
    z6 = rings["Z(6)"]
    # 3 = 0 + 3 and 3 = 0 - 3; the '+' certificate must win
    cert = find_decomp(z6, 3, DecompKind.WEAK_NIL_CLEAN)
    assert (cert.idempotent, cert.sign) == (3, "+")
    decomps = list(iter_decomps(z6, 3, DecompKind.WEAK_NIL_CLEAN))
    assert [(d.idempotent, d.sign) for d in decomps] == [(3, "+"), (3, "-")]


def test_cert_validation_catches_tampering(rings):
    z6 = rings["Z(6)"]
    cert = find_decomp(z6, 5, DecompKind.WEAK_NIL_CLEAN)
    assert cert_is_valid(z6, cert)
    forged = dataclasses.replace(cert, companion=2)
    assert not cert_is_valid(z6, forged)
    resigned = dataclasses.replace(cert, sign="+")
    assert not cert_is_valid(z6, resigned)
    assert cert.sign == "-"  # nil clean takes '+' certificates only
    assert not cert_is_valid(z6, dataclasses.replace(cert, kind=DecompKind.NIL_CLEAN))
    assert not cert_is_valid(z6, dataclasses.replace(cert, commutes=not cert.commutes))


def test_cert_ids_out_of_range_are_rejected_without_raising(rings):
    # numpy reads mask[-1] as the last entry: in Z(6) the clean certificate
    # 5 = 5 + 0 would pass with companion -1 if the lookup were not range-checked
    for ring in (rings["Z(6)"], rings["Z(4)"], rings["T2(Z(2))"]):
        n = ring.order
        for kind in DecompKind:
            s = (ring.zero, ring.one) if kind_takes_subset(kind) else None
            for cert in ring_verdict(ring, kind, s).certs.values():
                assert cert_is_valid(ring, cert, s), (ring.label, kind, cert)
                for field in ("companion", "idempotent", "target"):
                    for bad in (-1, n):
                        forged = dataclasses.replace(cert, **{field: bad})
                        assert not cert_is_valid(ring, forged, s), (ring.label, kind, forged)
                if s is not None:
                    for bad in (-1, n):
                        with pytest.raises(InvalidSubsetError, match=rf"elements \[{bad}\]"):
                            cert_is_valid(ring, cert, (ring.zero, bad))
                        with pytest.raises(InvalidSubsetError, match=rf"elements \[{bad}\]"):
                            ring_verdict(ring, kind, (ring.one, bad))


# --- ring verdicts --------------------------------------------------------------


def test_z6_ring_verdicts(rings):
    z6 = rings["Z(6)"]
    weak = ring_verdict(z6, DecompKind.WEAK_NIL_CLEAN)
    assert weak.holds and weak.witness is None and len(weak.certs) == 6
    nil = ring_verdict(z6, DecompKind.NIL_CLEAN)
    assert not nil.holds and nil.witness == 2


def test_t2z3_is_not_weak_nil_clean(rings):
    verdict = ring_verdict(rings["T2(Z(3))"], DecompKind.WEAK_NIL_CLEAN)
    assert not verdict.holds
    assert verdict.witness not in naive.expressible(rings["T2(Z(3))"], "weak-nil-clean")


def test_zero_ring_is_vacuously_everything():
    ring, _ = corner(build_text("Z(6)"), 0)
    for kind in DecompKind:
        s = (0,) if kind in (DecompKind.S_WEAK_NIL_CLEAN, DecompKind.S_WEAK_STAR_NIL_CLEAN) else None
        assert ring_verdict(ring, kind, s).holds, kind


def test_monotonicity_between_notions(rings):
    implications = [
        (DecompKind.NIL_CLEAN, DecompKind.WEAK_NIL_CLEAN),
        (DecompKind.STRONGLY_NIL_CLEAN, DecompKind.WEAK_STAR_NIL_CLEAN),
        (DecompKind.WEAK_STAR_NIL_CLEAN, DecompKind.WEAK_NIL_CLEAN),
        (DecompKind.WEAK_NIL_CLEAN, DecompKind.WEAKLY_CLEAN),
        (DecompKind.J_CLEAN, DecompKind.WEAK_J_CLEAN),
        (DecompKind.WEAK_STAR_J_CLEAN, DecompKind.STRONGLY_CLEAN),
    ]
    for ring in rings.values():
        for weaker_source, implied in implications:
            for x in ring.elements():
                if find_decomp(ring, x, weaker_source) is not None:
                    assert find_decomp(ring, x, implied) is not None, (
                        ring.label, weaker_source, implied, x)


def test_weakly_clean_does_not_require_commuting(rings):
    # Cleanness of the triangular ring gives weak cleanness elementwise.
    verdict = ring_verdict(rings["T2(Z(3))"], DecompKind.WEAKLY_CLEAN)
    assert verdict.holds


def test_s_variants(rings):
    z6 = rings["Z(6)"]
    s01 = zero_one_subset(z6)
    verdict = ring_verdict(z6, DecompKind.S_WEAK_NIL_CLEAN, s01)
    assert not verdict.holds and verdict.witness == 2
    full = ring_verdict(z6, DecompKind.S_WEAK_NIL_CLEAN, structure(z6).idempotents)
    assert full.holds
    with pytest.raises(InvalidSubsetError):
        ring_verdict(z6, DecompKind.S_WEAK_NIL_CLEAN, (0, 2))
    with pytest.raises(InvalidSubsetError):
        ring_verdict(z6, DecompKind.S_WEAK_NIL_CLEAN, ())
    with pytest.raises(InvalidSubsetError):
        ring_verdict(z6, DecompKind.S_WEAK_NIL_CLEAN)


def test_s_of_another_ring_is_rejected(rings):
    z6, kind = rings["Z(6)"], DecompKind.S_WEAK_NIL_CLEAN
    cert = ring_verdict(z6, kind, (0, 1)).certs[1]
    deciders = [
        lambda s: ring_verdict(z6, kind, s),
        lambda s: list(iter_decomps(z6, 1, kind, s)),
        lambda s: cert_is_valid(z6, cert, s),
    ]
    for decide in deciders:
        with pytest.raises(CrossRingError, match=r"Z\(4\) and Z\(6\)"):
            decide(subset(rings["Z(4)"], {0, 1}))
        with pytest.raises(CrossRingError):
            decide(np.ones(4, dtype=bool))
    # the same S as a Subset of Z(6), as a mask or as ids gives one verdict
    mask = np.zeros(6, dtype=bool)
    mask[[0, 1, 3, 4]] = True
    verdicts = {ring_verdict(z6, kind, s) for s in (subset(z6, mask), mask, (4, 3, 1, 0))}
    assert len(verdicts) == 1 and verdicts.pop().holds


def test_verdict_json_shape(rings):
    z4 = rings["Z(4)"]
    verdict = ring_verdict(z4, DecompKind.WEAK_J_CLEAN)
    payload = verdict_to_json(z4, verdict)
    assert list(payload) == ["ring", "kind", "holds", "witness", "certs"]
    assert payload["ring"] == "Z(4)" and payload["holds"] is True
    assert payload["certs"][3] == {
        "x": 3, "e": 1, "companion": 2, "sign": "+", "commutes": True,
    }
    s_payload = verdict_to_json(
        z4, ring_verdict(z4, DecompKind.S_WEAK_NIL_CLEAN, zero_one_subset(z4))
    )
    assert list(s_payload) == ["ring", "kind", "s", "holds", "witness", "certs"]
    json.dumps(payload)  # serializable


# --- exchange, pi-regularity, lifting ------------------------------------------


def test_exchange_examples(rings):
    assert is_exchange(rings["Z(5)"], "right").holds
    assert is_exchange(rings["Z(5)"], "left").holds
    report = is_exchange(rings["T2(Z(3))"], "right")
    assert report.holds and len(report.witnesses) == 27
    assert is_exchange(rings["T2(Z(3))"], "left").holds
    with pytest.raises(ValueError):
        is_exchange(rings["Z(5)"], "middle")


def test_exchange_witnesses_revalidate(rings):
    ring = rings["Z(12)"]
    report = is_exchange(ring, "right")
    assert report.holds
    for x, e in report.witnesses.items():
        assert int(ring.mul[e, e]) == e
        assert e in {int(v) for v in ring.mul[x]}
        one_minus_x = ring.sub(ring.one, x)
        assert ring.sub(ring.one, e) in {int(v) for v in ring.mul[one_minus_x]}


def test_strongly_pi_regular_examples(rings):
    assert is_strongly_pi_regular(rings["Z(6)"])
    assert is_strongly_pi_regular(rings["M2(Z(2))"])
    zero_ring, _ = corner(rings["Z(6)"], 0)
    assert is_strongly_pi_regular(zero_ring)


def test_exchange_sides_agree_on_corpus(corpus_entries):
    for entry in corpus_entries:
        if entry.ring is None:
            continue
        right = is_exchange(entry.ring, "right").holds
        left = is_exchange(entry.ring, "left").holds
        assert right == left, entry.label


def test_finite_rings_are_strongly_pi_regular(corpus_entries):
    for entry in corpus_entries:
        if entry.ring is None:
            continue
        assert is_strongly_pi_regular(entry.ring), entry.label


def test_candidate_mask_is_the_decomposable_set(corpus_entries):
    tables = [entry.ring for entry in corpus_entries]
    checked = 0
    for ring in tables + list(naive.corruptions(build_text("Z(4)"))):
        for kind in DecompKind:
            s = (ring.zero, ring.one) if kind_takes_subset(kind) else None
            try:
                verdict = ring_verdict(ring, kind, s)
            except InvalidSubsetError:  # 0 or 1 is not idempotent in some corrupted tables
                continue
            found = _candidates(ring, kind, verdict.s).found
            targets = np.zeros(ring.order, dtype=bool)
            targets[verdict.targets] = True
            assert not found.flags.writeable and np.array_equal(found, targets), (ring, kind)
            checked += 1
    assert checked > len(tables) * len(DecompKind)


def test_kinds_share_one_companion_table_and_mask_its_shape(rings):
    # rows 2i and 2i + 1 are (e_i, +) and (e_i, -): a kind that allows only
    # n + e has no candidate in an odd row
    plus_only = {DecompKind.CLEAN, DecompKind.STRONGLY_CLEAN, DecompKind.NIL_CLEAN,
                 DecompKind.STRONGLY_NIL_CLEAN, DecompKind.J_CLEAN, DecompKind.STRONGLY_J_CLEAN}
    for label in ("Z(12)", "M2(Z(3))"):
        ring = rings[label]
        verdicts = [ring_verdict(ring, kind, zero_one_subset(ring) if kind_takes_subset(kind)
                                 else None) for kind in DecompKind]
        assert len({id(v.table) for v in verdicts if v.s is None}) == 1, label
        for verdict in verdicts:
            assert verdict.ok.shape == verdict.table.comp.shape, (label, verdict.kind)
            # shared by every kind and call, so no reader may write them
            arrays = verdict.ok, verdict.table.idems, verdict.table.comp, verdict.table.commuting
            assert not any(array.flags.writeable for array in arrays), (label, verdict.kind)
            if verdict.kind in plus_only:
                assert not verdict.ok[1::2].any(), (label, verdict.kind)
        assert any(v.ok[1::2].any() for v in verdicts), label


def test_certificate_columns_are_read_only(rings):
    # the memoised verdict is shared by every equal ring: a write to a column
    # would change the certificates of a Z(6) built later
    verdict = ring_verdict(rings["Z(6)"], DecompKind.WEAK_NIL_CLEAN)
    assert (verdict.targets[0], verdict.idempotents[0], verdict.companions[0]) == (0, 0, 0)
    writes = {"targets": 3, "_rows": 1, "idempotents": 3, "companions": 3, "signs": "-",
              "commutes": False}
    refused = []
    for name, value in writes.items():
        try:
            getattr(verdict, name)[0] = value
        except ValueError as error:
            assert "read-only" in str(error)
            refused.append(name)
    with pytest.raises(TypeError):
        verdict.certs[0] = dataclasses.replace(verdict.certs[0], companion=3)
    fresh = build_text("Z(6)")
    payload = verdict_to_json(fresh, ring_verdict(fresh, DecompKind.WEAK_NIL_CLEAN))
    certs = [DecompCert(DecompKind.WEAK_NIL_CLEAN, c["x"], c["e"], c["companion"], c["sign"],
                        c["commutes"]) for c in payload["certs"]]
    assert len(certs) == 6 and all(cert_is_valid(fresh, cert) for cert in certs)
    certs = ring_verdict(fresh, DecompKind.WEAK_NIL_CLEAN).certs.values()
    assert len(certs) == 6 and all(cert_is_valid(fresh, cert) for cert in certs)
    assert refused == list(writes)


def test_idempotent_lifting_examples(rings):
    z4 = rings["Z(4)"]
    report = lifts_idempotents_weakly(z4, subset(z4, {0, 2}))
    assert report.holds and set(report.witnesses) == {0, 1}

    z9 = rings["Z(9)"]
    assert lifts_idempotents_weakly(z9, subset(z9, {0, 3, 6})).holds
    assert lifts_idempotents(z9, subset(z9, {0, 3, 6})).holds

    z6 = rings["Z(6)"]
    assert lifts_idempotents_weakly(z6, subset(z6, {0})).holds


def _two_sided_ideals(ring):
    """Every subset closed under +, negation and products with any element, as
    sorted ids, from the tables alone (so also on tables that are not rings)."""
    n = ring.order
    masks = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    masks = masks[masks[:, ring.zero]]
    escapes = [(masks[:, :, None] & masks[:, None, :]) & ~masks[:, ring.add],
               masks[:, :, None] & ~masks[:, ring.neg][:, :, None],
               masks[:, None, :] & ~masks[:, ring.mul],
               masks[:, :, None] & ~masks[:, ring.mul]]
    closed = ~np.any([e.any(axis=(1, 2)) for e in escapes], axis=0)
    return [tuple(np.flatnonzero(m).tolist()) for m in masks[closed]]


def _check_lifting(ring, members, failures):
    ideal = subset(ring, members)
    for decide, weak in ((lifts_idempotents, False), (lifts_idempotents_weakly, True)):
        report = decide(ring, ideal)
        got = (report.holds, report.witnesses, report.failure)
        assert got == naive.lift_report(ring, members, weak), (ring.label, members, weak)
        if not report.holds:
            failures.add((ring.label, members, weak, report.failure))


def test_idempotent_lifting_matches_loop_oracle(corpus_entries, rings):
    failures = set()
    for entry in corpus_entries:
        if entry.ring.order <= 64:
            for ideal in all_ideals(entry.ring):
                _check_lifting(entry.ring, tuple(sorted(ideal)), failures)
    assert not failures  # finite rings lift idempotents modulo every ideal
    cases = 0
    for bad in [*naive.corruptions(rings["Z(4)"]), *naive.corruptions(rings["T2(Z(2))"])]:
        for members in _two_sided_ideals(bad):
            # the sets x + I need not partition a table with a corrupted addition;
            # where they do not, R/I is undefined and its cosets have no numbering
            cosets = {frozenset(bad.add[x, list(members)].tolist()) for x in range(bad.order)}
            if sorted(x for coset in cosets for x in coset) != list(range(bad.order)):
                continue
            quotient(bad, subset(bad, members))  # accepted
            _check_lifting(bad, members, failures)
            cases += 1
    assert cases == 2918
    # each failure is reached by both deciders; no idempotent maps onto the failing coset
    assert failures == {(label, (0, 2), weak, failure) for weak in (False, True)
                        for label, failure in (("Z(4)-mul[0,0]=2", 0), ("Z(4)-mul[1,1]=3", 1),
                                               ("T2(Z(2))-mul[0,0]=2", 0),
                                               ("T2(Z(2))-mul[5,5]=7", 3))}


def test_quotient_refuses_sets_whose_cosets_overlap(rings):
    # on a table that is not a ring, a set can pass the ideal flags while its
    # sets x + I overlap; such a set has no quotient, and every accepted
    # quotient projects onto its own cosets
    bad = next(t for t in naive.corruptions(rings["Z(4)"]) if t.label == "Z(4)-add[1,0]=0")
    ideal = subset(bad, [0, 2])
    assert ideal.is_two_sided_ideal
    with pytest.raises(InvalidIdealError, match=r"^the sets x \+ \[0, 2\] do not partition"):
        quotient(bad, ideal)
    accepted = 0
    for label in ("Z(4)", "Z(6)", "T2(Z(2))"):
        for bad in naive.corruptions(rings[label]):
            for members in _two_sided_ideals(bad):
                try:
                    quot, proj = quotient(bad, subset(bad, members))
                except InvalidIdealError:
                    continue
                assert max(proj) < quot.order, (bad.label, members)
                accepted += 1
    assert accepted == 4806


def test_weak_lifting_is_representative_independent(rings):
    for label in ("Z(4)", "Z(8)", "Z(9)", "Z(12)", "eqdiag2(Z(6))"):
        ring = rings[label]
        cache = structure(ring)
        ideal = subset(ring, cache.nilpotency)
        if not ideal.is_two_sided_ideal:
            continue
        outcomes = {}
        for x in ring.elements():
            liftable = any(
                ring.sub(e, x) in ideal.members or int(ring.add[e, x]) in ideal.members
                for e in cache.idempotents
            )
            coset = frozenset(int(ring.add[x, i]) for i in ideal.members)
            outcomes.setdefault(coset, set()).add(liftable)
        for coset, seen in outcomes.items():
            assert len(seen) == 1, (ring.label, sorted(coset))


def test_nil_clean_count_bound():
    assert nil_clean_count_bound(5, 1) == 4
    assert nil_clean_count_bound(3, 2) == 12
    assert nil_clean_count_bound(7, 2) == 28
    with pytest.raises(ValueError):
        nil_clean_count_bound(6, 1)
    # trial division stays in integers: a float square root overflows here
    with pytest.raises(ValueError, match="p must be prime"):
        nil_clean_count_bound(10**400, 1)
    assert nil_clean_count_bound(2, 1) == 4
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            nil_clean_count_bound(5, k)


# --- proof-identity invariants ---------------------------------------------------


def test_unit_conjugation_identity_for_minus_certificates(rings):
    for ring in rings.values():
        cache = structure(ring)
        for x in ring.elements():
            for cert in iter_decomps(ring, x, DecompKind.WEAK_STAR_NIL_CLEAN):
                if cert.sign != "-":
                    continue
                n, e = cert.companion, cert.idempotent
                u = ring.sub(ring.one, n)
                assert u in cache.units, (ring.label, x)
                uinv = cache.inverse[u]
                lhs = ring.sub(x, int(ring.mul[ring.mul[uinv, e], u]))
                rhs = int(ring.mul[uinv, ring.sub(x, int(ring.mul[x, x]))])
                assert lhs == rhs, (ring.label, x, cert)


def test_zero_one_weak_rings_are_local_like(rings):
    for label in ("Z(2)", "Z(3)", "Z(4)", "Z(8)", "Z(9)"):
        ring = rings[label]
        assert ring_verdict(ring, DecompKind.S_WEAK_NIL_CLEAN, zero_one_subset(ring)).holds
        cache = structure(ring)
        assert set(cache.units) | set(cache.nilpotency) == set(ring.elements())
        shifted = {int(ring.add[ring.one, n]) for n in cache.nilpotency}
        shifted |= {int(ring.add[ring.neg[ring.one], n]) for n in cache.nilpotency}
        assert shifted == set(cache.units)
        assert subset(ring, cache.nilpotency).is_two_sided_ideal
        assert cache.radical == cache.nilpotents


def test_radical_meets_idempotents_only_at_zero(corpus_entries):
    for entry in corpus_entries:
        if entry.ring is None:
            continue
        cache = structure(entry.ring)
        assert cache.idempotent_set & cache.radical == {entry.ring.zero}, entry.label
        assert cache.idempotent_set & cache.nilpotents == {entry.ring.zero}, entry.label


def _closed_forms(ring):
    """The verdicts that the theory of finite rings gives in closed form, read off
    R/J: every finite ring is clean; j-clean and strongly nil clean rings are those
    with R/J Boolean; weak j-clean ones those with |R/J| = i or 3i/2 for the number
    i of idempotents of R/J; nil clean ones those whose R/J has a Boolean centre.
    A commutative ring is weak nil clean iff R/J is Boolean, F_3 or Boolean x F_3;
    R/J is then a product of fields, so this too reads |R/J| = i or 3i/2."""
    bar, _ = quotient(ring, subset(ring, structure(ring).radical_mask))
    n, squares = bar.order, bar.mul.diagonal()
    idempotents = np.count_nonzero(squares == np.arange(n))
    centre = np.flatnonzero((bar.mul == bar.mul.T).all(axis=1))
    boolean, weak = idempotents == n, 2 * n in (2 * idempotents, 3 * idempotents)
    forms = {DecompKind.CLEAN: True, DecompKind.J_CLEAN: boolean,
             DecompKind.STRONGLY_NIL_CLEAN: boolean, DecompKind.WEAK_J_CLEAN: weak,
             DecompKind.NIL_CLEAN: bool((squares[centre] == centre).all())}
    if ring.is_commutative():
        forms[DecompKind.WEAK_NIL_CLEAN] = weak
    return forms


def _assert_closed_forms(ring):
    for kind, holds in _closed_forms(ring).items():
        assert ring_verdict(ring, kind).holds == holds, (ring.label, kind.value)


def test_verdicts_match_closed_forms(corpus_entries):
    extra = ("M2(Z(4))", "M2(Z(6))", "T2(Z(9))", "idealize(T2(Z(3)),self)",
             "prod(M2(Z(2)),Z(3))")
    rings = [entry.ring for entry in corpus_entries if entry.ring is not None]
    for ring in rings + [build_text(text) for text in extra]:
        _assert_closed_forms(ring)


@settings(max_examples=100, deadline=None)
@given(_exprs(2).filter(lambda expr: order_bound(expr) <= 128))
def test_grammar_verdicts_match_closed_forms(expr):
    try:
        ring = build(expr)
    except RingError:
        return
    _assert_closed_forms(ring)


def test_all_verdict_certificates_revalidate(corpus_entries):
    kinds = [DecompKind.from_name(name) for name in naive.KIND_RULES]
    total = 0
    for entry in corpus_entries:
        if entry.ring is None:
            continue
        for kind in kinds:
            verdict = ring_verdict(entry.ring, kind)
            for cert in verdict.certs.values():
                assert cert_is_valid(entry.ring, cert), (entry.label, kind, cert)
                total += 1
    assert total > 5_000


# --- randomized certificate soundness (small smoke; the large run is acceptance) --


def test_certificate_soundness_smoke(rings):
    rng = random.Random(7)
    kinds = [DecompKind.from_name(name) for name in naive.KIND_RULES]
    pool = list(rings.values())
    reachable = {}
    for _ in range(2000):
        ring = rng.choice(pool)
        x = rng.randrange(ring.order)
        kind = rng.choice(kinds)
        cert = find_decomp(ring, x, kind)
        if cert is None:
            key = (ring.label, kind.value)
            if key not in reachable:
                reachable[key] = naive.expressible(ring, kind.value)
            assert x not in reachable[key], (ring.label, x, kind)
        else:
            assert naive.validate_cert(ring, cert), (ring.label, x, kind)


# --- table deciders against the per-element loops -----------------------------

ORACLE_EXTRAS = ("Z(360)", "M2(Z(4))", "idealize(T2(Z(2)),self)",
                 "skew(prod(Z(2),Z(2)),swap(1,2),4)")


@pytest.fixture(scope="module")
def oracle_rings(corpus_entries):
    return [entry.ring for entry in corpus_entries] + [build_text(t) for t in ORACLE_EXTRAS]


def _subsets_for(ring, kind):
    """None for a plain kind; for an S-kind, S = {0, 1} and Idem(R) without its largest."""
    if not kind_takes_subset(kind):
        return [None]
    idems = structure(ring).idempotents
    return [zero_one_subset(ring).sorted_members()] + ([idems[:-1]] if len(idems) > 1 else [])


def _fields(cert):
    return cert.idempotent, cert.companion, cert.sign, cert.commutes


def test_verdicts_and_decomps_match_loop_oracle(oracle_rings):
    for ring in oracle_rings:
        pools = {family: set(naive.companion_family(ring, family))
                 for family in ("nil", "unit", "radical")}
        for kind in DecompKind:
            for s in _subsets_for(ring, kind):
                decomps = naive.all_decomps(ring, kind.value, s, pools)
                verdict = ring_verdict(ring, kind, s)
                certs = {x: _fields(cert) for x, cert in verdict.certs.items()}
                where = (ring.label, kind.value, s)
                assert (verdict.holds, verdict.witness, certs) == naive.verdict(decomps), where
                assert verdict.s == s and list(certs) == sorted(certs), where
                for x in ring.elements():
                    found = list(iter_decomps(ring, x, kind, s))
                    assert [_fields(c) for c in found] == decomps[x], (where, x)
                    assert all(c.kind is kind and c.target == x for c in found), (where, x)
                    assert find_decomp(ring, x, kind, s) == (found[0] if found else None)


def test_exchange_and_pi_regularity_match_loop_oracle(oracle_rings):
    for ring in oracle_rings:
        if ring.order > 256:
            continue
        for side in ("right", "left"):
            report = is_exchange(ring, side)
            assert (report.holds, report.witnesses, report.failure) == naive.is_exchange(
                ring, side), (ring.label, side)
        assert is_strongly_pi_regular(ring) == naive.is_strongly_pi_regular(ring), ring.label


# (kind, also): clean elements break containment, and clean with also = nil
# clean reaches law -1, so the order of laws and rows is pinned by real failures
ANNIHILATOR_CASES = (
    (DecompKind.CLEAN, None),
    (DecompKind.CLEAN, DecompKind.NIL_CLEAN),
    (DecompKind.WEAK_STAR_NIL_CLEAN, None),
    (DecompKind.WEAK_STAR_J_CLEAN, DecompKind.STRONGLY_CLEAN),
)


def _check_annihilators(ring, laws_seen, oracle_laws):
    for kind, also in ANNIHILATOR_CASES:
        found = _annihilator_failure(ring, kind, also)
        expected = naive.annihilator_failure(ring, kind.value, oracle_laws, also and also.value)
        assert found == expected, (ring.label, kind, also)
        if found is not None:
            laws_seen.add(found[2])


def test_exchange_pi_regularity_and_annihilators_on_non_rings(rings):
    # no ring reaches the exchange failure path; the annihilator helper checks
    # laws 0 and 1 only, which on a table that is not a ring no longer bound
    # ann(x) by R(1-e) and (1-e)R, so there it is compared with the two-law oracle
    outcomes, laws_seen = set(), set()
    z4 = list(naive.corruptions(rings["Z(4)"]))
    for bad in z4 + list(naive.corruptions(rings["T2(Z(2))"], ("mul",))):
        for side in ("right", "left"):
            report = is_exchange(bad, side)
            assert (report.holds, report.witnesses, report.failure) == naive.is_exchange(
                bad, side), (bad.label, side)
            outcomes.add((side, report.holds))
        pi_regular = is_strongly_pi_regular(bad)
        assert pi_regular == naive.is_strongly_pi_regular(bad), bad.label
        outcomes.add(("pi", pi_regular))
    for bad in z4:
        _check_annihilators(bad, laws_seen, 2)
    assert outcomes == {(t, held) for t in ("right", "left", "pi") for held in (True, False)}
    assert laws_seen == {-1, 0, 1}


def test_annihilator_helper_matches_loop_oracle(corpus_entries):
    # against the four-law oracle: in a ring ann_l(e) = R(1-e) and ann_r(e) = (1-e)R,
    # so laws 2 and 3 never fail first and the two-law helper gives the same result
    laws_seen = set()
    for entry in corpus_entries:
        _check_annihilators(entry.ring, laws_seen, 4)
    _check_annihilators(build_text("idealize(T2(Z(2)),self)"), laws_seen, 4)
    assert 0 in laws_seen  # clean elements break the containment in rings too


# The rings of the verify-mid and classify-large benchmark workloads
_BENCH_RINGS = ("Z(128)", "Z(144)", "idealize(Z(12),self)", "prod(Z(4),Z(9),Z(5))",
                "M2(Z(4))", "T2(Z(7))", "eqdiag3(Z(4))", "idealize(Z(25),self)",
                "skew(prod(Z(2),Z(2)),swap(1,2),4)", "idealize(T2(Z(2)),self)")


def test_ring_facts_the_checks_assume(corpus_entries):
    """R(1-e) = ann_l(e) and (1-e)R = ann_r(e) for every idempotent e, idempotents
    lift modulo Nil(R) in a commutative ring, and weakly modulo J(R) in any ring:
    the annihilator, nil-radical and weak J-clean checks take these as given."""
    rings = [entry.ring for entry in corpus_entries] + [build_text(t) for t in _BENCH_RINGS]
    assert len(rings) == 82
    for ring in rings:
        cache = structure(ring)
        idems = np.asarray(cache.idempotents)
        one_minus = ring.add[ring.one][ring.neg[idems]]
        zero = ring.mul == ring.zero
        assert np.array_equal(_multiples(ring, "left", one_minus), zero.T[idems]), ring.label
        assert np.array_equal(_multiples(ring, "right", one_minus), zero[idems]), ring.label
        if ring.is_commutative():
            assert lifts_idempotents(ring, subset(ring, cache.nil_mask)).holds, ring.label
        assert lifts_idempotents_weakly(ring, subset(ring, cache.radical_mask)).holds, ring.label


def test_deciders_peak_memory_per_table_entry():
    ring = build_text("M2(Z(5))")
    structure(ring)  # its own peak is measured elsewhere
    s = zero_one_subset(ring)
    tracemalloc.start()
    try:
        for kind in DecompKind:
            ring_verdict(ring, kind, s)
            list(iter_decomps(ring, ring.one, kind, s))
        is_exchange(ring, "right")
        is_exchange(ring, "left")
        is_strongly_pi_regular(ring)
        for kind, also in ANNIHILATOR_CASES:
            _annihilator_failure(ring, kind, also)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * ring.order ** 2
