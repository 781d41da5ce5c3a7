"""Individual theorem checks, the suite runner and the default corpus."""

import dataclasses
import gc
import itertools
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import naive
import wnc.construct as construct
import wnc.theorems as theorems
from wnc.construct import build_text
from wnc.decomp import (
    DecompKind,
    _candidates,
    is_strongly_pi_regular,
    lifts_idempotents,
    lifts_idempotents_weakly,
    ring_verdict,
    zero_one_subset,
)
from wnc.errors import CrossRingError, InvalidIdempotentError
from wnc.structure import _ideal_masks, all_ideals, ideal_generated_by, structure, subset
from wnc.table import ROW_BLOCK_ENTRIES, ring_table, verify_ring_axioms
from wnc.theorems import (
    CorpusEntry,
    build_corpus,
    check_J_subset_Nil,
    check_S_unique_maximal,
    check_annihilator_lemmas,
    check_corner_theorem,
    check_idealization,
    check_ids,
    check_nilradical_quotient,
    check_pi_regular,
    check_product_theorem,
    check_quotient_preservation,
    check_strongly_nilclean_equiv,
    check_weak_jclean_suite,
    check_weakstar_exchange,
    check_zn_flags,
    default_corpus,
    parse_corpus,
    report_to_json,
    run_suite,
    suite_failed,
    traceability_matrix,
    zn_classification,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _cell(cells, ring_label, check_id):
    for cell in cells:
        if cell["ring"] == ring_label and cell["check_id"] == check_id:
            return cell
    raise AssertionError(f"no cell for ({ring_label}, {check_id})")


# --- individual checks ----------------------------------------------------------


def test_radical_inside_nilpotents(rings):
    assert check_J_subset_Nil(rings["Z(9)"]) == (True, None)
    assert check_J_subset_Nil(rings["Z(12)"]) == (True, None)


def test_quotient_preservation(rings):
    z12 = rings["Z(12)"]
    assert check_quotient_preservation(z12, subset(z12, {0, 6})) == (True, None)
    z6 = rings["Z(6)"]
    assert check_quotient_preservation(z6, subset(z6, {0})) == (True, None)
    z36 = build_text("Z(36)")
    assert check_quotient_preservation(z36, ideal_generated_by(z36, (4,))) == (True, None)


# one ring of order 256-625 from each loop-built constructor, as the benchmark
# classifies them, and the Boolean ring F_2^6 with its 64 ideals
_LARGE_RINGS = ("M2(Z(4))", "T2(Z(7))", "eqdiag3(Z(4))", "idealize(Z(25),self)",
                "skew(prod(Z(2),Z(2)),swap(1,2),4)", "idealize(T2(Z(2)),self)",
                "prod(" + ",".join(["Z(2)"] * 6) + ")")


def test_quotient_witness_matches_the_quotient_ring(corpus_entries):
    rings = [entry.ring for entry in corpus_entries] + [build_text(t) for t in _LARGE_RINGS]
    witnesses = Counter()
    for ring in rings:
        for mask in _ideal_masks(ring):
            quot = construct.quotient(ring, subset(ring, mask))[0]
            witness = theorems._quotient_witness(ring, mask)
            assert witness == ring_verdict(quot, DecompKind.WEAK_NIL_CLEAN).witness, (
                ring.label, np.flatnonzero(mask).tolist())
            witnesses[witness is None] += 1
    # both outcomes occur: some quotient of a ring that is not weak nil clean fails
    assert witnesses[True] > 0 and witnesses[False] > 0, witnesses


def test_product_theorem_cases(rings):
    ok, _ = check_product_theorem(build_text("prod(Z(4),Z(9))"),
                                  [rings["Z(4)"], rings["Z(9)"]])
    assert ok
    ok, _ = check_product_theorem(build_text("prod(Z(9),Z(9))"),
                                  [rings["Z(9)"], rings["Z(9)"]])
    assert ok  # product must fail weak nil cleanness, and it does
    assert not ring_verdict(build_text("prod(Z(9),Z(9))"),
                            DecompKind.WEAK_NIL_CLEAN).holds
    ok, _ = check_product_theorem(build_text("prod(Z(2),Z(4))"),
                                  [rings["Z(2)"], rings["Z(4)"]])
    assert ok


def test_nilradical_quotient_cases(rings):
    assert check_nilradical_quotient(rings["Z(12)"]) == (True, None)
    assert check_nilradical_quotient(rings["Z(5)"]) == (True, None)
    assert check_nilradical_quotient(rings["Z(9)"]) == (True, None)


def test_idealization_cases(rings):
    assert check_idealization(rings["Z(6)"], build_text("idealize(Z(6),self)")) == (True, None)
    assert check_idealization(rings["Z(5)"], build_text("idealize(Z(5),self)")) == (True, None)
    assert check_idealization(rings["Z(6)"], build_text("idealize(Z(6),Z(3))")) == (True, None)


def test_zn_flags_and_sweep():
    flagged = []
    for n in range(2, 55):
        ring = build_text(f"Z({n})")
        ok, witness = check_zn_flags(n, ring)
        assert ok, witness
        weak = ring_verdict(ring, DecompKind.WEAK_NIL_CLEAN).holds
        nil = ring_verdict(ring, DecompKind.NIL_CLEAN).holds
        if weak and not nil:
            flagged.append(n)
    assert flagged == [3, 6, 9, 12, 18, 24, 27, 36, 48, 54]
    for n in (5, 7, 10, 15):
        assert not ring_verdict(build_text(f"Z({n})"), DecompKind.WEAK_NIL_CLEAN).holds
    assert ring_verdict(build_text("Z(8)"), DecompKind.NIL_CLEAN).holds
    ok, mismatches = zn_classification(54)
    assert ok and mismatches == []
    with pytest.raises(ValueError):
        zn_classification(1)
    assert zn_classification(2) == (True, [])


def test_zn_flags_fail_a_two_power_that_is_not_nil_clean(monkeypatch):
    # with no kind holding, 8 passes the 2^r*3^t clause (8 is not flagged) and
    # reaches the 2-power clause; 5 passes both
    monkeypatch.setattr(theorems, "_holds", lambda ring, kind, s=None: False)
    assert check_zn_flags(8, build_text("Z(8)")) == (
        False, "n=8: a 2-power ring must be nil clean")
    assert check_zn_flags(5, build_text("Z(5)")) == (True, None)


def test_zn_classification_names_each_mismatch(monkeypatch):
    outcomes = {3: (False, None), 4: (False, "n=4: given text")}
    monkeypatch.setattr(theorems, "check_zn_flags",
                        lambda n, ring: outcomes.get(n, (True, None)))
    assert zn_classification(5) == (False, ["n=3", "n=4: given text"])


def test_annihilator_lemmas(rings):
    assert check_annihilator_lemmas(rings["Z(6)"]) == (True, None)
    assert check_annihilator_lemmas(rings["Z(9)"]) == (True, None)
    assert check_annihilator_lemmas(rings["M2(Z(2))"]) == (True, None)


def test_corner_theorem(rings):
    m2z2 = rings["M2(Z(2))"]
    assert check_corner_theorem(m2z2, m2z2.one) == (True, None)
    assert check_corner_theorem(m2z2, 8) == (True, None)
    m2z3 = rings["M2(Z(3))"]
    for f in structure(m2z3).idempotents:
        assert check_corner_theorem(m2z3, f) == (True, None)


def test_unique_maximal_ideal(rings):
    assert check_S_unique_maximal(rings["Z(9)"]) == (True, None)
    assert check_S_unique_maximal(rings["Z(4)"]) == (True, None)
    # Z(6) is not {0,1}-weak nil clean, so the check should not be applied to it.
    z6 = rings["Z(6)"]
    assert not ring_verdict(z6, DecompKind.S_WEAK_NIL_CLEAN, zero_one_subset(z6)).holds
    assert check_S_unique_maximal(z6) == (False, "some element is neither a unit nor nilpotent")
    assert check_S_unique_maximal(rings["Z(5)"]) == (
        False, "units differ from (1 + Nil) union (-1 + Nil)")


def test_mask_checks_match_set_algebra_oracles(rings, corpus_entries):
    corrupted = [bad for label in ("Z(4)", "Z(6)", "T2(Z(2))")
                 for bad in naive.corruptions(rings[label])]
    for entry in corpus_entries:
        if entry.ring is not None:
            assert check_S_unique_maximal(entry.ring) == naive.S_unique_maximal(entry.ring)
            assert check_J_subset_Nil(entry.ring) == naive.J_subset_Nil(entry.ring)
    unique, j_in_nil = Counter(), Counter()
    for bad in corrupted:
        outcome = check_S_unique_maximal(bad)
        assert outcome == naive.S_unique_maximal(bad), bad.label
        unique[outcome[1]] += 1
        outcome = check_J_subset_Nil(bad)
        assert outcome == naive.J_subset_Nil(bad), bad.label
        j_in_nil[outcome[0]] += 1
    # the corrupted tables reach four of the five failure messages
    assert unique == {
        "some element is neither a unit nor nilpotent": 1262,
        "nilpotents do not form a two-sided ideal": 29,
        "units differ from (1 + Nil) union (-1 + Nil)": 13,
        "found 2 maximal ideals": 1,
        None: 47,
    }
    assert j_in_nil == {True: 1338, False: 14}


def test_s_rigidity(rings):
    z6 = rings["Z(6)"]
    assert ring_verdict(z6, DecompKind.S_WEAK_STAR_NIL_CLEAN, (0, 1, 3, 4)).holds
    assert not ring_verdict(z6, DecompKind.S_WEAK_STAR_NIL_CLEAN, (0, 1)).holds
    z2 = rings["Z(2)"]
    assert ring_verdict(z2, DecompKind.S_WEAK_STAR_NIL_CLEAN, (0, 1)).holds
    # a Subset is accepted wherever a tuple of ids is
    assert not ring_verdict(z6, DecompKind.S_WEAK_STAR_NIL_CLEAN, zero_one_subset(z6)).holds
    assert ring_verdict(z2, DecompKind.S_WEAK_STAR_NIL_CLEAN, zero_one_subset(z2)).holds
    for ring in (z6, z2):
        entry = CorpusEntry(ring.label, ring.label, None, ring)
        assert theorems._run_rigidity(entry) == (True, None)


def test_rigidity_checks_maximal_proper_subsets():
    assert list(naive.rigidity_subsets((0, 1, 3, 4))) == [
        (1, 3, 4), (0, 3, 4), (0, 1, 4), (0, 1, 3), (0, 1, 3, 4),
    ]
    assert list(naive.rigidity_subsets((0,))) == [(0,)]


def _outcome(check, *args):
    """What check(*args) returns, or the class of the error it raises."""
    try:
        return check(*args)
    except Exception as exc:
        return type(exc)


def _library_pools(ring):
    cache = structure(ring)
    return {"nil": cache.nilpotents, "unit": cache.units, "radical": cache.radical}


def _per_idempotent_corners(ring):
    return theorems._first_failure(check_corner_theorem(ring, f)
                                   for f in structure(ring).idempotents)


def _check_against_oracles(ring, messages, pools_of=None):
    """Rigidity and corner checks give the oracles' outcomes; record failure messages.

    No corner of a non-ring table is built, so the corner checks and part (c) of the
    bundle meet their oracles on proved rings only; on other tables their messages
    are recorded.
    """
    rigidity = _outcome(theorems._run_rigidity, CorpusEntry(ring.label, ring.label, None, ring))
    assert rigidity == _outcome(naive.s_rigidity, ring, pools_of), ring.label
    messages.add(("rigidity", rigidity))
    proved = verify_ring_axioms(ring).passed
    for f in naive.idempotents(ring):
        corner = _outcome(check_corner_theorem, ring, f)
        if proved:
            assert corner == _outcome(naive.corner_theorem, ring, f), (ring.label, f)
        messages.add(("corner", corner))
    if proved:
        # the one pass over every idempotent stops where the checks one f at a time do
        entry = CorpusEntry(ring.label, ring.label, None, ring)
        assert theorems._run_corner(entry) == _per_idempotent_corners(ring), ring.label
    bundle = _outcome(check_weak_jclean_suite, ring)
    found = naive.annihilator_failure(ring, "weak-star-j-clean", 2, "strongly-clean")
    if found is not None:  # part (a) when x is not strongly clean, else part (b)
        x, e, law = found
        expected = (f"(a) x={x} is weak* J-clean but not strongly clean" if law < 0
                    else f"(b) x={x}, e={e}: {theorems._ANNIHILATOR_LAWS[law]}")
        assert bundle == (False, expected), ring.label
        return
    if not proved:
        if isinstance(bundle, tuple) and (bundle[1] or "").startswith("(c)"):
            messages.add(("corner", bundle))
        return
    part_c = naive.weak_jclean_corners(ring)
    if part_c is None:  # the bundle goes on to parts (d) and (e)
        assert not isinstance(bundle, tuple) or not (bundle[1] or "").startswith("(c)")
    else:
        assert bundle == (False, part_c), ring.label
        messages.add(("corner", bundle))


def test_rigidity_and_corner_checks_match_loop_oracles(corpus_entries):
    messages = set()
    for entry in corpus_entries:
        _check_against_oracles(entry.ring, messages)
    fresh = [(build_text(text), None)
             for text in ("Z(1)", "M2(Z(4))", "T2(Z(4))", "eqdiag3(Z(4))")]
    # on tables that are not rings, structure() decides nilpotency by its ring-only
    # bound on the index, so there the oracles take the companion pools from it
    for base in ("Z(4)", "Z(6)", "T2(Z(2))"):
        fresh += [(bad, _library_pools) for bad in naive.corruptions(build_text(base), ("mul",))]
    for ring, pools_of in fresh:
        # equal rings share one memo entry (the zero ring is every 0R0), which
        # other tests may have filled: only the keys these checks add count
        before = set(ring.core.results)
        _check_against_oracles(ring, messages, pools_of)
        # the rigidity check reads the weak* nil table and decides no S-table
        added = set(ring.core.results) - before
        assert all(DecompKind.S_WEAK_STAR_NIL_CLEAN not in key for key in added), ring.label
    failures = {(check, out[1]) for check, out in messages
                if isinstance(out, tuple) and not out[0]}
    assert any(check == "rigidity" for check, _ in failures)
    # witnesses print Python ints and bools, never numpy scalars
    assert not any("np." in witness for _, witness in failures)
    shapes = {re.sub(r"\d+|True|False", "#", witness.split(": ", 1)[-1])
              for check, witness in failures if check == "corner"}
    assert len(shapes) >= 3, shapes


def test_corner_pass_does_not_depend_on_the_row_blocks(monkeypatch, corpus_entries):
    tables = [entry.ring for entry in corpus_entries]
    tables += [build_text(text) for text in ("prod(Z(2),Z(2),Z(2))", "M2(Z(4))")]
    tables += [*naive.corruptions(build_text("Z(4)")), *naive.corruptions(build_text("T2(Z(2))"))]
    outcomes = Counter()
    for ring in tables:
        # each f alone is one row, whatever the blocks
        expected = _outcome(_per_idempotent_corners, ring)
        entry = CorpusEntry(ring.label, ring.label, None, ring)
        count = len(structure(ring).idempotents)
        for rows in (1, 3, count):  # one row a block, a few rows, every row
            monkeypatch.setattr(theorems, "ROW_BLOCK_ENTRIES", rows * ring.order)
            assert _outcome(theorems._run_corner, entry) == expected, (rows, ring.label)
        monkeypatch.undo()
        if expected[0]:
            outcomes["pass"] += 1
        else:
            f = int(re.match(r"f=(\d+)", expected[1]).group(1))
            outcomes["first f" if f == structure(ring).idempotents[0] else "later f"] += 1
    # corruptions fail at the first idempotent and at a later one
    assert set(outcomes) == {"pass", "first f", "later f"}, outcomes


def test_corner_grids_cut_the_built_corners(corpus_entries):
    """fRf's idempotents, nilpotents and radical are R's in fRf, and so is each kind's
    decomposability: the grids equal what construct.corner's ring gives."""
    rings = [entry.ring for entry in corpus_entries]
    rings += [build_text(text) for text in ("M2(Z(4))", "T2(Z(4))", "prod(Z(2),Z(2),Z(2))")]
    corners = 0
    for ring in rings:
        cache = structure(ring)
        for kind in (DecompKind.WEAK_STAR_NIL_CLEAN, DecompKind.WEAK_STAR_J_CLEAN):
            for f_col, in_corner, inner in theorems._corner_grids(ring, kind, cache.idempotents):
                for f, members, decomposes in zip(f_col[:, 0].tolist(), in_corner, inner):
                    sub, embed = construct.corner(ring, f)
                    embed = list(embed)
                    assert np.flatnonzero(members).tolist() == embed, (ring.label, f)
                    found = _candidates(sub, kind, None).found
                    assert (decomposes[embed] == found).all(), (ring.label, kind, f)
                    assert (cache.nil_mask[embed] == structure(sub).nil_mask).all()
                    assert (cache.radical_mask[embed] == structure(sub).radical_mask).all()
                    corners += 1
    assert corners == 2 * sum(len(structure(ring).idempotents) for ring in rings)


def test_corrupted_tables_reach_every_corner_message():
    """The corner laws and the bundle's parts, by how many one-entry mul corruptions of
    T2(Z(2)) fail first at each; no corner of these tables is built."""
    corner, bundle = Counter(), Counter()
    for bad in naive.corruptions(build_text("T2(Z(2))"), ("mul",)):
        ok, witness = theorems._corner_pass(bad, structure(bad).idempotents)
        corner[None if ok else re.sub(r"\d+|True|False", "#", witness)] += 1
        ok, witness = check_weak_jclean_suite(bad)
        bundle[None if ok else witness[:3]] += 1
    assert corner == {
        "f=#, x=#: decomposable in R is #, in fRf is #": 4,
        "f=#, x=#: fnf=# is not nilpotent in the corner": 19,
        "f=#, x=#: conjugated parts do not commute": 2,
        "f=#, x=#: conjugated certificate does not recompose": 1,
        None: 422,
    }
    assert bundle == {"(a)": 116, "(b)": 63, "(c)": 4, None: 265}


def test_corner_pass_reads_the_certificate_columns(monkeypatch, rings):
    """A first certificate whose idempotent is not one (2 in Z(4)) fails the
    idempotency law, which none of the corruptions above reaches first."""
    ring = rings["Z(4)"]
    kind = DecompKind.WEAK_STAR_NIL_CLEAN
    verdict = _candidates(ring, kind, None)
    patched = dataclasses.replace(verdict)
    vars(patched)["idempotents"] = np.full_like(verdict.idempotents, 2)  # cached column
    monkeypatch.setattr(theorems, "_candidates", lambda r, k, s: (
        patched if r is ring and k is kind else _candidates(r, k, s)))
    assert check_corner_theorem(ring, 1) == (
        False, "f=1, x=0: fef=2 is not idempotent in the corner")
    assert theorems._run_corner(CorpusEntry(ring.label, ring.label, None, ring)) == (
        False, "f=1, x=0: fef=2 is not idempotent in the corner")


def test_corner_check_refuses_what_corner_refuses(rings):
    ring = rings["Z(6)"]
    for f, error in ((6, CrossRingError), (-1, CrossRingError), (2, InvalidIdempotentError)):
        with pytest.raises(error) as built:
            construct.corner(ring, f)
        with pytest.raises(error) as checked:
            check_corner_theorem(ring, f)
        assert str(checked.value) == str(built.value), f


def test_weakstar_exchange(rings):
    assert check_weakstar_exchange(rings["Z(6)"]) == (True, None)
    assert check_weakstar_exchange(rings["Z(12)"]) == (True, None)
    assert check_weakstar_exchange(rings["M2(Z(2))"]) == (True, None)


def test_strongly_nil_clean_equivalence(rings):
    assert check_strongly_nilclean_equiv(rings["Z(4)"]) == (True, None)
    assert ring_verdict(rings["Z(4)"], DecompKind.STRONGLY_NIL_CLEAN).holds
    assert check_strongly_nilclean_equiv(rings["Z(9)"]) == (True, None)
    assert not ring_verdict(rings["Z(9)"], DecompKind.STRONGLY_NIL_CLEAN).holds
    assert check_strongly_nilclean_equiv(rings["Z(2)"]) == (True, None)


def test_weak_jclean_bundle(rings):
    assert check_weak_jclean_suite(rings["Z(4)"]) == (True, None)
    assert check_weak_jclean_suite(rings["Z(8)"]) == (True, None)
    assert check_weak_jclean_suite(rings["Z(6)"]) == (True, None)
    assert ring_verdict(rings["Z(4)"], DecompKind.WEAK_J_CLEAN).holds
    assert ring_verdict(rings["Z(8)"], DecompKind.J_CLEAN).holds


def test_pi_regularity_fails_on_corrupted_tables():
    # no finite ring reaches the failure path of the pi-regularity check; four
    # one-entry corruptions of T2(Z(2)) do, each with a power chain that never stabilizes
    tables, failing = 0, []
    for label in ("Z(4)", "Z(6)", "T2(Z(2))"):
        for bad in naive.corruptions(build_text(label)):
            holds = is_strongly_pi_regular(bad)
            assert holds == naive.is_strongly_pi_regular(bad), bad.label
            if not holds:
                failing.append(bad)
            tables += 1
    assert tables == 1352
    assert [bad.label for bad in failing] == ["T2(Z(2))-mul[5,7]=4", "T2(Z(2))-mul[5,7]=6",
                                              "T2(Z(2))-mul[7,7]=4", "T2(Z(2))-mul[7,7]=6"]
    for bad in failing:
        assert check_pi_regular(bad) == (False, "some power chain never stabilizes"), bad.label


# --- corpus and suite -----------------------------------------------------------


def test_default_corpus_contents():
    corpus = default_corpus()
    assert len(corpus) == 72
    assert corpus.count("prod(Z(9),Z(9))") == 1
    corners = [line for line in corpus if line.startswith("corner(")]
    assert len(corners) == 8 + 14  # all idempotents of M2(Z2) and M2(Z3)
    assert "skew(prod(Z(3),Z(3)),swap(1,2),2)" in corpus


def test_default_corpus_corners_are_every_idempotent():
    corners = {}
    for line in default_corpus():
        if line.startswith("corner("):
            base, e = line[len("corner("):-1].rsplit(",", 1)
            corners.setdefault(base, []).append(int(e))
    assert corners == {
        base: naive.idempotents(build_text(base)) for base in ("M2(Z(2))", "M2(Z(3))")
    }


def test_corpus_file_parsing():
    text = """
    # a comment line
    Z(6)   # trailing comment
    Z(30000) !waive

    M2(Z(2))
    """
    lines = parse_corpus(text)
    assert [(l.text, l.waive_over_budget) for l in lines] == [
        ("Z(6)", False),
        ("Z(30000)", True),
        ("M2(Z(2))", False),
    ]


def test_corpus_lines_strip_ascii_whitespace_only():
    lines = parse_corpus("\t Z(6) \x0b\n\u2003Z(6)\nZ(6\u3000) !waive\n")
    assert [line.text for line in lines] == ["Z(6)", "\u2003Z(6)", "Z(6\u3000)"]
    cells = run_suite(lines)
    assert [cell["outcome"] for cell in cells if cell["check_id"] == "build"] == ["error"] * 2


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_corpus_lines_end_only_where_open_ends_them(sep):
    lines = parse_corpus(f"Z(2)\r\nZ(3)\rZ(6){sep}Z(4)\nZ(5)")
    assert [line.text for line in lines] == ["Z(2)", "Z(3)", f"Z(6){sep}Z(4)", "Z(5)"]
    cells = run_suite(lines[2:3])
    assert [(c["check_id"], c["outcome"]) for c in cells] == [("build", "error")]


def test_suite_outcomes_for_key_cells(suite_cells):
    assert _cell(suite_cells, "T2(Z(3))", "prop-J-subset-Nil")["outcome"] == "not-applicable"
    assert _cell(suite_cells, "Z(9)", "prop-J-subset-Nil")["outcome"] == "pass"
    assert _cell(suite_cells, "Z(9)", "prop-01-unique-maximal")["outcome"] == "pass"
    assert _cell(suite_cells, "Z(6)", "prop-01-unique-maximal")["outcome"] == "not-applicable"
    assert _cell(suite_cells, "prod(Z(9),Z(9))", "thm-finite-product")["outcome"] == "pass"
    assert _cell(suite_cells, "prod(Z(4),Z(9))", "thm-idealization")["outcome"] == "not-applicable"
    assert _cell(suite_cells, "idealize(Z(5),self)", "thm-idealization")["outcome"] == "pass"
    assert _cell(suite_cells, "M2(Z(3))", "thm-weakstar-corner")["outcome"] == "pass"
    assert _cell(suite_cells, "M2(Z(3))", "prop-nilradical-quotient")["outcome"] == "not-applicable"
    assert _cell(suite_cells, "Z(5)", "thm-weakstar-exchange")["outcome"] == "not-applicable"
    assert _cell(suite_cells, "Z(4)", "cor-strongly-pi-regular")["outcome"] == "pass"
    assert _cell(suite_cells, "skew(prod(Z(3),Z(3)),swap(1,2),2)",
                 "thm-quotient-image")["outcome"] == "not-applicable"
    assert _cell(suite_cells, "skew(Z(6),id,2)", "thm-quotient-image")["outcome"] == "pass"


def test_suite_is_deterministic(corpus_entries, suite_cells):
    again = run_suite(corpus_entries)
    assert report_to_json(again) == report_to_json(suite_cells)


def test_empty_corpus():
    cells = run_suite([])
    assert cells == [] and not suite_failed(cells)


def test_build_failures_become_error_cells():
    # a bad dimension is not a capacity error, so !waive does not waive it
    bad_dimensions = ["M0(Z(2))", "T0(Z(3))", "eqdiag1(Z(2))", "skew(Z(2),id,0)",
                      "M0(Z(2)) !waive"]
    too_long = "Z(" + "9" * 5000 + ")"
    cells = run_suite(["Z(abc", "Z(²)", too_long, "Z(30000)", "Z(30000) !waive",
                       "M72(Z(7)) !waive"] + bad_dimensions)
    by_outcome = {}
    for cell in cells:
        by_outcome.setdefault(cell["outcome"], []).append(cell)
    # three syntax errors, unwaived over-budget and the five bad dimensions
    assert len(by_outcome["error"]) == 9
    assert len(by_outcome["waived"]) == 2
    waived = {cell["ring"]: cell["witness"] for cell in by_outcome["waived"]}
    assert waived["M72(Z(7))"].startswith("M72(Z(7)) needs more than 10**4300 elements")
    assert all(cell["check_id"] == "build" for cell in cells)
    assert suite_failed(cells)


def test_bad_budget_variable_raises_from_the_runner(monkeypatch):
    # a plain-argument error, not a ring error: no line gets a cell for it
    monkeypatch.setenv("WNC_SIZE_BUDGET", "abc")
    with pytest.raises(ValueError) as err:
        run_suite(["Z(4)"])
    assert str(err.value) == "WNC_SIZE_BUDGET must be a positive integer, got 'abc'"


def test_sub_rings_are_built_under_the_suite_budget(monkeypatch):
    # the environment budget admits neither ring; the suite's own budget admits both
    monkeypatch.setenv("WNC_SIZE_BUDGET", "5")
    cells = run_suite(["prod(Z(6),Z(1))", "idealize(Z(6),self)"], budget=100)
    outcomes = {(cell["ring"], cell["check_id"]): cell["outcome"] for cell in cells}
    assert outcomes[("prod(Z(6),Z(1))", "thm-finite-product")] == "pass"
    assert outcomes[("idealize(Z(6),self)", "thm-idealization")] == "pass"
    assert set(outcomes.values()) == {"pass", "not-applicable"}


def test_table_with_an_inexact_lattice_is_one_build_error():
    # the ideal lattice is exact on ring tables only: here it differs from the
    # subsets that subset() flags as two-sided ideals
    z4 = build_text("Z(4)")
    add = np.array(z4.add)
    add[0, 0] = 1
    broken = ring_table(4, add, z4.mul, z4.neg, 0, 1, "Z(4)-add[0,0]=1")
    flagged = [members for k in range(5) for members in itertools.combinations(range(4), k)
               if subset(broken, members).is_two_sided_ideal]
    assert sorted(map(sorted, all_ideals(broken))) != sorted(map(list, flagged))
    cells = run_suite([CorpusEntry(broken.label, broken.label, None, broken)])
    assert [(cell["check_id"], cell["outcome"]) for cell in cells] == [("build", "error")]
    assert cells[0]["witness"].startswith("axiom ")


def test_corrupted_table_surfaces_as_build_error(rings):
    z6 = rings["Z(6)"]
    mul = np.array(z6.mul)
    mul[2, 3] = 1
    broken = ring_table(6, z6.add, mul, z6.neg, 0, 1, "Z(6)-broken")
    entry = CorpusEntry("Z(6)-broken", "Z(6)-broken", None, broken)
    cells = run_suite([entry])
    assert len(cells) == 1
    assert cells[0]["check_id"] == "build" and cells[0]["outcome"] == "error"
    assert "axiom" in cells[0]["witness"]


def test_unknown_check_id_rejected():
    def unread_corpus():
        raise AssertionError("the corpus was read before the check ids were validated")
        yield "Z(4)"

    for corpus in (["Z(4)"], unread_corpus()):
        with pytest.raises(ValueError):
            run_suite(corpus, checks=["no-such-check"])


def test_repeated_check_id_rejected():
    checks = ["thm-zn-classification", "prop-J-subset-Nil", "thm-zn-classification",
              "prop-J-subset-Nil", "thm-zn-classification"]
    with pytest.raises(ValueError) as err:
        run_suite(["Z(4)"], checks=checks)
    assert str(err.value) == "check ids given twice: ['thm-zn-classification', 'prop-J-subset-Nil']"


def test_suite_holds_one_corpus_ring_at_a_time(monkeypatch):
    built = []

    def build_entry(line, budget):
        gc.collect()
        assert all(ref() is None for ref in built), "an earlier corpus ring is still alive"
        entry = build_one(line, budget)
        built.append(weakref.ref(entry.ring))
        return entry

    build_one = theorems._build_entry
    monkeypatch.setattr(theorems, "_build_entry", build_entry)
    cells = run_suite(["M2(Z(2))", "prod(Z(2),Z(3))", "idealize(Z(6),self)", "T2(Z(3))"])
    assert len(built) == 4 and not suite_failed(cells)


def test_suite_shares_tables_across_members_and_keeps_none(monkeypatch):
    rings, cores, shared = [], [], []

    def build_entry(line, budget):
        entry = build_one(line, budget)
        if cores:  # the first member's ring is gone, its kept core is not
            shared.append(rings[0]() is None and entry.ring.core is cores[0]())
        rings.append(weakref.ref(entry.ring))
        cores.append(weakref.ref(entry.ring.core))
        return entry

    build_one = theorems._build_entry
    monkeypatch.setattr(theorems, "_build_entry", build_entry)
    # dividing out the Z(2) factor leaves the tables of eqdiag2(Z(7)), ids in order;
    # no corpus ring has them (idealize(Z(5),self) has those of eqdiag2(Z(5)))
    cells = run_suite(["eqdiag2(Z(7))", "quot(prod(eqdiag2(Z(7)),Z(2)),[1])"])
    assert shared == [True] and not suite_failed(cells)
    # no ring and no core outlives the run, with or without a collection
    assert all(ref() is None for ref in rings + cores)


def test_suite_keeps_recent_cores_within_the_cap(monkeypatch):
    cores, alive = [], []

    def build_entry(line, budget):
        gc.collect()
        alive.append([ref() is not None for ref in cores])  # the cores kept so far
        entry = build_one(line, budget)
        cores.append(weakref.ref(entry.ring.core))
        return entry

    build_one = theorems._build_entry
    monkeypatch.setattr(theorems, "_build_entry", build_entry)
    # tables no fixture holds, so only the run can keep them alive
    lines = ["Z(180)", "Z(257)", "Z(200)", "Z(150)", "Z(100)", "Z(150)", "Z(190)", "Z(41)"]
    cells = run_suite(lines, ["prop-J-subset-Nil"])
    assert not suite_failed(cells)
    assert ROW_BLOCK_ENTRIES == 1 << 16
    assert alive == [
        [],
        [True],  # the ring is dropped at once, its core is kept
        [True, False],  # 257**2 entries exceed the cap
        [False, False, True],  # 180**2 + 200**2 entries: the older core goes
        [False, False, True, True],
        # Z(100) displaces Z(200); Z(150) is built on its kept core again
        [False, False, False, True, True],
        [False, False, False, True, True, True],
        # least recent first out: Z(190) (36 100 entries) displaces Z(100), not Z(150)
        [False, False, False, True, False, True, True],
    ]
    assert cores[5]() is cores[3]()
    gc.collect()
    assert all(ref() is None for ref in cores)  # none outlives the run


def test_runner_builds_each_line_once(monkeypatch):
    counts = []

    def build_entry(line, budget):
        counts.append(0)
        return build_one(line, budget)

    def counting_build(expr, budget=None):
        counts[-1] += 1
        return build_all(expr, budget)

    build_one, build_all = theorems._build_entry, construct.build
    monkeypatch.setattr(theorems, "_build_entry", build_entry)
    monkeypatch.setattr(construct, "build", counting_build)
    monkeypatch.setattr(theorems, "build", counting_build)
    cells = run_suite(["prod(Z(4),Z(9))", "idealize(Z(6),Z(3))",
                       "skew(prod(Z(3),Z(3)),swap(1,2),2)"])
    # one call per sub-expression: the checks read the factors and the base
    # from the ring's components, and the swap reads the product's
    assert counts == [3, 2, 4] and not suite_failed(cells)


def test_quotient_image_hands_on_found_ideals(monkeypatch):
    def no_subset(ring, members):
        raise AssertionError("an ideal found by all_ideals was tested again")

    monkeypatch.setattr(theorems, "subset", no_subset)
    cells = run_suite(["Z(12)", "Z(36)", "prod(Z(4),Z(9))", "idealize(Z(6),self)"],
                      checks=["thm-quotient-image"])
    assert [cell["outcome"] for cell in cells] == ["pass"] * 4


def test_corner_and_quotient_lines_free_their_base(monkeypatch):
    bases = []

    def keep_ref(fn):
        def wrapper(ring, *args):
            bases.append(weakref.ref(ring))
            return fn(ring, *args)
        return wrapper

    monkeypatch.setattr(construct, "corner", keep_ref(construct.corner))
    monkeypatch.setattr(construct, "quotient", keep_ref(construct.quotient))
    for text in ("corner(M2(Z(3)),19)", "quot(Z(36),[6])"):
        ring = build_text(text)
        gc.collect()
        assert bases[-1]() is None, f"{text} keeps its base alive"
        assert ring.components == ()


def _forget_results(rings):
    """Empty the memo on the cores of rings and their components, so that each
    result is computed again rather than read from a memo an earlier test filled."""
    for ring in rings:
        ring.core.results.clear()
        _forget_results(ring.components)


def test_no_decider_builds_a_sub_ring(monkeypatch):
    # lifting reads R/I off the coset labels and the suite reads corners and
    # quotients off R's tables, so with every restriction of a table to a
    # sub-ring refused, both give what they give without the refusal
    entries = build_corpus(default_corpus())
    small = [entry.ring for entry in entries if entry.ring.order <= 64]

    def outcomes():
        _forget_results([entry.ring for entry in entries])
        ideals = [(ring, subset(ring, members)) for ring in small for members in all_ideals(ring)]
        lifts = [lift(ring, ideal) for ring, ideal in ideals
                 for lift in (lifts_idempotents, lifts_idempotents_weakly)]
        return len(ideals), lifts, run_suite(entries)

    def refuse(*args):
        raise AssertionError("a sub-ring was built")

    with monkeypatch.context() as patch:
        patch.setattr(construct, "_restrict", refuse)
        refused = outcomes()
    found = outcomes()
    assert found[0] == 251 and len(found[2]) == 1008
    assert refused == found


def test_check_selection():
    cells = run_suite(["Z(4)"], checks=["prop-J-subset-Nil", "thm-zn-classification"])
    assert [c["check_id"] for c in cells] == ["prop-J-subset-Nil", "thm-zn-classification"]
    assert all(c["outcome"] == "pass" for c in cells)


def test_every_check_passes_somewhere(suite_cells):
    passing = {c["check_id"] for c in suite_cells if c["outcome"] == "pass"}
    assert passing == set(check_ids())


def test_traceability_matrix_matches_docs():
    generated = traceability_matrix()
    for check_id in check_ids():
        assert check_id in generated
    committed = (REPO_ROOT / "docs" / "traceability.md").read_text(encoding="utf-8")
    assert committed == generated


def test_statements_are_unique():
    from wnc.theorems import REGISTRY

    seen = []
    for check in REGISTRY:
        seen.extend(check.statements)
    assert len(seen) == len(set(seen))
