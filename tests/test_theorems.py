"""Individual theorem checks, the suite runner and the default corpus."""

import gc
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import naive
import wnc.construct as construct
import wnc.table
import wnc.theorems as theorems
from wnc.construct import build_text
from wnc.decomp import DecompKind, ring_verdict, zero_one_subset
from wnc.structure import ideal_generated_by, structure, subset
from wnc.table import ROW_BLOCK_ENTRIES, ring_table
from wnc.theorems import (
    CorpusEntry,
    check_J_subset_Nil,
    check_S_unique_maximal,
    check_annihilator_lemmas,
    check_corner_theorem,
    check_idealization,
    check_ids,
    check_nilradical_quotient,
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


def _check_against_oracles(ring, messages, pools_of=None):
    """Rigidity and corner checks give the oracles' outcomes; record failure messages."""
    rigidity = _outcome(theorems._run_rigidity, CorpusEntry(ring.label, ring.label, None, ring))
    assert rigidity == _outcome(naive.s_rigidity, ring, pools_of), ring.label
    messages.add(("rigidity", rigidity))
    for f in naive.idempotents(ring):
        corner = _outcome(check_corner_theorem, ring, f)
        assert corner == _outcome(naive.corner_theorem, ring, f, pools_of), (ring.label, f)
        messages.add(("corner", corner))
    bundle = _outcome(check_weak_jclean_suite, ring)
    if naive.annihilator_failure(ring, "weak-star-j-clean", 2, "strongly-clean") is not None:
        assert bundle[1].startswith(("(a)", "(b)")), ring.label
        return
    part_c = _outcome(naive.weak_jclean_corners, ring, pools_of)
    if part_c is None:  # the bundle goes on to parts (d) and (e)
        assert not isinstance(bundle, tuple) or not (bundle[1] or "").startswith("(c)")
    else:
        assert bundle == (part_c if isinstance(part_c, type) else (False, part_c)), ring.label
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
    bad_dimensions = ["M0(Z(2))", "T0(Z(3))", "eqdiag1(Z(2))", "skew(Z(2),id,0)"]
    too_long = "Z(" + "9" * 5000 + ")"
    cells = run_suite(["Z(abc", "Z(²)", too_long, "Z(30000)", "Z(30000) !waive",
                       "M72(Z(7)) !waive"] + bad_dimensions)
    by_outcome = {}
    for cell in cells:
        by_outcome.setdefault(cell["outcome"], []).append(cell)
    # three syntax errors, unwaived over-budget and the four bad dimensions
    assert len(by_outcome["error"]) == 8
    assert len(by_outcome["waived"]) == 2
    waived = {cell["ring"]: cell["witness"] for cell in by_outcome["waived"]}
    assert waived["M72(Z(7))"].startswith("M72(Z(7)) needs more than 10**4300 elements")
    assert all(cell["check_id"] == "build" for cell in cells)
    assert suite_failed(cells)


def test_sub_rings_are_built_under_the_suite_budget(monkeypatch):
    # the environment budget admits neither ring; the suite's own budget admits both
    monkeypatch.setenv("WNC_SIZE_BUDGET", "5")
    cells = run_suite(["prod(Z(6),Z(1))", "idealize(Z(6),self)"], budget=100)
    outcomes = {(cell["ring"], cell["check_id"]): cell["outcome"] for cell in cells}
    assert outcomes[("prod(Z(6),Z(1))", "thm-finite-product")] == "pass"
    assert outcomes[("idealize(Z(6),self)", "thm-idealization")] == "pass"
    assert set(outcomes.values()) == {"pass", "not-applicable"}


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
        if cores:  # the first member's ring is gone, its retained core is not
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
    # no ring outlives the run, with or without a collection; the calling thread
    # keeps only its most recent tables, within the cap
    assert all(ref() is None for ref in rings)
    retained = wnc.table._retained.cores
    assert cores[0]() in retained
    assert sum(core.add.size for core in retained) <= ROW_BLOCK_ENTRIES


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
