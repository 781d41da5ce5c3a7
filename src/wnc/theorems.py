"""Executable checks for the structural results about weak nil clean rings.

Each check runs against one built ring and returns pass, fail (with a minimal
witness) or not-applicable.  run_suite evaluates a corpus of ring expressions
against the registry and produces a deterministic report.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .construct import (
    Idealize,
    Prod,
    RingExpr,
    Zn,
    build,
    corner,
    expr_label,
    parse_ring_expr,
    quotient,
)
from .decomp import (
    DecompKind,
    _annihilator_failure,
    _candidates,
    _rigidity_failure,
    is_exchange,
    is_strongly_pi_regular,
    lifts_idempotents,
    lifts_idempotents_weakly,
    ring_verdict,
)
from .errors import CapacityError, RingError
from .structure import _known_ideal, all_ideals, maximal_ideals, structure, subset
from .table import RingTable, verify_ring_axioms


def _holds(ring: RingTable, kind: DecompKind, s=None) -> bool:
    return ring_verdict(ring, kind, s).holds


def _first_failure(outcomes: Iterable[tuple[bool, Optional[str]]]) -> tuple[bool, Optional[str]]:
    return next((outcome for outcome in outcomes if not outcome[0]), (True, None))


def _weak_nil_clean(ring: RingTable) -> bool:
    return _holds(ring, DecompKind.WEAK_NIL_CLEAN)


def _is_2r3t(n: int) -> bool:
    """n = 2**r * 3**t with t >= 1."""
    if n < 3 or n % 3 != 0:
        return False
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    return n == 1


def _is_prime_power(n: int, p: int) -> bool:
    if n < p:
        return False
    while n % p == 0:
        n //= p
    return n == 1


# --- single-ring check operations ---------------------------------------------


def check_J_subset_Nil(ring: RingTable) -> tuple[bool, Optional[str]]:
    """J(R) is contained in Nil(R)."""
    cache = structure(ring)
    stray = np.flatnonzero(cache.radical_mask & ~cache.nil_mask)
    if stray.size:
        return False, f"radical element {stray[0]} is not nilpotent"
    return True, None


def check_quotient_preservation(ring: RingTable, ideal) -> tuple[bool, Optional[str]]:
    """R/I stays weak nil clean."""
    quot, _ = quotient(ring, ideal)
    verdict = ring_verdict(quot, DecompKind.WEAK_NIL_CLEAN)
    if not verdict.holds:
        return False, (
            f"quotient by {list(ideal.sorted_members())} fails at element {verdict.witness}"
        )
    return True, None


def check_product_theorem(product_ring: RingTable,
                          factors: Sequence[RingTable]) -> tuple[bool, Optional[str]]:
    """Product is weak nil clean iff all factors are and at most one is not nil clean."""
    lhs = _weak_nil_clean(product_ring)
    all_weak = all(_weak_nil_clean(f) for f in factors)
    bad = sum(1 for f in factors if not _holds(f, DecompKind.NIL_CLEAN))
    rhs = all_weak and bad <= 1
    if lhs != rhs:
        return False, (
            f"product verdict {lhs} but factors weak={all_weak}, non-nil-clean count={bad}"
        )
    return True, None


def check_nilradical_quotient(ring: RingTable) -> tuple[bool, Optional[str]]:
    """R weak nil clean iff R/Nil(R) is, given classical idempotent lifting."""
    nil = subset(ring, structure(ring).nil_mask)
    if not nil.is_two_sided_ideal:
        return False, "nilpotent set is not an ideal"
    quot, _ = quotient(ring, nil)
    r_weak = _weak_nil_clean(ring)
    q_weak = _weak_nil_clean(quot)
    if r_weak and not q_weak:
        return False, "ring is weak nil clean but its nil-radical quotient is not"
    lifting = lifts_idempotents(ring, nil).holds
    if q_weak and lifting and not r_weak:
        return False, "quotient weak nil clean with lifting, yet ring fails"
    return True, None


def check_idealization(base: RingTable, extended: RingTable) -> tuple[bool, Optional[str]]:
    """R weak nil clean iff the idealization R(M) is."""
    lhs = _weak_nil_clean(base)
    rhs = _weak_nil_clean(extended)
    if lhs != rhs:
        return False, f"base verdict {lhs} but idealization verdict {rhs}"
    return True, None


def check_zn_flags(n: int, ring: RingTable) -> tuple[bool, Optional[str]]:
    """Z_n classification facts for a single n."""
    weak = _weak_nil_clean(ring)
    nil = _holds(ring, DecompKind.NIL_CLEAN)
    if (weak and not nil) != _is_2r3t(n):
        return False, f"n={n}: weak={weak}, nil={nil} contradicts the 2^r*3^t classification"
    if _is_prime_power(n, 2) and not nil:
        return False, f"n={n}: a 2-power ring must be nil clean"
    if _is_prime_power(n, 3) and not (weak and not nil):
        return False, f"n={n}: a 3-power ring must be weak nil clean and not nil clean"
    return True, None


def zn_classification(n_max: int, budget: Optional[int] = None) -> tuple[bool, list[str]]:
    """Sweep Z_n for 2 <= n <= n_max against the 2^r*3^t classification."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    mismatches: list[str] = []
    for n in range(2, n_max + 1):
        ring = build(Zn(n), budget)
        ok, witness = check_zn_flags(n, ring)
        if not ok:
            mismatches.append(witness or f"n={n}")
    return not mismatches, mismatches


_ANNIHILATOR_LAWS = ("left annihilator escapes ann_l(e)", "right annihilator escapes ann_r(e)",
                     "ann_l(x) escapes R(1-e)", "ann_r(x) escapes (1-e)R")


def check_annihilator_lemmas(ring: RingTable) -> tuple[bool, Optional[str]]:
    """Annihilator containments for every commuting nil decomposition."""
    found = _annihilator_failure(ring, DecompKind.WEAK_STAR_NIL_CLEAN, 4)
    if found is not None:
        x, e, law = found
        return False, f"x={x}, e={e}: {_ANNIHILATOR_LAWS[law]}"
    return True, None


def check_corner_theorem(ring: RingTable, f: int) -> tuple[bool, Optional[str]]:
    """Commuting nil decomposability in R and in fRf agree on fRf.

    When an element decomposes in R, the conjugated certificate (fnf, fef)
    must re-validate inside the corner ring.
    """
    corner_ring, embed = corner(ring, f)
    to_corner = {x: i for i, x in enumerate(embed)}
    table = _candidates(ring, DecompKind.WEAK_STAR_NIL_CLEAN, None)
    parent, in_parent = table.verdict, table.found[list(embed)].tolist()
    in_corner = _candidates(corner_ring, DecompKind.WEAK_STAR_NIL_CLEAN, None).found.tolist()
    corner_cache = structure(corner_ring)
    for ci, (x, known, inner) in enumerate(zip(embed, in_parent, in_corner)):
        if known != inner:
            return False, f"f={f}, x={x}: decomposable in R is {known}, in fRf is {inner}"
        if not known:
            continue
        r = int(parent.targets.searchsorted(x))
        fnf = int(ring.mul[f, ring.mul[parent.companions[r], f]])
        fef = int(ring.mul[f, ring.mul[parent.idempotents[r], f]])
        cn, ce = to_corner[fnf], to_corner[fef]
        if not corner_cache.nil_mask[cn]:
            return False, f"f={f}, x={x}: fnf={fnf} is not nilpotent in the corner"
        if int(corner_ring.mul[ce, ce]) != ce:
            return False, f"f={f}, x={x}: fef={fef} is not idempotent in the corner"
        if int(corner_ring.mul[cn, ce]) != int(corner_ring.mul[ce, cn]):
            return False, f"f={f}, x={x}: conjugated parts do not commute"
        back = ce if parent.signs[r] == "+" else corner_ring.neg[ce]
        if int(corner_ring.add[cn, back]) != ci:
            return False, f"f={f}, x={x}: conjugated certificate does not recompose"
    return True, None


def check_S_unique_maximal(ring: RingTable) -> tuple[bool, Optional[str]]:
    """{0,1}-weak nil clean rings have one maximal ideal, via the proof facts."""
    cache = structure(ring)
    units, nil = cache.unit_mask, cache.nil_mask
    if not (units | nil).all():
        return False, "some element is neither a unit nor nilpotent"
    shifted = np.zeros_like(units)
    shifted[ring.add[[ring.one, ring.neg[ring.one]]][:, nil]] = True
    if (shifted != units).any():
        return False, "units differ from (1 + Nil) union (-1 + Nil)"
    if not subset(ring, nil).is_two_sided_ideal:
        return False, "nilpotents do not form a two-sided ideal"
    if (cache.radical_mask != nil).any():
        return False, "radical differs from the nilpotent set"
    found = maximal_ideals(ring)
    if len(found) != 1:
        return False, f"found {len(found)} maximal ideals"
    return True, None


def check_weakstar_exchange(ring: RingTable) -> tuple[bool, Optional[str]]:
    """Weak* nil clean rings are exchange (both side conventions)."""
    reports = (is_exchange(ring, side) for side in ("right", "left"))
    return _first_failure((rep.holds, f"{rep.side} exchange fails at element {rep.failure}")
                          for rep in reports)


def check_strongly_nilclean_equiv(ring: RingTable) -> tuple[bool, Optional[str]]:
    """Strongly nil clean iff weak* nil clean with 2 nilpotent."""
    two = int(ring.add[ring.one, ring.one])
    lhs = _holds(ring, DecompKind.STRONGLY_NIL_CLEAN)
    rhs = _holds(ring, DecompKind.WEAK_STAR_NIL_CLEAN) and bool(structure(ring).nil_mask[two])
    if lhs != rhs:
        return False, f"strongly nil clean is {lhs} but weak*-with-2-nilpotent is {rhs}"
    return True, None


def check_weak_jclean_suite(ring: RingTable) -> tuple[bool, Optional[str]]:
    """Bundle of radical-decomposition facts (see the registry entry)."""
    cache = structure(ring)
    found = _annihilator_failure(ring, DecompKind.WEAK_STAR_J_CLEAN, 2, DecompKind.STRONGLY_CLEAN)
    if found is not None:
        x, e, law = found
        if law < 0:
            return False, f"(a) x={x} is weak* J-clean but not strongly clean"
        return False, f"(b) x={x}, e={e}: {_ANNIHILATOR_LAWS[law]}"
    kind = DecompKind.WEAK_STAR_J_CLEAN
    in_ring = _candidates(ring, kind, None).found
    for f in cache.idempotents:
        corner_ring, embed = corner(ring, f)
        differ = in_ring[list(embed)] != _candidates(corner_ring, kind, None).found
        if differ.any():
            x = embed[differ.argmax()]
            return False, f"(c) f={f}, x={x}: weak* J-cleanness differs in the corner"
    radical = subset(ring, cache.radical_mask)
    quot, _ = quotient(ring, radical)
    boolean = len(structure(quot).idempotents) == quot.order
    if boolean and lifts_idempotents_weakly(ring, radical).holds:
        verdict = ring_verdict(ring, DecompKind.WEAK_J_CLEAN)
        if not verdict.holds:
            return False, f"(d) boolean quotient with weak lifting, element {verdict.witness} fails"
    if boolean and _holds(ring, DecompKind.WEAK_STAR_J_CLEAN):
        verdict = ring_verdict(ring, DecompKind.J_CLEAN)
        if not verdict.holds:
            return False, f"(e) weak* J-clean with boolean quotient, element {verdict.witness} fails"
    return True, None


def check_pi_regular(ring: RingTable) -> tuple[bool, Optional[str]]:
    """Strong pi-regularity (always expected in a finite ring)."""
    if not is_strongly_pi_regular(ring):
        return False, "some power chain never stabilizes"
    return True, None


# --- corpus -------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusLine:
    text: str
    waive_over_budget: bool = False


@dataclass(frozen=True)
class CorpusEntry:
    text: str
    label: str
    expr: Optional[RingExpr]
    ring: Optional[RingTable]
    error: Optional[str] = None
    waived: bool = False


def parse_corpus(text: str) -> list[CorpusLine]:
    """One expression per line; '#' starts a comment; '!waive' marks a size waiver."""
    lines = []
    # the line ends text-mode open() translates; str.splitlines also breaks at '\x1c'
    for raw in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        # the parser's ASCII whitespace, so a line reads as it would through --ring
        stripped = raw.split("#", 1)[0].strip(string.whitespace)
        if not stripped:
            continue
        waive = stripped.endswith("!waive")
        if waive:
            stripped = stripped[: -len("!waive")].strip(string.whitespace)
        lines.append(CorpusLine(stripped, waive))
    return lines


# Every idempotent of M2(Z(2)) and M2(Z(3)), by element id.  The ids follow the
# public matrix encoding, so they are fixed.
_CORNER_IDEMPOTENTS = {
    "M2(Z(2))": (0, 1, 3, 5, 8, 9, 10, 12),
    "M2(Z(3))": (0, 1, 4, 7, 10, 19, 27, 28, 30, 33, 36, 45, 68, 80),
}


def default_corpus() -> list[str]:
    """The built-in corpus exercising every check positively and negatively."""
    entries = [f"Z({n})" for n in range(2, 37)]
    entries += ["M2(Z(2))", "M2(Z(3))", "T2(Z(2))", "T2(Z(3))"]
    entries += ["eqdiag2(Z(2))", "eqdiag2(Z(6))"]
    entries += ["prod(Z(4),Z(9))", "prod(Z(9),Z(9))", "prod(Z(2),Z(3),Z(3))"]
    entries += ["idealize(Z(6),self)", "idealize(Z(5),self)", "idealize(Z(6),Z(3))"]
    entries += [f"corner({base},{e})" for base, ids in _CORNER_IDEMPOTENTS.items() for e in ids]
    entries += ["quot(Z(36),[6])", "skew(Z(6),id,2)", "skew(prod(Z(3),Z(3)),swap(1,2),2)"]
    return entries


def _build_entry(line: str | CorpusLine, budget: Optional[int]) -> Optional[CorpusEntry]:
    """Parse and build one corpus line; None for a string with no expression."""
    if isinstance(line, str):
        parsed = parse_corpus(line)
        if not parsed:
            return None
        line = parsed[0]
    try:
        expr = parse_ring_expr(line.text)
        label = expr_label(expr)
    except RingError as exc:
        return CorpusEntry(line.text, line.text, None, None, str(exc))
    try:
        return CorpusEntry(line.text, label, expr, build(expr, budget))
    except CapacityError as exc:
        return CorpusEntry(line.text, label, expr, None, str(exc), line.waive_over_budget)
    except (RingError, ValueError) as exc:  # builders raise ValueError on bad dimensions
        return CorpusEntry(line.text, label, expr, None, str(exc))


def build_corpus(corpus: Iterable[str | CorpusLine],
                 budget: Optional[int] = None) -> list[CorpusEntry]:
    entries = (_build_entry(line, budget) for line in corpus)
    return [entry for entry in entries if entry is not None]


# --- registry and runner ------------------------------------------------------


@dataclass(frozen=True)
class TheoremCheck:
    check_id: str
    statements: tuple[str, ...]
    applicable: Callable[[CorpusEntry], bool]
    run: Callable[[CorpusEntry], tuple[bool, Optional[str]]]


def _always(entry: CorpusEntry) -> bool:
    return True


def _applicable_weak(entry: CorpusEntry) -> bool:
    return _weak_nil_clean(entry.ring)


def _run_quotient_image(entry: CorpusEntry) -> tuple[bool, Optional[str]]:
    # the runner has proved the axioms, and all_ideals finds two-sided ideals only
    ring = entry.ring
    return _first_failure(check_quotient_preservation(ring, _known_ideal(ring, k))
                          for k in range(len(all_ideals(ring))))


def _run_zn(entry: CorpusEntry) -> tuple[bool, Optional[str]]:
    assert isinstance(entry.expr, Zn)
    return check_zn_flags(entry.expr.n, entry.ring)


def _run_corner(entry: CorpusEntry) -> tuple[bool, Optional[str]]:
    return _first_failure(check_corner_theorem(entry.ring, f)
                          for f in structure(entry.ring).idempotents)


def _run_rigidity(entry: CorpusEntry) -> tuple[bool, Optional[str]]:
    s = _rigidity_failure(entry.ring)
    if s is None:
        return True, None
    return False, f"S={list(s)} suffices but is a proper subset of the idempotents"


def _applicable_zero_one_weak(entry: CorpusEntry) -> bool:
    if entry.ring.order == 1:
        return False  # no proper ideals exist; the statement presumes 0 != 1
    return _holds(entry.ring, DecompKind.S_WEAK_NIL_CLEAN, (entry.ring.zero, entry.ring.one))


def _applicable_weak_star(entry: CorpusEntry) -> bool:
    return _holds(entry.ring, DecompKind.WEAK_STAR_NIL_CLEAN)


def _applicable_weak_star_two_nil(entry: CorpusEntry) -> bool:
    two = int(entry.ring.add[entry.ring.one, entry.ring.one])
    return _applicable_weak_star(entry) and bool(structure(entry.ring).nil_mask[two])


REGISTRY: tuple[TheoremCheck, ...] = (
    TheoremCheck(
        "prop-J-subset-Nil",
        ("radical-inside-nilpotents",),
        _applicable_weak,
        lambda entry: check_J_subset_Nil(entry.ring),
    ),
    TheoremCheck(
        "thm-quotient-image",
        ("homomorphic-image-preservation",),
        _applicable_weak,
        _run_quotient_image,
    ),
    TheoremCheck(
        "thm-finite-product",
        ("finite-product-characterization",),
        lambda entry: isinstance(entry.expr, Prod),
        lambda entry: check_product_theorem(entry.ring, entry.ring.components),
    ),
    TheoremCheck(
        "prop-nilradical-quotient",
        ("nilradical-quotient-transfer",),
        lambda entry: entry.ring.is_commutative(),
        lambda entry: check_nilradical_quotient(entry.ring),
    ),
    TheoremCheck(
        "thm-idealization",
        ("idealization-equivalence",),
        lambda entry: isinstance(entry.expr, Idealize),
        lambda entry: check_idealization(entry.ring.components[0], entry.ring),
    ),
    TheoremCheck(
        "thm-zn-classification",
        ("z3k-weak-not-nil", "zpk-weak-not-nil-iff-p-equals-3", "zn-weak-not-nil-iff-2r3t"),
        lambda entry: isinstance(entry.expr, Zn),
        _run_zn,
    ),
    TheoremCheck(
        "lem-weakstar-annihilators",
        ("weakstar-annihilator-containment", "weakstar-annihilator-complement"),
        _always,
        lambda entry: check_annihilator_lemmas(entry.ring),
    ),
    TheoremCheck(
        "thm-weakstar-corner",
        ("weakstar-corner-elementwise", "weakstar-corner-ring"),
        _always,
        _run_corner,
    ),
    TheoremCheck(
        "prop-01-unique-maximal",
        ("zero-one-weak-unique-maximal-ideal",),
        _applicable_zero_one_weak,
        lambda entry: check_S_unique_maximal(entry.ring),
    ),
    TheoremCheck(
        "thm-s-rigidity",
        ("s-weakstar-forces-s-equals-idempotents",),
        _always,
        _run_rigidity,
    ),
    TheoremCheck(
        "thm-weakstar-exchange",
        ("weakstar-implies-exchange",),
        _applicable_weak_star,
        lambda entry: check_weakstar_exchange(entry.ring),
    ),
    TheoremCheck(
        "thm-strongly-nil-clean-iff",
        ("strongly-nil-clean-iff-weakstar-with-2-nilpotent",),
        _always,
        lambda entry: check_strongly_nilclean_equiv(entry.ring),
    ),
    TheoremCheck(
        "cor-strongly-pi-regular",
        ("weakstar-with-2-nilpotent-strongly-pi-regular",),
        _applicable_weak_star_two_nil,
        lambda entry: check_pi_regular(entry.ring),
    ),
    TheoremCheck(
        "thm-weak-jclean-bundle",
        (
            "weakstar-jclean-elements-strongly-clean",
            "jclean-annihilator-containment",
            "weakstar-jclean-corner",
            "boolean-quotient-weak-lifting-gives-weak-jclean",
            "weakstar-jclean-boolean-quotient-gives-jclean",
        ),
        _always,
        lambda entry: check_weak_jclean_suite(entry.ring),
    ),
)


def check_ids() -> list[str]:
    return [check.check_id for check in REGISTRY]


def run_suite(corpus: Iterable[str | CorpusLine | CorpusEntry],
              checks: Optional[Sequence[str]] = None,
              budget: Optional[int] = None) -> list[dict]:
    """Evaluate the selected checks on every corpus member.

    Returns cells {ring, check_id, outcome, witness?} sorted by (ring, check_id).
    Build failures become one 'build' cell; they never abort the run.  Members
    are built, checked and dropped one at a time, prepared entries first, so
    each ring and the sub-rings memoised on it are freed before the next build.
    The tables interned most recently stay alive (see wnc.table), so a sub-ring
    whose tables an earlier member or sub-ring had reuses their structure,
    verdicts and ideals.
    """
    if checks is None:
        selected = REGISTRY
    else:
        known = {check.check_id: check for check in REGISTRY}
        missing = [cid for cid in checks if cid not in known]
        if missing:
            raise ValueError(f"unknown check ids: {missing}")
        repeated = list(dict.fromkeys(cid for cid in checks if checks.count(cid) > 1))
        if repeated:
            raise ValueError(f"check ids given twice: {repeated}")
        selected = tuple(known[cid] for cid in checks)
    items = sorted(corpus, key=lambda item: not isinstance(item, CorpusEntry))
    cells = [cell for item in items for cell in _member_cells(item, selected, budget)]
    cells.sort(key=lambda c: (c["ring"], c["check_id"]))
    return cells


def _member_cells(item: str | CorpusLine | CorpusEntry, selected: Sequence[TheoremCheck],
                  budget: Optional[int]) -> list[dict]:
    """The cells of one corpus member; a ring built here is dropped on return."""
    entry = item if isinstance(item, CorpusEntry) else _build_entry(item, budget)
    if entry is None:
        return []
    if entry.ring is None:
        outcome = "waived" if entry.waived else "error"
        return [{"ring": entry.label, "check_id": "build", "outcome": outcome,
                 "witness": entry.error}]
    report = verify_ring_axioms(entry.ring)
    if not report.passed:
        name, witness = report.failures()[0]
        return [{"ring": entry.label, "check_id": "build", "outcome": "error",
                 "witness": f"axiom {name} fails at {witness}"}]
    cells: list[dict] = []
    for check in selected:
        if not check.applicable(entry):
            cells.append(
                {"ring": entry.label, "check_id": check.check_id, "outcome": "not-applicable"}
            )
            continue
        ok, witness = check.run(entry)
        cell = {"ring": entry.label, "check_id": check.check_id,
                "outcome": "pass" if ok else "fail"}
        if witness is not None:
            cell["witness"] = witness
        cells.append(cell)
    return cells


def suite_failed(cells: Sequence[dict]) -> bool:
    return any(cell["outcome"] in ("fail", "error") for cell in cells)


def report_to_json(cells: Sequence[dict]) -> str:
    return json.dumps(cells, indent=2) + "\n"


def traceability_matrix() -> str:
    """Markdown table mapping each check id to the facts it verifies."""
    lines = [
        "# Check traceability",
        "",
        "| check id | verifies |",
        "| --- | --- |",
    ]
    for check in REGISTRY:
        lines.append(f"| {check.check_id} | {', '.join(check.statements)} |")
    return "\n".join(lines) + "\n"
