"""Certificate-producing decision procedures for cleanness notions.

A decomposition writes a target element as companion + idempotent or
companion - idempotent, where the companion is drawn from the nilpotents,
the units or the Jacobson radical depending on the kind.  The search order
is canonical: idempotents ascending by element id, sign '+' before '-',
so returned certificates are deterministic.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .construct import quotient
from .errors import InvalidSubsetError
from .structure import SetArg, Subset, _member_mask, _multiples, structure, subset
from .table import ElementId, RingTable, _first_true, _memoised_on_tables


class DecompKind(Enum):
    CLEAN = "clean"
    STRONGLY_CLEAN = "strongly-clean"
    WEAKLY_CLEAN = "weakly-clean"
    NIL_CLEAN = "nil-clean"
    STRONGLY_NIL_CLEAN = "strongly-nil-clean"
    WEAK_NIL_CLEAN = "weak-nil-clean"
    WEAK_STAR_NIL_CLEAN = "weak-star-nil-clean"
    S_WEAK_NIL_CLEAN = "s-weak-nil-clean"
    S_WEAK_STAR_NIL_CLEAN = "s-weak-star-nil-clean"
    J_CLEAN = "j-clean"
    STRONGLY_J_CLEAN = "strongly-j-clean"
    WEAK_J_CLEAN = "weak-j-clean"
    WEAK_STAR_J_CLEAN = "weak-star-j-clean"

    @classmethod
    def from_name(cls, name: str) -> "DecompKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown decomposition kind {name!r}")


# StructureCache companion mask, both signs allowed, commuting required, takes an S argument
_KIND_RULES: dict[DecompKind, tuple[str, bool, bool, bool]] = {
    DecompKind.CLEAN: ("unit_mask", False, False, False),
    DecompKind.STRONGLY_CLEAN: ("unit_mask", False, True, False),
    DecompKind.WEAKLY_CLEAN: ("unit_mask", True, False, False),
    DecompKind.NIL_CLEAN: ("nil_mask", False, False, False),
    DecompKind.STRONGLY_NIL_CLEAN: ("nil_mask", False, True, False),
    DecompKind.WEAK_NIL_CLEAN: ("nil_mask", True, False, False),
    DecompKind.WEAK_STAR_NIL_CLEAN: ("nil_mask", True, True, False),
    DecompKind.S_WEAK_NIL_CLEAN: ("nil_mask", True, False, True),
    DecompKind.S_WEAK_STAR_NIL_CLEAN: ("nil_mask", True, True, True),
    DecompKind.J_CLEAN: ("radical_mask", False, False, False),
    DecompKind.STRONGLY_J_CLEAN: ("radical_mask", False, True, False),
    DecompKind.WEAK_J_CLEAN: ("radical_mask", True, False, False),
    DecompKind.WEAK_STAR_J_CLEAN: ("radical_mask", True, True, False),
}


def kind_takes_subset(kind: DecompKind) -> bool:
    return _KIND_RULES[kind][3]


@dataclass(frozen=True)
class DecompCert:
    """A checked decomposition: target = companion (sign) idempotent."""

    kind: DecompKind
    target: ElementId
    idempotent: ElementId
    companion: ElementId
    sign: str  # "+" or "-"
    commutes: bool


@dataclass(frozen=True, eq=False)
class RingVerdict:
    """Ring-level outcome of one decomposition kind, with all certificates.

    The certificates are kept as columns, one entry per decomposable element in
    ascending order; ``certs`` builds the certificate objects on first access.
    """

    kind: DecompKind
    holds: bool
    witness: Optional[ElementId]
    s: Optional[tuple[ElementId, ...]]
    targets: np.ndarray
    idempotents: np.ndarray
    companions: np.ndarray
    signs: np.ndarray  # "+" or "-"
    commutes: np.ndarray

    @functools.cached_property
    def certs(self) -> dict[ElementId, DecompCert]:
        columns = zip(self.targets.tolist(), self.idempotents.tolist(),
                      self.companions.tolist(), self.signs.tolist(), self.commutes.tolist())
        return {row[0]: DecompCert(self.kind, *row) for row in columns}


def _resolve_s(ring: RingTable, kind: DecompKind,
               s: Optional[SetArg]) -> Optional[tuple[ElementId, ...]]:
    """The sorted S of an S-kind, None for every other kind."""
    if not kind_takes_subset(kind):
        return None
    if s is None:
        raise InvalidSubsetError("this kind needs an idempotent subset S")
    members = np.flatnonzero(_member_mask(ring, s, InvalidSubsetError))
    if not members.size:
        raise InvalidSubsetError("S must be a non-empty set of idempotents")
    bad = members[ring.mul[members, members] != members]
    if bad.size:
        raise InvalidSubsetError(f"S contains non-idempotent elements {bad.tolist()} "
                                 f"of {ring.label}")
    return tuple(members.tolist())


def _first_rows(ok: np.ndarray) -> tuple[np.ndarray, np.ndarray, Optional[int], np.ndarray]:
    """Columns of ok with a True, the first row of each, the least column without,
    and the read-only mask of the columns with a True."""
    found = ok.any(axis=0)
    found.flags.writeable = False
    cols, missing = np.flatnonzero(found), np.flatnonzero(~found)
    return cols, ok.argmax(axis=0)[cols], int(missing[0]) if missing.size else None, found


class _Table(NamedTuple):
    """Candidate table of one kind and S: row r is (idems[r], signs[r]), column x is x."""

    idems: np.ndarray
    signs: tuple[str, ...]
    ok: np.ndarray  # companion x -+ idems[r] in the kind's pool, commuting where required
    found: np.ndarray  # read-only: the elements with a candidate, those that decompose
    verdict: RingVerdict


@_memoised_on_tables
def _candidates(ring: RingTable, kind: DecompKind,
                s_tuple: Optional[tuple[ElementId, ...]]) -> _Table:
    """The memoised candidate table and verdict of one kind and S."""
    cache = structure(ring)
    family, both_signs, need_commute, _ = _KIND_RULES[kind]
    signs = ("+", "-") if both_signs else ("+",)
    idems = np.asarray(cache.idempotents if s_tuple is None else s_tuple, dtype=np.intp)
    idems, signs = np.repeat(idems, len(signs)), signs * len(idems)
    sign_col = np.array(signs)
    comp = ring.add[:, np.where(sign_col == "+", ring.neg[idems], idems)].T
    ok = getattr(cache, family)[comp]
    if need_commute:
        ok &= ring.mul[comp, idems[:, None]] == ring.mul[idems[:, None], comp]
    xs, rows, witness, found = _first_rows(ok)
    es, cs = idems[rows], comp[rows, xs]
    verdict = RingVerdict(kind, witness is None, witness, s_tuple, xs, es, cs,
                          sign_col[rows], ring.mul[cs, es] == ring.mul[es, cs])
    return _Table(idems, signs, ok, found, verdict)


def iter_decomps(ring: RingTable, x: ElementId, kind: DecompKind,
                 s: Optional[SetArg] = None) -> Iterator[DecompCert]:
    """All decompositions of x of the given kind, in canonical search order."""
    ring.check_element(x)
    table = _candidates(ring, kind, _resolve_s(ring, kind, s))
    for r in np.flatnonzero(table.ok[:, x]).tolist():
        e, sign = int(table.idems[r]), table.signs[r]
        c = ring.sub(x, e) if sign == "+" else int(ring.add[x, e])
        yield DecompCert(kind, x, e, c, sign, int(ring.mul[c, e]) == int(ring.mul[e, c]))


def find_decomp(ring: RingTable, x: ElementId, kind: DecompKind,
                s: Optional[SetArg] = None) -> Optional[DecompCert]:
    """First certificate in canonical order, or None when no decomposition exists."""
    return next(iter_decomps(ring, x, kind, s), None)


def cert_is_valid(ring: RingTable, cert: DecompCert,
                  s: Optional[SetArg] = None) -> bool:
    """Re-evaluate a certificate directly against the ring tables."""
    cache = structure(ring)
    family, both_signs, need_commute, _ = _KIND_RULES[cert.kind]
    if not (0 <= cert.companion < ring.order and getattr(cache, family)[cert.companion]):
        return False
    if cert.idempotent not in (_resolve_s(ring, cert.kind, s) or cache.idempotents):
        return False
    if cert.sign == "+":
        recomposed = int(ring.add[cert.companion, cert.idempotent])
    elif both_signs:
        recomposed = int(ring.add[cert.companion, ring.neg[cert.idempotent]])
    else:
        return False
    if recomposed != cert.target:
        return False
    commutes = int(ring.mul[cert.companion, cert.idempotent]) == int(
        ring.mul[cert.idempotent, cert.companion]
    )
    if commutes != cert.commutes:
        return False
    return commutes or not need_commute


def ring_verdict(ring: RingTable, kind: DecompKind,
                 s: Optional[SetArg] = None) -> RingVerdict:
    """Decide the ring-level property; certificates are kept for every element."""
    return _candidates(ring, kind, _resolve_s(ring, kind, s)).verdict


# One certificate of the verdict JSON, at the depth json.dumps([...], indent=2) puts it.
_CERT_JSON = ('      {\n        "x": %d,\n        "e": %d,\n        "companion": %d,\n'
              '        "sign": "%s",\n        "commutes": %s\n      }')


def _verdicts_json(ring: RingTable, verdicts: Iterable[RingVerdict]) -> str:
    """json.dumps([verdict_to_json(ring, v) for v in verdicts], indent=2) + "\n",
    written from the certificate columns without building certificate objects."""
    items = []
    for v in verdicts:
        head: dict = {"ring": ring.label, "kind": v.kind.value}
        if v.s is not None:
            head["s"] = list(v.s)
        head.update(holds=v.holds, witness=v.witness)
        head_text = json.dumps(head, indent=2)[:-2].replace("\n", "\n  ")
        certs = ",\n".join(_CERT_JSON % cert for cert in zip(
            v.targets.tolist(), v.idempotents.tolist(), v.companions.tolist(),
            v.signs.tolist(), np.where(v.commutes, "true", "false").tolist()))
        certs = f"[\n{certs}\n    ]" if certs else "[]"
        items.append(f'  {head_text},\n    "certs": {certs}\n  }}')
    return "[\n" + ",\n".join(items) + "\n]\n"


def verdict_to_json(ring: RingTable, verdict: RingVerdict) -> dict:
    """Documented JSON shape with fixed field order, parsed from the one JSON writer."""
    return json.loads(_verdicts_json(ring, [verdict]))[0]


@dataclass(frozen=True)
class ExchangeReport:
    side: str
    holds: bool
    witnesses: dict[ElementId, ElementId]
    failure: Optional[ElementId]


@_memoised_on_tables
def _annihilator_failure(ring: RingTable, kind: DecompKind, laws: int,
                         also: Optional[DecompKind] = None) -> Optional[tuple[int, int, int]]:
    """First (x, e, law) at which a decomposition x = c +- e of the kind breaks a law.

    Laws 0-3 are ann_l(x) <= ann_l(e), ann_r(x) <= ann_r(e), ann_l(x) <= R(1-e) and
    ann_r(x) <= (1-e)R, of which the first ``laws`` count; law -1 is that x also
    decomposes as kind ``also``.  The order is x, then candidate row, then law.
    """
    table = _candidates(ring, kind, None)
    pre = False if also is None else ~_candidates(ring, also, None).found
    zero = ring.mul == ring.zero
    one_minus = ring.add[ring.one][ring.neg[table.idems]]
    bounds = [zero.T[table.idems], zero[table.idems], _multiples(ring, "left", one_minus),
              _multiples(ring, "right", one_minus)][:laws]
    sets = np.packbits(zero.T, axis=1), np.packbits(zero, axis=1)  # row x: ann_l(x), ann_r(x)
    fails = [table.ok & pre]
    for k, bound in enumerate(bounds):
        escapes = [(sets[k % 2] & outside).any(axis=1) for outside in np.packbits(~bound, axis=1)]
        fails.append(table.ok & np.reshape(escapes, table.ok.shape))
    hit = _first_true(np.stack(fails).transpose(2, 1, 0))
    if hit is None:
        return None
    x, r, law = hit
    return x, int(table.idems[r]), law - 1


@_memoised_on_tables
def _rigidity_failure(ring: RingTable) -> Optional[tuple[ElementId, ...]]:
    """The first Idem(R) - {e}, e ascending, over which the ring is S-weak* nil clean.

    The S-table is the weak* nil table cut to S's rows, so Idem(R) - {e} suffices
    when every element has a serving idempotent and e is never the only one.
    """
    table = _candidates(ring, DecompKind.WEAK_STAR_NIL_CLEAN, None)
    idems = table.idems[::2].tolist()
    serve = table.ok.reshape(len(idems), 2, ring.order).any(axis=1)
    spare = np.ones(len(idems), dtype=bool)
    spare[serve[:, serve.sum(axis=0) == 1].argmax(axis=0)] = False
    if not serve.any(axis=0).all() or not spare.any():
        return None
    drop = int(spare.argmax())
    return tuple(idems[:drop] + idems[drop + 1:])


def is_exchange(ring: RingTable, side: str = "right") -> ExchangeReport:
    """Exchange-ring test: an idempotent e in xR with 1-e in (1-x)R.

    ``side`` selects the right-module or left-module form; both are decided
    and compared elsewhere since the convention is ambiguous.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', not {side!r}")
    idems = np.asarray(structure(ring).idempotents, dtype=np.intp)
    reach = _multiples(ring, side)
    one_minus = ring.add[ring.one][ring.neg]
    ok = (reach[:, idems] & reach[np.ix_(one_minus, one_minus[idems])]).T
    xs, rows, failure, _ = _first_rows(ok)
    witnesses = dict(zip(xs[:failure].tolist(), idems[rows[:failure]].tolist()))
    return ExchangeReport(side, failure is None, witnesses, failure)


def is_strongly_pi_regular(ring: RingTable) -> bool:
    """Some power a**k lies in a**(k+1)R and in R a**(k+1), for every a."""
    right, left = _multiples(ring, "right"), _multiples(ring, "left")
    a = power = np.arange(ring.order)
    for _ in range(ring.order):
        next_power = ring.mul[power, a]
        pending = ~(right[next_power, power] & left[next_power, power])
        a, power = a[pending], next_power[pending]
        if not a.size:
            return True
    return False


@dataclass(frozen=True)
class LiftReport:
    holds: bool
    witnesses: dict[ElementId, ElementId]  # quotient idempotent -> lifted idempotent
    failure: Optional[ElementId]


def _lift_report(ring: RingTable, ideal: Subset, weak: bool) -> LiftReport:
    """Row e (a ring idempotent), column ebar (a quotient idempotent) is true where
    e maps onto ebar, or onto -ebar when weak; the first row of each column lifts it."""
    quot, proj = quotient(ring, ideal)
    idems = np.asarray(structure(ring).idempotents, dtype=np.intp)
    bars = np.asarray(structure(quot).idempotents, dtype=np.intp)
    image = np.asarray(proj)[idems, None]
    cols, rows, failure, _ = _first_rows((image == bars) | (weak & (image == quot.neg[bars])))
    witnesses = dict(zip(bars[cols[:failure]].tolist(), idems[rows[:failure]].tolist()))
    return LiftReport(failure is None, witnesses, None if failure is None else int(bars[failure]))


def lifts_idempotents_weakly(ring: RingTable, ideal: Subset) -> LiftReport:
    """For each idempotent coset, some ring idempotent e has e-x or e+x in I."""
    return _lift_report(ring, ideal, weak=True)


def lifts_idempotents(ring: RingTable, ideal: Subset) -> LiftReport:
    """Classical lifting: for each idempotent coset, some idempotent maps onto it."""
    return _lift_report(ring, ideal, weak=False)


def nil_clean_count_bound(p: int, k: int) -> int:
    """The cardinality bound 4*p**(k-1) on elements expressible as +-n +- e in Z_{p**k}."""
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 4 * p ** (k - 1)


def zero_one_subset(ring: RingTable) -> Subset:
    """The subset {0, 1}, the distinguished S of the unique-maximal-ideal test."""
    return subset(ring, {ring.zero, ring.one})
