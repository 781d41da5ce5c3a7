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
import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import InvalidSubsetError
from .structure import (
    SetArg,
    Subset,
    _coset_labels,
    _ideal_members,
    _member_mask,
    _multiples,
    structure,
    subset,
)
from .table import ROW_BLOCK_ENTRIES, ElementId, RingTable, _first_true, _memoised_on_tables


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


def _read_only(array: np.ndarray) -> np.ndarray:
    """The array, made read-only: memoised verdicts share it with every equal ring."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class _Companions:
    """The companion table of one ring and S: rows 2i and 2i + 1 are (e_i, +) and
    (e_i, -) for the idempotents e_i ascending, so a row's sign is its parity."""

    idems: np.ndarray  # row r's idempotent
    comp: np.ndarray  # uint16, column x: x - e in row (e, +), x + e in row (e, -)
    mul: np.ndarray  # the ring's multiplication, never the ring

    @functools.cached_property
    def commuting(self) -> np.ndarray:
        """Row r, column x: comp[r, x] commutes with row r's idempotent."""
        rows = self.idems[:, None]
        return _read_only(self.mul[self.comp, rows] == self.mul[rows, self.comp])


@dataclass(frozen=True, eq=False)
class RingVerdict:
    """Ring-level outcome of one decomposition kind, with all certificates.

    ``found`` is the read-only mask of the elements that decompose.  The
    certificates are read-only columns, one entry per such element in ascending order,
    each built on first read from ``ok``, the kind's candidate mask over the
    shared companion table; ``certs``, a read-only mapping, is built on first read.
    """

    kind: DecompKind
    holds: bool
    witness: Optional[ElementId]
    s: Optional[tuple[ElementId, ...]]
    found: np.ndarray
    table: _Companions = field(repr=False)
    ok: np.ndarray = field(repr=False)  # comp in the kind's pool, commuting where required

    @functools.cached_property
    def targets(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.found))

    @functools.cached_property
    def _rows(self) -> np.ndarray:
        """The table row of each target's first certificate."""
        return _read_only(self.ok.argmax(axis=0)[self.targets])

    @functools.cached_property
    def idempotents(self) -> np.ndarray:
        return _read_only(self.table.idems[self._rows])

    @functools.cached_property
    def companions(self) -> np.ndarray:
        return _read_only(self.table.comp[self._rows, self.targets])

    @functools.cached_property
    def signs(self) -> np.ndarray:
        return _read_only(np.where(self._rows % 2, "-", "+"))

    @functools.cached_property
    def commutes(self) -> np.ndarray:
        mul, es, cs = self.table.mul, self.idempotents, self.companions
        return _read_only(mul[cs, es] == mul[es, cs])

    @functools.cached_property
    def certs(self) -> MappingProxyType[ElementId, DecompCert]:
        columns = zip(self.targets.tolist(), self.idempotents.tolist(),
                      self.companions.tolist(), self.signs.tolist(), self.commutes.tolist())
        return MappingProxyType({row[0]: DecompCert(self.kind, *row) for row in columns})


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


def _first_rows(ok: np.ndarray) -> tuple[np.ndarray, np.ndarray, Optional[int]]:
    """Columns of ok with a True, the first row of each, and the least column without."""
    found = ok.any(axis=0)
    cols, missing = np.flatnonzero(found), np.flatnonzero(~found)
    return cols, ok.argmax(axis=0)[cols], int(missing[0]) if missing.size else None


def _fold_signs(verdict: RingVerdict, xs=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The verdict's idempotents once each, and row i: the elements x of xs that some
    sign of the i-th idempotent serves."""
    ok = verdict.ok[:, xs]
    return verdict.table.idems[::2], ok.reshape(-1, 2, ok.shape[1]).any(axis=1)


@_memoised_on_tables
def _companions(ring: RingTable, idems: tuple[ElementId, ...]) -> _Companions:
    """The companion table that every kind over these idempotents reads."""
    rows = np.repeat(np.asarray(idems, dtype=np.intp), 2)
    cols = rows.copy()
    cols[::2] = ring.neg[rows[::2]]
    comp = ring.add.T[cols]
    rows.flags.writeable = comp.flags.writeable = False
    return _Companions(rows, comp, ring.mul)


@_memoised_on_tables
def _candidates(ring: RingTable, kind: DecompKind,
                s_tuple: Optional[tuple[ElementId, ...]]) -> RingVerdict:
    """The memoised verdict of one kind and S over the shared companion table; a
    kind that allows only n + e has no candidate in a row (e, -)."""
    cache = structure(ring)
    family, both_signs, need_commute, _ = _KIND_RULES[kind]
    table = _companions(ring, cache.idempotents if s_tuple is None else s_tuple)
    ok = getattr(cache, family)[table.comp]
    if not both_signs:
        ok[1::2] = False
    if need_commute:
        ok &= table.commuting
    found = ok.any(axis=0)
    ok.flags.writeable = found.flags.writeable = False
    witness = int(found.argmin())
    witness = None if found[witness] else witness
    return RingVerdict(kind, witness is None, witness, s_tuple, found, table, ok)


def iter_decomps(ring: RingTable, x: ElementId, kind: DecompKind,
                 s: Optional[SetArg] = None) -> Iterator[DecompCert]:
    """All decompositions of x of the given kind, in canonical search order."""
    ring.check_element(x)
    verdict = _candidates(ring, kind, _resolve_s(ring, kind, s))
    for r in np.flatnonzero(verdict.ok[:, x]).tolist():
        e, c = int(verdict.table.idems[r]), int(verdict.table.comp[r, x])
        yield DecompCert(kind, x, e, c, "+-"[r % 2], int(ring.mul[c, e]) == int(ring.mul[e, c]))


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
    return _candidates(ring, kind, _resolve_s(ring, kind, s))


# A verdict and its certificates at the depth json.dumps([...], indent=2) puts them:
# each certificate is the pieces x, its id, e, its id, companion, its id, and a tail.
_VERDICT_JSON = ('  {\n    "ring": %s,\n    "kind": "%s",\n%s    "holds": %s,\n'
                 '    "witness": %s,\n    "certs": %s\n  }')
_CERT_HEADS = ('      {\n        "x": ', ',\n        "e": ', ',\n        "companion": ')
# indexed by 2 * (sign is "-") + commutes; each ends with the separator of the next
_CERT_TAILS = np.array([f',\n        "sign": "{sign}",\n        "commutes": {commutes}\n      }},\n'
                        for sign in "+-" for commutes in ("false", "true")], dtype=object)


def _certs_json(verdict: RingVerdict, ids: np.ndarray) -> str:
    """The verdict's certificate list, one join over an (m, 7) array of pieces."""
    if not verdict.targets.size:
        return "[]"
    pieces = np.empty((verdict.targets.size, 7), dtype=object)
    pieces[:, 0:6:2] = _CERT_HEADS
    pieces[:, 1], pieces[:, 3], pieces[:, 5] = (
        ids[verdict.targets], ids[verdict.idempotents], ids[verdict.companions])
    pieces[:, 6] = _CERT_TAILS[verdict._rows % 2 * 2 + verdict.commutes]
    return f"[\n{''.join(pieces.ravel())[:-2]}\n    ]"


def _verdicts_json(ring: RingTable, verdicts: Iterable[RingVerdict]) -> str:
    """json.dumps([verdict_to_json(ring, v) for v in verdicts], indent=2) + "\n",
    written from the certificate columns without building certificate objects.

    Verdicts over one companion table with equal found masks and first rows have
    equal columns, so each distinct certificate list is written once."""
    ids = np.array([str(x) for x in range(ring.order)], dtype=object)
    label = json.dumps(ring.label)
    lists: dict[tuple, str] = {}
    items = []
    for v in verdicts:
        key = (v.table, v.found.tobytes(), v._rows.tobytes())
        if key not in lists:
            lists[key] = _certs_json(v, ids)
        s_text = "" if v.s is None else '    "s": [\n%s\n    ],\n' % ",\n".join(
            f"      {m}" for m in v.s)
        items.append(_VERDICT_JSON % (label, v.kind.value, s_text, json.dumps(v.holds),
                                      json.dumps(v.witness), lists[key]))
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


def _annihilator_rows(ring: RingTable) -> tuple[np.ndarray, np.ndarray]:
    """Row x: ann_l(x) and ann_r(x) as packed bit rows, read off mul in row blocks;
    block a's zeros mul[a, x] == 0 are bits a of ann_l(x) and the rows ann_r(a)."""
    n = ring.order
    left, right = np.empty((2, n, (n + 7) // 8), dtype=np.uint8)
    rows = 8 * max(1, ROW_BLOCK_ENTRIES // n // 8)
    for r0 in range(0, n, rows):
        zero = ring.mul[r0:r0 + rows] == ring.zero
        right[r0:r0 + rows] = np.packbits(zero, axis=1)
        bits = np.packbits(zero, axis=0)
        left[:, r0 // 8:r0 // 8 + len(bits)] = bits.T
    return left, right


@_memoised_on_tables
def _annihilator_failure(ring: RingTable, kind: DecompKind,
                         also: Optional[DecompKind] = None) -> Optional[tuple[int, int, int]]:
    """First (x, e, law) at which a decomposition x = c +- e of the kind breaks a law.

    Laws 0 and 1 are ann_l(x) <= ann_l(e) and ann_r(x) <= ann_r(e); law -1 is that x
    also decomposes as kind ``also``.  The order is x, then idempotent, then law.
    Only the pairs (x, e) of such decompositions are read, in blocks of x of about
    ROW_BLOCK_ENTRIES bytes of packed rows.
    Assumes a ring, where ann_l(e) = R(1-e) and ann_r(e) = (1-e)R.
    """
    n = ring.order
    verdict = _candidates(ring, kind, None)
    pre = np.zeros(n, dtype=bool) if also is None else ~_candidates(ring, also, None).found
    own = _annihilator_rows(ring)
    # at most twice the pairs of every x up to each x: one per sign
    ends = np.cumsum(np.count_nonzero(verdict.ok, axis=0))
    pairs_per_block = max(1, ROW_BLOCK_ENTRIES // own[0].shape[1])
    x0 = 0
    while x0 < n:
        start = int(ends[x0 - 1]) if x0 else 0
        x1 = max(x0 + 1, int(np.searchsorted(ends, start + pairs_per_block, side="right")))
        idems, ok = _fold_signs(verdict, slice(x0, x1))
        xs, es = np.nonzero(ok.T)  # the block's pairs, x then idempotent
        xs += x0
        fails = np.empty((len(xs), 3), dtype=bool)  # laws -1, 0, 1 of each pair
        fails[:, 0] = pre[xs]
        for law, mine in enumerate(own, 1):  # ann(x) meets R - ann(e)
            np.any(mine[xs] & ~mine[idems[es]], axis=1, out=fails[:, law])
        hit = _first_true(fails)
        if hit is not None:
            pair, law = hit
            return int(xs[pair]), int(idems[es[pair]]), law - 1
        x0 = x1
    return None


@_memoised_on_tables
def _rigidity_failure(ring: RingTable) -> Optional[tuple[ElementId, ...]]:
    """The first Idem(R) - {e}, e ascending, over which the ring is S-weak* nil clean.

    The S-table is the weak* nil table cut to S's rows, so Idem(R) - {e} suffices
    when every element has a serving idempotent and e is never the only one.
    """
    idems, serve = _fold_signs(_candidates(ring, DecompKind.WEAK_STAR_NIL_CLEAN, None))
    spare = np.ones(len(idems), dtype=bool)
    spare[serve[:, serve.sum(axis=0) == 1].argmax(axis=0)] = False
    if not serve.any(axis=0).all() or not spare.any():
        return None
    return tuple(np.delete(idems, spare.argmax()).tolist())


def is_exchange(ring: RingTable, side: str = "right") -> ExchangeReport:
    """Exchange-ring test: an idempotent e in xR with 1-e in (1-x)R.

    ``side`` selects the right-module or left-module form; both are decided
    and compared elsewhere since the convention is ambiguous.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', not {side!r}")
    idems = np.asarray(structure(ring).idempotents, dtype=np.intp)
    one_minus = ring.add[ring.one][ring.neg]
    # has[y, i]: e_i in yR, and has[y, |Idem| + i]: 1 - e_i in yR, from row blocks
    # of _multiples of about ROW_BLOCK_ENTRIES entries
    cols = np.concatenate([idems, one_minus[idems]])
    has = np.empty((ring.order, len(cols)), dtype=bool)
    block = max(1, ROW_BLOCK_ENTRIES // ring.order)
    for r0 in range(0, ring.order, block):
        has[r0:r0 + block] = _multiples(ring, side, slice(r0, r0 + block))[:, cols]
    ok = (has[:, :len(idems)] & has[one_minus, len(idems):]).T
    xs, rows, failure = _first_rows(ok)
    witnesses = dict(zip(xs[:failure].tolist(), idems[rows[:failure]].tolist()))
    return ExchangeReport(side, failure is None, witnesses, failure)


def is_strongly_pi_regular(ring: RingTable) -> bool:
    """Some power a**k lies in a**(k+1)R and in R a**(k+1), for every a.

    Both _multiples masks are held as packed bit rows, made in row blocks of about
    ROW_BLOCK_ENTRIES entries: bit y of row x is bit 7 - y % 8 of byte y // 8.
    """
    n = ring.order
    rows = max(1, ROW_BLOCK_ENTRIES // n)
    right, left = np.empty((2, n, (n + 7) // 8), dtype=np.uint8)
    for packed, side in ((right, "right"), (left, "left")):
        for r0 in range(0, n, rows):
            packed[r0:r0 + rows] = np.packbits(_multiples(ring, side, slice(r0, r0 + rows)), axis=1)
    a = power = np.arange(n)
    for _ in range(n):
        next_power = ring.mul[power, a]
        both = right[next_power, power >> 3] & left[next_power, power >> 3]
        pending = (both >> (7 - (power & 7))) & 1 == 0
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
    """Decided on the coset labels, without building R/I.  The idempotent cosets are
    the names r with rep_of[r*r] == r; row e (a ring idempotent), column r is true
    where rep_of[e] == r, or rep_of[e] == rep_of[-r] when weak, and the first row of
    each column lifts it.  Cosets are numbered as quotient() numbers them."""
    rep_of, reps = _coset_labels(ring, _ideal_members(ring, ideal))
    idems = np.asarray(structure(ring).idempotents, dtype=np.intp)
    bars = reps[rep_of[ring.mul[reps, reps]] == reps]
    image = rep_of[idems, None]
    cols, rows, failure = _first_rows((image == bars) | (weak & (image == rep_of[ring.neg[bars]])))
    bars = np.searchsorted(reps, bars)  # the cosets' ids in R/I
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
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 4 * p ** (k - 1)


def zero_one_subset(ring: RingTable) -> Subset:
    """The subset {0, 1}, the distinguished S of the unique-maximal-ideal test."""
    return subset(ring, {ring.zero, ring.one})
