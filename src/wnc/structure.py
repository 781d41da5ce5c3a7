"""Structural sets of a finite ring: units, idempotents, nilpotents, radical, ideals.

The Jacobson radical is computed with the finite-ring quasi-regularity test
J(R) = {x : 1 - r*x is a unit for every r}; in a finite ring one-sided
invertibility already implies invertibility, so no side distinction is needed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CrossRingError
from .table import ROW_BLOCK_ENTRIES, ElementId, RingTable, _additive_span, _memoised


@dataclass(frozen=True, eq=False)
class StructureCache:
    """Memoized structural sets of one ring, as read-only arrays over the element ids.

    unit_mask marks U(R); inverse_of[x] is the inverse of x where unit_mask holds,
    and means nothing elsewhere.  nil_mask marks Nil(R), and nil_index[x] is the
    smallest k >= 1 with x**k = 0, or 0 when x is not nilpotent.  nil_index is
    exact on ring tables only: the powers stop at x**K with K = n.bit_length(), a
    bound proved for rings, so on a table that is not a ring it can miss nilpotents
    (Z(6) with mul[4,2] = 3 gives Nil = {0}, where the definition gives {0, 2}).
    radical_mask marks J(R).  The set and dict properties are views of the arrays.
    """

    idempotents: tuple[ElementId, ...]
    unit_mask: np.ndarray
    inverse_of: np.ndarray
    nil_index: np.ndarray
    nil_mask: np.ndarray
    radical_mask: np.ndarray

    @functools.cached_property
    def units(self) -> frozenset[ElementId]:
        return frozenset(self.inverse)

    @functools.cached_property
    def inverse(self) -> dict[ElementId, ElementId]:
        units = np.flatnonzero(self.unit_mask)
        return dict(zip(units.tolist(), self.inverse_of[units].tolist()))

    @functools.cached_property
    def nilpotency(self) -> dict[ElementId, int]:
        nil = np.flatnonzero(self.nil_mask)
        return dict(zip(nil.tolist(), self.nil_index[nil].tolist()))

    @functools.cached_property
    def nilpotents(self) -> frozenset[ElementId]:
        return frozenset(self.nilpotency)

    @functools.cached_property
    def radical(self) -> frozenset[ElementId]:
        return frozenset(np.flatnonzero(self.radical_mask).tolist())

    @functools.cached_property
    def idempotent_set(self) -> frozenset[ElementId]:
        return frozenset(self.idempotents)


def _nilpotency_indices(ring: RingTable) -> np.ndarray:
    """The least k >= 1 with x**k = 0 for each x, and 0 where x is not nilpotent.

    A nilpotent x of index k gives a strictly falling chain of additive groups
    R > Rx > ... > Rx**k = 0: were Rx**i = Rx**(i+1) for some i < k, then
    x**i = r*x**i*x for some r, so x**i = r**k * x**i * x**k = 0.  Each step at
    least halves the order, so 2**k <= n, and the powers x**1 .. x**K with
    K = n.bit_length() decide every index.
    """
    idx = np.arange(ring.order)
    powers = [idx]
    for _ in range(1, ring.order.bit_length()):
        powers.append(ring.mul[powers[-1], idx])
    zero = np.stack(powers) == ring.zero
    return np.where(zero.any(axis=0), zero.argmax(axis=0) + 1, 0)


@_memoised
def structure(ring: RingTable) -> StructureCache:
    """Compute (and memoize) units with inverses, Idem(R), Nil(R) and J(R).

    Units, idempotents and the radical follow their definitions on any table;
    the nilpotency indices are exact on ring tables only (see StructureCache).
    """
    mul = ring.mul

    idempotents = tuple(np.flatnonzero(mul.diagonal() == np.arange(ring.order)).tolist())

    two_sided = mul == ring.one
    two_sided &= two_sided.T  # in place, so that only one n x n mask outlives this line
    unit_mask = two_sided.any(axis=1)

    # x is in J when 1 - r*x is a unit for every r: the 1-D lookup
    # y -> [1 - y is a unit], gathered at mul by take in row blocks.  take
    # copies its index to intp, so a block holds ROW_BLOCK_ENTRIES // 8
    # entries: the copy stays at 64 KB, under glibc's default mmap threshold,
    # and is reused from the heap (512 KB copies raised classify's peak RSS).
    one_minus_is_unit = unit_mask[ring.add[ring.one][ring.neg]]
    in_radical = np.ones(ring.order, dtype=bool)
    rows = max(1, ROW_BLOCK_ENTRIES // 8 // ring.order)
    for r0 in range(0, ring.order, rows):
        in_radical &= one_minus_is_unit.take(mul[r0:r0 + rows]).all(axis=0)

    nil_index = _nilpotency_indices(ring)
    arrays = unit_mask, two_sided.argmax(axis=1), nil_index, nil_index > 0, in_radical
    for array in arrays:
        array.flags.writeable = False  # the cache is memoised and shared
    return StructureCache(idempotents, *arrays)


@dataclass(frozen=True, eq=False)
class Subset:
    """A subset of a ring's elements, with recomputable structural flags."""

    ring: RingTable
    members: frozenset[ElementId]
    is_additive_subgroup: bool
    is_left_ideal: bool
    is_right_ideal: bool

    @property
    def is_two_sided_ideal(self) -> bool:
        return self.is_additive_subgroup and self.is_left_ideal and self.is_right_ideal

    def sorted_members(self) -> tuple[ElementId, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, x: ElementId) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)

    def _check_same_ring(self, other: "Subset") -> None:
        if self.ring is not other.ring:
            raise CrossRingError(
                f"subsets of {self.ring.label} and {other.ring.label} cannot be mixed"
            )

    def issubset(self, other: "Subset") -> bool:
        self._check_same_ring(other)
        return self.members <= other.members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subset):
            return NotImplemented
        return self.ring is other.ring and self.members == other.members

    def __hash__(self) -> int:
        return hash((id(self.ring), self.members))

    def __repr__(self) -> str:
        return f"Subset({self.ring.label}, {sorted(self.members)})"


def _member_mask(ring: RingTable, mset: frozenset[ElementId]) -> np.ndarray:
    if mset:
        ring.check_element(min(mset))
        ring.check_element(max(mset))
    mask = np.zeros(ring.order, dtype=bool)
    mask[list(mset)] = True
    return mask


def subset(ring: RingTable, members: Iterable[ElementId]) -> Subset:
    """Build a Subset, computing its subgroup/ideal flags from the member set.

    The flags are mask tests over gathered table blocks: M is an additive
    subgroup when it holds 0, -M and M + M; a left ideal when it also holds
    R*M, and a right ideal when it also holds M*R.
    """
    mset = frozenset(int(x) for x in members)
    mask = _member_mask(ring, mset)
    m = np.flatnonzero(mask)
    is_group = bool(
        mask[ring.zero] and mask[ring.neg[m]].all() and mask[ring.add[np.ix_(m, m)]].all()
    )
    left = is_group and bool(mask[ring.mul[:, m]].all())
    right = is_group and bool(mask[ring.mul[m, :]].all())
    return Subset(ring, mset, is_group, left, right)


def element_of(handle: Subset, x: ElementId) -> bool:
    handle.ring.check_element(x)
    return x in handle.members


def is_subring_unital(ring: RingTable, members: Iterable[ElementId]) -> bool:
    """True when the member set is closed under add/neg/mul and contains 0 and 1."""
    mask = _member_mask(ring, frozenset(int(x) for x in members))
    m = np.flatnonzero(mask)
    block = np.ix_(m, m)
    return bool(
        mask[ring.zero] and mask[ring.one] and mask[ring.neg[m]].all()
        and mask[ring.add[block]].all() and mask[ring.mul[block]].all()
    )


def ann_left(ring: RingTable, x: ElementId) -> Subset:
    """Left annihilator {r : r*x = 0}; always a left ideal."""
    ring.check_element(x)
    members = np.flatnonzero(ring.mul[:, x] == ring.zero)
    return subset(ring, members)


def ann_right(ring: RingTable, x: ElementId) -> Subset:
    """Right annihilator {r : x*r = 0}; always a right ideal."""
    ring.check_element(x)
    members = np.flatnonzero(ring.mul[x] == ring.zero)
    return subset(ring, members)


def _multiples(ring: RingTable, side: str, xs=slice(None)) -> np.ndarray:
    """mask[i, y] says that y lies in xR (side 'right') or in Rx ('left'), x = xs[i]."""
    products = (ring.mul if side == "right" else ring.mul.T)[xs]
    mask = np.zeros(products.shape, dtype=bool)
    np.put_along_axis(mask, products, True, axis=1)
    return mask


def ideal_generated_by(ring: RingTable, gens: Iterable[ElementId]) -> Subset:
    """Smallest two-sided ideal containing the generators.

    It is the additive span of every R*g*R: each r*g*s lies in the ideal,
    and sums of such products are closed under multiplication on either
    side.  R*G*R is gathered as (R*G)*R, each product a union of rows of
    _multiples, and it holds G because 1 lies in R.
    """
    gens = [int(g) for g in gens]
    for g in gens:
        ring.check_element(g)
    left = _multiples(ring, "left", gens).any(axis=0)
    both = _multiples(ring, "right", left).any(axis=0)
    return subset(ring, np.flatnonzero(_additive_span(ring, both)[0]))


@_memoised
def all_ideals(ring: RingTable) -> tuple[frozenset[int], ...]:
    """Every two-sided ideal, sorted by (size, members).

    The principal ideal of x is the additive span of R*x*R = (R*x)*R, the
    union of the rows yR, y in R*x.  Elements with the same row R*x share
    it, so it is gathered and spanned once per distinct row.  Both masks
    come from _multiples, once per call each.
    The lattice then grows by joining each newly found ideal with each
    principal ideal, I + P being the set of sums add[I, P], which is already
    an ideal.  This is complete: every ideal is the sum of the principal
    ideals of its members, so it is reached by adding principal ideals one at
    a time.
    """
    lefts = {row.tobytes(): row for row in _multiples(ring, "left")}
    right = _multiples(ring, "right")
    spans = (_additive_span(ring, right[left].any(axis=0))[0] for left in lefts.values())
    principal = {ideal.tobytes(): ideal for ideal in spans}
    del lefts, right  # the joins read neither n x n mask
    ideals = dict(principal)
    frontier = list(principal.values())
    while frontier:
        found = []
        for ideal in frontier:
            i = np.flatnonzero(ideal)
            for p in principal.values():
                if ideal[p].all() or p[i].all():
                    continue
                total = np.zeros_like(ideal)
                total[ring.add[np.ix_(i, np.flatnonzero(p))]] = True
                key = total.tobytes()
                if key not in ideals:
                    ideals[key] = total
                    found.append(total)
        frontier = found
    return tuple(sorted(
        (frozenset(np.flatnonzero(m).tolist()) for m in ideals.values()),
        key=lambda s: (len(s), sorted(s)),
    ))


def maximal_ideals(ring: RingTable) -> list[Subset]:
    """All maximal proper two-sided ideals, canonically sorted."""
    everything = frozenset(ring.elements())
    proper = [i for i in all_ideals(ring) if i != everything]
    return [subset(ring, m) for m in proper if not any(m < j for j in proper)]
