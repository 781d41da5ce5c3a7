"""Structural sets of a finite ring: units, idempotents, nilpotents, radical, ideals.

The Jacobson radical is computed with the finite-ring quasi-regularity test
J(R) = {x : 1 - r*x is a unit for every r}; in a finite ring one-sided
invertibility already implies invertibility, so no side distinction is needed.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CrossRingError, InvalidIdealError, RingError
from .table import ROW_BLOCK_ENTRIES, ElementId, RingTable, _additive_span, _memoised_on_tables


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


def _units(ring: RingTable) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the x with x*y = y*x = 1 for some y, and the least such y
    (0 where there is none).

    mul is read in blocks of ROW_BLOCK_ENTRIES entries: the pairs with x*y = 1,
    in row-major order, then of those the ones with y*x = 1, gathered from mul.
    So no n x n mask is taken, and the first pair kept for x has the least y.
    """
    n, mul = ring.order, ring.mul
    unit_mask = np.zeros(n, dtype=bool)
    inverse_of = np.zeros(n, dtype=np.intp)
    rows = max(1, ROW_BLOCK_ENTRIES // n)
    for r0 in range(0, n, rows):
        xs, ys = np.divmod(np.flatnonzero(mul[r0:r0 + rows] == ring.one), n)
        xs += r0
        keep = mul[ys, xs] == ring.one
        xs, ys = xs[keep], ys[keep]
        first = np.ones(len(xs), dtype=bool)
        first[1:] = xs[1:] != xs[:-1]
        unit_mask[xs] = True
        inverse_of[xs[first]] = ys[first]
    return unit_mask, inverse_of


@_memoised_on_tables
def structure(ring: RingTable) -> StructureCache:
    """Compute (and memoize) units with inverses, Idem(R), Nil(R) and J(R).

    Units, idempotents and the radical follow their definitions on any table;
    the nilpotency indices are exact on ring tables only (see StructureCache).
    """
    mul = ring.mul

    idempotents = tuple(np.flatnonzero(mul.diagonal() == np.arange(ring.order)).tolist())

    unit_mask, inverse_of = _units(ring)

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
    arrays = unit_mask, inverse_of, nil_index, nil_index > 0, in_radical
    for array in arrays:
        array.flags.writeable = False  # the cache is memoised and shared
    return StructureCache(idempotents, *arrays)


@dataclass(frozen=True, eq=False)
class Subset:
    """A subset of a ring as a read-only mask over its element ids, with recomputable flags."""

    ring: RingTable
    mask: np.ndarray
    is_additive_subgroup: bool
    is_left_ideal: bool
    is_right_ideal: bool

    @property
    def is_two_sided_ideal(self) -> bool:
        return self.is_additive_subgroup and self.is_left_ideal and self.is_right_ideal

    @functools.cached_property
    def members(self) -> frozenset[ElementId]:
        return frozenset(self.sorted_members())

    def sorted_members(self) -> tuple[ElementId, ...]:
        return tuple(np.flatnonzero(self.mask).tolist())

    def __contains__(self, x: ElementId) -> bool:
        # numpy reads mask[-1] as the last entry, so the range is tested first
        return 0 <= x < self.mask.size and bool(self.mask[x])

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def _check_ring(self, ring: RingTable) -> None:
        if self.ring is not ring:
            raise CrossRingError(f"subsets of {self.ring.label} and {ring.label} cannot be mixed")

    def issubset(self, other: "Subset") -> bool:
        self._check_ring(other.ring)
        return not (self.mask & ~other.mask).any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subset):
            return NotImplemented
        return self.ring is other.ring and np.array_equal(self.mask, other.mask)

    def __hash__(self) -> int:
        return hash((id(self.ring), self.mask.tobytes()))

    def __repr__(self) -> str:
        return f"Subset({self.ring.label}, {list(self.sorted_members())})"


SetArg = Subset | np.ndarray | Iterable[ElementId]  # what _member_mask reads


def _member_mask(ring: RingTable, members: SetArg,
                 error: type[RingError] = CrossRingError) -> np.ndarray:
    """The read-only mask of a Subset of ring, a bool mask of shape (n,) or ids.  A foreign
    Subset or mask raises CrossRingError, and a member that is not an integer (by
    operator.index) or an integer outside 0..n-1 raises error, naming it."""
    if isinstance(members, Subset):
        members._check_ring(ring)
        return members.mask
    if isinstance(members, np.ndarray) and members.dtype == bool:
        if members.shape != (ring.order,):
            raise CrossRingError(f"a mask of shape {members.shape} is no subset of {ring.label}")
        mask = members.copy()
    else:
        ids = []
        for member in members:
            try:
                ids.append(operator.index(member))
            except TypeError:
                raise error(f"{member!r} is not an element id of {ring.label}") from None
        stray = sorted({i for i in ids if not 0 <= i < ring.order})
        if stray:
            raise error(f"elements {stray} are not in {ring.label}")
        mask = np.zeros(ring.order, dtype=bool)
        mask[ids] = True
    mask.flags.writeable = False
    return mask


def subset(ring: RingTable, members: SetArg) -> Subset:
    """Build a Subset, computing its subgroup/ideal flags from the member mask.

    The flags are mask tests over gathered table blocks: M is an additive
    subgroup when it holds 0, -M and M + M; a left ideal when it also holds
    R*M, and a right ideal when it also holds M*R.
    """
    mask = _member_mask(ring, members)
    m = np.flatnonzero(mask)
    is_group = bool(
        mask[ring.zero] and mask[ring.neg[m]].all() and mask[ring.add[np.ix_(m, m)]].all()
    )
    left = is_group and bool(mask[ring.mul[:, m]].all())
    right = is_group and bool(mask[ring.mul[m, :]].all())
    return Subset(ring, mask, is_group, left, right)


def _known_ideal(ring: RingTable, k: int) -> Subset:
    """The k-th ideal of all_ideals(ring) as a Subset over its read-only mask row,
    its flags set and not tested again."""
    return Subset(ring, _ideal_masks(ring)[k], True, True, True)


def element_of(handle: Subset, x: ElementId) -> bool:
    handle.ring.check_element(x)
    return x in handle


def is_subring_unital(ring: RingTable, members: SetArg) -> bool:
    """True when the member set is closed under add/neg/mul and contains 0 and 1."""
    mask = _member_mask(ring, members)
    m = np.flatnonzero(mask)
    block = np.ix_(m, m)
    return bool(
        mask[ring.zero] and mask[ring.one] and mask[ring.neg[m]].all()
        and mask[ring.add[block]].all() and mask[ring.mul[block]].all()
    )


def ann_left(ring: RingTable, x: ElementId) -> Subset:
    """Left annihilator {r : r*x = 0}; always a left ideal."""
    ring.check_element(x)
    return subset(ring, ring.mul[:, x] == ring.zero)


def ann_right(ring: RingTable, x: ElementId) -> Subset:
    """Right annihilator {r : x*r = 0}; always a right ideal."""
    ring.check_element(x)
    return subset(ring, ring.mul[x] == ring.zero)


def _multiples(ring: RingTable, side: str, xs=slice(None)) -> np.ndarray:
    """mask[i, y] says that y lies in xR (side 'right') or in Rx ('left'), x = xs[i]."""
    products = (ring.mul if side == "right" else ring.mul.T)[xs]
    mask = np.zeros(products.shape, dtype=bool)
    np.put_along_axis(mask, products, True, axis=1)
    return mask


def ideal_generated_by(ring: RingTable, gens: SetArg) -> Subset:
    """Smallest two-sided ideal containing the generators.

    It is the additive span of every R*g*R: each r*g*s lies in the ideal,
    and sums of such products are closed under multiplication on either
    side.  R*G*R is gathered as (R*G)*R, each product a union of rows of
    _multiples, and it holds G because 1 lies in R.
    """
    left = _multiples(ring, "left", _member_mask(ring, gens)).any(axis=0)
    both = _multiples(ring, "right", left).any(axis=0)
    return subset(ring, _additive_span(ring, both)[0])


def _ideal_members(ring: RingTable, ideal: Subset) -> tuple[int, ...]:
    """The sorted members of ideal, refused unless it is a two-sided ideal of ring."""
    if ideal.ring is not ring:
        raise CrossRingError("ideal belongs to a different ring")
    members = ideal.sorted_members()
    if not ideal.is_two_sided_ideal:
        raise InvalidIdealError(f"{list(members)} is not a two-sided ideal of {ring.label}")
    return members


def _coset_labels(ring: RingTable, members: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """rep_of[x], the least element of the coset x + I for I the ids members, and
    reps, the ascending x with rep_of[x] == x: the coset names in quotient order.

    Refused unless the sets x + I partition the table, which on a ring they do.
    """
    rep_of = ring.add[:, np.asarray(members, dtype=np.intp)].min(axis=1)
    if (rep_of[rep_of] != rep_of).any():  # only where the addition is not a group's
        raise InvalidIdealError(f"the sets x + {[int(m) for m in members]} do not partition "
                                f"{ring.label}")
    return rep_of, np.flatnonzero(rep_of == np.arange(ring.order))


@_memoised_on_tables
def _ideal_masks(ring: RingTable) -> np.ndarray:
    """Every two-sided ideal as a row of one read-only mask array, sorted by
    (size, members).

    The principal ideal of x is the additive span of R*x*R = (R*x)*R, the
    union of the rows yR, y in R*x.  Elements with the same row R*x share
    it, so it is gathered and spanned once per distinct row.  Both masks
    come from _multiples, once per call each.
    The lattice then grows in one pass over the distinct principal ideals,
    smallest first, I + P being the set of sums add[I, P], which is already an
    ideal.  After P_1..P_j it holds every sum of some of them, so a P already
    in it is such a sum and is skipped; any other is joined with each ideal
    found so far and then added.  Every ideal is the sum of the principal
    ideals of its members, so all are found.  A pair where one ideal holds the
    other is not joined: on a ring the sum is the larger one, and on a table
    that is not a ring add[I, P] can be neither, a set the skip keeps out.

    The lattice is exact on ring tables only: the spans, the sums and the skip
    all assume a ring.  On 493 of the 1 352 tables with one entry of add or mul
    of Z(4), Z(6) or T2(Z(2)) changed, it differs from the subsets that subset()
    flags as two-sided ideals.  run_suite proves the axioms before a check reads it.
    """
    lefts = {row.tobytes(): row for row in _multiples(ring, "left")}
    right = _multiples(ring, "right")
    spans = (_additive_span(ring, right[left].any(axis=0))[0] for left in lefts.values())
    principal = {ideal.tobytes(): ideal for ideal in spans}
    del lefts, right  # the joins read neither n x n mask
    ideals = {}
    for key, p in sorted(principal.items(), key=lambda item: np.count_nonzero(item[1])):
        if key in ideals:
            continue
        q = np.flatnonzero(p)
        for ideal in list(ideals.values()):
            if ideal[q].all() or p[ideal].all():
                continue
            total = np.zeros_like(ideal)
            total[ring.add[np.ix_(np.flatnonzero(ideal), q)]] = True
            ideals.setdefault(total.tobytes(), total)
        ideals[key] = p
    # of two member lists of one size, the first in order is the one that holds
    # the first element where the masks differ: the one whose inverted mask is less
    masks = np.array(sorted(ideals.values(), key=lambda m: (np.count_nonzero(m), (~m).tobytes())))
    masks.flags.writeable = False
    return masks


@_memoised_on_tables
def all_ideals(ring: RingTable) -> tuple[frozenset[int], ...]:
    """Every two-sided ideal, sorted by (size, members); see _ideal_masks, which
    is exact on ring tables only."""
    return tuple(frozenset(np.flatnonzero(mask).tolist()) for mask in _ideal_masks(ring))


def maximal_ideals(ring: RingTable) -> list[Subset]:
    """All maximal proper two-sided ideals, canonically sorted, as known ideals."""
    ideals = all_ideals(ring)
    proper = [k for k, ideal in enumerate(ideals) if len(ideal) < ring.order]
    return [_known_ideal(ring, k) for k in proper
            if not any(ideals[k] < ideals[j] for j in proper)]
