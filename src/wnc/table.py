"""Finite rings as explicit operation tables.

A ring of order n lives on the element ids 0..n-1.  Addition, multiplication
and negation are total lookup tables; ``zero`` and ``one`` are element ids.
Tables are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import CrossRingError, TableFormatError

ElementId = int


@dataclass(frozen=True, eq=False)
class RingTable:
    """A fully materialized finite associative ring with unity."""

    order: int
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    zero: ElementId
    one: ElementId
    label: str
    element_names: Optional[tuple[str, ...]] = field(default=None, repr=False)

    def elements(self) -> range:
        return range(self.order)

    def name_of(self, x: ElementId) -> str:
        if self.element_names is None:
            return str(x)
        return self.element_names[x]

    def check_element(self, x: ElementId) -> None:
        if not 0 <= x < self.order:
            raise CrossRingError(
                f"element id {x} is not valid in {self.label} (order {self.order})"
            )

    def sub(self, a: ElementId, b: ElementId) -> ElementId:
        return int(self.add[a, self.neg[b]])

    def power(self, x: ElementId, k: int) -> ElementId:
        """x**k for k >= 0, with x**0 = 1."""
        acc = self.one
        for _ in range(k):
            acc = int(self.mul[acc, x])
        return acc

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def __repr__(self) -> str:  # keep huge tables out of tracebacks
        return f"RingTable({self.label}, order={self.order})"


def ring_table(
    order: int,
    add: Sequence[Sequence[int]] | np.ndarray,
    mul: Sequence[Sequence[int]] | np.ndarray,
    neg: Sequence[int] | np.ndarray,
    zero: int,
    one: int,
    label: str,
    element_names: Optional[Sequence[str]] = None,
) -> RingTable:
    """Validate raw tables and freeze them into a RingTable.

    Raises TableFormatError on malformed dimensions or out-of-range entries.
    Ring axioms are *not* checked here; see verify_ring_axioms.
    """
    if order < 1:
        raise TableFormatError(f"ring order must be positive, got {order}")
    add_arr = np.asarray(add, dtype=np.int32)
    mul_arr = np.asarray(mul, dtype=np.int32)
    neg_arr = np.asarray(neg, dtype=np.int32)
    if add_arr.shape != (order, order):
        raise TableFormatError(f"add table has shape {add_arr.shape}, want {(order, order)}")
    if mul_arr.shape != (order, order):
        raise TableFormatError(f"mul table has shape {mul_arr.shape}, want {(order, order)}")
    if neg_arr.shape != (order,):
        raise TableFormatError(f"neg table has shape {neg_arr.shape}, want {(order,)}")
    for name, arr in (("add", add_arr), ("mul", mul_arr), ("neg", neg_arr)):
        if arr.size and (arr.min() < 0 or arr.max() >= order):
            raise TableFormatError(f"{name} table contains out-of-range element ids")
    if not 0 <= zero < order or not 0 <= one < order:
        raise TableFormatError("zero/one must be valid element ids")
    names = tuple(element_names) if element_names is not None else None
    if names is not None and len(names) != order:
        raise TableFormatError("element_names length must equal ring order")
    for arr in (add_arr, mul_arr, neg_arr):
        arr.setflags(write=False)
    return RingTable(order, add_arr, mul_arr, neg_arr, int(zero), int(one), label, names)


AXIOM_NAMES = (
    "add-associative",
    "add-commutative",
    "add-identity",
    "add-inverse",
    "mul-associative",
    "one-identity",
    "left-distributive",
    "right-distributive",
    "zero-one-distinct",
)


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom pass/fail with a concrete witness tuple on failure."""

    results: tuple[tuple[str, bool, Optional[tuple[int, ...]]], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def failures(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(name, w) for name, ok, w in self.results if not ok and w is not None]

    def __iter__(self) -> Iterator[tuple[str, bool, Optional[tuple[int, ...]]]]:
        return iter(self.results)


def _first_mismatch_3d(lhs: np.ndarray, rhs: np.ndarray, a: int) -> Optional[tuple[int, int, int]]:
    bad = np.argwhere(lhs != rhs)
    if bad.size == 0:
        return None
    b, c = bad[0]
    return (a, int(b), int(c))


def _additive_closure(ring: RingTable, mask: np.ndarray) -> np.ndarray:
    """The additive subgroup generated by a mask that holds 0.

    Each round replaces M by M + M, so after k rounds M holds every sum of up
    to 2**k generators; in a finite group the generated submonoid is already
    the subgroup, and it is reached within ceil(log2 n) rounds.  Since 0 is an
    additive identity, M lies in M + M, and a round that does not grow M
    leaves it closed under +.
    """
    while True:
        m = np.flatnonzero(mask)
        grown = np.zeros_like(mask)
        grown[ring.add[np.ix_(m, m)]] = True
        if np.count_nonzero(grown) == m.size:
            return grown
        mask = grown


def _additive_generators(ring: RingTable) -> Optional[list[int]]:
    """A set G whose additive closure is the whole ring, with |G| <= log2 n.

    G is built greedily: add the smallest id not yet reached, then close
    under +.  In a group each closure is a subgroup, so its order is a
    multiple of the one before, hence at least twice it.  None reports a step
    that breaks this, which shows that + makes no group.
    """
    mask = np.zeros(ring.order, dtype=bool)
    mask[ring.zero] = True
    size = 1
    gens = []
    while size < ring.order:
        g = int(np.argmin(mask))
        gens.append(g)
        mask[g] = True
        mask = _additive_closure(ring, mask)
        grown = int(np.count_nonzero(mask))
        if grown % size:
            return None
        size = grown
    return gens


def _is_ring(ring: RingTable) -> bool:
    """Decide every ring axiom in O(n^2 * |G|) for an additive generating set G.

    Each step below is sound once the steps before it pass.

    1. The identity, inverse, commutativity, unity and 0 != 1 tests read O(n^2)
       entries.
    2. G is found greedily (see _additive_generators); its closure under + is
       the whole ring.
    3. Additive associativity (Light's test): x+(g+y) = (x+g)+y for every g in
       G.  If b and c associate in the middle position for all x and y, so does
       b+c: (x+(b+c))+y = ((x+b)+c)+y = (x+b)+(c+y) = x+(b+(c+y)) = x+((b+c)+y).
       The middle elements that associate thus form a set that holds G and is
       closed under +, so it is everything.  (R, +) is then an abelian group,
       and the closure of G under + is the subgroup G generates.
    4. Distributivity: a(b+g) = ab + ag and (b+g)a = ba + ga for all a, b and
       every g in G.  For fixed a, the c with a(b+c) = ab + ac for every b are
       closed under +: a(b+(c+d)) = a((b+c)+d) = a(b+c) + ad = ab + ac + ad
       = ab + a(c+d), the last step by the law of d at b = c.  They hold G,
       so they are everything; likewise for the right-hand law.
    5. Multiplicative associativity on G^3: with both laws, (ab)c - a(bc) is
       additive in each of a, b and c, so it vanishes everywhere once it
       vanishes on G^3.
    """
    n = ring.order
    add, mul, neg = ring.add, ring.mul, ring.neg
    zero, one = ring.zero, ring.one
    idx = np.arange(n)
    if not (
        np.array_equal(add[zero], idx) and np.array_equal(add[:, zero], idx)
        and bool((add[idx, neg] == zero).all()) and np.array_equal(add, add.T)
        and np.array_equal(mul[one], idx) and np.array_equal(mul[:, one], idx)
        and (n == 1 or zero != one)
    ):
        return False
    gens = _additive_generators(ring)
    if gens is None:
        return False
    for g in gens:
        plus_g = add[:, g]
        if not (
            np.array_equal(add[:, add[g]], add[plus_g])
            and np.array_equal(mul[:, plus_g], add[mul, mul[:, g][:, None]])
            and np.array_equal(mul[plus_g], add[mul, mul[g]])
        ):
            return False
    g = np.array(gens, dtype=np.intp)
    ab = mul[np.ix_(g, g)]
    return np.array_equal(mul[ab[:, :, None], g], mul[g[:, None, None], ab])


def verify_ring_axioms(ring: RingTable) -> AxiomReport:
    """Check every ring axiom, returning a witness tuple for each failure.

    A ring is proved one in O(n^2 * |G|) with |G| <= log2 n (see _is_ring).
    Any other table goes through the O(n^3) scan, which reports the first
    witness of each failed axiom in scan order.
    """
    if _is_ring(ring):
        return AxiomReport(tuple((name, True, None) for name in AXIOM_NAMES))
    return _scan_ring_axioms(ring)


def _scan_ring_axioms(ring: RingTable) -> AxiomReport:
    """Every axiom by exhaustive scan, with the first witness of each failure."""
    n = ring.order
    add, mul, neg = ring.add, ring.mul, ring.neg
    zero, one = ring.zero, ring.one
    idx = np.arange(n)
    results: list[tuple[str, bool, Optional[tuple[int, ...]]]] = []

    witness: Optional[tuple[int, ...]] = None
    for a in range(n):
        witness = _first_mismatch_3d(add[add[a]], add[a][add], a)
        if witness is not None:
            break
    results.append(("add-associative", witness is None, witness))

    bad = np.argwhere(add != add.T)
    witness = (int(bad[0][0]), int(bad[0][1])) if bad.size else None
    results.append(("add-commutative", witness is None, witness))

    bad = np.argwhere(add[zero] != idx)
    witness = (zero, int(bad[0][0])) if bad.size else None
    if witness is None:
        bad = np.argwhere(add[:, zero] != idx)
        witness = (int(bad[0][0]), zero) if bad.size else None
    results.append(("add-identity", witness is None, witness))

    bad = np.argwhere(add[idx, neg] != zero)
    witness = (int(bad[0][0]),) if bad.size else None
    results.append(("add-inverse", witness is None, witness))

    witness = None
    for a in range(n):
        witness = _first_mismatch_3d(mul[mul[a]], mul[a][mul], a)
        if witness is not None:
            break
    results.append(("mul-associative", witness is None, witness))

    bad = np.argwhere(mul[one] != idx)
    witness = (one, int(bad[0][0])) if bad.size else None
    if witness is None:
        bad = np.argwhere(mul[:, one] != idx)
        witness = (int(bad[0][0]), one) if bad.size else None
    results.append(("one-identity", witness is None, witness))

    witness = None
    for a in range(n):
        row = mul[a]
        witness = _first_mismatch_3d(row[add], add[np.ix_(row, row)], a)
        if witness is not None:
            break
    results.append(("left-distributive", witness is None, witness))

    witness = None
    for a in range(n):
        col = mul[:, a]
        lhs = col[add]
        rhs = add[np.ix_(col, col)]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            witness = (int(bad[0][0]), int(bad[0][1]), a)
            break
    results.append(("right-distributive", witness is None, witness))

    ok = n == 1 or zero != one
    results.append(("zero-one-distinct", ok, None if ok else (zero, one)))

    return AxiomReport(tuple(results))


def tables_to_csv(ring: RingTable) -> str:
    """Debug dump of the operation tables (row-major, header with order and label)."""
    lines = [f"# ring,{ring.label},order,{ring.order}"]
    for name, arr in (("add", ring.add), ("mul", ring.mul)):
        lines.append(f"# table,{name}")
        for row in arr:
            lines.append(",".join(str(int(v)) for v in row))
    lines.append("# table,neg")
    lines.append(",".join(str(int(v)) for v in ring.neg))
    lines.append(f"# zero,{ring.zero},one,{ring.one}")
    return "\n".join(lines) + "\n"
