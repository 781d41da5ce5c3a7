"""Finite rings as explicit operation tables.

A ring of order n lives on the element ids 0..n-1.  Addition, multiplication
and negation are total lookup tables; ``zero`` and ``one`` are element ids.
Every table is a read-only uint16 array, 2 bytes per entry, so an order is at
most MAX_ORDER = 65 536.  Tables are immutable after construction and safe to
share between threads.

A RingTable validates its tables and interns them: rings whose order, zero, one
and tables are all equal share one core.  Results that read the tables alone
(structural sets, verdicts, the ideal lattice) are memoised on that core, so they
are computed once per distinct table; corners and quotients are computed on each
call, and equal results share one core.  A core lives while a ring or a caller
holds it (run_suite holds its latest members'), and no longer.  The memo and the
interning only decide which results are kept and which are computed again, never
what a result is, so concurrent threads may at worst compute a result twice.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import CrossRingError, TableFormatError

ElementId = int

# Entries per block in a blocked pass: the grid of a coordinate-ring digit that
# reads many digits (construct), the rows of the radical's gather (structure).
# It bounds the temporaries at a few MB whatever the ring order.  It also caps
# the table entries of the cores run_suite keeps alive after their members go.
ROW_BLOCK_ENTRIES = 1 << 16

# The table dtype and the largest order whose element ids it holds.  Two tables
# of a larger order would take 17 GB, so no such ring is built.
TABLE_DTYPE = np.uint16
MAX_ORDER = 1 << 16


def check_order(n: int) -> None:
    """Raise TableFormatError unless 1 <= n <= MAX_ORDER."""
    if n < 1:
        raise TableFormatError(f"ring order must be positive, got {n}")
    if n > MAX_ORDER:
        raise TableFormatError(f"ring order {n} is over the limit of {MAX_ORDER} "
                               f"that uint16 tables hold")


def _ids_below(arr: np.ndarray, n: int) -> bool:
    """Whether every entry of arr lies in [0, n), read in arr's own dtype, so
    that no entry wraps into range before it is tested."""
    return (arr.dtype.kind == "u" or arr.min() >= 0) and arr.max() < n


class _TableCore:
    """The read-only tables that every ring with equal order, zero, one, add, mul
    and neg shares, and the results memoised on them."""

    __slots__ = ("add", "mul", "neg", "results", "__weakref__")

    def __init__(self, add: np.ndarray, mul: np.ndarray, neg: np.ndarray) -> None:
        self.add, self.mul, self.neg = add, mul, neg
        self.results: dict = {}


class _LazyNames:
    """The class-level default of RingTable.element_names: the names a ring's
    name function makes, on first read (dataclass reads None as the default)."""

    def __get__(self, ring: Optional["RingTable"], owner: Optional[type] = None):
        if ring is None:
            return None
        names = vars(ring)["element_names"] = tuple(map(ring.name_fn, range(ring.order)))
        return names


@dataclass(frozen=True, eq=False)
class RingTable:
    """Operation tables of a finite ring with unity.  Construction checks their
    shapes and entry ranges, raising TableFormatError, and interns them;
    verify_ring_axioms checks their ring axioms."""

    order: int
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    zero: ElementId
    one: ElementId
    label: str
    # given, or made by name_fn on first read; None names each x as str(x)
    element_names: Optional[tuple[str, ...]] = _LazyNames()
    # the rings the digits of a coordinate-built ring range over, in digit order
    components: tuple["RingTable", ...] = field(default=(), repr=False)
    # the name of each id, when element_names is not given; it must not refer to
    # the ring, so that a corner's or quotient's names do not keep their base alive
    name_fn: Optional[Callable[[ElementId], str]] = field(default=None, repr=False)
    # the interned tables, shared with every equal ring
    core: _TableCore = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, zero, one = self.order, self.zero, self.one
        check_order(n)
        tables = {name: np.asarray(getattr(self, name)) for name in ("add", "mul", "neg")}
        for name, arr in tables.items():
            shape = (n,) if name == "neg" else (n, n)
            if arr.shape != shape:
                raise TableFormatError(f"{name} table has shape {arr.shape}, want {shape}")
        for name, arr in tables.items():
            if not _ids_below(arr, n):
                raise TableFormatError(f"{name} table contains out-of-range element ids")
        if not 0 <= zero < n or not 0 <= one < n:
            raise TableFormatError("zero/one must be valid element ids")
        names = None if self.element_names is None else tuple(self.element_names)
        if names is not None and len(names) != n:
            raise TableFormatError("element_names length must equal ring order")
        for name, arr in tables.items():
            # every entry is in range, so the narrowing is exact; a uint16 table is
            # copied only while the caller can still write it
            if arr.dtype != TABLE_DTYPE or not arr.flags.owndata or arr.flags.writeable:
                tables[name] = arr = arr.astype(TABLE_DTYPE, order="C")
            arr.setflags(write=False)
        core = _intern(**tables, zero=int(zero), one=int(one))
        # the fields are frozen, so they are set past __setattr__
        vars(self).update(add=core.add, mul=core.mul, neg=core.neg, zero=int(zero), one=int(one),
                          components=tuple(self.components), core=core)
        if names is not None:
            vars(self).update(element_names=names, name_fn=names.__getitem__)
        elif self.name_fn is not None:
            del vars(self)["element_names"]  # _LazyNames makes them on first read

    def elements(self) -> range:
        return range(self.order)

    def name_of(self, x: ElementId) -> str:
        return str(x) if self.name_fn is None else self.name_fn(x)

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


def _memoised_on_tables(fn: Callable) -> Callable:
    """Memoise fn(ring, *args) on the ring's core, per distinct table: equal rings
    share the results, which die with the core.

    No key or result may refer to a ring: it would keep that ring alive.
    """
    @functools.wraps(fn)
    def wrapper(ring: RingTable, *args):
        results, key = ring.core.results, (fn, *args)
        if key not in results:
            results[key] = fn(ring, *args)
        return results[key]
    return wrapper


# fingerprint -> the live core of those tables; a hit is confirmed in full
_interned: "weakref.WeakValueDictionary[tuple, _TableCore]" = weakref.WeakValueDictionary()


def _intern(add: np.ndarray, mul: np.ndarray, neg: np.ndarray, zero: int, one: int
            ) -> _TableCore:
    """The core of these validated tables: the live core of equal tables, if any.

    The lookup reads an O(n) fingerprint; a hit is confirmed by comparing add and
    mul in full (by identity first), so a collision costs sharing, never a result.
    """
    key = (len(neg), zero, one, neg.tobytes(), mul.diagonal().tobytes(), add[one].tobytes())
    core = _interned.get(key)
    same = core is not None and (core.add is add or np.array_equal(core.add, add)) and (
        core.mul is mul or np.array_equal(core.mul, mul))
    if not same:
        fresh = _TableCore(add, mul, neg)
        if core is None:
            _interned[key] = fresh
        core = fresh
    return core


# the public name of the constructor, which validates and interns the tables
ring_table = RingTable


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


def _additive_span(ring: RingTable, mask: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The additive subgroup generated by mask, and the generators it took.

    From S = {0}: while mask holds an element S lacks, the smallest such g
    joins G and S grows by its orbit under x -> x + g.  Each round scatters S
    forward and doubles the shift, so k rounds give S + {0, ..., 2**k - 1}*g,
    and a round that adds nothing leaves S closed under + g.  Every element
    reached is a sum of generators, so on any table S lies in the closure of
    G under +.  In a group each step's order is a proper multiple of the last,
    so |G| <= log2 n; a step that breaks this ends the span early.
    """
    span = np.zeros(ring.order, dtype=bool)
    span[ring.zero] = True
    size, gens = 1, []
    while (missing := mask & ~span).any():
        g = int(np.argmax(missing))
        gens.append(g)
        shift = ring.add[:, g]
        while not span[reached := shift[span]].all():
            span[reached] = True
            shift = shift[shift]
        grown = int(np.count_nonzero(span))
        if grown == size or grown % size:
            break
        size = grown
    return span, gens


def _first_true(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """The first True position of a mask in row-major order, or None."""
    if mask.size:
        flat = int(np.argmax(mask))
        if mask.flat[flat]:
            return tuple(int(i) for i in np.unravel_index(flat, mask.shape))
    return None


def _identity_witness(table: np.ndarray, e: int) -> Optional[tuple[int, int]]:
    """The first (e, b) with e.b != b, else the first (a, e) with a.e != a."""
    idx = np.arange(len(table))
    row = _first_true(table[e] != idx)
    if row is not None:
        return (e, *row)
    col = _first_true(table[:, e] != idx)
    return None if col is None else (*col, e)


def _cubic_witness(n: int, sides: Callable[[int], tuple[np.ndarray, np.ndarray]]
                   ) -> Optional[tuple[int, int, int]]:
    """The first (a, b, c) in scan order at which the two n x n sides at a differ."""
    for a in range(n):
        lhs, rhs = sides(a)
        bc = _first_true(lhs != rhs)
        if bc is not None:
            return (a, *bc)
    return None


def _cubic_laws_hold_on_generators(ring: RingTable) -> bool:
    """Prove the four cubic laws in O(n^2 * |G|) for an additive generating set G.

    Sound once the O(n^2) laws hold: 0 and 1 are identities, every x has the
    inverse neg[x] and + commutes.  Each step below is sound once the steps
    before it pass.

    1. G is what _additive_span takes for the whole ring.  When the span is
       everything, so is the closure of G under +, which holds it.
    2. Additive associativity (Light's test): x+(g+y) = (x+g)+y for every g in
       G.  With + commutative, the entry (x, y) of add[add[g]] is
       (g+x)+y = (x+g)+y and its entry (y, x) is (g+y)+x = x+(g+y), so the
       test is that this matrix is symmetric.  If b and c associate in the
       middle position for all x and y, so does b+c: (x+(b+c))+y =
       ((x+b)+c)+y = (x+b)+(c+y) = x+(b+(c+y)) = x+((b+c)+y).  The middle
       elements that associate thus form a set that holds G and is closed
       under +, so it is everything.  (R, +) is then an abelian group.
    3. Right distributivity: (b+g)a = ba + ga for all a, b and every g in G.
       For fixed a, the c with (b+c)a = ba + ca for every b are closed under +:
       (b+(c+d))a = ((b+c)+d)a = (b+c)a + da = ba + ca + da = ba + (c+d)a, the
       last step by the law of d at b = c.  They hold G, so they are everything.
    4. Left distributivity: a(b+g) = ab + ag for a and g in G and every b.  As
       in step 3, each a in G then distributes over every sum.  By step 3, the
       a that do are closed under +: (a+a')(b+c) = a(b+c) + a'(b+c) =
       ab + ac + a'b + a'c = (a+a')b + (a+a')c.  So they are everything.
    5. Multiplicative associativity on G^3: with both laws, (ab)c - a(bc) is
       additive in each of a, b and c, so it vanishes everywhere once it
       vanishes on G^3.
    """
    add, mul = ring.add, ring.mul
    span, gens = _additive_span(ring, np.ones(ring.order, dtype=bool))
    if not span.all():
        return False
    g = np.array(gens, dtype=np.intp)
    ab = mul[np.ix_(g, g)]
    # each law's n x n gathers are freed before the next law's are taken
    return (
        all(np.array_equal(light, light.T) for light in (add[add[x]] for x in gens))
        and all(np.array_equal(mul[add[:, x]], add[mul, mul[x]]) for x in gens)
        and np.array_equal(mul[g[:, None, None], add[:, g].T],
                           add[mul[g][:, None], ab[:, :, None]])
        and np.array_equal(mul[ab[:, :, None], g], mul[g[:, None, None], ab])
    )


def verify_ring_axioms(ring: RingTable) -> AxiomReport:
    """Check every ring axiom, returning a witness tuple for each failure.

    The five O(n^2) laws are tested first, each with its first witness in scan
    order.  When they hold, the four cubic laws are proved in O(n^2 * |G|) with
    |G| <= log2 n (see _cubic_laws_hold_on_generators).  Otherwise, or when that
    proof fails, each cubic law is scanned in O(n^3) for its first witness.
    """
    n, add, mul = ring.order, ring.add, ring.mul
    zero, one = ring.zero, ring.one
    witness = {
        "add-commutative": _first_true(add != add.T),
        "add-identity": _identity_witness(add, zero),
        "add-inverse": _first_true(add[np.arange(n), ring.neg] != zero),
        "one-identity": _identity_witness(mul, one),
        "zero-one-distinct": None if n == 1 or zero != one else (zero, one),
    }
    if any(w is not None for w in witness.values()) or not _cubic_laws_hold_on_generators(ring):
        witness["add-associative"] = _cubic_witness(n, lambda a: (add[add[a]], add[a][add]))
        witness["mul-associative"] = _cubic_witness(n, lambda a: (mul[mul[a]], mul[a][mul]))
        witness["left-distributive"] = _cubic_witness(
            n, lambda a: (mul[a][add], add[np.ix_(mul[a], mul[a])]))
        # scanned as (a, b, c) for (b + c) * a, reported as (b, c, a)
        right = _cubic_witness(n, lambda a: (mul[:, a][add], add[np.ix_(mul[:, a], mul[:, a])]))
        witness["right-distributive"] = None if right is None else (*right[1:], right[0])
    return AxiomReport(tuple((name, witness.get(name) is None, witness.get(name))
                             for name in AXIOM_NAMES))


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
