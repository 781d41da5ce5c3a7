"""Ring constructions: Z_n, products, matrix rings, idealizations, corners,
quotients and twisted truncated polynomial rings.

Element encodings are fixed mixed-radix codes so that element ids are stable
across runs:

* ``Z(n)``: element i is the residue i.
* ``prod(R1,...,Rk)``: tuples (a1,...,ak), last coordinate varying fastest.
* ``M<k>(R)`` / ``T<k>(R)``: matrix entries in row-major reading order
  (upper-triangular positions only for T), last entry fastest.
* ``eqdiag<k>(R)``: (diagonal value, strict-upper entries row-major).
* ``idealize(R,M)``: pairs (r, m) with index r*|M| + m.
* ``corner(R,f)``: elements of fRf sorted by parent id.
* ``quot(R,I)``: cosets sorted by their minimal representative.
* ``skew(R,s,n)``: coefficient tuples (a0,...,a_{n-1}), a0 most significant.

Products, matrix rings, idealizations and skew rings share one builder. An
element is a digit vector over component rings, encoded as above. Addition and
negation act digit by digit through each component's tables. Digit k of a
product is the component-k sum of ``table[a_i, b_j]`` over a fixed list of
(i, j, table) terms: (k, k, mul) for products, (il, lj, mul) over the stored
matrix positions, (0, 1, left action) and (1, 0, right action) for the module
digit of an idealization, and (i, c-i, mul twisted by sigma^i) for the
coefficient c of a skew ring. The builder fills a table through its view with
one axis per digit of a and one per digit of b, each term being its small
table on two of those axes, so a digit is summed over only the digits its
terms read; where those are all of them (the module digit of an idealization,
the top coefficients of a skew ring), in blocks of at most ROW_BLOCK_ENTRIES
entries. ``corner`` and ``quot`` restrict their parent's tables to a set of ids
and relabel them.

Every builder fills its tables in uint16, the table dtype, so no wider copy of
a whole table exists; ``Z(n)`` forms its products in uint32 row blocks.
"""

from __future__ import annotations

import math
import os
import re
import string
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    CapacityError,
    ExprSyntaxError,
    InvalidDimensionError,
    InvalidEndomorphismError,
    InvalidIdempotentError,
    InvalidModuleError,
)
from .structure import Subset, _coset_labels, _ideal_members, ideal_generated_by
from .table import (
    MAX_ORDER,
    ROW_BLOCK_ENTRIES,
    TABLE_DTYPE,
    RingTable,
    check_order,
    ring_table,
)

DEFAULT_SIZE_BUDGET = 20_000
SIZE_BUDGET_ENV = "WNC_SIZE_BUDGET"


def _ascii_int(text: str) -> int:
    """int(text) for ASCII digits after an optional '-', with ASCII whitespace around;
    the non-ASCII digits and underscores int() also reads are refused, as the ring
    grammar refuses them."""
    digits = text.strip(string.whitespace).removeprefix("-")
    if not digits or digits.strip(string.digits):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def size_budget(override: Optional[int] = None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(SIZE_BUDGET_ENV)
    if not raw:
        return DEFAULT_SIZE_BUDGET
    try:
        limit = _ascii_int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{SIZE_BUDGET_ENV} must be a positive integer, got {raw!r}")
    return limit


# --- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class SelfModule:
    """The ring itself as a module over itself."""


@dataclass(frozen=True)
class CyclicModule:
    """Z_m as a module over Z_n; requires m | n."""

    m: int


ModuleSpec = Union[SelfModule, CyclicModule]


@dataclass(frozen=True)
class IdentityEndo:
    """The identity twisting map."""


@dataclass(frozen=True)
class FactorPermutation:
    """Swap two isomorphic factors of a product ring (1-based positions)."""

    swap: tuple[int, int]


EndoSpec = Union[IdentityEndo, FactorPermutation]


@dataclass(frozen=True)
class Zn:
    n: int


@dataclass(frozen=True)
class Prod:
    factors: tuple["RingExpr", ...]


@dataclass(frozen=True)
class Mat:
    k: int
    inner: "RingExpr"


@dataclass(frozen=True)
class Tri:
    k: int
    inner: "RingExpr"


@dataclass(frozen=True)
class EqDiag:
    k: int
    inner: "RingExpr"


@dataclass(frozen=True)
class Idealize:
    inner: "RingExpr"
    module: ModuleSpec


@dataclass(frozen=True)
class Corner:
    inner: "RingExpr"
    index: int


@dataclass(frozen=True)
class Quot:
    inner: "RingExpr"
    gens: tuple[int, ...]


@dataclass(frozen=True)
class SkewPolyQuot:
    inner: "RingExpr"
    endo: EndoSpec
    n: int


RingExpr = Union[Zn, Prod, Mat, Tri, EqDiag, Idealize, Corner, Quot, SkewPolyQuot]


def _row(expr: RingExpr) -> _Constructor:
    row = _BY_NODE.get(type(expr))
    if row is None:
        raise TypeError(f"not a ring expression: {expr!r}")
    return row


def _fields(expr: RingExpr) -> tuple[_Constructor, list[tuple[str, object]]]:
    """The node's row and its fields as (slot kind, value) pairs: the size, an
    ``int``, when the row is sized, then one per slot."""
    row = _row(expr)
    kinds = ("int",) * row.sized + row.slots
    return row, list(zip(kinds, (getattr(expr, f.name) for f in fields(expr))))


def expr_label(expr: RingExpr) -> str:
    """Normalized expression text; parse_ring_expr round-trips it."""
    row, values = _fields(expr)
    written = [_SLOTS[kind].write(v) for kind, v in values]
    size = written.pop(0) if row.sized else ""
    return f"{row.keyword}{size}({','.join(written)})"


# 4 301 digits, one more than Python prints: order bounds saturate just above.
_TEN_4300 = 10 ** 4300
ORDER_BOUND_CAP = _TEN_4300 + 1


def _capped_power(base: int, exp: int) -> int:
    """min(base**exp, ORDER_BOUND_CAP), with no power computed far past the cap."""
    if base >= 2 and (base.bit_length() - 1) * exp >= ORDER_BOUND_CAP.bit_length():
        return ORDER_BOUND_CAP  # base**exp >= 2**((bits - 1) * exp) > the cap
    return min(base ** exp, ORDER_BOUND_CAP)


def order_bound(expr: RingExpr) -> int:
    """Upper bound on the element count of the built ring, saturating at
    ORDER_BOUND_CAP: a bound of ORDER_BOUND_CAP means more than 10**4300."""
    coordinates = _coordinates(expr)
    if isinstance(expr, Zn):
        return min(expr.n, ORDER_BOUND_CAP)
    if isinstance(expr, Prod):
        total = 1
        for f in expr.factors:
            total = min(total * order_bound(f), ORDER_BOUND_CAP)
        return total
    if isinstance(expr, Idealize):
        base = order_bound(expr.inner)
        msize = base if isinstance(expr.module, SelfModule) else expr.module.m
        return min(base * msize, ORDER_BOUND_CAP)
    if isinstance(expr, (Corner, Quot)):
        return order_bound(expr.inner)
    return _capped_power(order_bound(expr.inner), coordinates)  # one inner ring per coordinate


# numpy indexes at most 64 dimensions; c coordinates of order >= 2 already make
# 2**c elements, so only rings over Z(1) reach this limit within the budget
_MAX_COORDINATES = 63


def _coordinates(expr: RingExpr) -> int:
    """The number of digits the node's own build puts on its inner rings."""
    return _row(expr).coordinates(expr)


# --- parser ------------------------------------------------------------------


# A token after ASCII whitespace; the classes are explicit because str.isspace and
# str.isdigit, like \s and \d, also accept '\u00a0', '\x1c', '²' and '𝟓'.
_TOKEN = re.compile(r"[ \t\n\r\x0b\x0c]*(?:(?P<name>[A-Za-z]+)|(?P<int>[0-9]+)"
                    r"|(?P<punct>[()\[\],])|(?P<other>.)|(?P<end>\Z))", re.DOTALL)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        """Return (kind, value, position) without consuming."""
        match = _TOKEN.match(self.text, self.pos)
        kind, value = match.lastgroup, match[match.lastgroup]
        start = match.end() - len(value)
        if kind == "other":
            raise ExprSyntaxError(f"unexpected character {value!r}", start)
        return kind, value.lower() if kind == "name" else value, start

    def take(self) -> tuple[str, str, int]:
        kind, value, start = self.peek()
        self.pos = start + len(value)
        return kind, value, start

    def expect_punct(self, ch: str) -> None:
        kind, value, pos = self.take()
        if kind != "punct" or value != ch:
            raise ExprSyntaxError(f"expected {ch!r}, found {value!r}", pos)

    def expect_int(self) -> int:
        kind, value, pos = self.take()
        if kind != "int":
            raise ExprSyntaxError(f"expected an integer, found {value!r}", pos)
        try:
            return int(value)
        except ValueError:  # more digits than Python converts
            raise ExprSyntaxError(f"integer of {len(value)} digits is too long", pos) from None

    def expect_name(self) -> tuple[str, int]:
        kind, value, pos = self.take()
        if kind != "name":
            raise ExprSyntaxError(f"expected a keyword, found {value!r}", pos)
        return value, pos

    def expect_list(self, read: Callable[[], object]) -> tuple:
        """One or more items, separated by commas."""
        items = [read()]
        while self.peek()[:2] == ("punct", ","):
            self.take()
            items.append(read())
        return tuple(items)


MAX_NESTING = 100  # constructor nesting depth the parser accepts


def _read_args(tokens: _Tokens, slots: Sequence[str], depth: int) -> list:
    """``(arg,...,arg)``, one argument of each slot kind; expressions among them
    sit at nesting depth ``depth``."""
    tokens.expect_punct("(")
    values = []
    for k, kind in enumerate(slots):
        if k:
            tokens.expect_punct(",")
        values.append(_SLOTS[kind].read(tokens, depth))
    tokens.expect_punct(")")
    return values


def _parse_expr(tokens: _Tokens, depth: int = 1) -> RingExpr:
    if depth > MAX_NESTING:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels",
                              tokens.peek()[2])
    name, pos = tokens.expect_name()
    row = _BY_KEYWORD.get(name)
    if row is None:
        raise ExprSyntaxError(f"unknown construction {name!r}", pos)
    size = [tokens.expect_int()] if row.sized else []
    return row.node(*size, *_read_args(tokens, row.slots, depth + 1))


def parse_ring_expr(text: str) -> RingExpr:
    """Parse the ring-expression grammar (whitespace- and case-insensitive)."""
    tokens = _Tokens(text)
    expr = _parse_expr(tokens)
    kind, value, pos = tokens.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {value!r}", pos)
    return expr


def _read_ids(tokens: _Tokens, depth: int) -> tuple[int, ...]:
    tokens.expect_punct("[")
    ids = () if tokens.peek()[:2] == ("punct", "]") else tokens.expect_list(tokens.expect_int)
    tokens.expect_punct("]")
    return ids


def _read_module(tokens: _Tokens, depth: int) -> ModuleSpec:
    name, pos = tokens.expect_name()
    if name == "self":
        return SelfModule()
    if name == "z":
        return CyclicModule(*_read_args(tokens, ("int",), depth))
    raise ExprSyntaxError(f"expected 'self' or 'Z(m)', found {name!r}", pos)


def _read_twist(tokens: _Tokens, depth: int) -> EndoSpec:
    name, pos = tokens.expect_name()
    if name == "id":
        return IdentityEndo()
    if name == "swap":
        return FactorPermutation(tuple(_read_args(tokens, ("int", "int"), depth)))
    raise ExprSyntaxError(f"expected 'id' or 'swap(i,j)', found {name!r}", pos)


class _Slot(NamedTuple):
    read: Callable[[_Tokens, int], object]  # given the depth of nested expressions
    write: Callable[[object], str]


_SLOTS = {
    "expr": _Slot(_parse_expr, expr_label),
    "exprs": _Slot(lambda tokens, depth: tokens.expect_list(lambda: _parse_expr(tokens, depth)),
                   lambda exprs: ",".join(map(expr_label, exprs))),
    "int": _Slot(lambda tokens, depth: tokens.expect_int(), str),
    "ids": _Slot(_read_ids, lambda ids: "[" + ",".join(map(str, ids)) + "]"),
    "module": _Slot(_read_module, lambda m: "self" if isinstance(m, SelfModule) else f"Z({m.m})"),
    "twist": _Slot(_read_twist,
                   lambda s: "id" if isinstance(s, IdentityEndo) else "swap(%s,%s)" % s.swap),
}


# --- builders ----------------------------------------------------------------

Terms = Sequence[Sequence[tuple[int, int, np.ndarray]]]


def _zn_products(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the multiplication table of Z(n), in uint32: for
    n <= MAX_ORDER, (n - 1)**2 < 2**32, so no product wraps.  They are reduced
    as p - (p // n) * n, which numpy computes several times faster than
    np.remainder."""
    wide, modulus = np.arange(n, dtype=np.uint32), np.uint32(n)
    products = np.multiply.outer(wide[start:stop], wide)
    quotients = products // modulus
    quotients *= modulus
    products -= quotients
    return products


def build_zn(n: int) -> RingTable:
    check_order(n)
    idx = np.arange(n, dtype=TABLE_DTYPE)
    # row a of add is idx rotated left by a: one copy of n windows of idx twice over
    add = np.lib.stride_tricks.sliding_window_view(np.concatenate([idx, idx]), n)[:n].copy()
    mul = np.empty((n, n), dtype=TABLE_DTYPE)
    # half a block of rows: the products and their quotients take ROW_BLOCK_ENTRIES
    rows = max(1, ROW_BLOCK_ENTRIES // 2 // n)
    for start in range(0, n, rows):
        mul[start:start + rows] = _zn_products(n, start, start + rows)
    # n - idx, not -idx: negation would wrap modulo 2**16, not modulo n
    neg = ((n - idx.astype(np.uint32)) % np.uint32(n)).astype(TABLE_DTYPE)
    add.flags.writeable = mul.flags.writeable = neg.flags.writeable = False  # uncopied by RingTable
    return ring_table(n, add, mul, neg, 0, 1 % n, f"Z({n})", name_fn=str)


def _place_values(sizes: Sequence[int]) -> list[int]:
    """The place value of each digit of a mixed-radix code, last digit fastest."""
    return [math.prod(sizes[k + 1:]) for k in range(len(sizes))]


# numpy's unravel_index and ravel_multi_index take at most 32 sizes before
# numpy 2.0, so digits and codes come from the place values
def _digit_vectors(sizes: Sequence[int]) -> list[np.ndarray]:
    """Digit k of every code 0 .. prod(sizes) - 1."""
    codes = np.arange(math.prod(sizes))
    return [codes // place % size for place, size in zip(_place_values(sizes), sizes)]


def _encode(digits: Sequence, sizes: Sequence[int]) -> Union[int, np.ndarray]:
    """The codes of digit vectors given digit by digit (ints or arrays).

    A digit of order 1 is 0 and is skipped, so every place value read is at
    most half the order and each term and partial sum stays below the order:
    uint16 digits give uint16 codes, with no term wrapping.
    """
    terms = [d * place for d, place, size in zip(digits, _place_values(sizes), sizes) if size > 1]
    return sum(terms[1:], terms[0]) if terms else digits[0]  # with no such digit, every code is 0


def _blocks(shape: tuple[int, ...]) -> Iterator[tuple[slice, ...]]:
    """Slices that cut an array of ``shape`` into blocks of at most
    ROW_BLOCK_ENTRIES entries (or of one entry): each block fixes the leading
    axes and slices the next one."""
    entries, fixed = math.prod(shape), 0
    while entries > ROW_BLOCK_ENTRIES:
        entries //= shape[fixed]
        fixed += 1
    if not fixed:
        yield (slice(None),) * len(shape)
        return
    step, rest = ROW_BLOCK_ENTRIES // entries, (slice(None),) * (len(shape) - fixed)
    for lead in np.ndindex(*shape[:fixed - 1]):
        for start in range(0, shape[fixed - 1], step):
            yield tuple(slice(x, x + 1) for x in lead) + (slice(start, start + step),) + rest


def _window(block: tuple[slice, ...], shape: tuple[int, ...]) -> tuple[slice, ...]:
    """The block's slices on an array of ``shape`` that broadcasts over its axes."""
    return tuple(s if n > 1 else slice(None) for s, n in zip(block, shape))


def _coordinate_table(parts: Sequence[RingTable], terms: Terms) -> np.ndarray:
    """Table whose digit k at (a, b) is the parts[k]-sum of table[a_i, b_j]
    over the (i, j, table) entries of terms[k].

    The table is filled through its view with one axis per digit of a, then one
    per digit of b; a digit of order 1 is always 0 and takes no axis. Each term
    is its small table on the axes (a_i, b_j), so digit k is summed on the
    broadcast grid of only the digits its terms read, then added in at its
    place value. A grid of more than ROW_BLOCK_ENTRIES entries is summed in
    blocks that fix its leading axes and slice the next one.
    """
    sizes = [p.order for p in parts]
    order = math.prod(sizes)
    live = [k for k, size in enumerate(sizes) if size > 1]
    axis = {k: a for a, k in enumerate(live)}
    out = np.zeros((order, order), dtype=TABLE_DTYPE)
    view = out.reshape([sizes[k] for k in live] * 2)
    for k, (part, place, digit_terms) in enumerate(zip(parts, _place_values(sizes), terms)):
        if k not in axis:
            continue
        values = []
        for i, j, table in digit_terms:
            shape = [1] * view.ndim
            if i in axis:
                shape[axis[i]] = sizes[i]
            if j in axis:
                shape[len(live) + axis[j]] = sizes[j]
            # a digit of order 1 reads only row or column 0; a term table of
            # another dtype (idealize's int64 Z(m) action) is cast to uint16
            term = table[:sizes[i], :sizes[j]].astype(TABLE_DTYPE, copy=False)
            values.append(term.reshape(shape))
        grid = np.broadcast_shapes(*(v.shape for v in values))
        for block in _blocks(grid):
            acc = None
            for v in values:
                value = v[_window(block, v.shape)]
                acc = value if acc is None else part.add[acc, value]
            # acc < sizes[k], so acc * place < order: no uint16 product or sum wraps
            view[_window(block, grid)] += acc * TABLE_DTYPE(place)
    return out


def _coordinate_ring(parts: Sequence[RingTable], terms: Terms, one: Sequence[int],
                     label: str, name: Callable[[tuple[int, ...]], str]) -> RingTable:
    """Ring on digit vectors over ``parts`` (last digit fastest), added digit by
    digit, with digit k of a product given by the term list ``terms[k]``; an
    element is named ``name`` of its digit vector, on first read."""
    sizes = [p.order for p in parts]
    check_order(math.prod(sizes))
    digits = _digit_vectors(sizes)
    add = _coordinate_table(parts, [[(k, k, p.add)] for k, p in enumerate(parts)])
    mul = _coordinate_table(parts, terms)
    neg = _encode([p.neg[d] for p, d in zip(parts, digits)], sizes)
    zero = _encode([p.zero for p in parts], sizes)
    places = _place_values(sizes)

    def name_fn(x: int) -> str:
        return name(tuple(x // place % size for place, size in zip(places, sizes)))

    add.flags.writeable = mul.flags.writeable = neg.flags.writeable = False
    return ring_table(math.prod(sizes), add, mul, neg, zero, _encode(one, sizes),
                      label, None, parts, name_fn)


def build_product(factors: Sequence[RingTable], label: str) -> RingTable:
    terms = [[(k, k, f.mul)] for k, f in enumerate(factors)]
    return _coordinate_ring(
        factors, terms, [f.one for f in factors], label,
        lambda v: "(" + ",".join(f.name_of(x) for f, x in zip(factors, v)) + ")",
    )


# the least size of each shape (a matrix kind, or skew with its truncation degree)
_LEAST_SIZES = {"M": (1, "matrix dimension must be >= 1"),
                "T": (1, "matrix dimension must be >= 1"),
                "eqdiag": (2, "equal-diagonal subring needs k >= 2"),
                "skew": (1, "truncation degree must be >= 1")}


def _check_size(shape: str, k: int) -> None:
    least, message = _LEAST_SIZES[shape]
    if k < least:
        raise InvalidDimensionError(f"{message}, got {k}")


def _build_matrix_kind(shape: str, k: int, inner: RingTable, label: str) -> RingTable:
    """M_k, T_k or the equal-diagonal subring of T_k, by ``shape`` (M, T or eqdiag).

    For eqdiag, coordinate 0 is the common diagonal value and the remaining
    coordinates fill the strict upper triangle; otherwise the coordinates are
    exactly the stored positions.
    """
    _check_size(shape, k)
    diag_coord = shape == "eqdiag"
    coords = ([(0, 0)] if diag_coord else []) + [
        (i, j) for i in range(k) for j in range(k) if shape == "M" or j >= i + diag_coord]
    slot = {pos: c for c, pos in enumerate(coords)}
    if diag_coord:
        slot.update({(i, i): 0 for i in range(k)})
    terms = [[(slot[i, l], slot[l, j], inner.mul) for l in range(k)
              if (i, l) in slot and (l, j) in slot] for i, j in coords]
    one = [inner.one if i == j else inner.zero for i, j in coords]
    zero_name = inner.name_of(inner.zero)

    def name(v: tuple[int, ...]) -> str:
        rows = ("[" + ",".join(inner.name_of(v[slot[i, j]]) if (i, j) in slot else zero_name
                               for j in range(k)) + "]" for i in range(k))
        return "[" + ",".join(rows) + "]"

    return _coordinate_ring([inner] * len(coords), terms, one, label, name)


def eq_diag_subring(k: int, inner: RingTable, label: Optional[str] = None) -> RingTable:
    """Subring of T_k(R) with constant diagonal, as its own ring."""
    return _build_matrix_kind("eqdiag", k, inner, label or f"eqdiag{k}({inner.label})")


def build_idealize(expr: Idealize, label: str, inner: RingTable,
                   module: ModuleSpec) -> RingTable:
    """Trivial extension on R + M with (r,m)(r',m') = (rr', rm' + mr'), R being
    the built ``inner``. R acts on M = R by its own multiplication, and Z(n) on
    M = Z(m) by multiplication mod m."""
    if isinstance(module, SelfModule):
        module, left, right = inner, inner.mul, inner.mul
    else:
        if not isinstance(expr.inner, Zn):
            raise InvalidModuleError("Z(m) modules attach only to Z(n) base rings")
        m, n = module.m, expr.inner.n
        if m < 1 or n % m != 0:
            raise InvalidModuleError(f"Z({m}) is not a module over Z({n}): {m} does not divide {n}")
        left = np.arange(n)[:, None] * np.arange(m)[None, :] % m
        module, right = build_zn(m), left.T
    terms = [[(0, 0, inner.mul)], [(0, 1, left), (1, 0, right)]]
    return _coordinate_ring(
        [inner, module], terms, [inner.one, module.zero], label,
        lambda v: f"({inner.name_of(v[0])},{module.name_of(v[1])})",
    )


def _restrict(ring: RingTable, keep: np.ndarray, relabel: np.ndarray, one: int,
              label: str, name_format: str) -> RingTable:
    """The tables of ``ring`` on the ids ``keep``, renamed through ``relabel``; the
    new id i is named name_format.format(the parent's name of keep[i])."""
    parent_name = ring.name_fn or str

    def name_fn(x: int) -> str:  # reads the parent's names, not the parent
        return name_format.format(parent_name(int(keep[x])))

    if len(keep) == ring.order:
        # both callers rename the kept ids in order, so keeping all of them is the
        # identity (1R1, R/{0}): the ring's own read-only tables, and its interned core
        return ring_table(ring.order, ring.add, ring.mul, ring.neg, ring.zero, one, label,
                          name_fn=name_fn)
    # gathered straight into the table dtype; an id outside keep, which only a
    # table that is not a ring reaches, stays out of range (-1 reads as 65 535)
    relabel = relabel.astype(TABLE_DTYPE)
    rows = keep[:, None]
    add = relabel[ring.add[rows, keep]]
    mul = relabel[ring.mul[rows, keep]]
    neg = relabel[ring.neg[keep]]
    add.flags.writeable = mul.flags.writeable = neg.flags.writeable = False
    return ring_table(len(keep), add, mul, neg, relabel[ring.zero], relabel[one], label,
                      name_fn=name_fn)


def _check_idempotent(ring: RingTable, f: int) -> None:
    """Refuse an f that is no element id of ring, or no idempotent of it."""
    ring.check_element(f)
    if int(ring.mul[f, f]) != f:
        raise InvalidIdempotentError(f"element {f} of {ring.label} is not idempotent")


def corner(ring: RingTable, f: int) -> tuple[RingTable, tuple[int, ...]]:
    """Corner ring fRf with unity f, plus the embedding of its ids back into R."""
    _check_idempotent(ring, f)
    mask = np.zeros(ring.order, dtype=bool)
    mask[ring.mul[f, ring.mul[:, f]]] = True
    members = np.flatnonzero(mask)
    table = _restrict(ring, members, np.cumsum(mask) - 1, f, f"corner({ring.label},{f})", "{}")
    return table, tuple(members.tolist())


def quotient(ring: RingTable, ideal: Subset,
             label: Optional[str] = None) -> tuple[RingTable, tuple[int, ...]]:
    """Quotient by a two-sided ideal, plus the projection map R -> R/I.

    Coset representatives are the minimal element ids; cosets are indexed in
    representative order.
    """
    members = _ideal_members(ring, ideal)
    if label is None:
        label = f"quot({ring.label},[{','.join(str(m) for m in members)}])"
    rep_of, reps = _coset_labels(ring, members)
    proj = np.searchsorted(reps, rep_of)
    return _restrict(ring, reps, proj, ring.one, label, "[{}]"), tuple(proj.tolist())


def _validate_endomorphism(ring: RingTable, sigma: np.ndarray) -> None:
    if sigma.shape != (ring.order,):
        raise InvalidEndomorphismError("twisting map has the wrong domain size")
    if sigma.size and (sigma.min() < 0 or sigma.max() >= ring.order):
        raise InvalidEndomorphismError(
            f"twisting map holds an element id outside 0..{ring.order - 1}"
        )
    if int(sigma[ring.one]) != ring.one:
        raise InvalidEndomorphismError("twisting map does not fix 1")
    add_ok = np.array_equal(sigma[ring.add], ring.add[np.ix_(sigma, sigma)])
    mul_ok = np.array_equal(sigma[ring.mul], ring.mul[np.ix_(sigma, sigma)])
    if not (add_ok and mul_ok):
        raise InvalidEndomorphismError("twisting map is not a ring endomorphism")


def skew_poly_quot(ring: RingTable, sigma: Optional[Sequence[int]], trunc: int,
                   label: Optional[str] = None) -> RingTable:
    """Truncated twisted polynomial ring: x*a = sigma(a)*x and x**trunc = 0.

    ``sigma`` is an element-id table (None means the identity); it is checked
    exhaustively to be a unital ring endomorphism.
    """
    _check_size("skew", trunc)
    n = ring.order
    sig = np.arange(n) if sigma is None else np.asarray(sigma, dtype=np.int64)
    _validate_endomorphism(ring, sig)
    # a_i x^i * b_j x^j = a_i sigma^i(b_j) x^(i+j)
    twisted = [ring.mul]
    for _ in range(1, trunc):
        twisted.append(twisted[-1][:, sig])
    terms = [[(i, c - i, twisted[i]) for i in range(c + 1)] for c in range(trunc)]
    zero_name = ring.name_of(ring.zero)

    def poly_name(cs: tuple[int, ...]) -> str:
        monomials = []
        for i, v in enumerate(cs):
            if v == ring.zero:
                continue
            base = ring.name_of(v)
            monomials.append(base if i == 0 else (f"{base}x" if i == 1 else f"{base}x^{i}"))
        return "+".join(monomials) if monomials else zero_name

    if label is None:
        sigma_txt = "id" if sigma is None else "sigma"
        label = f"skew({ring.label},{sigma_txt},{trunc})"
    one = [ring.one] + [ring.zero] * (trunc - 1)
    return _coordinate_ring([ring] * trunc, terms, one, label, poly_name)


def _skew_ring(expr: SkewPolyQuot, label: str, inner: RingTable, endo: EndoSpec,
               n: int) -> RingTable:
    """skew_poly_quot twisted by the identity, or by the automorphism of a
    product ring that swaps two factors of the same order."""
    if isinstance(endo, IdentityEndo):
        return skew_poly_quot(inner, None, n, label)
    if not isinstance(expr.inner, Prod):
        raise InvalidEndomorphismError("factor swaps are only defined on product rings")
    (i, j), count = endo.swap, len(inner.components)
    if not (1 <= i <= count and 1 <= j <= count) or i == j:
        raise InvalidEndomorphismError(
            f"swap({i},{j}) is not a valid factor pair for {count} factors"
        )
    sizes = [f.order for f in inner.components]
    if sizes[i - 1] != sizes[j - 1]:
        raise InvalidEndomorphismError(
            f"swap({i},{j}) permutes factors of different orders"
        )
    digits = _digit_vectors(sizes)
    digits[i - 1], digits[j - 1] = digits[j - 1], digits[i - 1]
    return skew_poly_quot(inner, _encode(digits, sizes), n, label)


# --- the constructor table --------------------------------------------------


class _Constructor(NamedTuple):
    """``keyword[size](slot,...,slot)``: the node's fields are the size, when
    ``sized``, then one per slot, each of a kind in _SLOTS."""

    keyword: str
    node: type
    sized: bool
    slots: tuple[str, ...]
    coordinates: Callable[..., int]  # the digits its build puts on its inner rings
    # make(node, label, *fields): the node's ring, its expr/exprs fields built
    make: Callable[..., RingTable]
    # the shape whose least size the node's one int field must reach, checked
    # before any inner expression is built
    shape: Optional[str] = None


# The builders look module-level names up when called, so a rebound build,
# corner or quotient (a tracer's or a test's) takes effect inside build too.
_GRAMMAR = (
    _Constructor("Z", Zn, False, ("int",), lambda e: 0, lambda e, label, n: build_zn(n)),
    _Constructor("prod", Prod, False, ("exprs",), lambda e: len(e.factors),
                 lambda e, label, factors: build_product(factors, label)),
    _Constructor("M", Mat, True, ("expr",), lambda e: e.k * e.k,
                 lambda e, label, k, r: _build_matrix_kind("M", k, r, label), "M"),
    _Constructor("T", Tri, True, ("expr",), lambda e: e.k * (e.k + 1) // 2,
                 lambda e, label, k, r: _build_matrix_kind("T", k, r, label), "T"),
    _Constructor("eqdiag", EqDiag, True, ("expr",), lambda e: 1 + e.k * (e.k - 1) // 2,
                 lambda e, label, k, r: _build_matrix_kind("eqdiag", k, r, label), "eqdiag"),
    _Constructor("idealize", Idealize, False, ("expr", "module"), lambda e: 2, build_idealize),
    _Constructor("corner", Corner, False, ("expr", "int"), lambda e: 0,
                 lambda e, label, r, f: corner(r, f)[0]),
    _Constructor("quot", Quot, False, ("expr", "ids"), lambda e: 0,
                 lambda e, label, r, gens: quotient(r, ideal_generated_by(r, gens), label)[0]),
    _Constructor("skew", SkewPolyQuot, False, ("expr", "twist", "int"), lambda e: e.n, _skew_ring,
                 "skew"),
)
_BY_KEYWORD = {row.keyword.lower(): row for row in _GRAMMAR}
_BY_NODE = {row.node: row for row in _GRAMMAR}


def _count_text(count: int) -> str:
    """The count as Python prints it, saturated past 10**4300."""
    if count < _TEN_4300:
        return str(count)
    return "10**4300" if count == _TEN_4300 else "more than 10**4300"


def _check_budget(expr: RingExpr, limit: int) -> None:
    bound = order_bound(expr)
    if bound > limit:
        raise CapacityError(
            f"{expr_label(expr)} needs {_count_text(bound)} elements, over the budget of {limit}"
        )
    if bound > MAX_ORDER:
        raise CapacityError(f"{expr_label(expr)} needs {_count_text(bound)} elements, over the "
                            f"limit of {MAX_ORDER} that uint16 tables hold")
    coordinates = _coordinates(expr)
    if coordinates > _MAX_COORDINATES:
        raise CapacityError(f"{expr_label(expr)} needs {_count_text(coordinates)} coordinates, "
                            f"over the limit of {_MAX_COORDINATES}")


# While run_suite runs, its dict of the rings build() made, by expression, least
# recent first: each of at most ROW_BLOCK_ENTRIES table entries and at most that
# many in all.  None elsewhere, so that build() returns a fresh ring on every call.
_shared_rings: ContextVar[Optional[dict]] = ContextVar("_shared_rings", default=None)


def build(expr: RingExpr, budget: Optional[int] = None) -> RingTable:
    """Elaborate a ring expression into a RingTable: check the budget and the
    node's size, build the inner expressions through this module's ``build``,
    then call the row's ``make``. Table shapes and entry ranges are checked,
    ring axioms are not.  While _shared_rings holds a dict, the ring kept there
    for an equal expression is returned instead."""
    _check_budget(expr, size_budget(budget))
    kept = _shared_rings.get()
    ring = None if kept is None else kept.pop(expr, None)
    if ring is None:
        row, values = _fields(expr)
        if row.shape is not None:
            _check_size(row.shape, next(v for kind, v in values if kind == "int"))
        built = [build(v, budget) if kind == "expr"
                 else [build(f, budget) for f in v] if kind == "exprs" else v
                 for kind, v in values]
        ring = row.make(expr, expr_label(expr), *built)
    if kept is not None and ring.core.add.size <= ROW_BLOCK_ENTRIES:
        kept[expr] = ring  # now the most recent
        while sum(kept_ring.core.add.size for kept_ring in kept.values()) > ROW_BLOCK_ENTRIES:
            del kept[next(iter(kept))]
    return ring


def build_text(text: str, budget: Optional[int] = None) -> RingTable:
    """Parse and build in one step."""
    return build(parse_ring_expr(text), budget)
