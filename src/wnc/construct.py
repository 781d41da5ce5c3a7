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
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    CapacityError,
    CrossRingError,
    ExprSyntaxError,
    InvalidEndomorphismError,
    InvalidIdealError,
    InvalidIdempotentError,
    InvalidModuleError,
    TableFormatError,
)
from .structure import Subset, ideal_generated_by
from .table import ROW_BLOCK_ENTRIES, RingTable, _memoised, ring_table

DEFAULT_SIZE_BUDGET = 20_000
SIZE_BUDGET_ENV = "WNC_SIZE_BUDGET"


def size_budget(override: Optional[int] = None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(SIZE_BUDGET_ENV)
    if not raw:
        return DEFAULT_SIZE_BUDGET
    try:
        limit = int(raw)
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


def expr_label(expr: RingExpr) -> str:
    """Normalized expression text; parse_ring_expr round-trips it."""
    if isinstance(expr, Zn):
        return f"Z({expr.n})"
    if isinstance(expr, Prod):
        return "prod(" + ",".join(expr_label(f) for f in expr.factors) + ")"
    if isinstance(expr, Mat):
        return f"M{expr.k}({expr_label(expr.inner)})"
    if isinstance(expr, Tri):
        return f"T{expr.k}({expr_label(expr.inner)})"
    if isinstance(expr, EqDiag):
        return f"eqdiag{expr.k}({expr_label(expr.inner)})"
    if isinstance(expr, Idealize):
        mod = "self" if isinstance(expr.module, SelfModule) else f"Z({expr.module.m})"
        return f"idealize({expr_label(expr.inner)},{mod})"
    if isinstance(expr, Corner):
        return f"corner({expr_label(expr.inner)},{expr.index})"
    if isinstance(expr, Quot):
        return f"quot({expr_label(expr.inner)},[{','.join(str(g) for g in expr.gens)}])"
    if isinstance(expr, SkewPolyQuot):
        if isinstance(expr.endo, IdentityEndo):
            endo = "id"
        else:
            i, j = expr.endo.swap
            endo = f"swap({i},{j})"
        return f"skew({expr_label(expr.inner)},{endo},{expr.n})"
    raise TypeError(f"not a ring expression: {expr!r}")


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
    if isinstance(expr, Zn):
        return min(expr.n, ORDER_BOUND_CAP)
    if isinstance(expr, Prod):
        total = 1
        for f in expr.factors:
            total = min(total * order_bound(f), ORDER_BOUND_CAP)
        return total
    if isinstance(expr, (Mat, Tri, EqDiag, SkewPolyQuot)):
        return _capped_power(order_bound(expr.inner), _coordinates(expr))
    if isinstance(expr, Idealize):
        base = order_bound(expr.inner)
        msize = base if isinstance(expr.module, SelfModule) else expr.module.m
        return min(base * msize, ORDER_BOUND_CAP)
    if isinstance(expr, (Corner, Quot)):
        return order_bound(expr.inner)
    raise TypeError(f"not a ring expression: {expr!r}")


# numpy indexes at most 64 dimensions; c coordinates of order >= 2 already make
# 2**c elements, so only rings over Z(1) reach this limit within the budget
_MAX_COORDINATES = 63


def _coordinates(expr: RingExpr) -> int:
    """The number of digits the node's own build puts on its inner rings."""
    if isinstance(expr, Zn):
        return 0
    if isinstance(expr, Prod):
        return len(expr.factors)
    if isinstance(expr, Mat):
        return expr.k * expr.k
    if isinstance(expr, Tri):
        return expr.k * (expr.k + 1) // 2
    if isinstance(expr, EqDiag):
        return 1 + expr.k * (expr.k - 1) // 2
    if isinstance(expr, SkewPolyQuot):
        return expr.n
    return 2 if isinstance(expr, Idealize) else 0


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


MAX_NESTING = 100  # constructor nesting depth the parser accepts


def _parse_expr(tokens: _Tokens, depth: int = 1) -> RingExpr:
    if depth > MAX_NESTING:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels",
                              tokens.peek()[2])
    name, pos = tokens.expect_name()
    if name == "z":
        tokens.expect_punct("(")
        n = tokens.expect_int()
        tokens.expect_punct(")")
        return Zn(n)
    if name == "prod":
        tokens.expect_punct("(")
        factors = [_parse_expr(tokens, depth + 1)]
        while tokens.peek()[:2] == ("punct", ","):
            tokens.take()
            factors.append(_parse_expr(tokens, depth + 1))
        tokens.expect_punct(")")
        return Prod(tuple(factors))
    if name in ("m", "t", "eqdiag"):
        k = tokens.expect_int()
        tokens.expect_punct("(")
        inner = _parse_expr(tokens, depth + 1)
        tokens.expect_punct(")")
        return {"m": Mat, "t": Tri, "eqdiag": EqDiag}[name](k, inner)
    if name == "idealize":
        tokens.expect_punct("(")
        inner = _parse_expr(tokens, depth + 1)
        tokens.expect_punct(",")
        mod_name, mod_pos = tokens.expect_name()
        if mod_name == "self":
            module: ModuleSpec = SelfModule()
        elif mod_name == "z":
            tokens.expect_punct("(")
            m = tokens.expect_int()
            tokens.expect_punct(")")
            module = CyclicModule(m)
        else:
            raise ExprSyntaxError(f"expected 'self' or 'Z(m)', found {mod_name!r}", mod_pos)
        tokens.expect_punct(")")
        return Idealize(inner, module)
    if name == "corner":
        tokens.expect_punct("(")
        inner = _parse_expr(tokens, depth + 1)
        tokens.expect_punct(",")
        index = tokens.expect_int()
        tokens.expect_punct(")")
        return Corner(inner, index)
    if name == "quot":
        tokens.expect_punct("(")
        inner = _parse_expr(tokens, depth + 1)
        tokens.expect_punct(",")
        tokens.expect_punct("[")
        gens: list[int] = []
        if tokens.peek()[:2] != ("punct", "]"):
            gens.append(tokens.expect_int())
            while tokens.peek()[:2] == ("punct", ","):
                tokens.take()
                gens.append(tokens.expect_int())
        tokens.expect_punct("]")
        tokens.expect_punct(")")
        return Quot(inner, tuple(gens))
    if name == "skew":
        tokens.expect_punct("(")
        inner = _parse_expr(tokens, depth + 1)
        tokens.expect_punct(",")
        endo_name, endo_pos = tokens.expect_name()
        if endo_name == "id":
            endo: EndoSpec = IdentityEndo()
        elif endo_name == "swap":
            tokens.expect_punct("(")
            i = tokens.expect_int()
            tokens.expect_punct(",")
            j = tokens.expect_int()
            tokens.expect_punct(")")
            endo = FactorPermutation((i, j))
        else:
            raise ExprSyntaxError(f"expected 'id' or 'swap(i,j)', found {endo_name!r}", endo_pos)
        tokens.expect_punct(",")
        trunc = tokens.expect_int()
        tokens.expect_punct(")")
        return SkewPolyQuot(inner, endo, trunc)
    raise ExprSyntaxError(f"unknown construction {name!r}", pos)


def parse_ring_expr(text: str) -> RingExpr:
    """Parse the ring-expression grammar (whitespace- and case-insensitive)."""
    tokens = _Tokens(text)
    expr = _parse_expr(tokens)
    kind, value, pos = tokens.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {value!r}", pos)
    return expr


# --- builders ----------------------------------------------------------------

Terms = Sequence[Sequence[tuple[int, int, np.ndarray]]]


def build_zn(n: int) -> RingTable:
    if n < 1:
        raise TableFormatError(f"ring order must be positive, got {n}")
    idx = np.arange(n, dtype=np.int32)
    # row a of add is idx rotated left by a: one copy of n windows of idx twice over
    add = np.lib.stride_tricks.sliding_window_view(np.concatenate([idx, idx]), n)[:n].copy()
    # (n-1)**2 overflows int32 above n = 46 341; the floor-mod of a wrapped
    # product would still land in [0, n) and pass the range check.
    wide = idx.astype(np.int64) if (n - 1) ** 2 > np.iinfo(np.int32).max else idx
    mul = np.multiply.outer(wide, wide)
    mul -= mul // n * n
    neg = (-idx) % n
    names = tuple(map(str, range(n)))
    add.flags.writeable = mul.flags.writeable = neg.flags.writeable = False  # uncopied by RingTable
    return ring_table(n, add, mul, neg, 0, 1 % n, f"Z({n})", names)


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
    """The codes of digit vectors given digit by digit (ints or arrays)."""
    return sum(d * place for d, place in zip(digits, _place_values(sizes)))


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
    out = np.zeros((order, order), dtype=np.int32)
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
            # a digit of order 1 reads only row or column 0
            values.append(table[:sizes[i], :sizes[j]].reshape(shape))
        grid = np.broadcast_shapes(*(v.shape for v in values))
        for block in _blocks(grid):
            acc = None
            for v in values:
                value = v[_window(block, v.shape)]
                acc = value if acc is None else part.add[acc, value]
            view[_window(block, grid)] += acc * place
    return out


def _coordinate_ring(parts: Sequence[RingTable], terms: Terms, one: Sequence[int],
                     label: str, name: Callable[[tuple[int, ...]], str]) -> RingTable:
    """Ring on digit vectors over ``parts`` (last digit fastest), added digit by
    digit, with digit k of a product given by the term list ``terms[k]``."""
    sizes = [p.order for p in parts]
    digits = _digit_vectors(sizes)
    add = _coordinate_table(parts, [[(k, k, p.add)] for k, p in enumerate(parts)])
    mul = _coordinate_table(parts, terms)
    neg = _encode([p.neg[d] for p, d in zip(parts, digits)], sizes)
    zero = _encode([p.zero for p in parts], sizes)
    names = tuple(name(v) for v in zip(*(d.tolist() for d in digits)))
    add.flags.writeable = mul.flags.writeable = neg.flags.writeable = False
    return ring_table(math.prod(sizes), add, mul, neg, zero, _encode(one, sizes),
                      label, names, parts)


def build_product(factors: Sequence[RingTable], label: str) -> RingTable:
    terms = [[(k, k, f.mul)] for k, f in enumerate(factors)]
    return _coordinate_ring(
        factors, terms, [f.one for f in factors], label,
        lambda v: "(" + ",".join(f.name_of(x) for f, x in zip(factors, v)) + ")",
    )


def _build_matrix_kind(inner: RingTable, k: int, positions: list[tuple[int, int]],
                       diag_coord: bool, label: str) -> RingTable:
    """Shared builder for M_k, T_k and the equal-diagonal subring of T_k.

    When diag_coord is true, coordinate 0 is the common diagonal value and the
    remaining coordinates fill ``positions``; otherwise the coordinates are
    exactly ``positions``.
    """
    coords = ([(0, 0)] if diag_coord else []) + positions
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


def build_mat(k: int, inner: RingTable, label: Optional[str] = None) -> RingTable:
    if k < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {k}")
    positions = [(i, j) for i in range(k) for j in range(k)]
    return _build_matrix_kind(inner, k, positions, False, label or f"M{k}({inner.label})")


def build_tri(k: int, inner: RingTable, label: Optional[str] = None) -> RingTable:
    if k < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {k}")
    positions = [(i, j) for i in range(k) for j in range(i, k)]
    return _build_matrix_kind(inner, k, positions, False, label or f"T{k}({inner.label})")


def eq_diag_subring(k: int, inner: RingTable, label: Optional[str] = None) -> RingTable:
    """Subring of T_k(R) with constant diagonal, as its own ring."""
    if k < 2:
        raise ValueError(f"equal-diagonal subring needs k >= 2, got {k}")
    positions = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return _build_matrix_kind(inner, k, positions, True, label or f"eqdiag{k}({inner.label})")


def build_idealize(inner: RingTable, module: RingTable, left: np.ndarray,
                   right: np.ndarray, label: str) -> RingTable:
    """Trivial extension on R + M with (r,m)(r',m') = (rr', rm' + mr').

    ``module`` carries the additive group of M; ``left[r, m]`` is the left
    action r*m and ``right[m, r]`` the right action m*r.
    """
    terms = [[(0, 0, inner.mul)], [(0, 1, left), (1, 0, right)]]
    return _coordinate_ring(
        [inner, module], terms, [inner.one, module.zero], label,
        lambda v: f"({inner.name_of(v[0])},{module.name_of(v[1])})",
    )


def _restrict(ring: RingTable, keep: np.ndarray, relabel: np.ndarray, one: int,
              label: str, names: Sequence[str]) -> RingTable:
    """The tables of ``ring`` on the ids ``keep``, renamed through ``relabel``."""
    if len(keep) == ring.order:
        # both callers rename the kept ids in order, so keeping all of them is the
        # identity (1R1, R/{0}): the ring's own read-only tables, and its interned core
        return ring_table(ring.order, ring.add, ring.mul, ring.neg, ring.zero, one, label, names)
    relabel = relabel.astype(np.int32)  # gather straight into the table dtype
    rows = keep[:, None]
    add = relabel[ring.add[rows, keep]]
    mul = relabel[ring.mul[rows, keep]]
    neg = relabel[ring.neg[keep]]
    add.flags.writeable = mul.flags.writeable = neg.flags.writeable = False
    return ring_table(len(keep), add, mul, neg, relabel[ring.zero], relabel[one], label, names)


@_memoised
def corner(ring: RingTable, f: int) -> tuple[RingTable, tuple[int, ...]]:
    """Corner ring fRf with unity f, plus the embedding of its ids back into R."""
    ring.check_element(f)
    mul = ring.mul
    if int(mul[f, f]) != f:
        raise InvalidIdempotentError(f"element {f} of {ring.label} is not idempotent")
    mask = np.zeros(ring.order, dtype=bool)
    mask[mul[f, mul[:, f]]] = True
    members = np.flatnonzero(mask)
    table = _restrict(ring, members, np.cumsum(mask) - 1, f, f"corner({ring.label},{f})",
                      [ring.name_of(x) for x in members.tolist()])
    return table, tuple(members.tolist())


def quotient(ring: RingTable, ideal: Subset,
             label: Optional[str] = None) -> tuple[RingTable, tuple[int, ...]]:
    """Quotient by a two-sided ideal, plus the projection map R -> R/I.

    Coset representatives are the minimal element ids; cosets are indexed in
    representative order.
    """
    if ideal.ring is not ring:
        raise CrossRingError("ideal belongs to a different ring")
    members = ideal.sorted_members()
    if not ideal.is_two_sided_ideal:
        raise InvalidIdealError(f"{list(members)} is not a two-sided ideal of {ring.label}")
    if label is None:
        label = f"quot({ring.label},[{','.join(str(m) for m in members)}])"
    return _quotient(ring, members, label)


# keyed on the sorted members, not the Subset, which holds the ring
@_memoised
def _quotient(ring: RingTable, members: tuple[int, ...],
              label: str) -> tuple[RingTable, tuple[int, ...]]:
    # x represents its coset x + I when it is the coset's minimal element
    rep_of = ring.add[:, list(members)].min(axis=1)
    reps = np.flatnonzero(rep_of == np.arange(ring.order))
    proj = np.searchsorted(reps, rep_of)
    names = [f"[{ring.name_of(x)}]" for x in reps.tolist()]
    return _restrict(ring, reps, proj, ring.one, label, names), tuple(proj.tolist())


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
    if trunc < 1:
        raise ValueError(f"truncation degree must be >= 1, got {trunc}")
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


def _resolve_factor_swap(endo: FactorPermutation, factors: Sequence[RingTable]) -> np.ndarray:
    """The product-ring automorphism swapping two factors, as an id table."""
    i, j = endo.swap
    count = len(factors)
    if not (1 <= i <= count and 1 <= j <= count) or i == j:
        raise InvalidEndomorphismError(
            f"swap({i},{j}) is not a valid factor pair for {count} factors"
        )
    sizes = [f.order for f in factors]
    if sizes[i - 1] != sizes[j - 1]:
        raise InvalidEndomorphismError(
            f"swap({i},{j}) permutes factors of different orders"
        )
    digits = _digit_vectors(sizes)
    digits[i - 1], digits[j - 1] = digits[j - 1], digits[i - 1]
    return _encode(digits, sizes)


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
    coordinates = _coordinates(expr)
    if coordinates > _MAX_COORDINATES:
        raise CapacityError(f"{expr_label(expr)} needs {_count_text(coordinates)} coordinates, "
                            f"over the limit of {_MAX_COORDINATES}")


def build(expr: RingExpr, budget: Optional[int] = None) -> RingTable:
    """Elaborate a ring expression into a RingTable.

    Its table shapes and entry ranges are checked, its ring axioms are not.
    """
    _check_budget(expr, size_budget(budget))
    if isinstance(expr, Zn):
        return build_zn(expr.n)
    if isinstance(expr, Prod):
        factors = [build(f, budget) for f in expr.factors]
        return build_product(factors, expr_label(expr))
    if isinstance(expr, Mat):
        return build_mat(expr.k, build(expr.inner, budget), expr_label(expr))
    if isinstance(expr, Tri):
        return build_tri(expr.k, build(expr.inner, budget), expr_label(expr))
    if isinstance(expr, EqDiag):
        return eq_diag_subring(expr.k, build(expr.inner, budget), expr_label(expr))
    if isinstance(expr, Idealize):
        inner = build(expr.inner, budget)
        if isinstance(expr.module, SelfModule):
            return build_idealize(inner, inner, inner.mul, inner.mul, expr_label(expr))
        if not isinstance(expr.inner, Zn):
            raise InvalidModuleError("Z(m) modules attach only to Z(n) base rings")
        m, n = expr.module.m, expr.inner.n
        if m < 1 or n % m != 0:
            raise InvalidModuleError(f"Z({m}) is not a module over Z({n}): {m} does not divide {n}")
        action = np.arange(n)[:, None] * np.arange(m)[None, :] % m
        return build_idealize(inner, build_zn(m), action, action.T, expr_label(expr))
    if isinstance(expr, Corner):
        inner = build(expr.inner, budget)
        ring, _ = corner(inner, expr.index)
        return ring
    if isinstance(expr, Quot):
        inner = build(expr.inner, budget)
        ideal = ideal_generated_by(inner, expr.gens)
        ring, _ = quotient(inner, ideal, expr_label(expr))
        return ring
    if isinstance(expr, SkewPolyQuot):
        inner = build(expr.inner, budget)
        sigma = None
        if isinstance(expr.endo, FactorPermutation):
            if not isinstance(expr.inner, Prod):
                raise InvalidEndomorphismError(
                    "factor swaps are only defined on product rings"
                )
            sigma = _resolve_factor_swap(expr.endo, inner.components)
        return skew_poly_quot(inner, sigma, expr.n, expr_label(expr))
    raise TypeError(f"not a ring expression: {expr!r}")


def build_text(text: str, budget: Optional[int] = None) -> RingTable:
    """Parse and build in one step."""
    return build(parse_ring_expr(text), budget)
