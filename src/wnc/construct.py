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
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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
from .table import RingTable, ring_table

DEFAULT_SIZE_BUDGET = 20_000
SIZE_BUDGET_ENV = "WNC_SIZE_BUDGET"


def size_budget(override: Optional[int] = None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(SIZE_BUDGET_ENV)
    return int(raw) if raw else DEFAULT_SIZE_BUDGET


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


def order_bound(expr: RingExpr) -> int:
    """Upper bound on the element count of the built ring."""
    if isinstance(expr, Zn):
        return expr.n
    if isinstance(expr, Prod):
        total = 1
        for f in expr.factors:
            total *= order_bound(f)
        return total
    if isinstance(expr, Mat):
        return order_bound(expr.inner) ** (expr.k * expr.k)
    if isinstance(expr, Tri):
        return order_bound(expr.inner) ** (expr.k * (expr.k + 1) // 2)
    if isinstance(expr, EqDiag):
        return order_bound(expr.inner) ** (1 + expr.k * (expr.k - 1) // 2)
    if isinstance(expr, Idealize):
        base = order_bound(expr.inner)
        msize = base if isinstance(expr.module, SelfModule) else expr.module.m
        return base * msize
    if isinstance(expr, (Corner, Quot)):
        return order_bound(expr.inner)
    if isinstance(expr, SkewPolyQuot):
        return order_bound(expr.inner) ** expr.n
    raise TypeError(f"not a ring expression: {expr!r}")


# --- parser ------------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        """Return (kind, value, position) without consuming."""
        self._skip_ws()
        start = self.pos
        if start >= len(self.text):
            return ("end", "", start)
        ch = self.text[start]
        if ch.isalpha():
            end = start
            while end < len(self.text) and self.text[end].isalpha():
                end += 1
            return ("name", self.text[start:end].lower(), start)
        if ch.isdigit():
            end = start
            while end < len(self.text) and self.text[end].isdigit():
                end += 1
            return ("int", self.text[start:end], start)
        if ch in "()[],":
            return ("punct", ch, start)
        raise ExprSyntaxError(f"unexpected character {ch!r}", start)

    def take(self) -> tuple[str, str, int]:
        kind, value, start = self.peek()
        self.pos = start + (len(value) if value else 0)
        return kind, value, start

    def expect_punct(self, ch: str) -> None:
        kind, value, pos = self.take()
        if kind != "punct" or value != ch:
            raise ExprSyntaxError(f"expected {ch!r}, found {value!r}", pos)

    def expect_int(self) -> int:
        kind, value, pos = self.take()
        if kind != "int":
            raise ExprSyntaxError(f"expected an integer, found {value!r}", pos)
        return int(value)

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


def _mixed_radix_encode(digits: Sequence[int], sizes: Sequence[int]) -> int:
    idx = 0
    for d, s in zip(digits, sizes):
        idx = idx * s + d
    return idx


def _mixed_radix_decode(idx: int, sizes: Sequence[int]) -> tuple[int, ...]:
    digits = []
    for s in reversed(sizes):
        idx, d = divmod(idx, s)
        digits.append(d)
    return tuple(reversed(digits))


def build_zn(n: int) -> RingTable:
    if n < 1:
        raise TableFormatError(f"ring order must be positive, got {n}")
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    neg = (-idx) % n
    names = tuple(str(i) for i in range(n))
    return ring_table(n, add, mul, neg, 0, 1 % n, f"Z({n})", names)


def build_product(factors: Sequence[RingTable], label: str) -> RingTable:
    sizes = [f.order for f in factors]
    order = int(np.prod(sizes, dtype=np.int64))
    strides = []
    acc = 1
    for s in reversed(sizes):
        strides.append(acc)
        acc *= s
    strides.reverse()
    idx = np.arange(order)
    digits = [(idx // strides[i]) % sizes[i] for i in range(len(factors))]
    add = np.zeros((order, order), dtype=np.int64)
    mul = np.zeros((order, order), dtype=np.int64)
    neg = np.zeros(order, dtype=np.int64)
    for i, f in enumerate(factors):
        d = digits[i]
        add += f.add[d[:, None], d[None, :]].astype(np.int64) * strides[i]
        mul += f.mul[d[:, None], d[None, :]].astype(np.int64) * strides[i]
        neg += f.neg[d].astype(np.int64) * strides[i]
    zero = _mixed_radix_encode([f.zero for f in factors], sizes)
    one = _mixed_radix_encode([f.one for f in factors], sizes)
    names = tuple(
        "(" + ",".join(factors[i].name_of(int(digits[i][e])) for i in range(len(factors))) + ")"
        for e in range(order)
    )
    return ring_table(order, add, mul, neg, zero, one, label, names)


def _matrix_mul(ring: RingTable, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], k: int):
    add, mul = ring.add, ring.mul
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = ring.zero
            for l in range(k):
                acc = int(add[acc, mul[a[i][l], b[l][j]]])
            row.append(acc)
        out.append(row)
    return out


def _matrix_name(ring: RingTable, m: Sequence[Sequence[int]], k: int) -> str:
    rows = ("[" + ",".join(ring.name_of(m[i][j]) for j in range(k)) + "]" for i in range(k))
    return "[" + ",".join(rows) + "]"


def _build_matrix_kind(inner: RingTable, k: int, positions: list[tuple[int, int]],
                       diag_coord: bool, label: str) -> RingTable:
    """Shared builder for M_k, T_k and the equal-diagonal subring of T_k.

    When diag_coord is true, coordinate 0 is the common diagonal value and the
    remaining coordinates fill ``positions``; otherwise the coordinates are
    exactly ``positions``.
    """
    ncoord = len(positions) + (1 if diag_coord else 0)
    sizes = [inner.order] * ncoord
    order = inner.order ** ncoord

    def decode(e: int) -> list[list[int]]:
        digits = _mixed_radix_decode(e, sizes)
        m = [[inner.zero] * k for _ in range(k)]
        rest = digits
        if diag_coord:
            for i in range(k):
                m[i][i] = digits[0]
            rest = digits[1:]
        for (i, j), v in zip(positions, rest):
            m[i][j] = v
        return m

    def encode(m: Sequence[Sequence[int]]) -> int:
        digits = ([m[0][0]] if diag_coord else []) + [m[i][j] for i, j in positions]
        return _mixed_radix_encode(digits, sizes)

    mats = [decode(e) for e in range(order)]
    add = np.zeros((order, order), dtype=np.int32)
    mul = np.zeros((order, order), dtype=np.int32)
    neg = np.zeros(order, dtype=np.int32)
    iadd, ineg = inner.add, inner.neg
    coords = [tuple(_mixed_radix_decode(e, sizes)) for e in range(order)]
    for e1 in range(order):
        c1 = coords[e1]
        neg[e1] = _mixed_radix_encode([int(ineg[v]) for v in c1], sizes)
        for e2 in range(order):
            c2 = coords[e2]
            add[e1, e2] = _mixed_radix_encode(
                [int(iadd[x, y]) for x, y in zip(c1, c2)], sizes
            )
            mul[e1, e2] = encode(_matrix_mul(inner, mats[e1], mats[e2], k))
    zero_m = [[inner.zero] * k for _ in range(k)]
    one_m = [[inner.one if i == j else inner.zero for j in range(k)] for i in range(k)]
    names = tuple(_matrix_name(inner, mats[e], k) for e in range(order))
    return ring_table(order, add, mul, neg, encode(zero_m), encode(one_m), label, names)


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


def build_idealize(inner: RingTable, msize: int, maction: np.ndarray,
                   mright: np.ndarray, madd: np.ndarray, mneg: np.ndarray,
                   label: str, mnames: Sequence[str]) -> RingTable:
    """Trivial extension on R + M with (r,m)(r',m') = (rr', rm' + mr').

    ``maction[r, m]`` is the left action r*m and ``mright[m, r]`` the right
    action m*r.
    """
    n = inner.order
    order = n * msize
    add = np.zeros((order, order), dtype=np.int32)
    mul = np.zeros((order, order), dtype=np.int32)
    neg = np.zeros(order, dtype=np.int32)
    iadd, imul, ineg = inner.add, inner.mul, inner.neg
    for e1 in range(order):
        r1, m1 = divmod(e1, msize)
        neg[e1] = int(ineg[r1]) * msize + int(mneg[m1])
        for e2 in range(order):
            r2, m2 = divmod(e2, msize)
            add[e1, e2] = int(iadd[r1, r2]) * msize + int(madd[m1, m2])
            mpart = int(madd[maction[r1, m2], mright[m1, r2]])
            mul[e1, e2] = int(imul[r1, r2]) * msize + mpart
    zero = inner.zero * msize + 0
    one = inner.one * msize + 0
    names = tuple(
        f"({inner.name_of(e // msize)},{mnames[e % msize]})" for e in range(order)
    )
    return ring_table(order, add, mul, neg, zero, one, label, names)


def corner(ring: RingTable, f: int) -> tuple[RingTable, tuple[int, ...]]:
    """Corner ring fRf with unity f, plus the embedding of its ids back into R."""
    ring.check_element(f)
    mul = ring.mul
    if int(mul[f, f]) != f:
        raise InvalidIdempotentError(f"element {f} of {ring.label} is not idempotent")
    members = sorted({int(mul[f, mul[x, f]]) for x in ring.elements()})
    to_corner = {x: i for i, x in enumerate(members)}
    order = len(members)
    add = np.zeros((order, order), dtype=np.int32)
    cmul = np.zeros((order, order), dtype=np.int32)
    neg = np.zeros(order, dtype=np.int32)
    for i, x in enumerate(members):
        neg[i] = to_corner[int(ring.neg[x])]
        for j, y in enumerate(members):
            add[i, j] = to_corner[int(ring.add[x, y])]
            cmul[i, j] = to_corner[int(mul[x, y])]
    names = tuple(ring.name_of(x) for x in members)
    table = ring_table(
        order, add, cmul, neg, to_corner[ring.zero], to_corner[f],
        f"corner({ring.label},{f})", names,
    )
    return table, tuple(members)


def quotient(ring: RingTable, ideal: Subset,
             label: Optional[str] = None) -> tuple[RingTable, tuple[int, ...]]:
    """Quotient by a two-sided ideal, plus the projection map R -> R/I.

    Coset representatives are the minimal element ids; cosets are indexed in
    representative order.
    """
    if ideal.ring is not ring:
        raise CrossRingError("ideal belongs to a different ring")
    if not ideal.is_two_sided_ideal:
        raise InvalidIdealError(
            f"{sorted(ideal.members)} is not a two-sided ideal of {ring.label}"
        )
    # x represents its coset x + I when it is the coset's minimal element
    rep_of = ring.add[:, sorted(ideal.members)].min(axis=1)
    reps = np.flatnonzero(rep_of == np.arange(ring.order))
    proj = np.searchsorted(reps, rep_of)
    order = len(reps)
    add = proj[ring.add[np.ix_(reps, reps)]]
    mul = proj[ring.mul[np.ix_(reps, reps)]]
    neg = proj[ring.neg[reps]]
    if label is None:
        label = f"quot({ring.label},[{','.join(str(m) for m in sorted(ideal.members))}])"
    names = tuple(f"[{ring.name_of(x)}]" for x in reps.tolist())
    table = ring_table(order, add, mul, neg, proj[ring.zero], proj[ring.one], label, names)
    return table, tuple(proj.tolist())


def _validate_endomorphism(ring: RingTable, sigma: np.ndarray) -> None:
    if sigma.shape != (ring.order,):
        raise InvalidEndomorphismError("twisting map has the wrong domain size")
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
    sig_pows = [np.arange(n)]
    for _ in range(1, trunc):
        sig_pows.append(sig[sig_pows[-1]])
    order = n ** trunc
    sizes = [n] * trunc
    coeffs = [_mixed_radix_decode(e, sizes) for e in range(order)]
    add = np.zeros((order, order), dtype=np.int32)
    mul = np.zeros((order, order), dtype=np.int32)
    neg = np.zeros(order, dtype=np.int32)
    radd, rmul, rneg = ring.add, ring.mul, ring.neg
    for e1 in range(order):
        a = coeffs[e1]
        neg[e1] = _mixed_radix_encode([int(rneg[v]) for v in a], sizes)
        for e2 in range(order):
            b = coeffs[e2]
            add[e1, e2] = _mixed_radix_encode(
                [int(radd[x, y]) for x, y in zip(a, b)], sizes
            )
            c = [ring.zero] * trunc
            for i in range(trunc):
                if a[i] == ring.zero:
                    continue
                for j in range(trunc - i):
                    term = int(rmul[a[i], sig_pows[i][b[j]]])
                    c[i + j] = int(radd[c[i + j], term])
            mul[e1, e2] = _mixed_radix_encode(c, sizes)
    zero = _mixed_radix_encode([ring.zero] * trunc, sizes)
    one = _mixed_radix_encode([ring.one] + [ring.zero] * (trunc - 1), sizes)

    def poly_name(cs: tuple[int, ...]) -> str:
        terms = []
        for i, v in enumerate(cs):
            if v == ring.zero:
                continue
            base = ring.name_of(v)
            terms.append(base if i == 0 else (f"{base}x" if i == 1 else f"{base}x^{i}"))
        return "+".join(terms) if terms else ring.name_of(ring.zero)

    names = tuple(poly_name(cs) for cs in coeffs)
    if label is None:
        sigma_txt = "id" if sigma is None else "sigma"
        label = f"skew({ring.label},{sigma_txt},{trunc})"
    return ring_table(order, add, mul, neg, zero, one, label, names)


def _resolve_factor_swap(expr: SkewPolyQuot, factors: Sequence[RingTable]) -> np.ndarray:
    endo = expr.endo
    assert isinstance(endo, FactorPermutation)
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
    order = int(np.prod(sizes, dtype=np.int64))
    table = np.zeros(order, dtype=np.int64)
    for e in range(order):
        digits = list(_mixed_radix_decode(e, sizes))
        digits[i - 1], digits[j - 1] = digits[j - 1], digits[i - 1]
        table[e] = _mixed_radix_encode(digits, sizes)
    return table


def build(expr: RingExpr, budget: Optional[int] = None) -> RingTable:
    """Elaborate a ring expression into a verified-encodable RingTable."""
    limit = size_budget(budget)
    bound = order_bound(expr)
    if bound > limit:
        raise CapacityError(
            f"{expr_label(expr)} needs {bound} elements, over the budget of {limit}"
        )
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
            msize = inner.order
            maction = mright = inner.mul
            madd = inner.add
            mneg = inner.neg
            mnames = tuple(inner.name_of(x) for x in inner.elements())
        else:
            if not isinstance(expr.inner, Zn):
                raise InvalidModuleError("Z(m) modules attach only to Z(n) base rings")
            m, n = expr.module.m, expr.inner.n
            if m < 1 or n % m != 0:
                raise InvalidModuleError(f"Z({m}) is not a module over Z({n}): {m} does not divide {n}")
            msize = m
            ridx = np.arange(inner.order)
            midx = np.arange(m)
            maction = (ridx[:, None] * midx[None, :]) % m
            mright = maction.T
            madd = (midx[:, None] + midx[None, :]) % m
            mneg = (-midx) % m
            mnames = tuple(str(x) for x in range(m))
        return build_idealize(inner, msize, maction, mright, madd, mneg, expr_label(expr),
                              mnames)
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
        if isinstance(expr.endo, IdentityEndo):
            sigma = None
        else:
            if not isinstance(expr.inner, Prod):
                raise InvalidEndomorphismError(
                    "factor swaps are only defined on product rings"
                )
            factors = [build(f, budget) for f in expr.inner.factors]
            sigma = _resolve_factor_swap(expr, factors)
        return skew_poly_quot(inner, sigma, expr.n, expr_label(expr))
    raise TypeError(f"not a ring expression: {expr!r}")


def build_text(text: str, budget: Optional[int] = None) -> RingTable:
    """Parse and build in one step."""
    return build(parse_ring_expr(text), budget)
