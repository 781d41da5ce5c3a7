"""Ring arithmetic, structure sets and decomposition verdicts computed apart
from ``wnc``.

Every table here is computed from the element encodings that ``wnc.construct``
documents, with this module's own arithmetic; nothing reads the program's
tables.  The benchmark uses it to check the program's outputs:

* ``Z(n)``: element i is the residue i.
* ``prod(R1,...,Rk)``: tuples (a1,...,ak), last coordinate varying fastest.
* ``M<k>(R)`` / ``T<k>(R)``: matrix entries in row-major reading order
  (upper-triangular positions only for T), last entry fastest.
* ``eqdiag<k>(R)``: (diagonal value, strict-upper entries row-major).
* ``idealize(R,M)``: pairs (r, m) with index r*|M| + m and product
  (r, m)(r', m') = (rr', rm' + mr').
* ``skew(R,s,n)``: coefficient tuples (a0,...,a_{n-1}), a0 most significant,
  with x*a = s(a)*x and x**n = 0.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Optional, Sequence

import numpy as np


class Ring:
    """A finite ring as full operation tables, with its structure sets."""

    def __init__(self, label: str, add: np.ndarray, mul: np.ndarray, neg: np.ndarray,
                 zero: int, one: int):
        self.label = label
        self.order = len(neg)
        self.add = add
        self.mul = mul
        self.neg = neg
        self.zero = int(zero)
        self.one = int(one)

    @cached_property
    def idempotents(self) -> tuple[int, ...]:
        idx = np.arange(self.order)
        return tuple(int(e) for e in np.flatnonzero(self.mul[idx, idx] == idx))

    @cached_property
    def nil_mask(self) -> np.ndarray:
        # x is nilpotent iff x**(2**k) = 0 once 2**k reaches the order.
        p = np.arange(self.order)
        for _ in range(max(1, self.order - 1).bit_length() + 1):
            p = self.mul[p, p]
        return p == self.zero

    @cached_property
    def unit_mask(self) -> np.ndarray:
        # In a finite ring a right inverse is already a two-sided inverse.
        return (self.mul == self.one).any(axis=1)

    @cached_property
    def radical_mask(self) -> np.ndarray:
        # J(R) = {x : 1 - x*r is a unit for every r}.
        one_minus = self.add[self.one][self.neg[self.mul]]
        return self.unit_mask[one_minus].all(axis=1)


# --- constructions ------------------------------------------------------------


def _digits(sizes: Sequence[int]) -> np.ndarray:
    """All digit vectors in mixed-radix order, last digit fastest."""
    order = int(np.prod(sizes))
    out = np.zeros((order, len(sizes)), dtype=np.int64)
    rest = np.arange(order)
    for i in reversed(range(len(sizes))):
        rest, out[:, i] = np.divmod(rest, sizes[i])
    return out


def _encode(digits: Sequence[np.ndarray], sizes: Sequence[int]) -> np.ndarray:
    code = np.zeros_like(digits[0])
    for d, s in zip(digits, sizes):
        code = code * s + d
    return code


def zn(n: int) -> Ring:
    x = np.arange(n)
    return Ring(f"Z({n})", (x[:, None] + x[None, :]) % n, (x[:, None] * x[None, :]) % n,
                (-x) % n, 0, 1 % n)


def prod(*factors: Ring) -> Ring:
    sizes = [f.order for f in factors]
    d = _digits(sizes)
    cols = [d[:, i] for i in range(len(factors))]
    add = _encode([f.add[c[:, None], c[None, :]] for f, c in zip(factors, cols)], sizes)
    mul = _encode([f.mul[c[:, None], c[None, :]] for f, c in zip(factors, cols)], sizes)
    neg = _encode([f.neg[c] for f, c in zip(factors, cols)], sizes)
    zero = _encode([np.array(f.zero) for f in factors], sizes)
    one = _encode([np.array(f.one) for f in factors], sizes)
    label = "prod(" + ",".join(f.label for f in factors) + ")"
    return Ring(label, add, mul, neg, int(zero), int(one))


def _matrix_ring(label: str, inner: Ring, k: int, stored: list[tuple[int, int]],
                 shared_diagonal: bool) -> Ring:
    """Matrices over ``inner``; coordinates are ``stored`` entries, preceded by
    one common diagonal value when ``shared_diagonal``."""
    ncoord = len(stored) + shared_diagonal
    sizes = [inner.order] * ncoord
    d = _digits(sizes)

    def entry(i: int, j: int):
        if shared_diagonal and i == j:
            return d[:, 0]
        if (i, j) in stored:
            return d[:, stored.index((i, j)) + shared_diagonal]
        return None

    def product_entry(i: int, j: int) -> np.ndarray:
        acc = np.full((len(d), len(d)), inner.zero, dtype=np.int64)
        for l in range(k):
            a, b = entry(i, l), entry(l, j)
            if a is not None and b is not None:
                acc = inner.add[acc, inner.mul[a[:, None], b[None, :]]]
        return acc

    coords = [(0, 0)] if shared_diagonal else []
    coords += stored
    add = _encode([inner.add[d[:, c][:, None], d[:, c][None, :]] for c in range(ncoord)], sizes)
    mul = _encode([product_entry(i, j) for i, j in coords], sizes)
    neg = _encode([inner.neg[d[:, c]] for c in range(ncoord)], sizes)
    zero = _encode([np.array(inner.zero)] * ncoord, sizes)
    one_digits = [np.array(inner.one if (i == j) else inner.zero) for i, j in coords]
    return Ring(label, add, mul, neg, int(zero), int(_encode(one_digits, sizes)))


def mat(k: int, inner: Ring) -> Ring:
    stored = [(i, j) for i in range(k) for j in range(k)]
    return _matrix_ring(f"M{k}({inner.label})", inner, k, stored, False)


def tri(k: int, inner: Ring) -> Ring:
    stored = [(i, j) for i in range(k) for j in range(i, k)]
    return _matrix_ring(f"T{k}({inner.label})", inner, k, stored, False)


def eqdiag(k: int, inner: Ring) -> Ring:
    stored = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return _matrix_ring(f"eqdiag{k}({inner.label})", inner, k, stored, True)


def idealize_self(inner: Ring) -> Ring:
    """R + R with (r, m)(r', m') = (rr', rm' + mr'); index r*|R| + m."""
    q = inner.order
    r, m = np.divmod(np.arange(q * q), q)
    r1, r2, m1, m2 = r[:, None], r[None, :], m[:, None], m[None, :]
    add = inner.add[r1, r2] * q + inner.add[m1, m2]
    mul = inner.mul[r1, r2] * q + inner.add[inner.mul[r1, m2], inner.mul[m1, r2]]
    neg = inner.neg[r] * q + inner.neg[m]
    return Ring(f"idealize({inner.label},self)", add, mul, neg, inner.zero * q, inner.one * q)


def swap_factors(factors: Sequence[Ring], i: int, j: int) -> np.ndarray:
    """The product endomorphism exchanging factors i and j (1-based)."""
    sizes = [f.order for f in factors]
    d = _digits(sizes)
    d[:, [i - 1, j - 1]] = d[:, [j - 1, i - 1]]
    return _encode([d[:, c] for c in range(len(sizes))], sizes)


def skew(inner: Ring, sigma: Optional[np.ndarray], trunc: int, label: str) -> Ring:
    """Twisted polynomials over ``inner`` modulo x**trunc, x*a = sigma(a)*x."""
    q = inner.order
    sig = np.arange(q) if sigma is None else np.asarray(sigma)
    sizes = [q] * trunc
    d = _digits(sizes)
    sig_pow = [np.arange(q)]
    for _ in range(1, trunc):
        sig_pow.append(sig[sig_pow[-1]])
    add = _encode([inner.add[d[:, c][:, None], d[:, c][None, :]] for c in range(trunc)], sizes)
    coeffs = []
    for t in range(trunc):
        acc = np.full((len(d), len(d)), inner.zero, dtype=np.int64)
        for i in range(t + 1):
            a, b = d[:, i], sig_pow[i][d[:, t - i]]
            acc = inner.add[acc, inner.mul[a[:, None], b[None, :]]]
        coeffs.append(acc)
    mul = _encode(coeffs, sizes)
    neg = _encode([inner.neg[d[:, c]] for c in range(trunc)], sizes)
    zero = _encode([np.array(inner.zero)] * trunc, sizes)
    one = _encode([np.array(inner.one)] + [np.array(inner.zero)] * (trunc - 1), sizes)
    return Ring(label, add, mul, neg, int(zero), int(one))


def associativity_failure(table: np.ndarray) -> Optional[tuple[int, int, int]]:
    """First (a, b, c) with (ab)c != a(bc) for the operation ``table``."""
    for a in range(len(table)):
        bad = np.argwhere(table[table[a]] != table[a][table])
        if bad.size:
            return a, int(bad[0][0]), int(bad[0][1])
    return None


# --- decompositions -----------------------------------------------------------

# kind -> (companion family, both signs allowed, commuting required, idempotents from S)
KIND_RULES: dict[str, tuple[str, bool, bool, bool]] = {
    "clean": ("unit", False, False, False),
    "strongly-clean": ("unit", False, True, False),
    "weakly-clean": ("unit", True, False, False),
    "nil-clean": ("nil", False, False, False),
    "strongly-nil-clean": ("nil", False, True, False),
    "weak-nil-clean": ("nil", True, False, False),
    "weak-star-nil-clean": ("nil", True, True, False),
    "s-weak-nil-clean": ("nil", True, False, True),
    "s-weak-star-nil-clean": ("nil", True, True, True),
    "j-clean": ("radical", False, False, False),
    "strongly-j-clean": ("radical", False, True, False),
    "weak-j-clean": ("radical", True, False, False),
    "weak-star-j-clean": ("radical", True, True, False),
}
ALL_KINDS = tuple(KIND_RULES)


def _pool(ring: Ring, family: str) -> np.ndarray:
    return {"unit": ring.unit_mask, "nil": ring.nil_mask, "radical": ring.radical_mask}[family]


def _allowed_idempotents(ring: Ring, kind: str) -> tuple[int, ...]:
    # The CLI decides the S kinds with S = {0, 1}.
    return tuple(sorted({ring.zero, ring.one})) if KIND_RULES[kind][3] else ring.idempotents


def cert_is_valid(ring: Ring, kind: str, cert: dict) -> bool:
    """A certificate {x, e, companion, sign, commutes} states x = companion +- e."""
    family, both_signs, need_commute, _ = KIND_RULES[kind]
    x, e, c, sign = cert["x"], cert["e"], cert["companion"], cert["sign"]
    if e not in _allowed_idempotents(ring, kind) or int(ring.mul[e, e]) != e:
        return False
    if not _pool(ring, family)[c]:
        return False
    if sign == "+":
        recomposed = int(ring.add[c, e])
    elif sign == "-" and both_signs:
        recomposed = int(ring.add[c, ring.neg[e]])
    else:
        return False
    commutes = int(ring.mul[c, e]) == int(ring.mul[e, c])
    return recomposed == x and commutes == cert["commutes"] and (commutes or not need_commute)


def has_no_decomposition(ring: Ring, kind: str, x: int) -> bool:
    """True when no idempotent and sign decompose x for this kind."""
    family, both_signs, need_commute, _ = KIND_RULES[kind]
    pool = _pool(ring, family)
    for e in _allowed_idempotents(ring, kind):
        for c in [int(ring.add[x, ring.neg[e]])] + ([int(ring.add[x, e])] if both_signs else []):
            if pool[c] and (not need_commute or ring.mul[c, e] == ring.mul[e, c]):
                return False
    return True


def canonical_certs(ring: Ring, kind: str) -> dict[int, dict]:
    """The first decomposition of every element, idempotents ascending and
    '+' before '-': the order in which the program promises its certificates."""
    family, both_signs, need_commute, _ = KIND_RULES[kind]
    pool = _pool(ring, family)
    x = np.arange(ring.order)
    open_ = np.ones(ring.order, dtype=bool)
    certs: dict[int, dict] = {}
    for e in _allowed_idempotents(ring, kind):
        for sign in ("+", "-") if both_signs else ("+",):
            comp = ring.add[x, ring.neg[e]] if sign == "+" else ring.add[x, e]
            commutes = ring.mul[comp, e] == ring.mul[e, comp]
            hit = open_ & pool[comp] & (commutes | (not need_commute))
            for t in np.flatnonzero(hit):
                certs[int(t)] = {"x": int(t), "e": e, "companion": int(comp[t]),
                                 "sign": sign, "commutes": bool(commutes[t])}
            open_ &= ~hit
    return certs


def check_classify_entry(ring: Ring, kind: str, entry: dict) -> Optional[str]:
    """Check one ``wnc classify --format json`` entry; None when it is right."""
    expected_keys = ["ring", "kind"] + (["s"] if KIND_RULES[kind][3] else [])
    expected_keys += ["holds", "witness", "certs"]
    if list(entry) != expected_keys:
        return f"{kind}: keys {list(entry)}"
    if entry["ring"] != ring.label or entry["kind"] != kind:
        return f"{kind}: names ring {entry['ring']!r} kind {entry['kind']!r}"
    if KIND_RULES[kind][3] and entry["s"] != list(_allowed_idempotents(ring, kind)):
        return f"{kind}: S is {entry['s']}"
    certs = entry["certs"]
    if [c["x"] for c in certs] != sorted({c["x"] for c in certs}):
        return f"{kind}: certificates not in element order"
    for cert in certs:
        if list(cert) != ["x", "e", "companion", "sign", "commutes"]:
            return f"{kind}: certificate keys {list(cert)}"
        if not cert_is_valid(ring, kind, cert):
            return f"{kind}: invalid certificate {cert}"
    witness = entry["witness"]
    if witness is not None and not has_no_decomposition(ring, kind, witness):
        return f"{kind}: witness {witness} has a decomposition"
    canonical = canonical_certs(ring, kind)
    missing = [x for x in range(ring.order) if x not in canonical]
    if entry["holds"] != (not missing) or witness != (missing[0] if missing else None):
        return f"{kind}: holds={entry['holds']} witness={witness}, expected {missing[:1]}"
    if certs != [canonical[x] for x in sorted(canonical)]:
        return f"{kind}: {len(certs)} certificates differ from the {len(canonical)} canonical ones"
    return None


# --- closed forms -------------------------------------------------------------


def is_power_of(n: int, p: int) -> bool:
    """n = p**k with k >= 1."""
    if n < p:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def is_2r3t(n: int) -> bool:
    """n = 2**r * 3**t with r, t >= 0 and n >= 2."""
    if n < 2:
        return False
    for p in (2, 3):
        while n % p == 0:
            n //= p
    return n == 1


def zn_verdicts(n: int) -> dict[str, bool]:
    """Ring-level verdicts of Z(n): always clean; nil clean and J-clean iff n
    is a power of 2; weak nil clean and weak J-clean iff n = 2**r * 3**t
    (J(Z(n)) is the nilradical, so the J kinds follow the nil kinds)."""
    nil = is_power_of(n, 2)
    weak = is_2r3t(n)
    return {"clean": True, "nil-clean": nil, "j-clean": nil,
            "weak-nil-clean": weak, "weak-j-clean": weak}


_ZN = re.compile(r"Z\((\d+)\)$")
_PROD = re.compile(r"prod\((Z\(\d+\)(?:,Z\(\d+\))+)\)$")
_IDEALIZE = re.compile(r"idealize\(Z\((\d+)\),(?:self|Z\(\d+\))\)$")


def predicted_applicability(label: str) -> dict[str, bool]:
    """Which theorem checks apply to a ring, decided by arithmetic on its label.

    For Z(n), products of Z(n_i) and idealize(Z(n), M) every hypothesis is
    decidable from the orders: such rings are commutative; Z(n) is weak nil
    clean iff n = 2**r * 3**t; a product is weak nil clean iff every factor is
    and at most one factor is not nil clean (not a power of 2); an
    idealization follows its base ring; 2 is nilpotent iff every order is a
    power of 2; {0,1}-weak nil clean means every element is in Nil or +-1 +
    Nil, which holds iff the ring is local with residue field of order 2 or 3.
    For other rings only the checks that depend on the construction are
    predicted.
    """
    out = {
        "thm-finite-product": label.startswith("prod("),
        "thm-idealization": label.startswith("idealize("),
        "thm-zn-classification": _ZN.match(label) is not None,
    }
    match = _ZN.match(label) or _IDEALIZE.match(label)
    if match:
        orders = [int(match.group(1))]
    elif _PROD.match(label):
        orders = [int(o) for o in re.findall(r"\d+", label)]
    else:
        return out
    pow2 = [is_power_of(o, 2) for o in orders]
    weak = all(is_2r3t(o) for o in orders) and pow2.count(False) <= 1
    local = len(orders) == 1 and (pow2[0] or is_power_of(orders[0], 3))
    out.update({
        "prop-J-subset-Nil": weak,
        "thm-quotient-image": weak,
        "prop-nilradical-quotient": True,
        "thm-weakstar-exchange": weak,
        "cor-strongly-pi-regular": all(pow2),
        "prop-01-unique-maximal": local,
    })
    return out
