"""Deliberately naive oracles, independent of the library's search code.

Everything here is written as plain double loops over the raw operation
tables so it can confirm or refute the fast deciders.
"""

from __future__ import annotations

import numpy as np

from wnc.structure import maximal_ideals, structure, subset
from wnc.table import AxiomReport, ring_table


def idempotents(ring):
    return [e for e in range(ring.order) if int(ring.mul[e, e]) == e]


def nilpotents(ring):
    out = {}
    for x in range(ring.order):
        p = x
        for k in range(1, ring.order + 1):
            if p == ring.zero:
                out[x] = k
                break
            p = int(ring.mul[p, x])
    return out


def units(ring):
    out = {}
    for a in range(ring.order):
        for b in range(ring.order):
            if int(ring.mul[a, b]) == ring.one and int(ring.mul[b, a]) == ring.one:
                out[a] = b
                break
    return out


def radical(ring):
    unit_set = set(units(ring))
    out = set()
    for x in range(ring.order):
        if all(
            int(ring.add[ring.one, ring.neg[ring.mul[r, x]]]) in unit_set
            for r in range(ring.order)
        ):
            out.add(x)
    return out


# kind name -> (companion family, both signs allowed, commuting required)
KIND_RULES = {
    "clean": ("unit", False, False),
    "strongly-clean": ("unit", False, True),
    "weakly-clean": ("unit", True, False),
    "nil-clean": ("nil", False, False),
    "strongly-nil-clean": ("nil", False, True),
    "weak-nil-clean": ("nil", True, False),
    "weak-star-nil-clean": ("nil", True, True),
    "j-clean": ("radical", False, False),
    "strongly-j-clean": ("radical", False, True),
    "weak-j-clean": ("radical", True, False),
    "weak-star-j-clean": ("radical", True, True),
}


def companion_family(ring, family):
    if family == "nil":
        return sorted(nilpotents(ring))
    if family == "unit":
        return sorted(units(ring))
    return sorted(radical(ring))


def expressible(ring, kind_name, idem_pool=None):
    """All elements writable as companion +- idempotent, by literal double loop."""
    family, both_signs, need_commute = KIND_RULES[kind_name]
    companions = companion_family(ring, family)
    idems = idempotents(ring) if idem_pool is None else sorted(idem_pool)
    out = set()
    for c in companions:
        for e in idems:
            if need_commute and int(ring.mul[c, e]) != int(ring.mul[e, c]):
                continue
            out.add(int(ring.add[c, e]))
            if both_signs:
                out.add(int(ring.add[c, ring.neg[e]]))
    return out


def validate_cert(ring, cert):
    """Re-evaluate one certificate from the raw tables only."""
    family, both_signs, need_commute = KIND_RULES[cert.kind.value]
    if cert.companion not in companion_family(ring, family):
        return False
    if int(ring.mul[cert.idempotent, cert.idempotent]) != cert.idempotent:
        return False
    if cert.sign == "+":
        recomposed = int(ring.add[cert.companion, cert.idempotent])
    elif cert.sign == "-" and both_signs:
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


def ideal_closure(ring, gens):
    """Smallest two-sided ideal holding gens, by breadth-first closure."""
    add, mul, neg = ring.add.tolist(), ring.mul.tolist(), ring.neg.tolist()
    members = {ring.zero}
    queue = []
    for g in gens:
        if g not in members:
            members.add(g)
            queue.append(g)
    while queue:
        x = queue.pop()
        candidates = [neg[x]]
        candidates.extend(row[x] for row in mul)
        candidates.extend(mul[x])
        candidates.extend(add[x][y] for y in tuple(members))
        for c in candidates:
            if c not in members:
                members.add(c)
                queue.append(c)
    return frozenset(members)


def additive_closure(ring, mask):
    """The additive subgroup generated by a mask that holds 0, by M <- M + M rounds.

    After k rounds M holds every sum of up to 2**k members; since 0 is an
    additive identity M lies in M + M, and a round that does not grow M
    leaves it closed under +.
    """
    while True:
        m = np.flatnonzero(mask)
        grown = np.zeros_like(mask)
        grown[ring.add[np.ix_(m, m)]] = True
        if np.count_nonzero(grown) == m.size:
            return grown
        mask = grown


def all_ideals(ring):
    """Principal ideals saturated under pairwise sums until nothing changes."""
    add = ring.add.tolist()
    ideals = {ideal_closure(ring, (x,)) for x in range(ring.order)}
    changed = True
    while changed:
        changed = False
        current = sorted(ideals, key=lambda s: (len(s), sorted(s)))
        for i, a in enumerate(current):
            for b in current[i + 1:]:
                if a <= b or b <= a:
                    continue
                total = frozenset(add[x][y] for x in a for y in b)
                if total not in ideals:
                    ideals.add(total)
                    changed = True
    return tuple(sorted(ideals, key=lambda s: (len(s), sorted(s))))


def subset_flags(ring, members):
    """(additive subgroup, left ideal, right ideal) by scanning every pair."""
    add, mul, neg = ring.add.tolist(), ring.mul.tolist(), ring.neg.tolist()
    mset = set(members)
    is_group = ring.zero in mset and all(
        neg[a] in mset and all(add[a][b] in mset for b in mset) for a in mset
    )
    left = is_group and all(mul[r][x] in mset for r in range(ring.order) for x in mset)
    right = is_group and all(mul[x][r] in mset for r in range(ring.order) for x in mset)
    return is_group, left, right


def is_subring_unital(ring, members):
    """Holds 0 and 1 and is closed under neg, add and mul, pair by pair."""
    add, mul, neg = ring.add.tolist(), ring.mul.tolist(), ring.neg.tolist()
    mset = set(members)
    if ring.zero not in mset or ring.one not in mset:
        return False
    for a in mset:
        if neg[a] not in mset:
            return False
        for b in mset:
            if add[a][b] not in mset or mul[a][b] not in mset:
                return False
    return True


def quotient_tables(ring, members):
    """(add, mul, neg, projection) of R/I, cosets by minimal representative."""
    add, mul, neg = ring.add.tolist(), ring.mul.tolist(), ring.neg.tolist()
    proj = [-1] * ring.order
    reps = []
    for x in range(ring.order):
        if proj[x] != -1:
            continue
        for i in members:
            proj[add[x][i]] = len(reps)
        reps.append(x)
    qadd = [[proj[add[x][y]] for y in reps] for x in reps]
    qmul = [[proj[mul[x][y]] for y in reps] for x in reps]
    qneg = [proj[neg[x]] for x in reps]
    return qadd, qmul, qneg, tuple(proj)


def _first_cubic_witness(n, law):
    """First (a, b, c) in scan order with law(a, b, c) false, or None."""
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if not law(a, b, c):
                    return (a, b, c)
    return None


def axiom_report(ring):
    """The ring axioms by literal loops, each with its first failing tuple.

    Scan order: the cubic laws run over (a, b, c) with c fastest, and the
    right-distributive witness is reported as (b, c, a) for (b + c) * a.
    """
    n, zero, one = ring.order, ring.zero, ring.one
    add, mul, neg = ring.add.tolist(), ring.mul.tolist(), ring.neg.tolist()
    results = []
    w = _first_cubic_witness(n, lambda a, b, c: add[add[a][b]][c] == add[a][add[b][c]])
    results.append(("add-associative", w))
    w = next(((a, b) for a in range(n) for b in range(n) if add[a][b] != add[b][a]), None)
    results.append(("add-commutative", w))
    w = next(((zero, b) for b in range(n) if add[zero][b] != b), None)
    if w is None:
        w = next(((a, zero) for a in range(n) if add[a][zero] != a), None)
    results.append(("add-identity", w))
    w = next(((a,) for a in range(n) if add[a][neg[a]] != zero), None)
    results.append(("add-inverse", w))
    w = _first_cubic_witness(n, lambda a, b, c: mul[mul[a][b]][c] == mul[a][mul[b][c]])
    results.append(("mul-associative", w))
    w = next(((one, b) for b in range(n) if mul[one][b] != b), None)
    if w is None:
        w = next(((a, one) for a in range(n) if mul[a][one] != a), None)
    results.append(("one-identity", w))
    w = _first_cubic_witness(
        n, lambda a, b, c: mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]])
    results.append(("left-distributive", w))
    w = _first_cubic_witness(
        n, lambda a, b, c: mul[add[b][c]][a] == add[mul[b][a]][mul[c][a]])
    results.append(("right-distributive", None if w is None else (w[1], w[2], w[0])))
    results.append(("zero-one-distinct", None if n == 1 or zero != one else (zero, one)))
    return AxiomReport(tuple((name, w is None, w) for name, w in results))


def is_commutative(ring):
    """Whether a * b == b * a for every pair, by literal loops."""
    mul = ring.mul.tolist()
    return all(mul[a][b] == mul[b][a] for a in range(ring.order) for b in range(ring.order))


# --- ring constructions, one element pair at a time ----------------------------


def mixed_radix_encode(digits, sizes):
    idx = 0
    for d, s in zip(digits, sizes):
        idx = idx * s + d
    return idx


def mixed_radix_decode(idx, sizes):
    digits = []
    for s in reversed(sizes):
        idx, d = divmod(idx, s)
        digits.append(d)
    return tuple(reversed(digits))


def product(factors, label):
    """Direct product with componentwise operations."""
    sizes = [f.order for f in factors]
    order = int(np.prod(sizes))
    coords = [mixed_radix_decode(e, sizes) for e in range(order)]
    fadd = [f.add.tolist() for f in factors]
    fmul = [f.mul.tolist() for f in factors]
    fneg = [f.neg.tolist() for f in factors]
    add = np.zeros((order, order), dtype=np.int32)
    mul = np.zeros((order, order), dtype=np.int32)
    neg = np.zeros(order, dtype=np.int32)
    for e1, c1 in enumerate(coords):
        neg[e1] = mixed_radix_encode([t[x] for t, x in zip(fneg, c1)], sizes)
        for e2, c2 in enumerate(coords):
            add[e1, e2] = mixed_radix_encode(
                [t[x][y] for t, x, y in zip(fadd, c1, c2)], sizes)
            mul[e1, e2] = mixed_radix_encode(
                [t[x][y] for t, x, y in zip(fmul, c1, c2)], sizes)
    zero = mixed_radix_encode([f.zero for f in factors], sizes)
    one = mixed_radix_encode([f.one for f in factors], sizes)
    names = tuple("(" + ",".join(f.name_of(x) for f, x in zip(factors, c)) + ")"
                  for c in coords)
    return ring_table(order, add, mul, neg, zero, one, label, names)


def matrix_mul(add, mul, zero, a, b, k):
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = zero
            for l in range(k):
                acc = add[acc][mul[a[i][l]][b[l][j]]]
            row.append(acc)
        out.append(row)
    return out


def matrix_name(ring, m, k):
    rows = ("[" + ",".join(ring.name_of(m[i][j]) for j in range(k)) + "]" for i in range(k))
    return "[" + ",".join(rows) + "]"


def build_matrix_kind(inner, k, positions, diag_coord, label):
    """M_k, T_k or eqdiag_k over inner by full matrix arithmetic.

    When diag_coord is true, coordinate 0 is the common diagonal value and the
    remaining coordinates fill ``positions``; otherwise the coordinates are
    exactly ``positions``.
    """
    ncoord = len(positions) + (1 if diag_coord else 0)
    sizes = [inner.order] * ncoord
    order = inner.order ** ncoord

    def decode(e):
        digits = mixed_radix_decode(e, sizes)
        m = [[inner.zero] * k for _ in range(k)]
        rest = digits
        if diag_coord:
            for i in range(k):
                m[i][i] = digits[0]
            rest = digits[1:]
        for (i, j), v in zip(positions, rest):
            m[i][j] = v
        return m

    def encode(m):
        digits = ([m[0][0]] if diag_coord else []) + [m[i][j] for i, j in positions]
        return mixed_radix_encode(digits, sizes)

    mats = [decode(e) for e in range(order)]
    add = np.zeros((order, order), dtype=np.int32)
    mul = np.zeros((order, order), dtype=np.int32)
    neg = np.zeros(order, dtype=np.int32)
    iadd, imul, ineg = inner.add.tolist(), inner.mul.tolist(), inner.neg.tolist()
    coords = [tuple(mixed_radix_decode(e, sizes)) for e in range(order)]
    for e1 in range(order):
        c1 = coords[e1]
        neg[e1] = mixed_radix_encode([ineg[v] for v in c1], sizes)
        for e2 in range(order):
            c2 = coords[e2]
            add[e1, e2] = mixed_radix_encode([iadd[x][y] for x, y in zip(c1, c2)], sizes)
            mul[e1, e2] = encode(matrix_mul(iadd, imul, inner.zero, mats[e1], mats[e2], k))
    zero_m = [[inner.zero] * k for _ in range(k)]
    one_m = [[inner.one if i == j else inner.zero for j in range(k)] for i in range(k)]
    names = tuple(matrix_name(inner, mats[e], k) for e in range(order))
    return ring_table(order, add, mul, neg, encode(zero_m), encode(one_m), label, names)


def idealize(inner, module, left, right, label):
    """Trivial extension R + M with (r,m)(r',m') = (rr', left[r,m'] + right[m,r'])."""
    msize = module.order
    order = inner.order * msize
    add = np.zeros((order, order), dtype=np.int32)
    mul = np.zeros((order, order), dtype=np.int32)
    neg = np.zeros(order, dtype=np.int32)
    iadd, imul, ineg = inner.add.tolist(), inner.mul.tolist(), inner.neg.tolist()
    madd, mneg = module.add.tolist(), module.neg.tolist()
    left, right = np.asarray(left).tolist(), np.asarray(right).tolist()
    for e1 in range(order):
        r1, m1 = divmod(e1, msize)
        neg[e1] = ineg[r1] * msize + mneg[m1]
        for e2 in range(order):
            r2, m2 = divmod(e2, msize)
            add[e1, e2] = iadd[r1][r2] * msize + madd[m1][m2]
            mpart = madd[left[r1][m2]][right[m1][r2]]
            mul[e1, e2] = imul[r1][r2] * msize + mpart
    zero = inner.zero * msize + module.zero
    one = inner.one * msize + module.zero
    names = tuple(
        f"({inner.name_of(e // msize)},{module.name_of(e % msize)})" for e in range(order)
    )
    return ring_table(order, add, mul, neg, zero, one, label, names)


def corner(ring, f):
    """fRf with unity f and its embedding, elements sorted by parent id."""
    radd, mul, rneg = ring.add.tolist(), ring.mul.tolist(), ring.neg.tolist()
    members = sorted({mul[f][mul[x][f]] for x in ring.elements()})
    to_corner = {x: i for i, x in enumerate(members)}
    order = len(members)
    add = np.zeros((order, order), dtype=np.int32)
    cmul = np.zeros((order, order), dtype=np.int32)
    neg = np.zeros(order, dtype=np.int32)
    for i, x in enumerate(members):
        neg[i] = to_corner[rneg[x]]
        for j, y in enumerate(members):
            add[i, j] = to_corner[radd[x][y]]
            cmul[i, j] = to_corner[mul[x][y]]
    names = tuple(ring.name_of(x) for x in members)
    table = ring_table(
        order, add, cmul, neg, to_corner[ring.zero], to_corner[f],
        f"corner({ring.label},{f})", names,
    )
    return table, tuple(members)


def skew_poly_quot(ring, sigma, trunc, label):
    """R[x; sigma]/(x^trunc) by polynomial multiplication; sigma None is the identity."""
    n = ring.order
    sig = list(range(n)) if sigma is None else [int(s) for s in sigma]
    sig_pows = [list(range(n))]
    for _ in range(1, trunc):
        sig_pows.append([sig[x] for x in sig_pows[-1]])
    order = n ** trunc
    sizes = [n] * trunc
    coeffs = [mixed_radix_decode(e, sizes) for e in range(order)]
    add = np.zeros((order, order), dtype=np.int32)
    mul = np.zeros((order, order), dtype=np.int32)
    neg = np.zeros(order, dtype=np.int32)
    radd, rmul, rneg = ring.add.tolist(), ring.mul.tolist(), ring.neg.tolist()
    for e1 in range(order):
        a = coeffs[e1]
        neg[e1] = mixed_radix_encode([rneg[v] for v in a], sizes)
        for e2 in range(order):
            b = coeffs[e2]
            add[e1, e2] = mixed_radix_encode([radd[x][y] for x, y in zip(a, b)], sizes)
            c = [ring.zero] * trunc
            for i in range(trunc):
                if a[i] == ring.zero:
                    continue
                for j in range(trunc - i):
                    term = rmul[a[i]][sig_pows[i][b[j]]]
                    c[i + j] = radd[c[i + j]][term]
            mul[e1, e2] = mixed_radix_encode(c, sizes)
    zero = mixed_radix_encode([ring.zero] * trunc, sizes)
    one = mixed_radix_encode([ring.one] + [ring.zero] * (trunc - 1), sizes)

    def poly_name(cs):
        terms = []
        for i, v in enumerate(cs):
            if v == ring.zero:
                continue
            base = ring.name_of(v)
            terms.append(base if i == 0 else (f"{base}x" if i == 1 else f"{base}x^{i}"))
        return "+".join(terms) if terms else ring.name_of(ring.zero)

    names = tuple(poly_name(cs) for cs in coeffs)
    return ring_table(order, add, mul, neg, zero, one, label, names)


def factor_swap(swap, factors):
    """Id table of the product automorphism exchanging factors i and j (1-based)."""
    i, j = swap
    sizes = [f.order for f in factors]
    order = int(np.prod(sizes))
    table = np.zeros(order, dtype=np.int64)
    for e in range(order):
        digits = list(mixed_radix_decode(e, sizes))
        digits[i - 1], digits[j - 1] = digits[j - 1], digits[i - 1]
        table[e] = mixed_radix_encode(digits, sizes)
    return table


# --- decomposition deciders, one element at a time ----------------------------

# S-kinds search the weak and weak* nil rules over the idempotents of S only
S_KINDS = {"s-weak-nil-clean": "weak-nil-clean", "s-weak-star-nil-clean": "weak-star-nil-clean"}


def all_decomps(ring, kind_name, s=None, pools=None):
    """x -> [(e, companion, sign, commutes), ...] in canonical order, for every x.

    ``pools`` may map each companion family to its member set, to save recomputing it.
    """
    family, both_signs, need_commute = KIND_RULES[S_KINDS.get(kind_name, kind_name)]
    pool = set(companion_family(ring, family)) if pools is None else pools[family]
    idems = idempotents(ring) if s is None else sorted(s)
    add, mul, neg = ring.add.tolist(), ring.mul.tolist(), ring.neg.tolist()
    out = {}
    for x in range(ring.order):
        found = out[x] = []
        for e in idems:
            for sign in ("+", "-") if both_signs else ("+",):
                c = add[x][neg[e]] if sign == "+" else add[x][e]
                commutes = mul[c][e] == mul[e][c]
                if c in pool and (commutes or not need_commute):
                    found.append((e, c, sign, commutes))
    return out


def verdict(decomps):
    """(holds, witness, {x: first decomposition}) from all_decomps, witness the first x without."""
    certs = {x: found[0] for x, found in decomps.items() if found}
    witness = next((x for x, found in decomps.items() if not found), None)
    return witness is None, witness, certs


def is_exchange(ring, side):
    """(holds, witnesses, failure): least e in xR with 1-e in (1-x)R, per x in order."""
    mul, idems = ring.mul.tolist(), idempotents(ring)
    witnesses = {}
    for x in range(ring.order):
        one_minus_x = ring.sub(ring.one, x)
        if side == "right":
            reach_x, reach_1mx = set(mul[x]), set(mul[one_minus_x])
        else:
            reach_x = {row[x] for row in mul}
            reach_1mx = {row[one_minus_x] for row in mul}
        found = next((e for e in idems
                      if e in reach_x and ring.sub(ring.one, e) in reach_1mx), None)
        if found is None:
            return False, witnesses, x
        witnesses[x] = found
    return True, witnesses, None


def lift_report(ring, members, weak):
    """(holds, witnesses, failure) of lifting idempotents modulo the ideal members:
    each idempotent coset, ascending, takes the first ring idempotent whose coset
    is it, or its negative when weak; the first coset that none reaches fails."""
    _, qmul, qneg, proj = quotient_tables(ring, members)
    witnesses = {}
    for ebar in range(len(qmul)):
        if qmul[ebar][ebar] != ebar:
            continue
        targets = {ebar, qneg[ebar]} if weak else {ebar}
        lifted = [e for e in idempotents(ring) if proj[e] in targets]
        if not lifted:
            return False, witnesses, ebar
        witnesses[ebar] = lifted[0]
    return True, witnesses, None


def is_strongly_pi_regular(ring):
    """Each power chain a, a*a, ... reaches a**k in a**(k+1)R and R a**(k+1) within n steps."""
    mul = ring.mul.tolist()
    for a in range(ring.order):
        power = a
        for _ in range(ring.order):
            next_power = mul[power][a]
            if power in mul[next_power] and power in {row[next_power] for row in mul}:
                break
            power = next_power
        else:
            return False
    return True


def annihilator_failure(ring, kind_name, laws, also=None):
    """First (x, e, law) where x = c +- e breaks a law, as the library's helper numbers them.

    Law -1 is that x also decomposes as kind ``also``; laws 0-3 are
    ann_l(x) <= ann_l(e), ann_r(x) <= ann_r(e), ann_l(x) <= R(1-e) and
    ann_r(x) <= (1-e)R, of which the first ``laws`` are checked.
    """
    mul = ring.mul.tolist()
    also_found = None if also is None else all_decomps(ring, also)

    def ann_l(y):
        return {r for r in range(ring.order) if mul[r][y] == ring.zero}

    def ann_r(y):
        return {r for r in range(ring.order) if mul[y][r] == ring.zero}

    for x, found in all_decomps(ring, kind_name).items():
        for e, _, _, _ in found:
            if also_found is not None and not also_found[x]:
                return x, e, -1
            one_minus_e = ring.sub(ring.one, e)
            holds = (ann_l(x) <= ann_l(e), ann_r(x) <= ann_r(e),
                     ann_l(x) <= {row[one_minus_e] for row in mul},
                     ann_r(x) <= set(mul[one_minus_e]))
            for law in range(laws):
                if not holds[law]:
                    return x, e, law
    return None


# --- theorem checks, one subset or corner at a time ---------------------------

# s_rigidity takes an optional pools_of(ring), giving the pools argument of all_decomps.


def rigidity_subsets(idems):
    """Each Idem(R) minus one element, then Idem(R) itself.

    S-weak* nil cleanness is monotone in S, so if some proper subset suffices,
    one of these m maximal proper subsets does too; checking them covers all
    2**m - 1 non-empty subsets.
    """
    for drop in idems:
        rest = tuple(e for e in idems if e != drop)
        if rest:
            yield rest
    yield idems


def s_rigidity(ring, pools_of=None):
    """(ok, witness) of the S-rigidity check, one S-verdict per subset of rigidity_subsets."""
    idems = tuple(idempotents(ring))
    pools = pools_of(ring) if pools_of else {"nil": set(nilpotents(ring))}
    for s in rigidity_subsets(idems):
        holds = verdict(all_decomps(ring, "s-weak-star-nil-clean", s, pools))[0]
        if holds and len(s) < len(idems):
            return False, f"S={list(s)} suffices but is a proper subset of the idempotents"
    return True, None


def corner_theorem(ring, f):
    """(ok, witness) of the weak* nil corner check at f, with certificates from all_decomps
    and the corner built by corner() above."""
    sub, embed = corner(ring, f)
    to_sub = {x: i for i, x in enumerate(embed)}
    parent = verdict(all_decomps(ring, "weak-star-nil-clean"))[2]
    inner = verdict(all_decomps(sub, "weak-star-nil-clean"))[2]
    nil = nilpotents(sub)
    mul, sadd, smul = ring.mul.tolist(), sub.add.tolist(), sub.mul.tolist()
    for ci, x in enumerate(embed):
        if (x in parent) != (ci in inner):
            return False, (f"f={f}, x={x}: decomposable in R is {x in parent}, "
                           f"in fRf is {ci in inner}")
        if x not in parent:
            continue
        e, c, sign, _ = parent[x]
        fnf, fef = mul[f][mul[c][f]], mul[f][mul[e][f]]
        cn, ce = to_sub[fnf], to_sub[fef]
        if cn not in nil:
            return False, f"f={f}, x={x}: fnf={fnf} is not nilpotent in the corner"
        if smul[ce][ce] != ce:
            return False, f"f={f}, x={x}: fef={fef} is not idempotent in the corner"
        if smul[cn][ce] != smul[ce][cn]:
            return False, f"f={f}, x={x}: conjugated parts do not commute"
        if sadd[cn][ce if sign == "+" else int(sub.neg[ce])] != ci:
            return False, f"f={f}, x={x}: conjugated certificate does not recompose"
    return True, None


def weak_jclean_corners(ring):
    """Witness of part (c) of the weak J-clean bundle, or None: the first f, then x."""
    found = verdict(all_decomps(ring, "weak-star-j-clean"))[2]
    for f in idempotents(ring):
        sub, embed = corner(ring, f)
        inner = verdict(all_decomps(sub, "weak-star-j-clean"))[2]
        for ci, x in enumerate(embed):
            if (x in found) != (ci in inner):
                return f"(c) f={f}, x={x}: weak* J-cleanness differs in the corner"
    return None


def J_subset_Nil(ring):
    """(ok, witness) of the J-inside-Nil check, by set difference of the structure views."""
    cache = structure(ring)
    stray = sorted(cache.radical - cache.nilpotents)
    if stray:
        return False, f"radical element {stray[0]} is not nilpotent"
    return True, None


def S_unique_maximal(ring):
    """(ok, witness) of the {0,1} unique-maximal-ideal check, by set algebra over the views."""
    cache = structure(ring)
    everything = set(ring.elements())
    if set(cache.units) | set(cache.nilpotents) != everything:
        return False, "some element is neither a unit nor nilpotent"
    shifted = {int(ring.add[ring.one, n]) for n in cache.nilpotents} | {
        int(ring.add[ring.neg[ring.one], n]) for n in cache.nilpotents
    }
    if shifted != set(cache.units):
        return False, "units differ from (1 + Nil) union (-1 + Nil)"
    nil = subset(ring, cache.nilpotents)
    if not nil.is_two_sided_ideal:
        return False, "nilpotents do not form a two-sided ideal"
    if cache.radical != cache.nilpotents:
        return False, "radical differs from the nilpotent set"
    found = maximal_ideals(ring)
    if len(found) != 1:
        return False, f"found {len(found)} maximal ideals"
    return True, None


def corruptions(ring, names=("add", "mul")):
    """Every table with one entry of the named operation tables changed."""
    n = ring.order
    for name in names:
        for a in range(n):
            for b in range(n):
                for value in range(n):
                    add, mul = np.array(ring.add), np.array(ring.mul)
                    table = add if name == "add" else mul
                    if table[a, b] != value:
                        table[a, b] = value
                        yield ring_table(n, add, mul, ring.neg, ring.zero, ring.one,
                                         f"{ring.label}-{name}[{a},{b}]={value}")


# --- ring isomorphism ---------------------------------------------------------


def _additive_order(ring, x):
    acc, k = x, 1
    while acc != ring.zero:
        acc = int(ring.add[acc, x])
        k += 1
    return k


def _signatures(ring):
    nil, unit = nilpotents(ring), units(ring)
    return [(_additive_order(ring, x), int(ring.mul[x, x]) == x, nil.get(x, 0), x in unit)
            for x in range(ring.order)]


def find_isomorphism(a, b):
    """A ring isomorphism a -> b as an id mapping, or None.

    Backtracking over element images with closure propagation; candidate
    images are pruned by additive order, idempotency, nilpotency index and
    the unit flag.  For fixture-sized rings only.
    """
    if a.order != b.order:
        return None
    siga, sigb = _signatures(a), _signatures(b)
    if sorted(siga) != sorted(sigb):
        return None
    n = a.order
    map_ab = [-1] * n
    map_ba = [-1] * n
    trail = []
    aadd, amul, badd, bmul = a.add, a.mul, b.add, b.mul

    def assign(x, y):
        queue = [(x, y)]
        while queue:
            x, y = queue.pop()
            if map_ab[x] != -1:
                if map_ab[x] != y:
                    return False
                continue
            if map_ba[y] != -1 or siga[x] != sigb[y]:
                return False
            map_ab[x] = y
            map_ba[y] = x
            trail.append(x)
            for z in tuple(trail):
                w = map_ab[z]
                queue.append((int(aadd[x, z]), int(badd[y, w])))
                queue.append((int(aadd[z, x]), int(badd[w, y])))
                queue.append((int(amul[x, z]), int(bmul[y, w])))
                queue.append((int(amul[z, x]), int(bmul[w, y])))
        return True

    def undo(mark):
        while len(trail) > mark:
            x = trail.pop()
            map_ba[map_ab[x]] = -1
            map_ab[x] = -1

    def backtrack():
        x = next((i for i in range(n) if map_ab[i] == -1), None)
        if x is None:
            return True
        for y in range(n):
            if map_ba[y] != -1 or sigb[y] != siga[x]:
                continue
            mark = len(trail)
            if assign(x, y) and backtrack():
                return True
            undo(mark)
        return False

    if not (assign(a.zero, b.zero) and assign(a.one, b.one)):
        return None
    if not backtrack():
        return None
    mapped = np.array(map_ab)
    if not np.array_equal(mapped[a.add], b.add[np.ix_(mapped, mapped)]):
        return None
    if not np.array_equal(mapped[a.mul], b.mul[np.ix_(mapped, mapped)]):
        return None
    return tuple(map_ab)
