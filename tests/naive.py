"""Deliberately naive oracles, independent of the library's search code.

Everything here is written as plain double loops over the raw operation
tables so it can confirm or refute the fast deciders.
"""

from __future__ import annotations


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
