"""Ring expression parsing and every construction builder."""

import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
import wnc.construct
from wnc.construct import (
    ORDER_BOUND_CAP,
    Corner,
    CyclicModule,
    EqDiag,
    FactorPermutation,
    Idealize,
    IdentityEndo,
    Mat,
    Prod,
    Quot,
    RingExpr,
    SelfModule,
    SkewPolyQuot,
    Tri,
    Zn,
    _digit_vectors,
    _encode,
    _zn_products,
    build,
    build_text,
    build_zn,
    corner,
    eq_diag_subring,
    expr_label,
    order_bound,
    parse_ring_expr,
    quotient,
)
from wnc.decomp import DecompKind, find_decomp, ring_verdict
from wnc.errors import (
    CapacityError,
    CrossRingError,
    ExprSyntaxError,
    InvalidDimensionError,
    InvalidEndomorphismError,
    InvalidIdealError,
    InvalidIdempotentError,
    InvalidModuleError,
    RingError,
    TableFormatError,
)
from wnc.structure import ideal_generated_by, structure, subset
from wnc.table import RingTable, ring_table, verify_ring_axioms
from wnc.theorems import parse_corpus, run_suite


# --- parsing ------------------------------------------------------------------


def test_parse_examples():
    assert parse_ring_expr("Z(12)") == Zn(12)
    assert parse_ring_expr("T2(Z(3))") == Tri(2, Zn(3))
    assert parse_ring_expr("idealize(Z(6), self)") == Idealize(Zn(6), SelfModule())
    assert parse_ring_expr("idealize(Z(6), Z(3))") == Idealize(Zn(6), CyclicModule(3))
    assert parse_ring_expr("M2(Z(2))") == Mat(2, Zn(2))
    assert parse_ring_expr("eqdiag2(Z(6))") == EqDiag(2, Zn(6))
    assert parse_ring_expr("prod(Z(4),Z(9))") == Prod((Zn(4), Zn(9)))
    assert parse_ring_expr("corner(M2(Z(2)), 8)") == Corner(Mat(2, Zn(2)), 8)
    assert parse_ring_expr("quot(Z(36), [6])") == Quot(Zn(36), (6,))
    assert parse_ring_expr("quot(Z(36), [])") == Quot(Zn(36), ())
    assert parse_ring_expr("skew(Z(6), id, 2)") == SkewPolyQuot(Zn(6), IdentityEndo(), 2)
    assert parse_ring_expr("skew(prod(Z(3),Z(3)), swap(1,2), 2)") == SkewPolyQuot(
        Prod((Zn(3), Zn(3))), FactorPermutation((1, 2)), 2
    )


def test_parse_is_case_and_whitespace_insensitive():
    assert parse_ring_expr("  z( 12 )  ") == Zn(12)
    assert parse_ring_expr("PROD( Z(2) , z(3) )") == Prod((Zn(2), Zn(3)))
    assert parse_ring_expr("IDEALIZE(Z(6),SELF)") == Idealize(Zn(6), SelfModule())
    assert parse_ring_expr("Skew(Z(6),ID,2)") == SkewPolyQuot(Zn(6), IdentityEndo(), 2)


# The exact messages and positions: `wnc verify` prints them in its error cells.
PARSE_ERRORS = {
    "": ("expected a keyword, found '' (at position 0)", 0),
    "Z": ("expected '(', found '' (at position 1)", 1),
    "Z(": ("expected an integer, found '' (at position 2)", 2),
    "Z(6": ("expected ')', found '' (at position 3)", 3),
    "Z(6))": ("trailing input ')' (at position 4)", 4),
    "prod()": ("expected a keyword, found ')' (at position 5)", 5),
    "frob(Z(2))": ("unknown construction 'frob' (at position 0)", 0),
    "quot(Z(4),6)": ("expected '[', found '6' (at position 10)", 10),
    "idealize(Z(6),Z(3)": ("expected ')', found '' (at position 18)", 18),
    "skew(Z(6),flip,2)": ("expected 'id' or 'swap(i,j)', found 'flip' (at position 10)", 10),
    "Z(x)": ("expected an integer, found 'x' (at position 2)", 2),
    "corner(Z(4),)": ("expected an integer, found ')' (at position 12)", 12),
    "Z(²)": ("unexpected character '²' (at position 2)", 2),
    "Z(𝟓)": ("unexpected character '𝟓' (at position 2)", 2),
    "M２(Z(3))": ("unexpected character '２' (at position 1)", 1),
    "Z(" + "9" * 5000 + ")": ("integer of 5000 digits is too long (at position 2)", 2),
    "Z(\u00a06)": ("unexpected character '\\xa0' (at position 2)", 2),
    "Z(6\u3000)": ("unexpected character '\\u3000' (at position 3)", 3),
    "\u2003Z(6)": ("unexpected character '\\u2003' (at position 0)", 0),
    "Z(6)\x1c": ("unexpected character '\\x1c' (at position 4)", 4),
    "idealize(Z(6),foo)": ("expected 'self' or 'Z(m)', found 'foo' (at position 14)", 14),
    "skew(Z(6),swap(1),2)": ("expected ',', found ')' (at position 16)", 16),
    "skew(Z(6),swap(1,2,3),2)": ("expected ')', found ',' (at position 18)", 18),
}


@pytest.mark.parametrize("text", [pytest.param(text, id="Z(<5000 nines>)") if len(text) > 100
                                  else text for text in PARSE_ERRORS])
def test_parse_errors_carry_position(text):
    with pytest.raises(ExprSyntaxError) as err:
        parse_ring_expr(text)
    assert (str(err.value), err.value.position) == PARSE_ERRORS[text]


def _exprs(depth):
    """Expressions of every constructor, nested up to ``depth`` deep, with every
    size the grammar parses (M0, T0, eqdiag0-eqdiag1 and skew(...,0) do not build)."""
    leaf = st.builds(Zn, st.integers(min_value=1, max_value=9))
    if depth == 0:
        return leaf
    inner = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Prod, st.tuples(inner, inner)),
        st.builds(Mat, st.integers(min_value=0, max_value=3), leaf),
        st.builds(Tri, st.integers(min_value=0, max_value=3), leaf),
        st.builds(EqDiag, st.integers(min_value=0, max_value=3), leaf),
        st.builds(Idealize, inner, st.one_of(
            st.just(SelfModule()),
            st.builds(CyclicModule, st.integers(min_value=1, max_value=9)))),
        st.builds(Corner, inner, st.integers(min_value=0, max_value=99)),
        st.builds(Quot, inner, st.lists(
            st.integers(min_value=0, max_value=9), max_size=3).map(tuple)),
        st.builds(SkewPolyQuot, inner, st.one_of(
            st.just(IdentityEndo()),
            st.builds(FactorPermutation, st.tuples(
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=1, max_value=3)))),
            st.integers(min_value=0, max_value=4)),
    )


@settings(max_examples=200, deadline=None)
@given(_exprs(2))
def test_label_round_trips_through_parser(expr):
    assert parse_ring_expr(expr_label(expr)) == expr


# --- plain builders -----------------------------------------------------------


def test_build_zn_golden():
    z6 = build_text("Z(6)")
    assert z6.order == 6 and z6.label == "Z(6)" and z6.zero == 0 and z6.one == 1
    cache = structure(z6)
    assert cache.idempotents == (0, 1, 3, 4)
    assert sorted(cache.nilpotency) == [0]


def test_build_zn_matches_closed_forms():
    for n in [*range(1, 65), 255, 256, 257, 1000]:
        ring = build_zn(n)
        i, j = np.ogrid[:n, :n]
        assert np.array_equal(ring.add, (i + j) % n), n
        assert np.array_equal(ring.mul, (i * j) % n), n
        assert np.array_equal(ring.neg, -np.arange(n) % n), n
        assert ring.zero == 0 and ring.one == 1 % n
        for table in (ring.add, ring.mul, ring.neg):
            assert table.dtype == np.uint16 and not table.flags.writeable, n


def test_product_matches_crt_relabeling():
    prod = build_text("prod(Z(4),Z(9))")
    z36 = build_text("Z(36)")
    assert prod.order == 36
    phi = [(k % 4) * 9 + (k % 9) for k in range(36)]
    assert sorted(phi) == list(range(36))
    for a in range(36):
        for b in range(36):
            assert phi[int(z36.add[a, b])] == int(prod.add[phi[a], phi[b]])
            assert phi[int(z36.mul[a, b])] == int(prod.mul[phi[a], phi[b]])
    assert phi[z36.one] == prod.one and phi[z36.zero] == prod.zero


@pytest.mark.parametrize(
    "text", ["prod(Z(4),Z(9))", "prod(Z(9),Z(9))", "prod(Z(2),Z(3),Z(3))"]
)
def test_product_structure_sets_factor_componentwise(text):
    expr = parse_ring_expr(text)
    prod = build(expr)
    factors = [build(f) for f in expr.factors]
    caches = [structure(f) for f in factors]
    cache = structure(prod)
    sizes = [f.order for f in factors]

    def encode(digits):
        idx = 0
        for d, s in zip(digits, sizes):
            idx = idx * s + d
        return idx

    import itertools

    units = {encode(t) for t in itertools.product(*(c.units for c in caches))}
    idems = {encode(t) for t in itertools.product(*(c.idempotents for c in caches))}
    nils = {
        encode(t): max(c.nilpotency[d] for c, d in zip(caches, t))
        for t in itertools.product(*(c.nilpotency for c in caches))
    }
    assert set(cache.units) == units
    assert set(cache.idempotents) == idems
    assert cache.nilpotency == nils


def test_matrix_ring_encoding():
    m2 = build_text("M2(Z(2))")
    assert m2.order == 16
    e11, e12, identity = 8, 4, 9  # (1,0,0,0), (0,1,0,0), (1,0,0,1) row-major
    assert m2.one == identity and m2.zero == 0
    assert int(m2.mul[e11, e12]) == e12
    assert int(m2.mul[e12, e11]) == 0
    assert m2.element_names[e11] == "[[1,0],[0,0]]"


def test_triangular_ring():
    t2 = build_text("T2(Z(3))")
    assert t2.order == 27
    assert t2.one == 10  # (1,0,1) in base 3
    assert verify_ring_axioms(t2).passed


def test_eq_diag_subring():
    small = eq_diag_subring(2, build_text("Z(2)"))
    assert small.order == 4
    cache = structure(small)
    strict_upper = [e for e in small.elements() if small.element_names[e].startswith("[[0,")]
    for e in strict_upper:
        assert e in cache.nilpotency
    with pytest.raises(ValueError):
        eq_diag_subring(1, build_text("Z(2)"))


def test_eq_diag_z6_is_weak_and_weak_star_nil_clean():
    ring = build_text("eqdiag2(Z(6))")
    assert ring.order == 36
    assert ring_verdict(ring, DecompKind.WEAK_NIL_CLEAN).holds
    # Idempotents are scalar here, so commuting comes for free; exhaustive
    # search shows the weak* property holds as well.
    assert ring_verdict(ring, DecompKind.WEAK_STAR_NIL_CLEAN).holds
    assert structure(ring).idempotents == tuple(e * 6 for e in (0, 1, 3, 4))


# --- idealization -------------------------------------------------------------


def test_idealize_self_module():
    ring = build_text("idealize(Z(6),self)")
    assert ring.order == 36
    assert verify_ring_axioms(ring).passed
    nil = structure(ring).nilpotency
    assert sorted(nil) == [0, 1, 2, 3, 4, 5]  # exactly the pairs (0, m)
    assert ring.element_names[1] == "(0,1)"


def test_idealize_product_law():
    ring = build_text("idealize(Z(6),self)")
    encode = lambda r, m: r * 6 + m
    for r1 in range(6):
        for m1 in range(6):
            for r2 in range(6):
                for m2 in range(6):
                    got = int(ring.mul[encode(r1, m1), encode(r2, m2)])
                    want = encode((r1 * r2) % 6, (r1 * m2 + r2 * m1) % 6)
                    assert got == want


def _idealize_self_mul(inner, right):
    """mul of idealize(inner,self) by (r,m)(r',m') = (rr', rm' + right[m, r'])."""
    n = inner.order
    r, m = np.divmod(np.arange(n * n), n)
    mpart = inner.add[inner.mul[r[:, None], m[None, :]], right[m[:, None], r[None, :]]]
    return inner.mul[r[:, None], r[None, :]] * n + mpart


def test_idealize_self_uses_right_action_for_noncommutative_base():
    inner = build_text("T2(Z(2))")
    ring = build_text("idealize(T2(Z(2)),self)")
    assert verify_ring_axioms(ring).passed
    assert np.array_equal(ring.mul, _idealize_self_mul(inner, inner.mul))


@pytest.mark.parametrize("base", ["Z(6)", "Z(12)", "prod(Z(2),Z(3))"])
def test_idealize_commutative_tables_unchanged(base):
    # over a commutative base m*r' = r'*m, so the table equals the one built
    # with the left action on both sides (right = mul.T), byte for byte
    inner = build_text(base)
    ring = build_text(f"idealize({base},self)")
    old = _idealize_self_mul(inner, inner.mul.T).astype(np.uint16)
    assert ring.mul.tobytes() == old.tobytes()
    assert verify_ring_axioms(ring).passed


def test_parser_rejects_deep_nesting():
    # MAX_NESTING levels: 99 corners around Z(2) parse, 100 do not
    assert parse_ring_expr("corner(" * 99 + "Z(2)" + ",1)" * 99) is not None
    with pytest.raises(ExprSyntaxError):
        parse_ring_expr("corner(" * 100 + "Z(2)" + ",1)" * 100)


def test_idealize_cyclic_module():
    ring = build_text("idealize(Z(6),Z(3))")
    assert ring.order == 18
    assert verify_ring_axioms(ring).passed
    with pytest.raises(InvalidModuleError):
        build_text("idealize(Z(6),Z(4))")
    with pytest.raises(InvalidModuleError):
        build_text("idealize(T2(Z(2)),Z(2))")


def test_first_isomorphism_for_idealization():
    ring = build_text("idealize(Z(6),self)")
    zero_plus_m = ideal_generated_by(ring, (1,))  # generated by (0, 1)
    assert zero_plus_m.sorted_members() == (0, 1, 2, 3, 4, 5)
    quot, _ = quotient(ring, zero_plus_m)
    assert naive.find_isomorphism(quot, build_text("Z(6)")) is not None


# --- corners and quotients ----------------------------------------------------


def test_corner_at_one_is_whole_ring(rings):
    z6 = rings["Z(6)"]
    ring, embed = corner(z6, 1)
    assert ring.order == 6 and embed == (0, 1, 2, 3, 4, 5)
    assert naive.find_isomorphism(ring, z6) is not None


def test_corner_at_zero_is_zero_ring(rings):
    ring, embed = corner(rings["Z(6)"], 0)
    assert ring.order == 1 and embed == (0,)
    assert ring.zero == ring.one == 0


def test_corner_of_matrix_ring(rings):
    ring, embed = corner(rings["M2(Z(2))"], 8)  # e11
    assert ring.order == 2
    assert naive.find_isomorphism(ring, rings["Z(2)"]) is not None
    assert embed == (0, 8)


def test_corner_requires_idempotent(rings):
    with pytest.raises(InvalidIdempotentError):
        corner(rings["Z(6)"], 2)
    with pytest.raises(CrossRingError):
        build_text("corner(Z(4),10)")
    with pytest.raises(CrossRingError):
        build_text("quot(Z(4),[10])")


def test_corner_intrinsic_structure_matches_embedded(rings):
    ring = rings["M2(Z(3))"]
    cache = structure(ring)
    for f in cache.idempotents:
        cring, embed = corner(ring, f)
        ccache = structure(cring)
        assert {embed[e] for e in ccache.idempotents} == set(embed) & set(cache.idempotents)
        assert {embed[x] for x in ccache.nilpotency} == set(embed) & set(cache.nilpotency)
        for u in ccache.units:
            # u * u^-1 = f inside the corner, evaluated through parent tables
            parent_u, parent_inv = embed[u], embed[ccache.inverse[u]]
            assert int(ring.mul[parent_u, parent_inv]) == f


def test_quotient_examples(rings):
    z6 = rings["Z(6)"]
    quot, proj = quotient(z6, subset(z6, {0, 3}))
    assert quot.order == 3
    assert naive.find_isomorphism(quot, rings["Z(3)"]) is not None
    assert proj == (0, 1, 2, 0, 1, 2)

    same, proj = quotient(z6, subset(z6, {0}))
    assert naive.find_isomorphism(same, z6) is not None
    assert proj == (0, 1, 2, 3, 4, 5)

    z4 = rings["Z(4)"]
    booleanized, _ = quotient(z4, subset(z4, {0, 2}))
    assert booleanized.order == 2
    cache = structure(booleanized)
    assert len(cache.idempotents) == booleanized.order  # boolean quotient


def test_quotient_rejects_non_ideals(rings):
    z6 = rings["Z(6)"]
    with pytest.raises(InvalidIdealError):
        quotient(z6, subset(z6, {0, 1}))
    foreign = subset(rings["Z(9)"], {0, 3, 6})
    with pytest.raises(CrossRingError):
        quotient(z6, foreign)


def test_quot_expression(rings):
    ring = build_text("quot(Z(36),[6])")
    assert ring.order == 6
    assert ring.label == "quot(Z(36),[6])"
    assert naive.find_isomorphism(ring, rings["Z(6)"]) is not None


# --- twisted truncated polynomial rings ----------------------------------------


def test_skew_identity_twist():
    ring = build_text("skew(Z(6),id,2)")
    assert ring.order == 36
    assert verify_ring_axioms(ring).passed
    x = 1  # coefficients (0, 1)
    cache = structure(ring)
    assert cache.nilpotency[x] == 2
    cert = find_decomp(ring, 31, DecompKind.WEAK_NIL_CLEAN)  # 5 + x
    assert (cert.companion, cert.idempotent, cert.sign) == (1, 6, "-")
    assert ring.element_names[31] == "5+1x"


def test_skew_constant_projection_is_surjective_hom():
    ring = build_text("skew(Z(6),id,2)")
    base = build_text("Z(6)")
    proj = [e // 6 for e in range(36)]
    assert set(proj) == set(range(6))
    for a in range(36):
        for b in range(36):
            assert proj[int(ring.add[a, b])] == int(base.add[proj[a], proj[b]])
            assert proj[int(ring.mul[a, b])] == int(base.mul[proj[a], proj[b]])


def test_skew_factor_swap():
    ring = build_text("skew(prod(Z(3),Z(3)),swap(1,2),2)")
    assert ring.order == 81
    assert verify_ring_axioms(ring).passed
    assert not ring.is_commutative()
    # The base ring is not weak nil clean (two factors fail nil-cleanness), so
    # neither is the twist: constants (1,2) and (2,1) have no decomposition.
    verdict = ring_verdict(ring, DecompKind.WEAK_NIL_CLEAN)
    assert not verdict.holds
    assert ring.element_names[verdict.witness] == "(1,2)"


def test_skew_rejects_bad_twists():
    with pytest.raises(InvalidEndomorphismError):
        build_text("skew(Z(6),swap(1,2),2)")
    with pytest.raises(InvalidEndomorphismError):
        build_text("skew(prod(Z(2),Z(3)),swap(1,2),2)")
    with pytest.raises(InvalidEndomorphismError):
        build_text("skew(prod(Z(3),Z(3)),swap(1,3),2)")
    with pytest.raises(ValueError):
        build_text("skew(Z(6),id,0)")


def test_skew_accepts_explicit_twist_table():
    from wnc.construct import skew_poly_quot

    base = build_text("prod(Z(3),Z(3))")
    swap_table = [(e % 3) * 3 + e // 3 for e in range(9)]
    ring = skew_poly_quot(base, swap_table, 2)
    assert ring.order == 81
    assert verify_ring_axioms(ring).passed
    via_expr = build_text("skew(prod(Z(3),Z(3)),swap(1,2),2)")
    assert (ring.add == via_expr.add).all() and (ring.mul == via_expr.mul).all()
    with pytest.raises(InvalidEndomorphismError):
        skew_poly_quot(base, [(e + 1) % 9 for e in range(9)], 2)
    with pytest.raises(InvalidEndomorphismError):
        skew_poly_quot(base, [0] * 4, 2)
    with pytest.raises(InvalidEndomorphismError, match="^twisting map is not a ring endomorphism$"):
        skew_poly_quot(build_text("Z(6)"), [0, 1, 3, 2, 4, 5], 2)  # fixes 1, breaks addition
    for bad_id in (99, -1):
        sigma = list(swap_table)
        sigma[2] = bad_id
        with pytest.raises(InvalidEndomorphismError, match="outside"):
            skew_poly_quot(base, sigma, 2)


def test_skew_constant_projection_on_twisted_ring():
    ring = build_text("skew(prod(Z(3),Z(3)),swap(1,2),2)")
    base = build_text("prod(Z(3),Z(3))")
    proj = [e // 9 for e in range(81)]
    assert set(proj) == set(range(9))
    for a in range(81):
        for b in range(81):
            assert proj[int(ring.add[a, b])] == int(base.add[proj[a], proj[b]])
            assert proj[int(ring.mul[a, b])] == int(base.mul[proj[a], proj[b]])


def test_coordinate_rings_keep_their_components():
    def labels(text):
        return tuple(part.label for part in build_text(text).components)

    assert labels("prod(Z(4),Z(9))") == ("Z(4)", "Z(9)")
    assert labels("idealize(Z(6),Z(3))") == ("Z(6)", "Z(3)")
    assert labels("idealize(Z(6),self)") == ("Z(6)", "Z(6)")
    assert labels("T2(Z(3))") == ("Z(3)",) * 3
    assert labels("eqdiag3(Z(2))") == ("Z(2)",) * 4
    mat = build_text("M2(Z(2))")
    assert len(mat.components) == 4
    assert all(part is mat.components[0] for part in mat.components)
    skew = build_text("skew(prod(Z(3),Z(3)),swap(1,2),2)")
    inner = skew.components[0]
    assert skew.components == (inner, inner) and inner.label == "prod(Z(3),Z(3))"
    assert tuple(part.label for part in inner.components) == ("Z(3)", "Z(3)")
    for text in ("Z(6)", "corner(M2(Z(2)),1)", "quot(Z(36),[6])"):
        assert build_text(text).components == ()


# --- budget -------------------------------------------------------------------


def test_size_budget_enforced(monkeypatch):
    with pytest.raises(CapacityError):
        build_text("Z(30000)")
    with pytest.raises(CapacityError):
        build_text("M2(Z(12))")  # 20736 > 20000
    monkeypatch.setenv("WNC_SIZE_BUDGET", "50")
    with pytest.raises(CapacityError):
        build_text("Z(100)")
    assert build_text("Z(100)", budget=200).order == 100
    assert order_bound(parse_ring_expr("M3(Z(4))")) == 4**9


@pytest.mark.parametrize("text", ["M72(Z(7))", "M100000000(Z(2))", "M10000(Z(7))",
                                  "prod(M72(Z(7)),M72(Z(7)))", "skew(M72(Z(7)),id,9)"])
def test_huge_bounds_saturate(text, monkeypatch):
    monkeypatch.delenv("WNC_SIZE_BUDGET", raising=False)
    assert order_bound(parse_ring_expr(text)) == ORDER_BOUND_CAP
    with pytest.raises(CapacityError) as err:
        build_text(text)
    assert str(err.value) == (f"{text} needs more than 10**4300 elements, "
                              "over the budget of 20000")


def test_printable_bounds_stay_exact():
    assert order_bound(parse_ring_expr("M71(Z(7))")) == 7 ** (71 * 71)
    with pytest.raises(CapacityError, match=f"^M71\\(Z\\(7\\)\\) needs {7 ** (71 * 71)} "):
        build_text("M71(Z(7))")
    # exactly 10**4300: 4 301 digits, one more than Python prints
    with pytest.raises(CapacityError, match=r"needs 10\*\*4300 elements"):
        build_text("skew(Z(10),id,4300)")


@pytest.mark.parametrize("text,coordinates", [
    ("M300(Z(1))", 90000), ("M600(Z(1))", 360000), ("skew(Z(1),id,20000)", 20000),
    ("M8(Z(1))", 64), ("prod(" + ",".join(["Z(1)"] * 64) + ")", 64),
])
def test_coordinate_limit_refuses_before_building(text, coordinates, monkeypatch):
    def no_build(*args):
        raise AssertionError(f"built {text} past the coordinate check")

    monkeypatch.setattr(wnc.construct, "_coordinate_ring", no_build)
    with pytest.raises(CapacityError) as err:
        build_text(text)
    assert str(err.value) == f"{text} needs {coordinates} coordinates, over the limit of 63"


def test_rings_of_63_coordinates_still_build():
    for text, coordinates in (("prod(" + ",".join(["Z(1)"] * 63) + ")", 63), ("T10(Z(1))", 55)):
        ring = build_text(text)
        assert ring.order == 1 and len(ring.components) == coordinates
        assert verify_ring_axioms(ring).passed


def test_coordinate_limit_is_waivable():
    cells = run_suite(parse_corpus("M600(Z(1)) !waive\n"))
    assert [(c["check_id"], c["outcome"]) for c in cells] == [("build", "waived")]


def test_degenerate_dimensions_rejected():
    with pytest.raises(ValueError):
        build_text("M0(Z(2))")
    with pytest.raises(ValueError):
        build_text("T0(Z(2))")
    with pytest.raises(TableFormatError):
        build_text("Z(0)")


@pytest.mark.parametrize("text,message", [
    ("M0(Z(2))", "matrix dimension must be >= 1, got 0"),
    ("T0(Z(3))", "matrix dimension must be >= 1, got 0"),
    ("eqdiag0(Z(2))", "equal-diagonal subring needs k >= 2, got 0"),
    ("eqdiag1(Z(2))", "equal-diagonal subring needs k >= 2, got 1"),
    ("skew(Z(2),id,0)", "truncation degree must be >= 1, got 0"),
    # the outer size is checked before the inner ring is built, so its message wins
    ("M0(eqdiag1(Z(2)))", "matrix dimension must be >= 1, got 0"),
])
def test_sizes_below_the_least_are_ring_errors(text, message):
    with pytest.raises(InvalidDimensionError) as err:
        build_text(text)
    assert str(err.value) == message
    assert isinstance(err.value, RingError) and not isinstance(err.value, CapacityError)


def test_every_node_type_has_one_constructor_row():
    assert set(wnc.construct._BY_NODE) == set(typing.get_args(RingExpr))
    for bad in (CyclicModule(3), "Z(4)"):
        for fn in (expr_label, order_bound, build):
            with pytest.raises(TypeError) as err:
                fn(bad)
            assert str(err.value) == f"not a ring expression: {bad!r}"


def test_element_names_are_unique(rings):
    for ring in rings.values():
        assert len(set(ring.element_names)) == ring.order


# --- differential tests against the loop builders in naive.py -----------------


def _naive_top(expr):
    """expr's top constructor built by naive loops over library-built inner rings."""
    label = expr_label(expr)
    if isinstance(expr, Prod):
        return naive.product([build(f) for f in expr.factors], label)
    if isinstance(expr, (Mat, Tri, EqDiag)):
        k = expr.k
        first = {Mat: lambda i: 0, Tri: lambda i: i, EqDiag: lambda i: i + 1}[type(expr)]
        positions = [(i, j) for i in range(k) for j in range(first(i), k)]
        return naive.build_matrix_kind(build(expr.inner), k, positions,
                                       isinstance(expr, EqDiag), label)
    if isinstance(expr, Idealize):
        inner = build(expr.inner)
        if isinstance(expr.module, SelfModule):
            return naive.idealize(inner, inner, inner.mul, inner.mul, label)
        m = expr.module.m
        action = np.array([[r * x % m for x in range(m)] for r in range(inner.order)])
        return naive.idealize(inner, build_zn(m), action, action.T, label)
    if isinstance(expr, Corner):
        return naive.corner(build(expr.inner), expr.index)[0]
    if isinstance(expr, Quot):
        inner = build(expr.inner)
        members = naive.ideal_closure(inner, expr.gens)
        add, mul, neg, proj = naive.quotient_tables(inner, sorted(members))
        names = [f"[{inner.name_of(proj.index(c))}]" for c in range(len(neg))]
        return ring_table(len(neg), add, mul, neg, proj[inner.zero], proj[inner.one],
                          label, names)
    if isinstance(expr, SkewPolyQuot):
        sigma = None
        if isinstance(expr.endo, FactorPermutation):
            sigma = naive.factor_swap(expr.endo.swap, [build(f) for f in expr.inner.factors])
        return naive.skew_poly_quot(build(expr.inner), sigma, expr.n, label)
    return None  # Z(n) has no loop builder


def _assert_same_ring(got, want):
    for op in ("add", "mul", "neg"):
        g, w = getattr(got, op), getattr(want, op)
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), (got.label, op)
    assert (got.label, got.zero, got.one, got.element_names) == (
        want.label, want.zero, want.one, want.element_names)


def test_builders_and_corners_match_naive_loops(corpus_entries):
    extra = ["M2(Z(4))", "eqdiag3(Z(4))", "skew(prod(Z(2),Z(2)),swap(1,2),4)",
             "idealize(T2(Z(2)),self)"]
    rings = [(entry.expr, entry.ring) for entry in corpus_entries]
    rings += [(parse_ring_expr(text), build_text(text)) for text in extra]
    for expr, ring in rings:
        want = _naive_top(expr)
        if want is not None:
            _assert_same_ring(ring, want)
        for e in naive.idempotents(ring):
            got, embed = corner(ring, e)
            want, want_embed = naive.corner(ring, e)
            _assert_same_ring(got, want)
            assert embed == want_embed


@settings(max_examples=150, deadline=None)
@given(_exprs(2).filter(lambda expr: order_bound(expr) <= 200))
def test_grammar_builds_rings_matching_naive_loops(expr):
    try:
        ring = build(expr)
    except RingError:
        return
    assert verify_ring_axioms(ring).passed, expr_label(expr)
    want = _naive_top(expr)
    if want is not None:
        _assert_same_ring(ring, want)


def test_tables_do_not_depend_on_the_blocks(monkeypatch):
    # prod(Z(1),Z(6),Z(1),Z(2)) puts digits of order 1, which take no axis,
    # between real ones
    labels = ("M2(Z(3))", "T3(Z(2))", "eqdiag3(Z(2))", "idealize(Z(6),self)",
              "idealize(Z(6),Z(3))", "skew(prod(Z(2),Z(2)),swap(1,2),3)",
              "prod(Z(1),Z(6),Z(1),Z(2))")
    for entries in (1, 40, 600):
        monkeypatch.setattr(wnc.construct, "ROW_BLOCK_ENTRIES", entries)
        for label in labels:
            expr = parse_ring_expr(label)
            _assert_same_ring(build(expr), _naive_top(expr))


@pytest.mark.parametrize("label", ["M2(Z(7))", "idealize(Z(49),self)", "skew(Z(4),id,5)",
                                   "Z(400)"])
def test_build_peak_memory_per_table_entry(label):
    # the two kept uint16 tables are 4 bytes per entry, and no wider copy of a
    # table is taken; blocks bound the rest, also for the digits that read every
    # coordinate (idealize's module digit and skew's top coefficients) and for
    # Z(n)'s uint32 products, 1.6 bytes per entry of Z(400)
    tracemalloc.start()
    try:
        ring = build_text(label)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * ring.order ** 2


@pytest.mark.parametrize("text", ["M0(M3(Z(3)))", "T0(M3(Z(3)))", "eqdiag1(M3(Z(3)))",
                                  "skew(M3(Z(3)),id,0)"])
def test_sizes_below_the_least_are_refused_before_the_inner_build(text):
    # M3(Z(3)) has 19 683 elements, within the budget: its tables would take 1.5 GB
    tracemalloc.start()
    try:
        with pytest.raises(InvalidDimensionError):
            build_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_orders_over_the_uint16_cap_are_refused_before_any_table():
    for text in ("Z(65537)", "prod(Z(256),Z(257))", "quot(Z(65537),[1])"):
        with pytest.raises(CapacityError, match="over the limit of 65536 that uint16 tables hold"):
            build_text(text, budget=100_000)
    # refused before the shapes are read, so no table of that order is needed
    for make in (lambda: build_zn(65_537),
                 lambda: RingTable(65_537, [[0]], [[0]], [0], 0, 0, "big")):
        with pytest.raises(TableFormatError, match="ring order 65537 is over the limit of 65536"):
            make()


def test_products_and_codes_do_not_wrap_at_the_cap():
    # the last two rows of Z(65536)'s multiplication: 65535**2 needs 32 bits
    n = 65_536
    rows = _zn_products(n, n - 2, n)
    assert rows.tolist() == [[a * b % n for b in range(n)] for a in (n - 2, n - 1)]
    # codes of order 65 536 from uint16 digits, with the largest place values
    # (32 768 for a digit of order 2) and a leading digit of order 1, whose place
    # value 65 536 no uint16 holds
    for sizes in ((2,) * 16, (1, 2, 32_768), (1, 256, 1, 256), (65_536,)):
        digits = [d.astype(np.uint16) for d in _digit_vectors(sizes)]
        codes = _encode(digits, sizes)
        assert codes.dtype == np.uint16 and np.array_equal(codes, np.arange(n)), sizes
