import ast
import json
import pathlib
import types
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from heckesphere import laurent
from heckesphere.errors import PreconditionViolated
from heckesphere.laurent import (LaurentPoly, ONE, V, VINV, ZERO, add_products, finish,
                                 sum_of_products)
from heckesphere.linear import Combo


def poly(*pairs):
    return LaurentPoly(pairs)


laurent_maps = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6)
laurents = laurent_maps.map(LaurentPoly)

nonzero_laurents = laurents.filter(bool)


@pytest.mark.parametrize("mapping", [dict, Counter, types.MappingProxyType])
def test_every_mapping_builds_the_same_element(mapping):
    assert LaurentPoly(mapping({-1: 2, 3: -1})) == LaurentPoly([(-1, 2), (3, -1)])
    assert Combo(mapping({(0,): V, (): 2})) == Combo([((0,), V), ((), 2)])


class TestRingOps:
    def test_monomial_shift(self):
        assert (V + VINV) * V == poly((2, 1), (0, 1))

    def test_add_cancels(self):
        assert poly((0, 1), (2, 1)) + LaurentPoly.from_int(-1) == poly((2, 1))

    def test_square_expansion(self):
        assert (V + VINV) ** 2 == poly((2, 1), (0, 2), (-2, 1))

    def test_int_coercion(self):
        assert 2 * V == poly((1, 2))
        assert V - 1 == poly((1, 1), (0, -1))
        assert 1 - V == poly((0, 1), (1, -1))

    @given(laurents, laurents)
    def test_mul_vinv_minus_v(self, p, q):
        # Includes cancelling neighbours: (v^-1 + v)(v^-1 - v) = v^-2 - v^2.
        assert p.mul_vinv_minus_v() == p * (VINV - V)
        assert p.mul_vinv_minus_v(q) == q + p * (VINV - V)
        assert (V + VINV).mul_vinv_minus_v() == poly((-2, 1), (2, -1))
        assert V.mul_vinv_minus_v(V * V - ONE) == ZERO


class TestBar:
    def test_v(self):
        assert V.bar() == VINV

    def test_sum(self):
        assert poly((0, 1), (2, 1)).bar() == poly((0, 1), (-2, 1))

    def test_symmetric_fixed_point(self):
        p = V + VINV
        assert p.bar() == p

    @given(laurents)
    def test_involutive(self, p):
        assert p.bar().bar() == p

    @given(laurents, laurents)
    def test_ring_homomorphism(self, p, q):
        assert (p * q).bar() == p.bar() * q.bar()
        assert (p + q).bar() == p.bar() + q.bar()


class TestRendering:
    def test_ascending_text(self):
        assert str(poly((2, 1), (-2, 1), (0, 2))) == "v^-2 + 2 + v^2"

    def test_signs_and_units(self):
        assert str(poly((1, -1), (3, 2))) == "-v + 2v^3"
        assert str(ZERO) == "0"
        assert str(ONE) == "1"

    def test_json_round_trip(self):
        p = poly((-3, 2), (0, -1), (5, 7))
        assert json.loads(json.dumps(p.to_json())) == [[-3, 2], [0, -1], [5, 7]]

    @given(laurent_maps)
    def test_json_round_trip_random(self, d):
        want = sorted([e, c] for e, c in d.items() if c)
        assert json.loads(json.dumps(LaurentPoly(d).to_json())) == want

    @pytest.mark.parametrize("call", [
        lambda: V ** -1,
    ], ids=["negative-power"])
    def test_out_of_domain_calls_raise_a_typed_error(self, call):
        with pytest.raises(PreconditionViolated):
            call()

    @pytest.mark.parametrize("coeffs", [{0: 1.5}, {0.5: 1}, {0: True}],
                             ids=["float-coefficient", "float-exponent", "bool-coefficient"])
    def test_only_integers_build_a_polynomial(self, coeffs):
        with pytest.raises(PreconditionViolated, match="must be integers"):
            LaurentPoly(coeffs)

    @pytest.mark.parametrize("n", [1.5, True], ids=["float", "bool"])
    def test_a_power_takes_only_an_int(self, n):
        with pytest.raises(PreconditionViolated, match="exponent must be an int"):
            V ** n

    @pytest.mark.parametrize("k", [0.5, 1.0, True], ids=["float", "integral-float", "bool"])
    def test_a_shift_takes_only_an_int(self, k):
        # A float shift would leave a float exponent, which no constructor
        # admits; True would shift by 1.
        with pytest.raises(PreconditionViolated, match="shift must be an int"):
            V.shift(k)
        assert V.shift(-1) == ONE and ZERO.shift(3) == ZERO

    @pytest.mark.parametrize("exp,coeff", [(0.5, 1), (0, 1.5), (True, 1), (0, False)],
                             ids=["float-exponent", "float-coefficient", "bool-exponent",
                                  "bool-coefficient"])
    def test_only_integers_build_a_monomial(self, exp, coeff):
        with pytest.raises(PreconditionViolated, match="must be integers"):
            LaurentPoly.monomial(exp, coeff)

    @pytest.mark.parametrize("n", [True, 1.5], ids=["bool", "float"])
    def test_only_an_int_builds_a_constant(self, n):
        with pytest.raises(PreconditionViolated, match="must be integers"):
            LaurentPoly.from_int(n)

    def test_getitem_and_exponents(self):
        p = poly((2, 3), (-1, 1))
        assert p[2] == 3 and p[0] == 0
        assert not p.in_v_times_nonneg()
        assert (V + V * V).in_v_times_nonneg()


# -- sums of products, against plain dicts -------------------------------------------

# Coefficients past 2^64 and exponents past +-100: a packed representation
# must keep these sums exact.
wide_exponents, wide_coefficients = st.integers(-300, 300), st.integers(-2**70, 2**70)
# Monomials are built without the merging loop, so the sums draw them on their own too.
wide_laurents = st.one_of(
    st.dictionaries(wide_exponents, wide_coefficients, max_size=5).map(LaurentPoly),
    st.builds(LaurentPoly.monomial, wide_exponents, wide_coefficients))
keyed = st.dictionaries(st.integers(0, 3), wide_laurents, max_size=4)


def plain(p: LaurentPoly) -> dict:
    return dict(p.terms())


def plain_product(p: LaurentPoly, q: LaurentPoly) -> dict:
    out = {}
    for e1, c1 in p.terms():
        for e2, c2 in q.terms():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


class TestSums:
    @given(st.lists(st.tuples(wide_laurents, wide_laurents), max_size=5))
    def test_sum_of_products(self, pairs):
        want = {}
        for p, q in pairs:
            for e, c in plain_product(p, q).items():
                want[e] = want.get(e, 0) + c
        assert plain(sum_of_products(pairs)) == nonzero(want)
        assert sum_of_products(pairs) == LaurentPoly(want)

    @given(st.lists(st.tuples(keyed, wide_laurents), max_size=5))
    def test_keyed_sum(self, steps):
        raw, want = {}, {}
        for support, c in steps:
            add_products(raw, support, c)
            for x, d in support.items():
                acc = want.setdefault(x, {})
                for e, n in plain_product(d, c).items():
                    acc[e] = acc.get(e, 0) + n
        for x in raw:
            assert plain(raw[x]) == nonzero(want[x])
            assert raw[x] == LaurentPoly(want[x]) and hash(raw[x]) == hash(LaurentPoly(want[x]))
        assert {x: plain(p) for x, p in finish(raw).items()} == {
            x: nonzero(acc) for x, acc in want.items() if nonzero(acc)}

    @given(wide_exponents, wide_coefficients, wide_laurents)
    def test_monomial(self, e, c, plus):
        m = LaurentPoly.monomial(e, c)
        assert plain(m) == nonzero({e: c})
        # plus + m (v^-1 - v), with and without plus.
        want = {e - 1: c, e + 1: -c}
        assert plain(m.mul_vinv_minus_v()) == nonzero(want)
        for x, n in plain(plus).items():
            want[x] = want.get(x, 0) + n
        assert plain(m.mul_vinv_minus_v(plus)) == nonzero(want)

    def test_a_key_whose_terms_cancel_is_dropped(self):
        p = poly((-150, 2**65), (120, -3))
        raw = add_products(add_products({}, {"x": p, "y": V}, ONE), {"x": p}, poly((0, -1)))
        assert raw["x"] == ZERO
        assert finish(raw) == {"y": V}

    def test_a_single_unit_term_is_the_coefficient_itself(self):
        p = poly((-150, 2**65), (120, -3))
        raw = add_products({}, {"x": p}, ONE)
        assert raw["x"] is p and finish(raw)["x"] is p
        shifted = finish(add_products({}, {"x": p}, poly((101, -2**64))))["x"]
        assert shifted == poly((-49, -2**129), (221, 3 * 2**64))




# -- the packed form at its boundaries, against plain dicts -----------------------------

# A 64-bit signed digit holds |c| <= 2^63 - 1; 2^63 and 2^64 need the next width.
EDGE = (2**63 - 1, 2**63, 2**64)
edge_coefficients = st.one_of(st.sampled_from([s * c for c in EDGE for s in (1, -1)]),
                              st.integers(-3, 3), st.integers(-2**200, 2**200))
edge_exponents = st.one_of(st.sampled_from([-150, -149, 0, 149, 150]), st.integers(-4, 4))
edge_maps = st.dictionaries(edge_exponents, edge_coefficients, max_size=4)
edge_laurents = edge_maps.map(LaurentPoly)


def fresh(d: dict) -> LaurentPoly:
    """The polynomial of an exponent map, built anew."""
    return LaurentPoly(nonzero(d))


def plain_sum(*ds: dict) -> dict:
    out = {}
    for d in ds:
        for e, c in d.items():
            out[e] = out.get(e, 0) + c
    return nonzero(out)


class TestPacked:
    @given(edge_laurents, edge_laurents)
    def test_ring_operations_at_the_digit_edges(self, p, q):
        want_sum, want_product = plain_sum(plain(p), plain(q)), nonzero(plain_product(p, q))
        for got, want in [(p + q, want_sum), (p - q, plain_sum(plain(p), plain(-q))),
                          (p * q, want_product), (sum_of_products([(p, q), (q, p)]),
                                                  plain_sum(want_product, want_product)),
                          (p.mul_vinv_minus_v(q), plain_sum(plain(q), plain_product(p, VINV - V))),
                          (finish(add_products({"x": q}, {"x": p}, q)).get("x", ZERO),
                           plain_sum(plain(q), want_product))]:
            assert plain(got) == want
            assert got == fresh(want) and hash(got) == hash(fresh(want))

    @given(edge_laurents)
    def test_every_coefficient_is_one_digit_read(self, p):
        d = plain(p)
        span = range(min(d, default=0) - 2, max(d, default=0) + 3)
        assert [p[e] for e in span] == [d.get(e, 0) for e in span]

    @given(edge_maps)
    def test_bar_and_json_round_trips_at_every_width(self, d):
        p = LaurentPoly(d)
        assert plain(p.bar()) == {-e: c for e, c in plain(p).items()}
        assert p.bar().bar() == p and hash(p.bar().bar()) == hash(p)
        assert p.to_json() == sorted([e, c] for e, c in d.items() if c)
        assert p.bar().to_json() == sorted([-e, c] for e, c in d.items() if c)

    def test_a_product_whose_bound_crosses_2_63_below_the_digit_limit(self):
        # Each factor's l1 norm times the other's is 2^63, but no two terms of
        # the product meet: every coefficient is 2^61 and fits a 64-bit digit.
        p, q = poly((0, 2**30), (10, 2**30)), poly((0, 2**31), (20, 2**31))
        assert sum(abs(c) for _, c in p.terms()) * sum(abs(c) for _, c in q.terms()) == 2**63
        want = {0: 2**61, 10: 2**61, 20: 2**61, 30: 2**61}
        for got in (p * q, sum_of_products([(p, q)]), finish(add_products({}, {0: p}, q))[0]):
            assert plain(got) == want
            assert got == fresh(want) and hash(got) == hash(fresh(want))
        # The exact bound of the re-packed product still sends a sum with it
        # past 2^63 down the exact path.
        assert plain(p * q + p * q - p * q) == want
        assert plain((p * q) * (p * q)) == nonzero(plain_product(p * q, p * q))

    @pytest.mark.parametrize("wide", [2**63, -2**64, 2**129], ids=["2^63", "-2^64", "2^129"])
    def test_a_wide_value_that_cancels_back_is_a_fresh_build(self, wide):
        a, b = poly((0, wide), (5, 3), (150, 2**63 - 1)), poly((0, -wide), (150, 1 - 2**63))
        narrow = poly((5, 3))
        assert a + b == narrow and hash(a + b) == hash(narrow)
        assert sum_of_products([(a, ONE), (b, ONE)]) == narrow
        assert finish(add_products({"x": a}, {"x": b}, ONE)) == {"x": narrow}
        assert Combo({(0,): a}) + Combo({(0,): b}) == Combo({(0,): narrow})
        assert hash(Combo({(0,): a}) + Combo({(0,): b})) == hash(Combo({(0,): narrow}))
        assert str(a + b) == "3v^5"

    def test_a_zero_term_leaves_a_key_as_it_was(self):
        # A zero coefficient, or a zero c, adds nothing, wherever its lo lies.
        for d, c in [(ZERO, ONE), (ZERO, V), (V, ZERO)]:
            assert finish(add_products({"x": V * V}, {"x": d}, c)) == {"x": V * V}
        assert Combo([((0,), V * V), ((0,), 0)]) == Combo({(0,): V * V})


# -- the descent term plus + p (v^-1 - v), against the sum it stands for -------------

def descent_reference(p, plus):
    return (ZERO if plus is None else plus) + p * (VINV - V)


def assert_descent_term(p, plus):
    got, want = p.mul_vinv_minus_v(plus), descent_reference(p, plus)
    assert got == want and hash(got) == hash(want) and got.bound == want.bound
    assert plain(got) == plain_sum(plain(plus or ZERO), plain_product(p, VINV - V))
    assert got == fresh(plain(got))


def m(exp, coeff=1):
    return LaurentPoly.monomial(exp, coeff)


H = 2**63
# Pairs (p, plus) whose bound 2 L_p + L_plus lies just under 2^63 or on it.
DESCENT_EDGES = [
    (m(0, H // 2 - 1), None), (m(0, H // 2), None),
    (m(0, -(H // 4)), m(-1, -(H // 2 - 1))), (m(0, H // 4), m(-1, H // 2)),
    (m(0, H // 4), m(-1, -(H // 4)) + m(3, H // 4 - 1)),
    (m(0, H // 4), m(-1, -(H // 4)) + m(3, H // 4)),
    (m(-3, H // 8) + m(4, -(H // 8)), m(7, H // 2 - 1)),
    (m(-3, H // 8) + m(4, -(H // 8)), m(-9, H // 2)),
]


class TestDescentTerm:
    @pytest.mark.parametrize("plus", [None, ZERO, V, VINV, m(-1, 2), m(-5) + m(4, -2),
                                      m(0, 2**64)],
                             ids=["none", "zero", "above", "at", "at-2", "below", "wide"])
    def test_a_zero_p_gives_plus(self, plus):
        got = ZERO.mul_vinv_minus_v(plus)
        assert got == (ZERO if plus is None else plus)
        assert_descent_term(ZERO, plus)

    @given(laurents)
    def test_no_plus_is_a_zero_plus(self, p):
        assert p.mul_vinv_minus_v() == p.mul_vinv_minus_v(ZERO) == p.mul_vinv_minus_v(None)
        assert_descent_term(p, None)
        assert_descent_term(p, ZERO)

    @given(nonzero_laurents, laurents, st.integers(-3, 3))
    def test_plus_one_below_p_cancels_the_low_digits(self, p, tail, k):
        # plus starts at p.lo - 1 with minus p's lowest coefficient, so the
        # lowest digit of the sum cancels, and with k = 0 more may.
        low = m(p.lo - 1, -p[p.lo])
        plus = low + tail.shift(p.lo - tail.lo + 1 + abs(k)) if tail else low
        assert plus.lo == p.lo - 1
        assert_descent_term(p, plus)
        assert_descent_term(p, -p.mul_vinv_minus_v() + tail.shift(k))
        assert p.mul_vinv_minus_v(-p.mul_vinv_minus_v()) == ZERO

    @pytest.mark.parametrize("p,plus", DESCENT_EDGES, ids=[
        "p-under", "p-at", "same-lo-under", "same-lo-at", "cancel-under", "cancel-at",
        "above-under", "below-at"])
    def test_bounds_at_2_63(self, p, plus):
        bound = 2 * p.bound + (0 if plus is None else plus.bound)
        assert bound in (H - 1, H - 2, H)
        assert_descent_term(p, plus)

    @given(st.dictionaries(st.integers(-3, 3), st.sampled_from(
        [1, 3, H // 8, H // 4 - 1, H // 4, H // 2 - 1, H // 2, H - 1]).flatmap(
            lambda c: st.sampled_from([c, -c])), max_size=3).map(LaurentPoly),
           st.one_of(st.none(), edge_laurents))
    def test_against_the_sum_near_2_63(self, p, plus):
        assert_descent_term(p, plus)


def test_only_laurent_reads_the_packed_fields():
    src = pathlib.Path(laurent.__file__).parent
    fields = set(LaurentPoly.__slots__)
    readers = {path.name for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in fields}
    assert readers == {"laurent.py"}
