import ast
import pathlib
import types
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from heckesphere import laurent
from heckesphere.errors import DivisionByZero, NotDivisible, PreconditionViolated
from heckesphere.laurent import (LaurentPoly, ONE, V, VINV, ZERO, add_products, finish,
                                 sum_of_products, total)
from heckesphere.linear import Combo


def poly(*pairs):
    return LaurentPoly(pairs)


laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPoly)

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


class TestDivision:
    def test_basic(self):
        assert poly((0, 1), (2, 1)).divide_exact(V + VINV) == V

    def test_zero_dividend(self):
        assert ZERO.divide_exact(V + VINV) == ZERO

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            (ONE + V).divide_exact(V + VINV)

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            ONE.divide_exact(ZERO)

    def test_integer_coefficient_obstruction(self):
        with pytest.raises(NotDivisible):
            V.divide_exact(poly((0, 2)))

    @given(laurents, nonzero_laurents)
    def test_round_trip(self, a, b):
        assert (a * b).divide_exact(b) == a


class TestRendering:
    def test_ascending_text(self):
        assert str(poly((2, 1), (-2, 1), (0, 2))) == "v^-2 + 2 + v^2"

    def test_signs_and_units(self):
        assert str(poly((1, -1), (3, 2))) == "-v + 2v^3"
        assert str(ZERO) == "0"
        assert str(ONE) == "1"

    def test_json_round_trip(self):
        p = poly((-3, 2), (0, -1), (5, 7))
        assert p.to_json() == [[-3, 2], [0, -1], [5, 7]]
        assert LaurentPoly.from_json(p.to_json()) == p

    @given(laurents)
    def test_json_round_trip_random(self, p):
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_json_sums_repeated_exponents_as_the_constructor_does(self):
        summed = LaurentPoly.from_json([[0, 1], [0, 2]])
        assert summed == LaurentPoly([(0, 1), (0, 2)]) == poly((0, 3))
        assert LaurentPoly.from_json([[1, 2], [1, -2]]) == ZERO

    @pytest.mark.parametrize("data", [[[1]], [[1, 2, 3]], "x", 5, [1, 2], [["1", 2]],
                                      [[1.5, 2]], [[0, True]], None],
                             ids=["short", "long", "string", "int", "flat", "str-exp",
                                  "float-exp", "bool-coeff", "null"])
    def test_malformed_json_is_rejected(self, data):
        with pytest.raises(PreconditionViolated, match="exponent, coefficient"):
            LaurentPoly.from_json(data)

    @pytest.mark.parametrize("call", [
        lambda: LaurentPoly.zero().min_exp(),
        lambda: LaurentPoly.zero().max_exp(),
        lambda: V ** -1,
    ], ids=["min_exp-of-zero", "max_exp-of-zero", "negative-power"])
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
        assert p.min_exp() == -1 and p.max_exp() == 2
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
            assert plain(total(raw[x])) == nonzero(want[x])
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
        assert total(raw["x"]) == ZERO
        assert finish(raw) == {"y": V}

    def test_a_single_unit_term_is_the_coefficient_itself(self):
        p = poly((-150, 2**65), (120, -3))
        raw = add_products({}, {"x": p}, ONE)
        assert total(raw["x"]) is p and finish(raw)["x"] is p
        shifted = finish(add_products({}, {"x": p}, poly((101, -2**64))))["x"]
        assert shifted == poly((-49, -2**129), (221, 3 * 2**64))


def test_only_laurent_reads_the_exponent_map():
    src = pathlib.Path(laurent.__file__).parent
    readers = {path.name for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "coeffs"}
    assert readers == {"laurent.py"}
