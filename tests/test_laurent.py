import types
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from heckesphere.errors import DivisionByZero, NotDivisible, PreconditionViolated
from heckesphere.laurent import LaurentPoly, ONE, V, VINV, ZERO
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

    @given(laurents)
    def test_mul_vinv_minus_v(self, p):
        # Includes cancelling neighbours: (v^-1 + v)(v^-1 - v) = v^-2 - v^2.
        assert p.mul_vinv_minus_v() == p * (VINV - V)
        assert (V + VINV).mul_vinv_minus_v() == poly((-2, 1), (2, -1))


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

    def test_getitem_and_exponents(self):
        p = poly((2, 3), (-1, 1))
        assert p[2] == 3 and p[0] == 0
        assert p.min_exp() == -1 and p.max_exp() == 2
        assert not p.in_v_times_nonneg()
        assert (V + V * V).in_v_times_nonneg()
