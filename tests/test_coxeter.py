import itertools

import pytest
from hypothesis import given, settings, strategies as st

from heckesphere import catalog, verify
from heckesphere.cli import main
from heckesphere.coxeter import IDENTITY, INFINITY, CoxeterMatrix, CoxeterSystem, RexMove
from heckesphere.errors import (
    BudgetExceeded,
    DifferentElements,
    InvalidMatrix,
    NotReduced,
    PreconditionViolated,
)
from heckesphere.spherical import SphericalModule

from conftest import F4, H4

S, T, U = 0, 1, 2


class TestMatrix:
    def test_validation(self):
        with pytest.raises(InvalidMatrix):
            CoxeterMatrix(("s", "t"), ((2, 3), (3, 1)))
        with pytest.raises(InvalidMatrix):
            CoxeterMatrix(("s", "t"), ((1, 3), (4, 1)))
        with pytest.raises(InvalidMatrix):
            CoxeterMatrix(("s", "t"), ((1, 1), (1, 1)))
        with pytest.raises(InvalidMatrix):
            CoxeterMatrix(("s", "s"), ((1, 3), (3, 1)))

    def test_json_round_trip(self):
        m = catalog.B3
        assert CoxeterMatrix.from_json(m.to_json()) == m

    def test_infinity_sentinel(self):
        assert catalog.INF_DIHEDRAL.order(S, T) == 0


class TestBuild:
    def test_a2_has_six_elements(self, a2):
        assert len(a2.elements()) == 6
        assert a2.is_finite

    def test_infinite_dihedral_ball(self):
        sys = CoxeterSystem(catalog.INF_DIHEDRAL, 5)
        assert len(sys.elements()) == 11
        assert not sys.is_finite

    def test_budget_zero(self):
        sys = CoxeterSystem(catalog.A2, 0)
        assert sys.elements() == [IDENTITY]

    def test_orders(self, b2, a3, b3, h3, i2_7):
        assert len(b2.elements()) == 8
        assert len(a3.elements()) == 24
        assert len(b3.elements()) == 48
        assert len(h3.elements()) == 120
        assert len(i2_7.elements()) == 14

    def test_budget_exceeded(self):
        sys = CoxeterSystem(catalog.INF_DIHEDRAL, 3)
        with pytest.raises(BudgetExceeded):
            sys.element((S, T, S, T))


class TestNormalize:
    def test_reduced(self, a2):
        elem, reduced = a2.normalize((S, T, S))
        assert elem == (S, T, S) and reduced

    def test_involution(self, a2):
        elem, reduced = a2.normalize((S, S))
        assert elem == IDENTITY and not reduced

    def test_braid_canonical(self, a2):
        assert a2.element((T, S, T)) == (S, T, S)

    def test_braid_invariance_exhaustive(self, b2):
        # Applying a braid relation anywhere in a reduced word never changes
        # the element.
        for w in b2.elements():
            for rw in b2.reduced_words(w):
                assert b2.element(rw) == w


class TestBruhat:
    def _subword_leq(self, x, y):
        # Oracle: x <= y iff some reduced word of y has x's word as a subword.
        def is_subword(a, b):
            it = iter(b)
            return all(ch in it for ch in a)
        return is_subword(x, y)

    @pytest.mark.parametrize("fixture", ["a2", "b2", "a3"])
    def test_matches_subword_oracle(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        for x in sys.elements():
            for y in sys.elements():
                # x <= y iff some reduced word of x is a subword of a (fixed)
                # reduced word of y.
                oracle = any(
                    self._subword_leq(rw, y) for rw in sys.reduced_words(x)
                )
                assert sys.bruhat_leq(x, y) == oracle, (x, y)

    def test_identity_below_everything(self, a3):
        assert all(a3.bruhat_leq(IDENTITY, w) for w in a3.elements())

    def test_incomparable(self, a2):
        assert not a2.bruhat_leq((S, T), (T, S))
        assert not a2.bruhat_leq((T, S), (S, T))


class TestRexGraph:
    def test_a2_longest(self, a2):
        assert a2.rex_graph((S, T, S)) == [(S, T, S), (T, S, T)]
        move = a2.rex_path((T, S, T), (S, T, S))
        assert move.applications == ((0, T, S, 3),)
        assert move.replay(a2) == [(T, S, T), (S, T, S)]

    def test_identity_path(self, a2):
        assert a2.rex_path((S, T), (S, T)).is_identity

    def test_b2_longest(self, b2):
        w0 = b2.element((S, T, S, T))
        assert b2.rex_graph(w0) == [(S, T, S, T), (T, S, T, S)]
        assert len(b2.rex_path((T, S, T, S), (S, T, S, T)).applications) == 1

    def test_a3_longest_has_16_reduced_words(self, a3):
        w0 = a3.element((S, T, S, U, T, S))
        assert len(a3.rex_graph(w0)) == 16

    def test_errors(self, a2):
        with pytest.raises(NotReduced):
            a2.rex_path((S, S), (S, S))
        with pytest.raises(DifferentElements):
            a2.rex_path((S, T), (T, S))

    def test_find_rex_exhausts_without_goal(self, a2):
        # (s, t) is the only reduced word of st, and it does not end in s.
        with pytest.raises(DifferentElements):
            a2.find_rex((S, T), lambda w: w[-1] == S)

    def test_replay_rejects_an_application_off_its_word(self, a2):
        move = RexMove((S, T, S), (T, S, T), ((0, T, S, 3),))
        with pytest.raises(NotReduced):
            move.replay(a2)


class TestParabolic:
    def test_a2_singleton(self, a2):
        data = a2.parabolic({S})
        assert data.members == (IDENTITY, (S,)) and data.w_J == (S,) and data.d_J == 1

    def test_a2_full(self, a2):
        data = a2.parabolic({S, T})
        assert data.w_J == (S, T, S) and data.d_J == 3

    def test_infinite_not_certifiable(self, inf_dihedral):
        with pytest.raises(BudgetExceeded):
            inf_dihedral.parabolic({S, T})

    def test_w_J_descents(self, b3):
        for J in [{S}, {T}, {S, T}, {T, U}, {S, U}, {S, T, U}]:
            data = b3.parabolic(J)
            assert J <= b3.right_descents(data.w_J)


class TestCosets:
    def test_a2_mcrs(self, a2):
        assert a2.min_coset_reps({S}) == [IDENTITY, (T,), (T, S)]

    def test_b2_mcrs(self, b2):
        assert b2.min_coset_reps({S}) == [IDENTITY, (T,), (T, S), (T, S, T)]

    def test_empty_J_gives_everything(self, a2):
        assert a2.min_coset_reps(set()) == a2.elements()

    def test_decompose_examples(self, a2):
        assert a2.coset_decompose((S, T, S), frozenset({S})) == ((S,), (T, S))
        assert a2.coset_decompose((S, T), frozenset({S})) == ((S,), (T,))
        assert a2.coset_decompose((T, S), frozenset({S})) == (IDENTITY, (T, S))

    def test_decompose_exhaustive(self, b3):
        for J in map(frozenset, [{S}, {T}, {S, T}, {T, U}, {S, T, U}]):
            for w in b3.elements():
                u, z = b3.coset_decompose(w, J)
                assert b3.mult(u, z) == w
                assert len(u) + len(z) == len(w)
                assert set(u) <= J
                assert b3.is_mcr(z, J)


class TestWallCross:
    def test_a2_example(self, a2):
        assert a2.wall_cross((T, S), T, frozenset({S})) == S

    def test_identity_case(self, a2):
        assert a2.wall_cross(IDENTITY, S, frozenset({S})) == S

    def test_b2_example(self, b2):
        # tst . s = tsts = stst = s . tst
        assert b2.wall_cross((T, S, T), S, frozenset({S})) == S

    def test_preconditions(self, a2):
        J = frozenset({S})
        with pytest.raises(PreconditionViolated):
            a2.wall_cross((S,), T, J)  # s is not an mcr
        with pytest.raises(PreconditionViolated):
            a2.wall_cross((T,), S, J)  # ts stays an mcr


class TestWords:
    def test_parse_and_format(self, a2):
        assert a2.parse_word("tst") == (T, S, T)
        assert a2.parse_word("") == ()
        assert a2.format_word((S, T, S)) == "sts"

    def test_inverse(self, b2):
        for w in b2.elements():
            assert b2.mult(w, b2.inverse(w)) == IDENTITY


class TestNonCanonicalWords:
    def test_reduced_but_not_canonical(self, a2, a2_algebra):
        alg = a2_algebra
        for call in (
            lambda: a2.right_descents((T, S, T)),
            lambda: alg.multiply(alg.delta((T, S, T)), alg.b_s(S)),
            lambda: a2.bruhat_leq((S,), (T, S, T)),
            lambda: alg.kl_basis((T, S, T)),
            lambda: SphericalModule(alg, ()).kl_c((T, S, T)),
        ):
            with pytest.raises(PreconditionViolated, match=r"\(1, 0, 1\)"):
                call()

    def test_kl_c_of_a_non_mcr_is_rejected(self, a2_algebra):
        with pytest.raises(PreconditionViolated, match="minimal coset representative"):
            SphericalModule(a2_algebra, {S}).kl_c((S,))

    def test_not_reduced(self, a2):
        with pytest.raises(PreconditionViolated, match=r"\(0, 0\)"):
            a2.inverse((S, S))


def _alternating(a, b, length):
    return tuple(a if i % 2 == 0 else b for i in range(length))


def _braid_class_reference(matrix, budget):
    """Reference enumeration: each element as the set of all its reduced words,
    closed under braid moves (Matsumoto's theorem).  Returns the classes by
    canonical word and the map from every reduced word to its canonical one."""

    def braid_class(word):
        seen, todo = {word}, [word]
        while todo:
            w = todo.pop()
            for i in range(len(w) - 1):
                s, t = w[i], w[i + 1]
                m = matrix.order(s, t)
                if s != t and m != INFINITY and w[i:i + m] == _alternating(s, t, m):
                    nb = w[:i] + _alternating(t, s, m) + w[i + m:]
                    if nb not in seen:
                        seen.add(nb)
                        todo.append(nb)
        return frozenset(seen)

    classes = {IDENTITY: frozenset({IDENTITY})}
    index = {IDENTITY: IDENTITY}
    layer = [IDENTITY]
    for _ in range(budget):
        grown = {w + (s,) for w in layer for s in range(matrix.rank)
                 if not any(rw[-1:] == (s,) for rw in classes[w])}
        layer = []
        for word in sorted(grown):
            if word not in index:
                words = braid_class(word)
                classes[min(words)] = words
                index.update(dict.fromkeys(words, min(words)))
                layer.append(min(words))
    return classes, index


def _check_against_reference(matrix, budget):
    sys = CoxeterSystem(matrix, budget)
    classes, index = _braid_class_reference(matrix, budget)
    assert sys.elements() == sorted(classes, key=lambda w: (len(w), w))
    for w, words in classes.items():
        assert sys.reduced_words(w) == words
        assert sys.right_descents(w) == {rw[-1] for rw in words if rw}
        assert sys.left_descents(w) == {rw[0] for rw in words if rw}
        assert sys.inverse(w) == index[w[::-1]]
        for s in range(matrix.rank):
            shorter = [rw[:-1] for rw in words if rw and rw[-1] == s]
            want = index[shorter[0]] if shorter else index.get(w + (s,))
            if want is None:
                with pytest.raises(BudgetExceeded):
                    sys.right_mult(w, s)
            else:
                assert sys.right_mult(w, s) == want


_BONDS = st.sampled_from([2, 3, 4, 5, 6, INFINITY])


@st.composite
def _matrices(draw):
    n = draw(st.integers(3, 4))
    m = [[1] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        m[i][j] = m[j][i] = draw(_BONDS)
    return CoxeterMatrix(tuple("stuv"[:n]), tuple(map(tuple, m)))


class TestTableAgainstBraidClasses:
    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN))
    def test_builtin(self, name):
        _check_against_reference(catalog.BUILTIN[name], 10)

    @settings(max_examples=60, deadline=None)
    @given(_matrices(), st.integers(0, 6))
    def test_random_matrices(self, matrix, budget):
        _check_against_reference(matrix, budget)


class TestUnclosedBall:
    def test_descent_of_top_layer_resolves(self, inf_dihedral, capsys):
        top = _alternating(S, T, 8)
        assert top in inf_dihedral.elements()
        assert inf_dihedral.right_mult(top, T) == _alternating(S, T, 7)
        assert inf_dihedral.element(top + (T,)) == _alternating(S, T, 7)
        with pytest.raises(BudgetExceeded):
            inf_dihedral.right_mult(top, S)
        code = main(["kl", "--system", "infinite_dihedral", "--budget", "8",
                     "-x", "ststststs"])
        assert code == 3 and "budget" in capsys.readouterr().err

    def test_wall_crossing_into_top_layer(self):
        # H3 at budget 12 has z*s in the top layer for four wall-crossings;
        # t = z*s*z^-1 is found by walking down from z*s.
        h3 = CoxeterSystem(catalog.H3, 12)
        z = (S, T, S, T, U, T, S, T, S, U, T)
        assert h3.wall_cross(z, U, frozenset({T})) == T
        res = verify.Run(h3).check("spherical", "decomp-wallcross",
                                   verify.check_decomp_wallcross)
        assert res.failures == [] and res.cases > 0 and res.skipped_budget == 0


def _chain(*bonds):
    """Coxeter matrix of a linear diagram with the given bond orders."""
    n = len(bonds) + 1
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, b in enumerate(bonds):
        m[i][i + 1] = m[i + 1][i] = b
    return CoxeterMatrix(tuple("stuv"[:n]), tuple(map(tuple, m)))


def _poincare(degrees):
    """Coefficients of prod_i [d_i]_q, the length generating function."""
    coeffs = [1]
    for d in degrees:
        out = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                out[i + j] += c
        coeffs = out
    return coeffs


class TestRankFourAnchors:
    D4 = CoxeterMatrix(
        ("s", "t", "u", "v"),
        ((1, 3, 2, 2), (3, 1, 3, 3), (2, 3, 1, 2), (2, 3, 2, 1)),
    )

    @pytest.mark.parametrize("matrix,order,degrees", [
        (_chain(3, 3, 3), 120, (2, 3, 4, 5)),
        (_chain(4, 3, 3), 384, (2, 4, 6, 8)),
        (D4, 192, (2, 4, 4, 6)),
        (F4, 1152, (2, 6, 8, 12)),
        (H4, 14400, (2, 12, 20, 30)),
    ], ids=["A4", "B4", "D4", "F4", "H4"])
    def test_order_and_poincare_polynomial(self, matrix, order, degrees):
        sys = CoxeterSystem(matrix, sum(d - 1 for d in degrees))
        assert sys.is_finite
        elems = sys.elements()
        assert len(elems) == order
        counts = [0] * (max(map(len, elems)) + 1)
        for w in elems:
            counts[len(w)] += 1
        assert counts == _poincare(degrees)
