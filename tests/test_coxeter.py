import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from heckesphere import catalog, strolls, verify
from heckesphere.cli import main
from heckesphere.coxeter import IDENTITY, INFINITY, CoxeterMatrix, CoxeterSystem, RexMove
from heckesphere.errors import (
    BudgetExceeded,
    DifferentElements,
    HeckesphereError,
    InvalidMatrix,
    NotReduced,
    PreconditionViolated,
)
from heckesphere.hecke import HeckeAlgebra
from heckesphere.laurent import LaurentPoly
from heckesphere.spherical import SphericalModule

from conftest import AFFINE_A2, B4, D4, F4, H4, shallow_stack

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

    @pytest.mark.parametrize("m", [((1, 3.9), (3.9, 1)), ((True, 3), (3, 1)), ((1, "4"), ("4", 1))],
                             ids=["float", "bool", "string"])
    def test_entries_must_be_integers(self, m):
        # int() would make each a valid entry: 3.9 -> 3, True -> 1, "4" -> 4.
        with pytest.raises(InvalidMatrix, match="integers"):
            CoxeterMatrix(("s", "t"), m)
        with pytest.raises(InvalidMatrix, match="integers"):
            CoxeterMatrix.from_json({"generators": ["s", "t"], "m": [list(r) for r in m]})

    @pytest.mark.parametrize("generators", [[1, 2], [None, True], "st"],
                             ids=["integers", "null-and-bool", "string"])
    def test_generator_names_must_be_a_list_of_strings(self, generators):
        # str() would make each a pair of names: '1', '2'; 'None', 'True'; s, t.
        with pytest.raises(InvalidMatrix, match="generator names must be a list of strings"):
            CoxeterMatrix.from_json({"generators": generators, "m": [[1, 3], [3, 1]]})

    @pytest.mark.parametrize("make", [
        lambda: CoxeterMatrix((0, 1), ((1, 3), (3, 1))),
        lambda: catalog.A2._replace(generators=(0, 1)),
        lambda: CoxeterMatrix._make(((["s"], "t"), ((1, 3), (3, 1)))),
    ], ids=["new", "replace", "make-unhashable"])
    def test_every_constructor_takes_only_string_names(self, make):
        # Such a matrix used to be accepted, and format_word then raised a bare TypeError.
        with pytest.raises(InvalidMatrix, match="generator names must be a list of strings"):
            make()

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

    @pytest.mark.parametrize("budget", [2.5, True, "3", None, -1])
    def test_budget_must_be_a_nonnegative_int(self, budget):
        # 2.5 would cut elements() at length 2, and True would act as 1.
        with pytest.raises(InvalidMatrix, match="^length budget must be a nonnegative integer$"):
            CoxeterSystem(catalog.A2, budget)

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

    def test_a_long_word_takes_no_frame_per_letter(self):
        system = CoxeterSystem(catalog.INF_DIHEDRAL, 300)
        x, y = system.element((T, S) * 100), system.element((S, T) * 110)
        with shallow_stack():
            assert system.bruhat_leq(x, y)
            assert not system.bruhat_leq(y, x)


class TestRexGraph:
    def test_a2_longest(self, a2):
        assert a2.rex_graph((S, T, S)) == [(S, T, S), (T, S, T)]
        move = a2.rex_path((T, S, T), (S, T, S))
        assert move.applications == ((0, T, S, 3),)
        assert move.replay(a2) == [(T, S, T), (S, T, S)]

    def test_identity_path(self, a2):
        assert a2.rex_path((S, T), (S, T)).applications == ()

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
        # Only a certified W_J is memoized, so each call raises again.
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                inf_dihedral.parabolic({S, T})

    def test_memoized_per_J(self, b3):
        data = b3.parabolic({S, T})
        assert b3.parabolic((T, S)) is data
        assert b3.parabolic([S]) is not data

    def test_budget_edges(self):
        # At budget 3 w_J is in the ball's last layer; at budget 2 it is past it.
        data = CoxeterSystem(catalog.A2, 3).parabolic({S, T})
        assert data.w_J == (S, T, S) and data.d_J == 3 and len(data.members) == 6
        with pytest.raises(BudgetExceeded,
                           match=r"^cannot certify that J=\[0, 1\] is finitary within budget 2$"):
            CoxeterSystem(catalog.A2, 2).parabolic({S, T})

    def test_read_off_the_table(self, monkeypatch):
        # Once the ball is built, W_J takes no product.
        system = CoxeterSystem(catalog.B3, 12)
        system.elements()
        for name in ("right_mult", "mult"):
            monkeypatch.setattr(CoxeterSystem, name, lambda *args: pytest.fail("a product"))
        for J in _subsets(range(3)):
            system.parabolic(J)

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

    def test_a_J_letter_outside_S_is_rejected(self, a2):
        with pytest.raises(InvalidMatrix, match=r"^J=\[9\]: letter 9 out of range$"):
            a2.min_coset_reps({9})

    @pytest.mark.parametrize("call,message", [
        (lambda a2: HeckeAlgebra(a2).b_s("s"), "letter 's' is not an int"),
        (lambda a2: HeckeAlgebra(a2).b_s(1.0), "letter 1.0 is not an int"),
        (lambda a2: a2.right_mult((), "s"), "letter 's' is not an int"),
        (lambda a2: SphericalModule(HeckeAlgebra(a2), "s"), "J: letter 's' is not an int"),
        (lambda a2: SphericalModule(HeckeAlgebra(a2), [True]), "J: letter True is not an int"),
        (lambda a2: SphericalModule(HeckeAlgebra(a2), [T, True]), "J: letter True is not an int"),
        (lambda a2: a2.check_J([T, True]), "J: letter True is not an int"),
        (lambda a2: a2.check_J([S, "t", None]), "J: letter 't' is not an int"),
        (lambda a2: strolls.decorations(a2, ["s"], (S, T)), "J: letter 's' is not an int"),
        # {True} equals the cached {1}, so the memos must not answer first.
        (lambda a2: a2.parabolic({T}) and a2.parabolic([True]), "J: letter True is not an int"),
        (lambda a2: (alg := HeckeAlgebra(a2)).b_wJ_and_pi({T}) and alg.b_wJ_and_pi([True]),
         "J: letter True is not an int"),
    ], ids=["b_s-str", "b_s-float", "right_mult-str", "module-str", "module-bool",
            "module-bool-after-1", "check_J-bool-after-1", "check_J-mixed", "decorations-str",
            "parabolic-bool-after-cached-1", "b_wJ-bool-after-cached-1"])
    def test_a_letter_that_is_not_an_int_is_rejected(self, a2, call, message):
        # The first bad letter in J's order is named; letters of mixed types
        # are never sorted against each other.
        with pytest.raises(InvalidMatrix, match=f"^{re.escape(message)}$"):
            call(a2)

    def test_check_J_returns_J_as_a_frozenset(self, a2):
        assert a2.check_J([T, S, T]) == frozenset({S, T})
        assert type(a2.check_J(iter([S]))) is frozenset

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
        with pytest.raises(PreconditionViolated, match=r"for J=\[0\]"):
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

    @pytest.mark.parametrize("matrix,budget", [(F4, 24), (AFFINE_A2, 40)],
                             ids=["f4@24", "affine_a2@40"])
    def test_each_inverse_inverts_and_is_inverted(self, matrix, budget):
        system = CoxeterSystem(matrix, budget)
        for w in system.elements():
            assert system.inverse(system.inverse(w)) == w
            assert system.mult(w, system.inverse(w)) == IDENTITY


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

    @pytest.mark.parametrize("x,y", [((T, S, T), (T, S, T)), ((S, S, S, S), (T,)),
                                     (IDENTITY, (S, S))],
                             ids=["equal", "longer", "identity"])
    def test_bruhat_leq_checks_both_words_before_its_shortcuts(self, x, y):
        with pytest.raises(PreconditionViolated, match="is not the canonical word"):
            CoxeterSystem(catalog.A2, 10).bruhat_leq(x, y)


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


def _outcome(call):
    """What a call returns, or the type and message of the package error it raises."""
    try:
        return call()
    except HeckesphereError as exc:
        return type(exc).__name__, str(exc)


def _random_queries(ref, rng, count):
    """A seeded mix of queries, as functions of a system.  Words are mostly
    short, some past the budget, and some not canonical; `ref`, a fully
    built system, only picks the canonical word of a random one."""
    n, budget = ref.matrix.rank, ref.budget

    def word():
        raw = tuple(rng.randrange(n) for _ in range(int(rng.random() ** 3 * (budget + 3))))
        if rng.random() < 0.2:
            return raw
        try:
            return ref.element(raw)
        except BudgetExceeded:
            return raw

    def subset():
        return frozenset(s for s in range(n) if rng.random() < 0.5)

    queries = []
    for _ in range(count):
        w, v, s, J = word(), word(), rng.randrange(n), subset()
        queries.append(rng.choice([
            lambda sys, w=w: sys.element(w),
            lambda sys, w=w, s=s: sys.right_mult(w, s),
            lambda sys, w=w, s=s: sys.left_mult(s, w),
            lambda sys, w=w: sys.inverse(w),
            lambda sys, w=w: sys.left_descents(w),
            lambda sys, w=w, J=J: sys.is_mcr(w, J),
            lambda sys, w=w, v=v: sys.bruhat_leq(w, v),
            lambda sys, J=J: sys.parabolic(J).members,
        ]))
    return queries


# Each finite built-in system at a budget that closes it, and balls the budget cuts.
LAZY_CASES = [(catalog.BUILTIN[name], budget) for name, budget in
              [("a2", 10), ("b2", 10), ("h2", 10), ("i2_7", 14), ("a3", 12), ("b3", 12),
               ("h3", 18)]]
LAZY_CASES += [(AFFINE_A2, 6), (AFFINE_A2, 12)]
LAZY_CASES += [(catalog.INF_DIHEDRAL, budget) for budget in (0, 1, 9)]


class TestLazyGrowth:
    """The group grows one layer at a time as queries reach it; whatever the
    order of the queries, it is the group a full build gives."""

    @pytest.mark.parametrize("matrix,budget", LAZY_CASES, ids=[
        "a2", "b2", "h2", "i2_7", "a3", "b3", "h3", "affine_a2@6", "affine_a2@12",
        "inf_dihedral@0", "inf_dihedral@1", "inf_dihedral@9"])
    def test_any_query_order_gives_the_full_build(self, matrix, budget):
        full = CoxeterSystem(matrix, budget)
        full.elements()
        lazy = CoxeterSystem(matrix, budget)
        for query in _random_queries(full, random.Random(budget), 60):
            assert _outcome(lambda: query(lazy)) == _outcome(lambda: query(full))
        assert lazy.elements() == full.elements()
        assert lazy._layers == full._layers
        assert CoxeterSystem(matrix, budget).is_finite == lazy.is_finite == full.is_finite
        for w in full.elements():
            assert lazy.right_descents(w) == full.right_descents(w)
            assert lazy.left_descents(w) == full.left_descents(w)
            assert lazy.inverse(w) == full.inverse(w)
            for s in range(matrix.rank):
                assert _outcome(lambda: lazy.right_mult(w, s)) == \
                    _outcome(lambda: full.right_mult(w, s))

    def test_growth_multiplies_no_words(self, monkeypatch):
        # Each element takes its inverse from one layer down as it is added.
        calls = []
        mult = CoxeterSystem.mult
        monkeypatch.setattr(CoxeterSystem, "mult",
                            lambda self, x, y: calls.append((x, y)) or mult(self, x, y))
        assert len(CoxeterSystem(catalog.INF_DIHEDRAL, 200).elements()) == 401
        assert calls == []

    def test_messages_are_unchanged(self):
        def fresh(budget=3):
            return CoxeterSystem(catalog.INF_DIHEDRAL, budget)

        for call, error, message in [
            (lambda: fresh().elements(4), BudgetExceeded, "requested length 4 > budget 3"),
            (lambda: fresh(9).elements(10), BudgetExceeded, "requested length 10 > budget 9"),
            (lambda: CoxeterSystem(catalog.A2, 2).elements(3), BudgetExceeded,
             "requested length 3 > budget 2"),
            (lambda: fresh().right_mult((S, T, S), T), BudgetExceeded,
             "product of length 4 exceeds budget 3"),
            (lambda: fresh().element((S, T, S, T)), BudgetExceeded,
             "product of length 4 exceeds budget 3"),
            (lambda: fresh().parabolic({S, T}), BudgetExceeded,
             "cannot certify that J=[0, 1] is finitary within budget 3"),
            (lambda: fresh().inverse((S, T, S, T)), PreconditionViolated,
             "(0, 1, 0, 1) is not the canonical word of an element within the budget"),
            (lambda: CoxeterSystem(catalog.A2, 10).inverse((T, S, T)), PreconditionViolated,
             "(1, 0, 1) is not the canonical word of an element within the budget"),
            (lambda: fresh().right_descents((S, S)), PreconditionViolated,
             "(0, 0) is not the canonical word of an element within the budget"),
            (lambda: fresh().right_mult(IDENTITY, 2), InvalidMatrix, "letter 2 out of range"),
        ]:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                call()
        assert CoxeterSystem(catalog.A2, 10).elements(11) == CoxeterSystem(catalog.A2, 3).elements()

    def test_a_rejected_letter_grows_nothing(self):
        sys = CoxeterSystem(catalog.INF_DIHEDRAL, 100000)
        with pytest.raises(InvalidMatrix):
            sys.right_mult(IDENTITY, 2)
        assert sys._layers == [[IDENTITY]]

    @pytest.mark.parametrize("call", [
        lambda system, word: system.normalize(word),
        lambda system, word: strolls.localized_summands(system, word),
        lambda system, word: strolls.decorate(system, frozenset(), word, (0,) * len(word)),
        lambda system, word: strolls.endpoint_polys(system, frozenset(), word),
    ], ids=["normalize", "localized_summands", "decorate", "endpoint_polys"])
    def test_a_bad_letter_in_a_word_wins_over_the_budget(self, call):
        # Every letter is checked before the first step, which would leave the ball.
        system = CoxeterSystem(catalog.INF_DIHEDRAL, 3)
        with pytest.raises(InvalidMatrix, match="^letter 5 out of range$"):
            call(system, (S, T, S, T, 5))

    @pytest.mark.parametrize("grown", [False, True], ids=["fresh", "grown"])
    @pytest.mark.parametrize("letter,message", [
        (True, "letter True is not an int"), (1.0, "letter 1.0 is not an int"),
        (-1, "letter -1 out of range"), (2, "letter 2 out of range")],
        ids=["bool", "float", "negative", "rank"])
    @pytest.mark.parametrize("call", [
        lambda a2, s: a2.right_table(s),
        lambda a2, s: a2.right_mult((T, S), s),
        lambda a2, s: a2.mult(IDENTITY, (T, s)),
        lambda a2, s: a2.left_mult(s, (S,)),
        lambda a2, s: a2.wall_cross(IDENTITY, s, frozenset({T})),
    ], ids=["right_table", "right_mult", "mult", "left_mult", "wall_cross"])
    def test_a_bad_letter_is_rejected_fresh_or_grown(self, call, letter, message, grown):
        # True == 1.0 == 1 as a dict key, so the check cannot be a lookup.
        system = CoxeterSystem(catalog.A2, 10)
        if grown:
            system.elements()
        with pytest.raises(InvalidMatrix, match=f"^{re.escape(message)}$"):
            call(system, letter)

    def test_a_table_kept_past_its_system_raises_a_library_error(self):
        # The table reaches its system by a weak reference, dead once the system is.
        t = CoxeterSystem(catalog.A2, 10).right_table(0)
        with pytest.raises(PreconditionViolated, match="CoxeterSystem of this table is gone"):
            t[(1, 0)]

    def test_a_short_kl_query_builds_only_the_layers_it_reaches(self):
        # The h4 fixture's group, built fresh: the session fixture is grown in
        # full by the tests that enumerate its cosets.
        h4 = CoxeterSystem(H4, 60)
        b = HeckeAlgebra(h4).kl_basis((S, T, U))
        assert len(b.support) == 8 and len(h4._layers) <= 4
        assert not h4._closed and len(h4.elements()) == 14400 and h4.is_finite


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
        # t is read off the left descents of z*s there.
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
    @pytest.mark.parametrize("matrix,order,degrees", [
        (_chain(3, 3, 3), 120, (2, 3, 4, 5)),
        (B4, 384, (2, 4, 6, 8)),
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

    @pytest.mark.parametrize("matrix,degrees", [
        (_chain(3, 3, 3), (2, 3, 4, 5)),
        (B4, (2, 4, 6, 8)),
        (D4, (2, 4, 4, 6)),
        (F4, (2, 6, 8, 12)),
        (H4, (2, 12, 20, 30)),
    ], ids=["A4", "B4", "D4", "F4", "H4"])
    def test_pi_of_S_from_the_degrees(self, matrix, degrees):
        # pi(S) = v^-N prod_i [d_i]_{q=v^2}, N = l(w_0).
        N = sum(d - 1 for d in degrees)
        alg = HeckeAlgebra(CoxeterSystem(matrix, N))
        _, pi = alg.b_wJ_and_pi(range(4))
        assert pi == LaurentPoly((2 * k - N, c) for k, c in enumerate(_poincare(degrees)))


def _subsets(letters):
    letters = list(letters)
    return [frozenset(c) for k in range(len(letters) + 1)
            for c in itertools.combinations(letters, k)]


def _parabolic_search(system, J):
    """Reference: W_J by breadth-first search along right products by J,
    sorted by (length, ShortLex), and BudgetExceeded when a product leaves
    the ball."""
    seen, frontier = {IDENTITY}, [IDENTITY]
    while frontier:
        nxt = []
        for w in frontier:
            for s in J:
                try:
                    ws = system.right_mult(w, s)
                except BudgetExceeded:
                    raise BudgetExceeded(f"cannot certify that J={sorted(J)} is finitary "
                                         f"within budget {system.budget}") from None
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
    members = tuple(sorted(seen, key=lambda w: (len(w), w)))
    return members, members[-1], len(members[-1])


class TestParabolicAgainstSearch:
    @pytest.mark.parametrize("matrix,budget", [
        (catalog.A3, 12), (catalog.B3, 12), (catalog.H3, 18), (B4, 16),
        (D4, 12), (F4, 24), (AFFINE_A2, 3), (AFFINE_A2, 8), (AFFINE_A2, 12),
    ], ids=["A3", "B3", "H3", "B4", "D4", "F4", "affine_a2@3", "affine_a2@8", "affine_a2@12"])
    def test_every_J(self, matrix, budget):
        # Each side on its own fresh system, so each grows the table itself.
        for J in _subsets(range(matrix.rank)):
            got, want = (_outcome(lambda: CoxeterSystem(matrix, budget).parabolic(J)[1:]),
                         _outcome(lambda: _parabolic_search(CoxeterSystem(matrix, budget), J)))
            assert got == want, J


class TestWallCrossAgainstMultiplyingBack:
    @pytest.mark.parametrize("matrix,budget", [
        (catalog.A3, 12), (catalog.B3, 12), (catalog.H3, 18), (B4, 16),
        (D4, 12), (F4, 24), (AFFINE_A2, 8), (AFFINE_A2, 12),
    ], ids=["A3", "B3", "H3", "B4", "D4", "F4", "affine_a2@8", "affine_a2@12"])
    def test_every_wall(self, matrix, budget):
        # Reference: t = z*s*z^-1, walking z*s down along z^-1, which never
        # leaves the ball z*s lies in.
        system = CoxeterSystem(matrix, budget)
        walls = 0
        for J in verify.finitary_subsets(system):
            for z in system.min_coset_reps(J, budget - 1):  # so z*s is in the ball
                for s in range(matrix.rank):
                    zs = system.right_mult(z, s)
                    if not system.is_mcr(zs, J):
                        t = system.mult(zs, system.inverse(z))
                        assert len(t) == 1 and t[0] in J
                        assert system.wall_cross(z, s, J) == t[0], (J, z, s)
                        walls += 1
        assert walls
