import itertools
import random
from collections import Counter

import pytest

from heckesphere import strolls
from heckesphere.coxeter import IDENTITY, CoxeterSystem
from heckesphere.errors import BudgetExceeded, InvalidMatrix, WordMismatch
from heckesphere.hecke import HeckeAlgebra
from heckesphere.laurent import LaurentPoly, ONE, V, VINV
from heckesphere.spherical import SphericalElt, SphericalModule
from heckesphere.verify import finitary_subsets

from conftest import AFFINE_A2, DEGREE_COVER

S, T = 0, 1
J_S = frozenset({S})


class TestDecorate:
    def test_worked_example(self, a2):
        dec = strolls.decorate(a2, J_S, (T, S, T), (1, 1, 1))
        assert dec.stroll == (IDENTITY, (T,), (T, S), (T, S))
        assert dec.labels == ("U1", "U1", "X1")

    def test_four_letter_example(self, a2):
        dec = strolls.decorate(a2, J_S, (S, T, S, T), (0, 1, 1, 1))
        assert dec.labels == ("X0", "U1", "U1", "X1")

    def test_empty(self, a2):
        dec = strolls.decorate(a2, J_S, (), ())
        assert dec.labels == () and dec.endpoint == IDENTITY

    def test_bits_validated(self, a2):
        with pytest.raises(WordMismatch):
            strolls.decorate(a2, J_S, (S,), (1, 1))
        with pytest.raises(WordMismatch):
            strolls.decorate(a2, J_S, (S,), (2,))


class TestSdef:
    def test_worked_example(self, a2):
        assert strolls.decorate(a2, J_S, (T, S, T), (1, 1, 1)).sdef == -1

    def test_two_x0(self, a2):
        dec = strolls.decorate(a2, J_S, (S, T, S, T), (0, 1, 1, 0))
        assert dec.labels == ("X0", "U1", "U1", "X0")
        assert dec.sdef == 2

    def test_empty(self, a2):
        assert strolls.decorate(a2, J_S, (), ()).sdef == 0


class TestPreceq:
    def _dec(self, a2, bits):
        return strolls.decorate(a2, J_S, (S, T, S, T), bits)

    def test_worked_comparisons(self, a2):
        e = self._dec(a2, (0, 1, 1, 1))
        f = self._dec(a2, (0, 1, 1, 0))
        g = self._dec(a2, (1, 1, 1, 0))
        assert g.labels == ("X1", "U1", "U1", "X0")
        assert strolls.preceq(a2, J_S, f, e) and not strolls.preceq(a2, J_S, e, f)
        assert strolls.preceq(a2, J_S, f, g) and not strolls.preceq(a2, J_S, g, f)
        assert not strolls.preceq(a2, J_S, e, g)
        assert not strolls.preceq(a2, J_S, g, e)

    def test_reflexive(self, a2):
        e = self._dec(a2, (1, 0, 1, 0))
        assert strolls.preceq(a2, J_S, e, e)

    def test_word_mismatch(self, a2):
        e = self._dec(a2, (1, 0, 1, 0))
        other = strolls.decorate(a2, J_S, (T,), (1,))
        with pytest.raises(WordMismatch):
            strolls.preceq(a2, J_S, e, other)


class TestDoubleLeafIndex:
    def test_single_t(self, a2):
        pairs = strolls.double_leaf_index(a2, J_S, (T,), (T,))
        got = sorted((p.e.bits, p.f.bits, p.degree) for p in pairs)
        assert got == [((0,), (0,), 2), ((1,), (1,), 0)]

    def test_s_against_empty(self, a2):
        pairs = strolls.double_leaf_index(a2, J_S, (S,), ())
        got = sorted((p.e.bits, p.degree) for p in pairs)
        assert got == [((0,), 1), ((1,), -1)]

    def test_empty_pair(self, a2):
        pairs = strolls.double_leaf_index(a2, J_S, (), ())
        assert len(pairs) == 1 and pairs[0].degree == 0


class TestRankPoly:
    def test_examples(self, a2):
        assert strolls.rank_poly(a2, J_S, (T,), (T,)) == 1 + V * V
        assert strolls.rank_poly(a2, J_S, (S,), ()) == V + VINV
        assert strolls.rank_poly(a2, J_S, (), ()) == ONE

    def test_matches_module_pairing(self, b2):
        alg = HeckeAlgebra(b2)
        import itertools
        for J in map(frozenset, [set(), {S}, {T}, {S, T}]):
            mod = SphericalModule(alg, J)
            words = [w for n in range(4) for w in itertools.product((S, T), repeat=n)]
            for x in words:
                for y in words:
                    assert strolls.rank_poly(b2, J, x, y) == mod.pairing(
                        mod.expand_expression(x), mod.expand_expression(y)
                    )


class TestRankByEndpoint:
    @pytest.mark.parametrize("system", ["b2", "a3"])
    def test_matches_the_double_leaf_pairs(self, request, system):
        # Every J and every pair of words up to length 3.
        system = request.getfixturevalue(system)
        letters = range(system.matrix.rank)
        words = [w for n in range(4) for w in itertools.product(letters, repeat=n)]
        for r in range(system.matrix.rank + 1):
            for J in map(frozenset, itertools.combinations(letters, r)):
                for x in words:
                    for y in words:
                        pairs = strolls.double_leaf_index(system, J, x, y)
                        assert strolls.rank_poly(system, J, x, y) == LaurentPoly(
                            (p.degree, 1) for p in pairs)


class TestDefectExpansion:
    def test_1bx_a2(self, a2):
        import itertools
        alg = HeckeAlgebra(a2)
        mod = SphericalModule(alg, J_S)
        for n in range(5):
            for word in itertools.product((S, T), repeat=n):
                want = mod.zero()
                for bits in strolls.subexpressions(n):
                    dec = strolls.decorate(a2, J_S, word, bits)
                    want = want + mod.m(dec.endpoint, LaurentPoly.monomial(dec.sdef))
                assert mod.expand_expression(word) == want
                assert strolls.endpoint_polys(a2, J_S, word) == want


def decorated_expansion(system, J, word):
    """sum of v^sdef m_end over every subexpression, one `decorate` each,
    with the (end, sdef) counts merged by SphericalElt's constructor."""
    count = Counter()
    for bits in strolls.subexpressions(len(word)):
        dec = strolls.decorate(system, J, word, bits)
        count[dec.endpoint, dec.sdef] += 1
    return SphericalElt((z, LaurentPoly({d: n})) for (z, d), n in count.items())


def system_named(request, name):
    """The fixture `name`, or affine A2 at budget 12, which has none."""
    if name == "affine_a2_12":
        return CoxeterSystem(AFFINE_A2, 12)
    return request.getfixturevalue(name)


def every_decoration(system, J, word):
    """decorate on each subexpression, in `subexpressions` order."""
    return [strolls.decorate(system, J, word, bits)
            for bits in strolls.subexpressions(len(word))]


class TestEndpointWalk:
    """endpoint_polys and decorations walk the subexpressions as a prefix
    tree; decorating each subexpression on its own is the reference, over
    words of length up to 4 (5 in rank 2)."""

    @pytest.mark.parametrize("name", ["a2", "b2", "a3", "b3", "h3", "affine_a2_12"])
    def test_matches_every_decoration(self, request, name):
        system = system_named(request, name)
        rank = system.matrix.rank
        words = [w for n in range(8 - rank) for w in itertools.product(range(rank), repeat=n)]
        for J in finitary_subsets(system):
            for word in words:
                assert strolls.endpoint_polys(system, J, word) == decorated_expansion(
                    system, J, word), (J, word)
                assert strolls.decorations(system, J, word) == every_decoration(
                    system, J, word), (J, word)

    def test_a_bad_letter_is_rejected(self, a2, inf_dihedral):
        # Letters are checked before any step, also when a stroll would
        # leave the ball (budget 8) before the bad letter.
        for system, word in ((a2, (S, 2)), (inf_dihedral, (S, T) * 5 + (2,))):
            with pytest.raises(InvalidMatrix, match="letter 2"):
                strolls.endpoint_polys(system, frozenset(), word)
            with pytest.raises(InvalidMatrix, match="letter 2"):
                strolls.decorate(system, frozenset(), word, (1,) * len(word))
            with pytest.raises(InvalidMatrix, match="letter 2"):
                strolls.decorations(system, frozenset(), word)

    @pytest.mark.parametrize("call", [
        lambda a2, J: strolls.decorate(a2, J, (S,), (1,)),
        lambda a2, J: strolls.decorations(a2, J, (S,)),
        lambda a2, J: strolls.endpoint_polys(a2, J, (S,)),
        lambda a2, J: strolls.rank_poly(a2, J, (S,), (S,)),
        lambda a2, J: strolls.double_leaf_index(a2, J, (S,), (S,)),
    ], ids=["decorate", "decorations", "endpoint_polys", "rank_poly", "double_leaf_index"])
    def test_a_J_letter_outside_S_is_rejected(self, a2, call):
        with pytest.raises(InvalidMatrix, match=r"^J=\[0, 7\]: letter 7 out of range$"):
            call(a2, frozenset({S, 7}))

    @pytest.mark.parametrize("call", [
        lambda a2, J: strolls.decorate(a2, J, (T, S, T), (1, 1, 1)),
        lambda a2, J: strolls.decorations(a2, J, (T, S, T)),
        lambda a2, J: strolls.endpoint_polys(a2, J, (T, S, T)),
        lambda a2, J: strolls.rank_poly(a2, J, (T, S, T), (T, S)),
        lambda a2, J: strolls.double_leaf_index(a2, J, (T, S, T), (T, S)),
    ], ids=["decorate", "decorations", "endpoint_polys", "rank_poly", "double_leaf_index"])
    def test_a_list_J_is_read_as_its_set(self, a2, call):
        assert call(a2, [S, S]) == call(a2, J_S)

    def test_a_stroll_past_the_budget_fails_as_a_decoration_does(self, inf_dihedral):
        # Budget 8: a stroll of nine up-steps leaves the ball.
        rng = random.Random(0)
        words = [(S, T) * 4, (S, T) * 4 + (S,), (T, S) * 5, (S, S) + (T, S) * 4]
        words += [tuple(rng.randrange(2) for _ in range(rng.randrange(8, 11)))
                  for _ in range(20)]
        outcomes = set()
        for J in finitary_subsets(inf_dihedral):
            for word in words:
                try:
                    want = decorated_expansion(inf_dihedral, J, word)
                except BudgetExceeded:
                    with pytest.raises(BudgetExceeded):
                        strolls.endpoint_polys(inf_dihedral, J, word)
                    with pytest.raises(BudgetExceeded):
                        strolls.decorations(inf_dihedral, J, word)
                    outcomes.add("raises")
                else:
                    assert strolls.endpoint_polys(inf_dihedral, J, word) == want
                    assert strolls.decorations(inf_dihedral, J, word) == every_decoration(
                        inf_dihedral, J, word)
                    outcomes.add("fits")
        assert outcomes == {"raises", "fits"}


@pytest.mark.parametrize("name,max_len", DEGREE_COVER)
def test_each_stored_degree_is_its_definition(request, name, max_len):
    """A decoration's sdef sums STEP_DEGREE over its labels, from `decorate`
    and from `decorations`; a pair's degree is the sum of its two sdefs."""
    system = request.getfixturevalue(name)
    letters = range(system.matrix.rank)
    for J in finitary_subsets(system):
        for n in range(max_len + 1):
            for word in itertools.product(letters, repeat=n):
                decs = strolls.decorations(system, J, word)
                for dec in decs + every_decoration(system, J, word):
                    assert dec.sdef == sum(strolls.STEP_DEGREE[lbl] for lbl in dec.labels)
                for pair in strolls.join(decs, decs):
                    assert pair.degree == pair.e.sdef + pair.f.sdef


def per_bits_products(system, word):
    """The product w^e of each subexpression, one bit sequence at a time."""
    out = Counter()
    for bits in strolls.subexpressions(len(word)):
        w = IDENTITY
        for s, b in zip(word, bits):
            if b:
                w = system.right_mult(w, s)
        out[w] += 1
    return out


class TestLocalize:
    @pytest.mark.parametrize("name", ["a2", "b3", "h3", "affine_a2_12"])
    def test_matches_the_per_bits_products(self, request, name):
        system = system_named(request, name)
        rank = system.matrix.rank
        for n in range(8 - rank):
            for word in itertools.product(range(rank), repeat=n):
                assert strolls.localized_summands(system, word) == per_bits_products(
                    system, word), word

    def test_ss(self, a2):
        assert strolls.localized_summands(a2, (S, S)) == {IDENTITY: 2, (S,): 2}

    def test_single(self, a2):
        assert strolls.localized_summands(a2, (S,)) == {IDENTITY: 1, (S,): 1}

    def test_st(self, a2):
        got = strolls.localized_summands(a2, (S, T))
        assert got == {IDENTITY: 1, (S,): 1, (T,): 1, (S, T): 1}


class TestEnumeration:
    def test_binary_counting_order(self):
        assert list(strolls.subexpressions(2)) == [(0, 0), (1, 0), (0, 1), (1, 1)]
