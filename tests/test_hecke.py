import ast
import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from heckesphere import catalog, linear, verify
from heckesphere.coxeter import IDENTITY, CoxeterMatrix, CoxeterSystem
from heckesphere.errors import BudgetExceeded, InvalidMatrix, PreconditionViolated
from heckesphere.hecke import HeckeAlgebra, HeckeElt
from heckesphere.laurent import LaurentPoly, ONE, V, VINV, ZERO
from heckesphere.spherical import SphericalElt, SphericalModule
from heckesphere.verify import finitary_subsets

from conftest import AFFINE_A2, shallow_stack

S, T = 0, 1


class TestMultiply:
    def test_quadratic_relation(self, a2_algebra):
        alg = a2_algebra
        got = alg.multiply(alg.delta((S,)), alg.delta((S,)))
        assert got == HeckeElt({IDENTITY: ONE, (S,): VINV - V})

    def test_lengths_add(self, a2_algebra):
        alg = a2_algebra
        assert alg.multiply(alg.delta((S,)), alg.delta((T,))) == alg.delta((S, T))

    def test_bs_squared(self, a2_algebra):
        alg = a2_algebra
        bs = alg.b_s(S)
        assert alg.multiply(bs, bs) == bs.scale(V + VINV)

    def test_a_letter_out_of_range_is_rejected(self, a2_algebra):
        with pytest.raises(InvalidMatrix, match="letter 5"):
            a2_algebra.multiply(a2_algebra.unit(), HeckeElt({(5,): 1}))

    @pytest.mark.parametrize("s", [9, -1, 2])
    def test_b_s_takes_only_a_generator(self, a2_algebra, s):
        with pytest.raises(InvalidMatrix, match=f"letter {s} out of range"):
            a2_algebra.b_s(s)


class TestBar:
    def test_fixes_identity(self, a2_algebra):
        alg = a2_algebra
        assert alg.bar(alg.unit()) == alg.unit()

    def test_delta_s(self, a2_algebra):
        alg = a2_algebra
        got = alg.bar(alg.delta((S,)))
        assert got == HeckeElt({(S,): ONE, IDENTITY: V - VINV})
        # It really is the inverse of delta_s.
        assert alg.multiply(got, alg.delta((S,))) == alg.unit()

    def test_fixes_bs(self, a2_algebra):
        alg = a2_algebra
        assert alg.bar(alg.b_s(S)) == alg.b_s(S)

    def test_involutive(self, b2_algebra):
        alg = b2_algebra
        for x in alg.system.elements():
            d = alg.delta(x, V)
            assert alg.bar(alg.bar(d)) == d

    def test_a_word_that_is_not_canonical_is_rejected(self, a2_algebra):
        with pytest.raises(PreconditionViolated, match="canonical"):
            a2_algebra.bar(HeckeElt({(T, S, T): 1}))


class TestKLBasis:
    def test_identity(self, a2_algebra):
        assert a2_algebra.kl_basis(IDENTITY) == a2_algebra.unit()

    def test_a_long_word_takes_no_frame_per_letter(self):
        # The memo fills along x's prefixes, so the recursion on xs finds b_xs
        # stored; a frame per letter would pass the limit.  In the infinite
        # dihedral group every P_{y,x} is 1: b_x = sum_{y <= x} v^{l(x)-l(y)} delta_y.
        system = CoxeterSystem(catalog.INF_DIHEDRAL, 400)
        x = (S, T) * 50
        with shallow_stack():
            got = HeckeAlgebra(system).kl_basis(x)
        below = system.elements(len(x) - 1) + [x]
        assert got == HeckeElt({y: LaurentPoly.monomial(len(x) - len(y)) for y in below})

    def test_simple(self, a2_algebra):
        assert a2_algebra.kl_basis((S,)) == a2_algebra.b_s(S)

    def test_a2_longest(self, a2_algebra):
        alg = a2_algebra
        want = HeckeElt({
            (S, T, S): ONE,
            (S, T): V,
            (T, S): V,
            (S,): V * V,
            (T,): V * V,
            IDENTITY: V ** 3,
        })
        assert alg.kl_basis((S, T, S)) == want

    def test_bar_invariant_everywhere(self, b2_algebra):
        alg = b2_algebra
        for x in alg.system.elements():
            b = alg.kl_basis(x)
            assert alg.bar(b) == b
            assert b.coeff(x) == ONE
            for y, c in b.support.items():
                if y != x:
                    assert c.in_v_times_nonneg()


def _left_recursion(alg):
    """The KL basis by the left recursion b_x = b_s * b_{sx}, s = x[0], through
    the general product and left_mult, mu-corrected: an oracle for kl_basis."""
    memo = {IDENTITY: alg.unit()}

    def b(x):
        if x not in memo:
            s = x[0]
            cand = alg.multiply(alg.b_s(s), b(alg.system.left_mult(s, x)))
            memo[x] = linear.kl_correct(cand, x, b)
        return memo[x]

    return b


@pytest.mark.parametrize("system", ["a3", "b3", "h3"])
def test_kl_basis_matches_the_left_recursion(request, system):
    system = request.getfixturevalue(system)
    alg = HeckeAlgebra(system)
    reference = _left_recursion(alg)
    for x in system.elements():
        assert alg.kl_basis(x) == reference(x)


@pytest.mark.parametrize("system", ["a3", "b3", "h3"])
def test_the_algebra_is_the_module_of_the_empty_J(request, system):
    """H is M({}): its b_x and bar(delta_x) have the terms of M({})'s c_x and
    bar(m_x), in an element type of their own."""
    system = request.getfixturevalue(system)
    alg = HeckeAlgebra(system)
    mod = SphericalModule(alg, ())
    for x in system.elements():
        assert mod.kl_c(x).support == alg.kl_basis(x).support
        assert mod.bar(mod.m(x)).support == alg.bar(alg.delta(x)).support


MODULE_API = {"zero", "unit", "bar", "kl", "pairing", "format"}


def test_linear_module_is_the_one_implementation():
    """Only linear.Module defines the module API and names its memos, and only
    linear calls linear's bar and kl; LaurentPoly's zero and bar are the scalars'."""
    src = pathlib.Path(linear.__file__).parent
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            if (path.name, cls.name) not in {("linear.py", "Module"),
                                             ("laurent.py", "LaurentPoly")}:
                names = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)} | {
                    t.id for n in cls.body if isinstance(n, ast.Assign)
                    for target in n.targets for t in ast.walk(target) if isinstance(t, ast.Name)}
                assert not names & MODULE_API, (path.name, cls.name)
        if path.name != "linear.py":
            for node in ast.walk(tree):
                assert not (isinstance(node, ast.Attribute)
                            and node.attr in {"_kl_memo", "_bar_memo"}), path.name
                assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr in {"bar", "kl"}
                            and isinstance(node.func.value, ast.Name)
                            and node.func.value.id == "linear"), path.name


class TestKLAnchors:
    """Published Kazhdan-Lusztig polynomials, read through
    b_w = sum_x v^(l(w)-l(x)) P_(x,w)(v^-2) delta_x."""

    def test_a3_first_nontrivial_polynomial(self, a3):
        # P_(e, s2 s1 s3 s2) = 1 + q, and P_(s2, s2 s1 s3 s2) = 1 + q.
        alg = HeckeAlgebra(a3)
        b = alg.kl_basis(a3.element((T, S, 2, T)))
        assert b.coeff(IDENTITY) == V ** 4 + V ** 2
        assert b.coeff((T,)) == V ** 3 + V

    @pytest.mark.parametrize("matrix", [catalog.A2, catalog.B2, catalog.H2, catalog.I2_7],
                             ids=["a2", "b2", "h2", "i2_7"])
    def test_dihedral_polynomials_are_one(self, matrix):
        # Every P_(x,w) = 1 in a dihedral group, and x <= w exactly when
        # x = w or l(x) < l(w).
        m = matrix.order(S, T)
        alg = HeckeAlgebra(CoxeterSystem(matrix, m))
        elements = alg.system.elements()
        assert len(elements) == 2 * m
        for w in elements:
            want = HeckeElt((x, V ** (len(w) - len(x))) for x in elements
                            if x == w or len(x) < len(w))
            assert alg.kl_basis(w) == want

    @pytest.mark.parametrize("rank,smooth", [(3, 22), (4, 88), (5, 366)],
                             ids=["a3", "a4", "a5"])
    def test_p_e_w_is_one_exactly_at_the_smooth_permutations(self, rank, smooth):
        # Three independent readings of "P_(e,w) = 1" on S_(rank+1): from the
        # KL basis; by Carrell-Peterson, [e, w] has a palindromic
        # rank-generating function; by Lakshmibai-Sandhya, w avoids 3412 and
        # 4231.  The counts are Bousquet-Melou and Butler's.
        matrix = CoxeterMatrix(tuple("stuvw"[:rank]), tuple(
            tuple(1 if i == j else 3 if abs(i - j) == 1 else 2 for j in range(rank))
            for i in range(rank)))
        system = CoxeterSystem(matrix, rank * (rank + 1) // 2)
        alg = HeckeAlgebra(system)
        by_kl = {w for w in system.elements() if alg.kl_basis(w).coeff(IDENTITY) == V ** len(w)}

        below = {IDENTITY: {IDENTITY}}  # [e, w] = [e, w'] u [e, w'] s for w = w's > w'
        for w in system.elements():
            if w:
                lower = below[w[:-1]]
                below[w] = lower | {system.right_mult(x, w[-1]) for x in lower}
        by_palindromy = set()
        for w, interval in below.items():
            ranks = [0] * (len(w) + 1)
            for x in interval:
                ranks[len(x)] += 1
            if ranks == ranks[::-1]:
                by_palindromy.add(w)

        def one_line(w):
            perm = list(range(rank + 1))
            for s in w:
                perm[s], perm[s + 1] = perm[s + 1], perm[s]
            return perm

        def pattern(values):
            return tuple(sorted(values).index(a) for a in values)

        by_patterns = {w for w in system.elements() if not {
            pattern(sub) for sub in itertools.combinations(one_line(w), 4)} & {
            (2, 3, 0, 1), (3, 1, 2, 0)}}
        assert by_kl == by_palindromy == by_patterns
        assert len(by_kl) == smooth


class TestPairing:
    def test_standard_orthonormal(self, a2_algebra):
        alg = a2_algebra
        for x in alg.system.elements():
            for y in alg.system.elements():
                want = ONE if x == y else ZERO
                assert alg.pairing_trace(alg.delta(x), alg.delta(y)) == want

    def test_bs_with_itself(self, a2_algebra):
        alg = a2_algebra
        assert alg.pairing(alg.b_s(S), alg.b_s(S)) == 1 + V * V

    def test_zero(self, a2_algebra):
        alg = a2_algebra
        assert alg.pairing(alg.zero(), alg.b_s(S)) == ZERO

    @pytest.mark.parametrize("word", [(T, S, T), (S, S), (5,)],
                             ids=["not-canonical", "unreduced", "letter"])
    def test_a_key_that_is_not_canonical_is_rejected(self, a2_algebra, word):
        alg = a2_algebra
        bad = HeckeElt.wrap({word: ONE})
        for a, b in ((bad, alg.b_s(S)), (alg.b_s(S), bad)):
            with pytest.raises(PreconditionViolated, match="canonical word"):
                alg.pairing(a, b)

    def test_paths_agree_on_kl(self, a2_algebra, b2_algebra):
        for alg in (a2_algebra, b2_algebra):
            for x in alg.system.elements():
                for y in alg.system.elements():
                    a, b = alg.kl_basis(x), alg.kl_basis(y)
                    assert alg.pairing(a, b) == alg.pairing_trace(a, b)


class TestBwJ:
    def test_empty_J(self, a2_algebra):
        b, pi = a2_algebra.b_wJ_and_pi(set())
        assert b == a2_algebra.unit() and pi == ONE

    def test_singleton(self, a2_algebra):
        b, pi = a2_algebra.b_wJ_and_pi({S})
        assert b == a2_algebra.b_s(S)
        assert pi == V + VINV

    def test_full_a2(self, a2_algebra):
        _, pi = a2_algebra.b_wJ_and_pi({S, T})
        assert pi == LaurentPoly([(3, 1), (1, 2), (-1, 2), (-3, 1)])

    def test_built_once_per_J(self, a2, monkeypatch):
        # M(J) and check_bwj_pi share the first call's closed form: once it
        # is memoized, a W_J emptied of its members changes nothing.
        alg = HeckeAlgebra(a2)
        b, pi = got = alg.b_wJ_and_pi({S, T})
        real = CoxeterSystem.parabolic
        monkeypatch.setattr(CoxeterSystem, "parabolic",
                            lambda self, J: real(self, J)._replace(members=()))
        assert alg.b_wJ_and_pi((T, S)) is got
        mod = SphericalModule(alg, {S, T})
        assert mod.b_wJ is b and mod.pi is pi

    @pytest.mark.parametrize("bad,squares", [
        # d_J + 1 scales b by v and pi(J) by v^-1, so b^2 = v^2 pi(J) b at every J.
        (lambda par: par._replace(d_J=par.d_J + 1), [[], [0], [1], [0, 1]]),
        # With W_J's identity gone, b is 0 at J = {}, and 0^2 = pi(J) 0 holds there.
        (lambda par: par._replace(members=par.members[1:]), [[0], [1], [0, 1]]),
    ], ids=["scaled", "identity-dropped"])
    def test_a_wrong_closed_form_is_caught(self, a2, monkeypatch, bad, squares):
        # The library builds b_(w_J) unchecked; bwj-pi-identity names each J it is wrong at.
        real = CoxeterSystem.parabolic
        monkeypatch.setattr(CoxeterSystem, "parabolic", lambda self, J: bad(real(self, J)))
        res = verify.Run(a2).check("hecke", "bwj-pi-identity", verify.check_bwj_pi)
        assert (res.status, res.cases) == ("FAIL", 4)
        kl, square = ("closed form for b_(w_J) disagrees with the KL recursion",
                      "b_(w_J)^2 != pi(J) b_(w_J)")
        assert res.failures == [f"J={J}: {message}" for J in ([], [0], [1], [0, 1])
                                for message in ([kl, square] if J in squares else [kl])]


class TestInput:
    @pytest.mark.parametrize("call", [
        lambda alg: HeckeElt({(S,): 1.5}),
        lambda alg: HeckeElt({(S,): True}),
        lambda alg: alg.delta((T,), 1.5),
        lambda alg: alg.delta((T,)).scale(0.5),
    ], ids=["float-in-constructor", "bool-in-constructor", "float-in-delta", "float-in-scale"])
    def test_a_coefficient_is_an_int_or_a_laurent_poly(self, a2_algebra, call):
        with pytest.raises(PreconditionViolated, match="must be an int or a LaurentPoly"):
            call(a2_algebra)

    @pytest.mark.parametrize("word", [(5,), (S, S), (T, S, T)], ids=["letter", "unreduced",
                                                                      "not-canonical"])
    def test_delta_takes_only_a_group_element(self, a2_algebra, word):
        with pytest.raises(PreconditionViolated, match="canonical word"):
            a2_algebra.delta(word)


class TestSerialization:
    def test_json_round_trip(self, a2_algebra):
        alg = a2_algebra
        b = alg.kl_basis((S, T, S))
        data = json.loads(json.dumps(b.to_json(alg.system)))
        assert data == {"terms": [
            {"elt": "", "coeff": [[3, 1]]}, {"elt": "s", "coeff": [[2, 1]]},
            {"elt": "t", "coeff": [[2, 1]]}, {"elt": "st", "coeff": [[1, 1]]},
            {"elt": "ts", "coeff": [[1, 1]]}, {"elt": "sts", "coeff": [[0, 1]]},
        ]}


# -- the prefix-tree multiply against the per-word fold ---------------------------

COEFFS = st.sampled_from([ONE, -ONE, V, -V, VINV, -VINV, V + VINV, VINV - V])


def shared_step(system, J=frozenset()):
    """The generator step that multiply and act share, as per_word_fold's step."""
    return lambda e, s: linear.delta_step(system, J, e, s)


def per_word_fold(a, b, step):
    """The reference: `a` stepped along every word of b's support from
    scratch, scaled by its coefficient, and summed."""
    out = a.wrap({})
    for y, c in b.support.items():
        part = a.scale(c)
        for s in y:
            part = step(part, s)
        out = out + part
    return out


@st.composite
def supports(draw, pool):
    """HeckeElt over canonical words of `pool`: arbitrary ones (so prefixes
    are mostly absent), plus siblings sharing a drawn prefix, with
    coefficients from a small set so terms of the sum often cancel."""
    keys = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    if draw(st.booleans()):
        w = draw(st.sampled_from(pool))
        p = w[:draw(st.integers(0, len(w)))]
        siblings = [x for x in pool if x[:len(p)] == p]
        keys += draw(st.lists(st.sampled_from(siblings), max_size=8))
    return HeckeElt((x, draw(COEFFS)) for x in keys)


# Two closed balls and two balls the budget cuts off.
SYSTEMS = {
    "h3": (catalog.H3, 18),
    "b3": (catalog.B3, 12),
    "affine_a2": (AFFINE_A2, 8),
    "infinite_dihedral": (catalog.INF_DIHEDRAL, 8),
}


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def algebra(request):
    return HeckeAlgebra(CoxeterSystem(*SYSTEMS[request.param]))


def _pool(system):
    """All of a closed ball; on a cut one, words short enough that products
    of two stay inside it."""
    return system.elements(None if system.is_finite else system.budget // 2)


class TestPrefixTreeProduct:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_multiply_matches_per_word_fold(self, algebra, data):
        pool = _pool(algebra.system)
        a, b = data.draw(supports(pool)), data.draw(supports(pool))
        assert algebra.multiply(a, b) == per_word_fold(a, b, shared_step(algebra.system))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_act_matches_per_word_fold(self, algebra, data):
        mod = SphericalModule(algebra, {0})
        pool = _pool(algebra.system)
        mcrs = [w for w in pool if algebra.system.is_mcr(w, mod.J)]
        m = SphericalElt(data.draw(supports(mcrs)).support)
        h = data.draw(supports(pool))
        assert mod.act(m, h) == per_word_fold(m, h, shared_step(mod.system, mod.J))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_inverse_cancels_to_the_unit(self, algebra, data):
        # delta_x * bar(delta_{x^-1}) = 1: every other term of the sum cancels.
        sys = algebra.system
        x = data.draw(st.sampled_from(sys.elements(sys.budget // 2)))
        inv = algebra.bar(algebra.delta(sys.inverse(x)))
        assert algebra.multiply(algebra.delta(x), inv) == algebra.unit()
        assert per_word_fold(algebra.delta(x), inv, shared_step(sys)) == algebra.unit()

    @pytest.mark.parametrize("name,coxeter_element", [
        ("affine_a2", (0, 1, 2)), ("infinite_dihedral", (S, T)),
    ])
    def test_product_past_the_budget_raises(self, name, coxeter_element):
        # Powers of a Coxeter element of an infinite group are reduced, so
        # x * y has length 10, past the budget of 8.
        alg = HeckeAlgebra(CoxeterSystem(*SYSTEMS[name]))
        word = coxeter_element * 5
        x, y = alg.system.element(word[:5]), alg.system.element(word[5:10])
        b = HeckeElt({IDENTITY: ONE, x[:1]: V, y: VINV})
        with pytest.raises(BudgetExceeded):
            alg.multiply(alg.delta(x), b)
        with pytest.raises(BudgetExceeded):
            per_word_fold(alg.delta(x), b, shared_step(alg.system))


# -- the generator step and the accumulators against the quadratic relation ------

def reference_step(system, J, a, s):
    """a * delta_s read off the quadratic relation, one term at a time with
    plain Combo + and scale: delta_x delta_s = delta_{xs} if xs > x, and
    delta_{xs} delta_s^2 = delta_{xs} + (v^-1 - v) delta_x if xs < x; in
    M(J), m_x delta_s = v^-1 m_x when xs is not a minimal coset
    representative."""
    out = a.wrap({})
    for x, c in a.support.items():
        term = a.wrap({x: c})
        xs = system.right_mult(x, s)
        if len(xs) < len(x):
            out = out + a.wrap({xs: c}) + term.scale(VINV - V)
        elif J and not system.is_mcr(xs, J):
            out = out + term.scale(VINV)
        else:
            out = out + a.wrap({xs: c})
    return out


def assert_canonical(value):
    """No key of the zero polynomial, and no zero coefficient inside a LaurentPoly."""
    if isinstance(value, linear.Combo):
        for p in value.support.values():
            assert p, value
            assert_canonical(p)
    else:
        assert all(c for _, c in value.terms()), value


@pytest.mark.parametrize("name", ["a3", "b3", "h3"])
def test_delta_step_matches_the_quadratic_relation_on_every_basis_element(request, name):
    """Each basis element alone, and beside the element one step below it
    with the coefficient that cancels the pair at its key; the algebra of
    A3, B3 and H3 and every M(J) of A3."""
    system = request.getfixturevalue(name)
    subsets = finitary_subsets(system) if name == "a3" else [frozenset()]
    for J in subsets:
        for x in system.min_coset_reps(J):
            for s in range(system.matrix.rank):
                xs = system.right_mult(x, s)
                cases = [SphericalElt({x: V + VINV})]
                if len(xs) < len(x):
                    cases.append(SphericalElt({x: ONE, xs: V - VINV}))
                for a in cases:
                    got = linear.delta_step(system, J, a, s)
                    assert got == reference_step(system, J, a, s), (J, x, s)
                    assert_canonical(got)
                if len(cases) == 2:
                    assert x not in got.support


STEP_SYSTEMS = ["h3", "b3", "affine_a2"]


@pytest.fixture(scope="module", params=STEP_SYSTEMS)
def step_algebra(request):
    return HeckeAlgebra(CoxeterSystem(*SYSTEMS[request.param]))


class TestStepAndAccumulators:
    """delta_step against reference_step, and the canonical form of every
    sum the linear layer forms, on drawn supports whose terms often cancel."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_delta_step_matches_the_reference(self, step_algebra, data):
        sys = step_algebra.system
        a = data.draw(supports(_pool(sys)))
        s = data.draw(st.integers(0, sys.matrix.rank - 1))
        got = linear.delta_step(sys, frozenset(), a, s)
        assert got == reference_step(sys, frozenset(), a, s)
        assert_canonical(got)
        mod = SphericalModule(step_algebra, {0})
        m = SphericalElt((x, c) for x, c in a.support.items() if sys.is_mcr(x, mod.J))
        got = linear.delta_step(sys, mod.J, m, s)
        assert got == reference_step(sys, mod.J, m, s)
        assert_canonical(got)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_every_result_is_canonical(self, step_algebra, data):
        alg, sys = step_algebra, step_algebra.system
        pool = _pool(sys)
        a, b = data.draw(supports(pool)), data.draw(supports(pool))
        assert not (a - a).support and not (b + b.scale(-1)).support
        for value in (a + b, a - b, alg.multiply(a, b), alg.bar(a), alg.pairing_trace(a, b),
                      a.dot(b), HeckeElt([*a.support.items(), *b.scale(-1).support.items()])):
            assert_canonical(value)
        mod = SphericalModule(alg, {0})
        m = SphericalElt((x, c) for x, c in a.support.items() if sys.is_mcr(x, mod.J))
        for value in (mod.act(m, b), mod.bar(m), mod.act_bs(m, 0), mod.pairing(m, m)):
            assert_canonical(value)


class TestTraceOnlyProduct:
    """pairing_trace and linear.trace_walk walk the prefix tree for the
    delta_e coefficient alone, dropping terms too long to reach it; the full
    product read at delta_e is the reference."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_the_full_product(self, algebra, data):
        # On a cut ball the pool goes one layer past half the budget, so some
        # full products leave the ball; the pruned walk never does, and there
        # the form is still the coordinatewise one (the delta_x are orthonormal).
        sys = algebra.system
        pool = sys.elements(None if sys.is_finite else sys.budget // 2 + 1)
        a, b = data.draw(supports(pool)), data.draw(supports(pool))
        ia = algebra.anti_involution(a)

        def trace_of_product(h):
            try:
                return algebra.trace(algebra.multiply(ia, h))
            except BudgetExceeded:
                return a.dot(h)

        assert algebra.pairing_trace(a, b) == trace_of_product(b) == a.dot(b)
        # Each key read alone, from one walk of b's keys.
        keys = sorted(b.support)
        traces = linear.trace_walk(sys, ia, keys)
        assert_canonical(traces)
        assert set(traces.support) <= set(keys)
        for y in keys:
            assert traces.coeff(y) == trace_of_product(algebra.delta(y))

    @pytest.mark.parametrize("budget", [6, 12])
    def test_no_walk_within_a_cut_ball_raises(self, budget):
        # One walk of i(delta_x) = delta_{x^-1} over every element of the
        # ball reads <delta_x, delta_y> = delta_xy for every y at once.
        system = CoxeterSystem(AFFINE_A2, budget)
        alg = HeckeAlgebra(system)
        ball = system.elements()
        assert not system.is_finite and max(map(len, ball)) == budget
        for x in ball:
            assert linear.trace_walk(system, alg.delta(system.inverse(x)), ball) == alg.delta(x)

    def test_the_walk_takes_no_frame_per_letter(self):
        system = CoxeterSystem(catalog.INF_DIHEDRAL, 400)
        alg = HeckeAlgebra(system)
        x = (S, T) * 100
        with shallow_stack():
            assert alg.pairing_trace(alg.delta(x), alg.delta(x)) == ONE
            got = alg.multiply(alg.delta(x[:3]), alg.delta(x))
            assert got == alg.multiply(alg.delta(x[:1]), alg.multiply(alg.delta(x[1:3]),
                                                                       alg.delta(x)))

    def test_a_node_keeps_what_its_longest_key_needs(self, a2_algebra):
        # The keys s and st share the node s.  delta_ts * delta_s = delta_t +
        # (v^-1 - v) delta_ts; cut by the length of s alone the node would
        # lose delta_t, which st steps down to delta_e.
        alg = a2_algebra
        b = HeckeElt({(S,): ONE, (S, T): ONE})
        assert alg.pairing_trace(alg.delta((S, T)), b) == ONE
        assert alg.pairing_trace(alg.delta((S,)), b) == ONE
        assert alg.pairing_trace(alg.delta((T,)), b) == ZERO
        # With sts the node s serves three keys, and its longest is two keys
        # on: read from st alone, the node would lose what sts needs.
        b = HeckeElt({(S,): ONE, (S, T): ONE, (S, T, S): ONE})
        for x, want in (((S,), ONE), ((S, T), ONE), ((T, S), ZERO), ((S, T, S), ONE)):
            assert alg.pairing_trace(alg.delta(x), b) == want, x


# Two closed rank-3 balls, H3 and a rank-3 ball the budget cuts.
ROW_SYSTEMS = {
    "a3": (catalog.A3, 12),
    "b3": (catalog.B3, 12),
    "h3": (catalog.H3, 18),
    "affine_a2": (AFFINE_A2, 8),
}


class TestPairingTraceRow:
    """pairing_trace_row reads <a, b> for every b of a row from one walk of
    the union of their keys; each entry must be the identity coefficient of
    its own full product trace(i(a) * b)."""

    @pytest.mark.parametrize("name", sorted(ROW_SYSTEMS))
    def test_every_entry_is_its_own_product(self, name):
        system = CoxeterSystem(*ROW_SYSTEMS[name])
        alg = HeckeAlgebra(system)
        pool = _pool(system)
        rng = random.Random(name)
        coeffs = [ONE, -ONE, V, VINV, V + VINV, VINV - V]

        def sample():
            return HeckeElt((rng.choice(pool), rng.choice(coeffs))
                            for _ in range(rng.randint(1, 4)))

        # Rows of random sums, of standard and KL basis elements whose keys
        # overlap, and the zero element.
        bs = ([sample() for _ in range(10)] + [alg.delta(y) for y in rng.sample(pool, 6)]
              + [alg.kl_basis(y) for y in rng.sample(pool, 6)] + [alg.zero()])
        for a in [sample() for _ in range(5)] + [alg.kl_basis(rng.choice(pool))]:
            ia = alg.anti_involution(a)
            row = alg.pairing_trace_row(a, bs)
            assert row == [alg.trace(alg.multiply(ia, b)) for b in bs]
            assert [alg.pairing_trace(a, b) for b in bs] == row

    def test_an_empty_row_is_empty(self, a2_algebra):
        assert a2_algebra.pairing_trace_row(a2_algebra.b_s(S), []) == []

    @pytest.mark.parametrize("budget", [6, 8])
    def test_no_row_walk_within_a_cut_ball_raises(self, budget):
        # The row of delta_x against every element of the ball, and of b_x
        # against every b_y, whose keys are no longer than y: the walk of the
        # union never leaves the ball.
        system = CoxeterSystem(AFFINE_A2, budget)
        alg = HeckeAlgebra(system)
        ball = system.elements()
        assert not system.is_finite and max(map(len, ball)) == budget
        deltas = [alg.delta(y) for y in ball]
        kls = [alg.kl_basis(y) for y in ball]
        for x, b in zip(ball, kls):
            assert alg.pairing_trace_row(alg.delta(x), deltas) == [
                ONE if x == y else ZERO for y in ball]
            assert alg.pairing_trace_row(b, kls) == [b.dot(c) for c in kls]
