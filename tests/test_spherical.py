import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from heckesphere.coxeter import IDENTITY, CoxeterSystem
from heckesphere import catalog, linear, strolls, verify
from heckesphere.errors import BudgetExceeded, InvalidMatrix, PreconditionViolated
from heckesphere.hecke import HeckeAlgebra, HeckeElt
from heckesphere.laurent import LaurentPoly, ONE, V, VINV, ZERO, sum_of_products
from heckesphere.spherical import SphericalElt, SphericalModule
from heckesphere.verify import finitary_subsets

from conftest import AFFINE_A2, shallow_stack

S, T = 0, 1


@pytest.fixture(scope="module")
def mod_a2_s(a2_algebra):
    return SphericalModule(a2_algebra, {S})


class TestAction:
    def test_up_case(self, mod_a2_s):
        got = mod_a2_s.act_bs(mod_a2_s.unit(), T)
        assert got == SphericalElt({(T,): ONE, IDENTITY: V})

    def test_wall_case(self, mod_a2_s):
        got = mod_a2_s.act_bs(mod_a2_s.unit(), S)
        assert got == SphericalElt({IDENTITY: V + VINV})

    def test_up_from_t(self, mod_a2_s):
        got = mod_a2_s.act_bs(mod_a2_s.m((T,)), S)
        assert got == SphericalElt({(T, S): ONE, (T,): V})

    def test_down_case(self, mod_a2_s):
        got = mod_a2_s.act_bs(mod_a2_s.m((T,)), T)
        assert got == SphericalElt({IDENTITY: ONE, (T,): VINV})

    def test_module_axiom_exhaustive(self, mod_a2_s, a2_algebra):
        alg = a2_algebra
        mcrs = [IDENTITY, (T,), (T, S)]
        for x in mcrs:
            m = mod_a2_s.m(x)
            for w1, w2 in itertools.product(alg.system.elements(2), repeat=2):
                h1, h2 = alg.delta(w1), alg.delta(w2)
                assert mod_a2_s.act(mod_a2_s.act(m, h1), h2) == mod_a2_s.act(
                    m, alg.multiply(h1, h2)
                )

    def test_non_mcr_key_rejected(self, mod_a2_s):
        with pytest.raises(PreconditionViolated):
            mod_a2_s.m((S,))

    def test_a_letter_out_of_range_is_rejected(self, mod_a2_s, a2_algebra):
        with pytest.raises(InvalidMatrix, match="letter 5"):
            mod_a2_s.act_bs(mod_a2_s.m((T,)), 5)
        with pytest.raises(InvalidMatrix, match=r"^J=\[7\]: letter 7 out of range$"):
            SphericalModule(a2_algebra, {7})

    @pytest.mark.parametrize("letter", [True, 1.0, -1], ids=["bool", "float", "negative"])
    def test_a_bad_letter_is_rejected_on_a_grown_ball(self, letter):
        # Once the ball is grown, True and 1.0 are the key 1 of a cached
        # product; the step checks its letter as it reads the product table,
        # also where no term would step along it.
        system = CoxeterSystem(catalog.A2, 10)
        system.elements()
        mod = SphericalModule(HeckeAlgebra(system), {S})
        for word in ((letter,), (T, letter), (letter, S, T)):
            with pytest.raises(InvalidMatrix, match="letter"):
                strolls.endpoint_polys(system, mod.J, word)
            with pytest.raises(InvalidMatrix, match="letter"):
                mod.expand_expression(word)
        for m in (mod.unit(), mod.m((T, S)), mod.zero()):
            with pytest.raises(InvalidMatrix, match="letter"):
                mod.act_bs(m, letter)


class TestBar:
    def test_fixes_unit(self, mod_a2_s):
        assert mod_a2_s.bar(mod_a2_s.unit()) == mod_a2_s.unit()

    def test_m_t(self, mod_a2_s):
        got = mod_a2_s.bar(mod_a2_s.m((T,)))
        assert got == SphericalElt({(T,): ONE, IDENTITY: V - VINV})

    def test_coefficient_bar(self, mod_a2_s):
        assert mod_a2_s.bar(mod_a2_s.m(IDENTITY, V)) == mod_a2_s.m(IDENTITY, VINV)

    def test_involutive(self, mod_a2_s):
        for x in [IDENTITY, (T,), (T, S)]:
            m = mod_a2_s.m(x)
            assert mod_a2_s.bar(mod_a2_s.bar(m)) == m

    def test_a_key_that_is_not_an_mcr_is_rejected(self, mod_a2_s):
        with pytest.raises(PreconditionViolated, match="minimal coset"):
            mod_a2_s.bar(SphericalElt({(S,): ONE}))
        with pytest.raises(PreconditionViolated, match="canonical"):
            mod_a2_s.bar(SphericalElt({(T, S, T): ONE}))


@pytest.mark.parametrize("name", ["b3", "h3", "affine_a2", "inf_dihedral"])
def test_bar_matches_the_route_through_the_algebra(request, name):
    # The oracle: m_x = m_e delta_x, so bar(m_x) = m_e bar(delta_x), with the
    # algebra's bar. The module computes it along x's canonical word instead.
    system = request.getfixturevalue(name)
    alg = HeckeAlgebra(system)
    for J in finitary_subsets(system):
        mod = SphericalModule(alg, J)
        for x in system.min_coset_reps(J):
            assert mod.bar(mod.m(x)) == mod.act(mod.unit(), alg.bar(alg.delta(x))), (J, x)


class TestKLC:
    def test_identity(self, mod_a2_s):
        assert mod_a2_s.kl_c(IDENTITY) == mod_a2_s.unit()

    def test_c_t(self, mod_a2_s):
        assert mod_a2_s.kl_c((T,)) == SphericalElt({(T,): ONE, IDENTITY: V})

    def test_c_ts(self, mod_a2_s):
        want = SphericalElt({(T, S): ONE, (T,): V, IDENTITY: V * V})
        assert mod_a2_s.kl_c((T, S)) == want

    def test_a_long_word_takes_no_frame_per_letter(self):
        # In the infinite dihedral group c_x = sum over mcrs y <= x of v^{l(x)-l(y)} m_y.
        system = CoxeterSystem(catalog.INF_DIHEDRAL, 400)
        x = (T, S) * 50
        with shallow_stack():
            got = SphericalModule(HeckeAlgebra(system), {S}).kl_c(x)
        assert got == SphericalElt({y: LaurentPoly.monomial(len(x) - len(y))
                                    for y in system.min_coset_reps({S}, len(x))})

    def test_kl_c_never_calls_the_bar(self, a2, monkeypatch):
        # Self-duality is verify's to check, so a broken bar cannot reach kl_c.
        mod = SphericalModule(HeckeAlgebra(a2), {S})
        monkeypatch.setattr(mod, "bar", lambda a: pytest.fail("kl_c called the bar"))
        assert mod.kl_c((T, S)) == SphericalElt({(T, S): ONE, (T,): V, IDENTITY: V * V})

    def test_a_bar_broken_at_t_fails_spherical_kl(self, a2, monkeypatch):
        run = verify.Run(a2)
        mod = run.module(frozenset({S}))
        real = mod.bar
        monkeypatch.setattr(mod, "bar", lambda a: a + a if (T,) in a.support else real(a))
        res = run.check("spherical", "spherical-kl", verify.check_spherical_kl)
        assert res.status == "FAIL"
        assert res.failures == [f"J=[0], {x}: c_x is not bar-invariant" for x in [(T,), (T, S)]]

    @pytest.mark.parametrize("suite,check,failures", [
        ("hecke", "kl-wellformed", ["(0, 1, 0): h_((0,), x) = 1 + v^2 not in vZ[v]"]),
        ("spherical", "spherical-kl", ["J=[], (0, 1, 0): h_((0,), x) = 1 + v^2 not in vZ[v]",
                                       "J=[0], (1, 0): h_((), x) = 1 + v^2 not in vZ[v]",
                                       "J=[1], (0, 1): h_((), x) = 1 + v^2 not in vZ[v]"]),
    ], ids=["hecke", "spherical"])
    def test_skipped_correction_is_caught(self, a2, monkeypatch, suite, check, failures):
        """b_sts = b_st b_s - b_s and c_ts = c_t b_s - c_e each need one
        mu-correction.  Left out, the element is still bar-invariant, so
        only the vZ[v] test of kl-wellformed and spherical-kl yields it."""
        real = linear.kl_correct
        monkeypatch.setattr(linear, "kl_correct", lambda cand, x, lower: real(
            cand, x, lambda y: type(cand)()))
        res = verify.Run(a2).check(suite, check, dict(verify.SUITES[suite])[check])
        assert res.failures == failures

    @pytest.mark.parametrize("suite,check,failures", [
        ("hecke", "kl-wellformed", ["(1, 0): b_x has coefficient 2 at x, not 1"]),
        ("spherical", "spherical-kl", ["J=[], (1, 0): c_x has coefficient 2 at x, not 1",
                                       "J=[0], (1, 0): c_x has coefficient 2 at x, not 1"]),
    ], ids=["hecke", "spherical"])
    def test_a_broken_leading_coefficient_is_caught(self, a2, monkeypatch, suite, check,
                                                    failures):
        # No element is built from the one at ts, and twice it is still
        # bar-invariant with coefficients in vZ[v] below ts: only its
        # coefficient at x is wrong.
        real = linear.kl_correct
        monkeypatch.setattr(linear, "kl_correct", lambda cand, x, lower: (
            real(cand, x, lower).scale(2) if x == (T, S) else real(cand, x, lower)))
        res = verify.Run(a2).check(suite, check, dict(verify.SUITES[suite])[check])
        assert res.failures == failures

    @pytest.mark.parametrize("name", ["b2", "a3", "b3", "h3"])
    def test_characterizing_properties(self, request, name):
        # The oracle for verify's spherical-kl on every c_x of every M(J).
        system = request.getfixturevalue(name)
        alg = HeckeAlgebra(system)
        for J in finitary_subsets(system):
            mod = SphericalModule(alg, J)
            for x in system.min_coset_reps(J):
                c = mod.kl_c(x)
                assert mod.bar(c) == c, (J, x)
                assert c.coeff(x) == ONE
                for y, p in c.support.items():
                    if y != x:
                        assert p.in_v_times_nonneg()


@pytest.mark.parametrize("name,J", [
    ("h4", (0, 1, 2)), ("f4", (1, 2, 3)), ("f4", (0, 2, 3)), ("f4", (0, 1, 3)),
    ("f4", (0, 1, 2)),
], ids=["h4-h3", "f4-c3", "f4-a1a2", "f4-a2a1", "f4-b3"])
def test_rank_4_kl_basis(request, name, J):
    # Every c_x of M(J) for a maximal parabolic J of a rank-4 group: 120 for
    # H4 and 24 + 96 + 96 + 24 for F4.
    system = request.getfixturevalue(name)
    mod = SphericalModule(HeckeAlgebra(system), J)
    for x in system.min_coset_reps(J):
        c = mod.kl_c(x)
        assert c.coeff(x) == ONE and mod.bar(c) == c
        for y, p in c.support.items():
            assert y == x or (len(y) < len(x) and p.in_v_times_nonneg())


@pytest.mark.parametrize("broken", [1, 2])
def test_a_broken_step_fails_bwj_pi_identity_naming_J(a3, monkeypatch, broken):
    """M(J) takes b_(w_J) unchecked, and a step by one generator gone wrong
    fails bwj-pi-identity at exactly the J holding it: KL on w_J and the
    square b_(w_J)^2 both step by it.  The mutant is the coefficient-map step
    under delta_step, which every product, KL and phi step goes through."""
    real = linear._step
    monkeypatch.setattr(linear, "_step", lambda system, J, a, s: (
        {x: c * V for x, c in real(system, J, a, s).items()} if s == broken
        else real(system, J, a, s)))
    run = verify.Run(a3)
    for J in run.subsets:
        run.module(J)
    res = run.check("hecke", "bwj-pi-identity", verify.check_bwj_pi)
    assert res.failures == [
        f"J={sorted(J)}: {message}" for J in run.subsets if broken in J for message in (
            "closed form for b_(w_J) disagrees with the KL recursion",
            "b_(w_J)^2 != pi(J) b_(w_J)")]


class TestPairing:
    def test_orthonormal(self, mod_a2_s):
        mcrs = [IDENTITY, (T,), (T, S)]
        for x in mcrs:
            for y in mcrs:
                want = ONE if x == y else ZERO
                assert mod_a2_s.pairing(mod_a2_s.m(x), mod_a2_s.m(y)) == want

    def test_derived_example(self, mod_a2_s):
        a = SphericalElt({(T,): ONE, IDENTITY: V})
        assert mod_a2_s.pairing(a, a) == 1 + V * V

    def test_zero(self, mod_a2_s):
        assert mod_a2_s.pairing(mod_a2_s.zero(), mod_a2_s.unit()) == ZERO


def embedded_trace(mod, a, b):
    """The reference: trace(i(phi a) phi b), one Hecke multiply of the whole
    embedded elements."""
    alg = mod.algebra
    return alg.trace(alg.multiply(alg.anti_involution(mod.phi_embed(a)), mod.phi_embed(b)))


COEFFS = st.sampled_from([ONE, -ONE, V, -V, VINV, -VINV, V + VINV, VINV - V])


@st.composite
def module_elements(draw, mcrs):
    """SphericalElt over `mcrs` with repeated keys and coefficients from a
    small set, so terms often cancel, down to zero at times."""
    keys = draw(st.lists(st.sampled_from(mcrs), min_size=1, max_size=5))
    keys += draw(st.lists(st.sampled_from(keys), max_size=3))
    return SphericalElt((x, draw(COEFFS)) for x in keys)


# Several J of each rank-3 group; H3 with J = S has the single mcr e.
GRAM_CASES = [
    ("a3", ()), ("a3", (S,)), ("a3", (S, 2)), ("a3", (S, T, 2)),
    ("b3", (T,)), ("b3", (S, T)), ("b3", (T, 2)),
    ("h3", (S,)), ("h3", (T, 2)), ("h3", (S, T)), ("h3", (S, T, 2)),
]


def gram_rows(mod, xs, ys):
    """{x: [trace(i(phi m_x) phi m_y) for y in ys]}, each x's row from one
    pairing_trace_row, as verify reads the embedded form."""
    phis = [mod.phi_embed(mod.m(y)) for y in ys]
    return {x: mod.algebra.pairing_trace_row(mod.phi_embed(mod.m(x)), phis) for x in xs}


@pytest.fixture(scope="module", params=GRAM_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def gram_module(request, a3, b3, h3):
    name, J = request.param
    system = {"a3": a3, "b3": b3, "h3": h3}[name]
    mod = SphericalModule(HeckeAlgebra(system), J)
    mcrs = system.min_coset_reps(J, 4)
    rows = gram_rows(mod, mcrs, mcrs)
    return mod, mcrs, {(x, y): g for x in mcrs for y, g in zip(mcrs, rows[x])}


class TestGramCrossCheck:
    """The coordinatewise pairing against the embedded trace form, which
    only verify reads: v^{d_J} pi(J) <a, b>_M = trace(i(phi a) phi b)."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_memoized_form_matches_the_full_product(self, gram_module, data):
        # The Gram entries, memoized per pair of mcrs and summed by
        # linearity as rank-matching sums them, against the full product.
        mod, mcrs, gram = gram_module
        a = data.draw(module_elements(mcrs))
        b = data.draw(module_elements(mcrs))
        want = embedded_trace(mod, a, b)
        assert mod.pairing(a, b) == a.dot(b)
        assert a.dot(b).shift(mod.d_J) * mod.pi == want
        assert sum_of_products((c * d, gram[(x, y)]) for x, c in a.support.items()
                               for y, d in b.support.items()) == want

    @pytest.mark.parametrize("J", list(itertools.chain.from_iterable(
        itertools.combinations(range(3), r) for r in range(4))), ids=str)
    def test_every_batched_entry_of_h3_is_its_own_product(self, h3, J):
        # Each entry of a row read by one trace walk must be the trace of
        # its own full Hecke product.
        alg = HeckeAlgebra(h3)
        mod = SphericalModule(alg, J)
        mcrs = h3.min_coset_reps(J)
        everything = SphericalElt((x, ONE) for x in mcrs)
        assert mod.pairing(everything, everything) == LaurentPoly.from_int(len(mcrs))
        for x, row in gram_rows(mod, mcrs, mcrs).items():
            ix = alg.anti_involution(mod.phi_embed(mod.m(x)))
            for y, g in zip(mcrs, row):
                assert g == alg.multiply(ix, mod.phi_embed(mod.m(y))).coeff(IDENTITY), (x, y)

    @pytest.mark.parametrize("budget", [6, 12])
    def test_no_pairing_within_a_cut_ball_raises(self, budget):
        # Every entry trace(i(phi m_x) phi m_y) whose embeddings lie in the
        # ball has a value, v^{d_J} pi(J) delta_xy, whether a row is walked
        # for one column, for several or for all of them at once: the trace
        # walk never leaves the ball.
        system = CoxeterSystem(AFFINE_A2, budget)
        alg = HeckeAlgebra(system)
        rng = random.Random(budget)
        for J in finitary_subsets(system):
            mod = SphericalModule(alg, J)
            mcrs = [x for x in system.min_coset_reps(J) if len(x) + mod.d_J <= budget]
            assert max(map(len, mcrs)) + mod.d_J == budget
            everything = SphericalElt((x, ONE) for x in mcrs)
            assert mod.pairing(everything, everything) == LaurentPoly.from_int(len(mcrs))
            diagonal = mod.pi.shift(mod.d_J)
            for x, row in gram_rows(mod, mcrs, mcrs).items():
                assert row == [diagonal if x == y else ZERO for y in mcrs], (J, x)
            top = [x for x in mcrs if len(x) + mod.d_J == budget]
            for x in top:
                columns = rng.sample([y for y in mcrs if y != x], 3) + [x]
                assert gram_rows(mod, [x], columns)[x] == [ZERO] * 3 + [diagonal], (J, x)
                y = rng.choice(top)
                assert gram_rows(mod, [x], [y])[x] == [diagonal if x == y else ZERO], (J, x, y)

    @pytest.mark.parametrize("name,budget", [("a3", 12), ("b3", 12), ("h3", 18),
                                             ("affine_a2", 8)])
    def test_every_gram_row_entry_is_its_embedded_product(self, name, budget):
        # A row against trace(i(phi m_x) phi m_y), one full Hecke product per
        # entry wherever that product stays in the ball, for a few x of each
        # J, read over every other column and over all of them; on the cut
        # ball every row of in-cap mcrs is read.  Each equals
        # v^{d_J} pi(J) delta_xy, since the m_x are orthonormal.
        matrix = AFFINE_A2 if name == "affine_a2" else catalog.BUILTIN[name]
        system = CoxeterSystem(matrix, budget)
        alg = HeckeAlgebra(system)
        rng = random.Random(name)
        for J in finitary_subsets(system):
            mod = SphericalModule(alg, J)
            mcrs = [y for y in system.min_coset_reps(J) if len(y) + mod.d_J <= budget]
            xs = mcrs if not system.is_finite else rng.sample(mcrs, min(4, len(mcrs)))
            halves, rows = gram_rows(mod, xs, mcrs[::2]), gram_rows(mod, xs, mcrs)
            diagonal = mod.pi.shift(mod.d_J)
            for x in xs:
                row = rows[x]
                assert halves[x] == row[::2]
                assert row == [diagonal if x == y else ZERO for y in mcrs], (J, x)
                ix = alg.anti_involution(mod.phi_embed(mod.m(x)))
                for y, g in zip(mcrs, row):
                    if len(x) + len(y) + 2 * mod.d_J <= budget or system.is_finite:
                        want = alg.multiply(ix, mod.phi_embed(mod.m(y))).coeff(IDENTITY)
                        assert g == want, (J, x, y)

    def test_a_key_that_is_not_an_mcr_is_rejected(self, mod_a2_s):
        raw = SphericalElt({(S,): ONE})
        with pytest.raises(PreconditionViolated, match="minimal coset"):
            mod_a2_s.pairing(raw, mod_a2_s.unit())
        with pytest.raises(PreconditionViolated, match="minimal coset"):
            mod_a2_s.pairing(mod_a2_s.unit(), raw)

    @pytest.mark.parametrize("corrupt", [lambda g, mod: g + mod.pi * V ** mod.d_J,
                                         lambda g, mod: g + ONE],
                             ids=["divisible", "not-divisible"])
    def test_a_corrupted_entry_is_caught(self, a2, monkeypatch, corrupt):
        # One entry of the embedded form, trace(i(phi m_t) phi m_t) in
        # M({s}), read wrong by every row walk: both checks that read the
        # form report it, and only under that J.
        run = verify.Run(a2)
        mod = run.module(frozenset({S}))
        target = mod.phi_embed(mod.m((T,)))
        real = HeckeAlgebra.pairing_trace_row

        def corrupted(self, a, bs):
            return [corrupt(g, mod) if a == b == target else g
                    for b, g in zip(bs, real(self, a, bs))]

        monkeypatch.setattr(HeckeAlgebra, "pairing_trace_row", corrupted)
        orthonormal = run.check("spherical", "spherical-orthonormal",
                                verify.check_spherical_orthonormal)
        assert orthonormal.failures == [
            f"J=[0], (1,)/(1,): trace(i(phi m_x) phi m_y) = {corrupt(mod.pi.shift(1), mod)}"]
        rank = run.check("strolls", "rank-matching", verify.check_rank_matching)
        assert rank.failures
        assert all(msg.startswith("J=[0], ") and msg.endswith(": rank mismatch")
                   for msg in rank.failures)


class TestPhi:
    def test_unit_goes_to_bwj(self, mod_a2_s):
        assert mod_a2_s.phi_embed(mod_a2_s.unit()) == mod_a2_s.b_wJ

    def test_m_t(self, mod_a2_s):
        got = mod_a2_s.phi_embed(mod_a2_s.m((T,)))
        assert got == HeckeElt({(S, T): ONE, (T,): V})

    def test_a_key_that_is_not_an_mcr_is_rejected(self, mod_a2_s):
        with pytest.raises(PreconditionViolated, match="not a minimal coset representative"):
            mod_a2_s.phi_embed(SphericalElt({(S,): ONE}))

    def test_equivariance_instance(self, mod_a2_s, a2_algebra):
        alg = a2_algebra
        lhs = mod_a2_s.phi_embed(mod_a2_s.act_bs(mod_a2_s.unit(), S))
        rhs = alg.multiply(alg.b_s(S), alg.b_s(S))
        assert lhs == rhs

    @pytest.mark.parametrize("name", ["h3", "affine_a2"])
    def test_each_image_is_the_product_it_stands_for(self, request, name):
        # On the cut ball of affine A2, w_J x can pass the budget: then both
        # routes raise BudgetExceeded.
        system = request.getfixturevalue(name)
        alg = HeckeAlgebra(system)
        for J in finitary_subsets(system):
            mod = SphericalModule(alg, J)
            for x in system.min_coset_reps(J):
                try:
                    want = alg.multiply(mod.b_wJ, alg.delta(x))
                except BudgetExceeded:
                    with pytest.raises(BudgetExceeded):
                        mod._phi(x)
                else:
                    assert mod._phi(x) == want, (J, x)

    def test_a_long_word_takes_no_frame_per_letter(self):
        system = CoxeterSystem(catalog.INF_DIHEDRAL, 400)
        x = (T, S) * 100
        mod = SphericalModule(HeckeAlgebra(system), {S})
        with shallow_stack():
            got = mod._phi(x)
        assert got == HeckeElt({(S,) + x: ONE, x: V})

    def test_equivariance_exhaustive(self, b2_algebra):
        alg = b2_algebra
        sys = alg.system
        for J in map(frozenset, [set(), {S}, {T}, {S, T}]):
            mod = SphericalModule(alg, J)
            for x in sys.min_coset_reps(J):
                m = mod.m(x)
                for s in range(sys.matrix.rank):
                    assert mod.phi_embed(mod.act_bs(m, s)) == alg.multiply(
                        mod.phi_embed(m), alg.b_s(s)
                    )


class TestExpand:
    def test_empty(self, mod_a2_s):
        assert mod_a2_s.expand_expression(()) == mod_a2_s.unit()

    def test_single_letters(self, mod_a2_s):
        assert mod_a2_s.expand_expression((T,)) == SphericalElt(
            {(T,): ONE, IDENTITY: V}
        )
        assert mod_a2_s.expand_expression((S,)) == SphericalElt(
            {IDENTITY: V + VINV}
        )


class TestSerialization:
    def test_json_tags(self, mod_a2_s):
        data = mod_a2_s.to_json(mod_a2_s.m((T,), V))
        assert data["basis"] == "spherical-standard"
        assert data["J"] == ["s"]
        assert data["terms"] == [{"elt": "t", "coeff": [[1, 1]]}]

    def test_json_round_trip(self, mod_a2_s):
        m = mod_a2_s.expand_expression((T, S, T))
        data = json.loads(json.dumps(mod_a2_s.to_json(m)))
        assert list(data) == ["basis", "J", "terms"]
        assert data == {"basis": "spherical-standard", "J": ["s"], "terms": [
            {"elt": "", "coeff": [[1, 2], [3, 1]]}, {"elt": "t", "coeff": [[0, 2], [2, 1]]},
            {"elt": "ts", "coeff": [[-1, 1], [1, 1]]},
        ]}

    def test_module_json_round_trip(self, mod_a2_s):
        # m_e b_t b_s b_t (v - 2) and m_e (v - 2), each term's coefficient by exponent
        terms = {(): [{"elt": "", "coeff": [[0, -2], [1, 1]]}],
                 (T, S, T): [{"elt": "", "coeff": [[1, -4], [2, 2], [3, -2], [4, 1]]},
                             {"elt": "t", "coeff": [[0, -4], [1, 2], [2, -2], [3, 1]]},
                             {"elt": "ts", "coeff": [[-1, -2], [0, 1], [1, -2], [2, 1]]}]}
        for word, want in terms.items():
            m = mod_a2_s.expand_expression(word).scale(V - 2)
            data = json.loads(json.dumps(mod_a2_s.to_json(m)))
            assert data == {"basis": "spherical-standard", "J": ["s"], "terms": want}


class TestBasisTag:
    def test_hecke_and_module_elements_differ(self):
        assert HeckeElt({IDENTITY: 1}) != SphericalElt({IDENTITY: 1})
        assert SphericalElt({IDENTITY: 1}) != HeckeElt({IDENTITY: 1})
        assert SphericalElt({IDENTITY: 1}) == SphericalElt({IDENTITY: ONE})

    def test_arithmetic_keeps_the_type(self, mod_a2_s):
        m = mod_a2_s.m((T,))
        for got in (m + m, m - m, -m, m.scale(V), mod_a2_s.act_bs(m, S)):
            assert type(got) is SphericalElt
