"""Machine verification of the algebraic identities the package implements.

The library computes each value by one path and checks none of them; these
checks are the one place a computed value meets a second path.

Each suite is a list of named checks over one Coxeter system.  A check is a
generator function of a `Run` that yields failure messages; the `Run`
holds what the checks of one `run_suites` call share: one Hecke algebra,
the finitary subsets of S, one spherical module per J, and the case
counters of the running check.  Each case a check covers is a
`with run.case(*where)` block, the one place that names a counterexample:
a case that leaves the length budget is counted as skipped, any other
package error it raises is one of the check's counterexamples, and every
counterexample starts with the case's coordinates `where`.  A package error
raised outside every case, while the check enumerates its cases, is one
bare counterexample that ends that check only (BudgetExceeded there still
ends the run), so one faulty check cannot hide the others' results.  A
check that fails nowhere reports PASS, or EMPTY if it completed no case.
The pairing checks compare the coordinatewise form with the trace form,
the spherical ones through the embedding m_x -> b_{w_J} delta_x, and read
the trace form a row at a time: each x's row comes from one trace walk
(`HeckeAlgebra.pairing_trace_row`), before its cases, and each entry is
compared in its own case.  A row is read outside every case, with
`run.where` set to its coordinates (J, x), so a row that raises is one
counterexample named by them, and it ends that check.
The CLI and the test suite share these so a green `verify` run and a green
pytest run mean the same thing.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import random
from typing import Callable, Iterable, Iterator, NamedTuple

from . import strolls
from .coxeter import CoxeterSystem, Word
from .errors import BudgetExceeded, HeckesphereError, PreconditionViolated
from .hecke import HeckeAlgebra, HeckeElt
from .laurent import LaurentPoly, ONE, ZERO, sum_of_products
from .lightleaf import NSStep, build_nsll, build_sll, find_sweep, glue
from .linear import Combo
from .spherical import SphericalModule


class CheckResult(NamedTuple):
    suite: str
    name: str
    failures: list[str]
    cases: int
    skipped_budget: int

    @property
    def status(self) -> str:
        if self.failures:
            return "FAIL"
        return "PASS" if self.cases else "EMPTY"


def finitary_subsets(system: CoxeterSystem) -> list[frozenset[int]]:
    """All subsets of S that can be certified finitary within the budget."""
    out = []
    gens = range(system.matrix.rank)
    for r in range(len(gens) + 1):
        for J in itertools.combinations(gens, r):
            try:
                system.parabolic(J)
            except BudgetExceeded:
                continue
            out.append(frozenset(J))
    return out


Check = Callable[["Run"], Iterator[str]]


class Run:
    """What the checks of one run share, and the case counts of the check
    that is running."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self.algebra = HeckeAlgebra(system)
        self.subsets = finitary_subsets(system)
        self._modules: dict[frozenset[int], SphericalModule] = {}
        self.cases = self.skipped_budget = 0
        self.failures: list[str] = []
        self.where: tuple = ()

    def module(self, J: frozenset[int]) -> SphericalModule:
        """M(J), built on first use."""
        if J not in self._modules:
            self._modules[J] = SphericalModule(self.algebra, J)
        return self._modules[J]

    def elements(self, max_length: int | None = None, factors: int = 1) -> list[Word]:
        """All elements available without exceeding the budget (for infinite
        systems, one layer below the horizon so products by a generator stay
        in, and short enough that products of `factors` of them stay in too)."""
        cap = self.system.budget
        if not self.system.is_finite:
            cap = min(cap - 1, cap // factors)
        if max_length is not None:
            cap = min(cap, max_length)
        return self.system.elements(cap)

    def mcrs(self, J: frozenset[int], max_length: int | None = None,
             factors: int = 1) -> list[Word]:
        """The minimal coset representatives among `elements`."""
        return [w for w in self.elements(max_length, factors) if self.system.is_mcr(w, J)]

    def words(self, max_len: int) -> list[tuple[int, ...]]:
        """Every word of length at most max_len, cut to desk scale: subexpression
        sweeps are 2^n per word and (rank)^n words."""
        system = self.system
        cap = min(max_len, 5 if system.matrix.rank == 2 else 3)
        # A word's subexpressions end at elements no longer than the word, so on
        # a ball the budget cuts off the words stay within the budget.
        if not system.is_finite:
            cap = min(cap, system.budget)
        letters = range(system.matrix.rank)
        return [w for n in range(cap + 1) for w in itertools.product(letters, repeat=n)]

    @contextlib.contextmanager
    def case(self, *where):
        """One case of the running check; BudgetExceeded inside it skips the
        case, and any other package error is a counterexample of the check.
        `where` is the case's coordinates: J first if it has one, then its
        elements, words, bits or sample number.  They are formatted only
        when the case fails, as "J=[0], (1, 0)/(1, 1): <message>", where the
        message is one the check yields or "<ErrorType>: ..."."""
        self.where = where
        try:
            yield
        except BudgetExceeded:
            self.skipped_budget += 1
            return
        except HeckesphereError as exc:
            self.failures.append(f"{_case_name(where)}{type(exc).__name__}: {exc}")
        finally:
            self.where = ()
        self.cases += 1

    def check(self, suite: str, name: str, fn: Check) -> CheckResult:
        """Run one check to the end, counting its cases and naming each
        message it yields by the case it yields it in.  A package error
        other than BudgetExceeded that the check raises outside every case,
        while it enumerates its cases, is one more counterexample and ends
        only this check; it starts with the coordinates the check set in
        `where` outside its cases, as a row's (J, x), if any."""
        self.cases = self.skipped_budget = 0
        self.failures = []
        self.where = ()
        try:
            for msg in fn(self):
                self.failures.append(_case_name(self.where) + msg)
        except BudgetExceeded:
            raise
        except HeckesphereError as exc:
            self.failures.append(f"{_case_name(self.where)}{type(exc).__name__}: {exc}")
        return CheckResult(suite, name, self.failures, self.cases, self.skipped_budget)


def _case_name(where: tuple) -> str:
    """The prefix of a failed case's counterexample: 'J=[0], (1, 0)/(1, 1): '
    for where = (J, word, bits), and '' for a case without coordinates."""
    parts = []
    if where and isinstance(where[0], frozenset):
        parts.append(f"J={sorted(where[0])}")
        where = where[1:]
    if where:
        parts.append("/".join(map(str, where)))
    return ", ".join(parts) + ": " if parts else ""


def _random_elts(rng: random.Random, pool: list[Word], count: int) -> list[HeckeElt]:
    """Each the sum of two terms c v^e delta_x, with x, e and c drawn in turn."""
    out = []
    for _ in range(count):
        x = rng.choice(pool)
        c = LaurentPoly.monomial(rng.randint(-2, 2), rng.randint(-3, 3))
        y = rng.choice(pool)
        d = LaurentPoly.monomial(rng.randint(-2, 2), rng.randint(-3, 3))
        if x == y:
            c, d = c + d, ZERO
        out.append(HeckeElt.wrap({k: p for k, p in ((x, c), (y, d)) if p}))
    return out


# -- hecke suite ------------------------------------------------------------------


def _kl_failures(elt: Combo, x: Word, bar: Callable[[Combo], Combo],
                 name: str) -> Iterator[str]:
    """The KL element at x, b_x or c_x, against its characterization
    (Kazhdan-Lusztig): coefficient 1 at x, invariance under `bar`, and every
    other coefficient in vZ[v]."""
    if elt.coeff(x) != ONE:
        yield f"{name} has coefficient {elt.coeff(x)} at x, not 1"
    if bar(elt) != elt:
        yield f"{name} is not bar-invariant"
    for y, c in elt.support.items():
        if y != x and not c.in_v_times_nonneg():
            yield f"h_({y}, x) = {c} not in vZ[v]"


def check_kl_wellformed(run: Run) -> Iterator[str]:
    """b_x, as kl_basis computes it, against its characterization."""
    alg = run.algebra
    for x in run.elements():
        with run.case(x):
            yield from _kl_failures(alg.kl_basis(x), x, alg.bar, "b_x")


def check_bwj_pi(run: Run) -> Iterator[str]:
    """b_wJ_and_pi's closed form, unchecked by the library, against
    kl_basis(w_J), and its square against pi(J) b_(w_J) through multiply."""
    for J in run.subsets:
        with run.case(J):
            b, pi = run.algebra.b_wJ_and_pi(J)
            if b != run.algebra.kl_basis(run.system.parabolic(J).w_J):
                yield "closed form for b_(w_J) disagrees with the KL recursion"
            if run.algebra.multiply(b, b) != b.scale(pi):
                yield "b_(w_J)^2 != pi(J) b_(w_J)"


def check_hecke_orthonormal(run: Run) -> Iterator[str]:
    """<d_x, d_y> = delta_xy, each x's row read from one trace walk."""
    alg = run.algebra
    elts = run.elements(4)
    deltas = [alg.delta(y) for y in elts]
    for x in elts:
        run.where = (x,)
        row = alg.pairing_trace_row(alg.delta(x), deltas)
        for y, got in zip(elts, row):
            with run.case(x, y):
                if got != (ONE if x == y else ZERO):
                    yield f"<d_x, d_y> = {got}"


def check_pairing_paths(run: Run) -> Iterator[str]:
    """<b_x, b_y> coordinatewise against trace(i(b_x) b_y), each x's row
    read from one trace walk."""
    alg = run.algebra
    elts = run.elements(3)
    kls = [alg.kl_basis(y) for y in elts]
    for x, a in zip(elts, kls):
        run.where = (x,)
        row = alg.pairing_trace_row(a, kls)
        for y, b, got in zip(elts, kls, row):
            with run.case(x, y):
                if alg.pairing(a, b) != got:
                    yield "pairing paths disagree on (b_x, b_y)"


def check_associativity(run: Run) -> Iterator[str]:
    alg = run.algebra
    rng = random.Random(0)
    pool = run.elements(max(2, (run.system.budget - 1) // 3), factors=3)
    if not pool:
        return
    for i in range(100):
        with run.case(i):
            a, b, c = _random_elts(rng, pool, 3)
            if alg.multiply(alg.multiply(a, b), c) != alg.multiply(a, alg.multiply(b, c)):
                yield "associativity fails on this random triple"


def check_anti_involution(run: Run) -> Iterator[str]:
    alg = run.algebra
    rng = random.Random(1)
    pool = run.elements(max(2, (run.system.budget - 1) // 2), factors=2)
    if not pool:
        return
    for i in range(100):
        with run.case(i):
            a, b = _random_elts(rng, pool, 2)
            if alg.anti_involution(alg.multiply(a, b)) != alg.multiply(
                alg.anti_involution(b), alg.anti_involution(a)
            ):
                yield "i(ab) != i(b)i(a) on this random pair"


# -- spherical suite ---------------------------------------------------------------


def check_module_action(run: Run) -> Iterator[str]:
    rng = random.Random(2)
    for J in run.subsets:
        mod = run.module(J)
        mcrs = run.mcrs(J, max(2, (run.system.budget - 1) // 3), factors=3)
        if not mcrs:
            continue
        for i in range(34):
            with run.case(J, i):
                m = mod.m(rng.choice(mcrs), LaurentPoly.monomial(rng.randint(-1, 1)))
                h1, h2 = _random_elts(rng, mcrs, 2)
                if mod.act(mod.act(m, h1), h2) != mod.act(m, run.algebra.multiply(h1, h2)):
                    yield "action axiom fails on this sample"


def check_phi_equivariance(run: Run) -> Iterator[str]:
    alg = run.algebra
    for J in run.subsets:
        mod = run.module(J)
        for x in run.mcrs(J, run.system.budget - mod.d_J - 1):
            m = mod.m(x)
            for s in range(run.system.matrix.rank):
                with run.case(J, x, s):
                    lhs = mod.phi_embed(mod.act_bs(m, s))
                    if lhs != alg.multiply(mod.phi_embed(m), alg.b_s(s)):
                        yield "phi not equivariant at (m_x, s)"


def check_spherical_kl(run: Run) -> Iterator[str]:
    """c_x, as kl_c computes it, against its characterization, as
    kl-wellformed checks b_x."""
    for J in run.subsets:
        mod = run.module(J)
        for x in run.mcrs(J):
            with run.case(J, x):
                yield from _kl_failures(mod.kl_c(x), x, mod.bar, "c_x")


def check_spherical_orthonormal(run: Run) -> Iterator[str]:
    """<m_x, m_y>_M = delta_xy, and the embedded form trace(i(phi m_x) phi m_y)
    = v^{d_J} pi(J) delta_xy, each x's row of it read from one trace walk."""
    alg = run.algebra
    for J in run.subsets:
        mod = run.module(J)
        # phi(m_x) reaches length l(x) + d_J; the trace walk stays in the
        # ball that holds both embeddings.
        cap = None if run.system.is_finite else run.system.budget - mod.d_J
        mcrs = run.mcrs(J, cap)
        ms = [mod.m(y) for y in mcrs]
        run.where = (J,)
        phis = [mod.phi_embed(m) for m in ms]
        diagonal = mod.pi.shift(mod.d_J)
        for x, mx, px in zip(mcrs, ms, phis):
            run.where = (J, x)
            row = alg.pairing_trace_row(px, phis)
            for y, my, g in zip(mcrs, ms, row):
                with run.case(J, x, y):
                    if g != (diagonal if x == y else ZERO):
                        yield f"trace(i(phi m_x) phi m_y) = {g}"
                    got = mod.pairing(mx, my)
                    if got != (ONE if x == y else ZERO):
                        yield f"<m_x, m_y> = {got}"


def check_bar_M_involutive(run: Run) -> Iterator[str]:
    for J in run.subsets:
        mod = run.module(J)
        for x in run.mcrs(J):
            with run.case(J, x):
                if mod.bar(mod.bar(mod.m(x))) != mod.m(x):
                    yield "bar_M not involutive at m_x"


def check_decomp_wallcross(run: Run) -> Iterator[str]:
    """Every w = u z with additive lengths; every mcr/generator pair leaving
    ^J W goes up and wall-crosses to a generator in J."""
    system = run.system
    for J in run.subsets:
        for w in run.elements():
            with run.case(J, w):
                u, z = system.coset_decompose(w, J)
                if system.mult(u, z) != w or len(u) + len(z) != len(w):
                    yield "decomposition fails"
                if set(u) - J or not system.is_mcr(z, J):
                    yield "wrong factors"
        # z is one layer below the horizon, so z*s stays in the ball.
        for z in run.mcrs(J):
            for s in range(system.matrix.rank):
                zs = system.right_mult(z, s)
                if system.is_mcr(zs, J):
                    continue
                with run.case(J, z, s):
                    if len(zs) <= len(z):
                        yield "z*s < z leaves mcr set"
                    if zs != system.left_mult(system.wall_cross(z, s, J), z):
                        yield "zs != tz"


# -- strolls suite -------------------------------------------------------------------


def check_1bx(run: Run) -> Iterator[str]:
    system = run.system
    for J in run.subsets:
        mod = run.module(J)
        for word in run.words(5):
            with run.case(J, word):
                if mod.expand_expression(word) != strolls.endpoint_polys(system, J, word):
                    yield "defect expansion fails"


def check_rank_matching(run: Run) -> Iterator[str]:
    """v^{d_J} pi(J) times the rank polynomial P_x . P_y against the embedded
    form trace(i(phi a) phi b) of a = 1 (x) b_x and b = 1 (x) b_y, read by
    linearity from one row of the form per mcr in the expansions' supports."""
    system = run.system
    alg = run.algebra
    for J in run.subsets:
        mod = run.module(J)
        cap = 4 if system.is_finite else min(4, system.budget - mod.d_J)
        words = run.words(cap)
        # Each word's P_w and 1 (x) b_w are computed once per J and paired
        # with every partner.
        polys = functools.cache(functools.partial(strolls.endpoint_polys, system, J))
        run.where = (J,)
        expand = {word: mod.expand_expression(word) for word in words}
        zs = list(dict.fromkeys(z for a in expand.values() for z in a.support))
        phis = [mod.phi_embed(mod.m(z)) for z in zs]
        form = {}
        for z, pz in zip(zs, phis):
            run.where = (J, z)
            form[z] = {y: g for y, g in zip(zs, alg.pairing_trace_row(pz, phis)) if g}
        scale = mod.pi.shift(mod.d_J)
        for x_word, y_word in itertools.product(words, repeat=2):
            with run.case(J, x_word, y_word):
                a, b = expand[x_word].support, expand[y_word].support
                embedded = sum_of_products((c * b[y], g) for x, c in a.items()
                                           for y, g in form[x].items() if y in b)
                if embedded != polys(x_word).dot(polys(y_word)) * scale:
                    yield "rank mismatch"


def check_partial_order(run: Run) -> Iterator[str]:
    system = run.system
    for J in run.subsets:
        for word in run.words(5):
            with run.case(J, word):
                decs = strolls.decorations(system, J, word)
                rel = {(f.bits, e.bits): strolls.preceq(system, J, f, e)
                       for f in decs for e in decs}
                for e in decs:
                    if not rel[(e.bits, e.bits)]:
                        yield f"not reflexive at {e.bits}"
                for f in decs:
                    for e in decs:
                        if f.bits != e.bits and rel[(f.bits, e.bits)] and rel[(e.bits, f.bits)]:
                            yield f"antisymmetry fails ({f.bits}, {e.bits})"
                for a in decs:
                    for b in decs:
                        if not rel[(a.bits, b.bits)]:
                            continue
                        for c in decs:
                            if rel[(b.bits, c.bits)] and not rel[(a.bits, c.bits)]:
                                yield f"transitivity fails ({a.bits}, {b.bits}, {c.bits})"


def check_empty_J_classical(run: Run) -> Iterator[str]:
    for word in run.words(4):
        for dec in strolls.decorations(run.system, frozenset(), word):
            with run.case(word, dec.bits):
                if any(lbl[0] == "X" for lbl in dec.labels):
                    yield "X label with empty J"
                if dec.sdef != dec.labels.count("U0") - dec.labels.count("D0"):
                    yield "classical defect mismatch"


def check_rank_symmetry(run: Run) -> Iterator[str]:
    """The double-leaf pairs of (x, y), counted one by one, against the rank
    polynomial of (y, x) summed by endpoint, from each word's decorations
    and P_w computed once per J."""
    system = run.system
    for J in run.subsets:
        decs = functools.cache(functools.partial(strolls.decorations, system, J))
        polys = functools.cache(functools.partial(strolls.endpoint_polys, system, J))
        for x_word, y_word in itertools.product(run.words(3), repeat=2):
            with run.case(J, x_word, y_word):
                pairs = strolls.join(decs(x_word), decs(y_word))
                if LaurentPoly((p.degree, 1) for p in pairs) != polys(y_word).dot(polys(x_word)):
                    yield "asymmetric rank polynomial"


def check_localized_count(run: Run) -> Iterator[str]:
    """At v = 1, delta_s^2 = 1 and 1 (x) b_w in M({}) = H becomes
    prod (1 + s_i) in Z[W]: the multiplicity of z is the sum of the
    coefficients of m_z."""
    mod = run.module(frozenset())
    for word in run.words(5):
        with run.case(word):
            at_one = {z: sum(n for _, n in c.terms())
                      for z, c in mod.expand_expression(word).support.items()}
            if dict(strolls.localized_summands(run.system, word)) != at_one:
                yield "summand multiplicities differ from 1 (x) b_w at v = 1"


# -- lightleaf suite -----------------------------------------------------------------


def _replay_failures(system: CoxeterSystem, J: frozenset[int], recipe) -> Iterator[str]:
    for st in recipe.steps:
        st.pre_rex.replay(system)
        st.post_rex.replay(system)
        elem, reduced = system.normalize(st.intermediate)
        if not reduced:
            yield f"step {st.k}: intermediate {st.intermediate} not reduced"
        if isinstance(st, NSStep):
            u, z = system.coset_decompose(elem, J)
            if st.intermediate != st.u_part + st.z_part or (
                system.element(st.u_part) != u or system.element(st.z_part) != z
            ):
                yield f"step {st.k}: block split does not match {elem}"
        elif not system.is_mcr(elem, J):
            yield f"step {st.k}: intermediate {st.intermediate} is not an mcr"


def check_ll_degree_law(run: Run) -> Iterator[str]:
    system = run.system
    for J in run.subsets:
        for word in run.words(5):
            for dec in strolls.decorations(system, J, word):
                with run.case(J, word, dec.bits):
                    recipe = build_sll(system, J, word, dec.bits)
                    if recipe.degree != dec.sdef:
                        yield f"degree {recipe.degree} != sdef {dec.sdef}"
                    yield from _replay_failures(system, J, recipe)


def check_double_leaves(run: Run) -> Iterator[str]:
    system = run.system
    for J in run.subsets:
        # Decorations and light leaves are built once per J, then joined and glued.
        decs = functools.cache(functools.partial(strolls.decorations, system, J))
        leaf = functools.cache(functools.partial(build_sll, system, J))
        for x_word, y_word in itertools.product(run.words(4), repeat=2):
            # A fault in the index set is a counterexample, not the end of the run.
            pairs = []
            with run.case(J, x_word, y_word):
                pairs = strolls.join(decs(x_word), decs(y_word))
            for pair in pairs:
                with run.case(J, x_word, pair.e.bits, y_word, pair.f.bits):
                    dl = glue(leaf(x_word, pair.e.bits), leaf(y_word, pair.f.bits))
                    if dl.degree != pair.degree:
                        yield f"double-leaf degree {dl.degree} != index tag {pair.degree}"


def check_nsll(run: Run) -> Iterator[str]:
    system = run.system
    for J in run.subsets:
        for word in run.words(4):
            for bits in strolls.subexpressions(len(word)):
                with run.case(J, word, bits):
                    recipe = build_nsll(system, J, word, bits)
                    yield from _replay_failures(system, J, recipe)
                    classical = [st.classical_label for st in recipe.steps]
                    if not J:
                        if [st.label for st in recipe.steps] != classical:
                            yield "labels differ with empty J"
                        if recipe.degree != classical.count("U0") - classical.count("D0"):
                            yield "classical degree mismatch"


def check_sweeps(run: Run) -> Iterator[str]:
    system = run.system
    rank = system.matrix.rank
    # z is one layer below the horizon, so s*z and z*t stay in the ball.
    for z in run.elements():
        for s, t in itertools.product(range(rank), repeat=2):
            sz = system.left_mult(s, z)
            if len(sz) <= len(z) or system.right_mult(z, t) != sz:
                continue
            with run.case(s, z, t):
                z_tilde, sweep = find_sweep(system, s, z, t)
                if system.element(z_tilde) != z:
                    yield "find_sweep gives a wrong reduced word"
                trail = sweep.replay(system)
                if trail[0] != (s,) + z_tilde or trail[-1] != z_tilde + (t,):
                    yield "sweep has wrong endpoints"
                positions = [p for p, *_ in sweep.applications]
                if any(b < a for a, b in zip(positions, positions[1:])):
                    yield "sweep is not left-to-right"


# -- suite registry --------------------------------------------------------------------


SUITES: dict[str, list[tuple[str, Check]]] = {
    "hecke": [
        ("kl-wellformed", check_kl_wellformed),
        ("bwj-pi-identity", check_bwj_pi),
        ("standard-orthonormal", check_hecke_orthonormal),
        ("pairing-paths-agree", check_pairing_paths),
        ("associativity", check_associativity),
        ("anti-involution", check_anti_involution),
    ],
    "spherical": [
        ("module-action", check_module_action),
        ("phi-equivariance", check_phi_equivariance),
        ("spherical-kl", check_spherical_kl),
        ("spherical-orthonormal", check_spherical_orthonormal),
        ("bar-involutive", check_bar_M_involutive),
        ("decomp-wallcross", check_decomp_wallcross),
    ],
    "strolls": [
        ("defect-expansion", check_1bx),
        ("rank-matching", check_rank_matching),
        ("partial-order", check_partial_order),
        ("empty-J-classical", check_empty_J_classical),
        ("rank-symmetry", check_rank_symmetry),
        ("localized-count", check_localized_count),
    ],
    "lightleaf": [
        ("degree-law", check_ll_degree_law),
        ("double-leaves", check_double_leaves),
        ("non-spherical", check_nsll),
        ("sweeps", check_sweeps),
    ],
}


def run_suites(system: CoxeterSystem, names: Iterable[str]) -> list[CheckResult]:
    names = list(names)
    for name in names:
        if name not in SUITES:
            raise PreconditionViolated(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    run = Run(system)
    return [run.check(suite, name, fn) for suite in names for name, fn in SUITES[suite]]
