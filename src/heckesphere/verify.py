"""Machine verification of the algebraic identities the package implements.

Each suite is a list of named checks over one Coxeter system.  A check
returns a list of failure messages (empty = pass).  The CLI and the test
suite share these so a green `verify` run and a green pytest run mean the
same thing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from . import strolls
from .coxeter import IDENTITY, CoxeterSystem, Word
from .errors import BudgetExceeded, PreconditionViolated
from .hecke import HeckeAlgebra, HeckeElt
from .laurent import LaurentPoly, ONE
from .lightleaf import NSStep, build_nsll, build_sdl, build_sll, find_sweep
from .spherical import SphericalModule


@dataclass
class CheckResult:
    suite: str
    name: str
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def finitary_subsets(system: CoxeterSystem) -> list[frozenset[int]]:
    """All subsets of S that can be certified finitary within the budget."""
    out = []
    gens = range(system.matrix.rank)
    for r in range(len(list(gens)) + 1):
        for J in itertools.combinations(gens, r):
            try:
                system.parabolic_elements(frozenset(J))
            except BudgetExceeded:
                continue
            out.append(frozenset(J))
    return out


def _enumerable(system: CoxeterSystem, max_length: int | None = None,
                factors: int = 1) -> list[Word]:
    """All elements available without exceeding the budget (for infinite
    systems, one layer below the horizon so products by a generator stay in,
    and short enough that products of `factors` of them stay in too)."""
    cap = system.budget
    if not system.is_finite:
        cap = min(cap - 1, cap // factors)
    if max_length is not None:
        cap = min(cap, max_length)
    return system.elements(cap)


def _words_up_to(system: CoxeterSystem, n: int):
    letters = range(system.matrix.rank)
    for ln in range(n + 1):
        yield from itertools.product(letters, repeat=ln)


def _random_elts(algebra: HeckeAlgebra, rng: random.Random, pool: list[Word],
                 count: int, size: int = 2) -> list[HeckeElt]:
    out = []
    for _ in range(count):
        terms = []
        for _ in range(size):
            x = rng.choice(pool)
            c = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
            terms.append((x, c))
        out.append(HeckeElt(terms))
    return out


# -- hecke suite ------------------------------------------------------------------


def check_kl_wellformed(system: CoxeterSystem) -> list[str]:
    alg = HeckeAlgebra(system)
    fails = []
    for x in _enumerable(system):
        try:
            b = alg.kl_basis(x)
        except BudgetExceeded:
            continue
        if alg.bar(b) != b:
            fails.append(f"b_{x} is not bar-invariant")
        for y, c in b.support.items():
            if y != x and not c.in_v_times_nonneg():
                fails.append(f"h_({y},{x}) = {c} not in vZ[v]")
    return fails


def check_bwj_pi(system: CoxeterSystem) -> list[str]:
    alg = HeckeAlgebra(system)
    fails = []
    for J in finitary_subsets(system):
        try:
            alg.b_wJ_and_pi(J)  # raises InternalInconsistency on any mismatch
        except Exception as exc:  # reported, not raised: this is a check
            fails.append(f"J={sorted(J)}: {exc}")
    return fails


def check_hecke_orthonormal(system: CoxeterSystem) -> list[str]:
    alg = HeckeAlgebra(system)
    fails = []
    pool = _enumerable(system, 4, factors=2)
    for x in pool:
        for y in pool:
            got = alg.pairing_trace(alg.delta(x), alg.delta(y))
            want = ONE if x == y else LaurentPoly.zero()
            if got != want:
                fails.append(f"<d_{x}, d_{y}> = {got}")
    return fails


def check_pairing_paths(system: CoxeterSystem) -> list[str]:
    alg = HeckeAlgebra(system)
    fails = []
    pool = _enumerable(system, 3, factors=2)
    for x in pool:
        for y in pool:
            a, b = alg.kl_basis(x), alg.kl_basis(y)
            if alg.pairing(a, b) != alg.pairing_trace(a, b):
                fails.append(f"pairing paths disagree on (b_{x}, b_{y})")
    return fails


def check_associativity(system: CoxeterSystem) -> list[str]:
    alg = HeckeAlgebra(system)
    rng = random.Random(0)
    pool = _enumerable(system, max(2, (system.budget - 1) // 3), factors=3)
    fails = []
    for i in range(100):
        a, b, c = _random_elts(alg, rng, pool, 3)
        left = alg.multiply(alg.multiply(a, b), c)
        right = alg.multiply(a, alg.multiply(b, c))
        if left != right:
            fails.append(f"associativity fails on random triple #{i}")
    return fails


def check_anti_involution(system: CoxeterSystem) -> list[str]:
    alg = HeckeAlgebra(system)
    rng = random.Random(1)
    pool = _enumerable(system, max(2, (system.budget - 1) // 2), factors=2)
    fails = []
    for i in range(100):
        a, b = _random_elts(alg, rng, pool, 2)
        if alg.anti_involution(alg.multiply(a, b)) != alg.multiply(
            alg.anti_involution(b), alg.anti_involution(a)
        ):
            fails.append(f"i(ab) != i(b)i(a) on random pair #{i}")
    return fails


# -- spherical suite ---------------------------------------------------------------


def check_module_action(system: CoxeterSystem) -> list[str]:
    alg = HeckeAlgebra(system)
    rng = random.Random(2)
    fails = []
    for J in finitary_subsets(system):
        mod = SphericalModule(alg, J)
        mcrs = [w for w in _enumerable(system, max(2, (system.budget - 1) // 3), factors=3)
                if system.is_mcr(w, J)]
        for i in range(34):
            m = mod.m(rng.choice(mcrs), LaurentPoly({rng.randint(-1, 1): 1}))
            h1, h2 = _random_elts(alg, rng, mcrs, 2)
            if mod.act(mod.act(m, h1), h2) != mod.act(m, alg.multiply(h1, h2)):
                fails.append(f"J={sorted(J)}: action axiom fails on sample #{i}")
    return fails


def check_phi_equivariance(system: CoxeterSystem) -> list[str]:
    alg = HeckeAlgebra(system)
    fails = []
    for J in finitary_subsets(system):
        mod = SphericalModule(alg, J)
        cap = system.budget - mod.d_J - 1
        mcrs = [w for w in _enumerable(system, cap) if system.is_mcr(w, J)]
        for x in mcrs:
            m = mod.m(x)
            for s in range(system.matrix.rank):
                try:
                    lhs = mod.phi_embed(mod.act_bs(m, s))
                    rhs = alg.multiply(mod.phi_embed(m), alg.b_s(s))
                except BudgetExceeded:
                    continue
                if lhs != rhs:
                    fails.append(f"J={sorted(J)}: phi not equivariant at (m_{x}, s={s})")
    return fails


def check_spherical_kl(system: CoxeterSystem) -> list[str]:
    fails = []
    alg = HeckeAlgebra(system)
    for J in finitary_subsets(system):
        mod = SphericalModule(alg, J)
        mcrs = [w for w in _enumerable(system) if system.is_mcr(w, J)]
        for x in mcrs:
            try:
                mod.kl_c(x)  # self-duality and degree bounds checked inside
            except BudgetExceeded:
                continue
            except Exception as exc:
                fails.append(f"J={sorted(J)}, x={x}: {exc}")
    return fails


def check_spherical_orthonormal(system: CoxeterSystem) -> list[str]:
    fails = []
    alg = HeckeAlgebra(system)
    for J in finitary_subsets(system):
        mod = SphericalModule(alg, J)
        # The cross-check path multiplies two embedded elements, so lengths
        # add; keep the ball small enough for infinite systems.
        cap = None if system.is_finite else system.budget // 2 - mod.d_J
        mcrs = [w for w in _enumerable(system, cap) if system.is_mcr(w, J)]
        for x in mcrs:
            for y in mcrs:
                try:
                    got = mod.pairing(mod.m(x), mod.m(y))
                except BudgetExceeded:
                    continue
                want = ONE if x == y else LaurentPoly.zero()
                if got != want:
                    fails.append(f"J={sorted(J)}: <m_{x}, m_{y}> = {got}")
    return fails


def check_bar_M_involutive(system: CoxeterSystem) -> list[str]:
    fails = []
    alg = HeckeAlgebra(system)
    for J in finitary_subsets(system):
        mod = SphericalModule(alg, J)
        mcrs = [w for w in _enumerable(system, 4) if system.is_mcr(w, J)]
        for x in mcrs:
            try:
                if mod.bar(mod.bar(mod.m(x))) != mod.m(x):
                    fails.append(f"J={sorted(J)}: bar_M not involutive at m_{x}")
            except BudgetExceeded:
                continue
    return fails


def check_decomp_wallcross(system: CoxeterSystem) -> list[str]:
    """Every w = u z with additive lengths; every mcr/generator pair leaving
    ^J W goes up and wall-crosses to a generator in J."""
    fails = []
    for J in finitary_subsets(system):
        for w in _enumerable(system):
            u, z = system.coset_decompose(w, J)
            if system.mult(u, z) != w or len(u) + len(z) != len(w):
                fails.append(f"J={sorted(J)}: decomposition fails at {w}")
            if set(u) - J or not system.is_mcr(z, J):
                fails.append(f"J={sorted(J)}: wrong factors for {w}")
        mcrs = [w for w in _enumerable(system, system.budget - 1 if not system.is_finite else None)
                if system.is_mcr(w, J)]
        for z in mcrs:
            for s in range(system.matrix.rank):
                try:
                    zs = system.right_mult(z, s)
                except BudgetExceeded:
                    continue
                if system.is_mcr(zs, J):
                    continue
                if len(zs) <= len(z):
                    fails.append(f"J={sorted(J)}: z*s < z leaves mcr set at ({z}, {s})")
                try:
                    t = system.wall_cross(z, s, J)
                except Exception as exc:
                    fails.append(f"J={sorted(J)}: wall_cross({z}, {s}): {exc}")
                    continue
                if system.right_mult(z, s) != system.left_mult(t, z):
                    fails.append(f"J={sorted(J)}: zs != tz at ({z}, {s})")
    return fails


# -- strolls suite -------------------------------------------------------------------


def _stroll_word_cap(system: CoxeterSystem, requested: int) -> int:
    # Subexpression sweeps are 2^n per word and (rank)^n words; keep desk scale.
    cap = min(requested, 5 if system.matrix.rank == 2 else 3)
    # A word's subexpressions end at elements no longer than the word, so on
    # a ball the budget cuts off the words stay within the budget.
    return cap if system.is_finite else min(cap, system.budget)


def check_1bx(system: CoxeterSystem, max_len: int = 5) -> list[str]:
    fails = []
    alg = HeckeAlgebra(system)
    cap = _stroll_word_cap(system, max_len)
    for J in finitary_subsets(system):
        mod = SphericalModule(alg, J)
        for word in _words_up_to(system, cap):
            want = mod.zero()
            for bits in strolls.subexpressions(len(word)):
                dec = strolls.decorate(system, J, word, bits)
                want = want + mod.m(dec.endpoint, LaurentPoly.monomial(dec.sdef))
            if mod.expand_expression(word) != want:
                fails.append(f"J={sorted(J)}: defect expansion fails on {word}")
    return fails


def check_rank_matching(system: CoxeterSystem, max_len: int = 4) -> list[str]:
    fails = []
    alg = HeckeAlgebra(system)
    cap = _stroll_word_cap(system, max_len)
    for J in finitary_subsets(system):
        mod = SphericalModule(alg, J)
        word_cap = cap
        if not system.is_finite:
            word_cap = min(cap, system.budget // 2 - mod.d_J)
        words = list(_words_up_to(system, word_cap))
        for x_word in words:
            for y_word in words:
                lhs = strolls.rank_poly(system, J, x_word, y_word)
                rhs = mod.pairing(mod.expand_expression(x_word),
                                  mod.expand_expression(y_word))
                if lhs != rhs:
                    fails.append(
                        f"J={sorted(J)}: rank mismatch on ({x_word}, {y_word})"
                    )
    return fails


def check_partial_order(system: CoxeterSystem, max_len: int = 5) -> list[str]:
    fails = []
    cap = _stroll_word_cap(system, max_len)
    for J in finitary_subsets(system):
        for word in _words_up_to(system, cap):
            decs = [strolls.decorate(system, J, word, bits)
                    for bits in strolls.subexpressions(len(word))]
            rel = {}
            for f in decs:
                for e in decs:
                    rel[(f.bits, e.bits)] = strolls.preceq(system, J, f, e)
            for e in decs:
                if not rel[(e.bits, e.bits)]:
                    fails.append(f"J={sorted(J)}, {word}: not reflexive at {e.bits}")
            for f in decs:
                for e in decs:
                    if f.bits != e.bits and rel[(f.bits, e.bits)] and rel[(e.bits, f.bits)]:
                        fails.append(
                            f"J={sorted(J)}, {word}: antisymmetry fails "
                            f"({f.bits}, {e.bits})"
                        )
            for a in decs:
                for b in decs:
                    if not rel[(a.bits, b.bits)]:
                        continue
                    for c in decs:
                        if rel[(b.bits, c.bits)] and not rel[(a.bits, c.bits)]:
                            fails.append(
                                f"J={sorted(J)}, {word}: transitivity fails "
                                f"({a.bits}, {b.bits}, {c.bits})"
                            )
    return fails


def check_empty_J_classical(system: CoxeterSystem, max_len: int = 4) -> list[str]:
    fails = []
    cap = _stroll_word_cap(system, max_len)
    for word in _words_up_to(system, cap):
        for bits in strolls.subexpressions(len(word)):
            dec = strolls.decorate(system, frozenset(), word, bits)
            if any(lbl[0] == "X" for lbl in dec.labels):
                fails.append(f"X label with empty J on {word}/{bits}")
            counts = {lbl: dec.labels.count(lbl) for lbl in set(dec.labels)}
            if dec.sdef != counts.get("U0", 0) - counts.get("D0", 0):
                fails.append(f"classical defect mismatch on {word}/{bits}")
    return fails


def check_rank_symmetry(system: CoxeterSystem, max_len: int = 3) -> list[str]:
    fails = []
    cap = _stroll_word_cap(system, max_len)
    for J in finitary_subsets(system):
        words = list(_words_up_to(system, cap))
        for x_word in words:
            for y_word in words:
                if strolls.rank_poly(system, J, x_word, y_word) != strolls.rank_poly(
                    system, J, y_word, x_word
                ):
                    fails.append(f"J={sorted(J)}: asymmetry on ({x_word}, {y_word})")
    return fails


def check_localized_count(system: CoxeterSystem, max_len: int = 5) -> list[str]:
    fails = []
    cap = _stroll_word_cap(system, max_len)
    for word in _words_up_to(system, cap):
        counts = strolls.localized_summands(system, word)
        if sum(counts.values()) != 2 ** len(word):
            fails.append(f"summand multiset of {word} has wrong cardinality")
    return fails


# -- lightleaf suite -----------------------------------------------------------------


def _replay_ok(system: CoxeterSystem, J: frozenset[int], recipe) -> list[str]:
    fails = []
    for st in recipe.steps:
        for move in (st.pre_rex, st.post_rex):
            try:
                move.replay(system)
            except Exception as exc:
                fails.append(f"step {st.k} rex move replay: {exc}")
        elem, reduced = system.normalize(st.intermediate)
        if not reduced:
            fails.append(f"step {st.k}: intermediate {st.intermediate} not reduced")
        if isinstance(st, NSStep):
            u, z = system.coset_decompose(elem, J)
            if st.intermediate != st.u_part + st.z_part or (
                system.element(st.u_part) != u or system.element(st.z_part) != z
            ):
                fails.append(f"step {st.k}: block split does not match {elem}")
        elif not system.is_mcr(elem, J):
            fails.append(f"step {st.k}: intermediate {st.intermediate} is not an mcr")
    return fails


def check_ll_degree_law(system: CoxeterSystem, max_len: int = 5) -> list[str]:
    fails = []
    cap = _stroll_word_cap(system, max_len)
    for J in finitary_subsets(system):
        for word in _words_up_to(system, cap):
            for bits in strolls.subexpressions(len(word)):
                dec = strolls.decorate(system, J, word, bits)
                recipe = build_sll(system, J, word, bits)
                if recipe.degree != dec.sdef:
                    fails.append(
                        f"J={sorted(J)}: degree {recipe.degree} != sdef "
                        f"{dec.sdef} on {word}/{bits}"
                    )
                fails.extend(
                    f"J={sorted(J)}, {word}/{bits}: {msg}"
                    for msg in _replay_ok(system, J, recipe)
                )
    return fails


def check_double_leaves(system: CoxeterSystem, max_len: int = 4) -> list[str]:
    fails = []
    cap = _stroll_word_cap(system, min(max_len, 4))
    for J in finitary_subsets(system):
        words = list(_words_up_to(system, cap))
        for x_word in words:
            for y_word in words:
                for pair in strolls.double_leaf_index(system, J, x_word, y_word):
                    try:
                        dl = build_sdl(system, J, x_word, pair.e.bits,
                                       y_word, pair.f.bits)
                    except Exception as exc:
                        fails.append(
                            f"J={sorted(J)}: build_sdl fails on "
                            f"({x_word}/{pair.e.bits}, {y_word}/{pair.f.bits}): {exc}"
                        )
                        continue
                    if dl.degree != pair.degree:
                        fails.append(
                            f"J={sorted(J)}: double-leaf degree {dl.degree} != "
                            f"index tag {pair.degree}"
                        )
    return fails


def check_nsll(system: CoxeterSystem, max_len: int = 4) -> list[str]:
    fails = []
    cap = _stroll_word_cap(system, max_len)
    for J in finitary_subsets(system):
        for word in _words_up_to(system, cap):
            for bits in strolls.subexpressions(len(word)):
                try:
                    recipe = build_nsll(system, J, word, bits)
                except BudgetExceeded:
                    continue
                fails.extend(
                    f"J={sorted(J)}, {word}/{bits}: {msg}"
                    for msg in _replay_ok(system, J, recipe)
                )
                classical = [st.classical_label for st in recipe.steps]
                n_u0 = classical.count("U0")
                n_d0 = classical.count("D0")
                if not J:
                    spherical = [st.label for st in recipe.steps]
                    if spherical != classical:
                        fails.append(f"{word}/{bits}: labels differ with empty J")
                    if recipe.degree != n_u0 - n_d0:
                        fails.append(f"{word}/{bits}: classical degree mismatch")
    return fails


def check_sweeps(system: CoxeterSystem) -> list[str]:
    fails = []
    cap = system.budget - 1 if not system.is_finite else None
    for z in _enumerable(system, cap):
        for s in range(system.matrix.rank):
            try:
                sz = system.left_mult(s, z)
            except BudgetExceeded:
                continue
            if len(sz) <= len(z):
                continue
            for t in range(system.matrix.rank):
                try:
                    if system.right_mult(z, t) != sz:
                        continue
                except BudgetExceeded:
                    continue
                try:
                    z_tilde, sweep = find_sweep(system, s, z, t)
                except Exception as exc:
                    fails.append(f"find_sweep({s}, {z}, {t}): {exc}")
                    continue
                if system.element(z_tilde) != z:
                    fails.append(f"find_sweep({s}, {z}, {t}): wrong reduced word")
                try:
                    trail = sweep.replay(system)
                except Exception as exc:
                    fails.append(f"find_sweep({s}, {z}, {t}): replay: {exc}")
                    continue
                if trail[0] != (s,) + z_tilde or trail[-1] != z_tilde + (t,):
                    fails.append(f"find_sweep({s}, {z}, {t}): wrong endpoints")
                positions = [p for p, *_ in sweep.applications]
                if any(b < a for a, b in zip(positions, positions[1:])):
                    fails.append(f"find_sweep({s}, {z}, {t}): not left-to-right")
    return fails


# -- suite registry --------------------------------------------------------------------


SUITES: dict[str, list[tuple[str, Callable[[CoxeterSystem], list[str]]]]] = {
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
    results = []
    for suite in names:
        for name, fn in SUITES[suite]:
            results.append(CheckResult(suite, name, fn(system)))
    return results
