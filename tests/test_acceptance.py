"""Acceptance suite: one test per headline property, one printed verdict line
each.  Target systems: A2, B2, A3, B3, H3, I2(7), and the infinite dihedral
group with length budget 8."""

import pytest

from heckesphere import strolls, verify
from heckesphere.coxeter import IDENTITY
from heckesphere.lightleaf import build_sll


ALL_SYSTEMS = ["a2", "b2", "a3", "b3", "h3", "i2_7", "inf_dihedral"]


@pytest.fixture(scope="module")
def systems(a2, b2, a3, b3, h3, i2_7, inf_dihedral):
    return {
        "a2": a2, "b2": b2, "a3": a3, "b3": b3, "h3": h3,
        "i2_7": i2_7, "inf_dihedral": inf_dihedral,
    }


def _verdict(num, title, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[{status}] criterion {num}: {title}")
    assert not failures, failures[:10]


def _failures(systems, names, suite, check):
    """The failures of one registered check on each named system, run through
    verify.Run; every run must cover a case, so no criterion passes vacuously,
    and skip none for the budget, so none passes by skipping cases its caps
    should have kept inside the ball."""
    fn = dict(verify.SUITES[suite])[check]
    failures = []
    for name in names:
        res = verify.Run(systems[name]).check(suite, check, fn)
        assert res.cases > 0, f"{suite}/{check} covered no case on {name}"
        assert res.skipped_budget == 0, f"{suite}/{check} left the ball on {name}"
        failures += [f"{name}: {m}" for m in res.failures]
    return failures


def test_criterion_1_kl_wellformed(systems):
    _verdict(1, "KL basis elements of the algebra and of every M(J) are "
                "bar-invariant with coefficients in vZ[v]",
             _failures(systems, ALL_SYSTEMS, "hecke", "kl-wellformed")
             + _failures(systems, ALL_SYSTEMS, "spherical", "spherical-kl"))


def test_criterion_2_bwj_pi(systems):
    _verdict(2, "closed-form longest-element basis equals the KL recursion and "
                "squares to its Hilbert polynomial",
             _failures(systems, ALL_SYSTEMS, "hecke", "bwj-pi-identity"))


def test_criterion_3_orthonormality(systems):
    failures = []
    for name in ALL_SYSTEMS:
        failures += _failures(systems, [name], "hecke", "standard-orthonormal")
        failures += _failures(systems, [name], "spherical", "spherical-orthonormal")
    _verdict(3, "standard bases are orthonormal, with the embedded-form path "
                "agreeing with the coordinatewise one", failures)


def test_criterion_4_decomp_wallcross(systems):
    _verdict(4, "coset decomposition has additive lengths and wall-crossing "
                "yields a generator in J",
             _failures(systems, ALL_SYSTEMS, "spherical", "decomp-wallcross"))


def test_criterion_5_defect_expansion(systems):
    _verdict(5, "module expansion of every expression matches the "
                "defect-graded sum over subexpressions (length <= 5, A2/B2)",
             _failures(systems, ["a2", "b2"], "strolls", "defect-expansion"))


def test_criterion_6_rank_matching(systems):
    failures = []
    for name in ["a2", "b2", "a3"]:
        failures += _failures(systems, [name], "strolls", "rank-matching")
    _verdict(6, "graded rank polynomial equals the module pairing of "
                "expression expansions", failures)


def test_criterion_7_worked_examples(systems):
    a2 = systems["a2"]
    J = frozenset({0})
    failures = []

    dec = strolls.decorate(a2, J, (1, 0, 1), (1, 1, 1))
    if dec.stroll != (IDENTITY, (1,), (1, 0), (1, 0)):
        failures.append(f"stroll is {dec.stroll}")
    if dec.labels != ("U1", "U1", "X1"):
        failures.append(f"labels are {dec.labels}")
    recipe = build_sll(a2, J, (1, 0, 1), (1, 1, 1))
    last = recipe.steps[-1]
    if last.pre_rex.applications != ((0, 1, 0, 3),):
        failures.append("final step should start with one braid application")
    if last.elementary != "wall-plug:s":
        failures.append(f"final step op is {last.elementary}")

    e = strolls.decorate(a2, J, (0, 1, 0, 1), (0, 1, 1, 1))
    f = strolls.decorate(a2, J, (0, 1, 0, 1), (0, 1, 1, 0))
    g = strolls.decorate(a2, J, (0, 1, 0, 1), (1, 1, 1, 0))
    for dec_, want in [(e, ("X0", "U1", "U1", "X1")),
                       (f, ("X0", "U1", "U1", "X0")),
                       (g, ("X1", "U1", "U1", "X0"))]:
        if dec_.labels != want:
            failures.append(f"labels {dec_.bits} -> {dec_.labels}, wanted {want}")
    if not (strolls.preceq(a2, J, f, e) and not strolls.preceq(a2, J, e, f)):
        failures.append("expected f strictly below e")
    if not (strolls.preceq(a2, J, f, g) and not strolls.preceq(a2, J, g, f)):
        failures.append("expected f strictly below g")
    if strolls.preceq(a2, J, e, g) or strolls.preceq(a2, J, g, e):
        failures.append("expected e and g incomparable")
    _verdict(7, "worked stroll/recipe and partial-order examples reproduced "
                "bit-exactly", failures)


def test_criterion_8_degree_law(systems):
    _verdict(8, "light-leaf degree equals the spherical defect and every "
                "recipe replays through reduced mcr intermediates",
             _failures(systems, ["a2", "b2"], "lightleaf", "degree-law"))


def test_criterion_9_sweeps(systems):
    _verdict(9, "sweep construction succeeds on every valid triple with "
                "left-to-right monotone braid applications",
             _failures(systems, ["a2", "b2", "a3", "h3"], "lightleaf", "sweeps"))


def test_criterion_10_partial_order(systems):
    _verdict(10, "subexpression order is reflexive, antisymmetric and "
                 "transitive on full length-<=5 lattices",
             _failures(systems, ["a2", "b2"], "strolls", "partial-order"))


def test_criterion_11_declared_out_of_scope():
    print("\n[PASS] criterion 11: categorical equivalence, functor-level "
          "statements and localized matrix entries are declared not "
          "desk-reproducible; their computational content is covered by "
          "criteria 1-10")
