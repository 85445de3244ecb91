import itertools
import random
from collections import Counter

import pytest

from heckesphere import catalog, cli, lightleaf, verify
from heckesphere.coxeter import CoxeterSystem
from heckesphere.errors import DifferentElements, PreconditionViolated
from heckesphere.hecke import HeckeElt
from heckesphere.laurent import ONE, LaurentPoly

from conftest import AFFINE_A2


def test_an_unknown_suite_is_rejected_before_any_check_runs(monkeypatch, a2):
    ran = []
    monkeypatch.setattr(verify.Run, "check", lambda self, *args: ran.append(args))
    with pytest.raises(PreconditionViolated,
                       match="unknown suite 'nope'; known: hecke, spherical, strolls, lightleaf"):
        verify.run_suites(a2, ["strolls", "nope"])
    assert ran == []


def test_a_case_past_the_budget_is_skipped(inf_dihedral):
    def check(run):
        for n in range(12):
            with run.case():
                run.system.elements(n)  # past the budget of 8: BudgetExceeded
                if n == 0:
                    yield "failure in a completed case"

    res = verify.Run(inf_dihedral).check("suite", "name", check)
    assert res.failures == ["failure in a completed case"]
    assert (res.cases, res.skipped_budget) == (9, 3)
    assert res.status == "FAIL"


def test_only_budget_errors_are_skipped(inf_dihedral):
    def check(run):
        with run.case():
            raise KeyError("a bug")
        yield "never"

    with pytest.raises(KeyError):
        verify.Run(inf_dihedral).check("suite", "name", check)


def test_a_package_error_is_a_counterexample_in_its_place(inf_dihedral):
    def check(run):
        yield "before"
        with run.case():
            raise PreconditionViolated("a bug")
        yield "after"

    res = verify.Run(inf_dihedral).check("suite", "name", check)
    assert res.failures == ["before", "PreconditionViolated: a bug", "after"]
    assert (res.cases, res.skipped_budget, res.status) == (1, 0, "FAIL")


def test_a_failing_case_is_named_by_its_coordinates(inf_dihedral):
    def check(run):
        with run.case(frozenset({1, 0}), (1, 0), (1, 1)):
            raise PreconditionViolated("a bug")
        with run.case((0,), 1):
            raise PreconditionViolated("another")
        with run.case(frozenset({0}), (1,)):
            yield "a yielded failure"
        yield "outside any case"

    res = verify.Run(inf_dihedral).check("suite", "name", check)
    assert res.failures == ["J=[0, 1], (1, 0)/(1, 1): PreconditionViolated: a bug",
                            "(0,)/1: PreconditionViolated: another",
                            "J=[0], (1,): a yielded failure",
                            "outside any case"]


@pytest.mark.parametrize("target,attr,suite,check,first", [
    # A check that never yields: its only counterexamples are raised.
    (verify.HeckeAlgebra, "b_wJ_and_pi", "hecke", "bwj-pi-identity", "J=[]"),
    # The decorations a check joins into the index set it enumerates its cases from.
    (verify.strolls, "decorations", "lightleaf", "double-leaves", "J=[], ()/()"),
], ids=["bwj-pi-identity", "double-leaves"])
def test_a_raised_package_error_is_named_by_its_case(monkeypatch, a2, target, attr,
                                                     suite, check, first):
    def broken(*args):
        raise DifferentElements("broken")

    monkeypatch.setattr(target, attr, broken)
    res = verify.Run(a2).check(suite, check, dict(verify.SUITES[suite])[check])
    assert res.status == "FAIL"
    assert res.failures[0] == f"{first}: DifferentElements: broken"


@pytest.mark.parametrize("attr,message", [
    ("multiply", "b_(w_J)^2 != pi(J) b_(w_J)"),
    ("kl_basis", "closed form for b_(w_J) disagrees with the KL recursion"),
])
def test_bwj_pi_identity_names_a_bad_square_or_kl_basis(monkeypatch, a2, attr, message):
    # M(J) takes b_{w_J} from the algebra's memo unchecked; the check squares it
    # and runs the KL recursion on w_J, and names each failure by its J.
    run = verify.Run(a2)
    for x in a2.elements():
        run.algebra.kl_basis(x)  # memoized, so the doubled kl_basis below doubles once
    real = getattr(verify.HeckeAlgebra, attr)
    monkeypatch.setattr(verify.HeckeAlgebra, attr,
                        lambda self, *args: real(self, *args).scale(2))
    for J in run.subsets:
        verify.SphericalModule(run.algebra, J)
    res = run.check("hecke", "bwj-pi-identity", verify.check_bwj_pi)
    assert res.status == "FAIL" and res.cases == len(run.subsets) == 4
    assert res.failures == [f"J={sorted(J)}: {message}" for J in run.subsets]


def test_an_error_in_one_check_leaves_the_others_reported(monkeypatch, capsys):
    # With wall_cross corrupted, decomp-wallcross reports it, and the light-leaf
    # checks, whose constructions rely on it, raise DifferentElements.
    monkeypatch.setattr(CoxeterSystem, "wall_cross", lambda self, z, s, J: min(J))
    code = cli.main(["verify", "--system", "a3", "--budget", "2", "--suite", "all"])
    out = capsys.readouterr().out
    statuses = [line for line in out.splitlines() if not line.startswith("  ")]
    assert code == 1
    assert [line.split()[1] for line in statuses] == [
        f"{suite}/{name}" for suite, checks in verify.SUITES.items() for name, _ in checks]
    assert "FAIL spherical/decomp-wallcross" in statuses
    assert "FAIL lightleaf/degree-law" in statuses
    # Each counterexample names its case: J, then the word and its bits.
    lines = out.splitlines()
    start = lines.index("FAIL lightleaf/degree-law") + 1
    shown = list(itertools.takewhile(lambda line: line.startswith("  counterexample: "),
                                     lines[start:]))
    assert len(shown) == 5 and len(set(shown)) == 5
    for line in shown:
        assert line.startswith("  counterexample: J=") and ": DifferentElements: " in line


def test_an_error_outside_every_case_fails_only_its_check(monkeypatch, capsys):
    # Every spherical check but decomp-wallcross builds M(J) for each J
    # before its cases, outside any of them.
    build = verify.SphericalModule.__init__

    def broken(self, algebra, J):
        if J:
            raise DifferentElements("no module")
        build(self, algebra, J)

    monkeypatch.setattr(verify.SphericalModule, "__init__", broken)
    code = cli.main(["verify", "--system", "b2", "--budget", "3",
                     "--suite", "hecke", "--suite", "spherical"])
    lines = capsys.readouterr().out.splitlines()
    failing = [name for name, _ in verify.SUITES["spherical"] if name != "decomp-wallcross"]
    assert code == 1
    assert lines == (
        [f"PASS hecke/{name}" for name, _ in verify.SUITES["hecke"]]
        + [line for name in failing for line in (
            f"FAIL spherical/{name}", "  counterexample: DifferentElements: no module")]
        + ["PASS spherical/decomp-wallcross"])


def test_a_dot_recorded_as_a_merge_fails_the_degree_checks(monkeypatch, capsys):
    # A leaf's degree comes from its operations, not from the labels that
    # decorate (and so sdef) reads: a U0 or X0 step that merges instead of
    # killing the strand has degree -1, not +1.
    strand_op = lightleaf._strand_op

    def merging(system, label, cur, s):
        pre, elementary, mid = strand_op(system, label, cur, s)
        return pre, "trivalent-merge" if label in ("U0", "X0") else elementary, mid

    monkeypatch.setattr(lightleaf, "_strand_op", merging)
    assert cli.main(["sll", "--system", "a2", "--J", "s", "-x", "ts", "--bits", "00"]) == 0
    assert "degree=-2" in capsys.readouterr().out
    results = {r.name: r for r in verify.run_suites(CoxeterSystem(catalog.INF_DIHEDRAL, 2), ["lightleaf"])}
    assert results["degree-law"].status == results["double-leaves"].status == "FAIL"
    assert results["degree-law"].failures[0].endswith("degree -1 != sdef 1")


@pytest.mark.parametrize("cases,failures,status", [
    (0, [], "EMPTY"), (3, [], "PASS"), (3, ["x"], "FAIL"), (0, ["x"], "FAIL"),
])
def test_status(cases, failures, status):
    assert verify.CheckResult("s", "n", failures, cases, 0).status == status


def test_counts_restart_with_each_check(inf_dihedral):
    run = verify.Run(inf_dihedral)
    first = run.check("hecke", "kl-wellformed", verify.check_kl_wellformed)
    again = run.check("hecke", "kl-wellformed", verify.check_kl_wellformed)
    assert first == again and first.cases == len(inf_dihedral.elements(7))


def test_one_run_shares_one_algebra_and_one_module_per_J(monkeypatch):
    built = {"algebras": 0, "subsets": 0, "modules": []}

    class CountedAlgebra(verify.HeckeAlgebra):
        def __init__(self, system):
            built["algebras"] += 1
            super().__init__(system)

    class CountedModule(verify.SphericalModule):
        def __init__(self, algebra, J):
            built["modules"].append(frozenset(J))
            super().__init__(algebra, J)

    def counted_subsets(system, original=verify.finitary_subsets):
        built["subsets"] += 1
        return original(system)

    monkeypatch.setattr(verify, "HeckeAlgebra", CountedAlgebra)
    monkeypatch.setattr(verify, "SphericalModule", CountedModule)
    monkeypatch.setattr(verify, "finitary_subsets", counted_subsets)
    # B2 cut off at length 3: {s, t} is not certified finitary.
    results = verify.run_suites(CoxeterSystem(catalog.B2, 3), list(verify.SUITES))
    assert [(r.status, r.skipped_budget) for r in results] == [("PASS", 0)] * 22
    assert built["algebras"] == 1 and built["subsets"] == 1
    assert sorted(map(sorted, built["modules"])) == [[], [0], [1]]


@pytest.mark.parametrize("matrix,budget", [
    (catalog.I2_7, 3), (catalog.A3, 2), (catalog.INF_DIHEDRAL, 2),
], ids=["i2_7@3", "a3@2", "inf@2"])
def test_no_case_leaves_a_cut_ball(matrix, budget):
    # Each check caps its elements and words so that its cases stay inside the
    # ball; a case skipped for the budget means a cap lets one out, and the
    # check passes without testing it.
    for res in verify.run_suites(CoxeterSystem(matrix, budget), list(verify.SUITES)):
        assert res.cases > 0 and res.skipped_budget == 0, res


# (status, cases, skipped_budget) of the three checks that read the form a
# row at a time, on balls the budget cuts: each x's row comes from one trace
# walk, and the counts are those of one walk per pair.
ROW_CHECKS = ("standard-orthonormal", "pairing-paths-agree", "spherical-orthonormal")


@pytest.mark.parametrize("matrix,budget,counts", [
    (catalog.A3, 4, [225, 225, 492]),
    (catalog.B3, 7, [576, 256, 2996]),
    (catalog.I2_7, 6, [81, 49, 193]),
    (catalog.INF_DIHEDRAL, 3, [25, 25, 43]),
    (AFFINE_A2, 4, [361, 361, 805]),
], ids=["a3@4", "b3@7", "i2_7@6", "inf@3", "affine_a2@4"])
def test_the_row_checks_cover_every_pair(matrix, budget, counts):
    results = verify.run_suites(CoxeterSystem(matrix, budget), ["hecke", "spherical"])
    got = {r.name: (r.status, r.cases, r.skipped_budget) for r in results}
    assert [got[name] for name in ROW_CHECKS] == [("PASS", n, 0) for n in counts]


def test_a_row_walk_that_raises_fails_only_its_check(monkeypatch, a2):
    # The row is read before its cases, outside every one of them: its error
    # is one counterexample named by the row's coordinates, it ends its
    # check, and the checks that read no row pass.
    def broken(self, a, bs):
        raise DifferentElements("no row")

    monkeypatch.setattr(verify.HeckeAlgebra, "pairing_trace_row", broken)
    results = verify.run_suites(a2, ["hecke", "spherical", "strolls"])
    first_row = {"standard-orthonormal": "(): ", "pairing-paths-agree": "(): ",
                 "spherical-orthonormal": "J=[], (): ", "rank-matching": "J=[], (): "}
    for res in results:
        if res.name in first_row:
            assert (res.status, res.failures) == (
                "FAIL", [first_row[res.name] + "DifferentElements: no row"])
        else:
            assert res.status == "PASS", res


@pytest.mark.parametrize("check", [verify.check_spherical_orthonormal, verify.check_rank_matching],
                         ids=["spherical-orthonormal", "rank-matching"])
def test_a_wrong_pi_fails_the_form_checks_under_its_J_alone(monkeypatch, a2, check):
    # Only verify compares the coordinatewise pairing with the embedded trace
    # form, through v^{d_J} pi(J): a module whose pi(J) is off by one fails
    # both checks that read the form, each counterexample under its J.
    for J in verify.finitary_subsets(a2):
        run = verify.Run(a2)
        mod = run.module(J)
        monkeypatch.setattr(mod, "pi", mod.pi + ONE)
        res = run.check("suite", "name", check)
        assert res.status == "FAIL" and res.failures, J
        assert all(msg.startswith(f"J={sorted(J)}, ") for msg in res.failures), J


def reference_random_elts(rng, pool, count):
    """The draws as first written, with the two terms each element sums:
    randint for each exponent and coefficient, monomial, and the merging
    constructor."""
    out = []
    for _ in range(count):
        terms = []
        for _ in range(2):
            x = rng.choice(pool)
            c = LaurentPoly.monomial(rng.randint(-2, 2), rng.randint(-3, 3))
            terms.append((x, c))
        out.append((terms, HeckeElt(terms)))
    return out


@pytest.mark.parametrize("matrix,budget", [(catalog.A2, 10), (catalog.I2_7, 14),
                                           (catalog.A3, 12)], ids=["a2", "i2_7", "a3"])
def test_random_elements_are_the_reference_draws(matrix, budget):
    # The pools of associativity, anti-involution and module-action; the
    # checks see the same elements, term order included, and the stream
    # stays in step after them.
    run = verify.Run(CoxeterSystem(matrix, budget))
    pools = [run.elements(max(2, (budget - 1) // 3), factors=3),
             run.elements(max(2, (budget - 1) // 2), factors=2),
             run.mcrs(frozenset({0}), max(2, (budget - 1) // 3), factors=3)]
    seen = Counter()
    for pool, seed in itertools.product(pools, (0, 1, 2)):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = verify._random_elts(rng, pool, 1000)
        for elt, (terms, want) in zip(got, reference_random_elts(ref_rng, pool, 1000)):
            assert list(elt.support.items()) == list(want.support.items())
            (x, c), (y, d) = terms
            seen["one key"] += x == y
            seen["cancelled"] += x == y and bool(c) and not c + d
            seen["a zero term"] += not c or not d
        assert rng.getstate() == ref_rng.getstate()
    assert min(seen["one key"], seen["cancelled"], seen["a zero term"]) > 0, seen
