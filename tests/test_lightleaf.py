import hashlib
import itertools
import json

import pytest

from heckesphere import catalog, lightleaf, strolls, verify
from heckesphere.coxeter import IDENTITY, CoxeterSystem, RexMove
from heckesphere.errors import (
    EndpointMismatch,
    PreconditionViolated,
    TargetMismatch,
    WordMismatch,
)
from heckesphere.lightleaf import (
    NSStep,
    build_nsll,
    build_sdl,
    build_sll,
    find_sweep,
    parse_recipe_json,
    recipe_to_json,
    render,
)

S, T, U = 0, 1, 2
J_S = frozenset({S})


class TestBuildSLL:
    def test_worked_example(self, a2):
        recipe = build_sll(a2, J_S, (T, S, T), (1, 1, 1))
        assert [st.label for st in recipe.steps] == ["U1", "U1", "X1"]
        last = recipe.steps[-1]
        assert last.pre_rex.applications == ((0, T, S, 3),)
        assert last.elementary == "wall-plug:s"
        assert last.intermediate == (T, S)
        assert recipe.degree == -1
        assert recipe.target == (T, S)

    def test_single_wall_plug(self, a2):
        recipe = build_sll(a2, J_S, (S,), (1,))
        (step,) = recipe.steps
        assert step.label == "X1" and step.elementary == "wall-plug:s"
        assert recipe.target == IDENTITY and recipe.degree == -1

    def test_all_zero_bits(self, a2):
        recipe = build_sll(a2, J_S, (S, T, T), (0, 0, 0))
        assert [st.label for st in recipe.steps] == ["X0", "U0", "U0"]
        assert all(st.elementary == "dot-kill" for st in recipe.steps)
        assert recipe.degree == 3

    def test_degree_law_and_replay(self, a2, b2):
        for sys in (a2, b2):
            for n in range(6):
                for word in itertools.product((S, T), repeat=n):
                    for bits in strolls.subexpressions(n):
                        dec = strolls.decorate(sys, J_S, word, bits)
                        recipe = build_sll(sys, J_S, word, bits)
                        assert recipe.degree == dec.sdef
                        for st in recipe.steps:
                            st.pre_rex.replay(sys)
                            st.post_rex.replay(sys)
                            elem, reduced = sys.normalize(st.intermediate)
                            assert reduced and sys.is_mcr(elem, J_S)

    def test_target_rex_pinning(self, a3):
        # t s u = t u s (s and u commute); pin the non-minimal reduced word.
        word, bits = (T, S, U), (1, 1, 1)
        recipe = build_sll(a3, J_S, word, bits, target_rex=(T, U, S))
        assert recipe.target == (T, U, S)
        assert recipe.steps[-1].post_rex.applications == ((1, S, U, 2),)

    def test_target_mismatch(self, a2):
        with pytest.raises(TargetMismatch):
            build_sll(a2, J_S, (T,), (1,), target_rex=(T, S))


class TestBuildSDL:
    def test_through_shared_rex(self, a2):
        dl = build_sdl(a2, J_S, (T, S, T), (1, 1, 1), (T, S), (1, 1))
        assert dl.through == (T, S)
        assert dl.degree == -1
        assert dl.upper.flipped and not dl.lower.flipped
        assert dl.lower.target == dl.upper.target == (T, S)

    def test_trivial(self, a2):
        dl = build_sdl(a2, J_S, (T,), (1,), (T,), (1,))
        assert dl.degree == 0

    def test_empty(self, a2):
        dl = build_sdl(a2, J_S, (), (), (), ())
        assert dl.degree == 0 and dl.through == IDENTITY

    def test_endpoint_mismatch(self, a2):
        with pytest.raises(EndpointMismatch):
            build_sdl(a2, J_S, (T,), (1,), (T,), (0,))

    def test_degrees_match_index(self, a2):
        words = [w for n in range(4) for w in itertools.product((S, T), repeat=n)]
        for x in words:
            for y in words:
                for pair in strolls.double_leaf_index(a2, J_S, x, y):
                    dl = build_sdl(a2, J_S, x, pair.e.bits, y, pair.f.bits)
                    assert dl.degree == pair.degree


class TestChain:
    def test_blocks_apply_at_their_offsets(self, a3):
        braid = a3.rex_path((T, S, T), (S, T, S))
        commute = a3.rex_path((U, S), (S, U))
        move = lightleaf._chain((U, T, S, T), (1, braid), (0, commute))
        assert move.target == (S, U, T, S)
        assert move.applications == ((1, T, S, 3), (0, U, S, 2))
        assert move.replay(a3)[-1] == move.target

    def test_no_blocks_is_the_identity(self, a2):
        assert lightleaf._chain((S, T)) == RexMove((S, T), (S, T), ())

    def test_rejects_a_block_off_the_word(self, a3):
        braid = a3.rex_path((T, S, T), (S, T, S))
        with pytest.raises(WordMismatch):
            lightleaf._chain((U, T, S, T), (0, braid))


class TestFindSweep:
    def test_length_zero(self, a2):
        z_tilde, sweep = find_sweep(a2, S, IDENTITY, S)
        assert z_tilde == IDENTITY and sweep.applications == ()

    def test_a2(self, a2):
        z_tilde, sweep = find_sweep(a2, S, (T, S), T)
        assert a2.element(z_tilde) == (T, S)
        assert len(sweep.applications) == 1
        assert sweep.replay(a2)[-1] == z_tilde + (T,)

    def test_b2(self, b2):
        z_tilde, sweep = find_sweep(b2, S, (T, S, T), S)
        assert b2.element(z_tilde) == (T, S, T)
        trail = sweep.replay(b2)
        assert trail[0] == (S,) + z_tilde and trail[-1] == z_tilde + (S,)

    def test_three_colour_example(self, a3):
        # With m_st = 3, m_su = 2, m_tu = 3 there is a sweep
        # (t,s,t,u,t,s) -> (s,t,s,u,t,s) -> (s,t,u,s,t,s) -> (s,t,u,t,s,t).
        move = RexMove(
            (T, S, T, U, T, S), (S, T, U, T, S, T),
            ((0, T, S, 3), (2, S, U, 2), (3, S, T, 3)),
        )
        trail = move.replay(a3)
        assert trail[1] == (S, T, S, U, T, S)
        assert trail[2] == (S, T, U, S, T, S)
        positions = [p for p, *_ in move.applications]
        assert positions == sorted(positions)

    def test_precondition(self, a2):
        with pytest.raises(PreconditionViolated):
            find_sweep(a2, S, (S,), S)  # s*s < s

    def test_exhaustive_small(self, a2, b2, a3):
        for sys in (a2, b2, a3):
            for z in sys.elements():
                for s in range(sys.matrix.rank):
                    sz = sys.left_mult(s, z)
                    if len(sz) <= len(z):
                        continue
                    for t in range(sys.matrix.rank):
                        if sys.right_mult(z, t) != sz:
                            continue
                        z_tilde, sweep = find_sweep(sys, s, z, t)
                        assert sys.element(z_tilde) == z
                        trail = sweep.replay(sys)
                        assert trail[0] == (s,) + z_tilde
                        assert trail[-1] == z_tilde + (t,)
                        positions = [p for p, *_ in sweep.applications]
                        assert positions == sorted(positions)


class TestBuildNSLL:
    def test_worked_example(self, a2):
        recipe = build_nsll(a2, J_S, (T, S, T), (1, 1, 1))
        steps = recipe.steps
        assert [st.classical_label for st in steps] == ["U1", "U1", "U1"]
        assert [st.label for st in steps] == ["U1", "U1", "X1"]
        assert steps[-1].u_part == (S,) and steps[-1].z_part == (T, S)
        assert recipe.target == (S, T, S)
        assert recipe.degree == 0

    def test_single_letter(self, a2):
        recipe = build_nsll(a2, J_S, (S,), (1,))
        (step,) = recipe.steps
        assert step.classical_label == "U1" and step.label == "X1"
        assert step.u_part == (S,) and step.z_part == IDENTITY
        assert recipe.target == (S,)

    def test_empty_J_matches_classical(self, b2):
        for n in range(5):
            for word in itertools.product((S, T), repeat=n):
                for bits in strolls.subexpressions(n):
                    recipe = build_nsll(b2, frozenset(), word, bits)
                    labels = [st.label for st in recipe.steps]
                    classical = [st.classical_label for st in recipe.steps]
                    assert labels == classical
                    assert recipe.degree == classical.count("U0") - classical.count("D0")

    def test_blocks_and_replay(self, b2):
        for n in range(5):
            for word in itertools.product((S, T), repeat=n):
                for bits in strolls.subexpressions(n):
                    recipe = build_nsll(b2, J_S, word, bits)
                    for st in recipe.steps:
                        st.pre_rex.replay(b2)
                        st.post_rex.replay(b2)
                        elem, reduced = b2.normalize(st.intermediate)
                        assert reduced
                        u, z = b2.coset_decompose(elem, J_S)
                        assert b2.element(st.u_part) == u
                        assert b2.element(st.z_part) == z
                        assert st.intermediate == st.u_part + st.z_part

    def test_d0_x0_sweep_case_appears(self, b2):
        # (s,t,s,t,s)/(1,1,1,1,0): the stroll reaches u = s, z = tst and the
        # final s is a classical D0 with spherical label X0.
        recipe = build_nsll(b2, J_S, (S, T, S, T, S), (1, 1, 1, 1, 0))
        last = recipe.steps[-1]
        assert last.classical_label == "D0" and last.label == "X0"
        assert last.elementary == "trivalent-merge"


class TestRender:
    def test_worked_example_text(self, a2):
        recipe = build_sll(a2, J_S, (T, S, T), (1, 1, 1))
        text = render(a2, recipe)
        assert "wall-plug" in text and "degree=-1" in text

    def test_empty(self, a2):
        recipe = build_sll(a2, J_S, (), ())
        assert "degree=0" in render(a2, recipe)

    def test_json_round_trip(self, a2):
        recipe = build_sll(a2, J_S, (T, S, T), (1, 1, 1))
        data = json.loads(json.dumps(recipe_to_json(a2, recipe)))
        assert data["word"] == "tst" and data["bits"] == [1, 1, 1]
        assert data["degree"] == -1
        assert data["conventions"] == {"rex": "shortlex-bfs"}
        assert data["steps"][0] == {
            "k": 1, "label": "U1", "pre_rex": [], "elementary": "none",
            "post_rex": [], "intermediate": "t",
        }
        assert parse_recipe_json(a2, J_S, data) == recipe

    @pytest.mark.parametrize("mutate", [
        lambda data: {},
        lambda data: [],
        lambda data: {**data, "bits": ["x"]},
        lambda data: {**data, "steps": [{**st, "intermediate": None} for st in data["steps"]]},
        lambda data: {**data, "steps": [{k: v for k, v in st.items() if k != "intermediate"}
                                        for st in data["steps"]]},
    ], ids=["empty-object", "list", "bad-bit", "null-intermediate", "no-intermediate"])
    def test_malformed_json_is_rejected(self, a2, mutate):
        data = recipe_to_json(a2, build_sll(a2, J_S, (T, S, T), (1, 1, 1)))
        with pytest.raises(PreconditionViolated, match="expected"):
            parse_recipe_json(a2, J_S, mutate(data))

    def test_flipped_round_trip(self, a2):
        upper = build_sdl(a2, J_S, (T, S), (1, 1), (T, S, T), (1, 1, 1)).upper
        assert parse_recipe_json(a2, J_S, recipe_to_json(a2, upper)) == upper


# -- the leaves byte for byte ---------------------------------------------------------

# sha256 of the renders below, recorded from the construction they pin.
RECIPES_SHA256 = "0c26e2cc30e6e895cd0e6c276d3eb425a248c69a2901c67d808efe58c25553c7"


def _pinned_systems(a2, b2, a3):
    """(system, longest light-leaf word, longest double-leaf word) of the pinned domain."""
    return ((a2, 4, 2), (b2, 4, 2), (a3, 3, 1))


def _words(system, max_len):
    letters = range(system.matrix.rank)
    return [w for n in range(max_len + 1) for w in itertools.product(letters, repeat=n)]


def _light_leaf_domain(a2, b2, a3):
    for system, max_len, _ in _pinned_systems(a2, b2, a3):
        for J in verify.finitary_subsets(system):
            for word in _words(system, max_len):
                for bits in strolls.subexpressions(len(word)):
                    yield system, J, word, bits


def test_recipes_match_recorded_digest(a2, b2, a3):
    digest = hashlib.sha256()
    kinds = set()
    for system, J, word, bits in _light_leaf_domain(a2, b2, a3):
        nsll = build_nsll(system, J, word, bits)
        kinds.update((st.label, st.classical_label) for st in nsll.steps)
        for recipe in (build_sll(system, J, word, bits), nsll):
            digest.update(json.dumps(recipe_to_json(system, recipe), indent=2).encode() + b"\n")
    for system, _, max_len in _pinned_systems(a2, b2, a3):
        words = _words(system, max_len)
        for J in verify.finitary_subsets(system):
            for x, y in itertools.product(words, repeat=2):
                for pair in strolls.double_leaf_index(system, J, x, y):
                    dl = build_sdl(system, J, x, pair.e.bits, y, pair.f.bits)
                    digest.update(render(system, dl).encode() + b"\n")
    # Every (spherical, classical) step kind of the non-spherical leaf is pinned.
    assert kinds == {("U1", "U1"), ("U0", "U0"), ("D0", "D0"), ("D1", "D1"),
                     ("X0", "U0"), ("X1", "U1"), ("X1", "D1"), ("X0", "D0")}
    assert digest.hexdigest() == RECIPES_SHA256


def test_nsll_z_block_is_the_spherical_stroll(a2, b2, a3):
    for system, J, word, bits in _light_leaf_domain(a2, b2, a3):
        stroll = strolls.decorate(system, J, word, bits).stroll
        recipe = build_nsll(system, J, word, bits)
        assert [st.z_part for st in recipe.steps] == list(stroll[1:])
