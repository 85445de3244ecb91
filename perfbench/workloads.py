"""The four benchmark workloads.

Each workload has three parts:

* ``setup()`` builds the shared groups, algebras and modules, as a fresh
  script would, and returns them in a ``State``;
* ``round(rng)`` draws one round of requests from the seeded generator.  A
  round holds every stratum of the mix (system, J, element length, kind)
  in fixed proportions, so runs of different seeds do the same kind of
  work; the order within a round is shuffled.  A request is a tuple of
  plain ints and strings, so the stream depends on the seed alone; indices
  into group-dependent pools are resolved by ``handle``;
* ``handle(state, request)`` runs the request through the package's public
  API, checks the answer, and returns ``(output, cases)``: the text whose
  sha256 is compared with the recorded digest, and how many identities it
  checked.  A wrong answer raises ``CheckFailed``.

``anchors(state)`` checks the built groups against facts from outside the
package: group orders and the Poincare polynomial prod_i [d_i]_q from the
degrees of the group (Bott's formula for the affine group).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

from heckesphere import catalog, cli, lightleaf, strolls, verify
from heckesphere.coxeter import CoxeterMatrix, CoxeterSystem
from heckesphere.hecke import HeckeAlgebra, HeckeElt
from heckesphere.laurent import LaurentPoly
from heckesphere.spherical import SphericalModule


class CheckFailed(Exception):
    """A request produced a wrong answer."""


def check(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class State:
    systems: dict = field(default_factory=dict)  # name -> CoxeterSystem
    algebras: dict = field(default_factory=dict)  # name -> HeckeAlgebra
    subsets: dict = field(default_factory=dict)  # name -> finitary subsets J
    modules: dict = field(default_factory=dict)  # name -> [(J, SphericalModule)]
    pools: dict = field(default_factory=dict)  # name -> list of group-derived inputs
    files: dict = field(default_factory=dict)  # name -> path written by setup


# -- groups and their external anchors ------------------------------------------------


def _matrix(gens: str, bonds: dict) -> CoxeterMatrix:
    n = len(gens)
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for (i, j), order in bonds.items():
        m[i][j] = m[j][i] = order
    return CoxeterMatrix(tuple(gens), tuple(tuple(r) for r in m))


A4 = _matrix("stuw", {(0, 1): 3, (1, 2): 3, (2, 3): 3})
B4 = _matrix("stuw", {(0, 1): 4, (1, 2): 3, (2, 3): 3})
D4 = _matrix("stuw", {(0, 1): 3, (1, 2): 3, (1, 3): 3})
AFFINE_A2 = _matrix("stu", {(0, 1): 3, (1, 2): 3, (0, 2): 3})

# name -> (matrix, budget, degrees); degrees None marks the affine group.
GROUPS = {
    "a2": (catalog.A2, 10, (2, 3)),
    "b2": (catalog.B2, 10, (2, 4)),
    "a3": (catalog.A3, 12, (2, 3, 4)),
    "b3": (catalog.B3, 12, (2, 4, 6)),
    "h3": (catalog.H3, 18, (2, 6, 10)),
    "a4": (A4, 10, (2, 3, 4, 5)),
    "b4": (B4, 18, (2, 4, 6, 8)),
    "d4": (D4, 14, (2, 4, 4, 6)),
    "affine_a2": (AFFINE_A2, 12, None),
}


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poincare_from_degrees(degrees) -> list[int]:
    """Coefficients of prod_i [d_i]_q, with [d]_q = 1 + q + ... + q^(d-1)."""
    out = [1]
    for d in degrees:
        out = _poly_mul(out, [1] * d)
    return out


def length_counts(system: CoxeterSystem) -> list[int]:
    counts: list[int] = []
    for w in system.elements():
        while len(counts) <= len(w):
            counts.append(0)
        counts[len(w)] += 1
    return counts


def anchors(state: State) -> int:
    """Check every built group against its order and Poincare polynomial
    (sum over w of v^(2 l(w)) equals prod_i [d_i] at q = v^2).  For affine
    A2 the ball has 3k elements of length k >= 1, from Bott's formula
    (1 + q + q^2) / (1 - q)^2.  Returns the number of anchors checked."""
    cases = 0
    for name, system in state.systems.items():
        _, _, degrees = GROUPS[name]
        counts = length_counts(system)
        if degrees is None:
            want = [1] + [3 * k for k in range(1, system.budget + 1)]
            check(not system.is_finite, f"{name}: affine group reported finite")
        else:
            want = poincare_from_degrees(degrees)
            order = 1
            for d in degrees:
                order *= d
            check(system.is_finite, f"{name}: finite group not closed")
            check(sum(counts) == order, f"{name}: order {sum(counts)} != {order}")
        check(counts == want, f"{name}: length counts {counts} != {want}")
        cases += 2
    return cases


def build_systems(state: State, names, algebras=True):
    for name in names:
        matrix, budget, _ = GROUPS[name]
        system = CoxeterSystem(matrix, budget)
        state.systems[name] = system
        if algebras:
            state.algebras[name] = HeckeAlgebra(system)


def random_word(rng, rank: int, max_len: int, min_len: int = 0) -> tuple[int, ...]:
    return tuple(rng.randrange(rank) for _ in range(rng.randint(min_len, max_len)))


def random_bits(rng, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(2) for _ in range(n))


def rank_of(name: str) -> int:
    return GROUPS[name][0].rank


def n_subsets(name: str) -> int:
    """How many J are finitary: all of them, but S itself in the affine group."""
    n = 1 << rank_of(name)
    return n if GROUPS[name][2] is not None else n - 1


# -- rank-pairing -------------------------------------------------------------------------


class RankPairing:
    """Rank polynomials against the graded pairing, and H3 orthonormality."""

    SYSTEMS = ("a2", "b2", "a3", "b3", "h3", "affine_a2")

    def setup(self) -> State:
        state = State()
        build_systems(state, self.SYSTEMS)
        for name in self.SYSTEMS:
            alg = state.algebras[name]
            state.modules[name] = [
                (J, SphericalModule(alg, J))
                for J in verify.finitary_subsets(state.systems[name])
            ]
        h3 = state.systems["h3"]
        state.pools["h3_mcrs"] = [h3.min_coset_reps(J) for J, _ in state.modules["h3"]]
        return state

    def round(self, rng) -> list:
        """One rank request per system and finitary J, and one orthonormality
        request <m_x, m_y> per J of H3 (every fourth pair diagonal).

        The words have length 4 in rank 2 and 3 in rank 3, the longest of
        check_rank_matching: the pairing's cost grows with the number of
        terms of the expansions, and J = S in H3 takes most of the time,
        which random lengths would swing by 16x per request.  The H3 request
        for J = S comes ten times, a sixth of the round, so that the 90th
        latency percentile falls in the middle of the requests that take
        most of the run's time, and moves with the host's speed as
        requests_per_s does, instead of on the edge of a smaller block."""
        out = []
        for name in self.SYSTEMS:
            rank = rank_of(name)
            n = 4 if rank == 2 else 3
            for j in range(n_subsets(name)):
                repeat = 10 if name == "h3" and j == (1 << rank) - 1 else 1  # J = S
                out.extend(("rank", name, j, random_word(rng, rank, n, n),
                            random_word(rng, rank, n, n)) for _ in range(repeat))
        for j in range(n_subsets("h3")):
            x = rng.randrange(1 << 20)
            y = x if rng.random() < 0.25 else rng.randrange(1 << 20)
            out.append(("ortho", "h3", j, x, y))
        return out

    def handle(self, state: State, req):
        kind, name, j, a, b = req
        system = state.systems[name]
        J, mod = state.modules[name][j]
        if kind == "ortho":
            mcrs = state.pools["h3_mcrs"][j]
            x, y = mcrs[a % len(mcrs)], mcrs[b % len(mcrs)]
            got = mod.pairing(mod.m(x), mod.m(y))
            want = LaurentPoly.one() if x == y else LaurentPoly.zero()
            check(got == want, f"<m_{x}, m_{y}> = {got} for J={sorted(J)}")
            return f"{name} J={sorted(J)} <m_{x},m_{y}> = {got}", 1
        # On affine A2 the words stay within budget // 2 - d_J, the cap of
        # check_rank_matching: they have length <= 3 and d_J <= 3 at budget 12.
        lhs = strolls.rank_poly(system, J, a, b)
        rhs = mod.pairing(mod.expand_expression(a), mod.expand_expression(b))
        check(lhs == rhs, f"rank {lhs} != pairing {rhs} on {a}, {b}, J={sorted(J)}")
        return f"{name} J={sorted(J)} {a} {b}: {lhs}", 1


# -- leaves -------------------------------------------------------------------------------


def _replay_recipe(system: CoxeterSystem, J, recipe) -> int:
    """Replay every rex move of a recipe and check each intermediate word.
    Returns the number of moves and words checked."""
    cases = 0
    for st in recipe.steps:
        for move in (st.pre_rex, st.post_rex):
            move.replay(system)
            cases += 1
        elem, reduced = system.normalize(st.intermediate)
        check(reduced, f"step {st.k}: intermediate {st.intermediate} not reduced")
        if isinstance(st, lightleaf.NSStep):
            u, z = system.coset_decompose(elem, J)
            check(st.intermediate == st.u_part + st.z_part
                  and system.element(st.u_part) == u and system.element(st.z_part) == z,
                  f"step {st.k}: block split does not match {elem}")
        else:
            check(system.is_mcr(elem, J), f"step {st.k}: {st.intermediate} is not an mcr")
        cases += 1
    return cases


class Leaves:
    """Double leaves, light-leaf recipes with replayed rex moves, and sweeps."""

    SYSTEMS = ("a2", "b2", "a3", "b3", "h3")
    # Systems with long reduced words, and the longest length drawn (w_0 of
    # B3 has length 9).
    LONG = {"h3": 10, "b3": 9}

    def setup(self) -> State:
        state = State()
        build_systems(state, self.SYSTEMS, algebras=False)
        for name in self.SYSTEMS:
            state.subsets[name] = verify.finitary_subsets(state.systems[name])
        for name in self.LONG:
            system = state.systems[name]
            state.pools[name + "_by_length"] = {
                n: system.elements(n)[len(system.elements(n - 1)):] for n in range(6, 11)
            }
            triples = []
            for z in system.elements():
                for s in range(system.matrix.rank):
                    if s in system.left_descents(z):
                        continue
                    sz = system.left_mult(s, z)
                    for t in range(system.matrix.rank):
                        if system.right_mult(z, t) == sz:
                            triples.append((s, z, t))
            state.pools[name + "_sweeps"] = triples
        return state

    def round(self, rng) -> list:
        """One double-leaf request per system and finitary J; a short sll and
        nsll per system; a long-word sll and nsll per length in H3 and B3;
        five sweeps each in H3 and B3."""
        out = []
        for name in self.SYSTEMS:
            rank = rank_of(name)
            cap = 4 if rank == 2 else 3
            for j in range(n_subsets(name)):
                out.append(("dl", name, j, random_word(rng, rank, cap),
                            random_word(rng, rank, cap)))
            for kind in ("sll", "nsll"):
                word = random_word(rng, rank, 5 if rank == 2 else 3)
                out.append((kind, name, rng.randrange(n_subsets(name)), word,
                            random_bits(rng, len(word))))
        for name, longest in self.LONG.items():
            for n in range(6, longest + 1):
                for kind in ("sll", "nsll"):
                    out.append((kind, name, rng.randrange(n_subsets(name)),
                                ("rex", n, rng.randrange(1 << 20), rng.randrange(1 << 20)),
                                random_bits(rng, n)))
            out.extend(("sweep", name, rng.randrange(1 << 20)) for _ in range(5))
        return out

    def handle(self, state: State, req):
        kind, name = req[0], req[1]
        system = state.systems[name]
        if kind == "sweep":
            triples = state.pools[name + "_sweeps"]
            s, z, t = triples[req[2] % len(triples)]
            z_tilde, sweep = lightleaf.find_sweep(system, s, z, t)
            check(system.element(z_tilde) == z, f"sweep {s},{z},{t}: wrong reduced word")
            trail = sweep.replay(system)
            check(trail[0] == (s,) + z_tilde and trail[-1] == z_tilde + (t,),
                  f"sweep {s},{z},{t}: wrong endpoints")
            positions = [p for p, *_ in sweep.applications]
            check(all(a <= b for a, b in zip(positions, positions[1:])),
                  f"sweep {s},{z},{t}: not left to right")
            return f"{name} sweep {s} {z} {t}: {z_tilde} {sweep.to_json()}", 3
        _, _, j, a, b = req
        J = state.subsets[name][j]
        if kind == "dl":
            pairs = strolls.double_leaf_index(system, J, a, b)
            out = [f"{name} J={sorted(J)} {a} {b}: {len(pairs)} pairs"]
            for pair in pairs:
                dl = lightleaf.build_sdl(system, J, a, pair.e.bits, b, pair.f.bits)
                check(dl.degree == pair.degree,
                      f"double-leaf degree {dl.degree} != tag {pair.degree}")
                out.append(lightleaf.render(system, dl))
            return "\n".join(out), len(pairs)
        if a and a[0] == "rex":
            _, n, pick, pick_word = a
            elems = state.pools[name + "_by_length"][n]
            w = elems[pick % len(elems)]
            words = system.rex_graph(w)
            word, bits = words[pick_word % len(words)], b
        else:
            word, bits = a, b
        build = lightleaf.build_sll if kind == "sll" else lightleaf.build_nsll
        recipe = build(system, J, word, bits)
        cases = _replay_recipe(system, J, recipe)
        if kind == "sll":
            sdef = strolls.decorate(system, J, word, bits).sdef
            check(recipe.degree == sdef, f"degree {recipe.degree} != sdef {sdef}")
            cases += 1
        elif not J:
            classical = [st.classical_label for st in recipe.steps]
            check([st.label for st in recipe.steps] == classical,
                  f"{word}/{bits}: labels differ with empty J")
            check(recipe.degree == classical.count("U0") - classical.count("D0"),
                  f"{word}/{bits}: classical degree mismatch")
            cases += 2
        return f"{name} J={sorted(J)}\n{lightleaf.render(system, recipe)}", cases


# -- kl-b4 ----------------------------------------------------------------------------------


class KlB4:
    """Kazhdan-Lusztig basis and bar involution at rank 4, plus associativity."""

    SYSTEMS = ("b4", "d4")
    ORDER = {"b4": 384, "d4": 192}

    def setup(self) -> State:
        state = State()
        build_systems(state, self.SYSTEMS)
        build_systems(state, ("a4",), algebras=False)  # order anchor only
        for name in self.SYSTEMS:
            system = state.systems[name]
            state.pools[name] = system.elements()
            state.pools[name + "_short"] = system.elements(max(2, (system.budget - 1) // 3))
        return state

    def round(self, rng) -> list:
        """One KL request per element of each group, and one random
        associativity triple, as in check_associativity, per ten elements.
        A round is one pass over the groups, so every run of one round does
        the same work in its own order."""
        out = []
        for name in self.SYSTEMS:
            out.extend(("kl", name, i) for i in range(self.ORDER[name]))
            for _ in range(self.ORDER[name] // 10):
                out.append(("assoc", name, tuple(
                    tuple((rng.randrange(1 << 20), rng.randint(-2, 2), rng.randint(-3, 3))
                          for _ in range(2))
                    for _ in range(3))))
        return out

    def handle(self, state: State, req):
        kind, name, arg = req
        alg = state.algebras[name]
        if kind == "assoc":
            pool = state.pools[name + "_short"]
            a, b, c = (
                HeckeElt((pool[i % len(pool)], LaurentPoly({e: k})) for i, e, k in elt)
                for elt in arg
            )
            left = alg.multiply(alg.multiply(a, b), c)
            right = alg.multiply(a, alg.multiply(b, c))
            check(left == right, f"associativity fails on {req}")
            return f"{name} {alg.format(left)}", 1
        x = state.pools[name][arg]
        b = alg.kl_basis(x)
        check(b.coeff(x) == LaurentPoly.one(), f"b_{x} is not unitriangular")
        check(all(c.in_v_times_nonneg() for y, c in b.items() if y != x),
              f"b_{x} has a coefficient outside vZ[v]")
        check(alg.bar(b) == b, f"b_{x} is not bar-invariant")
        return f"{name} b_{x} = {alg.format(b)}", 3


# -- cli ----------------------------------------------------------------------------------


# The README quick tour, with its printed output.
QUICK_TOUR = (
    (["kl", "--system", "a2", "-x", "sts"],
     "(v^3) d_e + (v^2) d_s + (v^2) d_t + (v) d_st + (v) d_ts + (1) d_sts\n"),
    (["rank", "--system", "a2", "--J", "s", "-x", "t", "-y", "t"], "1 + v^2\n"),
    (["stroll", "--system", "a2", "--J", "s", "-x", "tst", "--bits", "111"],
     "bits=111 labels=U1,U1,X1 stroll=e,t,ts,ts sdef=-1\n"),
    (["sll", "--system", "a2", "--J", "s", "-x", "tst", "--bits", "111"],
     "word=tst bits=111\n"
     "  step 1: U1 pre=- op=none post=- -> t\n"
     "  step 2: U1 pre=- op=none post=- -> ts\n"
     "  step 3: X1 pre=braid@0[ts:3] op=wall-plug:s post=- -> ts\n"
     "target=ts degree=-1\n"),
)

# Built-in systems the cli requests use, with the budget that closes each.
CLI_SYSTEMS = {"a2": 10, "b2": 10, "h2": 10, "i2_7": 14, "a3": 12, "b3": 12, "h3": 18}
VERIFY_SYSTEMS = ("a2", "b2", "h2", "i2_7", "a3")
# Subcommand -> formats whose output is to stay byte-identical.
CLI_FORMATS = {
    "kl": ("text", "json", "csv"),
    "act": ("text", "json", "csv"),
    "rank": ("text", "json"),
    "stroll": ("text", "json", "csv"),
    "localize": ("text", "json", "csv"),
    "sll": ("text", "json"),
    "sdl": ("text", "json"),
    "nsll": ("text", "json"),
}


def _gen_names(system: str) -> str:
    if system == "affine_a2":
        return "stu"
    return "".join(catalog.BUILTIN[system].generators)


class Cli:
    """In-process ``heckesphere.cli.main`` calls; each builds its own group."""

    def setup(self) -> State:
        state = State()
        out_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "affine_a2.json")
        with open(path, "w") as fh:
            json.dump(AFFINE_A2.to_json(), fh)
        state.files["affine_a2"] = path
        return state

    def round(self, rng) -> list:
        """Each verify suite on each system once, the README quick tour,
        one exit-3 and two exit-4 calls, and four calls per subcommand.

        The calls take each system four times, in seeded pairs with the
        subcommands: a call on H3 costs 10x one on a rank-2 system, so a
        random system per call would move both latency percentiles with the
        seed."""
        out = [("verify", system, suite)
               for system in VERIFY_SYSTEMS for suite in ("hecke", "spherical")]
        out.extend(("tour", i) for i in range(len(QUICK_TOUR)))
        budget = rng.randint(2, 6)  # over budget on the infinite dihedral group
        out.append(("budget", budget, rng.randint(budget + 1, budget + 4)))
        out.extend(("mismatch", rng.choice(tuple(CLI_SYSTEMS)), rng.randrange(1 << 20))
                   for _ in range(2))
        systems = list(CLI_SYSTEMS) * 4 + ["affine_a2"] * 4
        rng.shuffle(systems)
        cmds = [cmd for cmd in CLI_FORMATS for _ in range(4)]
        out.extend(self._call(rng, cmd, system) for cmd, system in zip(cmds, systems))
        return out

    def _call(self, rng, cmd: str, system: str):
        names = _gen_names(system)
        rank = len(names)
        j_mask = rng.randrange(1 << rank)
        if system == "affine_a2" and j_mask == (1 << rank) - 1:
            j_mask = 0  # the full affine J is not finitary
        x = "".join(names[s] for s in random_word(rng, rank, 4 if rank == 2 else 3))
        y = "".join(names[s] for s in random_word(rng, rank, 4 if rank == 2 else 3))
        return ("call", system, cmd, rng.choice(CLI_FORMATS[cmd]), j_mask, x, y,
                random_bits(rng, len(x)), rng.random() < 0.2)

    def argv(self, state: State, req) -> tuple[list[str], int]:
        """The command line of a request and the exit code it must give."""
        kind = req[0]
        if kind == "tour":
            return list(QUICK_TOUR[req[1]][0]), 0
        if kind == "verify":
            _, system, suite = req
            return ["verify", "--system", system, "--budget", str(CLI_SYSTEMS[system]),
                    "--suite", suite], 0
        if kind == "budget":
            _, budget, n = req
            word = "".join("st"[i % 2] for i in range(n))
            return ["kl", "--system", "infinite_dihedral", "--budget", str(budget),
                    "-x", word], 3
        if kind == "mismatch":
            # J leaves out generator g, so g is a minimal coset representative:
            # bits 1 ends at g, bits 0 at e.
            _, system, pick = req
            names = _gen_names(system)
            g = names[pick % len(names)]
            J = ",".join(n for n in names if n != g)
            return ["sdl", "--system", system, "--budget", str(CLI_SYSTEMS[system]),
                    "--J", J, "-x", g, "--bits", "1", "-y", g, "--bits2", "0"], 4
        _, system, cmd, fmt, j_mask, x, y, bits, all_bits = req
        names = _gen_names(system)
        argv = [cmd, "--system", state.files.get(system, system),
                "--budget", str(CLI_SYSTEMS.get(system, 12)), "--format", fmt]
        if cmd not in ("kl", "localize"):
            argv += ["--J", ",".join(n for i, n in enumerate(names) if j_mask >> i & 1)]
        argv += ["-x", x]
        bit_str = "".join(map(str, bits))
        if cmd == "rank":
            argv += ["-y", y]
        elif cmd == "nsll" or (cmd in ("stroll", "sll") and not all_bits):
            argv += ["--bits", bit_str]
        elif cmd == "sll":
            argv += ["--all"]
        elif cmd == "sdl":
            # y = x followed by letters taken with bit 0 keeps the endpoint.
            argv += ["--bits", bit_str, "-y", x + y, "--bits2", bit_str + "0" * len(y)]
        return argv, 0

    def handle(self, state: State, req):
        argv, want_code = self.argv(state, req)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        text = out.getvalue()
        check(code == want_code, f"{argv}: exit {code} != {want_code}: {err.getvalue()}")
        cases = 1
        if req[0] == "tour":
            check(text == QUICK_TOUR[req[1]][1], f"{argv}: output differs from the README")
            cases += 1
        elif req[0] == "verify":
            lines = text.splitlines()
            n_checks = len(verify.SUITES[req[2]])
            check(len(lines) == n_checks and all(ln.startswith("PASS ") for ln in lines),
                  f"{argv}: {text!r}")
            cases += n_checks
        elif want_code:
            check(not text and err.getvalue(), f"{argv}: expected only an error message")
        else:
            check(bool(text.strip()), f"{argv}: empty output")
            if req[3] == "json":
                json.loads(text)
                cases += 1
        return f"{req!r}\n{text}#exit={code}\n", cases


WORKLOADS = {
    "rank-pairing": RankPairing(),
    "leaves": Leaves(),
    "kl-b4": KlB4(),
    "cli": Cli(),
}
