"""Constructive light-leaf recipes.

A spherical light-leaf for a subexpression e of a word x_ is built one letter
at a time.  Before step k we hold a reduced word of the stroll element
z_{k-1}; the step's decoration decides what happens to the incoming strand
s_k:

    U1  append s_k (the word stays reduced),
    U0  kill the strand with a dot,
    X0  kill the strand with a dot (it would cross the wall),
    D0  move a matching letter to the right end and merge (trivalent vertex),
    D1  move a matching letter to the right end and cap it off,
    X1  append s_k, pull the wall-crossing generator t = z s_k z^{-1} to the
        left end by a rex move, and plug it into the wall.

Each step records a pre_rex (braid moves before the elementary operation), the
elementary operation, and a post_rex normalizing to the chosen reduced word of
z_k (ShortLex-minimal, unless a target expression pins the last one).  Degrees
are +1 for U0/X0, -1 for D0/X1, 0 for U1/D1, summing to the spherical defect.
The five steps without a wall plug-in are written once, in `_strand_op`.
Every rex move a step builds from smaller ones is a `_chain` of block moves,
each applied at its offset in the current word.

Non-spherical light-leaves keep the same shape but their intermediate words
are concatenations (u_k, z_k) of the coset decomposition w_k = u_k z_k of the
classical Bruhat stroll, whose z-block z_k is the spherical stroll.  A step
whose classical and spherical labels agree, and an X0 going up (a plain U0),
is the spherical step on the z-block.  Only the wall steps differ: X1 going
up transfers t into the u-block, X1 going down caps after sliding t out of
the u-block, and X0 going down merges through a sweep, whose rex-move
choices are made explicit.  A double leaf is two spherical light-leaves
with the same endpoint, the upper one flipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .coxeter import IDENTITY, CoxeterSystem, RexMove, Word
from .errors import (
    EndpointMismatch,
    PreconditionViolated,
    TargetMismatch,
    WordMismatch,
)
from .strolls import STEP_DEGREE, Bits, decorate

CONVENTIONS = {"rex": "shortlex-bfs"}


def _chain(word: Word, *blocks: tuple[int, RexMove]) -> RexMove:
    """The rex move from word that applies each block move in turn at its
    offset in the current word; with no blocks, the identity move."""
    apps: list = []
    cur = word
    for offset, move in blocks:
        end = offset + len(move.source)
        if cur[offset:end] != move.source:
            raise WordMismatch(f"block {move.source} does not match {cur} at {offset}")
        apps.extend((p + offset, s, t, m) for p, s, t, m in move.applications)
        cur = cur[:offset] + move.target + cur[end:]
    return RexMove(word, cur, tuple(apps))


def _reverse_move(move: RexMove) -> RexMove:
    """The inverse rex move (each braid application undone, in reverse order)."""
    apps = tuple((p, t, s, m) for p, s, t, m in reversed(move.applications))
    return RexMove(move.target, move.source, apps)


@dataclass(frozen=True)
class LLStep:
    k: int  # 1-based letter index
    label: str
    pre_rex: RexMove
    elementary: str  # none | dot-kill | trivalent-merge | cap | wall-plug:<gen>
    post_rex: RexMove
    intermediate: Word  # the expression after the step

    @property
    def degree(self) -> int:
        return STEP_DEGREE[self.label]


@dataclass(frozen=True)
class LLRecipe:
    word: Word
    bits: Bits
    steps: tuple[LLStep, ...]
    target: Word  # expression after the last step
    flipped: bool = False  # True for the upper half of a double leaf

    @property
    def degree(self) -> int:
        return sum(s.degree for s in self.steps)


@dataclass(frozen=True)
class DoubleLeafRecipe:
    lower: LLRecipe
    upper: LLRecipe  # flipped
    through: Word  # the shared reduced word of the endpoint

    @property
    def degree(self) -> int:
        return self.lower.degree + self.upper.degree


# -- spherical light-leaves ----------------------------------------------------


def _strand_op(system: CoxeterSystem, label: str, cur: Word,
               s: int) -> tuple[RexMove, str, Word]:
    """The step of a non-wall label (U1, U0, X0, D0, D1) on a reduced word
    cur of the stroll: (pre_rex, elementary, the word after the operation)."""
    if label == "U1":
        grown = cur + (s,)
        return _chain(grown), "none", grown
    if label in ("U0", "X0"):
        return _chain(cur), "dot-kill", cur
    pre = system.find_rex(cur, lambda w: bool(w) and w[-1] == s)
    if label == "D0":
        return pre, "trivalent-merge", pre.target
    return pre, "cap", pre.target[:-1]  # D1


def build_sll(system: CoxeterSystem, J: frozenset[int],
              word: Sequence[int], bits: Sequence[int],
              target_rex: Sequence[int] | None = None) -> LLRecipe:
    dec = decorate(system, J, word, bits)
    word = dec.word
    bits = dec.bits
    n = len(word)
    if target_rex is not None:
        target_rex = tuple(target_rex)
        elem, reduced = system.normalize(target_rex)
        if not reduced or elem != dec.endpoint:
            raise TargetMismatch(
                f"{target_rex} is not a reduced word of the endpoint "
                f"{dec.endpoint}"
            )
    steps = []
    cur: Word = IDENTITY
    for k in range(1, n + 1):
        s = word[k - 1]
        label = dec.labels[k - 1]
        chosen = target_rex if (k == n and target_rex is not None) else dec.stroll[k]
        if label == "X1":
            t = system.wall_cross(system.element(cur), s, J)
            pre = system.find_rex(cur + (s,), lambda w: w[0] == t)
            elementary = f"wall-plug:{system.matrix.generators[t]}"
            mid = pre.target[1:]
        else:
            pre, elementary, mid = _strand_op(system, label, cur, s)
        post = system.rex_path(mid, chosen)
        steps.append(LLStep(k, label, pre, elementary, post, chosen))
        cur = chosen
    return LLRecipe(word, bits, tuple(steps), cur)


def build_sdl(system: CoxeterSystem, J: frozenset[int],
              x_word: Sequence[int], e_bits: Sequence[int],
              y_word: Sequence[int], f_bits: Sequence[int]) -> DoubleLeafRecipe:
    """Double leaf: the light-leaf for (x_, e) glued to the light-leaf for
    (y_, f)."""
    return glue(build_sll(system, J, x_word, e_bits), build_sll(system, J, y_word, f_bits))


def glue(lower: LLRecipe, upper: LLRecipe) -> DoubleLeafRecipe:
    """The double leaf of two light leaves: `lower` followed by the flip of
    `upper`, glued through the ShortLex-minimal reduced word of the common
    endpoint, where both light leaves end."""
    if lower.target != upper.target:
        raise EndpointMismatch(f"endpoints differ: {lower.target} vs {upper.target}")
    return DoubleLeafRecipe(lower, replace(upper, flipped=True), lower.target)


# -- sweeps ---------------------------------------------------------------------


def find_sweep(system: CoxeterSystem, s: int, z: Word, t: int) -> tuple[Word, RexMove]:
    """Given sz = zt > z, return a reduced word z~ of z and a sweep (braid
    applications with non-decreasing start positions) from (s, z~) to (z~, t).

    Constructive induction: a rex move (s, z_) -> (z_, t) must at some point
    change the last letter to t via a braid application flush with the right
    end; the prefix before that window satisfies the same hypotheses with a
    shorter element, so recurse and append the final application.
    """
    sz = system.left_mult(s, z)
    if sz != system.right_mult(z, t) or len(sz) <= len(z):
        raise PreconditionViolated(f"need s*z = z*t > z; got s={s}, z={z}, t={t}")
    if not z:
        # sz = zt forces s = t here (checked above via sz == zt).
        return IDENTITY, RexMove((s,), (t,), ())
    path = system.rex_path((s,) + z, z + (t,))
    trail = path.replay(system)
    for (pos, a, b, m), word, nxt in zip(path.applications, trail, trail[1:]):
        if pos + m == len(word) and nxt[-1] == t and word[-1] != t:
            prefix = system.element(word[:pos])
            window = word[pos:]  # alt(a, b, m); its product closes the gap
            z_prefix, sweep_prefix = find_sweep(system, s, prefix, a)
            z_tilde = z_prefix + window[1:]
            final_app = (len(z_prefix), a, b, m)
            apps = sweep_prefix.applications + (final_app,)
            move = RexMove((s,) + z_tilde, z_tilde + (t,), apps)
            return z_tilde, move
    raise PreconditionViolated("no rex move changes the last letter, input invalid")


# -- non-spherical light-leaves -----------------------------------------------------


@dataclass(frozen=True)
class NSStep(LLStep):
    classical_label: str = ""
    u_part: Word = ()
    z_part: Word = ()

    @property
    def degree(self) -> int:
        # Without a wall, the degree is the classical one: wall plug-ins
        # become plain rex moves into the u-block (degree 0).
        return STEP_DEGREE[self.classical_label]


def build_nsll(system: CoxeterSystem, J: frozenset[int],
               word: Sequence[int], bits: Sequence[int]) -> LLRecipe:
    """Non-spherical light-leaf whose intermediate expressions are
    concatenations (u_k, z_k) of the coset decomposition w_k = u_k z_k of the
    classical Bruhat stroll; z_k is the spherical stroll.  Wall plug-ins of
    the spherical construction become transfers of the wall-crossing
    generator into the u-block."""
    dec = decorate(system, J, word, bits)
    steps = []
    u: Word = IDENTITY  # canonical word of u_k
    for k, (s, d_spherical, b) in enumerate(zip(dec.word, dec.labels, dec.bits), 1):
        zw, z_after = dec.stroll[k - 1], dec.stroll[k]
        w_elem = system.mult(u, zw)
        d_letter = "U" if len(system.right_mult(w_elem, s)) > len(w_elem) else "D"
        d_classical = f"{d_letter}{b}"
        full = u + zw
        u_after, post = u, None
        if d_spherical[0] != "X" or d_classical == "U0":
            # The classical and spherical steps agree (an X0 going up is a
            # plain U0); everything happens inside the z-block.
            beta, elementary, mid_z = _strand_op(system, d_spherical, zw, s)
            pre = _chain(u + beta.source, (len(u), beta))
            mid = u + mid_z
        else:
            t_gen = system.wall_cross(system.element(zw), s, J)
            if d_classical == "U1":
                # d' = X1: pull t across the z-block and let it join u.
                delta = system.rex_path(zw + (s,), (t_gen,) + zw)
                pre = _chain(full + (s,), (len(u), delta))
                elementary = f"wall-transfer:{system.matrix.generators[t_gen]}"
                mid = pre.target
                u_after = system.right_mult(system.element(u), t_gen)
            elif d_classical == "D1":
                # d' = X1: t is a right descent of u; expose it, slide it
                # across the z-block to the right, and cap the incoming strand.
                gamma = system.find_rex(u, lambda w: bool(w) and w[-1] == t_gen)
                delta = system.rex_path((t_gen,) + zw, zw + (s,))
                pre = _chain(full, (0, gamma), (len(u) - 1, delta))
                elementary = "cap"
                mid = pre.target[:-1]
                u_after = system.element(gamma.target[:-1])
            else:  # d_classical == "D0", d' = X0
                # Sweep-based construction: expose t at the right of u, sweep
                # it across a suitable rex of z, merge with the incoming
                # strand, then sweep back.
                gamma = system.find_rex(u, lambda w: bool(w) and w[-1] == t_gen)
                z_tilde, sweep = find_sweep(system, t_gen, zw, s)
                pre = _chain(full, (0, gamma), (len(u), system.rex_path(zw, z_tilde)),
                             (len(u) - 1, sweep))
                elementary = "trivalent-merge"
                mid = pre.target
                # The post moves reverse the sweep and renormalize the z-block.
                post = _chain(mid, (len(u) - 1, _reverse_move(sweep)),
                              (0, _reverse_move(gamma)),
                              (len(u), system.rex_path(z_tilde, z_after)))
        if post is None:
            # Normalize both blocks to their canonical words.
            cut = len(mid) - len(z_after)
            post = _chain(mid, (0, system.rex_path(mid[:cut], u_after)),
                          (cut, system.rex_path(mid[cut:], z_after)))
        steps.append(NSStep(k, d_spherical, pre, elementary, post, u_after + z_after,
                            classical_label=d_classical,
                            u_part=u_after, z_part=z_after))
        u = u_after
    return LLRecipe(dec.word, dec.bits, tuple(steps), u + dec.endpoint)


# -- rendering --------------------------------------------------------------------


def recipe_to_json(system: CoxeterSystem, recipe: LLRecipe) -> dict:
    out = {
        "word": system.format_word(recipe.word),
        "bits": list(recipe.bits),
        "steps": [
            {
                "k": st.k,
                "label": st.label,
                "pre_rex": st.pre_rex.to_json(),
                "elementary": st.elementary,
                "post_rex": st.post_rex.to_json(),
                "intermediate": system.format_word(st.intermediate),
            }
            for st in recipe.steps
        ],
        "degree": recipe.degree,
        "conventions": dict(CONVENTIONS),
    }
    if recipe.flipped:
        out["flipped"] = True
    return out


def parse_recipe_json(system: CoxeterSystem, J: frozenset[int], data: dict) -> LLRecipe:
    """Rebuild a recipe from its JSON form (the steps are re-derived; the
    serialized steps are checked to match, so parsing doubles as validation);
    JSON of any other shape is rejected."""
    steps = data.get("steps") if isinstance(data, dict) else None
    if not (
        isinstance(steps, list)
        and isinstance(data.get("word"), str)
        and isinstance(data.get("bits"), list)
        and all(b in (0, 1) for b in data["bits"])
        and all(isinstance(st, dict) and isinstance(st.get("intermediate"), str)
                for st in steps)
    ):
        raise PreconditionViolated(
            'expected {"word": "<word>", "bits": [0 or 1, ...], '
            '"steps": [{"intermediate": "<word>", ...}, ...], ...}'
        )
    word = system.parse_word(data["word"])
    bits = tuple(int(b) for b in data["bits"])
    target = system.parse_word(steps[-1]["intermediate"]) if steps else None
    recipe = build_sll(system, J, word, bits, target_rex=target)
    if bool(data.get("flipped", False)):
        recipe = replace(recipe, flipped=True)
    if recipe_to_json(system, recipe) != data:
        raise WordMismatch("serialized recipe does not match its reconstruction")
    return recipe


def double_leaf_to_json(system: CoxeterSystem, dl: DoubleLeafRecipe) -> dict:
    return {
        "lower": recipe_to_json(system, dl.lower),
        "upper": recipe_to_json(system, dl.upper),
        "through": system.format_word(dl.through),
        "degree": dl.degree,
    }


def _fmt_word(system: CoxeterSystem, w: Word) -> str:
    return system.format_word(w) or "e"


def _render_move(system: CoxeterSystem, move: RexMove) -> str:
    if not move.applications:
        return "-"
    parts = []
    for p, s, t, m in move.applications:
        gs, gt = system.matrix.generators[s], system.matrix.generators[t]
        parts.append(f"braid@{p}[{gs}{gt}:{m}]")
    return " ".join(parts)


def render(system: CoxeterSystem, recipe: LLRecipe | DoubleLeafRecipe) -> str:
    """The text form of a light leaf, one line per step, or of a double leaf."""
    if isinstance(recipe, DoubleLeafRecipe):
        return "\n".join([
            "lower:",
            render(system, recipe.lower),
            "upper:",
            render(system, recipe.upper),
            f"through={_fmt_word(system, recipe.through)} degree={recipe.degree}",
        ])
    lines = []
    head = f"word={_fmt_word(system, recipe.word)} bits={''.join(map(str, recipe.bits))}"
    if recipe.flipped:
        head += " (flipped)"
    lines.append(head)
    for st in recipe.steps:
        extra = f" [{st.classical_label}]" if isinstance(st, NSStep) else ""
        lines.append(
            f"  step {st.k}: {st.label}{extra} pre={_render_move(system, st.pre_rex)} "
            f"op={st.elementary} post={_render_move(system, st.post_rex)} "
            f"-> {_fmt_word(system, st.intermediate)}"
        )
    lines.append(f"target={_fmt_word(system, recipe.target)} degree={recipe.degree}")
    return "\n".join(lines)
