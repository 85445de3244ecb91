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
elementary operation, and a post_rex normalizing to the canonical
(ShortLex-minimal) reduced word of z_k.  A step's degree is read off its
elementary operation: +1 for a dot, -1 for a merge or a wall plug-in, 0
otherwise.  On a correct leaf that is +1 for U0/X0, -1 for D0/X1 and 0 for
U1/D1, so the degrees sum to the spherical defect; `verify`'s `degree-law`
compares them, and the target with the endpoint's word.  Each degree is
summed once, where its record is built: a recipe's as its steps are built, a
double leaf's by `glue`.
The five steps without a wall plug-in are written once, in `_strand_op`.
Every rex move a step builds from smaller ones is a `_chain` of block moves,
each applied at its offset in the current word.

Non-spherical light-leaves keep the same shape but their intermediate words
are concatenations (u_k, z_k) of the coset decomposition w_k = u_k z_k of the
classical Bruhat stroll, whose z-block z_k is the spherical stroll.  Off a
wall the classical step is the spherical one; it and an X0 going up (a plain
U0) are the spherical step on the z-block.  On a wall, z s_k = t z, the
classical step goes up exactly when t is not a right descent of u_{k-1}: X1
going up transfers t into the u-block, X1 going down caps after sliding t
out of it (either way u_k = u_{k-1} t), and X0 going down merges through a
sweep, whose rex-move choices are made explicit.  A double leaf is two
spherical light-leaves with the same endpoint, the upper one flipped.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .coxeter import IDENTITY, CoxeterSystem, RexMove, Word
from .errors import (
    BudgetExceeded,
    EndpointMismatch,
    PreconditionViolated,
    WordMismatch,
)
from .strolls import Bits, decorate

CONVENTIONS = {"rex": "shortlex-bfs"}
# The degree of each elementary operation, named before any ":<generator>".
OP_DEGREE = {"none": 0, "dot-kill": 1, "trivalent-merge": -1, "cap": 0,
             "wall-plug": -1, "wall-transfer": 0}


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


class LLStep(NamedTuple):
    k: int  # 1-based letter index
    label: str
    pre_rex: RexMove
    elementary: str  # none | dot-kill | trivalent-merge | cap | wall-plug:<gen>
    post_rex: RexMove
    intermediate: Word  # the expression after the step


class LLRecipe(NamedTuple):
    word: Word
    bits: Bits
    steps: tuple[LLStep, ...]
    target: Word  # expression after the last step
    degree: int  # OP_DEGREE summed over the steps' elementary operations
    flipped: bool = False  # True for the upper half of a double leaf


class DoubleLeafRecipe(NamedTuple):
    lower: LLRecipe
    upper: LLRecipe  # flipped
    through: Word  # the shared reduced word of the endpoint
    degree: int  # lower.degree + upper.degree


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
              word: Sequence[int], bits: Sequence[int]) -> LLRecipe:
    J = system.check_J(J)
    dec = decorate(system, J, word, bits)
    steps = []
    cur: Word = IDENTITY
    degree = 0
    for k, (s, label) in enumerate(zip(dec.word, dec.labels), 1):
        if label == "X1":
            t = system.wall_cross(dec.stroll[k - 1], s, J)
            pre = system.find_rex(cur + (s,), lambda w: w[0] == t)
            elementary = f"wall-plug:{system.matrix.generators[t]}"
            mid = pre.target[1:]
        else:
            pre, elementary, mid = _strand_op(system, label, cur, s)
        cur = dec.stroll[k]
        steps.append(LLStep(k, label, pre, elementary, system.rex_path(mid, cur), cur))
        degree += OP_DEGREE[elementary.partition(":")[0]]
    return LLRecipe(dec.word, dec.bits, tuple(steps), cur, degree)


def build_sdl(system: CoxeterSystem, J: frozenset[int],
              x_word: Sequence[int], e_bits: Sequence[int],
              y_word: Sequence[int], f_bits: Sequence[int]) -> DoubleLeafRecipe:
    """Double leaf: the light-leaf for (x_, e) glued to the light-leaf for
    (y_, f); endpoints that differ are named as words."""
    lower, upper = build_sll(system, J, x_word, e_bits), build_sll(system, J, y_word, f_bits)
    if lower.target != upper.target:
        raise EndpointMismatch(f"endpoints differ: {_fmt_word(system, lower.target)} "
                               f"vs {_fmt_word(system, upper.target)}")
    return glue(lower, upper)


def glue(lower: LLRecipe, upper: LLRecipe) -> DoubleLeafRecipe:
    """The double leaf of two light leaves: `lower` followed by the flip of
    `upper`, glued through the ShortLex-minimal reduced word of the common
    endpoint, where both light leaves end."""
    if lower.target != upper.target:
        raise EndpointMismatch(f"endpoints differ: {lower.target} vs {upper.target}")
    return DoubleLeafRecipe(lower, upper._replace(flipped=True), lower.target,
                            lower.degree + upper.degree)


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


class NSStep(NamedTuple):  # an LLStep with its classical label and (u, z) blocks
    k: int
    label: str  # the spherical label
    pre_rex: RexMove
    elementary: str
    post_rex: RexMove
    intermediate: Word  # u_part + z_part
    classical_label: str
    u_part: Word
    z_part: Word


def build_nsll(system: CoxeterSystem, J: frozenset[int],
               word: Sequence[int], bits: Sequence[int]) -> LLRecipe:
    """Non-spherical light-leaf whose intermediate expressions are
    concatenations (u_k, z_k) of the coset decomposition w_k = u_k z_k of the
    classical Bruhat stroll; z_k is the spherical stroll.  Wall plug-ins of
    the spherical construction become transfers of the wall-crossing
    generator into the u-block."""
    J = system.check_J(J)
    dec = decorate(system, J, word, bits)
    steps = []
    u: Word = IDENTITY  # canonical word of u_k
    degree = 0
    for k, (s, d_spherical, b) in enumerate(zip(dec.word, dec.labels, dec.bits), 1):
        zw, z_after = dec.stroll[k - 1], dec.stroll[k]
        full = u + zw
        u_after, post = u, None
        if d_spherical[0] == "X":
            t_gen = system.wall_cross(zw, s, J)
            d_classical = f"{'D' if t_gen in system.right_descents(u) else 'U'}{b}"
            if b:
                u_after = system.right_mult(u, t_gen)
        else:
            d_classical = d_spherical  # off a wall, u*z*s steps as z*s does
        if d_classical == "U1" and len(u) + len(zw) >= system.budget:  # u*z*s leaves the ball
            raise BudgetExceeded(f"product of length {len(u) + len(zw) + 1} "
                                 f"exceeds budget {system.budget}")
        if d_classical in (d_spherical, "U0"):
            # The classical and spherical steps agree (an X0 going up is a
            # plain U0); everything happens inside the z-block.
            beta, elementary, mid_z = _strand_op(system, d_spherical, zw, s)
            pre = _chain(u + beta.source, (len(u), beta))
            mid = u + mid_z
        elif d_classical == "U1":
            # d' = X1: pull t across the z-block and let it join u.
            delta = system.rex_path(zw + (s,), (t_gen,) + zw)
            pre = _chain(full + (s,), (len(u), delta))
            elementary = f"wall-transfer:{system.matrix.generators[t_gen]}"
            mid = pre.target
        elif d_classical == "D1":
            # d' = X1: t is a right descent of u; expose it, slide it
            # across the z-block to the right, and cap the incoming strand.
            gamma = system.find_rex(u, lambda w: bool(w) and w[-1] == t_gen)
            delta = system.rex_path((t_gen,) + zw, zw + (s,))
            pre = _chain(full, (0, gamma), (len(u) - 1, delta))
            elementary = "cap"
            mid = pre.target[:-1]
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
        degree += OP_DEGREE[elementary.partition(":")[0]]
        u = u_after
    return LLRecipe(dec.word, dec.bits, tuple(steps), u + dec.endpoint, degree)


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
