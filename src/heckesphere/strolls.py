"""Subexpression combinatorics: coset strolls, decorations, spherical defect,
the partial order on subexpressions, double-leaf index sets, graded Hom-rank
polynomials, and localized summand multisets.

A subexpression of a word (s_1, ..., s_n) is a bit sequence (e_1, ..., e_n).
Its coset stroll is the sequence of minimal coset representatives z_0 = id,
z_i = mcr(z_{i-1} s_i^{e_i}); step i gets a letter

    U if z_{i-1} s_i stays an mcr and goes up,
    D if z_{i-1} s_i stays an mcr and goes down,
    X if z_{i-1} s_i leaves the mcr set,

with suffix e_i.  The stroll moves only on U1 and D1 (an X1 step multiplies
by a wall-crossing generator on the left, which does not change the coset).

A word's subexpressions form a prefix tree: `decorations` walks it once by
the step rule `_step`, which `decorate` follows along one path.  The
double-leaf index pairs `join` two words' decorations by endpoint; rank_poly
sums v^{deg} over them as the form of two defect expansions (endpoint_polys,
in M(J)), which keep their own walk as the reference the pairs are checked by.
Each degree is summed once, where its record is built: a decoration's sdef by
`decorate`, or from its parent's by `decorations`, a pair's degree by `join`,
and P_w(z) by endpoint_polys, once per endpoint z, from its counted leaves.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple, Sequence

from .coxeter import IDENTITY, CoxeterSystem, Word
from .errors import WordMismatch
from .laurent import LaurentPoly
from .spherical import SphericalElt

Bits = tuple[int, ...]

# The degree of each step label; they sum to the spherical defect.
STEP_DEGREE = {"U0": 1, "X0": 1, "D0": -1, "X1": -1, "U1": 0, "D1": 0}


class Decoration(NamedTuple):
    word: Word
    bits: Bits
    labels: tuple[str, ...]
    stroll: tuple[Word, ...]  # z_0 .. z_n
    sdef: int  # STEP_DEGREE summed over the labels

    @property
    def endpoint(self) -> Word:
        return self.stroll[-1]


def _step(system: CoxeterSystem, J: frozenset[int], z: Word, table: dict) -> tuple[str, Word]:
    """The letter of stepping the stroll at z along s, and where bit 1 takes
    it; `table` is s's product table, w -> w*s."""
    zs = table[z]
    if not system.is_mcr(zs, J):
        return "X", z
    return ("U" if len(zs) > len(z) else "D"), zs


def decorate(system: CoxeterSystem, J: frozenset[int],
             word: Sequence[int], bits: Sequence[int]) -> Decoration:
    word = tuple(word)
    bits = tuple(bits)
    if len(word) != len(bits) or any(b not in (0, 1) for b in bits):
        raise WordMismatch("bits must be a 0/1 sequence matching the word length")
    system.check_letters(word)
    J = system.check_J(J)
    stroll = [IDENTITY]
    labels = []
    for s, b in zip(word, bits):
        letter, up = _step(system, J, stroll[-1], system.right_table(s))
        labels.append(f"{letter}{b}")
        stroll.append(up if b else stroll[-1])
    return Decoration(word, bits, tuple(labels), tuple(stroll),
                      sum(map(STEP_DEGREE.__getitem__, labels)))


def decorations(system: CoxeterSystem, J: frozenset[int],
                word: Sequence[int]) -> list[Decoration]:
    """Every decoration of `word` in `subexpressions` order, from one prefix-tree
    walk: each prefix is stepped once, and a layer lists its bit-0 children
    before its bit-1 children, so the new bit is the most significant."""
    word = tuple(word)
    system.check_letters(word)
    J = system.check_J(J)
    nodes = [Decoration(word, (), (), (IDENTITY,), 0)]
    for s in word:
        table = system.right_table(s)
        steps = [_step(system, J, dec.endpoint, table) for dec in nodes]
        nodes = [Decoration(word, dec.bits + (b,), dec.labels + (label,),
                            dec.stroll + (up if b else dec.endpoint,),
                            dec.sdef + STEP_DEGREE[label])
                 for b in (0, 1) for dec, (letter, up) in zip(nodes, steps)
                 for label in (f"{letter}{b}",)]
    return nodes


def subexpressions(n: int) -> Iterator[Bits]:
    """All bit sequences of length n, binary counting with e_1 least significant."""
    for k in range(1 << n):
        yield tuple((k >> i) & 1 for i in range(n))


def preceq(system: CoxeterSystem, J: frozenset[int],
           f: Decoration, e: Decoration) -> bool:
    """f is below e in the path-dominance order: the stroll of f sits weakly
    below the stroll of e in Bruhat order (strictly somewhere), or the strolls
    coincide and there is no step where e is X0 while f is X1."""
    if f.word != e.word:
        raise WordMismatch("subexpressions compared over different words")
    if f.stroll == e.stroll:
        return not any(
            le == "X0" and lf == "X1" for le, lf in zip(e.labels, f.labels)
        )
    strict = False
    for zf, ze in zip(f.stroll, e.stroll):
        if not system.bruhat_leq(zf, ze):
            return False
        if zf != ze:
            strict = True
    return strict


class DoubleLeafPair(NamedTuple):
    e: Decoration
    f: Decoration
    degree: int  # e.sdef + f.sdef

    @property
    def endpoint(self) -> Word:
        return self.e.endpoint


def join(xs: Sequence[Decoration], ys: Sequence[Decoration]) -> list[DoubleLeafPair]:
    """All (e in xs, f in ys) with equal endpoints, in the order of xs, then ys."""
    by_end: dict[Word, list[Decoration]] = {}
    for f in ys:
        by_end.setdefault(f.endpoint, []).append(f)
    return [DoubleLeafPair(e, f, e.sdef + f.sdef)
            for e in xs for f in by_end.get(e.endpoint, ())]


def double_leaf_index(system: CoxeterSystem, J: frozenset[int],
                      x_word: Sequence[int], y_word: Sequence[int]) -> list[DoubleLeafPair]:
    """All (e in x_word, f in y_word) with equal mcr endpoints."""
    return join(decorations(system, J, x_word), decorations(system, J, y_word))


def endpoint_polys(system: CoxeterSystem, J: frozenset[int],
                   word: Sequence[int]) -> SphericalElt:
    """The defect expansion 1 (x) b_w = sum_z P_w(z) m_z in M(J), P_w(z) the
    sum of v^{sdef(e)} over the subexpressions e of w that end at z.

    One walk of the subexpressions' prefix tree: a node is a prefix's stroll
    end and defect so far, with a bit-0 and a bit-1 child by the step rule of
    `decorate`.  Equal nodes are never merged, which would make this the
    module action that `strolls/defect-expansion` checks it against; the 2^n
    leaves are counted by end and defect, and P_w(z) summed once per end z."""
    system.check_letters(word)
    J = system.check_J(J)
    nodes = [(IDENTITY, 0)]
    for s in word:
        nxt, table = [], system.right_table(s)
        for z, d in nodes:
            zs = table[z]
            if system.is_mcr(zs, J):  # U0 or D0, then U1 or D1
                nxt += ((z, d + 1 if len(zs) > len(z) else d - 1), (zs, d))
            else:  # X0, X1
                nxt += ((z, d + 1), (z, d - 1))
        nodes = nxt
    polys: dict[Word, dict[int, int]] = {}
    for (z, d), n in Counter(nodes).items():
        polys.setdefault(z, {})[d] = n
    return SphericalElt.wrap({z: LaurentPoly(terms) for z, terms in polys.items()})


def rank_poly(system: CoxeterSystem, J: frozenset[int],
              x_word: Sequence[int], y_word: Sequence[int]) -> LaurentPoly:
    """The graded rank: v^{deg} summed over the double-leaf index pairs
    (e, f), grouped by their common endpoint z as sum_z P_x(z) P_y(z), the
    coordinatewise form of the two defect expansions."""
    return endpoint_polys(system, J, x_word).dot(endpoint_polys(system, J, y_word))


def localized_summands(system: CoxeterSystem, word: Sequence[int]) -> Counter:
    """The multiset of subexpression products {w^e : e in w}, 2^n entries."""
    system.check_letters(word)
    products = [IDENTITY]
    for s in word:
        table = system.right_table(s)
        products += [table[w] for w in products]
    return Counter(products)


def decoration_json(system: CoxeterSystem, dec: Decoration) -> dict:
    return {
        "word": system.format_word(dec.word),
        "bits": list(dec.bits),
        "labels": list(dec.labels),
        "stroll": [system.format_word(z) for z in dec.stroll],
        "endpoint": system.format_word(dec.endpoint),
        "sdef": dec.sdef,
    }
