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

The graded rank of a pair of expressions sums v^{deg} over the double-leaf
index pairs, the pairs of subexpressions with a common endpoint; rank_poly
groups that sum by endpoint, as the form of two defect expansions
(endpoint_polys, an element of M(J)), each one walk of the prefix tree of
the subexpressions, so a shared prefix is stepped once.
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

    @property
    def endpoint(self) -> Word:
        return self.stroll[-1]

    @property
    def sdef(self) -> int:
        return sum(map(STEP_DEGREE.__getitem__, self.labels))


def decorate(system: CoxeterSystem, J: frozenset[int],
             word: Sequence[int], bits: Sequence[int]) -> Decoration:
    word = tuple(word)
    bits = tuple(bits)
    if len(word) != len(bits) or any(b not in (0, 1) for b in bits):
        raise WordMismatch("bits must be a 0/1 sequence matching the word length")
    system.check_letters(word)
    z = IDENTITY
    stroll = [z]
    labels = []
    for s, b in zip(word, bits):
        zs = system.right_mult(z, s)
        if not system.is_mcr(zs, J):
            letter = "X"
        elif len(zs) > len(z):
            letter = "U"
        else:
            letter = "D"
        labels.append(f"{letter}{b}")
        if b and letter != "X":
            z = zs
        stroll.append(z)
    return Decoration(word, bits, tuple(labels), tuple(stroll))


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


def pair_preceq(system: CoxeterSystem, J: frozenset[int],
                ef_low: tuple[Decoration, Decoration],
                ef_high: tuple[Decoration, Decoration]) -> bool:
    """Componentwise order on double-leaf index pairs."""
    return preceq(system, J, ef_low[0], ef_high[0]) and preceq(
        system, J, ef_low[1], ef_high[1]
    )


class DoubleLeafPair(NamedTuple):
    e: Decoration
    f: Decoration

    @property
    def endpoint(self) -> Word:
        return self.e.endpoint

    @property
    def degree(self) -> int:
        return self.e.sdef + self.f.sdef


def double_leaf_index(system: CoxeterSystem, J: frozenset[int],
                      x_word: Sequence[int], y_word: Sequence[int]) -> list[DoubleLeafPair]:
    """All (e in x_word, f in y_word) with equal mcr endpoints."""
    x_word = tuple(x_word)
    y_word = tuple(y_word)
    by_end: dict[Word, list[Decoration]] = {}
    for bits in subexpressions(len(y_word)):
        dec = decorate(system, J, y_word, bits)
        by_end.setdefault(dec.endpoint, []).append(dec)
    out = []
    for bits in subexpressions(len(x_word)):
        dec = decorate(system, J, x_word, bits)
        for other in by_end.get(dec.endpoint, ()):
            out.append(DoubleLeafPair(dec, other))
    return out


def endpoint_polys(system: CoxeterSystem, J: frozenset[int],
                   word: Sequence[int]) -> SphericalElt:
    """The defect expansion 1 (x) b_w = sum_z P_w(z) m_z in M(J), P_w(z) the
    sum of v^{sdef(e)} over the subexpressions e of w that end at z.

    One walk of the subexpressions' prefix tree: a node is a prefix's stroll
    end and defect so far, with a bit-0 and a bit-1 child by the step rule of
    `decorate`.  Equal nodes are never merged, which would make this the
    module action that `strolls/defect-expansion` checks it against; the 2^n
    leaves are counted by end and defect."""
    system.check_letters(word)
    nodes = [(IDENTITY, 0)]
    for s in word:
        nxt = []
        for z, d in nodes:
            zs = system.right_mult(z, s)
            if system.is_mcr(zs, J):  # U0 or D0, then U1 or D1
                nxt += ((z, d + 1 if len(zs) > len(z) else d - 1), (zs, d))
            else:  # X0, X1
                nxt += ((z, d + 1), (z, d - 1))
        nodes = nxt
    return SphericalElt((z, LaurentPoly({d: n})) for (z, d), n in Counter(nodes).items())


def rank_poly(system: CoxeterSystem, J: frozenset[int],
              x_word: Sequence[int], y_word: Sequence[int]) -> LaurentPoly:
    """The graded rank: v^{deg} summed over the double-leaf index pairs
    (e, f), grouped by their common endpoint z as sum_z P_x(z) P_y(z), the
    coordinatewise form of the two defect expansions."""
    return endpoint_polys(system, J, x_word).dot(endpoint_polys(system, J, y_word))


def localized_summands(system: CoxeterSystem, word: Sequence[int]) -> Counter:
    """The multiset of subexpression products {w^e : e in w}, 2^n entries."""
    word = tuple(word)
    system.check_letters(word)
    out: Counter = Counter()
    for bits in subexpressions(len(word)):
        w = IDENTITY
        for s, b in zip(word, bits):
            if b:
                w = system.right_mult(w, s)
        out[w] += 1
    return out


def decoration_json(system: CoxeterSystem, dec: Decoration) -> dict:
    return {
        "word": system.format_word(dec.word),
        "bits": list(dec.bits),
        "labels": list(dec.labels),
        "stroll": [system.format_word(z) for z in dec.stroll],
        "endpoint": system.format_word(dec.endpoint),
        "sdef": dec.sdef,
    }
