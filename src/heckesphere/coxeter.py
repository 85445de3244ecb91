"""Coxeter systems from a Coxeter matrix, with a hard length budget.

Elements are identified with their ShortLex-minimal reduced word (a tuple of
generator indices).  The group is stored as a right-multiplication table,
built one length layer at a time up to the budget.  Besides w*s for every
generator s, each element keeps its inverse and, for every pair {s, t}, the
length of the W_{s,t} factor in its decomposition w = w^{st} w_{st} (w^{st}
minimal in the coset w W_{s,t}).  Those lengths solve the word problem
without searching: for x = w*s one layer up, t != s is a right descent of x
exactly when the factor length of w for {s, t} is m_st - 1 (du Cloux's
parabolic transducer, restricted to rank-2 parabolics).  Reduced words, rex
graphs and rex moves are generated on demand by breadth-first search over
braid moves.  No geometric representation is used, so arbitrary Coxeter
matrices (including infinite entries, encoded as 0) are supported uniformly.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BudgetExceeded,
    DifferentElements,
    InvalidMatrix,
    NotInJ,
    NotReduced,
    PreconditionViolated,
)

Word = tuple[int, ...]
IDENTITY: Word = ()

INFINITY = 0  # sentinel for an infinite bond in the matrix file format


@dataclass(frozen=True)
class CoxeterMatrix:
    generators: tuple[str, ...]
    m: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.generators)
        if len(set(self.generators)) != n or n == 0:
            raise InvalidMatrix("generator names must be nonempty and distinct")
        if len(self.m) != n or any(len(row) != n for row in self.m):
            raise InvalidMatrix("matrix shape does not match generator count")
        for i in range(n):
            if self.m[i][i] != 1:
                raise InvalidMatrix("diagonal entries must be 1")
            for j in range(n):
                if self.m[i][j] != self.m[j][i]:
                    raise InvalidMatrix("matrix must be symmetric")
                if i != j and self.m[i][j] != INFINITY and self.m[i][j] < 2:
                    raise InvalidMatrix("off-diagonal entries must be >= 2 or 0 (infinity)")

    @property
    def rank(self) -> int:
        return len(self.generators)

    def order(self, i: int, j: int) -> int:
        """m_st; 0 means infinity."""
        return self.m[i][j]

    def to_json(self) -> dict:
        return {"generators": list(self.generators), "m": [list(r) for r in self.m]}

    @classmethod
    def from_json(cls, data: dict) -> "CoxeterMatrix":
        try:
            gens = tuple(str(g) for g in data["generators"])
            m = tuple(tuple(int(x) for x in row) for row in data["m"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidMatrix(f"malformed matrix data: {exc}") from exc
        return cls(gens, m)

    @classmethod
    def load(cls, path: str) -> "CoxeterMatrix":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class ParabolicData:
    J: frozenset[int]
    members: tuple[Word, ...]  # W_J, sorted by (length, ShortLex)
    w_J: Word
    d_J: int


@dataclass(slots=True)
class _ElemData:
    # factor[s * rank + t]: length of the W_{s,t} factor of the element.
    factor: tuple[int, ...]
    right_mult: dict[int, Word]
    descents: frozenset[int]  # right descents
    inverse: Word = IDENTITY


class _Table(dict):
    """Element data by canonical word; every lookup of another word fails."""

    def __missing__(self, w):
        raise PreconditionViolated(
            f"{w} is not the canonical word of an element within the budget"
        )


def _alternating(a: int, b: int, length: int) -> Word:
    return tuple(a if i % 2 == 0 else b for i in range(length))


Braid = tuple[int, int, int, int]  # a braid application (pos, s, t, m)


def _apply_braid(word: Word, app: Braid) -> Word | None:
    """The word with the alternating s,t,s,... of length m at pos replaced
    by t,s,t,...; None if that window of the word is not s,t,s,...."""
    pos, s, t, m = app
    if word[pos : pos + m] != _alternating(s, t, m):
        return None
    return word[:pos] + _alternating(t, s, m) + word[pos + m :]


class CoxeterSystem:
    """A Coxeter group enumerated up to a length budget."""

    def __init__(self, matrix: CoxeterMatrix, length_budget: int):
        if length_budget < 0:
            raise InvalidMatrix("length budget must be nonnegative")
        self.matrix = matrix
        self.budget = length_budget
        self._elems: dict[Word, _ElemData] = _Table()
        self._layers: list[list[Word]] = []
        self._closed = False
        self._bruhat_memo: dict[tuple[Word, Word], bool] = {}
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self):
        n = self.matrix.rank
        self._elems[IDENTITY] = _ElemData((0,) * (n * n), {}, frozenset())
        self._layers.append([IDENTITY])
        for length in range(self.budget):
            layer: list[Word] = []
            for w in self._layers[length]:
                for s in range(n):
                    # An element's descents, and the products that reach it
                    # from one layer down, are filled in when it is added;
                    # so a missing w*s is an ascent to a new element.
                    if s not in self._elems[w].right_mult:
                        layer.append(self._add_product(w, s))
            if not layer:
                break
            layer.sort()
            self._layers.append(layer)
            for x in layer:
                self._elems[x].inverse = self.mult(IDENTITY, x[::-1])
        self._closed = all(
            len(self._elems[w].right_mult) == n for w in self._layers[-1]
        )

    def _add_product(self, w: Word, s: int) -> Word:
        """Add x = w*s, one layer above w, with all of its right descents."""
        n = self.matrix.rank
        factor = self._elems[w].factor
        down = {s: w}  # right descent d of x -> x*d
        for t in range(n):
            m = self.matrix.order(s, t)
            if t != s and factor[s * n + t] + 1 == m:
                # The W_{s,t} factor of x is the longest element: walk it off
                # to y = x^{st}, then x*t = y * (w_st t).
                y = self.mult(w, _alternating(t, s, m - 1))
                down[t] = self.mult(y, _alternating(s, t, m - 1)[::-1])
        x = min(u + (d,) for d, u in down.items())
        grown = [0] * (n * n)
        for a in range(n):
            for b in range(n):
                d = a if a in down else b if b in down else None
                if a != b and d is not None:
                    grown[a * n + b] = self._elems[down[d]].factor[a * n + b] + 1
        self._elems[x] = _ElemData(tuple(grown), down, frozenset(down))
        for d, u in down.items():
            self._elems[u].right_mult[d] = x
        return x

    # -- basic element operations --------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._closed

    def elements(self, max_length: int | None = None) -> list[Word]:
        """All enumerated elements, sorted by (length, ShortLex)."""
        if max_length is not None and max_length > self.budget and not self._closed:
            raise BudgetExceeded(f"requested length {max_length} > budget {self.budget}")
        out = []
        for layer in self._layers:
            if max_length is not None and layer and len(layer[0]) > max_length:
                break
            out.extend(layer)
        return out

    def check_letters(self, word: Sequence[int]):
        for s in word:
            if not 0 <= s < self.matrix.rank:
                raise InvalidMatrix(f"letter {s} out of range")

    def right_mult(self, w: Word, s: int) -> Word:
        """Canonical word of w*s."""
        out = self._elems[w].right_mult.get(s)
        if out is None:
            self.check_letters((s,))
            raise BudgetExceeded(
                f"product of length {len(w) + 1} exceeds budget {self.budget}"
            )
        return out

    def normalize(self, word: Sequence[int]) -> tuple[Word, bool]:
        """Canonical element of a word, plus whether the word was reduced."""
        self.check_letters(word)
        w = IDENTITY
        for s in word:
            w = self.right_mult(w, s)
        return w, len(w) == len(word)

    def element(self, word: Sequence[int]) -> Word:
        return self.normalize(word)[0]

    def mult(self, x: Word, y: Word) -> Word:
        w = x
        for s in y:
            w = self.right_mult(w, s)
        return w

    def inverse(self, w: Word) -> Word:
        return self._elems[w].inverse

    def reduced_words(self, w: Word) -> frozenset[Word]:
        """All reduced words of w: its braid class, by Matsumoto's theorem."""
        self._elems[w]  # rejects a word that is not canonical
        return frozenset(self._braid_search(w, {}))

    def right_descents(self, w: Word) -> frozenset[int]:
        return self._elems[w].descents

    def left_descents(self, w: Word) -> frozenset[int]:
        return self._elems[self._elems[w].inverse].descents

    # -- Bruhat order ----------------------------------------------------------

    def bruhat_leq(self, x: Word, y: Word) -> bool:
        """x <= y in Bruhat order, by the lifting-property recursion."""
        if len(x) > len(y):
            return False
        if x == y or not x:
            return True
        key = (x, y)
        memo = self._bruhat_memo
        if key in memo:
            return memo[key]
        s = y[0]  # left descent of y (canonical word starts with one)
        sy = self.left_mult(s, y)
        if s in self.left_descents(x):
            out = self.bruhat_leq(self.left_mult(s, x), sy)
        else:
            out = self.bruhat_leq(x, sy)
        memo[key] = out
        return out

    def left_mult(self, s: int, w: Word) -> Word:
        return self.inverse(self.right_mult(self.inverse(w), s))

    # -- rex graph --------------------------------------------------------------

    def rex_graph(self, w: Word) -> list[Word]:
        """All reduced words of w, sorted lexicographically."""
        return sorted(self.reduced_words(w))

    def rex_path(self, frm: Sequence[int], to: Sequence[int]) -> "RexMove":
        """A shortest braid-move path between two reduced words of one element.

        BFS in lexicographic layer order; the first shortest path found wins,
        so the output is deterministic.
        """
        frm = tuple(frm)
        to = tuple(to)
        elems = []
        for word in (frm, to):
            elem, reduced = self.normalize(word)
            if not reduced:
                raise NotReduced(f"{word} is not reduced")
            elems.append(elem)
        if elems[0] != elems[1]:
            raise DifferentElements(f"{frm} and {to} are different elements")
        return self.find_rex(frm, lambda word: word == to)

    def find_rex(self, frm: Sequence[int], goal: Callable[[Word], bool]) -> "RexMove":
        """The path to the first word of the braid search from a reduced word
        that satisfies the predicate.  The goal is guaranteed reachable when
        it holds for some reduced word of the element."""
        frm = tuple(frm)
        parent: dict[Word, tuple[Word, Braid] | None] = {}
        for word in self._braid_search(frm, parent):
            if goal(word):
                target, apps = word, []
                while parent[word] is not None:
                    word, app = parent[word]
                    apps.append(app)
                return RexMove(frm, target, tuple(reversed(apps)))
        raise DifferentElements("no reduced word of this element satisfies the goal")

    def _braid_search(self, frm: Word, parent: dict) -> Iterator[Word]:
        """Every word reachable from frm by braid moves, in the order a BFS
        finds them with lexicographic tie-breaking, so the first word found
        with a property is deterministic.  parent maps each word found to the
        word and the application that reached it (None for frm)."""
        parent[frm] = None
        yield frm
        queue = deque([frm])
        while queue:
            w = queue.popleft()
            for nb, app in sorted(self._braid_applications(w)):
                if nb not in parent:
                    parent[nb] = (w, app)
                    yield nb
                    queue.append(nb)

    def _braid_applications(self, word: Word) -> list[tuple[Word, Braid]]:
        out = []
        for i in range(len(word) - 1):
            s, t = word[i], word[i + 1]
            if s == t:
                continue
            m = self.matrix.order(s, t)
            nb = None if m == INFINITY else _apply_braid(word, (i, s, t, m))
            if nb is not None:
                out.append((nb, (i, s, t, m)))
        return out

    # -- parabolic data -----------------------------------------------------------

    def parabolic(self, J: Iterable[int]) -> ParabolicData:
        """W_J, certified finite within the budget, and its longest element."""
        J = frozenset(J)
        self.check_letters(sorted(J))
        seen = {IDENTITY}
        frontier = [IDENTITY]
        while frontier:
            nxt = []
            for w in frontier:
                for s in J:
                    data = self._elems[w].right_mult
                    if s not in data:
                        raise BudgetExceeded(
                            f"cannot certify that J={sorted(J)} is finitary "
                            f"within budget {self.budget}"
                        )
                    ws = data[s]
                    if ws not in seen:
                        seen.add(ws)
                        nxt.append(ws)
            frontier = nxt
        members = tuple(sorted(seen, key=lambda w: (len(w), w)))
        return ParabolicData(J, members, members[-1], len(members[-1]))

    def is_mcr(self, w: Word, J: frozenset[int]) -> bool:
        """True iff w is the minimal representative of its coset W_J w."""
        return J.isdisjoint(self.left_descents(w))

    def min_coset_reps(self, J: Iterable[int], max_length: int | None = None) -> list[Word]:
        J = frozenset(J)
        return [w for w in self.elements(max_length) if self.is_mcr(w, J)]

    def coset_decompose(self, w: Word, J: frozenset[int]) -> tuple[Word, Word]:
        """The unique w = u*z with u in W_J, z a minimal coset representative,
        and l(w) = l(u) + l(z)."""
        z = w
        stripped: list[int] = []
        while True:
            desc = self.left_descents(z) & J
            if not desc:
                break
            s = min(desc)
            stripped.append(s)
            z = self.left_mult(s, z)
        u = IDENTITY
        for s in stripped:
            u = self.right_mult(u, s)
        return u, z

    def wall_cross(self, z: Word, s: int, J: frozenset[int]) -> int:
        """The unique t in J with z*s = t*z, for z an m.c.r. with z*s not one."""
        if not self.is_mcr(z, J):
            raise PreconditionViolated(f"{z} is not a minimal coset representative")
        zs = self.right_mult(z, s)
        if self.is_mcr(zs, J):
            raise PreconditionViolated(f"z*s stays a minimal coset representative")
        if len(zs) <= len(z):
            raise PreconditionViolated("z*s should be longer than z (wall-crossing)")
        t_elem = self.mult(zs, self.inverse(z))
        if len(t_elem) != 1 or t_elem[0] not in J:
            raise NotInJ(f"conjugate {t_elem} is not a generator in J")
        return t_elem[0]

    # -- word <-> string -----------------------------------------------------------

    def parse_word(self, text: str) -> Word:
        """Parse 'tst' (single-char names) or 's1,s2,s1' into a word."""
        text = text.strip()
        if not text:
            return IDENTITY
        names = {g: i for i, g in enumerate(self.matrix.generators)}
        if "," in text:
            parts = [p.strip() for p in text.split(",")]
        elif all(len(g) == 1 for g in self.matrix.generators):
            parts = list(text)
        else:
            parts = [text]
        try:
            return tuple(names[p] for p in parts)
        except KeyError as exc:
            raise InvalidMatrix(f"unknown generator {exc.args[0]!r}") from exc

    def format_word(self, word: Word) -> str:
        gens = self.matrix.generators
        if not word:
            return ""
        if all(len(g) == 1 for g in gens):
            return "".join(gens[s] for s in word)
        return ",".join(gens[s] for s in word)


@dataclass(frozen=True)
class RexMove:
    """A sequence of braid-relation applications between reduced words.

    Each application (pos, s, t, m) replaces the alternating pattern
    s,t,s,... of length m starting at pos by t,s,t,... of length m.
    """

    source: Word
    target: Word
    applications: tuple[Braid, ...]

    def replay(self, system: CoxeterSystem) -> list[Word]:
        """All intermediate words, source first and target last.  Raises if an
        application does not fit or an intermediate is not reduced."""
        word = self.source
        trail = [word]
        for app in self.applications:
            nxt = _apply_braid(word, app)
            if nxt is None:
                raise NotReduced(f"braid application {app} does not match {word}")
            word = nxt
            _, reduced = system.normalize(word)
            if not reduced:
                raise NotReduced(f"intermediate word {word} is not reduced")
            trail.append(word)
        if word != self.target:
            raise DifferentElements(f"replay ended at {word}, expected {self.target}")
        return trail

    @property
    def is_identity(self) -> bool:
        return not self.applications

    def to_json(self) -> list[list[int]]:
        return [list(app) for app in self.applications]
