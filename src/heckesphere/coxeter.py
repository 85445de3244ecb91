"""Coxeter systems from a Coxeter matrix, with a hard length budget.

Elements are identified with their ShortLex-minimal reduced word (a tuple of
generator indices).  The group is stored as a right-multiplication table,
one map w -> w*s per generator s (`right_table`), grown one length layer at
a time, never past the budget, as queries first reach a layer: each layer
depends only on the layers below it, so a call pays for the longest element
it touches, not for the whole ball.  A lookup of a word, a product w*s,
`elements`, `is_finite` and `parabolic`, which reads W_J off the layers, are
where that growth happens.  Each element keeps its inverse, set as it is
added from the inverse of wd one layer down (d its least right descent), and,
for every pair {s, t}, the length of the W_{s,t} factor in its decomposition
w = w^{st} w_{st} (w^{st} minimal in the coset w W_{s,t}).  Those lengths
solve the word problem without searching: for x = w*s one layer up, t != s
is a right descent of x exactly when the factor length of w for {s, t} is
m_st - 1 (du Cloux's parabolic transducer, restricted to rank-2
parabolics).  Reduced words, rex graphs and rex moves are generated on
demand by breadth-first search over braid moves.  No geometric
representation is used, so arbitrary Coxeter matrices (including infinite
entries, encoded as 0) are supported uniformly.
"""

from __future__ import annotations

import json
import weakref
from collections import deque
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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


class _MatrixFields(NamedTuple):
    generators: tuple[str, ...]
    m: tuple[tuple[int, ...], ...]


class CoxeterMatrix(_MatrixFields):
    __slots__ = ()

    def __new__(cls, generators: tuple[str, ...], m: tuple[tuple[int, ...], ...]):
        if any(type(g) is not str for g in generators):
            raise InvalidMatrix("generator names must be a list of strings")
        n = len(generators)
        if len(set(generators)) != n or n == 0:
            raise InvalidMatrix("generator names must be nonempty and distinct")
        if len(m) != n or any(len(row) != n for row in m):
            raise InvalidMatrix("matrix shape does not match generator count")
        if any(type(x) is not int for row in m for x in row):
            raise InvalidMatrix("matrix entries must be integers")
        for i in range(n):
            if m[i][i] != 1:
                raise InvalidMatrix("diagonal entries must be 1")
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise InvalidMatrix("matrix must be symmetric")
                if i != j and m[i][j] != INFINITY and m[i][j] < 2:
                    raise InvalidMatrix("off-diagonal entries must be >= 2 or 0 (infinity)")
        return super().__new__(cls, generators, m)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too

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
            gens = data["generators"]
            m = tuple(tuple(row) for row in data["m"])
        except (KeyError, TypeError) as exc:
            raise InvalidMatrix(f"malformed matrix data: {exc}") from exc
        if type(gens) is not list:
            raise InvalidMatrix("generator names must be a list of strings")
        return cls(tuple(gens), m)

    @classmethod
    def load(cls, path: str) -> "CoxeterMatrix":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class ParabolicData(NamedTuple):
    J: frozenset[int]
    members: tuple[Word, ...]  # W_J, sorted by (length, ShortLex)
    w_J: Word
    d_J: int


class _ElemData:
    # word: the element's key in the table; factor[s * rank + t]: length of
    # the W_{s,t} factor of the element; descents: its right descents.
    __slots__ = ("word", "factor", "descents", "inverse")

    def __init__(self, word: Word, factor: tuple[int, ...], descents: frozenset[int],
                 inverse: Word):
        self.word, self.factor, self.descents, self.inverse = word, factor, descents, inverse


class _Table(dict):
    """Element data by canonical word.  A miss first grows the group to the
    word's length; a word that is still missing is not canonical."""

    __slots__ = ("_system",)

    def __init__(self, system: "CoxeterSystem"):
        self._system = weakref.ref(system)  # no cycle: a system dies with its last user

    def _owner(self) -> "CoxeterSystem":
        system = self._system()
        if system is None:
            raise PreconditionViolated(
                "the CoxeterSystem of this table is gone; keep it while reading the table")
        return system

    def __missing__(self, w):
        if isinstance(w, tuple):
            self._owner()._grow(len(w))
            if w in self:
                return self[w]
        raise PreconditionViolated(
            f"{w} is not the canonical word of an element within the budget"
        )


class _Products(_Table):
    """w -> w*s for one s: a miss grows the group to one above w, or is past the budget."""

    __slots__ = ()

    def __missing__(self, w):
        system = self._owner()
        system._elems[w]  # rejects a word that is not canonical
        system._grow(len(w) + 1)
        if w in self:
            return self[w]
        raise BudgetExceeded(f"product of length {len(w) + 1} exceeds budget {system.budget}")


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
        if type(length_budget) is not int or length_budget < 0:
            raise InvalidMatrix("length budget must be a nonnegative integer")
        self.matrix = matrix
        self.budget = length_budget
        self._elems: dict[Word, _ElemData] = _Table(self)
        self._elems[IDENTITY] = _ElemData(IDENTITY, (0,) * matrix.rank ** 2, frozenset(),
                                          IDENTITY)
        self._rank, self._right = matrix.rank, [_Products(self) for _ in range(matrix.rank)]
        self._layers: list[list[Word]] = [[IDENTITY]]
        self._closed = False  # the top layer is the longest element
        self._bruhat_memo: dict[tuple[Word, Word], bool] = {}
        self._parabolic_memo: dict[frozenset[int], ParabolicData] = {}

    # -- construction --------------------------------------------------------

    def _grow(self, length: int):
        """Add the layers up to min(length, budget) that are not built yet,
        each from the one below; none after the longest element."""
        n = self.matrix.rank
        while not self._closed and len(self._layers) <= min(length, self.budget):
            layer: list[Word] = []
            for w in self._layers[-1]:
                for s in range(n):
                    # An element's descents, and the products that reach it
                    # from one layer down, are filled in when it is added;
                    # so a missing w*s is an ascent to a new element.
                    if w not in self._right[s]:
                        layer.append(self._add_product(w, s))
            layer.sort()
            self._layers.append(layer)
            self._closed = all(len(self._elems[x].descents) == n for x in layer)

    def _add_product(self, w: Word, s: int) -> Word:
        """Add x = w*s, one layer above w, with all of its right descents and
        its inverse: the least right descent d of x is the least left descent
        of x^-1, the first letter of its ShortLex word, so x^-1 = d (xd)^-1."""
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
        d = min(down)
        inv = (d,) + self._elems[down[d]].inverse
        if inv in self._elems:  # x^-1 came first in this layer: share its two tuples
            x, inv = self._elems[inv].inverse, self._elems[inv].word
        self._elems[x] = _ElemData(x, tuple(grown), frozenset(down), inv)
        for d, u in down.items():
            self._right[d][u], self._right[d][x] = x, u
        return x

    # -- basic element operations --------------------------------------------

    @property
    def is_finite(self) -> bool:
        self._grow(self.budget)
        return self._closed

    def elements(self, max_length: int | None = None) -> list[Word]:
        """All elements within the budget, or of length at most max_length,
        sorted by (length, ShortLex)."""
        cap = self.budget if max_length is None else max_length
        self._grow(cap)
        if cap > self.budget and not self._closed:
            raise BudgetExceeded(f"requested length {max_length} > budget {self.budget}")
        out = []
        for layer in self._layers[:max(cap + 1, 0)]:
            out.extend(layer)
        return out

    def check_letters(self, word: Sequence[int]):
        for s in word:
            if type(s) is not int:
                raise InvalidMatrix(f"letter {s!r} is not an int")
            if not 0 <= s < self.matrix.rank:
                raise InvalidMatrix(f"letter {s} out of range")

    def check_J(self, J: Iterable[int]) -> frozenset[int]:
        """J as a frozenset, once every letter is checked to be an int in S."""
        letters = tuple(J)  # checked before a set merges True into 1
        for s in letters:
            if type(s) is not int:
                raise InvalidMatrix(f"J: letter {s!r} is not an int")
        J = frozenset(letters)
        for s in sorted(J):
            if not 0 <= s < self.matrix.rank:
                raise InvalidMatrix(f"J={sorted(J)}: letter {s} out of range")
        return J

    def right_table(self, s: int) -> dict[Word, Word]:
        """The map w -> w*s, once s is checked; a miss grows the group or raises."""
        if type(s) is not int or not 0 <= s < self._rank:
            self.check_letters((s,))
        return self._right[s]

    def right_mult(self, w: Word, s: int) -> Word:
        """Canonical word of w*s."""
        return self.right_table(s)[w]

    def normalize(self, word: Sequence[int]) -> tuple[Word, bool]:
        """Canonical element of a word, plus whether the word was reduced."""
        self.check_letters(word)
        w = self.mult(IDENTITY, word)
        return w, len(w) == len(word)

    def element(self, word: Sequence[int]) -> Word:
        return self.normalize(word)[0]

    def mult(self, x: Word, y: Word) -> Word:
        for s in y:
            x = self.right_table(s)[x]
        return x

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
        """x <= y in Bruhat order, by the lifting property along y's letters:
        with s = y[0], a left descent of y (its canonical word starts with
        one), x <= y iff sx <= sy when s is a left descent of x, and iff
        x <= sy otherwise.  One loop, so a long y does not recurse; the
        answer is memoized at every pair the walk passed."""
        # Most calls take no walk; each shortcut first rejects a word that is
        # not canonical, as the walk's lookups do.
        if not x or x == y:
            self._elems[y]
            return True
        if len(x) > len(y):
            self._elems[x], self._elems[y]
            return False
        memo = self._bruhat_memo
        passed = []
        while len(x) <= len(y) and x and x != y:
            out = memo.get((x, y))
            if out is not None:
                break
            passed.append((x, y))
            s = y[0]
            if s in self.left_descents(x):
                x = self.left_mult(s, x)
            y = self.left_mult(s, y)
        else:  # x is longer than y (False), the identity or y (True)
            out = len(x) <= len(y)
        for key in passed:
            memo[key] = out
        return out

    def left_mult(self, s: int, w: Word) -> Word:
        return self.inverse(self.right_table(s)[self.inverse(w)])

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
        """W_J, certified finite within the budget, and its longest element; memoized.
        Every reduced word of an element of W_J uses only letters of J, so
        W_J is the table's elements whose canonical word lies in J*, read
        layer by layer up to w_J, its one element with every s in J a right
        descent."""
        J = self.check_J(J)
        if J in self._parabolic_memo:
            return self._parabolic_memo[J]
        members: list[Word] = []
        for length in range(self.budget + 1):
            self._grow(length)  # W_J has an element of each length up to l(w_J)
            layer = [w for w in self._layers[length] if J.issuperset(w)]
            members += layer
            if J <= self._elems[layer[0]].descents:
                out = self._parabolic_memo[J] = ParabolicData(J, tuple(members), layer[0], length)
                return out
        raise BudgetExceeded(
            f"cannot certify that J={sorted(J)} is finitary within budget {self.budget}"
        )

    def is_mcr(self, w: Word, J: frozenset[int]) -> bool:
        """True iff w is the minimal representative of its coset W_J w."""
        return J.isdisjoint(self.left_descents(w))

    def check_mcr(self, w: Word, J: frozenset[int]):
        if not self.is_mcr(w, J):
            raise PreconditionViolated(
                f"{w} is not a minimal coset representative for J={sorted(J)}")

    def min_coset_reps(self, J: Iterable[int], max_length: int | None = None) -> list[Word]:
        J = self.check_J(J)
        return [w for w in self.elements(max_length) if self.is_mcr(w, J)]

    def coset_decompose(self, w: Word, J: frozenset[int]) -> tuple[Word, Word]:
        """The unique w = u*z with u in W_J, z a minimal coset representative,
        and l(w) = l(u) + l(z)."""
        z, stripped = w, []
        while desc := self.left_descents(z) & J:
            stripped.append(min(desc))
            z = self.left_mult(stripped[-1], z)
        return self.mult(IDENTITY, stripped), z

    def wall_cross(self, z: Word, s: int, J: frozenset[int]) -> int:
        """The unique t in J with z*s = t*z, for z an m.c.r. with z*s not one.
        Then z*s lies in W_J z one above its minimal element z, so t is the
        one left descent of z*s in J (Deodhar, J. Algebra 111, 1987)."""
        self.check_mcr(z, J)
        zs = self.right_mult(z, s)
        if self.is_mcr(zs, J):
            raise PreconditionViolated(f"z*s stays a minimal coset representative")
        if len(zs) <= len(z):
            raise PreconditionViolated("z*s should be longer than z (wall-crossing)")
        desc = self.left_descents(zs) & J
        if len(desc) != 1:
            raise NotInJ(f"z*s has left descents {sorted(desc)} in J, not exactly one")
        return min(desc)

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


class RexMove(NamedTuple):
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

    def to_json(self) -> list[list[int]]:
        return [list(app) for app in self.applications]
