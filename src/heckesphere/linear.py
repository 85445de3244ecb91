"""Finitely supported linear combinations with LaurentPoly coefficients.

`Combo` is the one element type: canonical reduced-word keys with nonzero
coefficients.  Its subclass names the basis, `HeckeElt` (delta_x) or
`SphericalElt` (m_x); elements of different bases never compare equal.
`delta_step` is the one right action of a generator on a standard basis
indexed by ^J W (the algebra is J = {}), a wrap of `_step` on plain maps of
coefficients; one walk of the prefix tree of a set of words y steps such
maps, no Combo per node, and yields each a * delta_y: `prefix_tree_product`
sums them into a * b, and `trace_walk` reads each at the identity alone,
dropping before each step the terms it would land too long to reach it
under any key the new node serves, which it reads from the sorted keys.
`along` is the one fill of a memo keyed by ^J W: the value at x = x's is
made from the one at x', prefix by prefix, shortest first.

`Module(system, J)` is the one right H-module over such a basis: the
algebra is J = {} and M(J) any other finitary J (Deodhar, J. Algebra 111,
1987), each a subclass naming its element class and letter.  It holds what
they share: the bar and Kazhdan-Lusztig memos, filled through `along`,
`zero`, `unit`, the checked basis element, the bar involution, the
Kazhdan-Lusztig basis `kl`, the algebra's b_x and every module's c_x (the
element at x' times b_s, mu-corrected by `kl_correct`), the coordinatewise
pairing and the text form.  Each is computed by one path and checked by
none here; verify compares them with their characterizations.

Every sum of combinations is one keyed sum of laurent's (`add_products`,
then `finish`), and `Combo.dot` is one `sum_of_products`; the polynomials'
packed ints are laurent's alone.  Terms that cannot meet are relabelled,
not summed: a one-to-one image of the keys is built by `wrap`, and
`delta_step` forms almost no sum: a generator moves the terms that cross no
wall one to one, so each is one assignment, and only a descent adds
(v^-1 - v) c at its own key.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping

from .coxeter import IDENTITY, CoxeterSystem, Word
from .errors import PreconditionViolated
from .laurent import (LaurentPoly, MINUS_ONE, ONE, V, VINV, add_products, finish,
                      sum_of_products)


Coeffs = dict[tuple, LaurentPoly]
V_MINUS_VINV = V - VINV  # delta_s^-1 = delta_s + v - v^-1


def _coefficient(c: LaurentPoly | int) -> LaurentPoly:
    """c as a polynomial, if it is an int or a LaurentPoly."""
    if type(c) is int:
        return LaurentPoly.from_int(c)
    if type(c) is not LaurentPoly:
        raise PreconditionViolated(f"a coefficient must be an int or a LaurentPoly, got {c!r}")
    return c


class Combo:
    """A finitely supported sum of standard basis elements; arithmetic keeps
    the left type.  The constructor, for keys that can repeat or coefficients
    from a caller (each an int or a LaurentPoly), merges keys and drops zeros."""

    __slots__ = ("support",)

    def __init__(self, support: Mapping[Word, LaurentPoly | int] | Iterable = ()):
        pairs = support.items() if type(support) is dict or isinstance(support, Mapping) else support
        raw = {}
        for key, c in pairs:
            c = _coefficient(c)
            if key in raw:
                add_products(raw, {key: c}, ONE)
            else:
                raw[key] = c
        self.support = finish(raw)

    @classmethod
    def wrap(cls, coeffs: Coeffs):
        """An element over `coeffs`, taken as is: it must already be canonical."""
        out = cls.__new__(cls)
        out.support = coeffs
        return out

    @classmethod
    def single(cls, key: Word, c: LaurentPoly | int):
        """c times one basis element: one key cannot repeat, so nothing merges."""
        c = _coefficient(c)
        return cls.wrap({key: c} if c else {})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.support == other.support

    def __hash__(self) -> int:
        return hash(frozenset(self.support.items()))

    def __bool__(self) -> bool:
        return bool(self.support)

    def __add__(self, other: "Combo"):
        return self.wrap(finish(add_products(dict(self.support), other.support, ONE)))

    def __sub__(self, other: "Combo"):
        return self.wrap(finish(add_products(dict(self.support), other.support, MINUS_ONE)))

    def __neg__(self):
        return self.wrap({k: -x for k, x in self.support.items()})

    def scale(self, c: LaurentPoly | int):
        c = _coefficient(c)
        if not c:
            return self.wrap({})
        return self.wrap({k: x * c for k, x in self.support.items()})

    def coeff(self, x: Word) -> LaurentPoly:
        return self.support.get(x, LaurentPoly.zero())

    def items(self) -> Iterator[tuple[Word, LaurentPoly]]:
        """(key, coefficient) pairs sorted by (length, ShortLex) of the key."""
        return iter(sorted(self.support.items(), key=lambda kv: (len(kv[0]), kv[0])))

    def dot(self, other: "Combo") -> LaurentPoly:
        """The form in which the standard basis is orthonormal."""
        small, large = self.support, other.support
        if len(small) > len(large):
            small, large = large, small
        return sum_of_products([(c, large[x]) for x, c in small.items() if x in large])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.support)!r})"

    def to_json(self, system: CoxeterSystem) -> dict:
        return {
            "terms": [
                {"elt": system.format_word(x), "coeff": c.to_json()}
                for x, c in self.items()
            ]
        }


def _step(system: CoxeterSystem, J: frozenset[int], src: Coeffs, s: int) -> Coeffs:
    """The coefficients of `delta_step`, from those of a."""
    table = system.right_table(s)
    out: Coeffs = {}
    for x, c in src.items():
        xs = table[x]
        if len(xs) < len(x):
            out[xs] = c
            p = c.mul_vinv_minus_v(src.get(xs))
            if p:
                out[x] = p
        elif J and not system.is_mcr(xs, J):
            out[x] = c.shift(-1)
        elif xs not in src:
            out[xs] = c
    return out


def delta_step(system: CoxeterSystem, J: frozenset[int], a: Combo, s: int) -> Combo:
    """a * delta_s: e_x goes to e_{xs} if xs > x, to e_{xs} + (v^-1 - v) e_x
    if xs < x, and to v^-1 e_x if xs leaves ^J W.

    x -> xs, or x -> x at a wall, is one to one, so each term is one
    assignment.  The one other term, (v^-1 - v) c at a descent x, meets at
    key x only the image of the term at xs, whose step goes up to x; that
    term is skipped, and the descent sums the two in one laurent operation."""
    return a.wrap(_step(system, J, a.support, s))


def step_plus(system: CoxeterSystem, J: frozenset[int], a: Combo, s: int,
              c: LaurentPoly) -> Combo:
    """a * (delta_s + c) = a delta_s + c a, summed in one raw pass: c = v is
    b_s, and c = v - v^-1 is delta_s^-1."""
    return a.wrap(finish(add_products(_step(system, J, a.support, s), a.support, c)))


def _shared_prefixes(keys: list[Word]) -> list[int]:
    """For each sorted key, the length of the prefix it shares with the one before."""
    out = [0]
    for u, v in zip(keys, keys[1:]):
        k = 0
        while k < len(u) and k < len(v) and u[k] == v[k]:
            k += 1
        out.append(k)
    return out


def _landing_within(system: CoxeterSystem, a: Coeffs, s: int, r: int) -> Coeffs:
    """The terms x of a, in the algebra, whose step along s lands no longer than r."""
    return {x: c for x, c in a.items()
            if len(x) < r or len(x) <= r + 1 and s in system.right_descents(x)}


def _prefix_walk(system: CoxeterSystem, J: frozenset[int], a: Coeffs, keys: list[Word],
                 trace: bool = False) -> Iterator[tuple[Word, Coeffs]]:
    """(y, a * delta_y) for each of the sorted reduced words `keys`, a and
    each a * delta_y a map of coefficients, walking their prefix tree depth
    first by `_step`: path[k] = a * delta_{y[:k]} is cut back to
    the prefix y shares with the key before and extended one step per new
    letter, so each prefix product is computed once.  With `trace`, the step
    along y[k] of key i first drops the terms it lands longer than R - k - 1,
    R the length of the longest key that starts with y[:k + 1]: key i, the
    first such key as it builds that node, and the keys after it while each
    shares more than k letters with the one before."""
    shared = _shared_prefixes(keys)
    path = [a]
    for i, y in enumerate(keys):
        del path[shared[i] + 1:]
        for k in range(shared[i], len(y)):
            node = path[-1]
            if trace:
                reach, j = len(y), i + 1
                while j < len(keys) and shared[j] > k:
                    reach, j = max(reach, len(keys[j])), j + 1
                node = _landing_within(system, node, y[k], reach - k - 1)
            path.append(_step(system, J, node, y[k]))
        yield y, path[-1]


def prefix_tree_product(system: CoxeterSystem, J: frozenset[int], a: Combo,
                        b: Combo) -> Combo:
    """a * b, b in the algebra: b's coefficient at y times a * delta_y,
    summed over the prefix walk of b's keys."""
    raw = {}
    for y, node in _prefix_walk(system, J, a.support, sorted(b.support)):
        add_products(raw, node, b.support[y])
    return a.wrap(finish(raw))


def trace_walk(system: CoxeterSystem, a: Combo, keys: Iterable[Word]) -> Combo:
    """sum_y trace(a * delta_y) delta_y in the algebra over the reduced words
    `keys`, from one prefix walk of them; its `dot` with b is trace(a * b)
    when b's keys are among them.

    The step along s = y[k] moves a term x to xs, one shorter exactly at a
    right descent s; a term landing longer than R - k - 1, R the length of
    the longest key that starts with y[:k + 1], reaches the identity under
    no key and is dropped first (`_prefix_walk` with `trace`).  So no term
    passes the longest key, and a walk whose a and keys lie in the ball
    never leaves it."""
    walk = _prefix_walk(system, frozenset(), a.support, sorted(keys), trace=True)
    return a.wrap({y: node[IDENTITY] for y, node in walk if IDENTITY in node})


def along(system: CoxeterSystem, J: frozenset[int], memo: dict[Word, Combo], x: Word,
          make: Callable[[Word, Combo], Combo]) -> Combo:
    """memo[x], x in ^J W, for a memo that holds e and whose value at p is
    make(p, memo[p[:-1]]): a miss checks that x is an mcr (PreconditionViolated)
    and stores each prefix the memo lacks, each an mcr as x is, shortest first."""
    got = memo.get(x)
    if got is None:
        system.check_mcr(x, J)
        for n in range(1, len(x) + 1):
            if x[:n] not in memo:
                memo[x[:n]] = make(x[:n], memo[x[:n - 1]])
        got = memo[x]
    return got


def kl_correct(cand: Combo, x: Word, lower: Callable[[Word], Combo]) -> Combo:
    """Subtract mu * lower(y) wherever cand's coefficient at y has constant
    term mu, longest y first so each correction is final.  Unitriangularity,
    vZ[v] and self-duality are verify's to check."""
    raw = dict(cand.support)
    for y in sorted(cand.support, key=len, reverse=True):
        mu = raw[y][0]  # as the corrections at longer keys left it
        if mu and y != x:
            add_products(raw, lower(y).support, LaurentPoly.from_int(-mu))
    return cand.wrap(finish(raw))


class Module:
    """A right H-module with standard basis e_x, x in ^J W, with its bar
    involution, Kazhdan-Lusztig basis, form and rendering: the algebra is
    J = {}, and a spherical module M(J) any other finitary J.  A subclass
    names its element class `elt` and the basis `letter` it prints.  The bar
    and the KL basis are memoized per mcr by `along`."""

    elt: type[Combo]
    letter: str

    def __init__(self, system: CoxeterSystem, J: frozenset[int]):
        self.system, self.J = system, J
        self._kl_memo: dict[Word, Combo] = {IDENTITY: self.unit()}
        self._bar_memo: dict[Word, Combo] = {IDENTITY: self.unit()}

    def zero(self) -> Combo:
        return self.elt.wrap({})

    def unit(self) -> Combo:
        return self.elt.wrap({IDENTITY: ONE})

    def basis(self, x: Word, coeff: LaurentPoly | int = 1) -> Combo:
        """coeff e_x; an x that is not an mcr raises PreconditionViolated."""
        self.system.check_mcr(x, self.J)
        return self.elt.single(x, coeff)

    def bar(self, a: Combo) -> Combo:
        """The bar involution, semilinear over memo[x] = bar(e_x): for
        x = x's, bar(e_x) = bar(e_{x'}) delta_s^-1 = bar(e_{x'}) (delta_s + v - v^-1).
        A key that is not an mcr raises PreconditionViolated."""
        system, J = self.system, self.J
        raw = {}
        for x, c in a.support.items():
            bx = along(system, J, self._bar_memo, x,
                       lambda p, prev: step_plus(system, J, prev, p[-1], V_MINUS_VINV))
            add_products(raw, bx.support, c.bar())
        return a.wrap(finish(raw))

    def kl(self, x: Word) -> Combo:
        """The Kazhdan-Lusztig element at x in ^J W: at x = x's, the one at x'
        times b_s, mu-corrected by `kl_correct` with `kl` below.  It never
        calls the bar."""
        system, J = self.system, self.J
        return along(system, J, self._kl_memo, x, lambda p, prev: kl_correct(
            step_plus(system, J, prev, p[-1], V), p, self.kl))

    def pairing(self, a: Combo, b: Combo) -> LaurentPoly:
        """<a, b>, coordinatewise (the e_x are orthonormal), for a and b with
        every key an mcr (PreconditionViolated otherwise)."""
        for x in itertools.chain(a.support, b.support):
            self.system.check_mcr(x, self.J)
        return a.dot(b)

    def format(self, a: Combo) -> str:
        """Terms "(c) <letter>_<word>" joined by " + ", or "0" for zero."""
        if not a.support:
            return "0"
        return " + ".join(f"({c}) {self.letter}_{self.system.format_word(x) or 'e'}"
                          for x, c in a.items())
