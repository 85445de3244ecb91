"""Exact arithmetic in the ring Z[v, v^-1], and the only module that reads
or builds its exponent maps.

A Laurent polynomial is stored as a map from integer exponent to nonzero
integer coefficient, so equality is plain map equality.  Coefficients are
Python ints and therefore arbitrary precision; the merging constructor, for
exponents that can repeat or terms from a caller, takes nothing else.

Sums of products are formed in raw exponent maps, plain dict[int, int] that
may hold zero coefficients while they accumulate; the zeros are dropped once
at the end, so a sum of n products builds one polynomial, not 2n.
`sum_of_products` is the scalar sum.  `add_products` is the keyed one, for
linear combinations with polynomial coefficients: raw += c * support, one
raw map per key, except that a key's first term stays a LaurentPoly until a
second term arrives (a `Raw` entry); `total` reads one key and `finish`
turns every key into its polynomial, dropping keys that summed to zero.
p * q is one `sum_of_products`, and so are p + q and p - q, over ONE and MINUS_ONE.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping

from .errors import DivisionByZero, NotDivisible, PreconditionViolated


class LaurentPoly:
    """An element of Z[v, v^-1] in canonical form (no zero coefficients)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if type(coeffs) is dict or isinstance(coeffs, Mapping) else coeffs
        store: dict[int, int] = {}
        for exp, c in items:
            _check_term(exp, c)
            if c:
                store[exp] = store.get(exp, 0) + c
                if not store[exp]:
                    del store[exp]
        self.coeffs = store

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _poly({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _poly({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        """coeff * v^exp: one term cannot repeat, so no merging loop."""
        _check_term(exp, coeff)
        return _poly({exp: coeff} if coeff else {})

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls.monomial(0, n)

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, exp: int) -> int:
        """Coefficient of v^exp (0 if absent)."""
        return self.coeffs.get(exp, 0)

    def min_exp(self) -> int:
        if not self.coeffs:
            raise PreconditionViolated("zero polynomial has no exponents")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if not self.coeffs:
            raise PreconditionViolated("zero polynomial has no exponents")
        return max(self.coeffs)

    def terms(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self.coeffs.items()))

    def in_v_times_nonneg(self) -> bool:
        """True iff the polynomial lies in v*Z[v] (all exponents >= 1)."""
        return all(e >= 1 for e in self.coeffs)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if type(other) is int:
            return _poly({0: other} if other else {})
        return NotImplemented

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((self, ONE), (other, ONE)))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _poly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((self, ONE), (other, MINUS_ONE)))

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((other, ONE), (self, MINUS_ONE)))

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if type(n) is not int:
            raise PreconditionViolated(f"an exponent must be an int, got {n!r}")
        if n < 0:
            raise PreconditionViolated("negative powers not supported")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k, k an int."""
        if type(k) is not int:
            raise PreconditionViolated(f"a shift must be an int, got {k!r}")
        return _poly({e + k: c for e, c in self.coeffs.items()})

    def mul_vinv_minus_v(self, plus: "LaurentPoly | None" = None) -> "LaurentPoly":
        """plus + self * (v^-1 - v), the quadratic relation's term at a
        descent (plus = 0 if omitted): shift down onto plus, then subtract
        the shift up, deleting each coefficient that cancels."""
        src = self.coeffs
        if plus is None:
            out = {e - 1: c for e, c in src.items()}
        else:
            out = dict(plus.coeffs)
            for e, c in src.items():
                e -= 1
                d = out.get(e, 0) + c
                if d:
                    out[e] = d
                else:
                    del out[e]
        for e, c in src.items():
            e += 1
            d = out.get(e, 0) - c
            if d:
                out[e] = d
            else:
                del out[e]
        return _poly(out)

    # -- bar involution and division ---------------------------------------

    def bar(self) -> "LaurentPoly":
        """The Kazhdan-Lusztig involution v -> v^-1."""
        return _poly({-e: c for e, c in self.coeffs.items()})

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Return q with q * divisor == self, by leading-term elimination.

        Raises NotDivisible if no such q exists over Z[v, v^-1], and
        DivisionByZero if divisor is zero.
        """
        if not divisor:
            raise DivisionByZero("division by the zero Laurent polynomial")
        if not self:
            return LaurentPoly.zero()
        div = divisor.coeffs
        top_b = max(div)
        lead_b = div[top_b]
        rem = dict(self.coeffs)  # canonical: a cancelled term is deleted
        # Lowest exponents multiply to the lowest one, so an exact quotient
        # has no exponent below low_q.
        low_q = min(rem) - min(div)
        quot: dict[int, int] = {}
        top_r = max(rem)  # the remainder's top only falls
        while rem:
            e = top_r - top_b
            if e < low_q:
                raise NotDivisible(f"{self!r} is not divisible by {divisor!r}")
            lead_r = rem.get(top_r)
            if lead_r is not None:
                if lead_r % lead_b:
                    raise NotDivisible(f"{self!r} is not divisible by {divisor!r}")
                c = quot[e] = lead_r // lead_b
                for eb, cb in div.items():
                    eb += e
                    d = rem.get(eb, 0) - c * cb
                    if d:
                        rem[eb] = d
                    else:
                        del rem[eb]
            top_r -= 1
        return _poly(quot)

    # -- comparison, hashing, rendering -------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for exp, c in self.terms():
            if exp == 0:
                body = str(abs(c))
            else:
                vpow = "v" if exp == 1 else f"v^{exp}"
                body = vpow if abs(c) == 1 else f"{abs(c)}{vpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self!s})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[list[int]]:
        """List of [exponent, coefficient] pairs sorted by exponent."""
        return [[e, c] for e, c in self.terms()]

    @classmethod
    def from_json(cls, data: list[list[int]]) -> "LaurentPoly":
        """The inverse of to_json; anything but a list of [exponent,
        coefficient] pairs of integers is rejected."""
        if not isinstance(data, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(type(n) is int for n in p)
            for p in data
        ):
            raise PreconditionViolated(
                f"expected [[exponent, coefficient], ...] of integers, got {data!r}"
            )
        return cls(data)


def _poly(coeffs: dict[int, int]) -> LaurentPoly:
    """The polynomial over `coeffs`, taken as is: it must hold no zero."""
    result = LaurentPoly.__new__(LaurentPoly)
    result.coeffs = coeffs
    return result


def _check_term(exp, c) -> None:
    """A term from a caller: its exponent and coefficient must be ints."""
    if type(exp) is not int or type(c) is not int:
        raise PreconditionViolated(
            f"exponents and coefficients must be integers, got {exp!r}: {c!r}")


def sum_of_products(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """sum p * q over the pairs (p, q), in one raw exponent map."""
    acc: dict[int, int] = {}
    get = acc.get
    for p, q in pairs:
        for e1, c1 in p.coeffs.items():
            for e2, c2 in q.coeffs.items():
                e = e1 + e2
                acc[e] = get(e, 0) + c1 * c2
    return _poly({e: c for e, c in acc.items() if c})


# key -> raw exponent map, or the LaurentPoly of a key's only term so far;
# so a map of keys to polynomials is a keyed sum to add to.
Raw = dict[Hashable, "dict[int, int] | LaurentPoly"]


def add_products(raw: Raw, support: Mapping[Hashable, LaurentPoly], c: LaurentPoly) -> Raw:
    """raw += c * support, key by key, one term m v^k of c at a time; returns
    raw.  A key's first term is m v^k times its coefficient: for m v^k = 1
    the coefficient itself, which a second term copies into a raw map, and
    otherwise a shifted copy."""
    for k, m in c.coeffs.items():
        unit = k == 0 and m == 1
        for x, d in support.items():
            acc = raw.get(x)
            if acc is None:
                raw[x] = d if unit else {e + k: n * m for e, n in d.coeffs.items()}
                continue
            if type(acc) is LaurentPoly:
                raw[x] = acc = dict(acc.coeffs)
            get = acc.get
            for e, n in d.coeffs.items():
                e += k
                acc[e] = get(e, 0) + n * m
    return raw


def total(acc: "dict[int, int] | LaurentPoly") -> LaurentPoly:
    """The polynomial one key of a `Raw` sum has summed to so far."""
    return acc if type(acc) is LaurentPoly else _poly({e: c for e, c in acc.items() if c})


def finish(raw: Raw) -> dict[Hashable, LaurentPoly]:
    """The canonical coefficients of a `Raw` sum: zero terms and zero keys dropped."""
    out = {}
    for x, acc in raw.items():
        # total(acc), inlined: this runs once per key of every keyed sum.
        c = acc if type(acc) is LaurentPoly else _poly({e: n for e, n in acc.items() if n})
        if c.coeffs:
            out[x] = c
    return out


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
V = LaurentPoly.monomial(1)
VINV = LaurentPoly.monomial(-1)
MINUS_ONE = LaurentPoly.from_int(-1)
