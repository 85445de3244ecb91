"""Exact arithmetic in the ring Z[v, v^-1].

A Laurent polynomial is stored as a map from integer exponent to nonzero
integer coefficient, so equality is plain map equality.  Coefficients are
Python ints and therefore arbitrary precision.

Sums of products are formed in a raw exponent map, a plain dict[int, int]
that may hold zero coefficients while it accumulates: `mac(acc, p, q)` adds
p * q into it term by term, and `LaurentPoly.from_raw` drops the zeros once
and wraps the map, so a sum of n products builds one polynomial, not 2n.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from .errors import DivisionByZero, NotDivisible, PreconditionViolated


class LaurentPoly:
    """An element of Z[v, v^-1] in canonical form (no zero coefficients)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        store: dict[int, int] = {}
        for exp, c in items:
            if c:
                store[exp] = store.get(exp, 0) + c
                if not store[exp]:
                    del store[exp]
        self.coeffs = store

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        """coeff * v^exp"""
        return cls({exp: coeff})

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    @classmethod
    def from_raw(cls, acc: dict[int, int]) -> "LaurentPoly":
        """The polynomial a raw exponent map (see `mac`) has summed to."""
        result = cls.__new__(cls)
        result.coeffs = {e: c for e, c in acc.items() if c}
        return result

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

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
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return NotImplemented

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
            if not out[e]:
                del out[e]
        result = LaurentPoly.__new__(LaurentPoly)
        result.coeffs = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        result = LaurentPoly.__new__(LaurentPoly)
        result.coeffs = {e: -c for e, c in self.coeffs.items()}
        return result

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[int, int] = {}
        mac(acc, self, other)
        return LaurentPoly.from_raw(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
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
        """Multiply by v^k."""
        result = LaurentPoly.__new__(LaurentPoly)
        result.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return result

    def mul_vinv_minus_v(self) -> "LaurentPoly":
        """Multiply by v^-1 - v (the quadratic relation's factor): shift
        down, then subtract the shift up."""
        src = self.coeffs
        out = {e - 1: c for e, c in src.items()}
        for e, c in src.items():
            e += 1
            d = out.get(e, 0) - c
            if d:
                out[e] = d
            else:
                del out[e]
        result = LaurentPoly.__new__(LaurentPoly)
        result.coeffs = out
        return result

    # -- bar involution and division ---------------------------------------

    def bar(self) -> "LaurentPoly":
        """The Kazhdan-Lusztig involution v -> v^-1."""
        result = LaurentPoly.__new__(LaurentPoly)
        result.coeffs = {-e: c for e, c in self.coeffs.items()}
        return result

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Return q with q * divisor == self, by leading-term elimination.

        Raises NotDivisible if no such q exists over Z[v, v^-1], and
        DivisionByZero if divisor is zero.
        """
        if divisor.is_zero():
            raise DivisionByZero("division by the zero Laurent polynomial")
        if self.is_zero():
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
        result = LaurentPoly.__new__(LaurentPoly)
        result.coeffs = quot
        return result

    # -- comparison, hashing, rendering -------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
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
        return cls({e: c for e, c in data})


def mac(acc: dict[int, int], p: LaurentPoly, q: LaurentPoly) -> None:
    """acc += p * q on a raw exponent map, which keeps the zeros a sum
    leaves until `LaurentPoly.from_raw`."""
    get = acc.get
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
V = LaurentPoly.monomial(1)
VINV = LaurentPoly.monomial(-1)
