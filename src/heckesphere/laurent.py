"""Exact arithmetic in the ring Z[v, v^-1], and the only module that reads
or builds its packed form: one Python int in signed digits (Kronecker
substitution).  sum c_e v^e is (lo, n), n = sum c_e 2^(width (e - lo)), each
|c_e| < 2^(width - 1) and the digit at lo nonzero; zero is (0, 0).  The width
is the least 64 * 2^k that holds the largest coefficient, so equal
polynomials have equal (width, lo, n).  Each carries a bound L >= sum |c_e|:
exact when built, L_a + L_b under +, L_a L_b under * (the l1 norm is
submultiplicative), kept by a shift, a negation and the bar.  While the
result's bound stays below 2^63 no 64-bit digit can overflow, so a sum is one
aligned int +, v^k moves lo, c (v^-1 - v) is n - (n << 128) one place lower
and a product is n * m.  Otherwise an operation takes the exact path through
exponent maps, which re-packs the result at its least width: coefficients
of any size work, and no digit overflows silently.

`sum_of_products` is the scalar sum of products; `add_products` the keyed
one, raw += c * support with one polynomial per key, and `finish` drops the
keys that summed to zero.
"""

from __future__ import annotations

import struct
from collections.abc import Hashable, Iterable, Iterator, Mapping

from .errors import PreconditionViolated

HALF = 1 << 63  # a bound below this keeps every 64-bit digit exact
MASK = (1 << 64) - 1
_CODECS: dict[int, tuple[int, struct.Struct]] = {}  # digits -> (offset, layout) at width 64


class LaurentPoly:
    """An element of Z[v, v^-1] in canonical packed form (see the module)."""

    __slots__ = ("lo", "packed", "bound", "width")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        mapping = type(coeffs) is dict or isinstance(coeffs, Mapping)
        items = coeffs.items() if mapping else list(coeffs)
        try:
            lo = min(coeffs if mapping else [exp for exp, _ in items])
        except (TypeError, ValueError):  # no terms, or a term the loop rejects
            lo = 0
        n = bound = 0
        for exp, c in items:
            if type(exp) is not int or type(c) is not int:
                raise PreconditionViolated(
                    f"exponents and coefficients must be integers, got {exp!r}: {c!r}")
            n += c << ((exp - lo) << 6)
            bound += c if c > 0 else -c
        if mapping and bound < HALF and n & MASK:  # canonical as packed
            self.lo, self.packed, self.bound, self.width = lo, n, bound, 64
        else:  # a zero at lo; or exponents that may repeat, merged for an exact bound
            p = _strip(lo, n, bound) if mapping and bound < HALF else _from_terms(items)
            self.lo, self.packed, self.bound, self.width = p.lo, p.packed, p.bound, p.width

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _make(0, 0, 0, 64)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _make(0, 1, 1, 64)

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        """coeff * v^exp: one digit, whatever the width."""
        if type(exp) is not int or type(coeff) is not int:
            return cls([(exp, coeff)])  # which raises
        return _make(exp, coeff, abs(coeff), _width(abs(coeff))) if coeff else ZERO

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls.monomial(0, n)

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return self.packed != 0

    def __getitem__(self, exp: int) -> int:
        """Coefficient of v^exp (0 if absent): n shifted to it, the digits below rounded off."""
        i, w = exp - self.lo, self.width
        if i < 0:
            return 0
        r = ((self.packed >> (w * i - 1)) + 1) >> 1 if i else self.packed
        half = 1 << (w - 1)
        return ((r + half) & ((half << 1) - 1)) - half

    def terms(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return iter([(e, c) for e, c in enumerate(_digits(self), self.lo) if c])

    def in_v_times_nonneg(self) -> bool:
        """True iff the polynomial lies in v*Z[v] (all exponents >= 1)."""
        return self.lo >= 1 or not self.packed

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if type(other) is int:
            return LaurentPoly.from_int(other)
        return NotImplemented

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.bound >= HALF:
            return _from_terms([*self.terms(), *other.terms()])
        return _add(self.lo, self.packed, self.bound, other)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _make(self.lo, -self.packed, self.bound, self.width)

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + -self

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        bound = self.bound * other.bound
        if bound >= HALF:
            return _from_terms([(e1 + e2, c1 * c2) for e1, c1 in self.terms()
                                for e2, c2 in other.terms()])
        return _make(self.lo + other.lo, self.packed * other.packed, bound, 64) if bound else ZERO

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
        return _make(self.lo + k, self.packed, self.bound, self.width) if self.packed else self

    def mul_vinv_minus_v(self, plus: "LaurentPoly | None" = None) -> "LaurentPoly":
        """plus + self * (v^-1 - v), the quadratic relation's term at a descent
        (plus = 0 if omitted): n - (n << 128) one place below lo, added onto plus."""
        n, bound, plus = self.packed, 2 * self.bound, ZERO if plus is None else plus
        if bound >= HALF:
            return plus + self * (VINV - V)
        return _add(self.lo - 1, n - (n << 128), bound, plus)

    # -- bar involution ------------------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The Kazhdan-Lusztig involution v -> v^-1: the digits reversed."""
        digits = _digits(self)
        return _make(1 - self.lo - len(digits), _encode(digits[::-1], self.width), self.bound,
                     self.width) if self.packed else self

    # -- comparison, hashing, rendering -------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.packed == other.packed and self.lo == other.lo and self.width == other.width

    def __hash__(self) -> int:
        return hash((self.lo, self.packed))

    def __str__(self) -> str:
        if not self.packed:
            return "0"
        parts: list[str] = []
        exp = self.lo - 1
        for c in _digits(self):
            exp += 1
            if not c:
                continue
            sign = "+ "
            if c < 0:
                sign, c = "- ", -c
            if exp == 0:
                parts.append(f"{sign}{c}")
            elif exp == 1:
                parts.append(f"{sign}v" if c == 1 else f"{sign}{c}v")
            else:
                parts.append(f"{sign}v^{exp}" if c == 1 else f"{sign}{c}v^{exp}")
        parts[0] = parts[0][2:] if parts[0][0] == "+" else f"-{parts[0][2:]}"  # "-" or no sign
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self!s})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[list[int]]:
        """List of [exponent, coefficient] pairs sorted by exponent."""
        return [[e, c] for e, c in enumerate(_digits(self), self.lo) if c]


def _make(lo: int, packed: int, bound: int, width: int) -> LaurentPoly:
    """The polynomial over these fields, taken as is: they must be canonical."""
    result = LaurentPoly.__new__(LaurentPoly)
    result.lo, result.packed, result.bound, result.width = lo, packed, bound, width
    return result


def _width(top: int) -> int:
    """The least digit width 64 * 2^k whose signed digits hold |c| <= top."""
    return 64 if top < HALF else 64 << (top.bit_length() >> 6).bit_length()


def _offset(k: int, w: int) -> int:
    """2^(w-1) in each of k digits: added, it makes every signed digit
    nonnegative, and xor-ed into that, it leaves each digit's two's complement."""
    return ((1 << (w * k)) - 1) // ((1 << w) - 1) << (w - 1)


def _codec(k: int) -> tuple[int, struct.Struct]:
    _CODECS[k] = got = (_offset(k, 64), struct.Struct(f"<{k}q"))
    return got


def _digits(p: LaurentPoly) -> tuple[int, ...] | list[int]:
    """p's signed digits from lo up (the top one nonzero), from their bytes."""
    w, n = p.width, p.packed
    k = n.bit_length() // w + 1
    if w == 64:
        if k == 1:
            return (n,)
        off, layout = _CODECS.get(k) or _codec(k)
        return layout.unpack(((n + off) ^ off).to_bytes(k << 3, "little"))
    off, size = _offset(k, w), w // 8
    image = ((n + off) ^ off).to_bytes(k * size, "little")
    return [int.from_bytes(image[i:i + size], "little", signed=True)
            for i in range(0, len(image), size)]


def _encode(digits, w: int) -> int:
    """The int whose signed base-2^w digits, from the lowest, are `digits`."""
    if w == 64:
        off, layout = _CODECS.get(len(digits)) or _codec(len(digits))
        image = layout.pack(*digits)
    else:
        off = _offset(len(digits), w)
        image = b"".join(c.to_bytes(w // 8, "little", signed=True) for c in digits)
    return (int.from_bytes(image, "little") ^ off) - off


def _from_terms(terms: Iterable[tuple[int, int]]) -> LaurentPoly:
    """The exact path: the terms summed in an exponent map, packed at least width."""
    merged: dict[int, int] = {}
    for e, c in terms:
        merged[e] = merged.get(e, 0) + c
    coeffs = {e: c for e, c in merged.items() if c}
    if not coeffs:
        return ZERO
    lo, bound = min(coeffs), sum(map(abs, coeffs.values()))
    digits = [0] * (max(coeffs) - lo + 1)
    for e, c in coeffs.items():
        digits[e - lo] = c
    w = 64 if bound < HALF else _width(max(map(abs, digits)))
    return _make(lo, _encode(digits, w), bound, w)


def _add(lo: int, n: int, bound: int, q: LaurentPoly) -> LaurentPoly:
    """(lo, n) + q, for a canonical (lo, n) of width 64 whose bound is `bound`."""
    bound += q.bound
    if bound >= HALF:
        return _from_terms([*_make(lo, n, 0, 64).terms(), *q.terms()])
    if not n or not q.packed:
        return _make(lo, n, bound, 64) if n else q
    if q.lo == lo:  # only here can the low digits cancel
        return _strip(lo, n + q.packed, bound)
    if q.lo > lo:
        return _make(lo, n + (q.packed << ((q.lo - lo) << 6)), bound, 64)
    return _make(q.lo, (n << ((lo - q.lo) << 6)) + q.packed, bound, 64)


def _strip(lo: int, n: int, bound: int) -> LaurentPoly:
    """The width-64 polynomial (lo, n), its low zero digits stripped."""
    if not n & MASK:
        if not n:
            return ZERO
        zeros = ((n & -n).bit_length() - 1) >> 6
        n >>= zeros << 6
        lo += zeros
    return _make(lo, n, bound, 64)


def sum_of_products(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """sum p * q over the pairs (p, q), each one packed product and one aligned
    add; one that would take the bound past 2^63 goes to `spill` exactly."""
    lo, n, bound, spill = 0, 0, 0, ZERO
    for p, q in pairs:
        b = p.bound * q.bound
        if bound + b >= HALF:
            spill, lo, n, bound = spill + _strip(lo, n, bound) + p * q, 0, 0, 0
            continue
        m, e = p.packed * q.packed, p.lo + q.lo
        if not n:
            lo, n = e, m
        elif e >= lo:
            n += m << ((e - lo) << 6)
        else:
            n, lo = (n << ((lo - e) << 6)) + m, e
        bound += b
    acc = _strip(lo, n, bound)
    return acc if spill is ZERO else spill + acc


def add_products(raw: dict[Hashable, LaurentPoly], support: Mapping[Hashable, LaurentPoly],
                 c: LaurentPoly) -> dict[Hashable, LaurentPoly]:
    """raw += c * support, key by key; returns raw.  A key's first term is c
    times its coefficient (for c = 1 that itself); each later one is `_add`, inlined."""
    cn, clo, cb = c.packed, c.lo, c.bound
    unit = cn == 1 and clo == 0
    new = LaurentPoly.__new__
    for x, d in support.items():
        acc, b = raw.get(x), d.bound * cb
        if acc is None or not acc.packed:  # the first term
            raw[x] = d if unit else (_make(d.lo + clo, d.packed * cn, b, 64) if 0 < b < HALF
                                     else c * d)
            continue
        b += acc.bound
        n, lo, an, alo = d.packed * cn if cn != 1 else d.packed, d.lo + clo, acc.packed, acc.lo
        if b >= HALF or not n:
            raw[x] = acc + c * d if n else acc
            continue
        if alo > lo:
            n += an << ((alo - lo) << 6)
        elif alo < lo:
            n, lo = (n << ((lo - alo) << 6)) + an, alo
        else:
            n += an
            if not n & MASK:  # the low digits cancelled
                raw[x] = _strip(lo, n, b)
                continue
        acc = raw[x] = new(LaurentPoly)
        acc.lo, acc.packed, acc.bound, acc.width = lo, n, b, 64
    return raw


def finish(raw: dict[Hashable, LaurentPoly]) -> dict[Hashable, LaurentPoly]:
    """The coefficients of a keyed sum, keys that summed to zero dropped."""
    return {x: p for x, p in raw.items() if p.packed}


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
V = LaurentPoly.monomial(1)
VINV = LaurentPoly.monomial(-1)
MINUS_ONE = LaurentPoly.from_int(-1)
