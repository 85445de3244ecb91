"""The Hecke algebra of a Coxeter system over Z[v, v^-1].

Elements are HeckeElt, the linear.Combo over the standard basis delta_x:
a map from group element (canonical reduced word) to nonzero LaurentPoly.
The multiply and the bar are linear's, shared with the spherical modules
(the algebra is J = {}): a * b walks the prefix tree of b's support, one
generator at a time by delta_s^2 = 1 + (v^-1 - v) delta_s, and bar(delta_x)
is memoized per x.  The trace form walks the same tree for the delta_e
coefficient alone.  The Kazhdan-Lusztig basis is linear.kl_step,
the recursion b_{xs} * b_s minus mu-corrections that every spherical module
shares; only the characterizing properties (bar-invariance,
unitriangularity, coefficients in vZ[v]) are asserted.
"""

from __future__ import annotations

from typing import Iterable

from . import linear
from .coxeter import IDENTITY, CoxeterSystem, Word
from .errors import InternalInconsistency
from .laurent import LaurentPoly, ONE, V

NO_J: frozenset[int] = frozenset()  # the algebra's standard basis is indexed by all of W


class HeckeElt(linear.Combo):
    """A finitely supported sum of standard basis elements delta_x, x in W."""

    __slots__ = ()


class HeckeAlgebra:
    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._kl_memo: dict[Word, HeckeElt] = {IDENTITY: self.unit()}
        self._bar_memo: dict[Word, HeckeElt] = {IDENTITY: self.unit()}

    # -- basis elements -------------------------------------------------------

    def zero(self) -> HeckeElt:
        return HeckeElt()

    def delta(self, x: Word, coeff: LaurentPoly | int = 1) -> HeckeElt:
        return HeckeElt({x: coeff})

    def unit(self) -> HeckeElt:
        return self.delta(IDENTITY)

    def b_s(self, s: int) -> HeckeElt:
        return HeckeElt({(s,): ONE, IDENTITY: V})

    # -- ring structure and bar involution ------------------------------------------

    def multiply(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        return linear.prefix_tree_product(self.system, NO_J, a, b)

    def bar(self, a: HeckeElt) -> HeckeElt:
        return linear.bar(self.system, NO_J, self._bar_memo, a)

    # -- Kazhdan-Lusztig basis -----------------------------------------------------

    def kl_basis(self, x: Word) -> HeckeElt:
        got = self._kl_memo.get(x)
        if got is None:
            got = linear.kl_step(self.system, NO_J, x, self.kl_basis, "KL")
            self._kl_memo[x] = got
        return got

    # -- trace, anti-involution, bilinear form -----------------------------------------

    def trace(self, a: HeckeElt) -> LaurentPoly:
        """Coefficient of delta_e."""
        return a.coeff(IDENTITY)

    def anti_involution(self, a: HeckeElt) -> HeckeElt:
        """i(delta_x) = delta_{x^-1}, coefficient-linear."""
        return HeckeElt(
            (self.system.inverse(x), c) for x, c in a.support.items()
        )

    def pairing_trace(self, a: HeckeElt, b: HeckeElt) -> LaurentPoly:
        """<a, b> = trace(i(a) * b), the defining formula.  Only the delta_e
        coefficient of i(a) * b is computed: the prefix-tree product in its
        trace_only mode drops each term too long to reach e."""
        return self.trace(linear.prefix_tree_product(
            self.system, NO_J, self.anti_involution(a), b, trace_only=True))

    def pairing(self, a: HeckeElt, b: HeckeElt) -> LaurentPoly:
        """<a, b> computed coordinatewise (the standard basis is orthonormal)."""
        return a.dot(b)

    # -- parabolic data ------------------------------------------------------------------

    def b_wJ_and_pi(self, J: Iterable[int]) -> tuple[HeckeElt, LaurentPoly]:
        """b_{w_J} (closed form, cross-checked against the KL recursion) and
        the Hilbert polynomial pi(J) with b_{w_J}^2 = pi(J) b_{w_J}."""
        par = self.system.parabolic(J)
        b = HeckeElt((w, LaurentPoly.monomial(par.d_J - len(w))) for w in par.members)
        if b != self.kl_basis(par.w_J):
            raise InternalInconsistency(
                f"closed form for b_(w_J) disagrees with the KL recursion, J={sorted(par.J)}"
            )
        pi = LaurentPoly((2 * len(w) - par.d_J, 1) for w in par.members)
        if self.multiply(b, b) != b.scale(pi):
            raise InternalInconsistency(f"b_(w_J)^2 != pi(J) b_(w_J) for J={sorted(par.J)}")
        return b, pi

    def schur_compose(self, h1: HeckeElt, h2: HeckeElt, J: Iterable[int]) -> HeckeElt:
        """h1 *_J h2 = h1 h2 / pi(J); NotDivisible flags inputs outside the
        ideals H b_{w_J} and b_{w_J} H."""
        _, pi = self.b_wJ_and_pi(J)
        prod = self.multiply(h1, h2)
        return HeckeElt((x, c.divide_exact(pi)) for x, c in prod.support.items())

    # -- rendering -----------------------------------------------------------------------

    def format(self, a: HeckeElt) -> str:
        return a.format(self.system, "d")
