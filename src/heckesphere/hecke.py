"""The Hecke algebra of a Coxeter system over Z[v, v^-1].

HeckeAlgebra is linear.Module with J = {}: elements are HeckeElt, the
linear.Combo over the standard basis delta_x, and the zero, unit, delta_x,
bar, Kazhdan-Lusztig basis b_x (`kl_basis`, linear's one KL recursion:
b_{xs} * b_s minus mu-corrections), coordinatewise pairing and format are
the module's, shared with every spherical module.  The algebra adds its
product: a * b walks the prefix tree of b's support, one generator at a
time by delta_s^2 = 1 + (v^-1 - v) delta_s.  The trace form walks the same
tree for the delta_e coefficient alone (linear.trace_walk), a row at a
time: pairing_trace_row(a, bs) reads <a, b> for every b of the row from one
walk of the union of their keys, and pairing_trace is its one-element case.
b_{w_J} and pi(J) are built in closed form.  The module computes each of
these and checks none: verify's kl-wellformed checks b_x's
unitriangularity, vZ[v] and bar-invariance, and bwj-pi-identity compares
b_{w_J} with kl_basis(w_J) and b_{w_J}^2 with pi(J) b_{w_J}.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import linear
from .coxeter import IDENTITY, CoxeterSystem
from .laurent import LaurentPoly, ONE, V

NO_J: frozenset[int] = frozenset()  # the algebra's standard basis is indexed by all of W


class HeckeElt(linear.Combo):
    """A finitely supported sum of standard basis elements delta_x, x in W."""

    __slots__ = ()


class HeckeAlgebra(linear.Module):
    """H, the module M(J) with J = {}: linear.Module's zero, unit, bar, KL
    basis, coordinatewise pairing and format, with the product and the trace form."""

    elt, letter = HeckeElt, "d"

    def __init__(self, system: CoxeterSystem):
        super().__init__(system, NO_J)
        self._bwj_memo: dict[frozenset[int], tuple[HeckeElt, LaurentPoly]] = {}

    delta = linear.Module.basis
    kl_basis = linear.Module.kl

    def b_s(self, s: int) -> HeckeElt:
        self.system.check_letters((s,))
        return HeckeElt.wrap({(s,): ONE, IDENTITY: V})

    # -- ring structure -----------------------------------------------------------------

    def multiply(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        return linear.prefix_tree_product(self.system, NO_J, a, b)

    # -- trace, anti-involution, bilinear form -----------------------------------------

    def trace(self, a: HeckeElt) -> LaurentPoly:
        """Coefficient of delta_e."""
        return a.coeff(IDENTITY)

    def anti_involution(self, a: HeckeElt) -> HeckeElt:
        """i(delta_x) = delta_{x^-1}, coefficient-linear; inversion is a
        bijection of W, so the terms are relabelled, not summed."""
        return HeckeElt.wrap({self.system.inverse(x): c for x, c in a.support.items()})

    def pairing_trace_row(self, a: HeckeElt, bs: Sequence[HeckeElt]) -> list[LaurentPoly]:
        """[<a, b> for b in bs], each <a, b> = trace(i(a) * b), the defining
        formula: one pruned walk of the union of the bs' keys reads
        trace(i(a) delta_y) for every key y at once (linear.trace_walk), and
        each entry is those traces dotted with its own b."""
        keys = {y for b in bs for y in b.support}
        traces = linear.trace_walk(self.system, self.anti_involution(a), keys)
        return [traces.dot(b) for b in bs]

    def pairing_trace(self, a: HeckeElt, b: HeckeElt) -> LaurentPoly:
        """<a, b> = trace(i(a) * b), the one-element row of pairing_trace_row."""
        return self.pairing_trace_row(a, (b,))[0]

    # -- parabolic data ------------------------------------------------------------------

    def b_wJ_and_pi(self, J: Iterable[int]) -> tuple[HeckeElt, LaurentPoly]:
        """b_{w_J} = sum_{w in W_J} v^{l(w_J)-l(w)} delta_w in closed form and its
        Hilbert polynomial pi(J) = sum_{w in W_J} v^{2l(w)-l(w_J)} (Soergel).
        verify's bwj-pi-identity compares b with kl_basis(w_J) and b^2 with
        pi(J) b.  Memoized per J, so M(J) and that check share one."""
        par = self.system.parabolic(J)  # checks J first: [True] would hit the memo of {1}
        J = par.J
        if J not in self._bwj_memo:
            b = HeckeElt.wrap({w: LaurentPoly.monomial(par.d_J - len(w)) for w in par.members})
            pi = LaurentPoly((2 * len(w) - par.d_J, 1) for w in par.members)
            self._bwj_memo[J] = (b, pi)
        return self._bwj_memo[J]
