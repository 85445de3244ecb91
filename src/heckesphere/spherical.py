"""The spherical right H-module M(J) in its standard basis.

M(J) has basis m_x indexed by the minimal coset representatives ^J W, and
the right action of the generators is linear.delta_step on that basis, the
one the algebra uses with J = {}:

    m_x delta_s = m_{xs}                      if xs > x and xs is an mcr,
                  m_{xs} + (v^-1 - v) m_x     if xs < x,
                  v^-1 m_x                    if xs is not an mcr,

and b_s = delta_s + v acts as delta_s plus v times the identity.
SphericalModule is linear.Module with the module's J, as the algebra is
with J = {}: elements are SphericalElt, the linear.Combo over the basis
m_x, and the zero, unit, m_x, bar, c_x (`kl_c`), pairing and format are the
module's.  An mcr x = x's has x' an mcr and m_x = m_{x'} delta_s, so each
table keyed by ^J W is filled by linear.along from its value at x':
bar(m_x) = bar(m_{x'}) delta_s^-1, computed in the module; c_x, the
recursion c_{x'} * b_s minus mu-corrections that also gives the algebra's
b_x; and phi(m_x) = phi(m_{x'}) delta_s, one step in the algebra from
phi(m_e) = b_{w_J}.  The module computes each of these and checks none:
verify's spherical-kl checks c_x's unitriangularity, vZ[v] and self-duality,
as kl-wellformed checks b_x's.

The pairing <a, b>_M is the coordinatewise form, in which the m_x are
orthonormal.  Under the embedding m_x -> b_{w_J} delta_x, v^{d_J} pi(J)
times it is the trace form of H (Soergel); both forms are bilinear, and
verify's spherical-orthonormal and rank-matching compare them.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import linear
from .coxeter import IDENTITY, Word
from .hecke import NO_J, HeckeAlgebra, HeckeElt
from .laurent import V, add_products, finish


class SphericalElt(linear.Combo):
    """A finitely supported sum of standard basis elements m_x, x in ^J W."""

    __slots__ = ()


class SphericalModule(linear.Module):
    """M(J): linear.Module's zero, unit, bar, KL basis, coordinatewise
    pairing and format, with the right action of the algebra and the
    embedding phi into it."""

    elt, letter = SphericalElt, "m"

    def __init__(self, algebra: HeckeAlgebra, J: Iterable[int]):
        # Checks J's letters and certifies J is finitary (BudgetExceeded otherwise).
        par = algebra.system.parabolic(J)
        super().__init__(algebra.system, par.J)
        self.algebra, self.d_J = algebra, par.d_J
        # The algebra's memoized closed forms; verify's bwj-pi-identity checks them.
        self.b_wJ, self.pi = algebra.b_wJ_and_pi(self.J)
        self._phi_memo: dict[Word, HeckeElt] = {IDENTITY: self.b_wJ}

    m = linear.Module.basis
    kl_c = linear.Module.kl

    # -- the action -------------------------------------------------------------------

    def act_bs(self, a: SphericalElt, s: int) -> SphericalElt:
        return linear.step_plus(self.system, self.J, a, s, V)

    def act(self, a: SphericalElt, h: HeckeElt) -> SphericalElt:
        return linear.prefix_tree_product(self.system, self.J, a, h)

    def expand_expression(self, word: Iterable[int]) -> SphericalElt:
        """1 (x) b_{x_} = m_e b_{s_1} ... b_{s_n}."""
        out = self.unit()
        for s in word:
            out = self.act_bs(out, s)
        return out

    # -- embedding --------------------------------------------------------------------------

    def phi_embed(self, a: SphericalElt) -> HeckeElt:
        """m_x -> b_{w_J} delta_x, extended linearly: one keyed sum of the
        images `_phi` memoizes (injective: the leading term delta_{w_J x} of
        each image is distinct)."""
        raw = {}
        for x, c in a.support.items():
            add_products(raw, self._phi(x).support, c)
        return HeckeElt.wrap(finish(raw))

    def _phi(self, x: Word) -> HeckeElt:
        """phi(m_x) = b_{w_J} delta_x, memoized per mcr by linear.along: the
        image at x = x's is the one at x' times delta_s, one algebra step."""
        return linear.along(self.system, self.J, self._phi_memo, x, lambda p, prev:
                            linear.delta_step(self.system, NO_J, prev, p[-1]))

    # -- rendering ---------------------------------------------------------------------------

    def to_json(self, a: SphericalElt) -> dict:
        return {
            "basis": "spherical-standard",
            "J": [self.system.matrix.generators[s] for s in sorted(self.J)],
            **a.to_json(self.system),
        }
