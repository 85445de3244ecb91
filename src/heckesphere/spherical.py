"""The spherical right H-module M(J) in its standard basis.

M(J) has basis m_x indexed by the minimal coset representatives ^J W, and
the right action of the generators is linear.delta_step on that basis, the
one the algebra uses with J = {}:

    m_x delta_s = m_{xs}                      if xs > x and xs is an mcr,
                  m_{xs} + (v^-1 - v) m_x     if xs < x,
                  v^-1 m_x                    if xs is not an mcr,

and b_s = delta_s + v acts as delta_s plus v times the identity.  Elements
are SphericalElt, the linear.Combo over the basis m_x.  An mcr x = x's has
x' an mcr and m_x = m_{x'} delta_s, so each table keyed by ^J W is filled by
linear.along from its value at x': bar(m_x) = bar(m_{x'}) delta_s^-1 (the
bar involution, computed in the module by linear.bar); c_x by linear.kl,
the recursion c_{x'} * b_s minus mu-corrections that also gives the
algebra's b_x; and phi(m_x) = phi(m_{x'}) delta_s, one step in the algebra
from phi(m_e) = b_{w_J}.  The module computes each of these and checks none:
verify's spherical-kl checks c_x's unitriangularity, vZ[v] and self-duality,
as kl-wellformed checks b_x's.

The pairing <a, b>_M is the coordinatewise form, in which the m_x are
orthonormal.  Under the embedding m_x -> b_{w_J} delta_x, v^{d_J} pi(J)
times it is the trace form of H (Soergel); both forms are bilinear, and
verify's spherical-orthonormal and rank-matching compare them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from . import linear
from .coxeter import IDENTITY, Word
from .errors import PreconditionViolated
from .hecke import NO_J, HeckeAlgebra, HeckeElt
from .laurent import LaurentPoly, ONE, V, add_products, finish


class SphericalElt(linear.Combo):
    """A finitely supported sum of standard basis elements m_x, x in ^J W."""

    __slots__ = ()


class SphericalModule:
    def __init__(self, algebra: HeckeAlgebra, J: Iterable[int]):
        self.algebra = algebra
        self.system = algebra.system
        # Checks J's letters and certifies J is finitary (BudgetExceeded otherwise).
        par = self.system.parabolic(J)
        self.J, self.d_J = par.J, par.d_J
        # The algebra's memoized closed forms; verify's bwj-pi-identity checks them.
        self.b_wJ, self.pi = algebra.b_wJ_and_pi(self.J)
        self._kl_memo: dict[Word, SphericalElt] = {IDENTITY: self.unit()}
        self._bar_memo: dict[Word, SphericalElt] = {IDENTITY: self.unit()}
        self._phi_memo: dict[Word, HeckeElt] = {IDENTITY: self.b_wJ}

    # -- basis ------------------------------------------------------------------

    def zero(self) -> SphericalElt:
        return SphericalElt()

    def m(self, x: Word, coeff: LaurentPoly | int = 1) -> SphericalElt:
        self.system.check_mcr(x, self.J)
        return SphericalElt.single(x, coeff)

    def unit(self) -> SphericalElt:
        return SphericalElt.wrap({IDENTITY: ONE})

    # -- the action and the bar involution ------------------------------------------

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

    def bar(self, a: SphericalElt) -> SphericalElt:
        return linear.bar(self.system, self.J, self._bar_memo, a)

    # -- KL basis ---------------------------------------------------------------------

    def kl_c(self, x: Word) -> SphericalElt:
        """c_x, by linear.kl on the module's memo; it never calls the bar."""
        return linear.kl(self.system, self.J, self._kl_memo, x)

    # -- form and embedding ---------------------------------------------------------------

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

    def pairing(self, a: SphericalElt, b: SphericalElt) -> LaurentPoly:
        """<a, b>_M, coordinatewise (the m_x are orthonormal), for a and b
        with every key an mcr."""
        for x in itertools.chain(a.support, b.support):
            self.system.check_mcr(x, self.J)
        return a.dot(b)

    # -- rendering ---------------------------------------------------------------------------

    def format(self, a: SphericalElt) -> str:
        return a.format(self.system, "m")

    def _j_names(self) -> list[str]:
        return [self.system.matrix.generators[s] for s in sorted(self.J)]

    def to_json(self, a: SphericalElt) -> dict:
        return {
            "basis": "spherical-standard",
            "J": self._j_names(),
            **a.to_json(self.system),
        }

    def from_json(self, data: dict) -> SphericalElt:
        """The inverse of to_json; JSON of another basis or another J, or
        with a key that is not a minimal coset representative, is rejected."""
        if not isinstance(data, dict):
            raise PreconditionViolated(f"expected a JSON object, got {data!r}")
        if data.get("basis") != "spherical-standard":
            raise PreconditionViolated(
                f"basis {data.get('basis')!r} is not 'spherical-standard'"
            )
        if data.get("J") != self._j_names():
            raise PreconditionViolated(
                f"J={data.get('J')!r} differs from the module's J={self._j_names()}"
            )
        out = SphericalElt.from_json(data, self.system)
        for x in out.support:
            self.system.check_mcr(x, self.J)
        return out
