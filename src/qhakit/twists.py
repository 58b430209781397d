"""Twists, the twisted structure, the quasi-cocycle condition, compatible twists.

A twist is an invertible counital element of H (x) H.  Twisting transports
a whole structure bundle: coproduct by conjugation, coassociator by the
five-factor product, canonical elements by the antipode contractions, and
the R-matrix by F^T R F^{-1}.
"""

from __future__ import annotations

from .errors import SingularError, TwistError
from .structures import (QuasiAntipode, QuasiBialgebra, _connecting_element, _memoized,
                         _require_equal)
from .tensor import LinearMap, TensorElement, contract, tensor_of

__all__ = [
    "Twist", "twist_structure", "compose_twists", "is_quasi_cocycle",
    "is_compatible", "central_to_compatible", "compatible_to_central",
    "quadratic_invariants",
]


class Twist:
    """An invertible element of H (x) H with (eps (x) 1)F = (1 (x) eps)F = 1.

    The counit property is validated eagerly (every downstream formula
    assumes it) and the inverse is cached.
    """

    def __init__(self, f: TensorElement, counit, f_inv=None, check=True):
        if f.arity != 2:
            raise TwistError("a twist lives in H (x) H")
        self.f = f
        self.counit = counit
        if f_inv is None:
            try:
                f_inv = f.invert()
            except SingularError as exc:
                raise TwistError(f"twist is not invertible: {exc}") from exc
        self.f_inv = f_inv
        if check:
            self._validate()

    def _validate(self):
        alg = self.f.algebra
        unit1 = alg.tensor_unit(1)
        unit2 = alg.tensor_unit(2)
        if self.f * self.f_inv != unit2 or self.f_inv * self.f != unit2:
            raise TwistError("cached inverse is not a two-sided inverse")
        if self.counit.on_leg(self.f, 1) != unit1 or self.counit.on_leg(self.f, 2) != unit1:
            raise TwistError("counit property fails: (eps (x) 1)F and (1 (x) eps)F must be 1")

    @classmethod
    def identity(cls, q) -> "Twist":
        unit2 = q.algebra.tensor_unit(2)
        return cls(unit2, q.counit, unit2, check=False)

    @property
    def algebra(self):
        return self.f.algebra

    def inverse(self) -> "Twist":
        return Twist(self.f_inv, self.counit, self.f, check=False)

    def power(self, m: int) -> "Twist":
        """F^m by square-and-multiply: fewer than 2 bit_length(|m|) compositions."""
        if m < 0:
            return self.inverse().power(-m)
        out, square = Twist.identity(self), self
        while m:
            if m & 1:
                out = compose_twists(out, square)
            m >>= 1
            if m:
                square = compose_twists(square, square)
        return out

    def __eq__(self, other):
        if not isinstance(other, Twist):
            return NotImplemented
        return self.f == other.f

    def __repr__(self):
        return f"Twist({self.f!r})"


def compose_twists(f: Twist, g: Twist) -> Twist:
    """The product twist FG; twisting by it equals twisting by G then by F."""
    return Twist(f.f * g.f, f.counit, g.f_inv * f.f_inv, check=False)


def _cocycle_head(q, f: TensorElement) -> TensorElement:
    """(F (x) 1)(Delta (x) 1)F Phi: the left side of the quasi-cocycle condition."""
    return f.embed((1, 2), 3) * q.coproduct.on_leg(f, 1) * q.phi


def _twisted_coproduct(q, f: Twist) -> LinearMap:
    """a -> F Delta(a) F^{-1}, materialized on the basis."""
    alg = q.algebra
    return LinearMap(alg, [f.f * q.coproduct.col(i) * f.f_inv for i in range(alg.dim)])


def twisted_coassociator(q, f: TensorElement, f_inv: TensorElement) -> TensorElement:
    """(F (x) 1) (Delta (x) 1)F  Phi  (1 (x) Delta)F^{-1} (1 (x) F^{-1})."""
    return _cocycle_head(q, f) * q.coproduct.on_leg(f_inv, 2) * f_inv.embed((2, 3), 3)


def twisted_coassociator_inv(q, f: TensorElement, f_inv: TensorElement) -> TensorElement:
    return (f.embed((2, 3), 3) * q.coproduct.on_leg(f, 2) * q.phi_inv
            * q.coproduct.on_leg(f_inv, 1) * f_inv.embed((1, 2), 3))


def twisted_alpha(h, f: Twist):
    """alpha_F = sum S(fbar_i) alpha fbar^i over the inverse twist."""
    return contract(f.f_inv, [(1, h.s), h.alpha, (2, None)])


def twisted_beta(h, f: Twist):
    """beta_F = sum f_i beta S(f^i)."""
    return contract(f.f, [(1, None), h.beta, (2, h.s)])


def twisted_antipode(h, f: Twist) -> QuasiAntipode:
    """(S, alpha_F, beta_F): the triple that twisting by F makes of h's (S, alpha, beta)."""
    return QuasiAntipode(h.s, twisted_alpha(h, f), twisted_beta(h, f), s_inv=h.s_inv)


def twist_structure(h, f: Twist, verify=True):
    """Transport a structure bundle along a twist; returns the same kind.

    The output keeps the counit and the antipode map; only the coproduct,
    coassociator, canonical elements, and R-matrix move.  It is a new
    bundle with an empty memo.
    """
    phi_f = twisted_coassociator(h, f.f, f.f_inv)
    phi_f_inv = twisted_coassociator_inv(h, f.f, f.f_inv)
    anti = twisted_antipode(h, f) if h.antipode is not None else None
    r_f = r_f_inv = None
    if h.r is not None:
        r_f = f.f.transpose() * h.r * f.f_inv
        r_f_inv = f.f * h.r_inv * f.f_inv.transpose()
    return QuasiBialgebra(h.algebra, _twisted_coproduct(h, f), h.counit, phi_f, phi_f_inv,
                          anti, r_f, r_f_inv, verify=verify)


def quasi_cocycle_sides(f: Twist, q):
    return _cocycle_head(q, f.f), q.phi * f.f.embed((2, 3), 3) * q.coproduct.on_leg(f.f, 2)


def is_quasi_cocycle(f: Twist, q) -> bool:
    """(F (x) 1)(Delta (x) 1)F Phi  ==  Phi (1 (x) F)(1 (x) Delta)F, exactly."""
    lhs, rhs = quasi_cocycle_sides(f, q)
    return lhs == rhs


def commutes_with_coproduct(f: TensorElement, q) -> bool:
    alg = q.algebra
    return all(f * q.coproduct.col(i) == q.coproduct.col(i) * f
               for i in range(alg.dim))


def is_compatible(c: Twist, q) -> bool:
    """A compatible twist commutes with the coproduct and is a quasi-cocycle."""
    return commutes_with_coproduct(c.f, q) and is_quasi_cocycle(c, q)


def central_to_compatible(z, q) -> Twist:
    """eps(z)^{-1} (z (x) z) Delta(z^{-1}) for invertible central z."""
    if not z.is_central():
        raise TwistError("element is not central")
    z_inv = z.inverse()
    eps_z = q.counit(z)
    if not eps_z:
        raise TwistError("element has counit zero")
    scale = q.algebra.field.inv(eps_z)
    c = (tensor_of(z, z) * q.coproduct(z_inv)).scale(scale)
    c_inv = (q.coproduct(z) * tensor_of(z_inv, z_inv)).scale(eps_z)
    return Twist(c, q.counit, c_inv)


def compatible_to_central(c: Twist, h):
    """The unique invertible central z with z alpha = alpha_C and beta_C z = beta.

    z connects (S, alpha, beta) to (S, alpha_C, beta_C), so it is the v of
    that pair: both closed forms of z and of z^{-1} are evaluated and
    compared, and every defining relation is asserted; any mismatch raises.
    z is central because it conjugates S(.) to itself and S is onto.
    """
    if not is_compatible(c, h):
        raise TwistError("twist is not compatible")
    z, z_inv = _connecting_element(h, twisted_antipode(h, c))
    _require_equal(z_inv, z.inverse(), "closed-form inverse disagrees with linear-solve inverse")
    return z


@_memoized
def quadratic_invariants(t, m: int):
    """Central invariant of the compatible twist (R^T R)^m, any integer m, once per (t, m)."""
    rtr = t.r.transpose() * t.r
    rtr_inv = t.r_inv * t.r_inv.transpose()
    base = Twist(rtr, t.counit, rtr_inv)
    return compatible_to_central(base.power(m), t)
