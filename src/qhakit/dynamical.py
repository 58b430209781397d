"""Parameter-dependent twists: shifted cocycles and the quasi-dynamical QYBE.

The shift lambda + h^(k) acts through a complete system of orthogonal
central idempotents p_i with rational weights w_i: inserting a family
member with leg k shifted means summing p_i on leg k against the member
at lambda + w_i on the remaining legs.  The parameter domain is a finite
rational grid; checks run on the sub-grid where every needed shift stays
inside the domain.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (ArityMismatch, ConsistencyError, DomainError,
                     StructureError, TwistError)
from .report import Report
from .structures import QuasiBialgebra, _mapped_structure
from .tensor import LinearMap, TensorElement
from .twists import (Twist, twisted_coassociator, twisted_coassociator_inv)

__all__ = [
    "ShiftSystem", "DynamicalTwist", "shifted_insert",
    "check_shifted_quasi_cocycle", "dynamical_coassociator",
    "check_dynamical_coproduct", "check_qdqybe", "check_opposite_qdqybe",
    "constant_family",
]


class ShiftSystem:
    """Central orthogonal idempotents summing to 1, each carrying a rational weight."""

    def __init__(self, idempotents, weights, check=True):
        if len(idempotents) != len(weights):
            raise StructureError("one weight per idempotent")
        if not idempotents:
            raise StructureError("a shift system needs at least one idempotent")
        self.idempotents = list(idempotents)
        self.weights = [Fraction(w) for w in weights]
        if check:
            self._validate()

    def _validate(self):
        alg = self.idempotents[0].algebra
        total = alg.zero_element()
        for i, p in enumerate(self.idempotents):
            if not p.is_central():
                raise StructureError(f"shift idempotent {i} is not central")
            for j, q in enumerate(self.idempotents):
                expect = p if i == j else alg.zero_element()
                if p * q != expect:
                    raise StructureError(f"shift idempotents {i}, {j} are not orthogonal")
            total = total + p
        if total != alg.unit_element:
            raise StructureError("shift idempotents do not sum to 1")

    @property
    def algebra(self):
        return self.idempotents[0].algebra

    def element(self):
        """The fixed element h = sum w_i p_i realizing the shift."""
        out = self.algebra.zero_element()
        for p, w in zip(self.idempotents, self.weights):
            out = out + w * p
        return out

    def mapped(self, m: LinearMap) -> "ShiftSystem":
        """Transport the idempotents along an (anti)automorphism, keeping weights."""
        return ShiftSystem([m(p) for p in self.idempotents], self.weights)


class DynamicalTwist:
    """A finite family of twists lambda -> F(lambda) with a shift system."""

    def __init__(self, domain, twists, shift: ShiftSystem, check=True):
        self.domain = tuple(sorted(Fraction(x) for x in domain))
        self.twists = {Fraction(k): v for k, v in twists.items()}
        self.shift = shift
        if check:
            if set(self.domain) != set(self.twists):
                raise StructureError("twist table keys must equal the domain")
            for lam, tw in self.twists.items():
                if not isinstance(tw, Twist):
                    raise TwistError(f"entry at {lam} is not a twist")
            if not self.checkable():
                raise StructureError(
                    "no grid point has all its shifted parameters inside the domain")

    def checkable(self):
        """The sub-grid where every shift lands inside the domain."""
        dom = set(self.domain)
        return [lam for lam in self.domain
                if all(lam + w in dom for w in self.shift.weights)]

    def twist(self, lam) -> Twist:
        lam = Fraction(lam)
        try:
            return self.twists[lam]
        except KeyError:
            raise DomainError(f"parameter {lam} outside the family domain") from None

    def f(self, lam) -> TensorElement:
        return self.twist(lam).f

    def f_inv(self, lam) -> TensorElement:
        return self.twist(lam).f_inv


def _insert_shifted(shift: ShiftSystem, lam, leg: int, arity: int, table) -> TensorElement:
    """sum_i (p_i on the named leg) * (table(lambda + w_i) on the remaining legs)."""
    if not 1 <= leg <= arity:
        raise ArityMismatch(f"leg {leg} out of range for arity {arity}")
    rest = tuple(p for p in range(1, arity + 1) if p != leg)
    alg = shift.algebra
    out = alg.tensor_zero(arity)
    for p, w in zip(shift.idempotents, shift.weights):
        member = table(lam + w)
        if member.arity != len(rest):
            raise ArityMismatch("family member arity does not fit the remaining legs")
        out = out + p.to_tensor().embed((leg,), arity) * member.embed(rest, arity)
    return out


def shifted_insert(dyn: DynamicalTwist, lam, leg: int, arity: int = 3) -> TensorElement:
    """F(lambda + h^(leg)) realized inside H^(x)arity."""
    lam = Fraction(lam)
    return _insert_shifted(dyn.shift, lam, leg, arity, dyn.f)


def shifted_cocycle_sides(dyn: DynamicalTwist, q, lam):
    lam = Fraction(lam)
    f = dyn.f(lam)
    delta = q.coproduct
    lhs = f.embed((1, 2), 3) * delta.on_leg(f, 1) * q.phi
    rhs = q.phi * _insert_shifted(dyn.shift, lam, 1, 3, dyn.f) * delta.on_leg(f, 2)
    return lhs, rhs


def check_shifted_quasi_cocycle(dyn: DynamicalTwist, q) -> Report:
    """The shifted cocycle identity, exactly, at every checkable grid point."""
    rep = Report("shifted-cocycle")
    for lam in dyn.checkable():
        lhs, rhs = shifted_cocycle_sides(dyn, q, lam)
        rep.add_equal(f"E43@{lam}", lhs, rhs)
    return rep


def dynamical_coassociator(dyn: DynamicalTwist, h, lam) -> TensorElement:
    """The coassociator of the twisted structure at lambda, by two routes.

    Route (a) is the plain five-factor twist formula; route (b) is the
    telescoped closed form Phi F_23(lambda + h^(1)) F_23(lambda)^{-1}.
    Both (and both routes for the inverse) must agree exactly, which
    holds precisely when the family satisfies the shifted condition there.
    """
    lam = Fraction(lam)
    f, f_inv = dyn.f(lam), dyn.f_inv(lam)
    direct = twisted_coassociator(h, f, f_inv)
    closed = (h.phi * _insert_shifted(dyn.shift, lam, 1, 3, dyn.f)
              * f_inv.embed((2, 3), 3))
    if direct != closed:
        raise ConsistencyError(
            f"coassociator routes disagree at {lam} (shifted condition fails there?)")
    direct_inv = twisted_coassociator_inv(h, f, f_inv)
    closed_inv = (f.embed((2, 3), 3)
                  * _insert_shifted(dyn.shift, lam, 1, 3, dyn.f_inv) * h.phi_inv)
    if direct_inv != closed_inv:
        raise ConsistencyError(f"inverse coassociator routes disagree at {lam}")
    return closed


def _dynamical_pieces(dyn: DynamicalTwist, t: QuasiBialgebra, lam):
    lam = Fraction(lam)
    tw = dyn.twist(lam)

    def r_at(mu):
        ftw = dyn.twist(mu)
        return ftw.f.transpose() * t.r * ftw.f_inv

    r_lam = r_at(lam)
    cols = [tw.f * t.coproduct.col(i) * tw.f_inv for i in range(t.algebra.dim)]
    delta_lam = LinearMap(t.algebra, cols)
    phi_lam = (t.phi * _insert_shifted(dyn.shift, lam, 1, 3, dyn.f)
               * tw.f_inv.embed((2, 3), 3))
    phi_lam_inv = (tw.f.embed((2, 3), 3)
                   * _insert_shifted(dyn.shift, lam, 1, 3, dyn.f_inv) * t.phi_inv)
    return r_at, r_lam, delta_lam, phi_lam, phi_lam_inv


def check_dynamical_coproduct(dyn: DynamicalTwist, t: QuasiBialgebra, lam) -> Report:
    """The four coproduct identities of the dynamical R-matrix at one grid point."""
    lam = Fraction(lam)
    rep = Report("dynamical-coproduct")
    r_at, r_lam, delta_lam, phi_lam, phi_lam_inv = _dynamical_pieces(dyn, t, lam)
    phi, phi_inv = t.phi, t.phi_inv
    shift = dyn.shift

    r13 = r_lam.embed((1, 3), 3)
    r12 = r_lam.embed((1, 2), 3)
    r23 = r_lam.embed((2, 3), 3)
    r23_h1 = _insert_shifted(shift, lam, 1, 3, r_at)
    r13_h2 = _insert_shifted(shift, lam, 2, 3, r_at)
    r12_h3 = _insert_shifted(shift, lam, 3, 3, r_at)

    lhs = delta_lam.on_leg(r_lam, 1)
    rhs = (phi_lam_inv.perm((2, 3, 1)) * r13 * phi.perm((1, 3, 2)) * r23_h1 * phi_inv)
    rep.add_equal("E46.i", lhs, rhs)

    lhs = delta_lam.on_leg(r_lam, 2)
    rhs = (phi.perm((3, 1, 2)) * r13_h2 * phi_inv.perm((2, 1, 3)) * r12 * phi_lam)
    rep.add_equal("E46.ii", lhs, rhs)

    delta_lam_t = delta_lam.swapped()
    lhs = delta_lam_t.on_leg(r_lam, 1)
    rhs = (phi_lam_inv.perm((3, 2, 1)) * r23 * phi.perm((3, 1, 2)) * r13_h2
           * phi_inv.perm((2, 1, 3)))
    rep.add_equal("E46.iii", lhs, rhs)

    lhs = delta_lam_t.on_leg(r_lam, 2)
    rhs = (phi.perm((3, 2, 1)) * r12_h3 * phi_inv.perm((2, 3, 1)) * r13
           * phi_lam.perm((1, 3, 2)))
    rep.add_equal("E46.iv", lhs, rhs)
    return rep


def qdqybe_sides(dyn: DynamicalTwist, t: QuasiBialgebra, lam):
    lam = Fraction(lam)
    r_at, r_lam, _, _, _ = _dynamical_pieces(dyn, t, lam)
    phi, phi_inv = t.phi, t.phi_inv
    shift = dyn.shift
    r13 = r_lam.embed((1, 3), 3)
    r12 = r_lam.embed((1, 2), 3)
    r23 = r_lam.embed((2, 3), 3)
    r23_h1 = _insert_shifted(shift, lam, 1, 3, r_at)
    r13_h2 = _insert_shifted(shift, lam, 2, 3, r_at)
    r12_h3 = _insert_shifted(shift, lam, 3, 3, r_at)
    lhs = (r12_h3 * phi_inv.perm((2, 3, 1)) * r13 * phi.perm((1, 3, 2))
           * r23_h1 * phi_inv)
    rhs = (phi_inv.perm((3, 2, 1)) * r23 * phi.perm((3, 1, 2)) * r13_h2
           * phi_inv.perm((2, 1, 3)) * r12)
    return lhs, rhs


def check_qdqybe(dyn: DynamicalTwist, t: QuasiBialgebra, lam) -> bool:
    """The quasi-dynamical QYBE at one grid point, exactly."""
    lhs, rhs = qdqybe_sides(dyn, t, lam)
    return lhs == rhs


def check_classical_dqybe(dyn: DynamicalTwist, t: QuasiBialgebra, lam) -> bool:
    """The plain dynamical QYBE (no coassociators), for trivial-coassociator reductions."""
    lam = Fraction(lam)
    r_at, r_lam, _, _, _ = _dynamical_pieces(dyn, t, lam)
    shift = dyn.shift
    lhs = (_insert_shifted(shift, lam, 3, 3, r_at) * r_lam.embed((1, 3), 3)
           * _insert_shifted(shift, lam, 1, 3, r_at))
    rhs = (r_lam.embed((2, 3), 3) * _insert_shifted(shift, lam, 2, 3, r_at)
           * r_lam.embed((1, 2), 3))
    return lhs == rhs


_OPPOSITE_VARIANTS = ("primed", "zero", "transpose")


def check_opposite_qdqybe(dyn: DynamicalTwist, t: QuasiBialgebra,
                          variant: str, lam) -> bool:
    """The opposite quasi-dynamical QYBE for the primed, zero, or transposed family.

    Each variant pairs the transported R-matrix family with its matching
    coassociator; for the antipode variants the shift idempotents are
    transported along the same map.
    """
    if variant not in _OPPOSITE_VARIANTS:
        raise ValueError(f"variant must be one of {_OPPOSITE_VARIANTS}")
    lam = Fraction(lam)
    r_at, _, _, _, _ = _dynamical_pieces(dyn, t, lam)

    if variant == "transpose":
        phi_t = t.phi_inv.perm((3, 2, 1))
        phi_t_inv = t.phi.perm((3, 2, 1))
        table = lambda mu: r_at(mu).transpose()
        shift = dyn.shift
    else:
        mapper = t.s if variant == "primed" else t.s_inv
        mapped = _mapped_structure(t, mapper, verify=False)
        phi_t, phi_t_inv = mapped.phi, mapped.phi_inv
        table = lambda mu: mapper.map_tensor(r_at(mu))
        shift = dyn.shift.mapped(mapper)

    rt_lam = table(lam)
    rt23_h1 = _insert_shifted(shift, lam, 1, 3, table)
    rt13_h2 = _insert_shifted(shift, lam, 2, 3, table)
    rt12_h3 = _insert_shifted(shift, lam, 3, 3, table)
    lhs = (rt_lam.embed((1, 2), 3) * phi_t_inv.perm((2, 3, 1)) * rt13_h2
           * phi_t.perm((1, 3, 2)) * rt_lam.embed((2, 3), 3) * phi_t_inv)
    rhs = (phi_t_inv.perm((3, 2, 1)) * rt23_h1 * phi_t.perm((3, 1, 2))
           * rt_lam.embed((1, 3), 3) * phi_t_inv.perm((2, 1, 3)) * rt12_h3)
    return lhs == rhs


def constant_family(q, twist: Twist, domain=None, weights=None) -> DynamicalTwist:
    """A degenerate family: one twist everywhere, shift through the unit idempotent."""
    alg = q.algebra
    if domain is None:
        domain = [Fraction(0)]
    if weights is None:
        weights = [Fraction(0)]
    shift = ShiftSystem([alg.unit_element], weights[:1])
    return DynamicalTwist(domain, {Fraction(x): twist for x in domain}, shift)
