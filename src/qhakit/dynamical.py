"""Parameter-dependent twists: shifted cocycles and the quasi-dynamical QYBE.

The shift lambda + h^(k) acts through a complete system of orthogonal
central idempotents p_i with rational weights w_i: inserting a family
member with leg k shifted means summing p_i on leg k against the member
at lambda + w_i on the remaining legs.  The parameter domain is a finite
rational grid; checks run on the sub-grid where every needed shift stays
inside the domain.

Each identity is written once: ``_r_family`` is the dynamical R-matrix
lambda -> F(lambda)^T R F(lambda)^{-1}, ``_placed`` its three plain and
three shifted placements in H^(x)3, and ``_telescoped`` the closed form
of the twisted coassociator.  The equations below are products of these.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .errors import ArityMismatch, DomainError, StructureError, TwistError
from .report import Report
from .scalars import RATIONAL
from .structures import QuasiBialgebra, _mapped_structure, _opposite, _qybe_sides, _require_equal
from .tensor import LinearMap, TensorElement
from .twists import (Twist, _cocycle_head, _twisted_coproduct, twisted_coassociator,
                     twisted_coassociator_inv)

__all__ = [
    "ShiftSystem", "DynamicalTwist", "shifted_insert",
    "check_shifted_quasi_cocycle", "dynamical_coassociator",
    "check_dynamical_coproduct", "check_qdqybe", "check_opposite_qdqybe",
    "constant_family",
]


class ShiftSystem:
    """Central orthogonal idempotents summing to 1, each carrying a rational weight."""

    def __init__(self, idempotents, weights):
        if len(idempotents) != len(weights):
            raise StructureError("one weight per idempotent")
        if not idempotents:
            raise StructureError("a shift system needs at least one idempotent")
        self.idempotents = list(idempotents)
        self.weights = [RATIONAL.coerce(w) for w in weights]
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

    def __init__(self, domain, twists, shift: ShiftSystem):
        self.domain = tuple(sorted(RATIONAL.coerce(x) for x in domain))
        self.twists = {RATIONAL.coerce(k): v for k, v in twists.items()}
        self.shift = shift
        for lam, nxt in zip(self.domain, self.domain[1:]):
            if lam == nxt:  # each check would run twice at a repeated grid point
                raise StructureError(f"domain value {lam} is repeated")
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
        lam = RATIONAL.coerce(lam)
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
        out = out + p.embed((leg,), arity) * member.embed(rest, arity)
    return out


def shifted_insert(dyn: DynamicalTwist, lam, leg: int, arity: int = 3) -> TensorElement:
    """F(lambda + h^(leg)) realized inside H^(x)arity."""
    return _insert_shifted(dyn.shift, RATIONAL.coerce(lam), leg, arity, dyn.f)


def _r_family(dyn: DynamicalTwist, t: QuasiBialgebra):
    """The dynamical R-matrix mu -> F(mu)^T R F(mu)^{-1}."""
    def r_at(mu):
        tw = dyn.twist(mu)
        return tw.f.transpose() * t.r * tw.f_inv
    return r_at


def _placed(shift: ShiftSystem, lam, table):
    """R12, R13, R23 of ``table(lambda)`` and the shifted R12(h3), R13(h2), R23(h1).

    ``table`` is evaluated once per distinct parameter within one call.
    """
    member = lru_cache(maxsize=None)(table)
    r = member(lam)
    return (r.embed((1, 2), 3), r.embed((1, 3), 3), r.embed((2, 3), 3),
            _insert_shifted(shift, lam, 3, 3, member), _insert_shifted(shift, lam, 2, 3, member),
            _insert_shifted(shift, lam, 1, 3, member))


def _telescoped(dyn: DynamicalTwist, h, lam):
    """Phi F_23(lambda + h^(1)) F_23(lambda)^{-1} and its inverse."""
    tw = dyn.twist(lam)
    return (h.phi * _insert_shifted(dyn.shift, lam, 1, 3, dyn.f) * tw.f_inv.embed((2, 3), 3),
            tw.f.embed((2, 3), 3) * _insert_shifted(dyn.shift, lam, 1, 3, dyn.f_inv)
            * h.phi_inv)


def shifted_cocycle_sides(dyn: DynamicalTwist, q, lam):
    lam = RATIONAL.coerce(lam)
    f = dyn.f(lam)
    rhs = q.phi * _insert_shifted(dyn.shift, lam, 1, 3, dyn.f) * q.coproduct.on_leg(f, 2)
    return _cocycle_head(q, f), rhs


def check_shifted_quasi_cocycle(dyn: DynamicalTwist, q) -> Report:
    """The shifted cocycle identity, exactly, at every checkable grid point."""
    rep = Report("shifted-cocycle")
    for lam in dyn.checkable():
        rep.add_equal(f"E43@{lam}", lambda: shifted_cocycle_sides(dyn, q, lam))
    return rep


def dynamical_coassociator(dyn: DynamicalTwist, h, lam) -> TensorElement:
    """The coassociator of the twisted structure at lambda, by two routes.

    Route (a) is the plain five-factor twist formula; route (b) is the
    telescoped closed form Phi F_23(lambda + h^(1)) F_23(lambda)^{-1}.
    Both (and both routes for the inverse) must agree exactly, which
    holds precisely when the family satisfies the shifted condition there.
    """
    lam = RATIONAL.coerce(lam)
    f, f_inv = dyn.f(lam), dyn.f_inv(lam)
    closed, closed_inv = _telescoped(dyn, h, lam)
    _require_equal(twisted_coassociator(h, f, f_inv), closed,
                   f"coassociator routes disagree at {lam} (shifted condition fails there?)")
    _require_equal(twisted_coassociator_inv(h, f, f_inv), closed_inv,
                   f"inverse coassociator routes disagree at {lam}")
    return closed


def check_dynamical_coproduct(dyn: DynamicalTwist, t: QuasiBialgebra, lam) -> Report:
    """The four coproduct identities of the dynamical R-matrix at one grid point."""
    lam = RATIONAL.coerce(lam)
    rep = Report("dynamical-coproduct")
    r_at = lru_cache(maxsize=None)(_r_family(dyn, t))   # R(lambda) is used again below
    placed = cache(lambda: _placed(dyn.shift, lam, r_at))
    delta_lam = cache(lambda: _twisted_coproduct(t, dyn.twist(lam)))
    delta_lam_t = cache(lambda: delta_lam().swapped())
    telescoped = cache(lambda: _telescoped(dyn, t, lam))

    def sides(identity):
        r12, r13, r23, r12_h3, r13_h2, r23_h1 = placed()
        (phi_lam, phi_lam_inv), r_lam = telescoped(), r_at(lam)
        if identity == "i":
            return (delta_lam().on_leg(r_lam, 1),
                    phi_lam_inv.perm((2, 3, 1)) * r13 * t.phi.perm((1, 3, 2)) * r23_h1 * t.phi_inv)
        if identity == "ii":
            return (delta_lam().on_leg(r_lam, 2),
                    t.phi.perm((3, 1, 2)) * r13_h2 * t.phi_inv.perm((2, 1, 3)) * r12 * phi_lam)
        if identity == "iii":
            return (delta_lam_t().on_leg(r_lam, 1),
                    phi_lam_inv.perm((3, 2, 1)) * r23 * t.phi.perm((3, 1, 2)) * r13_h2
                    * t.phi_inv.perm((2, 1, 3)))
        return (delta_lam_t().on_leg(r_lam, 2),
                t.phi.perm((3, 2, 1)) * r12_h3 * t.phi_inv.perm((2, 3, 1)) * r13
                * phi_lam.perm((1, 3, 2)))

    for identity in ("i", "ii", "iii", "iv"):
        rep.add_equal(f"E46.{identity}", lambda: sides(identity))
    return rep


def qdqybe_sides(dyn: DynamicalTwist, t: QuasiBialgebra, lam):
    lam = RATIONAL.coerce(lam)
    r12, r13, r23, r12_h3, r13_h2, r23_h1 = _placed(dyn.shift, lam, _r_family(dyn, t))
    return _qybe_sides(t.phi, t.phi_inv, (r12_h3, r13, r23_h1), (r23, r13_h2, r12))


def check_qdqybe(dyn: DynamicalTwist, t: QuasiBialgebra, lam) -> bool:
    """The quasi-dynamical QYBE at one grid point, exactly."""
    lhs, rhs = qdqybe_sides(dyn, t, lam)
    return lhs == rhs


def check_classical_dqybe(dyn: DynamicalTwist, t: QuasiBialgebra, lam) -> bool:
    """The plain dynamical QYBE (no coassociators), for trivial-coassociator reductions."""
    lam = RATIONAL.coerce(lam)
    r12, r13, r23, r12_h3, r13_h2, r23_h1 = _placed(dyn.shift, lam, _r_family(dyn, t))
    return r12_h3 * r13 * r23_h1 == r23 * r13_h2 * r12


_OPPOSITE_VARIANTS = ("primed", "zero", "transpose")


def check_opposite_qdqybe(dyn: DynamicalTwist, t: QuasiBialgebra,
                          variant: str, lam) -> bool:
    """The opposite quasi-dynamical QYBE for the primed, zero, or transposed family.

    Each variant pairs the transported R-matrix family with the coassociator
    of its bundle in the memo (H^cop, primed or zero); for the antipode
    variants the shift idempotents are transported along the same map.
    """
    if variant not in _OPPOSITE_VARIANTS:
        raise ValueError(f"variant must be one of {_OPPOSITE_VARIANTS}")
    lam = RATIONAL.coerce(lam)
    r_at = _r_family(dyn, t)

    if variant == "transpose":
        bundle = _opposite(t)
        table = lambda mu: r_at(mu).transpose()
        shift = dyn.shift
    else:
        mapper = t.s if variant == "primed" else t.s_inv
        bundle = _mapped_structure(t, variant == "primed")
        table = lambda mu: mapper.map_tensor(r_at(mu))
        shift = dyn.shift.mapped(mapper)

    r12, r13, r23, r12_h3, r13_h2, r23_h1 = _placed(shift, lam, table)
    lhs, rhs = _qybe_sides(bundle.phi, bundle.phi_inv, (r12, r13_h2, r23), (r23_h1, r13, r12_h3))
    return lhs == rhs


def constant_family(q, twist: Twist, domain=(0,)) -> DynamicalTwist:
    """A degenerate family: one twist everywhere, shift through the unit idempotent (weight 0)."""
    shift = ShiftSystem([q.algebra.unit_element], [0])
    return DynamicalTwist(domain, {x: twist for x in domain}, shift)
