"""Built-in example structures.

Five entries ship: a one-dimensional structure, cyclic group algebras,
the triangular structure on k[Z/2], Sweedler's four-dimensional algebra
(the smallest with S^2 != id), and the semion structure on k[Z/2] over
Q(zeta_4), whose coassociator is genuinely nontrivial.  Every entry
passes the full verifier battery at build time (in the rational block
basis where the rule of :mod:`qhakit.blocks` applies: the semion).
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .errors import CatalogError
from .scalars import RATIONAL, cyclotomic_field
from .structures import QuasiAntipode, QuasiBialgebra
from .tensor import Algebra, LinearMap, tensor_of

# canonical spelling only: ASCII digits, no leading zero, nothing after them
_GROUP_RE = re.compile(r"group_z(0|[1-9][0-9]*)")

# the cap the file format puts on cyclotomic orders; the n x n multiplication
# table of group_z<n> takes about 7 s to build and verify at n = 128
MAX_GROUP_ORDER = 256


# structure: a QuasiBialgebra with a quasi-antipode, and an R-matrix or none;
# dynamical: an optional DynamicalTwist family
CatalogEntry = namedtuple("CatalogEntry", "name structure dynamical", defaults=(None,))


def builtin(name: str) -> CatalogEntry:
    """Look up a built-in entry; group algebras parametrize as group_z<n>."""
    if name == "trivial":
        return _trivial()
    match = _GROUP_RE.fullmatch(name)
    if match:
        digits = match.group(1)
        # no leading zero: more than three digits is past the cap, and int()
        # is never handed an over-long numeral
        if len(digits) > 3 or int(digits) > MAX_GROUP_ORDER:
            raise CatalogError(f"group order must be at most {MAX_GROUP_ORDER}")
        n = int(digits)
        if n < 1:
            raise CatalogError("group order must be positive")
        return _group_zn(n)
    if name == "z2_triangular":
        return _z2_triangular()
    if name == "sweedler_h4":
        return _sweedler_h4()
    if name == "semion":
        return _semion()
    raise CatalogError(
        f"unknown builtin {name!r}; available: trivial, group_z<n>, "
        "z2_triangular, sweedler_h4, semion")


def default_entries() -> list[CatalogEntry]:
    """The standard five-entry catalog used by the test suites."""
    return [builtin(n) for n in
            ("trivial", "group_z3", "z2_triangular", "sweedler_h4", "semion")]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _group_algebra(n: int, field) -> Algebra:
    mult = {(i, j): {(i + j) % n: 1} for i in range(n) for j in range(n)}
    names = ["1"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return Algebra(field, n, mult, basis=names)


def _group_hopf(alg: Algebra, r=None, r_inv=None) -> QuasiBialgebra:
    """The group algebra ``alg`` of Z/n with its grouplike Hopf structure and R-matrix ``r``."""
    n = alg.dim
    delta = LinearMap(alg, [tensor_of(alg.basis_element(k), alg.basis_element(k))
                            for k in range(n)])
    counit = LinearMap.scalar_map(alg, [1] * n)
    s = LinearMap(alg, [alg.basis_element((n - k) % n) for k in range(n)])
    anti = QuasiAntipode(s, alg.unit_element, alg.unit_element, s_inv=s)
    return QuasiBialgebra(alg, delta, counit, alg.tensor_unit(3), alg.tensor_unit(3), anti,
                          r, r_inv)


def _trivial() -> CatalogEntry:
    """The one-dimensional structure; every derived operator equals 1."""
    alg = _group_algebra(1, RATIONAL)
    return CatalogEntry("trivial", _group_hopf(alg, alg.tensor_unit(2), alg.tensor_unit(2)))


def _group_zn(n: int) -> CatalogEntry:
    """The group algebra of Z/n: grouplike coproduct, trivial coassociator."""
    return CatalogEntry(f"group_z{n}", _group_hopf(_group_algebra(n, RATIONAL)))


def _z2_triangular() -> CatalogEntry:
    """k[Z/2] with the nontrivial triangular R-matrix."""
    alg = _group_algebra(2, RATIONAL)
    half = Fraction(1, 2)
    one, g = alg.unit_element, alg.basis_element(1)
    r = (tensor_of(one, one) + tensor_of(one, g) + tensor_of(g, one)
         - tensor_of(g, g)).scale(half)
    qt = _group_hopf(alg, r)
    return CatalogEntry("z2_triangular", qt, _z2_dynamical(qt))


def _sweedler_h4() -> CatalogEntry:
    """Sweedler's four-dimensional algebra, g^2 = 1, x^2 = 0, xg = -gx, with S^2 != id
    (S has order 4) and its standard R-matrix at parameter 1."""
    field = RATIONAL
    # basis 1, g, x, gx
    mult = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
        (1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {3: 1}, (1, 3): {2: 1},
        (2, 0): {2: 1}, (2, 1): {3: -1}, (2, 2): {}, (2, 3): {},
        (3, 0): {3: 1}, (3, 1): {2: -1}, (3, 2): {}, (3, 3): {},
    }
    alg = Algebra(field, 4, mult, basis=["1", "g", "x", "gx"])
    one, g, x, gx = (alg.basis_element(i) for i in range(4))
    delta = LinearMap(alg, [
        tensor_of(one, one),
        tensor_of(g, g),
        tensor_of(x, one) + tensor_of(g, x),
        tensor_of(gx, g) + tensor_of(one, gx),
    ])
    counit = LinearMap.scalar_map(alg, [1, 1, 0, 0])
    s = LinearMap(alg, [one, g, -gx, x])

    # the standard one-parameter R-matrix family, frozen at parameter 1
    lam = Fraction(1)
    half = Fraction(1, 2)
    r0 = (tensor_of(one, one) + tensor_of(one, g) + tensor_of(g, one)
          - tensor_of(g, g)).scale(half)
    r1 = (tensor_of(x, x) - tensor_of(x, gx) + tensor_of(gx, x)
          + tensor_of(gx, gx)).scale(half * lam)
    qt = QuasiBialgebra(alg, delta, counit, alg.tensor_unit(3), alg.tensor_unit(3),
                        QuasiAntipode(s, one, one), r0 + r1)
    return CatalogEntry("sweedler_h4", qt)


def _semion() -> CatalogEntry:
    """k[Z/2] over Q(zeta_4), genuinely quasi: coassociator 1 - 2 p(x)p(x)p with
    p = (1-g)/2 and Phi^2 = 1, and an R-matrix entry at a primitive fourth root of unity."""
    field = cyclotomic_field(4)
    alg = Algebra(field, 2,
                  {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}},
                  basis=["1", "g"])
    one, g = alg.unit_element, alg.basis_element(1)
    half = Fraction(1, 2)
    p = half * one - half * g
    delta = LinearMap(alg, [tensor_of(one, one), tensor_of(g, g)])
    counit = LinearMap.scalar_map(alg, [1, 1])
    s = LinearMap.identity(alg)
    phi = alg.tensor_unit(3) - tensor_of(p, p, p).scale(2)
    r = alg.tensor_unit(2) + tensor_of(p, p).scale(field.zeta - 1)
    qt = QuasiBialgebra(alg, delta, counit, phi, phi, QuasiAntipode(s, g, one, s_inv=s), r)
    return CatalogEntry("semion", qt)


def _z2_dynamical(qt: QuasiBialgebra):
    """A one-parameter twist family on k[Z/2] solving the shifted cocycle condition.

    The shift acts through the idempotents (1+g)/2, (1-g)/2 with weights
    (0, 1); solving the resulting scalar functional equation over a
    half-integer grid forces the free coefficient to be 1-periodic, so a
    nonconstant solution alternates between the integer and half-integer
    classes of the grid.
    """
    from .dynamical import DynamicalTwist, ShiftSystem
    from .twists import Twist

    alg = qt.algebra
    one, g = alg.unit_element, alg.basis_element(1)
    half = Fraction(1, 2)
    p0 = half * one + half * g
    p1 = half * one - half * g
    shift = ShiftSystem([p0, p1], [Fraction(0), Fraction(1)])
    domain = [Fraction(k, 2) for k in range(0, 5)]  # 0, 1/2, 1, 3/2, 2

    def twist_at(lam: Fraction) -> Twist:
        # coefficient on p (x) p: 2 on the integer class, 3/4 on the half-integer class
        t = Fraction(2) if lam.denominator == 1 else Fraction(3, 4)
        f = alg.tensor_unit(2) + tensor_of(p1, p1).scale(t - 1)
        f_inv = alg.tensor_unit(2) + tensor_of(p1, p1).scale(1 / t - 1)
        return Twist(f, qt.counit, f_inv)

    return DynamicalTwist(domain, {lam: twist_at(lam) for lam in domain}, shift)
