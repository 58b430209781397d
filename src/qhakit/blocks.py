"""The rational block basis of a cyclic group algebra, and transport of a bundle into it.

By Perlis and Walker, Q[Z/n] is the direct sum over the divisors d of n of
the blocks eps_d Q[Z/n], each a copy of Q(zeta_d).  The idempotent of a
block is eps_d = (1/n) sum_k c_d(k) g^k with c_d the Ramanujan sum, and the
block has the basis eps_d g^j, 0 <= j < phi(d): the power basis of
Q(zeta_d).  Every coefficient is rational, so a bundle over Q stays over Q.
Products of elements of different blocks vanish, so the legwise product
(whose kernel skips leg pairs without structure constants) does much less
work in this basis: for Z/4, 6 of the 16 leg pairs carry structure
constants, for Z/6, 10 of 36.

``transport`` carries a bundle into the basis of ``block_basis``, on the
block algebra that ``_block_algebra`` builds once per order and field (each
product in Q[Z/n] of two columns of P, mapped by P^{-1}, through the tensor
kernel), and verifies the result in full; ``structures._block_form`` keeps
it in the bundle's memo.  The rule, stated here once: a bundle on the
``group_z<n>`` table with a nontrivial coassociator is verified in the
block basis wherever it is verified (``QuasiBialgebra``'s constructor
asks ``structures._block_form``), and its suites and ``compute`` run
there.  Precisely, a bundle is carried only when

* its algebra table is exactly e_i e_j = e_{(i+j) mod n} with unit e_0,
  over Q or Q(zeta_k): the table of ``group_z<n>``, of every file
  twisted from it and of every bundle a suite derives from one, and
* the block table has fewer structure constants than the group table's
  n^2 (not so for Z/5 and Z/7, whose power bases multiply densely), and
  its coassociator is not 1 (x) 1 (x) 1 (checked by
  ``structures._block_form``, so that such jobs never import this module).

Both rules are fixed; there is no option.  A bundle that fails
verification in the block basis is verified again in the original basis,
so refusals name original basis elements.  A bundle verified there is
decided there: each suite and computation runs once (``suites.setting``),
random twists and elements are drawn in the original basis with the same
RNG calls and carried over, and computed values are mapped back (one
``structures.Transported`` does all three).  An entry with a dynamical
family, which load checks only member by member, stays in the original
basis, so its dynamical-suite witnesses name original multi-indices.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .catalog import _group_algebra
from .errors import StructureError
from .scalars import _zeta_powers, totient
from .structures import QuasiAntipode, QuasiBialgebra, Transported
from .tensor import Algebra, LinearMap

__all__ = []

# matrix: column a holds basis vector a in group coordinates; inverse: its
# inverse, built independently; names: the basis names; constants: the number
# of nonzero structure constants in this basis
BlockBasis = namedtuple("BlockBasis", "matrix inverse names constants")


def _ramanujan(d: int, k: int) -> int:
    """c_d(k), the sum of zeta_d^(a k) over the units a mod d: an integer, so the
    constant term of that sum in the power basis of Q(zeta_d)."""
    powers = _zeta_powers(d)
    return sum(powers[a * k % d][0] for a in range(d) if math.gcd(a, d) == 1)


@lru_cache(maxsize=None)
def block_basis(n: int) -> BlockBasis:
    """The basis eps_d g^j of Q[Z/n], d | n and 0 <= j < phi(d), with its inverse.

    Column (d, j) of ``matrix`` is eps_d g^j in the group basis,
    (1/n) c_d(k - j) on g^k.  ``inverse`` comes from the other side: g^k
    is the sum over the blocks of eps_d g^(k mod d), reduced to the power
    basis by the d-th cyclotomic polynomial.  ``_block_algebra`` checks that
    the two are inverse to each other.
    """
    blocks = [(d, j) for d in range(1, n + 1) if n % d == 0 for j in range(totient(d))]
    matrix = [[Fraction(0)] * n for _ in range(n)]
    inverse = [[0] * n for _ in range(n)]
    for a, (d, j) in enumerate(blocks):
        powers = _zeta_powers(d)
        for k in range(n):
            matrix[k][a] = Fraction(_ramanujan(d, (k - j) % n), n)
            inverse[a][k] = powers[k % d][j]
    constants = sum(sum(1 for c in _zeta_powers(d)[(i + j) % d] if c)
                    for d in range(1, n + 1) if n % d == 0
                    for i in range(totient(d)) for j in range(totient(d)))
    names = tuple(f"b{d}" if j == 0 else f"b{d}g{j}" for d, j in blocks)
    return BlockBasis(tuple(map(tuple, matrix)), tuple(map(tuple, inverse)), names, constants)


def _is_group_table(alg) -> bool:
    """e_i e_j = e_{(i+j) mod n} with coefficient 1, and the unit e_0."""
    n, one = alg.dim, alg.field.one
    return (alg.unit == (one,) + (alg.field.zero,) * (n - 1)
            and alg._mult == {(i, j): {(i + j) % n: one} for i in range(n) for j in range(n)})


@lru_cache(maxsize=None)
def _block_algebra(basis: BlockBasis, field):
    """(algebra, down): the table of Q[Z/n] rebuilt on ``basis`` over ``field``, and the
    map from group coordinates to block coordinates, built once per basis and field.

    c_{ab} is P^{-1} of the product in Q[Z/n] of columns a and b of P.
    Raises StructureError unless P^{-1} P = 1 exactly.
    """
    group = _group_algebra(len(basis.matrix), field)
    up = LinearMap.from_matrix(group, basis.matrix)
    down = LinearMap.from_matrix(group, basis.inverse)
    if down.compose(up) != LinearMap.identity(group):
        raise StructureError("block basis: P^{-1} P is not the identity")
    mult = {(a, b): down(x * y).coeffs
            for a, x in enumerate(up.columns) for b, y in enumerate(up.columns)}
    alg = Algebra(field, group.dim, mult, unit=down(group.unit_element).coeffs, basis=basis.names)
    return alg, LinearMap.from_matrix(alg, basis.inverse)


def transport(s, basis: BlockBasis) -> Transported:
    """``s`` carried into ``basis`` and verified in full.

    The basis must invert exactly (P^{-1} P = 1); the coproduct, counit,
    coassociator and its inverse, the antipode and its inverse, alpha,
    beta, and R and its inverse are carried over, and ``up`` maps back onto
    ``s``'s own algebra (``original`` is None).  Raises a QhaError if the
    basis or the carried Phi does not invert, or the carried bundle fails a
    verifier.  A bundle being built, which has no Phi^{-1} yet, is given the
    carried one mapped back, so that it inverts Phi once even if refused here.
    """
    alg, down = _block_algebra(basis, s.algebra.field)
    up = LinearMap.from_matrix(s.algebra, basis.matrix)
    vectors = up.columns

    def mapped(m):
        return LinearMap(alg, [down.map_tensor(m(v)) for v in vectors])

    def carried(t):
        return None if t is None else down.map_tensor(t)

    phi, phi_inv = carried(s.phi), carried(s.phi_inv)
    if phi_inv is None:
        phi_inv = phi.invert()
        s.phi_inv = up.map_tensor(phi_inv)
    anti = None
    if s.antipode is not None:
        anti = QuasiAntipode(mapped(s.s), carried(s.alpha), carried(s.beta),
                             s_inv=mapped(s.s_inv))
    out = QuasiBialgebra(alg, mapped(s.coproduct),
                         LinearMap.scalar_map(alg, [s.counit(v) for v in vectors]),
                         phi, phi_inv, anti, carried(s.r), carried(s.r_inv))
    return Transported(None, out, down, up)


def _selected(alg):
    """The block basis for ``alg`` if the rules pick it (see the module docstring), else None."""
    if not _is_group_table(alg):
        return None
    basis = block_basis(alg.dim)
    return basis if basis.constants < alg.dim ** 2 else None

