"""Exact dense linear algebra over a coefficient field.

``solve`` and ``invert_matrix`` share one integer solve, Dixon's p-adic
lifting (*Numer. Math.* 40 (1982) 137-141).  Each row of the system
[M | b] is cleared to integral numerators (``Field.clear``).  Over
Q(zeta_n) each Z[zeta_n] numerator is then expanded into its deg x deg
integer multiplication matrix on the power basis 1, zeta, ...,
zeta^(deg-1), deg = totient(n): the regular representation turns the
system into one over Z with n * deg unknowns, so both fields run the same
code.

The integer matrix is factored once modulo a word-size prime p (from
``_PRIMES``) with first-nonzero pivoting.  The factorization solves every
right-hand side mod p, and each lifting step replaces the residual r by
(r - M x_i) / p, an exact division, so that x_0 + x_1 p + ... solves the
system mod p^s.  The rationals are rebuilt from the p-adic digits by
rational reconstruction (Wang, Guy and Davenport, *SIGSAM Bull.* 16 (1982)
2-3) over one running common denominator.  A failed attempt can cost the
length of the modulus times the number of entries, so the attempts follow
a fixed geometric schedule: after step s the next is at s + max(1, s // 8),
and the last step is always tried.  The cost follows the size of the
answer, not the size of the minors.  A Hadamard bound on the answer caps
the number of steps.

Nothing is guessed; two exact certificates back every outcome:

* a solution is returned only after ``M x = b`` has been checked exactly
  on the cleared integer rows;
* if column k has no pivot mod p, columns 0..k-1 did have pivots, so they
  are independent over Q.  The combination of them that would give column
  k is lifted through the leading k x k block of the same factorization
  and checked exactly on every row.  If it holds, the matrix is singular
  and the error names column k, the first column in the span of the ones
  before it, as Gaussian elimination with first-nonzero pivoting would.
  If it does not, p was unlucky (it divides a minor) and the next prime is
  tried.  A nonzero minor has finitely many prime factors, so this ends.

Over Q(zeta_n) the first integer column in the span of the earlier ones is
the first column of the block of the first Q(zeta_n)-column in the span of
the earlier ones, so the error names the same column.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import SingularError
from .scalars import Cyclo, _product, _reduction_rows, _zeta_powers, totient

# the moduli, tried in this order: the four largest primes below 2**61
_PRIMES = (2 ** 61 - 1, 2 ** 61 - 31, 2 ** 61 - 45, 2 ** 61 - 229)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Miller-Rabin with the first twelve primes as bases, exact for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """``_PRIMES``, then every smaller prime, largest first."""
    yield from _PRIMES
    yield from filter(_is_prime, range(min(_PRIMES) - 1, 1, -1))


def _regular(order, rows, n):
    """The integer rows of the Z[zeta_order] rows [M | b], M square of size n.

    Unknown j, coefficient t becomes column j * deg + t and equation i,
    coefficient s becomes row i * deg + s: M_ij becomes the matrix whose
    column t is M_ij zeta^t, and b_i its coefficient vector.
    """
    deg = totient(order)
    powers, reduction = _zeta_powers(order)[:deg], _reduction_rows(order)
    zeros = (0,) * (deg - 1)
    out = []
    for row in rows:
        vectors = [(v,) + zeros if isinstance(v, int) else v.coeffs for v in row]
        columns = [_product(v, z, reduction) for v in vectors[:n] for z in powers]
        out.extend([col[s] for col in columns] + [v[s] for v in vectors[n:]]
                   for s in range(deg))
    return out


def _factor(a, p):
    """LU of the square int matrix ``a`` mod p, first-nonzero pivoting: (lu, perm, inverses).

    Row i of ``lu`` is row ``perm[i]`` of ``a`` mod p; left of column i it
    holds the multipliers of L, from column i on the row of U, and
    ``inverses[i]`` is 1 / U[i][i] mod p.  The factorization stops at the
    first column without a pivot, so ``len(inverses)`` is that column, or n.
    """
    n = len(a)
    lu = [[v % p for v in row] for row in a]
    perm = list(range(n))
    inverses = []
    for k in range(n):
        pivot = next((i for i in range(k, n) if lu[i][k]), None)
        if pivot is None:
            break
        lu[k], lu[pivot] = lu[pivot], lu[k]
        perm[k], perm[pivot] = perm[pivot], perm[k]
        top = lu[k]
        inv = pow(top[k], -1, p)
        inverses.append(inv)
        tail = top[k + 1:]
        for row in lu[k + 1:]:
            f = row[k]
            if f:
                f = row[k] = f * inv % p
                row[k + 1:] = [(x - f * y) % p for x, y in zip(row[k + 1:], tail)]
    return lu, perm, inverses


def _solve_mod(lu, inverses, p, r):
    """The x with (leading k x k block of L U) x = r mod p, k = len(inverses)."""
    k = len(inverses)
    x = []
    for i in range(k):
        x.append((r[i] - sum(map(mul, lu[i][:i], x))) % p)
    for i in reversed(range(k)):
        x[i] = (x[i] - sum(map(mul, lu[i][i + 1:k], x[i + 1:]))) * inverses[i] % p
    return x


def _rational(y, modulus, bound):
    """The (num, den) with num = den * y mod ``modulus``, |num| <= bound and
    0 < den <= bound, or None: the half-extended Euclidean algorithm."""
    r0, r1, s0, s1 = modulus, y, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _reconstruct(digits, modulus):
    """Rationals congruent to ``digits`` mod ``modulus``, over one common denominator.

    Returns (den, nums) with nums[c][j] / den = digits[c][j] mod modulus, or
    None.  Each entry times the running denominator is reconstructed with
    numerator and denominator at most sqrt(modulus / 2), so once the answer
    fits (and it does by the step cap of ``_lift``) it is found exactly.
    """
    bound = math.isqrt(modulus // 2)
    den, out = 1, []
    for col in digits:
        nums = []
        for x in col:
            frac = _rational(x * den % modulus, modulus, bound)
            if frac is None:
                return None
            num, d = frac
            if d != 1:
                den *= d
                if den > bound:
                    return None
                out = [[v * d for v in c] for c in out]
                nums = [v * d for v in nums]
            nums.append(num)
        out.append(nums)
    return den, out


def _lift(a, factored, p, columns):
    """The certified solution of a x = b for each int column b, or None if there is none.

    ``a`` has k columns, k = len(inverses) of ``factored`` (see
    ``_factor``), and its rows perm[:k] form the k x k block that the
    factorization inverts mod p.  The digits are lifted on that block; a
    candidate (den, nums) is returned once ``a nums[c] == den * b`` holds
    exactly on every row of ``a``.  By Cramer's rule and Hadamard's bound,
    the block's determinant and every numerator of its solution are at most
    sqrt(h), h the product over the columns j of max(|a_j|^2, |b|^2) on the
    block; p^steps > 2h makes the reconstruction exact, so None after that
    many steps means that some column has no solution.
    """
    lu, perm, inverses = factored
    k = len(inverses)
    block = [a[i] for i in perm[:k]]
    residuals = [[b[i] for i in perm[:k]] for b in columns]
    rhs = max((sum(map(mul, r, r)) for r in residuals), default=0)
    bits = sum(max(sum(map(mul, col, col)), rhs).bit_length() for col in zip(*block))
    steps = -(-(bits + 1) // (p.bit_length() - 1))
    digits = [[0] * k for _ in columns]
    modulus, attempt = 1, 1
    for step in range(1, steps + 1):
        xs = [_solve_mod(lu, inverses, p, r) for r in residuals]
        digits = [[u + modulus * v for u, v in zip(d, x)] for d, x in zip(digits, xs)]
        modulus *= p
        if step == attempt or step == steps:
            attempt = step + max(1, step // 8)
            candidate = _reconstruct(digits, modulus)
            if candidate is not None:
                den, nums = candidate
                if all(sum(map(mul, row, x)) == den * b[i]
                       for x, b in zip(nums, columns) for i, row in enumerate(a)):
                    return candidate
        residuals = [[(v - sum(map(mul, row, x))) // p for row, v in zip(block, r)]
                     for r, x in zip(residuals, xs)]
    return None


def _dixon(a, columns, width):
    """(den, nums) with ``a nums[c] == den * columns[c]`` exactly, a a square int matrix.

    If a is singular, raises SingularError for the first column in the span
    of the columns before it, numbered in blocks of ``width`` columns.
    """
    n = len(a)
    for p in _primes():
        factored = _factor(a, p)
        k = len(factored[2])
        if k == n:
            solution = _lift(a, factored, p, columns)
            assert solution is not None, "a system invertible mod p is solved within the cap"
            return solution
        if _lift([row[:k] for row in a], factored, p, [[row[k] for row in a]]) is not None:
            raise SingularError(f"singular matrix (no pivot in column {k // width})")
    raise AssertionError("a nonzero minor has finitely many prime factors")


def _solve_columns(field, matrix, columns):
    """Solve M x = b exactly for each b in ``columns``; returns the solutions in order.

    The entries may be field values or numerators (see ``Field.clear``).  One
    factorization serves every column.  Raises SingularError if M is singular.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if any(len(col) != n for col in columns):
        raise ValueError("right-hand side has wrong length")
    if not n:
        return [[] for _ in columns]
    # scaling a row of [M | b] by a nonzero number keeps the solutions
    rows = [field.clear([*row, *(col[r] for col in columns)])[0]
            for r, row in enumerate(matrix)]
    width = 1
    if field.kind == "cyclotomic":
        width = totient(field.order)
        rows = _regular(field.order, rows, n)
    size = n * width
    den, nums = _dixon([row[:size] for row in rows],
                       [[row[c] for row in rows] for c in range(size, size + len(columns))],
                       width)
    if field.kind == "rational":
        return [field.restore(x, den) for x in nums]
    return [[Cyclo._reduced(field.order, x[j:j + width], den) for j in range(0, size, width)]
            for x in nums]


def solve(field, matrix, rhs):
    """Solve M x = b exactly.  Raises SingularError if M is singular."""
    return _solve_columns(field, matrix, [rhs])[0]


def invert_matrix(field, matrix):
    """Exact matrix inverse: M x = e_j solved for every unit column e_j."""
    n = len(matrix)
    units = [[field.one if i == j else field.zero for i in range(n)] for j in range(n)]
    return [list(row) for row in zip(*_solve_columns(field, matrix, units))]
