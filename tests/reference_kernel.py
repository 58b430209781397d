"""The field-valued tensor kernel, two eliminations and Fraction Q(zeta_n), kept as oracles.

This is the product kernel and the elimination that ``qhakit.tensor`` and
``qhakit.linalg`` used before they moved to numerators over a common
denominator, with the linear structure (``add``, ``sub``, ``neg``,
``scale``) beside it.  Every scalar operation here is a field operation on
``Fraction`` or ``Cyclo`` values read from ``entries``/``coeffs``, and
every entry is normalised as it is formed; each result is handed to the
public ``TensorElement`` constructor.  So each function is the plain
definition the numerator kernel must agree with, entry by entry and error
text by error text.  Nothing under ``src/`` imports this module.

The ``bareiss_*`` functions are the fraction-free elimination that
``qhakit.linalg`` ran before its p-adic solve, with the exact division by
a Z[zeta_n] pivot (``divider``) and the restore over a Z[zeta_n]
denominator (``restore``) it needed: a second elimination oracle, on
numerators, beside the Gaussian one.  ``nullspace`` is a Gauss-Jordan
kernel basis that only tests need.  ``paired`` is the four-leg expansion
that ``qhakit.drinfeld._paired`` formed before it grouped its sum by the
first index.

The ``cyclo_*`` functions are the Q(zeta_n) arithmetic ``Cyclo`` used
before it moved to int vectors over one denominator: polynomials with
``Fraction`` coefficients (ascending), reduced modulo the cyclotomic
polynomial by long division, and inverted by the extended Euclidean
algorithm.  They share no code with ``qhakit.scalars``.

The two table builders are kept as they ran before they moved onto the
numerator tables: ``algebra_check`` is the unit and associativity check
of ``Algebra._check`` by products of basis elements, and ``block_algebra``
is ``blocks._block_algebra`` by a ``Fraction`` convolution in group
coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from qhakit.errors import AlgebraError, SingularError, StructureError
from qhakit.scalars import _Integral
from qhakit.tensor import AlgElement, Algebra, LinearMap, TensorElement


def _trim(poly):
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _poly_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_divmod(a, b):
    a, b = _trim([Fraction(c) for c in a]), _trim([Fraction(c) for c in b])
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        c = q[shift] = a[-1] / b[-1]
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        _trim(a)
    return _trim(q), a


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Phi_n with Fraction coefficients: x^n - 1 over the Phi_d of the proper divisors d."""
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic(d))
            assert not rem
    return tuple(poly)


def cyclo_reduce(order, poly):
    """The coefficients of ``poly`` mod Phi_order, padded to the degree of Phi_order."""
    modulus = cyclotomic(order)
    rem = _poly_divmod(poly, modulus)[1]
    return tuple(rem + [Fraction(0)] * (len(modulus) - 1 - len(rem)))


def cyclo_mul(order, a, b):
    return cyclo_reduce(order, _poly_mul(list(a), list(b)))


def cyclo_inverse(order, a):
    """The inverse of ``a`` mod Phi_order, by the extended Euclidean algorithm."""
    r0, r1 = _trim([Fraction(c) for c in a]), list(cyclotomic(order))
    if not r0:
        raise SingularError("division by zero in cyclotomic field")
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    assert len(r0) == 1, "the gcd with an irreducible modulus is a constant"
    return cyclo_reduce(order, [c / r0[0] for c in s0])


def _acc(entries, key, value):
    cur = entries.get(key)
    if cur is None:
        if value:
            entries[key] = value
        return
    cur = cur + value
    if cur:
        entries[key] = cur
    else:
        del entries[key]


def expand(out, coeff, legs):
    """Add ``coeff * legs[0] (x) legs[1] (x) ...`` into ``out``."""
    terms = {(): coeff}
    for leg in legs:
        if not leg:
            return
        terms = {key + (k,): val * c for key, val in terms.items() for k, c in leg.items()}
    for key, val in terms.items():
        _acc(out, key, val)


def add(s: TensorElement, t: TensorElement) -> TensorElement:
    """``s + t``, entry by entry in field values."""
    out = dict(s.entries)
    for key, val in t.entries.items():
        _acc(out, key, val)
    return TensorElement(s.algebra, s.arity, out)


def neg(t: TensorElement) -> TensorElement:
    return TensorElement(t.algebra, t.arity, {k: -v for k, v in t.entries.items()})


def sub(s: TensorElement, t: TensorElement) -> TensorElement:
    return add(s, neg(t))


def scale(t: TensorElement, c) -> TensorElement:
    """``t.scale(c)``, entry by entry in field values."""
    c = t.algebra.field.coerce(c)
    return TensorElement(t.algebra, t.arity, {k: v * c for k, v in t.entries.items() if c})


def mul(s: TensorElement, t: TensorElement) -> TensorElement:
    """Legwise product of two tensors of one arity."""
    basis_product = s.algebra.basis_product
    out = {}
    for I, u in s.entries.items():
        for J, v in t.entries.items():
            expand(out, u * v, [basis_product(a, b) for a, b in zip(I, J)])
    return TensorElement(s.algebra, s.arity, out)


def outer(s: TensorElement, t: TensorElement) -> TensorElement:
    """``s @ t``, entry by entry in field values."""
    out = {}
    for I, u in s.entries.items():
        for J, v in t.entries.items():
            _acc(out, I + J, u * v)
    return TensorElement(s.algebra, s.arity + t.arity, out)


def on_leg(m: LinearMap, t: TensorElement, leg: int) -> TensorElement:
    """``m.on_leg(t, leg)``, entry by entry in field values, in ``m``'s algebra."""
    out = {}
    for key, val in t.entries.items():
        head, tail = key[:leg - 1], key[leg:]
        for sub, v in m.columns[key[leg - 1]].entries.items():
            _acc(out, head + sub + tail, val * v)
    return TensorElement(m.algebra, t.arity - 1 + m.out_arity, out)


def alg_mul(a: AlgElement, b: AlgElement) -> AlgElement:
    """Product of two algebra elements, coefficient by coefficient."""
    alg = a.algebra
    out = [alg.field.zero] * alg.dim
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs):
            if not y:
                continue
            xy = x * y
            for k, c in alg.basis_product(i, j).items():
                out[k] = out[k] + xy * c
    return alg.element(out)


def left_matrix(t: TensorElement):
    """Column J holds the coefficients of t * e_J, as field values."""
    alg = t.algebra
    d, n = alg.dim, t.arity
    size = d ** n
    mat = [[alg.field.zero] * size for _ in range(size)]
    for col, J in enumerate(alg.multi_indices(n)):
        column = {}
        for I, u in t.entries.items():
            expand(column, u, [alg.basis_product(a, b) for a, b in zip(I, J)])
        for K, val in column.items():
            row = 0
            for idx in K:
                row = row * d + idx
            mat[row][col] = val
    return mat


def contract(t: TensorElement, *specs) -> TensorElement:
    """``qhakit.tensor.contract`` with field-valued factors (no leg-cover check)."""
    alg = t.algebra
    out = {}
    for key, val in t.entries.items():
        factors = []
        for spec in specs:
            elt = alg.unit_element
            for item in spec:
                if isinstance(item, AlgElement):
                    f = item
                else:
                    leg, m = item
                    f = alg.basis_element(key[leg - 1]) if m is None else m.col(key[leg - 1])
                elt = alg_mul(elt, f)
            factors.append(elt)
        expand(out, val, [{i: c for i, c in enumerate(f.coeffs) if c} for f in factors])
    return TensorElement(alg, len(specs), out)


def paired(t: TensorElement, left: LinearMap, right: LinearMap) -> TensorElement:
    """sum_ab t_ab left(e_a) right(e_b) as ``drinfeld._paired`` first formed it: both
    maps applied as legs of an arity-4 tensor, which ``contract`` multiplies out."""
    u = on_leg(right, on_leg(left, t, 1), 3)
    return contract(u, [(1, None), (3, None)], [(2, None), (4, None)])


def solve_columns(field, matrix, columns):
    """Gaussian elimination with first-nonzero pivoting, then back-substitution."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if any(len(col) != n for col in columns):
        raise ValueError("right-hand side has wrong length")
    m = [list(row) for row in matrix]
    b = [[col[r] for col in columns] for r in range(n)]
    inverses = []
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise SingularError(f"singular matrix (no pivot in column {col})")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = field.inv(m[col][col])
        inverses.append(inv)
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if not factor:
                continue
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
            b[r] = [x - factor * y for x, y in zip(b[r], b[col])]
    x = [None] * n
    for row in range(n - 1, -1, -1):
        acc = b[row]
        for c in range(row + 1, n):
            if m[row][c]:
                acc = [a - m[row][c] * v if v else a for a, v in zip(acc, x[c])]
        x[row] = [a * inverses[row] for a in acc]
    return [[x[r][k] for r in range(n)] for k in range(len(columns))]


def solve(field, matrix, rhs):
    return solve_columns(field, matrix, [rhs])[0]


def invert_matrix(field, matrix):
    n = len(matrix)
    units = [[field.one if i == j else field.zero for i in range(n)] for j in range(n)]
    return [list(row) for row in zip(*solve_columns(field, matrix, units))]


def invert(t: TensorElement) -> TensorElement:
    """Two-sided inverse through the field-valued left matrix and Gaussian elimination."""
    alg = t.algebra
    d, n = alg.dim, t.arity
    unit = alg.tensor_unit(n)
    rhs = [alg.field.zero] * (d ** n)
    for K, v in unit.entries.items():
        row = 0
        for idx in K:
            row = row * d + idx
        rhs[row] = v
    x = solve(alg.field, left_matrix(t), rhs)
    entries = {J: x[col] for col, J in enumerate(alg.multi_indices(n)) if x[col]}
    candidate = TensorElement(alg, n, entries)
    if mul(candidate, t) != unit:
        raise SingularError("element has a right inverse but no left inverse")
    return candidate


def nullspace(field, matrix):
    """Basis vectors of the kernel of M (rows may outnumber columns)."""
    rows = len(matrix)
    if rows == 0:
        return []
    cols = len(matrix[0])
    m = [list(row) for row in matrix]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [field.zero] * cols
        vec[f] = field.one
        for i, p in enumerate(pivots):
            vec[p] = -m[i][f]
        basis.append(vec)
    return basis


def restore(field, nums, den):
    """``Field.restore``, and over a Z[zeta_n] ``den`` one ``Cyclo`` inverse for all of ``nums``."""
    if isinstance(den, int):
        return field.restore(nums, den)
    inv = field.restore([den], 1)[0].inverse()
    return [v * inv for v in field.restore(nums, 1)]


def _exact_div(x, m):
    """The numerator x divided by the int m, coefficient by coefficient; m must divide x."""
    if isinstance(x, int):
        return x // m
    return _Integral(tuple([c // m for c in x.coeffs]), x.rows)


def divider(field, p):
    """Exact division by the nonzero numerator ``p``, as a function of the dividend.

    The dividend must be ``p`` times a numerator, as every Bareiss quotient
    is.  For an int ``p`` it divides every coefficient by ``p``.  For ``p``
    in Z[zeta_n] it multiplies by the numerator of ``1 / p`` and divides
    every coefficient by its denominator; the power basis is a Z-basis of
    Z[zeta_n], so that division is exact too.
    """
    if isinstance(p, int):
        return lambda x: _exact_div(x, p)
    inv = field.restore([p], 1)[0].inverse()
    num, m = inv.numerator, inv.denominator
    return lambda x: _exact_div(x * num, m)


def bareiss_solve_columns(field, matrix, columns):
    """Fraction-free (Bareiss) elimination with first-nonzero pivoting on cleared rows,
    then fraction-free back-substitution; every step divides exactly by the last pivot."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if any(len(col) != n for col in columns):
        raise ValueError("right-hand side has wrong length")
    if not n:
        return [[] for _ in columns]
    active = [field.clear([*row, *(col[r] for col in columns)])[0]
              for r, row in enumerate(matrix)]
    upper = []      # row k of the triangular system, from column k on
    dividers = []   # dividers[k] divides exactly by the pivot upper[k][0]
    div = None
    for k in range(n):
        # active[i] is row k + i of the system, from column k on
        pivot = next((i for i, row in enumerate(active) if row[0]), None)
        if pivot is None:
            raise SingularError(f"singular matrix (no pivot in column {k})")
        active[0], active[pivot] = active[pivot], active[0]
        top = active.pop(0)
        upper.append(top)
        p, tail = top[0], top[1:]
        for i, row in enumerate(active):
            f = row[0]
            if f:
                row = [p * a - f * b for a, b in zip(row[1:], tail)]
            else:
                row = [p * a for a in row[1:]]
            active[i] = row if div is None else [div(v) for v in row]
        if active:   # the next step divides by this pivot
            div = divider(field, p)
            dividers.append(div)
    # back-substitution on y = det * x, which is integral (Cramer's rule)
    det = upper[-1][0]
    y = [None] * n
    y[-1] = upper[-1][1:]
    for k in range(n - 2, -1, -1):
        row = upper[k]
        acc = [det * b for b in row[n - k:]]
        for j in range(k + 1, n):
            u = row[j - k]
            if u:
                acc = [a - u * v for a, v in zip(acc, y[j])]
        y[k] = [dividers[k](a) for a in acc]
    m = len(columns)
    x = restore(field, [v for row in y for v in row], det)
    return [x[c::m] for c in range(m)]


def bareiss_solve(field, matrix, rhs):
    return bareiss_solve_columns(field, matrix, [rhs])[0]


def bareiss_invert_matrix(field, matrix):
    n = len(matrix)
    units = [[field.one if i == j else field.zero for i in range(n)] for j in range(n)]
    return [list(row) for row in zip(*bareiss_solve_columns(field, matrix, units))]


def algebra_check(alg):
    """Raise AlgebraError unless ``alg`` satisfies the unit laws and associativity,
    read off products of basis elements."""
    one = alg.unit_element
    for i in range(alg.dim):
        e = alg.basis_element(i)
        if one * e != e or e * one != e:
            raise AlgebraError(f"unit law fails on basis element {alg.basis_names[i]}")
    for i in range(alg.dim):
        for j in range(alg.dim):
            ij = alg.basis_element(i) * alg.basis_element(j)
            for k in range(alg.dim):
                left = ij * alg.basis_element(k)
                right = alg.basis_element(i) * (alg.basis_element(j) * alg.basis_element(k))
                if left != right:
                    raise AlgebraError(
                        "associativity fails on basis triple "
                        f"({alg.basis_names[i]}, {alg.basis_names[j]}, {alg.basis_names[k]})")


def block_algebra(basis, field):
    """(algebra, down) of ``blocks._block_algebra``: each product of two basis vectors
    convolved in Q[Z/n] and mapped by P^{-1}, entry by entry."""
    p, p_inv = basis.matrix, basis.inverse
    n = len(p)
    if any(sum(p_inv[a][k] * p[k][b] for k in range(n)) != (a == b)
           for a in range(n) for b in range(n)):
        raise StructureError("block basis: P^{-1} P is not the identity")

    def coords(z):  # P^{-1} z
        return [sum(c * v for c, v in zip(row, z)) for row in p_inv]

    vectors = list(zip(*p))
    mult = {(a, b): coords([sum(x[i] * y[(k - i) % n] for i in range(n)) for k in range(n)])
            for a, x in enumerate(vectors) for b, y in enumerate(vectors)}
    alg = Algebra(field, n, mult, unit=coords([1] + [0] * (n - 1)), basis=basis.names)
    return alg, LinearMap.from_matrix(alg, p_inv)
