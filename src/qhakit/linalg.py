"""Exact dense linear algebra over a coefficient field.

``solve`` and ``invert_matrix`` share one elimination: fraction-free
(Bareiss) forward elimination with first-nonzero pivoting, then
fraction-free back-substitution, for any number of right-hand sides.
Each row of the system is cleared to integral numerators (``Field.clear``:
ints over Q, elements of Z[zeta_n] over Q(zeta_n)), every step divides
exactly by the previous pivot (Bareiss, *Math. Comp.* 22 (1968) 565-578;
the quotients are minors, so they stay in the integral domain), and the
solutions are restored to field values once, over the last pivot.
Results are exact and a singular system is detected, never approximated.
"""

from __future__ import annotations

from .errors import SingularError


def _solve_columns(field, matrix, columns):
    """Solve M x = b exactly for each b in ``columns``; returns the solutions in order.

    The entries may be field values or numerators (see ``Field.clear``).  One
    elimination serves every column.  Raises SingularError if M is singular.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if any(len(col) != n for col in columns):
        raise ValueError("right-hand side has wrong length")
    if not n:
        return [[] for _ in columns]
    # scaling a row of [M | b] by a nonzero number keeps the solutions
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
            div = field.divider(p)
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
    x = field.restore([v for row in y for v in row], det)
    return [x[c::m] for c in range(m)]


def solve(field, matrix, rhs):
    """Solve M x = b exactly.  Raises SingularError if M is singular."""
    return _solve_columns(field, matrix, [rhs])[0]


def invert_matrix(field, matrix):
    """Exact matrix inverse: M x = e_j solved for every unit column e_j."""
    n = len(matrix)
    units = [[field.one if i == j else field.zero for i in range(n)] for j in range(n)]
    return [list(row) for row in zip(*_solve_columns(field, matrix, units))]


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
