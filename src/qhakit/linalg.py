"""Exact dense linear algebra over a coefficient field.

``solve`` and ``invert_matrix`` share one elimination: forward elimination
with first-nonzero pivoting, then back-substitution, for any number of
right-hand sides.  Every division is an exact field inversion, so results
are exact and a singular system is detected, never approximated.
"""

from __future__ import annotations

from .errors import SingularError


def _solve_columns(field, matrix, columns):
    """Solve M x = b exactly for each b in ``columns``; returns the solutions in order.

    One elimination serves every column, and each pivot is inverted once.
    Raises SingularError if M is singular.
    """
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
