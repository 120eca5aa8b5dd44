"""Dense reference kernels for the differential tests of ``chaindex.linalg``.

``dense_det_bareiss`` is the dense fraction-free elimination the package
used before its kernel became band-aware: row pivoting on the first
nonzero entry, every column swept at every step.  ``char_poly`` is the
polynomial route the package used to check the mirror-block
factorization: integer evaluations of the public ``det_bareiss`` plus
Newton interpolation.  ``fraction_det``, ``fraction_inverse`` and
``leverrier_char_poly`` share no code or method with the package at all.
"""

from fractions import Fraction
from math import lcm, prod

from chaindex.linalg import det_bareiss


def dense_det_bareiss(matrix) -> int:
    """Exact determinant of a square integer matrix by dense Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    rows = [list(row) for row in matrix]
    sign = 1
    pivot_hist = [1]
    lag = [0] * n

    def refresh(i: int, c: int) -> None:
        if lag[i] == c:
            return
        num, den = pivot_hist[c], pivot_hist[lag[i]]
        row = rows[i]
        for j in range(n):
            if row[j]:
                row[j] = row[j] * num // den
        lag[i] = c

    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            lag[c], lag[pivot_row] = lag[pivot_row], lag[c]
            sign = -sign
        refresh(c, c)
        pivot = rows[c][c]
        prev = pivot_hist[c]
        for i in range(c + 1, n):
            if not rows[i][c]:
                continue
            refresh(i, c)
            head = rows[i][c]
            row_i, row_c = rows[i], rows[c]
            for j in range(c + 1, n):
                if row_c[j] or row_i[j]:
                    row_i[j] = (pivot * row_i[j] - head * row_c[j]) // prev
            row_i[c] = 0
            lag[i] = c + 1
        pivot_hist.append(pivot)
    return sign * pivot_hist[n]


def fraction_det(matrix) -> Fraction:
    """Determinant by Gaussian elimination over Fraction with row pivoting."""
    m = [[Fraction(e) for e in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                for j in range(c, n):
                    m[i][j] -= f * m[c][j]
    return det


def fraction_rank(matrix) -> int:
    """Rank over the rationals by Gaussian elimination."""
    m = [[Fraction(e) for e in row] for row in matrix]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            if f:
                for j in range(c, len(m[0])):
                    m[i][j] -= f * m[rank][j]
        rank += 1
    return rank


def fraction_inverse(matrix):
    """Inverse by Gauss-Jordan elimination over Fraction, or None when singular."""
    n = len(matrix)
    m = [[Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        m[c] = [e / m[c][c] for e in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[n:] for row in m]


def leverrier_char_poly(matrix) -> list[Fraction]:
    """det(xI - M), ascending, by the Faddeev-LeVerrier recurrence over Fraction."""
    a = [[Fraction(e) for e in row] for row in matrix]
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I,  c_{n-k} = -tr(A M_k) / k
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) + (coeffs[n - k + 1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        trace = sum(a[i][t] * m[t][i] for i in range(n) for t in range(n))
        coeffs[n - k] = -trace / k
    return coeffs


def _newton_interpolate(xs: list[int], ys: list[int]) -> list[int]:
    """Coefficients of the polynomial through the points (xs[i], ys[i]).

    The polynomial must have integer coefficients.  Every divided
    difference of such a polynomial at integer nodes is an integer, so the
    whole computation stays in exact integer arithmetic.
    """
    m = len(xs)
    coef = list(ys)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            coef[i], remainder = divmod(coef[i] - coef[i - 1], xs[i] - xs[i - j])
            if remainder:
                raise ArithmeticError("divided difference is not an integer")
    poly = [coef[m - 1]]
    for i in range(m - 2, -1, -1):
        # poly <- poly*(x - xs[i]) + coef[i]
        shifted = [0] + poly
        for j, c in enumerate(poly):
            shifted[j] -= xs[i] * c
        shifted[0] += coef[i]
        poly = shifted
    return poly


def char_poly(matrix) -> list[Fraction]:
    """det(xI - M), ascending and monic, for a square int or Fraction matrix.

    Row i is scaled by the lcm s_i of its denominators, so det(xS - T) has
    integer coefficients; it is evaluated by ``det_bareiss`` at n+1 integer
    nodes, recovered by Newton interpolation and divided by det S.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 0:
        return [Fraction(1)]
    scales = [lcm(*(e.denominator for e in row)) for row in matrix]
    scaled = [[e.numerator * (s // e.denominator) for e in row] for row, s in zip(matrix, scales)]

    # Evaluation nodes 0, 1, -1, 2, -2, ... keep entry growth small.
    nodes = [0]
    while len(nodes) < n + 1:
        k = (len(nodes) + 1) // 2
        nodes.append(k if len(nodes) % 2 == 1 else -k)

    values = [
        det_bareiss([[(x * scales[i] if i == j else 0) - e for j, e in enumerate(row)]
                     for i, row in enumerate(scaled)])
        for x in nodes
    ]
    poly = [Fraction(c, prod(scales)) for c in _newton_interpolate(nodes, values)]
    if poly[-1] != 1:
        raise ArithmeticError("characteristic polynomial is not monic; interpolation bug")
    return poly
