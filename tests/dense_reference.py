"""Dense reference kernels for the differential tests of ``chaindex.linalg``.

``dense_det_bareiss`` is the dense fraction-free elimination the package
used before its kernel became band-aware: row pivoting on the first
nonzero entry, every column swept at every step.  ``pencil_char_poly``
is the polynomial route the package used to check the mirror-block
factorization: integer evaluations of ``dense_det_bareiss`` plus Newton
interpolation, here of the whole pencil det(x*diag(s) - M).
``char_poly`` reads det(xI - M) of a rational M from it after
``cleared_rows`` scales each row by the lcm of its denominators, as the
package's kernels did before they became integer-only.
``fraction_det``, ``fraction_inverse`` and ``leverrier_char_poly``
share no code or method with the package at all;
``proper_leading_minor_vanishes`` reads the package's pivot contract
from ``fraction_det`` of the leading blocks.
``continuant_minors`` is the continuant ``TriDiagSym`` swept in its
entries' own arithmetic, three ``Fraction`` operations per minor of a
rational block, before it swept the integers of its row-scaled form.
``fresh_interior_det`` and ``pair_class_sum`` are the per-pair routes the
spectral layer used before it memoized interior sweeps and summed each
residue class in one recurrence; ``fraction_pair_class_sum`` is that
recurrence as it ran on the rational normalized block before it moved to
integer Laplacian minors.  ``hand_normalized_blocks`` writes the
normalized blocks out from the rail pattern, as the package stored them
before they became degree-scaled views of the Laplacian blocks.
``dict_bfs`` is the label-keyed breadth-first search the graphs used
before their search moved onto vertex positions, and
``fraction_interior_det_closed`` evaluates the 16-case interior table
with the three ``Fraction`` operations and the ``Fraction`` power it
used before it built one ``Fraction`` from integer parts.
``OperatorSeries`` is the truncated power-series ring the trailing
coefficients were eliminated over before the Bareiss update became one
fused step: each of ``*``, ``-`` and ``//`` builds its own series.
``Series`` and ``series_step`` are that fused step over Z[x]/(x^3) as it
ran before both pencils shared one elimination over
Z[x, y]/(x^3, xy, y^3): one pass per pencil, three coefficients each.
``adjugate`` is the full adjugate the resistance sums read before they
moved to selected inversion: [M | I] through a dense fraction-free
elimination with row pivoting and N columns of back substitution.  It
no longer rides the package's elimination, and it is itself checked
against Gauss-Jordan elimination.  No reference here calls a kernel of
``chaindex.linalg`` it is compared with; ``test_reference_independence``
guards that.
``laplacian`` is the dense integer Laplacian the package kept beside its
envelope rows, now written out from the degrees and the edge set rather
than expanded from ``laplacian_rows``, so it does not agree with the
rows by construction; ``test_reference_independence`` guards that too.
``dense`` expands envelope rows into the n x n matrix they stand for.
``random_walk_laplacian`` is the rational matrix D^-1 L the package built
to certify the normalized mirror split before that split was derived
from the integer Laplacian split and the rail degrees.
"""

from collections import deque
from fractions import Fraction
from math import lcm, prod

from chaindex import spectral
from chaindex.linalg import Envelope, SingularMatrixError, _int_rows


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


def adjugate(matrix) -> tuple[int, list[list[int]]]:
    """(det M, adj M) of a square integer matrix, where adj M = det M * M^-1.

    Dense Bareiss elimination with row pivoting on the first nonzero runs
    on [M | I], every row below the pivot updated at every step, leaving
    U X = R with U upper triangular and X = M^-1; every entry of
    adj M = det M * X is an integer, so back substitution divides
    exactly.  Entries are validated as the package's kernels validate
    them.  A singular M raises SingularMatrixError.
    """
    rows = dense(Envelope(*_int_rows(matrix)))
    n = len(rows)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c]), None)
        if p is None:
            raise SingularMatrixError("matrix is singular")
        if p != c:
            aug[c], aug[p] = aug[p], aug[c]
            sign = -sign
        pivot, row_c = aug[c][c], aug[c]
        for i in range(c + 1, n):
            head = aug[i][c]
            aug[i] = [(pivot * a - head * b) // prev for a, b in zip(aug[i], row_c)]
        prev = pivot
    det = sign * prev
    adj = [[0] * n for _ in range(n)]
    for k in reversed(range(n)):
        row = aug[k]
        for col in range(n):
            acc = det * row[n + col] - sum(row[j] * adj[j][col] for j in range(k + 1, n))
            adj[k][col] = acc // row[k]
    return det, adj


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


def proper_leading_minor_vanishes(matrix) -> bool:
    """True when det M[:k, :k] = 0 for some k in 1 .. n - 1, the case in
    which the package's diagonal-pivot kernels raise SingularMatrixError."""
    return any(fraction_det([row[:k] for row in matrix[:k]]) == 0 for k in range(1, len(matrix)))


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


def pencil_char_poly(matrix, scale) -> list[int]:
    """det(x*diag(scale) - M), ascending, for a square integer M.

    The pencil is evaluated by ``dense_det_bareiss`` at n+1 integer nodes and
    recovered by Newton interpolation; its leading coefficient is the
    product of the scales.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(scale) != n:
        raise ValueError("matrix is not square or scale has the wrong length")

    # Evaluation nodes 0, 1, -1, 2, -2, ... keep entry growth small.
    nodes = [0]
    while len(nodes) < n + 1:
        k = (len(nodes) + 1) // 2
        nodes.append(k if len(nodes) % 2 == 1 else -k)

    values = [
        dense_det_bareiss([[(x * scale[i] if i == j else 0) - e for j, e in enumerate(row)]
                           for i, row in enumerate(matrix)])
        for x in nodes
    ]
    poly = _newton_interpolate(nodes, values)
    if poly[-1] != prod(scale):
        raise ArithmeticError("leading coefficient is not det S; interpolation bug")
    return poly


def cleared_rows(matrix) -> tuple[list[list[int]], list[int]]:
    """(S*M, s): row i of a rational M times the lcm s_i of its denominators."""
    scales = [lcm(*(Fraction(e).denominator for e in row)) for row in matrix]
    rows = [[int(e * s) for e in row] for row, s in zip(matrix, scales)]
    return rows, scales


def char_poly(matrix) -> list[Fraction]:
    """det(xI - M), ascending and monic, for a square int or Fraction matrix:
    det(xS - S*M) / det S with S the row scales of ``cleared_rows``."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix is not square")
    rows, scales = cleared_rows(matrix)
    return [Fraction(c, prod(scales)) for c in pencil_char_poly(rows, scales)]


def laplacian(g, order=None) -> list[list[int]]:
    """Combinatorial Laplacian D - A, written out from the degrees and the
    edge set, never from the package's ``laplacian_rows``.

    ``order`` fixes the row/column order (default: the graph's own) and
    must be a permutation of the vertices; a grounded Laplacian is a
    principal submatrix of the result.
    """
    vs = tuple(g.vertices if order is None else order)
    if len(set(vs)) != len(vs) or set(vs) != set(g.vertices):
        raise ValueError("order must be a permutation of the graph's vertices")
    pos = {v: i for i, v in enumerate(vs)}
    mat = [[0] * len(vs) for _ in vs]
    for v in vs:
        mat[pos[v]][pos[v]] = g.degree(v)
    for u, v in map(tuple, g.edges):
        mat[pos[u]][pos[v]] = mat[pos[v]][pos[u]] = -1
    return mat


def dense(envelope) -> list[list[int]]:
    """The matrix an ``Envelope`` stands for, as n lists of n ints."""
    n = len(envelope)
    mat = [[0] * n for _ in range(n)]
    for row, o, e in zip(mat, envelope.offsets, envelope.entries):
        row[o:o + len(e)] = e
    return mat


def random_walk_laplacian(g, order=None) -> list[list[Fraction]]:
    """D^-1 L: each row of ``laplacian(g, order)`` over its diagonal entry,
    the vertex's degree.  Similar to the normalized Laplacian
    D^-1/2 L D^-1/2; an isolated vertex raises ValueError."""
    rows = laplacian(g, order)
    if any(row[i] == 0 for i, row in enumerate(rows)):
        raise ValueError("a vertex is isolated; normalization undefined")
    return [[Fraction(e, row[i]) for e in row] for i, row in enumerate(rows)]


def continuant_minors(diag, offdiag_sq) -> list:
    """Leading minors, orders 0..dim, of the symmetric tridiagonal matrix with
    this diagonal and these squared off-diagonals, by the continuant in the
    entries' own arithmetic."""
    minors = [1]
    for k in range(len(diag)):
        minors.append(diag[k] * minors[-1] - (offdiag_sq[k - 1] * minors[-2] if k > 0 else 0))
    return minors


def fresh_interior_det(tridiag, i: int, j: int) -> Fraction:
    """Interior minor (i, j) as a fresh continuant of the block strictly between."""
    return continuant_minors(tridiag.diag[i : j - 1], tridiag.offdiag_sq[i : j - 2])[-1]


def pair_class_sum(n: int, p: int, q: int) -> Fraction:
    """Residue-class sum of two-deleted minors of the normalized sum block,
    one triple product L[i-1] * I(i, j) * T[m-j] per pair."""
    norm_sum = spectral.mirror_blocks(n).norm_sum
    leading = continuant_minors(norm_sum.diag, norm_sum.offdiag_sq)
    trailing = continuant_minors(norm_sum.diag[::-1], norm_sum.offdiag_sq[::-1])
    m = norm_sum.dim
    return sum(
        (leading[i - 1] * fresh_interior_det(norm_sum, i, j) * trailing[m - j]
         for i, j in spectral.class_pairs(n, p, q)),
        Fraction(0),
    )


def fraction_pair_class_sum(n: int, p: int, q: int) -> Fraction:
    """The same residue-class sum by one W-recurrence over the rational
    normalized block: W_j, the sum of L[i-1] * I(i, j) over i < j in class
    p, obeys the interior continuant plus L[j-1] when j is in class p."""
    norm_sum = spectral.mirror_blocks(n).norm_sum
    leading = continuant_minors(norm_sum.diag, norm_sum.offdiag_sq)
    trailing = continuant_minors(norm_sum.diag[::-1], norm_sum.offdiag_sq[::-1])
    diag, off_sq = norm_sum.diag, (0,) + norm_sum.offdiag_sq  # d_j, s_{j-1} at index j-1
    m = norm_sum.dim
    total = w_prev = w = Fraction(0)  # W_{j-1} and W_j
    for j in range(1, m + 1):
        if j % 4 == q:
            total += w * trailing[m - j]
        carry = leading[j - 1] if j % 4 == p else 0
        w_prev, w = w, diag[j - 1] * w - off_sq[j - 1] * w_prev + carry
    return total


def hand_normalized_blocks(n: int) -> tuple[tuple, tuple, tuple]:
    """(norm_sum diagonal, norm_sum squared off-diagonal, norm_diff) from the
    rail pattern: (d-1)/d at a rung and 1 elsewhere, 4/(d_k d_{k+1}), and
    (d+1)/d at a rung and 1 elsewhere, where d is the rail degree."""
    m = 4 * n + 1
    degs = spectral.rail_degrees(n)
    rungs = [i % 4 in (0, 1) for i in range(1, m + 1)]
    diag = tuple(Fraction(d - 1, d) if r else Fraction(1) for d, r in zip(degs, rungs))
    offdiag_sq = tuple(Fraction(4, degs[k] * degs[k + 1]) for k in range(m - 1))
    diff = tuple(Fraction(d + 1, d) if r else Fraction(1) for d, r in zip(degs, rungs))
    return diag, offdiag_sq, diff


def dict_bfs(g, source) -> dict:
    """Hop distances from ``source`` to every reachable vertex, keyed by label."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def fraction_interior_det_closed(i: int, j: int) -> Fraction:
    """The 16-case interior table as coefficient * (alpha*d + beta) * (1/25)^(d + shift)."""
    d = j // 4 - i // 4
    coefficient, alpha, beta, shift = spectral._INTERIOR_DET_FORM[(i % 4, j % 4)]
    return coefficient * (alpha * d + beta) * spectral.QUARTER_POW ** (d + shift)


class OperatorSeries:
    """A power series over Z truncated to its first k coefficients.

    Products and differences are truncated, and ``//`` divides exactly by
    a series whose constant term is nonzero, raising ArithmeticError when
    the quotient is not integral.
    """

    __slots__ = ("c",)

    def __init__(self, c: tuple) -> None:
        self.c = c

    def __sub__(self, other: "OperatorSeries") -> "OperatorSeries":
        return OperatorSeries(tuple(a - b for a, b in zip(self.c, other.c)))

    def __mul__(self, other: "OperatorSeries") -> "OperatorSeries":
        a, b = self.c, other.c
        k = len(a)
        out = [0] * k
        for i, ai in enumerate(a):
            if ai:
                for j in range(k - i):
                    out[i + j] += ai * b[j]
        return OperatorSeries(tuple(out))

    def __floordiv__(self, other: "OperatorSeries") -> "OperatorSeries":
        a, b = self.c, other.c
        q = []
        for d in range(len(a)):
            r = a[d]
            for i in range(d):
                r -= q[i] * b[d - i]
            quotient, remainder = divmod(r, b[0])
            if remainder:
                raise ArithmeticError("truncated-series division is not exact")
            q.append(quotient)
        return OperatorSeries(tuple(q))


class Series:
    """An element of Z[x]/(x^3): integer power series truncated after x^2.
    ``c`` holds the three coefficients, ascending."""

    __slots__ = ("c",)

    def __init__(self, c: tuple) -> None:
        self.c = c

    def __bool__(self) -> bool:
        return self.c != (0, 0, 0)


def series_step(p: Series, a: Series, h: Series, b: Series, q: Series) -> Series:
    """(p*a - h*b) / q in Z[x]/(x^3), for q with a nonzero constant term;
    a nonzero remainder raises ArithmeticError."""
    p0, p1, p2 = p.c
    a0, a1, a2 = a.c
    h0, h1, h2 = h.c
    b0, b1, b2 = b.c
    q0, q1, q2 = q.c
    t0, r0 = divmod(p0 * a0 - h0 * b0, q0)
    t1, r1 = divmod(p0 * a1 + p1 * a0 - h0 * b1 - h1 * b0 - t0 * q1, q0)
    t2, r2 = divmod(p0 * a2 + p1 * a1 + p2 * a0 - h0 * b2 - h1 * b1 - h2 * b0
                    - t0 * q2 - t1 * q1, q0)
    if r0 or r1 or r2:
        raise ArithmeticError("truncated-series division is not exact")
    return Series((t0, t1, t2))
