"""Exact linear algebra over rationals and arbitrary-precision integers.

Everything here is exact and floating point never appears.  Determinants,
adjugates and the trailing characteristic coefficients share one
fraction-free (Bareiss) elimination that touches only each row's span of
nonzeros, so banded matrices cost O(n * b^2) per determinant.  It runs
over the integers for determinants and adjugates and over truncated
integer power series for the trailing coefficients.  No full
characteristic polynomial is formed here: the mirror-block factorization
is certified at the matrix level in ``spectral.factorization_holds``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


class SingularMatrixError(ValueError):
    """Raised when an operation requires a nonsingular matrix."""


def _require_square(matrix) -> int:
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


def _scaled_rows(matrix, diagonal: bool) -> tuple[list, list, list, list]:
    """Validate a square rational matrix once and clear each row's denominators.

    Returns (scales, rows, lo, hi): ``rows[i]`` is ``scales[i]`` times row i
    as integers, and every nonzero of row i lies in columns lo[i]..hi[i]-1
    (lo[i] = n for a zero row).  With ``diagonal`` the span also covers
    column i, where a characteristic matrix adds its x term.
    """
    n = _require_square(matrix)
    scales, rows, lo, hi = [], [], [], []
    for i, row in enumerate(matrix):
        types = set(map(type, row))
        if not types <= {int, Fraction}:  # subclasses such as bool pass here
            for entry in row:
                if not isinstance(entry, (int, Fraction)):
                    raise ValueError(f"matrix entries must be int or Fraction, got {entry!r}")
        ints = types <= {int}  # exactly int: no denominators to clear
        s = 1 if ints else lcm(*(e.denominator for e in row))
        scaled = list(row) if ints else [e.numerator * (s // e.denominator) for e in row]
        nonzero = [j for j, e in enumerate(scaled) if e]
        if diagonal:
            nonzero.append(i)
        scales.append(s)
        rows.append(scaled)
        lo.append(min(nonzero, default=n))
        hi.append(max(nonzero, default=-1) + 1)
    return scales, rows, lo, hi


def _permutation_sign(perm: list[int]) -> int:
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            if j != start:
                sign = -sign
    return sign


def _eliminate(rows: list, lo: list, hi: list, one, unit):
    """Determinant by fraction-free elimination over an exact ring.

    ``rows`` holds n rows whose first n columns are a square matrix; any
    further columns are carried along and rescaled with their row, and
    pivots are sought only in the first n.  Entries support ``*``, ``-``,
    unary ``-``, truth testing and exact ``//`` by a divisor for which
    ``unit`` holds; ``one`` is the ring's identity.  Every nonzero of row i
    lies in columns lo[i]..hi[i]-1.  ``rows``, ``lo`` and ``hi`` are
    consumed: on return each pivot row holds its state at its own step.

    Step c takes its pivot from the rows whose first nonzero is column c,
    preferring the narrowest.  A row skipped by a step is only rescaled by
    the ratio of consecutive pivots, so the rescaling is deferred until the
    row next takes part.  A column with no nonzero left makes the
    determinant zero; it is swapped to the end so elimination can go on.
    A column with nonzeros but no unit swaps in a later column that has
    one.  Returns (det, order), where order lists the pivot row of each
    step; det is None when fewer than n - 1 steps find a unit pivot: the
    remaining block has no unit, or two columns vanished.
    """
    n = len(rows)
    if n == 0:
        return one, []
    buckets: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(n):
        buckets[lo[i]].append(i)
    pivots = [one]        # pivots[c]: the pivot of step c-1, a minor of order c
    lag = [0] * n         # row i holds its state after step lag[i]-1, unscaled since
    used = [False] * n
    order = []            # pivot row of each step
    sign = 1
    vanished = False      # a zero column has been moved to the end

    def refresh(i: int, c: int) -> None:
        # Bring row i, last touched before step c, to its state after step c-1.
        num, den = pivots[c], pivots[lag[i]]
        row = rows[i]
        for j in range(lo[i], hi[i]):
            if row[j]:
                row[j] = row[j] * num // den
        lag[i] = c

    def place(i: int, start: int) -> None:
        # File row i under its first nonzero column at or after ``start``.
        row, j, end = rows[i], start, min(hi[i], n)
        while j < end and not row[j]:
            j += 1
        lo[i] = j if j < end else n
        buckets[lo[i]].append(i)

    def gather(c: int) -> list[int]:
        # The remaining rows with a nonzero in column c.
        live = []
        for i in buckets[c]:
            if rows[i][c]:
                live.append(i)
            else:
                place(i, c + 1)
        buckets[c] = []
        return live

    def swap_columns(c: int, target: int) -> list[int]:
        # Swap two columns of the remaining rows, then gather column c.
        # Stale rows may be permuted as they are: rescaling is entrywise.
        nonlocal sign
        sign = -sign
        for k in range(c, n + 1):
            buckets[k] = []
        for i in range(n):
            if not used[i]:
                row = rows[i]
                row[c], row[target] = row[target], row[c]
                if row[target]:
                    hi[i] = max(hi[i], target + 1)
                place(i, c)
        return gather(c)

    for c in range(n - 1):
        live = gather(c)
        candidates = [i for i in live if unit(rows[i][c])]
        while not candidates:
            if live:
                target = min(
                    (j for i in range(n) if not used[i]
                     for j in range(max(lo[i], c + 1), min(hi[i], n)) if unit(rows[i][j])),
                    default=None,
                )
            elif not vanished:
                vanished, target = True, n - 1
            else:
                target = None
            if target is None:
                return None, order
            live = swap_columns(c, target)
            candidates = [i for i in live if unit(rows[i][c])]
        r = min(candidates, key=hi.__getitem__)
        used[r] = True
        order.append(r)
        if lag[r] != c:
            refresh(r, c)
        row_r, end_r = rows[r], hi[r]
        pivot, prev = row_r[c], pivots[c]
        for i in live:
            if i == r:
                continue
            if lag[i] != c:
                refresh(i, c)
            row_i = rows[i]
            head = row_i[c]
            end = max(hi[i], end_r)
            for j in range(c + 1, end):
                if row_r[j] or row_i[j]:
                    row_i[j] = (pivot * row_i[j] - head * row_r[j]) // prev
            hi[i] = end
            lag[i] = c + 1
            place(i, c + 1)
        pivots.append(pivot)

    last = used.index(False)
    order.append(last)
    if lag[last] != n - 1:
        refresh(last, n - 1)
    det = rows[last][n - 1]
    return (det if sign * _permutation_sign(order) > 0 else -det), order


class _Series:
    """A power series over Z truncated to its first k coefficients.

    The scalar ring of the trailing-coefficient elimination: products and
    differences are truncated, and ``//`` divides exactly by a series
    whose constant term is nonzero.
    """

    __slots__ = ("c",)

    def __init__(self, c: tuple) -> None:
        self.c = c

    def __bool__(self) -> bool:
        return any(self.c)

    def __neg__(self) -> "_Series":
        return _Series(tuple(-a for a in self.c))

    def __sub__(self, other: "_Series") -> "_Series":
        return _Series(tuple(a - b for a, b in zip(self.c, other.c)))

    def __mul__(self, other: "_Series") -> "_Series":
        a, b = self.c, other.c
        k = len(a)
        out = [0] * k
        for i, ai in enumerate(a):
            if ai:
                for j in range(k - i):
                    out[i + j] += ai * b[j]
        return _Series(tuple(out))

    def __floordiv__(self, other: "_Series") -> "_Series":
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
        return _Series(tuple(q))


def _has_constant_term(s: _Series) -> bool:
    return s.c[0] != 0


def det_bareiss(matrix) -> int:
    """Exact determinant of a square integer matrix.

    Entries are int or Fraction with denominator 1.  Fraction-free
    (Bareiss) elimination that works only inside each row's span of
    nonzeros, so a matrix of bandwidth b costs O(n * b^2).
    """
    scales, rows, lo, hi = _scaled_rows(matrix, diagonal=False)
    if any(s != 1 for s in scales):
        raise ValueError("det_bareiss requires integer entries")
    det, _ = _eliminate(rows, lo, hi, 1, bool)
    return 0 if det is None else det


def adjugate(matrix) -> tuple[int, list[list[int]]]:
    """(det M, adj M) of a square integer matrix, where adj M = det M * M^-1.

    The elimination runs on [M | I], leaving U X = R with U upper
    triangular and X = M^-1; every entry of adj M = det M * X is an
    integer, so back substitution divides exactly.  It walks only the
    nonzeros of U, so a matrix of bandwidth b costs O(n^2 * b).  A
    singular M raises SingularMatrixError.
    """
    scales, rows, lo, hi = _scaled_rows(matrix, diagonal=False)
    if any(s != 1 for s in scales):
        raise ValueError("adjugate requires integer entries")
    n = len(rows)
    for i, row in enumerate(rows):
        row.extend([0] * n)
        row[n + i] = 1
        hi[i] = n + i + 1
    det, order = _eliminate(rows, lo, hi, 1, bool)
    if not det:
        raise SingularMatrixError("matrix is singular")
    # A nonzero det means no column was swapped, so step k solved for X[k].
    adj = [[0] * n for _ in range(n)]
    for k in range(n - 1, -1, -1):
        r = order[k]
        row = rows[r]
        upper = [(j, row[j]) for j in range(k + 1, min(hi[r], n)) if row[j]]
        pivot, out = row[k], adj[k]
        for col in range(n):
            acc = det * row[n + col]
            for j, u in upper:
                acc -= u * adj[j][col]
            out[col] = acc // pivot
    return det, adj


def char_poly_tail(matrix, k: int) -> list[Fraction]:
    """Lowest k coefficients of det(xI - M), ascending, for a square rational M.

    Rows are scaled to clear denominators and det(xS - T) is eliminated
    over the integer power series truncated after x^(k-1), so only the
    wanted coefficients are ever formed.  Every pivot needs a nonzero
    constant term, which exists at each step but the last exactly when
    M has rank at least n - 1; otherwise SingularMatrixError is raised.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("k must be a positive integer")
    scales, rows, lo, hi = _scaled_rows(matrix, diagonal=True)
    n = len(rows)
    pad = (0,) * (k - 1)
    zero = _Series((0,) + pad)
    series_rows = []
    for i, row in enumerate(rows):
        series = [zero] * n
        for j in range(lo[i], hi[i]):
            if row[j]:
                series[j] = _Series((-row[j],) + pad)
        series[i] = _Series(((-row[i], scales[i]) + pad)[:k])
        series_rows.append(series)
    det, _ = _eliminate(series_rows, lo, hi, _Series((1,) + pad), _has_constant_term)
    if det is None:
        raise SingularMatrixError("matrix has rank below n - 1")
    denominator = prod(scales)
    return [Fraction(c, denominator) for c in det.c]


# ---------------------------------------------------------------------------
# graph matrices


def _positions(g, order) -> tuple[tuple, dict]:
    """Row order (default: the graph's own) and each vertex's row in it."""
    vs = tuple(order) if order is not None else g.vertices
    pos = {v: i for i, v in enumerate(vs)}
    if len(pos) != len(vs) or pos.keys() != set(g.vertices):
        raise ValueError("order must be a permutation of the graph's vertices")
    return vs, pos


def laplacian(g, order=None) -> list[list[int]]:
    """Combinatorial Laplacian (degree matrix minus adjacency), integer entries.

    ``order`` selects the vertex order of rows/columns (default: the
    graph's own order).  Any order gives a similar matrix with the same
    spectrum, so callers may pick one that concentrates the nonzeros.
    """
    vs, pos = _positions(g, order)
    mat = [[0] * len(vs) for _ in vs]
    for i, v in enumerate(vs):
        mat[i][i] = g.degree(v)
        for w in g.neighbors(v):
            mat[i][pos[w]] = -1
    return mat


def random_walk_laplacian(g, order=None) -> list[list[int | Fraction]]:
    """Degree-scaled Laplacian D^-1 L.

    Shares its characteristic polynomial with the symmetric normalized
    Laplacian D^-1/2 L D^-1/2 (they are similar), while keeping every
    entry rational.  Entries on the pattern (the diagonal and each edge)
    are Fractions; every other entry is the int 0, which compares and
    tests false like Fraction(0) but costs less to scan.  Requires every
    vertex to have at least one neighbor.
    """
    vs, pos = _positions(g, order)
    mat = [[0] * len(vs) for _ in vs]
    one = Fraction(1)
    for i, v in enumerate(vs):
        d = g.degree(v)
        if d == 0:
            raise ValueError(f"vertex {v} is isolated; normalization undefined")
        row, off = mat[i], Fraction(-1, d)  # immutable: one instance serves the whole row
        row[i] = one
        for w in g.neighbors(v):
            row[pos[w]] = off
    return mat
