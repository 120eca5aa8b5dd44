"""Exact linear algebra over arbitrary-precision integers.

Every kernel takes integer matrices only, and floating point never
appears.  Determinants, the adjugate's diagonal and quadratic forms, and
the trailing coefficients of the pencil det(x*diag(s) - M) share one
fraction-free (Bareiss) elimination that touches only each row's span of
nonzeros, so banded matrices cost O(n * b^2).  The ring it runs over
supplies one step function, the Bareiss update (p*a - h*b) / q done
exactly: plain integer arithmetic for determinants and adjugate forms,
and for the pencil a fused update over Z[x]/(x^3), integer power series
truncated after x^2, written out coefficient by coefficient.  The
adjugate is never formed: ``adjugate_forms`` reads the entries it needs
inside the band of the symmetric factor (selected inversion).  No full
characteristic polynomial is formed here either: the mirror-block
factorization is certified at the matrix level in
``spectral.factorization_holds``.  The one graph matrix built here is
the integer Laplacian; its degree-scaled forms are read as the pencil
det(xD - L), never as a rational matrix.
"""

from __future__ import annotations

from operator import mul


class SingularMatrixError(ValueError):
    """Raised when an operation requires a nonsingular matrix."""


def _require_square(matrix) -> int:
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


def _int_rows(matrix, diagonal: bool) -> tuple[list, list, list]:
    """Validate a square integer matrix once and copy its rows.

    Returns (rows, lo, hi): ``rows[i]`` is row i as plain ints (a bool
    becomes 0 or 1), and every nonzero of row i lies in columns
    lo[i]..hi[i]-1 (lo[i] = n for a zero row).  With ``diagonal`` the span
    also covers column i, where a pencil adds its x term.
    """
    n = _require_square(matrix)
    rows, lo, hi = [], [], []
    for i, row in enumerate(matrix):
        if not set(map(type, row)) <= {int}:
            for entry in row:
                if not isinstance(entry, int):
                    raise ValueError(f"matrix entries must be int, got {entry!r}")
            row = map(int, row)
        row = list(row)
        nonzero = [j for j, e in enumerate(row) if e]
        if diagonal:
            nonzero.append(i)
        rows.append(row)
        lo.append(min(nonzero, default=n))
        hi.append(max(nonzero, default=-1) + 1)
    return rows, lo, hi


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


def _eliminate(rows: list, lo: list, hi: list, one, zero, unit, step):
    """Determinant by fraction-free elimination over an exact ring.

    ``rows`` holds n rows whose first n columns are a square matrix; any
    further columns are carried: every update and rescale of a row covers
    all of them, and pivots are sought only in the first n.  The ring
    supplies its identity ``one``, its ``zero``, the test ``unit`` of a
    usable pivot, and ``step(p, a, h, b, q)``, which returns
    (p*a - h*b) / q for a divisor q for which ``unit`` holds; the division
    is exact.  Entries need nothing else but truth testing and unary
    ``-``.  Entry a of a row is updated against entry b of the pivot row
    as step(pivot, a, head, b, previous pivot), and a deferred rescale by
    num/den is step(num, a, zero, zero, den).  Every nonzero of row i in
    the first n columns lies in columns lo[i]..hi[i]-1.  ``rows``, ``lo``
    and ``hi`` are consumed: on return each pivot row holds its state at
    its own step.

    Step c takes its pivot from the rows whose first nonzero is column c:
    row c itself when it has a unit there, else the narrowest.  On a
    symmetric matrix the pivot rows are then its symmetric factor.  A row
    skipped by a step is only rescaled by the ratio of consecutive pivots,
    so the rescaling is deferred until the row next takes part.  A column
    with no nonzero left makes the determinant zero; it is swapped to the
    end so elimination can go on.  A column with nonzeros but no unit
    swaps in a later column that has one.  Returns (det, order), where
    order lists the pivot row of each step; det is None when fewer than
    n - 1 steps find a unit pivot: the remaining block has no unit, or two
    columns vanished.
    """
    n = len(rows)
    if n == 0:
        return one, []
    carried = range(n, len(rows[0]))
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
        for span in (range(lo[i], hi[i]), carried):
            for j in span:
                if row[j]:
                    row[j] = step(num, row[j], zero, zero, den)
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
        r = c if c in candidates else min(candidates, key=hi.__getitem__)
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
            for span in (range(c + 1, end), carried):
                for j in span:
                    if row_r[j] or row_i[j]:
                        row_i[j] = step(pivot, row_i[j], head, row_r[j], prev)
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


def _int_step(p: int, a: int, h: int, b: int, q: int) -> int:
    return (p * a - h * b) // q


class _Series:
    """An element of Z[x]/(x^3): integer power series truncated after x^2.

    The scalar ring of the trailing-coefficient elimination.  ``c`` holds
    the three coefficients, ascending; all arithmetic is ``_series_step``.
    """

    __slots__ = ("c",)

    def __init__(self, c: tuple) -> None:
        self.c = c

    def __bool__(self) -> bool:
        return self.c != (0, 0, 0)

    def __neg__(self) -> "_Series":
        a0, a1, a2 = self.c
        return _Series((-a0, -a1, -a2))


def _series_step(p: _Series, a: _Series, h: _Series, b: _Series, q: _Series) -> _Series:
    """(p*a - h*b) / q in Z[x]/(x^3), for q with a nonzero constant term.

    The products and the difference are truncated after x^2 and the
    quotient is solved one coefficient at a time; a nonzero remainder
    raises ArithmeticError.
    """
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
    return _Series((t0, t1, t2))


def _has_constant_term(s: _Series) -> bool:
    return s.c[0] != 0


def det_bareiss(matrix) -> int:
    """Exact determinant of a square integer matrix.

    Bareiss's fraction-free elimination works only inside each row's
    span of nonzeros, so a matrix of bandwidth b costs O(n * b^2).
    """
    rows, lo, hi = _int_rows(matrix, diagonal=False)
    det, _ = _eliminate(rows, lo, hi, 1, 0, bool, _int_step)
    return 0 if det is None else det


def adjugate_forms(matrix, vectors=()) -> tuple[int, list[int], list[int]]:
    """(det M, diag(adj M), [v·adj(M)·v for v in vectors]) of a symmetric integer M.

    Every pivot is taken on the diagonal, so row k at its own step is row
    k of the fraction-free factor M = Uᵀ·diag(1/(p_{k-1}·p_k))·U, with
    pivot p_k = U_kk (p_{-1} = 1, det = p_{N-1}).  The vectors ride along
    as carried columns.  Takahashi's recurrences then read A = adj M inside
    the band b of U, from k = N-1 down:
    A_kj = -(Σ_l U_kl·A_lj) / p_k for k < j <= k + b and
    A_kk = (det·p_{k-1} - Σ_l U_kl·A_lk) / p_k, and back substitution
    gives y = A·v as y_k = (det·ζ_k - Σ_l U_kl·y_l) / p_k, where ζ_k is
    v's carried entry of row k.  Every division is exact, so a matrix of
    bandwidth b costs O(N·b²) time and O(N·b) integers besides M.  A
    vanishing leading principal minor raises SingularMatrixError; for a
    positive semidefinite M that happens exactly when M is singular.
    """
    rows, lo, hi = _int_rows(matrix, diagonal=False)
    n = len(rows)
    if any(rows[j][i] != rows[i][j] for i in range(n) for j in range(lo[i], hi[i])):
        raise ValueError("matrix is not symmetric")
    vectors = [list(v) for v in vectors]
    if any(len(v) != n or not all(isinstance(e, int) for e in v) for v in vectors):
        raise ValueError("each vector needs one int entry per row")
    for i, row in enumerate(rows):
        row.extend(v[i] for v in vectors)
    det, order = _eliminate(rows, lo, hi, 1, 0, bool, _int_step)
    if not det or order != list(range(n)):
        raise SingularMatrixError("matrix has a vanishing leading principal minor")
    b = 0
    for k, row in enumerate(rows):
        j = hi[k] - 1
        while j > k and not row[j]:
            j -= 1
        b = max(b, j - k)
    near = [[]] * n  # near[k][o] = A[k][k + o] for o = 0..b
    ys = [[0] * n for _ in vectors]
    prev = [1] + [rows[k][k] for k in range(n - 1)]
    for k in reversed(range(n)):
        row, p = rows[k], rows[k][k]
        upper = [(l, row[l]) for l in range(k + 1, min(k + b + 1, n)) if row[l]]
        a = [0] * (b + 1)
        for j in range(min(k + b, n - 1), k, -1):
            a[j - k] = -sum(u * (near[l][j - l] if l <= j else near[j][l - j])
                            for l, u in upper) // p
        a[0] = (det * prev[k] - sum(u * a[l - k] for l, u in upper)) // p
        near[k] = a
        for t, y in enumerate(ys):
            y[k] = (det * row[n + t] - sum(u * y[l] for l, u in upper)) // p
    forms = [sum(map(mul, v, y)) for v, y in zip(vectors, ys)]
    return det, [a[0] for a in near], forms


def char_poly_tail(matrix, scale) -> tuple[int, int, int]:
    """Lowest three coefficients of det(x*diag(scale) - M), ascending.

    M is a square integer matrix and ``scale`` holds one positive int per
    row.  The pencil is eliminated over Z[x]/(x^3), so only the wanted
    coefficients are ever formed.  Every pivot needs a nonzero constant
    term, which exists at each step but the last exactly when M has rank
    at least n - 1; otherwise SingularMatrixError is raised.
    """
    rows, lo, hi = _int_rows(matrix, diagonal=True)
    n = len(rows)
    scale = tuple(scale)
    if len(scale) != n or not all(type(s) is int and s > 0 for s in scale):
        raise ValueError(f"scale needs one positive int for each of the {n} rows")
    zero = _Series((0, 0, 0))
    series_rows = []
    for i, row in enumerate(rows):
        series = [zero] * n
        for j in range(lo[i], hi[i]):
            if row[j]:
                series[j] = _Series((-row[j], 0, 0))
        series[i] = _Series((-row[i], scale[i], 0))
        series_rows.append(series)
    det, _ = _eliminate(series_rows, lo, hi, _Series((1, 0, 0)), zero,
                        _has_constant_term, _series_step)
    if det is None:
        raise SingularMatrixError("matrix has rank below n - 1")
    return det.c


# ---------------------------------------------------------------------------
# graph matrices


def laplacian(g, order=None) -> list[list[int]]:
    """Combinatorial Laplacian (degree matrix minus adjacency), integer entries.

    ``order`` selects the vertex order of rows/columns (default: the
    graph's own order) and must be a permutation of the vertices.  Any
    order gives a similar matrix with the same spectrum, so callers may
    pick one that concentrates the nonzeros.
    """
    vs = tuple(order) if order is not None else g.vertices
    pos = {v: i for i, v in enumerate(vs)}
    if len(pos) != len(vs) or pos.keys() != set(g.vertices):
        raise ValueError("order must be a permutation of the graph's vertices")
    mat = [[0] * len(vs) for _ in vs]
    for i, v in enumerate(vs):
        mat[i][i] = g.degree(v)
        for w in g.neighbors(v):
            mat[i][pos[w]] = -1
    return mat
