"""Exact linear algebra over arbitrary-precision integers.

Every kernel takes integer matrices only, and floating point never
appears.  Determinants, the adjugate's diagonal and quadratic forms, and
the trailing coefficients of the pencil det(x*diag(s) - M) share one
fraction-free (Bareiss) elimination on rows in envelope form (George &
Liu, 1981): each row stores only its columns from its first to its last
nonzero, so a matrix of bandwidth b costs O(n * b^2) time and O(n * b)
entries.  The ring it runs over supplies one step function, the Bareiss
update (p*a - h*b) / q done exactly: plain integer arithmetic for
determinants and adjugate forms, and for the pencil a fused update over
Z[x]/(x^3), integer power series truncated after x^2, written out
coefficient by coefficient.  A row that sat out steps is updated with
its stale factor divided out in that same step, so no step only
rescales a row that is about to be updated.  The adjugate is never
formed: ``adjugate_forms`` reads the entries it needs inside the band of
the symmetric factor (selected inversion).  No full characteristic
polynomial is formed here either: the mirror-block factorization is
certified at the matrix level in ``spectral.factorization_holds``.  The
one graph matrix built here is the integer Laplacian, row by row from
adjacency (``laplacian_rows``; ``laplacian`` is its dense expansion);
its degree-scaled forms are read as the pencil det(xD - L), never as a
rational matrix.  A dense matrix passed to a kernel is validated and
converted to envelope rows once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from operator import mul


class SingularMatrixError(ValueError):
    """Raised when an operation requires a nonsingular matrix."""


def _require_square(matrix) -> int:
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


@dataclass(frozen=True)
class Envelope:
    """A square integer matrix stored by rows in envelope form.

    Row i is ``entries[i]`` from column ``offsets[i]`` on and zero outside
    it, so a matrix of bandwidth b takes O(n * b) integers.  Built by
    ``laplacian_rows``; every kernel takes it in place of a dense matrix.
    """

    offsets: tuple
    entries: tuple

    def __len__(self) -> int:
        return len(self.entries)

    def dense(self) -> list[list[int]]:
        """The matrix as n lists of n ints."""
        n = len(self.entries)
        mat = [[0] * n for _ in range(n)]
        for row, o, e in zip(mat, self.offsets, self.entries):
            row[o:o + len(e)] = e
        return mat


def _int_rows(matrix) -> tuple[list[int], list[list]]:
    """(offsets, rows): a square integer matrix as fresh envelope rows.

    An ``Envelope`` is copied as it is.  A dense matrix (n lists of n
    entries) is validated once: a bool becomes 0 or 1 and any other
    non-int entry raises ValueError; each row keeps the columns from its
    first to its last nonzero (a zero row keeps none).
    """
    if isinstance(matrix, Envelope):
        return list(matrix.offsets), [list(e) for e in matrix.entries]
    _require_square(matrix)
    offsets, rows = [], []
    for i, row in enumerate(matrix):
        if not set(map(type, row)) <= {int}:
            for entry in row:
                if not isinstance(entry, int):
                    raise ValueError(f"matrix entries must be int, got {entry!r}")
            row = list(map(int, row))
        nonzero = [j for j, e in enumerate(row) if e]
        first, end = (nonzero[0], nonzero[-1] + 1) if nonzero else (i, i)
        offsets.append(first)
        rows.append(list(row[first:end]))
    return offsets, rows


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


def _eliminate(offsets: list, rows: list, one, zero, unit, step, carried=None):
    """Determinant by fraction-free elimination over an exact ring.

    ``rows`` holds the n rows of a square matrix in envelope form: row i
    covers columns offsets[i] .. offsets[i] + len(rows[i]) - 1 and is zero
    outside them.  ``carried``, if given, holds further columns per row:
    every update of a row covers them, but no pivot is sought there.  The
    ring supplies its identity ``one``, its ``zero``, the test ``unit`` of
    a usable pivot, and ``step(p, a, h, b, q)``, which returns
    (p*a - h*b) / q for a divisor q for which ``unit`` holds; the division
    is exact.  Entries need nothing else but truth testing and unary
    ``-``.  ``offsets``, ``rows`` and ``carried`` are consumed: on return
    each pivot row holds its state at its own step, from column
    offsets[i] on.

    Step c takes its pivot from the rows whose first nonzero is column c:
    row c itself when it has a unit there, else the narrowest.  On a
    symmetric matrix the pivot rows are then its symmetric factor.  With
    p_k the pivot of step k - 1 (p_0 = one), a row last updated by step
    L - 1 and left out of steps L .. c - 1 holds its state after step
    c - 1 times p_L / p_c, so its update by the pivot row's true entries
    is step(pivot, a, head, b, p_L): Bareiss's update with the stale
    factor divided out, exact, and for a row updated by step c - 1 the
    usual division by p_c.  Only a stale pivot row and the last row are
    rescaled, by step(p_c, a, zero, zero, p_L).  A column with no nonzero
    left makes the determinant zero; it is swapped to the end so
    elimination can go on.  A column with nonzeros but no unit swaps in a
    later column that has one; stale rows may be permuted as they are,
    since their factor is common to all their entries.  Returns
    (det, order), where order lists the pivot row of each step; det is
    None when fewer than n - 1 steps find a unit pivot: the remaining
    block has no unit, or two columns vanished.
    """
    n = len(rows)
    if n == 0:
        return one, []
    if carried is None:
        carried = [()] * n
    lo = [n] * n          # lo[i]: the first nonzero column of row i, n if none
    buckets: list[list[int]] = [[] for _ in range(n + 1)]
    pivots = [one]        # pivots[c]: the pivot of step c-1, a minor of order c
    lag = [0] * n         # row i holds its state after step lag[i]-1, unscaled since
    used = [False] * n
    order = []            # pivot row of each step
    sign = 1
    vanished = False      # a zero column has been moved to the end

    def end(i: int) -> int:
        return offsets[i] + len(rows[i])

    def entry(i: int, j: int):
        k = j - offsets[i]
        return rows[i][k] if 0 <= k < len(rows[i]) else zero

    def rescale(i: int, c: int) -> None:
        # Bring row i, last touched before step c, to its state after step c-1.
        num, den = pivots[c], pivots[lag[i]]
        rows[i] = [step(num, a, zero, zero, den) if a else a for a in rows[i]]
        carried[i] = [step(num, a, zero, zero, den) if a else a for a in carried[i]]
        lag[i] = c

    def place(i: int, start: int) -> None:
        # File row i under its first nonzero column at or after ``start``.
        row, o = rows[i], offsets[i]
        j, stop = max(start, o), end(i)
        while j < stop and not row[j - o]:
            j += 1
        lo[i] = j if j < stop else n
        buckets[lo[i]].append(i)

    def gather(c: int) -> list[int]:
        # The remaining rows with a nonzero in column c.
        live = []
        for i in buckets[c]:
            if rows[i][c - offsets[i]]:
                live.append(i)
            else:
                place(i, c + 1)
        buckets[c] = []
        return live

    def swap_columns(c: int, target: int) -> list[int]:
        # Swap two columns of the remaining rows, widening a row's envelope
        # where a nonzero moves out of it, then gather column c.
        nonlocal sign
        sign = -sign
        for k in range(c, n + 1):
            buckets[k] = []
        for i in range(n):
            if not used[i]:
                a, b = entry(i, c), entry(i, target)
                if b and c < offsets[i]:
                    rows[i][:0] = [zero] * (offsets[i] - c)
                    offsets[i] = c
                if a and target >= end(i):
                    rows[i] += [zero] * (target + 1 - end(i))
                if a or b:
                    row, o = rows[i], offsets[i]
                    row[c - o], row[target - o] = b, a
                place(i, c)
        return gather(c)

    for i in range(n):
        place(i, 0)
    for c in range(n - 1):
        live = gather(c)
        candidates = [i for i in live if unit(rows[i][c - offsets[i]])]
        while not candidates:
            if live:
                target = min(
                    (j for i in range(n) if not used[i]
                     for j in range(max(lo[i], c + 1), end(i)) if unit(entry(i, j))),
                    default=None,
                )
            elif not vanished:
                vanished, target = True, n - 1
            else:
                target = None
            if target is None:
                return None, order
            live = swap_columns(c, target)
            candidates = [i for i in live if unit(rows[i][c - offsets[i]])]
        r = c if c in candidates else min(candidates, key=end)
        used[r] = True
        order.append(r)
        if lag[r] != c:
            rescale(r, c)
        row_r, carried_r = rows[r], carried[r]
        pivot = row_r[c - offsets[r]]
        tail_r = row_r[c + 1 - offsets[r]:]
        for i in live:
            if i == r:
                continue
            row_i, prev = rows[i], pivots[lag[i]]
            head = row_i[c - offsets[i]]
            rows[i] = [step(pivot, a, head, b, prev) if a or b else a
                       for a, b in zip_longest(row_i[c + 1 - offsets[i]:], tail_r, fillvalue=zero)]
            if carried_r:
                carried[i] = [step(pivot, a, head, b, prev) if a or b else a
                              for a, b in zip(carried[i], carried_r)]
            offsets[i] = c + 1
            lag[i] = c + 1
            place(i, c + 1)
        pivots.append(pivot)

    last = used.index(False)
    order.append(last)
    if lag[last] != n - 1:
        rescale(last, n - 1)
    det = entry(last, n - 1)
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
    """Exact determinant of a square integer matrix, dense or ``Envelope``.

    Bareiss's fraction-free elimination works only inside each row's
    envelope, so a matrix of bandwidth b costs O(n * b^2).
    """
    det, _ = _eliminate(*_int_rows(matrix), 1, 0, bool, _int_step)
    return 0 if det is None else det


def adjugate_forms(matrix, vectors=()) -> tuple[int, list[int], list[int]]:
    """(det M, diag(adj M), [v·adj(M)·v for v in vectors]) of a symmetric integer M.

    M is dense or an ``Envelope``.  Every pivot is taken on the diagonal,
    so row k at its own step is row k of the fraction-free factor
    M = Uᵀ·diag(1/(p_{k-1}·p_k))·U, with pivot p_k = U_kk (p_{-1} = 1,
    det = p_{N-1}).  The vectors ride along as carried columns.
    Takahashi's recurrences then read A = adj M inside the band b of U,
    from k = N-1 down:
    A_kj = -(Σ_l U_kl·A_lj) / p_k for k < j <= k + b and
    A_kk = (det·p_{k-1} - Σ_l U_kl·A_lk) / p_k, and back substitution
    gives y = A·v as y_k = (det·ζ_k - Σ_l U_kl·y_l) / p_k, where ζ_k is
    v's carried entry of row k.  Every division is exact, so a matrix of
    bandwidth b costs O(N·b²) time and O(N·b) integers.  A vanishing
    leading principal minor raises SingularMatrixError; for a positive
    semidefinite M that happens exactly when M is singular.
    """
    offsets, rows = _int_rows(matrix)
    n = len(rows)
    nonzeros = {(i, j): e for i, (o, row) in enumerate(zip(offsets, rows))
                for j, e in enumerate(row, o) if e}
    if any(nonzeros.get((j, i)) != e for (i, j), e in nonzeros.items()):
        raise ValueError("matrix is not symmetric")
    vectors = [list(v) for v in vectors]
    if any(len(v) != n or not all(isinstance(e, int) for e in v) for v in vectors):
        raise ValueError("each vector needs one int entry per row")
    carried = [[v[i] for v in vectors] for i in range(n)]
    det, order = _eliminate(offsets, rows, 1, 0, bool, _int_step, carried)
    if not det or order != list(range(n)):
        raise SingularMatrixError("matrix has a vanishing leading principal minor")
    b = 0
    for k, (o, row) in enumerate(zip(offsets, rows)):
        j = o + len(row) - 1
        while j > k and not row[j - o]:
            j -= 1
        b = max(b, j - k)
    near = [[]] * n  # near[k][o] = A[k][k + o] for o = 0..b
    ys = [[0] * n for _ in vectors]
    diagonal = [row[k - o] for k, (o, row) in enumerate(zip(offsets, rows))]
    prev = [1] + diagonal[:-1]
    for k in reversed(range(n)):
        row, o, p = rows[k], offsets[k], diagonal[k]
        upper = [(l, row[l - o]) for l in range(k + 1, min(k + b + 1, o + len(row)))
                 if row[l - o]]
        a = [0] * (b + 1)
        for j in range(min(k + b, n - 1), k, -1):
            a[j - k] = -sum(u * (near[l][j - l] if l <= j else near[j][l - j])
                            for l, u in upper) // p
        a[0] = (det * prev[k] - sum(u * a[l - k] for l, u in upper)) // p
        near[k] = a
        for t, y in enumerate(ys):
            y[k] = (det * carried[k][t] - sum(u * y[l] for l, u in upper)) // p
    forms = [sum(map(mul, v, y)) for v, y in zip(vectors, ys)]
    return det, [a[0] for a in near], forms


def char_poly_tail(matrix, scale) -> tuple[int, int, int]:
    """Lowest three coefficients of det(x*diag(scale) - M), ascending.

    M is a square integer matrix, dense or an ``Envelope``, and ``scale``
    holds one positive int per row.  The pencil is eliminated over
    Z[x]/(x^3), so only the wanted coefficients are ever formed.  Every
    pivot needs a nonzero constant term, which exists at each step but the
    last exactly when M has rank at least n - 1; otherwise
    SingularMatrixError is raised.
    """
    offsets, rows = _int_rows(matrix)
    n = len(rows)
    scale = tuple(scale)
    if len(scale) != n or not all(type(s) is int and s > 0 for s in scale):
        raise ValueError(f"scale needs one positive int for each of the {n} rows")
    zero = _Series((0, 0, 0))
    series_rows = []
    for i, (o, row) in enumerate(zip(offsets, rows)):
        # the envelope widened to the diagonal, where the pencil adds s_i x
        start = min(o, i)
        series = [zero] * (max(o + len(row), i + 1) - start)
        for j, e in enumerate(row, o - start):
            if e:
                series[j] = _Series((-e, 0, 0))
        series[i - start] = _Series((series[i - start].c[0], scale[i], 0))
        offsets[i] = start
        series_rows.append(series)
    det, _ = _eliminate(offsets, series_rows, _Series((1, 0, 0)), zero,
                        _has_constant_term, _series_step)
    if det is None:
        raise SingularMatrixError("matrix has rank below n - 1")
    return det.c


# ---------------------------------------------------------------------------
# graph matrices


def laplacian_rows(g, order) -> Envelope:
    """The Laplacian's principal submatrix on the vertices of ``order``.

    ``order`` lists distinct vertices of g and fixes the row/column order;
    leaving a vertex out grounds it.  Each row is built from the vertex's
    adjacency, in O(degree) besides its envelope, which spans the row's
    first to last nonzero.
    """
    vs = tuple(order)
    pos = {v: i for i, v in enumerate(vs)}
    if len(pos) != len(vs) or not pos.keys() <= set(g.vertices):
        raise ValueError("order must list distinct vertices of the graph")
    offsets, entries = [], []
    for i, v in enumerate(vs):
        neighbors = g.neighbors(v)
        cols = [pos[w] for w in neighbors if w in pos]
        first = min(cols + [i])
        row = [0] * (max(cols + [i]) + 1 - first)
        for j in cols:
            row[j - first] = -1
        row[i - first] = len(neighbors)
        offsets.append(first)
        entries.append(row)
    return Envelope(tuple(offsets), tuple(entries))


def laplacian(g, order=None) -> list[list[int]]:
    """Combinatorial Laplacian (degree matrix minus adjacency), integer entries.

    ``order`` selects the vertex order of rows/columns (default: the
    graph's own order) and must be a permutation of the vertices.  Any
    order gives a similar matrix with the same spectrum, so callers may
    pick one that concentrates the nonzeros.  The dense expansion of
    ``laplacian_rows``.
    """
    vs = tuple(order) if order is not None else g.vertices
    if len(set(vs)) != len(vs) or set(vs) != set(g.vertices):
        raise ValueError("order must be a permutation of the graph's vertices")
    return laplacian_rows(g, vs).dense()
