"""Exact linear algebra over arbitrary-precision integers.

Every kernel takes symmetric integer matrices only, and floating point
never appears.  Determinants, the adjugate's diagonal and quadratic
forms, and the trailing coefficients of the pencils det(xI - M) and
det(x*diag(s) - M) share one fraction-free (Bareiss) elimination on
each row's upper envelope (George & Liu, 1981): its columns from the
diagonal to its last nonzero.  Bareiss's intermediates are bordered
minors, symmetric for a symmetric M, so nothing left of the diagonal is
stored or updated; a matrix of bandwidth b costs O(n * b^2) time and
O(n * b) entries, and a nonsymmetric one raises ValueError.  Step c
pivots on row c, so the pivots are the leading principal minors, and
the pivot contract is that every proper one is usable: nonzero, and for
the pencils of nonzero constant term.  One that is not raises
SingularMatrixError.  Every matrix the oracles pass meets the contract,
since each proper principal submatrix of a connected graph's Laplacian
is positive definite.  The ring supplies one step function, the Bareiss
update (p*a - h*b) / q done exactly: plain integer arithmetic for
determinants and adjugate forms, and a fused update over
Z[x, y]/(x^3, xy, y^3), written out coefficient by coefficient, for
det(xI + y*diag(s) - M), which carries both pencils.  A row that sat out
steps is updated with its stale factor divided out in that same step.
The adjugate is never formed: ``adjugate_forms``
reads the entries it needs inside the band of the symmetric factor
(selected inversion).  No full characteristic polynomial is formed:
``spectral.factorization_holds`` certifies the mirror-block split on 2×2
tiles of ``laplacian_rows``.  The one graph matrix built here is the
integer Laplacian, row by row from adjacency (``laplacian_rows``); its
degree-scaled forms are read as the pencil det(xD - L), never as a
rational matrix.  No dense matrix is built here; the tests keep theirs
in ``dense_reference``.  A dense matrix passed to a kernel is validated
and converted to envelope rows once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from operator import mul


class SingularMatrixError(ValueError):
    """Raised when an operation requires a nonsingular matrix."""


@dataclass(frozen=True)
class Envelope:
    """A square integer matrix stored by rows in envelope form.

    Row i is ``entries[i]`` from column ``offsets[i]`` on and zero outside
    it, so a matrix of bandwidth b takes O(n * b) integers.  Built by
    ``laplacian_rows``; every kernel takes it in place of a dense matrix.
    Each row must lie inside the n columns and hold ints only, as a dense
    matrix must; a bool becomes 0 or 1.  Both fields are stored as
    tuples, so they stay as validated.
    """

    offsets: tuple
    entries: tuple

    def __post_init__(self) -> None:
        offsets, entries = tuple(self.offsets), tuple(tuple(_int_row(e)) for e in self.entries)
        if len(offsets) != len(entries) or any(type(o) is not int or o < 0 or o + len(e) > len(entries)
                                               for o, e in zip(offsets, entries)):
            raise ValueError("matrix is not square")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)


def _int_row(row):
    """``row`` itself when every entry is an int, else a copy with each bool
    made 0 or 1; any other entry raises ValueError."""
    if set(map(type, row)) <= {int}:
        return row
    for entry in row:
        if not isinstance(entry, int):
            raise ValueError(f"matrix entries must be int, got {entry!r}")
    return list(map(int, row))


def _int_rows(matrix) -> tuple[list[int], list[list]]:
    """(offsets, rows): a square integer matrix as fresh envelope rows.

    An ``Envelope`` is copied as it is.  A dense matrix (n lists of n
    entries) is validated once: a bool becomes 0 or 1 and any other
    non-int entry raises ValueError; each row keeps the columns from its
    first to its last nonzero (a zero row keeps none).
    """
    if isinstance(matrix, Envelope):
        return list(matrix.offsets), [list(e) for e in matrix.entries]
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix is not square")
    offsets, rows = [], []
    for i, row in enumerate(map(_int_row, matrix)):
        nonzero = [j for j, e in enumerate(row) if e]
        first, end = (nonzero[0], nonzero[-1] + 1) if nonzero else (i, i)
        offsets.append(first)
        rows.append(list(row[first:end]))
    return offsets, rows


def _upper_rows(matrix) -> list[list]:
    """Each row of a symmetric integer matrix from its diagonal on, the
    diagonal entry included even when it is 0.

    ``matrix`` is dense or an ``Envelope``, validated by ``_int_rows``.
    The kernels read these upper envelopes alone, so ValueError is raised
    unless the nonzeros left of the diagonal, mirrored, are exactly those
    right of it.
    """
    offsets, rows = _int_rows(matrix)
    upper = [(row[i - o:] or [0]) if o <= i else [0] * (o - i) + row
             for i, (o, row) in enumerate(zip(offsets, rows))]
    lower = {(j, i, e) for i, (o, row) in enumerate(zip(offsets, rows))
             for j, e in enumerate(row[:max(i - o, 0)], o) if e}
    if lower != {(i, j, e) for i, u in enumerate(upper) for j, e in enumerate(u[1:], i + 1) if e}:
        raise ValueError("matrix is not symmetric")
    return upper


def _eliminate(rows: list, one, zero, unit, step, carried=None):
    """Determinant of a symmetric matrix by fraction-free elimination
    over an exact ring.

    ``rows[i]`` holds row i's upper envelope, its entries from column i
    on, at least one.  ``carried``, if given, holds further columns per
    row: every update of a row covers them.  The ring supplies its
    identity ``one``, its ``zero``, the test ``unit`` of a usable pivot,
    and ``step(p, a, h, b, q)``, which returns (p*a - h*b) / q for a
    divisor q for which ``unit`` holds; the division is exact.  Entries
    need nothing else but truth testing.  ``rows`` and ``carried`` are
    consumed: on return row i holds its state at step i, so the rows are
    the symmetric fraction-free factor.

    Step c pivots on row c, so its pivot is the leading principal minor
    of order c + 1.  The pivot contract is that ``unit`` holds for every
    proper leading principal minor: a pivot before the last for which it
    fails raises SingularMatrixError.  Returns the last pivot, the
    determinant.  With p_k the pivot of step k - 1 (p_0 = one), a row
    last updated by step L - 1 holds its state after step c - 1 times
    p_L / p_c.  The pivot row is first brought to that state, by
    step(p_c, a, zero, zero, p_L) if L < c.  Step c then updates row i
    exactly when the pivot row holds a nonzero h in column i, by
    step(pivot, a, head, b, p_L) on row i's entries and the pivot row's
    from column i on: Bareiss's update with the stale factor divided out.
    By symmetry the head, row i's stale entry in column c, is h if L = c,
    the pivot row's input entry in column i if L = 0, and else
    h * p_L / p_c, one step per row update.
    """
    n = len(rows)
    if n == 0:
        return one
    if carried is None:
        carried = [()] * n
    given = rows[:]       # given[c][k]: the input entry in row c + k, column c
    pivots = [one]        # pivots[c]: the pivot of step c-1, a minor of order c
    lag = [0] * n         # row i holds its state after step lag[i]-1, unscaled since

    def diagonal(c: int):
        # Row c brought to its state after step c-1, and its diagonal entry.
        if lag[c] != c:
            num, den = pivots[c], pivots[lag[c]]
            rows[c] = [step(num, a, zero, zero, den) if a else a for a in rows[c]]
            carried[c] = [step(num, a, zero, zero, den) if a else a for a in carried[c]]
            lag[c] = c
        return rows[c][0]

    for c in range(n - 1):
        pivot = diagonal(c)
        if not unit(pivot):
            raise SingularMatrixError("matrix has a vanishing leading principal minor")
        row_c, carried_c, p_c = rows[c], carried[c], pivots[c]
        for k in range(1, len(row_c)):
            h = row_c[k]
            if not h:
                continue
            i, last = c + k, lag[c + k]
            p_l = pivots[last]
            head = h if last == c else step(h, p_l, zero, zero, p_c) if last else given[c][k]
            rows[i] = [step(pivot, a, head, b, p_l) if a or b else a
                       for a, b in zip_longest(rows[i], row_c[k:], fillvalue=zero)]
            if carried_c:
                carried[i] = [step(pivot, a, head, b, p_l) if a or b else a
                              for a, b in zip(carried[i], carried_c)]
            lag[i] = c + 1
        pivots.append(pivot)
    return diagonal(n - 1)


def _int_step(p: int, a: int, h: int, b: int, q: int) -> int:
    return (p * a - h * b) // q


class _Series:
    """An element of Z[x, y]/(x^3, xy, y^3), the scalar ring of the
    trailing-coefficient elimination.  ``c`` holds the coefficients of
    1, x, x^2, y, y^2; all arithmetic is ``_series_step``.
    """

    __slots__ = ("c",)

    def __init__(self, c: tuple) -> None:
        self.c = c

    def __bool__(self) -> bool:
        return self.c != (0, 0, 0, 0, 0)


def _series_step(p: _Series, a: _Series, h: _Series, b: _Series, q: _Series) -> _Series:
    """(p*a - h*b) / q in Z[x, y]/(x^3, xy, y^3), for q with a nonzero
    constant term.

    Since xy = 0 the x-part and the y-part never mix.  The quotient is
    solved one coefficient at a time; a nonzero remainder raises
    ArithmeticError.
    """
    p0, p1, p2, p3, p4 = p.c
    a0, a1, a2, a3, a4 = a.c
    h0, h1, h2, h3, h4 = h.c
    b0, b1, b2, b3, b4 = b.c
    q0, q1, q2, q3, q4 = q.c
    t0, r0 = divmod(p0 * a0 - h0 * b0, q0)
    t1, r1 = divmod(p0 * a1 + p1 * a0 - h0 * b1 - h1 * b0 - t0 * q1, q0)
    t2, r2 = divmod(p0 * a2 + p1 * a1 + p2 * a0 - h0 * b2 - h1 * b1 - h2 * b0
                    - t0 * q2 - t1 * q1, q0)
    t3, r3 = divmod(p0 * a3 + p3 * a0 - h0 * b3 - h3 * b0 - t0 * q3, q0)
    t4, r4 = divmod(p0 * a4 + p3 * a3 + p4 * a0 - h0 * b4 - h3 * b3 - h4 * b0
                    - t0 * q4 - t3 * q3, q0)
    if r0 or r1 or r2 or r3 or r4:
        raise ArithmeticError("truncated-series division is not exact")
    return _Series((t0, t1, t2, t3, t4))


def det_bareiss(matrix) -> int:
    """Exact determinant of a symmetric integer matrix, dense or ``Envelope``.

    Bareiss's fraction-free elimination pivots on the diagonal and works
    only inside each row's upper envelope, so a matrix of bandwidth b
    costs O(n * b^2).  A nonsymmetric matrix raises ValueError, and a
    vanishing proper leading principal minor raises
    SingularMatrixError: det([[0, 1], [1, 0]]) raises, det([[1, 1], [1, 1]]) is 0.
    """
    return _eliminate(_upper_rows(matrix), 1, 0, bool, _int_step)


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
    bandwidth b costs O(N·b²) time and O(N·b) integers.  Every leading
    principal minor, det M included, must be nonzero; one that vanishes
    raises SingularMatrixError.  For a positive semidefinite M that
    happens exactly when M is singular.
    """
    rows = _upper_rows(matrix)
    n = len(rows)
    vectors = [list(v) for v in vectors]
    if any(len(v) != n or not all(isinstance(e, int) for e in v) for v in vectors):
        raise ValueError("each vector needs one int entry per row")
    carried = [[v[i] for v in vectors] for i in range(n)]
    det = _eliminate(rows, 1, 0, bool, _int_step, carried)
    if not det:
        raise SingularMatrixError("matrix has a vanishing leading principal minor")
    b = max((len(row) - 1 for row in rows), default=0)
    near = [[]] * n  # near[k][o] = A[k][k + o] for o = 0..b
    ys = [[0] * n for _ in vectors]
    diagonal = [row[0] for row in rows]
    prev = [1] + diagonal[:-1]
    for k in reversed(range(n)):
        row, p = rows[k], diagonal[k]
        upper = [(l, u) for l, u in enumerate(row[1:], k + 1) if u]
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


def char_poly_tails(matrix, scale) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Lowest three coefficients, ascending, of det(xI - M) and of
    det(x*diag(scale) - M).

    M is a symmetric integer matrix (else ValueError), dense or an
    ``Envelope``; ``scale`` holds one positive int per row.  Both tails
    come from one elimination of det(xI + y*diag(scale) - M) over
    Z[x, y]/(x^3, xy, y^3): y = 0 leaves the first pencil and x = 0 the
    second, so only the wanted coefficients are ever formed.  Pivots are
    taken on the diagonal, and each but the last needs a nonzero constant
    term, ± a proper leading principal minor of M.  One that vanishes
    raises SingularMatrixError, as does any M of rank below n - 1.
    """
    rows = _upper_rows(matrix)
    n = len(rows)
    scale = tuple(scale)
    if len(scale) != n or not all(type(s) is int and s > 0 for s in scale):
        raise ValueError(f"scale needs one positive int for each of the {n} rows")
    zero = _Series((0, 0, 0, 0, 0))
    # each diagonal entry d becomes x + s_i y - d
    series_rows = [[_Series((-row[0], 1, 0, s, 0))]
                   + [_Series((-e, 0, 0, 0, 0)) if e else zero for e in row[1:]]
                   for row, s in zip(rows, scale)]
    c0, c1, c2, c3, c4 = _eliminate(series_rows, _Series((1, 0, 0, 0, 0)), zero,
                                    lambda s: s.c[0] != 0, _series_step).c
    return (c0, c1, c2), (c0, c3, c4)


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
