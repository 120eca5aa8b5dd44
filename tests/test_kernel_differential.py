"""Differential tests of the band-aware exact kernel against naive references.

``det_bareiss`` and ``char_poly_tails`` are compared with the dense
Bareiss copy, Fraction Gaussian elimination and the interpolated pencils
det(xI - M) and det(x*diag(s) - M) in ``dense_reference``; the
interpolated pencil is itself checked against the Faddeev-LeVerrier
recurrence.  Every kernel takes symmetric matrices only: a drawn matrix
must be rejected with the symmetry ValueError unless it is symmetric,
the references are compared on it as drawn, and the kernels on the
symmetric matrix that shares its lower triangle (``symmetrized``).
The kernels pivot on the diagonal, so each check also
holds them to the pivot contract: they raise SingularMatrixError
exactly when a proper leading principal minor vanishes (judged by
``fraction_det`` of the leading blocks), and ``adjugate_forms`` also
when det M vanishes.  The pencil det(xS - K) of a symmetric K stands
for the rational, nonsymmetric S^-1 K: its tail is det S times that of
det(xI - S^-1 K).  The reference full ``adjugate`` is
checked against Gauss-Jordan elimination, and
``adjugate_forms`` (selected inversion) against that adjugate on
symmetric diagonally dominant matrices, singular ones included, and on
grounded graph Laplacians.
The fused Bareiss step over Z[x, y]/(x^3, xy, y^3) is compared, half by
half, with the operator series ring, and ``char_poly_tails`` with two
separate eliminations over Z[x]/(x^3) by the step the kernel ran before
the two pencils shared one pass, stale-row rescales included.
Staggered matrices, whose rows start right of earlier pivots and hold
runs of zeros, make rows sit out steps, so the update of a stale row,
which divides by the pivot of its own last update and reads its head by
symmetry, is checked against the dense references that rescale
explicitly.
Inputs cover singular matrices, matrices whose leading entry is zero,
0x0 and 1x1, random banded matrices, low-rank matrices and the
Laplacians of random connected graphs in shuffled vertex order, whose
proper principal submatrices are positive definite, so no kernel raises.
Examples are derandomized and bounded so the module stays a few seconds
of the tier-1 run.
"""

from fractions import Fraction
from math import prod

import pytest
from dense_reference import (
    OperatorSeries,
    Series,
    adjugate,
    char_poly,
    dense_det_bareiss,
    fraction_det,
    fraction_inverse,
    fraction_rank,
    laplacian,
    leverrier_char_poly,
    pencil_char_poly,
    proper_leading_minor_vanishes,
    random_walk_laplacian,
    series_step,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaindex import Graph, build_crossed_chain, linalg
from chaindex import oracles as oc
from chaindex.linalg import (
    SingularMatrixError,
    _eliminate,
    _Series,
    _series_step,
    adjugate_forms,
    char_poly_tails,
    det_bareiss,
)

BOUNDED = settings(max_examples=80, deadline=None, database=None, derandomize=True)

small_ints = st.integers(-4, 4)
sparse_ints = st.one_of(st.just(0), small_ints)
rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def square(draw, entries, min_n=0, max_n=6):
    n = draw(st.integers(min_n, max_n))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@st.composite
def banded(draw, entries, max_n=14):
    n = draw(st.integers(1, max_n))
    b = draw(st.integers(0, 3))
    return [[draw(entries) if abs(i - j) <= b else 0 for j in range(n)] for i in range(n)]


def symmetrized(m):
    """The symmetric matrix that shares m's lower triangle."""
    return [[m[max(i, j)][min(i, j)] for j in range(len(m))] for i in range(len(m))]


@st.composite
def singular(draw):
    # symmetric; row and column j are a multiple of row and column i, or
    # row and column i are zero
    m = symmetrized(draw(square(sparse_ints, min_n=2)))
    n = len(m)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    factor = draw(st.integers(-2, 2)) if i != j else 0
    m[j] = [factor * e for e in m[i]]
    for row in m:
        row[j] = factor * row[i]
    return m


@st.composite
def zero_leading(draw):
    m = draw(square(small_ints, min_n=2))
    m[0][0] = 0
    return m


@st.composite
def low_rank(draw, symmetric=False):
    # U V with U n x r and V r x n, r <= n - 2: rank at most n - 2;
    # V = U^T when ``symmetric``
    n = draw(st.integers(2, 6))
    r = draw(st.integers(0, n - 2))
    u = [[draw(small_ints) for _ in range(r)] for _ in range(n)]
    v = ([list(col) for col in zip(*u)] if symmetric
         else [[draw(small_ints) for _ in range(n)] for _ in range(r)])
    return [[sum(u[i][t] * v[t][j] for t in range(r)) for j in range(n)] for i in range(n)]


scales = st.integers(1, 5)


@st.composite
def with_scales(draw, matrices):
    m = draw(matrices)
    return m, draw(st.lists(scales, min_size=len(m), max_size=len(m)))


@st.composite
def shuffled_connected_graph(draw, max_size=9):
    # a random spanning tree plus random extra edges, vertices in shuffled order
    size = draw(st.integers(2, max_size))
    edges = {frozenset((v, draw(st.integers(0, v - 1)))) for v in range(1, size)}
    for _ in range(draw(st.integers(0, 2 * size))):
        u, v = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        if u != v:
            edges.add(frozenset((u, v)))
    labels = draw(st.permutations(range(size)))
    return Graph(labels, [tuple(e) for e in edges])


def padded(poly, k):
    return (poly + [Fraction(0)] * k)[:k]


def outcome(kernel, *args):
    """kernel(*args), or SingularMatrixError itself when the kernel raises it."""
    try:
        return kernel(*args)
    except SingularMatrixError:
        return SingularMatrixError


def rejects_asymmetry(kernel, m, *args) -> None:
    """kernel raises the symmetry ValueError on m unless m is symmetric."""
    if symmetrized(m) != m:
        with pytest.raises(ValueError, match="not symmetric") as err:
            kernel(m, *args)
        assert not isinstance(err.value, SingularMatrixError)


def check_det(m) -> None:
    """Fraction elimination and the dense Bareiss copy agree on m, symmetric
    or not; det_bareiss rejects m unless it is symmetric and, on the
    symmetric matrix with m's lower triangle, equals both references or
    raises SingularMatrixError exactly when a proper leading minor vanishes."""
    assert dense_det_bareiss(m) == fraction_det(m)
    rejects_asymmetry(det_bareiss, m)
    m = symmetrized(m)
    expected = fraction_det(m)
    assert dense_det_bareiss(m) == expected
    assert outcome(det_bareiss, m) == \
        (SingularMatrixError if proper_leading_minor_vanishes(m) else expected)


def check_tail(m, s) -> None:
    """char_poly_tails rejects m unless it is symmetric and, on the
    symmetric matrix with m's lower triangle, equals the interpolated
    pencils with s = 1 and with s, or raises SingularMatrixError exactly
    when a proper leading minor vanishes."""
    rejects_asymmetry(char_poly_tails, m, s)
    m = symmetrized(m)
    expected = tuple(tuple(padded(pencil_char_poly(m, scale), 3)) for scale in ([1] * len(m), s))
    assert outcome(char_poly_tails, m, s) == \
        (SingularMatrixError if proper_leading_minor_vanishes(m) else expected)


# --- determinants ------------------------------------------------------------


@BOUNDED
@given(st.one_of(square(sparse_ints), square(small_ints), singular(), zero_leading()))
def test_det_matches_references(m):
    check_det(m)


@BOUNDED
@given(singular())
def test_det_of_singular_matrix_is_zero(m):
    # zero, unless a proper leading minor vanishes first; m is symmetric
    assert fraction_det(m) == 0
    check_det(m)


@BOUNDED
@given(banded(sparse_ints))
def test_det_of_banded_matrix(m):
    check_det(m)


@BOUNDED
@given(small_ints)
def test_det_of_1x1(a):
    assert det_bareiss([[a]]) == a


def test_empty_matrix():
    assert det_bareiss([]) == 1
    assert char_poly([]) == [Fraction(1)]
    assert char_poly_tails([], []) == ((1, 0, 0), (1, 0, 0))


# --- adjugates ----------------------------------------------------------------


@BOUNDED
@given(st.one_of(square(sparse_ints), square(small_ints), banded(sparse_ints), zero_leading()))
def test_adjugate_matches_gauss_jordan(m):
    if fraction_rank(m) < len(m):
        with pytest.raises(SingularMatrixError):
            adjugate(m)
        return
    det, adj = adjugate(m)
    assert det == fraction_det(m)
    assert adj == [[det * e for e in row] for row in fraction_inverse(m)]


@BOUNDED
@given(st.one_of(singular(), low_rank()))
def test_adjugate_of_singular_matrix_raises(m):
    assert fraction_rank(m) < len(m)
    with pytest.raises(SingularMatrixError):
        adjugate(m)


def test_adjugate_when_a_row_vanishes_left_of_the_identity():
    # elimination zeroes a row's first n columns but not its part of the
    # appended identity; it must read as singular
    for m in ([[1, 1], [1, 1]], [[1, 0, 0], [0, 1, 1], [0, 1, 1]]):
        with pytest.raises(SingularMatrixError):
            adjugate(m)


@BOUNDED
@given(small_ints)
def test_adjugate_of_1x1_and_0x0(a):
    assert adjugate([]) == (1, [])
    if a:
        assert adjugate([[a]]) == (a, [[1]])
    else:
        with pytest.raises(SingularMatrixError):
            adjugate([[a]])


# --- selected inversion ------------------------------------------------------


@st.composite
def dominant_symmetric(draw, max_n=12):
    # symmetric with each diagonal entry at least its row's absolute
    # off-diagonal sum, so positive semidefinite; zero slack makes some
    # of them singular.  Returns the matrix and up to three vectors.
    n = draw(st.integers(0, max_n))
    entries = draw(st.sampled_from([small_ints, sparse_ints,
                                    st.one_of(st.just(0), st.just(0), st.just(0), small_ints)]))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(entries)
    for i in range(n):
        m[i][i] = sum(abs(e) for e in m[i]) + draw(st.sampled_from([0, 0, 1, 3]))
    vectors = draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), max_size=3))
    return m, vectors


def reference_forms(m, vectors):
    det, adj = adjugate(m)
    n = len(m)
    return det, [adj[i][i] for i in range(n)], [
        sum(v[i] * adj[i][j] * v[j] for i in range(n) for j in range(n)) for v in vectors]


def check_forms(m, vectors) -> bool:
    """adjugate_forms equals the reference, or both raise SingularMatrixError;
    True when the matrix is nonsingular."""
    try:
        expected = reference_forms(m, vectors)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            adjugate_forms(m, vectors)
        return False
    assert adjugate_forms(m, vectors) == expected
    return True


def grounded(matrix):
    m = len(matrix) - 1
    return [row[:m] for row in matrix[:m]]


@BOUNDED
@given(dominant_symmetric())
@example(([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [[1, 1, 1]]))    # singular, zero slack
@example(([[1, 1, 0], [1, 2, 1], [0, 1, 1]], [[1, -1, 1]]))         # singular, mixed signs
@example(([[2, 1, 0], [1, 2, 1], [0, 1, 2]], [[0, 0, 0]]))          # a zero vector
def test_adjugate_forms_match_the_adjugate(case):
    check_forms(*case)


@BOUNDED
@given(shuffled_connected_graph(max_size=12), st.lists(small_ints, min_size=11, max_size=11))
def test_adjugate_forms_on_grounded_laplacians(g, extra):
    # grounded at the last vertex of the shuffled order, not the band order
    matrix = grounded(laplacian(g))
    kept = g.vertices[:-1]
    vectors = [[1] * len(kept), [g.degree(v) for v in kept], extra[:len(kept)]]
    assert check_forms(matrix, vectors)


def test_adjugate_forms_explicit_cases():
    assert adjugate_forms([]) == (1, [], [])
    assert adjugate_forms([], [[]]) == (1, [], [0])
    assert adjugate_forms([[5]], [[2], [0]]) == (5, [1], [4, 0])
    with pytest.raises(SingularMatrixError):
        adjugate_forms([[0]], [[1]])
    path = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert adjugate_forms(path, [[0, 0, 0], [1, 1, 1]]) == (4, [3, 4, 3], [0, 20])
    # a disconnected graph's grounded Laplacian is singular for both routes
    apart = grounded(laplacian(Graph(range(5), [(0, 1), (1, 2), (3, 4)])))
    assert not check_forms(apart, [[1] * 4])
    # rows that vanish during elimination, as for the reference
    for m in ([[1, 1], [1, 1]], [[1, 0, 0], [0, 1, 1], [0, 1, 1]]):
        assert not check_forms(m, [])


def test_adjugate_forms_rejects_bad_input():
    with pytest.raises(ValueError, match="not symmetric"):
        adjugate_forms([[2, 1], [0, 2]])
    with pytest.raises(ValueError, match="one int entry per row"):
        adjugate_forms([[2, 1], [1, 2]], [[1]])
    with pytest.raises(ValueError, match="one int entry per row"):
        adjugate_forms([[2, 1], [1, 2]], [[1, Fraction(1, 2)]])
    with pytest.raises(ValueError, match="must be int"):
        adjugate_forms([[Fraction(1, 2)]])


def check_graph_eliminations(g, order) -> None:
    # every kernel pivots on the diagonal of a connected graph's Laplacian
    # in any vertex order; by the matrix-tree theorem the pencil's linear
    # coefficient is (-1)^(N-1) * sum(s) * tau
    lap = laplacian(g, order)
    tau = dense_det_bareiss(grounded(lap))
    assert det_bareiss(grounded(lap)) == adjugate_forms(grounded(lap))[0] == tau
    degrees = [g.degree(v) for v in order]
    for s, tail in zip(([1] * len(lap), degrees), char_poly_tails(lap, degrees)):
        assert tail[:2] == (0, (-1) ** (len(lap) - 1) * sum(s) * tau)


@pytest.mark.parametrize("n", range(1, 9))
def test_chain_eliminations_take_diagonal_pivots(n):
    g = build_crossed_chain(n)
    check_graph_eliminations(g, g.band_order())


@BOUNDED
@given(shuffled_connected_graph(max_size=12))
def test_graph_eliminations_take_diagonal_pivots(g):
    for order in (g.vertices, g.band_order()):
        check_graph_eliminations(g, order)


# --- stale rows ----------------------------------------------------------------


@st.composite
def staggered(draw, max_n=7):
    # each row starts at a drawn column and holds runs of zeros, so rows
    # sit out steps between updates (and a pivot row or the last row can
    # be stale when its turn comes); the diagonal is then made to dominate
    # its row, with zero slack now and then, so most leading minors are
    # nonzero and some vanish
    n = draw(st.integers(2, max_n))
    gaps = st.one_of(st.just(0), st.just(0), st.just(0), small_ints)
    m = []
    for i in range(n):
        first = draw(st.integers(0, n - 1))
        row = [0] * first + [draw(small_ints.filter(bool))] + [draw(gaps) for _ in range(n - first - 1)]
        row[i] = sum(abs(e) for j, e in enumerate(row) if j != i) + draw(st.sampled_from([0, 1, 1, 2]))
        m.append(row)
    return m


@st.composite
def staggered_symmetric(draw):
    # the lower triangle of a staggered matrix mirrored and made diagonally
    # dominant, so positive semidefinite; zero slack makes some singular
    m = draw(staggered())
    n = len(m)
    sym = [[m[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    for i, row in enumerate(sym):
        row[i] = sum(abs(e) for j, e in enumerate(row) if j != i) + draw(st.integers(0, 2))
    vectors = draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), max_size=2))
    return sym, vectors


# row 4 is updated at step 0, sits out steps 1 and 2 and is updated again
# at step 3; row 5 sits out steps 1 to 3; row 3 is a stale pivot row
STALE = [[2, 0, 0, 0, 1, 1],
         [0, 3, 0, 0, 0, 0],
         [0, 0, 2, 0, 0, 0],
         [0, 0, 0, 3, 1, 0],
         [1, 0, 0, 1, 4, 0],
         [1, 0, 0, 0, 0, 3]]


@BOUNDED
@given(staggered(), st.lists(st.integers(1, 5), min_size=7, max_size=7))
@example(STALE, [1] * 7)
def test_stale_rows_match_the_dense_references(m, scale):
    check_det(m)
    check_tail(m, scale[:len(m)])


@BOUNDED
@given(staggered_symmetric())
@example((STALE, [[1, 1, 1, 1, 1, 1]]))
def test_stale_rows_in_the_symmetric_factor(case):
    if check_forms(*case):
        assert adjugate_forms(case[0])[0] == dense_det_bareiss(case[0])


# --- the pivot contract ------------------------------------------------------


@BOUNDED
@given(st.one_of(square(sparse_ints), square(small_ints), singular(), zero_leading(),
                 banded(sparse_ints, max_n=8), low_rank(), staggered()),
       st.lists(st.integers(1, 5), min_size=8, max_size=8))
@example([[0, 1], [1, 0]], [1] * 8)
@example([[1, 1], [1, 1]], [1] * 8)
@example([[0, 1, 0], [0, 0, 2], [0, 3, 1]], [1] * 8)
@example([[1, 0, 2, 0], [0, 0, 0, 1], [3, 0, 1, 0], [0, 2, 0, 1]], [2] * 8)
def test_kernels_raise_exactly_when_a_proper_leading_minor_vanishes(m, scale):
    # on the symmetric matrix with m's lower triangle, det_bareiss and
    # char_poly_tails (s = 1 and drawn scales) equal their references or
    # raise exactly when a proper leading minor vanishes, and
    # adjugate_forms raises also when det M is 0
    n = len(m)
    check_det(m)
    check_tail(m, scale[:n])
    m = symmetrized(m)
    vectors = [[1] * n, scale[:n]]
    raises = proper_leading_minor_vanishes(m) or fraction_det(m) == 0
    assert outcome(adjugate_forms, m, vectors) == \
        (SingularMatrixError if raises else reference_forms(m, vectors))


# --- characteristic polynomials ----------------------------------------------


@BOUNDED
@given(st.one_of(square(sparse_rationals), banded(sparse_rationals, max_n=7)))
def test_char_poly_matches_leverrier(m):
    assert char_poly(m) == leverrier_char_poly(m)


def scaled_tail(k, s) -> tuple:
    """det S times the tail of det(xI - S^-1 K), by the Fraction reference."""
    rational = [[Fraction(e, si) for e in row] for row, si in zip(k, s)]
    return tuple(prod(s) * c for c in padded(char_poly(rational), 3))


@BOUNDED
@given(with_scales(st.one_of(square(sparse_ints), square(small_ints), banded(sparse_ints))
                   .map(symmetrized)))
def test_tail_matches_char_poly(case):
    # det(xS - K) = det S * det(xI - S^-1 K) for the rational, nonsymmetric
    # S^-1 K, whose leading minors are those of K over products of scales
    k, s = case
    assert outcome(lambda: char_poly_tails(k, s)[1]) == \
        (SingularMatrixError if proper_leading_minor_vanishes(k) else scaled_tail(k, s))


@BOUNDED
@given(with_scales(low_rank(symmetric=True)))
def test_tail_rejects_rank_below_n_minus_1(case):
    with pytest.raises(SingularMatrixError):
        char_poly_tails(*case)


def test_tail_when_a_column_holds_no_pivot():
    # column 0 of xS - M is (s_0 x, 0): no entry with a nonzero constant
    # term, so the diagonal pivot fails; the same pencil in reversed vertex
    # order pivots on its diagonal and has the same tail
    for m in ([[0, 0], [0, 2]], [[0, 0, 0], [0, 3, 1], [0, 1, 1]]):
        n = len(m)
        assert fraction_rank(m) == n - 1
        reversed_m = [row[::-1] for row in m[::-1]]
        for s in ([1] * n, list(range(2, n + 2))):
            with pytest.raises(SingularMatrixError):
                char_poly_tails(m, s)
            assert char_poly_tails(reversed_m, s[::-1])[1] == tuple(padded(pencil_char_poly(m, s), 3))
        assert char_poly_tails(reversed_m, [1] * n)[0] == tuple(padded(char_poly(m), 3))


def test_tail_when_a_column_vanishes_to_order_k():
    # the last pivot is the pencil itself and may lack a constant term.  A
    # symmetric K whose proper leading minors are nonzero has rank n - 1
    # when singular, so adj K = c w w^T for w spanning its kernel and
    # c1 = +-c * sum(s_i w_i^2) != 0: the pencil vanishes to order 1 only,
    # semidefinite (a path's Laplacian) or not.  The nilpotent shift
    # conjugated by the lower triangle of ones, whose pencil is det S * x^n,
    # is not symmetric and is rejected.
    for n in (3, 4, 5):
        path = [[2 - (i in (0, n - 1)) if i == j else -(abs(i - j) == 1) for j in range(n)]
                for i in range(n)]
        for s in ([1] * n, list(range(2, n + 2))):
            assert char_poly_tails(path, s)[1] == tuple(padded(pencil_char_poly(path, s), 3))
            assert char_poly_tails(path, s)[1][:2] == (0, (-1) ** (n - 1) * sum(s))
        m = [[int(j == min(i + 1, n - 1)) - int(j == 0) for j in range(n)] for i in range(n)]
        assert pencil_char_poly(m, [1] * n)[:3] == [0, 0, 0]
        with pytest.raises(ValueError, match="not symmetric"):
            char_poly_tails(m, [1] * n)
    indefinite = [[1, 1, 1], [1, 0, 2], [1, 2, 0]]
    assert fraction_rank(indefinite) == 2 and not proper_leading_minor_vanishes(indefinite)
    check_tail(indefinite, [1, 2, 3])
    assert char_poly_tails(indefinite, [1, 2, 3])[1][:2] != (0, 0)


# --- the pencil det(x*diag(s) - M) -------------------------------------------

@BOUNDED
@given(with_scales(st.one_of(square(small_ints), banded(sparse_ints, max_n=6))))
def test_pencil_reference_matches_leverrier(case):
    # det(x*S - M) = det S * det(xI - S^-1 M), the latter over Fraction
    m, s = case
    rational = [[Fraction(e, si) for e in row] for row, si in zip(m, s)]
    assert pencil_char_poly(m, s) == [prod(s) * c for c in leverrier_char_poly(rational)]


@BOUNDED
@given(with_scales(st.one_of(square(sparse_ints), square(small_ints), banded(sparse_ints),
                             singular(), zero_leading(), low_rank())))
def test_pencil_tail_matches_dense_reference(case):
    check_tail(*case)


def test_pencil_of_a_2x2_by_hand():
    # (x - 1)(x - 3) - 2 * 2 = x^2 - 4x - 1 and (2x - 1)(3x - 3) - 2 * 2 = 6x^2 - 9x - 1
    assert char_poly_tails([[1, 2], [2, 3]], [2, 3]) == ((-1, -4, 1), (-1, -9, 6))


@pytest.mark.parametrize("scale", [
    pytest.param([1], id="short"),
    pytest.param([1, 1, 1], id="long"),
    pytest.param([1, 0], id="zero"),
    pytest.param([2, -1], id="negative"),
    pytest.param([True, 1], id="bool"),
    pytest.param([Fraction(1), 1], id="fraction"),
    pytest.param([1, Fraction(3, 2)], id="proper-fraction"),
    pytest.param([1, 2.0], id="float"),
])
def test_pencil_rejects_bad_scale(scale):
    with pytest.raises(ValueError, match="scale needs one positive int") as err:
        char_poly_tails([[1, 2], [2, 4]], scale)
    assert not isinstance(err.value, SingularMatrixError)


# --- the fused step over Z[x, y]/(x^3, xy, y^3) ------------------------------

coefficients = st.one_of(st.integers(-6, 6), st.integers(-10**30, 10**30))
series = st.tuples(*[coefficients] * 5)
divisors = st.tuples(coefficients.filter(bool), *[coefficients] * 4)


def halves(c):
    """The x-part and the y-part of five coefficients (1, x, x^2, y, y^2)."""
    return (c[0], c[1], c[2]), (c[0], c[3], c[4])


@BOUNDED
@given(series, series, series, series, divisors, st.booleans())
@example((1, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0,) * 5, (0,) * 5, (2, 0, 0, 0, 0), False)   # 1/2
@example((1, 0, 0, 0, 0), (2, 1, 0, 2, 0), (0,) * 5, (0,) * 5, (2, 0, 0, 0, 0), False)   # x/2
@example((1, 0, 0, 0, 0), (2, 0, 0, 1, 0), (0,) * 5, (0,) * 5, (2, 0, 0, 0, 0), False)   # y/2
@example((1, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0,) * 5, (0,) * 5, (2, 0, 0, 0, 0), False)   # y^2/2
@example((3, 1, 0, 1, 0), (0, 2, 1, 2, 1), (0,) * 5, (0,) * 5, (1, 0, 0, 0, 0), False)   # truncated
@example((0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (0,) * 5, (0,) * 5, (1, 0, 0, 0, 0), False)   # xy = 0
def test_series_step_matches_operator_ring(p, a, h, b, q, exact):
    # each half of (p*a - h*b) / q against the three operators of the
    # reference ring and against the three-coefficient step; with
    # ``exact`` a and b are multiplied by q first, so q divides
    x_half, y_half = ([OperatorSeries(part) for part in parts]
                      for parts in zip(*map(halves, (p, a, h, b, q))))
    expected = []
    for ring in (x_half, y_half):
        if exact:
            ring[1], ring[3] = ring[1] * ring[4], ring[3] * ring[4]
        P, A, H, B, Q = ring
        try:
            expected.append(((P * A - H * B) // Q).c)
        except ArithmeticError:
            assert not exact
            with pytest.raises(ArithmeticError):
                series_step(*(Series(r.c) for r in ring))
        else:
            assert series_step(*(Series(r.c) for r in ring)).c == expected[-1]
    fused = [_Series(x.c + y.c[1:]) for x, y in zip(x_half, y_half)]
    if len(expected) < 2:
        with pytest.raises(ArithmeticError):
            _series_step(*fused)
        return
    assert halves(_series_step(*fused).c) == tuple(expected)


def separate_tails(m, s) -> tuple:
    """The tails of det(xI - M) and det(x*diag(s) - M) for a symmetric M
    from two eliminations over Z[x]/(x^3), one per pencil, by the reference
    step."""
    tails = []
    for scale in ([1] * len(m), s):
        zero, series_rows = Series((0, 0, 0)), []
        for i, row in enumerate(m):
            upper = [Series((-e, 0, 0)) if e else zero for e in row[i:]]
            upper[0] = Series((-row[i], scale[i], 0))
            series_rows.append(upper)
        tails.append(_eliminate(series_rows, Series((1, 0, 0)), zero,
                                lambda t: t.c[0] != 0, series_step).c)
    return tuple(tails)


@BOUNDED
@given(with_scales(st.one_of(banded(sparse_ints), singular(), zero_leading(),
                             low_rank(), staggered()).map(symmetrized)))
def test_fused_tails_match_two_separate_passes(case):
    assert outcome(char_poly_tails, *case) == outcome(separate_tails, *case)


def test_fused_stale_row_rescale_matches_two_separate_passes(monkeypatch):
    # STALE's row 3 is a stale pivot row, so the pencil's elimination
    # rescales it alone: step(num, a, zero, zero, den)
    rescales = []

    def counting(p, a, h, b, q):
        rescales.append(not h and not b)
        return _series_step(p, a, h, b, q)

    monkeypatch.setattr(linalg, "_series_step", counting)
    for s in ([1] * 6, [1, 2, 3, 4, 5, 6]):
        rescales.clear()
        assert char_poly_tails(STALE, s) == separate_tails(STALE, s)
        assert any(rescales)


# --- graph matrices ----------------------------------------------------------


@BOUNDED
@given(shuffled_connected_graph())
def test_graph_tails_match_char_poly(g):
    # det(xI - L) and det(xD - L) = det D * det(xI - D^-1 L)
    lap, degrees = laplacian(g), [g.degree(v) for v in g.vertices]
    assert char_poly_tails(lap, degrees) == (
        tuple(char_poly(lap)[:3]),
        tuple(prod(degrees) * c for c in char_poly(random_walk_laplacian(g))[:3]))
    # and the two routes of both resistance indices agree
    assert oc.kirchhoff_from_spectrum(g) == oc.kirchhoff_from_resistances(g)
    assert oc.degree_kirchhoff_from_spectrum(g) == oc.degree_kirchhoff_from_resistances(g)


@BOUNDED
@given(shuffled_connected_graph(), st.data())
def test_resistance_matches_a_grounded_inverse(g, data):
    # the inverse of the Laplacian grounded at the last vertex of the
    # graph's own order, by Gauss-Jordan elimination over Fraction
    vs = g.vertices
    u, v = data.draw(st.sampled_from([(a, b) for a in vs for b in vs if a != b]))
    m = len(vs) - 1
    inverse = fraction_inverse(grounded(laplacian(g)))

    def entry(i, j):
        return inverse[i][j] if i < m and j < m else 0

    i, j = g.position(u), g.position(v)
    assert oc.resistance(g, u, v) == entry(i, i) + entry(j, j) - 2 * entry(i, j)


def test_disconnected_graph_spectral_route_raises():
    g = Graph(range(4), [(0, 1), (2, 3)])
    for route in (oc.kirchhoff_from_spectrum, oc.degree_kirchhoff_from_spectrum):
        with pytest.raises(ValueError, match="not connected"):
            route(g)
