"""Differential tests of the band-aware exact kernel against naive references.

``det_bareiss``, ``adjugate`` and ``char_poly_tail`` are compared with the
dense Bareiss copy, Fraction Gaussian and Gauss-Jordan elimination and the
interpolated characteristic polynomial in ``dense_reference``; that
polynomial is itself checked against the Faddeev-LeVerrier recurrence.
Inputs cover singular matrices, matrices whose leading entry is zero,
0x0 and 1x1, random banded matrices, low-rank matrices and the
Laplacians of random connected graphs in shuffled vertex order.
Examples are derandomized and bounded so the module stays a few seconds
of the tier-1 run.
"""

from fractions import Fraction

import pytest
from dense_reference import (
    char_poly,
    dense_det_bareiss,
    fraction_det,
    fraction_inverse,
    fraction_rank,
    leverrier_char_poly,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from chaindex import Graph
from chaindex import oracles as oc
from chaindex.linalg import (
    SingularMatrixError,
    adjugate,
    char_poly_tail,
    det_bareiss,
    laplacian,
    random_walk_laplacian,
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


@st.composite
def singular(draw):
    # one row is a multiple of another, or a row is zero
    m = draw(square(sparse_ints, min_n=2))
    n = len(m)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    factor = draw(st.integers(-2, 2))
    if i != j:
        m[j] = [factor * e for e in m[i]]
    else:
        m[i] = [0] * n
    return m


@st.composite
def zero_leading(draw):
    m = draw(square(small_ints, min_n=2))
    m[0][0] = 0
    return m


@st.composite
def low_rank(draw, entries=rationals):
    # U V with U n x r and V r x n, r <= n - 2: rank at most n - 2
    n = draw(st.integers(2, 6))
    r = draw(st.integers(0, n - 2))
    u = [[draw(entries) for _ in range(r)] for _ in range(n)]
    v = [[draw(entries) for _ in range(n)] for _ in range(r)]
    return [[sum((u[i][t] * v[t][j] for t in range(r)), Fraction(0)) for j in range(n)]
            for i in range(n)]


@st.composite
def shuffled_connected_graph(draw):
    # a random spanning tree plus random extra edges, vertices in shuffled order
    size = draw(st.integers(2, 9))
    edges = {frozenset((v, draw(st.integers(0, v - 1)))) for v in range(1, size)}
    for _ in range(draw(st.integers(0, 2 * size))):
        u, v = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        if u != v:
            edges.add(frozenset((u, v)))
    labels = draw(st.permutations(range(size)))
    return Graph(labels, [tuple(e) for e in edges])


def padded(poly, k):
    return (poly + [Fraction(0)] * k)[:k]


# --- determinants ------------------------------------------------------------


@BOUNDED
@given(st.one_of(square(sparse_ints), square(small_ints), singular(), zero_leading()))
def test_det_matches_references(m):
    expected = fraction_det(m)
    assert det_bareiss(m) == expected == dense_det_bareiss(m)


@BOUNDED
@given(singular())
def test_det_of_singular_matrix_is_zero(m):
    assert det_bareiss(m) == 0


@BOUNDED
@given(banded(sparse_ints))
def test_det_of_banded_matrix(m):
    assert det_bareiss(m) == fraction_det(m)


@BOUNDED
@given(small_ints)
def test_det_of_1x1(a):
    assert det_bareiss([[a]]) == a


def test_empty_matrix():
    assert det_bareiss([]) == 1
    assert char_poly([]) == [Fraction(1)]
    assert char_poly_tail([], 3) == [Fraction(1), Fraction(0), Fraction(0)]


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
@given(st.one_of(singular(), low_rank(small_ints)))
def test_adjugate_of_singular_matrix_raises(m):
    assert fraction_rank(m) < len(m)
    with pytest.raises(SingularMatrixError):
        adjugate(m)


def test_adjugate_when_a_row_vanishes_left_of_the_identity():
    # elimination zeroes a row's first n columns but not its part of the
    # appended identity; it must read as singular, not be filed past
    # column n (in the 3x3 case the row's first nonzero is column n + 1)
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


# --- characteristic polynomials ----------------------------------------------


@BOUNDED
@given(st.one_of(square(sparse_rationals), banded(sparse_rationals, max_n=7)))
def test_char_poly_matches_leverrier(m):
    assert char_poly(m) == leverrier_char_poly(m)


@BOUNDED
@given(st.one_of(square(sparse_rationals), square(sparse_ints), banded(sparse_rationals)),
       st.integers(1, 4))
def test_tail_matches_char_poly(m, k):
    n = len(m)
    if fraction_rank(m) >= n - 1:
        assert char_poly_tail(m, k) == padded(char_poly(m), k)
    else:
        with pytest.raises(SingularMatrixError):
            char_poly_tail(m, k)


@BOUNDED
@given(low_rank(), st.integers(1, 4))
def test_tail_rejects_rank_below_n_minus_1(m, k):
    with pytest.raises(SingularMatrixError):
        char_poly_tail(m, k)


def test_tail_when_a_column_holds_no_pivot():
    # column 0 of xI - M is (x, 0): no entry with a nonzero constant term
    for m in ([[0, 1], [0, 2]], [[0, 0, 1], [0, 3, 0], [0, 1, 1]]):
        assert fraction_rank(m) == len(m) - 1
        assert char_poly_tail(m, 3) == padded(char_poly(m), 3)


def test_tail_when_a_column_vanishes_to_order_k():
    # det(xI - S) = x^3 for the nilpotent shift S (rank 2 = n - 1); with
    # k = 2 a column of the eliminated matrix vanishes, and the exact tail
    # is zero rather than an error
    shift = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    for k in (1, 2, 3, 4):
        assert char_poly_tail(shift, k) == padded([0, 0, 0, 1], k)
    assert det_bareiss(shift) == 0


def test_tail_rejects_bad_k():
    for k in (0, -1, 2.0, True):
        with pytest.raises(ValueError):
            char_poly_tail([[1]], k)


# --- graph matrices ----------------------------------------------------------


@BOUNDED
@given(shuffled_connected_graph())
def test_graph_tails_match_char_poly(g):
    for matrix in (laplacian(g), random_walk_laplacian(g)):
        assert char_poly_tail(matrix, 3) == char_poly(matrix)[:3]
    # and the two routes of both resistance indices agree
    assert oc.kirchhoff_from_spectrum(g) == oc.kirchhoff_from_resistances(g)
    assert oc.degree_kirchhoff_from_spectrum(g) == oc.degree_kirchhoff_from_resistances(g)


def test_disconnected_graph_spectral_route_raises():
    g = Graph(range(4), [(0, 1), (2, 3)])
    for route in (oc.kirchhoff_from_spectrum, oc.degree_kirchhoff_from_spectrum):
        with pytest.raises(ValueError, match="not connected"):
            route(g)
