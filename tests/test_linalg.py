import random
from fractions import Fraction

import pytest
from dense_reference import char_poly

from chaindex import Vertex, build_crossed_chain
from chaindex.linalg import (
    SingularMatrixError,
    adjugate,
    det_bareiss,
    laplacian,
    random_walk_laplacian,
)


def naive_det(m):
    # cofactor expansion: the independent reference for small matrices
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * naive_det(minor)
    return total


def random_int_matrix(rng, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def horner(poly, x):
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


# --- determinants ----------------------------------------------------------


def test_det_identity():
    assert det_bareiss([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_det_2x2():
    assert det_bareiss([[2, -2], [-2, 4]]) == 4


def test_det_reduced_laplacian_q1():
    g = build_crossed_chain(1)
    lap = laplacian(g)
    reduced = [row[:-1] for row in lap[:-1]]
    assert det_bareiss(reduced) == 12288


def test_det_against_cofactor_expansion():
    rng = random.Random(20240811)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            m = random_int_matrix(rng, n)
            assert det_bareiss(m) == naive_det(m)


def test_det_singular_and_permuted():
    assert det_bareiss([[0, 0], [0, 0]]) == 0
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 2, 1], [3, 0, 0], [0, 1, 1]]) == -3


def test_det_rejects_non_integer():
    with pytest.raises(ValueError):
        det_bareiss([[Fraction(1, 2)]])


# --- characteristic polynomials -------------------------------------------


def test_char_poly_1x1():
    assert char_poly([[7]]) == [Fraction(-7), Fraction(1)]


def test_char_poly_diagonal():
    # (x-4)(x-6) = 24 - 10x + x^2
    assert char_poly([[4, 0], [0, 6]]) == [Fraction(24), Fraction(-10), Fraction(1)]


def test_char_poly_matches_determinant_evaluations():
    rng = random.Random(7)
    for n in (2, 3, 4):
        m = random_int_matrix(rng, n)
        poly = char_poly(m)
        for x in (0, 1, -2, 7):
            shifted = [[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
            assert horner(poly, x) == naive_det(shifted)


def test_char_poly_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]]
    poly = char_poly(m)
    for x in (Fraction(0), Fraction(1), Fraction(-1, 2)):
        direct = (x - m[0][0]) * (x - m[1][1]) - m[0][1] * m[1][0]
        assert horner(poly, x) == direct


def test_char_poly_laplacian_trailing_structure():
    # connected graph: zero constant term, nonzero linear term
    g = build_crossed_chain(1)
    poly = char_poly(laplacian(g))
    assert poly[0] == 0
    assert poly[1] != 0
    assert poly[-1] == 1


def test_char_poly_non_square():
    with pytest.raises(ValueError):
        char_poly([[1, 2, 3], [4, 5, 6]])


# --- adjugates -------------------------------------------------------------


def test_solve_identity():
    assert adjugate([[1, 0], [0, 1]]) == (1, [[1, 0], [0, 1]])


def test_solve_diagonal():
    # adj diag(2, 4) = det * diag(1/2, 1/4)
    assert adjugate([[2, 0], [0, 4]]) == (8, [[4, 0], [0, 2]])


def test_solve_random_systems():
    rng = random.Random(99)
    for n in (2, 3, 5):
        while True:
            m = random_int_matrix(rng, n)
            if naive_det(m) != 0:
                break
        det, adj = adjugate(m)
        assert det == naive_det(m)
        assert [[sum(m[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[det if i == j else 0 for j in range(n)] for i in range(n)]


def test_solve_error_kinds_are_distinct():
    with pytest.raises(SingularMatrixError):
        adjugate([[1, 1], [1, 1]])
    with pytest.raises(ValueError) as err:
        adjugate([[Fraction(1, 2), 0], [0, 1]])
    assert not isinstance(err.value, SingularMatrixError)


# --- graph matrices ---------------------------------------------------------


def test_laplacian_q1_row_of_vertex_1():
    g = build_crossed_chain(1)
    lap = laplacian(g)
    row = lap[g.position(Vertex(1))]
    assert row[g.position(Vertex(1))] == 3
    neighbors = {Vertex(2), Vertex(1, True), Vertex(2, True)}
    for v in g.vertices:
        expected = -1 if v in neighbors else (3 if v == Vertex(1) else 0)
        assert row[g.position(v)] == expected


def test_laplacian_row_sums_and_trace():
    g = build_crossed_chain(1)
    lap = laplacian(g)
    assert all(sum(row) == 0 for row in lap)
    assert sum(lap[i][i] for i in range(len(lap))) == 38


def test_random_walk_laplacian_q1():
    g = build_crossed_chain(1)
    m = random_walk_laplacian(g)
    row = m[g.position(Vertex(1))]
    assert row[g.position(Vertex(1))] == 1
    for v in (Vertex(2), Vertex(1, True), Vertex(2, True)):
        assert row[g.position(v)] == Fraction(-1, 3)
    # row sums vanish: the all-ones vector is in the kernel
    assert all(sum(r) == 0 for r in m)
    assert all(m[i][i] == 1 for i in range(len(m)))


def test_random_walk_char_poly_trailing_structure():
    g = build_crossed_chain(1)
    poly = char_poly(random_walk_laplacian(g))
    assert poly[0] == 0
    assert poly[1] != 0


def test_random_walk_rejects_isolated_vertex():
    from chaindex import Graph

    g = Graph("abc", [("a", "b")])
    with pytest.raises(ValueError):
        random_walk_laplacian(g)


def test_reordered_matrices_share_char_poly():
    g = build_crossed_chain(2)
    interleaved = sorted(g.vertices, key=lambda v: (v.index, v.primed))
    assert char_poly(laplacian(g)) == char_poly(laplacian(g, interleaved))


def test_char_poly_vs_bareiss_on_mirror_blocks():
    # spot check on the sum/difference blocks of the n=2 chain
    from chaindex.spectral import mirror_blocks

    blocks = mirror_blocks(2)
    m = 4 * 2 + 1
    dense = [[0] * m for _ in range(m)]
    for i, d in enumerate(blocks.lap_sum.diag):
        dense[i][i] = int(d)
    for i in range(m - 1):
        dense[i][i + 1] = dense[i + 1][i] = -2
    poly = char_poly(dense)
    diff_poly = char_poly([[int(blocks.lap_diff[i]) if i == j else 0
                            for j in range(m)] for i in range(m)])
    for x in (3, -1, 10):
        for p, source in ((poly, dense),
                          (diff_poly, [[int(blocks.lap_diff[i]) if i == j else 0
                                        for j in range(m)] for i in range(m)])):
            shifted = [[(x if i == j else 0) - source[i][j] for j in range(m)]
                       for i in range(m)]
            assert horner(p, x) == det_bareiss(shifted)
