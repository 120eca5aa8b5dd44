import dataclasses
from fractions import Fraction

import pytest
from dense_reference import char_poly

from chaindex import Vertex, build_crossed_chain
from chaindex import spectral as sp
from chaindex.graphs import ChainGraph
from chaindex.linalg import det_bareiss, laplacian, random_walk_laplacian


def test_tridiag_validation():
    with pytest.raises(ValueError):
        sp.TriDiagSym((Fraction(1), Fraction(2)), ())
    with pytest.raises(ValueError):
        sp.TriDiagSym((Fraction(1), Fraction(2)), (Fraction(-1),))


def test_interior_det_range_checks():
    t = sp.mirror_blocks(1).norm_sum
    with pytest.raises(ValueError):
        t.interior_det(3, 2)
    with pytest.raises(ValueError):
        t.interior_det(1, 9)


# --- block construction -----------------------------------------------------


def test_blocks_n1_match_displayed_matrices():
    b = sp.mirror_blocks(1)
    assert [int(d) for d in b.lap_sum.diag] == [2, 4, 4, 4, 2]
    assert all(s == 4 for s in b.lap_sum.offdiag_sq)
    assert b.lap_diff == (4, 4, 4, 6, 4)
    assert b.norm_sum.diag == (
        Fraction(2, 3), Fraction(1), Fraction(1), Fraction(4, 5), Fraction(2, 3),
    )
    assert b.norm_sum.offdiag_sq == (
        Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(4, 15),
    )
    assert b.norm_diff == (
        Fraction(4, 3), Fraction(1), Fraction(1), Fraction(6, 5), Fraction(4, 3),
    )


@pytest.mark.parametrize("n", [1, 2, 4])
def test_diff_block_multisets(n):
    b = sp.mirror_blocks(n)
    assert sorted(b.lap_diff) == [4] * (2 * n + 2) + [6] * (2 * n - 1)
    norm = sorted(b.norm_diff)
    assert norm.count(Fraction(4, 3)) == 2
    assert norm.count(Fraction(6, 5)) == 2 * n - 1
    assert norm.count(Fraction(1)) == 2 * n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_blocks_agree_with_graph_laplacian(n):
    # sum/difference of the two rail blocks of the actual Laplacian
    g = build_crossed_chain(n)
    lap = laplacian(g)
    m = 4 * n + 1
    b = sp.mirror_blocks(n)
    for i in range(m):
        for j in range(m):
            s = lap[i][j] + lap[i][m + j]
            d = lap[i][j] - lap[i][m + j]
            if i == j:
                assert s == b.lap_sum.diag[i]
                assert d == b.lap_diff[i]
            elif abs(i - j) == 1:
                assert s == -2 and d == 0
                assert b.lap_sum.offdiag_sq[min(i, j)] == 4
            else:
                assert s == 0 and d == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_factorization(n):
    assert sp.factorization_holds(n) == (True, True)


def test_factorization_certificate_up_to_40():
    assert all(sp.factorization_holds(n) == (True, True) for n in range(4, 41))


def block_product(sum_block, diff):
    # One tridiagonal matrix holding the sum block and then the difference
    # diagonal; the zero squared off-diagonal entries split its char poly
    # into det(xI - sum_block) * prod(x - d).
    return sp.TriDiagSym(
        sum_block.diag + tuple(diff), sum_block.offdiag_sq + (0,) * len(diff)
    ).char_poly()


def polynomial_route(n):
    """(laplacian_ok, normalized_ok) from full interpolated char polys.

    Reads the chain and the blocks through ``sp`` so that a test patching
    them there changes this route and the certificate alike.
    """
    g = sp.build_crossed_chain(n)
    blocks = sp.mirror_blocks(n)
    order = g.band_order()
    return (
        char_poly(laplacian(g, order)) == block_product(blocks.lap_sum, blocks.lap_diff),
        char_poly(random_walk_laplacian(g, order))
        == block_product(blocks.norm_sum, blocks.norm_diff),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_polynomial_route_matches_block_product(n):
    assert polynomial_route(n) == (True, True)


@pytest.mark.slow
def test_polynomial_route_matches_block_product_up_to_20():
    assert all(polynomial_route(n) == (True, True) for n in range(5, 21))


def test_removed_rung_fails_certificate_and_polynomial_route(monkeypatch):
    def without_rung(n):
        rung = frozenset((Vertex(4), Vertex(4, True)))
        return ChainGraph(n, "crossed", [tuple(e) for e in build_crossed_chain(n).edges - {rung}])

    monkeypatch.setattr(sp, "build_crossed_chain", without_rung)
    assert sp.factorization_holds(2) == (False, False)
    assert polynomial_route(2) == (False, False)


@pytest.mark.parametrize("field", ["diag", "offdiag_sq", "diff"])
def test_changed_block_entry_fails_certificate_and_polynomial_route(monkeypatch, field):
    mirror_blocks = sp.mirror_blocks

    def bumped(values):
        return (values[0] + 1,) + values[1:]

    def with_changed_entry(n):
        b = mirror_blocks(n)
        if field == "diff":
            return dataclasses.replace(b, lap_diff=bumped(b.lap_diff), norm_diff=bumped(b.norm_diff))
        return dataclasses.replace(
            b,
            lap_sum=dataclasses.replace(b.lap_sum, **{field: bumped(getattr(b.lap_sum, field))}),
            norm_sum=dataclasses.replace(b.norm_sum, **{field: bumped(getattr(b.norm_sum, field))}),
        )

    monkeypatch.setattr(sp, "mirror_blocks", with_changed_entry)
    assert sp.factorization_holds(2) == (False, False)
    assert polynomial_route(2) == (False, False)


@pytest.mark.parametrize("rails", [(0, 1), (1,)])
def test_certificate_rejects_entry_off_the_pattern(monkeypatch, rails):
    # An entry three places off the diagonal on both rails keeps the rail
    # swap and the diagonals; on the primed rail alone it breaks only the swap.
    def perturbed(g, order):
        mat = laplacian(g, order)
        m = len(mat) // 2
        for r in rails:
            mat[r * m][r * m + 3] = mat[r * m + 3][r * m] = -1
        return mat

    monkeypatch.setattr(sp, "laplacian", perturbed)
    assert sp.factorization_holds(2) == (False, True)


def test_tridiag_char_poly_matches_dense():
    b = sp.mirror_blocks(2)
    dense = [[0] * 9 for _ in range(9)]
    for i, d in enumerate(b.lap_sum.diag):
        dense[i][i] = int(d)
    for i in range(8):
        dense[i][i + 1] = dense[i + 1][i] = -2
    assert b.lap_sum.char_poly() == char_poly(dense)


# --- integer minor sequences -------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lap_minor_sequences(n):
    leading, trailing, interior = sp.lap_minor_sequences(n)
    assert leading[0] == trailing[0] == interior[0] == 1
    assert leading == [2**i for i in range(4 * n + 1)]
    assert trailing == leading
    assert interior == [(i + 1) * 2**i for i in range(4 * n)]


def test_lap_minor_examples():
    leading, _, interior = sp.lap_minor_sequences(1)
    assert leading[3] == 8
    assert interior[2] == 12


# --- trailing coefficients ----------------------------------------------------


def test_lap_tail_closed_examples():
    assert sp.lap_tail_coeffs_closed(1) == (80, 160)
    assert sp.lap_tail_coeffs_closed(2).linear == 9 * 2**8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lap_tail_vs_char_poly_and_minor_sums(n):
    b = sp.mirror_blocks(n)
    closed = sp.lap_tail_coeffs_closed(n)
    assert sp.tail_coeffs(b.lap_sum.char_poly()) == closed
    # independent route: sums of one- and two-deleted principal minors
    m = 4 * n + 1
    dense = [[0] * m for _ in range(m)]
    for i, d in enumerate(b.lap_sum.diag):
        dense[i][i] = int(d)
    for i in range(m - 1):
        dense[i][i + 1] = dense[i + 1][i] = -2

    def principal_minor(drop):
        keep = [k for k in range(m) if k not in drop]
        return det_bareiss([[dense[i][j] for j in keep] for i in keep])

    single = sum(principal_minor({i}) for i in range(m))
    double = sum(principal_minor({i, j}) for i in range(m) for j in range(i + 1, m))
    assert closed == (single, double)


def test_norm_tail_closed_examples():
    assert sp.norm_tail_coeffs_closed(1) == (Fraction(19, 45), Fraction(134, 45))
    assert sp.norm_tail_coeffs_closed(2).linear == Fraction(37, 1125)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_norm_tail_vs_continuant_poly(n):
    b = sp.mirror_blocks(n)
    poly = b.norm_sum.char_poly()
    assert poly[0] == 0  # the normalized sum block is singular
    assert sp.tail_coeffs(poly) == sp.norm_tail_coeffs_closed(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_norm_tail_linear_equals_minor_convolution(n):
    x, y = sp.norm_minor_sequences(n)
    m = 4 * n + 1
    convolution = sum(x[j - 1] * y[m - j] for j in range(1, m + 1))
    assert convolution == sp.norm_tail_coeffs_closed(n).linear


# --- reciprocal sums ----------------------------------------------------------


def test_recip_sum_examples():
    assert sp.lap_eigen_recip_sum(1) == 2
    assert sp.lap_diag_recip_sum(1) == Fraction(7, 6)
    assert sp.lap_diag_recip_sum(2) == 2
    assert sp.norm_eigen_recip_sum(1) == Fraction(134, 19)
    assert sp.norm_diag_recip_sum(1) == Fraction(13, 3)
    assert sp.norm_diag_recip_sum(2) == 8


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_recip_sums_vs_blocks(n):
    b = sp.mirror_blocks(n)
    lap_tail = sp.tail_coeffs(b.lap_sum.char_poly())
    assert sp.lap_eigen_recip_sum(n) == lap_tail.quadratic / lap_tail.linear
    assert sp.lap_diag_recip_sum(n) == sum(Fraction(1, int(s)) for s in b.lap_diff)
    norm_tail = sp.tail_coeffs(b.norm_sum.char_poly())
    assert sp.norm_eigen_recip_sum(n) == norm_tail.quadratic / norm_tail.linear
    assert sp.norm_diag_recip_sum(n) == sum(1 / Fraction(s) for s in b.norm_diff)


# --- normalized minor sequences ------------------------------------------------


def test_norm_minor_examples():
    x, y = sp.norm_minor_sequences(2)
    assert x[0] == y[0] == 1
    assert x[1:7] == [
        Fraction(2, 3), Fraction(1, 3), Fraction(1, 6),
        Fraction(1, 15), Fraction(2, 75), Fraction(1, 75),
    ]
    assert y[1:7] == [
        Fraction(2, 3), Fraction(4, 15), Fraction(2, 15),
        Fraction(1, 15), Fraction(2, 75), Fraction(4, 375),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_norm_minor_three_way_equality(n):
    x_cont, y_cont = sp.norm_minor_sequences(n)
    x_rec, y_rec = sp.norm_minor_recurrences(n)
    assert x_cont == x_rec
    assert y_cont == y_rec
    assert x_cont == [sp.norm_leading_closed(i) for i in range(4 * n + 1)]
    assert y_cont == [sp.norm_trailing_closed(i) for i in range(4 * n + 1)]


# --- interior minors (the 16-case table) ---------------------------------------


def test_interior_det_examples():
    assert sp.interior_det(2, 4, 8) == Fraction(2, 5)
    assert sp.interior_det_closed(4, 8) == Fraction(2, 5)
    assert sp.interior_det(1, 1, 2) == 1
    assert sp.interior_det(1, 1, 3) == 1
    assert sp.interior_det_closed(1, 3) == 1
    assert sp.interior_det(2, 2, 7) == sp.interior_det_closed(2, 7) == Fraction(1, 5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_interior_det_exhaustive(n):
    blocks = sp.mirror_blocks(n)
    m = 4 * n + 1
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            assert blocks.norm_sum.interior_det(i, j) == sp.interior_det_closed(i, j), (i, j)


def test_adjacent_pairs_give_one():
    blocks = sp.mirror_blocks(3)
    for i in range(1, 13):
        assert blocks.norm_sum.interior_det(i, i + 1) == 1
        assert sp.interior_det_closed(i, i + 1) == 1


# --- residue-class sums of two-deleted minors -----------------------------------


def test_pair_sum_examples():
    assert sp.deleted_pair_class_sum_closed(1, 0, 0) == 0
    assert sp.deleted_pair_class_sum(1, 0, 0) == 0
    assert sp.deleted_pair_class_sum(2, 0, 0) == Fraction(2, 45)
    assert sp.deleted_pair_class_sum(1, 1, 0) == Fraction(1, 2)
    assert sp.deleted_pair_class_sum_closed(1, 1, 0) == Fraction(1, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_sums_all_classes(n):
    for p in range(4):
        for q in range(4):
            assert sp.deleted_pair_class_sum(n, p, q) == \
                sp.deleted_pair_class_sum_closed(n, p, q), (p, q)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_sums_cover_all_pairs_once(n):
    m = 4 * n + 1
    seen = set()
    for p in range(4):
        for q in range(4):
            for pair in sp.class_pairs(n, p, q):
                assert pair not in seen
                seen.add(pair)
    assert len(seen) == m * (m - 1) // 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_sum_total_is_quadratic_tail(n):
    total = sum(
        sp.deleted_pair_class_sum(n, p, q) for p in range(4) for q in range(4)
    )
    assert total == sp.norm_tail_coeffs_closed(n).quadratic


@pytest.mark.parametrize("bad", [0, -1, True, 2.5, "3"])
def test_mirror_blocks_rejects_bad_n(bad):
    for fn in (sp.mirror_blocks, sp.lap_tail_coeffs_closed, sp.norm_tail_coeffs_closed,
               sp.lap_eigen_recip_sum, sp.lap_diag_recip_sum, sp.norm_eigen_recip_sum,
               sp.norm_diag_recip_sum, sp.norm_minor_recurrences,
               lambda n: sp.deleted_pair_class_sum_closed(n, 0, 0)):
        with pytest.raises(ValueError):
            fn(bad)


@pytest.mark.parametrize("p, q", [(5, 0), (0, 4), (-1, 2)])
def test_residue_class_outside_0_to_3_rejected(p, q):
    with pytest.raises(ValueError, match="residue"):
        sp.deleted_pair_class_sum(2, p, q)
    with pytest.raises(ValueError, match="residue"):
        sp.deleted_pair_class_sum_closed(2, p, q)
