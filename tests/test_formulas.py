from fractions import Fraction

import pytest

from chaindex import formulas as fm
from chaindex import spectral as sp


def test_kirchhoff_closed_table_anchors():
    assert fm.kirchhoff_closed(1) == Fraction(95, 3)
    assert fm.kirchhoff_closed(5) == 1729
    assert fm.kirchhoff_closed(15) == Fraction(118157, 3)


def test_degree_kirchhoff_closed_table_anchors():
    assert fm.degree_kirchhoff_closed(1) == Fraction(1298, 3)
    assert fm.degree_kirchhoff_closed(8) == 121724
    assert fm.degree_kirchhoff_closed(9) == Fraction(514498, 3)


def test_spanning_trees_closed_anchors():
    assert fm.spanning_trees_closed(1) == 12288
    assert fm.spanning_trees_closed(4) == 9618527719784448
    assert fm.spanning_trees_closed(8) == 69387056622196359469382686998528


def test_spanning_trees_closed_matches_printed_table_verbatim():
    for n, printed in fm.TABLE_TREES.items():
        assert str(fm.spanning_trees_closed(n)) == printed


@pytest.mark.parametrize("n", range(1, 21))
def test_kirchhoff_assembly(n):
    expected = (8 * n + 2) * (sp.lap_eigen_recip_sum(n) + sp.lap_diag_recip_sum(n))
    assert fm.kirchhoff_closed(n) == expected


@pytest.mark.parametrize("n", range(1, 21))
def test_degree_kirchhoff_assembly(n):
    expected = 2 * (18 * n + 1) * (
        sp.norm_eigen_recip_sum(n) + sp.norm_diag_recip_sum(n)
    )
    assert fm.degree_kirchhoff_closed(n) == expected


@pytest.mark.parametrize("n", range(1, 13))
def test_spanning_tree_assembly(n):
    # tree count = (linear tail coefficient) * (diagonal product) / |V|
    linear = sp.lap_tail_coeffs_closed(n).linear
    diag_product = Fraction(4) ** (2 * n + 2) * Fraction(6) ** (2 * n - 1)
    assert fm.spanning_trees_closed(n) == linear * diag_product / (8 * n + 2)


def test_wiener_claim_values():
    assert fm.wiener_claim(1) == 88
    claims = fm.wiener_class_claims(1)
    assert claims[0] == 84
    assert claims[4] == 0


def test_gutman_claim_values():
    assert fm.gutman_claim(1) == 1251
    claims = fm.gutman_class_claims(1)
    assert claims[0] == 486
    assert claims[5] == 0


def test_ratios_converge_to_one_quarter():
    quarter = Fraction(1, 4)
    r_kf, r_kfstar = fm.limit_ratios(1000)
    assert abs(r_kf - quarter) < Fraction(1, 1000)
    assert abs(r_kfstar - quarter) < Fraction(1, 1000)


def test_ratio_gap_shrinks_when_n_doubles():
    quarter = Fraction(1, 4)
    for n in (10, 20, 40):
        near = fm.limit_ratios(2 * n)
        far = fm.limit_ratios(n)
        for close_ratio, far_ratio in zip(near, far):
            assert abs(close_ratio - quarter) < abs(far_ratio - quarter)


def test_ratios_accept_oracle_denominators():
    r_kf, r_kfstar = fm.limit_ratios(1, wiener=87, gutman=1179)
    assert r_kf == Fraction(95, 3) / 87
    assert r_kfstar == Fraction(1298, 3) / 1179


def test_format_2dec():
    assert fm.format_2dec(Fraction(156)) == "156.00"
    assert fm.format_2dec(Fraction(95, 3)) == "31.67"
    assert fm.format_2dec(Fraction(36572, 3)) == "12190.67"
    assert fm.format_2dec(Fraction(1, 8)) == "0.13"  # halves round up
    assert fm.format_2dec(Fraction(-95, 3)) == "-31.67"
    assert fm.format_2dec(7) == "7.00"
    # the float 1.005 is stored just below 1.005 and would render as "1.00"
    for bad in (1.005, True, "1.005", None):
        with pytest.raises(ValueError, match="int or Fraction"):
            fm.format_2dec(bad)


def test_table_rows_against_printed_values():
    tolerance = Fraction(1, 20)
    for table, closed in ((fm.TABLE_KF, fm.kirchhoff_closed),
                          (fm.TABLE_KF_STAR, fm.degree_kirchhoff_closed)):
        for n, printed in table.items():
            gap = abs(closed(n) - Fraction(printed))
            if table is fm.TABLE_KF_STAR and n == 11:
                # the known misprint: printed 308316.00, exact 308346
                assert gap == 30
            else:
                # every other row is verbatim or a rounding slip within 0.05
                assert gap <= tolerance


def test_invalid_n_rejected():
    for fn in (fm.kirchhoff_closed, fm.degree_kirchhoff_closed,
               fm.spanning_trees_closed, fm.wiener_claim, fm.gutman_claim):
        with pytest.raises(ValueError):
            fn(0)


@pytest.mark.parametrize("bad", [True, False, 2.5, 1.0, "3", None, Fraction(2)])
def test_non_int_n_rejected(bad):
    for fn in (fm.kirchhoff_closed, fm.degree_kirchhoff_closed,
               fm.spanning_trees_closed, fm.wiener_claim, fm.gutman_claim,
               fm.wiener_class_claims, fm.gutman_class_claims, fm.limit_ratios):
        with pytest.raises(ValueError, match="must be an int"):
            fn(bad)
