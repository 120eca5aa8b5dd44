import dataclasses
import itertools
import random
import tracemalloc
import weakref
from fractions import Fraction
from math import prod

import pytest
from dense_reference import (
    char_poly, continuant_minors, dense_det_bareiss, fraction_interior_det_closed,
    fraction_pair_class_sum, fresh_interior_det, hand_normalized_blocks, leverrier_char_poly,
    pair_class_sum, dense, envelope, laplacian, pencil_char_poly, random_walk_laplacian,
    splits_into_mirror_blocks,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaindex import Vertex, build_crossed_chain, build_plain_chain
from chaindex import spectral as sp
from chaindex.graphs import ChainGraph, Graph
from chaindex.verify import verify_one


def test_tridiag_validation():
    with pytest.raises(ValueError):
        sp.TriDiagSym((Fraction(1), Fraction(2)), ())
    with pytest.raises(ValueError):
        sp.TriDiagSym((Fraction(1), Fraction(2)), (Fraction(-1),))


@pytest.mark.parametrize("diag, offdiag_sq", [
    ((1.0, 2), (4,)),
    ((1, 2), (0.25,)),
    ((True, 2), (4,)),
    ((1, 2), (False,)),
    (("1", 2), (4,)),
    ((1, 2), ("4",)),
])
def test_tridiag_rejects_entries_other_than_int_and_fraction(diag, offdiag_sq):
    with pytest.raises(ValueError, match="int or Fraction"):
        sp.TriDiagSym(diag, offdiag_sq)


def test_integer_block_has_integer_minors():
    block = sp.TriDiagSym((2, 3, 4), (1, 2))
    assert block.leading_minors() == [1, 2, 5, 16]
    assert block.trailing_minors() == [1, 4, 10, 16]
    assert block.interior_det(1, 3) == 3
    minors = block.leading_minors() + block.trailing_minors() + [block.interior_det(1, 3)]
    assert all(type(v) is int for v in minors)


def test_integer_block_sweeps_build_no_fraction(monkeypatch):
    class NoFraction(Fraction):
        def __new__(cls, *args):
            raise AssertionError(f"an integer block built Fraction{args}")

    monkeypatch.setattr(sp, "Fraction", NoFraction)
    lap_sum = sp.mirror_blocks(3).lap_sum
    for block in (sp.TriDiagSym((0, -3, 2, 0, 5), (4, 0, 1, 9)),
                  sp.TriDiagSym(lap_sum.diag, lap_sum.offdiag_sq)):
        minors = block.leading_minors() + block.trailing_minors() + [
            block.interior_det(i, j) for i in range(1, block.dim + 1)
            for j in range(i + 1, block.dim + 1)]
        assert all(type(v) is int for v in minors)
    assert block.leading_minors() == continuant_minors(lap_sum.diag, lap_sum.offdiag_sq)


BOUNDED = settings(max_examples=120, deadline=None, database=None, derandomize=True)
ints = st.integers(-6, 6)
squares = st.integers(0, 6)


@st.composite
def tridiagonals(draw, rational=True):
    # mixed int/Fraction entries, or ints alone; zero and negative diagonal
    # entries and zero squared off-diagonals all occur
    def entry(whole):
        if rational and draw(st.booleans()):
            return Fraction(draw(whole), draw(st.integers(1, 6)))
        return draw(whole)

    dim = draw(st.integers(0, 8))
    return sp.TriDiagSym(tuple(entry(ints) for _ in range(dim)),
                         tuple(entry(squares) for _ in range(dim - 1)))


@BOUNDED
@given(st.one_of(tridiagonals(), tridiagonals(rational=False)))
@example(sp.TriDiagSym((), ()))
@example(sp.TriDiagSym((Fraction(-2, 3),), ()))
@example(sp.TriDiagSym((0, Fraction(1, 2)), (Fraction(0),)))
@example(sp.TriDiagSym((Fraction(1, 2), 3), (Fraction(5, 6),)))
@example(sp.TriDiagSym((0, 0, 0), (0, 0)))
def test_sweeps_match_the_fraction_continuant(block):
    diag, offdiag_sq, m = block.diag, block.offdiag_sq, block.dim
    assert block.leading_minors() == continuant_minors(diag, offdiag_sq)
    assert block.trailing_minors() == continuant_minors(diag[::-1], offdiag_sq[::-1])
    for i in range(1, m + 1):
        fresh = continuant_minors(diag[i:], offdiag_sq[i:])
        for j in range(i + 1, m + 1):
            assert block.interior_det(i, j) == fresh[j - i - 1], (i, j)
    if all(type(e) is int for e in diag + offdiag_sq):
        assert all(type(v) is int for v in block.leading_minors() + block.trailing_minors())


def test_interior_det_range_checks():
    t = sp.mirror_blocks(1).norm_sum
    with pytest.raises(ValueError):
        t.interior_det(3, 2)
    with pytest.raises(ValueError):
        t.interior_det(1, 9)


# --- block construction -----------------------------------------------------


def test_blocks_n1_match_displayed_matrices():
    b = sp.mirror_blocks(1)
    assert b.degrees == (3, 4, 4, 5, 3)
    assert b.lap_sum.diag == (2, 4, 4, 4, 2)
    assert b.lap_sum.offdiag_sq == (4, 4, 4, 4)
    assert all(type(v) is int for v in b.lap_sum.diag + b.lap_sum.offdiag_sq)
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


@pytest.mark.parametrize("n", range(1, 41))
def test_normalized_views_match_hand_formulas(n):
    b = sp.mirror_blocks(n)
    assert (b.norm_sum.diag, b.norm_sum.offdiag_sq, b.norm_diff) == hand_normalized_blocks(n)
    assert b.norm_sum is b.norm_sum and b.norm_diff is b.norm_diff
    assert [f.name for f in dataclasses.fields(b)] == ["n", "degrees", "lap_sum", "lap_diff"]


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
    assert sp.factorization_holds(build_crossed_chain(n)) == (True, True)


def test_factorization_certificate_up_to_40():
    assert all(sp.factorization_holds(build_crossed_chain(n)) == (True, True)
               for n in range(4, 41))


def traced(fn, arg):
    """fn(arg) and the tracemalloc peak of that call alone."""
    tracemalloc.start()
    try:
        return fn(arg), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certificate_memory_stays_linear():
    # Given the chain, the certificate's own work (the blocks, the mirror
    # order and the upper envelopes, at most 4 entries each) peaks below a
    # fifth of the chain's build, and both grow linearly in N.  The dense N x N certificate
    # peaked at 31 MiB at n = 200, more than 40 times this bound.
    for n in (200, 400):
        g, chain_peak = traced(build_crossed_chain, n)
        assert traced(sp.factorization_holds, g)[1] <= 0.25 * chain_peak


def block_product(sum_block, diff):
    # One tridiagonal matrix holding the sum block and then the difference
    # diagonal; the zero squared off-diagonal entries split its char poly
    # into det(xI - sum_block) * prod(x - d).
    return sp.TriDiagSym(
        sum_block.diag + tuple(diff), sum_block.offdiag_sq + (0,) * len(diff)
    ).char_poly()


def polynomial_route(g):
    """(laplacian_ok, normalized_ok) of the chain g from full interpolated
    char polys.

    Reads the blocks through ``sp`` so that a test patching them there
    changes this route and the certificate alike.
    """
    blocks = sp.mirror_blocks(g.n)
    order = g.band_order()
    return (
        char_poly(laplacian(g, order)) == block_product(blocks.lap_sum, blocks.lap_diff),
        char_poly(random_walk_laplacian(g, order))
        == block_product(blocks.norm_sum, blocks.norm_diff),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_polynomial_route_matches_block_product(n):
    assert polynomial_route(build_crossed_chain(n)) == (True, True)


@pytest.mark.slow
def test_polynomial_route_matches_block_product_up_to_20():
    assert all(polynomial_route(build_crossed_chain(n)) == (True, True) for n in range(5, 21))


def without_edge(g, u, v):
    """The crossed chain g with the edge {u, v} removed."""
    return ChainGraph(g.n, "crossed", [tuple(e) for e in g.edges - {frozenset((u, v))}])


def test_removed_rung_fails_certificate_and_polynomial_route():
    g = without_edge(build_crossed_chain(2), Vertex(4), Vertex(4, True))
    assert sp.factorization_holds(g) == (False, False)
    assert polynomial_route(g) == (False, False)


@pytest.mark.parametrize("change", ["plain-edge-removed"])
def test_chain_without_the_rail_swap_fails_certificate_without_raising(change):
    # The tiles are the proof of the swap: removing an edge from the plain
    # rail alone breaks the tile form, so the certificate says False.
    g = without_edge(build_crossed_chain(2), Vertex(2), Vertex(3))
    assert sp.factorization_holds(g) == (False, False)


def test_plain_chain_keeps_the_swap_but_fails_certificate():
    # the rail swap holds, but the plain chain's blocks are not the
    # crossed chain's mirror blocks
    assert sp.factorization_holds(build_plain_chain(2)) == (False, False)


@pytest.mark.parametrize("g", [
    pytest.param(Graph(build_crossed_chain(2).vertices, build_crossed_chain(2).edges),
                 id="graph-of-the-chain"),
    pytest.param(2, id="size"),
])
def test_certificate_rejects_anything_but_a_chain_graph(g):
    with pytest.raises(ValueError, match="chain graphs"):
        sp.factorization_holds(g)


@pytest.mark.parametrize("field", ["diag", "offdiag_sq", "diff"])
def test_changed_block_entry_fails_certificate_and_polynomial_route(monkeypatch, field):
    mirror_blocks = sp.mirror_blocks

    def bumped(values):
        return (values[0] + 1,) + values[1:]

    # only the stored integer blocks change; the normalized views follow
    def with_changed_entry(n):
        b = mirror_blocks(n)
        if field == "diff":
            return dataclasses.replace(b, lap_diff=bumped(b.lap_diff))
        return dataclasses.replace(
            b, lap_sum=dataclasses.replace(b.lap_sum, **{field: bumped(getattr(b.lap_sum, field))}))

    monkeypatch.setattr(sp, "mirror_blocks", with_changed_entry)
    view = "norm_diff" if field == "diff" else "norm_sum"
    assert getattr(sp.mirror_blocks(2), view) != getattr(mirror_blocks(2), view)
    g = build_crossed_chain(2)
    assert sp.factorization_holds(g) == (False, False)
    assert polynomial_route(g) == (False, False)


@pytest.mark.parametrize("mutation", ["degrees"])
def test_bumped_degree_or_normalized_entry_fails_normalized_certificate(monkeypatch, mutation):
    # The Laplacian blocks stay intact, so only the normalized check fails.
    # No certificate reads the normalized views; their entries are checked
    # against hand_normalized_blocks and polynomial_route.
    mirror_blocks = sp.mirror_blocks

    def with_changed_entry(n):
        b = mirror_blocks(n)
        values = getattr(b, mutation)
        return dataclasses.replace(b, **{mutation: values[:2] + (values[2] + 1,) + values[3:]})

    monkeypatch.setattr(sp, "mirror_blocks", with_changed_entry)
    assert sp.factorization_holds(build_crossed_chain(2)) == (True, False)


def perturb_rows(monkeypatch, entries, builder=sp.laplacian_rows):
    """Make ``builder`` in ``sp`` set each symmetric entry {u, v} of ``entries``
    to its value, at the positions of u and v in the order it is asked for:
    the mirror order (v_1, v_1', v_2, v_2', ...) in the certificate."""

    def perturbed(g, order):
        pos = {v: i for i, v in enumerate(order)}
        mat = dense(builder(g, order))
        for (u, v), value in entries.items():
            mat[pos[u]][pos[v]] = mat[pos[v]][pos[u]] = value
        return envelope(mat)

    monkeypatch.setattr(sp, builder.__name__, perturbed)


@pytest.mark.parametrize("rails", [
    pytest.param((0, 1), id="rails0"),
    pytest.param((1,), id="rails1"),
])
def test_certificate_rejects_entry_off_the_pattern(monkeypatch, rails):
    # An entry three places off the diagonal on both rails keeps the rail
    # swap and the diagonals; on the primed rail alone it breaks the swap
    # too.  Either way it lies off the band.  The normalized split is
    # derived from the Laplacian one, so both checks fail.
    perturb_rows(monkeypatch, {(Vertex(1, bool(r)), Vertex(4, bool(r))): -1 for r in rails})
    assert sp.factorization_holds(build_crossed_chain(2)) == (False, False)


@pytest.mark.parametrize("builder", [sp.laplacian_rows], ids=["laplacian"])
@pytest.mark.parametrize("block", ["A", "B"])
@pytest.mark.parametrize("column", [2, 8], ids=["distance-2", "far-corner"])
def test_certificate_rejects_entry_off_the_band(monkeypatch, builder, block, column):
    # A symmetric entry in row 0 of block A or B, mirrored onto the primed
    # rail, keeps [[A, B], [B, A]], the diagonals and the off-diagonal
    # products: only the band check can reject it.  At n = 2 the blocks
    # have 9 rows, so column 8 is the far corner.
    far = column + 1
    perturb_rows(monkeypatch, {
        (Vertex(1), Vertex(far, block == "B")): -1,
        (Vertex(1, True), Vertex(far, block == "A")): -1,
    }, builder)
    assert sp.factorization_holds(build_crossed_chain(2)) == (False, False)


@pytest.mark.parametrize("entries", [
    pytest.param({(Vertex(1, True), Vertex(2, True)): -2}, id="primed-rail-alone"),
    pytest.param({(Vertex(1), Vertex(2)): -2, (Vertex(1, True), Vertex(2, True)): -2,
                  (Vertex(1), Vertex(2, True)): 0, (Vertex(1, True), Vertex(2)): 0},
                 id="difference-off-diagonal"),
])
def test_certificate_rejects_tile_inside_the_band(monkeypatch, entries):
    # Inside the band: a doubled edge on the primed rail alone breaks only
    # the tile form [[a, b], [b, a]]; moving both diagonal edges between
    # rungs 1 and 2 onto the rails keeps the tile form, the diagonals and
    # the products (a + b = -2 both ways) but puts -2 off the diagonal of
    # A - B.
    perturb_rows(monkeypatch, entries)
    assert sp.factorization_holds(build_crossed_chain(2)) == (False, False)


def perturbed(base, tiles=(), entries=()):
    """A copy of a mirror-order matrix with each tile (p, q) of ``tiles`` and
    its mirror (q, p) set to [[a, b], [b, a]], then each symmetric entry
    (r, c) of ``entries`` set to its value."""
    mat = [row[:] for row in base]
    for p, q, a, b in tiles:
        for r, c in ((p, q), (q, p)):
            mat[2 * r][2 * c] = mat[2 * r + 1][2 * c + 1] = a
            mat[2 * r][2 * c + 1] = mat[2 * r + 1][2 * c] = b
    for r, c, value in entries:
        mat[r][c] = mat[c][r] = value
    return mat


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiles_agree_with_the_dense_split(n):
    # Seeded symmetric perturbations of the mirror-order Laplacian: the
    # certificate on upper rows and the reference on the full matrix give
    # the same verdict.  The named cases pin the verdict as well.
    rng = random.Random(4099 + n)
    g, blocks = build_crossed_chain(n), sp.mirror_blocks(n)
    base = laplacian(g, sorted(g.vertices))
    m = blocks.lap_sum.dim
    i, last = rng.randrange(m - 1), 2 * m - 2  # last: the last tile row's first row
    a, b = base[last][last], base[last][last + 1]
    cases = [
        ("intact", perturbed(base), True),
        ("off-tile-sign-flipped", perturbed(base, [(i, i + 1, 1, 1)]), True),
        ("only-a-equals-b-broken", perturbed(base, [(i, i + 1, -2, 0)]), False),
        ("only-the-square-broken", perturbed(base, [(i, i + 1, -2, -2)]), False),
        ("last-diagonal-tile-difference", perturbed(base, [(m - 1, m - 1, a + 1, b - 1)]), False),
        ("last-primed-diagonal", perturbed(base, entries=[(last + 1, last + 1, a + 1)]), False),
        ("last-tile-row-far-column", perturbed(base, [(m - 1, 0, -1, -1)]), False),
    ]
    for k in range(20):
        # one mirrored tile near the band, which keeps the rail swap, and
        # one symmetric entry anywhere
        p = rng.randrange(m)
        q = min(max(rng.randrange(m), p - 2), p + 2)
        cases.append((f"tile-{k}", perturbed(base, [(p, q, rng.randint(-2, 2), rng.randint(-2, 2))]), None))
        entry = (rng.randrange(2 * m), rng.randrange(2 * m), rng.randint(-2, 2))
        cases.append((f"entry-{k}", perturbed(base, entries=[entry]), None))
    verdicts = set()
    for name, mat, verdict in cases:
        expected = splits_into_mirror_blocks(mat, blocks.lap_sum, blocks.lap_diff)
        assert sp._tiles_split_into(envelope(mat), blocks.lap_sum, blocks.lap_diff) == expected, name
        assert verdict is None or expected == verdict, name
        verdicts.add(expected)
    assert verdicts == {True, False}


def dense_sum_block(blocks):
    """The integer Laplacian sum block as a dense matrix: off-diagonal entries -2."""
    m = blocks.lap_sum.dim
    dense = [[0] * m for _ in range(m)]
    for i, d in enumerate(blocks.lap_sum.diag):
        dense[i][i] = d
    for i in range(m - 1):
        dense[i][i + 1] = dense[i + 1][i] = -2
    return dense


def test_tridiag_char_poly_matches_dense():
    b = sp.mirror_blocks(2)
    assert b.lap_sum.char_poly() == char_poly(dense_sum_block(b))


def random_tridiagonal(rng, dim):
    """(block, dense): an integer block with off-diagonal entries e_k, stored
    as offdiag_sq = e_k², and the dense symmetric matrix it stands for."""
    diag = [rng.randint(-6, 6) for _ in range(dim)]
    offdiag = [rng.randint(-4, 4) for _ in range(dim - 1)]
    dense = [[0] * dim for _ in range(dim)]
    for i, a in enumerate(diag):
        dense[i][i] = a
    for i, e in enumerate(offdiag):
        dense[i][i + 1] = dense[i + 1][i] = e
    return sp.TriDiagSym(tuple(diag), tuple(e * e for e in offdiag)), dense


def test_pencil_matches_interpolated_pencil_at_every_cut():
    rng = random.Random(2357)
    for _ in range(40):
        dim = rng.randint(0, 9)
        block, dense = random_tridiagonal(rng, dim)
        scale = [rng.randint(1, 6) for _ in range(dim)]
        full = pencil_char_poly(dense, scale)
        for terms in sorted({1, 2, 3, dim + 1}):
            cut = sp._pencil(block, scale, terms)
            assert cut == (full + [0] * terms)[:terms], (block, scale, terms)
            assert all(type(c) is int for c in cut)


def test_fraction_char_poly_matches_leverrier():
    # a rational block with offdiag_sq above the diagonal and 1 below it:
    # D·M·D^-1 for a diagonal D, so similar to the symmetric block
    rng = random.Random(1618)
    for _ in range(20):
        dim = rng.randint(0, 7)
        diag = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim))
        offdiag_sq = tuple(Fraction(rng.randint(0, 9), rng.randint(1, 5)) for _ in range(dim - 1))
        similar = [[diag[i] if i == j else offdiag_sq[i] if j == i + 1 else 1 if i == j + 1 else 0
                    for j in range(dim)] for i in range(dim)]
        poly = sp.TriDiagSym(diag, offdiag_sq).char_poly()
        assert poly == leverrier_char_poly(similar)
        assert all(type(c) is Fraction for c in poly)


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
    dense = dense_sum_block(b)

    def principal_minor(drop):
        keep = [k for k in range(m) if k not in drop]
        return dense_det_bareiss([[dense[i][j] for j in keep] for i in keep])

    single = sum(principal_minor({i}) for i in range(m))
    double = sum(principal_minor({i, j}) for i in range(m) for j in range(i + 1, m))
    assert closed == (single, double)


def tails_and_pair_sums_match_references(n):
    # the integer continuant against the interpolated dense pencil
    # det(x·diag(s) - lap_sum), with s = 1 and with s = the degrees over ∏d,
    # and the integer pair sums against the W-recurrence over the rational
    # normalized block
    blocks = sp.mirror_blocks(n)
    dense, det_d = dense_sum_block(blocks), prod(blocks.degrees)
    lap_tail, norm_tail = sp.sum_block_tails(n)
    assert lap_tail == sp.tail_coeffs(pencil_char_poly(dense, [1] * len(dense)))
    assert norm_tail == sp.tail_coeffs(
        [Fraction(c, det_d) for c in pencil_char_poly(dense, blocks.degrees)])
    assert all(type(c) is Fraction for c in lap_tail + norm_tail)
    for p in range(4):
        for q in range(4):
            computed = sp.deleted_pair_class_sum(n, p, q)
            assert type(computed) is Fraction
            assert computed == fraction_pair_class_sum(n, p, q), (p, q)


@pytest.mark.parametrize("n", range(1, 13))
def test_integer_tails_and_pair_sums_match_fraction_routes(n):
    tails_and_pair_sums_match_references(n)


@pytest.mark.slow
@pytest.mark.parametrize("n", [30, 60, 100])
def test_integer_tails_and_pair_sums_match_fraction_routes_at_large_n(n):
    tails_and_pair_sums_match_references(n)


def normalized_minors_match_fraction_sweeps(n, row_step=1):
    # the integer Laplacian minors over degree products, and the view's own
    # sweeps, against the Fraction continuant of the view from each start row
    blocks = sp.mirror_blocks(n)
    norm_sum, lap_sum, p = blocks.norm_sum, blocks.lap_sum, blocks.degree_prefix
    diag, offdiag_sq, m = norm_sum.diag, norm_sum.offdiag_sq, norm_sum.dim
    leading, trailing = sp.norm_minor_sequences(n)
    assert leading == continuant_minors(diag, offdiag_sq)[:m] == norm_sum.leading_minors()[:m]
    assert trailing == continuant_minors(diag[::-1], offdiag_sq[::-1])[:m] == \
        norm_sum.trailing_minors()[:m]
    for i in range(1, m + 1, row_step):
        fresh = continuant_minors(diag[i:], offdiag_sq[i:])
        for j in range(i + 1, m + 1):
            assert Fraction(lap_sum.interior_det(i, j), p[j - 1] // p[i]) == \
                fresh[j - i - 1] == norm_sum.interior_det(i, j), (i, j)


@pytest.mark.parametrize("n", range(1, 13))
def test_integer_normalized_minors_match_fraction_sweeps(n):
    normalized_minors_match_fraction_sweeps(n)


@pytest.mark.slow
@pytest.mark.parametrize("n, row_step", [(30, 1), (60, 1), (100, 7)])
def test_integer_normalized_minors_match_fraction_sweeps_at_large_n(n, row_step):
    normalized_minors_match_fraction_sweeps(n, row_step)


def test_tail_records_print_fractions():
    assert repr(sp.sum_block_tails(1)[0]) == \
        "TailCoeffs(linear=Fraction(80, 1), quadratic=Fraction(160, 1))"
    assert sp.sum_block_tails(1)[1] == (Fraction(19, 45), Fraction(134, 45))


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
    def interior_det(n, i, j):
        return sp.mirror_blocks(n).norm_sum.interior_det(i, j)

    assert interior_det(2, 4, 8) == Fraction(2, 5)
    assert sp.interior_det_closed(4, 8) == Fraction(2, 5)
    assert interior_det(1, 1, 2) == 1
    assert interior_det(1, 1, 3) == 1
    assert sp.interior_det_closed(1, 3) == 1
    assert interior_det(2, 2, 7) == sp.interior_det_closed(2, 7) == Fraction(1, 5)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_memoized_interior_det_matches_fresh_continuant(n, order):
    # a fresh block each time, so the memo fills in the order queried
    shared = sp.mirror_blocks(n).norm_sum
    norm_sum = sp.TriDiagSym(shared.diag, shared.offdiag_sq)
    m = norm_sum.dim
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    if order == "reverse":
        pairs.reverse()
    for i, j in pairs:
        assert norm_sum.interior_det(i, j) == fresh_interior_det(norm_sum, i, j), (i, j)


def test_interior_memo_leaves_equality_and_hash_alone():
    shared = sp.mirror_blocks(2).norm_sum
    warm, cold = (sp.TriDiagSym(shared.diag, shared.offdiag_sq) for _ in range(2))
    warm.interior_det(1, 5)
    assert warm is not cold
    assert warm == cold and hash(warm) == hash(cold)
    with pytest.raises(dataclasses.FrozenInstanceError):
        warm.diag = ()


# --- one shared set of blocks per size ---------------------------------------------


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_verify_one_builds_one_chain(monkeypatch):
    # the oracles and the certificate read the same ChainGraph
    chains = count_calls(monkeypatch, ChainGraph, "__init__")
    verify_one(2)
    assert len(chains) == 1


def test_verify_one_builds_the_blocks_once(monkeypatch):
    # lap_sum and its reversal for the trailing minors; at a size nobody
    # holds yet, since verify_one builds nothing while a holder exists
    n = next(k for k in itertools.count(2) if k not in sp._live_blocks)
    builds = count_calls(monkeypatch, sp, "rail_degrees")
    tridiags = count_calls(monkeypatch, sp.TriDiagSym, "__post_init__")
    verify_one(n)
    assert len(builds) == 1
    assert len(tridiags) == 2


def test_verify_one_sweeps_no_normalized_view():
    # every normalized claim reads the integer blocks and the degrees, so
    # verify_one builds neither rational view
    blocks = sp.mirror_blocks(3)
    verify_one(3)
    assert sp.mirror_blocks(3) is blocks
    assert "norm_sum" not in vars(blocks) and "norm_diff" not in vars(blocks)


def test_pair_sums_on_held_blocks_create_no_block(monkeypatch):
    blocks = sp.mirror_blocks(3)
    sp.deleted_pair_class_sum(3, 0, 0)
    tridiags = count_calls(monkeypatch, sp.TriDiagSym, "__post_init__")
    for p in range(4):
        for q in range(4):
            sp.deleted_pair_class_sum(3, p, q)
    assert tridiags == []
    assert sp.mirror_blocks(3) is blocks


def test_returned_minor_lists_do_not_alias_the_memo():
    block = sp.mirror_blocks(2).norm_sum
    leading, trailing = block.leading_minors(), block.trailing_minors()
    memo = block._sweep(0), block._reversed._sweep(0)
    for returned in (block.leading_minors(), block.trailing_minors()):
        returned[0] = Fraction(99)
        returned.append(Fraction(7))
    assert (block.leading_minors(), block.trailing_minors()) == (leading, trailing)
    assert (block._sweep(0), block._reversed._sweep(0)) == memo
    assert memo == (tuple(leading), tuple(trailing))


def test_blocks_are_freed_with_their_last_holder():
    # a size nobody holds yet: an earlier failure's traceback may keep one alive
    n = next(k for k in itertools.count(1) if k not in sp._live_blocks)
    blocks = sp.mirror_blocks(n)
    blocks.norm_sum.interior_det(1, 4 * n + 1)
    assert sp.mirror_blocks(n) is blocks
    ref = weakref.ref(blocks)
    del blocks
    assert ref() is None


def test_shared_blocks_still_reject_bool_and_float():
    blocks = sp.mirror_blocks(1)
    assert sp.mirror_blocks(1) is blocks
    for bad in (True, 1.0):
        with pytest.raises(ValueError):
            sp.mirror_blocks(bad)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_interior_det_exhaustive(n):
    blocks = sp.mirror_blocks(n)
    m = 4 * n + 1
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            assert blocks.norm_sum.interior_det(i, j) == sp.interior_det_closed(i, j), (i, j)


def test_interior_closed_form_matches_fraction_reference():
    # every pair up to j = 401 (n = 100), value and type
    for j in range(2, 402):
        for i in range(1, j):
            closed = sp.interior_det_closed(i, j)
            assert type(closed) is Fraction
            assert closed == fraction_interior_det_closed(i, j), (i, j)


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


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_sums_match_per_pair_reference(n):
    for p in range(4):
        for q in range(4):
            assert sp.deleted_pair_class_sum(n, p, q) == pair_class_sum(n, p, q), (p, q)


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


@pytest.mark.parametrize("n", [1, 2, 5])
def test_class_pairs_step_through_each_residue_in_the_filtered_order(n):
    m = 4 * n + 1
    for p in range(4):
        for q in range(4):
            assert list(sp.class_pairs(n, p, q)) == [
                (i, j) for i in range(1, m + 1) if i % 4 == p
                for j in range(i + 1, m + 1) if j % 4 == q], (p, q)


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
               lambda n: sp.deleted_pair_class_sum_closed(n, 0, 0),
               lambda n: sp.class_pairs(n, 1, 2)):
        with pytest.raises(ValueError):
            fn(bad)


@pytest.mark.parametrize("form, args", [
    (sp.lap_leading_closed, (-1,)),
    (sp.lap_interior_closed, (-2,)),
    (sp.norm_leading_closed, (-3,)),
    (sp.norm_trailing_closed, (-1,)),
    (sp.lap_leading_closed, (2.0,)),
    (sp.lap_interior_closed, (True,)),
    (sp.norm_leading_closed, ("1",)),
    (sp.norm_trailing_closed, (False,)),
    (sp.interior_det_closed, (1.0, 2.0)),
    (sp.interior_det_closed, (True, 3)),
    (sp.interior_det_closed, (2, Fraction(5))),
    (sp.interior_det_closed, (-2, 3)),
    (sp.class_pairs, (1, True, False)),
    (sp.class_pairs, (1, 1.0, 2)),
    (sp.deleted_pair_class_sum_closed, (1, 0, True)),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_closed_forms_reject_bad_indices(form, args):
    with pytest.raises(ValueError):
        form(*args)


@pytest.mark.parametrize("p, q", [(5, 0), (0, 4), (-1, 2)])
def test_residue_class_outside_0_to_3_rejected(p, q):
    with pytest.raises(ValueError, match="residue"):
        sp.deleted_pair_class_sum(2, p, q)
    with pytest.raises(ValueError, match="residue"):
        sp.deleted_pair_class_sum_closed(2, p, q)


# --- slow tier: the spectral families at large n -----------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("n", [64, 100])
def test_spectral_families_match_closed_forms_at_large_n(n):
    blocks = sp.mirror_blocks(n)
    m = 4 * n + 1
    leading, trailing, interior = sp.lap_minor_sequences(n)
    assert leading == trailing == [sp.lap_leading_closed(i) for i in range(m)]
    assert interior == [sp.lap_interior_closed(i) for i in range(m - 1)]
    x_cont, y_cont = sp.norm_minor_sequences(n)
    x_rec, y_rec = sp.norm_minor_recurrences(n)
    assert x_cont == x_rec == [sp.norm_leading_closed(i) for i in range(m)]
    assert y_cont == y_rec == [sp.norm_trailing_closed(i) for i in range(m)]
    assert sp.tail_coeffs(blocks.lap_sum.char_poly()) == sp.lap_tail_coeffs_closed(n)
    assert sp.tail_coeffs(blocks.norm_sum.char_poly()) == sp.norm_tail_coeffs_closed(n)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            assert blocks.norm_sum.interior_det(i, j) == sp.interior_det_closed(i, j), (i, j)
    for p in range(4):
        for q in range(4):
            assert sp.deleted_pair_class_sum(n, p, q) == \
                sp.deleted_pair_class_sum_closed(n, p, q), (p, q)
