import random
from fractions import Fraction

import pytest
from dense_reference import (
    adjugate, char_poly, dense, dense_det_bareiss, envelope, laplacian,
    proper_leading_minor_vanishes, random_walk_laplacian,
)
from test_kernel_differential import check_adjugate, check_det, check_tail, reference_forms

from chaindex import Graph, Vertex, build_crossed_chain, build_plain_chain, linalg
from chaindex import oracles as oc
from chaindex.linalg import (
    Envelope,
    SingularMatrixError,
    adjugate_forms,
    char_poly_tails,
    det_bareiss,
    laplacian_rows,
)
from chaindex.verify import run_verification


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


def random_symmetric_matrix(rng, n, lo=-5, hi=5):
    m = random_int_matrix(rng, n, lo, hi)
    return [[m[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]


def horner(poly, x):
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


# --- determinants ----------------------------------------------------------


def test_det_identity():
    assert det_bareiss(envelope([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1


def test_det_2x2():
    assert det_bareiss(envelope([[2, -2], [-2, 4]])) == 4


def test_det_reduced_laplacian_q1():
    g = build_crossed_chain(1)
    lap = laplacian(g)
    reduced = [row[:-1] for row in lap[:-1]]
    assert det_bareiss(envelope(reduced)) == 12288


def test_det_against_cofactor_expansion():
    rng = random.Random(20240811)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            m = random_symmetric_matrix(rng, n)
            if proper_leading_minor_vanishes(m):
                with pytest.raises(SingularMatrixError):
                    det_bareiss(envelope(m))
            else:
                assert det_bareiss(envelope(m)) == naive_det(m)


def test_det_singular_and_permuted():
    # pivots are taken on the diagonal: a vanishing last pivot is a zero
    # determinant, a vanishing proper leading minor raises
    assert det_bareiss(envelope([[1, 1], [1, 1]])) == 0
    assert det_bareiss(envelope([[2, 1, 0], [1, 0, 1], [0, 1, 1]])) == -3
    for m in ([[0, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 2, 1], [2, 0, 0], [1, 0, 1]]):
        with pytest.raises(SingularMatrixError):
            det_bareiss(envelope(m))


def test_det_rejects_non_integer():
    # a Fraction never reaches the kernel: its Envelope is refused
    with pytest.raises(ValueError, match="must be int"):
        det_bareiss(envelope([[Fraction(1, 2)]]))


def tail_with_scales(matrix):
    return char_poly_tails(matrix, range(2, len(matrix) + 2))[1]


def both_tails(matrix):
    return char_poly_tails(matrix, [1] * len(matrix))


@pytest.mark.parametrize("matrix", [
    pytest.param([[2, 1], [3, 2]], id="pair-inside-both-envelopes"),
    # (0, 2) holds 5, and row 2 is zero left of its diagonal
    pytest.param([[1, 0, 5], [0, 1, 0], [0, 0, 1]], id="mirror-left-of-an-envelope"),
    pytest.param([[0, 2], [3, 0]], id="envelope-right-of-its-diagonal"),
    pytest.param([[2, -1], [-1, 2]], id="symmetric"),
    pytest.param([], id="empty"),
])
def test_every_kernel_rejects_a_list_of_lists(matrix):
    # an Envelope is the one matrix form the kernels take; a dense list,
    # symmetric or not, is refused before any elimination
    for kernel in (det_bareiss, both_tails, adjugate_forms):
        with pytest.raises(ValueError) as err:
            kernel(matrix)
        assert str(err.value) == "the kernels take a linalg.Envelope, got list"
        assert not isinstance(err.value, SingularMatrixError)


@pytest.mark.parametrize("entries", [
    pytest.param(([2, 1], [2]), id="pair-inside-both-envelopes"),
    pytest.param(([1, 0, 5], [1], [9]), id="zeros-inside-envelopes"),
    # row 0's first nonzero lies right of its diagonal, a stored 0
    pytest.param(([0, 2, 5], [0, 1], [3]), id="envelope-right-of-its-diagonal"),
    # row 1 holds only its diagonal, 0
    pytest.param(([3], [0], [4]), id="empty-row"),
])
def test_every_kernel_accepts_a_symmetric_envelope(entries):
    # each kernel equals its dense reference on the matrix the rows stand
    # for, or raises exactly when a proper leading minor (or, for the
    # adjugate, the determinant) vanishes
    m = dense(Envelope(entries))
    assert envelope(m) == Envelope(entries)
    check_det(m)
    check_tail(m, [1] * len(m))
    check_adjugate(m, [[1] * len(m)])


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None, Fraction(1, 2), Fraction(1)])
def test_entries_other_than_int_or_fraction_rejected(bad):
    # ints only: a Fraction, even one equal to an int, is rejected by the
    # Envelope, so it never reaches a kernel, and by the dense reference
    text = f"matrix entries must be int, got {bad!r}"
    m = [[1, 0, True], [0, bad, 0], [True, 0, 1]]  # the diagonal is always stored
    for build in (envelope, adjugate):
        with pytest.raises(ValueError) as err:
            build(m)
        assert str(err.value) == text


def test_bool_entries_count_as_ints():
    m = [[True, False, True], [False, True, 2], [1, 2, 6]]
    ints = [[int(e) for e in row] for row in m]
    for kernel in (det_bareiss, tail_with_scales):
        assert kernel(envelope(m)) == kernel(envelope(ints))
    assert adjugate(m) == adjugate(ints)
    assert type(det_bareiss(envelope([[True]]))) is int
    assert type(adjugate([[True, False], [False, True]])[1][0][0]) is int
    assert all(type(c) is int for c in tail_with_scales(envelope(m)))
    symmetric = envelope([[True, False, True], [False, True, True], [1, True, 5]])
    assert adjugate_forms(symmetric, [[True, 2, 0]]) == \
        adjugate_forms(symmetric, [[1, 2, 0]]) == (3, [4, 4, 1], [24])
    assert all(type(e) is int for e in adjugate_forms(symmetric, [[True, 0, 0]])[1])


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


@pytest.mark.parametrize("builder", [laplacian, random_walk_laplacian])
@pytest.mark.parametrize("order", [[0, 1, 7], [5, 6, 7], [0, 1, 1], [0, 1, 2, 2]])
def test_order_must_permute_the_vertices(builder, order):
    from chaindex import Graph

    g = Graph([0, 1, 2], [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="permutation of the graph's vertices"):
        builder(g, order)
    assert builder(g, [2, 0, 1])[0][0] == 1


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
            assert horner(p, x) == det_bareiss(envelope(shifted))


# --- envelope rows -----------------------------------------------------------


def seeded_graph(seed, vertices, edge_count):
    # shuffled labels, a random spanning tree, then random extra edges
    rng = random.Random(seed)
    labels = rng.sample(range(1, 10 * vertices), vertices)
    edges = {tuple(sorted((labels[k], labels[rng.randrange(k)]))) for k in range(1, vertices)}
    while len(edges) < edge_count:
        edges.add(tuple(sorted(rng.sample(labels, 2))))
    return Graph(labels, sorted(edges))


@pytest.mark.parametrize("g", [build_crossed_chain(2), build_plain_chain(2),
                               Graph("abcde", [("a", "c"), ("b", "e"), ("c", "e"), ("d", "a")]),
                               seeded_graph(3, 9, 14), seeded_graph(7, 36, 54)])
def test_laplacian_rows_are_tight_envelopes_of_the_laplacian(g):
    # a grounded Laplacian is a principal submatrix of the reference's
    for order in (g.band_order(), sorted(g.vertices)):
        full = laplacian(g, order)
        for lo, hi in ((0, len(order)), (0, len(order) - 1), (1, len(order))):
            kept = order[lo:hi]
            rows = laplacian_rows(g, kept)
            expanded = [row[lo:hi] for row in full[lo:hi]]
            assert rows == envelope(expanded)  # cut at each row's last nonzero
            assert dense(rows) == expanded
            # every kernel reads the rows as the dense references read their
            # expansion, and leaves them as they were
            ones, twos = [[1] * len(kept)], [2] * len(kept)
            assert det_bareiss(rows) == dense_det_bareiss(expanded)
            char_poly_tails(rows, twos)
            if kept != order:  # the full Laplacian is singular
                assert adjugate_forms(rows, ones) == reference_forms(expanded, ones)
            assert dense(rows) == expanded


@pytest.mark.parametrize("order", [[0, 0], [0, 7], [5]])
def test_laplacian_rows_need_distinct_vertices_of_the_graph(order):
    with pytest.raises(ValueError, match="distinct vertices of the graph"):
        laplacian_rows(Graph([0, 1, 2], [(0, 1), (1, 2)]), order)


@pytest.mark.parametrize("seed", range(6))
def test_envelope_conversion_round_trips(seed):
    # dense(envelope(m)) == m on symmetric matrices with zero rows and rows
    # whose first stored entries are 0
    rng = random.Random(seed)
    for n in range(7):
        m = random_symmetric_matrix(rng, n, -2, 2)
        for i in rng.sample(range(n), n // 3):
            for j in range(n):
                m[i][j] = m[j][i] = 0
        for i in range(n - 1):
            if rng.random() < 0.5:
                m[i][i] = m[i][i + 1] = m[i + 1][i] = 0
        rows = envelope(m)
        assert dense(rows) == m
        assert all(row[-1] or len(row) == 1 for row in rows.entries)  # cut at the last nonzero


@pytest.mark.parametrize("matrix, text", [
    pytest.param([[1, 2], [3]], "matrix is not square", id="ragged"),
    pytest.param([[1, 2, 0], [2, 1, 0]], "matrix is not square", id="wide"),
    pytest.param([[1], [2]], "matrix is not square", id="tall"),
    pytest.param([[0, 2], [3, 0]], "matrix is not symmetric", id="asymmetric"),
    pytest.param([[1, 0, 5], [0, 1, 0], [0, 0, 1]], "matrix is not symmetric",
                 id="mirror-left-of-an-envelope"),
])
def test_envelope_conversion_rejects_what_is_not_a_symmetric_square(matrix, text):
    with pytest.raises(ValueError) as err:
        envelope(matrix)
    assert str(err.value) == text


def test_envelope_expands_zero_rows():
    for entries in (([1], [0], [3]), ([1, 0, 0], [0, 0], [3])):
        assert dense(Envelope(entries)) == [[1, 0, 0], [0, 0, 0], [0, 0, 3]]


@pytest.mark.parametrize("entries, text", [
    pytest.param(((Fraction(1, 2), 1), (3.0,)), "matrix entries must be int, got Fraction(1, 2)",
                 id="fraction"),
    pytest.param(((1, 1), (3.0,)), "matrix entries must be int, got 3.0", id="float"),
    pytest.param(((1,), (2, 3)), "matrix is not square", id="row-past-the-last-column"),
    pytest.param(((1, 2), ()), "matrix is not square", id="empty-row"),
])
def test_envelope_rejects_what_a_dense_matrix_may_not_hold(entries, text):
    with pytest.raises(ValueError) as err:
        Envelope(entries)
    assert str(err.value) == text
    assert not isinstance(err.value, SingularMatrixError)


def test_envelope_bool_entries_count_as_ints():
    rows = Envelope(([True, False], [3]))
    assert dense(rows) == [[1, 0], [0, 3]]
    assert all(type(e) is int for row in rows.entries for e in row)
    assert type(det_bareiss(rows)) is int and det_bareiss(rows) == 3
    with pytest.raises(TypeError):
        rows.entries[1][0] = 0.5


# --- ring steps ----------------------------------------------------------------


@pytest.fixture
def ring_steps(monkeypatch):
    """Counts [steps, steps with a zero head] per ring of every elimination
    run after the fixture starts: a zero head marks a step that only
    rescales, or one that reads a stale row's head as h * p_L / p_c."""
    counts = {"series": [0, 0], "int": [0, 0]}

    def counting(ring, inner):
        def step(p, a, h, b, q):
            counts[ring][0] += 1
            counts[ring][1] += not h
            return inner(p, a, h, b, q)
        return step

    monkeypatch.setattr(linalg, "_series_step", counting("series", linalg._series_step))
    monkeypatch.setattr(linalg, "_int_step", counting("int", linalg._int_step))
    monkeypatch.delenv("CHAINDEX_THREADS", raising=False)
    oc._grounded_factor.cache_clear()
    oc._reciprocal_sums.cache_clear()
    return counts


@pytest.mark.parametrize("builder", [build_crossed_chain, build_plain_chain])
@pytest.mark.parametrize("n", range(1, 7))
def test_chain_eliminations_make_no_rescale_only_step(ring_steps, builder, n):
    oc.index_bundle(builder(n))
    assert ring_steps["series"][0] > 0 and ring_steps["int"][0] > 0
    assert ring_steps["series"][1] == ring_steps["int"][1] == 0


def test_verify_pass_step_counts_repeat_exactly(ring_steps):
    # a stale row's update divides out its stale factor; rescaling it
    # first took 13620 series and 9590 integer steps, and the two pencils
    # in separate passes took 9100 series steps; updating whole rows, not
    # only their upper envelopes, took 4550 series and 6580 integer steps
    for _ in range(2):
        oc._grounded_factor.cache_clear()
        oc._reciprocal_sums.cache_clear()
        for tally in ring_steps.values():
            tally[:] = [0, 0]
        run_verification(1, 10)
        assert ring_steps == {"series": [3670, 0], "int": [5730, 0]}


def test_seeded_graph_pencil_head_steps_repeat_exactly(monkeypatch):
    # A row last updated by step L-1 that sits out steps up to c-1 reads
    # its head by symmetry as h * p_L / p_c: one step(h, p_L, 0, 0, p_c)
    # per such row update, whose a is the very pivot object p_L that drove
    # step L-1's updates.  Every other step with a zero head rescales a
    # stale pivot row or the last row.  Band order on an unbanded graph
    # leaves rows stale, unlike on the chains.
    steps, pivots, inner = {"all": 0, "heads": 0, "rescales": 0}, {}, linalg._series_step

    def counting(p, a, h, b, q):
        steps["all"] += 1
        if h:
            pivots[id(p)] = p  # kept alive, so no other object takes its id
        else:
            steps["heads" if id(a) in pivots else "rescales"] += 1
        return inner(p, a, h, b, q)

    monkeypatch.setattr(linalg, "_series_step", counting)
    oc._reciprocal_sums.cache_clear()
    g = seeded_graph(7, 36, 54)
    assert oc.kirchhoff_from_spectrum(g) == oc.kirchhoff_from_resistances(g)
    assert steps == {"all": 526, "heads": 27, "rescales": 81}
