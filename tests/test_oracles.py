import random
import tracemalloc
from fractions import Fraction
from functools import partial
from operator import mul

import pytest
from dense_reference import adjugate, dense_det_bareiss, dict_bfs, laplacian
from hypothesis import example, given
from hypothesis import strategies as st
from test_kernel_differential import BOUNDED
from test_properties import random_connected_graph

from chaindex import Graph, Vertex, build_crossed_chain, build_plain_chain, linalg
from chaindex import oracles as oc
from chaindex import verify as vf


def k2():
    return Graph("ab", [("a", "b")])


def path3():
    return Graph("abc", [("a", "b"), ("b", "c")])


def triangle():
    return Graph("abc", [("a", "b"), ("b", "c"), ("c", "a")])


def star4():
    return Graph("abcd", [("a", "b"), ("a", "c"), ("a", "d")])


# --- resistance ---------------------------------------------------------------


def test_bridge_resistance_is_one():
    assert oc.resistance(k2(), "a", "b") == 1
    assert oc.resistance(star4(), "a", "c") == 1


def test_triangle_resistance():
    assert oc.resistance(triangle(), "a", "b") == Fraction(2, 3)


def test_resistance_q1_rung_pair():
    g = build_crossed_chain(1)
    assert oc.resistance(g, Vertex(1), Vertex(1, True)) == Fraction(1, 2)


def test_resistance_q1_adjacent_rail_pair():
    # grounded-solve potentials: phi(1) - phi(2) under unit current 1 -> 2
    g = build_crossed_chain(1)
    assert oc.resistance(g, Vertex(1), Vertex(2)) == Fraction(1, 2)


def test_resistance_symmetric_and_matches_minor_ratio():
    # independent route: r(u, v) = det L[{u, v}] / det L[{u}]
    g = build_crossed_chain(1)
    lap = laplacian(g)

    def minor(drop):
        keep = [i for i in range(len(lap)) if i not in drop]
        return dense_det_bareiss([[lap[i][j] for j in keep] for i in keep])

    tau = minor({0})
    pairs = [(Vertex(1), Vertex(3)), (Vertex(2), Vertex(4, True)),
             (Vertex(5), Vertex(5, True))]
    for u, v in pairs:
        expected = Fraction(minor({g.position(u), g.position(v)}), tau)
        assert oc.resistance(g, u, v) == expected
        assert oc.resistance(g, v, u) == expected


def test_resistance_triangle_inequality_and_distance_bound():
    g = build_crossed_chain(1)
    vs = g.vertices
    r = {(u, v): oc.resistance(g, u, v) for u in vs for v in vs if u != v}
    for u in vs:
        dist = dict_bfs(g, u)
        for v in vs:
            if u == v:
                continue
            assert r[(u, v)] <= dist[v]
    for u, v, w in [(vs[0], vs[3], vs[7]), (vs[1], vs[9], vs[4]), (vs[2], vs[5], vs[8])]:
        assert r[(u, v)] + r[(v, w)] >= r[(u, w)]


def test_resistance_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        oc.resistance(k2(), "a", "a")
    with pytest.raises(ValueError, match="belong"):
        oc.resistance(k2(), "a", "z")
    with pytest.raises(ValueError, match="not connected"):
        oc.resistance(Graph("abcd", [("a", "b"), ("c", "d")]), "a", "b")


# --- Kirchhoff indices ----------------------------------------------------------


def test_kirchhoff_k2():
    assert oc.kirchhoff_index(k2()) == 1


def test_kirchhoff_q1_q2():
    assert oc.kirchhoff_index(build_crossed_chain(1)) == Fraction(95, 3)
    assert oc.kirchhoff_index(build_crossed_chain(2)) == 156


def test_kirchhoff_routes_agree_independently():
    for g in (triangle(), star4(), build_crossed_chain(1), build_plain_chain(2)):
        assert oc.kirchhoff_from_resistances(g) == oc.kirchhoff_from_spectrum(g)


def test_degree_kirchhoff_k2():
    assert oc.degree_kirchhoff_index(k2()) == 1


def test_degree_kirchhoff_q1_q2():
    assert oc.degree_kirchhoff_index(build_crossed_chain(1)) == Fraction(1298, 3)
    assert oc.degree_kirchhoff_index(build_crossed_chain(2)) == 2496


def test_degree_kirchhoff_routes_agree_independently():
    for g in (triangle(), star4(), build_crossed_chain(1), build_plain_chain(1)):
        assert oc.degree_kirchhoff_from_resistances(g) == \
            oc.degree_kirchhoff_from_spectrum(g)


def test_disconnected_rejected():
    g = Graph("abcd", [("a", "b"), ("c", "d")])
    for fn in (oc.kirchhoff_index, oc.degree_kirchhoff_index,
               oc.spanning_tree_count, oc.wiener_index, oc.gutman_index):
        with pytest.raises(ValueError):
            fn(g)


@pytest.mark.parametrize("fn", [
    oc.kirchhoff_from_resistances, oc.kirchhoff_from_spectrum,
    oc.degree_kirchhoff_from_resistances, oc.degree_kirchhoff_from_spectrum,
], ids=lambda fn: fn.__name__)
def test_isolated_vertex_is_not_connected_on_every_route(fn):
    # a vertex of degree 0 would also be an invalid scale of the pencil
    # det(xD - L), but connectivity is checked first
    with pytest.raises(ValueError, match="not connected"):
        fn(Graph("abc", [("a", "b")]))


def test_one_vertex_has_no_degree_kirchhoff_spectrum():
    # one vertex is connected and its pencil has no nonzero root, so the
    # reciprocal sum is empty: the kernel never sees the degree 0
    assert oc.degree_kirchhoff_from_spectrum(Graph([7], ())) == 0


# --- spanning trees ---------------------------------------------------------------


def test_spanning_trees_q1_q2():
    assert oc.spanning_tree_count(build_crossed_chain(1)) == 12288
    assert oc.spanning_tree_count(build_crossed_chain(2)) == 113246208


def test_spanning_trees_of_trees():
    assert oc.spanning_tree_count(path3()) == 1
    assert oc.spanning_tree_count(star4()) == 1
    assert oc.spanning_tree_count(triangle()) == 3


def test_spanning_trees_independent_of_dropped_vertex():
    g = build_crossed_chain(2)
    drops = [g.vertices[0], g.vertices[7], g.vertices[-1]]
    counts = {oc.spanning_tree_count(g, drop=v) for v in drops}
    assert counts == {113246208}


@pytest.mark.slow
@pytest.mark.parametrize("n", [40, 60])
def test_pair_sums_match_the_adjugate_reference(n):
    # the pair sums read off the full reference adjugate of the same
    # grounded Laplacian, as they were before selected inversion
    g = build_crossed_chain(n)
    order = g.band_order()
    m = len(order) - 1
    det, adj = adjugate([row[:m] for row in laplacian(g, order)[:m]])
    degs = [g.degree(v) for v in order[:m]]
    diag = [row[a] for a, row in enumerate(adj)]
    plain = g.vertex_count * sum(diag) - sum(map(sum, adj))
    weighted = (2 * g.edge_count * sum(map(mul, degs, diag))
                - sum(d * sum(map(mul, degs, row)) for d, row in zip(degs, adj)))
    assert oc._pairwise_resistance_sums(g) == (Fraction(plain, det), Fraction(weighted, det))


@pytest.mark.slow
def test_pair_sums_memory_stays_banded():
    # the full adjugate of n=60 peaked near 49 MiB and the banded factor
    # of a dense grounded Laplacian near 5 MiB; with the Laplacian built in
    # envelope form the factor peaks near 1 MiB
    g = build_crossed_chain(60)
    tracemalloc.start()
    try:
        oc._pairwise_resistance_sums(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.slow
def test_bundle_memory_stays_banded():
    # N = 1602 vertices: dense N x N Laplacians made the bundle peak at
    # 67 MiB; envelope rows from adjacency keep about 7 MiB
    g = build_crossed_chain(200)
    tracemalloc.start()
    try:
        oc.index_bundle(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n", [5, 6])
def test_spanning_trees_larger_sizes(n):
    # the power-product form continues to hold past the printed check range
    assert oc.spanning_tree_count(build_crossed_chain(n)) == \
        2 ** (10 * n + 2) * 3 ** (2 * n - 1)


# --- distance indices ---------------------------------------------------------------


def test_wiener_small_graphs():
    assert oc.wiener_index(k2()) == 1
    assert oc.wiener_index(path3()) == 4


def test_gutman_small_graphs():
    assert oc.gutman_index(k2()) == 1
    # path on 3 vertices, degrees (1, 2, 1): 1*2*1 + 2*1*1 + 1*1*2 = 6
    assert oc.gutman_index(path3()) == 6


def test_wiener_q1_hand_count():
    # 45 pairs: rails contribute 2*20, cross pairs with distinct indices 40,
    # mirror pairs 1+1+1 (rungs) + 2+2 (no rung) = 7; total 87.
    assert oc.wiener_index(build_crossed_chain(1)) == 87


def test_gutman_q1_frozen():
    assert oc.gutman_index(build_crossed_chain(1)) == 1179


def test_distance_class_sums_q1():
    g = build_crossed_chain(1)
    assert oc.wiener_class_sums(g) == [84, 32, 28, 30, 0]
    assert oc.gutman_class_sums(g) == [486, 462, 480, 400, 530, 0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_class_sums_recombine(n):
    g = build_crossed_chain(n)
    assert sum(oc.wiener_class_sums(g)) == 2 * oc.wiener_index(g)
    assert sum(oc.gutman_class_sums(g)) == 2 * oc.gutman_index(g)


def test_class_sums_require_crossed_chain():
    with pytest.raises(ValueError):
        oc.wiener_class_sums(build_plain_chain(1))


# --- bundles -----------------------------------------------------------------------


def test_bundle_q1():
    b = oc.index_bundle(build_crossed_chain(1))
    assert (b.kf, b.kf_star, b.tau, b.wiener, b.gutman) == (
        Fraction(95, 3), Fraction(1298, 3), 12288, 87, 1179,
    )


def test_bundle_plain_chain_runs_exactly():
    # no closed forms exist for the plain chain; the oracles still agree
    # along their independent routes and produce exact values
    b = oc.index_bundle(build_plain_chain(1))
    assert (b.kf, b.kf_star, b.tau, b.wiener, b.gutman) == (
        Fraction(2155, 31), Fraction(10085, 31), 31, 113, 529,
    )


def test_bundle_json_dict():
    b = oc.index_bundle(build_crossed_chain(2))
    assert b.to_json_dict() == {
        "n": 2, "kf": "156", "kf_star": "2496", "tau": "113246208",
        "wiener": "493", "gutman": "7837",
    }


def count_grounded_inverses(monkeypatch) -> list:
    # one adjugate_forms call is one elimination of a grounded Laplacian
    calls = []
    inner = oc.adjugate_forms

    def counting(matrix, vectors=()):
        calls.append(len(matrix))
        return inner(matrix, vectors)

    monkeypatch.setattr(oc, "adjugate_forms", counting)
    return calls


def test_bundle_factors_the_grounded_laplacian_once(monkeypatch):
    calls = count_grounded_inverses(monkeypatch)
    oc.index_bundle(build_crossed_chain(2))
    assert len(calls) == 1


def test_verify_one_factors_the_grounded_laplacian_once(monkeypatch):
    calls = count_grounded_inverses(monkeypatch)
    vf.verify_one(1)
    assert len(calls) == 1


def test_both_resistance_indices_share_one_grounded_inverse(monkeypatch):
    calls = count_grounded_inverses(monkeypatch)
    g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    oc.kirchhoff_index(g)
    oc.degree_kirchhoff_index(g)
    assert len(calls) == 1


def test_tree_count_reads_the_grounded_factor(monkeypatch):
    # the default count is the factor's determinant; only an explicit
    # drop vertex runs a determinant of its own
    calls = []
    inner = oc.det_bareiss

    def counting(matrix):
        calls.append(len(matrix))
        return inner(matrix)

    monkeypatch.setattr(oc, "det_bareiss", counting)
    oc.index_bundle(build_crossed_chain(2))
    vf.verify_one(1)
    assert calls == []
    g = build_crossed_chain(1)
    assert oc.spanning_tree_count(g, drop=g.vertices[3]) == oc.spanning_tree_count(g) == 12288
    assert calls == [9]


def test_verify_one_shares_one_bfs_per_vertex(monkeypatch):
    calls = []
    inner = Graph.hop_distances

    def counting(self, source):
        calls.append(source)
        return inner(self, source)

    monkeypatch.setattr(Graph, "hop_distances", counting)
    vf.verify_one(2)
    assert len(calls) <= build_crossed_chain(2).vertex_count + 1


@st.composite
def any_graph(draw, max_size=9):
    # random edges on shuffled labels: often disconnected, sometimes edgeless
    size = draw(st.integers(0, max_size))
    pairs = [(u, v) for v in range(size) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(draw(st.permutations(range(size))), edges)


@BOUNDED
@given(any_graph())
@example(Graph((), ()))
@example(Graph([7], ()))
@example(Graph("abcd", [("a", "b"), ("c", "d")]))
def test_bfs_totals_match_a_dict_bfs(g):
    reference = {v: dict_bfs(g, v) for v in g.vertices}
    searched = {v: {w: d for w, d in zip(g.vertices, g.hop_distances(k)) if d >= 0}
                for k, v in enumerate(g.vertices)}
    assert searched == reference
    if not g.vertices:
        with pytest.raises(ValueError, match="no vertices"):
            oc.wiener_index(g)
        return
    if not g.is_connected():
        with pytest.raises(ValueError, match="not connected"):
            oc.wiener_index(g)
        return
    assert oc._distance_totals(g) == {
        v: (sum(dist.values()), sum(g.degree(w) * d for w, d in dist.items()))
        for v, dist in reference.items()
    }


@pytest.mark.parametrize("spectral_route, index", [
    ("kirchhoff_from_spectrum", oc.kirchhoff_index),
    ("degree_kirchhoff_from_spectrum", oc.degree_kirchhoff_index),
])
def test_route_disagreement_raises(monkeypatch, spectral_route, index):
    # a wrong spectral value must stop both the bundle and the single index,
    # whether or not the pairwise route is already memoized for the graph
    warm, cold = build_crossed_chain(2), build_crossed_chain(2)
    index(warm)
    monkeypatch.setattr(oc, spectral_route, lambda g: Fraction(-1))
    for g in (warm, cold):
        with pytest.raises(ArithmeticError, match="routes disagree"):
            oc.index_bundle(g)
        with pytest.raises(ArithmeticError, match="routes disagree"):
            index(g)


def _outcome(route, g):
    try:
        return route(g)
    except ValueError as exc:
        return ("raises", str(exc))


@BOUNDED
@given(any_graph())
@example(Graph((), ()))
@example(Graph([7], ()))
def test_every_route_accepts_the_same_graphs(g):
    # either the two Kf routes agree, the two Kf* routes agree and the tree
    # count is the same whichever vertex is deleted, or every route raises
    # the same ValueError
    groups = {
        "kf": [oc.kirchhoff_from_resistances, oc.kirchhoff_from_spectrum, oc.kirchhoff_index],
        "kf*": [oc.degree_kirchhoff_from_resistances, oc.degree_kirchhoff_from_spectrum,
                oc.degree_kirchhoff_index],
        "tau": [oc.spanning_tree_count,
                *(partial(oc.spanning_tree_count, drop=v) for v in g.vertices)],
        "wiener": [oc.wiener_index],
        "gutman": [oc.gutman_index],
    }
    outcomes = {name: {_outcome(route, g) for route in routes} for name, routes in groups.items()}
    assert all(len(found) == 1 for found in outcomes.values()), outcomes
    results = [found for (found,) in outcomes.values()]
    raised = [r for r in results if isinstance(r, tuple)]
    assert raised in ([], results[:1] * len(results)), outcomes
    assert (not raised) == (g.vertex_count > 0 and g.is_connected())
    if g.vertex_count == 1:
        assert results == [0, 0, 1, 0, 0]


@pytest.mark.parametrize("tail", [(1, 0, 0), (0, 0, 5)])
@pytest.mark.parametrize("route", [oc.kirchhoff_from_spectrum, oc.degree_kirchhoff_from_spectrum],
                         ids=lambda fn: fn.__name__)
def test_a_pencil_without_a_simple_zero_root_is_a_kernel_fault(monkeypatch, tail, route):
    # a connected graph's pencil always has one; a tail without it is no
    # statement about the graph
    monkeypatch.setattr(oc, "char_poly_tails", lambda matrix, scale: (tail, tail))
    oc._reciprocal_sums.cache_clear()
    with pytest.raises(ArithmeticError, match="simple zero root"):
        route(build_crossed_chain(1))


def test_a_fault_in_one_half_of_the_fused_step_breaks_the_tree_count(monkeypatch):
    # the pencils' last elimination step yields the determinant; corrupting
    # its y^1 coefficient alone leaves det(xI - L), and so Kf's spectral
    # route, whole, but the two halves' linear coefficients then disagree
    # on the spanning-tree count, and both indices raise
    g, inner, steps = build_crossed_chain(2), linalg._series_step, []

    def counting(*args):
        steps.append(None)
        return inner(*args)

    monkeypatch.setattr(linalg, "_series_step", counting)
    oc._reciprocal_sums.cache_clear()
    oc._reciprocal_sums(g)
    last = len(steps)

    def corrupt_last(*args):
        steps.append(None)
        c = inner(*args).c
        return linalg._Series(c[:3] + (c[3] + 1, c[4]) if len(steps) == last else c)

    monkeypatch.setattr(linalg, "_series_step", corrupt_last)
    for index in (oc.degree_kirchhoff_index, oc.kirchhoff_index):
        steps.clear()
        oc._reciprocal_sums.cache_clear()
        with pytest.raises(ArithmeticError, match="disagree on the tree count"):
            index(g)


def test_a_fault_that_scales_det_and_adjugate_alike_breaks_the_bundle(monkeypatch):
    # every resistance is a ratio of an adjugate form to det, so doubling
    # both leaves Kf and Kf* and their route checks whole; only the tree
    # count doubles, and the pencils' linear coefficients read the true one,
    # so both single indices and the bundle raise, on chains and on any graph
    inner = oc.adjugate_forms

    def doubled(matrix, vectors=()):
        det, diag, forms = inner(matrix, vectors)
        return 2 * det, [2 * a for a in diag], [2 * f for f in forms]

    chain = build_crossed_chain(2)
    other = random_connected_graph(random.Random(29), 14, 9)
    expected = {g: (oc.kirchhoff_index(g), oc.degree_kirchhoff_index(g),
                    oc.spanning_tree_count(g)) for g in (chain, other)}
    assert expected[chain] == (156, 2496, 113246208)
    monkeypatch.setattr(oc, "adjugate_forms", doubled)
    try:
        for g, (kf, kf_star, tau) in expected.items():
            oc._grounded_factor.cache_clear()
            assert (oc.kirchhoff_from_resistances(g), oc.degree_kirchhoff_from_resistances(g)) == \
                (kf, kf_star)
            assert oc.spanning_tree_count(g) == 2 * tau
            for index in (oc.kirchhoff_index, oc.degree_kirchhoff_index):
                with pytest.raises(ArithmeticError, match="tau routes disagree"):
                    index(g)
        with pytest.raises(ArithmeticError, match="tau routes disagree"):
            oc.index_bundle(chain)
    finally:
        oc._grounded_factor.cache_clear()
