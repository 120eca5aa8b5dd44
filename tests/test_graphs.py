from fractions import Fraction
from math import prod

import pytest
from dense_reference import char_poly, fraction_inverse, laplacian, random_walk_laplacian
from hypothesis import given
from test_kernel_differential import BOUNDED, shuffled_connected_graph

from chaindex import (
    Graph,
    Vertex,
    build_crossed_chain,
    build_plain_chain,
    edge_list_text,
    rung_indices,
)
from chaindex import oracles as oc
from chaindex.linalg import char_poly_tails, det_bareiss


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_crossed_counts(n):
    g = build_crossed_chain(n)
    assert g.vertex_count == 8 * n + 2
    assert g.edge_count == 18 * n + 1
    assert sum(g.degree(v) for v in g.vertices) == 36 * n + 2
    assert g.is_connected()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_plain_counts(n):
    g = build_plain_chain(n)
    assert g.vertex_count == 8 * n + 2
    assert g.edge_count == 10 * n + 1
    assert g.is_connected()


def test_crossed_n1_degree_multiset():
    g = build_crossed_chain(1)
    degs = sorted(g.degree(v) for v in g.vertices)
    assert degs == [3, 3, 3, 3, 4, 4, 4, 4, 5, 5]


def test_rail_degree_sequence_n1():
    g = build_crossed_chain(1)
    rail = [Vertex(i) for i in range(1, 6)]
    assert [g.degree(v) for v in rail] == [3, 4, 4, 5, 3]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_degree_pattern(n):
    # degree 3 at the four corners, 5 at rung-bearing interior indices,
    # 4 everywhere else, identically on both rails
    g = build_crossed_chain(n)
    for i in range(1, 4 * n + 2):
        for primed in (False, True):
            d = g.degree(Vertex(i, primed))
            if i in (1, 4 * n + 1):
                assert d == 3
            elif i % 4 in (0, 1):
                assert d == 5
            else:
                assert d == 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_edge_breakdown(n):
    g = build_crossed_chain(n)
    rungs = [e for e in g.edges if len({v.index for v in e}) == 1]
    paths = [e for e in g.edges if len({v.primed for v in e}) == 1]
    crossed = [e for e in g.edges
               if len({v.index for v in e}) == 2 and len({v.primed for v in e}) == 2]
    assert len(rungs) == 2 * n + 1
    assert len(paths) == 8 * n
    assert len(crossed) == 8 * n
    assert {v.index for e in rungs for v in e} == set(rung_indices(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plain_is_crossed_minus_diagonals(n):
    plain = build_plain_chain(n)
    crossed = build_crossed_chain(n)
    assert plain.edges < crossed.edges
    removed = crossed.edges - plain.edges
    assert len(removed) == 8 * n
    assert all(
        len({v.index for v in e}) == 2 and len({v.primed for v in e}) == 2
        for e in removed
    )


def test_plain_n1_cycles():
    g = build_plain_chain(1)
    square = [Vertex(4), Vertex(5), Vertex(5, True), Vertex(4, True)]
    octagon = [Vertex(1), Vertex(2), Vertex(3), Vertex(4),
               Vertex(4, True), Vertex(3, True), Vertex(2, True), Vertex(1, True)]
    for cycle in (square, octagon):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert frozenset((a, b)) in g.edges


@pytest.mark.parametrize("builder", [build_crossed_chain, build_plain_chain])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_mirror_swap_is_automorphism(builder, n):
    g = builder(n)
    rail = range(1, 4 * n + 2)
    assert g.vertices == tuple(Vertex(i) for i in rail) + tuple(Vertex(i, True) for i in rail)
    swapped = {frozenset(Vertex(v.index, not v.primed) for v in e) for e in g.edges}
    assert swapped == g.edges


@pytest.mark.parametrize("builder", [build_crossed_chain, build_plain_chain])
def test_n_zero_rejected(builder):
    with pytest.raises(ValueError):
        builder(0)


@pytest.mark.parametrize("builder", [build_crossed_chain, build_plain_chain])
@pytest.mark.parametrize("bad", [True, 2.5, 1.0, "2", None])
def test_non_int_n_rejected(builder, bad):
    # True would otherwise build the n=1 chain, 2.5 fail with a TypeError
    with pytest.raises(ValueError, match="must be an int"):
        builder(bad)


def test_edge_list_export():
    g = build_crossed_chain(2)
    text = edge_list_text(g)
    lines = text.splitlines()
    assert lines[0] == "crossed-chain n=2"
    assert len(lines) == 1 + 37
    tokens = {tok for line in lines[1:] for tok in line.split()}
    for token in tokens:
        body = token.rstrip("'")
        assert body.isdigit() and 1 <= int(body) <= 9
    assert "1'" in tokens and "9" in tokens


def test_edge_list_export_plain_header():
    assert edge_list_text(build_plain_chain(3)).splitlines()[0] == "plain-chain n=3"


def test_malformed_graphs_rejected():
    with pytest.raises(ValueError):
        Graph("ab", [("a", "a")])
    with pytest.raises(ValueError):
        Graph("ab", [("a", "z")])
    with pytest.raises(ValueError):
        Graph("aab", [("a", "b")])


# --- the elimination order ---------------------------------------------------


ORDER_CASES = {
    "empty": ((), ()),
    "one vertex": (("a",), ()),
    "disconnected": (range(6), [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),
    "isolated vertices": ("pqrs", [("q", "s")]),
}


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_band_order_is_a_deterministic_permutation(case):
    vertices, edges = ORDER_CASES[case]
    g = Graph(vertices, edges)
    order = g.band_order()
    assert sorted(order, key=g.position) == list(g.vertices)
    assert g.band_order() == order
    assert Graph(vertices, edges).band_order() == order


def test_band_order_is_reverse_cuthill_mckee():
    # roots by least degree, the isolated h first; b before e and f by the
    # graph's own order; a visits c (degree 2) before d (degree 3)
    g = Graph("abcdefgh", [("a", "b"), ("a", "c"), ("a", "d"), ("c", "d"),
                           ("d", "e"), ("f", "g")])
    assert "".join(g.band_order()) == "gfedcabh"


@pytest.mark.parametrize("builder", [build_crossed_chain, build_plain_chain])
@pytest.mark.parametrize("n", range(1, 9))
def test_chain_band_order_has_bandwidth_3(builder, n):
    g = builder(n)
    lap = laplacian(g, g.band_order())
    assert max(abs(i - j) for i, row in enumerate(lap) for j, e in enumerate(row) if e) == 3


def test_connectivity_is_searched_once_per_graph(monkeypatch):
    calls = []
    inner = Graph.hop_distances

    def counting(self, source):
        calls.append(source)
        return inner(self, source)

    monkeypatch.setattr(Graph, "hop_distances", counting)
    g = Graph(range(4), [(0, 1), (2, 3)])
    assert not g.is_connected() and not g.is_connected()
    assert Graph((), ()).is_connected()
    assert calls == [0]


def test_distances_from_an_unknown_vertex_names_it():
    g = Graph("ab", [("a", "b")])
    for bad in (-1, 2, True, "a", "z"):
        with pytest.raises(ValueError, match=f"vertex position {bad!r} is out of range"):
            g.hop_distances(bad)


def own_order_indices(g):
    """Kf, Kf* and tau from matrices in the graph's own vertex order."""
    lap = laplacian(g, g.vertices)
    m = g.vertex_count - 1
    tau = det_bareiss([row[:m] for row in lap[:m]])
    inverse = fraction_inverse([row[:m] for row in lap[:m]])  # last vertex grounded

    def entry(i, j):
        return inverse[i][j] if i < m and j < m else 0

    def r(a, b):
        return entry(a, a) + entry(b, b) - 2 * entry(a, b)

    pairs = [(a, b) for b in range(m + 1) for a in range(b)]
    degs = [g.degree(v) for v in g.vertices]
    kf = sum(r(a, b) for a, b in pairs)
    kf_star = sum(degs[a] * degs[b] * r(a, b) for a, b in pairs)
    # det(xI - L), and det(xD - L) = det D * det(xI - D^-1 L)
    for scale, matrix, total, (c0, c1, c2) in zip(
            ([1] * len(lap), degs), (lap, random_walk_laplacian(g, g.vertices)),
            (kf / g.vertex_count, kf_star / (2 * g.edge_count)), char_poly_tails(lap, degs)):
        assert [c0, c1, c2] == [prod(scale) * c for c in char_poly(matrix)[:3]]
        assert abs(Fraction(c2, c1)) == total
    return kf, kf_star, tau


@BOUNDED
@given(shuffled_connected_graph(max_size=14))
def test_indices_do_not_depend_on_the_elimination_order(g):
    assert (oc.kirchhoff_index(g), oc.degree_kirchhoff_index(g), oc.spanning_tree_count(g)) \
        == own_order_indices(g)
