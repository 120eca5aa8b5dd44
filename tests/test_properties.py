"""Randomized cross-checks of the exact kernels on arbitrary graphs.

Seeded generators only, so failures are reproducible.  These tests tie
the independent computation routes to each other on inputs with no chain
structure at all: random spanning trees plus random extra edges, and
sparse random symmetric matrices that leave rows stale or make a
diagonal pivot vanish.
"""

import random
from fractions import Fraction

import pytest
from dense_reference import char_poly, dict_bfs, laplacian, proper_leading_minor_vanishes

from chaindex import Graph
from chaindex import oracles as oc
from chaindex.linalg import SingularMatrixError, det_bareiss


def random_connected_graph(rng, size, extra_edges):
    # random spanning tree, then extra edges: always connected, never a loop
    labels = list(range(size))
    edges = set()
    for v in labels[1:]:
        edges.add(frozenset((v, rng.randrange(v))))
    target = min(size - 1 + extra_edges, size * (size - 1) // 2)
    while len(edges) < target:
        u, v = rng.sample(labels, 2)
        edges.add(frozenset((u, v)))
    return Graph(labels, [tuple(e) for e in edges])


def sparse_random_matrix(rng, size, density):
    return [
        [rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(size)]
        for _ in range(size)
    ]


def sparse_random_symmetric_matrix(rng, size, density):
    m = sparse_random_matrix(rng, size, density)
    return [[m[max(i, j)][min(i, j)] for j in range(size)] for i in range(size)]


def naive_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * naive_det(minor)
    return total


def horner(poly, x):
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def test_kirchhoff_routes_agree_on_random_graphs():
    rng = random.Random(1729)
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(4, 9), rng.randint(0, 5))
        assert oc.kirchhoff_from_resistances(g) == oc.kirchhoff_from_spectrum(g)
        assert oc.degree_kirchhoff_from_resistances(g) == \
            oc.degree_kirchhoff_from_spectrum(g)


def test_spanning_trees_drop_invariance_on_random_graphs():
    rng = random.Random(4104)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(4, 8), rng.randint(1, 4))
        counts = {oc.spanning_tree_count(g, drop=v)
                  for v in rng.sample(g.vertices, 3)}
        assert len(counts) == 1
        assert counts.pop() >= 1


def test_resistance_metric_on_random_graphs():
    rng = random.Random(27)
    for _ in range(5):
        g = random_connected_graph(rng, rng.randint(4, 7), rng.randint(0, 3))
        vs = g.vertices
        r = {}
        for a in range(len(vs)):
            dist = dict_bfs(g, vs[a])
            for b in range(len(vs)):
                if a == b:
                    continue
                value = oc.resistance(g, vs[a], vs[b])
                r[(a, b)] = value
                assert 0 < value <= dist[vs[b]]
        for (a, b), value in r.items():
            assert value == r[(b, a)]
        for a in range(len(vs)):
            for b in range(len(vs)):
                for c in range(len(vs)):
                    if len({a, b, c}) == 3:
                        assert r[(a, b)] + r[(b, c)] >= r[(a, c)]


def test_wiener_gutman_bounds_on_random_graphs():
    rng = random.Random(99)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(4, 9), rng.randint(0, 4))
        pairs = g.vertex_count * (g.vertex_count - 1) // 2
        w = oc.wiener_index(g)
        assert w >= pairs  # every distance is at least 1
        # Kf <= W because resistance never exceeds hop distance
        assert oc.kirchhoff_index(g) <= w


def test_sparse_determinants_match_cofactor_expansion():
    rng = random.Random(31337)
    for size in (3, 4, 5, 6):
        for density in (0.3, 0.5, 0.8):
            for _ in range(6):
                m = sparse_random_symmetric_matrix(rng, size, density)
                if proper_leading_minor_vanishes(m):
                    with pytest.raises(SingularMatrixError):
                        det_bareiss(m)
                else:
                    assert det_bareiss(m) == naive_det(m), m


def test_char_poly_on_sparse_matrices():
    rng = random.Random(271828)
    for _ in range(10):
        size = rng.randint(2, 5)
        m = sparse_random_matrix(rng, size, 0.4)
        poly = char_poly(m)
        for x in (0, 1, -3):
            shifted = [[(x if i == j else 0) - m[i][j] for j in range(size)]
                       for i in range(size)]
            assert horner(poly, x) == naive_det(shifted)


def test_matrix_tree_equals_cofactor_on_random_graphs():
    rng = random.Random(515)
    for _ in range(6):
        g = random_connected_graph(rng, rng.randint(4, 7), rng.randint(0, 3))
        lap = laplacian(g)
        cofactor = naive_det([row[1:] for row in lap[1:]])
        assert oc.spanning_tree_count(g) == cofactor
