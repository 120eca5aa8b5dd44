"""Builders for the two-rail octagonal-quadrilateral chain networks.

A chain of parameter ``n`` lives on two mirrored rails of ``4n + 1``
vertices each.  Both rails carry a path; rungs join the rails at every
rail index congruent to 0 or 1 (mod 4); the "crossed" variant adds the
two diagonals of every ladder square.  The map exchanging the rails is
an automorphism, which is what the spectral shortcut exploits; the 2×2
tiles of ``spectral.factorization_holds`` prove it for the crossed chain
they are handed.
A ``Vertex`` is the tuple (index, primed), so ``sorted(g.vertices)`` is
the mirror order v_1, v_1', v_2, v_2', ....
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple


class Vertex(NamedTuple):
    """A rail position: ``index`` in 1..4n+1, on the plain or primed rail."""

    index: int
    primed: bool = False

    def __str__(self) -> str:
        return f"{self.index}'" if self.primed else str(self.index)


class Graph:
    """Immutable simple undirected graph with a fixed vertex order.

    The vertex order is the default row/column order of a derived matrix;
    the oracles eliminate in ``band_order()`` instead.  Vertices may be any
    hashable labels.
    """

    def __init__(self, vertices: Iterable, edges: Iterable[tuple]) -> None:
        self.vertices = tuple(vertices)
        self._pos = {v: i for i, v in enumerate(self.vertices)}
        if len(self._pos) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        adjacency: dict = {v: set() for v in self.vertices}
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in self._pos or v not in self._pos:
                raise ValueError(f"edge ({u}, {v}) uses an unknown vertex")
            edge_set.add(frozenset((u, v)))
            adjacency[u].add(v)
            adjacency[v].add(u)
        self.edges = frozenset(edge_set)
        self._adj = {
            v: tuple(sorted(nbrs, key=self._pos.__getitem__))
            for v, nbrs in adjacency.items()
        }

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def position(self, v) -> int:
        return self._pos[v]

    def neighbors(self, v) -> tuple:
        return self._adj[v]

    def degree(self, v) -> int:
        return len(self._adj[v])

    def distances_from(self, source) -> dict:
        """Breadth-first hop distances from ``source`` to every reachable vertex;
        ValueError if ``source`` is not a vertex of the graph."""
        if source not in self._pos:
            raise ValueError(f"vertex {source!r} is not in the graph")
        dist = self.hop_distances(self._pos[source])
        return {v: d for v, d in zip(self.vertices, dist) if d >= 0}

    @cached_property
    def _index_adjacency(self) -> tuple:
        """Each vertex's neighbours as positions in the vertex order."""
        pos = self._pos
        return tuple(tuple(pos[w] for w in self._adj[v]) for v in self.vertices)

    def hop_distances(self, source: int) -> list[int]:
        """Breadth-first hop distances from the vertex at position ``source``,
        as a list in vertex order; -1 marks an unreachable vertex."""
        adjacency = self._index_adjacency
        if type(source) is not int or not 0 <= source < len(adjacency):
            raise ValueError(f"vertex position {source!r} is out of range")
        dist = [-1] * len(adjacency)
        dist[source] = 0
        queue = [source]
        for u in queue:  # read while it grows
            step = dist[u] + 1
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = step
                    queue.append(w)
        return dist

    @cached_property
    def _connected(self) -> bool:
        return not self.vertices or len(self.distances_from(self.vertices[0])) == len(self.vertices)

    def is_connected(self) -> bool:
        """Whether every vertex is reachable; one search per (immutable) graph."""
        return self._connected

    def band_order(self) -> tuple:
        """Reverse Cuthill-McKee order: the vertex order for eliminated matrices.

        Breadth-first from an unvisited vertex of least degree, neighbours
        by ascending degree, ties by the graph's own order, one component
        after another; the whole list reversed.  Spectra and determinants
        do not depend on the order, and this one concentrates the nonzeros
        near the diagonal (bandwidth 3 for the chains).  One sort per
        (immutable) graph.
        """
        return self._band_order

    @cached_property
    def _band_order(self) -> tuple:
        order, seen = [], set()
        for root in sorted(self.vertices, key=self.degree):
            if root not in seen:
                seen.add(root)
                component = [root]
                for u in component:  # read while it grows: the search queue
                    fresh = [w for w in sorted(self._adj[u], key=self.degree) if w not in seen]
                    seen.update(fresh)
                    component += fresh
                order += component
        return tuple(reversed(order))


class ChainGraph(Graph):
    """A crossed or plain chain, plain rail then primed rail; its band_order has bandwidth 3."""

    def __init__(self, n: int, kind: str, edges: Iterable[tuple]) -> None:
        if kind not in ("crossed", "plain"):
            raise ValueError(f"unknown chain kind {kind!r}")
        rail = range(1, 4 * n + 2)
        vertices = [Vertex(i, False) for i in rail] + [Vertex(i, True) for i in rail]
        super().__init__(vertices, edges)
        self.n = n
        self.kind = kind


def check_chain_parameter(n) -> None:
    """Raise ValueError unless n is an int >= 1; bool and float are rejected."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"chain parameter n must be an int, got {n!r}")
    if n < 1:
        raise ValueError("chain parameter n must be >= 1")


def rung_indices(n: int) -> list[int]:
    """Rail indices carrying a rung: every i = 0, 1 (mod 4) within 1..4n+1."""
    return [i for i in range(1, 4 * n + 2) if i % 4 in (0, 1)]


def _chain_edges(n: int, crossed: bool) -> list[tuple[Vertex, Vertex]]:
    edges = []
    for i in range(1, 4 * n + 1):
        a, b = Vertex(i), Vertex(i + 1)
        ap, bp = Vertex(i, True), Vertex(i + 1, True)
        edges.append((a, b))
        edges.append((ap, bp))
        if crossed:
            edges.append((a, bp))
            edges.append((ap, b))
    for i in rung_indices(n):
        edges.append((Vertex(i), Vertex(i, True)))
    return edges


def build_crossed_chain(n: int) -> ChainGraph:
    """The crossed chain: rail paths, all ladder diagonals, and 2n+1 rungs.

    Has 8n+2 vertices and 18n+1 edges; degrees are 3 at the four corner
    vertices, 5 at rung-bearing interior indices, 4 elsewhere.
    """
    check_chain_parameter(n)
    return ChainGraph(n, "crossed", _chain_edges(n, crossed=True))


def build_plain_chain(n: int) -> ChainGraph:
    """The uncrossed parent chain (10n+1 edges): alternating squares and octagons."""
    check_chain_parameter(n)
    return ChainGraph(n, "plain", _chain_edges(n, crossed=False))


def edge_list_text(g: ChainGraph) -> str:
    """Edge-list export: header line, then one `u v` line per edge.

    Vertices print as ``k`` (plain rail) or ``k'`` (primed rail); edges are
    listed in vertex-order-sorted order so the output is deterministic.
    """
    lines = [f"{g.kind}-chain n={g.n}"]
    ordered = sorted(
        (tuple(sorted(e, key=g.position)) for e in g.edges),
        key=lambda e: (g.position(e[0]), g.position(e[1])),
    )
    lines.extend(f"{u} {v}" for u, v in ordered)
    return "\n".join(lines) + "\n"
