"""Definition-level oracles for every invariant, in exact arithmetic.

These functions are the ground truth of the package: resistance sums,
matrix-tree determinants, and breadth-first distance sums computed
straight from the definitions, with no use of the closed forms they are
later compared against.  The two resistance-based indices are each
computed along two independent routes (pairwise sums and a trailing
characteristic-coefficient ratio) and the routes must agree exactly.
The trailing route reads the integer pencils det(xI − L) for Kf and
det(xD − L) = ∏d · det(xI − D⁻¹L), D the degrees, for Kf*, both from one
elimination over Z[x, y]/(x³, xy, y³); their linear coefficients must
agree on the spanning-tree count, and both resistance indices check that
count against the grounded factor's determinant.
The pairwise sums, single resistances and the spanning-tree count read
the grounded Laplacian; the sums read one symmetric factor of it: its
determinant, its adjugate's diagonal and quadratic forms of that
adjugate, never the adjugate itself.

Every oracle takes a connected graph with at least one vertex (K1 has
every resistance index 0 and one spanning tree): ``_require_connected``
is the one rule, run by the three helpers that reach a kernel or a BFS.
No kernel error is translated: past the gate the grounded Laplacian is
positive definite and every proper leading minor of L is nonzero, so
neither ``adjugate_forms`` nor ``char_poly_tails`` can raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .graphs import ChainGraph, Graph, Vertex
from .linalg import Envelope, adjugate_forms, char_poly_tails, det_bareiss, laplacian_rows


def _require_connected(g: Graph) -> None:
    """The oracles' one acceptance rule: at least one vertex, all connected."""
    if not g.vertices:
        raise ValueError("graph has no vertices")
    if not g.is_connected():
        raise ValueError("graph is not connected")


# ---------------------------------------------------------------------------
# resistance distances


def _grounded_laplacian(g: Graph, ground=None) -> tuple[list, Envelope]:
    """(kept, M): every vertex but ``ground`` in band order, and the
    Laplacian without ground's row and column, rows in that order, built
    from adjacency in envelope form.  The default ground is the last
    band-ordered vertex."""
    _require_connected(g)
    band = g.band_order()
    ground = band[-1] if ground is None else ground
    kept = [v for v in band if v != ground]
    return kept, laplacian_rows(g, kept)


def _grounded_forms(g: Graph, *weights) -> tuple[list, int, list[int], list[int]]:
    """(kept, det, diag, forms) of the adjugate A of the default grounded
    Laplacian: A's diagonal and one form wᵀAw per weight function, with w
    listing weight(v) for each kept vertex v.

    The grounded inverse is A / det; keeping A's entries as integers lets
    every resistance sum stay integral until one final division by det.
    """
    kept, grounded = _grounded_laplacian(g)
    det, diag, forms = adjugate_forms(grounded, [[weight(v) for v in kept] for weight in weights])
    return kept, det, diag, forms


@lru_cache(maxsize=1)
def _grounded_factor(g: Graph) -> tuple[list, int, list[int], list[int]]:
    """(kept, det, diag, [1ᵀA1, dᵀAd]) of the grounded adjugate A, d the
    degrees: everything the pairwise resistance sums and the default
    spanning-tree count read, kept for the last (immutable) graph.  No
    trailing-coefficient route reads it."""
    return _grounded_forms(g, lambda v: 1, g.degree)


def resistance(g: Graph, u, v) -> Fraction:
    """Effective resistance between u and v with unit resistors on edges.

    Reads r(u, v) = wᵀAw / det for w = e_u - e_v and the grounded adjugate
    A, which is zero on the grounded vertex.
    """
    if u == v:
        raise ValueError("resistance requires two distinct vertices")
    if u not in g.vertices or v not in g.vertices:
        raise ValueError("both endpoints must belong to the graph")
    _, det, _, (form,) = _grounded_forms(g, lambda w: (w == u) - (w == v))
    return Fraction(form, det)


def _pairwise_resistance_sums(g: Graph) -> tuple[Fraction, Fraction]:
    """(plain sum, degree-weighted sum) of resistances over all vertex pairs.

    With r_ab = (A_aa + A_bb - 2 A_ab) / det for the grounded adjugate A,
    which is zero on the grounded vertex, the pair sums regroup as
    N·Σ A_aa − 1ᵀA1 and 2|E|·Σ d_a A_aa − dᵀAd.
    """
    kept, det, diag, (ones, degrees) = _grounded_factor(g)
    degs = [g.degree(v) for v in kept]
    plain = g.vertex_count * sum(diag) - ones
    weighted = 2 * g.edge_count * sum(map(mul, degs, diag)) - degrees
    return Fraction(plain, det), Fraction(weighted, det)


def _agree(name: str, pairwise: Fraction, spectral: Fraction) -> Fraction:
    """The index value once its two independent routes agree exactly."""
    if pairwise != spectral:
        raise ArithmeticError(
            f"{name} routes disagree: pairwise {pairwise} vs spectral {spectral}"
        )
    return pairwise


def kirchhoff_from_resistances(g: Graph) -> Fraction:
    """Kirchhoff index as the plain sum of all pairwise resistances."""
    return _pairwise_resistance_sums(g)[0]


@lru_cache(maxsize=1)
def _reciprocal_sums(g: Graph) -> tuple[Fraction, Fraction, tuple[int, int]]:
    """(Σ 1/μ, Σ 1/λ, (c1_x, c1_y)) over the nonzero roots μ of
    det(xI − L) and λ of det(xD − L), D the degrees, kept for the last
    (immutable) graph: |c2/c1| of each pencil's trailing coefficients
    and its c1, from one elimination in band order; (0, 0, (1, 0)) for
    K1.  No pairwise route reads them.  Past the gate each pencil has a
    simple zero root (c0 = 0, c1 != 0), and by the matrix-tree theorem c1
    is (−1)^(N−1)·τ·N for the first and (−1)^(N−1)·τ·2|E| for the second;
    any other tail is a kernel fault."""
    _require_connected(g)
    if g.vertex_count == 1:
        return Fraction(0), Fraction(0), (1, 0)
    order = g.band_order()
    plain, degree = char_poly_tails(laplacian_rows(g, order), [g.degree(v) for v in order])
    for c0, c1, c2 in (plain, degree):
        if c0 != 0 or c1 == 0:
            raise ArithmeticError(f"pencil tail ({c0}, {c1}, {c2}) lacks a simple zero root")
    if plain[1] * 2 * g.edge_count != degree[1] * g.vertex_count:
        raise ArithmeticError(f"pencil tails {plain} and {degree} disagree on the tree count")
    return (abs(Fraction(plain[2], plain[1])), abs(Fraction(degree[2], degree[1])),
            (plain[1], degree[1]))


def kirchhoff_from_spectrum(g: Graph) -> Fraction:
    """Kirchhoff index as |V| times the reciprocal sum of the nonzero
    Laplacian eigenvalues, read from the exact trailing coefficients of
    the characteristic polynomial without computing an eigenvalue."""
    return g.vertex_count * _reciprocal_sums(g)[0]


def _tree_count(g: Graph) -> int:
    """τ, the grounded factor's det, once it equals |c1|/N and |c1|/(2|E|) of
    the pencils, which catches a fault that scales det and the adjugate alike."""
    tau = _grounded_factor(g)[1]
    c1_x, c1_y = _reciprocal_sums(g)[2]
    if abs(c1_x) != g.vertex_count * tau or abs(c1_y) != 2 * g.edge_count * tau:
        raise ArithmeticError(f"tau routes disagree: factor {tau} vs pencils {c1_x}, {c1_y}")
    return tau


def kirchhoff_index(g: Graph) -> Fraction:
    """Kirchhoff index; both routes, and τ's three readings, must agree exactly."""
    _tree_count(g)
    return _agree("kirchhoff", kirchhoff_from_resistances(g), kirchhoff_from_spectrum(g))


def degree_kirchhoff_from_resistances(g: Graph) -> Fraction:
    """Degree-Kirchhoff index as the degree-weighted pairwise resistance sum."""
    return _pairwise_resistance_sums(g)[1]


def degree_kirchhoff_from_spectrum(g: Graph) -> Fraction:
    """Degree-Kirchhoff index as 2|E| times the normalized reciprocal sum,
    read from the pencil det(xD − L) with D the degrees."""
    return 2 * g.edge_count * _reciprocal_sums(g)[1]


def degree_kirchhoff_index(g: Graph) -> Fraction:
    """Degree-Kirchhoff index; both routes, and τ's three readings, must agree exactly."""
    _tree_count(g)
    return _agree(
        "degree-kirchhoff",
        degree_kirchhoff_from_resistances(g),
        degree_kirchhoff_from_spectrum(g),
    )


# ---------------------------------------------------------------------------
# spanning trees


def spanning_tree_count(g: Graph, drop=None) -> int:
    """Number of spanning trees via a reduced-Laplacian determinant.

    By default the determinant is the grounded factor's, which the
    resistance sums share.  The count is independent of which vertex is
    deleted; ``drop`` selects one explicitly and eliminates afresh
    (mainly so tests can confirm the independence).  It reads the factor
    alone, so unlike the resistance indices it does not check τ against the pencils.
    """
    if drop is None:
        count = _grounded_factor(g)[1]
    elif drop not in g.vertices:
        raise ValueError("drop vertex not in graph")
    else:
        count = det_bareiss(_grounded_laplacian(g, drop)[1])
    if count <= 0:
        raise ArithmeticError("matrix-tree determinant must be positive here")
    return count


# ---------------------------------------------------------------------------
# distance-based indices


@lru_cache(maxsize=1)
def _distance_totals(g: Graph) -> dict:
    """v -> (sum of d(v, w), sum of deg(w) * d(v, w)) over a connected graph:
    one BFS per vertex, kept for the last graph so every distance index of
    it shares them."""
    _require_connected(g)
    degs = [g.degree(v) for v in g.vertices]
    totals = {}
    for i, v in enumerate(g.vertices):
        dist = g.hop_distances(i)
        totals[v] = (sum(dist), sum(map(mul, degs, dist)))
    return totals


def wiener_index(g: Graph) -> int:
    """Sum of shortest-path distances over all unordered vertex pairs."""
    return sum(plain for plain, _ in _distance_totals(g).values()) // 2


def gutman_index(g: Graph) -> int:
    """Distances weighted by endpoint degree products, over unordered pairs."""
    return sum(g.degree(v) * weighted for v, (_, weighted) in _distance_totals(g).items()) // 2


def _check_chain(g: ChainGraph) -> None:
    if not isinstance(g, ChainGraph) or g.kind != "crossed":
        raise ValueError("class sums are defined for crossed chains")


def _class_distance_sum(g: ChainGraph, members: list[Vertex], weighted: bool) -> int:
    totals = _distance_totals(g)
    if weighted:
        return sum(g.degree(u) * totals[u][1] for u in members)
    return sum(totals[u][0] for u in members)


def _both_rails(indices) -> list[Vertex]:
    return [Vertex(i, primed) for i in indices for primed in (False, True)]


def _class_sums(g: ChainGraph, weighted: bool) -> list[int]:
    """Distance sums from the left ends, the right ends, then indices 2, 3,
    0 (mod 4) and interior indices 1 (mod 4), both rails each."""
    _check_chain(g)
    m = 4 * g.n + 1
    classes = [[1], [m], range(2, m + 1, 4), range(3, m + 1, 4), range(4, m + 1, 4),
               range(5, m, 4)]
    return [_class_distance_sum(g, _both_rails(c), weighted) for c in classes]


def wiener_class_sums(g: ChainGraph) -> list[int]:
    """Distance sums from five vertex classes to the whole graph.

    Classes (both rails each): the four end vertices; indices 2 (mod 4);
    indices 3 (mod 4); indices 0 (mod 4); interior indices 1 (mod 4).
    Together the classes partition the vertex set, so half the total of
    these sums is the Wiener index.
    """
    left, right, *rest = _class_sums(g, weighted=False)
    return [left + right, *rest]


def gutman_class_sums(g: ChainGraph) -> list[int]:
    """Degree-weighted distance sums from six vertex classes (see above);
    the ends split into the left pair and the right pair."""
    return _class_sums(g, weighted=True)


# ---------------------------------------------------------------------------
# bundles


@dataclass(frozen=True)
class IndexBundle:
    """Every invariant of one graph, exactly."""

    n: int
    kf: Fraction
    kf_star: Fraction
    tau: int
    wiener: int
    gutman: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "kf": str(self.kf),
            "kf_star": str(self.kf_star),
            "tau": str(self.tau),
            "wiener": str(self.wiener),
            "gutman": str(self.gutman),
        }


def index_bundle(g: ChainGraph) -> IndexBundle:
    """The full exact bundle of a chain graph, τ read by ``_tree_count``.
    A g that is not a ``ChainGraph`` raises ValueError before any oracle runs."""
    if not isinstance(g, ChainGraph):
        raise ValueError("the index bundle is defined for chain graphs")
    kf, kf_star, tau = kirchhoff_index(g), degree_kirchhoff_index(g), _tree_count(g)
    return IndexBundle(g.n, kf, kf_star, tau, wiener_index(g), gutman_index(g))
