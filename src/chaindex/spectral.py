"""The spectral shortcut: mirror-block decomposition and its exact identities.

Because swapping the two rails is an automorphism, the (normalized)
Laplacian written in rail-block form [[A, B], [B, A]] splits into a sum
block A+B and a difference block A-B with the same combined spectrum;
``factorization_holds(g)`` certifies the Laplacian split of the chain g
it is handed tile by tile, in the mirror order ``sorted(g.vertices)``,
the tiles being the one proof of the swap, and the normalized split
follows from it and the rail degrees.
For these chains the sum block is symmetric tridiagonal and the
difference block is diagonal, so every spectral quantity reduces to
continuant recurrences on the tridiagonal data.

Only the integer Laplacian blocks are stored.  The normalized blocks are
their degree scalings, ``norm_sum = D^-1/2 · lap_sum · D^-1/2`` and
``norm_diff = D^-1 · lap_diff`` with D the rail degrees, so every
normalized minor is an integer Laplacian minor over a product of
degrees, and the tails of both characteristic polynomials come from one
O(N) integer continuant of the pencil det(x·diag(s) - lap_sum), cut
after x².  ``TriDiagSym.char_poly`` runs the same pencil continuant at
full degree.  No claim reads the rational views ``norm_sum`` and
``norm_diff``; only the benchmark, demo 03 and the tests do.

Each size has one ``MirrorBlocks``, shared while anyone holds it, and each
block memoizes its continuant sweeps, so every function of one size
reads the same minors; a sweep runs in integers, one ``Fraction`` per minor.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, zip_longest
from math import gcd, lcm
from operator import mul
from typing import Iterator, NamedTuple

from .graphs import ChainGraph, check_chain_parameter
from .linalg import Envelope, laplacian_rows

QUARTER_POW = Fraction(1, 25)  # decay ratio of the normalized minor sequences


@dataclass(frozen=True)
class TriDiagSym:
    """A symmetric tridiagonal matrix stored as (diagonal, squared off-diagonal).

    Exact even when the off-diagonal entries themselves are irrational
    square roots of rationals: determinants, minors, and characteristic
    polynomials all depend on the off-diagonals only through the squares.
    Entries are ints or Fractions; an integer block's minors and ``_pencil``
    steps are ints.  Every minor is read from one memoized continuant sweep
    per start row; returned lists are copies, and the memo leaves ``==``
    and ``hash`` alone.  Sweeps run on the integer rows of ``_cleared``, so
    an integer block builds no ``Fraction`` and a rational block one per minor.
    """

    diag: tuple
    offdiag_sq: tuple

    def __post_init__(self) -> None:
        for entry in (*self.diag, *self.offdiag_sq):
            if isinstance(entry, bool) or not isinstance(entry, (int, Fraction)):
                raise ValueError(f"entries must be int or Fraction, got {entry!r}")
        if len(self.offdiag_sq) != max(len(self.diag) - 1, 0):
            raise ValueError("off-diagonal length must be dim - 1")
        if any(s < 0 for s in self.offdiag_sq):
            raise ValueError("squared off-diagonal entries must be >= 0")

    @property
    def dim(self) -> int:
        return len(self.diag)

    def leading_minors(self) -> list[int | Fraction]:
        """Determinants of the leading principal blocks, orders 0..dim."""
        return list(self._sweep(0))

    def trailing_minors(self) -> list[int | Fraction]:
        """Determinants of the trailing principal blocks, orders 0..dim."""
        return self._reversed.leading_minors()

    def interior_det(self, i: int, j: int) -> int | Fraction:
        """Determinant of the block strictly between rows i and j (1 when j = i+1)."""
        if not (1 <= i < j <= self.dim):
            raise ValueError("need 1 <= i < j <= dim")
        return self._sweep(i)[j - i - 1]

    @cached_property
    def _reversed(self) -> "TriDiagSym":
        return TriDiagSym(self.diag[::-1], self.offdiag_sq[::-1])

    @cached_property
    def _sweeps(self) -> dict:
        """Start row i -> ``_sweep(i)``, filled on first use."""
        return {}

    @cached_property
    def _cleared(self) -> tuple:
        """(s_k·a_k, s_k·s_{k+1}·o_k, s_k): row k scaled to ints by s_1 = den(a_1),
        s_k = lcm(den(a_k), den(s_{k-1}·o_{k-1})); scales all 1 are stored as None."""
        scales, s = [], 1
        for a, o in zip(self.diag, (1,) + self.offdiag_sq):
            s = lcm(a.denominator, o.denominator // gcd(s, o.denominator))
            scales.append(s)
        return (
            tuple(s // a.denominator * a.numerator for a, s in zip(self.diag, scales)),
            tuple(s * t // o.denominator * o.numerator
                  for o, s, t in zip(self.offdiag_sq, scales, scales[1:])),
            None if all(s == 1 for s in scales) else scales,
        )

    def _sweep(self, i: int) -> tuple:
        """Leading minors of the block after row i, orders 0..dim-i, by the integer
        continuant of ``_cleared``, minor r then over its rows' scales s_{i+1}⋯s_{i+r}."""
        sweep = self._sweeps.get(i)
        if sweep is None:
            diag, offdiag_sq, scales = self._cleared
            minors, prev, cur = [1], 0, 1
            for a, o in zip(diag[i:], (0,) + offdiag_sq[i:]):
                prev, cur = cur, a * cur - o * prev
                minors.append(cur)
            if scales is not None:
                minors = map(Fraction, minors, accumulate(scales[i:], mul, initial=1))
            sweep = self._sweeps[i] = tuple(minors)
        return sweep

    def char_poly(self) -> list[Fraction]:
        """det(xI - T) as ascending coefficients, by the pencil continuant at full degree."""
        return [Fraction(c) for c in _pencil(self, (1,) * self.dim, self.dim + 1)]


@dataclass(frozen=True)
class MirrorBlocks:
    """Sum and difference blocks of both Laplacian families for one chain:
    the integer Laplacian blocks and the rail degrees D are stored, and the
    normalized blocks are views of them, each built once on first use.
    No claim reads the views; only the benchmark, demo 03 and the tests do.
    A normalized interior minor is ``lap_sum.interior_det(i, j)`` over
    p[j-1] // p[i], p the ``degree_prefix``.  The tiles of
    ``factorization_holds`` prove the blocks and the rail swap."""

    n: int
    degrees: tuple                 # rail degrees d_1..d_m, the D of the views
    lap_sum: TriDiagSym            # integer tridiagonal
    lap_diff: tuple                # integer diagonal

    @cached_property
    def norm_sum(self) -> TriDiagSym:
        d, lap_sum = self.degrees, self.lap_sum
        return TriDiagSym(
            tuple(Fraction(a, dk) for a, dk in zip(lap_sum.diag, d)),
            tuple(Fraction(o, d[k] * d[k + 1]) for k, o in enumerate(lap_sum.offdiag_sq)),
        )

    @cached_property
    def norm_diff(self) -> tuple:
        return tuple(Fraction(a, d) for a, d in zip(self.lap_diff, self.degrees))

    @cached_property
    def degree_prefix(self) -> tuple:
        """p[k] = d_1 ⋯ d_k for k = 0..m."""
        return tuple(accumulate(self.degrees, mul, initial=1))


def rail_degrees(n: int) -> list[int]:
    """Vertex degrees along one rail of the crossed chain, indices 1..4n+1."""
    m = 4 * n + 1
    return [3 if i in (1, m) else 5 if i % 4 in (0, 1) else 4 for i in range(1, m + 1)]


_live_blocks = weakref.WeakValueDictionary()  # n -> MirrorBlocks, while anyone holds it


def mirror_blocks(n: int) -> MirrorBlocks:
    """Build the integer blocks of the crossed chain directly from the rail pattern.

    Rail vertex i has a rung exactly when i = 0, 1 (mod 4); the sum/difference
    of the two Laplacian rail blocks then depends only on degrees and rungs:
    tridiagonal entries double across the rails, rung entries move onto the
    diagonal with opposite signs in the two blocks.  Each size has one
    instance, shared with its memoized sweeps while anyone holds it.
    """
    check_chain_parameter(n)
    blocks = _live_blocks.get(n)
    if blocks is not None:
        return blocks
    m = 4 * n + 1
    degs = tuple(rail_degrees(n))
    rungs = [i % 4 in (0, 1) for i in range(1, m + 1)]

    lap_sum_diag = tuple(d - (1 if r else 0) for d, r in zip(degs, rungs))
    lap_diff = tuple(d + (1 if r else 0) for d, r in zip(degs, rungs))

    blocks = _live_blocks[n] = MirrorBlocks(
        n, degs, TriDiagSym(lap_sum_diag, (4,) * (m - 1)), lap_diff)
    return blocks


def factorization_holds(g: ChainGraph) -> tuple[bool, bool]:
    """Certify that the rail swap splits each Laplacian family of the chain g
    into the mirror blocks ``mirror_blocks(g.n)``.

    Checks the 2×2 tiles of the Laplacian L's rows, built from g's
    adjacency in the mirror order ``sorted(g.vertices)``, that is
    (v_1, v_1', v_2, v_2', ...), against the integer blocks in O(N).
    Reordering the vertices leaves the spectrum alone.  The tiles are the
    proof of the swap: a tile [[a, b], [b, a]] says L(v_i, v_j) = L(v_i', v_j')
    and L(v_i, v_j') = L(v_i', v_j).  Returns (laplacian_ok, normalized_ok),
    both exact; a chain the swap does not preserve, or any chain but the
    crossed one, fails both.  A g that is not a ``ChainGraph`` raises
    ValueError.

    The normalized check needs no matrix of its own.  The diagonal tiles
    already force the primed rail to carry A's diagonal, so L's diagonal,
    the degree matrix, is D = diag(D_r, D_r), and D_r holds ``degrees``
    once the plain rail's degrees are checked.  D commutes with
    P = [[I, I], [I, -I]], so P·D⁻¹L·P⁻¹ = diag(D_r⁻¹(A+B), D_r⁻¹(A-B)),
    and det(xI - D⁻¹L) = det(xD_r - lap_sum)/∏d · ∏(x - lap_diff_k/d_k),
    the form ``sum_block_tails`` and ``recip.norm-diagsum`` read.  D⁻¹L
    is similar to the normalized Laplacian D^-1/2·L·D^-1/2.
    """
    if not isinstance(g, ChainGraph):
        raise ValueError("the certificate is defined for chain graphs")
    blocks = mirror_blocks(g.n)
    order = sorted(g.vertices)
    laplacian_ok = _tiles_split_into(laplacian_rows(g, order), blocks.lap_sum, blocks.lap_diff)
    return (
        laplacian_ok,
        laplacian_ok and blocks.degrees == tuple(g.degree(v) for v in order[::2]),
    )


def _tiles_split_into(rows: Envelope, sum_block: TriDiagSym, diff: tuple) -> bool:
    """Whether M, the ``rows`` in mirror order, is [[A, B], [B, A]] in rail-block
    order with A - B = diag(diff) and A + B tridiagonal, carrying the sum
    block's diagonal and, in each pair of opposite off-diagonal entries, a
    product equal to its ``offdiag_sq``.  Rows 2i, 2i+1 and columns 2j, 2j+1
    meet in the tile [[a, b], [b, a]] with a = A_ij and b = B_ij.  M is
    symmetric, so upper rows 2i, 2i+1 hold all of tiles (i, i) and (i, i+1):
    no row may reach past tile column i+1, and the off tile holds one
    value e four times, with (2e)^2 = offdiag_sq[i].
    The tile form is the rail swap's invariance, so no separate check of
    the swap is needed.  With P = [[I, I], [I, -I]] in rail-block order,
    P M P^-1 = diag(A + B, A - B), and the characteristic polynomial of a
    tridiagonal matrix depends only on its diagonal and those products, so
    True proves det(xI - M) = det(xI - sum_block) * prod(x - d for d in diff).
    """
    m = sum_block.dim
    if len(diff) != m or len(rows) != 2 * m:
        return False
    for i in range(m):
        width = 4 if i + 1 < m else 2  # the columns of tiles i and i+1, if any
        top, bottom = rows.entries[2 * i], rows.entries[2 * i + 1]
        if len(top) > width or len(bottom) >= width:
            return False
        a, b, *off = top + (0,) * (width - len(top))
        a_primed, *off_primed = bottom + (0,) * (width - 1 - len(bottom))
        off += off_primed  # tile (i, i+1)
        if (a_primed != a or a + b != sum_block.diag[i] or a - b != diff[i]
                or off and (off != off[:1] * 4 or (2 * off[0]) ** 2 != sum_block.offdiag_sq[i])):
            return False
    return True


# ---------------------------------------------------------------------------
# minor sequences of the Laplacian sum block


def lap_minor_sequences(n: int) -> tuple[list, list, list]:
    """(leading, trailing, interior) principal minors of the Laplacian sum block.

    Leading/trailing minors are indexed 0..4n; interior minors (all-4
    diagonal) are indexed 0..4n-1.  All values are ints.
    """
    lap_sum = mirror_blocks(n).lap_sum
    leading = lap_sum.leading_minors()[: 4 * n + 1]
    trailing = lap_sum.trailing_minors()[: 4 * n + 1]
    interior = [lap_sum.interior_det(1, j) for j in range(2, 4 * n + 2)]
    return leading, trailing, interior


def _check_index(i: int) -> None:
    if type(i) is not int or i < 0:
        raise ValueError(f"index must be an int >= 0, got {i!r}")


def lap_leading_closed(i: int) -> int:
    _check_index(i)
    return 2**i


def lap_interior_closed(i: int) -> int:
    _check_index(i)
    return (i + 1) * 2**i


# ---------------------------------------------------------------------------
# minor sequences of the normalized sum block


def norm_minor_sequences(n: int) -> tuple[list[Fraction], list[Fraction]]:
    """(leading, trailing) principal minors of the normalized sum block, 0..4n: the
    Laplacian ones over ``degree_prefix`` p, L[k] / p[k] and T[k] / (p[m] / p[m-k])."""
    blocks = mirror_blocks(n)
    p, m = blocks.degree_prefix, 4 * n + 1
    leading, trailing = blocks.lap_sum.leading_minors(), blocks.lap_sum.trailing_minors()
    return ([Fraction(leading[k], p[k]) for k in range(m)],
            [Fraction(trailing[k], p[m] // p[m - k]) for k in range(m)])


def norm_minor_recurrences(n: int) -> tuple[list[Fraction], list[Fraction]]:
    """The same two sequences generated by their four-phase recurrences."""
    check_chain_parameter(n)
    x = [Fraction(1), Fraction(2, 3), Fraction(1, 3), Fraction(1, 6)]
    for k in range(1, n + 1):
        x.append(Fraction(4, 5) * x[4 * k - 1] - Fraction(1, 5) * x[4 * k - 2])
        if k == n:
            break
        x.append(Fraction(4, 5) * x[4 * k] - Fraction(4, 25) * x[4 * k - 1])
        x.append(x[4 * k + 1] - Fraction(1, 5) * x[4 * k])
        x.append(x[4 * k + 2] - Fraction(1, 4) * x[4 * k + 1])

    y = [Fraction(1), Fraction(2, 3), Fraction(4, 15), Fraction(2, 15)]
    for k in range(1, n + 1):
        y.append(y[4 * k - 1] - Fraction(1, 4) * y[4 * k - 2])
        if k == n:
            break
        y.append(Fraction(4, 5) * y[4 * k] - Fraction(1, 5) * y[4 * k - 1])
        y.append(Fraction(4, 5) * y[4 * k + 1] - Fraction(4, 25) * y[4 * k])
        y.append(y[4 * k + 2] - Fraction(1, 5) * y[4 * k + 1])
    return x[: 4 * n + 1], y[: 4 * n + 1]


_NORM_LEADING_PHASE = {
    0: Fraction(5, 3),
    1: Fraction(2, 3),
    2: Fraction(1, 3),
    3: Fraction(1, 6),
}
_NORM_TRAILING_PHASE = {
    0: Fraction(5, 3),
    1: Fraction(2, 3),
    2: Fraction(4, 15),
    3: Fraction(2, 15),
}


def norm_leading_closed(i: int) -> Fraction:
    _check_index(i)
    if i == 0:
        return Fraction(1)
    return _NORM_LEADING_PHASE[i % 4] * QUARTER_POW ** (i // 4)


def norm_trailing_closed(i: int) -> Fraction:
    _check_index(i)
    if i == 0:
        return Fraction(1)
    return _NORM_TRAILING_PHASE[i % 4] * QUARTER_POW ** (i // 4)


# ---------------------------------------------------------------------------
# trailing characteristic-polynomial coefficients and reciprocal eigenvalue sums


class TailCoeffs(NamedTuple):
    """Magnitudes of the degree-1 and degree-2 characteristic coefficients."""

    linear: Fraction
    quadratic: Fraction


def tail_coeffs(poly: list) -> TailCoeffs:
    """Extract (|c1|, |c2|) from an ascending characteristic polynomial."""
    if len(poly) < 3:
        raise ValueError("polynomial degree too small")
    return TailCoeffs(abs(poly[1]), abs(poly[2]))


def _pencil(block: TriDiagSym, scale, terms: int) -> list:
    """det(x·diag(scale) - block) mod x^terms as ascending coefficients.

    The continuant c_k = (s_k x - a_k) c_{k-1} - o_{k-1} c_{k-2}, each c_k
    kept to its first min(k + 1, terms) coefficients: O(N·terms) work, in
    integers for an integer block and scale.  terms = dim + 1 cuts nothing.
    """
    prev, cur = [], [1]
    for a, s, o in zip(block.diag, scale, (0,) + block.offdiag_sq):
        shifted = [0] + cur[:terms - 1]  # x·c_{k-1}, cut after x^(terms-1)
        prev, cur = cur, [s * low - a * c - o * p
                          for low, c, p in zip_longest(shifted, cur, prev, fillvalue=0)]
    return cur + [0] * (terms - len(cur))


def sum_block_tails(n: int) -> tuple[TailCoeffs, TailCoeffs]:
    """(Laplacian, normalized) tails of the two sum blocks' characteristic
    polynomials, both from the integer Laplacian sum block.

    The Laplacian tail reads det(xI - lap_sum); the normalized one reads
    det(xI - norm_sum) = det(xD - lap_sum) / ∏d, one division per
    coefficient.
    """
    blocks = mirror_blocks(n)
    lap_sum, det_d = blocks.lap_sum, blocks.degree_prefix[-1]
    return (
        tail_coeffs([Fraction(c) for c in _pencil(lap_sum, (1,) * lap_sum.dim, 3)]),
        tail_coeffs([Fraction(c, det_d) for c in _pencil(lap_sum, blocks.degrees, 3)]),
    )


def lap_tail_coeffs_closed(n: int) -> TailCoeffs:
    check_chain_parameter(n)
    linear = (4 * n + 1) * 2 ** (4 * n)
    quadratic = Fraction(4 * n * (4 * n + 1) * (4 * n + 2) * 2 ** (4 * n - 2), 3)
    return TailCoeffs(Fraction(linear), quadratic)


def norm_tail_coeffs_closed(n: int) -> TailCoeffs:
    check_chain_parameter(n)
    scale = QUARTER_POW ** (n - 1)
    linear = Fraction(18 * n + 1, 45) * scale
    quadratic = Fraction(2 * n * (54 * n**2 + 9 * n + 4), 45) * scale
    return TailCoeffs(linear, quadratic)


def lap_eigen_recip_sum(n: int) -> Fraction:
    """Sum of reciprocals of the nonzero sum-block Laplacian eigenvalues."""
    check_chain_parameter(n)
    return Fraction(n * (4 * n + 2), 3)


def lap_diag_recip_sum(n: int) -> Fraction:
    """Sum of reciprocals of the Laplacian difference-block diagonal."""
    check_chain_parameter(n)
    return Fraction(5 * n + 2, 6)


def norm_eigen_recip_sum(n: int) -> Fraction:
    check_chain_parameter(n)
    return Fraction(2 * n * (54 * n**2 + 9 * n + 4), 18 * n + 1)


def norm_diag_recip_sum(n: int) -> Fraction:
    check_chain_parameter(n)
    return Fraction(11 * n + 2, 3)


# ---------------------------------------------------------------------------
# interior minors of the normalized sum block: the 16-case closed table


_INTERIOR_DET_FORM = {
    # (i mod 4, j mod 4) -> (coefficient, alpha, beta, power shift); with
    # d = j//4 - i//4 the minor is coefficient * (alpha*d + beta) * (1/25)^(d + shift).
    (0, 0): (Fraction(2, 5), 1, 0, -1),
    (0, 1): (Fraction(1), 4, 1, 0),
    (0, 2): (Fraction(2, 5), 4, 2, 0),
    (0, 3): (Fraction(1, 5), 4, 3, 0),
    (1, 0): (Fraction(1, 4), 4, -1, -1),
    (1, 1): (Fraction(2, 5), 1, 0, -1),
    (1, 2): (Fraction(1), 4, 1, 0),
    (1, 3): (Fraction(1), 2, 1, 0),
    (2, 0): (Fraction(1), 2, -1, -1),
    (2, 1): (Fraction(1, 5), 4, -1, -1),
    (2, 2): (Fraction(2, 25), 4, 0, -1),
    (2, 3): (Fraction(1), 4, 1, 0),
    (3, 0): (Fraction(1), 4, -3, -1),
    (3, 1): (Fraction(2, 5), 4, -2, -1),
    (3, 2): (Fraction(4, 25), 4, -1, -1),
    (3, 3): (Fraction(2, 25), 4, 0, -1),
}


def interior_det_parts(i: int, j: int) -> tuple[int, int]:
    """``interior_det_closed(i, j)`` as integers (num, den) with den > 0, not reduced."""
    if type(i) is not int or type(j) is not int or not 1 <= i < j:
        raise ValueError(f"need ints 1 <= i < j, got ({i!r}, {j!r})")
    d = j // 4 - i // 4
    coefficient, alpha, beta, shift = _INTERIOR_DET_FORM[(i % 4, j % 4)]
    num, den, e = coefficient.numerator * (alpha * d + beta), coefficient.denominator, d + shift
    base = QUARTER_POW.denominator  # QUARTER_POW = 1/base
    return (num * base**-e, den) if e < 0 else (num, den * base**e)


def interior_det_closed(i: int, j: int) -> Fraction:
    """Closed form of the interior minor, dispatched on (i mod 4, j mod 4).

    Every admissible pair 1 <= i < j falls into exactly one of 16 cases;
    for adjacent pairs (j = i+1) each case formula already evaluates to 1.
    """
    return Fraction(*interior_det_parts(i, j))


def _check_residue_class(p: int, q: int) -> None:
    if type(p) is not int or type(q) is not int or not (0 <= p < 4 and 0 <= q < 4):
        raise ValueError(f"residue classes must lie in 0..3, got ({p!r}, {q!r})")


def class_pairs(n: int, p: int, q: int) -> Iterator[tuple[int, int]]:
    """All pairs 1 <= i < j <= 4n+1 with i = p and j = q (mod 4)."""
    check_chain_parameter(n)
    _check_residue_class(p, q)
    m = 4 * n + 1
    return (
        (i, j)
        for i in range(1 + (p - 1) % 4, m + 1, 4)  # the least i >= 1 in class p, then every 4th
        for j in range(i + 1 + (q - i - 1) % 4, m + 1, 4)
    )


def deleted_pair_class_sum(n: int, p: int, q: int) -> Fraction:
    """Sum of two-deleted principal minors of the normalized sum block, one
    residue class at a time, computed from integer Laplacian minors.

    Deleting rows/columns i and j of a tridiagonal matrix splits it into a
    leading block, an interior block, and a trailing block, so the minor is
    the exact triple product L[i-1] * I(i, j) * T[m-j].  Since
    norm_sum = D^-1/2 · lap_sum · D^-1/2, each normalized factor is the
    Laplacian one over the degrees of its rows, so the normalized minor is
    d_i d_j / ∏d times the Laplacian triple product: the class sum is one
    integer sum and one division.  Interior minors obey
    I(i, j+1) = a_j I(i, j) - o_{j-1} I(i, j-1) from I(i, i) = 0,
    I(i, i+1) = 1, so W_j, the sum of d_i L[i-1] I(i, j) over i < j in
    class p, obeys the same recurrence plus d_j L[j-1] when j is in class p:
    one sweep over j.
    """
    _check_residue_class(p, q)
    blocks = mirror_blocks(n)
    lap_sum, degrees = blocks.lap_sum, blocks.degrees
    leading = lap_sum.leading_minors()
    trailing = lap_sum.trailing_minors()
    diag, off_sq = lap_sum.diag, (0,) + lap_sum.offdiag_sq  # a_j, o_{j-1} at index j-1
    m = lap_sum.dim
    total = w_prev = w = 0  # W_{j-1} and W_j
    for j in range(1, m + 1):
        d = degrees[j - 1]
        if j % 4 == q:
            total += d * w * trailing[m - j]
        carry = d * leading[j - 1] if j % 4 == p else 0
        w_prev, w = w, diag[j - 1] * w - off_sq[j - 1] * w_prev + carry
    return Fraction(total, blocks.degree_prefix[-1])


_PAIR_SUM_POLY = {
    # (p, q) -> (cubic, quadratic, linear, denominator); value is the
    # polynomial over the denominator, times (1/25)^(n-1).
    (0, 0): (20, 0, -20, 108),
    (0, 1): (20, -9, 7, 108),
    (0, 2): (4, -6, 2, 27),
    (0, 3): (4, -3, -1, 27),
    (1, 0): (20, 21, 13, 108),
    (1, 1): (25, 15, 14, 135),
    (1, 2): (20, -9, 7, 135),
    (1, 3): (20, 6, 10, 135),
    (2, 0): (4, 6, 2, 27),
    (2, 1): (20, 21, 13, 135),
    (2, 2): (16, 0, -16, 135),
    (2, 3): (16, 12, -4, 135),
    (3, 0): (4, 3, -1, 27),
    (3, 1): (20, 6, 10, 135),
    (3, 2): (16, -12, -4, 135),
    (3, 3): (16, 0, -16, 135),
}


def deleted_pair_class_sum_closed(n: int, p: int, q: int) -> Fraction:
    """Closed form of the same residue-class sum."""
    check_chain_parameter(n)
    _check_residue_class(p, q)
    c3, c2, c1, den = _PAIR_SUM_POLY[(p, q)]
    value = Fraction(c3 * n**3 + c2 * n**2 + c1 * n, den)
    return value * QUARTER_POW ** (n - 1)
