"""The spectral shortcut: mirror-block decomposition and its exact identities.

Because swapping the two rails is an automorphism, the (normalized)
Laplacian written in rail-block form [[A, B], [B, A]] splits into a sum
block A+B and a difference block A-B with the same combined spectrum;
``factorization_holds`` certifies that split entry by entry.
For these chains the sum block is symmetric tridiagonal and the
difference block is diagonal, so every spectral quantity reduces to
continuant recurrences on the tridiagonal data.

The sum block of the normalized family has irrational off-diagonal
entries, but a tridiagonal determinant depends on the off-diagonals only
through their squares; storing the squares keeps everything rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .graphs import build_crossed_chain, check_chain_parameter, mirror_partition
from .linalg import laplacian, random_walk_laplacian

QUARTER_POW = Fraction(1, 25)  # decay ratio of the normalized minor sequences


@dataclass(frozen=True)
class TriDiagSym:
    """A symmetric tridiagonal matrix stored as (diagonal, squared off-diagonal).

    Exact even when the off-diagonal entries themselves are irrational
    square roots of rationals: determinants, minors, and characteristic
    polynomials all depend on the off-diagonals only through the squares.
    """

    diag: tuple
    offdiag_sq: tuple

    def __post_init__(self) -> None:
        if len(self.offdiag_sq) != max(len(self.diag) - 1, 0):
            raise ValueError("off-diagonal length must be dim - 1")
        if any(s < 0 for s in self.offdiag_sq):
            raise ValueError("squared off-diagonal entries must be >= 0")

    @property
    def dim(self) -> int:
        return len(self.diag)

    def determinant(self) -> Fraction:
        det_prev, det = Fraction(1), Fraction(1)
        for k, d in enumerate(self.diag):
            det_prev, det = det, d * det - (self.offdiag_sq[k - 1] * det_prev if k else 0)
        return det

    def leading_minors(self) -> list[Fraction]:
        """Determinants of the leading principal blocks, orders 0..dim."""
        minors = [Fraction(1)]
        for k, d in enumerate(self.diag):
            minors.append(
                d * minors[-1] - (self.offdiag_sq[k - 1] * minors[-2] if k else 0)
            )
        return minors

    def trailing_minors(self) -> list[Fraction]:
        """Determinants of the trailing principal blocks, orders 0..dim."""
        return self.reversed().leading_minors()

    def reversed(self) -> "TriDiagSym":
        return TriDiagSym(tuple(reversed(self.diag)), tuple(reversed(self.offdiag_sq)))

    def block(self, start: int, stop: int) -> "TriDiagSym":
        """Principal block on rows/columns start..stop (1-based, inclusive)."""
        if not (1 <= start and stop <= self.dim):
            raise ValueError("block indices out of range")
        return TriDiagSym(
            self.diag[start - 1 : stop],
            self.offdiag_sq[start - 1 : stop - 1],
        )

    def interior_det(self, i: int, j: int) -> Fraction:
        """Determinant of the block strictly between rows i and j (1 when j = i+1)."""
        if not (1 <= i < j <= self.dim):
            raise ValueError("need 1 <= i < j <= dim")
        if j == i + 1:
            return Fraction(1)
        return self.block(i + 1, j - 1).determinant()

    def char_poly(self) -> list[Fraction]:
        """det(xI - T) as ascending coefficients, via the polynomial continuant."""
        prev = [Fraction(1)]
        cur = [Fraction(1)]
        for k, d in enumerate(self.diag):
            # nxt = (x - d)*cur - s_{k-1}*prev
            nxt = [Fraction(0)] + cur
            for idx, c in enumerate(cur):
                nxt[idx] -= d * c
            if k:
                s = self.offdiag_sq[k - 1]
                for idx, c in enumerate(prev):
                    nxt[idx] -= s * c
            prev, cur = cur, nxt
        return cur


@dataclass(frozen=True)
class MirrorBlocks:
    """Sum and difference blocks of both Laplacian families for one chain."""

    n: int
    lap_sum: TriDiagSym            # integer tridiagonal
    lap_diff: tuple                # integer diagonal
    norm_sum: TriDiagSym           # rational diag, rational squared off-diag
    norm_diff: tuple               # rational diagonal


def rail_degrees(n: int) -> list[int]:
    """Vertex degrees along one rail of the crossed chain, indices 1..4n+1."""
    degs = []
    for i in range(1, 4 * n + 2):
        if i in (1, 4 * n + 1):
            degs.append(3)
        elif i % 4 in (0, 1):
            degs.append(5)
        else:
            degs.append(4)
    return degs


def mirror_blocks(n: int) -> MirrorBlocks:
    """Build all four blocks of the crossed chain directly from the rail pattern.

    Rail vertex i has a rung exactly when i = 0, 1 (mod 4); the sum/difference
    of the two Laplacian rail blocks then depends only on degrees and rungs:
    tridiagonal entries double across the rails, rung entries move onto the
    diagonal with opposite signs in the two blocks.
    """
    check_chain_parameter(n)
    m = 4 * n + 1
    degs = rail_degrees(n)
    rungs = [i % 4 in (0, 1) for i in range(1, m + 1)]

    lap_sum_diag = tuple(d - (1 if r else 0) for d, r in zip(degs, rungs))
    lap_sum_off = tuple(Fraction(4) for _ in range(m - 1))
    lap_diff = tuple(d + (1 if r else 0) for d, r in zip(degs, rungs))

    norm_sum_diag = tuple(
        Fraction(d - 1, d) if r else Fraction(1) for d, r in zip(degs, rungs)
    )
    norm_sum_off = tuple(
        Fraction(4, degs[k] * degs[k + 1]) for k in range(m - 1)
    )
    norm_diff = tuple(
        Fraction(d + 1, d) if r else Fraction(1) for d, r in zip(degs, rungs)
    )

    return MirrorBlocks(
        n=n,
        lap_sum=TriDiagSym(tuple(map(Fraction, lap_sum_diag)), lap_sum_off),
        lap_diff=lap_diff,
        norm_sum=TriDiagSym(norm_sum_diag, norm_sum_off),
        norm_diff=norm_diff,
    )


def factorization_holds(n: int) -> tuple[bool, bool]:
    """Certify that each Laplacian family splits into its mirror blocks.

    Builds the Laplacian and the random-walk Laplacian from the crossed
    chain's edges, rows in rail-block order (plain rail, then primed rail),
    and checks each against ``mirror_blocks(n)`` entry by entry.  Returns
    (laplacian_ok, normalized_ok); both checks are exact.
    """
    g = build_crossed_chain(n)
    plain_rail, primed_rail = mirror_partition(g)
    order = plain_rail + primed_rail
    blocks = mirror_blocks(n)
    return (
        _splits_into(laplacian(g, order), blocks.lap_sum, blocks.lap_diff),
        _splits_into(random_walk_laplacian(g, order), blocks.norm_sum, blocks.norm_diff),
    )


def _splits_into(matrix: list, sum_block: TriDiagSym, diff: tuple) -> bool:
    """Whether M = [[A, B], [B, A]] with A - B = diag(diff) and A + B tridiagonal,
    carrying the sum block's diagonal and, in each pair of opposite
    off-diagonal entries, a product equal to its ``offdiag_sq``.

    With P = [[I, I], [I, -I]], P M P^-1 = diag(A + B, A - B), and the
    characteristic polynomial of a tridiagonal matrix depends only on its
    diagonal and those products, so True proves
    det(xI - M) = det(xI - sum_block) * prod(x - d for d in diff).
    """
    m = sum_block.dim
    if len(diff) != m or len(matrix) != 2 * m:
        return False
    for i in range(m):
        a, b = matrix[i][:m], matrix[i][m:]
        if matrix[m + i] != b + a:
            return False
        if a[i] + b[i] != sum_block.diag[i] or a[i] - b[i] != diff[i]:
            return False
        for j in range(m):
            if abs(i - j) > 1:
                if a[j] or b[j]:
                    return False
            elif i != j and a[j] != b[j]:
                return False
    return all(
        (matrix[k][k + 1] + matrix[k][m + k + 1]) * (matrix[k + 1][k] + matrix[k + 1][m + k])
        == sum_block.offdiag_sq[k]
        for k in range(m - 1)
    )


# ---------------------------------------------------------------------------
# minor sequences of the Laplacian sum block


def lap_minor_sequences(n: int) -> tuple[list, list, list]:
    """(leading, trailing, interior) principal minors of the Laplacian sum block.

    Leading/trailing minors are indexed 0..4n; interior minors (all-4
    diagonal) are indexed 0..4n-1.  All values are exact integers.
    """
    blocks = mirror_blocks(n)
    leading = [int(v) for v in blocks.lap_sum.leading_minors()[: 4 * n + 1]]
    trailing = [int(v) for v in blocks.lap_sum.trailing_minors()[: 4 * n + 1]]
    interior = [int(v) for v in blocks.lap_sum.block(2, 4 * n).leading_minors()[: 4 * n]]
    return leading, trailing, interior


def lap_leading_closed(i: int) -> int:
    return 2**i


def lap_interior_closed(i: int) -> int:
    return (i + 1) * 2**i


# ---------------------------------------------------------------------------
# minor sequences of the normalized sum block


def norm_minor_sequences(n: int) -> tuple[list[Fraction], list[Fraction]]:
    """(leading, trailing) principal minors of the normalized sum block, 0..4n."""
    blocks = mirror_blocks(n)
    leading = blocks.norm_sum.leading_minors()[: 4 * n + 1]
    trailing = blocks.norm_sum.trailing_minors()[: 4 * n + 1]
    return leading, trailing


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
    if i == 0:
        return Fraction(1)
    return _NORM_LEADING_PHASE[i % 4] * QUARTER_POW ** (i // 4)


def norm_trailing_closed(i: int) -> Fraction:
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


def interior_det(n: int, i: int, j: int) -> Fraction:
    """Exact determinant of the normalized sum-block interior minor (i, j)."""
    return mirror_blocks(n).norm_sum.interior_det(i, j)


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


def interior_det_closed(i: int, j: int) -> Fraction:
    """Closed form of the interior minor, dispatched on (i mod 4, j mod 4).

    Every admissible pair 1 <= i < j falls into exactly one of 16 cases;
    for adjacent pairs (j = i+1) each case formula already evaluates to 1.
    """
    if not (1 <= i < j):
        raise ValueError("need 1 <= i < j")
    d = j // 4 - i // 4
    coefficient, alpha, beta, shift = _INTERIOR_DET_FORM[(i % 4, j % 4)]
    return coefficient * (alpha * d + beta) * QUARTER_POW ** (d + shift)


def _check_residue_class(p: int, q: int) -> None:
    if p not in range(4) or q not in range(4):
        raise ValueError(f"residue classes must lie in 0..3, got ({p!r}, {q!r})")


def class_pairs(n: int, p: int, q: int) -> Iterator[tuple[int, int]]:
    """All pairs 1 <= i < j <= 4n+1 with i = p and j = q (mod 4)."""
    _check_residue_class(p, q)
    m = 4 * n + 1
    return (
        (i, j)
        for i in range(1, m + 1) if i % 4 == p
        for j in range(i + 1, m + 1) if j % 4 == q
    )


def deleted_pair_class_sum(n: int, p: int, q: int) -> Fraction:
    """Sum of two-deleted principal minors of the normalized sum block, one
    residue class at a time, computed from continuant minors only.

    Deleting rows/columns i and j of a tridiagonal matrix splits it into a
    leading block, an interior block, and a trailing block, so the minor is
    an exact triple product.  The interior minors (i, j) for every j come
    from one continuant sweep over the block after row i.
    """
    norm_sum = mirror_blocks(n).norm_sum
    leading = norm_sum.leading_minors()
    trailing = norm_sum.trailing_minors()
    m = 4 * n + 1
    total = Fraction(0)
    row, interior = None, []
    for i, j in class_pairs(n, p, q):
        if i != row:
            row, interior = i, norm_sum.block(i + 1, m).leading_minors()
        total += leading[i - 1] * trailing[m - j] * interior[j - i - 1]
    return total


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
