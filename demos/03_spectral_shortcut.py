"""The spectral shortcut, step by step.

The rail-swap automorphism splits each Laplacian into a tridiagonal sum
block and a diagonal difference block.  Tridiagonal determinants follow
three-term recurrences, whose solutions are simple closed forms; the two
lowest characteristic coefficients then give reciprocal eigenvalue sums
without ever computing an eigenvalue.
"""

from fractions import Fraction

from chaindex import build_crossed_chain, spectral

n = 2
blocks = spectral.mirror_blocks(n)

print(f"sum block of the Laplacian (n={n}): tridiagonal,")
print("   diagonal    :", list(blocks.lap_sum.diag))
print("   off-diag^2  :", list(blocks.lap_sum.offdiag_sq))
print("difference block (diagonal):", list(blocks.lap_diff))

print("\nnormalized sum block: a view D^-1/2 (Laplacian sum block) D^-1/2,")
print("D = rail degrees", list(blocks.degrees), "(off-diagonal entries are")
print("irrational, so only their squares appear; every minor stays rational):")
print("   diagonal    :", [str(d) for d in blocks.norm_sum.diag])
print("   off-diag^2  :", [str(s) for s in blocks.norm_sum.offdiag_sq])

lap_ok, norm_ok = spectral.factorization_holds(build_crossed_chain(n))
print(f"\nblock factorization of the characteristic polynomials: "
      f"laplacian={lap_ok}, normalized={norm_ok}")

leading, trailing, interior = spectral.lap_minor_sequences(n)
print("\nleading minors of the integer sum block :", leading)
print("   closed form 2^i                       :",
      [spectral.lap_leading_closed(i) for i in range(4 * n + 1)])

x, y = spectral.norm_minor_sequences(n)
print("\nleading minors of the normalized block  :", [str(v) for v in x])
print("   (decay by 1/25 every four steps, in four phases)")

# det(xI - normalized block) = det(xD - Laplacian sum block) / prod(D):
# one integer continuant truncated after x^2 gives the two lowest coefficients
tail = spectral.sum_block_tails(n)[1]
print("\ntrailing coefficients of the normalized block:",
      f"linear={tail.linear}, quadratic={tail.quadratic}")
print("reciprocal eigenvalue sum  = quadratic/linear =",
      tail.quadratic / tail.linear,
      "== closed form", spectral.norm_eigen_recip_sum(n))

print("\ninterior minors z(i,j) fall into 16 residue cases. Each is an integer")
print("Laplacian minor over the degrees strictly between rows i and j, and")
print("equals the Fraction continuant of the normalized view. e.g.")
p = blocks.degree_prefix  # p[k] = d_1 ... d_k
for i, j in [(4, 8), (1, 7), (2, 9)]:
    minor, between = blocks.lap_sum.interior_det(i, j), p[j - 1] // p[i]
    print(f"   z({i},{j}) = {minor}/{between} = {Fraction(minor, between)}"
          f"   view = {blocks.norm_sum.interior_det(i, j)}"
          f"   closed = {spectral.interior_det_closed(i, j)}")

total = sum(
    spectral.deleted_pair_class_sum(n, p, q) for p in range(4) for q in range(4)
)
print("\nsum of all 16 deleted-pair class sums:", total,
      "== quadratic coefficient:", total == tail.quadratic)
