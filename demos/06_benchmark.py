"""Closed forms against brute force: the payoff of the spectral analysis.

Each closed form is a cubic (or a power product) in n and evaluates in
microseconds at any size.  The oracles eliminate banded integer
matrices and run a breadth-first search from every vertex, so they
scale like n^2 — fine at desk scale, hopeless beyond it.
"""

from chaindex import bench

sizes = [1, 5, 10, 20]
rows = bench.run_bench(sizes, oracle_limit=24)

print(f"{'n':>5} {'closed form':>14} {'oracle':>12} {'speedup':>10}  exact match")
for row in rows:
    speedup = row.oracle_seconds / row.closed_seconds
    print(f"{row.n:>5} {row.closed_seconds * 1e6:>11.1f} us "
          f"{row.oracle_seconds:>10.3f} s {speedup:>9.0f}x  {row.exact_match}")

big = bench.run_bench([1000], oracle_limit=0)[0]
print(f"\nclosed forms at n=1000: {big.closed_seconds * 1e6:.1f} us "
      f"(the oracle would need exact eliminations on 8002 vertices)")
print("kf(Q_1000) =", big.closed["kf"])
