"""Build the two chain families and look at their structure.

The crossed chain lives on two mirrored rails of 4n+1 vertices.  Both
rails carry a path, rungs join the rails at indices 0, 1 (mod 4), and
the crossed variant adds both diagonals of every ladder square.
"""

from chaindex import (
    Vertex,
    build_crossed_chain,
    build_plain_chain,
    edge_list_text,
    rung_indices,
)

n = 2
crossed = build_crossed_chain(n)
plain = build_plain_chain(n)

print(f"crossed chain, n={n}: {crossed.vertex_count} vertices, "
      f"{crossed.edge_count} edges   (expected 8n+2={8*n+2}, 18n+1={18*n+1})")
print(f"plain   chain, n={n}: {plain.vertex_count} vertices, "
      f"{plain.edge_count} edges   (expected 10n+1={10*n+1})")

print("\nrung positions:", rung_indices(n))
print("degrees along one rail:", [crossed.degree(Vertex(i)) for i in range(1, 4 * n + 2)])
print("(3 at the ends, 5 wherever a rung lands, 4 elsewhere)")

print("\nplain rail :", " ".join(str(v) for v in crossed.vertices if not v.primed))
print("primed rail:", " ".join(str(v) for v in crossed.vertices if v.primed))
print("swapping the rails maps the edge set onto itself, so every")
print("spectral object splits into a sum block and a difference block.")

removed = crossed.edges - plain.edges
print(f"\ncrossed minus plain = {len(removed)} diagonal edges (expected 8n={8*n})")

print("\nedge-list export (first lines):")
for line in edge_list_text(crossed).splitlines()[:6]:
    print("   ", line)
