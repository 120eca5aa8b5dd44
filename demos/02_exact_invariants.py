"""Compute every invariant exactly, straight from the definitions.

All arithmetic is rational or integer: resistances and the spanning-tree
count come from one fraction-free symmetric factor of the grounded
Laplacian (its determinant, and the adjugate's diagonal and quadratic
forms read inside the band), and the distance indices from breadth-first
search.  Nothing is rounded.
"""

from chaindex import Vertex, build_crossed_chain, build_plain_chain
from chaindex import oracles

g = build_crossed_chain(2)

print("single resistances in the crossed chain, n=2:")
for u, v in [(Vertex(1), Vertex(1, True)), (Vertex(1), Vertex(9)), (Vertex(3), Vertex(7, True))]:
    print(f"   r({u}, {v}) = {oracles.resistance(g, u, v)}")

print("\nfull bundle for the crossed chain, n=2:")
bundle = oracles.index_bundle(g)
for key, value in bundle.to_json_dict().items():
    print(f"   {key:8s} = {value}")

print("\nthe Kirchhoff index is computed twice inside the oracle:")
print("   pairwise resistance sum :", oracles.kirchhoff_from_resistances(g))
print("   coefficient-ratio route :", oracles.kirchhoff_from_spectrum(g))
print("   (the two exact routes must agree, and do)")

print("\nthe plain chain has no published closed forms, but the same")
print("oracles run on it exactly:")
plain_bundle = oracles.index_bundle(build_plain_chain(2))
for key, value in plain_bundle.to_json_dict().items():
    print(f"   {key:8s} = {value}")
