"""Exact invariants of linear octagonal-quadrilateral chain networks.

The package has three layers:

* brute-force oracles that compute every invariant straight from its
  definition in exact arithmetic (``chaindex.oracles``),
* the spectral shortcut: mirror-block decomposition, minor sequences,
  and trailing-coefficient identities (``chaindex.spectral``),
* the published closed forms as plain functions of n
  (``chaindex.formulas``),

plus a claim-by-claim verifier (``chaindex.verify``) and a small CLI
(``chaindex.cli``) that compares the layers and reports exact matches
or discrepancies.
"""

from .graphs import (
    ChainGraph,
    Graph,
    Vertex,
    build_crossed_chain,
    build_plain_chain,
    edge_list_text,
    rung_indices,
)

__all__ = [
    "ChainGraph",
    "Graph",
    "Vertex",
    "build_crossed_chain",
    "build_plain_chain",
    "edge_list_text",
    "rung_indices",
]

__version__ = "0.1.0"
