"""The benchmark's three workloads and their correctness gates.

Each workload has ``prepare`` (input generation, part of set-up),
``warm_up`` (a small run of the same code, part of set-up) and
``run_pass`` (the timed pass).  A pass is a list of operations; an
operation fails when it raises or when its gate rejects the output, and a
failed operation never stops the ones after it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
VERIFY_REFERENCE = HERE / "reference" / "verify-1-10.json"
GENERIC_REFERENCE = HERE / "reference" / "generic-graphs.json"

MODULES = ("graphs", "linalg", "spectral", "oracles", "formulas", "verify", "cli")


def fresh_import() -> SimpleNamespace:
    """Import chaindex anew, as a new process would.

    Module state left by an earlier pass (a cache, a patched name) is
    dropped, so every pass pays what one ``chaindex`` invocation pays.
    """
    for name in [n for n in sys.modules if n == "chaindex" or n.startswith("chaindex.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"chaindex.{name}") for name in MODULES}
    )


def loaded_modules() -> list:
    """Every loaded chaindex module, for patching names imported elsewhere."""
    return [m for n, m in sys.modules.items() if n == "chaindex" or n.startswith("chaindex.")]


@dataclass
class Outcome:
    """One pass's operations: how many failed, why, and what each took.

    ``seconds`` maps an operation's label to its (wall, CPU) seconds; the
    labels of a workload are the same in every pass.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    seconds: dict = field(default_factory=dict)

    def run(self, label: str, op) -> None:
        """Run and time one operation; ``op`` returns None on success or a reason."""
        self.attempted += 1
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            reason = op()
        except Exception as exc:  # any raise is a failed operation, not a crash
            reason = f"{type(exc).__name__}: {exc}"
        self.seconds[label] = (time.perf_counter() - wall, time.process_time() - cpu)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{label}: {reason}")


# ---------------------------------------------------------------------------
# verify-range: the user-facing claim matrix


class VerifyRange:
    """``chaindex verify --from 1 --to 10`` through ``cli.main``, checked
    byte for byte against the committed output of the seed code."""

    name = "verify-range"

    def __init__(self, out_dir: Path, start: int = 1, stop: int = 10,
                 reference: Path = VERIFY_REFERENCE) -> None:
        self.out_path = out_dir / "verify.json"
        self.start, self.stop = start, stop
        self.reference_path = reference
        self.expected = b""

    def prepare(self, mods, seed: int) -> None:
        self.expected = self.reference_path.read_bytes()

    def warm_up(self, mods) -> None:
        code = mods.cli.main(["verify", "--from", "1", "--to", "1", "--out", str(self.out_path)])
        if code != 0:
            raise RuntimeError(f"warm-up verify exited with {code}")

    def run_pass(self, mods) -> Outcome:
        outcome = Outcome()
        argv = ["verify", "--from", str(self.start), "--to", str(self.stop),
                "--out", str(self.out_path)]

        def verify_command():
            self.out_path.unlink(missing_ok=True)
            code = mods.cli.main(argv)
            if code != 0:
                return f"exit code {code}"
            produced = self.out_path.read_bytes()
            if produced != self.expected:
                return (f"output ({len(produced)} bytes) differs from "
                        f"{self.reference_path.name} ({len(self.expected)} bytes)")
            return None

        outcome.run("verify", verify_command)
        return outcome


# ---------------------------------------------------------------------------
# spectral-large: the spectral claim families at large n


class SpectralLarge:
    """The spectral claim families, called the way ``verify_one`` calls them,
    each value checked exactly against its closed form or recurrence."""

    name = "spectral-large"

    def __init__(self, sizes=(16, 24, 32)) -> None:
        self.sizes = tuple(sizes)

    def prepare(self, mods, seed: int) -> None:
        pass

    def warm_up(self, mods) -> None:
        outcome = Outcome()
        self._check_size(mods.spectral, 2, outcome)
        if outcome.failed:
            raise RuntimeError(f"warm-up failed: {outcome.reasons}")

    def run_pass(self, mods) -> Outcome:
        outcome = Outcome()
        for n in self.sizes:
            self._check_size(mods.spectral, n, outcome)
        return outcome

    @staticmethod
    def _check_size(sp, n: int, outcome: Outcome) -> None:
        state = {}

        def blocks():
            state["blocks"] = b = sp.mirror_blocks(n)
            if b.lap_sum.dim != 4 * n + 1 or len(b.norm_diff) != 4 * n + 1:
                return f"block dimension is not {4 * n + 1}"
            return None

        def lap_sequences():
            leading, trailing, interior = sp.lap_minor_sequences(n)
            bad = [i for i, v in enumerate(leading) if v != sp.lap_leading_closed(i)]
            bad += [i for i, v in enumerate(trailing) if v != leading[i]]
            bad += [i for i, v in enumerate(interior) if v != sp.lap_interior_closed(i)]
            return f"indices {bad[:5]} differ" if bad else None

        def norm_sequences():
            x_cont, y_cont = sp.norm_minor_sequences(n)
            x_rec, y_rec = sp.norm_minor_recurrences(n)
            bad = [i for i, (c, r) in enumerate(zip(x_cont, x_rec))
                   if not c == r == sp.norm_leading_closed(i)]
            bad += [i for i, (c, r) in enumerate(zip(y_cont, y_rec))
                    if not c == r == sp.norm_trailing_closed(i)]
            if len(x_cont) != 4 * n + 1 or len(x_rec) != 4 * n + 1:
                return "sequence length is not 4n+1"
            return f"indices {bad[:5]} differ" if bad else None

        def tail(block_name, closed):
            def op():
                coeffs = sp.tail_coeffs(getattr(state["blocks"], block_name).char_poly())
                expected = closed(n)
                return None if coeffs == expected else f"{coeffs} != {expected}"
            return op

        def interior(p, q):
            def op():
                norm_sum = state["blocks"].norm_sum
                pairs = list(sp.class_pairs(n, p, q))
                computed = [norm_sum.interior_det(i, j) for i, j in pairs]
                bad = [pair for pair, value in zip(pairs, computed)
                       if value != sp.interior_det_closed(*pair)]
                return f"pairs {bad[:3]} differ" if bad else None
            return op

        def pair_sum(p, q):
            def op():
                computed = sp.deleted_pair_class_sum(n, p, q)
                expected = sp.deleted_pair_class_sum_closed(n, p, q)
                return None if computed == expected else f"{computed} != {expected}"
            return op

        outcome.run(f"n={n} mirror_blocks", blocks)
        outcome.run(f"n={n} seq.lap", lap_sequences)
        outcome.run(f"n={n} seq.norm", norm_sequences)
        outcome.run(f"n={n} tail.lap", tail("lap_sum", sp.lap_tail_coeffs_closed))
        outcome.run(f"n={n} tail.norm", tail("norm_sum", sp.norm_tail_coeffs_closed))
        classes = [(p, q) for p in range(4) for q in range(4)]
        for p, q in classes:
            outcome.run(f"n={n} interior-minor.p{p}q{q}", interior(p, q))
        for p, q in classes:
            outcome.run(f"n={n} pair-sum.p{p}q{q}", pair_sum(p, q))


# ---------------------------------------------------------------------------
# generic-graphs: the oracles on seeded random graphs, no chain code

# (vertices, edges) of each generated graph.  Sizes span 24-56 vertices
# and average degrees 3-8, so the dense kernels see unbanded matrices of
# both sparse and dense fill.  The seed picks the edges and the labels;
# the fixed sizes keep one pass's cost nearly the same for every seed.
SCHEDULE = ((24, 96), (28, 42), (32, 80), (36, 54), (40, 100), (44, 66), (48, 96), (56, 84))


def generate_graphs(seed: int, schedule=SCHEDULE) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """Connected random graphs as (vertex labels in order, sorted edge list).

    Labels are distinct integers in shuffled order, so the vertex order the
    oracles see has no band structure.  A random tree comes first, which
    makes every graph connected; random extra edges follow.
    """
    rng = random.Random(seed)
    graphs = []
    for vertices, edge_count in schedule:
        if not vertices - 1 <= edge_count <= vertices * (vertices - 1) // 2:
            raise ValueError(f"no simple connected graph with {vertices} vertices "
                             f"and {edge_count} edges")
        labels = rng.sample(range(1, 10 * vertices), vertices)
        edges = set()
        for k in range(1, vertices):
            edges.add(tuple(sorted((labels[k], labels[rng.randrange(k)]))))
        while len(edges) < edge_count:
            edges.add(tuple(sorted(rng.sample(labels, 2))))
        graphs.append((labels, sorted(edges)))
    return graphs


def distance_indices(labels, edges) -> tuple[int, int]:
    """(Wiener, Gutman) by breadth-first search, independent of chaindex."""
    adj = {v: [] for v in labels}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    wiener = gutman = 0
    for source in labels:
        dist = {source: 0}
        queue = [source]
        for u in queue:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        wiener += sum(dist.values())
        gutman += len(adj[source]) * sum(len(adj[w]) * d for w, d in dist.items())
    return wiener // 2, gutman // 2


class GenericGraphs:
    """Every oracle on seeded random connected graphs.

    Gates: each resistance index passes the oracle's own two-route
    comparison, the spanning-tree count is the same whichever vertex is
    dropped, Wiener and Gutman equal an independent BFS, and the digest of
    all outputs equals the committed one for the reference seed (for any
    other seed, the first pass's digest).
    """

    name = "generic-graphs"

    def __init__(self, schedule=SCHEDULE) -> None:
        self.schedule = schedule
        self.inputs: list = []
        self.expected: list = []
        self.expected_digest = None

    def prepare(self, mods, seed: int) -> None:
        self.inputs = generate_graphs(seed, self.schedule)
        self.expected = [distance_indices(labels, edges) for labels, edges in self.inputs]
        reference = json.loads(GENERIC_REFERENCE.read_text(encoding="utf-8"))
        matches = reference["seed"] == seed and [list(s) for s in self.schedule] == reference["schedule"]
        self.expected_digest = reference["sha256"] if matches else None

    def warm_up(self, mods) -> None:
        g = mods.graphs.Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        o = mods.oracles
        for f in (o.kirchhoff_index, o.degree_kirchhoff_index, o.spanning_tree_count,
                  o.wiener_index, o.gutman_index):
            f(g)

    def run_pass(self, mods) -> Outcome:
        outcome = Outcome()
        oracles = mods.oracles
        digest = hashlib.sha256()
        for k, ((labels, edges), (wiener, gutman)) in enumerate(zip(self.inputs, self.expected)):
            out = {}

            def build():
                out["g"] = mods.graphs.Graph(labels, edges)
                return None

            def resistance_index(key, oracle):
                def op():
                    out[key] = value = oracle(out["g"])
                    if not (isinstance(value, Fraction) and value > 0):
                        return f"{value!r} is not a positive Fraction"
                    return None
                return op

            def trees():
                out["tau"] = tau = oracles.spanning_tree_count(out["g"])
                other = oracles.spanning_tree_count(out["g"], drop=labels[0])
                return None if tau == other > 0 else f"{tau} vs {other} with another vertex dropped"

            def distance(key, oracle, expected):
                def op():
                    out[key] = value = oracle(out["g"])
                    return None if value == expected else f"{value} != {expected}"
                return op

            outcome.run(f"graph {k} build", build)
            outcome.run(f"graph {k} kf", resistance_index("kf", oracles.kirchhoff_index))
            outcome.run(f"graph {k} kf*", resistance_index("kf*", oracles.degree_kirchhoff_index))
            outcome.run(f"graph {k} tau", trees)
            outcome.run(f"graph {k} wiener", distance("wiener", oracles.wiener_index, wiener))
            outcome.run(f"graph {k} gutman", distance("gutman", oracles.gutman_index, gutman))
            digest.update(" ".join(str(out.get(key)) for key in
                                   ("kf", "kf*", "tau", "wiener", "gutman")).encode() + b"\n")

        def same_digest():
            produced = digest.hexdigest()
            if self.expected_digest is None:
                self.expected_digest = produced
            return None if produced == self.expected_digest else "output digest differs"

        outcome.run("digest", same_digest)
        return outcome


# Workload name -> factory taking the directory a pass may write into.
WORKLOADS = {
    VerifyRange.name: VerifyRange,
    SpectralLarge.name: lambda out_dir: SpectralLarge(),
    GenericGraphs.name: lambda out_dir: GenericGraphs(),
}
