"""Span tracer installed at chaindex's module boundaries.

``install`` wraps the public functions and methods of each traced module,
in the module that defines them and wherever another module imported them
by name, so every call records a span: name, start, end and the span that
was open when it started.  Spans stay in memory until ``summarize`` turns
one pass's spans into the per-layer metrics; ``write_spans`` saves them.
Nothing under ``src/`` changes; the wrappers live only in the process that
installed them.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict

LAYERS = ("graphs", "linalg", "spectral", "oracles", "formulas", "verify", "cli")

# O(1) lookups inside the hottest loops (Laplacian assembly, BFS, the
# Gutman sums): a span around each would cost more than the work it times.
SKIPPED = frozenset({
    "graphs.Graph.position",
    "graphs.Graph.neighbors",
    "graphs.Graph.degree",
    "graphs.Graph.has_edge",
})

# Span groups behind the named per-layer metrics.  A member ending in ".*"
# takes every span of that layer.  A group's inclusive time counts only its
# outermost spans, so nested members are not counted twice.
GROUPS = {
    "linalg.char_poly": ("linalg.char_poly",),
    "linalg.det_bareiss": ("linalg.det_bareiss",),
    "linalg.lu": ("linalg.LUDecomposition.__init__", "linalg.LUDecomposition.solve", "linalg.solve"),
    "linalg.lu_solve": ("linalg.LUDecomposition.solve",),
    "spectral.interior_det": ("spectral.TriDiagSym.interior_det",),
    "spectral.deleted_pair_class_sum": ("spectral.deleted_pair_class_sum",),
    "spectral.tridiag_char_poly": ("spectral.TriDiagSym.char_poly",),
    "spectral.mirror_blocks": ("spectral.mirror_blocks",),
    "spectral.factorization_holds": ("spectral.factorization_holds",),
    "oracles.kirchhoff": (
        "oracles.kirchhoff_index",
        "oracles.kirchhoff_from_resistances",
        "oracles.kirchhoff_from_spectrum",
    ),
    "oracles.degree_kirchhoff": (
        "oracles.degree_kirchhoff_index",
        "oracles.degree_kirchhoff_from_resistances",
        "oracles.degree_kirchhoff_from_spectrum",
    ),
    "oracles.spanning_trees": ("oracles.spanning_tree_count",),
    "oracles.distance_indices": (
        "oracles.wiener_index",
        "oracles.gutman_index",
        "oracles.wiener_class_sums",
        "oracles.gutman_class_sums",
    ),
    "graphs.bfs": ("graphs.Graph.distances_from",),
    "graphs.build": (
        "graphs.Graph.__init__",
        "graphs.ChainGraph.__init__",
        "graphs.build_crossed_chain",
        "graphs.build_plain_chain",
    ),
    "verify.verify_one": ("verify.verify_one",),
    "verify.report": (
        "verify.VerificationReport.from_records",
        "verify.VerificationReport.to_json",
        "verify.VerificationReport.to_csv",
    ),
    "formulas": ("formulas.*",),
}


def _bits(value) -> int:
    """Bit length of an exact scalar: the larger of numerator and denominator."""
    if isinstance(value, int):
        return abs(value).bit_length()
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


# Values read off a call's result at the boundary.  "max" keeps the largest
# value seen in the pass, "sum" adds them up.  Bit length of the result is
# the operand size at the boundary: a Bareiss determinant is its own last
# pivot, and every coefficient of a characteristic polynomial is a sum of
# principal minors.
PROBES = {
    "linalg.char_poly": ("max", lambda poly: max((_bits(c) for c in poly), default=0)),
    "linalg.det_bareiss": ("max", _bits),
    "verify.verify_one": ("sum", len),
}

# (metric, unit, better, kind, source).  Kinds: "calls" counts the spans of
# a group, "incl" is a group's inclusive seconds, "self" a layer's self
# seconds, "probe" a PROBES value of one span name.
PER_LAYER = (
    ("linalg.char_poly.calls", "count", "lower", "calls", "linalg.char_poly"),
    ("linalg.char_poly.s", "s", "lower", "incl", "linalg.char_poly"),
    ("linalg.char_poly.max_bits", "bits", "lower", "probe", "linalg.char_poly"),
    ("linalg.det_bareiss.calls", "count", "lower", "calls", "linalg.det_bareiss"),
    ("linalg.det_bareiss.s", "s", "lower", "incl", "linalg.det_bareiss"),
    ("linalg.det_bareiss.max_bits", "bits", "lower", "probe", "linalg.det_bareiss"),
    ("linalg.lu.s", "s", "lower", "incl", "linalg.lu"),
    ("linalg.lu.solves", "count", "lower", "calls", "linalg.lu_solve"),
    ("linalg.self_s", "s", "lower", "self", "linalg"),
    ("spectral.interior_det.calls", "count", "lower", "calls", "spectral.interior_det"),
    ("spectral.interior_det.s", "s", "lower", "incl", "spectral.interior_det"),
    ("spectral.deleted_pair_class_sum.s", "s", "lower", "incl", "spectral.deleted_pair_class_sum"),
    ("spectral.tridiag_char_poly.s", "s", "lower", "incl", "spectral.tridiag_char_poly"),
    ("spectral.mirror_blocks.calls", "count", "lower", "calls", "spectral.mirror_blocks"),
    ("spectral.factorization_holds.s", "s", "lower", "incl", "spectral.factorization_holds"),
    ("spectral.self_s", "s", "lower", "self", "spectral"),
    ("oracles.kirchhoff.s", "s", "lower", "incl", "oracles.kirchhoff"),
    ("oracles.degree_kirchhoff.s", "s", "lower", "incl", "oracles.degree_kirchhoff"),
    ("oracles.spanning_trees.s", "s", "lower", "incl", "oracles.spanning_trees"),
    ("oracles.distance_indices.s", "s", "lower", "incl", "oracles.distance_indices"),
    ("oracles.self_s", "s", "lower", "self", "oracles"),
    ("graphs.bfs.calls", "count", "lower", "calls", "graphs.bfs"),
    ("graphs.bfs.s", "s", "lower", "incl", "graphs.bfs"),
    ("graphs.build.s", "s", "lower", "incl", "graphs.build"),
    ("verify.verify_one.s", "s", "lower", "incl", "verify.verify_one"),
    ("verify.self_s", "s", "lower", "self", "verify"),
    ("verify.records", "count", "higher", "probe", "verify.verify_one"),
    ("verify.report.s", "s", "lower", "incl", "verify.report"),
    ("cli.self_s", "s", "lower", "self", "cli"),
    ("formulas.s", "s", "lower", "incl", "formulas"),
)


def groups_of(span: str) -> tuple[str, ...]:
    return tuple(
        group
        for group, members in GROUPS.items()
        if any(span == m or (m.endswith(".*") and span.startswith(m[:-1])) for m in members)
    )


class Tracer:
    """In-memory span store for one pass at a time.

    Spans are four parallel lists indexed by span id; ``parents[i]`` is the
    id of the span open when span i started, or -1.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.probes: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        """Drop every span, keeping the lists the installed wrappers append to."""
        for spans in (self.names, self.starts, self.ends, self.parents, self._stack):
            spans.clear()
        self.probes.clear()

    def wrap(self, span: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = self.clock
        probe = PROBES.get(span)
        probes = self.probes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                how, measure = probe
                value = measure(result)
                if how == "max":
                    probes[span] = max(probes.get(span, 0), value)
                else:
                    probes[span] = probes.get(span, 0) + value
            return result

        return traced

    def summarize(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        names, parents = self.names, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += durations[i]

        groups = {name: groups_of(name) for name in set(names)}
        layer_self: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, name in enumerate(names):
            layer_self[name.split(".", 1)[0]] += durations[i] - child_time[i]
            for group in groups[name]:
                calls[group] += 1
                parent = parents[i]
                while parent >= 0 and group not in groups[names[parent]]:
                    parent = parents[parent]
                if parent < 0:
                    inclusive[group] += durations[i]

        values = {}
        for metric, _unit, _better, kind, source in PER_LAYER:
            if kind == "calls":
                values[metric] = calls[source]
            elif kind == "incl":
                values[metric] = inclusive[source]
            elif kind == "self":
                values[metric] = layer_self[source]
            else:
                values[metric] = self.probes.get(source, 0)
        return values

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start and end (clock seconds), parent id."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                handle.write(json.dumps(row) + "\n")


def _own_function(fn, module) -> bool:
    """A plain function written in ``module``'s source file.

    Generator functions are left alone (a span would time only the
    generator's creation), as are methods a decorator generated, such as a
    dataclass ``__init__``.
    """
    return (
        inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and fn.__code__.co_filename == module.__file__
        and not inspect.isgeneratorfunction(fn)
    )


def install(tracer: Tracer, layers: dict, namespaces) -> list[str]:
    """Wrap the public callables of each layer module; return the span names.

    ``layers`` maps a layer name to its module.  Module-level functions are
    replaced in every module of ``namespaces`` that holds them by name, so
    ``from .linalg import char_poly`` elsewhere reaches the wrapper too;
    methods are replaced on their class.  A group member that is not found
    is recorded in ``tracer.absent`` instead of failing.
    """
    wrappers = {}
    installed = []
    for layer, module in layers.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if _own_function(obj, module):
                span = f"{layer}.{name}"
                wrappers[obj] = tracer.wrap(span, obj)
                installed.append(span)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                installed.extend(_wrap_methods(tracer, layer, obj, module))
    for namespace in namespaces:
        for name, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(namespace, name, wrappers[obj])
    present = set(installed)
    tracer.absent = sorted(
        member
        for members in GROUPS.values()
        for member in members
        if not member.endswith(".*") and member not in present
    )
    return installed


def _wrap_methods(tracer: Tracer, layer: str, cls, module) -> list[str]:
    installed = []
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        span = f"{layer}.{cls.__name__}.{attr}"
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if descriptor else raw
        if span in SKIPPED or not _own_function(fn, module):
            continue
        wrapped = tracer.wrap(span, fn)
        setattr(cls, attr, descriptor(wrapped) if descriptor else wrapped)
        installed.append(span)
    return installed
