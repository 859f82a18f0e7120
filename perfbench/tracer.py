"""Spans around the package's layer boundaries, recorded from outside.

The package's modules import each other's functions by name, so a
function is wrapped at every module binding a caller goes through
(``spectral.char_poly``, ``cli.verify_lcr``, ...), not only where it is
defined. A span records its name, start, end and parent; spans stay in
memory until the benchmark writes them out. A binding that a later
version of the package no longer has is skipped and reported, so the
benchmark keeps running and the coverage check in selftest.py names the
span that stopped firing.
"""

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute path, span name, hook name or None)
BINDINGS = (
    ("orbitspectra.cli", "main", "cli.main", None),
    # graphs
    ("orbitspectra.cli", "build_lcr", "graphs.build", None),
    ("orbitspectra.spectral", "build_lcr", "graphs.build", None),
    ("orbitspectra.graphs", "Graph.__init__", "graphs.build", None),
    ("orbitspectra.cli", "all_pairs_distances", "graphs.bfs", None),
    ("orbitspectra.spectral", "all_pairs_distances", "graphs.bfs", None),
    ("orbitspectra.graphs", "bfs_all_pairs", "kernels.bfs", "bfs_sources"),
    # perms
    ("orbitspectra.cli", "lcr_stabilizer_gens", "perms.gens", None),
    ("orbitspectra.spectral", "lcr_stabilizer_gens", "perms.gens", None),
    ("orbitspectra.cli", "lcr_automorphism_gens", "perms.gens", None),
    ("orbitspectra.spectral", "lcr_automorphism_gens", "perms.gens", None),
    ("orbitspectra.cli", "orbits", "perms.orbits", None),
    ("orbitspectra.spectral", "orbits", "perms.orbits", None),
    ("orbitspectra.perms", "orbits", "perms.orbits", None),
    ("orbitspectra.spectral", "is_vertex_transitive_under", "perms.transitivity", None),
    # spectral
    ("orbitspectra.cli", "verify_lcr", "spectral.verify_lcr", None),
    ("orbitspectra.cli", "is_distance_integral", "spectral.is_distance_integral", None),
    ("orbitspectra.spectral", "distance_spectrum", "spectral.distance_spectrum", None),
    ("orbitspectra.cli", "lcr_quotient_closed_form", "spectral.closed_form", None),
    ("orbitspectra.spectral", "lcr_quotient_closed_form", "spectral.closed_form", None),
    ("orbitspectra.cli", "quotient_matrix", "spectral.quotient", "quotient_order"),
    ("orbitspectra.spectral", "quotient_matrix", "spectral.quotient", "quotient_order"),
    # exactla
    ("orbitspectra.spectral", "eigen_multiplicity", "exactla.rank", "rank_hit"),
    ("orbitspectra.spectral", "char_poly", "exactla.charpoly", "charpoly_size"),
    ("orbitspectra.spectral", "integer_roots", "exactla.roots", None),
    ("orbitspectra.exactla", "IntMatrix.__init__", "exactla.intmatrix", None),
    ("orbitspectra.exactla", "bareiss_echelon", "kernels.bareiss", "pivot_bits"),
    ("orbitspectra.exactla", "berkowitz_charpoly", "kernels.berkowitz", None),
)

# (module, attribute path, counter name): calls counted without a span
COUNTED = (("orbitspectra.graphs", "Graph.has_edge", "perms.edge_checks"),)


class Tracer:
    """Collects spans (name, start ns, end ns, parent index) and counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.maxima = {}
        self.unbound = []
        self._stack = []

    # -- hooks: run after a wrapped call returns, outside its span

    def bfs_sources(self, args, result):
        self.add("graphs.bfs_sources", args[0])

    def quotient_order(self, args, result):
        self.note_max("spectral.quotient_order", result.matrix.rows)

    def rank_hit(self, args, result):
        self.add("exactla.rank_hits", 1 if result > 0 else 0)

    def charpoly_size(self, args, result):
        self.note_max("exactla.charpoly_order_max", args[0].rows)
        bits = max((abs(c).bit_length() for c in result.coefficients), default=0)
        self.note_max("exactla.coeff_bits_max", bits)

    def pivot_bits(self, args, result):
        _, _, pivot_cols, echelon = result
        bits = max((abs(echelon[i][c]).bit_length() for i, c in enumerate(pivot_cols)), default=0)
        self.note_max("exactla.pivot_bits_max", bits)

    # -- recording

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def note_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def span_wrapper(self, name, hook, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding for the duration of the block, then restore."""
        factories = [
            (module, path, functools.partial(self.span_wrapper, span, getattr(self, hook) if hook else None))
            for module, path, span, hook in BINDINGS
        ]
        factories += [
            (module, path, functools.partial(self.count_wrapper, counter))
            for module, path, counter in COUNTED
        ]
        patched = []
        try:
            for module, path, make in factories:
                owner, attr = _resolve(module, path)
                if owner is None:
                    self.unbound.append(f"{module}.{path}")
                    continue
                original = getattr(owner, attr)
                setattr(owner, attr, make(original))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- analysis

    def summary(self):
        """Per span name: calls, total seconds (outermost spans of that name
        only) and self seconds (duration minus time covered by children)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for k, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start - child_ns[k]) / 1e9
            if not self._inside_same_name(k):
                row["total_s"] += (end - start) / 1e9
        return out

    def _inside_same_name(self, k):
        name, parent = self.spans[k][0], self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _resolve(module_name, path):
    """(object owning the last attribute, attribute name), or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, attr):
        return None, None
    return owner, attr
