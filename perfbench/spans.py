"""Span recorder for the traced benchmark run.

The recorder wraps public ``voltlift`` functions and methods from outside the
package: a function is replaced in every ``voltlift`` module namespace that
binds it, a method on its class.  Each call records a span (name, start,
end, parent span, job) in memory; ``write`` saves them as JSON lines.  A
span's self time is its duration minus the time its child spans cover.

``scipy.optimize.linear_sum_assignment`` is wrapped as a counter only, so
the ``multiset_equal`` fallback keeps its time inside ``multiset_equal``.
Uninstalled, the recorder leaves the original objects in place and costs
nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, attribute) of a public function
FUNCTIONS = {
    "algebra.enumerate_characters": ("voltlift.algebra", "enumerate_characters"),
    "algebra.irreps_completeness_defect": ("voltlift.algebra", "irreps_completeness_defect"),
    "graphs.cayley_graph": ("voltlift.graphs", "cayley_graph"),
    "tokens.token_graph": ("voltlift.tokens", "token_graph"),
    "tokens.token_digraph": ("voltlift.tokens", "token_digraph"),
    "orbits.k_set_decomposition": ("voltlift.orbits", "k_set_decomposition"),
    "orbits.token_base_graph": ("voltlift.orbits", "token_base_graph"),
    "orbits.johnson_base": ("voltlift.orbits", "johnson_base"),
    "orbits.circulant_linegraph_base": ("voltlift.orbits", "circulant_linegraph_base"),
    "orbits.verify_natural_isomorphism": ("voltlift.orbits", "verify_natural_isomorphism"),
    "voltage.match_voltage_pairing": ("voltlift.voltage", "match_voltage_pairing"),
    "spectra.eigenvalues": ("voltlift.spectra", "eigenvalues"),
    "spectra.lift_spectrum": ("voltlift.spectra", "lift_spectrum"),
    "spectra.direct_spectrum": ("voltlift.spectra", "direct_spectrum"),
    "spectra.rep_spectrum": ("voltlift.spectra", "rep_spectrum"),
    "spectra.multiset_equal": ("voltlift.spectra", "multiset_equal"),
}

# span name -> (module, class, method); Graph.universal_matrix delegates to
# Digraph's, so one wrapper covers both
METHODS = {
    "graphs.universal_matrix": ("voltlift.graphs", "Digraph", "universal_matrix"),
    "voltage.base_matrix": ("voltlift.voltage", "VoltageGraph", "base_matrix"),
    "voltage.character_matrix": ("voltlift.voltage", "VoltageGraph", "character_matrix"),
    "voltage.apply_representation": ("voltlift.voltage", "BaseMatrix", "apply_representation"),
    "voltage.lift": ("voltlift.voltage", "VoltageGraph", "lift"),
    "spectra.group": ("voltlift.spectra", "Spectrum", "group"),
}

LSA_CALLS = "spectra.linear_sum_assignment_calls"


def _count_eigenproblem(counts, args, result):
    d = len(args[0])
    counts["spectra.eig_dim_max"] = max(counts["spectra.eig_dim_max"], d)
    counts["spectra.eig_n3_sum"] += d**3


def _count_base(counts, args, vg):
    counts["orbits.base_vertices"] += vg.n
    counts["orbits.base_arcs"] += vg.digraph.arc_count


def _count_tokens(counts, args, graph):
    counts["tokens.token_arcs"] += getattr(graph, "digraph", graph).arc_count


# johnson_base returns token_base_graph's result, so only the builders count
ON_RETURN = {
    "spectra.eigenvalues": _count_eigenproblem,
    "orbits.token_base_graph": _count_base,
    "orbits.circulant_linegraph_base": _count_base,
    "tokens.token_graph": _count_tokens,
    "tokens.token_digraph": _count_tokens,
}


class Tracer:
    """In-memory spans and per-job counts; wraps voltlift while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counts: dict[int, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.job: int | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.job])
        self._stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job_span(self, job: int):
        """The benchmark's own span around one job; its self time is the
        job time that no voltlift span covers."""
        self.job = job
        sid = self._open("bench.job")
        try:
            yield
        finally:
            self._close(sid)
            self.job = None

    def _wrap(self, name: str, fn):
        on_return = ON_RETURN.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if on_return is not None and self.job is not None:
                on_return(self.counts[self.job], args, result)
            return result

        return traced

    def _count_only(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.job is not None:
                self.counts[self.job][key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import scipy.optimize

        packages = [mod for name, mod in sys.modules.items()
                    if name == "voltlift" or name.startswith("voltlift.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(name, original)
            for mod in packages:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapped)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, attr, self._wrap(name, raw))
        self._patch(scipy.optimize, "linear_sum_assignment",
                    self._count_only(LSA_CALLS, scipy.optimize.linear_sum_assignment))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[int, defaultdict]:
        """job -> span name -> self seconds summed over the job's spans."""
        covered = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[int, defaultdict] = defaultdict(lambda: defaultdict(float))
        for sid, (name, start, end, parent, job) in enumerate(self.spans):
            if job is not None:
                out[job][name] += (end - start) - covered[sid]
        return out

    def calls(self) -> dict[int, defaultdict]:
        """job -> span name -> number of spans."""
        out: dict[int, defaultdict] = defaultdict(lambda: defaultdict(int))
        for name, start, end, parent, job in self.spans:
            if job is not None:
                out[job][name] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
