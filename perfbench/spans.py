"""In-memory spans and the timing wrappers of the traced run.

A traced sample rebinds the module attributes that ecps callers look up with
wrappers that record one span per call. ``ecps.cli`` imports names into its
own namespace, so each name is wrapped where it is called, not only where it
is defined; every wrapper wraps the original function, so one call gives one
span. The untraced run never imports this module.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager


def _n_times(h, rho0, times, *args, **kwargs):
    return {"exact.time_points": len(times)}


def _n_realizations(params, n_realizations, *args, **kwargs):
    return {"exact.realizations": int(n_realizations)}


def _n_grid_points(xi_list, theta_grid, *args, **kwargs):
    return {"superop.grid_points": len(xi_list) * len(theta_grid)}


#: (module, attribute, metric name, record a span, extra counter); every
#: call also counts as ``<metric name>_calls``
TARGETS = [
    ("ecps.config", "load_config", "config.load_config", True, None),
    ("ecps.cli", "load_config", "config.load_config", True, None),
    ("ecps.cli", "sample_couplings", "model.sample_couplings", True, None),
    ("ecps.cli", "build_hamiltonian", "model.build_hamiltonian", True, None),
    ("ecps.cli", "initial_state", "model.initial_state", True, None),
    ("ecps.exact", "eig_hermitian", "linalg.eig_hermitian", True, None),
    ("ecps.exact", "is_density", "linalg.is_density", True, None),
    ("ecps.model", "is_density", "linalg.is_density", True, None),
    ("ecps.tcl", "is_density", "linalg.is_density", True, None),
    ("ecps.superop", "singular_values", "linalg.singular_values", True, None),
    ("ecps.cli", "evolve_exact", "exact.evolve_exact", True, _n_times),
    ("ecps.cli", "sector_variables", "exact.sector_variables", True, None),
    ("ecps.exact", "sector_variables", "exact.sector_variables", True, None),
    ("ecps.cli", "ensemble_average", "exact.ensemble_average", True, _n_realizations),
    ("ecps.superop", "delta_superop", "superop.delta_superop", True, None),
    ("ecps.superop", "choi_matrix", "superop.choi_matrix", True, None),
    ("ecps.cli", "scan_delta", "superop.scan_delta", True, _n_grid_points),
    ("ecps.cli", "tcl_generator", "superop.tcl_generator", True, None),
    # ecps_evolve imports tcl_generator from ecps.superop at call time
    ("ecps.superop", "tcl_generator", "superop.tcl_generator", True, None),
    ("ecps.cli", "solve_tcl", "tcl.solve_tcl", True, None),
    ("ecps.tcl", "solve_tcl", "tcl.solve_tcl", True, None),
    ("ecps.tcl", "expm", "tcl.expm", False, None),
    ("ecps.cli", "ecps_evolve", "tcl.ecps_evolve", True, None),
    ("ecps.cli", "steady_state", "tcl.steady_state", True, None),
]


class Tracer:
    """Spans (name, start, end, parent index) kept in memory, plus counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.clock()

    def wrap(self, fn, name: str, spanned: bool, counter):
        calls = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            if counter is not None:
                self.counts.update(counter(*args, **kwargs))
            if not spanned:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Rebind every TARGETS attribute with a wrapper of its original."""
        for module_name, attr, name, spanned, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, spanned, counter))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name of span duration minus child-span durations.

        Spans nest strictly (one thread, context managers), so the children of
        a span cover disjoint parts of it and their durations simply add.
        """
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def root_time(self, name: str) -> float:
        """Total duration of the top-level spans called ``name``."""
        return sum(end - start for n, start, end, parent in self.spans
                   if parent < 0 and n == name)
