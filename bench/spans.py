"""Spans around the package's cross-module entry points, from outside.

Each public function a caller reaches in another module is replaced, at the
name that caller uses (``ndsolve.cli.read_instance``,
``ndsolve.backends.solve_lp``, ``ndsolve.cli.SOLVERS["boxed"]``, ...), by a
wrapper that records the call's duration and subtracts it from the
enclosing span, so each layer gets its self time.  Work counters (nodes,
steps, LP tableau cells, basis elements, cache hits) are read from the
arguments and results at the same boundaries.  ``ndsolve.matrices`` has no
entry point reachable this way; its time stays in its callers' self time.
"""

from __future__ import annotations

import os
import time
from collections import Counter

from ndsolve import algorithms, backends, cli
from ndsolve.ipmodel import IpModel


def _tableau_cells(p):
    """Cells of the phase-1 simplex tableau that solve_lp builds for p."""
    finite_boxes = sum(1 for lo, hi in zip(p.lower, p.upper) if lo is not None and hi is not None)
    free = sum(1 for lo, hi in zip(p.lower, p.upper) if lo is None and hi is None)
    rows = len(p.constraints) + finite_boxes
    slacks = finite_boxes + sum(1 for c in p.constraints if c.rel != "=")
    return rows * (p.n + free + slacks + rows + 1)


def _count_read(counts, args, result):
    counts["instances.bytes"] += os.path.getsize(args[0])


def _count_graph(counts, args, result):
    counts["graphs.vertices"] += args[0].n
    counts["graphs.edges"] += args[0].m


def _count_model(counts, args, result):
    if isinstance(result, IpModel):
        counts["models.vars"] += result.n_vars
        counts["models.rows"] += len(result.rows) + len(result.convex_rows)


def _count_lp(counts, args, result):
    counts["lp.tableau_cells"] += _tableau_cells(args[0])


def _count_result(key):
    def count(counts, args, result):
        counts[key] += result.nodes
    return count


def _count_basis(caller):
    def count(counts, args, result):
        counts[f"graver.graver_basis.{caller}.elements"] += len(result)
    return count


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block.

    ``self_ms``/``calls`` are keyed by span name; ``counts`` by counter.
    Nested spans of one op form a stack, so a span's self time is its
    duration minus the time of the spans it directly encloses.
    """

    def __init__(self):
        self.self_ms = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def reset(self):
        self.self_ms.clear()
        self.calls.clear()
        self.counts.clear()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += took
                self.self_ms[name] += (took - frame[1]) * 1000.0
                self.calls[name] += 1
            if name.startswith("lp.") and parent is not None:
                self.counts[f"{parent}.lp_calls"] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr, name, count=None):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, count)
            self._undo.append(lambda: owner.__setitem__(attr, original))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, count))
            self._undo.append(lambda: setattr(owner, attr, original))

    def _cached_basis(self, fn):
        """A cache hit is a cached_graver_basis call that computes no basis."""
        def counted(*args, **kwargs):
            before = self.calls["graver.graver_basis.backends"]
            result = fn(*args, **kwargs)
            if self.calls["graver.graver_basis.backends"] == before:
                self.counts["graver.cache_hits"] += 1
            return result
        return counted

    def __enter__(self):
        p = self._patch
        p(cli, "read_instance", "instances.read_instance", _count_read)
        p(cli, "type_graph", "graphs.type_graph", _count_graph)
        for attr in ("build_cds_convex", "build_cds_ilp", "build_maxqcut", "build_sumcol_convex",
                     "build_sumcol_graver", "build_sumcol_nfold", "build_catalog"):
            p(cli, attr, "models.build", _count_model)
        p(algorithms, "build_cds_ilp", "models.build", _count_model)
        for attr in ("decode_cds", "decode_coloring", "decode_partition"):
            p(cli, attr, "models.decode")
        p(algorithms, "decode_cds", "models.decode")
        p(cli.SOLVERS, "boxed", "backends.solve_boxed", _count_result("backends.solve_boxed.nodes"))
        p(backends, "solve_boxed", "backends.solve_boxed", _count_result("backends.solve_boxed.nodes"))
        p(cli.SOLVERS, "nfold", "backends.solve_nfold", _count_result("backends.solve_nfold.steps"))
        p(cli.SOLVERS, "augment", "backends.solve_augment", _count_result("backends.solve_augment.steps"))
        p(backends, "solve_lp", "lp.in_boxed", _count_lp)
        p(algorithms, "solve_lp", "lp.in_algorithms", _count_lp)
        p(backends, "graver_basis", "graver.graver_basis.backends", _count_basis("backends"))
        p(cli, "graver_basis", "graver.graver_basis.cli", _count_basis("cli"))
        p(backends, "augment_to_optimum", "graver.augment_to_optimum")
        p(cli, "cds_proximity_solve", "algorithms.proximity")
        p(cli, "cds_rounding_approx", "algorithms.rounding")
        original = backends.cached_graver_basis
        backends.cached_graver_basis = self._cached_basis(original)
        self._undo.append(lambda: setattr(backends, "cached_graver_basis", original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False

    def main(self, argv):
        """cli.main inside the root span, which is the cli layer."""
        return self.wrap("cli", cli.main)(argv)

    def layer_metrics(self):
        """Per-pass layer figures named as in BENCHMARK.json (times in ms)."""
        s, c, n = self.self_ms, self.calls, self.counts
        m = {
            "cli.self_ms": s["cli"],
            "cli.calls": c["cli"],
            "instances.read_instance.ms": s["instances.read_instance"],
            "instances.read_instance.calls": c["instances.read_instance"],
            "instances.bytes": n["instances.bytes"],
            "graphs.type_graph.ms": s["graphs.type_graph"],
            "graphs.type_graph.calls": c["graphs.type_graph"],
            "graphs.vertices": n["graphs.vertices"],
            "graphs.edges": n["graphs.edges"],
            "models.build.ms": s["models.build"],
            "models.build.calls": c["models.build"],
            "models.vars": n["models.vars"],
            "models.rows": n["models.rows"],
            "models.decode.ms": s["models.decode"],
            "models.decode.calls": c["models.decode"],
            "lp.in_boxed.ms": s["lp.in_boxed"],
            "lp.in_boxed.calls": c["lp.in_boxed"],
            "lp.in_algorithms.ms": s["lp.in_algorithms"],
            "lp.in_algorithms.calls": c["lp.in_algorithms"],
            "lp.tableau_cells": n["lp.tableau_cells"],
        }
        for name, work in (("solve_boxed", "nodes"), ("solve_nfold", "steps"), ("solve_augment", "steps")):
            m[f"backends.{name}.self_ms"] = s[f"backends.{name}"]
            m[f"backends.{name}.calls"] = c[f"backends.{name}"]
            m[f"backends.{name}.{work}"] = n[f"backends.{name}.{work}"]
        for caller in ("backends", "cli"):
            m[f"graver.graver_basis.{caller}.ms"] = s[f"graver.graver_basis.{caller}"]
            m[f"graver.graver_basis.{caller}.calls"] = c[f"graver.graver_basis.{caller}"]
            m[f"graver.graver_basis.{caller}.elements"] = n[f"graver.graver_basis.{caller}.elements"]
        augments = c["backends.solve_augment"]
        m["graver.cache_hits"] = n["graver.cache_hits"]
        m["graver.cache_hit_ratio"] = n["graver.cache_hits"] / augments if augments else 0.0
        m["graver.augment_to_optimum.ms"] = s["graver.augment_to_optimum"]
        m["graver.augment_to_optimum.calls"] = c["graver.augment_to_optimum"]
        for name in ("proximity", "rounding"):
            m[f"algorithms.{name}.self_ms"] = s[f"algorithms.{name}"]
            m[f"algorithms.{name}.calls"] = c[f"algorithms.{name}"]
            m[f"algorithms.{name}.lp_calls"] = n[f"algorithms.{name}.lp_calls"]
        return m
