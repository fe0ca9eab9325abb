"""Spans around the calls into each layer of ``sumbins``, from outside the package.

:meth:`Recorder.installed` replaces each layer's function with a wrapper in
every ``sumbins`` module that holds it (``from .dpbins import build_table``
makes a second reference in ``solvers``), and puts the originals back on
exit. Nothing under ``src/`` changes. A layer whose function no longer
exists is reported as missing, and its metrics are left out.

Each wrapper call records one span: layer name, start, end, parent span and
solve id, plus a work count read from its result (table cells, ranks,
draws, ...). Spans stay in flat arrays in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _outcome_found(result) -> bool:
    return result.status.value == "found"


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    attr: str  # "func" or "Class.method"
    work: Callable | None = None  # work count of one call, from its result
    found: Callable | None = None  # whether one call was useful, from its result


ROOT = "solvers.solve_instance"
CLI = "cli.main"

LAYERS = (
    Layer(ROOT, "sumbins.solvers", "solve_instance"),
    Layer(CLI, "sumbins.cli", "main"),
    Layer("dpbins.unrank_scalar", "sumbins.dpbins", "_unrank_mask"),
    Layer("dpbins.build_table", "sumbins.dpbins", "build_table", work=lambda t: (t.n + 1) * t.p),
    Layer("dpbins.batch_unrank", "sumbins.dpbins", "_bin_sums_batch", work=len),
    Layer("solvers.dispatch", "sumbins.solvers", "solve_shifted", work=lambda o: len(o.trace.get("phases", ()))),
    Layer("solvers.shifted_rep", "sumbins.solvers", "solve_shifted_rep",
          work=lambda o: o.trace.get("draw_count", 0), found=_outcome_found),
    Layer("solvers.shifted_mitm", "sumbins.solvers", "solve_shifted_mitm",
          work=lambda o: o.trace.get("splits", 0), found=_outcome_found),
    Layer("solvers.shifted_exhaustive", "sumbins.solvers", "solve_shifted_exhaustive"),
    Layer("solvers.subset_mitm", "sumbins.solvers", "solve_subset_sum_mitm"),
    Layer("solvers.subset_rep", "sumbins.solvers", "solve_subset_sum_rep", work=lambda o: o.trace.get("samples", 0)),
    Layer("solvers.modular_mitm", "sumbins.solvers", "solve_modular_subset_sum_mitm"),
    Layer("pigeonhole.modular", "sumbins.pigeonhole", "solve_pigeonhole_modular"),
    Layer("pigeonhole.count_b", "sumbins.pigeonhole", "_ModularContext.count_b"),
    Layer("pigeonhole.extract", "sumbins.pigeonhole", "_ModularContext.extract"),
    Layer("pigeonhole.equal", "sumbins.pigeonhole", "solve_pigeonhole_equal"),
    Layer("numtheory.random_prime", "sumbins.numtheory", "random_prime"),
    Layer("costmodel", "sumbins.costmodel", "crossovers"),
    Layer("core.verify", "sumbins.core", "verify"),
)

# (metric, unit, better, layer, statistic). Statistics over the layer's spans:
# calls, self_ms, work (summed work counts), work_per_s (work per second of
# self time), work_per_call, found_frac (useful calls over calls).
LAYER_METRICS = (
    ("dpbins.unrank_scalar.calls", "count", "lower", "dpbins.unrank_scalar", "calls"),
    ("dpbins.unrank_scalar.self_ms", "ms", "lower", "dpbins.unrank_scalar", "self_ms"),
    ("dpbins.build_table.calls", "count", "lower", "dpbins.build_table", "calls"),
    ("dpbins.build_table.cells", "count", "lower", "dpbins.build_table", "work"),
    ("dpbins.build_table.self_ms", "ms", "lower", "dpbins.build_table", "self_ms"),
    ("dpbins.build_table.cells_per_s", "1/s", "higher", "dpbins.build_table", "work_per_s"),
    ("dpbins.batch_unrank.calls", "count", "lower", "dpbins.batch_unrank", "calls"),
    ("dpbins.batch_unrank.ranks", "count", "lower", "dpbins.batch_unrank", "work"),
    ("dpbins.batch_unrank.self_ms", "ms", "lower", "dpbins.batch_unrank", "self_ms"),
    ("dpbins.batch_unrank.ranks_per_s", "1/s", "higher", "dpbins.batch_unrank", "work_per_s"),
    ("solvers.solve_instance.self_ms", "ms", "lower", ROOT, "self_ms"),
    ("solvers.dispatch.self_ms", "ms", "lower", "solvers.dispatch", "self_ms"),
    ("solvers.dispatch.phases_per_solve", "count", "lower", "solvers.dispatch", "work_per_call"),
    ("solvers.shifted_rep.calls", "count", "lower", "solvers.shifted_rep", "calls"),
    ("solvers.shifted_rep.self_ms", "ms", "lower", "solvers.shifted_rep", "self_ms"),
    ("solvers.shifted_rep.draws", "count", "lower", "solvers.shifted_rep", "work"),
    ("solvers.shifted_rep.found_frac", "fraction", "higher", "solvers.shifted_rep", "found_frac"),
    ("solvers.shifted_mitm.calls", "count", "lower", "solvers.shifted_mitm", "calls"),
    ("solvers.shifted_mitm.self_ms", "ms", "lower", "solvers.shifted_mitm", "self_ms"),
    ("solvers.shifted_mitm.splits", "count", "lower", "solvers.shifted_mitm", "work"),
    ("solvers.shifted_mitm.found_frac", "fraction", "higher", "solvers.shifted_mitm", "found_frac"),
    ("solvers.shifted_exhaustive.calls", "count", "lower", "solvers.shifted_exhaustive", "calls"),
    ("solvers.shifted_exhaustive.self_ms", "ms", "lower", "solvers.shifted_exhaustive", "self_ms"),
    ("solvers.subset_mitm.self_ms", "ms", "lower", "solvers.subset_mitm", "self_ms"),
    ("solvers.subset_rep.self_ms", "ms", "lower", "solvers.subset_rep", "self_ms"),
    ("solvers.subset_rep.samples", "count", "lower", "solvers.subset_rep", "work"),
    ("solvers.modular_mitm.self_ms", "ms", "lower", "solvers.modular_mitm", "self_ms"),
    ("pigeonhole.modular.self_ms", "ms", "lower", "pigeonhole.modular", "self_ms"),
    ("pigeonhole.count_b.calls", "count", "lower", "pigeonhole.count_b", "calls"),
    ("pigeonhole.count_b.self_ms", "ms", "lower", "pigeonhole.count_b", "self_ms"),
    ("pigeonhole.extract.self_ms", "ms", "lower", "pigeonhole.extract", "self_ms"),
    ("pigeonhole.equal.self_ms", "ms", "lower", "pigeonhole.equal", "self_ms"),
    ("numtheory.random_prime.calls", "count", "lower", "numtheory.random_prime", "calls"),
    ("numtheory.random_prime.self_ms", "ms", "lower", "numtheory.random_prime", "self_ms"),
    ("costmodel.self_ms", "ms", "lower", "costmodel", "self_ms"),
    ("core.verify.calls", "count", "lower", "core.verify", "calls"),
    ("core.verify.self_ms", "ms", "lower", "core.verify", "self_ms"),
)


@dataclass
class Spans:
    """Recorded spans as parallel arrays; ``parent`` is -1 for a root span."""

    names: tuple[str, ...]  # layer name of each name id
    name: np.ndarray
    parent: np.ndarray
    solve: np.ndarray
    start: np.ndarray
    end: np.ndarray
    work: np.ndarray
    found: np.ndarray

    def __len__(self) -> int:
        return int(self.name.size)

    def subset(self, keep: np.ndarray) -> "Spans":
        """The spans where ``keep`` holds, with parent links renumbered.

        ``keep`` must be closed under taking the parent: a kept span's
        parent is kept too, or the kept span is a root.
        """
        index = np.full(len(self) + 1, -1, dtype=np.int64)  # slot -1 maps roots
        index[:-1][keep] = np.arange(int(keep.sum()))
        return Spans(
            self.names,
            self.name[keep],
            index[self.parent[keep]],
            self.solve[keep],
            self.start[keep],
            self.end[keep],
            self.work[keep],
            self.found[keep],
        )

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent,
            solve=self.solve,
            start=self.start,
            end=self.end,
            work=self.work,
            found=self.found,
        )


def self_times(spans: Spans) -> np.ndarray:
    """Each span's duration minus the time its child spans cover, in seconds.

    Calls are synchronous on one thread, so the children of a span never
    overlap each other and lie inside it: the time they cover is the sum
    of their durations.
    """
    duration = spans.end - spans.start
    child = spans.parent >= 0
    covered = np.bincount(spans.parent[child], weights=duration[child], minlength=len(spans))
    return duration - covered


def _resolve(layer: Layer):
    """(owner, attribute, original function), or None when the layer is gone."""
    module = sys.modules.get(layer.module)
    if module is None:
        return None
    owner = module
    *path, attr = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = (vars(owner) if isinstance(owner, type) else vars(module)).get(attr)
    if not callable(original):
        return None
    return owner, attr, original


class Recorder:
    """Collects spans from wrapped layer functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.solve_id = -1
        self.missing: list[str] = []
        self._names: list[str] = []
        self._stack = [-1]
        self._name = array("H")
        self._parent = array("q")
        self._solve = array("q")
        self._start = array("d")
        self._end = array("d")
        self._work = array("d")
        self._found = array("b")

    def wrap(self, name: str, fn: Callable, work: Callable | None = None, found: Callable | None = None):
        """``fn`` wrapped so that every call records a span named ``name``."""
        if name not in self._names:
            self._names.append(name)
        name_id = self._names.index(name)
        clock, stack = self.clock, self._stack
        names, parents, solves = self._name, self._parent, self._solve
        starts, ends, works, founds = self._start, self._end, self._work, self._found

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            solves.append(self.solve_id)
            ends.append(0.0)
            works.append(0.0)
            founds.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                works[idx] = work(result)
            if found is not None:
                founds[idx] = found(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, layers=LAYERS):
        """Wrap every present layer in every ``sumbins`` module that holds it."""
        undo = []
        try:
            for layer in layers:
                found = _resolve(layer)
                if found is None:
                    self.missing.append(layer.name)
                    continue
                owner, attr, original = found
                wrapper = self.wrap(layer.name, original, layer.work, layer.found)
                if isinstance(owner, type):
                    holders = [(owner, attr)]
                else:
                    holders = [
                        (mod, key)
                        for mod_name, mod in list(sys.modules.items())
                        if mod is not None and mod_name.split(".")[0] == "sumbins"
                        for key, value in list(vars(mod).items())
                        if value is original
                    ]
                for holder, key in holders:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def spans(self) -> Spans:
        return Spans(
            tuple(self._names),
            np.frombuffer(self._name, dtype=np.uint16).copy(),
            np.frombuffer(self._parent, dtype=np.int64).copy(),
            np.frombuffer(self._solve, dtype=np.int64).copy(),
            np.frombuffer(self._start, dtype=np.float64).copy(),
            np.frombuffer(self._end, dtype=np.float64).copy(),
            np.frombuffer(self._work, dtype=np.float64).copy(),
            np.frombuffer(self._found, dtype=np.int8).copy(),
        )


def layer_metrics(spans: Spans, missing=()) -> dict[str, float]:
    """Every metric of LAYER_METRICS whose layer is not missing, by name.

    A layer that was never called reads 0 calls and 0 ms.
    """
    own = self_times(spans)
    out = {}
    for metric, _unit, _better, layer, stat in LAYER_METRICS:
        if layer in missing:
            continue
        sel = spans.name == spans.names.index(layer) if layer in spans.names else np.zeros(len(spans), bool)
        calls = int(sel.sum())
        self_s = float(own[sel].sum())
        work = float(spans.work[sel].sum())
        if stat == "calls":
            value = calls
        elif stat == "self_ms":
            value = self_s * 1000.0
        elif stat == "work":
            value = work
        elif stat == "work_per_s":
            value = work / self_s if self_s > 0 else 0.0
        elif stat == "work_per_call":
            value = work / calls if calls else 0.0
        elif stat == "found_frac":
            value = float(spans.found[sel].sum()) / calls if calls else 0.0
        else:
            raise ValueError(f"unknown statistic {stat!r}")
        out[metric] = value
    return out
