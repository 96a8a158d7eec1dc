"""Spans around the iksea layers, recorded from outside the library.

:class:`Tracer` replaces each traced public function with a wrapper in every
``iksea`` module namespace that binds it (modules import names directly, e.g.
``from .ground import ground_qfi`` in ``cli``, ``scaling`` and ``oracle``)
and in the class dict for methods.  :meth:`Tracer.uninstall` puts every
original object back.

Each wrapper call records one span: id, parent id, name, job id, start, end
and a work amount (modes, bytes or wait time, depending on the layer).
Parents are tracked per thread.  The items that ``run_grid`` hands to its
thread pool get the ``run_grid`` span as their explicit parent, so their
children nest correctly on the worker threads.  Spans stay in memory until
:meth:`Tracer.spans` gathers them after the pass.

A span's self time is its duration minus the part of its interval that its
child spans cover (:func:`self_times`); children running in parallel on
several threads are counted once.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: columns of the span record, stored interleaved as doubles
COLUMNS = ("id", "parent", "name", "job", "start", "end", "work")

#: span name of one run_grid item (runs on a pool thread)
ITEM = "runner.item"


def _modes(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    return params.n_sites // 2


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


#: (module, attribute path, span name, work function)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("iksea.model", "block_elements", "model.block_elements", None),
    ("iksea.ground", "ground_qfi", "ground.ground_qfi", _modes),
    ("iksea.dynamics", "dynamical_qfi", "dynamics.dynamical_qfi", _modes),
    ("iksea.scaling", "power_law_fit", "scaling.power_law_fit", None),
    ("iksea.scaling", "size_exponent", "scaling.sweep", None),
    ("iksea.scaling", "exponent_vs_offset", "scaling.sweep", None),
    ("iksea.scaling", "kappa_sweep", "scaling.sweep", None),
    ("iksea.oracle", "spectral_decomposition", "oracle.spectral_decomposition", None),
    ("iksea.oracle", "spectrum_match_error", "oracle.spectrum_match_error", None),
    ("iksea.oracle", "fit_energy_scale", "oracle.fit_energy_scale", None),
    ("iksea.oracle", "dense_evolution_qfi", "oracle.dense_evolution_qfi", None),
    ("iksea.oracle", "run_oracle_suite", "oracle.run_oracle_suite", None),
    ("iksea.runner", "run_grid", "runner.run_grid", None),
    ("iksea.runner", "sha256_file", "runner.sha256_file", _file_bytes),
    ("iksea.runner", "Manifest.write", "runner.Manifest.write", None),
    ("iksea.config", "RunConfig.from_file", "config.RunConfig.from_file", None),
    ("iksea.cli", "main", "cli.main", None),
    ("iksea.cli", "_write_rows", "cli.write", _file_bytes),
    ("iksea.cli", "_write_json", "cli.write", _file_bytes),
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.names: List[str] = []
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: List[array] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -------------------------------------------------------------- recording

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _thread(self):
        """(stack of open span ids, span buffer) of the calling thread."""
        loc = self._local
        try:
            return loc.stack, loc.buf
        except AttributeError:
            loc.stack, loc.buf = [], array("d")
            with self._lock:
                self._buffers.append(loc.buf)
            return loc.stack, loc.buf

    def wrap(self, fn: Callable, name: str,
             work: Optional[Callable] = None) -> Callable:
        """A wrapper that records one span per call of ``fn``."""
        nid = self._name_id(name)
        ids, thread, clock = self._ids, self._thread, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            stack, buf = thread()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                buf.extend((sid, parent, nid, self.job, t0, t1, 0.0))
                raise
            t1 = clock()
            stack.pop()
            w = work(args, kwargs, result) if work is not None else 0.0
            buf.extend((sid, parent, nid, self.job, t0, t1, w))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_grid(self, fn: Callable, name: str) -> Callable:
        """Wrapper for run_grid(fn, items, ...): each item is a child span.

        An item span's parent is the run_grid span, whatever thread runs
        the item; its work column holds the wait from run_grid entry to the
        item's start.
        """
        item_id = self._name_id(ITEM)
        ids, thread, clock = self._ids, self._thread, time.perf_counter

        def grid(item_fn, items, *args, **kwargs):
            stack, _ = thread()
            owner, entered = stack[-1], clock()

            def item(x):
                sid = next(ids)
                stack, buf = thread()
                stack.append(sid)
                t0 = clock()
                try:
                    return item_fn(x)
                finally:
                    t1 = clock()
                    stack.pop()
                    buf.extend((sid, owner, item_id, self.job, t0, t1,
                                t0 - entered))

            return fn(item, items, *args, **kwargs)

        return self.wrap(grid, name)

    # ------------------------------------------------------ install / restore

    def install(self) -> None:
        """Replace every binding of each target in the iksea modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "iksea" or key.startswith("iksea.")]
        for module_name, path, name, work in TARGETS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapper = self.wrap(fn, name, work)
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, wrapper)
                continue
            original = getattr(owner, path)
            if name == "runner.run_grid":
                wrapper = self.wrap_grid(original, name)
            else:
                wrapper = self.wrap(original, name, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------------- results

    def spans(self) -> Dict[str, np.ndarray]:
        """All recorded spans as columns, ordered by span id."""
        with self._lock:
            flat = np.concatenate([np.frombuffer(b, dtype=float)
                                   for b in self._buffers]) \
                if self._buffers else np.empty(0)
        rows = flat.reshape(-1, len(COLUMNS))
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        return {c: rows[:, i] for i, c in enumerate(COLUMNS)}


def self_times(spans: Dict[str, np.ndarray]) -> np.ndarray:
    """Self time of every span: duration minus the interval its children cover.

    ``spans`` columns are ordered by id with ids 0 .. n-1, so a parent id is
    also a row index.  Children are clipped to their parent's interval, and
    overlapping children (parallel items) are counted once: within each
    parent the children are sorted by start and each adds only the part that
    lies past the furthest end seen so far.
    """
    start, end = spans["start"], spans["end"]
    parent = spans["parent"].astype(np.int64)
    n = start.size
    if n and not np.array_equal(spans["id"], np.arange(n)):
        raise ValueError("span ids must be 0 .. n-1 in row order")
    covered = np.zeros(n)
    child = np.nonzero(parent >= 0)[0]
    if child.size:
        p = parent[child]
        order = np.lexsort((start[child], p))
        child, p = child[order], p[order]
        s = np.maximum(start[child], start[p])
        e = np.maximum(np.minimum(end[child], end[p]), s)
        # shift each parent's children into its own disjoint time band so a
        # single running maximum never crosses from one parent to the next
        first = np.r_[True, p[1:] != p[:-1]]
        band = np.cumsum(first) * (2.0 * (end.max() - start.min()) + 1.0)
        t_min = start.min()
        s, e = s - t_min + band, e - t_min + band
        reach = np.maximum.accumulate(e)
        before = np.r_[-np.inf, reach[:-1]]
        before[first] = -np.inf
        cover = np.maximum(0.0, e - np.maximum(s, before))
        covered = np.bincount(p, weights=cover, minlength=n)
    return (end - start) - covered


def layer_metrics(spans: Dict[str, np.ndarray], names: List[str]) -> Dict[str, float]:
    """Per-layer counts, work and self times of one traced pass."""
    own = self_times(spans)
    name = spans["name"].astype(np.int64)
    work = spans["work"]
    parent = spans["parent"].astype(np.int64)

    def mask(span_name):
        if span_name not in names:
            return np.zeros(name.size, dtype=bool)
        return name == names.index(span_name)

    out: Dict[str, float] = {}

    def layer(span_name, calls=False, modes=False):
        m = mask(span_name)
        if calls:
            out[f"{span_name}.calls"] = int(m.sum())
        out[f"{span_name}.self_s"] = float(own[m].sum())
        if modes:
            n_modes = int(work[m].sum())
            out[f"{span_name}.modes"] = n_modes
            out[f"{span_name}.ns_per_mode"] = (
                float(own[m].sum()) * 1e9 / n_modes if n_modes else 0.0)

    layer("model.block_elements", calls=True)
    layer("ground.ground_qfi", calls=True, modes=True)
    layer("dynamics.dynamical_qfi", calls=True, modes=True)
    layer("scaling.power_law_fit", calls=True)
    layer("scaling.sweep")
    layer("oracle.spectral_decomposition", calls=True)
    for fn in ("spectrum_match_error", "fit_energy_scale",
               "dense_evolution_qfi", "run_oracle_suite"):
        layer(f"oracle.{fn}")
    layer("runner.run_grid", calls=True)
    out["runner.item_wait_s"] = float(work[mask(ITEM)].sum())
    m = mask("runner.sha256_file")
    out["runner.sha256_file.bytes"] = int(work[m].sum())
    layer("runner.sha256_file")
    layer("runner.Manifest.write")
    layer("config.RunConfig.from_file")
    layer("cli.main", calls=True)
    layer("cli.write")
    # _write_rows calls _write_json for JSON output: count those bytes once
    m = mask("cli.write")
    nested = np.zeros_like(m)
    child = parent >= 0
    nested[child] = m[parent[child]]
    out["cli.write.bytes"] = int(work[m & ~nested].sum())
    return out
