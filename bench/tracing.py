"""Span tracing of contilearn's layers from outside the program.

The library imports its dependencies by name (``engine.solve_replicates``,
``ensemble.maximize``, ``solver.hessian``, ...), so each public function is
patched in the namespace of the module that calls it; methods are patched
on their class. Only functions that a per-layer metric reads are patched.
Every call becomes a span ``(id, name, parent, thread, t0, t1, count)``
held in memory. The replicate thread pool runs solves on other threads: a
span opened on a thread with nothing open takes as parent the innermost
span open on the thread that installed the tracer, which is the
``solve_replicates`` call that submitted the work.

Self time is counted per thread, in thread-seconds (see ``self_seconds``).
``ensemble.log_likelihood`` is left unpatched, so the self time of
``solve_replicates`` holds the pool's start-up and shutdown, the
per-replicate row copies ``F[idx]`` and the full-data objective of each
replicate.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module whose namespace is patched, attribute path, span name)
PATCHES = (
    ("cli", "load_csv", "data.load_csv"),
    ("cli", "load_inputs", "data.load_inputs"),
    ("cli", "run", "engine.run"),
    ("cli", "save_model", "modelio.save_model"),
    ("cli", "save_reports", "modelio.save_reports"),
    ("cli", "load_model", "modelio.load_model"),
    ("cli", "predict_prob", "model.predict_prob"),
    ("cli", "save_predictions", "modelio.save_predictions"),
    ("cli", "fit_structure_constants", "algebra.fit_structure_constants"),
    ("engine", "sample_plans", "ensemble.sample_plans"),
    ("engine", "solve_replicates", "ensemble.solve_replicates"),
    ("engine", "fit_distribution", "ensemble.fit_distribution"),
    ("engine", "select_components", "spectral.select_components"),
    ("engine", "calibrate_layer", "featuremap.calibrate_layer"),
    ("engine", "fit_structure_constants", "algebra.fit_structure_constants"),
    ("engine", "maximize", "solver.maximize"),
    ("engine", "log_likelihood", "model.log_likelihood"),
    ("ensemble", "maximize", "solver.maximize"),
    ("solver", "log_likelihood", "model.log_likelihood"),
    ("solver", "gradient", "model.gradient"),
    ("solver", "hessian", "model.hessian"),
    ("featuremap", "Layer.apply", "featuremap.Layer.apply"),
    ("featuremap", "RecursiveFeatureMap.transform", "featuremap.transform"),
)


def _maximize_count(result, args, kwargs):
    # (Newton steps, converged, stopped at the iteration cap). Imported here:
    # run.py puts the program on sys.path after this module is loaded.
    from contilearn.solver import SolverConfig

    config = args[3] if len(args) > 3 else kwargs.get("config")
    max_iters = (config or SolverConfig()).max_iters
    return (result.iterations, result.converged, result.iterations >= max_iters)


def _hessian_count(result, args, kwargs):
    # computed flops of the row product F^T diag(s) F: 2*T*m^2
    t, m = np.shape(args[2])
    return 2 * t * m * m


def _solve_replicates_count(result, args, kwargs):
    return result.n_failed


COUNTS = {
    "solver.maximize": _maximize_count,
    "model.hessian": _hessian_count,
    "ensemble.solve_replicates": _solve_replicates_count,
}


class Tracer:
    """Records spans while installed; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._home: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        count = COUNTS.get(name)
        ids, stacks, home, record = self._ids, self._stacks, self._home, self.spans.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            parent = stack[-1] if stack else (home[-1] if home else -1)
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                record((sid, name, parent, tid, t0, t1, None))
                raise
            t1 = perf_counter()
            stack.pop()
            record((sid, name, parent, tid, t0, t1, count(result, args, kwargs) if count else None))
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._stacks.clear()
        self._home = self._stacks.setdefault(threading.get_ident(), [])
        for module_name, path, span_name in PATCHES:
            owner = importlib.import_module(f"contilearn.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a top-level span named ``name``."""
        return self._wrap(fn, name)(*args)

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def _union_length(intervals) -> float:
    total = 0.0
    end = -np.inf
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def self_seconds(span, children) -> float:
    """Thread-seconds of ``span`` not spent in its child spans.

    On the span's own thread: its interval minus its children there and
    minus the window in which other threads ran children. On each other
    thread that ran children (a pool worker): the interval from its first
    child's start to its last child's end, minus those children. Work a
    worker does before its first or after its last child is not seen.
    """
    _sid, _name, _parent, tid, t0, t1, _count = span
    covered = []
    workers = defaultdict(list)
    for child in children:
        if child[3] == tid:
            covered.append((child[4], child[5]))
        else:
            workers[child[3]].append((child[4], child[5]))
    gaps = 0.0
    for intervals in workers.values():
        first, last = min(i[0] for i in intervals), max(i[1] for i in intervals)
        covered.append((first, last))
        gaps += (last - first) - sum(b - a for a, b in intervals)
    return (t1 - t0) - _union_length(covered) + gaps


def summarize(spans) -> dict:
    """Per-name calls, seconds and self seconds, plus the counters read from return values.

    ``.s`` sums span durations and ``.self_s`` self times over all threads,
    so with the replicate pool either can exceed wall time.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[2]].append(s)
    out: dict = defaultdict(float)
    solver = dict.fromkeys(
        ("replicate_solves", "newton_steps", "converged", "max_iters_hit", "objective_evals"), 0
    )
    for span in spans:
        sid, name, parent, _tid, t0, t1, count = span
        duration = t1 - t0
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += duration
        self_s = self_seconds(span, children[sid])
        out[f"{name}.self_s"] += self_s
        parent_name = by_id[parent][1] if parent in by_id else None
        if name == "solver.maximize" and count is not None:
            steps, converged, capped = count
            solver["newton_steps"] += steps
            solver["converged"] += converged
            solver["max_iters_hit"] += capped
            if parent_name == "ensemble.solve_replicates":
                solver["replicate_solves"] += 1
            elif parent_name == "engine.run":
                out["solver.maximize.full_data.s"] += duration
        elif name == "model.log_likelihood" and parent_name == "solver.maximize":
            solver["objective_evals"] += 1
        elif name == "model.hessian" and count is not None:
            out["model.hessian.flops"] += count
        elif name == "ensemble.solve_replicates" and count is not None:
            out["ensemble.replicates_failed"] += count
        if parent == -1:
            out["cli.unattributed_s"] += self_s
    for key, value in solver.items():
        out[f"solver.{key}"] = value
    return dict(out)


def write_spans(path, spans, label: str) -> None:
    """Append spans to a gzip file as tab-separated lines.

    Columns: label, id, name, parent id (-1 for a top-level span), thread,
    start, end (perf_counter seconds), count read from the return value.
    """
    with gzip.open(path, "at", compresslevel=1, encoding="utf-8") as fh:
        for sid, name, parent, tid, t0, t1, count in spans:
            fh.write(f"{label}\t{sid}\t{name}\t{parent}\t{tid}\t{t0:.9f}\t{t1:.9f}\t{count}\n")
