"""Span tracing from outside the program, and the per-layer metrics.

The qnl modules import each other's functions by name, so a wrapper only
records anything when it replaces the name where the caller looks it up:
``qnl.thresholds.evolve_grid``, not ``qnl.channels.evolve_grid``. ``TARGETS``
lists every (module, attribute) pair the benchmark wraps and the span kind it
records. Spans are kept in memory as flat arrays with a parent index and can
be written out once the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# A call with at least this many rows is a batch (pre-scan, sampler block,
# scan); fewer rows is a point call (bisection step, tail check).
BATCH_ROWS = 16

# Kraus operators per family, for the computed bytes of ``evolve_grid``.
_KRAUS_OPS = {"amplitude-damping": 2, "phase-damping": 2, "depolarizing": 4}


def _rows_first(args, kwargs) -> int:
    return int(np.shape(args[0])[0])


def _rows_grid(args, kwargs) -> int:
    return int(np.size(args[2]))


def _one(args, kwargs) -> int:
    return 1


def _evolve_bytes(args, kwargs) -> int:
    """Kraus stack (Q, k, 4, 4) plus the evolved stack (Q, 4, 4), complex128."""
    q = np.size(args[2])
    return int(q * (_KRAUS_OPS.get(args[1], 0) * 256 + 256))


# (module, attribute, span kind, rows, computed bytes)
TARGETS = (
    ("qnl.thresholds", "evolve_grid", "channels.evolve", _rows_grid, _evolve_bytes),
    ("qnl.thresholds", "wootters_roots_stack", "measures.wootters", _rows_first, None),
    ("qnl.thresholds", "correlation_singvals_stack", "measures.corr_svd", _rows_first, None),
    ("qnl.sampling", "correlation_singvals_stack", "measures.corr_svd", _rows_first, None),
    ("qnl.measures", "psd_sqrt_stack", "linalg.psd_sqrt", _rows_first, None),
    ("qnl.thresholds", "threshold_set", "thresholds.set", _one, None),
    ("qnl.sampling", "threshold_set", "thresholds.set", _one, None),
    ("qnl.thresholds", "scan", "thresholds.scan", _rows_grid, None),
    ("qnl.thresholds", "werner_region", "thresholds.region", _one, None),
    ("qnl.thresholds", "concurrence_ad", "werner_analytic", _one, None),
    ("qnl.thresholds", "fidelity_ad", "werner_analytic", _one, None),
    ("qnl.thresholds", "bell_ad", "werner_analytic", _one, None),
    ("qnl.sampling", "hierarchy_experiment", "sampling.experiment", _one, None),
    ("qnl.sampling", "_fidelity_of_weights", "sampling.filter", _rows_first, None),
    ("qnl.sampling", "mems", "states.construct", _one, None),
    ("qnl.states", "mems", "states.construct", _one, None),
    ("qnl.states", "werner", "states.construct", _one, None),
    ("qnl.states", "bell_singlet", "states.construct", _one, None),
    ("qnl.states", "load_state", "states.construct", _one, None),
)
# Wrapped specially: a generator timed per ``next()``, and the CSV writer
# whose byte count is read from the file position.
DRAW = ("qnl.sampling", "sample_mems_above_gisin", "sampling.draw")
CSV = ("qnl.sampling", "write_records_csv", "sampling.csv")
ROOT = "cli"

KINDS = tuple(dict.fromkeys([ROOT] + [t[2] for t in TARGETS] + [DRAW[2], CSV[2]]))


class Tracer:
    """Flat in-memory span store: kind, parent, start, end, rows, bytes."""

    def __init__(self) -> None:
        self.kind = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.nbytes = array("q")
        self._stack: list[int] = []
        self._kind_id = {k: i for i, k in enumerate(KINDS)}

    def __len__(self) -> int:
        return len(self.kind)

    def open(self, kind: str, rows: int = 1, nbytes: int = 0) -> int:
        idx = len(self.kind)
        self.kind.append(self._kind_id[kind])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rows.append(rows)
        self.nbytes.append(nbytes)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def note(self, idx: int, rows: int | None = None, nbytes: int | None = None) -> None:
        """Fill in a count that is only known once the call has returned."""
        if rows is not None:
            self.rows[idx] = rows
        if nbytes is not None:
            self.nbytes[idx] = nbytes

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int8).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, kinds=np.array(KINDS), **self.arrays())


def _wrap(tracer: Tracer, kind: str, fn, rows_of, bytes_of):
    def traced(*args, **kwargs):
        idx = tracer.open(kind, rows_of(args, kwargs),
                          bytes_of(args, kwargs) if bytes_of else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def _wrap_draw(tracer: Tracer, fn):
    """Time each ``next()`` of the sampler generator as one draw span."""

    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)

        def draws():
            while True:
                idx = tracer.open(DRAW[2], rows=0)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.note(idx, rows=1)  # this draw yielded an accepted state
                yield item

        return draws()

    return traced


def _wrap_csv(tracer: Tracer, fn):
    def traced(records, fh):
        before = fh.tell()
        idx = tracer.open(CSV[2], len(records))
        try:
            return fn(records, fh)
        finally:
            tracer.close(idx)
            tracer.note(idx, nbytes=fh.tell() - before)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []
    try:
        for mod_name, attr, kind, rows_of, bytes_of in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, kind, fn, rows_of, bytes_of))
        for (mod_name, attr, _), make in ((DRAW, _wrap_draw), (CSV, _wrap_csv)):
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, make(tracer, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so the children of a span never overlap and
    their durations add up to the part of the parent's interval they cover.
    """
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def _kind_mask(arr: dict, kind: str) -> np.ndarray:
    return arr["kind"] == KINDS.index(kind)


def ancestors_of_kind(arr: dict, kind: str) -> np.ndarray:
    """Boolean mask of spans that have an ancestor of the given kind."""
    target = _kind_mask(arr, kind)
    parent = arr["parent"]
    inside = np.zeros(len(parent), dtype=bool)
    # Parents always precede their children, so one forward pass suffices.
    for i, p in enumerate(parent):
        if p >= 0 and (target[p] or inside[p]):
            inside[i] = True
    return inside


def layer_metrics(arr: dict, n_ops: int) -> dict[str, float]:
    """Per-layer metrics per op; every ``_s`` metric is a self time."""
    own = self_times(arr["parent"], arr["start"], arr["end"])
    rows = arr["rows"]
    batch = rows >= BATCH_ROWS
    per = 1.0 / max(n_ops, 1)

    def sel(kind: str, extra=None) -> np.ndarray:
        m = _kind_mask(arr, kind)
        return m if extra is None else m & extra

    def s(kind, extra=None):
        return float(own[sel(kind, extra)].sum()) * per

    def calls(kind, extra=None):
        return int(sel(kind, extra).sum()) * per

    def nrows(kind, extra=None):
        return int(rows[sel(kind, extra)].sum()) * per

    point = ~batch
    n_set = int(sel("thresholds.set").sum())
    in_set = ancestors_of_kind(arr, "thresholds.set") if n_set else None
    set_points = int(sel("channels.evolve", point & in_set).sum()) if n_set else 0
    draw_rows = int(rows[sel("sampling.filter")].sum())
    accepted = int(rows[sel("sampling.draw")].sum())
    return {
        "channels.evolve_batch_s": s("channels.evolve", batch),
        "channels.evolve_batch_rows": nrows("channels.evolve", batch),
        "channels.evolve_point_s": s("channels.evolve", point),
        "channels.evolve_point_calls": calls("channels.evolve", point),
        "channels.evolve_computed_bytes": float(arr["nbytes"][sel("channels.evolve")].sum()) * per,
        "measures.wootters_batch_s": s("measures.wootters", batch),
        "measures.wootters_batch_rows": nrows("measures.wootters", batch),
        "measures.wootters_point_s": s("measures.wootters", point),
        "measures.wootters_point_calls": calls("measures.wootters", point),
        "measures.corr_svd_batch_s": s("measures.corr_svd", batch),
        "measures.corr_svd_batch_rows": nrows("measures.corr_svd", batch),
        "measures.corr_svd_point_s": s("measures.corr_svd", point),
        "measures.corr_svd_point_calls": calls("measures.corr_svd", point),
        "linalg.psd_sqrt_batch_s": s("linalg.psd_sqrt", batch),
        "linalg.psd_sqrt_point_s": s("linalg.psd_sqrt", point),
        "thresholds.set_calls": calls("thresholds.set"),
        "thresholds.set_self_s": s("thresholds.set"),
        "thresholds.point_calls_per_set": set_points / n_set if n_set else 0.0,
        "thresholds.scan_self_s": s("thresholds.scan"),
        "thresholds.region_calls": calls("thresholds.region"),
        "thresholds.region_self_s": s("thresholds.region"),
        "sampling.experiment_self_s": s("sampling.experiment"),
        "sampling.draw_self_s": s("sampling.draw"),
        "sampling.filter_s": s("sampling.filter"),
        "sampling.draw_rows": draw_rows * per,
        "sampling.accepted": accepted * per,
        "sampling.accept_ratio": accepted / draw_rows if draw_rows else 0.0,
        "sampling.csv_s": s("sampling.csv"),
        "sampling.csv_bytes": float(arr["nbytes"][sel("sampling.csv")].sum()) * per,
        "states.construct_s": s("states.construct"),
        "states.construct_calls": calls("states.construct"),
        "werner_analytic.calls": calls("werner_analytic"),
        "werner_analytic.s": s("werner_analytic"),
        "cli.self_s": s(ROOT),
    }


def reported_self_s(metrics: dict[str, float]) -> float:
    """Sum of the per-op self-time metrics ``layer_metrics`` reports.

    Every span kind must feed exactly one of them, so this equals the traced
    wall time per op; a kind without a metric leaves a gap.
    """
    return sum(v for k, v in metrics.items()
               if UNITS.get(k) == "s/op" and not k.startswith("trace."))


def covers(reported_s: float, wall_s: float) -> bool:
    """Whether the reported self times add up to the traced wall time."""
    return abs(reported_s - wall_s) <= 1e-6 * wall_s


def ledger(arr: dict) -> dict[str, dict]:
    """Calls, rows and self time per span kind, split into batch and point."""
    own = self_times(arr["parent"], arr["start"], arr["end"])
    out = {}
    for k, kind in enumerate(KINDS):
        m = arr["kind"] == k
        if m.any():
            out[kind] = {
                "calls": int(m.sum()),
                "batch_calls": int((m & (arr["rows"] >= BATCH_ROWS)).sum()),
                "rows": int(arr["rows"][m].sum()),
                "self_s": float(own[m].sum()),
            }
    return out


# Units of the per-layer metrics, in the order BENCHMARK.json lists them.
UNITS = {
    "channels.evolve_batch_s": "s/op",
    "channels.evolve_batch_rows": "rows/op",
    "channels.evolve_point_s": "s/op",
    "channels.evolve_point_calls": "calls/op",
    "channels.evolve_computed_bytes": "B/op",
    "measures.wootters_batch_s": "s/op",
    "measures.wootters_batch_rows": "rows/op",
    "measures.wootters_point_s": "s/op",
    "measures.wootters_point_calls": "calls/op",
    "measures.corr_svd_batch_s": "s/op",
    "measures.corr_svd_batch_rows": "rows/op",
    "measures.corr_svd_point_s": "s/op",
    "measures.corr_svd_point_calls": "calls/op",
    "linalg.psd_sqrt_batch_s": "s/op",
    "linalg.psd_sqrt_point_s": "s/op",
    "thresholds.set_calls": "calls/op",
    "thresholds.set_self_s": "s/op",
    "thresholds.point_calls_per_set": "calls/set",
    "thresholds.scan_self_s": "s/op",
    "thresholds.region_calls": "calls/op",
    "thresholds.region_self_s": "s/op",
    "sampling.experiment_self_s": "s/op",
    "sampling.draw_self_s": "s/op",
    "sampling.filter_s": "s/op",
    "sampling.draw_rows": "rows/op",
    "sampling.accepted": "states/op",
    "sampling.accept_ratio": "ratio",
    "sampling.csv_s": "s/op",
    "sampling.csv_bytes": "B/op",
    "states.construct_s": "s/op",
    "states.construct_calls": "calls/op",
    "werner_analytic.calls": "calls/op",
    "werner_analytic.s": "s/op",
    "cli.self_s": "s/op",
    "cli.bytes_out": "B/op",
    "trace.wall_s": "s/op",
    "trace.overhead_s": "s/op",
}
