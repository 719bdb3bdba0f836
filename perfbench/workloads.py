"""Seeded inputs of the three benchmark workloads.

Every workload is an endless, deterministic stream of CLI invocations ("ops")
cut into cycles of fixed structure. Op ``i`` of a workload depends only on the
workload seed and ``i``, so a run, its traced replay and the reference
recorder all see the same inputs. A run holds a whole number of cycles that
depends only on ``--seconds`` (``Workload.cycles_for``), never on how fast the
program runs, so two commits are always timed on the same ops.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

CHANNELS = ("depolarizing", "amplitude-damping", "phase-damping")

# Entries that an X-state (non-zero only on the diagonal and anti-diagonal)
# keeps at zero.
_OFF_X = np.array([[i != j and i + j != 3 for j in range(4)] for i in range(4)])
X_TOL = 1e-12
# Generated non-X inputs keep an off-X entry at least this large, so they stay
# clearly outside X form after the CLI's 17-digit JSON round trip.
NON_X_MARGIN = 1e-3

# States per sample-mems op: the largest n at which a 24-second run still
# holds more than 10 ops of each channel, so the tail (the 11th-slowest op)
# comes from the slow end of the run, not from its middle. ROADMAP's figure
# is n=1000, one op per 12-21 s; NOTES.md compares the two.
MEMS_STATES_PER_OP = 30
MEMS_TOL = 1e-6
THRESHOLDS_TOL = 1e-9
# One dense-scan cycle, the same positions in every cycle, (rows, channel,
# X form): one 10^5-row depolarizing non-X scan (the largest Kraus stack, so
# every run reaches the same peak RSS), ten 10^4-row scans (four depolarizing
# non-X ones, the slowest kind, and one of every other channel and form),
# twenty-four 1001-row scans over every channel and form, and one werner-map.
# At 24 seconds a run holds 4 cycles. Two thirds of the ops are 1001-row
# scans, so the median op sits well inside that group (not at its slow edge)
# and p50 measures per-call overhead. The ten slowest ops are the four 10^5-row
# scans and six of the sixteen depolarizing non-X 10^4-row scans, so the tail
# (the 11th-slowest op) sits in the middle of those sixteen like ops, not at
# the edge of a small group; memory-bound scans vary by about 10% from op to
# op, and a middle order statistic averages that out. The 10^5-row scans
# dominate throughput.
_COMBOS = [(ch, x) for x in (False, True) for ch in CHANNELS]
SCAN_CYCLE = (
    [(100_000, "depolarizing", False)]
    + [(10_000, "depolarizing", False)] * 3
    + [(10_000, ch, x) for ch, x in _COMBOS]
    + [(1001, ch, x) for ch, x in _COMBOS * 4]
)
MAP_GRID = 201

_WORKLOAD_TAG = {"mems-hierarchy": 1, "general-thresholds": 2, "dense-scan": 3}


@dataclass
class Op:
    """One CLI invocation with what the correctness gate needs to judge it."""

    index: int
    kind: str  # "sample-mems", "thresholds", "scan" or "werner-map"
    argv: list[str]
    units: int  # work units a correct run of the op delivers
    channel: str | None = None
    out: str | None = None  # output file; None when the output is stdout
    spec: str | None = None  # state spec passed to the CLI
    input_file: tuple[str, str] | None = None  # (path, JSON text) to write first
    params: dict = field(default_factory=dict)

    def prepare(self) -> None:
        """Write the op's input file, if it has one."""
        if self.input_file is not None:
            path, text = self.input_file
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def is_x_form(mat: np.ndarray) -> bool:
    return bool(np.max(np.abs(np.asarray(mat)[_OFF_X])) <= X_TOL)


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([_WORKLOAD_TAG[workload], seed, index + 1])


def _su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) from a uniform unit quaternion (no LAPACK involved)."""
    a, b, c, d = rng.standard_normal(4)
    norm = np.sqrt(a * a + b * b + c * c + d * d)
    a, b, c, d = a / norm, b / norm, c / norm, d / norm
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def _simplex_desc(rng: np.random.Generator) -> np.ndarray:
    cuts = np.sort(rng.uniform(size=3))
    return np.sort(np.diff(np.concatenate(([0.0], cuts, [1.0]))))[::-1]


_SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
_MEMS_KETS = (
    _SINGLET,
    np.array([1, 0, 0, 0], dtype=complex),
    np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0),
    np.array([0, 0, 0, 1], dtype=complex),
)


def _werner_mat(p: float) -> np.ndarray:
    return (1.0 - p) / 4.0 * np.eye(4) + p * np.outer(_SINGLET, _SINGLET.conj())


def _mems_mat(w: np.ndarray) -> np.ndarray:
    return sum(wk * np.outer(k, k.conj()) for wk, k in zip(w, _MEMS_KETS))


def _normalise(mat: np.ndarray) -> np.ndarray:
    mat = 0.5 * (mat + mat.conj().T)
    return mat / np.trace(mat).real


def non_x_state(rng: np.random.Generator, kind: int) -> np.ndarray:
    """A seeded non-X state: a Werner (kind 0) or MEMS (kind 1) state under a
    random local unitary U_A x U_B, or a random full-rank state (kind 2)."""
    while True:
        if kind == 2:
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            mat = g @ g.conj().T
        else:
            base = _werner_mat(rng.uniform(0.35, 1.0)) if kind == 0 else _mems_mat(
                _simplex_desc(rng)
            )
            u = np.kron(_su2(rng), _su2(rng))
            mat = u @ base @ u.conj().T
        mat = _normalise(mat)
        if np.max(np.abs(mat[_OFF_X])) > NON_X_MARGIN:
            return mat


def x_spec(rng: np.random.Generator, kind: int) -> str:
    """A seeded X-state spec: Werner (kind 0), MEMS (kind 1) or the singlet."""
    if kind == 0:
        return f"werner:p={rng.uniform(0.35, 1.0)!r}"
    if kind == 1:
        w = _simplex_desc(rng)
        return "mems:" + ",".join(f"p{k + 1}={float(v)!r}" for k, v in enumerate(w))
    return "bell:singlet"


def state_json(mat: np.ndarray) -> str:
    return json.dumps({"re": np.real(mat).tolist(), "im": np.imag(mat).tolist()})


class Workload:
    """A named op stream; ``cycle(seed, c)`` returns the ops of cycle c."""

    name: str
    unit: str
    cycle_len: int
    # Scaled op time of one cycle at the seed commit on the reference machine.
    # It only converts --seconds into a fixed cycle count.
    cycle_s: float

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cycles_for(self, seconds: float) -> int:
        """Cycles in a run of ``seconds``: fixed by the argument alone."""
        return max(1, round(seconds / self.cycle_s))

    def cycle(self, seed: int, c: int) -> list[Op]:
        return [self.op(seed, c * self.cycle_len + k) for k in range(self.cycle_len)]

    def op(self, seed: int, index: int) -> Op:
        raise NotImplementedError

    def warmup(self, seed: int) -> Op:
        raise NotImplementedError


class MemsHierarchy(Workload):
    """The paper's experiment: ``sample-mems`` once per channel, round robin."""

    name = "mems-hierarchy"
    unit = "accepted states"
    cycle_len = len(CHANNELS)
    cycle_s = 1.5

    def _sample(self, seed: int, index: int, n: int, out: str) -> Op:
        channel = CHANNELS[index % len(CHANNELS)]
        run_seed = int(_rng(self.name, seed, index).integers(0, 2**31 - 1))
        argv = ["sample-mems", "--n", str(n), "--seed", str(run_seed),
                "--channel", channel, "--tol", repr(MEMS_TOL), "--out", out]
        return Op(index, "sample-mems", argv, n, channel=channel, out=out,
                  params={"n": n, "tol": MEMS_TOL})

    def op(self, seed: int, index: int) -> Op:
        return self._sample(seed, index, MEMS_STATES_PER_OP, self.path("mems.csv"))

    def warmup(self, seed: int) -> Op:
        return self._sample(seed, -1, 1, self.path("warmup.csv"))


class GeneralThresholds(Workload):
    """``thresholds --state file:<json> --tol 1e-9`` on seeded non-X states."""

    name = "general-thresholds"
    unit = "threshold calls"
    cycle_len = len(CHANNELS)
    cycle_s = 0.09

    def op(self, seed: int, index: int) -> Op:
        rng = _rng(self.name, seed, index)
        mat = non_x_state(rng, (0, 0, 1, 1, 2)[index % 5])
        channel = CHANNELS[index % len(CHANNELS)]
        path = self.path("state.json" if index >= 0 else "warmup.json")
        spec = f"file:{path}"
        argv = ["thresholds", "--state", spec, "--channel", channel,
                "--tol", repr(THRESHOLDS_TOL)]
        return Op(index, "thresholds", argv, 1, channel=channel, spec=spec,
                  input_file=(path, state_json(mat)), params={"tol": THRESHOLDS_TOL})

    def warmup(self, seed: int) -> Op:
        return self.op(seed, -1)


class DenseScan(Workload):
    """``scan --steps G`` with G up to 10^5, plus one large ``werner-map``."""

    name = "dense-scan"
    unit = "CSV rows"
    cycle_len = len(SCAN_CYCLE) + 1
    cycle_s = 6.0

    def _scan(self, seed: int, index: int, steps: int, channel: str, x_form: bool) -> Op:
        rng = _rng(self.name, seed, index)
        input_file = None
        if x_form:
            spec = x_spec(rng, (0, 1, 0, 1, 2)[(index // 2) % 5])
        else:
            path = self.path("state.json" if index >= 0 else "warmup.json")
            spec = f"file:{path}"
            input_file = (path, state_json(non_x_state(rng, (index // 2) % 3)))
        argv = ["scan", "--state", spec, "--channel", channel, "--steps", str(steps)]
        return Op(index, "scan", argv, steps, channel=channel, spec=spec,
                  input_file=input_file, params={"steps": steps})

    def op(self, seed: int, index: int) -> Op:
        k = index % self.cycle_len
        if k == len(SCAN_CYCLE):
            out = self.path("map.csv")
            argv = ["werner-map", "--grid", str(MAP_GRID), "--out", out]
            return Op(index, "werner-map", argv, MAP_GRID * MAP_GRID, out=out,
                      params={"grid": MAP_GRID})
        return self._scan(seed, index, *SCAN_CYCLE[k])

    def warmup(self, seed: int) -> Op:
        return self._scan(seed, -1, 1001, "depolarizing", False)


WORKLOADS = {w.name: w for w in (MemsHierarchy, GeneralThresholds, DenseScan)}


def largest_stacks() -> dict:
    """Byte sizes of the biggest dense-scan arrays, computed from their shapes."""
    g = max(steps for steps, _, _ in SCAN_CYCLE)
    return {
        "scan_rows": g,
        "evolved_stack_bytes": g * 4 * 4 * 16,
        "depolarizing_kraus_stack_bytes": g * 4 * 4 * 4 * 16,
    }
