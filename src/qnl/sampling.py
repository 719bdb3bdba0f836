"""Seeded Monte-Carlo generation of MEMS and the hierarchy-gap experiment.

Weights are drawn uniformly on the 3-simplex (sorted spacings of three
uniforms) and sorted descending. States whose teleportation fidelity exceeds
the Gisin bound are kept; each kept state gets a full threshold set and the
gaps q_B - q_G, q_F - q_B, q_C - q_F. A gap touching an absent threshold is
itself absent. MEMS are X-states, so the filter and the threshold sets use
the closed-form X entries rather than the general Kraus pipeline.

The draw sequence is generated single-threaded from the seed, so a given
configuration always reproduces the same record list bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .channels import channel_family
from .errors import RejectionStall
from .measures import GISIN_BOUND, correlation_measures, x_singvals
from .measures import correlation_singvals_stack  # noqa: F401  (benchmark traces this name here)
from .states import DensityMatrix, MemsWeights, mems
from .thresholds import ThresholdSet, _check_tol, x_threshold_sets
from .thresholds import threshold_set  # noqa: F401  (benchmark traces this name here)

MAX_DRAWS = 10**9
# Weights are drawn in blocks that double from _DRAW_BLOCK to _MAX_DRAW_BLOCK:
# about 3% of draws are accepted, so a few dozen states take one or two small
# blocks and many states take large ones. Any block schedule consumes the one
# uniform stream in the same order, so the accepted weights do not depend on it.
_DRAW_BLOCK = 1024
_MAX_DRAW_BLOCK = 4096

CSV_COLUMNS = ("p1", "p2", "p3", "p4", "q_G", "q_B", "q_F", "q_C",
               "gap_GB", "gap_BF", "gap_FC")


@dataclass(frozen=True)
class SamplerConfig:
    n_states: int
    seed: int
    channel: str = "amplitude-damping"
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {self.n_states}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Checked here, not after the draws of the experiment.
        channel_family(self.channel)
        _check_tol(self.tol)


@dataclass(frozen=True)
class HierarchyRecord:
    weights: MemsWeights
    thresholds: ThresholdSet

    @property
    def gaps(self) -> tuple[float | None, float | None, float | None]:
        return gaps_of(self.thresholds)


def _gap(later: float | None, earlier: float | None) -> float | None:
    if later is None or earlier is None:
        return None
    return later - earlier


def gaps_of(ts: ThresholdSet) -> tuple[float | None, float | None, float | None]:
    """(q_B - q_G, q_F - q_B, q_C - q_F) with absent operands giving None."""
    return (_gap(ts.q_b, ts.q_g), _gap(ts.q_f, ts.q_b), _gap(ts.q_c, ts.q_f))


def _draw_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform draws on the descending 3-simplex, rows (n, 4)."""
    cuts = np.sort(rng.uniform(size=(n, 3)), axis=1)
    spacings = np.diff(cuts, axis=1, prepend=0.0, append=1.0)
    return np.sort(spacings, axis=1)[:, ::-1]


def _mems_entries(weights: np.ndarray) -> np.ndarray:
    """X entries (6, N) of MEMS from weight rows (N, 4), in closed form.

    A MEMS is the X-state with rho11 = p2, rho22 = rho33 = (p1 + p3)/2,
    rho44 = p4, rho14 = 0 and |rho23| = |p1 - p3|/2.
    """
    p1, p2, p3, p4 = weights.T
    half = 0.5 * (p1 + p3)
    return np.stack([p2, half, half, p4, np.zeros_like(p1), 0.5 * np.abs(p1 - p3)])


def _fidelity_of_weights(weights: np.ndarray) -> np.ndarray:
    """Teleportation fidelity of MEMS from weight rows (N, 4), in closed form."""
    return correlation_measures(x_singvals(_mems_entries(weights)))[1]


def _accepted_weights(cfg: SamplerConfig) -> np.ndarray:
    """Weight rows (cfg.n_states, 4) of the MEMS whose fidelity exceeds the Gisin bound.

    Rejection sampling in draw order; raises RejectionStall if the accept
    count would require more than MAX_DRAWS draws.
    """
    rng = np.random.default_rng(cfg.seed)
    kept = []
    accepted = drawn = 0
    size = _DRAW_BLOCK
    while accepted < cfg.n_states:
        block = min(size, MAX_DRAWS - drawn)
        if block <= 0:
            raise RejectionStall(
                f"exceeded {MAX_DRAWS} draws with only {accepted} acceptances"
            )
        weights = _draw_weights(rng, block)
        drawn += block
        kept.append(weights[_fidelity_of_weights(weights) > GISIN_BOUND])
        accepted += len(kept[-1])
        size = min(2 * size, _MAX_DRAW_BLOCK)
    return np.concatenate(kept)[:cfg.n_states]


def sample_mems_above_gisin(cfg: SamplerConfig) -> Iterator[tuple[DensityMatrix, MemsWeights]]:
    """Yield (state, weights) of cfg.n_states MEMS above the Gisin bound, in draw order."""
    for row in _accepted_weights(cfg):
        w = MemsWeights(*row)
        yield mems(w), w


def hierarchy_experiment(cfg: SamplerConfig) -> list[HierarchyRecord]:
    """Threshold sets and gaps for cfg.n_states accepted MEMS, in draw order.

    Every MEMS is an X-state, so all of them are located at once on the
    closed-form X path (``x_threshold_sets``), straight from their weights.
    """
    weights = _accepted_weights(cfg)
    found = x_threshold_sets(_mems_entries(weights), cfg.channel, cfg.tol)
    return [HierarchyRecord(MemsWeights(*row), ts) for row, ts in zip(weights, found)]


def _cell(value: float | None) -> str:
    return "" if value is None else format(value, ".12g")


def write_records_csv(records: list[HierarchyRecord], fh: TextIO) -> None:
    """Write records as CSV with LF endings; absent values are empty cells."""
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        ts = rec.thresholds
        values = (*rec.weights.as_tuple(), ts.q_g, ts.q_b, ts.q_f, ts.q_c, *rec.gaps)
        fh.write(",".join(_cell(v) for v in values) + "\n")
