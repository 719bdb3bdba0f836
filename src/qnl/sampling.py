"""Seeded Monte-Carlo generation of MEMS and the hierarchy-gap experiment.

Weights are drawn uniformly on the 3-simplex (sorted spacings of three
uniforms) and sorted descending. States whose numeric teleportation fidelity
exceeds the Gisin bound are kept; each kept state gets a full threshold set
and the gaps q_B - q_G, q_F - q_B, q_C - q_F. A gap touching an absent
threshold is itself absent.

The draw sequence is generated single-threaded from the seed, so a given
configuration always reproduces the same record list bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .errors import RejectionStall
from .measures import GISIN_BOUND, correlation_measures, correlation_singvals_stack
from .states import DensityMatrix, MemsWeights, mems, mems_projectors
from .thresholds import ThresholdSet, threshold_set

MAX_DRAWS = 10**9
_DRAW_BLOCK = 4096

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


@dataclass(frozen=True)
class HierarchyRecord:
    weights: MemsWeights
    thresholds: ThresholdSet
    gaps: tuple[float | None, float | None, float | None] | None = None

    def __post_init__(self) -> None:
        if self.gaps is None:
            object.__setattr__(self, "gaps", gaps_of(self.thresholds))


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


def sample_weights(rng: np.random.Generator) -> MemsWeights:
    """One uniform draw on the descending 3-simplex."""
    return MemsWeights(*_draw_weights(rng, 1)[0])


def _mems_stack(weights: np.ndarray) -> np.ndarray:
    """Build MEMS matrices (N, 4, 4) from descending weight rows (N, 4)."""
    return np.einsum("nk,kij->nij", weights, mems_projectors())


def _fidelity_of_weights(weights: np.ndarray) -> np.ndarray:
    return correlation_measures(correlation_singvals_stack(_mems_stack(weights)))[1]


def sample_mems_above_gisin(
    cfg: SamplerConfig,
) -> Iterator[tuple[DensityMatrix, MemsWeights]]:
    """Yield exactly cfg.n_states MEMS whose fidelity exceeds the Gisin bound.

    Rejection sampling in draw order; raises RejectionStall if the accept
    count would require more than MAX_DRAWS draws.
    """
    rng = np.random.default_rng(cfg.seed)
    accepted = 0
    drawn = 0
    while accepted < cfg.n_states:
        block = min(_DRAW_BLOCK, MAX_DRAWS - drawn)
        if block <= 0:
            raise RejectionStall(
                f"exceeded {MAX_DRAWS} draws with only {accepted} acceptances"
            )
        weights = _draw_weights(rng, block)
        drawn += block
        keep = _fidelity_of_weights(weights) > GISIN_BOUND
        for row in weights[keep]:
            w = MemsWeights(*row)
            yield mems(w), w
            accepted += 1
            if accepted == cfg.n_states:
                return


def hierarchy_experiment(cfg: SamplerConfig) -> list[HierarchyRecord]:
    """Threshold sets and gaps for cfg.n_states accepted MEMS, in draw order."""
    records = []
    for rho, w in sample_mems_above_gisin(cfg):
        ts = threshold_set(rho, cfg.channel, cfg.tol)
        records.append(HierarchyRecord(weights=w, thresholds=ts))
    return records


def _cell(value: float | None) -> str:
    return "" if value is None else format(value, ".12g")


def write_records_csv(records: list[HierarchyRecord], fh: TextIO) -> None:
    """Write records as CSV with LF endings; absent values are empty cells."""
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        ts = rec.thresholds
        cells = [
            _cell(rec.weights.p1),
            _cell(rec.weights.p2),
            _cell(rec.weights.p3),
            _cell(rec.weights.p4),
            _cell(ts.q_g),
            _cell(ts.q_b),
            _cell(ts.q_f),
            _cell(ts.q_c),
            _cell(rec.gaps[0]),
            _cell(rec.gaps[1]),
            _cell(rec.gaps[2]),
        ]
        fh.write(",".join(cells) + "\n")
