"""Seeded Monte-Carlo generation of MEMS and the hierarchy-gap experiment.

Weights are drawn uniformly on the 3-simplex (sorted spacings of three
uniforms) and sorted descending. States whose teleportation fidelity exceeds
the Gisin bound are kept; each kept state gets a full threshold set and the
gaps q_B - q_G, q_F - q_B, q_C - q_F. A gap touching an absent threshold is
itself absent. MEMS are X-states, so the filter and the threshold sets use
the closed-form X entries rather than the general Kraus pipeline. The
experiment stays in arrays from the draw to the CSV: one ``HierarchyResult``
holds the weights and thresholds of all accepted states as columns.

The draw sequence is generated single-threaded from the seed, so a given
configuration always reproduces the same result, and the same CSV bytes, bit
for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .channels import channel_family
from .errors import RejectionStall
from .measures import GISIN_BOUND
from .measures import correlation_singvals_stack  # noqa: F401  (benchmark traces this name here)
from .states import DensityMatrix, MemsWeights, mems
from .thresholds import _BLOCK_POINTS, _check_tol, ordered, x_thresholds
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
        for name in ("n_states", "seed"):  # numpy integers too, never a float
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {self.n_states}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Checked here, not after the draws of the experiment.
        channel_family(self.channel)
        _check_tol(self.tol)


@dataclass(frozen=True, eq=False)
class HierarchyResult:
    """The accepted MEMS of one experiment, in draw order, as read-only columns.

    ``weights`` (n, 4) holds p1..p4 and ``thresholds`` (n, 4) q_G, q_B, q_F,
    q_C, with NaN where a correlation survives all noise.
    """

    weights: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self) -> None:
        self.weights.setflags(write=False)
        self.thresholds.setflags(write=False)

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def gaps(self) -> np.ndarray:
        """(q_B - q_G, q_F - q_B, q_C - q_F) per row (n, 3), NaN where an operand is absent."""
        return np.diff(self.thresholds, axis=1)

    @property
    def ordered(self) -> np.ndarray:
        """``hierarchy_check`` of each row (n,): q_G <= q_B <= q_F <= q_C, NaN as +infinity."""
        return ordered(self.thresholds)


def _draw_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform draws on the descending 3-simplex, rows (n, 4).

    Compare-exchange networks sort the three uniforms ascending (3 exchanges)
    and their four spacings descending (5 exchanges): the values of row-wise
    sorts, without a sort's cost per row.
    """
    a, b, c = rng.uniform(size=(n, 3)).T
    a, b = np.minimum(a, b), np.maximum(a, b)
    b, c = np.minimum(b, c), np.maximum(b, c)
    a, b = np.minimum(a, b), np.maximum(a, b)
    w = [a, b - a, c - b, 1.0 - c]
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        w[i], w[j] = np.maximum(w[i], w[j]), np.minimum(w[i], w[j])
    return np.stack(w, axis=1)


def _mems_entries(weights: np.ndarray) -> np.ndarray:
    """X entries (6, N) of MEMS from weight rows (N, 4), in closed form.

    A MEMS is the X-state with rho11 = p2, rho22 = rho33 = (p1 + p3)/2,
    rho44 = p4, rho14 = 0 and |rho23| = |p1 - p3|/2.
    """
    p1, p2, p3, p4 = weights.T
    half = 0.5 * (p1 + p3)
    return np.stack([p2, half, half, p4, np.zeros_like(p1), 0.5 * np.abs(p1 - p3)])


def _fidelity_of_weights(weights: np.ndarray) -> np.ndarray:
    """Teleportation fidelity of MEMS from weight rows (N, 4), in closed form.

    The float operations of its reference, ``tests/oracles.py::mems_fidelity``,
    in their order, on the columns alone: with |rho14| = 0 the singular values
    are xy = 2|rho23| (twice) and zz = |rho11 - rho22 - rho33 + rho44|, and N
    adds them from the largest first.
    """
    p1, p2, p3, p4 = weights.T
    half = 0.5 * (p1 + p3)
    xy = 2.0 * (0.5 * np.abs(p1 - p3))
    zz = np.abs(p2 - half - half + p4)
    n = xy + np.maximum(xy, zz) + np.minimum(xy, zz)
    return 0.5 * (1.0 + n / 3.0)


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


def hierarchy_experiment(cfg: SamplerConfig) -> HierarchyResult:
    """Threshold sets of cfg.n_states accepted MEMS, in draw order, as columns.

    Every MEMS is an X-state, so all of them are located at once on the
    closed-form X path (``x_thresholds``), straight from their weights.
    """
    weights = _accepted_weights(cfg)
    return HierarchyResult(weights, x_thresholds(_mems_entries(weights), cfg.channel, cfg.tol))


def csv_blocks(*columns: np.ndarray) -> Iterator[str]:
    """CSV text, LF endings, of the rows of column arrays (n, m_i) side by side.

    Every cell is ``%.12g`` of its float, the bytes of ``format(v, ".12g")``.
    Rows are formatted with one ``%`` per _BLOCK_POINTS of them and yielded a
    block at a time, so the text held in memory does not grow with n.
    """
    row = ",".join(["%.12g"] * sum(c.shape[1] for c in columns)) + "\n"
    for k in range(0, len(columns[0]), _BLOCK_POINTS):
        cells = np.hstack([c[k:k + _BLOCK_POINTS] for c in columns])
        yield (row * len(cells)) % tuple(cells.ravel().tolist())


def write_records_csv(records: HierarchyResult, fh: TextIO) -> None:
    """Write the result as CSV with LF endings; absent values are empty cells.

    The rows are ``csv_blocks`` of the weights, thresholds and gaps; an
    absent value prints as "nan", which no number contains, and is dropped.
    """
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for text in csv_blocks(records.weights, records.thresholds, records.gaps):
        fh.write(text.replace("nan", ""))
