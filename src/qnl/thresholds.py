"""Critical noise strengths at which each order of nonlocal correlation dies.

For a state evolving through a channel family at strength q, four "alive"
conditions are tracked:

  GISIN        F > F_lhv        (no local-hidden-variable description)
  BELL         B > 2            (CHSH violation)
  FIDELITY     F > 2/3          (useful teleportation resource)
  CONCURRENCE  unclamped C > 0  (entanglement)

The critical strength of a condition is the smallest q in [0, 1] at which it
first fails, found by a 1001-point pre-scan that brackets the first sign
change followed by bisection. Conventions: a condition already dead at q = 0
reports 0; a condition still alive at q = 1 - tol reports None (it survives
all noise). The pre-scan makes no monotonicity assumption about the curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import channel_family, evolve_grid
from .errors import BadGrid, InvalidTolerance
from .measures import (
    GISIN_BOUND,
    concurrence_of_roots,
    correlation_measures,
    correlation_singvals_stack,
    wootters_roots_stack,
)
from .states import DensityMatrix
from .werner_analytic import bell_ad, concurrence_ad, fidelity_ad

PRESCAN_POINTS = 1001
MAX_TOL = 1e-3

#: Region labels of the Werner (p, q) map, weakest correlations first.
REGIONS = ("R1", "R2", "R3", "R4", "R5")


class Measure(Enum):
    """The alive conditions, in the row order of ``_margins`` and ``_locate``."""

    GISIN = "GISIN"
    BELL = "BELL"
    FIDELITY = "FIDELITY"
    CONCURRENCE = "CONCURRENCE"


@dataclass(frozen=True)
class ThresholdSet:
    """Critical strengths for one state/channel pair; None = survives all noise."""

    q_g: float | None
    q_b: float | None
    q_f: float | None
    q_c: float | None

    def as_dict(self) -> dict:
        return {"q_G": self.q_g, "q_B": self.q_b, "q_F": self.q_f, "q_C": self.q_c}


def _curves(
    state_mat: np.ndarray, family: str, qs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Measure curves over a strength grid: (C clamped, C unclamped, F, B)."""
    evolved = evolve_grid(state_mat, family, qs)
    c_unclamped = concurrence_of_roots(wootters_roots_stack(evolved))
    _, f, b = correlation_measures(correlation_singvals_stack(evolved))
    return np.maximum(0.0, c_unclamped), c_unclamped, f, b


def _margins(state_mat: np.ndarray, family: str, qs: np.ndarray) -> np.ndarray:
    """Alive margins, shape (4, Q), rows ordered GISIN, BELL, FIDELITY, CONCURRENCE."""
    _, c_unclamped, f, b = _curves(state_mat, family, qs)
    return np.stack([f - GISIN_BOUND, b - 2.0, f - 2.0 / 3.0, c_unclamped])


def _coerce_measure(measure: Measure | str) -> Measure:
    if isinstance(measure, Measure):
        return measure
    return Measure(str(measure).upper())


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not 0.0 < tol <= MAX_TOL:
        raise InvalidTolerance(f"tol must lie in (0, {MAX_TOL:g}], got {tol:g}")
    return tol


def _locate(state: DensityMatrix, family: str, tol: float) -> list[float | None]:
    """Critical strengths of all four conditions, in Measure order.

    One pre-scan brackets each condition's first death; a death in the last
    grid cell, or none on the grid, is bracketed up to 1 - tol and reports
    None if the condition still holds there. The brackets are then bisected
    in lockstep, one evaluation per step for all of them.
    """
    channel_family(family)  # fail early on unknown names
    qs = np.linspace(0.0, 1.0, PRESCAN_POINTS)
    alive = _margins(state.mat, family, qs) > 0.0
    at_zero = alive[:, 0]
    deaths = alive[:, :-1] & ~alive[:, 1:]
    last = PRESCAN_POINTS - 2
    cell = np.where(deaths.any(axis=1), deaths.argmax(axis=1), last)
    lo = qs[cell].tolist()
    hi = np.where(cell < last, qs[cell + 1], 1.0 - tol).tolist()
    survives = at_zero & (cell == last)
    if survives.any():
        survives &= _margins(state.mat, family, np.array([1.0 - tol]))[:, 0] > 0.0
    active = np.flatnonzero(at_zero & ~survives).tolist()
    while active:
        mids = [0.5 * (lo[row] + hi[row]) for row in active]
        margins = _margins(state.mat, family, np.array(mids))
        for k, (row, mid) in enumerate(zip(active, mids)):
            if margins[row, k] > 0.0:
                lo[row] = mid
            else:
                hi[row] = mid
        active = [row for row in active if hi[row] - lo[row] > tol]
    return [
        0.0 if not at_zero[row] else None if survives[row] else 0.5 * (lo[row] + hi[row])
        for row in range(len(Measure))
    ]


def critical_q(
    state: DensityMatrix,
    family: str,
    measure: Measure | str,
    tol: float = 1e-9,
) -> float | None:
    """Smallest channel strength at which one alive condition first fails.

    Returns 0.0 if the condition is already dead at q = 0 and None if it still
    holds at q = 1 - tol. Otherwise the failure point is bracketed on a
    1001-point grid and bisected down to width tol.
    """
    tol = _check_tol(tol)
    row = list(Measure).index(_coerce_measure(measure))
    return _locate(state, family, tol)[row]


def threshold_set(
    state: DensityMatrix, family: str, tol: float = 1e-9
) -> ThresholdSet:
    """All four critical strengths of a state/channel pair, from one pre-scan."""
    return ThresholdSet(*_locate(state, family, _check_tol(tol)))


def hierarchy_check(ts: ThresholdSet, slack: float = 1e-6) -> bool:
    """True iff q_G <= q_B <= q_F <= q_C up to slack, with None as +infinity."""
    inf = math.inf
    seq = [inf if v is None else v for v in (ts.q_g, ts.q_b, ts.q_f, ts.q_c)]
    return all(a <= b + slack for a, b in zip(seq, seq[1:]))


def werner_region(p: float, q: float, eps: float = 1e-9) -> str:
    """Region label R1..R5 of the Werner (p, q) plane from the closed forms.

    R1 separable, R2 entangled only, R3 teleportation-useful without CHSH
    violation, R4 CHSH-violating below the Gisin bound, R5 beyond it.
    Evaluated from the analytic amplitude-damping curves.
    """
    c = concurrence_ad(p, q)
    if c <= eps:
        return "R1"
    f = fidelity_ad(p, q)
    if f <= 2.0 / 3.0 + eps:
        return "R2"
    if bell_ad(p, q) <= 2.0 + eps:
        return "R3"
    if f <= GISIN_BOUND + eps:
        return "R4"
    return "R5"


def scan(state: DensityMatrix, family: str, q_grid: np.ndarray) -> np.ndarray:
    """Measure table over a strength grid: rows (q, concurrence, fidelity, bell)."""
    qs = np.asarray(q_grid, dtype=float)
    if qs.ndim != 1 or qs.size == 0:
        raise BadGrid("grid must be a non-empty 1-d sequence")
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise BadGrid("grid values must lie in [0, 1]")
    if qs.size > 1 and not np.all(np.diff(qs) > 0.0):
        raise BadGrid("grid values must be strictly increasing")
    channel_family(family)
    c, _, f, b = _curves(state.mat, family, qs)
    return np.column_stack([qs, c, f, b])
