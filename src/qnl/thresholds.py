"""Critical noise strengths at which each order of nonlocal correlation dies.

For a state evolving through a channel family at strength q, four "alive"
conditions are tracked:

  GISIN        F > F_lhv             (no local-hidden-variable description)
  BELL         B > 2                 (CHSH violation)
  FIDELITY     F > 2/3               (useful teleportation resource)
  CONCURRENCE  det(rho^{T_B}) < 0    (entanglement; the sign of unclamped C)

The critical strength of a condition is the smallest q in [0, 1] at which it
first fails, found by a 1001-point pre-scan that brackets the first sign
change followed by bisection. Conventions: a condition already dead at q = 0
reports 0; a condition still alive at q = 1 - tol reports None (it survives
all noise). The pre-scan makes no monotonicity assumption about the curves.

The locator reads only the sign of one margin per condition, so its margins
providers compute signs, not spectra. ``threshold_set`` evolves the state
once into rho(q) = A + q B + sqrt(1-q) C and reads each point from a
determinant and ``correlation_sign_margins`` (no SVD); ``x_threshold_sets``
reads many X-states at once from their evolved X entries in closed form.
``scan`` takes the Wootters roots because it prints C; ``threshold_set`` takes
them only where the determinant is rounding noise (``_kraus_margins``).
Bisection takes three levels per margins call (``_locate``).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np

from .channels import channel_family, evolve_grid, evolve_x
from .errors import BadGrid, InvalidTolerance
from .measures import (
    GISIN_BOUND,
    concurrence_of_roots,
    correlation_matrix_stack,
    correlation_measures,
    correlation_sign_margins,
    correlation_singvals_stack,
    wootters_roots_stack,
    x_singvals,
)
from .states import DensityMatrix
from .werner_analytic import bell_ad, concurrence_ad, fidelity_ad

PRESCAN_POINTS = 1001
MAX_TOL = 1e-3
# The locator pre-scans this many states at a time and never asks a margins
# provider for more than _BLOCK_POINTS points at once, so its memory does not
# grow with the number of states.
_BLOCK_STATES = 4
_BLOCK_POINTS = _BLOCK_STATES * PRESCAN_POINTS
# Bisection levels per margins call. Their midpoints cut a bracket into
# _EDGES steps, and it is _STEPS[l + 1] steps wide after level l.
_LEVELS = 3
_STEPS = 2 ** np.arange(_LEVELS, -1, -1)
_EDGES = _STEPS[0]
# A det(rho^{T_B}) of at most this size has no reliable sign. The affine
# evolution's determinant is off by up to ~4e-17 on Ginibre states of rank 1
# to 4 under every family, against the determinant in 50-digit arithmetic.
DET_ROUNDING = 1e-15

#: Region labels of the Werner (p, q) map, weakest correlations first.
REGIONS = ("R1", "R2", "R3", "R4", "R5")


class Measure(Enum):
    """The alive conditions, in the row order of ``_alive_margins`` and ``_locate``."""

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


# Every family is affine in (1, q, sqrt(1-q)): its Kraus entries are 1,
# sqrt(1-q) and sqrt(q) (damping), or sqrt(1-3q/4) and sqrt(q/4)
# (depolarizing), and a product of two entries of one operator is one of 1, q,
# sqrt(1-q), 1-q and 1-3q/4. (1, q, sqrt(1-q)) is exactly (1, 0, 1), (1, 3/4,
# 1/2) and (1, 1, 0) at the strengths below, so the states evolved there give
# the coefficients of rho(q) = A + q B + sqrt(1-q) C through a fixed 3x3 map.
_AFFINE_QS = np.array([0.0, 0.75, 1.0])
_AFFINE_OF_SAMPLES = np.array([[2.0, -4.0, 3.0], [-2.0, 4.0, -2.0], [-1.0, 4.0, -3.0]])


def _affine_coefficients(state_mat: np.ndarray, family: str) -> np.ndarray:
    """(A, B, C), shape (3, 4, 4), such that evolve_grid at q is A + q B + sqrt(1-q) C."""
    samples = evolve_grid(state_mat, family, _AFFINE_QS)
    return np.tensordot(_AFFINE_OF_SAMPLES, samples, axes=1)


def _curves(evolved: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C unclamped, F, B) of evolved states (M, 4, 4), from their spectra."""
    c_unclamped = concurrence_of_roots(wootters_roots_stack(evolved))
    _, f, b = correlation_measures(correlation_singvals_stack(evolved))
    return c_unclamped, f, b


def _alive_margins(f: np.ndarray, b: np.ndarray, entangled: np.ndarray) -> np.ndarray:
    """Alive margins, shape (4, M), rows ordered GISIN, BELL, FIDELITY, CONCURRENCE.

    ``entangled`` has the sign of the unclamped concurrence: -det(rho^{T_B})
    for the margins providers, since a two-qubit state is entangled exactly
    when its partial transpose has a negative determinant (Augusiak,
    Demianowicz & Horodecki, PRA 77, 030301 (2008)).
    """
    return np.stack([f - GISIN_BOUND, b - 2.0, f - 2.0 / 3.0, entangled])


def _kraus_margins(state_mat: np.ndarray, family: str):
    """Margins provider of one state (``states`` is all zeros) through the Kraus pipeline.

    The state is evolved once, at the three strengths of ``_affine_coefficients``.
    Every point then costs rho^{T_B} and T, each A + q B + sqrt(1-q) C taken
    elementwise so that no step mixes points, a 4x4 determinant for the
    concurrence row and ``correlation_sign_margins`` (no SVD) for the rest.

    Where |det(rho^{T_B})| <= DET_ROUNDING its sign is rounding noise (a
    partial transpose with a zero eigenvalue, as for a product state or at
    q = 1 under amplitude damping). Such points are evolved directly and read
    from ``_curves`` instead, the concurrence row taking the sign of the
    Wootters concurrence at size DET_ROUNDING, so rank-deficient states keep
    the thresholds the spectra gave.
    """
    coef = _affine_coefficients(state_mat, family)
    # rho^{T_B}: swap the B indices of row (a, b) and column (a', b'); taken
    # as 32 floats (real, imaginary) per point.
    transposed = coef.reshape(3, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(3, 1, 16)
    transposed = transposed.view(np.float64)
    corr = correlation_matrix_stack(coef).reshape(3, 9, 1)

    def margins(states: np.ndarray, qs: np.ndarray) -> np.ndarray:
        root = np.sqrt(1.0 - qs)
        t = corr[0] + qs * corr[1] + root * corr[2]
        pt = transposed[0] + qs[:, None] * transposed[1] + root[:, None] * transposed[2]
        det = np.linalg.det(pt.view(np.complex128).reshape(-1, 4, 4)).real
        out = np.concatenate([correlation_sign_margins(t.reshape(3, 3, -1)), -det[None]])
        unresolved = np.flatnonzero(np.abs(det) <= DET_ROUNDING)
        if unresolved.size:
            c, f, b = _curves(evolve_grid(state_mat, family, qs[unresolved]))
            out[:, unresolved] = _alive_margins(f, b, np.sign(c) * DET_ROUNDING)
        return out

    return margins


def _x_margins(entries: np.ndarray, family: str):
    """Margins provider of X-states, X entries (6, N), through the closed-form X path.

    The partial transpose of an X-state swaps rho14 and rho23, so its
    determinant is (rho11 rho44 - |rho23|^2)(rho22 rho33 - |rho14|^2).
    """
    def margins(states: np.ndarray, qs: np.ndarray) -> np.ndarray:
        evolved = evolve_x(entries[:, states], family, qs)
        d11, d22, d33, d44, a14, a23 = evolved
        _, f, b = correlation_measures(x_singvals(evolved))
        return _alive_margins(f, b, (a23 * a23 - d11 * d44) * (d22 * d33 - a14 * a14))

    return margins


def _coerce_measure(measure: Measure | str) -> Measure:
    if isinstance(measure, Measure):
        return measure
    return Measure(str(measure).upper())


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not 0.0 < tol <= MAX_TOL:
        raise InvalidTolerance(f"tol must lie in (0, {MAX_TOL:g}], got {tol:g}")
    return tol


def _alive(margins, states: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``margins(states, qs) > 0``, asked for at most _BLOCK_POINTS points at a time."""
    if qs.size <= _BLOCK_POINTS:
        return margins(states, qs) > 0.0
    return np.concatenate(
        [margins(states[k:k + _BLOCK_POINTS], qs[k:k + _BLOCK_POINTS]) > 0.0
         for k in range(0, qs.size, _BLOCK_POINTS)],
        axis=1,
    )


def _locate(margins, n: int, tol: float) -> np.ndarray:
    """Critical strengths (n, 4) of all four conditions of n states, in Measure order.

    ``margins(states, qs)`` gives the alive margins (4, M) of state
    ``states[k]`` at strength ``qs[k]``. A pre-scan brackets the first death
    of every (state, condition) row, one block of states at a time; a death in
    the last grid cell, or none on the grid, is bracketed up to 1 - tol and
    reads NaN (survives all noise) if the condition still holds there. All
    brackets are then bisected in lockstep, _LEVELS levels per margins call
    at the midpoints one level per call would compute, a row stopping at the
    first level where it is done. A provider gives each point's margins
    independently of the call, so the floats are those of one level per call.
    A condition already dead at q = 0 reads 0.
    """
    rows = len(Measure)
    grid = np.linspace(0.0, 1.0, PRESCAN_POINTS)
    last = PRESCAN_POINTS - 2
    at_zero = np.empty((n, rows), dtype=bool)
    cell = np.empty((n, rows), dtype=np.intp)
    for first in range(0, n, _BLOCK_STATES):
        block = np.arange(first, min(first + _BLOCK_STATES, n))
        alive = _alive(margins, np.repeat(block, PRESCAN_POINTS), np.tile(grid, block.size))
        alive = alive.reshape(rows, block.size, PRESCAN_POINTS).swapaxes(0, 1)
        deaths = alive[..., :-1] & ~alive[..., 1:]
        at_zero[block] = alive[..., 0]
        cell[block] = np.where(deaths.any(axis=-1), deaths.argmax(axis=-1), last)
    lo = grid[cell].ravel()
    hi = np.where(cell < last, grid[cell + 1], 1.0 - tol).ravel()
    survives = at_zero & (cell == last)
    tail = np.flatnonzero(survives.any(axis=1))
    if tail.size:
        survives[tail] &= _alive(margins, tail, np.full(tail.size, 1.0 - tol)).T
    found = 0.5 * (lo + hi)
    active = np.flatnonzero(at_zero & ~survives)
    lo, hi = lo[active], hi[active]
    while active.size:
        # lo, the next _LEVELS levels' midpoints as one level per call computes them, hi.
        edges = np.empty((_EDGES + 1, active.size))
        edges[0], edges[_EDGES] = lo, hi
        for step in _STEPS[:-1]:
            edges[step // 2::step] = 0.5 * (edges[:-1:step] + edges[step::step])
        alive = _alive(margins, np.repeat(active[None] // rows, _EDGES - 1, axis=0).ravel(),
                       edges[1:-1].ravel())
        col = np.arange(active.size)
        alive = alive.reshape(rows, _EDGES - 1, active.size)[active % rows, :, col]
        # After level l a bracket is edges[k[l + 1]] to edges[k[l + 1] + _STEPS[l + 1]].
        k = np.zeros((_LEVELS + 1, active.size), dtype=np.intp)
        for level, half in enumerate(_STEPS[1:]):
            k[level + 1] = k[level] + half * alive[col, k[level] + half - 1]
        lo, hi = edges[k[1:], col], edges[k[1:] + _STEPS[1:, None], col]
        mids = 0.5 * (lo + hi)
        # A row is done once narrow enough, or once its bracket is two
        # adjacent floats (below any tol of about 1e-15) and cannot shrink.
        done = ~(hi - lo > tol) | (mids == lo) | (mids == hi)
        ended = done.any(axis=0)
        found[active[ended]] = mids[done.argmax(axis=0), col][ended]
        active, lo, hi = active[~ended], lo[-1, ~ended], hi[-1, ~ended]
    found = found.reshape(n, rows)
    return np.where(at_zero, np.where(survives, np.nan, found), 0.0)


def _threshold_sets(found: np.ndarray) -> list[ThresholdSet]:
    """ThresholdSets of _locate rows, with Python floats and None for NaN."""
    return [ThresholdSet(*(None if math.isnan(q) else q for q in row.tolist())) for row in found]


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
    return astuple(threshold_set(state, family, tol))[row]


def threshold_set(
    state: DensityMatrix, family: str, tol: float = 1e-9
) -> ThresholdSet:
    """All four critical strengths of a state/channel pair, from one pre-scan.

    The pre-scan and the bisection read the alive margins of the Kraus
    pipeline's affine evolution (``_kraus_margins``): F and B signs from the
    correlation matrix, entanglement from -det(rho^{T_B}), and all four from
    the spectra where that determinant is rounding noise.
    """
    tol = _check_tol(tol)
    return _threshold_sets(_locate(_kraus_margins(state.mat, family), 1, tol))[0]


def x_threshold_sets(
    entries: np.ndarray, family: str, tol: float = 1e-9
) -> list[ThresholdSet]:
    """``threshold_set`` of each X-state, given by its X entries (6, N), all at once.

    ``entries`` comes from ``channels.x_entries`` of states whose entries off
    the diagonal and the anti-diagonal are zero. Their margins come in closed
    form (``evolve_x``, ``x_singvals`` and the X form of det(rho^{T_B})); the
    general Kraus pipeline of ``threshold_set`` stays the reference.
    """
    tol = _check_tol(tol)
    return _threshold_sets(_locate(_x_margins(entries, family), entries.shape[1], tol))


def hierarchy_check(ts: ThresholdSet, slack: float = 1e-6) -> bool:
    """True iff q_G <= q_B <= q_F <= q_C up to slack, with None as +infinity.

    At every state G alive => B alive => F alive => C alive (see the README), so the
    first deaths obey this order on every noise path: False flags a locator error.
    """
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
    """Measure table over a strength grid: rows (q, concurrence, fidelity, bell).

    Evolved and measured _BLOCK_POINTS points at a time: memory beyond the table is bounded.
    """
    qs = np.asarray(q_grid, dtype=float)
    if qs.ndim != 1 or qs.size == 0:
        raise BadGrid("grid must be a non-empty 1-d sequence")
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise BadGrid("grid values must lie in [0, 1]")
    if qs.size > 1 and not np.all(np.diff(qs) > 0.0):
        raise BadGrid("grid values must be strictly increasing")
    channel_family(family)
    table = np.empty((qs.size, 4))
    for block in (slice(k, k + _BLOCK_POINTS) for k in range(0, qs.size, _BLOCK_POINTS)):
        c_unclamped, f, b = _curves(evolve_grid(state.mat, family, qs[block]))
        table[block] = np.column_stack([qs[block], np.maximum(0.0, c_unclamped), f, b])
    return table
