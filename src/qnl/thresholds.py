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
per-state interpolant of det(rho^{T_B}) in sqrt(1-q) and from
``correlation_sign_margins`` (no SVD); ``x_threshold_sets`` reads many
X-states at once from their evolved X entries in closed form. ``scan`` takes
the Wootters roots because it prints C; ``threshold_set`` takes them only
where the determinant is rounding noise (``_kraus_margins``). Bisection takes
as many levels per margins call as about one pre-scan of points allows, and
at least three (``_locate``).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .channels import channel_family, evolve_grid, evolve_x
from .errors import BadGrid, InvalidTolerance
from .measures import (
    REGIONS,
    Measure,
    alive_margins,
    concurrence_of_roots,
    correlation_matrix_stack,
    correlation_measures,
    correlation_sign_margins,
    correlation_singvals_stack,
    hierarchy_rank,
    wootters_roots_stack,
    x_singvals,
)
from .states import DensityMatrix
from .werner_analytic import ArrayOrFloat, bell_ad, concurrence_ad, fidelity_ad

PRESCAN_POINTS = 1001
MAX_TOL = 1e-3
# The tail point 1 - tol stays below 1, where amplitude damping leaves a product state.
_BELOW_ONE = np.nextafter(1.0, 0.0)
# The locator pre-scans this many states at a time and never asks a margins
# provider for more than _BLOCK_POINTS points at once, so its memory does not
# grow with the number of states.
_BLOCK_STATES = 4
_BLOCK_POINTS = _BLOCK_STATES * PRESCAN_POINTS
# Fewest bisection levels per margins call; _locate takes more while few
# brackets are open.
_MIN_LEVELS = 3
# A det(rho^{T_B}) of at most this size has no reliable sign. The interpolant
# of _kraus_margins is off by up to ~4e-17 on Ginibre states of rank 1 to 4
# under every family, against the exact determinant of the same floats, and
# LAPACK's LU determinant by about as much.
DET_ROUNDING = 1e-15
# Slack of hierarchy_check's order q_G <= q_B <= q_F <= q_C.
HIERARCHY_SLACK = 1e-6


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
# Each entry of rho^{T_B} is then a quadratic in s = sqrt(1-q), and its
# determinant a polynomial of degree 8 in s, sampled at the Chebyshev points
# x_j = cos(j pi / 8) of x = 2s - 1 (q = 0 and q = 1 among them). This matrix
# maps the samples f_j to the coefficients c_k = sum_j f_j T_k(x_j) / 4 of
# T_k(x), with the terms j = 0, 8 and the coefficients k = 0, 8 halved.
_DET_NODES = 0.5 + 0.5 * np.cos(np.pi * np.arange(9) / 8)
_DET_CHEB = np.cos(np.pi * (np.outer(np.arange(9), np.arange(9)) % 16) / 8) / 4
_DET_CHEB[[0, -1]] /= 2
_DET_CHEB[:, [0, -1]] /= 2


def _affine_coefficients(state_mat: np.ndarray, family: str) -> np.ndarray:
    """(A, B, C), shape (3, 4, 4), such that evolve_grid at q is A + q B + sqrt(1-q) C."""
    samples = evolve_grid(state_mat, family, _AFFINE_QS)
    return np.tensordot(_AFFINE_OF_SAMPLES, samples, axes=1)


def _curves(evolved: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C unclamped, F, B) of evolved states (M, 4, 4), from their spectra."""
    c_unclamped = concurrence_of_roots(wootters_roots_stack(evolved))
    _, f, b = correlation_measures(correlation_singvals_stack(evolved))
    return c_unclamped, f, b


def _kraus_margins(state_mat: np.ndarray, family: str):
    """Margins provider of one state (``states`` is all zeros) through the Kraus pipeline.

    The state is evolved once, at the three strengths of ``_affine_coefficients``.
    det(rho^{T_B}) is a polynomial of degree 8 in s = sqrt(1-q): LAPACK
    computes it at the 9 points ``_DET_NODES``, once per state, and every
    point reads its concurrence row from that interpolant by Clenshaw's
    recurrence. T is A + q B + sqrt(1-q) C taken elementwise, and the other
    rows come from ``correlation_sign_margins`` (no SVD). No step mixes points.

    Where |det(rho^{T_B})| <= DET_ROUNDING its sign is rounding noise (a
    partial transpose with a zero eigenvalue, as for a product state or at
    q = 1 under amplitude damping). Such points are evolved directly and read
    from ``_curves`` instead, the concurrence row taking the sign of the
    Wootters concurrence at size DET_ROUNDING, so rank-deficient states keep
    the thresholds the spectra gave.
    """
    coef = _affine_coefficients(state_mat, family)
    # rho^{T_B}: swap the B indices of row (a, b) and column (a', b').
    transposed = coef.reshape(3, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(3, 4, 4)
    s = _DET_NODES[:, None, None]
    det_cheb = _DET_CHEB @ np.linalg.det(
        transposed[0] + (1.0 - s * s) * transposed[1] + s * transposed[2]).real
    corr = correlation_matrix_stack(coef).reshape(3, 9, 1)

    def margins(states: np.ndarray, qs: np.ndarray) -> np.ndarray:
        root = np.sqrt(1.0 - qs)
        t = corr[0] + qs * corr[1] + root * corr[2]
        # Clenshaw's recurrence for the sum of det_cheb[k] T_k(x), x = 2 root - 1.
        x = 2.0 * root - 1.0
        x2 = 2.0 * x
        c0, c1 = det_cheb[-2], det_cheb[-1]
        for c in det_cheb[-3::-1]:
            c0, c1 = c - c1, c0 + c1 * x2
        det = c0 + c1 * x
        out = np.concatenate([correlation_sign_margins(t.reshape(3, 3, -1)), -det[None]])
        unresolved = np.flatnonzero(np.abs(det) <= DET_ROUNDING)
        if unresolved.size:
            c, f, b = _curves(evolve_grid(state_mat, family, qs[unresolved]))
            out[:, unresolved] = alive_margins(f, b, np.sign(c) * DET_ROUNDING)
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
        return alive_margins(f, b, (a23 * a23 - d11 * d44) * (d22 * d33 - a14 * a14))

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
    the last grid cell, or none on the grid, is bracketed up to the tail point
    1 - tol (the float below 1 if tol is finer than the float spacing there)
    and reads NaN (survives all noise) if the condition still holds there. All
    brackets are then bisected in lockstep at the midpoints one level per call
    would compute, a row stopping at the first level where it is done. A call
    takes L = max(_MIN_LEVELS, floor(log2(PRESCAN_POINTS // open + 1))) levels
    of the open brackets, (2^L - 1) midpoints each, so it holds at most about
    one pre-scan of points unless L is the minimum: one state's four rows take
    seven levels a call, 30 states' 120 rows three. A provider gives each
    point's margins independently of the call, so the floats are those of one
    level per call. A condition already dead at q = 0 reads 0.
    """
    rows = len(Measure)
    grid = np.linspace(0.0, 1.0, PRESCAN_POINTS)
    last = PRESCAN_POINTS - 2
    tail_q = min(1.0 - tol, _BELOW_ONE)
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
    hi = np.where(cell < last, grid[cell + 1], tail_q).ravel()
    survives = at_zero & (cell == last)
    tail = np.flatnonzero(survives.any(axis=1))
    if tail.size:
        survives[tail] &= _alive(margins, tail, np.full(tail.size, tail_q)).T
    found = 0.5 * (lo + hi)
    active = np.flatnonzero(at_zero & ~survives)
    lo, hi = lo[active], hi[active]
    while active.size:
        levels = max(_MIN_LEVELS, (PRESCAN_POINTS // active.size + 1).bit_length() - 1)
        # The midpoints cut a bracket into steps[0] steps; it is steps[l + 1] wide after level l.
        steps = 2 ** np.arange(levels, -1, -1)
        edges = np.empty((steps[0] + 1, active.size))
        edges[0], edges[-1] = lo, hi
        for step in steps[:-1]:
            edges[step // 2::step] = 0.5 * (edges[:-1:step] + edges[step::step])
        alive = _alive(margins, np.repeat(active[None] // rows, steps[0] - 1, axis=0).ravel(),
                       edges[1:-1].ravel())
        col = np.arange(active.size)
        alive = alive.reshape(rows, steps[0] - 1, active.size)[active % rows, :, col]
        # After level l a bracket is edges[k[l + 1]] to edges[k[l + 1] + steps[l + 1]].
        k = np.zeros((levels + 1, active.size), dtype=np.intp)
        for level, half in enumerate(steps[1:]):
            k[level + 1] = k[level] + half * alive[col, k[level] + half - 1]
        lo, hi = edges[k[1:], col], edges[k[1:] + steps[1:, None], col]
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


def hierarchy_check(ts: ThresholdSet) -> bool:
    """True iff q_G <= q_B <= q_F <= q_C up to HIERARCHY_SLACK, with None as +infinity.

    At every state G alive => B alive => F alive => C alive (see the README), so the
    first deaths obey this order on every noise path: False flags a locator error.
    """
    inf = math.inf
    seq = [inf if v is None else v for v in (ts.q_g, ts.q_b, ts.q_f, ts.q_c)]
    return all(a <= b + HIERARCHY_SLACK for a, b in zip(seq, seq[1:]))


def werner_region(p: ArrayOrFloat, q: ArrayOrFloat) -> str | np.ndarray:
    """Region label R1..R5 of the Werner (p, q) plane from the closed forms.

    R1 separable, R2 entangled only, R3 teleportation-useful without CHSH
    violation, R4 CHSH-violating below the Gisin bound, R5 beyond it. The
    analytic amplitude-damping curves are ranked by ``hierarchy_rank``, the
    ladder of ``classify``. Takes floats (one label, an ``np.str_``) or arrays
    that broadcast together (an array of labels).
    """
    margins = alive_margins(fidelity_ad(p, q), bell_ad(p, q), concurrence_ad(p, q))
    return np.asarray(REGIONS)[hierarchy_rank(margins)]


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
