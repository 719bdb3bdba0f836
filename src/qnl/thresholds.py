"""Critical noise strengths at which each order of nonlocal correlation dies.

For a state evolving through a channel family at strength q, four "alive"
conditions are tracked:

  GISIN        F > F_lhv             (no local-hidden-variable description)
  BELL         B > 2                 (CHSH violation)
  FIDELITY     F > 2/3               (useful teleportation resource)
  CONCURRENCE  det(rho^{T_B}) < 0    (entanglement; the sign of unclamped C)

The critical strength of a condition is the smallest q in [0, 1] at which it
first fails: it is bisected between its first dead bracket point and the point
before it. The bracket points (``_ends``) are the 1001-point grid below q = 1
and the tail point 1 - tol. ``threshold_set`` finds the first dead one by a
pre-scan of them all. ``x_threshold_sets`` reads only q = 0, the tail point and
the grid points around the closed-form roots of its margins, and pre-scans the
states whose roots cannot be certified. Conventions: a condition already dead
at q = 0 reports 0; a condition still alive at the tail point reports None (it
survives all noise). Neither bracket assumes that the curves are monotone.

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
    _N_CUTS,
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
_GRID = np.linspace(0.0, 1.0, PRESCAN_POINTS)
_SURVIVES = PRESCAN_POINTS  # dead_at of a row alive at every bracket point
# _x_brackets reads the grid points from one cell below to one cell above the
# cell of each candidate strength, so a candidate a cell off still brackets.
_AROUND = np.arange(-1, 3)
MAX_TOL = 1e-3
# The tail point 1 - tol stays below 1, where amplitude damping leaves a product state.
_BELOW_ONE = np.nextafter(1.0, 0.0)
# The locator locates X-states _BLOCK_POINTS at a time and never asks a margins
# provider for more than _BLOCK_POINTS points at once, so its memory does not
# grow with the number of states.
_BLOCK_POINTS = 4 * PRESCAN_POINTS
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


def _ends(tol: float) -> np.ndarray:
    """The PRESCAN_POINTS bracket points: the grid below q = 1, then the tail point."""
    return np.append(_GRID[:-1], min(1.0 - tol, _BELOW_ONE))


def _prescan(margins, state: int, tol: float) -> np.ndarray:
    """dead_at (4,) of one state, from one margins call at every bracket point.

    ``dead_at`` indexes ``_ends(tol)``: the first bracket point at which a
    condition is dead, 0 if at q = 0, _SURVIVES if at none. The call reads
    q = 1 last, which changes no index (the benchmark's span self-test reaches
    the spectra fallback there).
    """
    qs = np.append(_ends(tol), 1.0)
    dead = ~(margins(np.full(qs.size, state), qs) > 0.0)
    dead[:, -1] = True
    return dead.argmax(axis=1)


def _unit_candidates(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real roots and vertex in [0, 1] of quadratics c0 + c1 t + c2 t^2, ``coef`` (3, ...).

    Returns (t, certain): t (3, ...) holds two roots and the vertex, NaN where
    there is none in [0, 1]; ``certain`` is False where the coefficients are
    all zero or not finite. Each quadratic is scaled by its largest
    coefficient, its roots are h / c2 and c0 / h with
    h = -(c1 + sign(c1) sqrt(c1^2 - 4 c0 c2)) / 2, and a quotient is taken
    only where it lies in [-1, 1], so nothing overflows or divides by zero.
    """
    scale = np.abs(coef).max(axis=0)
    certain = np.isfinite(scale) & (scale > 0.0)
    c0, c1, c2 = np.divide(coef, scale, out=np.zeros_like(coef), where=certain)
    disc = c1 * c1 - 4.0 * c0 * c2
    h = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), c1))
    num, den = np.stack([h, c0, -0.5 * c1]), np.stack([c2, h, c2])
    inside = (np.abs(num) <= np.abs(den)) & (den != 0.0)
    inside[:2] &= disc >= 0.0
    t = np.divide(num, den, out=np.full(num.shape, np.nan), where=inside)
    return np.where(t >= 0.0, t, np.nan), certain


def _even_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of 1, u, u^2 (u = s^2) of the product of x and y, each in 1, s, s^2.

    The odd powers of s are dropped: on X-states they are zero, as each
    coherence is one multiple of s or of s^2, and the populations are affine
    in q (their s coefficients are rounding noise).
    """
    return np.stack([x[0] * y[0], x[0] * y[2] + x[1] * y[1] + x[2] * y[0], x[2] * y[2]])


def _x_brackets(entries: np.ndarray, family: str, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(dead_at, uncertain) of X-states, X entries (6, N), dead_at as ``_prescan`` gives it.

    Each entry of the evolved state is e(s) = e0 + e1 s + e2 s^2 in
    s = sqrt(1-q), with its coefficients taken from ``evolve_x`` at
    _AFFINE_QS. A condition can change sign only where one of these
    quadratics does (max(x, y) > 0 changes sign only where x or y does):
    N - c as 4 max(|rho14|, |rho23|) +- z - c in s, with
    z = rho11 - rho22 - rho33 + rho44 (F and G); s1^2 + s2^2 - 1 as
    8(|rho14|^2 + |rho23|^2) - 1 and 4(|rho14| + |rho23|)^2 + z^2 - 1 in u = s^2
    (B); and the two factors of det(rho^{T_B}) in u (C). Their real roots and
    vertices in [0, 1] are the candidate strengths. ``_x_margins`` is read at
    the bracket points q = 0, the tail point and those from one cell below to
    one cell above each candidate's cell; between two of those points the
    sign is taken as constant, so a row's first dead point is the dead end of
    its first alive-to-dead pair of read points. A state is uncertain if its
    coefficients are degenerate or not finite, or if two points that bound an
    unread run of bracket points disagree, and is pre-scanned instead.
    """
    n = entries.shape[1]
    margins = _x_margins(entries, family)
    samples = evolve_x(np.repeat(entries, _AFFINE_QS.size, axis=1), family,
                       np.tile(_AFFINE_QS, n)).reshape(6, n, _AFFINE_QS.size)
    a, b, c = np.moveaxis(samples @ _AFFINE_OF_SAMPLES.T, -1, 0)
    d11, d22, d33, d44, a14, a23 = np.stack([a + b, c, -b], axis=1)
    z = d11 - d22 - d33 + d44
    coh = np.maximum(a14, a23)
    one = np.array([1.0, 0.0, 0.0])[:, None]
    in_s = np.stack([4.0 * coh + sign * z - cut * one
                     for cut in _N_CUTS.ravel() for sign in (1.0, -1.0)], axis=1)
    in_u = np.stack([
        8.0 * (_even_product(a14, a14) + _even_product(a23, a23)) - one,
        4.0 * _even_product(a14 + a23, a14 + a23) + _even_product(z, z) - one,
        _even_product(a23, a23) - _even_product(d11, d44),
        _even_product(d22, d33) - _even_product(a14, a14),
    ], axis=1)
    t_s, certain_s = _unit_candidates(in_s)
    t_u, certain_u = _unit_candidates(in_u)
    uncertain = ~(certain_s.all(axis=0) & certain_u.all(axis=0))
    qs = np.concatenate([1.0 - t_s * t_s, 1.0 - t_u]).reshape(-1, n)
    found = ~np.isnan(qs) & ~uncertain
    cells = (qs[found] * (PRESCAN_POINTS - 1)).astype(np.intp)
    read = np.zeros((n, PRESCAN_POINTS), dtype=bool)
    read[~uncertain, 0] = read[~uncertain, -1] = True
    read[np.nonzero(found)[1][:, None],
         np.clip(cells[:, None] + _AROUND, 0, PRESCAN_POINTS - 1)] = True
    states, points = np.nonzero(read)
    dead_at = np.full((n, len(Measure)), _SURVIVES)
    if states.size:
        alive = _alive(margins, states, _ends(tol)[points])
        same = states[1:] == states[:-1]
        changes = (alive[:, 1:] != alive[:, :-1]) & same
        unread = np.diff(points) > 1
        uncertain[states[1:][unread & changes.any(axis=0)]] = True
        row, pair = np.nonzero(changes & alive[:, :-1])
        np.minimum.at(dead_at, (states[pair + 1], row), points[pair + 1])
        starts = np.flatnonzero(points == 0)
        dead_at[states[starts]] *= alive[:, starts].T
    for state in np.flatnonzero(uncertain):
        dead_at[state] = _prescan(margins, state, tol)
    return dead_at, uncertain


def _locate(margins, dead_at: np.ndarray, tol: float) -> np.ndarray:
    """Critical strengths (n, 4) of all four conditions of n states, in Measure order.

    ``margins(states, qs)`` gives the alive margins (4, M) of state
    ``states[k]`` at strength ``qs[k]``. ``dead_at`` (n, 4) is each (state,
    condition) row's first dead bracket point, as ``_prescan`` gives it: a row
    dead at q = 0 reads 0, a row alive at every bracket point (_SURVIVES)
    reads NaN (survives all noise), and any other is bracketed by its point of
    ``_ends(tol)`` and the one before it. Only bracket midpoints are read:
    all brackets are bisected in lockstep at the midpoints one level per call
    would compute, a row stopping at the first level where it is done. A call
    takes L = max(_MIN_LEVELS, floor(log2(PRESCAN_POINTS // open + 1))) levels
    of the open brackets, (2^L - 1) midpoints each, so it holds at most about
    one pre-scan of points unless L is the minimum: one state's four rows take
    seven levels a call, 30 states' 120 rows three. A provider gives each
    point's margins independently of the call, so the floats are those of one
    level per call.
    """
    rows = len(Measure)
    ends = _ends(tol)
    found = np.where(dead_at > 0, np.nan, 0.0).ravel()
    active = np.flatnonzero((dead_at > 0) & (dead_at < _SURVIVES))
    lo, hi = ends[dead_at.ravel()[active] - 1], ends[dead_at.ravel()[active]]
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
    return found.reshape(dead_at.shape)


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
    margins = _kraus_margins(state.mat, family)
    return _threshold_sets(_locate(margins, _prescan(margins, 0, tol)[None], tol))[0]


def x_threshold_sets(
    entries: np.ndarray, family: str, tol: float = 1e-9
) -> list[ThresholdSet]:
    """``threshold_set`` of each X-state, given by its X entries (6, N), all at once.

    ``entries`` comes from ``channels.x_entries`` of states whose entries off
    the diagonal and the anti-diagonal are zero. Their margins come in closed
    form (``evolve_x``, ``x_singvals`` and the X form of det(rho^{T_B})), and
    their brackets from the roots of those margins (``_x_brackets``), with no
    pre-scan unless a state's roots cannot be certified; the floats are those
    of ``_locate`` with the pre-scan. The general Kraus pipeline of
    ``threshold_set`` stays the reference.
    """
    tol = _check_tol(tol)
    found = np.empty((entries.shape[1], len(Measure)))
    # Located _BLOCK_POINTS states at a time, so the scratch arrays do not grow with n.
    for k in range(0, entries.shape[1], _BLOCK_POINTS):
        block = entries[:, k:k + _BLOCK_POINTS]
        dead_at, _ = _x_brackets(block, family, tol)
        found[k:k + _BLOCK_POINTS] = _locate(_x_margins(block, family), dead_at, tol)
    return _threshold_sets(found)


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
