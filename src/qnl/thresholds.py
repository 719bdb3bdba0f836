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
pre-scan of them all. ``x_thresholds`` reads only q = 0, the tail point and
the grid points around the closed-form roots of its margins, and pre-scans the
states whose roots cannot be certified. Conventions: a condition already dead
at q = 0 reports 0; a condition still alive at the tail point reports None (it
survives all noise). Neither bracket assumes that the curves are monotone.

Bisection guesses, verifies and resumes (``_locate``). Each bracket comes with
a guess of where its row changes sign: from a cubic through the pre-scan's
margins around it (``_cubic_root``), or from the closed-form roots on the X
path. Every row's bisection is walked toward its guess, and all predicted
midpoints of all rows are read in one margins call; a few walked rows step in
Python floats, many in arrays, with the same points and floats. A row whose
readings all match is located; a row whose first mismatch is at level l
resumes from its bracket after level l, which is exact, with the lockstep
bisection. Every point read is one the one-level bisection could read, so the
guess decides only how many points are read, never the floats.

The locator reads only the sign of one margin per condition, so its margins
providers compute signs, not spectra. ``threshold_set`` reads the state's path
rho(q) = A + q B + sqrt(1-q) C from ``channels.affine_map`` and tabulates, once
per state, every quantity its margins read as a Chebyshev series in s: the
entries of T^T T, ||adj T||_F^2 and det T of the correlation matrix T, and
det(rho^{T_B}) (``_kraus_table``). Each point takes its signs from the table's
sums (``invariant_sign_margins``, no SVD). ``x_thresholds`` reads many X-states
at once in closed form, from the same map's X block (``_x_block``). A block of
X-states is its (A, B, C) parts, (18, N), formed once as the ``np.dot`` of
that X block with its X entries; every stage reads that array. Each condition
is two blocks (``_x_blocks``): of each point's entries (A + q B) + sqrt(1-q) C
its margin (``_x_margins``), of their coefficients in s its candidate
quadratics (``_x_quadratics``). Each stage is a few array calls whatever the
block's size: the eight quadratics of every state are one array, solved in one
call (``_x_brackets``), and each margins call fills one (4, M) array.
``threshold_set`` takes the Wootters roots only where the determinant is
rounding noise (``_kraus_margins``). ``scan`` prints C, so it computes it too,
but only at the points that the state's table does not prove separable; at
the others the printed concurrence is 0 (``SEPARABLE_DET``). ``scan`` takes
each printed value from a Jacobi kernel with an error bound wherever that
bound fixes its %.12g bytes (``_prints_alike``), and from LAPACK at the other
points: F and B from ``jacobi_fidelity_bell`` or the SVD of
``correlation_singvals_stack``, C from ``jacobi_concurrence`` (0 where the
bound puts it below zero) or the roots of ``wootters_roots_stack``, which
rank-deficient states always read.

``werner_region`` maps the Werner (p, q) plane under amplitude damping from
three closed forms kept beside it, ``concurrence_ad``, ``fidelity_ad`` and
``bell_ad``, the independent oracle against the Kraus pipeline. ``bell_ad`` is
a defective two-branch expression, kept as a pinned diagnostic (see its
docstring); ``qnl`` re-exports none of the three.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import X_FLAT, affine_map, channel_family, evolve_grid
from .errors import BadGrid, InvalidTolerance, NotPSD, TraceNotOne
from .measures import (
    _N_CUTS,
    REGIONS,
    Measure,
    alive_margins,
    concurrence_of_roots,
    correlation_matrix_stack,
    correlation_measures,
    correlation_invariants,
    correlation_singvals_stack,
    hierarchy_rank,
    invariant_sign_margins,
    jacobi_concurrence,
    jacobi_fidelity_bell,
    wootters_roots_stack,
)
from .states import PSD_TOL, TRACE_TOL, DensityMatrix

PRESCAN_POINTS = 1001
_GRID = np.linspace(0.0, 1.0, PRESCAN_POINTS)
_SURVIVES = PRESCAN_POINTS  # dead_at of a row alive at every bracket point
# _x_brackets reads the grid points from one cell below to one cell above the
# cell of each candidate strength, so a candidate a cell off still brackets.
_AROUND = np.arange(-1, 3, dtype=np.int16)
_UNREAD = np.iinfo(np.int16).max
MAX_TOL = 1e-3
# The tail point 1 - tol stays below 1, where a channel may leave a product state.
_BELOW_ONE = np.nextafter(1.0, 0.0)
# The locator locates X-states _BLOCK_POINTS at a time and never asks a margins
# provider for more than _BLOCK_POINTS points at once, so its memory does not
# grow with the number of states.
_BLOCK_POINTS = 4 * PRESCAN_POINTS
# Most levels of one guessed walk (_replay): tol 1e-17 takes 48 from a grid
# cell; rows still open after it go on in lockstep.
_MAX_WALK = 64
# Most walked rows that _replay steps in Python floats; more are stepped in
# arrays, which cost a round of numpy calls per level whatever their number.
# Python floats are faster below about 18-20 walked rows and arrays above
# (tol 1e-6 and 1e-9, MEMS under all three families); threshold_set walks at
# most 4 rows, a 30-MEMS block of x_thresholds 90-120.
_SCALAR_ROWS = 16
# _cubic_root's two sets of nodes, offsets from dead_at (node, set, row): the
# bracket and a point on either side, and the four points up to its alive end.
_CUBIC_NODES = np.array([[-1, -1], [0, -2], [1, -3], [-2, -4]])[..., None]
_NEWTON_STEPS = 2
# Cubic roots that differ by more than this mean a margin that jumps (_cubic_root).
_JUMP = 1e-6
# Fewest bisection levels per margins call; _locate takes more while few
# brackets are open.
_MIN_LEVELS = 3
# A det(rho^{T_B}) of at most this size has no reliable sign. The interpolant
# of _kraus_margins is off by up to ~4e-17 on Ginibre states of rank 1 to 4
# under every family, against the exact determinant of the same floats, and
# LAPACK's LU determinant by about as much.
DET_ROUNDING = 1e-15
# A det(rho^{T_B}) of at least this size proves the state separable with room
# to spare: rho^{T_B} has at most one negative eigenvalue, so it is positive
# definite, with lambda_min >= det as every eigenvalue is at most 1. A separable
# state's unclamped concurrence is at most -2 lambda_min <= -2e-6 (equal on
# Werner states), far below the ~2e-8 error of its Wootters roots, so its C
# prints as 0 without them (``scan``).
SEPARABLE_DET = 1e-6
# A state within this of the product of its marginals, entry by entry, is read
# as that product. It is a few times the rounding of a product's own floats: at
# most 1.4e-15 on 20,000 random products under random local unitaries, against
# at least 8e-3 on Ginibre and `general-thresholds` states. A channel on B keeps
# a product a product, so it is separable at every strength, with F <= 2/3 and
# B <= 2 (T = a b^T has one singular value, at most 1), and every condition is
# dead at q = 0 (``threshold_set``).
PRODUCT_ROUNDING = 4e-15
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


# Each entry of rho(q) = A + q B + sqrt(1-q) C, of T and of rho^{T_B} is a
# quadratic in s = sqrt(1-q), and each row of _kraus_table a polynomial of
# degree at most 8 in s, sampled at the Chebyshev points x_j = cos(j pi / 8) of
# x = 2s - 1 (q = 0 and q = 1 among them). This matrix maps the samples f_j to
# the coefficients c_k = sum_j f_j T_k(x_j) / 4 of T_k(x), with the terms
# j = 0, 8 and the coefficients k = 0, 8 halved.
_CHEB_NODES = 0.5 + 0.5 * np.cos(np.pi * np.arange(9) / 8)
_CHEB_OF_SAMPLES = np.cos(np.pi * (np.outer(np.arange(9), np.arange(9)) % 16) / 8) / 4
_CHEB_OF_SAMPLES[[0, -1]] /= 2
_CHEB_OF_SAMPLES[:, [0, -1]] /= 2


def _affine_coefficients(state_mat: np.ndarray, family: str) -> np.ndarray:
    """(A, B, C), shape (3, 4, 4), such that evolve_grid at q is A + q B + sqrt(1-q) C."""
    return (state_mat.reshape(16) @ affine_map(family).reshape(16, 48)).reshape(3, 4, 4)


def _curves(evolved: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C unclamped, F, B) of evolved states (M, 4, 4), from their spectra."""
    c_unclamped = concurrence_of_roots(wootters_roots_stack(evolved))
    _, f, b = correlation_measures(correlation_singvals_stack(evolved).T)
    return c_unclamped, f, b


def _kraus_table(state_mat: np.ndarray, family: str) -> np.ndarray:
    """Chebyshev table (9, 9) of a state's Kraus path: row r holds the coefficients of T_0..T_8.

    The rows are the ``correlation_invariants`` of T (the six Gram entries,
    ||adj T||_F^2 and det T) and det(rho^{T_B}). Each entry of rho, and so of
    T and of rho^{T_B}, is a quadratic in s = sqrt(1-q), so each row is a
    polynomial of degree at most 8 in s, taken exactly from its values at
    ``_CHEB_NODES``.
    """
    s = _CHEB_NODES[:, None, None]
    coef = _affine_coefficients(state_mat, family)
    # The parts of T and of rho^{T_B} (which swaps the B indices of row (a, b)
    # and column (a', b')), each then taken at the nodes.
    parts = (correlation_matrix_stack(coef),
             coef.reshape(3, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(3, 4, 4))
    t, transposed = (p[0] + (1.0 - s * s) * p[1] + s * p[2] for p in parts)
    at_nodes = np.vstack([correlation_invariants(t.transpose(1, 2, 0)),
                          np.linalg.det(transposed).real])
    return at_nodes @ _CHEB_OF_SAMPLES.T


def _chebyshev_rows(table: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """The rows (9, M) of a ``_kraus_table`` at strengths qs, the sum of table[:, k] T_k(x).

    x = 2 sqrt(1-q) - 1; T_k(x) comes from the three-term recurrence and the
    terms are added in order of k, all elementwise, so a point's rows do not
    depend on the other points of the call (a matrix product would, and so
    would one ``np.add.reduce`` over the terms).
    """
    x = 2.0 * np.sqrt(1.0 - qs) - 1.0
    x2 = 2.0 * x
    rows = table[:, :1] + table[:, 1:2] * x
    prev, cur = 1.0, x
    for k in range(2, table.shape[1]):
        prev, cur = cur, x2 * cur - prev
        rows += table[:, k:k + 1] * cur
    return rows


def _kraus_margins(state_mat: np.ndarray, family: str):
    """Margins provider of one state (``states`` is all zeros) through the Kraus pipeline.

    The state is tabulated once (``_kraus_table``), and every point sums its
    rows from that table (``_chebyshev_rows``): the G, B and F rows are the
    signs of the invariants of T (``invariant_sign_margins``, no SVD) and the
    concurrence row is -det(rho^{T_B}). No step mixes points.

    Where |det(rho^{T_B})| <= DET_ROUNDING its sign is rounding noise (a
    partial transpose with a zero eigenvalue, as for a product state, which a
    channel may leave at q = 1). Such points are evolved directly and read
    from ``_curves`` instead, the concurrence row taking the sign of the
    Wootters concurrence at size DET_ROUNDING, so rank-deficient states keep
    the thresholds the spectra gave.
    """
    table = _kraus_table(state_mat, family)

    def margins(states: np.ndarray, qs: np.ndarray) -> np.ndarray:
        rows = _chebyshev_rows(table, qs)
        det = rows[-1]
        out = np.concatenate([invariant_sign_margins(rows[:-1]), -det[None]])
        unresolved = np.flatnonzero(np.abs(det) <= DET_ROUNDING)
        if unresolved.size:
            c, f, b = _curves(evolve_grid(state_mat, family, qs[unresolved]))
            out[:, unresolved] = alive_margins(f, b, np.sign(c) * DET_ROUNDING)
        return out

    return margins


def _x_margins(parts: np.ndarray):
    """Margins provider of X-states, their (A, B, C) parts (18, N), through the closed-form X path.

    ``parts`` is the ``np.dot`` of the map's X block (``_x_block``) with the
    states' X entries, formed once per block by ``x_thresholds``; a point's
    evolved entries are (A + q B) + sqrt(1-q) C. A margin is the larger of
    its condition's two ``_x_blocks`` (G, B, F) or their product (C).
    """

    def margins(states: np.ndarray, qs: np.ndarray) -> np.ndarray:
        a, b, c = parts.take(states, axis=1).reshape(3, 6, -1)
        blocks = _x_blocks((a + qs * b) + np.sqrt(1.0 - qs) * c, np.multiply, 1.0)
        out = np.maximum(blocks[:, 0], blocks[:, 1])
        out[3] = blocks[3, 0] * blocks[3, 1]
        return out

    return margins


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


@functools.lru_cache(maxsize=16)
def _ends(tol: float) -> np.ndarray:
    """The PRESCAN_POINTS bracket points, read-only: the grid below q = 1, then the tail point."""
    ends = np.append(_GRID[:-1], min(1.0 - tol, _BELOW_ONE))
    ends.setflags(write=False)
    return ends


def _prescan(margins, state: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(dead_at, guess), each (4,), of one state from one margins call at every bracket point.

    ``dead_at`` indexes ``_ends(tol)``: the first bracket point at which a
    condition is dead, 0 if at q = 0, _SURVIVES if at none. The call reads
    q = 1 last, which changes no index (the benchmark's span self-test reaches
    the spectra fallback there). ``guess`` is each row's predicted sign change
    in its bracket, for ``_locate`` (``_cubic_root``).
    """
    qs = np.append(_ends(tol), 1.0)
    values = margins(np.full(qs.size, state), qs)
    dead = ~(values > 0.0)
    dead[:, -1] = True
    dead_at = dead.argmax(axis=1)
    return dead_at, _cubic_root(qs, values, dead_at)


def _cubic_root(qs: np.ndarray, values: np.ndarray, dead_at: np.ndarray) -> np.ndarray:
    """Sign change (4,) of each row of ``values`` (4, qs.size) in its bracket, a guess.

    Two cubics in s = sqrt(1-q) through a row's values at four points of
    ``qs``, each in Newton's divided-difference form, and _NEWTON_STEPS
    Newton steps from the secant point of its first two nodes: one through
    the bracket qs[dead_at - 1] to qs[dead_at] and a point on either side (q =
    1 for the first cell), and one through the four points up to the bracket's
    alive end. The first is the more accurate where the margin is smooth. A
    margin may jump where it dies, as B's does when the pivot that crosses
    zero is not the last one, but it reaches zero from the alive side: where
    the two roots differ by more than _JUMP, the second is taken. Any float
    comes out, NaN and inf included, where the margins are not smooth or the
    row has no bracket.
    """
    at = (dead_at + _CUBIC_NODES) % qs.size
    nodes = np.sqrt(1.0 - qs[at])
    coef = values[np.arange(values.shape[0]), at]
    with np.errstate(all="ignore"):
        for k in range(1, 4):
            coef[k:] = (coef[k:] - coef[k - 1:-1]) / (nodes[k:] - nodes[:-k])
        root = nodes[0] - coef[0] / coef[1]
        for _ in range(_NEWTON_STEPS):
            d = root - nodes
            p = coef[3] * d[2] + coef[2]
            dp = coef[3] * d[1] + p
            p = p * d[1] + coef[1]
            dp = dp * d[0] + p
            root = root - (p * d[0] + coef[0]) / dp
        q = 1.0 - root * root
        return np.where(np.abs(q[0] - q[1]) <= _JUMP, q[0], q[1])


def _unit_candidates(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real roots and vertex in (0, 1] of quadratics c0 + c1 t + c2 t^2, ``coef`` (3, ...).

    Returns (t, certain): t (3, ...) holds two roots and the vertex, NaN where
    there is none in (0, 1]. t = 0 is q = 1, past the tail point: a quadratic
    in s with no s term, as under depolarizing noise, has its vertex there
    and nothing to locate. ``certain`` is False where the coefficients are
    all zero or not finite. Each quadratic is scaled by its largest
    coefficient, its roots are h / c2 and c0 / h with
    h = -(c1 + sign(c1) sqrt(c1^2 - 4 c0 c2)) / 2, and a quotient is taken
    only where it lies in [-1, 1], so nothing overflows or divides by zero.
    """
    scale = np.abs(coef).max(axis=0)
    certain = np.isfinite(scale) & (scale > 0.0)
    c0, c1, c2 = np.divide(coef, scale, out=np.zeros_like(coef), where=certain)
    disc = c1 * c1 - 4.0 * c0 * c2
    num, den = np.empty((2,) + coef.shape)
    num[0] = den[1] = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), c1))
    num[1], num[2], den[0], den[2] = c0, -0.5 * c1, c2, c2
    inside = (np.abs(num) <= np.abs(den)) & (den != 0.0)
    inside[:2] &= disc >= 0.0
    t = np.divide(num, den, out=np.full(num.shape, np.nan), where=inside)
    return np.where(t > 0.0, t, np.nan), certain


def _even_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of 1, u, u^2 (u = s^2) of the product of x and y, each in 1, s, s^2.

    The odd powers of s are dropped: on X-states they are zero, as each
    coherence is one multiple of s or of s^2, and the populations are affine
    in q (the map gives them no s term).
    """
    out = x * y
    # The u term x0 y2 + x1 y1 + x2 y0, over the reversed coefficients of y.
    cross = x * y[::-1]
    out[1] = cross[0] + cross[1] + cross[2]
    return out


@functools.cache
def _x_block(family: str) -> np.ndarray:
    """The X block of ``affine_map``, read-only, laid out (18, 6) as ``np.tensordot`` lays it out.

    Its ``np.dot`` with X entries (6, N) is (A, B, C) of each, the floats of tensordot:
    the parts that ``x_thresholds`` forms once per block and every X stage reads.
    """
    block = affine_map(family)[X_FLAT][:, :, X_FLAT].transpose(1, 2, 0).reshape(18, 6)
    block.setflags(write=False)
    return block


# The constant term 1 of a quadratic in s, laid out as _x_quadratics' entries.
_ONE_IN_S = np.array([1.0, 0.0, 0.0])[:, None]
# The conditions in Measure order whose quadratics are in s (G and F), not in u.
_IN_S = np.array([True, False, True, False])[:, None, None]
# G, B and F guess their largest root in the bracket, C its smallest.
_ROOT_SIGN = np.array([1.0, 1.0, 1.0, -1.0])[:, None, None]


def _x_blocks(x, mul, one) -> np.ndarray:
    """The two blocks (4, 2, ...) of each condition of X entries x (6, ...), in Measure order.

    x holds rho11, rho22, rho33, rho44, |rho14|, |rho23|, multiplied by ``mul``,
    with unit ``one``; z = rho11 - rho22 - rho33 + rho44. By the singular values
    2(|rho14| + |rho23|), 2 ||rho14| - |rho23|| and |z| of T, G, B and F hold
    where the larger of their blocks is positive, C where their product is:

      G, F  4 max(|rho14|, |rho23|) +- z - c: the larger is N - c (F > F_lhv, F > 2/3)
      B     8(|rho14|^2 + |rho23|^2) - 1 and 4(|rho14| + |rho23|)^2 + z^2 - 1:
            the larger is s1^2 + s2^2 - 1 (B > 2)
      C     |rho23|^2 - rho11 rho44 and rho22 rho33 - |rho14|^2: the product is
            det(rho^{T_B}), as the partial transpose swaps rho14 and rho23

    ``_x_margins`` takes x at points, ``_x_quadratics`` their coefficients in s.
    """
    d11, d22, d33, d44, a14, a23 = x
    z = d11 - d22 - d33 + d44
    big = 4.0 * np.maximum(a14, a23)
    sq14, sq23, both = mul(a14, a14), mul(a23, a23), a14 + a23
    cut_g, cut_f = (cut * one for cut in _N_CUTS[:, 0])
    # In place, cheaper than stacking eight blocks: 4 max +- z less the cut of F, then of G.
    blocks = np.empty((4, 2) + z.shape)
    np.add(big, z, out=blocks[0, 0])
    np.subtract(big, z, out=blocks[0, 1])
    np.subtract(blocks[0], cut_f, out=blocks[2])
    blocks[0] -= cut_g
    blocks[1, 0] = 8.0 * (sq14 + sq23) - one
    blocks[1, 1] = 4.0 * mul(both, both) + mul(z, z) - one
    blocks[3, 0] = sq23 - mul(d11, d44)
    blocks[3, 1] = mul(d22, d33) - sq14
    return blocks


def _x_quadratics(parts: np.ndarray) -> np.ndarray:
    """The eight quadratics of X-states, their (A, B, C) parts (18, N): coefficients (3, 4, 2, N).

    Each entry of the evolved state is e(s) = e0 + e1 s + e2 s^2 in s = sqrt(1-q),
    read from the parts that ``_x_margins`` evolves: the map's X block
    (``_x_block``) acts on moduli, so no term joins rho14 and rho23 or their
    conjugates. The quadratics are the ``_x_blocks`` of those coefficients,
    so a condition can change sign only where one of its two quadratics does
    (max(x, y) > 0 and xy > 0 change sign only where x or y does). G and F
    take no product and stay in s; the products of B and C
    (``_even_product``) are in u = s^2. The axes are (coefficient of 1, s or
    u and s^2 or u^2; condition in Measure order; quadratic; state).
    """
    a, b, c = parts.reshape(3, 6, -1)
    # rho(q) = (A + B) + s C - s^2 B.
    blocks = _x_blocks(np.stack([a + b, c, -b], axis=1), _even_product, _ONE_IN_S)
    # A contiguous copy: _unit_candidates reads it faster than the strided view.
    return np.ascontiguousarray(np.moveaxis(blocks, 2, 0))


def _read_points(qs: np.ndarray, uncertain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(states, points) that ``_x_brackets`` reads, state by state, points in order.

    The bracket points of a certain state are q = 0, the tail point and those
    from one cell below to one cell above each candidate's cell. Each state's
    points are one row of int16 (q = 0 and the tail point, then four per
    candidate), sorted along it, with _UNREAD for none.
    """
    n = uncertain.size
    found = ~(np.isnan(qs) | uncertain).reshape(-1, n).T
    reads = np.full((n, 1 + found.shape[1], _AROUND.size), _UNREAD, dtype=np.int16)
    reads[~uncertain, 0, :2] = 0, PRESCAN_POINTS - 1
    cells = (qs.reshape(-1, n).T[found] * (PRESCAN_POINTS - 1)).astype(np.int16)
    reads[:, 1:][found] = np.minimum(np.maximum(cells[:, None] + _AROUND, 0), PRESCAN_POINTS - 1)
    reads = reads.reshape(n, -1)
    reads.sort(axis=1)
    first = reads != _UNREAD
    first[:, 1:] &= reads[:, 1:] != reads[:, :-1]
    return np.nonzero(first)[0], reads[first]


def _x_brackets(margins, parts: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """(dead_at, guess, uncertain) of X-states, their (A, B, C) parts (18, N), as ``_prescan`` gives them.

    The eight ``_x_quadratics`` of every state are solved in one
    ``_unit_candidates`` call: the candidate strengths qs (3, 4, 2, N), where
    ``qs[k, m, j]`` is root k (k = 2: the vertex) of quadratic j of condition
    m, NaN where it is not real or not in [0, 1]. ``margins``, the states'
    ``_x_margins``, is read at the points of ``_read_points`` around them;
    between two of those points the sign is taken as constant, so a row's
    dead_at is its first dead read point, as ``_prescan``'s is its first dead
    bracket point. Each condition's guess is a real root in its bracket of its
    own two quadratics, vertices left out: G, B and F, alive while either
    quadratic is positive, take the largest, C, whose product changes sign at
    either root, the smallest; +-inf if none. A state is uncertain, and is
    pre-scanned instead, if its coefficients are degenerate or not finite, or
    if two points that bound an unread run of bracket points disagree.
    """
    n = parts.shape[1]
    t, certain = _unit_candidates(_x_quadratics(parts))
    qs, uncertain = 1.0 - np.where(_IN_S, t * t, t), ~certain.all(axis=(0, 1))
    states, points = _read_points(qs, uncertain)
    ends = _ends(tol)
    dead_at = np.full((n, len(Measure)), _SURVIVES)
    if states.size:
        alive = _alive(margins, states, ends[points])
        changes = (alive[:, 1:] != alive[:, :-1]) & (states[1:] == states[:-1])
        uncertain[states[1:][(np.diff(points) > 1) & changes.any(axis=0)]] = True
        # Each state read reads q = 0 first; its run of points ends at the next state's first point.
        starts = np.flatnonzero(points == 0)
        dead_at[states[starts]] = np.minimum.reduceat(np.where(alive, _SURVIVES, points), starts, axis=1).T
    lo = ends[np.maximum(dead_at - 1, 0)].T[:, None]
    hi = ends[np.minimum(dead_at, PRESCAN_POINTS - 1)].T[:, None]
    roots = qs[:2]
    inside = (roots >= lo) & (roots <= hi)
    signed = np.where(inside, _ROOT_SIGN * roots, -np.inf).max(axis=(0, 2))
    guess = (signed * _ROOT_SIGN[:, 0]).T
    for state in np.flatnonzero(uncertain):
        dead_at[state], guess[state] = _prescan(margins, state, tol)
    return dead_at, guess, uncertain


def _done(lo: np.ndarray, hi: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(done, midpoint) of bisection brackets lo to hi.

    A bracket is done once narrow enough, or once it is two adjacent floats
    (below any tol of about 1e-15) and cannot shrink.
    """
    mids = 0.5 * (lo + hi)
    return ~(hi - lo > tol) | (mids == lo) | (mids == hi), mids


def _walk(lo: np.ndarray, hi: np.ndarray, guess: np.ndarray, levels: int) -> np.ndarray:
    """Brackets (2, levels + 1, m) of each bisection of lo to hi toward its guess.

    A midpoint below the guess is taken as alive.
    """
    path = np.empty((2, levels + 1, lo.size))
    path[:, 0] = lo, hi
    for level in range(levels):
        mid = 0.5 * (path[0, level] + path[1, level])
        up = mid < guess
        path[0, level + 1] = np.where(up, mid, path[0, level])
        path[1, level + 1] = np.where(up, path[1, level], mid)
    return path


def _replay_rows(margins, found, rows, lo, hi, guess, levels: int, tol: float):
    """``_replay``'s walk of a few rows, one by one in Python floats: the rows left open, as (rows, lo, hi).

    The floats, the points read and their order are those of ``_replay_arrays``.
    """
    paths, states, points = [], [], []
    for row, a, b, g in zip(rows.tolist(), lo.tolist(), hi.tolist(), guess.tolist()):
        path, mid = [], 0.5 * (a + b)
        for _ in range(levels):
            path.append((a, b, mid, mid < g))
            a, b = (mid, b) if mid < g else (a, mid)
            # _done of the bracket after this level.
            mid = 0.5 * (a + b)
            if not b - a > tol or mid == a or mid == b:
                break
        paths.append((a, b, path))
        states += [row // len(Measure)] * len(path)
        points += [level[2] for level in path]
    alive = _alive(margins, np.array(states), np.array(points)).tolist()
    open_rows, open_lo, open_hi, start = [], [], [], 0
    for row, (a, b, path) in zip(rows.tolist(), paths):
        bits = alive[row % len(Measure)][start:start + len(path)]
        start += len(path)
        for (a_l, b_l, mid, predicted), bit in zip(path, bits):
            if bit != predicted:
                a, b = (mid, b_l) if bit else (a_l, mid)
                break
        mid = 0.5 * (a + b)
        if not b - a > tol or mid == a or mid == b:
            found[row] = mid
        else:
            open_rows.append(row)
            open_lo.append(a)
            open_hi.append(b)
    return np.array(open_rows, dtype=rows.dtype), np.array(open_lo), np.array(open_hi)


def _replay_arrays(margins, found, rows, lo, hi, guess, levels: int, tol: float):
    """``_replay``'s walk of many rows, stepped level by level in arrays (``_walk``): the rows left open."""
    path_lo, path_hi = _walk(lo, hi, guess, levels)
    done, mids = _done(path_lo, path_hi, tol)
    # A row reads the midpoints of the levels before its first done bracket,
    # at least one, and all ``levels`` if none is done.
    done[0], done[-1] = False, True
    reads = done.argmax(axis=0)
    # Read row by row: the transposed views list each row's levels in turn.
    read = (np.arange(levels)[:, None] < reads).T
    predicted = mids[:-1] < guess
    bits = predicted.copy()
    alive = _alive(margins, np.repeat(rows // len(Measure), reads), mids[:-1].T[read])
    bits.T[read] = alive[np.repeat(rows % len(Measure), reads), np.arange(alive.shape[1])]
    wrong = bits != predicted
    missed = wrong.any(axis=0)
    # Each row's bracket after its last matching level, or after its first
    # mismatch with the observed bit applied.
    col = np.arange(rows.size)
    at = np.where(missed, wrong.argmax(axis=0), reads)
    observed, mid = bits[np.minimum(at, levels - 1), col], mids[at, col]
    lo_at = np.where(missed & observed, mid, path_lo[at, col])
    hi_at = np.where(missed & ~observed, mid, path_hi[at, col])
    done, mid = _done(lo_at, hi_at, tol)
    found[rows[done]] = mid[done]
    return rows[~done], lo_at[~done], hi_at[~done]


def _replay(margins, found, active, lo, hi, guess, tol: float):
    """Locate the rows of ``_locate`` whose guess holds; the rows left open, as (active, lo, hi).

    A row whose guess lies in its bracket walks its bisection toward it (alive
    below the guess), for the levels the widest bracket needs at tol plus one
    for rounding, with the floats and done test of the lockstep loop. One
    ``_alive`` call reads every row's path up to its done level. A row whose
    bits all match is located. A row whose first mismatch is at level l takes
    its bracket after level l with the observed bit: located if that bracket
    is done, left open if not, as are matched rows the walk left open and
    rows with no guess in their bracket (NaN, inf or outside). Up to
    _SCALAR_ROWS walked rows step in Python floats (``_replay_rows``), more in
    arrays (``_replay_arrays``); both read the same points and give the same
    floats.
    """
    walk = (guess >= lo) & (guess <= hi)
    if not walk.any():
        return active, lo, hi
    rows = active[walk]
    width = max(float((hi - lo)[walk].max()), tol)
    levels = min(_MAX_WALK, math.ceil(math.log2(width) - math.log2(tol)) + 1)
    replay = _replay_rows if rows.size <= _SCALAR_ROWS else _replay_arrays
    rows, lo_at, hi_at = replay(margins, found, rows, lo[walk], hi[walk], guess[walk], levels, tol)
    return (np.concatenate([active[~walk], rows]),
            np.concatenate([lo[~walk], lo_at]), np.concatenate([hi[~walk], hi_at]))


def _locate(margins, dead_at: np.ndarray, tol: float, guess: np.ndarray) -> np.ndarray:
    """Critical strengths (n, 4) of all four conditions of n states, in Measure order.

    ``margins(states, qs)`` gives the alive margins (4, M) of state
    ``states[k]`` at strength ``qs[k]``. ``dead_at`` (n, 4) is each (state,
    condition) row's first dead bracket point, as ``_prescan`` gives it: a row
    dead at q = 0 reads 0, a row alive at every bracket point (_SURVIVES)
    reads NaN (survives all noise), and any other is bracketed by its point of
    ``_ends(tol)`` and the one before it. Only bracket midpoints are read.

    Guess, verify, resume: ``guess`` (n, 4) predicts where each row changes
    sign, NaN where nothing is predicted. ``_replay`` walks each row's
    bisection toward its guess, verifies every predicted midpoint in one
    margins call and locates the rows whose guess holds. A row with a
    mismatch resumes from its exact bracket after it, with the rows that have
    no guess in their bracket (NaN, inf or outside): they are
    bisected in lockstep at the midpoints one level per call would compute, a
    row stopping at the first level where it is done. A call takes
    L = max(_MIN_LEVELS, floor(log2(PRESCAN_POINTS // open + 1))) levels of
    the open brackets, (2^L - 1) midpoints each, so it holds at most about one
    pre-scan of points unless L is the minimum: one row takes nine levels a
    call, 120 rows three. A provider gives each point's margins independently
    of the call, so the floats are those of one level per call, whatever the
    guess.
    """
    rows = len(Measure)
    ends = _ends(tol)
    found = np.where(dead_at > 0, np.nan, 0.0).ravel()
    active = np.flatnonzero((dead_at > 0) & (dead_at < _SURVIVES))
    lo, hi = ends[dead_at.ravel()[active] - 1], ends[dead_at.ravel()[active]]
    active, lo, hi = _replay(margins, found, active, lo, hi, guess.ravel()[active], tol)
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
        done, mids = _done(lo, hi, tol)
        ended = done.any(axis=0)
        found[active[ended]] = mids[done.argmax(axis=0), col][ended]
        active, lo, hi = active[~ended], lo[-1, ~ended], hi[-1, ~ended]
    return found.reshape(dead_at.shape)


def threshold_set(
    state: DensityMatrix, family: str, tol: float = 1e-9
) -> ThresholdSet:
    """All four critical strengths of a state/channel pair, from one pre-scan.

    The pre-scan and the bisection read the alive margins of the Kraus
    pipeline's affine evolution (``_kraus_margins``): F and B signs from the
    correlation matrix, entanglement from -det(rho^{T_B}), and all four from
    the spectra where that determinant is rounding noise. A product state
    (``PRODUCT_ROUNDING``) is separable all along its path: all four read 0.
    """
    tol = _check_tol(tol)
    margins = _kraus_margins(state.mat, family)  # checks the family, products too
    r = state.mat.reshape(2, 2, 2, 2)
    # r - rho_A x rho_B, the marginals' product formed from their traces.
    if np.abs(r - np.einsum("iaka,bjbl->ijkl", r, r)).max() <= PRODUCT_ROUNDING:
        return ThresholdSet(0.0, 0.0, 0.0, 0.0)
    dead_at, guess = _prescan(margins, 0, tol)
    found = _locate(margins, dead_at[None], tol, guess[None])[0]
    return ThresholdSet(*(None if math.isnan(q) else q for q in found.tolist()))


def _check_x_entries(entries: np.ndarray) -> np.ndarray:
    """X entries (6, N) as an array, checked with the errors and tolerances of ``DensityMatrix``.

    ValueError unless real, shaped (6, N) and finite (complex coherences are
    not entries: the entries hold their moduli); TraceNotOne
    unless the populations sum to 1 within TRACE_TOL; NotPSD if a modulus is
    negative or a block {rho11, rho44, |rho14|} or {rho22, rho33, |rho23|},
    whose eigenvalues are those of the X-state, has one below -PSD_TOL.
    """
    entries = np.asarray(entries)
    if entries.ndim != 2 or entries.shape[0] != 6 or entries.dtype.kind not in "iuf":
        raise ValueError(f"expected real X entries of shape (6, N), got {entries.dtype} {entries.shape}")
    if not np.isfinite(entries).all():
        raise ValueError("X entries must be finite numbers")
    trace_err = np.abs(entries[:4].sum(axis=0) - 1.0).max(initial=0.0)
    if trace_err > TRACE_TOL:
        raise TraceNotOne(f"a trace is off by {trace_err:.3e}")
    # The blocks' diagonals (rho11, rho22) and (rho44, rho33), and their moduli.
    d, e, m = entries[:2], entries[3:1:-1], entries[4:]
    if m.min(initial=0.0) < 0.0:
        raise NotPSD(f"modulus {m.min():.3e} below 0")
    min_eig = (0.5 * (d + e) - np.hypot(0.5 * (d - e), m)).min(initial=0.0)
    if min_eig < -PSD_TOL:
        raise NotPSD(f"minimum eigenvalue {min_eig:.3e} below -{PSD_TOL:.0e}")
    return entries


def x_thresholds(entries: np.ndarray, family: str, tol: float) -> np.ndarray:
    """Critical strengths (N, 4) of X-states, in Measure order, NaN where one survives.

    ``entries`` (6, N) holds rho11, rho22, rho33, rho44, |rho14| and |rho23|
    of each state (``channels.X_FLAT``); row k is the ``threshold_set`` of
    state k, NaN for None. The entries are checked as
    ``DensityMatrix`` checks a state (``_check_x_entries``). Each block's
    (A, B, C) parts are formed once; the margins come from them in closed
    form (``_x_margins``), and the brackets from their roots (``_x_brackets``),
    with no pre-scan unless a state's roots cannot be certified; the floats
    are those of ``_locate`` with the pre-scan.
    """
    tol = _check_tol(tol)
    channel_family(family)
    entries = _check_x_entries(entries)
    found = np.empty((entries.shape[1], len(Measure)))
    # Located _BLOCK_POINTS states at a time, so the scratch arrays do not grow with n.
    for k in range(0, entries.shape[1], _BLOCK_POINTS):
        parts = np.dot(_x_block(family), entries[:, k:k + _BLOCK_POINTS])
        margins = _x_margins(parts)
        dead_at, guess, _ = _x_brackets(margins, parts, tol)
        found[k:k + _BLOCK_POINTS] = _locate(margins, dead_at, tol, guess)
    return found


def ordered(found: np.ndarray) -> np.ndarray:
    """q_G <= q_B <= q_F <= q_C up to HIERARCHY_SLACK of rows (..., 4), NaN as +infinity.

    At every state G alive => B alive => F alive => C alive (see the README), so the
    first deaths obey this order on every noise path: False flags a locator error.
    """
    q = np.where(np.isnan(found), np.inf, found)
    return np.all(q[..., :-1] <= q[..., 1:] + HIERARCHY_SLACK, axis=-1)


def hierarchy_check(ts: ThresholdSet) -> bool:
    """``ordered`` of one ThresholdSet, None read as +infinity."""
    return bool(ordered(np.array([ts.q_g, ts.q_b, ts.q_f, ts.q_c], dtype=float)))


# A float gives a float, arrays that broadcast together an array.
ArrayOrFloat = float | np.ndarray


def _check_point(p: ArrayOrFloat, q: ArrayOrFloat) -> tuple[np.ndarray, np.ndarray]:
    """Floats or broadcastable arrays as float arrays; ValueError names the first bad entry."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    for name, value in (("state parameter p", p), ("channel parameter q", q)):
        inside = (value >= 0.0) & (value <= 1.0)
        if not inside.all():
            raise ValueError(f"{name} must lie in [0, 1], got {value[~inside][0]}")
    return p, q


def concurrence_ad(p: ArrayOrFloat, q: ArrayOrFloat) -> ArrayOrFloat:
    """Concurrence of the Werner state p under amplitude damping q, clamped at zero.

    C(p, q) = max(0, p sqrt(1-q) - (1/2) sqrt((1-p)(1-q)(1-p+q+pq))). Its
    signed value before the clamp, whose zero crossing locates q_C, is
    ``concurrence_ad_unclamped`` in ``tests/oracles.py``.
    """
    p, q = _check_point(p, q)
    inner = (1.0 - p) * (1.0 - q) * (1.0 - p + q + p * q)
    return np.maximum(0.0, p * np.sqrt(1.0 - q) - 0.5 * np.sqrt(np.maximum(inner, 0.0)))


def fidelity_ad(p: ArrayOrFloat, q: ArrayOrFloat) -> ArrayOrFloat:
    """Optimal teleportation fidelity of the damped Werner state: (3 + (1 + 2 sqrt(1-q) - q) p) / 6."""
    p, q = _check_point(p, q)
    return (3.0 + (1.0 + 2.0 * np.sqrt(1.0 - q) - q) * p) / 6.0


def bell_ad(p: ArrayOrFloat, q: ArrayOrFloat) -> ArrayOrFloat:
    """Two-branch closed-form Bell parameter of the damped Werner state, max(B1, B2).

    B1 = 2 sqrt(p) sqrt(1-q), B2 = 2 p sqrt(2 - 3q + q^2). The expression is
    kept as-is rather than silently corrected. It is known to be defective:
    with s = sqrt(1-q), B2 equals 2 sqrt(v1 + v3) over the eigenvalues
    v = (p^2 s^2, p^2 s^2, p^2 s^4) of T^T T, i.e. it pairs the largest
    eigenvalue with the smallest instead of the two largest, and B1
    over-scales at small p. The Kraus pipeline yields 2 sqrt(2) p sqrt(1-q)
    exactly. Dedicated diagnostic tests characterize the discrepancy, so the
    defective form stays inspectable next to the measured truth; the two
    branches apart are ``bell_ad_branches`` in ``tests/oracles.py``.
    """
    p, q = _check_point(p, q)
    return np.maximum(2.0 * np.sqrt(p) * np.sqrt(1.0 - q), 2.0 * p * np.sqrt(2.0 - 3.0 * q + q * q))


def werner_region(p: ArrayOrFloat, q: ArrayOrFloat) -> str | np.ndarray:
    """Region label R1..R5 of the Werner (p, q) plane from the closed forms.

    R1 separable, R2 entangled only, R3 teleportation-useful without CHSH
    violation, R4 CHSH-violating below the Gisin bound, R5 beyond it. The
    closed forms above are ranked by ``hierarchy_rank``, the ladder of
    ``classify``. Takes floats (one label, an ``np.str_``) or arrays that
    broadcast together (an array of labels).
    """
    # Read from the module's globals on each call, so a wrapper set on qnl.thresholds sees it.
    margins = alive_margins(fidelity_ad(p, q), bell_ad(p, q), concurrence_ad(p, q))
    return np.asarray(REGIONS)[hierarchy_rank(margins)]


def _prints_alike(x: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Columns of x (k, M), x >= 0 or NaN, where every float within err of each entry prints one ``%.12g``.

    %.12g rounds x correctly to 12 significant digits, monotonically, so every
    float within err prints alike if no rounding midpoint of x's decade lies
    within err of it. In units y = x 10^(11 - e) of the 12th digit, with
    e = floor(log10 x), the midpoints are the half-integers, and the decade is
    [1e11, 1e12). A column is refused where y is within err (plus 4 eps x, the
    rounding of y) of a half-integer or of the decade's ends, which also
    catches an e that log10 rounded to the wrong side, a zero and a NaN.
    """
    scale = 10.0 ** (11.0 - np.floor(np.log10(np.maximum(x, 1e-200))))
    y, m = x * scale, (err + 4.0 * np.finfo(float).eps * x) * scale
    return ((np.abs(y - np.floor(y) - 0.5) > m) & (y - m > 1e11) & (y + m < 1e12)).all(axis=0)


def scan(state: DensityMatrix, family: str, q_grid: np.ndarray) -> np.ndarray:
    """Measure table over a strength grid: rows (q, concurrence, fidelity, bell).

    Evolved and measured _BLOCK_POINTS points at a time: memory beyond the
    table is bounded. F and B come from a Jacobi SVD of each point's
    correlation matrix, and from LAPACK's only at the points where a float
    within the Jacobi bound could print other %.12g bytes (``_prints_alike``).
    C is computed only at the points whose det(rho^{T_B}), summed from the
    state's ``_kraus_table``, is below SEPARABLE_DET (or NaN); at the others
    the state is separable and C is 0, the float the roots would give after
    the clamp. At those points C comes from ``jacobi_concurrence``: it is 0
    where the kernel's bound puts LAPACK's unclamped C below zero, and the
    kernel's float where LAPACK's is above zero and prints alike. The other
    points, rank-deficient states among them, read LAPACK's Wootters roots.
    So every printed value is LAPACK's, the floats within the bounds of it.
    Every step is elementwise over the points, so the floats do not depend on
    how the grid is cut into blocks.
    """
    qs = np.asarray(q_grid, dtype=float)
    if qs.ndim != 1 or qs.size == 0:
        raise BadGrid("grid must be a non-empty 1-d sequence")
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise BadGrid("grid values must lie in [0, 1]")
    if qs.size > 1 and not np.all(np.diff(qs) > 0.0):
        raise BadGrid("grid values must be strictly increasing")
    det_row = _kraus_table(state.mat, family)[-1:]
    table = np.zeros((qs.size, 4))
    for block in (slice(k, k + _BLOCK_POINTS) for k in range(0, qs.size, _BLOCK_POINTS)):
        q = qs[block]
        evolved = evolve_grid(state.mat, family, q)
        rows = table[block]
        rows[:, 0] = q
        fb, err = jacobi_fidelity_bell(correlation_matrix_stack(evolved))
        rows[:, 2:] = fb.T
        uncertain = ~_prints_alike(fb, err)
        if uncertain.any():
            _, rows[uncertain, 2], rows[uncertain, 3] = correlation_measures(
                correlation_singvals_stack(evolved[uncertain]).T)
        # A NaN determinant proves nothing, so its row reads the roots too.
        unproven = ~(_chebyshev_rows(det_row, q)[0] >= SEPARABLE_DET)
        if unproven.any():
            # Rebound, so that the whole block is freed before the roots' scratch arrays are made.
            evolved = evolved[unproven]
            c, err = jacobi_concurrence(evolved)
            # LAPACK's C lies within err of c: below 0 it is clamped, above 0 it may print alike.
            uncertain = ~((c + err < 0.0) | ((c - err > 0.0) & _prints_alike(c[None], err[None])))
            c = np.maximum(0.0, c)
            if uncertain.any():
                c[uncertain] = np.maximum(
                    0.0, concurrence_of_roots(wootters_roots_stack(evolved[uncertain])))
            rows[unproven, 1] = c
    return table
