"""Nonlocal-correlation measures of two-qubit states and their classifier.

Four measures are computed from a density matrix rho:

  concurrence      C = max(0, l1 - l2 - l3 - l4), l_i the descending square
                   roots of the eigenvalues of rho @ rho_tilde
  n_value          N = sum of the singular values of the 3x3 Pauli
                   correlation matrix T, t_ij = Tr(rho sigma_i x sigma_j)
  fidelity         F = (1 + N/3) / 2, the optimal teleportation fidelity;
                   useful as a teleportation resource iff F > 2/3
  bell             B = 2 sqrt(s1^2 + s2^2) over the two largest singular
                   values of T; the CHSH inequality is violated iff B > 2

The eigenvalue problem for the non-Hermitian product rho @ rho_tilde is never
solved directly: the l_i are obtained as the singular values of
W = sqrt(rho) (sigma_y x sigma_y) conj(sqrt(rho)), since W W^dagger equals the
Hermitian similarity sqrt(rho) rho_tilde sqrt(rho), which shares its spectrum
with rho @ rho_tilde; ``psd_sqrt_stack`` takes sqrt(rho) from the eigenvectors
and clamped eigenvalues of rho. Both T and the spin flip sigma_y x sigma_y are
built from the module's one copy of the Pauli matrices. On rank-deficient
states the l_i are good to about 1e-8 only: sqrt(rho) clamps an exactly zero
eigenvalue computed as ~1e-17, and its square root (~3e-9) leaks into W. That
error reaches the printed concurrence (``measures``, ``scan``); the threshold
locator reads entanglement from det(rho^{T_B}) and falls back to these roots
only where the determinant is rounding noise itself. ``tests/test_x_path.py``
pins it at 1e-7 against the exact curve of pure a|00> + b|11> states.

``classify`` returns all four, named as above, in one ``MeasureReport``, and
ranks the state by its first failing condition, in C, F, B, G order, over
``alive_margins``, the conditions whose signs the threshold locator reads.

The locator reads the signs of F - F_lhv, B - 2 and F - 2/3 without an SVD,
in two steps: ``correlation_invariants`` gives the polynomials of T they
need (the entries of T^T T, ||adj T||_F^2 and det T), and
``invariant_sign_margins`` the signs from them. The locator takes the first
only at 9 points per state and interpolates it, and the second at every point
(``thresholds._kraus_table``).

``scan`` prints C, F and B to 12 digits, which need not be LAPACK's floats.
It reads them from one one-sided Jacobi SVD, ``_jacobi``, elementwise over a
stack of real or complex columns, with a bound on the distance of its singular
values to LAPACK's: ``jacobi_fidelity_bell`` runs it on the columns of T, for
the floats of ``correlation_singvals_stack``, and ``jacobi_concurrence`` on
those of M = L^T (sigma_y x sigma_y) L, L the Cholesky factor of rho, for
those of ``wootters_roots_stack``. The C bound grows with 1/sqrt(lambda_min),
and that kernel refuses rank-deficient states, so their C stays LAPACK's.
Neither is exported by ``qnl``: ``classify`` and the locator keep LAPACK.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import DensityMatrix

# sigma_x, sigma_y, sigma_z.
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_SIGMA_YY = np.kron(_PAULI[1], _PAULI[1])
_PAULI_KRON = np.stack([np.kron(a, b) for a in _PAULI for b in _PAULI])
_SIGMA_YY.setflags(write=False)
_PAULI_KRON.setflags(write=False)
# Term m of entry k of T: rho's row m meets one non-zero v of column m of
# _PAULI_KRON[k], at row n, and Re(rho[m, n] v) is +-Re rho[m, n] (v = +-1) or
# -+Im rho[m, n] (v = +-i): the float of rho[m, n] read and its sign, (4, 9).
_T_COLUMN = np.argmax(_PAULI_KRON.transpose(0, 2, 1) != 0, axis=2)
_T_V = np.take_along_axis(_PAULI_KRON.transpose(0, 2, 1), _T_COLUMN[..., None], axis=2)[..., 0]
_T_FLOATS = (2 * (4 * np.arange(4) + _T_COLUMN) + (_T_V.imag != 0)).T.copy()
_T_SIGNS = (_T_V.real - _T_V.imag).T.copy()

#: Fidelity bound below which a local-hidden-variable description exists.
GISIN_BOUND = 0.5 + math.sqrt(1.5) * math.atan(math.sqrt(2.0)) / math.pi

#: Slack of every class boundary: a margin at most this size reads as failed.
CLASS_SLACK = 1e-9

#: Region labels of the Werner (p, q) map, in ``HierarchyClass`` order.
REGIONS = ("R1", "R2", "R3", "R4", "R5")


class HierarchyClass(Enum):
    """Strength class of a state's nonlocal correlations, weakest first."""

    SEPARABLE = "SEPARABLE"
    ENTANGLED_ONLY = "ENTANGLED_ONLY"
    TELEPORT_NOT_BELL = "TELEPORT_NOT_BELL"
    BELL_NOT_GISIN = "BELL_NOT_GISIN"
    BEYOND_GISIN = "BEYOND_GISIN"


class Measure(Enum):
    """The alive conditions, in the row order of ``alive_margins``."""

    GISIN = "GISIN"
    BELL = "BELL"
    FIDELITY = "FIDELITY"
    CONCURRENCE = "CONCURRENCE"


@dataclass(frozen=True)
class MeasureReport:
    """All four measures of one state, from one consistent evaluation."""

    concurrence: float
    n_value: float
    fidelity: float
    bell: float
    hierarchy_class: HierarchyClass


def psd_sqrt_stack(mats: np.ndarray) -> np.ndarray:
    """Batched Hermitian square root of PSD matrices, shape (N, d, d).

    Negative eigenvalues, floating-point noise on validated states, are
    clamped to zero without a check.
    """
    w, v = np.linalg.eigh(mats)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def wootters_roots_stack(rhos: np.ndarray) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho @ rho_tilde, batched.

    Input shape (N, 4, 4); output (N, 4). Computed as singular values of
    sqrt(rho) (sigma_y x sigma_y) conj(sqrt(rho)).
    """
    s = psd_sqrt_stack(rhos)
    w = s @ _SIGMA_YY @ np.conj(s)
    return np.linalg.svd(w, compute_uv=False)


def correlation_singvals_stack(rhos: np.ndarray) -> np.ndarray:
    """Descending singular values of the Pauli correlation matrix, batched."""
    t = correlation_matrix_stack(rhos)
    return np.linalg.svd(t, compute_uv=False)


def correlation_matrix_stack(rhos: np.ndarray) -> np.ndarray:
    """Batched 3x3 correlation matrices, t_ij = Tr(rho sigma_i x sigma_j), of states (N, 4, 4).

    The floats of Re einsum("nij,kji->nk", rhos, sigma_i x sigma_j) (``tests/oracles.py``):
    each Pauli product has one entry +-1 or +-i per row, so an entry of T is
    0.0 + g0 + g1 + g2 + g3, with g_m the real or imaginary part of one entry
    of row m of rho, signed. The einsum's other products are +-0 and leave its
    sum, which starts at +0.0, as it is. A real stack is read as complex.
    """
    floats = np.ascontiguousarray(rhos, dtype=complex).view(float).reshape(len(rhos), 32)
    g = floats[:, _T_FLOATS]
    g *= _T_SIGNS
    t = 0.0 + g[:, 0]
    t += g[:, 1]
    t += g[:, 2]
    t += g[:, 3]
    return t.reshape(-1, 3, 3)


# Cyclic successors i + 1 and i + 2 of the indices 0, 1, 2.
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])
# Entries (i, j) of T^T T, diagonal first, and the cuts c of N > c for F > F_lhv and F > 2/3.
_GRAM_I, _GRAM_J = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
_N_CUTS = np.array([3.0 * (2.0 * GISIN_BOUND - 1.0), 1.0])[:, None]
_N_CUTS_SQ, _N_CUTS_2 = _N_CUTS * _N_CUTS, 2.0 * _N_CUTS


def correlation_invariants(t: np.ndarray) -> np.ndarray:
    """Rows (8, ...) of T, entries first (3, 3, ...): the Gram entries, ||adj T||_F^2 and det T.

    The Gram entries are those of T^T T in _GRAM_I, _GRAM_J order. Row i of
    the cofactor matrix of T is the cross product of rows i + 1 and i + 2. All
    eight are polynomials in the entries of T, of degree 2, 4 and 3.
    """
    u, v = t[_NEXT], t[_AFTER]
    cof = u[:, _NEXT] * v[:, _AFTER] - u[:, _AFTER] * v[:, _NEXT]
    gram = (t[:, _GRAM_I] * t[:, _GRAM_J]).sum(axis=0)
    return np.concatenate([gram, [(cof * cof).sum(axis=(0, 1)), (t[0] * cof[0]).sum(axis=0)]])


def invariant_sign_margins(inv: np.ndarray) -> np.ndarray:
    """Rows (3, ...) with the signs of F - F_lhv, B - 2 and F - 2/3 from ``correlation_invariants``.

    From a = ||T||_F^2, b = ||adj T||_F^2 and d = |det T|, not the singular
    values s1 >= s2 >= s3: N is the largest root of g(x) = ((x^2 - a)/2)^2 - b - 2dx,
    whose other roots are at most s1 <= sqrt(a), so N > c iff a > c^2 or g(c) < 0.
    B > 2 iff s1^2 + s2^2 > 1 iff T^T T - (a - 1) I is not positive definite:
    its first pivot (LDL^T) that is not positive is negative, a backward stable
    test (an exactly zero pivot reads B = 2). Each point is computed elementwise
    in a fixed order, so its row does not depend on the other points.
    """
    gram, b, d = inv[:6], inv[6], np.abs(inv[7])
    a = gram[0] + gram[1] + gram[2]
    out = np.empty((3,) + a.shape)
    # Signs of N - c: positive iff a > c^2 or g(c) < 0.
    out[0], out[2] = np.maximum(a - _N_CUTS_SQ, b + _N_CUTS_2 * d - (0.5 * (_N_CUTS_SQ - a)) ** 2)
    # T^T T - (a - 1) I, its diagonal written without a, and its LDL^T pivots.
    m11, m22, m33 = 1.0 - gram[[1, 0, 0]] - gram[[2, 2, 1]]
    m12, m13, m23 = gram[3:]
    with np.errstate(divide="ignore", invalid="ignore"):
        l12, l13 = gram[3:5] / m11
        p2 = m22 - l12 * m12
        e23 = m23 - l13 * m12
        p3 = m33 - l13 * m13 - e23 * e23 / p2
    # Minus the first pivot that is not positive, or minus the last pivot.
    out[1] = -np.where(m11 > 0.0, np.where(p2 > 0.0, p3, p2), m11)
    return out


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# Cap on the cyclic sweeps of _jacobi, which stops earlier after a sweep that
# rotates no row. After three sweeps about one Ginibre row in eight still has
# residuals far above rounding; four converge them. Werner and MEMS states
# under local unitaries, and X-states, need 0-2.
_JACOBI_SWEEPS = 4
# Bound on the distance of each singular value of jacobi_fidelity_bell to
# LAPACK's, in units of eps ||T||_F, plus the residual term (see _jacobi):
# about 5 eps ||T||_F per rotation, twelve of them, for Jacobi, and a few eps
# for LAPACK, in the worst case. Over 10^7 rows (tests/test_jacobi_svd.py's
# cases and Ginibre states) the F and B gaps stayed below a fifth of the bounds.
SINGVAL_SLACK = 64
# Squares of entries below ~1e-154 underflow: an absolute term that covers
# them, so rows with ||T||_F below ~1e-140 are never certain.
_UNDERFLOW = 1e-150
# Bound on the distance of jacobi_concurrence's C to LAPACK's, in units of
# eps (1 + ||L^-1||_F), plus the residual term (see there). Over 10^7 rows
# (tests/test_jacobi_concurrence.py's cases and Ginibre states) the gap stayed
# below 2.5 of these units, the largest at well-conditioned rows, so below a
# sixth of the bound. There the gap is LAPACK's rounding: against 40-digit
# references the kernel's C was within 1.5 eps, LAPACK's within 14 eps.
CONCURRENCE_SLACK = 16
# Rows whose lambda_min is not proven above this are refused. It is far above
# eps, so the rounding of a rank-deficient state never passes it.
_LAMBDA_FLOOR = 1e-10


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2, elementwise."""
    return z.real * z.real + z.imag * z.imag if np.iscomplexobj(z) else z * z


def _sum(z: np.ndarray) -> np.ndarray:
    """((z0 + z1) + z2) + ... over the first axis of z.

    Not ``z.sum(axis=0)``: where the other axes have length 1, numpy sums the
    8 floats of four complex numbers pairwise, so a row's float would depend
    on the size of its stack.
    """
    out = z[0] + z[1]
    for term in z[2:]:
        out += term
    return out


def _jacobi(a: np.ndarray, floor_sq: Callable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared norms (k, M), norms (k, M) and residual r (M,) of columns a (k, r, M), rotated in place.

    A one-sided Jacobi SVD (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13,
    1204 (1992)) of real or complex columns: cyclic sweeps of plane rotations
    over the pairs i < j. Each first turns a_j's phase so that d = a_i^H a_j
    is real, then takes tan as the smaller root of
    tan^2 + 2 tan h / |d| - 1 = 0, h = (|a_j|^2 - |a_i|^2) / 2, and 0 where
    d = h = 0, which makes the pair orthogonal; the squared norms become
    |a_i|^2 - tan |d| and |a_j|^2 + tan |d|. The singular values are then the
    column norms n_i.

    As in LAPACK's xGESVJ (Drmac & Veselic, SIAM J. Matrix Anal. Appl. 29,
    1322 (2008)), a row takes the identity (tan = 0) where
    |d|^2 <= phi^2 max(|a_i|^2, |a_j|^2), with phi^2 (M,) = floor_sq(sq) from
    the squared column norms sq (k, M) it starts with: left as it is, that
    pair adds at most about phi to r below. A pair where every row takes the
    identity is skipped, and the sweeps stop after one in which no row
    turned, or after _JACOBI_SWEEPS. A row that a sweep leaves alone keeps its
    floats, up to the signs of zeros, and so every later sweep leaves it alone
    too: its floats do not depend on when the sweeps stop.

    Both this SVD and LAPACK's are the exact SVD of a nearby matrix (backward
    stability), and by Weyl's inequality each singular value moves no more
    than that matrix does: a few eps ||a||_F per rotation. What the sweeps
    left is r = sum_{i<j} |a_i^H a_j| / max(n_i, n_j), read from the columns
    after the last sweep, however many ran: the columns are Q R with
    R - diag(n) of Frobenius norm at most 2 r, to first order, so by Weyl each
    sorted n_i is within 2 r of a singular value of the rotated matrix. Every
    step is elementwise, so a row's floats do not depend on the other rows.
    """
    pairs = list(itertools.combinations(range(len(a)), 2))
    prod, vx = np.empty((2,) + a.shape[1:], dtype=a.dtype)
    sq = np.stack([_sum(_abs2(col)) for col in a])
    floor_sq = floor_sq(sq)
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i, j in pairs:
            x, y = a[i], a[j]
            d = _sum(np.multiply(np.conjugate(x, out=prod), y, out=prod))
            mod = np.abs(d)
            turn = mod * mod > floor_sq * np.maximum(sq[i], sq[j])
            if not turn.any():
                continue  # every row's rotation is the identity, up to the signs of zeros
            rotated = True
            d *= turn  # 0 where the row takes the identity, and then so are tan and sin
            mod *= turn
            half = 0.5 * (sq[j] - sq[i])
            den = half + np.copysign(np.sqrt(half * half + mod * mod) + _TINY, half)
            tan = mod / den
            cos = 1.0 / np.sqrt(1.0 + tan * tan)
            v = cos * (d / den)  # sin times the phase of a_i^H a_j
            np.multiply(v, x, out=vx)
            x *= cos
            x -= np.multiply(v.conj(), y, out=prod)
            y *= cos
            y += vx
            step = tan * mod
            sq[i] -= step
            sq[j] += step
        if not rotated:
            break
    sq = np.stack([_sum(_abs2(col)) for col in a])
    n = np.sqrt(sq)
    resid = sum(np.abs(_sum(np.multiply(np.conjugate(a[i], out=prod), a[j], out=prod)))
                / (np.maximum(n[i], n[j]) + _TINY) for i, j in pairs)
    return sq, n, resid


def jacobi_fidelity_bell(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F and B, rows (2, M), of correlation matrices (M, 3, 3), and bounds (2, M) on their distance to LAPACK's.

    The singular values are the column norms n_i of T after ``_jacobi``, on
    a real copy of T's columns. Each bound starts from
    ds = SINGVAL_SLACK eps ||T||_F + 2 r, by which each sorted n_i may miss
    LAPACK's singular value (see ``_jacobi``). N moves by at most 3 ds, so F by
    ds/2 plus its own rounding, and B = 2 sqrt(s1^2 + s2^2) by at most
    2 sqrt(2) ds plus rounding: the bounds are ds/2 + 4 eps and 3 ds.
    """
    # Column j of every T, (3, 3, M); real, since complex division rounds otherwise.
    # A pair is left alone below phi = SINGVAL_SLACK eps ||T||_F / 24, so that
    # 2 r from its 3 pairs adds at most a quarter of the fixed term of ds.
    sq, n, resid = _jacobi(np.array(t.transpose(2, 1, 0), dtype=float, order="C"),
                           lambda sq: (SINGVAL_SLACK * _EPS / 24.0) ** 2 * _sum(sq))
    ds = SINGVAL_SLACK * _EPS * np.sqrt(_sum(sq)) + 2.0 * resid + _UNDERFLOW
    # Descending by a sorting network: np.sort along an axis of 3 costs ~10x more.
    lo, hi = np.minimum(n[0], n[1]), np.maximum(n[0], n[1])
    sv = (np.maximum(hi, n[2]), np.maximum(lo, np.minimum(hi, n[2])), np.minimum(lo, n[2]))
    _, f, b = correlation_measures(sv)
    return np.stack([f, b]), np.stack([0.5 * ds + 4.0 * _EPS, 3.0 * ds])


def jacobi_concurrence(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped C (M,) of states of unit trace (M, 4, 4), and bounds (M,) on its distance to LAPACK's.

    LAPACK's C is ``concurrence_of_roots(wootters_roots_stack(rhos))``. Here
    the roots are the singular values of M = L^T (sigma_y x sigma_y) L, where
    rho = L L^H is the complex Cholesky factor, read from rho's lower triangle
    and real diagonal as eigh reads them: M^H M = L^H rho_tilde L is similar
    to rho rho_tilde. M is complex symmetric and zero below its antidiagonal.
    The roots are the column norms n_i of M after ``_jacobi``, and
    C = 2 max n_i - sum n_i.

    The bound is CONCURRENCE_SLACK eps (1 + ||L^-1||_F) + 8 r, with r the
    residual of ``_jacobi``. Both C are those of a state within a few eps of
    rho (Cholesky and eigh are backward stable), and through the square root
    of rho a perturbation E moves the roots by about
    ||E|| / sqrt(lambda_min) <= ||E|| ||L^-1||_F; forming and rotating M
    moves them by a few eps ||M|| <= eps tr rho. Each sorted n_i is within
    2 r of a singular value of the rotated M, so C within 8 r. ||L^-1||_F
    comes from forward substitution, and 1 / ||L^-1||_F^2 <= lambda_min.

    A row is refused, C NaN and its bound inf, where a pivot of the Cholesky
    factor is not positive, where 1 / ||L^-1||_F^2 is below _LAMBDA_FLOOR, or
    where C or its bound is not finite: rank-deficient states, on which
    LAPACK's own C is off by up to about 1e-8, and rows with NaN or inf
    entries. Only the other rows are rotated.
    """
    n = len(rhos)
    c, bound = np.full(n, np.nan), np.full(n, np.inf)
    with np.errstate(all="ignore"):  # refused rows may divide by 0 or take the root of a negative
        low, ok = _cholesky(rhos)
        inv_sq = _inverse_norm_sq(low)
        ok &= inv_sq * _LAMBDA_FLOOR <= 1.0
        rows = np.flatnonzero(ok)
        a = _wootters_columns(low if rows.size == n else {key: v[rows] for key, v in low.items()})
        del low  # freed before the rotations' buffers are made
        fixed = CONCURRENCE_SLACK * _EPS * (1.0 + np.sqrt(inv_sq[rows]))
        # A pair is left alone below phi = fixed / 192, so that 8 r from its 6
        # pairs adds at most a quarter of the fixed term of the bound.
        _, norms, resid = _jacobi(a, lambda sq: (fixed / 192.0) ** 2)
        c_rows = 2.0 * norms.max(axis=0) - _sum(norms)
        bound_rows = fixed + 8.0 * resid
    finite = np.isfinite(c_rows) & np.isfinite(bound_rows)
    c[rows[finite]], bound[rows[finite]] = c_rows[finite], bound_rows[finite]
    return c, bound


def _cholesky(rhos: np.ndarray) -> tuple[dict, np.ndarray]:
    """Entries (i, j), j <= i, of the Cholesky factors L of rhos (M, 4, 4), and where all pivots are positive.

    Reads the lower triangle and the real diagonal of each rho, as eigh does.
    """
    low, ok = {}, np.ones(len(rhos), dtype=bool)
    for j in range(4):
        pivot = rhos[:, j, j].real - sum(_abs2(low[j, k]) for k in range(j))
        ok &= pivot > 0.0
        low[j, j] = np.sqrt(pivot)
        for i in range(j + 1, 4):
            off = rhos[:, i, j] - sum(low[i, k] * low[j, k].conj() for k in range(j))
            low[i, j] = off / low[j, j]
    return low, ok


def _inverse_norm_sq(low: dict) -> np.ndarray:
    """||L^-1||_F^2 of the factors of ``_cholesky``, by forward substitution."""
    inv = {}
    for j in range(4):
        inv[j, j] = 1.0 / low[j, j]
        for i in range(j + 1, 4):
            inv[i, j] = -sum(low[i, k] * inv[k, j] for k in range(j, i)) / low[i, i]
    return sum(_abs2(v) for v in inv.values())


def _wootters_columns(low: dict) -> np.ndarray:
    """The columns, column i at [i], (4, 4, M) of M = L^T (sigma_y x sigma_y) L of ``_cholesky``'s factors.

    Entry (a, b) sums Y[k, 3-k] L[k, a] L[3-k, b] over a <= k <= 3 - b, so M is
    symmetric and zero where a + b > 3.
    """
    a = np.zeros((4, 4, len(low[0, 0])), dtype=complex)
    a[0, 0] = 2.0 * (low[1, 0] * low[2, 0] - low[0, 0] * low[3, 0])
    a[0, 1] = a[1, 0] = low[1, 0] * low[2, 1] + low[2, 0] * low[1, 1] - low[0, 0] * low[3, 1]
    a[0, 2] = a[2, 0] = low[1, 0] * low[2, 2] - low[0, 0] * low[3, 2]
    a[0, 3] = a[3, 0] = -(low[0, 0] * low[3, 3])
    a[1, 1] = 2.0 * (low[1, 1] * low[2, 1])
    a[1, 2] = a[2, 1] = low[1, 1] * low[2, 2]
    return a


def concurrence_of_roots(roots: np.ndarray) -> np.ndarray:
    """Unclamped concurrence l1 - l2 - l3 - l4 from descending roots (..., 4)."""
    return roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]


def correlation_measures(
    sv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, F, B) from correlation singular values (3, ...), the two largest first.

    N adds them in order, the float order of a sum over a trailing axis of 3.
    """
    s1, s2, s3 = sv
    n = s1 + s2 + s3
    return n, 0.5 * (1.0 + n / 3.0), 2.0 * np.sqrt(s1 ** 2 + s2 ** 2)


def _n_f_b(rho: DensityMatrix) -> tuple[float, float, float]:
    """N, F and B of one state."""
    return tuple(
        float(v) for v in correlation_measures(correlation_singvals_stack(rho.mat[None])[0])
    )


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence, clamped to [0, 1]."""
    return max(0.0, float(concurrence_of_roots(wootters_roots_stack(rho.mat[None])[0])))


def fidelity(rho: DensityMatrix) -> float:
    """Optimal teleportation fidelity (1 + N/3)/2 in [1/2, 1]."""
    return _n_f_b(rho)[1]


def alive_margins(f: np.ndarray, b: np.ndarray, entangled: np.ndarray) -> np.ndarray:
    """Alive margins, shape (4, ...), rows in ``Measure`` order: F - F_lhv, B - 2, F - 2/3, C.

    ``entangled`` has the sign of the unclamped concurrence, which is that of
    -det(rho^{T_B}), the sign the threshold locator reads: a two-qubit state is
    entangled exactly when its partial transpose has a negative determinant
    (Augusiak, Demianowicz & Horodecki, PRA 77, 030301 (2008)).
    """
    out = np.empty((4,) + np.shape(f))
    out[0], out[1], out[2], out[3] = f - GISIN_BOUND, b - 2.0, f - 2.0 / 3.0, entangled
    return out


def hierarchy_rank(margins: np.ndarray) -> np.ndarray:
    """Position in ``HierarchyClass`` of margins (4, ...) from ``alive_margins``.

    The number of conditions that hold, taken in C, F, B, G order, before the
    first one whose margin is at most CLASS_SLACK: a state sitting exactly on
    a threshold falls into the weaker class.
    """
    return np.logical_and.accumulate(margins[::-1] > CLASS_SLACK, axis=0).sum(axis=0)


def classify(rho: DensityMatrix) -> MeasureReport:
    """Evaluate all measures once and assign the hierarchy class (``hierarchy_rank``)."""
    conc = concurrence(rho)
    n, fid, bell = _n_f_b(rho)
    cls = list(HierarchyClass)[hierarchy_rank(alive_margins(fid, bell, conc))]
    return MeasureReport(
        concurrence=conc, n_value=n, fidelity=fid, bell=bell, hierarchy_class=cls
    )
