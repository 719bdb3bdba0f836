"""Nonlocal-correlation measures of two-qubit states and their classifier.

Four measures are computed from a density matrix rho:

  concurrence      C = max(0, l1 - l2 - l3 - l4), l_i the descending square
                   roots of the eigenvalues of rho @ rho_tilde
  n_value          N = sum of the singular values of the 3x3 Pauli
                   correlation matrix T, t_ij = Tr(rho sigma_i x sigma_j)
  fidelity         F = (1 + N/3) / 2, the optimal teleportation fidelity;
                   useful as a teleportation resource iff F > 2/3
  bell_parameter   B = 2 sqrt(s1^2 + s2^2) over the two largest singular
                   values of T; the CHSH inequality is violated iff B > 2

The eigenvalue problem for the non-Hermitian product rho @ rho_tilde is never
solved directly: the l_i are obtained as the singular values of
W = sqrt(rho) (sigma_y x sigma_y) conj(sqrt(rho)), since W W^dagger equals the
Hermitian similarity sqrt(rho) rho_tilde sqrt(rho), which shares its spectrum
with rho @ rho_tilde. On rank-deficient states the l_i are good to about 1e-8
only: sqrt(rho) clamps an exactly zero eigenvalue computed as ~1e-17, and its
square root (~3e-9) leaks into W. That error reaches the printed concurrence
(``measures``, ``scan``); the threshold locator reads entanglement from
det(rho^{T_B}) and falls back to these roots only where the determinant is
rounding noise itself. ``tests/test_x_path.py`` pins it at 1e-7 against
the exact curve of pure a|00> + b|11> states.

``classify`` ranks a state by its first failing condition, in C, F, B, G
order, over ``alive_margins``, the margins the threshold locator reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import PAULI_X, PAULI_Y, PAULI_Z, kron2, psd_sqrt_stack
from .states import DensityMatrix

_SIGMA_YY = kron2(PAULI_Y, PAULI_Y)
_PAULI_KRON = np.stack(
    [kron2(a, b) for a in (PAULI_X, PAULI_Y, PAULI_Z) for b in (PAULI_X, PAULI_Y, PAULI_Z)]
)
_SIGMA_YY.setflags(write=False)
_PAULI_KRON.setflags(write=False)

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

    @property
    def region(self) -> str:
        """Region label R1..R5 of the (p, q) phase map, same ordering."""
        return REGIONS[list(HierarchyClass).index(self)]


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


def gisin_bound() -> float:
    """Fidelity threshold 1/2 + sqrt(3/2) arctan(sqrt 2)/pi, about 0.8724."""
    return GISIN_BOUND


def spin_flip(rho: DensityMatrix) -> np.ndarray:
    """Spin-flipped state (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)."""
    return _SIGMA_YY @ np.conj(rho.mat) @ _SIGMA_YY


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
    """Batched 3x3 correlation matrices, t_ij = Tr(rho sigma_i x sigma_j)."""
    traces = np.einsum("nij,kji->nk", rhos, _PAULI_KRON)
    return np.real(traces).reshape(-1, 3, 3)


def x_singvals(entries: np.ndarray) -> np.ndarray:
    """Correlation singular values (..., 3) of X-states in closed form, two largest first.

    ``entries`` (6, ...) holds rho11, rho22, rho33, rho44, |rho14|, |rho23|.
    T is diagonal apart from its xy block, so its singular values are
    2(|rho14| + |rho23|), 2 ||rho14| - |rho23|| and |rho11 - rho22 - rho33 + rho44|.
    The first is never below the second, so no sort is needed to put the two
    largest first, which is all ``correlation_measures`` reads.
    """
    d11, d22, d33, d44, a14, a23 = entries
    xy = 2.0 * np.abs(a14 - a23)
    zz = np.abs(d11 - d22 - d33 + d44)
    return np.stack([2.0 * (a14 + a23), np.maximum(xy, zz), np.minimum(xy, zz)], axis=-1)


# Flat indices into T of the products of each cofactor, by cyclic indices:
# C_ij = t[i+1, j+1] t[i+2, j+2] - t[i+1, j+2] t[i+2, j+1].
_CYCLES = np.array([[1, 2, 0], [2, 0, 1], [1, 2, 0], [2, 0, 1]])
_COFACTOR_TERMS = (3 * _CYCLES[:, :, None] + _CYCLES[[0, 1, 1, 0], None, :]).reshape(4, 9)
# Entries (i, j) of T^T T, diagonal first, and the cuts c of N > c for F > F_lhv and F > 2/3.
_GRAM_I, _GRAM_J = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
_N_CUTS = np.array([3.0 * (2.0 * GISIN_BOUND - 1.0), 1.0])[:, None]
_N_CUTS_SQ, _N_CUTS_2 = _N_CUTS * _N_CUTS, 2.0 * _N_CUTS


def correlation_sign_margins(t: np.ndarray) -> np.ndarray:
    """Rows (3, ...) with the signs of F - F_lhv, B - 2 and F - 2/3 of T, entries first (3, 3, ...).

    From a = ||T||_F^2, b = ||adj T||_F^2 and d = |det T|, not the singular
    values s1 >= s2 >= s3: N is the largest root of g(x) = ((x^2 - a)/2)^2 - b - 2dx,
    whose other roots are at most s1 <= sqrt(a), so N > c iff a > c^2 or g(c) < 0.
    B > 2 iff s1^2 + s2^2 > 1 iff T^T T - (a - 1) I is not positive definite:
    its first pivot (LDL^T) that is not positive is negative, a backward stable
    test (an exactly zero pivot reads B = 2). Each point is computed elementwise
    in a fixed order, so its row does not depend on the other points.
    """
    terms = t.reshape(9, -1).take(_COFACTOR_TERMS, axis=0)
    cof = terms[0] * terms[1] - terms[2] * terms[3]
    # Python's sum adds the rows of its argument in order.
    d = np.abs(sum(t[0] * cof[:3]))
    b = sum(sum((cof * cof).reshape(3, 3, -1)))
    gram = sum(t.take(_GRAM_I, axis=1) * t.take(_GRAM_J, axis=1))
    a = sum(gram[:3])
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


def concurrence_of_roots(roots: np.ndarray) -> np.ndarray:
    """Unclamped concurrence l1 - l2 - l3 - l4 from descending roots (..., 4)."""
    return roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]


def correlation_measures(
    sv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, F, B) from correlation singular values (..., 3), the two largest first."""
    n = sv.sum(axis=-1)
    return n, 0.5 * (1.0 + n / 3.0), 2.0 * np.sqrt(sv[..., 0] ** 2 + sv[..., 1] ** 2)


def _n_f_b(rho: DensityMatrix) -> tuple[float, float, float]:
    """N, F and B of one state."""
    return tuple(
        float(v) for v in correlation_measures(correlation_singvals_stack(rho.mat[None])[0])
    )


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence, clamped to [0, 1]."""
    return max(0.0, concurrence_unclamped(rho))


def concurrence_unclamped(rho: DensityMatrix) -> float:
    """Signed combination l1 - l2 - l3 - l4 without the clamp at zero.

    Negative for separable states. It has the sign of -det(rho^{T_B}), which
    the threshold locator reads instead.
    """
    return float(concurrence_of_roots(wootters_roots_stack(rho.mat[None])[0]))


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """The 3x3 real correlation matrix T with t_ij = Tr(rho sigma_i x sigma_j)."""
    return correlation_matrix_stack(rho.mat[None])[0]


def n_value(rho: DensityMatrix) -> float:
    """Sum of singular values of T; lies in [0, 3] for physical states."""
    return _n_f_b(rho)[0]


def fidelity(rho: DensityMatrix) -> float:
    """Optimal teleportation fidelity (1 + N/3)/2 in [1/2, 1]."""
    return _n_f_b(rho)[1]


def bell_parameter(rho: DensityMatrix) -> float:
    """Maximal CHSH expectation 2 sqrt(s1^2 + s2^2) in [0, 2 sqrt 2]."""
    return _n_f_b(rho)[2]


def alive_margins(f: np.ndarray, b: np.ndarray, entangled: np.ndarray) -> np.ndarray:
    """Alive margins, shape (4, ...), rows in ``Measure`` order: F - F_lhv, B - 2, F - 2/3, C.

    ``entangled`` has the sign of the unclamped concurrence: -det(rho^{T_B})
    for the threshold locator's margins providers, since a two-qubit state is
    entangled exactly when its partial transpose has a negative determinant
    (Augusiak, Demianowicz & Horodecki, PRA 77, 030301 (2008)).
    """
    return np.stack([f - GISIN_BOUND, b - 2.0, f - 2.0 / 3.0, entangled])


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
