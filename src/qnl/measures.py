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
with rho @ rho_tilde. Working with singular values keeps the square roots of
near-zero eigenvalues at full double precision.
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
        return _REGION_OF_CLASS[self]


_REGION_OF_CLASS = {
    HierarchyClass.SEPARABLE: "R1",
    HierarchyClass.ENTANGLED_ONLY: "R2",
    HierarchyClass.TELEPORT_NOT_BELL: "R3",
    HierarchyClass.BELL_NOT_GISIN: "R4",
    HierarchyClass.BEYOND_GISIN: "R5",
}


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


def concurrence_of_roots(roots: np.ndarray) -> np.ndarray:
    """Unclamped concurrence l1 - l2 - l3 - l4 from descending roots (..., 4)."""
    return roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]


def correlation_measures(
    sv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, F, B) from descending correlation singular values (..., 3)."""
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

    Negative for separable states; its sign change locates the entanglement
    death point along a noise curve.
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


def classify(rho: DensityMatrix, eps: float = 1e-9) -> MeasureReport:
    """Evaluate all measures once and assign the hierarchy class.

    Boundaries use strict inequalities with slack eps, so a state sitting
    exactly on a threshold falls into the weaker class.
    """
    conc = concurrence(rho)
    n, fid, bell = _n_f_b(rho)

    if conc <= eps:
        cls = HierarchyClass.SEPARABLE
    elif fid <= 2.0 / 3.0 + eps:
        cls = HierarchyClass.ENTANGLED_ONLY
    elif bell <= 2.0 + eps:
        cls = HierarchyClass.TELEPORT_NOT_BELL
    elif fid <= GISIN_BOUND + eps:
        cls = HierarchyClass.BELL_NOT_GISIN
    else:
        cls = HierarchyClass.BEYOND_GISIN
    return MeasureReport(
        concurrence=conc, n_value=n, fidelity=fid, bell=bell, hierarchy_class=cls
    )
