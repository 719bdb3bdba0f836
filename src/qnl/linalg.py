"""Small fixed-size complex linear algebra helpers (2x2 .. 4x4).

Everything here is a thin, contract-enforcing layer over LAPACK via numpy:
Hermitian eigendecompositions are returned with eigenvalues sorted in
descending order, and PSD square roots clamp tiny negative eigenvalues that
are pure floating-point noise.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian, NotPSD

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# Eigenvalues of a PSD matrix more negative than this are treated as a real
# violation rather than rounding noise.
PSD_CLAMP_TOL = 1e-10
# hermitian_eig rejects a matrix whose max|h - h^dagger| exceeds this.
_HERMITIAN_TOL = 1e-10

for _m in (PAULI_X, PAULI_Y, PAULI_Z, ID2):
    _m.setflags(write=False)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermiticity_defect(h: np.ndarray) -> float:
    """Max-norm of h - h^dagger."""
    return float(np.max(np.abs(h - dagger(h))))


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (values, vectors) with h = vectors @ diag(values) @ vectors^dagger
    and the k-th column of ``vectors`` the eigenvector of ``values[k]``.

    Raises NotHermitian if ``max|h - h^dagger|`` exceeds _HERMITIAN_TOL.
    """
    h = np.asarray(h, dtype=complex)
    defect = hermiticity_defect(h)
    if defect > _HERMITIAN_TOL:
        raise NotHermitian(
            f"matrix deviates from Hermitian by {defect:.3e} (tolerance {_HERMITIAN_TOL:.3e})"
        )
    w, v = np.linalg.eigh(h)
    return w[::-1].copy(), v[:, ::-1].copy()


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-PSD_CLAMP_TOL, 0) are clamped to zero; anything more
    negative raises NotPSD.
    """
    w, v = hermitian_eig(h)
    if w[-1] < -PSD_CLAMP_TOL:
        raise NotPSD(f"minimum eigenvalue {w[-1]:.3e} below -{PSD_CLAMP_TOL:.0e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dagger(v)


def psd_sqrt_stack(mats: np.ndarray) -> np.ndarray:
    """Batched Hermitian square root of PSD matrices, shape (N, d, d).

    Negative rounding noise is clamped to zero without the NotPSD check;
    intended for internal bulk pipelines over already-validated states.
    """
    w, v = np.linalg.eigh(mats)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w[..., None, :]) @ dagger(v)


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices in basis order |00>,|01>,|10>,|11>."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"kron2 expects 2x2 operands, got {a.shape} and {b.shape}")
    return np.kron(a, b)
