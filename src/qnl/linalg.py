"""Small fixed-size complex linear algebra helpers (2x2 .. 4x4).

The Pauli matrices, the conjugate transpose, the Hermiticity defect that
state validation reads, and the batched PSD square root of the Wootters
roots, which clamps tiny negative eigenvalues that are pure floating-point
noise.
"""

from __future__ import annotations

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

for _m in (PAULI_X, PAULI_Y, PAULI_Z, ID2):
    _m.setflags(write=False)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermiticity_defect(h: np.ndarray) -> float:
    """Max-norm of h - h^dagger."""
    return float(np.max(np.abs(h - dagger(h))))


def psd_sqrt_stack(mats: np.ndarray) -> np.ndarray:
    """Batched Hermitian square root of PSD matrices, shape (N, d, d).

    Negative eigenvalues are clamped to zero without a check; intended for
    internal bulk pipelines over already-validated states.
    """
    w, v = np.linalg.eigh(mats)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w[..., None, :]) @ dagger(v)

