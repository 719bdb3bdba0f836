"""Independent references that the tests compare the library's kernels against.

Nothing in ``qnl`` calls these. Each one takes the plain, one-matrix route:

  hermitian_eig   eigh of one Hermitian matrix, eigenvalues descending
  psd_sqrt        its PSD square root, the reference for ``psd_sqrt_stack``
  spin_flip       rho_tilde = (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y),
                  the reference for the Wootters roots
  draw_weights    descending simplex draws by row-wise sorts, the reference
                  for the sorting networks of ``sampling._draw_weights``
  mems_fidelity   teleportation fidelity of MEMS weight rows through the X
                  singular values, the reference for ``sampling._fidelity_of_weights``
  x_margins       alive margins of X entries after ``evolve_x``, the float
                  order of ``thresholds._x_margins``
"""

from __future__ import annotations

import numpy as np

from qnl.channels import evolve_x
from qnl.errors import NotHermitian, NotPSD
from qnl.linalg import PAULI_Y, dagger, hermiticity_defect
from qnl.measures import GISIN_BOUND, correlation_measures, x_singvals
from qnl.sampling import _mems_entries
from qnl.states import DensityMatrix

# Eigenvalues of a PSD matrix more negative than this are treated as a real
# violation rather than rounding noise.
PSD_CLAMP_TOL = 1e-10
# hermitian_eig rejects a matrix whose max|h - h^dagger| exceeds this.
_HERMITIAN_TOL = 1e-10

_SIGMA_YY = np.kron(PAULI_Y, PAULI_Y)


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


def spin_flip(rho: DensityMatrix) -> np.ndarray:
    """Spin-flipped state (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)."""
    return _SIGMA_YY @ np.conj(rho.mat) @ _SIGMA_YY


def draw_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform draws on the descending 3-simplex, rows (n, 4): sorted spacings of sorted uniforms."""
    cuts = np.sort(rng.uniform(size=(n, 3)), axis=1)
    spacings = np.diff(cuts, axis=1, prepend=0.0, append=1.0)
    return np.sort(spacings, axis=1)[:, ::-1]


def mems_fidelity(weights: np.ndarray) -> np.ndarray:
    """Teleportation fidelity of MEMS from weight rows (N, 4), via their X singular values."""
    return correlation_measures(x_singvals(_mems_entries(weights)))[1]


def x_margins(entries: np.ndarray, family: str, qs: np.ndarray) -> np.ndarray:
    """Alive margins (4, M) of X entries (6, M) at strengths qs, by stacks.

    The evolved entries, their singular values stacked (M, 3) and summed over
    that axis, F and B from them, and the four margins stacked: the float
    operations that the X path's margins must keep, in their order.
    """
    d11, d22, d33, d44, a14, a23 = evolve_x(entries, family, qs)
    xy = 2.0 * np.abs(a14 - a23)
    zz = np.abs(d11 - d22 - d33 + d44)
    sv = np.stack([2.0 * (a14 + a23), np.maximum(xy, zz), np.minimum(xy, zz)], axis=-1)
    n = sv.sum(axis=-1)
    f = 0.5 * (1.0 + n / 3.0)
    b = 2.0 * np.sqrt(sv[..., 0] ** 2 + sv[..., 1] ** 2)
    det = (a23 * a23 - d11 * d44) * (d22 * d33 - a14 * a14)
    return np.stack([f - GISIN_BOUND, b - 2.0, f - 2.0 / 3.0, det])
