"""Independent references that the tests compare the library's kernels against.

Nothing in ``qnl`` calls these. Each one takes the plain, one-matrix route:

  PAULI_X/Y/Z, dagger
                  the Pauli matrices and the conjugate transpose, written out
                  here rather than read from the library
  hermitian_eig   eigh of one Hermitian matrix, eigenvalues descending
  psd_sqrt        its PSD square root, the reference for ``psd_sqrt_stack``
  spin_flip       rho_tilde = (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y),
                  the reference for the Wootters roots
  concurrence_unclamped
                  l1 - l2 - l3 - l4 of one state without the clamp at zero,
                  negative for separable states, which ``concurrence`` clamps
  draw_weights    descending simplex draws by row-wise sorts, the reference
                  for the sorting networks of ``sampling._draw_weights``
  x_singvals      correlation singular values of X entries in closed form,
                  the reference for the LAPACK SVD on X-states
  mems_fidelity   teleportation fidelity of MEMS weight rows through
                  ``x_singvals``, the reference for ``sampling._fidelity_of_weights``
  evolve_x        X entries after a family acts on qubit B, in closed form per
                  family, the reference for the X block of ``channels.affine_map``
  x_margins       alive margins of X entries evolved by the map's X block,
                  composed from each condition's two blocks: the float order
                  of ``thresholds._x_margins``
  x_quadratics    the coefficients of each condition's two quadratics in s or
                  u = s^2, expanded by hand entry by entry: the floats of
                  ``thresholds._x_quadratics``
  boundary_q_c    first q at which the closed-form Werner concurrence under
                  amplitude damping reaches zero, by cases
  concurrence_ad_unclamped
                  that closed-form concurrence before its clamp at zero; its
                  zero crossing locates q_C. ``thresholds.concurrence_ad``
                  is its clamp, float for float
  bell_ad_branches
                  the two branches (B1, B2) of the defective closed-form Bell
                  expression, the pinned diagnostic; ``thresholds.bell_ad``
                  is their max, float for float
  scan_all_rows   the measure table of ``thresholds.scan`` with the Wootters
                  roots and the LAPACK correlation SVD taken at every row
  evolve_einsum   sum_k (I x M_k) rho (I x M_k)^dagger over B's indices as one
                  einsum that forms every product, zeros of M_k included: the
                  floats of ``channels.evolve_grid``
  correlation_einsum
                  Re Tr(rho sigma_i x sigma_j) as one einsum over all 16
                  products per entry: the floats of
                  ``measures.correlation_matrix_stack``
"""

from __future__ import annotations

import numpy as np

from qnl.channels import X_FLAT, _strengths, affine_map, channel_family, evolve_grid, kraus_stack
from qnl.errors import NotHermitian, NotPSD
from qnl.measures import (
    GISIN_BOUND,
    concurrence_of_roots,
    correlation_measures,
    wootters_roots_stack,
)
from qnl.sampling import _mems_entries
from qnl.states import DensityMatrix
from qnl.thresholds import _BLOCK_POINTS, ArrayOrFloat, _check_point, _curves

# Eigenvalues of a PSD matrix more negative than this are treated as a real
# violation rather than rounding noise.
PSD_CLAMP_TOL = 1e-10
# hermitian_eig rejects a matrix whose max|h - h^dagger| exceeds this.
_HERMITIAN_TOL = 1e-10

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_SIGMA_YY = np.kron(PAULI_Y, PAULI_Y)
_PAULI_KRON = np.stack([np.kron(a, b) for a in (PAULI_X, PAULI_Y, PAULI_Z)
                        for b in (PAULI_X, PAULI_Y, PAULI_Z)])


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (values, vectors) with h = vectors @ diag(values) @ vectors^dagger
    and the k-th column of ``vectors`` the eigenvector of ``values[k]``.

    Raises NotHermitian if ``max|h - h^dagger|`` exceeds _HERMITIAN_TOL.
    """
    h = np.asarray(h, dtype=complex)
    defect = float(np.max(np.abs(h - dagger(h))))
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


def concurrence_unclamped(rho: DensityMatrix) -> float:
    """Signed combination l1 - l2 - l3 - l4 of one state without the clamp at zero.

    Negative for separable states. It has the sign of -det(rho^{T_B}), which
    the threshold locator reads instead.
    """
    return float(concurrence_of_roots(wootters_roots_stack(rho.mat[None])[0]))


def draw_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform draws on the descending 3-simplex, rows (n, 4): sorted spacings of sorted uniforms."""
    cuts = np.sort(rng.uniform(size=(n, 3)), axis=1)
    spacings = np.diff(cuts, axis=1, prepend=0.0, append=1.0)
    return np.sort(spacings, axis=1)[:, ::-1]


def x_singvals(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correlation singular values (s1, s2, s3) of X-states in closed form, two largest first.

    ``entries`` (6, ...) holds rho11, rho22, rho33, rho44, |rho14|, |rho23|.
    T is diagonal apart from its xy block, so its singular values are
    2(|rho14| + |rho23|), 2 ||rho14| - |rho23|| and |rho11 - rho22 - rho33 + rho44|.
    The first is never below the second, so no sort is needed to put the two
    largest first, which is all ``correlation_measures`` reads.
    """
    d11, d22, d33, d44, a14, a23 = entries
    xy = 2.0 * np.abs(a14 - a23)
    zz = np.abs(d11 - d22 - d33 + d44)
    return 2.0 * (a14 + a23), np.maximum(xy, zz), np.minimum(xy, zz)


def mems_fidelity(weights: np.ndarray) -> np.ndarray:
    """Teleportation fidelity of MEMS from weight rows (N, 4), via their X singular values."""
    return correlation_measures(x_singvals(_mems_entries(weights)))[1]


def evolve_x(entries: np.ndarray, name: str, qs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The six rows of X entries (6, M), a tuple, after the family acts on qubit B at strengths qs.

    Each action keeps X-states in X form (Yu & Eberly, QIC 7, 459 (2007)): it moves
    population within B's pairs (rho11, rho22), (rho33, rho44) and scales both
    coherences by one factor >= 0, so their moduli suffice. Each family is
    written out on its own, independently of the map that ``qnl`` derives from
    the Kraus operators.
    """
    channel_family(name)
    qs = _strengths(qs)
    d11, d22, d33, d44, a14, a23 = entries
    if name == "amplitude-damping":  # |1> decays to |0>; coherences * sqrt(1-q)
        moved_12, moved_34 = qs * d22, qs * d44
        factor = np.sqrt(1.0 - qs)
    elif name == "phase-damping":  # populations fixed; coherences * sqrt(1-q)
        moved_12 = moved_34 = 0.0
        factor = np.sqrt(1.0 - qs)
    else:  # depolarizing: populations relax towards their mean; coherences * (1-q)
        moved_12, moved_34 = 0.5 * qs * (d22 - d11), 0.5 * qs * (d44 - d33)
        factor = 1.0 - qs
    return (d11 + moved_12, d22 - moved_12, d33 + moved_34, d44 - moved_34,
            factor * a14, factor * a23)


def x_margins(entries: np.ndarray, family: str, qs: np.ndarray) -> np.ndarray:
    """Alive margins (4, M) of X entries (6, M) at strengths qs, by stacks.

    The evolved entries (A + q B) + sqrt(1-q) C from the X block of the
    family's map, each condition's two blocks stacked (4, 2, M), and each
    margin the larger block of G, B and F (N - c and s1^2 + s2^2 - 1) or the
    product of C's two (det(rho^{T_B})): the float operations that the X
    path's margins must keep, in their order.
    """
    a, b, c = np.tensordot(affine_map(family)[X_FLAT][:, :, X_FLAT], entries, axes=(0, 0))
    d11, d22, d33, d44, a14, a23 = (a + qs * b) + np.sqrt(1.0 - qs) * c
    z = d11 - d22 - d33 + d44
    big = 4.0 * np.maximum(a14, a23)
    both = a14 + a23
    cuts = np.array([3.0 * (2.0 * GISIN_BOUND - 1.0), 1.0])
    blocks = np.stack([
        np.stack([big + z, big - z]) - cuts[0],
        np.stack([8.0 * (a14 * a14 + a23 * a23), 4.0 * (both * both) + z * z]) - 1.0,
        np.stack([big + z, big - z]) - cuts[1],
        np.stack([a23 * a23 - d11 * d44, d22 * d33 - a14 * a14]),
    ])
    margins = blocks.max(axis=1)
    margins[3] = blocks[3].prod(axis=0)
    return margins


def x_quadratics(entries: np.ndarray, family: str) -> np.ndarray:
    """The eight quadratics of X entries (6, N), coefficients (3, 4, 2, N), expanded by hand.

    Axes (coefficient of 1, s or u and s^2 or u^2; condition in Measure
    order; quadratic; state). Each entry is e0 + e1 s + e2 s^2 with
    rho(q) = (A + B) + s C - s^2 B. G and F are 4 max(|rho14|, |rho23|) +- z
    minus the cut, in s; B's 8(|rho14|^2 + |rho23|^2) - 1 and
    4(|rho14| + |rho23|)^2 + z^2 - 1 and C's |rho23|^2 - rho11 rho44 and
    rho22 rho33 - |rho14|^2 are in u = s^2, their odd powers of s dropped:
    they are zero on X-states.
    """
    n = entries.shape[1]
    a, b, c = np.tensordot(affine_map(family)[X_FLAT][:, :, X_FLAT], entries, axes=(0, 0))
    # e (coefficient, entry, state) of rho11..rho44, |rho14|, |rho23|, z and |rho14| + |rho23|.
    e = np.empty((3, 8, n))
    e[0, :6], e[1, :6], e[2, :6] = a + b, c, -b
    d11, d22, d33, d44, a14, a23 = e[:, :6].swapaxes(0, 1)
    e[:, 6] = d11 - d22 - d33 + d44
    e[:, 7] = a14 + a23
    # Products of the pairs |rho14|^2, |rho23|^2, (|rho14| + |rho23|)^2, z^2,
    # rho11 rho44 and rho22 rho33, coefficients of 1, u and u^2.
    x, y = e[:, [4, 5, 7, 6, 0, 1]], e[:, [4, 5, 7, 6, 3, 2]]
    p = np.stack([x[0] * y[0], x[0] * y[2] + x[1] * y[1] + x[2] * y[0], x[2] * y[2]])
    cuts = np.zeros((3, 2, 1, 1))
    cuts[0, :, 0, 0] = 3.0 * (2.0 * GISIN_BOUND - 1.0), 1.0
    quad = np.empty((3, 4, 2, n))
    signs = np.array([1.0, -1.0])[:, None]
    quad[:, ::2] = 4.0 * np.maximum(a14, a23)[:, None, None] + signs * e[:, 6, None, None] - cuts
    quad[:, 1, 0] = 8.0 * (p[:, 0] + p[:, 1])
    quad[:, 1, 1] = 4.0 * p[:, 2] + p[:, 3]
    quad[0, 1] -= 1.0
    quad[:, 3] = p[:, [1, 5]] - p[:, [4, 0]]
    return quad


def boundary_q_c(p: float) -> float | None:
    """Smallest q in [0, 1] where the closed-form concurrence reaches zero.

    Exhaustive by cases: 0 for p <= 1/3 (never entangled to begin with),
    (3p - 1)/(1 - p) for p in (1/3, 1/2] (reaching exactly 1 at p = 1/2),
    and None for p > 1/2, where entanglement survives every q < 1.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"state parameter p must lie in [0, 1], got {p}")
    if p <= 1.0 / 3.0:
        return 0.0
    if p > 0.5:
        return None
    return (3.0 * p - 1.0) / (1.0 - p)


def concurrence_ad_unclamped(p: ArrayOrFloat, q: ArrayOrFloat) -> ArrayOrFloat:
    """Signed concurrence expression of the damped Werner state; its zero crossing locates q_C."""
    p, q = _check_point(p, q)
    inner = (1.0 - p) * (1.0 - q) * (1.0 - p + q + p * q)
    return p * np.sqrt(1.0 - q) - 0.5 * np.sqrt(np.maximum(inner, 0.0))


def bell_ad_branches(p: ArrayOrFloat, q: ArrayOrFloat) -> tuple[ArrayOrFloat, ArrayOrFloat]:
    """The two branches (B1, B2) of the closed-form Bell expression."""
    p, q = _check_point(p, q)
    b1 = 2.0 * np.sqrt(p) * np.sqrt(1.0 - q)
    b2 = 2.0 * p * np.sqrt(2.0 - 3.0 * q + q * q)
    return b1, b2


def scan_all_rows(state: DensityMatrix, family: str, qs: np.ndarray) -> np.ndarray:
    """Rows (q, concurrence, fidelity, bell) at strengths qs, C, F and B from every row's spectra.

    Each block of _BLOCK_POINTS strengths is evolved and read by ``_curves``,
    C clamped at zero, as ``scan`` read every row before it skipped the
    Wootters roots of the rows its determinant proves separable and took F
    and B from a Jacobi SVD where their printed digits are certain.
    """
    table = np.empty((qs.size, 4))
    for k in range(0, qs.size, _BLOCK_POINTS):
        block = qs[k:k + _BLOCK_POINTS]
        c_unclamped, f, b = _curves(evolve_grid(state.mat, family, block))
        table[k:k + _BLOCK_POINTS] = np.column_stack([block, np.maximum(0.0, c_unclamped), f, b])
    return table


def evolve_einsum(rho_mat: np.ndarray, name: str, qs) -> np.ndarray:
    """Evolved stack (Q, 4, 4) of one state through a family on qubit B, by one einsum.

    Each M_k acts on B's indices of rho, q the innermost axis; the einsum sums
    every product, those with a zero entry of M_k included, k outermost, into
    an output that starts at +0.0.
    """
    ops = np.ascontiguousarray(np.moveaxis(kraus_stack(name, qs), 0, -1))
    out = np.einsum("kxyq,aycz,kwzq->axcwq", ops, np.asarray(rho_mat).reshape(2, 2, 2, 2), np.conj(ops))
    return out.reshape(4, 4, -1).transpose(2, 0, 1).copy()


def correlation_einsum(rhos: np.ndarray) -> np.ndarray:
    """Correlation matrices (N, 3, 3) of states (N, 4, 4), Re Tr(rho sigma_i x sigma_j) by one einsum."""
    return np.real(np.einsum("nij,kji->nk", rhos, _PAULI_KRON)).reshape(-1, 3, 3)
