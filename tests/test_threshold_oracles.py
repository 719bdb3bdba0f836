"""Critical strengths against closed forms that hold for whole families of states.

- Depolarizing noise on B scales the correlation matrix, T(q) = (1 - q) T0, so
  N and B scale by (1 - q) and q_G, q_B and q_F follow from N0 and B0 alone:
  q_G = max(0, 1 - c_G / N0) with c_G = 3 (2 F_lhv - 1), q_B = max(0, 1 - 2 / B0)
  and q_F = max(0, 1 - 1 / N0). Checked on Ginibre states of rank 1 to 4 and
  on Werner and MEMS states under local unitaries, N0 and B0 taken from an
  SVD of T0 (``correlation_einsum``).
- A Bell-diagonal state is entangled exactly when N > 1 (R. & M. Horodecki,
  PRA 54, 1838 (1996)), and phase damping and depolarizing noise keep it
  Bell-diagonal, so under them q_F = q_C. Amplitude damping does not keep
  the form, and is left out.
"""

import numpy as np
import pytest
from conftest import ginibre, haar_unitary
from oracles import correlation_einsum

from qnl.measures import GISIN_BOUND
from qnl.states import DensityMatrix, MemsWeights, mems, werner
from qnl.thresholds import threshold_set, x_thresholds

TOLS = (1e-6, 1e-9)
C_GISIN = 3.0 * (2.0 * GISIN_BOUND - 1.0)


def depolarizing_states() -> list[np.ndarray]:
    rng = np.random.default_rng(33)
    mats = [ginibre(rng, rank) for rank in (1, 2, 3, 4) * 10]
    for _ in range(10):
        for base in (werner(rng.uniform()), mems(MemsWeights(*rng.dirichlet(np.ones(4))))):
            u = np.kron(haar_unitary(rng), haar_unitary(rng))
            mats.append(u @ base.mat @ u.conj().T)
    return mats


@pytest.mark.parametrize("tol", TOLS)
def test_depolarizing_closed_forms(tol):
    for mat in depolarizing_states():
        s = np.linalg.svd(correlation_einsum(mat[None])[0], compute_uv=False)
        n0, b0 = s.sum(), 2.0 * np.hypot(s[0], s[1])
        want = [max(0.0, 1.0 - C_GISIN / n0), max(0.0, 1.0 - 2.0 / b0), max(0.0, 1.0 - 1.0 / n0)]
        got = threshold_set(DensityMatrix(mat), "depolarizing", tol)
        assert np.all(np.abs(np.array([got.q_g, got.q_b, got.q_f]) - want) <= tol), (got, want)


def bell_diagonal_entries(w: np.ndarray) -> np.ndarray:
    """X entries (6, N) of Bell-diagonal states of weights w (4, N) on Phi+, Phi-, Psi+, Psi-."""
    return np.vstack([(w[0] + w[1]) / 2, (w[2] + w[3]) / 2, (w[2] + w[3]) / 2, (w[0] + w[1]) / 2,
                      np.abs(w[0] - w[1]) / 2, np.abs(w[2] - w[3]) / 2])


def bell_diagonal_matrix(w: np.ndarray) -> np.ndarray:
    """The 4x4 Bell-diagonal state of weights w (4,), its coherences signed."""
    phi, psi = (w[0] + w[1]) / 2, (w[2] + w[3]) / 2
    mat = np.diag([phi, psi, psi, phi])
    mat[0, 3] = mat[3, 0] = (w[0] - w[1]) / 2
    mat[1, 2] = mat[2, 1] = (w[2] - w[3]) / 2
    return mat


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("family", ("depolarizing", "phase-damping"))
def test_bell_diagonal_fidelity_dies_with_entanglement(family, tol):
    w = np.random.default_rng(34).dirichlet(np.ones(4), size=500).T
    found = x_thresholds(bell_diagonal_entries(w), family, tol)
    q_f, q_c = found[:, 2], found[:, 3]
    assert np.array_equal(np.isnan(q_f), np.isnan(q_c))
    assert np.all(np.abs(q_f - q_c)[~np.isnan(q_f)] <= 2.0 * tol)
    assert np.count_nonzero(q_c > 0.0) > 100  # entangled states, not only q_F = q_C = 0
    for column in w.T[q_c > 0.0][:5]:
        got = threshold_set(DensityMatrix(bell_diagonal_matrix(column)), family, tol)
        assert (got.q_f is None) == (got.q_c is None)
        assert got.q_f is None or abs(got.q_f - got.q_c) <= 2.0 * tol
