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
- For a|00> + b|11> with ab != 0, depolarizing noise on B gives
  |rho14| = ab (1 - q) and rho22 rho33 = (ab q / 2)^2, so C > 0 exactly when
  q < 2/3. The noise commutes with U_A x U_B, so every entangled pure state
  has q_C = 2/3. Under amplitude and phase damping a|00> + b|11> keeps
  C = 2ab sqrt(1 - q) > 0, also under U_A, so q_C is None.
"""

from fractions import Fraction

import numpy as np
import pytest
from conftest import ginibre, haar_unitary, local_rotation
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


def two_level_pure(a: float, b: float, u: np.ndarray) -> np.ndarray:
    """|psi><psi| of psi = u (a|00> + b|11>)."""
    psi = u @ np.array([a, 0.0, 0.0, b], dtype=complex)
    return np.outer(psi, psi.conj())


PURE_B = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)


@pytest.mark.parametrize("tol", TOLS)
def test_pure_states_lose_entanglement_at_two_thirds(tol):
    rng = np.random.default_rng(40)
    mats = [ginibre(rng, 1) for _ in range(10)]
    for b in PURE_B:
        a = np.sqrt(1.0 - b * b)
        mats += [two_level_pure(a, b, np.eye(4)), two_level_pure(a, b, local_rotation(rng))]
    for mat in mats:
        got = threshold_set(DensityMatrix(mat), "depolarizing", tol)
        assert got.q_c is not None and abs(Fraction(got.q_c) - Fraction(2, 3)) <= tol, got


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("family", ("amplitude-damping", "phase-damping"))
def test_pure_states_stay_entangled_under_damping(family, tol):
    rng = np.random.default_rng(41)
    for b in PURE_B:
        a = np.sqrt(1.0 - b * b)
        u_a = np.kron(haar_unitary(rng), np.eye(2))
        for u in (np.eye(4), u_a):
            assert threshold_set(DensityMatrix(two_level_pure(a, b, u)), family, tol).q_c is None
