import numpy as np
import pytest

from oracles import PAULI_X, dagger, hermitian_eig, psd_sqrt
from qnl.errors import NotHermitian, NotPSD
from qnl.measures import psd_sqrt_stack


class TestHermitianEig:
    def test_identity_spectrum(self):
        w, _ = hermitian_eig(np.eye(4, dtype=complex))
        np.testing.assert_allclose(w, [1, 1, 1, 1])

    def test_diagonal_sorted_descending(self):
        w, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0, 0.0]).astype(complex))
        np.testing.assert_allclose(w, [3, 2, 1, 0], atol=1e-14)

    def test_pauli_x_spectrum(self):
        w, _ = hermitian_eig(PAULI_X)
        np.testing.assert_allclose(w, [1, -1], atol=1e-14)

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(100):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = g + dagger(g)
            w, v = hermitian_eig(h)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.max(np.abs((v * w) @ dagger(v) - h)) <= 1e-10
            assert np.max(np.abs(dagger(v) @ v - np.eye(4))) <= 1e-10

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitian, match="deviates"):
            hermitian_eig(m)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(4, dtype=complex)), np.eye(4))

    def test_diagonal(self):
        s = psd_sqrt(np.diag([4.0, 1.0, 0.0, 9.0]).astype(complex))
        np.testing.assert_allclose(s, np.diag([2.0, 1.0, 0.0, 3.0]), atol=1e-12)

    def test_scaled_identity(self):
        s = psd_sqrt(0.25 * np.eye(4, dtype=complex))
        np.testing.assert_allclose(s, 0.5 * np.eye(4), atol=1e-14)

    def test_square_recovers_input(self, rng):
        for _ in range(100):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = g @ dagger(g)
            s = psd_sqrt(h)
            assert np.max(np.abs(s @ s - h)) <= 1e-9
            assert np.max(np.abs(s - dagger(s))) <= 1e-10

    def test_clamps_rounding_noise(self):
        h = np.diag([1.0, -5e-11, 0.5, 0.0]).astype(complex)
        s = psd_sqrt(h)
        assert np.all(np.isfinite(s))

    def test_rejects_negative(self):
        with pytest.raises(NotPSD, match="eigenvalue"):
            psd_sqrt(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))

    def test_stack_matches_scalar(self, rng):
        g = rng.standard_normal((20, 4, 4)) + 1j * rng.standard_normal((20, 4, 4))
        hs = g @ dagger(g)
        batch = psd_sqrt_stack(hs)
        for h, s in zip(hs, batch):
            np.testing.assert_allclose(s, psd_sqrt(h), atol=1e-11)

