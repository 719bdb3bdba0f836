import numpy as np
import pytest

from conftest import ginibre_density_stack
from qnl.channels import (
    FAMILIES,
    KrausChannel,
    Side,
    amplitude_damping,
    apply_channel,
    channel_family,
    depolarizing,
    evolve_grid,
    kraus_stack,
    phase_damping,
)
from qnl.errors import QOutOfRange
from qnl.measures import concurrence
from qnl.states import DensityMatrix, bell_singlet, validate, werner
from qnl.werner_analytic import concurrence_ad


def partial_trace_b(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


def plus_on_b() -> DensityMatrix:
    """|0><0| on A tensor |+><+| on B."""
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    mat = np.zeros((4, 4), dtype=complex)
    mat[:2, :2] = np.outer(plus, plus.conj())
    return validate(mat)


class TestConstructors:
    def test_amplitude_damping_q0(self):
        ch = amplitude_damping(0.0)
        np.testing.assert_allclose(ch.ops[0], np.eye(2), atol=0)
        np.testing.assert_allclose(ch.ops[1], 0.0, atol=0)

    def test_amplitude_damping_q1(self):
        ch = amplitude_damping(1.0)
        np.testing.assert_allclose(ch.ops[0], np.diag([1.0, 0.0]), atol=0)
        np.testing.assert_allclose(ch.ops[1], [[0.0, 1.0], [0.0, 0.0]], atol=0)

    def test_amplitude_damping_half(self):
        ch = amplitude_damping(0.5)
        np.testing.assert_allclose(ch.ops[0], np.diag([1.0, 1 / np.sqrt(2)]), atol=1e-15)

    def test_phase_damping_forms(self):
        ch = phase_damping(0.36)
        np.testing.assert_allclose(ch.ops[0], np.diag([1.0, 0.8]), atol=1e-15)
        np.testing.assert_allclose(ch.ops[1], np.diag([0.0, 0.6]), atol=1e-15)

    def test_depolarizing_single_qubit_action(self, rng):
        # The four operators must implement rho -> (1-q) rho + q I/2.
        q = 0.61
        ch = depolarizing(q)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho1 = g @ g.conj().T
        rho1 /= np.trace(rho1)
        out = sum(m @ rho1 @ m.conj().T for m in ch.ops)
        np.testing.assert_allclose(out, (1 - q) * rho1 + q * np.eye(2) / 2, atol=1e-14)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("q", [0.0, 0.37, 1.0])
    def test_completeness(self, family, q):
        ch = FAMILIES[family](q)
        total = sum(m.conj().T @ m for m in ch.ops)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-15

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("q", [-0.01, 1.01, 5.0])
    def test_q_out_of_range(self, family, q):
        with pytest.raises(QOutOfRange):
            FAMILIES[family](q)

    def test_family_lookup(self):
        assert channel_family("amplitude-damping") is amplitude_damping
        with pytest.raises(ValueError, match="unknown channel"):
            channel_family("bit-flip")


class TestApply:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("side", list(Side))
    def test_q0_is_identity(self, family, side, rng):
        ch = FAMILIES[family](0.0)
        for mat in ginibre_density_stack(5, rng):
            out = apply_channel(validate(mat), ch, side)
            assert np.max(np.abs(out.mat - mat)) <= 1e-14

    def test_full_damping_of_singlet(self):
        out = apply_channel(bell_singlet(), amplitude_damping(1.0), Side.B)
        expected = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
        np.testing.assert_allclose(out.mat, expected, atol=1e-15)
        assert concurrence(out) == 0.0

    def test_damped_werner_matches_closed_form(self):
        for p in (0.2, 0.4, 0.8):
            for q in (0.1, 0.5, 0.9):
                out = apply_channel(werner(p), amplitude_damping(q), Side.B)
                assert concurrence(out) == pytest.approx(concurrence_ad(p, q), abs=1e-12)

    def test_full_dephasing_kills_coherence(self):
        out = apply_channel(plus_on_b(), phase_damping(1.0), Side.B)
        np.testing.assert_allclose(out.mat, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)

    def test_dephasing_fixes_diagonal_states(self, rng):
        diag = validate(np.diag(rng.dirichlet(np.ones(4))))
        for q in (0.2, 0.7, 1.0):
            out = apply_channel(diag, phase_damping(q), Side.B)
            np.testing.assert_allclose(out.mat, diag.mat, atol=1e-15)

    def test_full_depolarizing_mixes_target(self):
        out = apply_channel(plus_on_b(), depolarizing(1.0), Side.B)
        np.testing.assert_allclose(out.mat, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)

    def test_depolarizing_two_qubit_form(self, rng):
        # One-sided white noise: rho -> (1-q) rho + q (Tr_B rho) x I/2.
        q = 0.44
        for mat in ginibre_density_stack(5, rng):
            out = apply_channel(validate(mat), depolarizing(q), Side.B)
            marginal_a = partial_trace_b(mat)
            expected = (1 - q) * mat + q * np.kron(marginal_a, np.eye(2) / 2)
            np.testing.assert_allclose(out.mat, expected, atol=1e-13)

    def test_side_a_mirrors_side_b_on_singlet(self):
        # The singlet is swap-symmetric, so one-sided noise on either qubit
        # produces swap-mirrored states with identical spectra.
        ch = amplitude_damping(0.3)
        out_a = apply_channel(bell_singlet(), ch, Side.A)
        out_b = apply_channel(bell_singlet(), ch, Side.B)
        swap = np.eye(4)[[0, 2, 1, 3]]
        np.testing.assert_allclose(out_a.mat, swap @ out_b.mat @ swap, atol=1e-14)

    def test_both_sides_equals_sequential_and_commutes(self, rng):
        ch = amplitude_damping(0.27)
        for mat in ginibre_density_stack(5, rng):
            rho = validate(mat)
            joint = apply_channel(rho, ch, Side.BOTH)
            ab = apply_channel(apply_channel(rho, ch, Side.A), ch, Side.B)
            ba = apply_channel(apply_channel(rho, ch, Side.B), ch, Side.A)
            np.testing.assert_allclose(joint.mat, ab.mat, atol=1e-14)
            np.testing.assert_allclose(joint.mat, ba.mat, atol=1e-14)

    def test_output_is_validated_state(self):
        out = apply_channel(werner(0.8), depolarizing(0.5), Side.BOTH)
        assert isinstance(out, DensityMatrix)


class TestChannelSweepInvariants:
    Q_GRID = np.linspace(0.0, 1.0, 101)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_trace_preserved_and_psd(self, family, rng):
        for mat in ginibre_density_stack(100, rng):
            evolved = evolve_grid(mat, family, self.Q_GRID)
            traces = np.trace(evolved, axis1=-2, axis2=-1)
            assert np.max(np.abs(traces - 1.0)) <= 1e-12
            min_eigs = np.linalg.eigvalsh(evolved)[:, 0]
            assert min_eigs.min() >= -1e-10

    def test_amplitude_damping_composition(self, rng):
        for mat in ginibre_density_stack(20, rng):
            rho = validate(mat)
            for q1, q2 in ((0.1, 0.3), (0.5, 0.5), (0.9, 0.2)):
                twice = apply_channel(
                    apply_channel(rho, amplitude_damping(q1), Side.B),
                    amplitude_damping(q2),
                    Side.B,
                )
                merged = apply_channel(
                    rho, amplitude_damping(1 - (1 - q1) * (1 - q2)), Side.B
                )
                assert np.max(np.abs(twice.mat - merged.mat)) <= 1e-10


class TestGridKernels:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_evolve_grid_matches_apply(self, family, rng):
        qs = np.array([0.0, 0.123, 0.5, 0.987, 1.0])
        for mat in ginibre_density_stack(10, rng):
            rho = validate(mat)
            grid = evolve_grid(mat, family, qs)
            for q, evolved in zip(qs, grid):
                direct = apply_channel(rho, FAMILIES[family](q), Side.B)
                np.testing.assert_allclose(evolved, direct.mat, atol=1e-14)

    def test_kraus_stack_matches_constructors(self):
        qs = np.array([0.0, 0.25, 0.8])
        for family in sorted(FAMILIES):
            stack = kraus_stack(family, qs)
            for i, q in enumerate(qs):
                for j, op in enumerate(FAMILIES[family](q).ops):
                    np.testing.assert_allclose(stack[i, j], op, atol=0)

    def test_kraus_stack_rejects_bad_q(self):
        with pytest.raises(QOutOfRange):
            kraus_stack("amplitude-damping", np.array([0.5, 1.2]))

    def test_kraus_stack_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown channel"):
            kraus_stack("bit-flip", np.array([0.5]))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_nan_strength_rejected(self, family):
        with pytest.raises(QOutOfRange):
            kraus_stack(family, np.array([0.5, np.nan]))
        with pytest.raises(QOutOfRange):
            FAMILIES[family](float("nan"))

    def test_nan_kraus_operator_rejected(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel("x", 0.1, (np.array([[np.nan, 0.0], [0.0, 1.0]]),))
