import re

import numpy as np
import pytest

from conftest import assert_same_bits, edge_x_entries, ginibre_density_stack
from oracles import PAULI_X, PAULI_Y, PAULI_Z, evolve_x
from qnl.channels import (
    _KRAUS,
    FAMILIES,
    X_FLAT,
    affine_map,
    apply_channel,
    channel_family,
    evolve_grid,
    kraus_stack,
)
from qnl.errors import QOutOfRange
from qnl.measures import concurrence
from qnl.states import DensityMatrix, bell_singlet, werner
from qnl.thresholds import concurrence_ad

AD, PD, DEP = "amplitude-damping", "phase-damping", "depolarizing"


def partial_trace_b(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


def plus_on_b() -> DensityMatrix:
    """|0><0| on A tensor |+><+| on B."""
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    mat = np.zeros((4, 4), dtype=complex)
    mat[:2, :2] = np.outer(plus, plus.conj())
    return DensityMatrix(mat)


class TestConstructors:
    def test_amplitude_damping_q0(self):
        ops = FAMILIES[AD](0.0)
        np.testing.assert_allclose(ops[0], np.eye(2), atol=0)
        np.testing.assert_allclose(ops[1], 0.0, atol=0)

    def test_amplitude_damping_q1(self):
        ops = FAMILIES[AD](1.0)
        np.testing.assert_allclose(ops[0], np.diag([1.0, 0.0]), atol=0)
        np.testing.assert_allclose(ops[1], [[0.0, 1.0], [0.0, 0.0]], atol=0)

    def test_amplitude_damping_half(self):
        ops = FAMILIES[AD](0.5)
        np.testing.assert_allclose(ops[0], np.diag([1.0, 1 / np.sqrt(2)]), atol=1e-15)

    def test_phase_damping_forms(self):
        ops = FAMILIES[PD](0.36)
        np.testing.assert_allclose(ops[0], np.diag([1.0, 0.8]), atol=1e-15)
        np.testing.assert_allclose(ops[1], np.diag([0.0, 0.6]), atol=1e-15)

    def test_depolarizing_single_qubit_action(self, rng):
        # The four operators must implement rho -> (1-q) rho + q I/2.
        q = 0.61
        ops = FAMILIES[DEP](q)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho1 = g @ g.conj().T
        rho1 /= np.trace(rho1)
        out = sum(m @ rho1 @ m.conj().T for m in ops)
        np.testing.assert_allclose(out, (1 - q) * rho1 + q * np.eye(2) / 2, atol=1e-14)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("q", [0.0, 0.37, 1.0])
    def test_completeness(self, family, q):
        ops = FAMILIES[family](q)
        total = sum(m.conj().T @ m for m in ops)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-15

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_one_row_of_the_table(self, family):
        for q in (0.0, 0.37, np.nextafter(1.0, 0.0), 1.0):
            ops = FAMILIES[family](q)
            assert ops.shape == (4 if family == DEP else 2, 2, 2)
            assert_same_bits(ops, kraus_stack(family, np.array([q]))[0])

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("q", [-0.01, 1.01, 5.0])
    def test_q_out_of_range(self, family, q):
        with pytest.raises(QOutOfRange):
            FAMILIES[family](q)

    def test_family_lookup(self):
        assert channel_family("amplitude-damping") is FAMILIES[AD]
        with pytest.raises(ValueError, match="unknown channel"):
            channel_family("bit-flip")

    def test_unknown_family_raises_without_the_key_error(self):
        # No "During handling of the above exception" KeyError before the message.
        with pytest.raises(ValueError, match="unknown channel family 'bit-flip'") as info:
            channel_family("bit-flip")
        assert info.value.__suppress_context__ and info.value.__cause__ is None


class TestApply:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_q0_is_identity(self, family, rng):
        ops = FAMILIES[family](0.0)
        for mat in ginibre_density_stack(5, rng):
            out = apply_channel(DensityMatrix(mat), ops)
            assert np.max(np.abs(out.mat - mat)) <= 1e-14

    def test_full_damping_of_singlet(self):
        out = apply_channel(bell_singlet(), FAMILIES[AD](1.0))
        expected = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
        np.testing.assert_allclose(out.mat, expected, atol=1e-15)
        assert concurrence(out) == 0.0

    def test_damped_werner_matches_closed_form(self):
        for p in (0.2, 0.4, 0.8):
            for q in (0.1, 0.5, 0.9):
                out = apply_channel(werner(p), FAMILIES[AD](q))
                assert concurrence(out) == pytest.approx(concurrence_ad(p, q), abs=1e-12)

    def test_full_dephasing_kills_coherence(self):
        out = apply_channel(plus_on_b(), FAMILIES[PD](1.0))
        np.testing.assert_allclose(out.mat, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)

    def test_dephasing_fixes_diagonal_states(self, rng):
        diag = DensityMatrix(np.diag(rng.dirichlet(np.ones(4))))
        for q in (0.2, 0.7, 1.0):
            out = apply_channel(diag, FAMILIES[PD](q))
            np.testing.assert_allclose(out.mat, diag.mat, atol=1e-15)

    def test_full_depolarizing_mixes_target(self):
        out = apply_channel(plus_on_b(), FAMILIES[DEP](1.0))
        np.testing.assert_allclose(out.mat, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)

    def test_depolarizing_two_qubit_form(self, rng):
        # One-sided white noise: rho -> (1-q) rho + q (Tr_B rho) x I/2.
        q = 0.44
        for mat in ginibre_density_stack(5, rng):
            out = apply_channel(DensityMatrix(mat), FAMILIES[DEP](q))
            marginal_a = partial_trace_b(mat)
            expected = (1 - q) * mat + q * np.kron(marginal_a, np.eye(2) / 2)
            np.testing.assert_allclose(out.mat, expected, atol=1e-13)

    def test_output_is_validated_state(self):
        out = apply_channel(werner(0.8), FAMILIES[DEP](0.5))
        assert isinstance(out, DensityMatrix)

    def test_acts_on_b_and_takes_no_side(self):
        # A third argument once chose the qubit, and any value but B or BOTH
        # acted on A: "B" itself gave diag(0.4, 0.6, 0, 0) here.
        rho = DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]))
        ops = FAMILIES[AD](1.0)
        np.testing.assert_allclose(apply_channel(rho, ops).mat, np.diag([0.3, 0, 0.7, 0]), atol=0)
        with pytest.raises(TypeError):
            apply_channel(rho, ops, "B")
        with pytest.raises(TypeError):
            apply_channel(rho, ops, side="B")

    def test_single_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"shaped \(k, 2, 2\)"):
            apply_channel(werner(0.5), np.eye(2))

    def test_incomplete_set_rejected(self):
        # Tr M rho M^dagger is 1 on |00><00|, so the Kraus sum is a valid state
        # and only the completeness check refuses the set.
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        ops = np.array([np.diag([1.0, 0.0])])
        k = np.kron(np.eye(2), ops[0])
        DensityMatrix(k @ rho.mat @ k.conj().T)
        with pytest.raises(ValueError, match=r"Kraus completeness violated by 1.000e\+00"):
            apply_channel(rho, ops)


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
            rho = DensityMatrix(mat)
            for q1, q2 in ((0.1, 0.3), (0.5, 0.5), (0.9, 0.2)):
                twice = apply_channel(apply_channel(rho, FAMILIES[AD](q1)), FAMILIES[AD](q2))
                merged = apply_channel(rho, FAMILIES[AD](1 - (1 - q1) * (1 - q2)))
                assert np.max(np.abs(twice.mat - merged.mat)) <= 1e-10


def kron_kraus_sum(mat: np.ndarray, family: str, qs: np.ndarray) -> np.ndarray:
    """sum_k (I x M_k) rho (I x M_k)^dagger over the grid, from the full 4x4 operators."""
    full = np.kron(np.eye(2), kraus_stack(family, qs))  # (Q, k, 4, 4): I x M_k per row
    return np.einsum("qkij,jl,qkml->qim", full, mat, np.conj(full))


class TestGridKernels:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_evolve_grid_is_the_kron_sum_bit_for_bit(self, family, rank):
        rng = np.random.default_rng(rank)
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        for size in (1, 2, 3, 1001, 4099):
            qs = np.linspace(0.0, 1.0, size)
            got, want = evolve_grid(mat, family, qs), kron_kraus_sum(mat, family, qs)
            assert got.shape == (size, 4, 4) and got.flags.c_contiguous
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # signed zeros included

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_evolve_grid_matches_apply(self, family, rng):
        qs = np.array([0.0, 0.123, 0.5, 0.987, 1.0])
        for mat in ginibre_density_stack(10, rng):
            rho = DensityMatrix(mat)
            grid = evolve_grid(mat, family, qs)
            for q, evolved in zip(qs, grid):
                direct = apply_channel(rho, FAMILIES[family](q))
                np.testing.assert_allclose(evolved, direct.mat, atol=1e-14)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_kraus_stack_gives_documented_qubit_action(self, family, rng):
        # The single-qubit maps of the module docstring, which the X-entry
        # maps of the reference evolve_x encode as well.
        def documented(rho, q):
            r = np.sqrt(1.0 - q)
            if family == "amplitude-damping":
                return np.array([[rho[0, 0] + q * rho[1, 1], r * rho[0, 1]],
                                 [r * rho[1, 0], (1.0 - q) * rho[1, 1]]])
            if family == "phase-damping":
                return np.array([[rho[0, 0], r * rho[0, 1]], [r * rho[1, 0], rho[1, 1]]])
            return (1.0 - q) * rho + q * np.trace(rho) * np.eye(2) / 2.0

        qs = np.array([0.0, 0.25, 0.8, 1.0])
        stack = kraus_stack(family, qs)
        for _ in range(10):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            for ops, q in zip(stack, qs):
                got = sum(k @ rho @ k.conj().T for k in ops)
                np.testing.assert_allclose(got, documented(rho, q), atol=1e-15)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_table_is_the_documented_operators(self, family):
        # The table sets each entry directly; its bytes are those of the module
        # docstring's operators as complex products of a root and a fixed matrix,
        # at 10^4 strengths, the float below 1 and the subnormals among them.
        rng = np.random.default_rng(3)
        qs = np.concatenate([[0.0, 5e-324, 1e-310, 0.75, np.nextafter(1.0, 0.0), 1.0],
                             rng.random(9000), rng.random(1000) ** 50])

        def times(root, mat):
            return root[:, None, None] * np.asarray(mat, dtype=complex)

        lower, upper = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        if family == DEP:
            half_root = np.sqrt(0.25 * qs)
            want = [times(np.sqrt(1.0 - 0.75 * qs), np.eye(2))] + [
                times(half_root, pauli) for pauli in (PAULI_X, PAULI_Y, PAULI_Z)]
        else:
            m1 = [[0.0, 1.0], [0.0, 0.0]] if family == AD else upper
            want = [times(np.ones_like(qs), lower) + times(np.sqrt(1.0 - qs), upper),
                    times(np.sqrt(qs), m1)]
        stack = kraus_stack(family, qs)
        assert stack.tobytes() == np.stack(want, axis=1).tobytes()
        assert stack.tobytes() == np.stack([FAMILIES[family](q) for q in qs]).tobytes()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_table_entries(self, family):
        # Each entry is 0 (no entry), +-1 or +-i times sqrt(a + b q), its zero
        # part +0.0 as in the stack, and a + b q >= 0 on [0, 1] (it is affine in q).
        table = _KRAUS[family]
        assert len(table) == (4 if family == DEP else 2) and all(len(op) == 2 for op in table)
        qs = np.array([0.0, -0.0, 0.5, 1.0])
        stack = kraus_stack(family, qs)
        for k, op in enumerate(table):
            for x, (y, phase, a, b) in enumerate(op):
                if phase == (0.0, 0.0):
                    assert not stack[:, k, x].any()
                    continue
                assert y in (0, 1) and sorted(np.abs(phase)) == [0.0, 1.0]
                zero_part = phase.index(0.0)
                assert not np.signbit(phase[zero_part])
                got = stack[:, k, x, y]
                assert not np.signbit((got.real, got.imag)[zero_part]).any()
                assert a >= 0.0 and a + b >= 0.0
                np.testing.assert_array_equal(got, complex(*phase) * np.sqrt(a + b * qs))
                assert not stack[:, k, x, 1 - y].any()

    @pytest.mark.parametrize("call, shape", [
        (lambda: kraus_stack(AD, 0.5), "()"),
        (lambda: evolve_grid(np.eye(4) / 4, DEP, 0.5), "()"),
        (lambda: kraus_stack(DEP, np.full((2, 2), 0.5)), "(2, 2)"),
        (lambda: kraus_stack(PD, 5.0), "()"),  # the shape is checked before the range
    ], ids=["kraus-stack-0d", "evolve-grid-0d", "kraus-stack-2d", "0d-out-of-range"])
    def test_strengths_must_be_one_dimensional(self, call, shape):
        # The first three ended in numpy's IndexError or broadcast ValueError.
        with pytest.raises(ValueError, match=f"1-d array, got shape {re.escape(shape)}"):
            call()

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
            apply_channel(werner(0.5), np.array([[[np.nan, 0.0], [0.0, 1.0]]]))


class TestAffineMap:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exact_quarters_of_the_sampled_map(self, family):
        # (1, q, sqrt(1-q)) is (1, 0, 1), (1, 3/4, 1/2) and (1, 1, 0) at the
        # strengths sampled; solved for A, B and C, the samples of the 16 matrix
        # units give the map up to rounding, and the map is exact quarters (with
        # no -0) within 1e-15 of them.
        m = affine_map(family)
        assert np.array_equal(4.0 * m, np.round(4.0 * m))
        assert not np.signbit(m[m == 0.0]).any()
        points = np.array([[1.0, 0.0, 1.0], [1.0, 0.75, 0.5], [1.0, 1.0, 0.0]])
        solve = np.array([[2.0, -4.0, 3.0], [-2.0, 4.0, -2.0], [-1.0, 4.0, -3.0]])
        assert np.array_equal(solve @ points, np.eye(3))
        units = np.eye(16).reshape(16, 4, 4)
        samples = np.stack([evolve_grid(u, family, points[:, 1]) for u in units])
        sampled = np.einsum("km,imj->ikj", solve, samples.real.reshape(16, 3, 16))
        np.testing.assert_allclose(m, sampled, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_real_and_its_x_block_is_evolve_x(self, family, rng):
        m = affine_map(family)
        assert m.shape == (16, 3, 16) and m.dtype == np.float64 and not m.flags.writeable
        # Into the X entries from those an X-state holds (its X entries, then
        # rho41 and rho32): populations from populations, and each coherence
        # from itself only. Every other term, rho14 <-> rho23 among them, is
        # exactly 0, so the X block acts on the moduli of the coherences.
        into_x = m[np.r_[X_FLAT, 12, 9]][:, :, X_FLAT]
        inputs, outputs = np.ogrid[:8, :6]
        allowed = ((inputs < 4) & (outputs < 4)) | ((inputs >= 4) & (inputs == outputs))
        assert not np.moveaxis(into_x, 1, 0)[:, ~allowed].any()
        # (A + q B) + sqrt(1-q) C of the X block, on random X-states
        # (edge_x_entries: coherences at their PSD bound, MEMS and subnormal
        # entries among them), at q = 0, 1 and the float below 1: the closed
        # form bit for bit under damping. Under depolarizing noise a coherence
        # is a - q a here and (1-q) a there, one rounding of a apart.
        n = 2000
        entries = edge_x_entries(rng, n)
        qs = np.concatenate([[0.0, 1.0, np.nextafter(1.0, 0.0)], rng.uniform(size=n - 3)])
        a, b, c = np.tensordot(m[X_FLAT][:, :, X_FLAT], entries, axes=(0, 0))
        got = (a + qs * b) + np.sqrt(1.0 - qs) * c
        want = np.array(evolve_x(entries, family, qs))
        if family == "depolarizing":
            assert (np.abs(got - want) <= np.spacing(entries)).all()
        else:
            assert_same_bits(got, want)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown channel family 'bit-flip'"):
            affine_map("bit-flip")
