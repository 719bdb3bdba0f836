import math

import numpy as np
import pytest

from conftest import ginibre_density_stack, partial_transpose_b
from oracles import concurrence_unclamped, spin_flip
from qnl.measures import (
    CLASS_SLACK,
    GISIN_BOUND,
    REGIONS,
    HierarchyClass,
    classify,
    concurrence,
    correlation_matrix_stack,
    fidelity,
    hierarchy_rank,
    wootters_roots_stack,
)
from qnl.states import DensityMatrix, bell_singlet, werner

MAX_MIXED = np.eye(4) / 4


def ket_projector(index: int) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[index, index] = 1.0
    return m


class TestSpinFlip:
    def test_maximally_mixed_invariant(self):
        np.testing.assert_allclose(spin_flip(DensityMatrix(MAX_MIXED)), MAX_MIXED, atol=1e-15)

    def test_singlet_invariant(self):
        rho = bell_singlet()
        np.testing.assert_allclose(spin_flip(rho), rho.mat, atol=1e-15)

    def test_computational_state_flips(self):
        # sigma_y x sigma_y maps |00> to -|11>, so the projector flips cleanly.
        out = spin_flip(DensityMatrix(ket_projector(0)))
        np.testing.assert_allclose(out, ket_projector(3), atol=1e-15)

    def test_output_hermitian_psd(self, rng):
        for mat in ginibre_density_stack(25, rng):
            out = spin_flip(DensityMatrix(mat))
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(out)[0] >= -1e-12


class TestConcurrence:
    def test_singlet(self):
        assert concurrence(bell_singlet()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert concurrence(DensityMatrix(MAX_MIXED)) == 0.0

    def test_werner_threshold(self):
        assert concurrence(werner(1.0 / 3.0)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.4, 0.5, 0.75, 0.9, 1.0])
    def test_werner_linear_form(self, p):
        assert concurrence(werner(p)) == pytest.approx((3 * p - 1) / 2, abs=1e-12)

    def test_unclamped_negative_for_separable(self):
        assert concurrence_unclamped(DensityMatrix(MAX_MIXED)) < -0.4

    def test_roots_match_product_eigenvalues(self, rng):
        # The svd route must agree with eigenvalues of rho @ rho_tilde taken
        # with a general eigensolver.
        for mat in ginibre_density_stack(50, rng):
            rho = DensityMatrix(mat)
            product = mat @ spin_flip(rho)
            lam = np.sort(np.real(np.linalg.eigvals(product)))[::-1]
            roots = wootters_roots_stack(mat[None])[0]
            np.testing.assert_allclose(roots, np.sqrt(np.clip(lam, 0, None)), atol=1e-7)


class TestCorrelationMatrix:
    def test_maximally_mixed_is_zero(self):
        t = correlation_matrix_stack(DensityMatrix(MAX_MIXED).mat[None])[0]
        np.testing.assert_allclose(t, 0, atol=1e-15)

    def test_singlet(self):
        t = correlation_matrix_stack(bell_singlet().mat[None])[0]
        np.testing.assert_allclose(t, -np.eye(3), atol=1e-12)

    def test_product_state_zz_only(self):
        t = correlation_matrix_stack(DensityMatrix(ket_projector(0)).mat[None])[0]
        expected = np.diag([0.0, 0.0, 1.0])
        np.testing.assert_allclose(t, expected, atol=1e-15)

    def test_entries_bounded(self, rng):
        for mat in ginibre_density_stack(200, rng):
            t = correlation_matrix_stack(DensityMatrix(mat).mat[None])[0]
            assert np.max(np.abs(t)) <= 1.0 + 1e-12

    def test_traces_essentially_real(self, rng):
        from qnl.measures import _PAULI_KRON

        for mat in ginibre_density_stack(50, rng):
            traces = np.einsum("ij,kji->k", mat, _PAULI_KRON)
            assert np.max(np.abs(traces.imag)) <= 1e-12


class TestScalarMeasures:
    def test_n_value_singlet(self):
        assert classify(bell_singlet()).n_value == pytest.approx(3.0, abs=1e-12)

    def test_n_value_maximally_mixed(self):
        assert classify(DensityMatrix(MAX_MIXED)).n_value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_n_value_werner(self, p):
        assert classify(werner(p)).n_value == pytest.approx(3 * p, abs=1e-12)

    def test_fidelity_singlet(self):
        assert fidelity(bell_singlet()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_fidelity_werner(self, p):
        assert fidelity(werner(p)) == pytest.approx((1 + p) / 2, abs=1e-12)

    def test_bell_singlet(self):
        assert classify(bell_singlet()).bell == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.6, 0.9])
    def test_bell_werner(self, p):
        assert classify(werner(p)).bell == pytest.approx(2 * math.sqrt(2) * p, abs=1e-12)

    def test_bell_werner_critical_point(self):
        assert classify(werner(1 / math.sqrt(2))).bell == pytest.approx(2.0, abs=1e-12)


class TestGisinBound:
    def test_two_decimal_value(self):
        assert round(GISIN_BOUND, 2) == 0.87

    def test_tight_bracket(self):
        assert 0.872 < GISIN_BOUND < 0.873

    def test_werner_gisin_parameter(self):
        # The Werner state crosses the bound at p = 2 F_lhv - 1, about 0.745.
        assert abs(2 * GISIN_BOUND - 1 - 0.745) < 5e-4


class TestClassify:
    def test_maximally_mixed(self):
        assert classify(DensityMatrix(MAX_MIXED)).hierarchy_class is HierarchyClass.SEPARABLE

    def test_werner_teleport_not_bell(self):
        report = classify(werner(0.6))
        assert report.hierarchy_class is HierarchyClass.TELEPORT_NOT_BELL
        assert report.concurrence == pytest.approx(0.4, abs=1e-12)
        assert report.fidelity == pytest.approx(0.8, abs=1e-12)
        assert report.bell == pytest.approx(2 * math.sqrt(2) * 0.6, abs=1e-12)

    def test_werner_beyond_gisin(self):
        report = classify(werner(0.9))
        assert report.hierarchy_class is HierarchyClass.BEYOND_GISIN
        assert report.fidelity == pytest.approx(0.95, abs=1e-12)

    def test_boundary_falls_to_weaker_class(self):
        # B = 2 exactly at p = 1/sqrt(2); strict inequality keeps it in R3.
        report = classify(werner(1 / math.sqrt(2)))
        assert report.hierarchy_class is HierarchyClass.TELEPORT_NOT_BELL

    def test_fidelity_consistent_with_n(self, rng):
        for mat in ginibre_density_stack(20, rng):
            report = classify(DensityMatrix(mat))
            assert report.fidelity == (1 + report.n_value / 3) / 2

    def test_hierarchy_rank_stops_at_the_first_failing_condition(self):
        above = np.nextafter(CLASS_SLACK, 1.0)
        # Columns are states, rows G, B, F, C margins.
        margins = np.array([
            [1.0, 1.0, 1.0, 1.0, CLASS_SLACK, above, -1.0, 1.0],
            [1.0, 1.0, 1.0, CLASS_SLACK, 1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, CLASS_SLACK, 1.0, 1.0, 1.0, 1.0, -1.0],
            [1.0, CLASS_SLACK, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0],
        ])
        assert hierarchy_rank(margins).tolist() == [4, 0, 1, 2, 3, 4, 0, 1]
        assert hierarchy_rank(margins[:, 4]) == 3

    def test_region_labels(self):
        regions = dict(zip(HierarchyClass, REGIONS))
        assert regions[HierarchyClass.SEPARABLE] == "R1"
        assert regions[HierarchyClass.BEYOND_GISIN] == "R5"

    def test_werner_class_sequence(self):
        """Along increasing p the Werner classes step through
        SEPARABLE -> TELEPORT_NOT_BELL -> BELL_NOT_GISIN -> BEYOND_GISIN,
        skipping ENTANGLED_ONLY, with transitions at 1/3, 1/sqrt 2, 2 F_lhv - 1.
        """
        grid = np.linspace(0.0, 1.0, 4001)
        labels = [classify(werner(p)).hierarchy_class for p in grid]
        assert HierarchyClass.ENTANGLED_ONLY not in labels
        seen = [labels[0]]
        changes = []
        for p, label in zip(grid, labels):
            if label is not seen[-1]:
                seen.append(label)
                changes.append(p)
        assert seen == [
            HierarchyClass.SEPARABLE,
            HierarchyClass.TELEPORT_NOT_BELL,
            HierarchyClass.BELL_NOT_GISIN,
            HierarchyClass.BEYOND_GISIN,
        ]
        step = grid[1] - grid[0]
        expected = [1 / 3, 1 / math.sqrt(2), 2 * GISIN_BOUND - 1]
        for found, target in zip(changes, expected):
            assert abs(found - target) <= step + 1e-12


@pytest.fixture(scope="module")
def stack():
    return ginibre_density_stack(10_000, np.random.default_rng(2024))


class TestRandomStateInvariants:

    def test_measure_ranges(self, stack):
        from qnl.measures import correlation_singvals_stack

        roots = wootters_roots_stack(stack)
        conc = np.maximum(0.0, roots[:, 0] - roots[:, 1:].sum(axis=1))
        assert np.all((conc >= 0.0) & (conc <= 1.0 + 1e-12))
        sv = correlation_singvals_stack(stack)
        fid = 0.5 * (1 + sv.sum(axis=1) / 3)
        bell = 2 * np.sqrt(sv[:, 0] ** 2 + sv[:, 1] ** 2)
        assert np.all((fid >= 0.5 - 1e-12) & (fid <= 1.0 + 1e-12))
        assert np.all((bell >= 0.0) & (bell <= 2 * math.sqrt(2) + 1e-12))

    def test_product_spectrum_real_nonnegative(self, stack):
        syy = np.zeros((4, 4))
        syy[0, 3] = syy[3, 0] = -1.0
        syy[1, 2] = syy[2, 1] = 1.0
        tilde = syy @ np.conj(stack) @ syy
        lam = np.linalg.eigvals(stack @ tilde)
        assert np.max(np.abs(lam.imag)) <= 1e-10
        assert lam.real.min() >= -1e-10

    def test_peres_horodecki_equivalence(self, stack):
        """Entanglement by concurrence iff the partial transpose is negative."""
        roots = wootters_roots_stack(stack)
        conc = roots[:, 0] - roots[:, 1:].sum(axis=1)
        entangled = conc > 1e-9
        min_eig = np.linalg.eigvalsh(partial_transpose_b(stack))[:, 0]
        npt = min_eig < -1e-9
        assert np.array_equal(entangled, npt)
        # both populations must actually occur for this to test anything
        assert entangled.any() and (~entangled).any()

    def test_bell_violation_implies_teleportation(self, stack):
        from qnl.measures import correlation_singvals_stack

        sv = correlation_singvals_stack(stack)
        fid = 0.5 * (1 + sv.sum(axis=1) / 3)
        bell = 2 * np.sqrt(sv[:, 0] ** 2 + sv[:, 1] ** 2)
        assert np.all(fid[bell > 2.0] > 2.0 / 3.0)

    def test_scalar_batch_agreement(self, stack):
        from qnl.measures import correlation_singvals_stack

        subset = stack[:40]
        roots = wootters_roots_stack(subset)
        sv = correlation_singvals_stack(subset)
        for i, mat in enumerate(subset):
            rho = DensityMatrix(mat)
            c_scalar = concurrence(rho)
            c_batch = max(0.0, roots[i, 0] - roots[i, 1:].sum())
            assert c_scalar == pytest.approx(c_batch, abs=1e-14)
            assert fidelity(rho) == pytest.approx(0.5 * (1 + sv[i].sum() / 3), abs=1e-14)
            assert classify(rho).bell == pytest.approx(
                2 * math.sqrt(sv[i, 0] ** 2 + sv[i, 1] ** 2), abs=1e-14
            )

    def test_gisin_beyond_requires_bell_violation(self, stack):
        """F above the Gisin bound forces a CHSH violation on every sample."""
        from qnl.measures import correlation_singvals_stack

        sv = correlation_singvals_stack(stack)
        fid = 0.5 * (1 + sv.sum(axis=1) / 3)
        bell = 2 * np.sqrt(sv[:, 0] ** 2 + sv[:, 1] ** 2)
        assert np.all(bell[fid > GISIN_BOUND] > 2.0)
