import math
import tracemalloc

import numpy as np
import pytest
from conftest import ginibre
from oracles import concurrence_unclamped

from qnl.channels import FAMILIES, apply_channel, evolve_grid
from qnl.errors import BadGrid, InvalidTolerance
from qnl.measures import (
    GISIN_BOUND,
    REGIONS,
    HierarchyClass,
    classify,
    fidelity,
)
from qnl.states import DensityMatrix, bell_singlet, werner
from qnl.thresholds import (
    _BLOCK_POINTS,
    ThresholdSet,
    _curves,
    hierarchy_check,
    scan,
    threshold_set,
    werner_region,
)
from qnl.werner_analytic import bell_ad, concurrence_ad, fidelity_ad

AD = "amplitude-damping"
# Most memory one threshold_set may allocate at once (tracemalloc's peak). Each
# point reads its margins from a per-state table, so a pre-scan holds a few
# (9, 1002) arrays; per-point cofactor and Gram stacks took about 930 KiB.
PEAK_BYTES = 512 * 1024


def bisect_analytic(func, target, lo=0.0, hi=1.0, tol=1e-12):
    """Root of func(q) = target on a decreasing curve, by plain bisection."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if func(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCriticalQBellState:
    def test_fidelity_threshold(self):
        q = threshold_set(bell_singlet(), AD).q_f
        assert q == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-6)

    def test_gisin_threshold_matches_analytic_root(self):
        q = threshold_set(bell_singlet(), AD).q_g
        root = bisect_analytic(lambda x: fidelity_ad(1.0, x), GISIN_BOUND)
        assert q == pytest.approx(root, abs=1e-4)

    def test_concurrence_survives_all_noise(self):
        assert threshold_set(bell_singlet(), AD).q_c is None

    def test_bell_threshold_is_one_half(self):
        # The pipeline Bell curve is 2 sqrt(2) sqrt(1-q), which crosses 2 at
        # q = 1/2 exactly; cross-checked against a fine direct scan below.
        q = threshold_set(bell_singlet(), AD).q_b
        assert q == pytest.approx(0.5, abs=1e-6)
        probe = np.linspace(0.49, 0.51, 2001)
        table = scan(bell_singlet(), AD, probe)
        first_dead = probe[np.argmax(table[:, 3] <= 2.0)]
        assert q == pytest.approx(first_dead, abs=1e-4)


class TestThresholdSet:
    def test_bell_state_bundle(self):
        ts = threshold_set(bell_singlet(), AD)
        root = bisect_analytic(lambda x: fidelity_ad(1.0, x), GISIN_BOUND)
        assert ts.q_g == pytest.approx(root, abs=1e-9)
        assert ts.q_b == pytest.approx(0.5, abs=1e-6)
        assert ts.q_f == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-6)
        assert ts.q_c is None
        assert hierarchy_check(ts)

    def test_werner_half_dead_at_start(self):
        # B = sqrt(2) < 2 and F = 0.75 < F_lhv already at q = 0.
        ts = threshold_set(werner(0.5), AD)
        assert ts.q_g == 0.0
        assert ts.q_b == 0.0
        assert ts.q_f == pytest.approx(2 * math.sqrt(3) - 3, abs=1e-6)
        assert ts.q_c is None

    def test_maximally_mixed_all_zero(self):
        ts = threshold_set(DensityMatrix(np.eye(4) / 4), AD)
        assert ts == ThresholdSet(0.0, 0.0, 0.0, 0.0)
        assert hierarchy_check(ts)

    def test_werner_qc_matches_closed_boundary(self):
        # Entanglement death of werner(0.4) at q = 1/3 from the closed form.
        q = threshold_set(werner(0.4), AD).q_c
        assert q == pytest.approx(1.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("p", [0.75, 0.8, 0.9, 1.0])
    def test_hierarchy_across_channels(self, family, p):
        ts = threshold_set(werner(p), family, tol=1e-6)
        assert hierarchy_check(ts)

    def test_survivor_below_float_spacing_at_one(self):
        # 1 - 1e-17 rounds to 1, where amplitude damping leaves a product
        # state; the last point checked is the float below 1 instead.
        assert threshold_set(werner(0.9), AD, 1e-17).q_c is None

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 2e-3, 1.0])
    def test_invalid_tolerance(self, tol):
        with pytest.raises(InvalidTolerance):
            threshold_set(bell_singlet(), AD, tol=tol)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown channel"):
            threshold_set(bell_singlet(), "bit-flip")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_threshold_set_peak_memory(family):
    rng = np.random.default_rng(5)
    threshold_set(werner(0.9), family)  # first-call allocations are not the locator's
    for rank in (1, 2, 3, 4):
        state = DensityMatrix(ginibre(rng, rank))
        tracemalloc.start()
        try:
            threshold_set(state, family, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_BYTES, (rank, peak)


class TestBisectionCorrectness:
    @pytest.mark.parametrize("state_builder,label", [(bell_singlet, "bell"),
                                                     (lambda: werner(0.9), "werner09")])
    def test_alive_before_dead_after(self, state_builder, label):
        """Directly evaluate the alive conditions around each located q*."""
        tol = 1e-6
        state = state_builder()
        ts = threshold_set(state, AD, tol=tol)
        conditions = {
            ts.q_g: lambda r: fidelity(r) > GISIN_BOUND,
            ts.q_b: lambda r: classify(r).bell > 2.0,
            ts.q_f: lambda r: fidelity(r) > 2.0 / 3.0,
            ts.q_c: lambda r: concurrence_unclamped(r) > 0.0,
        }
        for q_star, alive in conditions.items():
            if q_star is None or q_star == 0.0:
                continue
            before = apply_channel(state, FAMILIES[AD](q_star - 2 * tol))
            after = apply_channel(state, FAMILIES[AD](q_star + 2 * tol))
            assert alive(before)
            assert not alive(after)


class TestHierarchyCheck:
    def test_bell_like_set(self):
        assert hierarchy_check(ThresholdSet(0.36, 0.38, 0.83, None))

    def test_degenerate_equalities(self):
        assert hierarchy_check(ThresholdSet(0.0, 0.0, 0.0, 0.0))

    def test_constructed_violation(self):
        assert not hierarchy_check(ThresholdSet(0.5, 0.4, 0.9, 1.0))

    def test_absent_in_middle_breaks_order(self):
        assert not hierarchy_check(ThresholdSet(None, 0.5, 0.9, None))

    def test_slack_tolerates_solver_noise(self):
        assert hierarchy_check(ThresholdSet(0.5, 0.5 - 1e-7, 0.9, None))
        assert not hierarchy_check(ThresholdSet(0.5, 0.5 - 1e-5, 0.9, None))

    def test_as_dict_keys(self):
        d = ThresholdSet(0.1, 0.2, 0.3, None).as_dict()
        assert list(d) == ["q_G", "q_B", "q_F", "q_C"]
        assert d["q_C"] is None


class TestScan:
    def test_singlet_clean_endpoint(self):
        row = scan(bell_singlet(), AD, np.array([0.0]))[0]
        np.testing.assert_allclose(row, [0.0, 1.0, 1.0, 2 * math.sqrt(2)], atol=1e-12)

    def test_singlet_fully_damped(self):
        # At q = 1 the output is (|00><00| + |10><10|)/2: separable, T = 0.
        row = scan(bell_singlet(), AD, np.array([1.0]))[0]
        np.testing.assert_allclose(row, [1.0, 0.0, 0.5, 0.0], atol=1e-12)

    def test_werner_rows_against_closed_forms(self):
        qs = np.linspace(0.0, 1.0, 11)
        table = scan(werner(0.8), AD, qs)
        for q, c, f, b in table:
            assert c == pytest.approx(concurrence_ad(0.8, q), abs=1e-10)
            assert f == pytest.approx(fidelity_ad(0.8, q), abs=1e-10)
            assert b == pytest.approx(2 * math.sqrt(2) * 0.8 * math.sqrt(1 - q), abs=1e-10)
        # The two-branch closed form only meets the pipeline at the ends.
        assert table[0, 3] == pytest.approx(bell_ad(0.8, 0.0), abs=1e-10)
        assert table[-1, 3] == pytest.approx(bell_ad(0.8, 1.0), abs=1e-10)
        interior = [abs(b - bell_ad(0.8, q)) for q, _, _, b in table[1:-1]]
        assert min(interior) > 1e-3

    def test_rows_match_direct_evaluation(self, rng):
        from conftest import ginibre_density_stack

        mat = ginibre_density_stack(1, rng)[0]
        state = DensityMatrix(mat)
        qs = np.array([0.0, 0.2, 0.7])
        for family in sorted(FAMILIES):
            table = scan(state, family, qs)
            for q, c, f, b in table:
                evolved = apply_channel(state, FAMILIES[family](q))
                report = classify(evolved)
                assert c == pytest.approx(report.concurrence, abs=1e-12)
                assert f == pytest.approx(report.fidelity, abs=1e-12)
                assert b == pytest.approx(report.bell, abs=1e-12)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_blocks_equal_one_whole_grid_evaluation(self, family, rng):
        # Two full blocks and a last block of one row.
        from conftest import assert_scan_rows, ginibre_density_stack

        state = DensityMatrix(ginibre_density_stack(1, rng)[0])
        qs = np.linspace(0.0, 1.0, 2 * _BLOCK_POINTS + 1)
        c_unclamped, f, b = _curves(evolve_grid(state.mat, family, qs))
        whole = np.column_stack([qs, np.maximum(0.0, c_unclamped), f, b])
        assert_scan_rows(scan(state, family, qs), whole, state.mat, family)

    @pytest.mark.parametrize(
        "grid",
        [np.array([0.5, 0.4]), np.array([-0.1, 0.5]), np.array([0.5, 1.2]),
         np.array([]), np.array([0.1, 0.1])],
    )
    def test_bad_grids(self, grid):
        with pytest.raises(BadGrid):
            scan(bell_singlet(), AD, grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid(self, bad):
        with pytest.raises(BadGrid):
            scan(werner(0.8), AD, np.array([bad]))


class TestWernerRegion:
    def test_never_entangled_corner(self):
        assert werner_region(0.2, 0.5) == "R1"

    def test_pure_noiseless_corner(self):
        assert werner_region(1.0, 0.0) == "R5"

    def test_between_bell_and_fidelity_death(self):
        assert werner_region(1.0, 0.5) == "R3"

    def test_r2_exists_off_the_werner_q0_line(self):
        # At q = 0 Werner states jump straight from R1 to R3; with noise the
        # entangled-but-useless band R2 is populated.
        assert concurrence_ad(0.4, 0.3) > 1e-3
        assert fidelity_ad(0.4, 0.3) < 2.0 / 3.0
        assert werner_region(0.4, 0.3) == "R2"

    def test_label_monotone_in_q(self):
        order = {"R1": 0, "R2": 1, "R3": 2, "R4": 3, "R5": 4}
        axis = np.linspace(0.0, 1.0, 25)
        for p in axis:
            cells = [werner_region(p, q) for q in axis]
            assert werner_region(p, axis).tolist() == cells
            labels = [order[label] for label in cells]
            assert np.all(np.diff(labels) <= 0)


class TestRegionMapAgainstPipeline:
    def test_agreement_except_bell_formula_strip(self):
        """Analytic and pipeline region labels agree on a 25x25 lattice except
        exactly where the defective closed-form Bell expression and the
        pipeline disagree about crossing B = 2; there the analytic map says R3
        while the pipeline says R4 (or vice versa at small p).
        """
        eps = 1e-9
        mismatches = 0
        for p in np.linspace(0.0, 1.0, 25):
            for q in np.linspace(0.0, 1.0, 25):
                analytic = werner_region(p, q)
                evolved = apply_channel(werner(p), FAMILIES[AD](q))
                report = classify(evolved)
                numeric = REGIONS[list(HierarchyClass).index(report.hierarchy_class)]
                if analytic == numeric:
                    continue
                mismatches += 1
                assert {analytic, numeric} == {"R3", "R4"}
                analytic_bell_alive = bell_ad(p, q) > 2.0 + eps
                numeric_bell_alive = report.bell > 2.0 + eps
                assert analytic_bell_alive != numeric_bell_alive
        assert mismatches > 0  # the strip is real and must be visible
