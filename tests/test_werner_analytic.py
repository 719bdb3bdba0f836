"""Closed-form Werner curves against the numeric Kraus pipeline.

The concurrence and fidelity formulas agree with the pipeline to full double
precision. The two-branch Bell expression is reproduced verbatim and is
defective; ``TestBellFormulaDiagnostic`` pins down exactly where and by how
much it departs from the pipeline, whose Bell curve is 2 sqrt(2) p sqrt(1-q).
"""

import math

import numpy as np
import pytest
from conftest import assert_same_bits
from oracles import bell_ad_branches, boundary_q_c, concurrence_ad_unclamped

from qnl.channels import evolve_grid
from qnl.measures import correlation_singvals_stack, wootters_roots_stack
from qnl.states import werner
from qnl.werner_analytic import bell_ad, concurrence_ad, fidelity_ad

P_GRID = np.linspace(0.0, 1.0, 51)
Q_GRID = np.linspace(0.0, 1.0, 51)


def pipeline_curves(p: float, qs: np.ndarray):
    """Numeric (C, F, B) of the damped Werner state over a strength grid."""
    evolved = evolve_grid(werner(p).mat, "amplitude-damping", qs)
    roots = wootters_roots_stack(evolved)
    conc = np.maximum(0.0, roots[:, 0] - roots[:, 1:].sum(axis=1))
    sv = correlation_singvals_stack(evolved)
    fid = 0.5 * (1 + sv.sum(axis=1) / 3)
    bell = 2 * np.sqrt(sv[:, 0] ** 2 + sv[:, 1] ** 2)
    return conc, fid, bell


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
AXES = np.eye(3)


def correlator(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E(a, b) = tr(rho sigma.a (x) sigma.b) for broadcast stacks of directions."""
    sa = np.einsum("...i,ijk->...jk", a, PAULI)
    sb = np.einsum("...i,ijk->...jk", b, PAULI)
    op = np.einsum("...ij,...kl->...ikjl", sa, sb)
    op = op.reshape(*op.shape[:-4], 4, 4)
    return np.einsum("ij,...ji->...", rho, op).real


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def brute_force_chsh(rho: np.ndarray, rng, starts: int = 16, sweeps: int = 60) -> float:
    """max |E(a,b) + E(a,b') + E(a',b) - E(a',b')| over measurement directions.

    Alternating ascent from random starts: for fixed a, a' the CHSH sum is
    linear in b and b', so with u_j = E(a, e_j) and u'_j = E(a', e_j) the
    best pair is b = unit(u + u'), b' = unit(u - u'); the same holds with the
    roles of the two sides swapped. Every value is a trace against rho.
    """
    a, a2, b, b2 = _unit(rng.normal(size=(4, starts, 3)))
    for _ in range(sweeps):
        u = correlator(rho, a[:, None, :], AXES)
        u2 = correlator(rho, a2[:, None, :], AXES)
        b, b2 = _unit(u + u2), _unit(u - u2)
        w = correlator(rho, AXES, b[:, None, :])
        w2 = correlator(rho, AXES, b2[:, None, :])
        a, a2 = _unit(w + w2), _unit(w - w2)
    chsh = (correlator(rho, a, b) + correlator(rho, a, b2)
            + correlator(rho, a2, b) - correlator(rho, a2, b2))
    return float(np.max(np.abs(chsh)))


class TestNoiselessReduction:
    @pytest.mark.parametrize("p", P_GRID)
    def test_concurrence_at_q0(self, p):
        assert concurrence_ad(p, 0.0) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_fidelity_at_q0(self, p):
        assert fidelity_ad(p, 0.0) == pytest.approx((1 + p) / 2, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.6, 0.8, 1.0])
    def test_bell_at_q0_above_half(self, p):
        # For p >= 1/2 the second branch dominates and reduces correctly.
        assert bell_ad(p, 0.0) == pytest.approx(2 * math.sqrt(2) * p, abs=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.4])
    def test_bell_at_q0_below_half_takes_first_branch(self, p):
        # Documented defect: below p = 1/2 the first branch wins and gives
        # 2 sqrt(p) instead of the noiseless value 2 sqrt(2) p.
        assert bell_ad(p, 0.0) == pytest.approx(2 * math.sqrt(p), abs=1e-12)


class TestClosedFormExamples:
    def test_pure_state_concurrence_decay(self):
        for q in Q_GRID:
            assert concurrence_ad(1.0, q) == pytest.approx(math.sqrt(1 - q), abs=1e-12)

    def test_fidelity_point(self):
        assert fidelity_ad(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_bell_branches_at_pure_point(self):
        b1, b2 = bell_ad_branches(1.0, 0.0)
        assert (b1, b2) == pytest.approx((2.0, 2 * math.sqrt(2)), abs=1e-12)
        assert bell_ad(1.0, 0.0) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_second_branch_dominates_at_p1(self):
        # (1-q)(2-q) >= (1-q) for q in [0,1], so B2 >= B1 along the p=1 line.
        for q in Q_GRID:
            b1, b2 = bell_ad_branches(1.0, q)
            assert b2 >= b1 - 1e-15

    @pytest.mark.parametrize(
        "func", [concurrence_ad, fidelity_ad, bell_ad, concurrence_ad_unclamped]
    )
    @pytest.mark.parametrize("point", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1),
                                       (np.array([0.2, 1.5, 2.0]), 0.5),
                                       (0.5, np.array([0.1, np.nan, 0.3]))])
    def test_range_validation(self, func, point):
        # An array names its first bad entry, not the whole array.
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got (-0\.1|1\.1|1\.5|nan)$"):
            func(*point)


class TestPinnedReferences:
    """``bell_ad`` and ``concurrence_ad``, which ``werner_region`` ranks, are the
    max of the pinned branch pair and the clamp of the signed concurrence in
    ``tests/oracles.py``, float for float: the map cannot drift from the
    diagnostic."""

    POINTS = [(0.0, 0.0), (1.0, 1.0), (1.0 / 3.0, 0.0), (0.4, 1.0 / 3.0), (0.5, 1.0),
              (0.125, 0.0), (0.8, 0.4), (0.9, 0.2), (1.0, 0.5), (5e-324, 1.0 - 2.0 ** -53)]

    @pytest.mark.parametrize("p, q", POINTS)
    def test_floats(self, p, q):
        assert_same_bits(bell_ad(p, q), np.maximum(*bell_ad_branches(p, q)))
        assert_same_bits(concurrence_ad(p, q), np.maximum(0.0, concurrence_ad_unclamped(p, q)))

    def test_werner_map_lattice(self):
        # The lattice of ``werner-map --grid 201``: p and q on np.linspace(0, 1, 201).
        axis = np.linspace(0.0, 1.0, 201)
        p, q = axis[:, None], axis[None, :]
        assert_same_bits(bell_ad(p, q), np.maximum(*bell_ad_branches(p, q)))
        assert_same_bits(concurrence_ad(p, q), np.maximum(0.0, concurrence_ad_unclamped(p, q)))


class TestOracleAgreement:
    def test_concurrence_and_fidelity_match_pipeline(self):
        """Closed forms and pipeline agree to 1e-10 over the full 51x51 grid."""
        worst_c = worst_f = 0.0
        for p in P_GRID:
            conc, fid, _ = pipeline_curves(p, Q_GRID)
            c_ref = np.array([concurrence_ad(p, q) for q in Q_GRID])
            f_ref = np.array([fidelity_ad(p, q) for q in Q_GRID])
            worst_c = max(worst_c, float(np.max(np.abs(conc - c_ref))))
            worst_f = max(worst_f, float(np.max(np.abs(fid - f_ref))))
        assert worst_c <= 1e-10
        assert worst_f <= 1e-10

    def test_point_cross_checks(self):
        for p, q in ((0.4, 0.2), (0.7, 0.3), (0.8, 0.5)):
            conc, fid, _ = pipeline_curves(p, np.array([q]))
            assert conc[0] == pytest.approx(concurrence_ad(p, q), abs=1e-10)
            assert fid[0] == pytest.approx(fidelity_ad(p, q), abs=1e-10)

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
    def test_monotone_decay_in_q(self, p):
        qs = np.linspace(0.0, 1.0, 1001)
        for func in (concurrence_ad, fidelity_ad, bell_ad):
            values = np.array([func(p, q) for q in qs])
            assert np.all(np.diff(values) <= 1e-12)


class TestBoundaryQC:
    def test_at_entanglement_threshold(self):
        assert boundary_q_c(1.0 / 3.0) == 0.0

    def test_below_threshold(self):
        assert boundary_q_c(0.2) == 0.0

    def test_interior_value_and_bisection_cross_check(self):
        assert boundary_q_c(0.4) == pytest.approx(1.0 / 3.0, abs=1e-12)
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if concurrence_ad_unclamped(0.4, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert boundary_q_c(0.4) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_edge_of_survival(self):
        assert boundary_q_c(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_strong_states_survive(self):
        assert boundary_q_c(0.8) is None
        qs = np.linspace(0.0, 0.999999, 2000)
        assert min(concurrence_ad(0.8, q) for q in qs) > 0.0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            boundary_q_c(1.5)


class TestBellFormulaDiagnostic:
    """Documents the defect of the two-branch Bell expression.

    Facts pinned here: the pipeline Bell curve equals 2 sqrt(2) p sqrt(1-q)
    to machine precision, and so does a direct CHSH maximisation over
    measurement directions; the closed form agrees with it only where the
    second branch dominates at q = 0; the first branch overestimates at
    small p and the second branch underestimates for every q in (0, 1).
    """

    def test_pipeline_bell_has_exact_closed_form(self):
        worst = 0.0
        for p in P_GRID:
            _, _, bell = pipeline_curves(p, Q_GRID)
            exact = 2 * math.sqrt(2) * p * np.sqrt(1 - Q_GRID)
            worst = max(worst, float(np.max(np.abs(bell - exact))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("p, q", [(1.0, 0.3), (1.0, 0.5), (0.8, 0.4), (0.9, 0.2)])
    def test_brute_force_chsh_matches_exact_curve(self, p, q):
        # Independent of the correlation-matrix SVD: the maximum is taken
        # over measurement directions, each correlator a trace against rho.
        rho = evolve_grid(werner(p).mat, "amplitude-damping", np.array([q]))[0]
        best = brute_force_chsh(rho, np.random.default_rng(20250105))
        assert best == pytest.approx(2 * math.sqrt(2) * p * math.sqrt(1 - q), abs=1e-6)
        assert best > bell_ad(p, q) + 0.1

    def test_agreement_only_at_q0_second_branch(self):
        for p in [0.5, 0.7, 0.9, 1.0]:
            assert bell_ad(p, 0.0) == pytest.approx(2 * math.sqrt(2) * p, abs=1e-12)

    def test_overestimates_below_half(self):
        # For p <= 1/2 the first branch carries the max above the pipeline
        # value 2 sqrt(2) p sqrt(1-q), by more than 0.3 at its worst
        # (p = 1/8, q = 0 gives sqrt(1/2) - sqrt(2)/4, about 0.354).
        worst = 0.0
        for p in P_GRID[P_GRID <= 0.5]:
            for q in Q_GRID:
                exact = 2 * math.sqrt(2) * p * math.sqrt(1 - q)
                assert bell_ad(p, q) >= exact - 1e-12
                worst = max(worst, bell_ad(p, q) - exact)
        assert worst > 0.3

    def test_underestimates_above_half(self):
        # For p >= 1/2 both branches sit below the pipeline value whenever
        # 0 < q < 1, by more than 0.25 at its worst (p = 1, q = 1/2 gives
        # 2 - sqrt(3), about 0.268).
        worst = 0.0
        for p in P_GRID[P_GRID >= 0.5]:
            for q in Q_GRID:
                exact = 2 * math.sqrt(2) * p * math.sqrt(1 - q)
                assert bell_ad(p, q) <= exact + 1e-12
                if 0.0 < q < 1.0:
                    worst = max(worst, exact - bell_ad(p, q))
        assert worst > 0.25

    def test_second_branch_never_exceeds_pipeline(self):
        for p in P_GRID:
            for q in Q_GRID:
                _, b2 = bell_ad_branches(p, q)
                assert b2 <= 2 * math.sqrt(2) * p * math.sqrt(1 - q) + 1e-12

    def test_second_branch_is_wrong_eigenvalue_pair(self):
        # B2 equals 2 sqrt(v1 + v3) over the eigenvalues of T^T T, i.e. the
        # largest paired with the smallest instead of the two largest.
        for p in (0.6, 0.8, 1.0):
            for q in (0.1, 0.4, 0.7):
                evolved = evolve_grid(werner(p).mat, "amplitude-damping", np.array([q]))
                v = np.sort(correlation_singvals_stack(evolved)[0] ** 2)[::-1]
                _, b2 = bell_ad_branches(p, q)
                assert b2 == pytest.approx(2 * math.sqrt(v[0] + v[2]), abs=1e-12)
