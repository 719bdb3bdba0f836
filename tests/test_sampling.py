import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qnl.sampling as sampling
from qnl.channels import x_entries
from qnl.errors import InvalidTolerance, RejectionStall
from qnl.measures import GISIN_BOUND, fidelity
from qnl.sampling import (
    CSV_COLUMNS,
    HierarchyRecord,
    SamplerConfig,
    gaps_of,
    hierarchy_experiment,
    sample_mems_above_gisin,
    sample_weights,
    write_records_csv,
)
from qnl.states import MemsWeights, bell_singlet, mems
from qnl.thresholds import ThresholdSet, threshold_set


class TestSampleWeights:
    def test_descending_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            w = sample_weights(rng).as_tuple()
            assert w[0] >= w[1] >= w[2] >= w[3] >= 0.0
            assert sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_sequence(self):
        rng1, rng2 = np.random.default_rng(42), np.random.default_rng(42)
        seq1 = [sample_weights(rng1).as_tuple() for _ in range(10)]
        seq2 = [sample_weights(rng2).as_tuple() for _ in range(10)]
        assert seq1 == seq2

    def test_mean_of_largest_weight(self):
        # Order statistics of uniform spacings: E[p1] = (1 + 1/2 + 1/3 + 1/4)/4.
        rng = np.random.default_rng(99)
        total = 0.0
        n = 100_000
        for _ in range(n):
            total += sample_weights(rng).p1
        assert total / n == pytest.approx(25.0 / 48.0, abs=0.01)


class TestRejectionSampler:
    def test_yields_requested_count_above_bound(self):
        cfg = SamplerConfig(n_states=40, seed=5)
        out = list(sample_mems_above_gisin(cfg))
        assert len(out) == 40
        for rho, w in out:
            assert fidelity(rho) > GISIN_BOUND
            assert isinstance(w, MemsWeights)

    def test_block_drawing_preserves_scalar_stream(self):
        # The generator must accept exactly the states a one-at-a-time
        # rejection loop with the same seed accepts, in the same order.
        cfg = SamplerConfig(n_states=12, seed=31)
        got = [w.as_tuple() for _, w in sample_mems_above_gisin(cfg)]
        rng = np.random.default_rng(31)
        expected = []
        while len(expected) < 12:
            w = sample_weights(rng)
            if fidelity(mems(w)) > GISIN_BOUND:
                expected.append(w.as_tuple())
        np.testing.assert_allclose(got, expected, atol=0)

    def test_filter_extremes(self):
        assert fidelity(mems(MemsWeights(1.0, 0.0, 0.0, 0.0))) > GISIN_BOUND
        assert not fidelity(mems(MemsWeights(0.25, 0.25, 0.25, 0.25))) > GISIN_BOUND

    def test_acceptance_rate_is_sane(self):
        # Roughly 3 percent of simplex draws pass the bound; far above the
        # 1-in-1e6 floor that would signal a broken filter.
        cfg = SamplerConfig(n_states=50, seed=11)
        gen = sample_mems_above_gisin(cfg)
        list(gen)
        rng = np.random.default_rng(11)
        draws = 20_000
        hits = sum(
            fidelity(mems(sample_weights(rng))) > GISIN_BOUND for _ in range(draws)
        )
        assert hits / draws > 1e-6
        assert 0.005 < hits / draws < 0.2

    def test_stall_guard(self, monkeypatch):
        monkeypatch.setattr(sampling, "MAX_DRAWS", 0)
        with pytest.raises(RejectionStall):
            list(sample_mems_above_gisin(SamplerConfig(n_states=1, seed=0)))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_states"):
            SamplerConfig(n_states=0, seed=1)
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(n_states=1, seed=-1)

    @pytest.mark.parametrize("kwargs, error", [
        ({"channel": "bogus"}, ValueError),
        ({"tol": 0.5}, InvalidTolerance),
        ({"tol": math.nan}, InvalidTolerance),
    ])
    def test_bad_channel_or_tol_fails_before_any_draw(self, monkeypatch, kwargs, error):
        def no_draws(rng, n):
            raise AssertionError("drew weights before the config was checked")

        monkeypatch.setattr(sampling, "_draw_weights", no_draws)
        with pytest.raises(error):
            hierarchy_experiment(SamplerConfig(n_states=10**5, seed=0, **kwargs))


class TestMemsEntries:
    """``_mems_entries`` writes the X entries of a MEMS from its weights alone."""

    @pytest.mark.parametrize(
        "w",
        [(1.0, 0.0, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25), (0.5, 0.3, 0.2, 0.0)],
    )
    def test_edge_weights(self, w):
        got = sampling._mems_entries(np.array([w]))[:, 0]
        np.testing.assert_allclose(got, x_entries(mems(MemsWeights(*w)).mat), rtol=0, atol=1e-15)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(raw=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
           .filter(lambda r: sum(r) >= 0.01))
    def test_matches_matrix(self, raw):
        w = MemsWeights(*(np.array(raw) / sum(raw)))
        got = sampling._mems_entries(np.array([w.as_tuple()]))[:, 0]
        np.testing.assert_allclose(got, x_entries(mems(w).mat), rtol=0, atol=1e-15)

    def test_generator_and_experiment_accept_the_same_weights(self):
        cfg = SamplerConfig(n_states=60, seed=17, channel="phase-damping")
        drawn = [w for _, w in sample_mems_above_gisin(cfg)]
        assert [rec.weights for rec in hierarchy_experiment(cfg)] == drawn


class TestHierarchyExperiment:
    def test_single_record(self):
        records = hierarchy_experiment(SamplerConfig(n_states=1, seed=3))
        assert len(records) == 1

    def test_gap_positivity_small_run(self):
        records = hierarchy_experiment(SamplerConfig(n_states=50, seed=8))
        assert len(records) == 50
        for rec in records:
            for gap in rec.gaps:
                if gap is not None:
                    assert gap >= -1e-6

    def test_deterministic(self):
        a = hierarchy_experiment(SamplerConfig(n_states=10, seed=21))
        b = hierarchy_experiment(SamplerConfig(n_states=10, seed=21))
        assert a == b

    def test_gaps_match_thresholds(self):
        records = hierarchy_experiment(SamplerConfig(n_states=5, seed=13))
        for rec in records:
            assert rec.gaps == gaps_of(rec.thresholds)

    def test_pure_singlet_weights_reproduce_bell_state(self):
        # A draw landing exactly on (1, 0, 0, 0) is the Bell state itself.
        w = MemsWeights(1.0, 0.0, 0.0, 0.0)
        ts = threshold_set(mems(w), "amplitude-damping", tol=1e-6)
        ref = threshold_set(bell_singlet(), "amplitude-damping", tol=1e-6)
        assert ts.q_g == pytest.approx(ref.q_g, abs=1e-9)
        assert ts.q_b == pytest.approx(ref.q_b, abs=1e-9)
        assert ts.q_f == pytest.approx(ref.q_f, abs=1e-9)
        assert ts.q_c is None and ref.q_c is None
        assert ts.q_b == pytest.approx(0.5, abs=1e-6)

    def test_gaps_none_propagation(self):
        gaps = gaps_of(ThresholdSet(0.1, 0.2, 0.4, None))
        assert gaps[0] == pytest.approx(0.1)
        assert gaps[1] == pytest.approx(0.2)
        assert gaps[2] is None


class TestCsvOutput:
    def test_layout_and_empty_cells(self):
        rec = HierarchyRecord(
            weights=MemsWeights(0.85, 0.1, 0.05, 0.0),
            thresholds=ThresholdSet(0.1, 0.25, 0.5, None),
        )
        buf = io.StringIO()
        write_records_csv([rec], buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = lines[1].split(",")
        assert len(cells) == 11
        assert cells[0] == "0.85"
        assert cells[7] == ""   # absent q_C
        assert cells[10] == ""  # gap involving it is absent too
        assert float(cells[8]) == pytest.approx(0.15)
        assert lines[-1] == ""  # trailing LF, no CRLF anywhere
        assert "\r" not in buf.getvalue()

    def test_twelve_significant_digits(self):
        rec = HierarchyRecord(
            weights=MemsWeights(1 / 3, 1 / 3, 1 / 6, 1 / 6),
            thresholds=ThresholdSet(1 / 7, 2 / 7, 3 / 7, 4 / 7),
        )
        buf = io.StringIO()
        write_records_csv([rec], buf)
        cells = buf.getvalue().split("\n")[1].split(",")
        assert cells[0] == "0.333333333333"
        assert cells[4] == "0.142857142857"
