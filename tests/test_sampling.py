import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qnl.sampling as sampling
from conftest import x_entries
from oracles import draw_weights, mems_fidelity
from qnl.errors import InvalidTolerance, RejectionStall
from qnl.measures import GISIN_BOUND, fidelity
from qnl.sampling import (
    CSV_COLUMNS,
    HierarchyResult,
    SamplerConfig,
    hierarchy_experiment,
    _draw_weights,
    _fidelity_of_weights,
    sample_mems_above_gisin,
    write_records_csv,
)
from qnl.states import MemsWeights, bell_singlet, mems
from qnl.thresholds import _BLOCK_POINTS, HIERARCHY_SLACK, ThresholdSet, hierarchy_check, threshold_set

NAN = math.nan


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _none(values) -> list:
    """Floats with NaN as None, the absent value of ``ThresholdSet``."""
    return [None if math.isnan(v) else v for v in np.asarray(values).tolist()]


def _gap(later, earlier):
    return None if later is None or earlier is None else later - earlier


class _FixedUniforms:
    """A generator stand-in whose ``uniform`` returns given rows, to force ties."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float)

    def uniform(self, size):
        assert size == self.rows.shape
        return self.rows.copy()


def _result(weights, thresholds) -> HierarchyResult:
    return HierarchyResult(np.array(weights, dtype=float), np.array(thresholds, dtype=float))


class TestSampleWeights:
    def test_descending_simplex(self):
        w = _draw_weights(np.random.default_rng(7), 1000)
        assert np.all(w[:, :-1] >= w[:, 1:]) and np.all(w[:, -1] >= 0.0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic_sequence(self):
        rng1, rng2 = np.random.default_rng(42), np.random.default_rng(42)
        seq1 = [_draw_weights(rng1, 1) for _ in range(10)]
        seq2 = [_draw_weights(rng2, 1) for _ in range(10)]
        assert np.array_equal(seq1, seq2)
        # One block of ten reads the same stream as ten draws of one.
        assert np.array_equal(np.concatenate(seq1), _draw_weights(np.random.default_rng(42), 10))

    def test_mean_of_largest_weight(self):
        # Order statistics of uniform spacings: E[p1] = (1 + 1/2 + 1/3 + 1/4)/4.
        p1 = _draw_weights(np.random.default_rng(99), 100_000)[:, 0]
        assert p1.mean() == pytest.approx(25.0 / 48.0, abs=0.01)

    def test_sorting_networks_equal_the_row_sorts_bit_for_bit(self):
        # 10^6 rows over four seeds, in blocks of the sampler's largest size and one odd size.
        for seed in (0, 7, 31, 2024):
            for n in (sampling._MAX_DRAW_BLOCK, 250_000 - sampling._MAX_DRAW_BLOCK):
                rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got, want = _draw_weights(rng_new, n), draw_weights(rng_ref, n)
                assert got.shape == (n, 4)
                assert np.array_equal(_bits(got), _bits(want))
                assert np.array_equal(_bits(_fidelity_of_weights(got)), _bits(mems_fidelity(want)))

    def test_ties(self):
        # Ties among the uniforms (zero spacings) and among the spacings themselves.
        rows = [
            [0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [0.25, 0.5, 0.75], [0.75, 0.25, 0.5],
            [0.5, 0.25, 0.5], [0.2, 0.4, 0.2], [0.1, 0.1, 0.9], [0.9, 0.1, 0.1],
            [0.3, 0.6, 0.3], [0.6, 0.3, 0.6], [0.125, 0.25, 0.375], [0.0, 0.5, 0.5],
        ]
        got = _draw_weights(_FixedUniforms(rows), len(rows))
        want = draw_weights(_FixedUniforms(rows), len(rows))
        assert np.array_equal(_bits(got), _bits(want))
        # p1 = p3 (no coherence), xy = zz, and the corners and centre of the simplex.
        w = np.concatenate([want, [
            [1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25], [0.5, 0.5, 0.0, 0.0],
            [0.4, 0.2, 0.2, 0.2], [0.5, 0.25, 0.25, 0.0], [0.375, 0.375, 0.125, 0.125],
            [0.6, 0.2, 0.2, 0.0], [1 / 3, 1 / 3, 1 / 3, 0.0], [0.7, 0.1, 0.1, 0.1],
        ]])
        assert np.array_equal(_bits(_fidelity_of_weights(w)), _bits(mems_fidelity(w)))


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
            w = MemsWeights(*_draw_weights(rng, 1)[0])
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
            fidelity(mems(MemsWeights(*row))) > GISIN_BOUND for row in _draw_weights(rng, draws)
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
        for bad in (2.5, 2.0, "3", None):
            with pytest.raises(ValueError, match="n_states"):
                SamplerConfig(n_states=bad, seed=1)
            with pytest.raises(ValueError, match="seed"):
                SamplerConfig(n_states=1, seed=bad)
        cfg = SamplerConfig(n_states=np.int64(3), seed=np.uint32(5))
        assert (cfg.n_states, cfg.seed) == (3, 5)
        assert type(cfg.n_states) is int and type(cfg.seed) is int

    def test_config_refuses_bools(self):
        # bool is an int subclass: True and False would pass as 1 and 0.
        for bad in (True, False, np.bool_(True)):
            with pytest.raises(ValueError, match="n_states"):
                SamplerConfig(n_states=bad, seed=1)
            with pytest.raises(ValueError, match="seed"):
                SamplerConfig(n_states=1, seed=bad)

    @pytest.mark.parametrize("tol", ["1e-6", np.float32(1e-6), np.float64(1e-6), 1e-6])
    def test_config_stores_tol_as_float(self, tol):
        cfg = SamplerConfig(n_states=1, seed=0, tol=tol)
        assert type(cfg.tol) is float and cfg.tol == float(tol)

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
        assert [MemsWeights(*row) for row in hierarchy_experiment(cfg).weights.tolist()] == drawn


class TestHierarchyExperiment:
    def test_single_record(self):
        result = hierarchy_experiment(SamplerConfig(n_states=1, seed=3))
        assert len(result) == 1
        assert result.weights.shape == result.thresholds.shape == (1, 4)
        assert result.gaps.shape == (1, 3) and result.ordered.shape == (1,)
        for column in (result.weights, result.thresholds):  # the result is frozen
            with pytest.raises(ValueError):
                column[0, 0] = 0.5

    def test_gap_positivity_small_run(self):
        result = hierarchy_experiment(SamplerConfig(n_states=50, seed=8))
        assert len(result) == 50
        for row in result.gaps:
            for gap in _none(row):
                if gap is not None:
                    assert gap >= -1e-6

    def test_deterministic(self):
        a = hierarchy_experiment(SamplerConfig(n_states=10, seed=21))
        b = hierarchy_experiment(SamplerConfig(n_states=10, seed=21))
        assert np.array_equal(_bits(a.weights), _bits(b.weights))
        assert np.array_equal(_bits(a.thresholds), _bits(b.thresholds))

    def test_gaps_match_thresholds(self):
        result = hierarchy_experiment(SamplerConfig(n_states=5, seed=13))
        for found, gaps in zip(result.thresholds, result.gaps):
            q_g, q_b, q_f, q_c = _none(found)
            assert _none(gaps) == [_gap(q_b, q_g), _gap(q_f, q_b), _gap(q_c, q_f)]

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
        gaps = _none(_result([[0.85, 0.1, 0.05, 0.0]], [[0.1, 0.2, 0.4, NAN]]).gaps[0])
        assert gaps[0] == pytest.approx(0.1)
        assert gaps[1] == pytest.approx(0.2)
        assert gaps[2] is None


# Threshold rows on which ``ordered`` must agree with ``hierarchy_check``: all
# absent, one absent in each position, ties, and neighbours HIERARCHY_SLACK
# apart in either direction. The last two are pairs at which a <= b + slack
# holds while the rearranged a - slack <= b or b - a >= -slack fails.
_S = HIERARCHY_SLACK
_ORDER_ROWS = [
    [NAN, NAN, NAN, NAN],
    [NAN, 0.2, 0.3, 0.4], [0.1, NAN, 0.3, 0.4], [0.1, 0.2, NAN, 0.4], [0.1, 0.2, 0.3, NAN],
    [0.1, 0.2, NAN, NAN], [NAN, NAN, 0.3, 0.4], [0.1, NAN, NAN, NAN], [NAN, NAN, NAN, 0.4],
    [0.3, 0.3, 0.3, 0.3], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, NAN], [0.2, 0.2, 0.2, NAN],
    [0.3 + _S, 0.3, 0.4, 0.5], [0.3, 0.3 - _S, 0.4, 0.5], [0.2, 0.4 + _S, 0.4, 0.5],
    [0.2, 0.3, 0.5 + _S, 0.5], [0.2, 0.3, 0.4, 0.4 - _S], [0.3 - _S, 0.3, 0.3 + _S, 0.3],
    [0.3 + 2 * _S, 0.3, 0.4, 0.5], [0.2, 0.3, 0.5, 0.5 - 1.5 * _S], [_S, 0.0, 0.0, 0.0],
    [0.5 + math.ulp(0.5), 0.5 - _S, 0.6, NAN], [0.5, 0.5 - _S, 0.6, NAN],
    [0.9, 0.5, 0.3, 0.1], [0.1, 0.2, 0.3, 0.4], [NAN, 0.1, NAN, 0.4], [0.4, NAN, 0.3, NAN],
    [0.5000005999996, 0.4999995999996, 0.6, 0.7], [0.1, 0.2, 0.300001, 0.3],
]


class TestOrdered:
    def test_hand_made_rows_equal_hierarchy_check(self):
        found = np.array(_ORDER_ROWS)
        ordered = _result(np.full((len(found), 4), 0.25), found).ordered
        assert ordered.dtype == bool
        want = [hierarchy_check(ThresholdSet(*_none(row))) for row in found]
        assert ordered.tolist() == want
        # Both outcomes occur.
        assert True in want and False in want

    @pytest.mark.parametrize("channel", ["amplitude-damping", "phase-damping", "depolarizing"])
    def test_experiment_rows_equal_hierarchy_check(self, channel):
        result = hierarchy_experiment(SamplerConfig(n_states=200, seed=44, channel=channel))
        want = [hierarchy_check(ThresholdSet(*_none(row))) for row in result.thresholds]
        assert result.ordered.tolist() == want


def _reference_csv(result: HierarchyResult) -> str:
    """The CSV cell by cell: ``format(v, ".12g")``, gaps as later - earlier of floats."""
    lines = [",".join(CSV_COLUMNS)]
    for w, found in zip(result.weights.tolist(), result.thresholds.tolist()):
        q = _none(found)
        values = (*w, *q, _gap(q[1], q[0]), _gap(q[2], q[1]), _gap(q[3], q[2]))
        lines.append(",".join("" if v is None else format(v, ".12g") for v in values))
    return "\n".join(lines) + "\n"


class _Writes(io.StringIO):
    """A text buffer that records the size of each write, in lines."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, text):
        self.lines.append(text.count("\n"))
        return super().write(text)


class TestCsvOutput:
    def test_layout_and_empty_cells(self):
        result = _result([[0.85, 0.1, 0.05, 0.0]], [[0.1, 0.25, 0.5, NAN]])
        buf = io.StringIO()
        write_records_csv(result, buf)
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
        result = _result([[1 / 3, 1 / 3, 1 / 6, 1 / 6]], [[1 / 7, 2 / 7, 3 / 7, 4 / 7]])
        buf = io.StringIO()
        write_records_csv(result, buf)
        cells = buf.getvalue().split("\n")[1].split(",")
        assert cells[0] == "0.333333333333"
        assert cells[4] == "0.142857142857"

    def test_blocks_match_the_per_cell_format(self):
        # One row past a block, with absent cells in every threshold column,
        # tiny, negative-gap and exactly representable values.
        n = _BLOCK_POINTS + 1
        rng = np.random.default_rng(5)
        weights = _draw_weights(rng, n)
        found = np.sort(rng.uniform(size=(n, 4)), axis=1)
        found[rng.uniform(size=(n, 4)) < 0.2] = NAN
        found[:8] = [[0.0, 0.0, 0.5, 1.0], [1e-300, 2e-300, NAN, NAN], [0.3, 0.2, 0.1, 0.0],
                     [NAN] * 4, [0.1, 0.1 + 1e-13, 0.7, 0.7], [0.25, 0.5, 0.75, 1 - 1e-12],
                     [1 / 3, 2 / 3, NAN, 1.0], [0.5, NAN, 0.5, NAN]]
        found[-1] = [0.125, NAN, 0.375, 0.5]
        result = HierarchyResult(weights, found)
        buf = _Writes()
        write_records_csv(result, buf)
        assert buf.getvalue() == _reference_csv(result)
        assert buf.lines == [1, _BLOCK_POINTS, 1]  # the header, then one write per block
