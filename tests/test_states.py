import json

import numpy as np
import pytest

from qnl.errors import NotHermitian, NotPSD, TraceNotOne
from qnl.measures import concurrence, correlation_matrix
from qnl.states import (
    DensityMatrix,
    MemsWeights,
    bell_singlet,
    from_json_dict,
    load_state,
    mems,
    save_state,
    to_json_dict,
    validate,
    werner,
)


class TestBellSinglet:
    def test_matrix_entries(self):
        rho = bell_singlet().mat
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_pure(self):
        assert bell_singlet().purity() == pytest.approx(1.0, abs=1e-12)

    def test_maximally_entangled(self):
        assert concurrence(bell_singlet()) == pytest.approx(1.0, abs=1e-12)

    def test_correlation_matrix_is_minus_identity(self):
        t = correlation_matrix(bell_singlet())
        np.testing.assert_allclose(t, -np.eye(3), atol=1e-12)


class TestWerner:
    def test_p_zero_is_maximally_mixed(self):
        np.testing.assert_allclose(werner(0.0).mat, np.eye(4) / 4, atol=1e-15)

    def test_p_one_is_singlet(self):
        np.testing.assert_allclose(werner(1.0).mat, bell_singlet().mat, atol=1e-15)

    def test_half_concurrence(self):
        assert concurrence(werner(0.5)) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.37, 0.5, 0.9, 1.0])
    def test_spectrum(self, p):
        eigs = werner(p).eigenvalues()
        expected = sorted(
            [(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4], reverse=True
        )
        np.testing.assert_allclose(eigs, expected, atol=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.0001, 2.0])
    def test_range_check(self, p):
        with pytest.raises(ValueError, match="p must lie"):
            werner(p)


class TestMems:
    def test_extreme_weight_is_singlet(self):
        rho = mems(MemsWeights(1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(rho.mat, bell_singlet().mat, atol=1e-15)

    def test_equal_weights_is_maximally_mixed(self):
        rho = mems(MemsWeights(0.25, 0.25, 0.25, 0.25))
        np.testing.assert_allclose(rho.mat, np.eye(4) / 4, atol=1e-15)

    def test_eigenvalues_are_weights(self):
        w = MemsWeights(0.6, 0.2, 0.15, 0.05)
        eigs = mems(w).eigenvalues()
        np.testing.assert_allclose(eigs, (0.6, 0.2, 0.15, 0.05), atol=1e-12)

    def test_eigenvalues_are_weights_random(self, rng):
        for _ in range(50):
            raw = rng.dirichlet(np.ones(4))
            w = MemsWeights(*raw)
            np.testing.assert_allclose(mems(w).eigenvalues(), w.as_tuple(), atol=1e-12)

    def test_weights_sorted_on_construction(self):
        w = MemsWeights(0.1, 0.5, 0.15, 0.25)
        assert w.as_tuple() == (0.5, 0.25, 0.15, 0.1)

    def test_weights_reject_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            MemsWeights(0.7, 0.5, -0.1, -0.1)

    def test_weights_reject_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MemsWeights(0.5, 0.3, 0.1, 0.2)

    def test_weights_reject_nan(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MemsWeights(float("nan"), 0.5, 0.3, 0.2)

    def test_accepts_plain_sequence(self):
        np.testing.assert_allclose(
            mems((0.25, 0.25, 0.25, 0.25)).mat, np.eye(4) / 4, atol=1e-15
        )


class TestValidate:
    def test_accepts_maximally_mixed(self):
        assert isinstance(validate(np.eye(4) / 4), DensityMatrix)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne, match="trace is 2"):
            validate(np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_not_psd(self):
        with pytest.raises(NotPSD, match="-5"):
            validate(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_not_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.3
        with pytest.raises(NotHermitian, match="3.000e-01"):
            validate(m)

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            validate(np.eye(3) / 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            validate(m)

    def test_constructors_pass_validation(self, rng):
        for p in rng.uniform(size=10):
            validate(werner(p).mat)
        validate(bell_singlet().mat)
        validate(mems(MemsWeights(*rng.dirichlet(np.ones(4)))).mat)

    def test_matrix_is_immutable(self):
        rho = bell_singlet()
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        rho = werner(0.73)
        path = tmp_path / "state.json"
        save_state(rho, str(path))
        loaded = load_state(str(path))
        np.testing.assert_allclose(loaded.mat, rho.mat, atol=1e-15)

    def test_file_layout(self):
        doc = to_json_dict(bell_singlet())
        assert set(doc) == {"re", "im"}
        assert doc["re"][1][1] == pytest.approx(0.5)
        assert doc["re"][1][2] == pytest.approx(-0.5)
        assert np.allclose(doc["im"], 0.0)

    def test_load_applies_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"re": np.diag([1, 1, 0, 0]).tolist(),
                                    "im": np.zeros((4, 4)).tolist()}))
        with pytest.raises(TraceNotOne):
            load_state(str(path))

    def test_load_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="re"):
            from_json_dict({"real": [[1]]})

    def test_load_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            from_json_dict({"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]})
