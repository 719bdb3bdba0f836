"""The closed-form X-state path against the general Kraus pipeline.

``thresholds.x_threshold_sets`` evolves the six X entries (``channels.evolve_x``)
and reads the correlation singular values and det(rho^{T_B}) in closed form
(``measures.x_singvals``, ``thresholds._x_margins``). Its margins are checked
against the Kraus margins on a grid for MEMS, Werner states, the singlet,
X-states with complex coherences and rank-deficient X-states, under every
channel; its thresholds against ``threshold_set``. The X G, B and F rows are
checked against the spectra (``_curves``) at 1e-12, and the Kraus rows, which
carry only the signs of those margins (``correlation_sign_margins``), must
read the same alive bits wherever the X margin is clear of rounding.

Neither provider takes a square root of the state, so the concurrence rows
agree to 1e-12, rank-deficient states included. The printed concurrence of
``scan`` still comes from the Wootters roots of ``psd_sqrt_stack``, which turns
an exactly zero eigenvalue computed as ~1e-17 into a square root of ~3e-9; on
pure a|00> + b|11> states it is pinned to the exact curve at 1e-7.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnl.channels import FAMILIES, evolve_grid, evolve_x, x_entries
from qnl.errors import QOutOfRange
from qnl.measures import (
    alive_margins,
    correlation_measures,
    correlation_singvals_stack,
    x_singvals,
)
from qnl.sampling import SamplerConfig, hierarchy_experiment
from qnl.states import MemsWeights, bell_singlet, mems, validate, werner
from qnl.thresholds import (
    _curves,
    _kraus_margins,
    _x_margins,
    scan,
    threshold_set,
    x_threshold_sets,
)

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)
GRID = np.linspace(0.0, 1.0, 101)
TOL = 1e-6
# Printed (Wootters) concurrence on a singular, non-diagonal coherence block.
WOOTTERS_SINGULAR_ATOL = 1e-7

unit = st.floats(0.0, 1.0)
phase = st.floats(0.0, 2.0 * math.pi)


def x_state(diag, c14=0.0, c23=0.0) -> np.ndarray:
    mat = np.diag(np.asarray(diag, dtype=complex))
    mat[0, 3], mat[3, 0] = c14, np.conj(c14)
    mat[1, 2], mat[2, 1] = c23, np.conj(c23)
    return validate(mat).mat


def both_margins(mat: np.ndarray, family: str) -> tuple[np.ndarray, np.ndarray]:
    states = np.zeros(GRID.size, dtype=np.intp)
    x = _x_margins(x_entries(mat[None]), family)(states, GRID)
    kraus = _kraus_margins(mat, family)(states, GRID)
    return x, kraus


def check_margins(mat: np.ndarray) -> None:
    for family in sorted(FAMILIES):
        x, kraus = both_margins(mat, family)
        _, f, b = _curves(evolve_grid(mat, family, GRID))
        spectra = alive_margins(f, b, x[3])
        np.testing.assert_allclose(x[:3], spectra[:3], rtol=0, atol=1e-12, err_msg=family)
        np.testing.assert_allclose(x[3], kraus[3], rtol=0, atol=1e-12, err_msg=family)
        # The Kraus G, B and F rows carry signs only.
        clear = np.abs(x) > 1e-12
        np.testing.assert_array_equal(x[clear] > 0, kraus[clear] > 0, err_msg=family)


def weights(raw) -> np.ndarray:
    w = np.array(raw, dtype=float)
    return w / w.sum()


@PROPERTY
@given(raw=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_mems_margins(raw):
    check_margins(mems(MemsWeights(*weights(raw))).mat)


@PROPERTY
@given(raw=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
def test_rank_three_mems_margins(raw):
    check_margins(mems(MemsWeights(*weights(raw), 0.0)).mat)


@PROPERTY
@given(p=unit)
def test_werner_margins(p):
    check_margins(werner(p).mat)


def test_singlet_margins():
    check_margins(bell_singlet().mat)


@PROPERTY
@given(raw=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       r14=st.floats(0.0, 0.99), r23=st.floats(0.0, 0.99), f14=phase, f23=phase)
def test_complex_x_state_margins(raw, r14, r23, f14, f23):
    d = weights(raw)
    c14 = r14 * math.sqrt(d[0] * d[3]) * np.exp(1j * f14)
    c23 = r23 * math.sqrt(d[1] * d[2]) * np.exp(1j * f23)
    check_margins(x_state(d, c14, c23))


@PROPERTY
@given(raw=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4), f14=phase, f23=phase)
def test_coherences_at_the_psd_bound(raw, f14, f23):
    # Both coherence blocks singular: rank 2.
    d = weights(raw)
    c14 = math.sqrt(d[0] * d[3]) * np.exp(1j * f14)
    c23 = math.sqrt(d[1] * d[2]) * np.exp(1j * f23)
    check_margins(x_state(d, c14, c23))


@PROPERTY
@given(theta=st.floats(0.0, math.pi / 2), f=phase)
def test_pure_states_on_01_10(theta, f):
    psi = np.array([0.0, math.cos(theta), math.sin(theta) * np.exp(1j * f), 0.0])
    check_margins(np.outer(psi, psi.conj()))


@PROPERTY
@given(theta=st.floats(0.0, math.pi / 2), f=phase)
def test_pure_states_on_00_11(theta, f):
    a, b = math.cos(theta), math.sin(theta) * np.exp(1j * f)
    psi = np.array([a, 0.0, 0.0, b])
    rho = np.outer(psi, psi.conj())
    check_margins(rho)
    # -det(rho^{T_B}) in closed form: |ab|^4 (1-q)^2 under amplitude damping,
    # |ab|^4 (1-q) under phase damping, |ab|^4 (1-q/2)^3 (1-3q/2) under
    # depolarizing noise.
    ab4 = abs(a * b) ** 4
    exact = {
        "amplitude-damping": ab4 * (1 - GRID) ** 2,
        "phase-damping": ab4 * (1 - GRID),
        "depolarizing": ab4 * (1 - GRID / 2) ** 3 * (1 - 1.5 * GRID),
    }
    for family in sorted(FAMILIES):
        x, _ = both_margins(rho, family)
        np.testing.assert_allclose(x[3], exact[family], rtol=0, atol=1e-12, err_msg=family)
        assert np.all(x[3][exact[family] <= 0] <= 1e-15)
    # The printed concurrence is 2|ab| sqrt(1-q) under amplitude damping, up to
    # the Wootters error on this rank-one coherence block.
    printed = scan(validate(rho), "amplitude-damping", GRID)[:, 1]
    np.testing.assert_allclose(
        printed, 2 * abs(a * b) * np.sqrt(1 - GRID), rtol=0, atol=WOOTTERS_SINGULAR_ATOL
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_evolve_x_matches_evolve_grid(family, rng):
    for _ in range(10):
        d = rng.dirichlet(np.ones(4))
        c14 = rng.uniform() * math.sqrt(d[0] * d[3]) * np.exp(2j * math.pi * rng.uniform())
        c23 = rng.uniform() * math.sqrt(d[1] * d[2]) * np.exp(2j * math.pi * rng.uniform())
        mat = x_state(d, c14, c23)
        want = x_entries(evolve_grid(mat, family, GRID))
        got = evolve_x(np.repeat(x_entries(mat[None]), GRID.size, axis=1), family, GRID)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_x_singvals_match_the_svds(rng):
    mats = np.stack([
        x_state(d, rng.uniform() * math.sqrt(d[0] * d[3]) * 1j,
                rng.uniform() * math.sqrt(d[1] * d[2]) * np.exp(1j))
        for d in rng.dirichlet(np.ones(4), size=50)
    ])
    sv = x_singvals(x_entries(mats))
    svd = correlation_singvals_stack(mats)
    np.testing.assert_allclose(np.sort(sv, axis=-1)[:, ::-1], svd, rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        correlation_measures(sv), correlation_measures(svd), rtol=0, atol=1e-12
    )


def test_evolve_x_rejects_bad_input():
    entries = x_entries(werner(0.5).mat[None])
    with pytest.raises(ValueError, match="unknown channel"):
        evolve_x(entries, "bit-flip", np.array([0.5]))
    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(QOutOfRange):
            evolve_x(entries, "depolarizing", np.array([0.5, bad]))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_experiment_records_equal_threshold_set(family):
    records = hierarchy_experiment(SamplerConfig(n_states=50, seed=2024, channel=family, tol=TOL))
    assert len(records) == 50
    for rec in records:
        assert rec.thresholds == threshold_set(mems(rec.weights), family, TOL)


@PROPERTY
@given(raw=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       r14=st.floats(0.0, 0.99), r23=st.floats(0.0, 0.99), f14=phase, f23=phase)
def test_x_threshold_sets_bracket_like_threshold_set(raw, r14, r23, f14, f23):
    d = weights(raw)
    mats = np.stack([
        x_state(d, r14 * math.sqrt(d[0] * d[3]) * np.exp(1j * f14),
                r23 * math.sqrt(d[1] * d[2]) * np.exp(1j * f23)),
        werner(d[0]).mat,
        bell_singlet().mat,
    ])
    for family in sorted(FAMILIES):
        found = x_threshold_sets(x_entries(mats), family, TOL)
        for mat, ts in zip(mats, found):
            ref = threshold_set(validate(mat), family, TOL)
            for q, r in zip(ts.as_dict().values(), ref.as_dict().values()):
                assert (q is None) == (r is None), (family, ts, ref)
                assert q is None or type(q) is float and abs(q - r) <= 2 * TOL, (family, ts, ref)
