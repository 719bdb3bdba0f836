"""The closed-form X-state path against the general Kraus pipeline.

``thresholds.x_threshold_sets`` evolves the six X entries (``channels.evolve_x``)
and reads the spectra in closed form (``measures.x_spectra``). Its margins are
checked against the Kraus margins on a grid for MEMS, Werner states, the
singlet, X-states with complex coherences and rank-deficient X-states, under
every channel; its thresholds against ``threshold_set``.

The Kraus pipeline takes the Wootters roots from ``psd_sqrt_stack``, which
turns an exactly zero eigenvalue computed as ~1e-17 into a square root of
~3e-9. Its concurrence is therefore only good to ~1e-8 on states whose
|00>/|11> coherence block is singular but not diagonal (pure a|00> + b|11>,
coherences at their PSD bound); there the X path is checked against the exact
curve instead.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnl.channels import FAMILIES, evolve_grid, evolve_x, x_entries
from qnl.errors import QOutOfRange
from qnl.measures import (
    concurrence_of_roots,
    correlation_singvals_stack,
    wootters_roots_stack,
    x_spectra,
)
from qnl.sampling import SamplerConfig, hierarchy_experiment
from qnl.states import MemsWeights, bell_singlet, mems, validate, werner
from qnl.thresholds import _kraus_margins, _x_margins, threshold_set, x_threshold_sets

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)
GRID = np.linspace(0.0, 1.0, 101)
TOL = 1e-6
# Concurrence of the Kraus pipeline on a singular, non-diagonal coherence block.
KRAUS_SINGULAR_C_ATOL = 1e-7

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


def check_margins(mat: np.ndarray, c_atol: float = 1e-12) -> None:
    for family in sorted(FAMILIES):
        x, kraus = both_margins(mat, family)
        np.testing.assert_allclose(x[:3], kraus[:3], rtol=0, atol=1e-12, err_msg=family)
        np.testing.assert_allclose(x[3], kraus[3], rtol=0, atol=c_atol, err_msg=family)


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
    check_margins(x_state(d, c14, c23), c_atol=KRAUS_SINGULAR_C_ATOL)


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
    check_margins(np.outer(psi, psi.conj()), c_atol=KRAUS_SINGULAR_C_ATOL)
    # The X concurrence is exact here: 2|ab| sqrt(1-q) under either damping
    # (the 01 population stays 0), 2|ab| max(0, 1 - 3q/2) under depolarizing.
    ab = abs(a * b)
    exact = {
        "amplitude-damping": 2 * ab * np.sqrt(1 - GRID),
        "phase-damping": 2 * ab * np.sqrt(1 - GRID),
        "depolarizing": 2 * ab * (1 - 1.5 * GRID),
    }
    for family in sorted(FAMILIES):
        x, _ = both_margins(np.outer(psi, psi.conj()), family)
        alive = exact[family] > 0
        np.testing.assert_allclose(x[3][alive], exact[family][alive], rtol=0, atol=1e-12)
        assert np.all(x[3][~alive] <= 1e-15)


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


def test_x_spectra_match_the_svds(rng):
    mats = np.stack([
        x_state(d, rng.uniform() * math.sqrt(d[0] * d[3]) * 1j,
                rng.uniform() * math.sqrt(d[1] * d[2]) * np.exp(1j))
        for d in rng.dirichlet(np.ones(4), size=50)
    ])
    roots, sv = x_spectra(x_entries(mats))
    np.testing.assert_allclose(sv, correlation_singvals_stack(mats), rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        concurrence_of_roots(roots), concurrence_of_roots(wootters_roots_stack(mats)),
        rtol=0, atol=1e-12,
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
