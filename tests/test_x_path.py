"""The closed-form X-state path against the general Kraus pipeline.

``thresholds.x_thresholds`` evolves the six X entries through the X block of
the family's map (``channels.affine_map``, read by ``thresholds._x_margins``)
and reads each condition from its two blocks (``thresholds._x_blocks``): the
larger of them for G, B and F, their product, det(rho^{T_B}), for C. Its
margins are checked against the Kraus margins on a grid for MEMS, Werner
states, the singlet, X-states with complex coherences and rank-deficient
X-states, under every channel; its thresholds against ``threshold_set``; and
its float order, bit for bit, against the stacked composition of
``tests/oracles.py``. The candidate quadratics (``thresholds._x_quadratics``)
are the same blocks of the coefficients in s: they equal the hand expansion
of ``oracles.x_quadratics`` bit for bit, and their values match the blocks of
the evolved entries within a few ulps. The oracle's closed form of each
family (``oracles.evolve_x``) is checked against ``evolve_grid``, and the
closed-form singular values (``oracles.x_singvals``) against the SVD. The X
G, B and F rows are checked against the spectra (``_curves``) in the blocks'
units, 6(F - F_lhv), (B/2)^2 - 1 and 6(F - 2/3), at 1e-12 scaled to them, and
the Kraus rows, which carry only the signs of those margins
(``invariant_sign_margins``), must read the same alive bits wherever the X
margin is clear of rounding.

Neither provider takes a square root of the state, so the concurrence rows
agree to 1e-12, rank-deficient states included. The printed concurrence of
``scan`` still comes from the Wootters roots of ``psd_sqrt_stack``, which turns
an exactly zero eigenvalue computed as ~1e-17 into a square root of ~3e-9; on
pure a|00> + b|11> states it is pinned to the exact curve at 1e-7.
"""

import math

import numpy as np
import pytest
from conftest import assert_same_bits, edge_x_entries, x_entries, x_parts
from hypothesis import given, settings, strategies as st
from oracles import evolve_x, x_margins, x_quadratics, x_singvals

from qnl.channels import FAMILIES, evolve_grid
from qnl.errors import NotPSD, QOutOfRange, TraceNotOne
from qnl.measures import GISIN_BOUND, correlation_measures, correlation_singvals_stack
from qnl.sampling import SamplerConfig, hierarchy_experiment
from qnl.states import DensityMatrix, MemsWeights, bell_singlet, mems, werner
from qnl.thresholds import (
    _BELOW_ONE,
    _IN_S,
    ThresholdSet,
    _curves,
    _kraus_margins,
    _x_blocks,
    _x_margins,
    _x_quadratics,
    scan,
    threshold_set,
    x_thresholds,
)

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)
GRID = np.linspace(0.0, 1.0, 101)
TOL = 1e-6
# Printed (Wootters) concurrence on a singular, non-diagonal coherence block.
WOOTTERS_SINGULAR_ATOL = 1e-7
# Agreement of the X rows with the spectra: 1e-12 on F - F_lhv, B - 2, F - 2/3
# and det(rho^{T_B}), scaled to the units of the X rows, 6(F - F_lhv),
# (B/2)^2 - 1 (whose slope in B is B/2 <= sqrt(2)), 6(F - 2/3) and det(rho^{T_B}).
MARGIN_ATOL = 1e-12 * np.array([6.0, math.sqrt(2.0), 6.0, 1.0])

unit = st.floats(0.0, 1.0)
phase = st.floats(0.0, 2.0 * math.pi)


def x_state(diag, c14=0.0, c23=0.0) -> np.ndarray:
    mat = np.diag(np.asarray(diag, dtype=complex))
    mat[0, 3], mat[3, 0] = c14, np.conj(c14)
    mat[1, 2], mat[2, 1] = c23, np.conj(c23)
    return DensityMatrix(mat).mat


def both_margins(mat: np.ndarray, family: str) -> tuple[np.ndarray, np.ndarray]:
    states = np.zeros(GRID.size, dtype=np.intp)
    x = _x_margins(x_parts(x_entries(mat[None]), family))(states, GRID)
    kraus = _kraus_margins(mat, family)(states, GRID)
    return x, kraus


def check_margins(mat: np.ndarray) -> None:
    for family in sorted(FAMILIES):
        x, kraus = both_margins(mat, family)
        _, f, b = _curves(evolve_grid(mat, family, GRID))
        spectra = (6.0 * (f - GISIN_BOUND), (0.5 * b) ** 2 - 1.0, 6.0 * (f - 2.0 / 3.0), kraus[3])
        for row, want, atol in zip(x, spectra, MARGIN_ATOL):
            np.testing.assert_allclose(row, want, rtol=0, atol=atol, err_msg=family)
        # The Kraus G, B and F rows carry signs only.
        clear = np.abs(x) > MARGIN_ATOL[:, None]
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
    printed = scan(DensityMatrix(rho), "amplitude-damping", GRID)[:, 1]
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
    np.testing.assert_allclose(np.sort(np.transpose(sv), axis=-1)[:, ::-1], svd, rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        correlation_measures(sv), correlation_measures(svd.T), rtol=0, atol=1e-12
    )


def test_evolve_x_rejects_bad_input():
    entries = x_entries(werner(0.5).mat[None])
    with pytest.raises(ValueError, match="unknown channel"):
        evolve_x(entries, "bit-flip", np.array([0.5]))
    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(QOutOfRange):
            evolve_x(entries, "depolarizing", np.array([0.5, bad]))


def test_x_thresholds_rejects_unknown_family():
    # The canonical message, as threshold_set gives it on the Kraus path, with
    # states to locate or none.
    for entries in (x_entries(werner(0.5).mat[None]), np.empty((6, 0))):
        with pytest.raises(ValueError, match="unknown channel family 'bit-flip'"):
            x_thresholds(entries, "bit-flip", 1e-6)


def entries_of(*columns) -> np.ndarray:
    """X entries (6, N) of columns (rho11, rho22, rho33, rho44, |rho14|, |rho23|)."""
    return np.array(columns, dtype=float).T


WERNER_COLUMN = x_entries(werner(0.5).mat[None])[:, 0]


def test_x_thresholds_rejects_entries_that_are_not_finite():
    for bad in (np.nan, np.inf, -np.inf):
        entries = np.full((6, 2), bad)
        with pytest.raises(ValueError, match="finite"):
            x_thresholds(entries, "depolarizing", 1e-6)
        # The family is checked first.
        with pytest.raises(ValueError, match="unknown channel family"):
            x_thresholds(entries, "bit-flip", 1e-6)
    entries = np.stack([WERNER_COLUMN, WERNER_COLUMN], axis=1)
    entries[4, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        x_thresholds(entries, "amplitude-damping", 1e-6)


def test_x_thresholds_rejects_entries_of_another_shape_or_kind():
    for shape in ((5, 2), (7, 2), (6,), (6, 1, 1), ()):
        with pytest.raises(ValueError, match=r"real X entries of shape \(6, N\)"):
            x_thresholds(np.full(shape, 0.25), "phase-damping", 1e-6)
    # Complex coherences, and arrays that hold no numbers.
    for entries in (WERNER_COLUMN[:, None] + 0j, WERNER_COLUMN[:, None].astype(object),
                    np.full((6, 1), "0.25")):
        with pytest.raises(ValueError, match="real X entries"):
            x_thresholds(entries, "phase-damping", 1e-6)
    # Lists and integer arrays are entries too.
    entries = [[1], [0], [0], [0], [0], [0]]
    assert_same_bits(x_thresholds(entries, "phase-damping", 1e-6),
                     x_thresholds(np.array(entries, dtype=float), "phase-damping", 1e-6))
    assert_same_bits(x_thresholds(np.array(entries), "phase-damping", 1e-6),
                     x_thresholds(np.array(entries, dtype=float), "phase-damping", 1e-6))


def test_x_thresholds_rejects_a_trace_away_from_one():
    entries = np.stack([WERNER_COLUMN] * 3, axis=1)
    entries[0, 1] += 2e-10
    with pytest.raises(TraceNotOne):
        x_thresholds(entries, "depolarizing", 1e-6)
    # Within TRACE_TOL, as DensityMatrix accepts it.
    entries[0, 1] -= 1.5e-10
    assert x_thresholds(entries, "depolarizing", 1e-6).shape == (3, 4)


def test_x_thresholds_rejects_a_negative_modulus():
    for row in (4, 5):
        entries = np.stack([WERNER_COLUMN] * 2, axis=1)
        entries[row, 0] = -1e-300
        with pytest.raises(NotPSD, match="modulus"):
            x_thresholds(entries, "amplitude-damping", 1e-6)


def test_x_thresholds_rejects_a_negative_eigenvalue():
    # The example of a trace-one X "state" with rho44 = -1 and |rho14| = 3.
    with pytest.raises(NotPSD, match="minimum eigenvalue"):
        x_thresholds(entries_of((2, 0, 0, -1, 3, 0)), "depolarizing", 1e-6)
    # Each 2x2 block, just past -PSD_TOL and just inside it, against DensityMatrix.
    for excess, raises in ((2e-10, True), (5e-11, False)):
        for c14, c23 in ((0.25 + excess, 0.0), (0.0, 0.25 + excess)):
            mat = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
            mat[0, 3] = mat[3, 0] = c14
            mat[1, 2] = mat[2, 1] = c23
            entries = entries_of((0.25, 0.25, 0.25, 0.25, c14, c23))
            if raises:
                with pytest.raises(NotPSD):
                    DensityMatrix(mat)
                with pytest.raises(NotPSD):
                    x_thresholds(entries, "phase-damping", 1e-6)
            else:
                DensityMatrix(mat)
                assert x_thresholds(entries, "phase-damping", 1e-6).shape == (1, 4)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_x_margins_keep_their_float_order(family, rng):
    # Bit for bit the stacked composition of tests/oracles.py, on random X
    # entries (edge_x_entries), at strengths from 0 to 1 in any order.
    n = 3000
    entries = edge_x_entries(rng, n)
    qs = np.concatenate([[0.0, 1.0, _BELOW_ONE], rng.uniform(size=n - 3)])
    states = rng.permutation(n)
    assert_same_bits(_x_margins(x_parts(entries, family))(states, qs),
                     x_margins(entries[:, states], family, qs))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_x_quadratics_equal_the_hand_expansion(family, rng):
    # The blocks of the coefficients in s are the hand-expanded coefficients,
    # bit for bit, on random X entries (edge_x_entries) and on MEMS.
    entries = np.hstack([edge_x_entries(rng, 10_000), x_entries(np.stack(
        [mems(MemsWeights(*w)).mat for w in np.sort(rng.dirichlet(np.ones(4), 50))[:, ::-1]]))])
    assert_same_bits(_x_quadratics(x_parts(entries, family)), x_quadratics(entries, family))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_x_quadratics_are_the_blocks_of_the_evolved_entries(family, rng):
    # Each quadratic at t = sqrt(1-q) (G, F) or t = 1 - q (B, C) is the block
    # of the entries that _x_margins evolves to q, within a few ulps: every
    # entry is at most 1, so every term of a block is at most a few units.
    n = 3000
    entries = edge_x_entries(rng, n)
    qs = np.concatenate([[0.0, 1.0, _BELOW_ONE], rng.uniform(size=n - 3)])
    parts = x_parts(entries, family)
    a, b, c = parts.reshape(3, 6, n)
    blocks = _x_blocks((a + qs * b) + np.sqrt(1.0 - qs) * c, np.multiply, 1.0)
    quad = _x_quadratics(parts)
    t = np.where(_IN_S, np.sqrt(1.0 - qs), 1.0 - qs)
    values = quad[0] + quad[1] * t + quad[2] * (t * t)
    assert np.all(np.abs(values - blocks) <= 8.0 * np.finfo(float).eps * (1.0 + np.abs(blocks)))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_experiment_records_equal_threshold_set(family):
    result = hierarchy_experiment(SamplerConfig(n_states=50, seed=2024, channel=family, tol=TOL))
    assert len(result) == 50
    for weights, found in zip(result.weights.tolist(), result.thresholds.tolist()):
        got = ThresholdSet(*(None if math.isnan(q) else q for q in found))
        assert got == threshold_set(mems(MemsWeights(*weights)), family, TOL)


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
        found = x_thresholds(x_entries(mats), family, TOL)
        assert found.dtype == np.float64 and found.shape == (len(mats), 4)
        for mat, row in zip(mats, found.tolist()):
            ref = threshold_set(DensityMatrix(mat), family, TOL)
            for q, r in zip(row, ref.as_dict().values()):
                assert math.isnan(q) == (r is None), (family, row, ref)
                assert math.isnan(q) or abs(q - r) <= 2 * TOL, (family, row, ref)
