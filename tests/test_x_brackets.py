"""Root brackets of the X path against the grid pre-scan.

``thresholds._x_brackets`` gives each X-state's dead_at, the first dead
bracket point of every condition (the grid below q = 1, then the tail point
1 - tol), from the closed-form roots of its margins: it reads the real margins
only at q = 0, at the tail point and around each candidate strength. On every
row it must give what the pre-scan of every bracket point ``_prescan`` gives, on MEMS (seeded, rank three, p1 = p3), the
singlet, Werner states on and off their thresholds and X-states with complex
coherences, including coefficients that underflow. A state whose candidates
cannot be certified is read from the pre-scan instead; ``x_thresholds`` must
give the floats of ``_locate`` with the pre-scan bit for bit, with that
fallback taken for some states, for every state, or not at all.
"""

import math

import numpy as np
import pytest
from conftest import assert_same_bits, edge_x_entries, x_entries, x_parts
from hypothesis import example, given, settings, strategies as st

from qnl import thresholds
from qnl.channels import FAMILIES
from qnl.measures import GISIN_BOUND
from qnl.sampling import SamplerConfig, _accepted_weights, _mems_entries
from qnl.states import DensityMatrix, bell_singlet, werner
from qnl.thresholds import (
    _BLOCK_POINTS,
    _locate,
    _prescan,
    _unit_candidates,
    _x_brackets,
    _x_margins,
    x_thresholds,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
TOLS = (1e-3, 1e-6, 1e-9, 1e-17)
phase = st.floats(0.0, 2.0 * math.pi)


def prescan(entries: np.ndarray, family: str, tol: float) -> np.ndarray:
    """dead_at of every state from the pre-scan."""
    margins = _x_margins(x_parts(entries, family))
    return np.stack([_prescan(margins, state, tol)[0] for state in range(entries.shape[1])])


def check(entries: np.ndarray, family: str, tol: float = 1e-9) -> np.ndarray:
    """_x_brackets against _prescan on every row; returns which states were uncertain."""
    parts = x_parts(entries, family)
    dead_at, _, uncertain = _x_brackets(_x_margins(parts), parts, tol)
    np.testing.assert_array_equal(dead_at, prescan(entries, family, tol), err_msg=family)
    return uncertain


def candidates(*coef) -> tuple[set, bool]:
    t, certain = _unit_candidates(np.array(coef, dtype=float).reshape(3, 1))
    return {float(v) for v in t[:, 0] if not np.isnan(v)}, bool(certain[0])


def test_unit_candidates():
    # Roots and vertex in (0, 1] of c0 + c1 t + c2 t^2; t = 0 is q = 1, past the tail point.
    assert candidates(0.125, -0.75, 1.0) == ({0.25, 0.5, 0.375}, True)
    assert candidates(-1.0, 0.0, 1.0) == ({1.0}, True)  # its vertex at 0 is left out
    assert candidates(0.0, 0.5, -1.0) == ({0.5, 0.25}, True)  # and so is its root at 0
    assert candidates(0.25, -1.0, 1.0) == ({0.5}, True)  # a double root is its vertex
    assert candidates(0.25 + 1e-16, -1.0, 1.0) == ({0.5}, True)  # no real root, the vertex stays
    assert candidates(-0.5, 1.0, 0.0) == ({0.5}, True)  # linear
    assert candidates(2.0, -1.0, 0.0) == (set(), True)  # its root lies beyond 1
    assert candidates(1.0, 0.0, 0.0) == (set(), True)
    # A leading coefficient far below the others: the root near 1/2 and none near 1e300.
    assert candidates(-0.5, 1.0, 1e-300) == ({0.5}, True)
    assert candidates(-0.5e-300, 1e-300, 0.0) == ({0.5}, True)
    # Degenerate or not finite: no candidates, and uncertain.
    for coef in [(0.0, 0.0, 0.0), (np.nan, 1.0, 0.0), (1.0, np.inf, 1.0)]:
        assert candidates(*coef) == (set(), False)


def sorted_weights(rows: np.ndarray) -> np.ndarray:
    return -np.sort(-rows, axis=1)


def werner_entries(ps) -> np.ndarray:
    return x_entries(np.stack([werner(p).mat for p in ps]))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_seeded_mems(family):
    for seed in range(40):
        weights = _accepted_weights(SamplerConfig(n_states=30, seed=seed, channel=family))
        assert not check(_mems_entries(weights), family).any()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rank_three_mems(family):
    rng = np.random.default_rng(3)
    weights = sorted_weights(np.column_stack([rng.dirichlet(np.ones(3), 300), np.zeros(300)]))
    assert not check(_mems_entries(weights), family).any()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_mems_with_equal_p1_and_p3(family):
    # p1 = p2 = p3 >= p4, so rho23 = 0. At p4 = 0 under the damping channels
    # rho11 rho44 - |rho23|^2 is zero for every q: degenerate, so uncertain.
    p = np.linspace(0.25, 1.0 / 3.0, 21)
    uncertain = check(_mems_entries(np.column_stack([p, p, p, 1.0 - 3.0 * p])), family)
    assert not uncertain[:-1].any()
    assert uncertain[-1] == (family != "depolarizing")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_singlet_and_werner(family):
    # On the C, B and G thresholds at q = 0 (p = 1/3, 1/sqrt 2 and where F
    # meets the Gisin bound), pure (p = 1), and a sweep.
    ps = [1.0 / 3.0, 1.0 / math.sqrt(2.0), 2.0 * GISIN_BOUND - 1.0, 1.0, 0.0]
    entries = np.concatenate([x_entries(bell_singlet().mat[None]),
                              werner_entries(ps + list(np.linspace(0.0, 1.0, 201)))], axis=1)
    for tol in TOLS:
        assert not check(entries, family, tol).any()


def x_state(raw, r14, r23, f14, f23) -> np.ndarray:
    d = np.asarray(raw, dtype=float) / sum(raw)
    mat = np.diag(d.astype(complex))
    mat[0, 3] = r14 * math.sqrt(d[0] * d[3]) * np.exp(1j * f14)
    mat[1, 2] = r23 * math.sqrt(d[1] * d[2]) * np.exp(1j * f23)
    mat[3, 0], mat[2, 1] = np.conj(mat[0, 3]), np.conj(mat[1, 2])
    return DensityMatrix(mat).mat


@PROPERTY
@given(raw=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       r14=st.floats(0.0, 1.0), r23=st.floats(0.0, 1.0), f14=phase, f23=phase)
@example(raw=[0.5, 0.2, 0.2, 0.1], r14=0.9, r23=8.9e-276, f14=0.0, f23=1.0)
@example(raw=[0.5, 0.2, 0.2, 0.1], r14=8.9e-276, r23=8.9e-276, f14=2.0, f23=0.0)
def test_x_states_with_complex_coherences(raw, r14, r23, f14, f23):
    entries = x_entries(x_state(raw, r14, r23, f14, f23)[None])
    for family in sorted(FAMILIES):
        check(entries, family)


def mixed_entries(family: str) -> np.ndarray:
    """30 MEMS, a Werner sweep, the singlet and the degenerate MEMS with p = (1/3, 1/3, 1/3, 0)."""
    mems = _mems_entries(_accepted_weights(SamplerConfig(n_states=30, seed=5, channel=family)))
    third = _mems_entries(np.array([[1.0, 1.0, 1.0, 0.0]]) / 3.0)
    return np.concatenate([mems, werner_entries(np.linspace(0.0, 1.0, 21)),
                           x_entries(bell_singlet().mat[None]), third], axis=1)


def prescan_sets(entries: np.ndarray, family: str, tol: float) -> np.ndarray:
    """Critical strengths (N, 4) of _locate after the pre-scan, with no guess."""
    dead_at = prescan(entries, family, tol)
    guess = np.full(dead_at.shape, np.nan)
    return _locate(_x_margins(x_parts(entries, family)), dead_at, tol, guess)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_floats_are_the_prescans(family, tol):
    entries = mixed_entries(family)
    assert_same_bits(x_thresholds(entries, family, tol), prescan_sets(entries, family, tol))


@pytest.mark.parametrize("tol", (1e-6, 1e-9))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_floats_are_the_prescans_on_edge_states(family, tol):
    # Real states at the PSD bound, MEMS, subnormal coherences, and every fifth
    # with a subnormal rho44 (edge_x_entries).
    entries = edge_x_entries(np.random.default_rng(31), 400)
    assert (entries[3, 3::5] < np.finfo(float).tiny).all()
    assert_same_bits(x_thresholds(entries, family, tol), prescan_sets(entries, family, tol))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_located_block_by_block(monkeypatch, family):
    # _BLOCK_POINTS + 30 MEMS: no margins provider covers more than _BLOCK_POINTS
    # states, and the floats are those of the same states located one block at a time.
    cfg = SamplerConfig(n_states=_BLOCK_POINTS + 30, seed=4, channel=family)
    entries = _mems_entries(_accepted_weights(cfg))
    want = np.concatenate([x_thresholds(entries[:, k:k + _BLOCK_POINTS], family, 1e-9)
                           for k in range(0, entries.shape[1], _BLOCK_POINTS)])
    covered = []
    make = thresholds._x_margins

    def recording(parts: np.ndarray):
        covered.append(parts.shape[1])
        return make(parts)

    monkeypatch.setattr(thresholds, "_x_margins", recording)
    assert_same_bits(x_thresholds(entries, family, 1e-9), want)
    assert covered and max(covered) <= _BLOCK_POINTS


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_one_product_per_block(monkeypatch, family):
    # Each block's (A, B, C) parts are formed once, from one read of the map's
    # X block, and the margins, the quadratics and the brackets read them.
    cfg = SamplerConfig(n_states=_BLOCK_POINTS + 30, seed=4, channel=family)
    entries = _mems_entries(_accepted_weights(cfg))
    reads = []
    block = thresholds._x_block

    def counted(name: str) -> np.ndarray:
        reads.append(name)
        return block(name)

    monkeypatch.setattr(thresholds, "_x_block", counted)
    x_thresholds(entries, family, 1e-9)
    assert reads == [family, family]


def no_candidates(certain: bool):
    """A stand-in for _unit_candidates that finds no root or vertex."""
    def candidates(coef: np.ndarray):
        return np.full(coef.shape, np.nan), np.full(coef.shape[1:], certain)

    return candidates


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_forced_fallback(monkeypatch, family, tol):
    entries = mixed_entries(family)
    want = prescan_sets(entries, family, tol)
    parts = x_parts(entries, family)
    # Degenerate coefficients everywhere: every state is read from the pre-scan.
    monkeypatch.setattr(thresholds, "_unit_candidates", no_candidates(False))
    assert _x_brackets(_x_margins(parts), parts, tol)[2].all()
    assert_same_bits(x_thresholds(entries, family, tol), want)
    # No candidates: a state is uncertain where q = 0 and the tail point
    # disagree across the unread grid, and read from the pre-scan.
    monkeypatch.setattr(thresholds, "_unit_candidates", no_candidates(True))
    uncertain = _x_brackets(_x_margins(parts), parts, tol)[2]
    assert 0 < uncertain.sum() < uncertain.size
    assert_same_bits(x_thresholds(entries, family, tol), want)
