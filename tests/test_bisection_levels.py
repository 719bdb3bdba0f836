"""The locator's bisection, several levels per margins call, against one level per call.

``thresholds._locate`` asks its margins provider for the midpoints of the next
three bisection levels of every open bracket at once, then walks them level by
level. ``one_level_locate`` below is the loop it replaces, one level per call,
kept as the reference: both must give the same floats bit for bit, for both
providers, at every tolerance, including rows that stop on adjacent floats
(tol 1e-17) and rows that finish at different levels of one call.
"""

import numpy as np
import pytest

from qnl.channels import FAMILIES, x_entries
from qnl.sampling import SamplerConfig, _accepted_weights, _mems_entries
from qnl.states import werner
from qnl.thresholds import (
    PRESCAN_POINTS,
    Measure,
    _alive,
    _BLOCK_STATES,
    _kraus_margins,
    _locate,
    _x_margins,
)

TOLS = (1e-3, 1e-6, 1e-9, 1e-15)


def one_level_locate(margins, n: int, tol: float, steps: np.ndarray | None = None) -> np.ndarray:
    """``_locate`` with one bisection level per margins call; ``steps`` counts each row's levels."""
    rows = len(Measure)
    grid = np.linspace(0.0, 1.0, PRESCAN_POINTS)
    last = PRESCAN_POINTS - 2
    at_zero = np.empty((n, rows), dtype=bool)
    cell = np.empty((n, rows), dtype=np.intp)
    for first in range(0, n, _BLOCK_STATES):
        block = np.arange(first, min(first + _BLOCK_STATES, n))
        alive = _alive(margins, np.repeat(block, PRESCAN_POINTS), np.tile(grid, block.size))
        alive = alive.reshape(rows, block.size, PRESCAN_POINTS).swapaxes(0, 1)
        deaths = alive[..., :-1] & ~alive[..., 1:]
        at_zero[block] = alive[..., 0]
        cell[block] = np.where(deaths.any(axis=-1), deaths.argmax(axis=-1), last)
    lo = grid[cell].ravel()
    hi = np.where(cell < last, grid[cell + 1], 1.0 - tol).ravel()
    survives = at_zero & (cell == last)
    tail = np.flatnonzero(survives.any(axis=1))
    if tail.size:
        survives[tail] &= _alive(margins, tail, np.full(tail.size, 1.0 - tol)).T
    found = 0.5 * (lo + hi)
    active = np.flatnonzero(at_zero & ~survives)
    lo, hi = lo[active], hi[active]
    while active.size:
        if steps is not None:
            steps[active] += 1
        mids = 0.5 * (lo + hi)
        alive = _alive(margins, active // rows, mids)[active % rows, np.arange(active.size)]
        lo = np.where(alive, mids, lo)
        hi = np.where(alive, hi, mids)
        mids = 0.5 * (lo + hi)
        done = ~(hi - lo > tol) | (mids == lo) | (mids == hi)
        found[active[done]] = mids[done]
        active, lo, hi = active[~done], lo[~done], hi[~done]
    found = found.reshape(n, rows)
    return np.where(at_zero, np.where(survives, np.nan, found), 0.0)


def check_same(margins, n: int, tol: float) -> None:
    want = one_level_locate(margins, n, tol)
    np.testing.assert_array_equal(_locate(margins, n, tol).view(np.int64), want.view(np.int64))


def ginibre(rng: np.random.Generator, rank: int) -> np.ndarray:
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kraus_provider(family, tol):
    rng = np.random.default_rng(5)
    mats = [ginibre(rng, rank) for rank in (1, 2, 3, 4, 4)] + [werner(0.9).mat, werner(1.0).mat]
    for mat in mats:
        check_same(_kraus_margins(mat, family), 1, tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_x_provider_on_mems(family, tol):
    # The 300 MEMS above the Gisin bound of one sample-mems run.
    entries = _mems_entries(_accepted_weights(SamplerConfig(n_states=300, seed=6, channel=family)))
    check_same(_x_margins(entries, family), entries.shape[1], tol)


def linear_margins(roots: np.ndarray):
    """Margins root - q in all four rows of state k: the first death is at roots[k]."""
    def margins(states: np.ndarray, qs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(roots[states] - qs, (len(Measure), qs.size))

    return margins


def test_rows_finish_at_different_levels_of_one_call():
    # Roots in ordinary cells, in the last cell (bracketed up to 1 - tol) and
    # near 0 and 1, where adjacent floats stop rows at different depths.
    roots = np.array([1e-4, 0.0123456, 0.3, 0.5004, 0.77777, 0.9994, 0.99951, 0.999999999])
    margins = linear_margins(roots)
    for tol in TOLS + (1e-3 / 2**10, 1e-17):
        check_same(margins, roots.size, tol)
    steps = np.zeros(roots.size * len(Measure), dtype=np.intp)
    one_level_locate(margins, roots.size, 1e-3 / 2**10, steps)
    steps = steps[steps > 0]
    # Rows ending within the same call of three levels, after different levels.
    assert any(len(set(steps[(steps - 1) // 3 == k] % 3)) > 1 for k in set((steps - 1) // 3))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rows_stopping_on_adjacent_floats(family):
    # Below the float spacing at the root (1.1e-16 on [0.5, 1)), a bracket
    # stops once it is two adjacent floats, after a number of levels that
    # depends on where the root lies.
    entries = x_entries(np.stack([werner(p).mat for p in (0.4, 0.6, 0.8, 0.95, 1.0)]))
    steps = np.zeros(entries.shape[1] * len(Measure), dtype=np.intp)
    margins = _x_margins(entries, family)
    want = one_level_locate(margins, entries.shape[1], 1e-17, steps)
    got = _locate(margins, entries.shape[1], 1e-17)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert len(set(steps[steps > 0] % 3)) > 1
