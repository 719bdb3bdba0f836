"""The locator's bisection, several levels per margins call, against one level per call.

``thresholds._locate`` asks its margins provider for the midpoints of the next
L bisection levels of every open bracket at once, then walks them level by
level. L depends on how many brackets are open (``levels_per_call``), from
three for hundreds of brackets to nine for one. ``one_level_locate`` below is
the loop it replaces, one level per call, kept as the reference: both must give
the same floats bit for bit, for both providers, at every tolerance and for
every L, including rows that stop on adjacent floats (tol 1e-17) and rows that
finish at different levels of one call. The number of provider calls is
pinned as well.
"""

import math

import numpy as np
import pytest

from qnl.channels import FAMILIES, x_entries
from qnl.sampling import SamplerConfig, _accepted_weights, _mems_entries
from qnl.states import DensityMatrix, werner
from qnl import thresholds
from qnl.thresholds import (
    PRESCAN_POINTS,
    Measure,
    _alive,
    _BELOW_ONE,
    _BLOCK_POINTS,
    _SURVIVES,
    _kraus_margins,
    _locate,
    _prescan,
    _x_margins,
)

TOLS = (1e-3, 1e-6, 1e-9, 1e-15)
# States per x_threshold_sets call: between them, every level count from 3 to 9.
STATE_COUNTS = (1, 2, 5, 30, 300)


def levels_per_call(open_rows: int) -> int:
    """Bisection levels of a call with this many open brackets: about one pre-scan of points."""
    return max(3, int(math.log2(PRESCAN_POINTS // open_rows + 1)))


def calls_of(steps: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """(open brackets, levels, levels at which rows end) of each bisection call of _locate.

    ``steps`` counts the levels of each row in ``one_level_locate``; rows with
    none were never bisected.
    """
    steps = steps[steps > 0]
    done, calls = 0, []
    while np.any(steps > done):
        open_rows = steps > done
        levels = levels_per_call(int(open_rows.sum()))
        calls.append((int(open_rows.sum()), levels, steps[open_rows & (steps <= done + levels)]))
        done += levels
    return calls


def one_level_locate(margins, n: int, tol: float, steps: np.ndarray | None = None) -> np.ndarray:
    """``_locate`` with one bisection level per margins call; ``steps`` counts each row's levels."""
    rows = len(Measure)
    grid = np.linspace(0.0, 1.0, PRESCAN_POINTS)
    last = PRESCAN_POINTS - 2
    at_zero = np.empty((n, rows), dtype=bool)
    cell = np.empty((n, rows), dtype=np.intp)
    for first in range(0, n, 4):
        block = np.arange(first, min(first + 4, n))
        alive = _alive(margins, np.repeat(block, PRESCAN_POINTS), np.tile(grid, block.size))
        alive = alive.reshape(rows, block.size, PRESCAN_POINTS).swapaxes(0, 1)
        deaths = alive[..., :-1] & ~alive[..., 1:]
        at_zero[block] = alive[..., 0]
        cell[block] = np.where(deaths.any(axis=-1), deaths.argmax(axis=-1), last)
    # The last point never reaches 1, also where 1 - tol rounds to it.
    tail_q = min(1.0 - tol, _BELOW_ONE)
    lo = grid[cell].ravel()
    hi = np.where(cell < last, grid[cell + 1], tail_q).ravel()
    survives = at_zero & (cell == last)
    tail = np.flatnonzero(survives.any(axis=1))
    if tail.size:
        survives[tail] &= _alive(margins, tail, np.full(tail.size, tail_q)).T
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


def recording(margins, sizes: list, of=np.size):
    """``margins`` that logs ``of(qs)`` of each call to ``sizes``."""
    def wrapped(states: np.ndarray, qs: np.ndarray) -> np.ndarray:
        sizes.append(of(qs))
        return margins(states, qs)

    return wrapped


def check_same(margins, n: int, tol: float) -> np.ndarray:
    """_locate against one_level_locate bit for bit; returns each row's levels.

    Each bisection call of _locate must ask for (2^L - 1) midpoints of each
    open bracket, L = levels_per_call(open brackets), in calls of at most
    _BLOCK_POINTS points.
    """
    steps = np.zeros(n * len(Measure), dtype=np.intp)
    want = one_level_locate(margins, n, tol, steps)
    sizes = []
    recorded = recording(margins, sizes)
    dead_at = np.stack([_prescan(recorded, state, tol) for state in range(n)])
    got = _locate(recorded, dead_at, tol)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    bisection = []
    for open_rows, levels, _ in calls_of(steps):
        points = open_rows * (2**levels - 1)
        bisection += [min(_BLOCK_POINTS, points - k) for k in range(0, points, _BLOCK_POINTS)]
    assert sizes[len(sizes) - len(bisection):] == bisection
    return steps


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


def mems_entries(n: int, family: str) -> np.ndarray:
    """X entries of the first n of the 300 MEMS above the Gisin bound of one sample-mems run."""
    weights = _accepted_weights(SamplerConfig(n_states=300, seed=6, channel=family))
    return _mems_entries(weights)[:, :n]


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_x_provider_on_mems(family, tol):
    check_same(_x_margins(mems_entries(300, family), family), 300, tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", STATE_COUNTS[:-1])
def test_x_provider_on_fewer_mems(n, family, tol):
    check_same(_x_margins(mems_entries(n, family), family), n, tol)


def row_margins(roots: np.ndarray):
    """Margins roots[k, r] - q in row r of state k: each row dies at its own root."""
    def margins(states: np.ndarray, qs: np.ndarray) -> np.ndarray:
        return roots[states].T - qs

    return margins


def random_roots(n: int) -> np.ndarray:
    # About half the rows are dead at q = 0 and a tenth survive all noise, so
    # the open brackets of n states number about 2n.
    return np.random.default_rng(n).uniform(-1.0, 1.2, (n, len(Measure)))


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("n", STATE_COUNTS)
def test_rows_with_their_own_roots(n, tol):
    check_same(row_margins(random_roots(n)), n, tol)


def test_every_level_count_is_exercised():
    providers = [(row_margins(random_roots(n)), n) for n in STATE_COUNTS]
    providers += [(_x_margins(mems_entries(n, family), family), n)
                  for n in STATE_COUNTS for family in sorted(FAMILIES)]
    levels = set()
    for margins, n in providers:
        levels.update(call[1] for call in calls_of(check_same(margins, n, 1e-9)))
    assert levels == set(range(3, 10))


def test_rows_finish_at_different_levels_of_one_call():
    # Roots in ordinary cells, in the last cell (bracketed up to 1 - tol) and
    # near 0 and 1, where adjacent floats stop rows at different depths.
    roots = np.array([1e-4, 0.0123456, 0.3, 0.5004, 0.77777, 0.9994, 0.99951, 0.999999999])
    margins = row_margins(np.repeat(roots[:, None], len(Measure), axis=1))
    for tol in TOLS + (1e-3 / 2**10, 1e-17):
        check_same(margins, roots.size, tol)
    steps = check_same(margins, roots.size, 1e-3 / 2**12)
    # Rows ending within the same call, after different levels.
    assert any(len(set(ends.tolist())) > 1 for _, _, ends in calls_of(steps))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rows_stopping_on_adjacent_floats(family):
    # Below the float spacing at the root (1.1e-16 on [0.5, 1)), a bracket
    # stops once it is two adjacent floats, after a number of levels that
    # depends on where the root lies.
    entries = x_entries(np.stack([werner(p).mat for p in (0.4, 0.6, 0.8, 0.95, 1.0)]))
    steps = check_same(_x_margins(entries, family), entries.shape[1], 1e-17)
    assert any(len(set(ends.tolist())) > 1 for _, _, ends in calls_of(steps))


def counted_calls(monkeypatch, provider: str, of=np.size) -> list:
    """``of(qs)`` (the size) of the margins calls made through thresholds.<provider> from now on."""
    sizes = []
    make = getattr(thresholds, provider)
    monkeypatch.setattr(thresholds, provider, lambda *args: recording(make(*args), sizes, of))
    return sizes


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_threshold_set_calls(monkeypatch, family):
    # One pre-scan of every bracket point and q = 1, then at most three
    # bisection calls: 20 levels narrow a pre-scan cell to 1e-9, and one
    # state's four rows take at least seven levels a call. No 1-point call.
    rng = np.random.default_rng(12)
    mats = [ginibre(rng, rank) for rank in (1, 2, 3, 4, 4, 4)] + [werner(0.9).mat]
    calls = counted_calls(monkeypatch, "_kraus_margins", np.copy)
    for mat in mats:
        calls.clear()
        thresholds.threshold_set(DensityMatrix(mat), family, 1e-9)
        assert calls[0].size == PRESCAN_POINTS + 1
        assert calls[0][-2:].tolist() == [min(1.0 - 1e-9, _BELOW_ONE), 1.0]
        assert all(qs.size >= 7 for qs in calls[1:])
        assert len(calls) - 1 <= 3


# Margins calls of x_threshold_sets on the 30 MEMS of one sample-mems run at
# tol 1e-6 with three bisection levels per call: one call reads the points
# around the roots and the rest bisect.
MEMS_CALLS = 5


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_x_threshold_sets_calls(monkeypatch, family, seed):
    entries = _mems_entries(_accepted_weights(SamplerConfig(n_states=30, seed=seed, channel=family)))
    sizes = counted_calls(monkeypatch, "_x_margins")
    thresholds.x_threshold_sets(entries, family, 1e-6)
    assert len(sizes) <= MEMS_CALLS


@pytest.mark.parametrize("tol", TOLS[1:] + (1e-17,))
def test_locate_bisects_only(tol):
    # Rows dead at q = 0 or alive at every bracket point take no margins call;
    # a row dead first at the tail point is bisected strictly inside
    # (0.999, tail point). At tol 1e-3 the tail point is 0.999 itself.
    tail_q = min(1.0 - tol, _BELOW_ONE)
    calls = []

    def margins(states: np.ndarray, qs: np.ndarray) -> np.ndarray:
        calls.append(qs.copy())
        return np.broadcast_to(0.9995 - qs, (len(Measure), qs.size))

    ends = np.array([[0, _SURVIVES, _SURVIVES, 0], [_SURVIVES, 0, 0, _SURVIVES]])
    got = _locate(margins, ends, tol)
    np.testing.assert_array_equal(got, [[0.0, np.nan, np.nan, 0.0], [np.nan, 0.0, 0.0, np.nan]])
    assert calls == []
    found = _locate(margins, np.full((1, len(Measure)), PRESCAN_POINTS - 1), tol)
    assert calls and all(((qs > 0.999) & (qs < tail_q)).all() for qs in calls)
    np.testing.assert_allclose(found, 0.9995, atol=tol)


@pytest.mark.parametrize("tol", TOLS + (1e-17,))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_no_call_after_the_prescan_reaches_one(monkeypatch, family, tol):
    # Every bracket ends at the tail point 1 - tol, or at the float below 1
    # where 1 - tol rounds to 1; only the Kraus pre-scan reads q = 1, after
    # the tail point. The X path reads no point above the tail point.
    tail_q = min(1.0 - tol, _BELOW_ONE)
    kraus = counted_calls(monkeypatch, "_kraus_margins", np.max)
    for p in (0.4, 0.9, 1.0):
        kraus.clear()
        thresholds.threshold_set(werner(p), family, tol)
        assert kraus[0] == 1.0
        assert max(kraus[1:], default=0.0) <= tail_q
    x = counted_calls(monkeypatch, "_x_margins", np.max)
    thresholds.x_threshold_sets(mems_entries(30, family), family, tol)
    assert max(x) <= tail_q
