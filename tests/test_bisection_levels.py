"""The locator's bisection, guess and verify then several levels per call, against one level per call.

``thresholds._locate`` first walks each row's bisection toward its guess and
reads every predicted midpoint of every row in one margins call (``_replay``);
a row whose first observed bit differs from its prediction resumes from its
exact bracket. The open rows are then bisected in lockstep: each call asks for
the midpoints of the next L levels of every open bracket at once, then walks
them level by level. L depends on how many brackets are open
(``levels_per_call``), from three for hundreds of brackets to nine for one.
``one_level_locate`` below is the loop both replace, one level per call, kept
as the reference: they must give the same floats bit for bit, for both
providers, at every tolerance, for every L and for any guess (NaN, inf, the
bracket ends, points inside and outside it, the root and its neighbours),
including rows that stop on adjacent floats (tol 1e-17) and rows that finish
at different levels of one call. The points of every margins call are pinned
as well: the verify call reads each guessed row's predicted path up to its
done level, and the lockstep calls only the rows that resumed or had no guess.
``_replay`` steps a few walked rows in Python floats and many in arrays; the
cases run on each path, the two paths are compared directly, and each
benchmark workload's locator is pinned to its path.
"""

import math

import numpy as np
import pytest
from conftest import assert_same_bits, ginibre, x_entries, x_parts
from hypothesis import given, settings, strategies as st

from qnl.channels import FAMILIES
from qnl.sampling import SamplerConfig, _accepted_weights, _mems_entries
from qnl.states import DensityMatrix, werner
from qnl import thresholds
from qnl.thresholds import (
    PRESCAN_POINTS,
    Measure,
    _alive,
    _BELOW_ONE,
    _BLOCK_POINTS,
    _GRID,
    _SURVIVES,
    _ends,
    _kraus_margins,
    _locate,
    _prescan,
    _x_block,
    _x_brackets,
    _x_margins,
    x_thresholds,
)

TOLS = (1e-3, 1e-6, 1e-9, 1e-15)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# States per x_thresholds call: between them, every level count from 3 to 9.
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


def one_level_locate(margins, n: int, tol: float, steps: np.ndarray | None = None,
                     bits: list | None = None) -> np.ndarray:
    """``_locate`` with one bisection level per margins call.

    ``steps`` counts each row's levels, and ``bits[row]`` lists the alive bit
    each level read.
    """
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
        if bits is not None:
            for row, bit in zip(active.tolist(), alive.tolist()):
                bits[row].append(bit)
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


def walk_levels(widths: np.ndarray, tol: float) -> int:
    """Levels of ``_replay``'s walk: what the widest bracket needs at tol, plus one, at most 64."""
    return min(64, math.ceil(math.log2(max(widths.max(), tol)) - math.log2(tol)) + 1)


def predicted_bits(lo: float, hi: float, guess: float, tol: float, levels: int) -> list:
    """Alive bits of one bisection toward ``guess``: alive below it, up to the done level."""
    bits = []
    while len(bits) < levels:
        mid = 0.5 * (lo + hi)
        bits.append(mid < guess)
        lo, hi = (mid, hi) if bits[-1] else (lo, mid)
        mid = 0.5 * (lo + hi)
        if not hi - lo > tol or mid in (lo, hi):
            break
    return bits


def guessed_sizes(dead_at: np.ndarray, guess: np.ndarray, tol: float,
                  steps: np.ndarray, bits: list) -> tuple[list, np.ndarray]:
    """(verify call sizes, lockstep levels of each row) of ``_locate`` with ``guess``.

    A row whose guess lies in its bracket reads its predicted path; it then
    needs the levels of ``one_level_locate`` that follow its first mismatch,
    or its whole path if it matched, and a row without a guess all of them.
    """
    ends = _ends(tol)
    rows = np.flatnonzero((dead_at.ravel() > 0) & (dead_at.ravel() < _SURVIVES))
    lo, hi = ends[dead_at.ravel()[rows] - 1], ends[dead_at.ravel()[rows]]
    guessed = (guess.ravel()[rows] >= lo) & (guess.ravel()[rows] <= hi)
    if not guessed.any():
        return [], steps
    levels = walk_levels((hi - lo)[guessed], tol)
    left, points = steps.copy(), 0
    for row, a, b in zip(rows[guessed].tolist(), lo[guessed].tolist(), hi[guessed].tolist()):
        path = predicted_bits(a, b, float(guess.ravel()[row]), tol, levels)
        points += len(path)
        matched = [p == o for p, o in zip(path, bits[row])]
        left[row] -= len(path) if all(matched) else matched.index(False) + 1
    return [min(_BLOCK_POINTS, points - k) for k in range(0, points, _BLOCK_POINTS)], left


def no_guess(n: int) -> np.ndarray:
    """A guess (n, 4) that predicts no row: the lockstep bisection alone."""
    return np.full((n, len(Measure)), np.nan)


def check_same(margins, n: int, tol: float, guess: np.ndarray | None = None) -> np.ndarray:
    """_locate, given ``guess`` (n, 4) or none, against one_level_locate bit for bit; returns each row's levels.

    After the pre-scan, _locate must make the verify call of ``guessed_sizes``
    if any row has a guess in its bracket, and then lockstep calls that ask
    for (2^L - 1) midpoints of each open bracket, L = levels_per_call(open
    brackets), in calls of at most _BLOCK_POINTS points.
    """
    steps = np.zeros(n * len(Measure), dtype=np.intp)
    bits = [[] for _ in steps]
    want = one_level_locate(margins, n, tol, steps, bits)
    sizes = []
    recorded = recording(margins, sizes)
    dead_at = np.stack([_prescan(recorded, state, tol)[0] for state in range(n)])
    guess = no_guess(n) if guess is None else guess
    got = _locate(recorded, dead_at, tol, guess)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    bisection, left = guessed_sizes(dead_at, guess, tol, steps, bits)
    for open_rows, levels, _ in calls_of(left):
        points = open_rows * (2**levels - 1)
        bisection += [min(_BLOCK_POINTS, points - k) for k in range(0, points, _BLOCK_POINTS)]
    assert sizes[len(sizes) - len(bisection):] == bisection
    return steps


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kraus_provider(family, tol):
    # With no guesses, and with the pre-scan's own (threshold_set's).
    rng = np.random.default_rng(5)
    mats = [ginibre(rng, rank) for rank in (1, 2, 3, 4, 4)] + [werner(0.9).mat, werner(1.0).mat]
    for mat in mats:
        margins = _kraus_margins(mat, family)
        check_same(margins, 1, tol)
        check_same(margins, 1, tol, _prescan(margins, 0, tol)[1][None])


def mems_entries(n: int, family: str) -> np.ndarray:
    """X entries of the first n of the 300 MEMS above the Gisin bound of one sample-mems run."""
    weights = _accepted_weights(SamplerConfig(n_states=300, seed=6, channel=family))
    return _mems_entries(weights)[:, :n]


def check_x(entries: np.ndarray, family: str, tol: float) -> np.ndarray:
    """check_same of the X provider with the guesses of ``_x_brackets``, then with none."""
    parts = x_parts(entries, family)
    margins = _x_margins(parts)
    check_same(margins, entries.shape[1], tol, _x_brackets(margins, parts, tol)[1])
    return check_same(margins, entries.shape[1], tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_x_provider_on_mems(family, tol):
    check_x(mems_entries(300, family), family, tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", STATE_COUNTS[:-1])
def test_x_provider_on_fewer_mems(n, family, tol):
    check_x(mems_entries(n, family), family, tol)


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
    # With no guesses, and with the roots as guesses.
    roots = random_roots(n)
    check_same(row_margins(roots), n, tol)
    check_same(row_margins(roots), n, tol, roots)


@pytest.mark.parametrize("tol", TOLS[1:] + (1e-17,))
def test_resumed_rows(tol):
    # Guesses at the bracket's low end predict every midpoint dead, so each
    # row resumes at its first alive midpoint; guesses a quarter of a cell
    # off resume a few levels in. The lockstep loop takes them from there
    # (at tol 1e-3 a row is done after its one level).
    roots = random_roots(30)
    margins = row_margins(roots)
    dead_at = np.stack([_prescan(margins, state, tol)[0] for state in range(30)])
    ends = _ends(tol)
    low = ends[np.clip(dead_at - 1, 0, PRESCAN_POINTS - 1)]
    for guess in (low, roots + 2.5e-4, roots - 2.5e-4):
        check_same(margins, 30, tol, guess)
        sizes = []
        _locate(recording(margins, sizes), dead_at, tol, guess)
        assert len(sizes) > 1


def test_every_level_count_is_exercised():
    providers = [(row_margins(random_roots(n)), n) for n in STATE_COUNTS]
    providers += [(_x_margins(x_parts(mems_entries(n, family), family)), n)
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
        check_same(margins, roots.size, tol, np.repeat(roots[:, None], len(Measure), axis=1))
    steps = check_same(margins, roots.size, 1e-3 / 2**12)
    # Rows ending within the same call, after different levels.
    assert any(len(set(ends.tolist())) > 1 for _, _, ends in calls_of(steps))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rows_stopping_on_adjacent_floats(family):
    # Below the float spacing at the root (1.1e-16 on [0.5, 1)), a bracket
    # stops once it is two adjacent floats, after a number of levels that
    # depends on where the root lies.
    entries = x_entries(np.stack([werner(p).mat for p in (0.4, 0.6, 0.8, 0.95, 1.0)]))
    steps = check_x(entries, family, 1e-17)
    assert any(len(set(ends.tolist())) > 1 for _, _, ends in calls_of(steps))


GUESSES = ("nan", "inf", "-inf", "lo", "hi", "inside", "outside", "root", "above root",
           "below root")


def adversarial_guess(kinds: list, fractions: list, dead_at: np.ndarray, found: np.ndarray,
                      tol: float) -> np.ndarray:
    """A guess (n, 4) of one kind of GUESSES per row, ``found`` the located roots.

    "inside" and "outside" lie a fraction of the bracket above its low end and
    below it; "above root" and "below root" are one ulp from the root. A row
    with no bracket takes (0, 1) as its bracket and 0.5 as its root.
    """
    ends = _ends(tol)
    bracketed = (dead_at > 0) & (dead_at < _SURVIVES)
    lo = np.where(bracketed, ends[np.clip(dead_at - 1, 0, PRESCAN_POINTS - 1)], 0.0).ravel()
    hi = np.where(bracketed, ends[np.minimum(dead_at, PRESCAN_POINTS - 1)], 1.0).ravel()
    root = np.where(bracketed, found, 0.5).ravel()
    width = hi - lo
    table = {
        "nan": np.full(lo.size, np.nan), "inf": np.full(lo.size, np.inf),
        "-inf": np.full(lo.size, -np.inf), "lo": lo, "hi": hi,
        "inside": lo + np.array(fractions) * width, "outside": lo - (np.array(fractions) + 1e-9) * width,
        "root": root, "above root": np.nextafter(root, np.inf),
        "below root": np.nextafter(root, -np.inf),
    }
    return np.array([table[kind][row] for row, kind in enumerate(kinds)]).reshape(dead_at.shape)


@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**16), family=st.sampled_from(sorted(FAMILIES)),
       tol=st.sampled_from(TOLS[:3] + (1e-12, 1e-15, 1e-17)), fallback=st.booleans())
def test_floats_do_not_depend_on_the_guess(data, seed, family, tol, fallback):
    # One Ginibre state on the Kraus provider and five MEMS on the X provider,
    # each row with a guess of any kind: the floats and the calls are those
    # check_same expects. With ``fallback``, every X state is pre-scanned by
    # x_thresholds, whose guesses then come from _cubic_root.
    rng = np.random.default_rng(seed)
    entries = mems_entries(5 + seed % 295, family)[:, -5:]
    cases = [(_kraus_margins(ginibre(rng, 1 + seed % 4), family), 1),
             (_x_margins(x_parts(entries, family)), entries.shape[1])]
    for margins, n in cases:
        want = one_level_locate(margins, n, tol)
        dead_at = np.stack([_prescan(margins, state, tol)[0] for state in range(n)])
        rows = n * len(Measure)
        kinds = data.draw(st.lists(st.sampled_from(GUESSES), min_size=rows, max_size=rows))
        fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows))
        check_same(margins, n, tol, adversarial_guess(kinds, fractions, dead_at, want, tol))
    with pytest.MonkeyPatch.context() as patch:
        if fallback:
            patch.setattr(thresholds, "_unit_candidates", lambda coef: (
                np.full(coef.shape, np.nan), np.zeros(coef.shape[1:], dtype=bool)))
            parts = x_parts(entries, family)
            assert _x_brackets(_x_margins(parts), parts, tol)[2].all()
        assert_same_bits(x_thresholds(entries, family, tol), want)


def counted_calls(monkeypatch, provider: str, of=np.size) -> list:
    """``of(qs)`` (the size) of the margins calls made through thresholds.<provider> from now on."""
    sizes = []
    make = getattr(thresholds, provider)
    monkeypatch.setattr(thresholds, provider, lambda *args: recording(make(*args), sizes, of))
    return sizes


# Sizes of the margins calls of threshold_set after its pre-scan, at tol 1e-9,
# on the seven states of test_threshold_set_calls. The verify call reads 20
# levels of each open row (a grid cell of 1e-3 narrowed to 1e-9); a row whose
# guess fails resumes alone in lockstep, nine levels (511 points) a call. The
# rank-one state (the first) has a B row that resumes under depolarizing and
# phase damping: its margin bends at the root on both sides.
SET_CALLS = {
    "amplitude-damping": [[60], [], [20], [20], [], [40], [60]],
    "depolarizing": [[80, 511, 511], [20], [40], [40], [], [40], [80]],
    "phase-damping": [[60, 511, 511], [20], [40], [40], [], [40], [80]],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_threshold_set_calls(monkeypatch, family):
    # One pre-scan of every bracket point and q = 1, then the calls of SET_CALLS.
    rng = np.random.default_rng(12)
    mats = [ginibre(rng, rank) for rank in (1, 2, 3, 4, 4, 4)] + [werner(0.9).mat]
    calls = counted_calls(monkeypatch, "_kraus_margins", np.copy)
    sizes = []
    for mat in mats:
        calls.clear()
        thresholds.threshold_set(DensityMatrix(mat), family, 1e-9)
        assert calls[0].size == PRESCAN_POINTS + 1
        assert calls[0][-2:].tolist() == [min(1.0 - 1e-9, _BELOW_ONE), 1.0]
        sizes.append([qs.size for qs in calls[1:]])
    assert sizes == SET_CALLS[family]


# Margins calls of x_thresholds on the 30 MEMS of one sample-mems run at
# tol 1e-6: one call reads the points around the roots, and one verifies every
# row's predicted path; no row resumes.
MEMS_CALLS = 2


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_x_threshold_sets_calls(monkeypatch, family, seed):
    entries = _mems_entries(_accepted_weights(SamplerConfig(n_states=30, seed=seed, channel=family)))
    sizes = counted_calls(monkeypatch, "_x_margins")
    thresholds.x_thresholds(entries, family, 1e-6)
    assert len(sizes) == MEMS_CALLS


def test_cached_arrays_are_read_only():
    # Every call gets the same cached object, so a write would reach every later call.
    for tol in (1e-3, 1e-9, 1e-17):
        ends = _ends(tol)
        assert _ends(tol) is ends
        assert_same_bits(ends, np.append(_GRID[:-1], min(1.0 - tol, _BELOW_ONE)))
        with pytest.raises(ValueError, match="read-only"):
            ends[-1] = 0.5
    for family in sorted(FAMILIES):
        block = _x_block(family)
        assert _x_block(family) is block and block.shape == (18, 6)
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1.0


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
    got = _locate(margins, ends, tol, no_guess(2))
    np.testing.assert_array_equal(got, [[0.0, np.nan, np.nan, 0.0], [np.nan, 0.0, 0.0, np.nan]])
    assert calls == []
    found = _locate(margins, np.full((1, len(Measure)), PRESCAN_POINTS - 1), tol, no_guess(1))
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
    thresholds.x_thresholds(mems_entries(30, family), family, tol)
    assert max(x) <= tail_q


# _SCALAR_ROWS forced to either side: every walk of _replay in arrays, or in Python floats.
REPLAY_PATHS = {"arrays": 0, "python-floats": 10**6}


@pytest.mark.parametrize("scalar_rows", REPLAY_PATHS.values(), ids=REPLAY_PATHS)
def test_check_same_on_each_replay_path(monkeypatch, scalar_rows):
    # The check_same cases above with every walk on one path.
    monkeypatch.setattr(thresholds, "_SCALAR_ROWS", scalar_rows)
    for family in sorted(FAMILIES):
        for tol in TOLS:
            test_kraus_provider(family, tol)
            test_x_provider_on_mems(family, tol)
            for n in STATE_COUNTS[:-1]:
                test_x_provider_on_fewer_mems(n, family, tol)
        test_rows_stopping_on_adjacent_floats(family)
    for tol in TOLS:
        for n in STATE_COUNTS:
            test_rows_with_their_own_roots(n, tol)
    for tol in TOLS[1:] + (1e-17,):
        test_resumed_rows(tol)
        test_locate_bisects_only(tol)
    test_every_level_count_is_exercised()
    test_rows_finish_at_different_levels_of_one_call()


@pytest.mark.parametrize("scalar_rows", REPLAY_PATHS.values(), ids=REPLAY_PATHS)
def test_guess_property_on_each_replay_path(monkeypatch, scalar_rows):
    monkeypatch.setattr(thresholds, "_SCALAR_ROWS", scalar_rows)
    test_floats_do_not_depend_on_the_guess()


def replay_on(scalar_rows: int, margins, n: int, lo, hi, guess, tol: float):
    """_replay of every row of n states on one path: (active, lo, hi), found and its (states, qs) calls."""
    calls = []

    def recorded(states: np.ndarray, qs: np.ndarray) -> np.ndarray:
        calls.append((states.copy(), qs.copy()))
        return margins(states, qs)

    found = np.full(n * len(Measure), -1.0)
    active = np.arange(n * len(Measure))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thresholds, "_SCALAR_ROWS", scalar_rows)
        left = thresholds._replay(recorded, found, active, np.array(lo, dtype=float),
                                  np.array(hi, dtype=float), np.array(guess, dtype=float), tol)
    return left, found, calls


def assert_same_replay(margins, n: int, lo, hi, guess, tol: float):
    """Both paths of _replay give the same open rows, brackets, located floats and calls; returns one."""
    (rows, *brackets), found, calls = replay_on(REPLAY_PATHS["arrays"], margins, n, lo, hi, guess, tol)
    got = replay_on(REPLAY_PATHS["python-floats"], margins, n, lo, hi, guess, tol)
    assert got[0][0].dtype == rows.dtype and got[0][0].tolist() == rows.tolist()
    for want, have in zip(brackets + [found], list(got[0][1:]) + [got[1]]):
        assert_same_bits(have, want)
    assert len(got[2]) == len(calls) <= 1
    for (states, qs), (want_states, want_qs) in zip(got[2], calls):
        assert states.dtype == want_states.dtype and states.tolist() == want_states.tolist()
        assert_same_bits(qs, want_qs)
    return (rows, *brackets), found, calls


def test_replay_paths_on_guesses_outside_and_at_the_ends():
    # NaN and +-inf walk no row, a guess at either end of its bracket walks it.
    roots = np.array([[0.30012, 0.5, 0.5005, 0.7], [0.1, 0.2, 0.2003, 0.99]])
    lo = [0.3, 0.5, 0.5, 0.699, 0.1, 0.2, 0.2, 0.989]
    hi = [0.301, 0.501, 0.501, 0.7, 0.101, 0.201, 0.201, 0.99]
    guess = [0.30012, np.nan, np.inf, -np.inf, 0.1, 0.201, 0.2003, 0.99]
    for tol in (1e-3, 1e-9, 1e-17):
        (rows, _, _), found, calls = assert_same_replay(row_margins(roots), 2, lo, hi, guess, tol)
        assert {1, 2, 3} <= set(rows.tolist()) and len(calls) == 1
    (rows, _, _), _, calls = assert_same_replay(row_margins(roots), 2, lo, hi, [np.nan] * 8, 1e-9)
    assert rows.tolist() == list(range(8)) and calls == []


def test_replay_paths_on_adjacent_floats():
    # Brackets of two adjacent floats are done after one level; a wide
    # bracket beside them sets the level count.
    a = np.array([0.25, 0.5, 0.999, 1e-300])
    b = np.nextafter(a, 1.0)
    lo, hi = [*a.tolist(), 0.4], [*b.tolist(), 0.401]
    roots = np.array([[*b[:3].tolist(), a[3]], [0.4003, 1.0, 1.0, 1.0]])
    for guess in ([*a.tolist(), 0.4003], [*b.tolist(), 0.4004]):
        assert_same_replay(row_margins(roots), 2, lo + [0.0] * 3, hi + [1.0] * 3,
                           guess + [np.nan] * 3, 1e-17)


def test_replay_paths_at_the_walk_cap():
    # At tol 1e-17 a bracket 200 wide needs more than _MAX_WALK levels, so
    # matched rows are left open after the capped walk (near 0, where the
    # floats are dense enough); the narrow rows beside them are done first.
    roots = np.array([[1e-10, -3e-12, 0.30012, 1e-3]])
    lo, hi = [-100.0, -100.0, 0.3, 0.0], [100.0, 100.0, 0.301, 0.001]
    (rows, left_lo, left_hi), _, calls = assert_same_replay(
        row_margins(roots), 1, lo, hi, roots[0], 1e-17)
    assert calls[0][1].size > thresholds._MAX_WALK and {0, 1} <= set(rows.tolist())
    assert np.all(left_hi - left_lo > 1e-17)


def test_replay_paths_on_the_tail_bracket():
    # The tail bracket ends at the float below 1; its rows stop on adjacent floats there.
    roots = np.array([[0.9995, 1.0 - 2**-40, 1.0 - 2**-52, 1.0]])
    for tol in (1e-9, 1e-17):
        lo, hi = [0.999] * 4, [_BELOW_ONE] * 4
        assert_same_replay(row_margins(roots), 1, lo, hi, roots[0], tol)
        assert_same_replay(row_margins(roots), 1, lo, hi, [0.99951, 0.9999, _BELOW_ONE, 0.999], tol)


def test_replay_paths_on_a_sign_that_flips_inside_the_bracket():
    # cos(2 pi q / 1e-4) changes sign 20 times in a cell of 1e-3: rows
    # mismatch at different levels, so they resume from brackets of different widths.
    def margins(states: np.ndarray, qs: np.ndarray) -> np.ndarray:
        return np.cos(2 * np.pi * qs / 1e-4 + np.arange(len(Measure))[:, None])

    lo = np.repeat([0.5, 0.7], len(Measure))
    guess = lo + np.linspace(0.0, 1e-3, lo.size)
    for tol in (1e-6, 1e-12, 1e-17):
        (_, left_lo, left_hi), _, _ = assert_same_replay(margins, 2, lo, lo + 1e-3, guess, tol)
        assert len(set((left_hi - left_lo).tolist())) > 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 4),
       tol=st.sampled_from((1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-17)))
def test_replay_paths_on_random_rows(seed, n, tol):
    # Grid cells or the tail bracket, roots in or near them, guesses of every kind.
    rng = np.random.default_rng(seed)
    ends = _ends(tol)
    cells = rng.integers(1, PRESCAN_POINTS, n * len(Measure))
    lo, hi = ends[cells - 1], ends[cells]
    roots = lo + rng.uniform(-0.5, 1.5, lo.size) * (hi - lo)
    guess = np.where(rng.random(lo.size) < 0.5, roots, lo + rng.random(lo.size) * (hi - lo))
    guess[rng.random(lo.size) < 0.2] = np.nan
    assert_same_replay(row_margins(roots.reshape(n, len(Measure))), n, lo, hi, guess, tol)


def counted_paths(monkeypatch) -> dict:
    """The walked rows of each _replay walk from now on, by path."""
    taken = {path: [] for path in REPLAY_PATHS}
    for name, path in (("_replay_arrays", "arrays"), ("_replay_rows", "python-floats")):
        step = getattr(thresholds, name)

        def counted(margins, found, rows, *args, step=step, path=path):
            taken[path].append(rows.size)
            return step(margins, found, rows, *args)

        monkeypatch.setattr(thresholds, name, counted)
    return taken


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_benchmark_workloads_keep_their_replay_path(monkeypatch, family):
    # threshold_set walks at most four rows, in Python floats: the sets of
    # test_threshold_set_calls that make a verify call. One 30-MEMS block of
    # x_thresholds walks 90-120 rows, in arrays.
    taken = counted_paths(monkeypatch)
    rng = np.random.default_rng(12)
    for mat in [ginibre(rng, rank) for rank in (1, 2, 3, 4, 4, 4)] + [werner(0.9).mat]:
        thresholds.threshold_set(DensityMatrix(mat), family, 1e-9)
    assert taken["arrays"] == [] and len(taken["python-floats"]) == sum(map(bool, SET_CALLS[family]))
    assert max(taken["python-floats"]) <= len(Measure) <= thresholds._SCALAR_ROWS
    taken["python-floats"].clear()
    entries = _mems_entries(_accepted_weights(SamplerConfig(n_states=30, seed=0, channel=family)))
    thresholds.x_thresholds(entries, family, 1e-6)
    assert taken["python-floats"] == [] and len(taken["arrays"]) == 1
    assert taken["arrays"][0] > thresholds._SCALAR_ROWS
