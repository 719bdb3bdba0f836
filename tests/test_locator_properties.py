"""Property tests of the threshold locator against ``scan`` on random states.

For every channel family, each critical strength reported by
``threshold_set`` is checked with the margins of the measure table ``scan``
returns: a condition is alive just below its q_X and dead just above it, a
q_X of 0 means dead at q = 0, and None means still alive at q = 1 - tol.
``classify`` must rank a state by the conditions the locator finds alive at
q = 0.

Local unitaries give a free oracle: every channel acts on qubit B, so a
unitary on A commutes with it, and depolarizing noise commutes with a unitary
on B too. The four measures do not change under local unitaries, so neither
may any threshold.
"""

import numpy as np
import pytest
from conftest import ginibre, haar_unitary
from hypothesis import given, settings, strategies as st
from oracles import boundary_q_c, concurrence_unclamped

from qnl.channels import FAMILIES
from qnl.measures import (
    GISIN_BOUND,
    HierarchyClass,
    alive_margins,
    classify,
)
from qnl.states import DensityMatrix, MemsWeights, mems, werner
from qnl import thresholds
from qnl.thresholds import Measure, scan, threshold_set

TOL = 1e-6
PROPERTY = settings(max_examples=8, deadline=None, derandomize=True, database=None)
LOCAL_TOL = 1e-9
LOCAL = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def margins(rho, family: str, q: float) -> dict:
    """Alive margins of the four conditions at one strength, read from scan."""
    _, c, f, b = scan(rho, family, np.array([q]))[0]
    return {
        Measure.GISIN: f - GISIN_BOUND,
        Measure.BELL: b - 2.0,
        Measure.FIDELITY: f - 2.0 / 3.0,
        Measure.CONCURRENCE: c,
    }


def check_locator(rho) -> None:
    for family in sorted(FAMILIES):
        ts = threshold_set(rho, family, TOL)
        found = dict(zip(Measure, (ts.q_g, ts.q_b, ts.q_f, ts.q_c)))
        for m, q in found.items():
            assert q is None or type(q) is float
            if q is None:
                assert margins(rho, family, 1.0 - TOL)[m] > 0.0, (family, m)
            elif q == 0.0:
                assert margins(rho, family, 0.0)[m] <= 0.0, (family, m)
            else:
                assert margins(rho, family, max(0.0, q - 2 * TOL))[m] > 0.0, (family, m, q)
                assert margins(rho, family, min(1.0, q + 2 * TOL))[m] <= 0.0, (family, m, q)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_ginibre_states(seed, rank):
    check_locator(DensityMatrix(ginibre(np.random.default_rng(seed), rank)))


def assert_same_thresholds(rho, rotated, family: str) -> None:
    """threshold_set of both states agrees within 2 tol, and None only with None."""
    a = threshold_set(rho, family, LOCAL_TOL).as_dict()
    b = threshold_set(rotated, family, LOCAL_TOL).as_dict()
    for key in a:
        assert (a[key] is None) == (b[key] is None), (family, a, b)
        assert a[key] is None or abs(a[key] - b[key]) <= 2 * LOCAL_TOL, (family, a, b)


@LOCAL
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_unitary_on_a_keeps_every_threshold(seed, rank):
    rng = np.random.default_rng(seed)
    mat = ginibre(rng, rank)
    k = np.kron(haar_unitary(rng), np.eye(2))
    for family in sorted(FAMILIES):
        assert_same_thresholds(DensityMatrix(mat), DensityMatrix(k @ mat @ k.conj().T), family)


@LOCAL
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_local_unitaries_keep_depolarizing_thresholds(seed, rank):
    rng = np.random.default_rng(seed)
    mat = ginibre(rng, rank)
    k = np.kron(haar_unitary(rng), haar_unitary(rng))
    assert_same_thresholds(DensityMatrix(mat), DensityMatrix(k @ mat @ k.conj().T), "depolarizing")


@PROPERTY
@given(raw=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_mems_states(raw):
    w = np.array(raw) / sum(raw)
    check_locator(mems(MemsWeights(*w)))


@PROPERTY
@given(p=st.floats(0.0, 1.0))
def test_werner_states(p):
    check_locator(werner(p))


def test_death_in_last_grid_cell():
    # Entanglement of this Werner state dies at q = 0.99952, inside the last
    # pre-scan cell [0.999, 1]: found when tol is fine, None once 1 - tol
    # falls below the death point.
    p = 0.49994
    exact = boundary_q_c(p)
    assert 0.999 < exact < 1.0
    assert threshold_set(werner(p), "amplitude-damping", 1e-9).q_c == pytest.approx(
        exact, abs=1e-8
    )
    assert threshold_set(werner(p), "amplitude-damping", 1e-3).q_c is None


def test_classify_counts_the_conditions_alive_at_q0():
    # Ginibre states of rank 1 to 4 whose q = 0 margins are clear of every cut.
    rng = np.random.default_rng(11)
    ranks = set()
    for k in range(60):
        rho = DensityMatrix(ginibre(rng, 1 + k % 4))
        report = classify(rho)
        at_zero = alive_margins(report.fidelity, report.bell, concurrence_unclamped(rho))
        if np.any(np.abs(at_zero) <= 1e-6):
            continue
        position = list(HierarchyClass).index(report.hierarchy_class)
        ranks.add(position)
        for family in sorted(FAMILIES):
            ts = threshold_set(rho, family, TOL)
            alive = sum(q != 0.0 for q in (ts.q_g, ts.q_b, ts.q_f, ts.q_c))
            assert alive == position, (k, family, ts)
    assert ranks == set(range(len(HierarchyClass)))


@pytest.mark.parametrize("scalar_rows", (0, 10**6), ids=("arrays", "python-floats"))
def test_locator_properties_on_each_replay_path(monkeypatch, scalar_rows):
    # The properties above with every walk of the locator's replay in arrays,
    # then in Python floats (threshold_set takes the latter by default).
    monkeypatch.setattr(thresholds, "_SCALAR_ROWS", scalar_rows)
    test_ginibre_states()
    test_unitary_on_a_keeps_every_threshold()
    test_local_unitaries_keep_depolarizing_thresholds()
    test_mems_states()
    test_werner_states()
    test_death_in_last_grid_cell()
    test_classify_counts_the_conditions_alive_at_q0()
