"""Property tests of the threshold locator against ``scan`` on random states.

For every channel family, each critical strength reported by
``threshold_set`` is checked with the margins of the measure table ``scan``
returns: a condition is alive just below its q_X and dead just above it, a
q_X of 0 means dead at q = 0, and None means still alive at q = 1 - tol.
``critical_q`` must report the same value as the matching field. ``classify``
must rank a state by the conditions the locator finds alive at q = 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnl.channels import FAMILIES
from qnl.measures import (
    GISIN_BOUND,
    HierarchyClass,
    alive_margins,
    classify,
    concurrence_unclamped,
)
from qnl.states import MemsWeights, mems, validate, werner
from qnl.thresholds import Measure, critical_q, scan, threshold_set
from qnl.werner_analytic import boundary_q_c

TOL = 1e-6
PROPERTY = settings(max_examples=8, deadline=None, derandomize=True, database=None)


def margins(rho, family: str, q: float) -> dict:
    """Alive margins of the four conditions at one strength, read from scan."""
    _, c, f, b = scan(rho, family, np.array([q]))[0]
    return {
        Measure.GISIN: f - GISIN_BOUND,
        Measure.BELL: b - 2.0,
        Measure.FIDELITY: f - 2.0 / 3.0,
        Measure.CONCURRENCE: c,
    }


def check_locator(rho, measure: Measure) -> None:
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
        assert critical_q(rho, family, measure, TOL) == found[measure]


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4),
       measure=st.sampled_from(list(Measure)))
def test_ginibre_states(seed, rank, measure):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    mat = g @ g.conj().T
    check_locator(validate(mat / np.trace(mat).real), measure)


@PROPERTY
@given(raw=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       measure=st.sampled_from(list(Measure)))
def test_mems_states(raw, measure):
    w = np.array(raw) / sum(raw)
    check_locator(mems(MemsWeights(*w)), measure)


@PROPERTY
@given(p=st.floats(0.0, 1.0), measure=st.sampled_from(list(Measure)))
def test_werner_states(p, measure):
    check_locator(werner(p), measure)


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
        rank = 1 + k % 4
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        mat = g @ g.conj().T
        rho = validate(mat / np.trace(mat).real)
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
