"""``scan`` takes C from a Cholesky-Jacobi kernel wherever its printed digits are certain.

``measures.jacobi_concurrence`` gives the unclamped concurrence of each state
from the Cholesky factor rho = L L^H and a one-sided Jacobi SVD of
M = L^T (sigma_y x sigma_y) L, with a bound on its distance to LAPACK's C
(``wootters_roots_stack``). ``scan`` prints 0 where the bound puts LAPACK's C
below zero, keeps the kernel's C where every float within the bound prints the
same %.12g bytes (``thresholds._prints_alike``), and sends the other rows to
``wootters_roots_stack``. The tests:

  * kernel: on over 10^6 states under the three channels, every certified
    row prints LAPACK's bytes, and every row lies within half its bound of
    LAPACK's C, so the bound has a factor of 2 to spare;
  * refusal: rank-deficient states, on which LAPACK's C is itself off by up
    to about 1e-8, and rows with NaN, inf or tiny entries are never certified;
  * residual term: after one sweep the columns are far from orthogonal, and
    the bound still certifies no wrong byte;
  * blocks: a row's floats do not depend on the rows it is computed with,
    nor on how many sweeps those rows take.

Which rows of ``scan`` reach the kernel and LAPACK is tested in
``tests/test_scan_skip.py``.
"""

import numpy as np
import pytest
from conftest import (assert_same_bits, fast_and_slow_rows, ginibre, local_rotation, printed,
                      pure_ab, random_qubit, x_state_mat)

from qnl import measures
from qnl.channels import FAMILIES, evolve_grid
from qnl.measures import concurrence_of_roots, jacobi_concurrence, wootters_roots_stack
from qnl.states import MemsWeights, bell_singlet, mems, werner
from qnl.thresholds import _prints_alike

KERNEL_ROWS = 1_000_000
GRID = np.linspace(0.0, 1.0, 4004)
# Share of the rows of full-rank Ginibre states that must certify (0.85 measured
# over 10^7 rows), or the LAPACK fallback costs more than the kernel saves.
CERTIFIED_SHARE = 0.75
EPS = np.finfo(float).eps


def certified(c: np.ndarray, err: np.ndarray) -> np.ndarray:
    """The rows whose printed C ``scan`` takes from the kernel: 0, or c where it prints alike."""
    return (c + err < 0.0) | ((c - err > 0.0) & _prints_alike(c[None], err[None]))


def check_kernel(rhos: np.ndarray) -> np.ndarray:
    """Assert the kernel's promises on the states rhos (M, 4, 4); returns the certified rows."""
    c, err = jacobi_concurrence(rhos)
    lapack = concurrence_of_roots(wootters_roots_stack(rhos))
    kept = np.isfinite(err)
    assert np.all(np.abs(c - lapack)[kept] <= 0.5 * err[kept])
    certain = certified(c, err)
    assert printed(np.maximum(0.0, c[certain])) == printed(np.maximum(0.0, lapack[certain]))
    return certain


def rotated(mat: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The state under a random local unitary U_A x U_B."""
    u = local_rotation(rng)
    return u @ mat @ u.conj().T


def special_states(rng: np.random.Generator) -> list[np.ndarray]:
    """States whose Wootters roots are hardest to get or to certify."""
    # Werner states have three equal roots; local unitaries keep them.
    mats = [werner(p).mat for p in np.linspace(0.0, 1.0, 11)]
    mats += [rotated(mat, rng) for mat in mats]
    mats += [rotated(mems(MemsWeights(*w)).mat, rng)
             for w in ((0.6, 0.2, 0.15, 0.05), (0.4, 0.3, 0.2, 0.1), (1.0, 0.0, 0.0, 0.0))]
    # X-states inside, on and at the PSD bound, with exact zeros and subnormal coherences.
    for c14, c23 in ((0.2, 0.0), (0.0, 0.1j), (0.25, 0.25), (1e-310, 0.1), (1e-310, 1e-310 + 1e-310j)):
        for diag in ((0.25, 0.25, 0.25, 0.25), (0.4, 0.1, 0.1, 0.4), (0.5, 0.0, 0.2, 0.3)):
            mat = x_state_mat(diag, c14, c23)
            if np.linalg.eigvalsh(mat)[0] >= 0.0:
                mats.append(mat)
    for _ in range(6):
        d = rng.dirichlet(np.ones(4))
        phase = np.exp(2j * np.pi * rng.uniform(size=2))
        mats.append(x_state_mat(d, np.sqrt(d[0] * d[3]) * phase[0], np.sqrt(d[1] * d[2]) * phase[1]))
    # Products, pure and mixed, and rank-deficient entangled and classically correlated states.
    mats += [np.kron(random_qubit(rng, pure), random_qubit(rng, pure))
             for pure in (True, False, True, False)]
    mats += [pure_ab(b) for b in (1e-2, 1e-4, 1e-8)]
    mats += [np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex), bell_singlet().mat]
    return mats


def special_stacks(rng: np.random.Generator):
    """Evolved stacks (M, 4, 4) of the special states, and of Ginibre states near q = 0 and q = 1."""
    for mat in special_states(rng):
        for family in sorted(FAMILIES):
            yield evolve_grid(mat, family, GRID)
    # lambda_min from 0 up: rank-deficient states as noise begins, and amplitude damping near q = 1.
    near_zero = np.concatenate([[0.0], np.logspace(-16, -1, 3000)])
    near_one = np.concatenate([np.linspace(1.0 - 1e-6, 1.0, 2001), 1.0 - np.logspace(-16, -9, 200)])
    for k in range(12):
        mat = ginibre(rng, 1 + k % 4)
        yield evolve_grid(mat, "amplitude-damping", near_one)
        for family in sorted(FAMILIES):
            yield evolve_grid(mat, family, near_zero)
    # Tiny and subnormal entries, and stacks that are not states, which only refusal keeps right.
    tiny = np.zeros((5, 4, 4), dtype=complex)
    tiny[0] = 1e-310 * np.eye(4)
    tiny[1] = 1e-200 * ginibre(rng, 4)
    tiny[2] = 1e-20 * ginibre(rng, 4)
    tiny[3] = np.diag([1.0, 1e-310, 1e-310, 0.0])
    tiny[4] = np.diag([0.5, 0.5, 5e-324, 5e-324])
    yield tiny


def test_kernel_prints_lapack_bytes_on_every_certified_row():
    rng = np.random.default_rng(3500)
    rows = 0
    for rhos in special_stacks(rng):
        check_kernel(rhos)
        rows += len(rhos)
    certain = total = k = 0
    while rows < KERNEL_ROWS:
        mat = ginibre(rng, 1 + k % 4)
        for family in sorted(FAMILIES):
            kept = check_kernel(evolve_grid(mat, family, GRID))
            if k % 4 == 3:
                certain += kept.sum()
                total += kept.size
            rows += GRID.size
        k += 1
    assert certain >= CERTIFIED_SHARE * total


@pytest.mark.parametrize("family", ["amplitude-damping", "phase-damping"])
def test_rank_deficient_rows_are_never_certified(family):
    # Both damping families keep these states rank-deficient; depolarizing noise only at q = 0.
    # The first four have exact zeros in rho and zero pivots; under local
    # unitaries and as Ginibre states of rank 1 their pivots are rounding.
    rng = np.random.default_rng(3504)
    for mat in (bell_singlet().mat, pure_ab(1e-4), pure_ab(1e-8), np.diag([0.5, 0.0, 0.0, 0.5]),
                rotated(bell_singlet().mat, rng), rotated(pure_ab(1e-4), rng), ginibre(rng, 1)):
        for rhos in (evolve_grid(mat, family, GRID), evolve_grid(mat, "depolarizing", np.zeros(1))):
            c, err = jacobi_concurrence(rhos)
            assert np.isnan(c).all() and np.isinf(err).all()


def test_non_finite_and_tiny_rows_are_refused():
    rng = np.random.default_rng(3501)
    rhos = np.array([ginibre(rng, 4) for _ in range(8)])
    rhos[0, 0, 0] = np.nan
    rhos[1, 3, 1] = np.nan
    rhos[2, 2, 2] = np.inf
    rhos[3, 3, 1] = np.inf
    rhos[4] *= 1e-200
    rhos[5] = 1e-310 * np.eye(4)
    rhos[6, 1, 1] = -1e-3  # not positive semidefinite
    c, err = jacobi_concurrence(rhos)
    assert np.isnan(c[:7]).all() and np.isinf(err[:7]).all()
    assert np.isfinite(c[7]) and np.isfinite(err[7])
    assert not certified(c, err)[:7].any()


def test_one_sweep_leaves_residuals_that_the_bound_carries(monkeypatch):
    # One sweep leaves cosines far above rounding between the columns; the
    # residual term widens the bound of those rows, and no wrong byte is certified.
    monkeypatch.setattr(measures, "_JACOBI_SWEEPS", 1)
    rng = np.random.default_rng(3502)
    rhos = np.concatenate([evolve_grid(ginibre(rng, 2 + k % 3), family, GRID)
                           for k in range(6) for family in sorted(FAMILIES)])
    certain = check_kernel(rhos)
    _, err = jacobi_concurrence(rhos)
    kept = np.isfinite(err)
    # ||L^-1||_F^2 = tr(rho^-1).
    inv_norm = np.sqrt(np.trace(np.linalg.inv(rhos[kept]), axis1=1, axis2=2).real)
    slack_only = measures.CONCURRENCE_SLACK * EPS * (1.0 + inv_norm)
    assert np.mean(err[kept] > 2.0 * slack_only) > 0.5
    assert 0 < certain.sum() < certain.size


def test_blocks_do_not_mix_rows():
    # Refused rows (rank-deficient, NaN), X rows, whose rotations are mostly
    # skipped, and Ginibre rows, cut into other stacks down to single rows.
    # Then rows whose sweeps stop early (Werner and MEMS under local unitaries,
    # X-states) mixed at random with rows that take every sweep.
    rng = np.random.default_rng(3503)
    qs = np.linspace(0.0, 1.0, 301)
    rhos = np.concatenate([evolve_grid(mat, family, qs) for family in sorted(FAMILIES)
                           for mat in (ginibre(rng, 3), ginibre(rng, 4), pure_ab(0.3),
                                       x_state_mat((0.4, 0.1, 0.1, 0.4), 0.3, 0.05j))])
    rhos[::97, 1, 0] = np.nan
    mixed = np.concatenate([fast_and_slow_rows(rng, family, qs) for family in sorted(FAMILIES)])
    for stack in (rhos, mixed):
        whole = np.stack(jacobi_concurrence(stack))
        cuts = [0, 1, 2, 500, 1203, 2000, stack.shape[0] - 1, stack.shape[0]]
        pieces = [np.stack(jacobi_concurrence(stack[a:b])) for a, b in zip(cuts[:-1], cuts[1:])]
        assert_same_bits(np.concatenate(pieces, axis=1), whole)
        for k in rng.choice(stack.shape[0], size=200, replace=False):
            assert_same_bits(np.stack(jacobi_concurrence(stack[k:k + 1])), whole[:, k:k + 1])
