"""``scan`` skips the Wootters roots of the rows its determinant proves separable.

A two-qubit state is entangled exactly when det(rho^{T_B}) < 0, and then
rho^{T_B} has one negative eigenvalue. So a determinant of at least
SEPARABLE_DET proves rho^{T_B} positive definite with lambda_min >= det, the
state separable, and its unclamped concurrence at most -2 lambda_min: far
below zero, so the clamped C of those rows is 0 without the roots. The tests:

  * oracle: ``scan`` against ``oracles.scan_all_rows``, which takes the roots
    and the correlation SVD of every row, on over 10^6 rows over the three
    channels: q bit for bit, C, F and B by their printed bytes and within the
    bounds of ``jacobi_concurrence`` (``tests/test_jacobi_concurrence.py``)
    and ``jacobi_fidelity_bell`` (``tests/test_jacobi_svd.py``);
  * certificate: the three inequalities above, on over 10^5 PPT points;
  * skip count: which rows reach ``jacobi_concurrence``, and which of them
    go on to ``wootters_roots_stack``.
"""

import numpy as np
import pytest
from conftest import (assert_same_bits, assert_scan_rows, ginibre, local_rotation,
                      partial_transpose_b, pure_ab, random_qubit)
from oracles import scan_all_rows

from qnl.channels import FAMILIES, evolve_grid
from qnl.measures import concurrence_of_roots, jacobi_concurrence, wootters_roots_stack
from qnl.states import DensityMatrix, MemsWeights, bell_singlet, mems, werner
from qnl.thresholds import (SEPARABLE_DET, _chebyshev_rows, _kraus_table, _prints_alike, scan,
                            threshold_set)

FULL = np.linspace(0.0, 1.0, 11003)
# Rows per family of the oracle test: three families make over 10^6.
ORACLE_ROWS = 340_000
# Error of the Wootters roots on rank-deficient states (README; tests/test_x_path.py).
WOOTTERS_ERROR = 1e-7
# Rounding of c + 2 lambda_min on the PPT points of test_separable_certificate
# (at most 3.9e-16 there), and of lambda_min - det where both are about 0.
ROUNDING = 1e-15


def rotated(mat: np.ndarray, rng: np.random.Generator) -> DensityMatrix:
    """The state under a random local unitary U_A x U_B."""
    u = local_rotation(rng)
    return DensityMatrix(u @ mat @ u.conj().T)


def table_det(mat: np.ndarray, family: str, qs: np.ndarray) -> np.ndarray:
    """det(rho^{T_B}) at strengths qs as ``scan`` reads it, summed from the state's table."""
    return _chebyshev_rows(_kraus_table(mat, family)[-1:], qs)[0]


def x_state(rng: np.random.Generator, bound: float) -> DensityMatrix:
    """An X-state with its coherences at ``bound`` times their PSD bound."""
    d = rng.dirichlet(np.ones(4))
    mat = np.diag(d).astype(complex)
    mat[0, 3] = bound * np.sqrt(d[0] * d[3]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    mat[1, 2] = bound * np.sqrt(d[1] * d[2]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    mat[3, 0], mat[2, 1] = np.conj(mat[0, 3]), np.conj(mat[1, 2])
    return DensityMatrix(mat)


def oracle_states(rng: np.random.Generator) -> list[DensityMatrix]:
    states = [DensityMatrix(ginibre(rng, rank)) for rank in (1, 2, 3, 4) * 2]
    states += [werner(1.0 / 3.0 + d) for d in (-1e-6, -1e-9, 0.0, 1e-9, 1e-6)]
    states += [rotated(mems(MemsWeights(*w)).mat, rng)
               for w in ((0.6, 0.2, 0.15, 0.05), (0.4, 0.3, 0.2, 0.1))]
    states += [rotated(werner(p).mat, rng) for p in (0.45, 0.8)]
    states += [DensityMatrix(np.kron(random_qubit(rng, pure), random_qubit(rng, pure)))
               for pure in (True, False)]
    states += [x_state(rng, bound) for bound in (1.0, 0.7)]
    # Rank-deficient states that are not products: the C kernel refuses their rows at q = 0 and
    # under both damping families.
    states += [DensityMatrix(pure_ab(1e-4)), DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))]
    return states


def grids(state: DensityMatrix, family: str) -> list[np.ndarray]:
    """The full grid, narrow ranges at q = 0 and q = 1, around q_C, and across the skip edge.

    The last are the cells of the full grid where det(rho^{T_B}) crosses
    SEPARABLE_DET, the first two of them, each read at 2001 points.
    """
    out = [FULL, np.linspace(0.0, 1e-6, 1001), np.linspace(1.0 - 1e-6, 1.0, 1001)]
    q_c = threshold_set(state, family, 1e-9).q_c
    if q_c is not None:
        out.append(np.linspace(max(0.0, q_c - 1e-3), min(1.0, q_c + 1e-3), 2001))
    skipped = table_det(state.mat, family, FULL) >= SEPARABLE_DET
    for k in np.flatnonzero(skipped[1:] != skipped[:-1])[:2]:
        out.append(np.linspace(FULL[k], FULL[k + 1], 2001))
    return out


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scan_matches_every_row_oracle(family):
    rows = 0
    for state in oracle_states(np.random.default_rng(2400)):
        for qs in grids(state, family):
            assert_scan_rows(scan(state, family, qs), scan_all_rows(state, family, qs),
                             state.mat, family)
            rows += qs.size
    assert rows >= ORACLE_ROWS


def certificate_points(rng: np.random.Generator):
    """(c, lam, det, table_det) of Ginibre states of rank 1-4 and Werner states under every family.

    c is the float unclamped concurrence, lam and det are lambda_min and the
    LAPACK determinant of rho^{T_B}, table_det the determinant summed from the
    state's ``_kraus_table``.
    """
    qs = np.linspace(0.0, 1.0, 251)
    mats = [ginibre(rng, 1 + k % 4) for k in range(240)]
    mats += [werner(p).mat for p in np.linspace(0.0, 0.5, 61)]
    parts = []
    for family in sorted(FAMILIES):
        for mat in mats:
            evolved = evolve_grid(mat, family, qs)
            pt = partial_transpose_b(evolved)
            parts.append((concurrence_of_roots(wootters_roots_stack(evolved)),
                          np.linalg.eigvalsh(pt)[:, 0], np.linalg.det(pt).real,
                          table_det(mat, family, qs)))
    return tuple(np.concatenate(p) for p in zip(*parts))


def test_separable_certificate():
    c, lam, det, table_det = certificate_points(np.random.default_rng(2401))
    ppt = lam >= 0.0
    assert ppt.sum() >= 100_000
    assert np.all(c[ppt] <= -2.0 * lam[ppt] + ROUNDING)
    assert np.all(lam[ppt] >= det[ppt] - ROUNDING)
    skipped = table_det >= SEPARABLE_DET
    assert skipped.any() and np.all(c[skipped] <= -2.0 * SEPARABLE_DET + WOOTTERS_ERROR)


def test_werner_concurrence_is_minus_twice_lambda_min():
    # Werner states, and depolarizing noise on B, which keeps them Werner states.
    qs = np.linspace(0.0, 1.0, 201)
    for p in np.linspace(0.0, 1.0 / 3.0, 41):
        evolved = evolve_grid(werner(p).mat, "depolarizing", qs)
        c = concurrence_of_roots(wootters_roots_stack(evolved))
        lam = np.linalg.eigvalsh(partial_transpose_b(evolved))[:, 0]
        np.testing.assert_allclose(c, -2.0 * lam, rtol=0.0, atol=ROUNDING)


def test_separable_scan_reads_no_roots(concurrence_stacks, wootters_stacks):
    # Werner p = 0.2 is separable, and depolarizing noise keeps it so: no stack, not even an empty one.
    table = scan(werner(0.2), "depolarizing", np.linspace(0.0, 1.0, 2 * 4004 + 1))
    assert concurrence_stacks == [] and wootters_stacks == []
    assert np.all(table[:, 1] == 0.0)


@pytest.mark.parametrize("state, family", [(bell_singlet(), "phase-damping"),
                                           (werner(0.9), "depolarizing"),
                                           (werner(0.45), "amplitude-damping"),
                                           (DensityMatrix(pure_ab(1e-4)), "amplitude-damping")])
def test_roots_read_exactly_the_rows_below_the_constant(concurrence_stacks, wootters_stacks,
                                                        state, family):
    # The kernel reads the rows below SEPARABLE_DET, and LAPACK the rows whose C it cannot certify.
    qs = np.linspace(0.0, 1.0, 10007)
    scan(state, family, qs)
    below = table_det(state.mat, family, qs) < SEPARABLE_DET
    read = np.concatenate(concurrence_stacks)
    assert_same_bits(read.view(float), evolve_grid(state.mat, family, qs[below]).view(float))
    c, err = jacobi_concurrence(read)
    refused = ~((c + err < 0.0) | ((c - err > 0.0) & _prints_alike(c[None], err[None])))
    roots = np.concatenate(wootters_stacks) if wootters_stacks else np.empty((0, 4, 4), dtype=complex)
    assert_same_bits(roots.view(float), read[refused].view(float))
