"""``scan`` takes F and B from a Jacobi SVD wherever their printed digits are certain.

``measures.jacobi_fidelity_bell`` gives F and B of each correlation matrix T
from a one-sided Jacobi SVD, with a bound on their distance to the F and B of
LAPACK's singular values. ``thresholds._prints_alike`` keeps a row where every
float within that bound prints the same %.12g digits; ``scan`` sends the other
rows to ``correlation_singvals_stack``. The tests:

  * kernel: on over 10^6 matrices, every certified row prints LAPACK's bytes,
    and every row lies within half its bound of LAPACK's floats, so the bound
    has a factor of 2 to spare;
  * residual term: after one sweep the columns are far from orthogonal, and
    the bound still certifies no wrong byte;
  * diagonal T: every rotation is the identity, so F and B are those of the
    sorted |t_ii| bit for bit, also among rows that rotate; and the kernel
    rotates a copy, so neither Jacobi front end changes the array it is given;
  * early stop: a T whose columns start orthogonal to rounding (Werner states
    under local unitaries) gives its column norms bit for bit, and where the
    sweeps stop before the cap a larger cap changes no float of either kernel;
  * certificate: floats within the bound of a rounding midpoint or of a power
    of ten are refused, and every accepted float prints like its neighbours;
  * routing: which rows reach ``correlation_singvals_stack``, and that a grid
    cut into any blocks gives the same floats, as does a stack that mixes rows
    whose sweeps stop early with rows that take every sweep.
"""

import numpy as np
import pytest
from conftest import (assert_same_bits, fast_and_slow_rows, ginibre, local_rotation, printed,
                      x_state_mat)

from qnl import measures
from qnl.channels import FAMILIES, evolve_grid
from qnl.measures import (correlation_matrix_stack, correlation_measures, jacobi_concurrence,
                          jacobi_fidelity_bell)
from qnl.states import DensityMatrix, bell_singlet, werner
from qnl.thresholds import _BLOCK_POINTS, _prints_alike, scan

KERNEL_ROWS = 1_000_000
# Rows of general (Ginibre) states among them, on which the certified share is measured.
GENERAL_ROWS = 300_000
GRID = np.linspace(0.0, 1.0, 4004)
# Share of the general rows that must certify, or the LAPACK fallback costs more than it saves.
CERTIFIED_SHARE = 0.9


def lapack_fidelity_bell(t: np.ndarray) -> np.ndarray:
    """F and B, rows (2, M), of the LAPACK singular values of t (M, 3, 3): the floats ``scan`` printed."""
    _, f, b = correlation_measures(np.linalg.svd(t, compute_uv=False).T)
    return np.stack([f, b])


def check_kernel(t: np.ndarray) -> np.ndarray:
    """Assert the kernel's promises on the matrices t (M, 3, 3); returns the certified rows."""
    fb, err = jacobi_fidelity_bell(t)
    lapack = lapack_fidelity_bell(t)
    assert np.all(np.abs(fb - lapack) <= 0.5 * err)
    certain = _prints_alike(fb, err)
    assert printed(fb[:, certain]) == printed(lapack[:, certain])
    return certain


def special_stacks(rng: np.random.Generator):
    """Correlation matrices of the cases where an SVD is hardest, as (M, 3, 3) stacks."""
    near_one = np.concatenate([np.linspace(1.0 - 1e-6, 1.0, 2001), 1.0 - np.logspace(-16, -9, 200)])
    # T = -p I and T = -p O, exactly degenerate: Werner states, also under local unitaries.
    for p in np.linspace(0.0, 1.0, 11):
        mat = werner(p).mat
        u = local_rotation(rng)
        for family in sorted(FAMILIES):
            yield correlation_matrix_stack(evolve_grid(mat, family, GRID))
            yield correlation_matrix_stack(evolve_grid(u @ mat @ u.conj().T, family, GRID))
    ps = np.linspace(0.0, 1.0, 100_001)
    yield -ps[:, None, None] * np.eye(3)
    o = np.array([np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2000)])
    yield ps[:2000, None, None] * o
    # Rank 1 and 2: amplitude damping near q = 1, products, and T = a b^T and a b^T + c d^T.
    for k in range(12):
        yield correlation_matrix_stack(evolve_grid(ginibre(rng, 1 + k % 4), "amplitude-damping",
                                                   near_one))
    for _ in range(10):
        a, b = ginibre(rng, 1 + rng.integers(2))[:2, :2], ginibre(rng, 1)[:2, :2]
        a, b = a / np.trace(a).real, b / np.trace(b).real
        for family in sorted(FAMILIES):
            yield correlation_matrix_stack(evolve_grid(np.kron(a, b), family, GRID))
    vecs = rng.standard_normal((4, 20_000, 3))
    yield vecs[0][:, :, None] * vecs[1][:, None, :]
    yield (vecs[0][:, :, None] * vecs[1][:, None, :] + vecs[2][:, :, None] * vecs[3][:, None, :]) / 3
    # Tiny T and T = 0: depolarizing noise at q -> 1, the singlet fully damped.
    for p in (1.0, 0.9, 0.5):
        yield correlation_matrix_stack(evolve_grid(werner(p).mat, "depolarizing", near_one))
    yield correlation_matrix_stack(evolve_grid(bell_singlet().mat, "amplitude-damping", near_one))
    yield np.zeros((10, 3, 3))
    # X-states with exact zeros and with subnormal entries.
    for c14, c23 in ((0.2, 0.0), (0.0, 0.1j), (0.25, 0.25), (1e-310, 0.1), (1e-310, 1e-310 + 1e-310j)):
        for diag in ((0.25, 0.25, 0.25, 0.25), (0.4, 0.1, 0.1, 0.4), (0.5, 0.0, 0.2, 0.3)):
            mat = x_state_mat(diag, c14, c23)
            if np.linalg.eigvalsh(mat)[0] < 0.0:
                continue
            for family in sorted(FAMILIES):
                yield correlation_matrix_stack(evolve_grid(mat, family, GRID))
    tiny = np.zeros((6, 3, 3))
    tiny[0, 0, 0] = 1e-310
    tiny[1, 0, 0], tiny[1, 1, 1] = 0.5, 1e-310
    tiny[2] = 1e-310 * np.eye(3)
    tiny[3, 2, 2], tiny[3, 0, 1] = 1e-200, 1e-160
    tiny[4, 0, 0], tiny[4, 1, 2] = 0.7, 5e-324
    tiny[5] = 1e-150 * rng.standard_normal((3, 3))
    yield tiny


def test_kernel_prints_lapack_bytes_on_every_certified_row():
    rng = np.random.default_rng(2600)
    rows = 0
    for t in special_stacks(rng):
        check_kernel(t)
        rows += len(t)
    certified = total = 0
    while rows < KERNEL_ROWS or total < GENERAL_ROWS:
        mat = ginibre(rng, 1 + total // GRID.size % 4)
        for family in sorted(FAMILIES):
            certain = check_kernel(correlation_matrix_stack(evolve_grid(mat, family, GRID)))
            certified += certain.sum()
            total += certain.size
        rows += 3 * GRID.size
    assert rows >= KERNEL_ROWS
    assert certified >= CERTIFIED_SHARE * total


def test_zero_and_subnormal_rows_are_not_certain():
    t = np.zeros((4, 3, 3))
    t[1, 0, 0] = 1e-310
    t[2] = 1e-310 * np.eye(3)
    t[3, 2, 2] = 1e-200
    fb, err = jacobi_fidelity_bell(t)
    assert not _prints_alike(fb, err).any()


def test_one_sweep_leaves_residuals_that_the_bound_carries(monkeypatch):
    # One sweep leaves cosines far above rounding between the columns; the
    # residual term widens the bound of those rows, and no wrong byte is certified.
    monkeypatch.setattr(measures, "_JACOBI_SWEEPS", 1)
    rng = np.random.default_rng(2601)
    t = np.concatenate([correlation_matrix_stack(evolve_grid(ginibre(rng, 1 + k % 4), family, GRID))
                        for k in range(8) for family in sorted(FAMILIES)])
    certain = check_kernel(t)
    _, err = jacobi_fidelity_bell(t)
    slack_only = 3.0 * measures.SINGVAL_SLACK * np.finfo(float).eps * np.linalg.norm(t, axis=(1, 2))
    assert np.mean(err[1] > 2.0 * slack_only) > 0.5
    assert 0 < certain.sum() < certain.size


def test_diagonal_t_gives_the_sorted_diagonal_bit_for_bit(rng):
    # X-states with real coherences have a diagonal T under every family, so
    # each of their rotations is the identity, also in blocks whose other
    # (Ginibre) rows rotate, and their singular values are the |t_ii| exactly.
    x_rows = np.concatenate([evolve_grid(x_state_mat(diag, c14, c23), family, GRID)
                             for diag, c14, c23 in (((0.25, 0.25, 0.25, 0.25), 0.2, 0.0),
                                                    ((0.4, 0.1, 0.1, 0.4), 0.3, -0.05),
                                                    ((0.5, 0.0, 0.2, 0.3), 0.0, 0.1))
                             for family in sorted(FAMILIES)])
    general = np.concatenate([evolve_grid(ginibre(rng, 1 + k), family, GRID[::3])
                              for k in range(4) for family in sorted(FAMILIES)])
    order = rng.permutation(len(x_rows) + len(general))
    t = correlation_matrix_stack(np.concatenate([x_rows, general])[order])
    is_x = order < len(x_rows)
    diag = np.abs(np.diagonal(t[is_x], axis1=1, axis2=2))
    assert not (t[is_x] * (1.0 - np.eye(3))).any()
    _, f, b = correlation_measures(-np.sort(-diag, axis=1).T)
    fb, _ = jacobi_fidelity_bell(t)
    assert_same_bits(fb[:, is_x], np.stack([f, b]))
    # The Ginibre rows' T are not diagonal, so the block's rotations run; X
    # rows alone skip them all.
    assert (t[~is_x] * (1.0 - np.eye(3))).any()
    for k in rng.choice(np.flatnonzero(is_x), size=50, replace=False):
        assert_same_bits(jacobi_fidelity_bell(t[k:k + 1])[0], fb[:, k:k + 1])


@pytest.mark.parametrize("size", [0, 1, 4004])
def test_front_ends_leave_their_input_alone(size, rng):
    # The shared Jacobi kernel rotates its columns in place; each front end
    # gives it a copy. T also comes laid out as its own columns, the layout
    # that a copy-free transpose would hand to the kernel as it is.
    rhos = evolve_grid(ginibre(rng, 4), "depolarizing", GRID[:size])
    t = correlation_matrix_stack(rhos)
    for stack in (t, np.ascontiguousarray(t.transpose(2, 1, 0)).transpose(2, 1, 0)):
        before = stack.copy()
        jacobi_fidelity_bell(stack)
        assert_same_bits(stack, before)
    before = rhos.copy()
    jacobi_concurrence(rhos)
    assert_same_bits(rhos.view(float), before.view(float))


def decimal_midpoints(rng: np.random.Generator, exponents) -> np.ndarray:
    """Floats nearest to x.xxxxxxxxxxx5 10^e: halfway between two 12-digit decimals."""
    digits = rng.integers(10**11, 10**12, size=200)
    return np.array([float(f"{d}5e{e - 11 - 1}") for e in exponents for d in digits])


def test_certificate_refuses_midpoints_and_powers_of_ten():
    rng = np.random.default_rng(2602)
    mids = decimal_midpoints(rng, range(-6, 1))
    err = 4e-16 * mids
    for shift in (-0.9, -0.3, 0.0, 0.3, 0.9):
        x = mids + shift * err
        assert not _prints_alike(np.stack([x, np.full_like(x, 0.7)]), np.stack([err, err])).any()
    powers = 10.0 ** np.arange(-8, 1)
    for shift in (-0.9, 0.0, 0.9):
        x = powers * (1.0 + shift * 1e-15)
        assert not _prints_alike(np.stack([x, x]), np.stack([2e-15 * x, 2e-15 * x])).any()
    for bad in (0.0, np.nan):
        assert not _prints_alike(np.array([[bad], [0.7]]), np.array([[1e-20], [1e-20]])).any()


def test_certificate_accepts_only_floats_whose_neighbours_print_alike():
    rng = np.random.default_rng(2603)
    x = 10.0 ** rng.uniform(-6.0, 0.5, size=200_000)
    err = x * 10.0 ** rng.uniform(-16.0, -11.0, size=x.size)
    ok = _prints_alike(np.stack([x, x]), np.stack([err, err]))
    assert 0.3 < ok.mean() < 0.99
    for side in (x[ok] - err[ok], x[ok] + err[ok]):
        assert printed(side) == printed(x[ok])
    # Away from midpoints and decade ends by much more than err: accepted.
    centre = decimal_midpoints(rng, range(-6, 1)) + 2.5e-12 * 10.0 ** np.repeat(np.arange(-6, 1), 200)
    assert _prints_alike(np.stack([centre, centre]), np.stack([1e-16 * centre] * 2)).all()


@pytest.mark.parametrize("state, family", [(bell_singlet(), "amplitude-damping"),
                                           (werner(0.9), "depolarizing")])
def test_zero_correlation_rows_reach_lapack(svd_stacks, state, family):
    # Fully damped or depolarized, T = 0 at q = 1.
    scan(state, family, np.array([0.3, 1.0]))
    read = np.concatenate(svd_stacks)
    assert_same_bits(read[-1].view(float), evolve_grid(state.mat, family, np.array([1.0]))[0].view(float))


def test_midpoint_row_reaches_lapack(svd_stacks):
    # Werner states have T = -p I, so F = (1 + p)/2: at p = 0.500000000001 it is
    # the midpoint 0.7500000000005 of two 12-digit decimals, up to rounding.
    table = scan(werner(0.500000000001), "phase-damping", np.array([0.0]))
    assert [len(s) for s in svd_stacks] == [1]
    assert abs(table[0, 2] - 0.7500000000005) < 1e-15


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lapack_reads_exactly_the_uncertain_rows(svd_stacks, family, rng):
    state = DensityMatrix(ginibre(rng, 2))
    qs = np.linspace(0.0, 1.0, 10007)
    table = scan(state, family, qs)
    fb, err = jacobi_fidelity_bell(correlation_matrix_stack(evolve_grid(state.mat, family, qs)))
    uncertain = ~_prints_alike(fb, err)
    assert 0 < uncertain.sum() < (1.0 - CERTIFIED_SHARE) * qs.size
    read = np.concatenate(svd_stacks)
    assert_same_bits(read.view(float), evolve_grid(state.mat, family, qs[uncertain]).view(float))
    assert_same_bits(table[~uncertain, 2:], fb.T[~uncertain])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_blocks_do_not_mix_rows(family, rng):
    # The same strengths cut into other blocks, down to single rows, give the same floats.
    state = DensityMatrix(ginibre(rng, 3))
    qs = np.linspace(0.0, 1.0, 2 * _BLOCK_POINTS + 3)
    whole = scan(state, family, qs)
    cuts = [0, 1, 2, 700, _BLOCK_POINTS - 1, _BLOCK_POINTS + 5, qs.size - 2, qs.size]
    pieces = [scan(state, family, qs[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    assert_same_bits(np.concatenate(pieces), whole)
    # At q = 1 amplitude damping leaves T = a (0, 0, 1): its row skips the
    # rotations that every other row of its block takes.
    for k in [*rng.choice(qs.size, size=60, replace=False), qs.size - 1]:
        assert_same_bits(scan(state, family, qs[k:k + 1]), whole[k:k + 1])
    # Rows whose sweeps stop early among rows that take every sweep: each
    # row's floats are those it gets alone, though its stack sweeps on.
    t = correlation_matrix_stack(fast_and_slow_rows(rng, family, qs[::16]))
    whole = np.concatenate(jacobi_fidelity_bell(t))
    cuts = [0, 1, 2, 700, 1001, 2003, len(t) - 1, len(t)]
    pieces = [np.concatenate(jacobi_fidelity_bell(t[a:b])) for a, b in zip(cuts[:-1], cuts[1:])]
    assert_same_bits(np.concatenate(pieces, axis=1), whole)
    for k in rng.choice(len(t), size=200, replace=False):
        assert_same_bits(np.concatenate(jacobi_fidelity_bell(t[k:k + 1])), whole[:, k:k + 1])


def test_orthogonal_columns_give_their_norms_bit_for_bit(rng):
    # T = -p O_A O_B^T of a Werner state under a local unitary has columns
    # orthogonal to rounding, far below the floor of the identity rule, so no
    # row turns: the singular values are the column norms T starts with.
    mats = []
    for p in np.linspace(0.3, 1.0, 1401):
        u = local_rotation(rng)
        mats.append(u @ werner(p).mat @ u.conj().T)
    t = correlation_matrix_stack(np.array(mats))
    norms = np.sqrt((t[:, 0] * t[:, 0] + t[:, 1] * t[:, 1]) + t[:, 2] * t[:, 2])
    _, f, b = correlation_measures(-np.sort(-norms, axis=1).T)
    fb, _ = jacobi_fidelity_bell(t)
    assert_same_bits(fb, np.stack([f, b]))


def test_sweeps_stop_by_themselves(monkeypatch, rng):
    # On Werner states under local unitaries and on X-states, under every
    # family, both kernels stop before the cap: raising it from 4 to 12
    # changes no float. One sweep does not suffice: the C rows still turn.
    mats = [x_state_mat((0.4, 0.1, 0.1, 0.4), 0.3, 0.05j), x_state_mat((0.5, 0.0, 0.2, 0.3), 0.0, 0.1)]
    for p in (0.4, 0.7, 0.95):
        u = local_rotation(rng)
        mats.append(u @ werner(p).mat @ u.conj().T)
    rhos = np.concatenate([evolve_grid(mat, family, GRID[::4]) for mat in mats
                           for family in sorted(FAMILIES)])
    t = correlation_matrix_stack(rhos)
    out = {}
    for sweeps in (1, 4, 12):
        monkeypatch.setattr(measures, "_JACOBI_SWEEPS", sweeps)
        out[sweeps] = np.concatenate([*jacobi_fidelity_bell(t), np.stack(jacobi_concurrence(rhos))])
    assert_same_bits(out[12], out[4])
    assert not np.array_equal(out[1][4:].view(np.uint64), out[4][4:].view(np.uint64))
