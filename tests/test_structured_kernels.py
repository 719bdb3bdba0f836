"""The two array kernels under every ``scan`` row form only the products that are
not zero by structure (``evolve_grid`` one per Kraus operator and output entry),
and keep the floats of the one-einsum references
(``oracles.evolve_einsum``, ``oracles.correlation_einsum``) byte for byte,
signed zeros included: ``channels.evolve_grid`` and
``measures.correlation_matrix_stack``.
"""

import functools

import numpy as np
import pytest

import qnl.channels
from conftest import ginibre
from oracles import correlation_einsum, evolve_einsum
from qnl.channels import _KRAUS, FAMILIES, _kraus_ops, _table, evolve_grid, kraus_stack
from qnl.measures import correlation_matrix_stack
from qnl.states import MemsWeights, bell_singlet, mems, werner

SIZES = (1, 2, 3, 17, 1001, 4004, 4099)


def _grids() -> list[np.ndarray]:
    """Even and random grids of each size, the empty grid, and the blocks [0], [1] and [0, 1]."""
    rng = np.random.default_rng(17)
    grids = [np.linspace(0.0, 1.0, size) for size in SIZES]
    grids += [np.sort(rng.random(size)) for size in SIZES]
    return grids + [np.array(block, dtype=float) for block in ([], [0.0], [1.0], [0.0, 1.0])]


def _with_signed_zeros(mat: np.ndarray) -> np.ndarray:
    """The matrix with every zero float, real or imaginary, made -0.0."""
    floats = mat.astype(complex).view(float)
    floats[floats == 0.0] = -0.0
    return floats.view(complex)


def _states() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(28)
    plus = np.full((2, 2), 0.5)
    states = {f"ginibre-rank-{rank}": ginibre(rng, rank) for rank in (1, 2, 3, 4)}
    states.update({
        "werner": werner(0.7).mat,
        "mems": mems(MemsWeights(0.5, 0.3, 0.15, 0.05)).mat,
        "singlet": bell_singlet().mat,
        # Products with zero amplitudes: |0> x |+>, and |01>.
        "zero-plus": np.kron(np.diag([1.0, 0.0]), plus).astype(complex),
        "ket-01": np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex),
        "real-werner": werner(0.4).mat.real.copy(),
    })
    states["signed-zeros"] = _with_signed_zeros(states["zero-plus"])
    states["signed-singlet"] = _with_signed_zeros(states["singlet"])
    return states


GRIDS = _grids()
STATES = _states()


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("state", sorted(STATES))
def test_evolve_grid_is_the_einsum_bit_for_bit(family, state):
    mat = STATES[state]
    for qs in GRIDS:
        got, want = evolve_grid(mat, family, qs), evolve_einsum(mat, family, qs)
        assert got.shape == (qs.size, 4, 4) and got.dtype == complex and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), f"{qs.size} strengths"


def test_evolve_grid_scales_in_the_einsums_order(monkeypatch):
    # In the three families the non-zero entries of one M_k share their modulus
    # or one of them is 1, so the order of a product's two scalings never shows.
    # Here they differ; each entry is real or imaginary, as in the families.
    table = (
        ((0, (1.0, 0.0), 1.0, -1.0 / 3.0), (1, (-1.0, 0.0), 1.0, -0.7)),
        ((1, (0.0, 1.0), -0.0, 1.0 / 3.0), (0, (0.0, -1.0), -0.0, 0.7)),
    )
    name = "unequal-moduli"
    monkeypatch.setitem(_KRAUS, name, table)
    monkeypatch.setitem(FAMILIES, name, functools.partial(_kraus_ops, name))
    monkeypatch.setattr(qnl.channels, "_table", functools.cache(_table.__wrapped__))
    ops = kraus_stack(name, np.array([0.3]))[0]
    assert abs(ops[0, 0, 0]) != abs(ops[0, 1, 1]) and abs(ops[1, 0, 1]) != abs(ops[1, 1, 0])
    for state, mat in STATES.items():
        for qs in GRIDS:
            got, want = evolve_grid(mat, name, qs), evolve_einsum(mat, name, qs)
            assert got.tobytes() == want.tobytes(), f"{state}, {qs.size} strengths"


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("state", sorted(STATES))
def test_correlation_matrix_stack_is_the_einsum_bit_for_bit(family, state):
    for qs in GRIDS:
        stack = evolve_einsum(STATES[state], family, qs)
        got, want = correlation_matrix_stack(stack), correlation_einsum(stack)
        assert got.shape == (qs.size, 3, 3)
        assert got.tobytes() == want.tobytes(), f"{qs.size} strengths"


@pytest.mark.parametrize("size", SIZES)
def test_correlation_matrix_stack_on_signed_zero_stacks(size):
    # Sparse stacks, not states: every zero float -0.0, the others of both signs.
    rng = np.random.default_rng(size)
    floats = rng.standard_normal((size, 4, 4, 2)) * (rng.random((size, 4, 4, 2)) < 0.4)
    floats[floats == 0.0] = -0.0
    stack = floats.view(complex)[..., 0]
    assert correlation_matrix_stack(stack).tobytes() == correlation_einsum(stack).tobytes()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_evolve_grid_takes_a_list_of_strengths(family):
    mat = STATES["ginibre-rank-3"]
    strengths = [0.0, 0.25, 0.5, 1.0]
    got = evolve_grid(mat, family, strengths)
    assert got.tobytes() == evolve_grid(mat, family, np.array(strengths)).tobytes()
    assert got.tobytes() == evolve_einsum(mat, family, np.array(strengths)).tobytes()


def test_correlation_matrix_stack_reads_a_real_stack_as_complex():
    real = np.stack([werner(p).mat.real for p in (0.0, 0.3, 1.0)])
    got = correlation_matrix_stack(real)
    assert got.tobytes() == correlation_einsum(real).tobytes()
    assert got.tobytes() == correlation_matrix_stack(real.astype(complex)).tobytes()
    # The Werner T is -p I; a real stack read as pairs of floats would not give it.
    np.testing.assert_allclose(got, [-p * np.eye(3) for p in (0.0, 0.3, 1.0)], atol=1e-15)
    # Strided input is read by value too.
    stack = evolve_einsum(STATES["ginibre-rank-4"], "depolarizing", np.linspace(0.0, 1.0, 9))
    assert correlation_matrix_stack(stack[::2]).tobytes() == correlation_einsum(stack[::2]).tobytes()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_columns_pick_each_rows_nonzero_entry(family):
    columns = _table(family)[0]
    assert _table(family)[0] is columns and not columns.flags.writeable  # built once, read-only
    ops = kraus_stack(family, np.array([0.5]))[0]
    assert columns.shape == (ops.shape[0], 2)
    picked = np.take_along_axis(ops, columns[..., None], axis=-1)[..., 0]
    has_entry = (ops != 0.0).any(axis=-1)
    assert has_entry.any() and (picked[has_entry] != 0.0).all()
    assert (np.count_nonzero(ops, axis=-1) <= 1).all()
