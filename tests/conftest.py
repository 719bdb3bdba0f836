import contextlib
import json

import numpy as np
import pytest


def ginibre(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Random density matrix G G^dag / Tr with G of shape (4, rank)."""
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary: Q of a Ginibre matrix, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def local_rotation(rng: np.random.Generator) -> np.ndarray:
    """U_A x U_B for Haar-random one-qubit unitaries."""
    return np.kron(haar_unitary(rng), haar_unitary(rng))


def random_qubit(rng: np.random.Generator, pure: bool) -> np.ndarray:
    """A random one-qubit density matrix, pure or of full rank."""
    g = rng.standard_normal((2, 1 if pure else 2)) + 1j * rng.standard_normal((2, 1 if pure else 2))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def x_state_mat(diag, c14: complex, c23: complex) -> np.ndarray:
    """The X-state matrix with diagonal ``diag`` and coherences rho14 = c14, rho23 = c23."""
    mat = np.diag(np.asarray(diag, dtype=float)).astype(complex)
    mat[0, 3], mat[1, 2] = c14, c23
    mat[3, 0], mat[2, 1] = np.conj(c14), np.conj(c23)
    return mat


def pure_ab(b: float) -> np.ndarray:
    """The pure state a|00> + b|11>, a = sqrt(1 - b^2)."""
    vec = np.zeros(4, dtype=complex)
    vec[0], vec[3] = np.sqrt(1.0 - b * b), b
    return np.outer(vec, vec.conj())


def fast_and_slow_rows(rng: np.random.Generator, family: str, qs: np.ndarray) -> np.ndarray:
    """States (M, 4, 4) evolved over qs, in random order: rows on which ``measures._jacobi``
    stops after 0-2 sweeps (Werner and MEMS states under local unitaries, X-states) among
    rows that take every sweep (Ginibre states of rank 3 and 4)."""
    from qnl.channels import evolve_grid
    from qnl.states import MemsWeights, mems, werner

    rotated = [werner(0.5).mat, werner(0.9).mat, mems(MemsWeights(0.6, 0.2, 0.15, 0.05)).mat,
               mems(MemsWeights(0.4, 0.3, 0.2, 0.1)).mat]
    mats = [u @ mat @ u.conj().T for mat, u in ((m, local_rotation(rng)) for m in rotated)]
    mats += [x_state_mat((0.4, 0.1, 0.1, 0.4), 0.3, 0.05j), x_state_mat((0.25,) * 4, 0.2, 0.0)]
    mats += [ginibre(rng, 3), ginibre(rng, 4)]
    rhos = np.concatenate([evolve_grid(mat, family, qs) for mat in mats])
    return rhos[rng.permutation(len(rhos))]


def ginibre_density_stack(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrices G G^dag / Tr, stacked (n, 4, 4)."""
    g = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    mats = g @ np.conj(np.swapaxes(g, -1, -2))
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    return mats / tr[:, None, None]


def write_state(mat: np.ndarray, path) -> None:
    """Write a 4x4 matrix as the {"re": 4x4, "im": 4x4} row-major file ``load_state`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"re": np.real(mat).tolist(), "im": np.imag(mat).tolist()}, fh)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Two float arrays are equal bit for bit: NaN equals NaN, 0.0 differs from -0.0."""
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))


def printed(values: np.ndarray) -> list[str]:
    """Each float of ``values``, in ravel order, as ``cmd_scan`` prints it: its %.12g
    bytes, from one ``sampling.csv_blocks`` pass over a column of them."""
    from qnl.sampling import csv_blocks

    return "".join(csv_blocks(np.ravel(values)[:, None])).split("\n")[:-1]


def assert_scan_rows(table: np.ndarray, reference: np.ndarray, state_mat: np.ndarray,
                     family: str) -> None:
    """``scan`` rows (q, C, F, B) against a reference that took C, F and B from LAPACK at every row.

    q bit for bit. C, F and B print the reference's %.12g bytes, and each lies
    within the bound that ``jacobi_concurrence`` or ``jacobi_fidelity_bell``
    gives its row.
    """
    from qnl.channels import evolve_grid
    from qnl.measures import correlation_matrix_stack, jacobi_concurrence, jacobi_fidelity_bell

    assert_same_bits(table[:, 0], reference[:, 0])
    got, want = table[:, 1:], reference[:, 1:]
    lines = printed(got), printed(want)
    differ = [] if lines[0] == lines[1] else [i for i, (a, b) in enumerate(zip(*lines)) if a != b]
    assert not differ, f"{len(differ)} printed C/F/B differ, first {got.flat[differ[0]]!r} " \
                       f"against {want.flat[differ[0]]!r}"
    evolved = evolve_grid(state_mat, family, table[:, 0])
    _, c_err = jacobi_concurrence(evolved)
    _, fb_err = jacobi_fidelity_bell(correlation_matrix_stack(evolved))
    assert np.all(np.abs(got - want) <= np.column_stack([c_err, fb_err.T]))


@contextlib.contextmanager
def lapack_perturbed(k: float, seed: int):
    """Within the block, each result of ``np.linalg.svd`` (its singular values),
    ``eigh`` and ``eigvalsh`` (their eigenvalues) and ``det`` is multiplied by
    1 + k eps u, u uniform in [-1, 1] from a generator seeded with ``seed``.

    A stand-in for another LAPACK build, which rounds the last bits of these
    results differently; the library calls them through ``np.linalg``.
    """
    gen = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    original = {name: getattr(np.linalg, name) for name in ("svd", "eigh", "eigvalsh", "det")}

    def nudge(x):
        return x * (1.0 + k * eps * gen.uniform(-1.0, 1.0, size=np.shape(x)))

    def svd(a, *args, **kwargs):
        out = original["svd"](a, *args, **kwargs)
        return nudge(out) if isinstance(out, np.ndarray) else out._replace(S=nudge(out.S))

    def eigh(a, *args, **kwargs):
        out = original["eigh"](a, *args, **kwargs)
        return out._replace(eigenvalues=nudge(out.eigenvalues))

    wrapped = {"svd": svd, "eigh": eigh,
               "eigvalsh": lambda *args, **kwargs: nudge(original["eigvalsh"](*args, **kwargs)),
               "det": lambda a: nudge(original["det"](a))}
    try:
        for name, fn in wrapped.items():
            setattr(np.linalg, name, fn)
        yield
    finally:
        for name, fn in original.items():
            setattr(np.linalg, name, fn)


def x_parts(entries: np.ndarray, family: str) -> np.ndarray:
    """The (A, B, C) parts (18, N) of X entries (6, N), the one product ``x_thresholds`` forms per block."""
    from qnl.thresholds import _x_block

    return np.dot(_x_block(family), entries)


def x_entries(mats: np.ndarray) -> np.ndarray:
    """X entries (6, ...) of X-state matrices (..., 4, 4), one entry per row.

    The rows are rho11, rho22, rho33, rho44, |rho14|, |rho23| (``X_FLAT``);
    entries off the diagonal and the anti-diagonal are ignored.
    """
    from qnl.channels import X_FLAT

    flat = mats.reshape(mats.shape[:-2] + (16,))[..., X_FLAT]
    return np.moveaxis(np.concatenate([flat[..., :4].real, np.abs(flat[..., 4:])], axis=-1), -1, 0)


def edge_x_entries(rng: np.random.Generator, n: int) -> np.ndarray:
    """X entries (6, n) of random X-states: some at the PSD bound, some MEMS (|rho14| = 0),
    some with subnormal coherences and some with a subnormal rho44.

    Every column is a state: a column whose rho44 is scaled down has its
    populations renormalised before the coherences are bounded by them.
    """
    d = rng.dirichlet(np.ones(4), size=n).T
    r = rng.uniform(size=(2, n))
    r[:, ::5] = 1.0
    r[0, 1::5] = 0.0
    r[:, 2::5] *= 1e-310
    d[3, 3::5] *= 1e-310
    d[:, 3::5] /= d[:, 3::5].sum(axis=0)
    return np.vstack([d, r * np.sqrt([d[0] * d[3], d[1] * d[2]])])


def partial_transpose_b(rho: np.ndarray) -> np.ndarray:
    """Transpose qubit B's indices; works on (4, 4) or stacked (n, 4, 4)."""
    if rho.ndim == 2:
        return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    n = rho.shape[0]
    return rho.reshape(n, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(n, 4, 4)


def recorded_stacks(monkeypatch, name: str) -> list[np.ndarray]:
    """Every stack that ``thresholds`` passes to its kernel ``name``, in call order."""
    from qnl import thresholds

    stacks = []
    kernel = getattr(thresholds, name)

    def recorded(rhos):
        stacks.append(np.array(rhos))
        return kernel(rhos)

    monkeypatch.setattr(thresholds, name, recorded)
    return stacks


@pytest.fixture
def wootters_stacks(monkeypatch):
    """Every stack that ``thresholds`` passes to ``wootters_roots_stack``, in call order."""
    return recorded_stacks(monkeypatch, "wootters_roots_stack")


@pytest.fixture
def concurrence_stacks(monkeypatch):
    """Every stack that ``thresholds`` passes to ``jacobi_concurrence``, in call order."""
    return recorded_stacks(monkeypatch, "jacobi_concurrence")


@pytest.fixture
def svd_stacks(monkeypatch):
    """Every stack that ``thresholds`` passes to ``correlation_singvals_stack``, in call order."""
    return recorded_stacks(monkeypatch, "correlation_singvals_stack")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
