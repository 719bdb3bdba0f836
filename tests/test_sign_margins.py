"""The locator's sign margins against the spectra they replace.

``thresholds._kraus_margins`` evolves a state as rho(q) = A + q B + sqrt(1-q) C,
with A, B and C taken from three Kraus evolutions (``_affine_coefficients``),
and reads entanglement from -det(rho^{T_B}). ``thresholds._x_margins`` reads
the same determinant of X-states in closed form. Checked here:

- the affine evolution equals ``evolve_grid`` at random strengths under every
  family, so a family that is not affine in (1, q, sqrt(1-q)) fails;
- -det(rho^{T_B}) has the sign of the unclamped Wootters concurrence wherever
  that is clearly non-zero, on Ginibre states of rank 1 to 4;
- the Chebyshev interpolant the Kraus provider reads det(rho^{T_B}) from is
  within 5e-17 of the exact determinant of the same floats (``fractions``);
- boundary states, where the determinant is rounding noise (pure product
  states, q = 1 under amplitude damping), keep the threshold sets the spectra
  gave: those points are read from ``_curves``;
- the four alive margins are nested, G => B => F => C, for both providers:
  F > F_lhv gives B > 2, B > 2 gives N > 1, and N > 1 means entangled
  (de Vicente, QIC 7, 624 (2007));
- ``correlation_sign_margins``, which gives the Kraus F, B and G rows from
  invariants of T without an SVD, has the signs of the SVD margins wherever
  those are clear of rounding: on Ginibre, X, product (rank-one T) and
  rotated Werner and MEMS states, on a triple-degenerate T, on any matrix,
  and at N = 1 exactly;
- a point's margins depend only on (state, q), not on the other points of
  the call, for both providers, which multi-level bisection relies on.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import partial_transpose_b
from hypothesis import given, settings, strategies as st

from qnl.channels import FAMILIES, evolve_grid, x_entries
from qnl.measures import (
    GISIN_BOUND,
    alive_margins,
    concurrence_of_roots,
    correlation_matrix_stack,
    correlation_sign_margins,
    correlation_measures,
    wootters_roots_stack,
)
from qnl.states import MemsWeights, bell_singlet, mems, validate, werner
from qnl.thresholds import (
    DET_ROUNDING,
    PRESCAN_POINTS,
    ThresholdSet,
    _affine_coefficients,
    _curves,
    _kraus_margins,
    _locate,
    _prescan,
    _x_margins,
    threshold_set,
)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
GRID = np.linspace(0.0, 1.0, 201)
# Rounding slack of the nesting checks: on the N/F/B rows, and on -det(rho^{T_B}).
SLACK = 1e-9
DET_SLACK = 1e-15

seeds = st.integers(0, 2**32 - 1)
families = st.sampled_from(sorted(FAMILIES))
strengths = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16).map(np.array)


def ginibre(rng: np.random.Generator, rank: int) -> np.ndarray:
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def x_state(rng: np.random.Generator) -> np.ndarray:
    d = rng.dirichlet(np.ones(4))
    mat = np.diag(d).astype(complex)
    mat[0, 3] = rng.uniform() * math.sqrt(d[0] * d[3]) * np.exp(2j * math.pi * rng.uniform())
    mat[1, 2] = rng.uniform() * math.sqrt(d[1] * d[2]) * np.exp(2j * math.pi * rng.uniform())
    mat[3, 0], mat[2, 1] = np.conj(mat[0, 3]), np.conj(mat[1, 2])
    return mat


STATES = {
    "ginibre": lambda rng: ginibre(rng, int(rng.integers(1, 5))),
    "x": x_state,
    "mems": lambda rng: mems(MemsWeights(*rng.dirichlet(np.ones(4)))).mat,
    "werner": lambda rng: werner(rng.uniform()).mat,
}


def kraus_margins(mat: np.ndarray, family: str, qs: np.ndarray) -> np.ndarray:
    return _kraus_margins(mat, family)(np.zeros(qs.size, dtype=np.intp), qs)


@PROPERTY
@given(seed=seeds, rank=st.integers(1, 4), family=families, qs=strengths)
def test_affine_evolution_equals_evolve_grid(seed, rank, family, qs):
    mat = ginibre(np.random.default_rng(seed), rank)
    a, b, c = _affine_coefficients(mat, family)
    q = qs[:, None, None]
    np.testing.assert_allclose(
        a + q * b + np.sqrt(1.0 - q) * c, evolve_grid(mat, family, qs), rtol=0, atol=1e-15
    )


@PROPERTY
@given(seed=seeds, rank=st.integers(1, 4), family=families)
def test_det_row_has_the_sign_of_the_concurrence(seed, rank, family):
    mat = ginibre(np.random.default_rng(seed), rank)
    evolved = evolve_grid(mat, family, GRID)
    entangled = kraus_margins(mat, family, GRID)[3]
    det = np.linalg.det(partial_transpose_b(evolved)).real
    # Points at rounding level read the Wootters sign times DET_ROUNDING.
    fallback = np.isin(np.abs(entangled), (0.0, DET_ROUNDING))
    np.testing.assert_allclose(entangled[~fallback], -det[~fallback], rtol=0, atol=1e-15)
    assert np.all(np.abs(det[fallback]) <= 2 * DET_ROUNDING)
    c = concurrence_of_roots(wootters_roots_stack(evolved))
    clear = np.abs(c) > 1e-7
    np.testing.assert_array_equal(np.sign(entangled[clear]), np.sign(c[clear]))


# Permutations of four indices with their signs, for the Leibniz expansion.
LEIBNIZ = [(p, (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)))
           for p in itertools.permutations(range(4))]
# Largest distance of the interpolated determinant from the exact one. Over
# 16,000 points of Ginibre states of rank 1 to 4 the largest seen was 4.2e-17,
# and LAPACK's LU determinant of the same matrices reached 3.3e-17.
EXACT_DET_BOUND = 5e-17


def exact_det(parts: np.ndarray, q: float) -> Fraction:
    """det(A + q B + sqrt(1-q) C) of complex parts (3, 4, 4) in exact arithmetic.

    The weights are the floats the margins provider evaluates at, taken exactly.
    """
    weights = [Fraction(1), Fraction(q), Fraction(float(np.sqrt(1.0 - q)))]

    def entry(i, j):
        return (sum(w * Fraction(float(p[i, j].real)) for w, p in zip(weights, parts)),
                sum(w * Fraction(float(p[i, j].imag)) for w, p in zip(weights, parts)))

    mat = [[entry(i, j) for j in range(4)] for i in range(4)]
    total = Fraction(0)
    for perm, sign in LEIBNIZ:
        re, im = Fraction(1), Fraction(0)
        for i, j in enumerate(perm):
            a, b = mat[i][j]
            re, im = re * a - im * b, re * b + im * a
        total += sign * re
    return total


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_det_row_against_the_exact_determinant(family):
    # The Hermitian partial transpose has a real determinant; its imaginary
    # part is dropped, as the provider drops it.
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 1.0, PRESCAN_POINTS)
    for rank in (1, 1, 2, 2, 3, 3, 4, 4):
        mat = ginibre(rng, rank)
        parts = partial_transpose_b(_affine_coefficients(mat, family))
        qs = np.concatenate([[0.0, 0.75, 1.0], grid[::125], rng.uniform(size=8)])
        for q, entangled in zip(qs.tolist(), kraus_margins(mat, family, qs)[3].tolist()):
            exact = exact_det(parts, q)
            if abs(entangled) in (0.0, DET_ROUNDING):
                assert abs(exact) <= DET_ROUNDING + EXACT_DET_BOUND
            else:
                assert abs(Fraction(-entangled) - exact) <= EXACT_DET_BOUND, (rank, q)


PURE_PRODUCTS = {
    "00": np.kron([1.0, 0.0], [1.0, 0.0]),
    "+1": np.kron([1.0, 1.0], [0.0, 1.0]) / math.sqrt(2.0),
    "complex": np.kron([0.8, 0.6], [0.6, 0.8j]),
}
# On a product without zero entries in the computational basis, B - 2,
# F - 2/3 and the concurrence are exactly 0 along the path, and their rounding
# noise (~1e-8 for the Wootters concurrence) reads alive near q = 0.
SPECTRA_NOISE = pytest.mark.xfail(strict=True, reason="B, F and C are rounding noise")


def spectra_threshold_set(mat: np.ndarray, family: str, tol: float) -> ThresholdSet:
    """threshold_set read from ``_curves`` at every point: the spectra locator."""
    def margins(states, qs):
        c, f, b = _curves(evolve_grid(mat, family, qs))
        return alive_margins(f, b, c)

    found = _locate(margins, _prescan(margins, 0, tol)[None], tol)[0]
    return ThresholdSet(*(None if math.isnan(q) else q for q in found))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize(
    "name", [pytest.param(k, marks=SPECTRA_NOISE) if k == "complex" else k
             for k in sorted(PURE_PRODUCTS)]
)
def test_pure_product_states(name, family):
    # det(rho^{T_B}) is 0 up to rounding all along the path, and nothing is
    # alive at q = 0.
    psi = PURE_PRODUCTS[name]
    rho = validate(np.outer(psi, psi.conj()))
    assert np.all(np.abs(kraus_margins(rho.mat, family, GRID)[3]) <= DET_SLACK)
    assert threshold_set(rho, family, 1e-9) == ThresholdSet(0.0, 0.0, 0.0, 0.0)


@PROPERTY
@given(seed=seeds, family=families)
def test_products_keep_the_spectra_thresholds(seed, family):
    # Every point of a product is at rounding level, so the whole set is read
    # from the spectra, as before the determinant.
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    psi = np.kron(a, b)
    rho = validate(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real)
    assert threshold_set(rho, family, 1e-9) == spectra_threshold_set(rho.mat, family, 1e-9)


# The threshold sets the Wootters-root margins gave at tol 1e-9.
AMPLITUDE_DAMPING_SETS = {
    "singlet": (bell_singlet(),
                ThresholdSet(0.36241120958328243, 0.4999999995231629, 0.8284271245002749, None)),
    "werner 0.9": (werner(0.9),
                   ThresholdSet(0.2496254925727844, 0.382716049671173, 0.7948215174674987, None)),
}


@pytest.mark.parametrize("name", sorted(AMPLITUDE_DAMPING_SETS))
def test_amplitude_damping_at_q_one(name):
    # At q = 1 the state is a product with B in |0>, so the determinant is
    # rounding noise there; the last pre-scan cell is bracketed up to 1 - tol,
    # so q_C still reads None.
    rho, want = AMPLITUDE_DAMPING_SETS[name]
    assert abs(kraus_margins(rho.mat, "amplitude-damping", np.array([1.0]))[3, 0]) <= DET_SLACK
    assert threshold_set(rho, "amplitude-damping", 1e-9) == want


def check_nested(margins: np.ndarray) -> None:
    gisin, bell, fidelity, entangled = margins
    assert np.all(bell[gisin > SLACK] > -SLACK)
    assert np.all(fidelity[bell > SLACK] > -SLACK)
    assert np.all(entangled[fidelity > SLACK] > -DET_SLACK)


@PROPERTY
@given(seed=seeds, kind=st.sampled_from(sorted(STATES)), family=families, qs=strengths)
def test_margins_are_nested(seed, kind, family, qs):
    mat = STATES[kind](np.random.default_rng(seed))
    qs = np.concatenate([qs, GRID])
    check_nested(kraus_margins(mat, family, qs))
    if kind != "ginibre":
        states = np.zeros(qs.size, dtype=np.intp)
        check_nested(_x_margins(x_entries(mat[None]), family)(states, qs))


def local_unitary(rng: np.random.Generator) -> np.ndarray:
    def unitary():
        q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return np.kron(unitary(), unitary())


def rotated(mat: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    u = local_unitary(rng)
    return u @ mat @ u.conj().T


def mixed_product(rng: np.random.Generator) -> np.ndarray:
    # rho_A x rho_B: T = r s^T has rank one, and keeps it under every channel on B.
    qubits = []
    for _ in range(2):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        qubits.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    return np.kron(*qubits)


SIGN_STATES = {
    **STATES,
    "werner rotated": lambda rng: rotated(werner(rng.uniform()).mat, rng),
    "mems rotated": lambda rng: rotated(mems(MemsWeights(*rng.dirichlet(np.ones(4)))).mat, rng),
    "product": mixed_product,
}


def check_signs(t: np.ndarray) -> None:
    """correlation_sign_margins of T (M, 3, 3) against the margins of its SVD."""
    _, f, b = correlation_measures(np.linalg.svd(t, compute_uv=False))
    spectra = np.stack([f - GISIN_BOUND, b - 2.0, f - 2.0 / 3.0])
    signs = correlation_sign_margins(t.transpose(1, 2, 0))
    clear = np.abs(spectra) > 1e-12
    np.testing.assert_array_equal(signs[clear] > 0, spectra[clear] > 0)


@PROPERTY
@given(seed=seeds, kind=st.sampled_from(sorted(SIGN_STATES)), family=families, qs=strengths)
def test_sign_kernel_reads_the_svd_signs(seed, kind, family, qs):
    mat = SIGN_STATES[kind](np.random.default_rng(seed))
    check_signs(correlation_matrix_stack(evolve_grid(mat, family, np.concatenate([qs, GRID]))))


@PROPERTY
@given(p=st.floats(0.0, 1.0), qs=strengths)
def test_sign_kernel_on_a_triple_degenerate_spectrum(p, qs):
    # Depolarizing noise keeps the Werner T a multiple of the identity.
    t = correlation_matrix_stack(evolve_grid(werner(p).mat, "depolarizing",
                                             np.concatenate([qs, GRID])))
    np.testing.assert_allclose(t, t[:, :1, :1] * np.eye(3), rtol=0, atol=1e-15)
    check_signs(t)


@PROPERTY
@given(seed=seeds, scale=st.floats(0.1, 3.0))
def test_sign_kernel_on_any_matrix(seed, scale):
    # Beyond states, s1 may exceed the cut c: then g(c) can be positive while
    # N > c, and a > c^2 decides.
    check_signs(scale * np.random.default_rng(seed).standard_normal((200, 3, 3)))


def test_sign_kernel_at_n_equal_one():
    # Werner p = 1/3 has T = -I/3: N = 1 exactly, so F = 2/3 is dead, not alive.
    t = correlation_matrix_stack(werner(1.0 / 3.0).mat[None])
    gisin, bell, fidelity = correlation_sign_margins(t.transpose(1, 2, 0))[:, 0]
    assert gisin < 0.0 and bell < 0.0
    assert -1e-15 <= fidelity <= 0.0
    for family in sorted(FAMILIES):
        assert threshold_set(werner(1.0 / 3.0), family) == ThresholdSet(0.0, 0.0, 0.0, 0.0)


SUBSET_SIZES = (1, 2, 3, 4, 7, 28)
# Points per subset size, in calls of that size.
SUBSET_POINTS = 168


def check_call_independence(margins, n_states: int, rng: np.random.Generator) -> None:
    """margins(states, qs) over the grid and random strengths, against subset calls."""
    qs = np.concatenate([np.linspace(0.0, 1.0, PRESCAN_POINTS), rng.uniform(size=37)])
    states = rng.integers(0, n_states, size=qs.size)
    whole = margins(states, qs)
    for size in SUBSET_SIZES:
        order = rng.choice(qs.size, size=SUBSET_POINTS, replace=False)
        for k in range(0, order.size, size):
            pick = order[k:k + size]
            np.testing.assert_array_equal(margins(states[pick], qs[pick]), whole[:, pick],
                                          err_msg=f"subset size {size}")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kraus_margins_do_not_depend_on_the_call(family):
    # A point's margins are a function of (state, q) alone, which is what
    # lets the locator evaluate several bisection levels in one call.
    rng = np.random.default_rng(8)
    mats = [ginibre(rng, rank) for rank in (1, 2, 3, 4)] + [werner(0.9).mat, mixed_product(rng)]
    for mat in mats:
        check_call_independence(_kraus_margins(mat, family), 1, rng)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_x_margins_do_not_depend_on_the_call(family):
    rng = np.random.default_rng(9)
    mats = np.stack([x_state(rng) for _ in range(4)] + [werner(0.9).mat, bell_singlet().mat])
    check_call_independence(_x_margins(x_entries(mats), family), len(mats), rng)
