"""Single-qubit noisy channels as Kraus-operator sets acting on two-qubit states.

Three one-parameter families are provided; q in [0, 1] is the noise strength
and q = 0 is always the identity channel:

  amplitude-damping   M0 = [[1, 0], [0, sqrt(1-q)]],  M1 = [[0, sqrt(q)], [0, 0]]
  phase-damping       M0 = diag(1, sqrt(1-q)),        M1 = diag(0, sqrt(q))
  depolarizing        sqrt(1-3q/4) I and sqrt(q/4) sigma_{x,y,z}; the
                      single-qubit action is rho -> (1-q) rho + q I/2, i.e.
                      q is the total error probability.

Each family is one literal table, ``_KRAUS``: each row of each operator holds
at most one entry, and the table gives its column and the entry itself, a phase
(+-1 or +-i) times sqrt(a + b q), or a phase of 0 for a row with no entry.
``kraus_stack`` evaluates the table over a grid of strengths, and
``FAMILIES[name](q)`` is one row of that stack.
``evolve_grid`` evolves one state over a grid of strengths, as ``scan`` does on
every row: it reads the table's entries and columns, so it forms one product per
operator and output entry, the einsum's own, with the einsum's floats. A channel
acts on qubit B, the transmitted one, as one real map (``affine_map``), sampled
from ``evolve_grid``. Each family keeps X-states (non-zero only on the diagonal
and the anti-diagonal) in X form, so the map's X block is all the X path of
``thresholds`` reads.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import QOutOfRange
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-12
X_FLAT = np.array([0, 5, 10, 15, 3, 6])  # rho11..rho44, rho14, rho23 in rho.reshape(16)


# Row x of each operator M_k is (y, (re, im), a, b): its one entry, (re + i im)
# sqrt(a + b q), sits in column y, and a phase of 0 means no entry. Only the
# non-zero parts of a phase are written, so the others stay +0.0. a is -0.0 where
# it adds nothing: -0.0 + x is x for every float x, so sqrt(a + b q) is sqrt(b q)
# bit for bit, -0.0 included.
_NO_ENTRY = (0, (0.0, 0.0), 0.0, 0.0)
_KRAUS = {
    "amplitude-damping": (((0, (1.0, 0.0), 1.0, 0.0), (1, (1.0, 0.0), 1.0, -1.0)),
                          ((1, (1.0, 0.0), -0.0, 1.0), _NO_ENTRY)),
    "phase-damping": (((0, (1.0, 0.0), 1.0, 0.0), (1, (1.0, 0.0), 1.0, -1.0)),
                      (_NO_ENTRY, (1, (1.0, 0.0), -0.0, 1.0))),
    "depolarizing": (((0, (1.0, 0.0), 1.0, -0.75), (1, (1.0, 0.0), 1.0, -0.75)),  # sqrt(1-3q/4) I
                     ((1, (1.0, 0.0), -0.0, 0.25), (0, (1.0, 0.0), -0.0, 0.25)),  # sqrt(q/4) sigma_x
                     ((1, (0.0, -1.0), -0.0, 0.25), (0, (0.0, 1.0), -0.0, 0.25)),  # sqrt(q/4) sigma_y
                     ((0, (1.0, 0.0), -0.0, 0.25), (1, (-1.0, 0.0), -0.0, 0.25))),  # sqrt(q/4) sigma_z
}


def _kraus_ops(name: str, q: float) -> np.ndarray:
    return kraus_stack(name, np.array([float(q)]))[0]


#: Canonical channel names as used by the CLI and CSV outputs; ``FAMILIES[name](q)``
#: is the family's Kraus operators at strength q, shape (k, 2, 2).
FAMILIES = {name: functools.partial(_kraus_ops, name) for name in _KRAUS}


def channel_family(name: str):
    """The family of a canonical hyphenated name: q -> its Kraus operators (k, 2, 2)."""
    try:
        return FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown channel family {name!r}; known: {known}") from None


def apply_channel(rho: DensityMatrix, ops: np.ndarray) -> DensityMatrix:
    """Evolve a state through the Kraus operators ``ops`` (k, 2, 2) on qubit B.

    Applies sum_i (I x M_i) rho (I x M_i)^dagger, one operator at a time, and
    validates the output. Raises ValueError if ``ops`` is not shaped (k, 2, 2)
    or sum_i M_i^dagger M_i is further than ``COMPLETENESS_TOL`` from I (NaN
    included): an incomplete set can still give a valid state.
    """
    ops = np.asarray(ops, dtype=complex)
    if ops.ndim != 3 or ops.shape[1:] != (2, 2):
        raise ValueError(f"Kraus operators must be shaped (k, 2, 2), got {ops.shape}")
    defect = float(np.max(np.abs(sum(np.conj(m.T) @ m for m in ops) - np.eye(2, dtype=complex))))
    if not defect <= COMPLETENESS_TOL:
        raise ValueError(f"Kraus completeness violated by {defect:.3e}")
    out = np.zeros((4, 4), dtype=complex)
    for m in ops:
        k = np.kron(np.eye(2, dtype=complex), m)
        out += k @ rho.mat @ np.conj(k.T)
    return DensityMatrix(out)


def _strengths(qs) -> np.ndarray:
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 1:
        raise ValueError(f"channel strengths must be a 1-d array, got shape {qs.shape}")
    inside = (qs >= 0.0) & (qs <= 1.0)
    if not inside.all():
        raise QOutOfRange(f"channel strength q must lie in [0, 1], got {qs[~inside][0]}")
    return qs


@functools.cache
def _table(name: str) -> tuple[np.ndarray, ...]:
    """A family's ``_KRAUS`` table as arrays, built once.

    The column y_k(x) of each row's entry, (k, 2), read-only; then, for each
    non-zero part of an entry's phase, its k, x and part (0 real, 1 imaginary),
    each (n,), and its sign, a and b, each (n, 1).
    """
    channel_family(name)  # raises with the canonical message
    ops = _KRAUS[name]
    columns = np.array([[y for y, *_ in op] for op in ops])
    columns.setflags(write=False)
    cells = [(k, x, part, sign, a, b) for k, op in enumerate(ops) for x, (_, phase, a, b) in enumerate(op)
             for part, sign in enumerate(phase) if sign]
    k, x, part, sign, a, b = (np.array(cell) for cell in zip(*cells))
    return columns, k, x, part, sign[:, None], a[:, None], b[:, None]


def _entries(name: str, qs) -> tuple[np.ndarray, np.ndarray]:
    """The columns y_k(x), (k, 2), and the entries M_k[x, y_k(x)] over strengths qs, (k, 2, Q)."""
    columns, k, x, part, sign, a, b = _table(name)
    qs = _strengths(qs)
    floats = np.zeros(columns.shape + (qs.size, 2))
    floats[k, x, :, part] = sign * np.sqrt(a + b * qs)
    return columns, floats.view(complex)[..., 0]


def kraus_stack(name: str, qs: np.ndarray) -> np.ndarray:
    """Kraus operators of one family over a strength grid, shape (Q, k, 2, 2).

    The family's table (``_KRAUS``) at each strength; ``FAMILIES[name](q)`` is
    its single row at q. Raises ValueError unless qs is 1-d.
    """
    columns, entries = _entries(name, qs)
    ops = np.zeros(entries.shape[-1:] + columns.shape + (2,), dtype=complex)
    ops[:, np.arange(len(columns))[:, None], [0, 1], columns] = np.moveaxis(entries, -1, 0)
    return ops


def evolve_grid(rho_mat: np.ndarray, name: str, qs: np.ndarray) -> np.ndarray:
    """Evolve one raw state through a family on qubit B over a strength grid.

    Returns the evolved stack (Q, 4, 4), not re-validated, for a finite rho.
    Its floats are those of the einsum of sum_k (I x M_k) rho (I x M_k)^dagger
    over B's indices (``tests/oracles.py``). Row x of M_k has at most one entry,
    in column y_k(x), both read from the family's table, so M_k adds one
    product to output entry (a x, c w), the einsum's own
    (M_k[x, y] rho[a y, c z]) conj(M_k[w, z]) with y = y_k(x) and z = y_k(w):
    32 products per evolved row for the damping families and 64 for
    depolarizing noise, where the einsum forms 128 and 256. Each Kraus entry
    is real or imaginary, so each complex multiplication scales the floats of
    its other factor exactly as the einsum's does. The products are added in
    order of k into a sum that starts at +0.0. The einsum's other products are
    +-0, and adding +-0 to such a sum changes no float, so every output is the
    einsum's bit for bit, signed zeros included. q is the innermost axis of
    the work arrays. Raises ValueError unless qs is 1-d.
    """
    columns, entries = _entries(name, qs)
    rho = np.asarray(rho_mat, dtype=complex).reshape(2, 2, 2, 2)[:, columns[:, :, None], :, columns[:, None]]
    out = np.zeros((2, 2, 2, 2) + entries.shape[-1:], dtype=complex)  # (a, x, c, w, q)
    term = np.empty_like(out)
    # rho[a, y_k(x), c, y_k(w)] is rho[k, x, w, a, c] above.
    for m, m_conj, rho_k in zip(entries, entries.conj(), rho.transpose(0, 3, 1, 4, 2)):
        np.multiply(m[:, None, None], rho_k[..., None], out=term)
        term *= m_conj
        out += term
    return np.ascontiguousarray(out.reshape(16, -1).T).reshape(-1, 4, 4)


# Every family is affine in (1, q, sqrt(1-q)): its Kraus entries are 1, sqrt(1-q)
# and sqrt(q) (damping), or sqrt(1-3q/4) and sqrt(q/4) (depolarizing), and a
# product of two entries of one operator is one of 1, q, sqrt(1-q), 1-q and
# 1-3q/4. (1, q, sqrt(1-q)) is exactly (1, 0, 1), (1, 3/4, 1/2) and (1, 1, 0) at
# the strengths below, so the 16 matrix units evolved there give the map.
_AFFINE_QS = np.array([0.0, 0.75, 1.0])
_AFFINE_OF_SAMPLES = np.array([[2.0, -4.0, 3.0], [-2.0, 4.0, -2.0], [-1.0, 4.0, -3.0]])


@functools.cache
def affine_map(name: str) -> np.ndarray:
    """The family's action on qubit B, one real read-only map (16, 3, 16), built once.

    m[i, k, j] is what entry i of rho.reshape(16) adds to entry j of A, B or C
    (k = 0, 1, 2) in rho(q) = A + q B + sqrt(1-q) C.
    """
    samples = np.stack([evolve_grid(u, name, _AFFINE_QS) for u in np.eye(16).reshape(16, 4, 4)])
    out = np.einsum("km,imj->ikj", _AFFINE_OF_SAMPLES, samples.real.reshape(16, 3, 16))
    # Every true entry is a multiple of 1/4 (0, +-1/2 or +-1), and the samples are
    # off by rounding of at most 4.4e-16, so the nearest quarter is the exact entry
    # (+ 0.0 turns -0 into 0).
    out = np.round(4.0 * out) / 4.0 + 0.0
    out.setflags(write=False)
    return out
