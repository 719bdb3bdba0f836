"""Single-qubit noisy channels as Kraus-operator sets acting on two-qubit states.

Three one-parameter families are provided; q in [0, 1] is the noise strength
and q = 0 is always the identity channel:

  amplitude-damping   M0 = [[1, 0], [0, sqrt(1-q)]],  M1 = [[0, sqrt(q)], [0, 0]]
  phase-damping       M0 = diag(1, sqrt(1-q)),        M1 = diag(0, sqrt(q))
  depolarizing        sqrt(1-3q/4) I and sqrt(q/4) sigma_{x,y,z}; the
                      single-qubit action is rho -> (1-q) rho + q I/2, i.e.
                      q is the total error probability.

A family's operators at one strength are one row of ``kraus_stack``, the one
table of each family's operators, and ``FAMILIES[name](q)`` reads that row. A
channel acts on qubit B, the transmitted one, as one real map (``affine_map``),
built from the same table. Each family keeps X-states (non-zero only on the
diagonal and the anti-diagonal) in X form, so the map's X block is all the X
path of ``thresholds`` reads. ``evolve_grid`` evolves one state over a grid of
strengths, as ``scan`` does on every row: each row of each operator has one
entry that is not zero by structure, so it forms one product per operator and
output entry, the einsum's own, with the einsum's floats.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import QOutOfRange
from .linalg import ID2, dagger
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-12
X_FLAT = np.array([0, 5, 10, 15, 3, 6])  # rho11..rho44, rho14, rho23 in rho.reshape(16)


def _kraus_ops(name: str, q: float) -> np.ndarray:
    return kraus_stack(name, np.array([float(q)]))[0]


#: Canonical channel names as used by the CLI and CSV outputs; ``FAMILIES[name](q)``
#: is the family's Kraus operators at strength q, shape (k, 2, 2).
FAMILIES = {
    name: functools.partial(_kraus_ops, name)
    for name in ("amplitude-damping", "phase-damping", "depolarizing")
}


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
    defect = float(np.max(np.abs(sum(dagger(m) @ m for m in ops) - ID2)))
    if not defect <= COMPLETENESS_TOL:
        raise ValueError(f"Kraus completeness violated by {defect:.3e}")
    out = np.zeros((4, 4), dtype=complex)
    for m in ops:
        k = np.kron(ID2, m)
        out += k @ rho.mat @ dagger(k)
    return DensityMatrix(out)


def _strengths(qs) -> np.ndarray:
    qs = np.asarray(qs, dtype=float)
    inside = (qs >= 0.0) & (qs <= 1.0)
    if not inside.all():
        raise QOutOfRange(f"channel strength q must lie in [0, 1], got {qs[~inside][0]}")
    return qs


def kraus_stack(name: str, qs: np.ndarray) -> np.ndarray:
    """Kraus operators of one family over a strength grid, shape (Q, k, 2, 2).

    This is the one table of each family's operators; ``FAMILIES[name](q)`` is
    its single row at q.
    """
    qs = _strengths(qs)
    n = qs.shape[0]
    root_q = np.sqrt(qs)
    root_1mq = np.sqrt(1.0 - qs)
    if name == "amplitude-damping":
        ops = np.zeros((n, 2, 2, 2), dtype=complex)
        ops[:, 0, 0, 0] = 1.0
        ops[:, 0, 1, 1] = root_1mq
        ops[:, 1, 0, 1] = root_q
    elif name == "phase-damping":
        ops = np.zeros((n, 2, 2, 2), dtype=complex)
        ops[:, 0, 0, 0] = 1.0
        ops[:, 0, 1, 1] = root_1mq
        ops[:, 1, 1, 1] = root_q
    elif name == "depolarizing":
        # sqrt(1-3q/4) I and sqrt(q/4) sigma_{x,y,z}, entry by entry.
        ops = np.zeros((n, 4, 2, 2), dtype=complex)
        ops[:, 0, 0, 0] = ops[:, 0, 1, 1] = np.sqrt(1.0 - 0.75 * qs)
        half_root = np.sqrt(0.25 * qs)
        ops[:, 1, 0, 1] = ops[:, 1, 1, 0] = ops[:, 3, 0, 0] = half_root
        ops[:, 3, 1, 1] = -half_root
        ops.imag[:, 2, 0, 1] = -half_root
        ops.imag[:, 2, 1, 0] = half_root
    else:
        channel_family(name)  # raises with the canonical message
        raise AssertionError("unreachable")
    return ops


def x_entries(mats: np.ndarray) -> np.ndarray:
    """X entries (6, ...) of X-state matrices (..., 4, 4), one entry per row.

    The rows are rho11, rho22, rho33, rho44, |rho14|, |rho23| (``X_FLAT``);
    entries off the diagonal and the anti-diagonal are ignored.
    """
    flat = mats.reshape(mats.shape[:-2] + (16,))[..., X_FLAT]
    return np.moveaxis(np.concatenate([flat[..., :4].real, np.abs(flat[..., 4:])], axis=-1), -1, 0)


@functools.cache
def _columns(name: str) -> np.ndarray:
    """The column y_k(x) of the one entry of row x of M_k that is not zero by structure, (k, 2).

    Read from the non-zero pattern of ``kraus_stack`` at ``_AFFINE_QS``: an
    entry that is 0 there is 0 at every q, as its squared modulus is affine in
    (1, q, sqrt(1-q)) (see ``affine_map``). A row that is 0 everywhere takes
    column 0. Built once per family, read-only; a row with two non-zero
    entries raises ValueError.
    """
    live = (kraus_stack(name, _AFFINE_QS) != 0.0).any(axis=0)  # (k, x, y)
    if (live.sum(axis=-1) > 1).any():
        raise ValueError(f"{name}: a Kraus row has two non-zero entries")
    columns = live.argmax(axis=-1)
    columns.setflags(write=False)
    return columns


def evolve_grid(rho_mat: np.ndarray, name: str, qs: np.ndarray) -> np.ndarray:
    """Evolve one raw state through a family on qubit B over a strength grid.

    Returns the evolved stack (Q, 4, 4), not re-validated, for a finite rho.
    Its floats are those of the einsum of sum_k (I x M_k) rho (I x M_k)^dagger
    over B's indices (``tests/oracles.py``). Row x of M_k has one entry that is
    not zero by structure, in column y_k(x) (``_columns``), so M_k adds one
    product to output entry (a x, c w), the einsum's own
    (M_k[x, y] rho[a y, c z]) conj(M_k[w, z]) with y = y_k(x) and z = y_k(w):
    32 products per evolved row for the damping families and 64 for
    depolarizing noise, where the einsum forms 128 and 256. Each Kraus entry
    is real or imaginary, so each complex multiplication scales the floats of
    its other factor exactly as the einsum's does. The products are added in
    order of k into a sum that starts at +0.0. The einsum's other products are
    +-0, and adding +-0 to such a sum changes no float, so every output is the
    einsum's bit for bit, signed zeros included. q is the innermost axis of
    the work arrays.
    """
    columns = _columns(name)
    # M_k[x, y_k(x)] as (k, x, q); the Kraus stack is dropped before the work arrays are made.
    entries = kraus_stack(name, qs)[:, np.arange(len(columns))[:, None], [0, 1], columns].transpose(1, 2, 0)
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
