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
path of ``thresholds`` reads.
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
def _evolve_plan(name: str) -> tuple:
    """The products of ``evolve_grid`` that are not zero by structure, built once per family.

    Read from the non-zero pattern of ``kraus_stack`` at ``_AFFINE_QS``: an
    entry that is 0 there is 0 at every q, as its squared modulus is affine in
    (1, q, sqrt(1-q)) (see ``affine_map``). Every non-zero entry must be real
    or imaginary, i^p f with f its non-zero float. There is one term per pair
    of non-zero entries of one M_k, listed in the einsum's order (k, then x,
    y, w, z): (M_kxy rho[a, y, c, z]) conj(M_kwz) adds to the output's slot
    (x, w), and is (f (i^p (-i)^p' rho[a, y, c, z])) f' but for the signs of
    zeros, f' the float of M_kwz.

    Returns, per term, the columns of f and f' in the stack's (Q, 8k) float
    view, the entries (a, c) of rho in rho.reshape(16), the phase
    i^p (-i)^p' and the slot; and per M_k the (start, stop) of its terms and
    whether they are one per slot, in slot order.
    """
    live = kraus_stack(name, _AFFINE_QS).view(float).reshape(3, -1, 2, 2, 2).any(axis=0)
    if (live[..., 0] & live[..., 1]).any():
        raise ValueError(f"{name}: a Kraus entry is neither real nor imaginary")
    nonzero, imag = live.any(axis=-1), live[..., 1]
    k, x, y, w, z = np.argwhere(nonzero[:, :, :, None, None] & nonzero[:, None, None]).T
    parts = np.stack([imag[k, x, y], imag[k, w, z]])
    columns = 2 * (4 * k + 2 * np.stack([x, w]) + np.stack([y, z])) + parts
    a, c = np.meshgrid([0, 1], [0, 1], indexing="ij")
    entries = 8 * a + 4 * y[:, None, None] + 2 * c + z[:, None, None]
    phases = np.where(parts[0], 1j, 1.0) * np.where(parts[1], -1j, 1.0)
    slots = list(zip(x.tolist(), w.tolist()))
    starts = np.flatnonzero(np.diff(k, prepend=-1)).tolist()
    groups = tuple((lo, hi, slots[lo:hi] == [(0, 0), (0, 1), (1, 0), (1, 1)])
                   for lo, hi in zip(starts, starts[1:] + [k.size]))
    return columns, entries, phases, slots, groups


def evolve_grid(rho_mat: np.ndarray, name: str, qs: np.ndarray) -> np.ndarray:
    """Evolve one raw state through a family on qubit B over a strength grid.

    Returns the evolved stack (Q, 4, 4), not re-validated, for a finite rho.
    Its floats are those of the einsum of sum_k (I x M_k) rho (I x M_k)^dagger
    over B's indices (``tests/oracles.py``). Only the products of a Kraus
    entry, an entry of rho and a conjugated Kraus entry that are not zero by
    structure are formed (``_evolve_plan``: 5 per entry pair (a, c) for the
    damping families, 16 for depolarizing noise), one M_k at a time, and each
    is added in the einsum's order into an accumulator that starts at +0.0.
    The products left out are +-0, and adding +-0 to a sum that starts at
    +0.0 changes no float, so every output is the einsum's bit for bit, signed
    zeros included. q is the innermost axis of the work arrays.
    """
    ops = kraus_stack(name, qs)
    columns, entries, phases, slots, groups = _evolve_plan(name)
    n = ops.shape[0]
    f, f_w = ops.view(float).reshape(n, 8 * ops.shape[1]).T[columns]  # (term, q) each
    del ops  # freed before the work arrays are made
    s = np.asarray(rho_mat, dtype=complex).reshape(16)[entries] * phases[:, None, None]
    s = s.view(float).reshape(-1, 2, 2, 2)  # (term, a, c, re/im)
    acc = np.zeros((2, 2, 2, 2, 2, n))  # (a, x, c, w, re/im, q)
    buf = np.empty_like(acc)
    for lo, hi, one_per_slot in groups:
        if one_per_slot:  # all four terms at once, laid out like acc
            np.multiply(f[lo:hi].reshape(1, 2, 1, 2, 1, n),
                        s[lo:hi].reshape(2, 2, 2, 2, 2, 1).transpose(2, 0, 3, 1, 4, 5), out=buf)
            buf *= f_w[lo:hi].reshape(1, 2, 1, 2, 1, n)
            acc += buf
            continue
        term = buf[:, 0, :, 0]
        for t in range(lo, hi):
            np.multiply(f[t], s[t, ..., None], out=term)
            term *= f_w[t]
            x, w = slots[t]
            acc_t = acc[:, x, :, w]
            acc_t += term
    out = np.empty((n, 4, 4), dtype=complex)
    out.view(float).reshape(n, 32)[...] = acc.reshape(32, n).T
    return out


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
