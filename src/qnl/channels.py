"""Single-qubit noisy channels as Kraus-operator sets acting on two-qubit states.

Three one-parameter families are provided; q in [0, 1] is the noise strength
and q = 0 is always the identity channel:

  amplitude-damping   M0 = [[1, 0], [0, sqrt(1-q)]],  M1 = [[0, sqrt(q)], [0, 0]]
  phase-damping       M0 = diag(1, sqrt(1-q)),        M1 = diag(0, sqrt(q))
  depolarizing        sqrt(1-3q/4) I and sqrt(q/4) sigma_{x,y,z}; the
                      single-qubit action is rho -> (1-q) rho + q I/2, i.e.
                      q is the total error probability.

A channel acts on qubit B (the transmitted one) by default; acting on qubit A
or on both sides sequentially is supported for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import QOutOfRange
from .linalg import ID2, PAULI_X, PAULI_Y, PAULI_Z, dagger, kron2, kron2_stack
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-12


class Side(Enum):
    """Which qubit the channel acts on."""

    A = "A"
    B = "B"
    BOTH = "BOTH"


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A named one-parameter channel with its 2x2 Kraus operators."""

    name: str
    q: float
    ops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        ops = tuple(np.array(op, dtype=complex) for op in self.ops)
        total = sum(dagger(op) @ op for op in ops)
        defect = float(np.max(np.abs(total - ID2)))
        if not defect <= COMPLETENESS_TOL:
            raise ValueError(
                f"Kraus completeness violated by {defect:.3e} for {self.name}(q={self.q})"
            )
        for op in ops:
            op.setflags(write=False)
        object.__setattr__(self, "ops", ops)


def _from_table(name: str, q: float) -> KrausChannel:
    q = float(q)
    return KrausChannel(name, q, tuple(kraus_stack(name, np.array([q]))[0]))


def amplitude_damping(q: float) -> KrausChannel:
    """Energy-loss channel: |1> decays to |0> with probability q."""
    return _from_table("amplitude-damping", q)


def phase_damping(q: float) -> KrausChannel:
    """Pure dephasing: off-diagonal coherence shrinks, populations are fixed."""
    return _from_table("phase-damping", q)


def depolarizing(q: float) -> KrausChannel:
    """White noise: rho -> (1-q) rho + q I/2 on the target qubit."""
    return _from_table("depolarizing", q)


#: Canonical channel names as used by the CLI and CSV outputs.
FAMILIES = {
    "amplitude-damping": amplitude_damping,
    "phase-damping": phase_damping,
    "depolarizing": depolarizing,
}


def channel_family(name: str):
    """Look up a channel constructor by its canonical hyphenated name."""
    try:
        return FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown channel family {name!r}; known: {known}")


def apply_channel(
    rho: DensityMatrix, ch: KrausChannel, side: Side = Side.B
) -> DensityMatrix:
    """Evolve a state through the channel on the chosen side.

    Side B applies sum_i (I x M_i) rho (I x M_i)^dagger, side A the mirrored
    sum, and BOTH applies the channel to A then to B (the two sums commute, so
    the order is immaterial). The output is validated; a completeness-breaking
    channel surfaces as a state validation error.
    """
    if side is Side.BOTH:
        return apply_channel(apply_channel(rho, ch, Side.A), ch, Side.B)
    out = np.zeros((4, 4), dtype=complex)
    for m in ch.ops:
        k = kron2(ID2, m) if side is Side.B else kron2(m, ID2)
        out += k @ rho.mat @ dagger(k)
    return DensityMatrix(out)


def kraus_stack(name: str, qs: np.ndarray) -> np.ndarray:
    """Kraus operators of one family over a strength grid, shape (Q, k, 2, 2).

    This is the one table of each family's operators; the scalar constructors
    read their single row from it.
    """
    qs = np.asarray(qs, dtype=float)
    inside = (qs >= 0.0) & (qs <= 1.0)
    if not inside.all():
        raise QOutOfRange(f"channel strength q must lie in [0, 1], got {qs[~inside][0]}")
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
        ops = np.zeros((n, 4, 2, 2), dtype=complex)
        ops[:, 0] = np.sqrt(1.0 - 0.75 * qs)[:, None, None] * ID2
        half_root = np.sqrt(0.25 * qs)[:, None, None]
        ops[:, 1] = half_root * PAULI_X
        ops[:, 2] = half_root * PAULI_Y
        ops[:, 3] = half_root * PAULI_Z
    else:
        channel_family(name)  # raises with the canonical message
        raise AssertionError("unreachable")
    return ops


def evolve_grid(rho_mat: np.ndarray, name: str, qs: np.ndarray) -> np.ndarray:
    """Evolve one raw state through a family on qubit B over a strength grid.

    Returns the stack of evolved matrices, shape (Q, 4, 4). Used by the
    threshold scanner; outputs are not re-validated per point.
    """
    small = kraus_stack(name, qs)
    ident = np.broadcast_to(ID2, small.shape)
    full = kron2_stack(ident, small)
    return np.einsum("qkij,jl,qkml->qim", full, rho_mat, np.conj(full))
