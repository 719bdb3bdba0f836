"""Two-qubit states: the validated DensityMatrix, the Bell singlet, Werner
mixtures, rank-4 MEMS, and the reader of the {"re", "im"} JSON state files.

Basis order is fixed project-wide as |00>, |01>, |10>, |11> with the first
label qubit A (kept locally) and the second qubit B (the one exposed to a
noisy channel).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD, TraceNotOne

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
SIMPLEX_TOL = 1e-12


def _ket(*amplitudes: complex) -> np.ndarray:
    return np.array(amplitudes, dtype=complex)


_PSI_MINUS = _ket(0, 1, -1, 0) / np.sqrt(2.0)
_PSI_PLUS = _ket(0, 1, 1, 0) / np.sqrt(2.0)
_KET_00 = _ket(1, 0, 0, 0)
_KET_11 = _ket(0, 0, 0, 1)


def _projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


_MEMS_PROJECTORS = np.stack(
    [_projector(k) for k in (_PSI_MINUS, _KET_00, _PSI_PLUS, _KET_11)]
)
_MEMS_PROJECTORS.setflags(write=False)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated 4x4 density matrix of two qubits.

    Construction rejects non-finite entries with ValueError, then checks
    Hermiticity, unit trace and positive semidefiniteness and raises
    NotHermitian / TraceNotOne / NotPSD naming the magnitude of the
    violation. The stored array is an immutable copy.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.mat, dtype=complex)
        if mat.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("state entries must be finite numbers")
        defect = float(np.max(np.abs(mat - np.conj(mat.T))))
        if defect > HERMITIAN_TOL:
            raise NotHermitian(f"state deviates from Hermitian by {defect:.3e}")
        trace_err = abs(complex(np.trace(mat)) - 1.0)
        if trace_err > TRACE_TOL:
            raise TraceNotOne(
                f"trace is {complex(np.trace(mat)).real:.12g}, off by {trace_err:.3e}"
            )
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -PSD_TOL:
            raise NotPSD(f"minimum eigenvalue {min_eig:.3e} below -{PSD_TOL:.0e}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)


@dataclass(frozen=True)
class MemsWeights:
    """Point on the descending 3-simplex: p1 >= p2 >= p3 >= p4 >= 0, sum 1.

    Inputs are sorted into descending order rather than rejected; a negative
    component or a sum away from one is an error.
    """

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self) -> None:
        vals = sorted(
            (float(self.p1), float(self.p2), float(self.p3), float(self.p4)),
            reverse=True,
        )
        if vals[-1] < 0.0:
            raise ValueError(f"weights must be non-negative, got {vals[-1]:.3e}")
        total = sum(vals)
        if not abs(total - 1.0) <= SIMPLEX_TOL:
            raise ValueError(f"weights must sum to 1, got {total:.15g}")
        for name, v in zip(("p1", "p2", "p3", "p4"), vals):
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


def bell_singlet() -> DensityMatrix:
    """The maximally entangled singlet (|01> - |10>)/sqrt(2) as a density matrix."""
    return DensityMatrix(_projector(_PSI_MINUS))


def werner(p: float) -> DensityMatrix:
    """Werner mixture (1-p)/4 * I + p |psi-><psi-| for p in [0, 1]."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner parameter p must lie in [0, 1], got {p}")
    mat = (1.0 - p) / 4.0 * np.eye(4, dtype=complex) + p * _projector(_PSI_MINUS)
    return DensityMatrix(mat)


def mems(weights: MemsWeights) -> DensityMatrix:
    """Rank-4 maximally entangled mixed state with the given spectrum.

    Diagonal in the orthonormal set {|psi->, |00>, |psi+>, |11>} with weights
    (p1, p2, p3, p4); its eigenvalues are exactly those weights.
    """
    mat = np.einsum("k,kij->ij", weights.as_tuple(), _MEMS_PROJECTORS)
    return DensityMatrix(mat)


def from_json_dict(data: dict) -> DensityMatrix:
    """Parse the {"re": ..., "im": ...} file format and validate."""
    try:
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"state JSON must carry 4x4 're' and 'im' arrays: {exc}")
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise ValueError(
            f"state JSON arrays must be 4x4, got re {re.shape}, im {im.shape}"
        )
    with np.errstate(invalid="ignore"):  # 1j * inf has a NaN real part; DensityMatrix refuses it
        mat = re + 1j * im
    return DensityMatrix(mat)


def load_state(path: str) -> DensityMatrix:
    """Load and validate a density matrix from a JSON file; a bad document is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("state JSON is nested too deeply") from None
    return from_json_dict(data)
