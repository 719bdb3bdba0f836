"""Seeded Monte-Carlo generation of MEMS and the hierarchy-gap experiment.

Weights are drawn uniformly on the 3-simplex (sorted spacings of three
uniforms) and sorted descending. States whose teleportation fidelity exceeds
the Gisin bound are kept; each kept state gets a full threshold set and the
gaps q_B - q_G, q_F - q_B, q_C - q_F. A gap touching an absent threshold is
itself absent. MEMS are X-states, so the filter and the threshold sets use
the closed-form X entries rather than the general Kraus pipeline. The
experiment stays in arrays from the draw to the CSV: one ``HierarchyResult``
holds the weights and thresholds of all accepted states as columns.

``csv_blocks`` prints the CSV of ``sample-mems`` and ``scan``: every cell is
the bytes of ``format(v, ".12g")``. One array kernel prints every block. It
writes the digits of the cells that are 0, NaN or have |v| in [1e-4, 10)
itself, nearly every value qnl prints (all are at most 2 sqrt 2).
Their 12 digits are the nearest integer N to |v| 10^k, read from the rounded
product fl(|v| 10^k): every n + 1/2 below 10^12 is a float and rounding is
monotone, so where the rounded product lies above or below n + 1/2, the exact
one does too, and N is that of the correctly rounded ``%``. The other cells
(exponent notation, inf, |v| >= 10, products that round onto n + 1/2) take one
Python ``%`` per block.

The draw sequence is generated single-threaded from the seed, so a given
configuration always reproduces the same result, and the same CSV bytes, bit
for bit.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .channels import channel_family
from .errors import RejectionStall
from .measures import GISIN_BOUND
from .measures import correlation_singvals_stack  # noqa: F401  (benchmark traces this name here)
from .states import DensityMatrix, MemsWeights, mems
from .thresholds import _BLOCK_POINTS, _check_tol, ordered, x_thresholds
from .thresholds import threshold_set  # noqa: F401  (benchmark traces this name here)

MAX_DRAWS = 10**9
# Weights are drawn in blocks that double from _DRAW_BLOCK to _MAX_DRAW_BLOCK:
# about 3% of draws are accepted, so a few dozen states take one or two small
# blocks and many states take large ones. Any block schedule consumes the one
# uniform stream in the same order, so the accepted weights do not depend on it.
_DRAW_BLOCK = 1024
_MAX_DRAW_BLOCK = 4096

CSV_COLUMNS = ("p1", "p2", "p3", "p4", "q_G", "q_B", "q_F", "q_C",
               "gap_GB", "gap_BF", "gap_FC")


@dataclass(frozen=True)
class SamplerConfig:
    n_states: int
    seed: int
    channel: str = "amplitude-damping"
    tol: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("n_states", "seed"):  # numpy integers too, never a float or a bool
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {self.n_states}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Checked here, not after the draws of the experiment.
        channel_family(self.channel)
        object.__setattr__(self, "tol", _check_tol(self.tol))


@dataclass(frozen=True, eq=False)
class HierarchyResult:
    """The accepted MEMS of one experiment, in draw order, as read-only columns.

    ``weights`` (n, 4) holds p1..p4 and ``thresholds`` (n, 4) q_G, q_B, q_F,
    q_C, with NaN where a correlation survives all noise.
    """

    weights: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self) -> None:
        self.weights.setflags(write=False)
        self.thresholds.setflags(write=False)

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def gaps(self) -> np.ndarray:
        """(q_B - q_G, q_F - q_B, q_C - q_F) per row (n, 3), NaN where an operand is absent."""
        return np.diff(self.thresholds, axis=1)

    @property
    def ordered(self) -> np.ndarray:
        """``hierarchy_check`` of each row (n,): q_G <= q_B <= q_F <= q_C, NaN as +infinity."""
        return ordered(self.thresholds)


def _draw_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform draws on the descending 3-simplex, rows (n, 4).

    Compare-exchange networks sort the three uniforms ascending (3 exchanges)
    and their four spacings descending (5 exchanges): the values of row-wise
    sorts, without a sort's cost per row.
    """
    a, b, c = rng.uniform(size=(n, 3)).T
    a, b = np.minimum(a, b), np.maximum(a, b)
    b, c = np.minimum(b, c), np.maximum(b, c)
    a, b = np.minimum(a, b), np.maximum(a, b)
    w = [a, b - a, c - b, 1.0 - c]
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        w[i], w[j] = np.maximum(w[i], w[j]), np.minimum(w[i], w[j])
    return np.stack(w, axis=1)


def _mems_entries(weights: np.ndarray) -> np.ndarray:
    """X entries (6, N) of MEMS from weight rows (N, 4), in closed form.

    A MEMS is the X-state with rho11 = p2, rho22 = rho33 = (p1 + p3)/2,
    rho44 = p4, rho14 = 0 and |rho23| = |p1 - p3|/2.
    """
    p1, p2, p3, p4 = weights.T
    half = 0.5 * (p1 + p3)
    return np.stack([p2, half, half, p4, np.zeros_like(p1), 0.5 * np.abs(p1 - p3)])


def _fidelity_of_weights(weights: np.ndarray) -> np.ndarray:
    """Teleportation fidelity of MEMS from weight rows (N, 4), in closed form.

    The float operations of its reference, ``tests/oracles.py::mems_fidelity``,
    in their order, on the columns alone: with |rho14| = 0 the singular values
    are xy = 2|rho23| (twice) and zz = |rho11 - rho22 - rho33 + rho44|, and N
    adds them from the largest first.
    """
    p1, p2, p3, p4 = weights.T
    half = 0.5 * (p1 + p3)
    xy = 2.0 * (0.5 * np.abs(p1 - p3))
    zz = np.abs(p2 - half - half + p4)
    n = xy + np.maximum(xy, zz) + np.minimum(xy, zz)
    return 0.5 * (1.0 + n / 3.0)


def _accepted_weights(cfg: SamplerConfig) -> np.ndarray:
    """Weight rows (cfg.n_states, 4) of the MEMS whose fidelity exceeds the Gisin bound.

    Rejection sampling in draw order; raises RejectionStall if the accept
    count would require more than MAX_DRAWS draws.
    """
    rng = np.random.default_rng(cfg.seed)
    kept = []
    accepted = drawn = 0
    size = _DRAW_BLOCK
    while accepted < cfg.n_states:
        block = min(size, MAX_DRAWS - drawn)
        if block <= 0:
            raise RejectionStall(
                f"exceeded {MAX_DRAWS} draws with only {accepted} acceptances"
            )
        weights = _draw_weights(rng, block)
        drawn += block
        kept.append(weights[_fidelity_of_weights(weights) > GISIN_BOUND])
        accepted += len(kept[-1])
        size = min(2 * size, _MAX_DRAW_BLOCK)
    return np.concatenate(kept)[:cfg.n_states]


def sample_mems_above_gisin(cfg: SamplerConfig) -> Iterator[tuple[DensityMatrix, MemsWeights]]:
    """Yield (state, weights) of cfg.n_states MEMS above the Gisin bound, in draw order."""
    for row in _accepted_weights(cfg):
        w = MemsWeights(*row)
        yield mems(w), w


def hierarchy_experiment(cfg: SamplerConfig) -> HierarchyResult:
    """Threshold sets of cfg.n_states accepted MEMS, in draw order, as columns.

    Every MEMS is an X-state, so all of them are located at once on the
    closed-form X path (``x_thresholds``), straight from their weights.
    """
    weights = _accepted_weights(cfg)
    return HierarchyResult(weights, x_thresholds(_mems_entries(weights), cfg.channel, cfg.tol))


# The kernel's two tables are built on its first call, so that a run that prints
# no CSV (thresholds, measures) neither builds nor holds them.
@functools.cache
def _digit_words() -> np.ndarray:
    """The ASCII of every 4-digit group 0000..9999 as a uint32 word (entry g), then
    the same groups with their trailing zeros as NUL bytes (entry 10^4 + g)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # column g holds g's digits
    kept = digits != 0
    for j in (2, 1, 0):  # kept where a digit here or after it is not 0
        kept[j] |= kept[j + 1]
    chars = digits + np.uint8(ord("0"))
    words = np.ascontiguousarray(np.hstack([chars, chars * kept]).T).view(np.uint32).ravel()
    words.setflags(write=False)
    return words


@functools.cache
def _head_words() -> np.ndarray:
    """A cell's bytes up to its leading digit d, right-aligned in 8 NUL bytes, as uint64
    entry ((s * 5 + e + 4) * 10 + d) * 2 + dot for the sign s (0 plus, 1 minus, 2 and
    3 NaN), the decade e = -4..0 and whether a digit follows d.

    Decades -4..-1 print "0.000", "0.00", "0.0" or "0." before d; decade 0 prints d
    and, where a digit follows it, ".".
    """
    heads = [b"0.%s%d" % (b"0" * zeros, d) for zeros in (3, 2, 1, 0) for d in range(10)
             for _ in range(2)]
    heads += [b"%d%s" % (d, b"." * dot) for d in range(10) for dot in range(2)]
    text = [sign + head for sign in (b"", b"-") for head in heads] + [b"nan"] * (2 * len(heads))
    return np.frombuffer(b"".join(t.rjust(8, b"\0") for t in text), np.uint64)


_COMMA, _NEWLINE = np.frombuffer(b",\0\0\0\n\0\0\0", np.uint32)
# The lower bounds of the decades -3..0; a cell's class is its decade + 4 + 5 s.
_DECADES = (1e-3, 1e-2, 1e-1, 1.0)
# 10^k for k = 11 - e, by class: exact floats, as k <= 15.
_SCALES = np.tile(10.0 ** np.arange(15, 10, -1), 4)
# More bytes than "%.12g" prints outside the kernel ("-1.23456789012e-308" has 19).
_FALLBACK_WIDTH = 20


def _flag(b: np.ndarray) -> np.ndarray:
    """A bool array as int8 0 and 1, without a copy."""
    return b.view(np.int8)


def _fallback_bytes(values: np.ndarray) -> np.ndarray:
    """``%.12g`` of each value, padded with spaces to _FALLBACK_WIDTH: rows (k, width) uint8."""
    text = (f"%-{_FALLBACK_WIDTH}.12g" * values.size) % tuple(values.tolist())
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _FALLBACK_WIDTH)


def _rounded(x: np.ndarray, cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer N nearest to x 10^k for each class's k, and where N is certain.

    N is read from the rounded product fl(x 10^k) alone. For n < 10^12, n + 1/2
    is a float and rounding to nearest is monotone, so the rounded product lies
    above (below) n + 1/2 only where the exact one does. N is not certain where
    the rounded product is n + 1/2 or N is 10^12 (x rounds into the next decade).
    """
    product = x * _SCALES[cls]
    n = np.floor(product)
    frac = product - n  # exact: a multiple of the ulp of product
    n += frac > 0.5
    return n, (frac != 0.5) & (n < 1e12)


def _slots(cls: np.ndarray, n: np.ndarray) -> np.ndarray:
    """24-byte slots (k, 3) uint64 of cells of class cls and 12 digits n (0 for no digits).

    A slot holds the cell's head up to its leading digit, then its other 11
    digits and a 0 as three words of 4 digits, the trailing zeros as NUL bytes.
    Its last word is left for the separator.
    """
    lead = np.floor(n / 1e11)
    digits = 10 * n - 1e12 * lead
    g0 = np.floor(digits / 1e8)
    rest = digits - g0 * 1e8
    g1 = np.floor(rest / 1e4)
    g2 = rest - g1 * 1e4
    slots = np.empty((n.size, 3), np.uint64)
    slots[:, 0] = _head_words()[cls * 20 + (2 * lead).astype(np.intp) + _flag(digits != 0)]
    words, table = slots.view(np.uint32), _digit_words()
    for j, (group, trimmed) in enumerate(((g0, rest == 0), (g1, g2 == 0), (g2, True))):
        index = group.astype(np.intp)
        np.add(index, 10**4, out=index, where=trimmed)
        words[:, 2 + j] = table[index]
    return slots


def _format_cells(cells: np.ndarray) -> str:
    """CSV text of a block (rows, m) of float cells: ``format(v, ".12g")`` of every cell.

    The kernel prints the cells that are +-0, NaN or have |v| in [1e-4, 10). There
    the decade e = floor(log10|v|) is exact: it is read from comparisons with the
    floats of 1e-4 to 1, and each lies at or above its power of ten with no double
    between. The nearest integer N to |v| 10^(11 - e) is then the 12 digits that
    the correctly rounded ``%.12g`` prints, where ``_rounded`` finds it certain.
    Each cell fills a 24-byte slot (``_slots``) and its separator. The other cells
    (exponent notation, inf, |v| >= 10, N not certain) take one ``%`` for the block,
    padded to the slot with spaces. One ``translate`` squeezes the NUL bytes and
    spaces out.
    """
    rows, m = cells.shape
    v = cells.ravel()
    a = np.abs(v)
    inside = (a >= 1e-4) & (a < 10.0)
    x = np.where(inside, a, 1.0)
    sign = _flag(np.signbit(v)) + 2 * _flag(v != v)
    cls = (sum(_flag(x >= d) for d in _DECADES) + 5 * sign).astype(np.intp)
    n, exact = _rounded(x, cls)
    exact &= inside
    n *= exact
    slots = _slots(cls, n)
    words = slots.view(np.uint32).reshape(rows, m, 6)
    words[:, :, 5] = _COMMA
    words[:, -1, 5] = _NEWLINE
    refused = np.flatnonzero(~exact & (a != 0) & ~np.isnan(a))
    if refused.size:
        slots.view(np.uint8).reshape(-1, 24)[refused, :_FALLBACK_WIDTH] = _fallback_bytes(v[refused])
    return slots.tobytes().translate(None, b"\0 ").decode("ascii")


def csv_blocks(*columns: np.ndarray) -> Iterator[str]:
    """CSV text, LF endings, of the rows of column arrays (n, m_i) side by side.

    Every cell is the bytes of ``format(v, ".12g")``. Rows are formatted by
    ``_format_cells`` _BLOCK_POINTS at a time and yielded a block at a time, so
    the text held in memory does not grow with n.
    """
    for k in range(0, len(columns[0]), _BLOCK_POINTS):
        yield _format_cells(np.hstack([c[k:k + _BLOCK_POINTS] for c in columns]))


def write_records_csv(records: HierarchyResult, fh: TextIO) -> None:
    """Write the result as CSV with LF endings; absent values are empty cells.

    The rows are ``csv_blocks`` of the weights, thresholds and gaps; an
    absent value prints as "nan", which no number contains, and is dropped.
    """
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for text in csv_blocks(records.weights, records.thresholds, records.gaps):
        fh.write(text.replace("nan", ""))
