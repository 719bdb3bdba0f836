"""``sampling.csv_blocks`` prints the bytes of Python's ``format(v, ".12g")``.

Most cells go through the array kernel ``_format_cells``; the cells it refuses
go through ``%``. Every test compares with ``format`` cell by cell, the
reference that stays on Python's formatter.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import qnl.sampling as sampling
from qnl.channels import FAMILIES
from qnl.sampling import _format_cells, csv_blocks
from qnl.states import DensityMatrix
from qnl.thresholds import _BLOCK_POINTS, scan


def reference(cells: np.ndarray) -> str:
    return "".join(",".join(format(v, ".12g") for v in row) + "\n" for row in cells.tolist())


def assert_same_bytes(got: str, cells: np.ndarray) -> None:
    want = reference(cells)
    if got != want:
        for row, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))):
            assert g == w, f"row {row}: {cells[row].tolist()}"
        assert got == want


def kernel_text(values) -> tuple[str, np.ndarray]:
    """``_format_cells`` of the values in rows of 4 (the last row padded with 0.5)."""
    values = np.asarray(values, dtype=float).ravel()
    cells = np.concatenate([values, np.full(-values.size % 4, 0.5)]).reshape(-1, 4)
    return _format_cells(cells), cells


@pytest.fixture
def refused(monkeypatch):
    """The values ``_format_cells`` hands to ``%``, in order."""
    seen = []
    fallback = sampling._fallback_bytes

    def recording(values):
        seen.extend(values.tolist())
        return fallback(values)

    monkeypatch.setattr(sampling, "_fallback_bytes", recording)
    return seen


def test_random_bit_patterns():
    rng = np.random.default_rng(36)
    cells = rng.integers(0, 2**64, size=(250_000, 4), dtype=np.uint64).view(np.float64)
    assert_same_bytes("".join(csv_blocks(cells)), cells)


def test_random_bits_around_the_kernel_range():
    # Random mantissas with the exponents of [2^-16, 2^5), both signs: mostly kernel cells.
    rng = np.random.default_rng(37)
    mantissa = rng.integers(0, 2**52, size=1_000_000, dtype=np.uint64)
    exponent = rng.integers(1023 - 16, 1023 + 5, size=mantissa.size, dtype=np.uint64)
    sign = rng.integers(0, 2, size=mantissa.size, dtype=np.uint64)
    cells = ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)
    cells = cells.reshape(-1, 4)
    assert_same_bytes("".join(csv_blocks(cells)), cells)


def _is_tie(v: float, e: int) -> bool:
    """Whether v of decade e lies exactly half-way between two 12-digit decimals.

    |v| = p / 2^j with p odd, so |v| 10^(11 - e) = p 5^(11 - e) / 2^(j - 11 + e),
    which is an odd number of halves exactly when j = 12 - e.
    """
    return abs(v).as_integer_ratio()[1] == 2 ** (12 - e)


def test_rounding_midpoints(refused):
    # The float nearest to N + 1/2 in the 12th digit, and the floats on either side.
    # The kernel reads N from the rounded product |v| 10^(11 - e) and leaves to %
    # the values whose rounded product lies on n + 1/2, every exact tie among them.
    rng = np.random.default_rng(38)
    digits = rng.integers(10**11, 10**12 - 1, size=20_000)
    decades = rng.integers(-4, 1, size=digits.size)
    mid = np.array([float(f"{5 * (2 * d + 1)}e{e - 12}")
                    for d, e in zip(digits.tolist(), decades.tolist())])
    mid *= rng.choice([-1.0, 1.0], size=mid.size)
    values = np.concatenate([mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)])
    text, cells = kernel_text(values)
    assert_same_bytes(text, cells)
    pairs = list(zip(values.tolist(), np.tile(decades, 3).tolist()))
    products = [abs(v) * 10.0 ** (11 - e) for v, e in pairs]
    assert refused == [v for (v, _), p in zip(pairs, products) if p - math.floor(p) == 0.5]
    assert set(refused) >= {v for v, e in pairs if _is_tie(v, e)}


def test_exact_ties_round_half_even(refused):
    # |v| = j / 2^(k+1), j odd, is exactly half-way in the 12th digit when v has
    # decade e = 11 - k. Python rounds those to even; the kernel refuses them.
    ties = [(j / 2.0 ** (12 - e), e) for e in range(-4, 1)
            for j in range(1, 2**16, 2) if 10.0**e <= j / 2.0 ** (12 - e) < 10.0 ** (e + 1)]
    assert len(ties) > 10_000
    for v, e in ties[::97]:  # half-way, by exact arithmetic
        assert (Fraction(v) * Fraction(10) ** (11 - e)).denominator == 2
    values = np.array([v for v, _ in ties])
    values = np.concatenate([values, -values])
    text, cells = kernel_text(values)
    assert_same_bytes(text, cells)
    assert refused == values.tolist()


def test_decade_bounds_are_exact():
    # The kernel reads a decade from comparisons with these floats; that is exact
    # because each lies at or above its power of ten and the double below it, below.
    for e, bound in zip(range(-4, 1), (1e-4, *sampling._DECADES)):
        assert Fraction(bound) >= Fraction(10) ** e > Fraction(np.nextafter(bound, 0.0))


def _neighbours(v: float, count: int = 8) -> list[float]:
    out = [v]
    down = up = v
    for _ in range(count):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [float(down), float(up)]
    return out


def test_decade_edges():
    # Floats next to the powers of ten, and values that round up into the next
    # decade (9.9999999999995 prints 10) or stay below it.
    edges = [10.0**e for e in range(-6, 3)]
    edges += [float(f"9.9999999999995e{e}") for e in range(-6, 2)]
    edges += [float(f"9.99999999999949e{e}") for e in range(-6, 2)]
    edges += [float(f"9.99999999999e{e}") for e in range(-6, 2)]
    values = [s * w for v in edges for w in _neighbours(v) for s in (1.0, -1.0)]
    text, cells = kernel_text(values)
    assert_same_bytes(text, cells)
    assert_same_bytes("".join(csv_blocks(cells)), cells)


def test_special_values():
    tiny = np.finfo(float).tiny
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF4000000000123], dtype=np.uint64).view(np.float64)
    values = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, tiny, -tiny,
              float(np.nextafter(tiny, 0.0)), 2.5e-310, -1.2345678901234e-315,
              np.finfo(float).max, -np.finfo(float).max, 1e-4, 10.0, 1.0, 0.5, 2.0,
              123456789012.0, 1e11, 1e16, 0.1, 0.3, 2 * np.sqrt(2.0), *nans]
    text, cells = kernel_text(values)
    assert_same_bytes(text, cells)
    for v in values:  # alone, in a one-cell block
        assert _format_cells(np.array([[v]])) == format(v, ".12g") + "\n"


# 1-11 columns of 1, 2, 30 and 99 rows make blocks of 1 to 1089 cells; a
# 30-state sample-mems block has 330 and a 21-step scan 84.
@pytest.mark.parametrize("rows", [1, 2, 30, 99, _BLOCK_POINTS - 1, _BLOCK_POINTS, _BLOCK_POINTS + 1])
def test_block_shapes(rows):
    rng = np.random.default_rng(rows)
    pool = np.concatenate([rng.uniform(0.0, 1.0, 64), rng.uniform(-10.0, 10.0, 16),
                           [0.0, -0.0, np.nan, np.inf, 1e-7, 123.25, 1e300, 0.125]])
    for m in range(1, 12):
        cells = rng.choice(pool, size=(rows, m))
        blocks = list(csv_blocks(cells[:, :1], cells[:, 1:]))
        assert len(blocks) == -(-rows // _BLOCK_POINTS)
        assert_same_bytes("".join(blocks), cells)
        assert_same_bytes(_format_cells(cells), cells)


def test_bisection_midpoints_and_their_gaps():
    # The thresholds of sample-mems are bisection midpoints of the 1e-3 grid
    # cells, and their 13th digit is often a 5: the floats whose rounded product
    # most often lies on n + 1/2 and go to %. Midpoints of 20 levels of seeded
    # walks from every cell [k/1000, (k+1)/1000], in rows of 4, and their gaps.
    rng = np.random.default_rng(41)
    grid = np.linspace(0.0, 1.0, 1001)
    lo, hi = np.tile(grid[:-1], 8), np.tile(grid[1:], 8)
    mids = []
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        up = rng.random(mid.size) < 0.5
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    cells = rng.permutation(np.concatenate(mids)).reshape(-1, 4)
    cells = np.hstack([cells, np.diff(cells, axis=1)])
    assert_same_bytes("".join(csv_blocks(cells)), cells)


def test_scan_cells_sent_to_percent(refused):
    # A seeded 10^5-row scan of a Ginibre state (that of CI's report) on every
    # family: at most 1 cell in 5,000 goes to %.
    rng = np.random.default_rng(26)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    state = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    qs = np.linspace(0.0, 1.0, 100_000)
    for family in sorted(FAMILIES):
        refused.clear()
        table = scan(state, family, qs)
        assert_same_bytes("".join(csv_blocks(table)), table)
        assert len(refused) <= table.size / 5000, family
