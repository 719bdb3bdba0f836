"""Closed-form measure curves for Werner states under one-sided amplitude damping.

These expressions serve as the independent oracle against the numeric
Kraus pipeline. For a Werner state with parameter p evolved at strength q:

  concurrence   C(p, q) = max(0, p sqrt(1-q) - (1/2) sqrt((1-p)(1-q)(1-p+q+pq)))
  fidelity      F(p, q) = (3 + (1 + 2 sqrt(1-q) - q) p) / 6
  bell          B(p, q) = max(B1, B2),  B1 = 2 sqrt(p) sqrt(1-q),
                                        B2 = 2 p sqrt(2 - 3q + q^2)

The two-branch Bell expression is kept as-is rather than silently corrected.
It is known to be defective: with s = sqrt(1-q), B2 equals 2 sqrt(v1 + v3)
over the eigenvalues v = (p^2 s^2, p^2 s^2, p^2 s^4) of T^T T, i.e. it pairs
the largest eigenvalue with the smallest instead of the two largest, and B1
over-scales at small p. The Kraus pipeline yields 2 sqrt(2) p sqrt(1-q)
exactly. The discrepancy is characterized by dedicated diagnostic tests so
the defective form stays inspectable next to the measured truth.

``thresholds.werner_region`` reads the three curves; ``qnl`` does not
re-export them. The two branches (B1, B2) apart and the signed concurrence
before its clamp, whose zero crossing locates q_C, are references in
``tests/oracles.py`` (``bell_ad_branches``, ``concurrence_ad_unclamped``).
"""

from __future__ import annotations

import numpy as np

# A float gives a float, arrays that broadcast together an array.
ArrayOrFloat = float | np.ndarray


def _check_point(p: ArrayOrFloat, q: ArrayOrFloat) -> tuple[np.ndarray, np.ndarray]:
    """Floats or broadcastable arrays as float arrays; ValueError names the first bad entry."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    for name, value in (("state parameter p", p), ("channel parameter q", q)):
        inside = (value >= 0.0) & (value <= 1.0)
        if not inside.all():
            raise ValueError(f"{name} must lie in [0, 1], got {value[~inside][0]}")
    return p, q


def concurrence_ad(p: ArrayOrFloat, q: ArrayOrFloat) -> ArrayOrFloat:
    """Concurrence of the damped Werner state, clamped at zero."""
    p, q = _check_point(p, q)
    inner = (1.0 - p) * (1.0 - q) * (1.0 - p + q + p * q)
    return np.maximum(0.0, p * np.sqrt(1.0 - q) - 0.5 * np.sqrt(np.maximum(inner, 0.0)))


def fidelity_ad(p: ArrayOrFloat, q: ArrayOrFloat) -> ArrayOrFloat:
    """Optimal teleportation fidelity of the damped Werner state."""
    p, q = _check_point(p, q)
    return (3.0 + (1.0 + 2.0 * np.sqrt(1.0 - q) - q) * p) / 6.0


def bell_ad(p: ArrayOrFloat, q: ArrayOrFloat) -> ArrayOrFloat:
    """Two-branch closed-form Bell parameter max(B1, B2).

    See the module docstring: this expression is defective and disagrees
    with the Kraus pipeline away from q = 0.
    """
    p, q = _check_point(p, q)
    return np.maximum(2.0 * np.sqrt(p) * np.sqrt(1.0 - q), 2.0 * p * np.sqrt(2.0 - 3.0 * q + q * q))
