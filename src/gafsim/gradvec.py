"""Flat gradient-vector arithmetic.

A gradient vector is a 1-D float64 numpy array. The helpers here pin down
the numerics the aggregation layer relies on: dot products are summed in
index order (no pairwise or threaded reduction) so results are
bit-reproducible, and cosine distance is clamped to [0, 2] with a defined
value for degenerate (near-zero) inputs.
"""

from __future__ import annotations

import numpy as np

# Below this L2 norm a vector is treated as directionless: its cosine
# distance to anything is the maximal 2.0, so it can never win agreement.
ZERO_NORM_EPS = 1e-30

GradVec = np.ndarray


def _check_dims(a: GradVec, b: GradVec) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def dot(a: GradVec, b: GradVec) -> float:
    """Inner product with strict left-to-right summation.

    np.add.accumulate evaluates the running sum element by element in index
    order, which keeps the result independent of BLAS threading.
    """
    _check_dims(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = a * b
        if prod.size == 0:
            return 0.0
        total = float(np.add.accumulate(prod)[-1])
    if not np.isfinite(total):
        raise ValueError("non-finite dot product")
    return total


def l2_norm(a: GradVec) -> float:
    """Euclidean norm, sqrt(dot(a, a))."""
    return float(np.sqrt(dot(a, a)))


def cosine_distance(a: GradVec, b: GradVec) -> float:
    """Cosine distance in [0, 2]: 0 aligned, 1 orthogonal, 2 opposed.

    If either vector has norm below ZERO_NORM_EPS the distance is defined
    as 2.0 (maximal disagreement), so a zero gradient never passes an
    agreement threshold below 2. The result is clamped to [0, 2] to absorb
    rounding just outside the analytic range, and is evaluated symmetrically
    so cosine_distance(a, b) == cosine_distance(b, a) exactly.
    """
    _check_dims(a, b)
    na = l2_norm(a)
    nb = l2_norm(b)
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        return 2.0
    d = 1.0 - dot(a, b) / (na * nb)
    return min(max(d, 0.0), 2.0)

