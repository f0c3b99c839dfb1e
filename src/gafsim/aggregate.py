"""Gradient aggregation: plain averaging and agreement filtering.

Agreement filtering starts from a pivot micro-gradient and walks the
remaining candidates in ascending index order. Each candidate is compared
against the *running sum* of everything accepted so far; it is admitted
when its cosine distance to that sum is <= tau. If nothing beyond the
pivot is admitted the whole macrobatch is skipped. The scan is therefore
order dependent: the outcome can move with the pivot choice. The caller
picks the pivot; the training loop draws one per step with draw_pivot.

With k >= 2 micro-gradients, a threshold of 2 admits every candidate,
which makes filtering equivalent to plain averaging. A lone gradient
(k = 1) has nothing to agree with, so filtering skips it at any threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradvec import cosine_distance


@dataclass
class AggregationOutcome:
    """Result of one macrobatch aggregation.

    gradient is None exactly when the step was skipped (accepted_count == 1).
    pairwise_distances holds the cosine distance of every non-pivot
    candidate against the running sum at the moment it was evaluated, in
    evaluation order, whether or not it was accepted.
    """

    gradient: np.ndarray | None
    accepted_count: int
    accepted_mask: list[bool]
    pairwise_distances: list[float]
    skipped: bool


def _validated(grads: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """The micro-gradients as one finite (k, P) float64 block.

    A list of equal-length vectors becomes the block np.stack would build;
    a float64 block passes through uncopied.
    """
    if len(grads) == 0:
        raise ValueError("no gradients to aggregate")
    try:
        block = np.asarray(grads, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"gradient dimension mismatch: {exc}") from None
    if block.ndim != 2:
        raise ValueError(f"gradients must be 1-D vectors, got a block of shape {block.shape}")
    if not np.isfinite(block).all():
        raise ValueError("gradient vector contains non-finite entries")
    return block


def average(grads: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Elementwise mean: sum in index order, then divide by the count."""
    vecs = _validated(grads)
    acc = vecs[0].copy()
    for v in vecs[1:]:
        acc += v
    return acc / len(vecs)


def draw_pivot(k: int, seed: int) -> int:
    """The pivot index drawn uniformly from [0, k) by a generator seeded with seed."""
    return int(np.random.default_rng(seed).integers(k))


def gaf_aggregate(grads: list[np.ndarray] | np.ndarray, tau: float, pivot: int) -> AggregationOutcome:
    """Filter micro-gradients by cosine agreement with the running sum.

    tau is the cosine-distance acceptance threshold in [0, 2]; pivot is the
    index in [0, k) of the micro-gradient that seeds the running sum.
    Deterministic given the gradient order, tau and pivot.
    """
    if not 0.0 <= tau <= 2.0:
        raise ValueError(f"tau must be in [0, 2], got {tau}")
    vecs = _validated(grads)
    k = len(vecs)
    if not 0 <= pivot < k:
        raise ValueError(f"pivot {pivot} out of range for k={k}")

    running = vecs[pivot].copy()
    count = 1
    mask = [False] * k
    mask[pivot] = True
    distances: list[float] = []
    for i in range(k):
        if i == pivot:
            continue
        d = cosine_distance(vecs[i], running)
        distances.append(d)
        if d <= tau:
            running += vecs[i]
            count += 1
            mask[i] = True

    # nothing agreed with the pivot: skip the step
    skipped = count == 1
    return AggregationOutcome(
        gradient=None if skipped else running / count,
        accepted_count=count,
        accepted_mask=mask,
        pairwise_distances=distances,
        skipped=skipped,
    )


def running_scan_distances(grads: list[np.ndarray] | np.ndarray) -> list[float]:
    """Cosine distances of each gradient against the index-order running sum.

    The agreement scan with pivot 0 and the all-admitting threshold 2 (every
    distance lies in [0, 2]). Used to log pairwise disagreement for
    plain-averaging runs.
    """
    return gaf_aggregate(grads, 2.0, 0).pairwise_distances
