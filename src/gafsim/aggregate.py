"""Gradient aggregation: plain averaging and agreement filtering.

Agreement filtering starts from a pivot micro-gradient and walks the
remaining candidates in ascending index order. Each candidate is compared
against the *running sum* of everything accepted so far; it is admitted
when its cosine distance to that sum is <= tau. If nothing beyond the
pivot is admitted the whole macrobatch is skipped. The scan is therefore
order dependent: the outcome can move with the pivot choice.

With k >= 2 micro-gradients, a threshold of 2 admits every candidate,
which makes filtering equivalent to plain averaging. A lone gradient
(k = 1) has nothing to agree with, so filtering skips it at any threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gradvec import GradVec, cosine_distance


@dataclass(frozen=True)
class GafConfig:
    """Agreement-filter settings.

    tau: cosine-distance acceptance threshold in [0, 2].
    pivot: index of the micro-gradient that seeds the running sum, or None
        to draw it uniformly from a generator seeded with rng_seed.
    """

    tau: float
    pivot: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.tau <= 2.0:
            raise ValueError(f"tau must be in [0, 2], got {self.tau}")
        if self.pivot is not None and self.pivot < 0:
            raise ValueError("pivot index must be non-negative")


@dataclass
class AggregationOutcome:
    """Result of one macrobatch aggregation.

    gradient is None exactly when the step was skipped (accepted_count == 1).
    pairwise_distances holds the cosine distance of every non-pivot
    candidate against the running sum at the moment it was evaluated, in
    evaluation order, whether or not it was accepted.
    """

    gradient: GradVec | None
    accepted_count: int
    accepted_mask: list[bool]
    pairwise_distances: list[float]
    skipped: bool
    pivot: int = field(default=0)


def _validated(grads: list[GradVec] | np.ndarray) -> np.ndarray:
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


def average(grads: list[GradVec] | np.ndarray) -> GradVec:
    """Elementwise mean: sum in index order, then divide by the count."""
    vecs = _validated(grads)
    acc = vecs[0].copy()
    for v in vecs[1:]:
        acc += v
    return acc / len(vecs)


def draw_pivot(k: int, seed: int) -> int:
    """The pivot index drawn uniformly from [0, k) by a generator seeded with seed."""
    return int(np.random.default_rng(seed).integers(k))


def gaf_aggregate(grads: list[GradVec] | np.ndarray, cfg: GafConfig) -> AggregationOutcome:
    """Filter micro-gradients by cosine agreement with the running sum.

    Deterministic given the gradient order and cfg (the pivot draw comes
    from a generator owned by cfg.rng_seed, never global state).
    """
    vecs = _validated(grads)
    k = len(vecs)
    if cfg.pivot is None:
        pivot = draw_pivot(k, cfg.rng_seed)
    else:
        if cfg.pivot >= k:
            raise ValueError(f"pivot {cfg.pivot} out of range for k={k}")
        pivot = cfg.pivot

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
        if d <= cfg.tau:
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
        pivot=pivot,
    )


def running_scan_distances(grads: list[GradVec] | np.ndarray) -> list[float]:
    """Cosine distances of each gradient against the index-order running sum.

    The agreement scan with pivot 0 and the all-admitting threshold 2 (every
    distance lies in [0, 2]). Used to log pairwise disagreement for
    plain-averaging runs.
    """
    return gaf_aggregate(grads, GafConfig(tau=2.0, pivot=0)).pairwise_distances
