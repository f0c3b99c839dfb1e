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

The scan has one implementation, agreement_scan, which filters every leg
of an (L, k, P) gradient block at once: a run group scans all its legs in
one call per step, and gaf_aggregate is the one-leg block. Its dot
products are the strict index-order sums of gradvec.dot, bit for bit, and
its distances follow gradvec.cosine_distance; each round of the scan sums
all of its dot products in one call (_strict_row_sums).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# bench/tracing.py's TARGETS wraps cosine_distance on gafsim.aggregate
from .gradvec import ZERO_NORM_EPS, cosine_distance  # noqa: F401

# Below this many dot products a round sums each product row with
# np.add.accumulate, about 3.4 ns per product; from it on, copying the rows
# into a (P, R) transpose and summing its columns with one einsum, about
# 0.8 ns per product plus 10 ns per element of P, wins (measured at
# P = 1000-5514 on a 2-core Xeon). It must stay above 1: einsum sums a lone
# column with unrolled partial sums, not in index order.
_COLUMN_MIN_ROWS = 6


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


def scan_work(legs: int, k: int, dim: int) -> np.ndarray:
    """Work space for agreement_scan on (legs, k, dim) blocks: the product rows
    of its largest round, legs * (k + 1), and room for their transpose if that
    round is summed by column."""
    rows = legs * (k + 1)
    return np.empty((2 if rows >= _COLUMN_MIN_ROWS else 1, rows * dim))


def _strict_row_sums(products: np.ndarray, spare: np.ndarray) -> list[float]:
    """Each row of the (R, P) products summed strictly in index order.

    Bit for bit np.add.accumulate(row)[-1], as Python floats. Below
    _COLUMN_MIN_ROWS rows that accumulate runs in place, over products. From
    it on, the rows are copied into spare (R * P floats or more) as a
    C-contiguous (P, R) array, whose axis-0 einsum adds the R columns side by
    side, each one row after row. Raises ValueError if a sum is not finite.
    """
    rows, dim = products.shape
    if not dim:
        return [0.0] * rows  # gradvec.dot's sum of no products
    if rows < _COLUMN_MIN_ROWS:
        sums = np.add.accumulate(products, axis=1, out=products)[:, -1]
    else:
        columns = spare[:rows * dim].reshape(dim, rows)
        np.copyto(columns, products.T)
        sums = np.einsum("ij->j", columns)
        # einsum adds each column to 0.0, so a column of -0.0 gives 0.0, not -0.0
        for row in np.flatnonzero(sums == 0.0):
            if np.signbit(products[row]).all():
                sums[row] = -0.0
    values = sums.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite dot product")
    return values


def agreement_scan(block: np.ndarray, taus: Sequence[float], pivots: Sequence[int],
                   work: np.ndarray) -> list[AggregationOutcome]:
    """gaf_aggregate(block[l], taus[l], pivots[l]) for every leg l of an (L, k, P) block.

    Each outcome is byte-equal to that call's. The scan runs one round per
    candidate position, each summing all its dot products in one call: every
    leg's candidate against its running sum, the running sum's squared norm
    for the legs that accepted in the round before (every other running sum
    is unchanged), and in round 0 every row's squared norm. Those are the
    sums gaf_aggregate's loop takes (and, for a zero-norm row, a cross dot
    that stays finite), so this raises ValueError("non-finite dot product")
    exactly when one of its calls would. work comes from scan_work for the
    block's shape, or a larger one. Does not check taus, pivots or entries.
    """
    legs, k, dim = block.shape
    n = legs * k
    rows = block.reshape(n, dim)
    candidates = [[i for i in range(k) if i != p] for p in pivots]
    masks = [[i == p for i in range(k)] for p in pivots]
    # each leg's running sum: its pivot row until the first accept makes a new array
    running = [block[leg, p] for leg, p in enumerate(pivots)]
    counts = [1] * legs
    accepted = [False] * legs
    distances: list[list[float]] = [[] for _ in range(legs)]
    products, spare = work[0], work[-1]
    for r in range(k - 1):
        pairs = []
        for leg, cands in enumerate(candidates):
            if accepted[leg]:
                pairs.append((running[leg], running[leg]))
            pairs.append((block[leg, cands[r]], running[leg]))
        head = 0 if r else n
        with np.errstate(over="ignore", invalid="ignore"):
            prods = products[:(head + len(pairs)) * dim].reshape(head + len(pairs), dim)
            if not r:
                np.multiply(rows, rows, out=prods[:n])
            for row, (a, b) in zip(prods[head:], pairs):
                np.multiply(a, b, out=row)
            sums = _strict_row_sums(prods, spare)
        if not r:
            norms = [math.sqrt(s) for s in sums[:n]]
            running_norms = [norms[leg * k + p] for leg, p in enumerate(pivots)]
        sums = iter(sums[head:])
        for leg, cands in enumerate(candidates):
            if accepted[leg]:
                running_norms[leg] = math.sqrt(next(sums))
            c, cross = cands[r], next(sums)
            na, nb = norms[leg * k + c], running_norms[leg]
            if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
                d = 2.0
            else:
                d = min(max(1.0 - cross / (na * nb), 0.0), 2.0)
            distances[leg].append(d)
            accepted[leg] = d <= taus[leg]
            if accepted[leg]:
                running[leg] = running[leg] + block[leg, c]
                counts[leg] += 1
                masks[leg][c] = True

    outcomes = []
    for leg, count in enumerate(counts):
        # nothing agreed with the pivot: skip the step
        gradient = None
        if count > 1:
            gradient = running[leg]
            gradient /= count
        outcomes.append(AggregationOutcome(gradient, count, masks[leg], distances[leg],
                                           count == 1))
    return outcomes


def gaf_aggregate(grads: list[np.ndarray] | np.ndarray, tau: float, pivot: int) -> AggregationOutcome:
    """Filter micro-gradients by cosine agreement with the running sum.

    tau is the cosine-distance acceptance threshold in [0, 2]; pivot is the
    index in [0, k) of the micro-gradient that seeds the running sum.
    Deterministic given the gradient order, tau and pivot. The one-leg
    agreement_scan.
    """
    if not 0.0 <= tau <= 2.0:
        raise ValueError(f"tau must be in [0, 2], got {tau}")
    vecs = _validated(grads)
    k, dim = vecs.shape
    if not 0 <= pivot < k:
        raise ValueError(f"pivot {pivot} out of range for k={k}")
    return agreement_scan(vecs[None], [tau], [pivot], scan_work(1, k, dim))[0]


def running_scan_distances(grads: list[np.ndarray] | np.ndarray) -> list[float]:
    """Cosine distances of each gradient against the index-order running sum.

    The agreement scan with pivot 0 and the all-admitting threshold 2 (every
    distance lies in [0, 2]): the distances a plain-averaging run logs.
    """
    return gaf_aggregate(grads, 2.0, 0).pairwise_distances
