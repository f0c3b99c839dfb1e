"""Gradient aggregation: plain averaging and agreement filtering.

Agreement filtering starts from a pivot micro-gradient and walks the
remaining candidates in ascending index order. Each candidate is compared
against the *running sum* of everything accepted so far; it is admitted
when its cosine distance to that sum is <= tau. If nothing beyond the
pivot is admitted the whole macrobatch is skipped. The scan is therefore
order dependent: the outcome can move with the pivot choice. The caller
picks the pivot; the training loop draws one per step with draw_pivot
when k >= 3. At k = 2 the pivot cannot move the outcome's gradient or
distance (p + c == c + p), so the loop uses pivot 0.

With k >= 2 micro-gradients, a threshold of 2 admits every candidate,
which makes filtering equivalent to plain averaging. A lone gradient
(k = 1) has nothing to agree with, so filtering skips it at any threshold.

The scan has one implementation, agreement_scan, which filters every leg
of an (L, k, P) gradient block at once: a run group scans all its legs in
one call per step, and gaf_aggregate is the one-leg block. Its dot
products are the strict index-order sums of gradvec.dot, bit for bit, and
its distances follow gradvec.cosine_distance; each round of the scan
writes all of its dot products' terms into the columns of one array and
sums them with one einsum (_strict_dots).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# bench/tracing.py's TARGETS wraps cosine_distance on gafsim.aggregate
from .gradvec import ZERO_NORM_EPS, cosine_distance  # noqa: F401

# A round's R dot products are summed as the columns of a C-contiguous (P, R)
# array, whose np.einsum("ij->j") adds them side by side, each row after row.
# Below this many products a round writes them straight into those columns;
# from it on it writes contiguous rows and copies them over in one transposing
# copy, which then beats the strided writes (min µs per round, direct against
# copy, 2-core Xeon: 91 against 96 at 7 rows and 102 against 94 at 8 rows for
# P = 5514; 50 against 52 and 65 against 50 for P = 2826; 147 against 111 at
# 21 rows, a 7-leg k = 2 round 0).
_COPY_MIN_ROWS = 8


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


def draw_pivot(k: int, seed: int | np.random.Generator) -> int:
    """The pivot index drawn uniformly from [0, k) by np.random.default_rng(seed): seed
    is a seed or a Generator, which is drawn from as it is."""
    return int(np.random.default_rng(seed).integers(k))


def scan_work(legs: int, k: int, dim: int) -> np.ndarray:
    """Work space for agreement_scan on (legs, k, dim) blocks: the product rows
    of its largest round, legs * (k + 1), and a spare row for their columns."""
    return np.empty((2, legs * (k + 1) * dim))


def _strict_dots(squares: np.ndarray, pairs: list, work: np.ndarray) -> list[float]:
    """The dot product of each (P,) row of squares with itself, then of each
    (a, b) pair, each summed strictly in index order.

    Bit for bit np.add.accumulate(a * b)[-1], as Python floats. The products
    fill the columns of a (P, R) array in work's spare row, straight or
    through a copy of contiguous rows (_COPY_MIN_ROWS); a one-product round
    gets a zero pad column, as numpy sums a lone column pairwise, not in index
    order. Raises ValueError if a sum is not finite.
    """
    head, dim = squares.shape
    count = head + len(pairs)
    if not dim:
        return [0.0] * count  # gradvec.dot's sum of no products
    products, spare = work
    columns = spare[:max(count, 2) * dim].reshape(dim, max(count, 2))
    copied = count >= _COPY_MIN_ROWS
    rows = products[:count * dim].reshape(count, dim) if copied else columns.T
    np.multiply(squares, squares, out=rows[:head])
    for row, (a, b) in zip(rows[head:], pairs):
        np.multiply(a, b, out=row)
    if copied:
        np.copyto(columns[:, :count], rows.T)
    if count == 1:
        columns[:, 1] = 0.0
    sums = np.einsum("ij->j", columns)
    values = sums[:count].tolist()
    # einsum adds each column to 0.0, so a column of -0.0 gives 0.0, not -0.0
    for j, value in enumerate(values):
        if value == 0.0 and np.signbit(rows[j]).all():
            values[j] = -0.0
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
    for r in range(k - 1):
        pairs = []
        for leg, cands in enumerate(candidates):
            if accepted[leg]:
                pairs.append((running[leg], running[leg]))
            pairs.append((block[leg, cands[r]], running[leg]))
        head = 0 if r else n
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _strict_dots(rows[:head], pairs, work)
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
        outcomes.append(AggregationOutcome(gradient, count, masks[leg], distances[leg]))
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
