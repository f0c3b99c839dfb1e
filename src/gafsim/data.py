"""Synthetic datasets, symmetric label noise, and macrobatch sampling.

Datasets are immutable after construction: noise injection and subsetting
return new Dataset objects. Label noise flips an exact count of labels,
round(rate * n), chosen without replacement, each to a uniformly random
*different* class, and the flips are fixed for the lifetime of the dataset.
Sampling is pure given a step seed, so every draw is reproducible.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

STRATIFIED = "stratified"
UNIFORM = "uniform"

GAUSSIAN = "gaussian"
WHITE_NOISE = "white_noise"
CSV = "csv"


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64, possibly noisy
    clean_labels: np.ndarray  # (n,) int64 ground truth
    num_classes: int

    def __post_init__(self):
        n = self.features.shape[0]
        if self.labels.shape[0] != n or self.clean_labels.shape[0] != n:
            raise ValueError("features and labels disagree on row count")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def class_pools(self) -> list[np.ndarray]:
        """Row indices of each (possibly noisy) class, ascending; computed once."""
        return [np.flatnonzero(self.labels == c) for c in range(self.num_classes)]


@dataclass(frozen=True)
class DataConfig:
    """Declarative dataset source for the training loop.

    kind selects the generator: "gaussian" (n_per_class per class around
    random unit means, spread sigma), "white_noise" (n rows, no
    feature-label relationship), or "csv" (path to f0,...,label file).
    noise_rate > 0 additionally flips that fraction of labels for the run.
    """

    kind: str
    num_classes: int = 10
    input_dim: int = 32
    n_per_class: int = 500
    n: int = 2000
    sigma: float = 1.0
    noise_rate: float = 0.0
    path: str | None = None

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, WHITE_NOISE, CSV):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError("noise_rate must be in [0, 1]")
        if self.kind == CSV and not self.path:
            raise ValueError("csv dataset needs a path")
        # the generators' own checks, run here so a bad key fails before the run
        if self.kind == GAUSSIAN:
            if not self.sigma > 0:
                raise ValueError(f"sigma must be positive, got {self.sigma:g}")
            if self.n_per_class < 1:
                raise ValueError(f"n_per_class must be >= 1, got {self.n_per_class}")
        if self.kind == WHITE_NOISE and self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


def make_dataset(cfg: DataConfig, seed: int) -> Dataset:
    """Materialize the configured source (noise injection happens separately)."""
    if cfg.kind == GAUSSIAN:
        return gen_gaussian_clusters(cfg.num_classes, cfg.input_dim, cfg.n_per_class, cfg.sigma, seed)
    if cfg.kind == WHITE_NOISE:
        return gen_white_noise(cfg.num_classes, cfg.input_dim, cfg.n, seed)
    return load_csv(cfg.path)


def gen_gaussian_clusters(
    num_classes: int, input_dim: int, n_per_class: int, sigma: float, seed: int
) -> Dataset:
    """Isotropic Gaussian blobs around per-class random unit-vector means."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if input_dim < 1 or n_per_class < 1:
        raise ValueError("input_dim and n_per_class must be positive")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, input_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    features = np.empty((num_classes * n_per_class, input_dim))
    labels = np.empty(num_classes * n_per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        features[block] = means[c] + sigma * rng.normal(size=(n_per_class, input_dim))
        labels[block] = c
    return Dataset(
        features=features,
        labels=labels,
        clean_labels=labels.copy(),
        num_classes=num_classes,
    )


def gen_white_noise(num_classes: int, input_dim: int, n: int, seed: int) -> Dataset:
    """Pure noise: i.i.d. standard-normal features, uniform labels, no relationship."""
    if num_classes < 2 or input_dim < 1 or n < 1:
        raise ValueError("invalid white-noise dimensions")
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, input_dim))
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    return Dataset(
        features=features,
        labels=labels,
        clean_labels=labels.copy(),
        num_classes=num_classes,
    )


def inject_symmetric_noise(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Flip exactly round(rate * n) labels to a random different class.

    Flips are applied relative to the clean labels, so re-injecting replaces
    any earlier noise instead of compounding it. Features are shared with
    the source dataset, bit for bit.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"noise rate must be in [0, 1], got {rate}")
    n = ds.n
    n_flip = round(rate * n)
    labels = ds.clean_labels.copy()
    if n_flip > 0:
        rng = np.random.default_rng(seed)
        idx = rng.choice(n, size=n_flip, replace=False)
        # uniform over the C-1 classes other than the clean one
        draws = rng.integers(0, ds.num_classes - 1, size=n_flip)
        labels[idx] = draws + (draws >= ds.clean_labels[idx])
    return Dataset(
        features=ds.features,
        labels=labels,
        clean_labels=ds.clean_labels,
        num_classes=ds.num_classes,
    )


def take(ds: Dataset, indices: np.ndarray) -> Dataset:
    """Row subset as a new Dataset."""
    indices = np.asarray(indices)
    return Dataset(
        features=ds.features[indices],
        labels=ds.labels[indices],
        clean_labels=ds.clean_labels[indices],
        num_classes=ds.num_classes,
    )


def sample_macrobatch(
    ds: Dataset, k: int, u: int, mode: str, step_seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw k pairwise-disjoint microbatches of size u as one macrobatch.

    Returns (picks, features, labels): the (k, u) int64 row indices, their
    (k, u, d) features and (k, u) labels; row i of each is microbatch i.
    Stratified mode draws u / num_classes samples per class per microbatch
    (u must divide evenly), so all k microbatches share one class histogram.
    Uniform mode draws k*u distinct rows and chunks them. Deterministic
    given step_seed. Features and labels are gathered once, as contiguous
    arrays.
    """
    if k < 1 or u < 1:
        raise ValueError("k and u must be positive")
    rng = np.random.default_rng(step_seed)
    if mode == STRATIFIED:
        if u % ds.num_classes != 0:
            raise ValueError(
                f"stratified sampling needs u divisible by num_classes ({u} % {ds.num_classes} != 0)"
            )
        per_class = u // ds.num_classes
        picks = np.empty((k, u), dtype=np.int64)
        col = 0
        need = k * per_class
        for c, pool in enumerate(ds.class_pools):
            if pool.size < need:
                raise ValueError(
                    f"class {c} has {pool.size} samples, need {need} for k={k}, u={u}"
                )
            chosen = pool[rng.choice(pool.size, size=need, replace=False)]
            picks[:, col : col + per_class] = chosen.reshape(k, per_class)
            col += per_class
    elif mode == UNIFORM:
        if k * u > ds.n:
            raise ValueError(f"macrobatch k*u={k * u} exceeds dataset size {ds.n}")
        picks = rng.choice(ds.n, size=k * u, replace=False).reshape(k, u)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")

    return picks, ds.features[picks], ds.labels[picks]


def _feature(text: str) -> float:
    """float(text), or NaN for text that is no number (rejected with NaN and inf)."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def load_csv(path) -> Dataset:
    """Read a dataset from CSV with header f0,...,f{d-1},label.

    Features are finite 64-bit reals; labels are non-negative integers.
    Rows with the wrong number of fields, a feature that is not a finite
    number, or a bad label are rejected with the file and line.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        d = len(header) - 1
        expected = [f"f{i}" for i in range(d)] + ["label"]
        if d < 1 or header != expected:
            raise ValueError(f"{path}: header must be f0,...,f{{d-1}},label")
        feats, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise ValueError(f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}")
            values = [_feature(v) for v in row[:d]]
            for i, v in enumerate(values):
                if not math.isfinite(v):
                    raise ValueError(f"{path}:{lineno}: feature f{i} must be a finite number")
            feats.append(values)
            if not re.fullmatch(r"\d+", row[d].strip()):
                raise ValueError(f"{path}:{lineno}: label must be a non-negative integer")
            labels.append(int(row[d]))
    if not feats:
        raise ValueError(f"{path}: no data rows")
    features = np.asarray(feats, dtype=np.float64)
    label_arr = np.asarray(labels, dtype=np.int64)
    return Dataset(
        features=features,
        labels=label_arr,
        clean_labels=label_arr.copy(),
        num_classes=int(label_arr.max()) + 1,
    )
