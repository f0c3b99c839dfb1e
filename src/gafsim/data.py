"""Synthetic datasets, symmetric label noise, and macrobatch sampling.

Datasets are immutable after construction: noise injection and subsetting
return new Dataset objects. Label noise flips an exact count of labels,
round(rate * n), chosen without replacement, each to a uniformly random
*different* class, and the flips are fixed for the lifetime of the dataset.
Sampling is pure given a step seed, so every draw is reproducible.

A stratified step draws, class by class, what `Generator.choice(pool,
k * u / num_classes, replace=False)` would. With at least twice as many
classes as rows drawn per class, one `integers` call replays those calls
(Floyd's algorithm, then a shuffle: same picks, same final generator state);
otherwise, and always on `choice`'s tail-shuffle branch, `choice` runs per
class. The replay depends on numpy's `Generator.choice` algorithm;
`TestSamplingReplay` in `tests/test_data.py` fails if a numpy changes it.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .telemetry import read_utf8

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
    def class_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, starts, sizes), computed once: the row indices of (possibly noisy)
        class c, ascending, are rows[starts[c] : starts[c] + sizes[c]]."""
        sizes = np.bincount(self.labels, minlength=self.num_classes)
        return np.argsort(self.labels, kind="stable"), np.cumsum(sizes) - sizes, sizes


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
    features = rng.normal(size=(num_classes, n_per_class, input_dim))
    features *= sigma
    features += means[:, None]
    features = features.reshape(-1, input_dim)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
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
    labels = rng.integers(0, num_classes, size=n)
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
        check_class_capacity(ds, k, u)
        per_class = u // ds.num_classes
        need = k * per_class
        rows, starts, sizes = ds.class_layout
        # the replay loops over need, the choice calls over classes: replay when it makes
        # fewer numpy calls; choice's tail-shuffle branch needs need > 10000 // 50
        if 2 * need <= ds.num_classes and need <= 200:
            local = _replay_choice(rng, sizes, need)
        else:
            local = np.array([rng.choice(n, size=need, replace=False) for n in sizes.tolist()])
        # class c's draw, in k chunks of per_class, fills columns c*per_class onward
        chosen = rows[starts[:, None] + local]
        picks = chosen.reshape(-1, k, per_class).transpose(1, 0, 2).reshape(k, u)
    elif mode == UNIFORM:
        if k * u > ds.n:
            raise ValueError(f"macrobatch k*u={k * u} exceeds dataset size {ds.n}")
        picks = rng.choice(ds.n, size=k * u, replace=False).reshape(k, u)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")

    return picks, ds.features[picks], ds.labels[picks]


def check_class_capacity(ds: Dataset, k: int, u: int) -> None:
    """Raise a ValueError naming ds's first class short of a stratified k * u macrobatch."""
    need = k * (u // ds.num_classes)
    sizes = ds.class_layout[2]
    if sizes.min() < need:
        c = int(np.argmax(sizes < need))
        raise ValueError(f"class {c} has {sizes[c]} samples, need {need} for k={k}, u={u}")


def _replay_choice(rng: np.random.Generator, sizes: np.ndarray, need: int) -> np.ndarray:
    """[rng.choice(n, size=need, replace=False) for n in sizes] from one integers call.

    On its Floyd branch (n <= 10000 or need <= n // 50), choice makes draw t
    uniform on [0, n - need + t], taking that bound instead if the value is
    taken, then swaps position i, from need - 1 down to 1, with one uniform
    on [0, i]. integers draws an array of closed bounds one by one with the
    same bounded-integer routine, so this takes the same values from the
    stream. The caller checks every n >= need and that no n is on the
    tail-shuffle branch.
    """
    steps = np.arange(need)
    highs = np.empty((sizes.size, 2 * need - 1), dtype=np.int64)
    highs[:, :need] = (sizes - need)[:, None] + steps
    highs[:, need:] = steps[:0:-1]
    draws = rng.integers(0, highs, endpoint=True)
    local = draws[:, :need].copy()
    for t in range(1, need):
        taken = (local[:, :t] == local[:, t, None]).any(axis=1)
        local[taken, t] = highs[taken, t]
    classes = np.arange(sizes.size)
    for i, j in zip(steps[:0:-1], draws[:, need:].T):
        swapped = local[:, i].copy()
        local[:, i] = local[classes, j]
        local[classes, j] = swapped
    return local


def _feature(text: str) -> float:
    """float(text), or NaN for text that is no number (rejected with NaN and inf)."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def load_csv(path) -> Dataset:
    """Read a dataset from CSV with header f0,...,f{d-1},label.

    The file is read as UTF-8. Features are finite 64-bit reals; labels are
    non-negative integers. Bytes that are not UTF-8, a row the csv module
    cannot parse, rows with the wrong number of fields, a feature that is not
    a finite number, or a bad label are rejected with the file and line.
    """
    path = Path(path)
    text = read_utf8(path)
    try:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
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
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
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
