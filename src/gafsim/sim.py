"""Simulated k-worker data-parallel training loop.

A worker is one microbatch gradient evaluation against an immutable
snapshot of the parameters; there is no wire protocol. Every source of
randomness (dataset generation, label noise, train/val split, per-step
sampling, pivot draws, initialization) derives from master_seed through a
splitmix64 chain, and the k micro-gradients are evaluated one after another
in worker order, so runs are bit-reproducible from master_seed alone.

The validation split is carved from the generated dataset and always
scored against clean labels, even when the training labels are noisy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data as data_mod
from .aggregate import GafConfig, average, gaf_aggregate, running_scan_distances
from .data import Dataset, DataConfig, make_dataset, sample_macrobatch, take
from .models import ModelSpec, Params, accuracy, init_params, loss_and_grad
from .optim import OptimState, SchedState, init_optim, plateau_update, sgd_step, skip_step
from .telemetry import StepRecord

AGG_AVERAGING = "avg"
AGG_GAF = "gaf"

_U64 = (1 << 64) - 1

# domain tags for seed derivation
_TAG_DATA = 1
_TAG_NOISE = 2
_TAG_SPLIT = 3
_TAG_INIT = 4
_TAG_STEP = 5
_TAG_PIVOT = 6


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def derive_seed(*components: int) -> int:
    """Deterministic 64-bit seed from a path of integer components."""
    state = 0x8AF5A9C180BF8C11
    for c in components:
        state = _splitmix64(state ^ (int(c) & _U64))
    return state


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one training run."""

    model: ModelSpec
    data: DataConfig
    k: int = 2
    u: int = 10
    steps: int = 1000
    aggregator: str = AGG_AVERAGING
    tau: float = 0.97
    pivot: int | None = None  # None: fresh uniform pivot each step
    sampling: str = data_mod.STRATIFIED
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    patience: int = 100
    lr_factor: float = 0.1
    min_lr: float = 1e-6
    min_delta: float = 1e-4
    eval_every: int = 100
    val_fraction: float = 0.2
    master_seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.k < 1 or self.u < 1:
            raise ValueError("k and u must be positive")
        if self.aggregator not in (AGG_AVERAGING, AGG_GAF):
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if not 0.0 <= self.tau <= 2.0:
            raise ValueError("tau must be in [0, 2]")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.pivot is not None and not 0 <= self.pivot < self.k:
            raise ValueError(f"pivot {self.pivot} out of range [0, {self.k}) for k={self.k}")

    @property
    def macrobatch_size(self) -> int:
        return self.k * self.u


@dataclass
class RunResult:
    records: list[StepRecord]
    params: Params
    opt: OptimState
    sched: SchedState
    train: Dataset
    val_features: np.ndarray
    val_labels: np.ndarray  # clean labels


def _split(ds: Dataset, val_fraction: float, seed: int):
    perm = np.random.default_rng(seed).permutation(ds.n)
    n_val = round(val_fraction * ds.n)
    if n_val < 1 or n_val >= ds.n:
        raise ValueError("val_fraction leaves an empty split")
    return take(ds, perm[n_val:]), ds.features[perm[:n_val]], ds.clean_labels[perm[:n_val]]


def run_detailed(cfg: RunConfig) -> RunResult:
    """Run the full loop and return records plus final state."""
    master = cfg.master_seed

    ds = make_dataset(cfg.data, seed=derive_seed(master, _TAG_DATA))
    if cfg.data.noise_rate > 0:
        ds = data_mod.inject_symmetric_noise(ds, cfg.data.noise_rate, derive_seed(master, _TAG_NOISE))
    train, val_x, val_y = _split(ds, cfg.val_fraction, derive_seed(master, _TAG_SPLIT))

    spec = replace(cfg.model, init_seed=derive_seed(master, _TAG_INIT, cfg.model.init_seed))
    params = init_params(spec)
    opt = init_optim(cfg.lr, cfg.momentum, params.total_dim)
    sched = SchedState(
        patience=cfg.patience, factor=cfg.lr_factor, min_lr=cfg.min_lr, min_delta=cfg.min_delta
    )

    records: list[StepRecord] = []
    applied = 0
    for t in range(1, cfg.steps + 1):
        batches = sample_macrobatch(
            train, cfg.k, cfg.u, cfg.sampling, derive_seed(master, _TAG_STEP, t)
        )
        try:
            losses, grads = [], []
            for mb in batches:
                loss, grad = loss_and_grad(params, mb.features, mb.labels, spec, cfg.weight_decay)
                losses.append(loss)
                grads.append(grad)
            train_loss = losses[0]
            for v in losses[1:]:
                train_loss += v
            train_loss /= cfg.k

            if cfg.aggregator == AGG_GAF:
                gcfg = GafConfig(
                    tau=cfg.tau, pivot=cfg.pivot, rng_seed=derive_seed(master, _TAG_PIVOT, t)
                )
                outcome = gaf_aggregate(grads, gcfg)
                distances = outcome.pairwise_distances
                accepted = outcome.accepted_count
                skipped = outcome.skipped
                if skipped:
                    opt = skip_step(opt)
                else:
                    params, opt = sgd_step(params, outcome.gradient, opt)
            else:
                distances = running_scan_distances(grads)
                accepted = cfg.k
                skipped = False
                params, opt = sgd_step(params, average(grads), opt)
        except ValueError as exc:
            raise RuntimeError(f"training diverged at step {t}: {exc}") from exc

        train_acc = val_acc = None
        if not skipped:
            applied += 1
            if applied % cfg.eval_every == 0:
                train_acc = accuracy(params, train.features, train.labels, spec)
                val_acc = accuracy(params, val_x, val_y, spec)
                sched, opt = plateau_update(sched, opt, val_acc)
        if t == cfg.steps and val_acc is None:
            # final-step snapshot for summaries; never fed to the scheduler
            train_acc = accuracy(params, train.features, train.labels, spec)
            val_acc = accuracy(params, val_x, val_y, spec)

        records.append(
            StepRecord(
                step=t,
                train_loss=train_loss,
                cos_distances=distances,
                accepted_count=accepted,
                skipped=skipped,
                lr=opt.lr,
                train_acc=train_acc,
                val_acc=val_acc,
            )
        )

    return RunResult(records, params, opt, sched, train, val_x, val_y)


def run(cfg: RunConfig) -> list[StepRecord]:
    """Run the training loop, returning one StepRecord per step."""
    return run_detailed(cfg).records


def measure_pairwise_distance_trend(cfg: RunConfig, u_values: list[int]) -> dict[int, float]:
    """Mean two-worker cosine distance over the last quartile, per microbatch size.

    Runs plain-averaging training once per u value on a k=2 config and
    averages the recorded pairwise distances over the final quarter of steps.
    """
    if cfg.k != 2:
        raise ValueError("pairwise distance trend is defined for k=2")
    out: dict[int, float] = {}
    for u in u_values:
        records = run(replace(cfg, u=u, aggregator=AGG_AVERAGING))
        tail = records[(3 * len(records)) // 4 :]
        distances = [d for r in tail for d in r.cos_distances]
        out[u] = sum(distances) / len(distances)
    return out
