"""Simulated k-worker data-parallel training loop.

A worker is one microbatch gradient evaluation against an immutable
snapshot of the parameters; there is no wire protocol. Every source of
randomness (dataset generation, label noise, train/val split, per-step
sampling, pivot draws, initialization) derives from master_seed through a
splitmix64 chain, so runs are bit-reproducible from master_seed alone.
Configs that share the data, seed and macrobatch shape run as one group in
lockstep (run_detailed), drawing each macrobatch and pivot once for all of
them. Each step makes one loss_and_grad call, its one form: the legs'
(L, P) parameter rows on the (k, u, d) macrobatch, writing into the group's
one (L, k, P) gradient block, whose row [l, i] is bit-identical to leg l's
worker i evaluated alone, and one agreement_scan call over that block,
whose outcome l is byte-equal to leg l's own gaf_aggregate call.

The validation split is carved from the generated dataset and always
scored against clean labels, even when the training labels are noisy.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import data as data_mod
# bench/tracing.py's TARGETS wraps average, gaf_aggregate and running_scan_distances on gafsim.sim
from .aggregate import (  # noqa: F401
    agreement_scan, average, draw_pivot, gaf_aggregate, running_scan_distances, scan_work,
)
from .data import Dataset, DataConfig, make_dataset, sample_macrobatch, take
from .models import ModelSpec, accuracy, init_params, loss_and_grad
from .optim import OptimState, init_optim, plateau_update, sgd_step, skip_step
from .telemetry import StepRecord, summarize

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

# the RunConfig fields every leg of a run group shares: they fix the dataset,
# the split, the init, every macrobatch and every pivot draw
GROUP_FIELDS = ("model", "data", "k", "u", "sampling", "val_fraction", "master_seed", "steps")


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
        if self.sampling not in (data_mod.STRATIFIED, data_mod.UNIFORM):
            raise ValueError(f"unknown sampling {self.sampling!r}")
        if not 0.0 <= self.tau <= 2.0:
            raise ValueError("tau must be in [0, 2]")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        # run_detailed checks a CSV file's dims and rows, and each class's rows in the split
        if self.data.kind != data_mod.CSV:
            classes = self.data.num_classes
            if classes != self.model.num_classes:
                raise ValueError(f"data.num_classes {classes} conflicts with "
                                 f"model.num_classes {self.model.num_classes}")
            if self.data.input_dim != self.model.input_dim:
                raise ValueError(f"data.input_dim {self.data.input_dim} conflicts with "
                                 f"model.input_dim {self.model.input_dim}")
            _split(self, self.data.n if self.data.kind == data_mod.WHITE_NOISE
                   else self.data.n_per_class * classes, classes)
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.pivot is not None and not 0 <= self.pivot < self.k:
            raise ValueError(f"pivot {self.pivot} out of range [0, {self.k}) for k={self.k}")
        # the optimizer's and plateau schedule's range checks, run here rather than at step 1
        OptimState(self.lr, self.momentum, np.zeros(0), self.patience, self.lr_factor,
                   self.min_lr, self.min_delta)


def _split(cfg: RunConfig, rows: int, classes: int, where: str = "") -> int:
    """The validation row count of cfg's split of rows rows in classes classes; a ValueError
    prefixed with where if stratified sampling cannot divide u among the classes, a side of
    the split is empty, or the training rows cannot supply a uniform macrobatch."""
    if cfg.sampling == data_mod.STRATIFIED and cfg.u % classes != 0:
        raise ValueError(f"{where}stratified sampling needs u divisible by num_classes "
                         f"({cfg.u} % {classes} != 0)")
    n_val = round(cfg.val_fraction * rows)
    if not 0 < n_val < rows:
        raise ValueError(f"{where}val_fraction {cfg.val_fraction:g} leaves an empty split "
                         f"of {rows} rows")
    if cfg.sampling == data_mod.UNIFORM and cfg.k * cfg.u > rows - n_val:
        raise ValueError(f"{where}uniform macrobatch k*u={cfg.k * cfg.u} exceeds the "
                         f"{rows - n_val} training rows of {rows}")
    return n_val


@dataclass
class RunResult:
    records: list[StepRecord]
    params: np.ndarray
    opt: OptimState
    train: Dataset


def group_key(cfg: RunConfig) -> tuple:
    """The values of cfg's GROUP_FIELDS: configs with equal keys can run as one group."""
    return tuple(getattr(cfg, name) for name in GROUP_FIELDS)


def run_detailed(cfgs: Sequence[RunConfig]) -> list[RunResult]:
    """Run a group of configs in lockstep; return one RunResult per config, in order.

    The configs must agree on GROUP_FIELDS, so they share the dataset, split,
    init, every macrobatch and every pivot draw: each is built or drawn once
    per group (or per step). At each step one loss_and_grad call on the
    legs' (L, P) parameter rows writes every leg's k micro-gradients into
    the group's one (L, k, P) block, allocated once, leg i's rows byte-equal
    to its own (1, P) call, and one agreement_scan call filters every leg's
    rows with its own tau and pivot, each outcome byte-equal to the leg's
    own gaf_aggregate call; each leg then takes its own optimizer step and
    evaluations, so its records and final state are byte-equal to its
    config run alone. Equal configs share one leg and one RunResult. A
    diverging leg fails the group with the step, the leg and the message
    that a leg-by-leg pass would meet first: when the group's gradient call
    or scan fails, each leg makes its own (1, P) call into its row of the
    block and its own one-leg scan, in leg order.
    """
    if isinstance(cfgs, RunConfig):
        raise TypeError("run_detailed takes a sequence of RunConfigs; pass [cfg] for one run")
    if not cfgs:
        raise ValueError("run_detailed needs at least one RunConfig")
    first = cfgs[0]
    for cfg in cfgs[1:]:
        for name in GROUP_FIELDS:
            if getattr(cfg, name) != getattr(first, name):
                raise ValueError(f"run group legs differ in {name}: "
                                 f"{getattr(first, name)!r} != {getattr(cfg, name)!r}")
    master, k = first.master_seed, first.k

    ds = make_dataset(first.data, seed=derive_seed(master, _TAG_DATA))
    if first.data.noise_rate > 0:
        ds = data_mod.inject_symmetric_noise(ds, first.data.noise_rate,
                                             derive_seed(master, _TAG_NOISE))
    source = first.data.path or f"generated {first.data.kind} data"
    # RunConfig has checked generated data; a CSV file's dims and rows are known only now
    if ds.dim != first.model.input_dim or ds.num_classes > first.model.num_classes:
        raise ValueError(
            f"{source}: {ds.dim} features and {ds.num_classes} classes, run.model "
            f"has input_dim {first.model.input_dim} and num_classes {first.model.num_classes}"
        )
    n_val = _split(first, ds.n, ds.num_classes, f"{source}: ")
    perm = np.random.default_rng(derive_seed(master, _TAG_SPLIT)).permutation(ds.n)
    train = take(ds, perm[n_val:])
    if first.sampling == data_mod.STRATIFIED:
        try:
            data_mod.check_class_capacity(train, k, first.u)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc} in the training split left by run.val_fraction "
                             f"{first.val_fraction:g} (run.k * run.u / num_classes rows per "
                             "class)") from None
    val_x, val_y = ds.features[perm[:n_val]], ds.clean_labels[perm[:n_val]]

    spec = replace(first.model, init_seed=derive_seed(master, _TAG_INIT, first.model.init_seed))
    init = init_params(spec)
    # each leg's state is its RunResult, updated in place step by step
    legs = {
        cfg: RunResult([], init.copy(), init_optim(cfg.lr, cfg.momentum, init.size, cfg.patience,
                                                   cfg.lr_factor, cfg.min_lr, cfg.min_delta),
                       train)
        for cfg in cfgs
    }
    gaf = [cfg.aggregator == AGG_GAF for cfg in legs]
    # averaging is the scan with every candidate admitted: tau 2 from pivot 0
    taus = [cfg.tau if g else 2.0 for cfg, g in zip(legs, gaf)]
    fixed = [cfg.pivot if g else 0 for cfg, g in zip(legs, gaf)]
    draws_pivot = None in fixed
    decay = np.array([cfg.weight_decay for cfg in legs])
    # every step's gradients land in this one block, and its scan works in these
    # buffers, so no step frees and re-faults their pages; leg i's rows are views
    # of the block, used only within their step
    grads = np.empty((len(legs), k, init.size))
    work = scan_work(*grads.shape)

    # a diverging run overflows (weights' squares, a dot product) before a guard in
    # loss_and_grad or the agreement scan raises for it: that raise is all it prints
    # (set once per group, as an errstate per loss_and_grad call measured slower)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, first.steps + 1):
            _, features, labels = sample_macrobatch(
                train, k, first.u, first.sampling, derive_seed(master, _TAG_STEP, t)
            )
            drawn = draw_pivot(k, derive_seed(master, _TAG_PIVOT, t)) if draws_pivot else None
            pivots = [drawn if p is None else p for p in fixed]
            # every leg's k micro-gradients in one call, then every leg's scan in one:
            # losses[i], grads[i] and outcomes[i] are leg i's
            try:
                losses = loss_and_grad(np.array([leg.params for leg in legs.values()]),
                                       features, labels, spec, decay, grads)
                outcomes = agreement_scan(grads, taus, pivots, work)
            except ValueError:
                # a leg diverged: evaluate and scan leg by leg instead, so the error below
                # names the leg, and the failure, that a leg-by-leg pass meets first
                for i, leg in enumerate(legs.values()):
                    try:
                        loss_and_grad(leg.params[None], features, labels, spec, decay[i:i + 1],
                                      grads[i:i + 1])
                        agreement_scan(grads[i:i + 1], taus[i:i + 1], pivots[i:i + 1], work)
                    except ValueError as exc:
                        where = "" if len(legs) == 1 else f" in group leg {i}"
                        raise RuntimeError(f"training diverged at step {t}{where}: {exc}") from exc
                raise  # unreachable: each leg's rows and scan are bit-equal to the group's
            for i, (cfg, leg) in enumerate(legs.items()):
                # exact: sum starts at 0, and 0 + x == x as a loss is never -0.0
                train_loss = sum(losses[i].tolist()) / k
                outcome = outcomes[i]
                # the scan skips a lone gradient, having no candidate; averaging steps on it
                gradient = outcome.gradient if gaf[i] or k > 1 else grads[i, 0]
                skipped = gradient is None
                if skipped:
                    leg.opt = skip_step(leg.opt)
                else:
                    leg.params, leg.opt = sgd_step(leg.params, gradient, leg.opt)

                scheduled = not skipped and leg.opt.step_count % cfg.eval_every == 0
                train_acc = val_acc = None
                # the final step is always scored for summaries, but only a scheduled
                # evaluation feeds the plateau scheduler
                if scheduled or t == first.steps:
                    train_acc = accuracy(leg.params, train.features, train.labels, spec)
                    val_acc = accuracy(leg.params, val_x, val_y, spec)
                if scheduled:
                    leg.opt = plateau_update(leg.opt, val_acc)

                leg.records.append(
                    StepRecord(
                        step=t,
                        train_loss=train_loss,
                        cos_distances=outcome.pairwise_distances,
                        accepted_count=outcome.accepted_count,
                        skipped=skipped,
                        lr=leg.opt.lr,
                        train_acc=train_acc,
                        val_acc=val_acc,
                    )
                )

    return [legs[cfg] for cfg in cfgs]


def run(cfg: RunConfig) -> list[StepRecord]:
    """Run the training loop, returning one StepRecord per step."""
    return run_detailed([cfg])[0].records


def measure_pairwise_distance_trend(cfg: RunConfig, u_values: list[int]) -> dict[int, float]:
    """Mean two-worker cosine distance over the last quartile, per microbatch size.

    Runs plain-averaging training once per u value on a k=2 config and
    takes its summary's mean recorded distance over the final quarter of steps.
    """
    if cfg.k != 2:
        raise ValueError("pairwise distance trend is defined for k=2")
    trend = {}
    for u in u_values:
        summary = summarize(run(replace(cfg, u=u, aggregator=AGG_AVERAGING)))
        trend[u] = summary["mean_cos_distance_last_quartile"]
    return trend
