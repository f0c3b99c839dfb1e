"""SGD with heavy-ball momentum and reduce-on-plateau scheduling.

Weight decay is coupled (folded into the loss gradient upstream), so the
optimizer only ever sees the combined gradient. One frozen OptimState holds
both the optimizer's and the scheduler's state. A skipped macrobatch must
leave every field but skip_count untouched; the step functions are pure,
returning new states, which makes that easy to assert bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class OptimState:
    """SGD state plus a reduce-on-plateau schedule for a higher-is-better metric."""

    lr: float
    momentum: float
    velocity: np.ndarray
    patience: int
    lr_factor: float
    min_lr: float
    min_delta: float
    step_count: int = 0
    skip_count: int = 0
    best_metric: float = -math.inf
    bad_epochs: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        # a cut sets lr = max(lr * lr_factor, min_lr): a floor above the lr would raise it
        if not 0.0 <= self.min_lr <= self.lr:
            raise ValueError(f"min_lr must be in [0, lr], got {self.min_lr:g} with lr {self.lr:g}")
        if not 0.0 < self.lr_factor < 1.0:
            raise ValueError("lr_factor must be in (0, 1)")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


def init_optim(lr: float, momentum: float, dim: int, patience: int, lr_factor: float,
               min_lr: float, min_delta: float) -> OptimState:
    return OptimState(lr, momentum, np.zeros(dim), patience, lr_factor, min_lr, min_delta)


def sgd_step(params: np.ndarray, grad: np.ndarray, opt: OptimState) -> tuple[np.ndarray, OptimState]:
    """velocity <- momentum * velocity + grad; params <- params - lr * velocity."""
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match params {params.shape}")
    velocity = opt.momentum * opt.velocity + grad
    # built field by field: dataclasses.replace costs about 2.5x as much per step
    return params - opt.lr * velocity, OptimState(
        opt.lr, opt.momentum, velocity, opt.patience, opt.lr_factor, opt.min_lr, opt.min_delta,
        opt.step_count + 1, opt.skip_count, opt.best_metric, opt.bad_epochs,
    )


def skip_step(opt: OptimState) -> OptimState:
    """No-consensus step: advance the skip counter, change nothing else."""
    return OptimState(
        opt.lr, opt.momentum, opt.velocity, opt.patience, opt.lr_factor, opt.min_lr, opt.min_delta,
        opt.step_count, opt.skip_count + 1, opt.best_metric, opt.bad_epochs,
    )


def plateau_update(opt: OptimState, val_metric: float) -> OptimState:
    """Feed one validation metric; cut the lr after too many stale evals.

    Improvement means exceeding the best seen metric by more than min_delta.
    Once bad_epochs exceeds patience the lr is multiplied by lr_factor (floored
    at min_lr) and the stale counter resets.
    """
    if not math.isfinite(val_metric):
        raise ValueError("validation metric must be finite")
    if val_metric > opt.best_metric + opt.min_delta:
        return replace(opt, best_metric=val_metric, bad_epochs=0)
    bad = opt.bad_epochs + 1
    if bad > opt.patience:
        return replace(opt, lr=max(opt.lr * opt.lr_factor, opt.min_lr), bad_epochs=0)
    return replace(opt, bad_epochs=bad)
