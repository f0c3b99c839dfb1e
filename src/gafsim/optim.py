"""SGD with heavy-ball momentum and reduce-on-plateau scheduling.

Weight decay is coupled (folded into the loss gradient upstream), so the
optimizer only ever sees the combined gradient. Skipped macrobatches must
leave every piece of optimizer and scheduler state untouched; the step
functions are pure, returning new state objects, which makes that easy to
assert bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class OptimState:
    lr: float
    momentum: float
    velocity: np.ndarray
    step_count: int = 0
    skip_count: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


@dataclass(frozen=True)
class SchedState:
    """Reduce-on-plateau state for a higher-is-better metric."""

    patience: int
    lr_factor: float
    min_lr: float = 1e-6
    min_delta: float = 1e-4
    best_metric: float = -math.inf
    bad_epochs: int = 0

    def __post_init__(self):
        if not 0.0 < self.lr_factor < 1.0:
            raise ValueError("lr_factor must be in (0, 1)")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


def init_optim(lr: float, momentum: float, dim: int) -> OptimState:
    return OptimState(lr=lr, momentum=momentum, velocity=np.zeros(dim))


def sgd_step(params: np.ndarray, grad: np.ndarray, opt: OptimState) -> tuple[np.ndarray, OptimState]:
    """velocity <- momentum * velocity + grad; params <- params - lr * velocity."""
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match params {params.shape}")
    velocity = opt.momentum * opt.velocity + grad
    return params - opt.lr * velocity, replace(opt, velocity=velocity, step_count=opt.step_count + 1)


def skip_step(opt: OptimState) -> OptimState:
    """No-consensus step: advance the skip counter, change nothing else."""
    return replace(opt, skip_count=opt.skip_count + 1)


def plateau_update(
    sched: SchedState, opt: OptimState, val_metric: float
) -> tuple[SchedState, OptimState]:
    """Feed one validation metric; cut the lr after too many stale evals.

    Improvement means exceeding the best seen metric by more than min_delta.
    Once bad_epochs exceeds patience the lr is multiplied by lr_factor (floored
    at min_lr) and the stale counter resets.
    """
    if not math.isfinite(val_metric):
        raise ValueError("validation metric must be finite")
    if val_metric > sched.best_metric + sched.min_delta:
        return replace(sched, best_metric=val_metric, bad_epochs=0), opt
    bad = sched.bad_epochs + 1
    if bad > sched.patience:
        new_lr = max(opt.lr * sched.lr_factor, sched.min_lr)
        return replace(sched, bad_epochs=0), replace(opt, lr=new_lr)
    return replace(sched, bad_epochs=bad), opt
