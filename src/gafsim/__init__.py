"""Agreement-filtered gradient aggregation on a simulated data-parallel loop.

Micro-gradients from k simulated workers are either averaged directly or
passed through an agreement filter that drops candidates whose cosine
distance to the running sum exceeds a threshold; a macrobatch with no
agreeing pair is skipped without touching optimizer or scheduler state.
"""

from .aggregate import (
    AggregationOutcome,
    average,
    gaf_aggregate,
    running_scan_distances,
)
from .data import (
    DataConfig,
    Dataset,
    gen_gaussian_clusters,
    gen_white_noise,
    inject_symmetric_noise,
    load_csv,
    make_dataset,
    sample_macrobatch,
    take,
)
from .gradvec import cosine_distance, dot, l2_norm
from .models import (
    ModelSpec,
    accuracy,
    init_params,
    loss_and_grad,
    predict,
)
from .optim import OptimState, SchedState, init_optim, plateau_update, sgd_step, skip_step
from .sim import (
    RunConfig,
    RunResult,
    derive_seed,
    measure_pairwise_distance_trend,
    run,
    run_detailed,
)
from .telemetry import (
    StepRecord,
    read_records,
    summarize,
    write_records,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationOutcome",
    "average",
    "gaf_aggregate",
    "running_scan_distances",
    "DataConfig",
    "Dataset",
    "gen_gaussian_clusters",
    "gen_white_noise",
    "inject_symmetric_noise",
    "load_csv",
    "make_dataset",
    "sample_macrobatch",
    "take",
    "cosine_distance",
    "dot",
    "l2_norm",
    "ModelSpec",
    "accuracy",
    "init_params",
    "loss_and_grad",
    "predict",
    "OptimState",
    "SchedState",
    "init_optim",
    "plateau_update",
    "sgd_step",
    "skip_step",
    "RunConfig",
    "RunResult",
    "derive_seed",
    "measure_pairwise_distance_trend",
    "run",
    "run_detailed",
    "StepRecord",
    "read_records",
    "summarize",
    "write_records",
]
