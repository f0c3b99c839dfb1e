"""Agreement-filtered gradient aggregation on a simulated data-parallel loop.

Micro-gradients from k simulated workers are either averaged directly or
passed through an agreement filter that drops candidates whose cosine
distance to the running sum exceeds a threshold; a macrobatch with no
agreeing pair is skipped without touching optimizer or scheduler state.
"""

from .aggregate import (
    AggregationOutcome,
    GafConfig,
    average,
    gaf_aggregate,
    gaf_aggregate_all_pivots,
    running_scan_distances,
)
from .data import (
    DataConfig,
    Dataset,
    Microbatch,
    gen_gaussian_clusters,
    gen_white_noise,
    inject_symmetric_noise,
    load_csv,
    make_dataset,
    sample_macrobatch,
    take,
)
from .gradvec import GradVec, as_gradvec, cosine_distance, dot, l2_norm
from .models import (
    ModelSpec,
    Params,
    accuracy,
    init_params,
    loss_and_grad,
    predict,
    unflatten,
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
    rolling_mean,
    summarize,
    write_records,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationOutcome",
    "GafConfig",
    "average",
    "gaf_aggregate",
    "gaf_aggregate_all_pivots",
    "running_scan_distances",
    "DataConfig",
    "Dataset",
    "Microbatch",
    "gen_gaussian_clusters",
    "gen_white_noise",
    "inject_symmetric_noise",
    "load_csv",
    "make_dataset",
    "sample_macrobatch",
    "take",
    "GradVec",
    "as_gradvec",
    "cosine_distance",
    "dot",
    "l2_norm",
    "ModelSpec",
    "Params",
    "accuracy",
    "init_params",
    "loss_and_grad",
    "predict",
    "unflatten",
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
    "rolling_mean",
    "summarize",
    "write_records",
]
