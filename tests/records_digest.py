"""Digests of seeded random training runs, to show a change keeps records byte-identical.

    PYTHONPATH=src python3 tests/records_digest.py 300 > after.json
    (cd /path/to/parent && PYTHONPATH=src python3 tests/records_digest.py 300) > before.json
    diff before.json after.json

    PYTHONPATH=src python3 tests/records_digest.py sweeps 150 > after.json
    PYTHONPATH=/path/to/parent/src python3 tests/records_digest.py sweeps 150 > before.json

    PYTHONPATH=src python3 tests/records_digest.py state 300 > after.json
    PYTHONPATH=/path/to/parent/src python3 tests/records_digest.py state 300 > before.json

For records, run each side's own copy of the script, as in the first
example: it reads a run's result through that version's API. Prints one
JSON object, config index -> sha256 over the run's ``records.jsonl`` and
``records.csv`` bytes (as ``write_records`` writes them) followed by the
bytes of its final parameter vector (``RunResult.params``, one flat
float64 array). Config i is drawn from a generator seeded with i, so a given N names the same
configs under any version of gafsim. The draws cover both model kinds,
both activations, both sampling modes, both aggregators, k 1-5, weight
decay 0 and > 0, and datasets of up to 3500 rows (so evaluation spans
several chunks). A config that fails, when it is built or when it runs,
digests its error message instead.

The ``state`` mode runs the same configs and prints, per config, the
sha256 of the final ``lr``, ``momentum``, ``velocity``, ``step_count``,
``skip_count``, ``best_metric`` and ``bad_epochs``, each as float64
bytes. It reads each value by name from ``RunResult.opt``, so one copy
of the script can be run against each tree's ``src/``, as in the third
example.

The ``sweeps`` mode checks the CLI instead. Sweep i is a small random
sweep drawn from a generator seeded with i: axis ``tau_grid``,
``noise_rates`` or ``u_values`` by turn, 1-3 values, 1-3 seeds, tiny
gaussian or white-noise data (small enough that sampling sometimes fails
part way, leaving a partial table). It runs through ``gafsim.cli.main``
and prints, per sweep, its exit code, the sha256 of its stderr and the
sha256 of ``sweep_summary.csv`` and of each run's ``summary.json``. It
reads only ``gafsim.cli.main``, so one copy of the script can be run
against each tree's ``src/``, as in the second example.

The ``groups`` mode checks run groups, whose legs share one gradient call
per step. Group i is ``random_config(i)``'s shared fields with 2-6 legs
(sometimes plus a duplicate of the first) that differ in aggregator, tau,
pivot, lr, momentum, weight decay, ``eval_every`` and the plateau fields.
It runs each group through ``run_detailed`` and prints, per group, one
sha256 per leg over the bytes that the records mode and the ``state``
mode digest, one after the other, or a digest of the error the group
raised. Its 2-6 distinct legs at k 1-5 give the group's agreement scan
rounds of 2 to 36 dot products, so the groups cover both sides of the
scan's direct/copy fill crossover. It reads the result through the same
names as ``state``, so one copy can be run against each tree's ``src/``:

    PYTHONPATH=src python3 tests/records_digest.py groups 400 > after.json
    PYTHONPATH=/path/to/parent/src python3 tests/records_digest.py groups 400 > before.json

The ``samples`` mode checks the sampler alone. Case i is a
``(dataset, k, u, mode, step_seed)`` drawn from a generator seeded with
``(i, 2)``: both sampling modes, 2-12 classes, and pools from the draw's
size to 60 rows over it (so classes run short, and draws collide); every
20th case has classes of over 10000 rows, drawn on both sides of
``Generator.choice``'s tail-shuffle cutoff. It prints, per case, the
sha256 of the picks, features and labels that ``sample_macrobatch``
returns, or a digest of the error it raised. It reads only
``gafsim.sample_macrobatch`` and the dataset generators, so one copy can
be run against each tree's ``src/``:

    PYTHONPATH=src python3 tests/records_digest.py samples 2000 > after.json
    PYTHONPATH=/path/to/parent/src python3 tests/records_digest.py samples 2000 > before.json

The ``scans`` mode checks the agreement scan alone. Case i is a
``(grads, tau, pivot)`` drawn from a generator seeded with ``(i, 3)``: k
1-8 rows of 1-6000 entries, each row at its own scale from 1e-3 to 1e3,
some rows zero or repeated, some at 1e150-1e200 so that a dot product
overflows, tau 0, 2 or drawn, and a drawn pivot. It prints, per case, the
sha256 of the outcome of ``gaf_aggregate`` (gradient bytes, accepted
count and mask, distances, whether the gradient is None), or of the error
it raised. It reads only ``gafsim.aggregate.gaf_aggregate``, so one copy
can be run against each tree's ``src/``:

    PYTHONPATH=src python3 tests/records_digest.py scans 3000 > after.json
    PYTHONPATH=/path/to/parent/src python3 tests/records_digest.py scans 3000 > before.json

The ``models`` mode checks the gradient evaluation alone. Case i is a
``(spec, params, features, labels, weight_decay)`` drawn from a generator
seeded with ``(i, 4)``: both model kinds and both activations, L 1-4
parameter rows on k 1-5 microbatches of u 1-30 rows, weight decay 0,
greater than 0 or mixed across rows, and ``init_sigma`` up to 10; about
one case in ten has weights near 1e155 or features near 1e300, so that a
square or a product overflows. Each case reuses one ``GradBlock``, as a
run group does: built on zero rows, called once on the case's features
with other labels, then given the case's rows in place. It prints, per
case, the sha256 of that second ``loss_and_grad`` call's losses and
gradient block followed by each row's ``predict`` output on the case's
features, or of the error raised. It reads only public ``gafsim.models``
names, so one copy can be run against each tree's ``src/``:

    PYTHONPATH=src python3 tests/records_digest.py models 2000 > after.json
    PYTHONPATH=/path/to/parent/src python3 tests/records_digest.py models 2000 > before.json

The ``datasets`` mode checks the dataset generators alone. Case i is a
``(DataConfig, seed)`` drawn from a generator seeded with ``(i, 5)``: both
generated kinds, 2-12 classes, 1-40 features, 1-300 rows a class (gaussian,
at sigma 0.1-3) or 2-3000 rows (white noise), and a noise rate of 0, drawn,
or 1. It prints, per case, the sha256 of ``make_dataset``'s features, labels
and clean labels, each with its dtype and shape, followed by the labels that
``inject_symmetric_noise`` makes of them at the case's rate. It reads only
public ``gafsim.data`` names, so one copy can be run against each tree's
``src/``:

    PYTHONPATH=src python3 tests/records_digest.py datasets 2000 > after.json
    PYTHONPATH=/path/to/parent/src python3 tests/records_digest.py datasets 2000 > before.json

This is a script, not a test module: pytest does not collect it. The
golden-digest tests import ``run_digest`` from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from gafsim import gen_gaussian_clusters, gen_white_noise, inject_symmetric_noise, sample_macrobatch
from gafsim.aggregate import gaf_aggregate
from gafsim.cli import main as cli_main
from gafsim.data import DataConfig, make_dataset
from gafsim.models import GradBlock, ModelSpec, init_params, loss_and_grad, predict
from gafsim.sim import RunConfig, RunResult, run_detailed
from gafsim.telemetry import write_records


def result_bytes(result: RunResult) -> bytes:
    """A RunResult's records files (as write_records writes them) and final parameters."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        write_records(result.records, path)
        blob = path.read_bytes() + path.with_suffix(".csv").read_bytes()
    return blob + result.params.tobytes()


def run_digest(cfg: RunConfig) -> str:
    """sha256 of the run's records files plus its final parameters."""
    return hashlib.sha256(result_bytes(run_detailed([cfg])[0])).hexdigest()


def random_config(index: int) -> RunConfig:
    rng = np.random.default_rng(index)
    num_classes = int(rng.integers(2, 6))
    input_dim = int(rng.integers(2, 20))
    kind = str(rng.choice(["softmax_linear", "mlp1"]))
    model = ModelSpec(
        kind=kind,
        input_dim=input_dim,
        num_classes=num_classes,
        hidden_dim=int(rng.integers(1, 40)) if kind == "mlp1" else 0,
        activation=str(rng.choice(["tanh", "relu"])),
        init_sigma=float(rng.choice([0.1, 0.5, 2.0])),
        init_seed=int(rng.integers(1 << 20)),
    )
    per_class = int(rng.choice([60, 300, 700]))
    if rng.random() < 0.5:
        data = DataConfig(kind="gaussian", num_classes=num_classes, input_dim=input_dim,
                          n_per_class=per_class, sigma=float(rng.uniform(0.2, 2.0)),
                          noise_rate=float(rng.choice([0.0, 0.2, 0.5])))
    else:
        data = DataConfig(kind="white_noise", num_classes=num_classes, input_dim=input_dim,
                          n=per_class * num_classes)
    k = int(rng.integers(1, 6))
    sampling = str(rng.choice(["stratified", "uniform"]))
    u = num_classes * int(rng.integers(1, 4)) if sampling == "stratified" else int(
        rng.integers(1, 31))
    aggregator = str(rng.choice(["avg", "gaf"]))
    return RunConfig(
        model=model, data=data, k=k, u=u, steps=int(rng.integers(20, 80)),
        aggregator=aggregator, tau=float(rng.uniform(0.5, 1.5)),
        pivot=None if rng.random() < 0.7 else int(rng.integers(k)), sampling=sampling,
        lr=float(rng.choice([0.01, 0.05, 0.2])), momentum=float(rng.choice([0.0, 0.9])),
        weight_decay=float(rng.choice([0.0, 0.0, 1e-3, 0.05])), patience=int(rng.integers(1, 4)),
        eval_every=int(rng.integers(5, 30)), val_fraction=0.25, master_seed=index,
    )


# the final optimizer state the ``state`` mode digests, by name
STATE_FIELDS = ("lr", "momentum", "velocity", "step_count", "skip_count", "best_metric",
                "bad_epochs")


def state_bytes(result: RunResult) -> bytes:
    """A RunResult's final STATE_FIELDS, each as float64 bytes."""
    return b"".join(np.asarray(getattr(result.opt, name), dtype=np.float64).tobytes()
                    for name in STATE_FIELDS)


def state_digest(cfg: RunConfig) -> str:
    """sha256 of the run's final STATE_FIELDS, each as float64 bytes."""
    return hashlib.sha256(state_bytes(run_detailed([cfg])[0])).hexdigest()


def random_group(index: int) -> list[RunConfig]:
    """random_config(index) as the shared fields of 2-6 legs that differ in
    every field a leg may vary, drawn from a generator seeded with (index, 1)."""
    base = random_config(index)
    rng = np.random.default_rng((index, 1))
    legs = [
        replace(base, aggregator=str(rng.choice(["avg", "gaf"])),
                tau=float(rng.choice([2.0, rng.uniform(0.5, 1.5)])),
                pivot=None if rng.random() < 0.6 else int(rng.integers(base.k)),
                lr=float(rng.choice([0.01, 0.05, 0.2])),
                momentum=float(rng.choice([0.0, 0.5, 0.9])),
                weight_decay=float(rng.choice([0.0, 0.0, 1e-3, 0.05])),
                eval_every=int(rng.integers(3, 30)), patience=int(rng.integers(0, 4)),
                lr_factor=float(rng.choice([0.1, 0.5])), min_lr=float(rng.choice([0.0, 1e-3])),
                min_delta=float(rng.choice([0.0, 1e-4, 0.05])))
        for _ in range(int(rng.integers(2, 7)))
    ]
    if rng.random() < 0.2:
        legs.append(legs[0])  # equal configs share one leg
    return legs


def group_digest(index: int) -> list[str] | str:
    """Per leg of random_group(index), in order, the sha256 of its records
    files, final parameters and final STATE_FIELDS; or a digest of the error
    that building or running the group raised."""
    try:
        return [hashlib.sha256(result_bytes(r) + state_bytes(r)).hexdigest()
                for r in run_detailed(random_group(index))]
    except (ValueError, RuntimeError) as exc:
        return "error: " + hashlib.sha256(str(exc).encode()).hexdigest()


def digest_or_error(index: int, digest=run_digest) -> str:
    """digest(random_config(index)), or a digest of the error that building or running it raised."""
    try:
        return digest(random_config(index))
    except (ValueError, RuntimeError) as exc:
        return "error: " + hashlib.sha256(str(exc).encode()).hexdigest()


SWEEP_AXES = ("tau_grid", "noise_rates", "u_values")


def random_sweep(index: int) -> dict:
    """A small random sweep config object (output_dir unset)."""
    rng = np.random.default_rng(index)
    num_classes = int(rng.integers(2, 4))
    input_dim = int(rng.integers(2, 8))
    kind = str(rng.choice(["softmax_linear", "mlp1"]))
    model = {"kind": kind, "input_dim": input_dim, "num_classes": num_classes,
             "hidden_dim": int(rng.integers(1, 9)) if kind == "mlp1" else 0,
             "activation": str(rng.choice(["tanh", "relu"])), "init_seed": int(rng.integers(99))}
    if rng.random() < 0.5:
        data = {"kind": "gaussian", "n_per_class": int(rng.integers(4, 40)),
                "sigma": float(rng.uniform(0.2, 2.0)), "noise_rate": float(rng.choice([0.0, 0.3]))}
    else:
        data = {"kind": "white_noise", "n": int(rng.integers(8, 80))}
    k = int(rng.integers(1, 5))
    sampling = str(rng.choice(["stratified", "uniform"]))
    draw_u = ((lambda: num_classes * int(rng.integers(1, 4))) if sampling == "stratified"
              else (lambda: int(rng.integers(1, 9))))
    axis = SWEEP_AXES[index % len(SWEEP_AXES)]
    n_values = int(rng.integers(1, 4))
    # noise rates and u values ascend, so a cell that cannot be sampled tends
    # to fail after the others, leaving a partial table
    if axis == "tau_grid":
        values = [round(float(t), 2) for t in rng.uniform(0.5, 1.5, n_values)]
    elif axis == "noise_rates":
        values = sorted(float(r) for r in rng.choice([0.0, 0.1, 0.2, 0.4], n_values))
    else:
        values = sorted(draw_u() for _ in range(n_values))
    run = {"model": model, "data": data, "k": k, "u": draw_u(), "sampling": sampling,
           "steps": int(rng.integers(5, 30)), "tau": float(rng.uniform(0.5, 1.5)),
           "pivot": None if rng.random() < 0.7 else int(rng.integers(k)),
           "lr": float(rng.choice([0.05, 0.2])), "momentum": float(rng.choice([0.0, 0.9])),
           "patience": int(rng.integers(1, 4)), "eval_every": int(rng.integers(2, 10)),
           "val_fraction": 0.25}
    seeds = [int(s) for s in rng.integers(0, 1000, int(rng.integers(1, 4)))]
    return {"run": run, "sweep": {axis: values}, "seeds": seeds}


def sweep_digest(index: int) -> dict:
    """Exit code, stderr digest and output file digests of random sweep index."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        config = Path(tmp) / "sweep.json"
        config.write_text(json.dumps({**random_sweep(index), "output_dir": str(out)}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(["sweep", "--config", str(config)])
        files = sorted([*out.glob("sweep_summary.csv"), *out.glob("*/summary.json")])
        return {"exit": code, "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
                **{str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in files}}


def random_sample_case(index: int) -> tuple:
    """(dataset, k, u, mode, step_seed) for sample case index."""
    rng = np.random.default_rng((index, 2))
    mode = str(rng.choice(["stratified", "uniform"]))
    step_seed = int(rng.integers(1 << 63))
    data_seed = int(rng.integers(1 << 31))
    if index % 20 == 19:
        # over 10000 rows a class, drawing up to 2 * 150 rows of each (the tail
        # shuffle takes over past 1/50 of a pool)
        num_classes, k, per_class = 2, int(rng.integers(1, 3)), int(rng.integers(1, 151))
        n_per_class = int(rng.integers(10001, 10400))
    else:
        num_classes, k, per_class = int(rng.integers(2, 13)), int(rng.integers(1, 6)), 1
        if rng.random() < 0.3:
            per_class = int(rng.integers(2, 4))
        n_per_class = k * per_class + int(rng.integers(0, 61))
    if rng.random() < 0.7:
        ds = gen_gaussian_clusters(num_classes, 2, n_per_class, 1.0, seed=data_seed)
        ds = inject_symmetric_noise(ds, float(rng.choice([0.0, 0.1, 0.4])), seed=data_seed + 1)
    else:
        ds = gen_white_noise(num_classes, 2, num_classes * n_per_class, seed=data_seed)
    u = num_classes * per_class if mode == "stratified" else int(rng.integers(1, 31))
    return ds, k, u, mode, step_seed


def sample_digest(index: int) -> str:
    """sha256 of sample case index's picks, features and labels, or of its error."""
    try:
        macrobatch = sample_macrobatch(*random_sample_case(index))
    except ValueError as exc:
        return "error: " + hashlib.sha256(str(exc).encode()).hexdigest()
    return hashlib.sha256(b"".join(a.tobytes() for a in macrobatch)).hexdigest()


def random_scan_case(index: int) -> tuple:
    """(grads, tau, pivot) for scan case index."""
    rng = np.random.default_rng((index, 3))
    k = int(rng.integers(1, 9))
    dim = int(np.exp(rng.uniform(0, np.log(6000))))
    grads = rng.normal(size=(k, dim)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
    grads[rng.random(k) < 0.1] = 0.0
    if rng.random() < 0.2:
        grads[rng.integers(k)] = grads[rng.integers(k)]
    if rng.random() < 0.15:
        grads[rng.integers(k)] *= 10.0 ** rng.uniform(150, 200)
    tau = float(rng.choice([0.0, 2.0, rng.uniform(0, 2)]))
    return grads, tau, int(rng.integers(k))


def scan_digest(index: int) -> str:
    """sha256 of scan case index's gaf_aggregate outcome, or of its error."""
    try:
        # an overflowing row is the point of some cases: no warnings for it
        with np.errstate(over="ignore", invalid="ignore"):
            out = gaf_aggregate(*random_scan_case(index))
    except ValueError as exc:
        return "error: " + hashlib.sha256(str(exc).encode()).hexdigest()
    gradient = b"none" if out.gradient is None else out.gradient.tobytes()
    return hashlib.sha256(gradient + json.dumps(
        [out.accepted_count, out.accepted_mask, out.pairwise_distances, out.gradient is None]
    ).encode()).hexdigest()


def random_model_case(index: int) -> tuple:
    """(spec, params, features, labels, weight_decay) for model case index."""
    rng = np.random.default_rng((index, 4))
    kind = str(rng.choice(["softmax_linear", "mlp1"]))
    spec = ModelSpec(kind=kind, input_dim=int(rng.integers(1, 20)),
                     num_classes=int(rng.integers(2, 7)),
                     hidden_dim=int(rng.integers(1, 40)) if kind == "mlp1" else 0,
                     activation=str(rng.choice(["tanh", "relu"])),
                     init_sigma=float(rng.choice([0.0, 0.1, 1.0, rng.uniform(0, 10)])))
    n_rows, k, u = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 31))
    params = np.array([init_params(replace(spec, init_seed=int(s)))
                       for s in rng.integers(1 << 30, size=n_rows)])
    if rng.random() < 0.1:
        params *= 10.0 ** rng.uniform(150, 160)  # squares past float64's range
    scale = 10.0 ** rng.uniform(280, 308) if rng.random() < 0.1 else 10.0 ** rng.uniform(-1, 2)
    features = rng.normal(size=(k, u, spec.input_dim)) * scale
    labels = rng.integers(0, spec.num_classes, size=(k, u))
    decay = rng.choice([0.0, 1e-3, 0.05], size=n_rows)
    # weight decay 0 on every row, greater than 0 on every row, or mixed across rows
    decay = {0: np.zeros(n_rows), 1: decay + 1e-4, 2: decay}[int(rng.integers(3))]
    return spec, params, features, labels, decay


def model_digest(index: int) -> str:
    """sha256 of model case index's losses, gradient block and per-row predict
    output, or of its error."""
    spec, params, features, labels, decay = random_model_case(index)
    grad = np.empty((params.shape[0], features.shape[0], params.shape[1]))
    block = GradBlock(np.zeros_like(params), spec, decay, grad)
    try:
        # an overflowing case is the point of some cases: no warnings for it
        with np.errstate(over="ignore", invalid="ignore"):
            # the first call's outcome is not hashed: it only leaves the block used
            with contextlib.suppress(ValueError):
                loss_and_grad(block, features, (labels + 1) % spec.num_classes)
            block.params[...] = params
            losses = loss_and_grad(block, features, labels)
            flat = features.reshape(-1, spec.input_dim)
            blob = losses.tobytes() + grad.tobytes() + b"".join(
                predict(row, flat, spec).tobytes() for row in params)
    except ValueError as exc:
        return "error: " + hashlib.sha256(str(exc).encode()).hexdigest()
    return hashlib.sha256(blob).hexdigest()


def random_data_case(index: int) -> tuple[DataConfig, int]:
    """(DataConfig, seed) for dataset case index."""
    rng = np.random.default_rng((index, 5))
    num_classes, input_dim = int(rng.integers(2, 13)), int(rng.integers(1, 41))
    noise_rate = float(rng.choice([0.0, rng.uniform(0, 1), 1.0]))
    if rng.random() < 0.5:
        cfg = DataConfig(kind="gaussian", num_classes=num_classes, input_dim=input_dim,
                         n_per_class=int(rng.integers(1, 301)),
                         sigma=float(rng.choice([0.1, 1.0, rng.uniform(0.1, 3.0)])),
                         noise_rate=noise_rate)
    else:
        cfg = DataConfig(kind="white_noise", num_classes=num_classes, input_dim=input_dim,
                         n=int(rng.integers(2, 3001)), noise_rate=noise_rate)
    return cfg, int(rng.integers(1 << 63))


def dataset_digest(index: int) -> str:
    """sha256 of dataset case index's generated arrays and noisy labels."""
    cfg, seed = random_data_case(index)
    ds = make_dataset(cfg, seed)
    noisy = inject_symmetric_noise(ds, cfg.noise_rate, seed + 1)
    return hashlib.sha256(b"".join(
        str((a.dtype, a.shape)).encode() + a.tobytes()
        for a in (ds.features, ds.labels, ds.clean_labels, noisy.labels))).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) > 1 and argv[1] == "datasets":
        n = int(argv[2]) if len(argv) > 2 else 2000
        print(json.dumps({i: dataset_digest(i) for i in range(n)}, indent=1))
        return 0
    if len(argv) > 1 and argv[1] == "models":
        n = int(argv[2]) if len(argv) > 2 else 2000
        print(json.dumps({i: model_digest(i) for i in range(n)}, indent=1))
        return 0
    if len(argv) > 1 and argv[1] == "scans":
        n = int(argv[2]) if len(argv) > 2 else 3000
        print(json.dumps({i: scan_digest(i) for i in range(n)}, indent=1))
        return 0
    if len(argv) > 1 and argv[1] == "samples":
        n = int(argv[2]) if len(argv) > 2 else 2000
        print(json.dumps({i: sample_digest(i) for i in range(n)}, indent=1))
        return 0
    if len(argv) > 1 and argv[1] == "sweeps":
        n = int(argv[2]) if len(argv) > 2 else 150
        print(json.dumps({i: sweep_digest(i) for i in range(n)}, indent=1))
        return 0
    if len(argv) > 1 and argv[1] == "groups":
        n = int(argv[2]) if len(argv) > 2 else 300
        print(json.dumps({i: group_digest(i) for i in range(n)}, indent=1))
        return 0
    args, digest = argv[1:], run_digest
    if args[:1] == ["state"]:
        args, digest = args[1:], state_digest
    n = int(args[0]) if args else 300
    print(json.dumps({i: digest_or_error(i, digest) for i in range(n)}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
