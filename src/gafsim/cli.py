"""Command-line experiment runner.

Subcommands:
  run     execute one configuration per seed, write records + summary
  sweep   cross a sweep axis (tau grid, noise rates, or microbatch sizes)
          with the seed list, running agreement filtering against the
          averaging baseline and tabulating the improvement per cell
  check   quick self-tests: finite-difference gradients and an
          independent re-derivation of the aggregation scan

Configs are JSON (schema documented in the README); every run-section leaf
has a matching flag that strictly overrides the file value. Unknown keys
anywhere in the file are hard errors. Exit codes: 0 success, 1 runtime
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .aggregate import GafConfig, gaf_aggregate
from .data import CSV, GAUSSIAN, STRATIFIED, UNIFORM, WHITE_NOISE, DataConfig
from .models import MLP1, SOFTMAX_LINEAR, ModelSpec, init_params, loss_and_grad, unflatten
from .sim import AGG_AVERAGING, AGG_GAF, RunConfig, run
from .telemetry import summarize, write_atomic, write_records

DEFAULT_TAU_GRID = [0.95, 0.97, 0.99, 1.01, 1.03, 1.05]


class ConfigError(Exception):
    pass


_REQUIRED = object()

# field name -> (coercion, default); _REQUIRED defaults must be present
_MODEL_SCHEMA = {
    "kind": (str, _REQUIRED),
    "input_dim": (int, _REQUIRED),
    "num_classes": (int, _REQUIRED),
    "hidden_dim": (int, 0),
    "activation": (str, "tanh"),
    "init_sigma": (float, 0.1),
    "init_seed": (int, 0),
}
_DATA_SCHEMA = {
    "kind": (str, _REQUIRED),
    "num_classes": (int, None),  # None: inherit from model
    "input_dim": (int, None),
    "n_per_class": (int, 500),
    "n": (int, 2000),
    "sigma": (float, 1.0),
    "noise_rate": (float, 0.0),
    "path": (str, None),
}
_RUN_SCHEMA = {
    "k": (int, 2),
    "u": (int, 10),
    "steps": (int, 1000),
    "aggregator": (str, AGG_AVERAGING),
    "tau": (float, 0.97),
    "pivot": (int, None),
    "sampling": (str, STRATIFIED),
    "lr": (float, 0.01),
    "momentum": (float, 0.9),
    "weight_decay": (float, 0.0),
    "patience": (int, 100),
    "lr_factor": (float, 0.1),
    "min_lr": (float, 1e-6),
    "min_delta": (float, 1e-4),
    "eval_every": (int, 100),
    "val_fraction": (float, 0.2),
}
_SWEEP_KEYS = ("tau_grid", "noise_rates", "u_values")


def _apply_schema(section: dict, schema: dict, where: str) -> dict:
    unknown = set(section) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    out = {}
    for name, (coerce, default) in schema.items():
        if name in section and section[name] is not None:
            try:
                out[name] = coerce(section[name])
            except (TypeError, ValueError):
                raise ConfigError(f"{where}.{name}: cannot interpret {section[name]!r}") from None
        elif default is _REQUIRED:
            raise ConfigError(f"missing required field {where}.{name}")
        else:
            out[name] = default
    return out


def load_experiment(obj: dict) -> dict:
    """Validate a raw config object into model/data/run kwargs plus
    sweep, output_dir, and seeds."""
    if not isinstance(obj, dict):
        raise ConfigError("top-level config must be an object")
    unknown = set(obj) - {"run", "sweep", "output_dir", "seeds"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")
    run_sec = obj.get("run")
    if not isinstance(run_sec, dict):
        raise ConfigError("missing required field run")
    run_unknown = set(run_sec) - (set(_RUN_SCHEMA) | {"model", "data"})
    if run_unknown:
        raise ConfigError(f"unknown key(s) in run: {', '.join(sorted(run_unknown))}")
    if "model" not in run_sec:
        raise ConfigError("missing required field run.model")
    if "data" not in run_sec:
        raise ConfigError("missing required field run.data")

    model = _apply_schema(run_sec["model"], _MODEL_SCHEMA, "run.model")
    data = _apply_schema(run_sec["data"], _DATA_SCHEMA, "run.data")
    flat = _apply_schema(
        {k: v for k, v in run_sec.items() if k not in ("model", "data")}, _RUN_SCHEMA, "run"
    )

    sweep = obj.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError("sweep must be an object")
        unknown = set(sweep) - set(_SWEEP_KEYS)
        if unknown:
            raise ConfigError(f"unknown key(s) in sweep: {', '.join(sorted(unknown))}")

    seeds = obj.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        raise ConfigError("seeds must be a nonempty list of integers")

    return {
        "model": model,
        "data": data,
        "run": flat,
        "sweep": sweep,
        "output_dir": obj.get("output_dir", "runs"),
        "seeds": list(seeds),
    }


def build_run_config(exp: dict, master_seed: int) -> RunConfig:
    model_kw = dict(exp["model"])
    data_kw = dict(exp["data"])
    if data_kw["num_classes"] is None:
        data_kw["num_classes"] = model_kw["num_classes"]
    if data_kw["input_dim"] is None:
        data_kw["input_dim"] = model_kw["input_dim"]
    if data_kw["num_classes"] != model_kw["num_classes"]:
        raise ConfigError("run.data.num_classes conflicts with run.model.num_classes")
    if data_kw["kind"] != CSV and data_kw["input_dim"] != model_kw["input_dim"]:
        raise ConfigError("run.data.input_dim conflicts with run.model.input_dim")
    try:
        spec = ModelSpec(**model_kw)
        dcfg = DataConfig(**data_kw)
        return RunConfig(model=spec, data=dcfg, master_seed=master_seed, **exp["run"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _experiment_to_obj(exp: dict, seeds: list[int], output_dir: str) -> dict:
    run_obj = dict(exp["run"])
    run_obj["model"] = dict(exp["model"])
    run_obj["data"] = dict(exp["data"])
    # model/data come first for readability
    ordered = {"model": run_obj.pop("model"), "data": run_obj.pop("data")}
    ordered.update(run_obj)
    obj = {"run": ordered, "output_dir": output_dir, "seeds": seeds}
    if exp.get("sweep") is not None:
        obj["sweep"] = exp["sweep"]
    return obj


def run_name(cfg: RunConfig) -> str:
    return (
        f"{cfg.aggregator}_tau{cfg.tau:g}_u{cfg.u}_k{cfg.k}"
        f"_noise{cfg.data.noise_rate:g}_seed{cfg.master_seed}"
    )


def _execute_one(exp: dict, seed: int, out_root: Path) -> dict:
    cfg = build_run_config(exp, seed)
    records = run(cfg)
    rundir = out_root / run_name(cfg)
    rundir.mkdir(parents=True, exist_ok=True)
    write_records(records, rundir / "records.jsonl")
    summary = summarize(records)
    write_atomic(rundir / "summary.json", json.dumps(summary, indent=2) + "\n")
    dump = _experiment_to_obj(exp, [seed], str(out_root))
    dump.pop("sweep", None)
    write_atomic(rundir / "config.json", json.dumps(dump, indent=2) + "\n")
    print(f"{run_name(cfg)}: final_val_acc={summary['final_val_acc']} "
          f"skip_fraction={summary['skip_fraction']:.3f}")
    return summary


def cmd_run(exp: dict) -> int:
    out_root = Path(exp["output_dir"])
    for seed in exp["seeds"]:
        _execute_one(exp, seed, out_root)
    return 0


def _sweep_cells(exp: dict):
    sweep = exp["sweep"]
    if sweep is None:
        raise ConfigError("sweep section is required for the sweep command")
    present = [k for k in _SWEEP_KEYS if sweep.get(k) is not None]
    if len(present) != 1:
        raise ConfigError(f"sweep needs exactly one of {', '.join(_SWEEP_KEYS)}")
    axis = present[0]
    values = sweep[axis]
    if axis == "tau_grid" and not values:
        values = list(DEFAULT_TAU_GRID)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep.{axis} must be a nonempty list")
    return axis, values


def _cell_exp(exp: dict, axis: str, value) -> dict:
    cell = {k: (dict(v) if isinstance(v, dict) else v) for k, v in exp.items()}
    if axis == "tau_grid":
        cell["run"]["tau"] = float(value)
    elif axis == "noise_rates":
        cell["data"]["noise_rate"] = float(value)
    else:
        cell["run"]["u"] = int(value)
    return cell


def cmd_sweep(exp: dict) -> int:
    axis, values = _sweep_cells(exp)
    out_root = Path(exp["output_dir"])
    out_root.mkdir(parents=True, exist_ok=True)
    rows = []
    baseline_cache: dict[str, dict] = {}
    for value in values:
        cell = _cell_exp(exp, axis, value)
        for seed in exp["seeds"]:
            base_exp = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cell.items()}
            base_exp["run"]["aggregator"] = AGG_AVERAGING
            base_exp["run"]["tau"] = 2.0  # averaging == admit-all threshold; dedupes tau sweeps
            base_key = json.dumps(
                {"m": base_exp["model"], "d": base_exp["data"], "r": base_exp["run"], "s": seed},
                sort_keys=True,
            )
            if base_key not in baseline_cache:
                baseline_cache[base_key] = _execute_one(base_exp, seed, out_root)
            base_summary = baseline_cache[base_key]

            gaf_exp = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cell.items()}
            gaf_exp["run"]["aggregator"] = AGG_GAF
            gaf_summary = _execute_one(gaf_exp, seed, out_root)

            improvement = None
            if gaf_summary["final_val_acc"] is not None and base_summary["final_val_acc"] is not None:
                improvement = gaf_summary["final_val_acc"] - base_summary["final_val_acc"]
            rows.append((axis, value, seed, AGG_AVERAGING, base_summary, None))
            rows.append((axis, value, seed, AGG_GAF, gaf_summary, improvement))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["param", "value", "seed", "aggregator", "final_val_acc", "best_val_acc",
         "skip_fraction", "mean_cos_distance_last_quartile", "improvement"]
    )
    for axis_name, value, seed, agg, summary, improvement in rows:
        writer.writerow(
            [
                axis_name,
                value,
                seed,
                agg,
                summary["final_val_acc"],
                summary["best_val_acc"],
                summary["skip_fraction"],
                summary["mean_cos_distance_last_quartile"],
                "" if improvement is None else improvement,
            ]
        )
    table = out_root / "sweep_summary.csv"
    write_atomic(table, buf.getvalue())
    print(f"sweep table written to {table}")
    return 0


def _naive_filter_reference(grads, tau, pivot):
    """Textbook re-derivation of the agreement scan, kept independent of
    the library implementation on purpose."""
    g = np.array(grads[pivot], dtype=float)
    c = 1
    for i in range(len(grads)):
        if i == pivot:
            continue
        gi = np.asarray(grads[i], dtype=float)
        ni, ng = np.linalg.norm(gi), np.linalg.norm(g)
        if ni < 1e-30 or ng < 1e-30:
            d = 2.0
        else:
            d = min(max(1.0 - float(np.dot(gi, g)) / (ni * ng), 0.0), 2.0)
        if d <= tau:
            g = g + gi
            c += 1
    return (g / c, c) if c > 1 else (None, 1)


def cmd_check() -> int:
    ok = True
    rng = np.random.default_rng(7)

    for kind, act in [(SOFTMAX_LINEAR, "tanh"), (MLP1, "tanh"), (MLP1, "relu")]:
        spec = ModelSpec(kind=kind, input_dim=6, num_classes=4, hidden_dim=5,
                         activation=act, init_sigma=0.5, init_seed=int(rng.integers(1 << 30)))
        params = init_params(spec)
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 4, size=8)
        _, grad = loss_and_grad(params, x, y, spec, weight_decay=0.01)
        flat = params.flatten()
        worst = 0.0
        h = 1e-5
        for idx in rng.choice(flat.size, size=25, replace=False):
            hi_flat, lo_flat = flat.copy(), flat.copy()
            hi_flat[idx] += h
            lo_flat[idx] -= h
            hi, _ = loss_and_grad(unflatten(hi_flat, spec), x, y, spec, weight_decay=0.01)
            lo, _ = loss_and_grad(unflatten(lo_flat, spec), x, y, spec, weight_decay=0.01)
            fd = (hi - lo) / (2 * h)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(fd - grad[idx]) / denom)
        line = f"gradcheck {kind}/{act}: max rel err {worst:.2e}"
        if worst < 1e-5:
            print(f"PASS {line}")
        else:
            print(f"FAIL {line}")
            ok = False

    mismatches = 0
    for _ in range(200):
        k = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 40))
        grads = [rng.normal(size=dim) for _ in range(k)]
        tau = float(rng.uniform(0, 2))
        pivot = int(rng.integers(k))
        out = gaf_aggregate(grads, GafConfig(tau=tau, pivot=pivot))
        ref_grad, ref_c = _naive_filter_reference(grads, tau, pivot)
        same = out.accepted_count == ref_c and (
            (out.gradient is None and ref_grad is None)
            or (out.gradient is not None and ref_grad is not None
                and np.array_equal(out.gradient, ref_grad))
        )
        mismatches += 0 if same else 1
    if mismatches == 0:
        print("PASS aggregation scan matches naive reference on 200 random instances")
    else:
        print(f"FAIL aggregation scan: {mismatches}/200 mismatches")
        ok = False

    return 0 if ok else 1


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("overrides (take precedence over the config file)")
    g.add_argument("--model-kind", choices=[SOFTMAX_LINEAR, MLP1])
    g.add_argument("--input-dim", type=int)
    g.add_argument("--num-classes", type=int)
    g.add_argument("--hidden-dim", type=int)
    g.add_argument("--activation", choices=["tanh", "relu"])
    g.add_argument("--init-sigma", type=float)
    g.add_argument("--init-seed", type=int)
    g.add_argument("--data-kind", choices=[GAUSSIAN, WHITE_NOISE, CSV])
    g.add_argument("--n-per-class", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--sigma", type=float)
    g.add_argument("--noise-rate", type=float)
    g.add_argument("--csv-path")
    g.add_argument("--k", type=int)
    g.add_argument("--u", type=int)
    g.add_argument("--steps", type=int)
    g.add_argument("--aggregator", choices=[AGG_AVERAGING, AGG_GAF])
    g.add_argument("--tau", type=float)
    g.add_argument("--pivot", type=int)
    g.add_argument("--sampling", choices=[STRATIFIED, UNIFORM])
    g.add_argument("--lr", type=float)
    g.add_argument("--momentum", type=float)
    g.add_argument("--weight-decay", type=float)
    g.add_argument("--patience", type=int)
    g.add_argument("--lr-factor", type=float)
    g.add_argument("--min-lr", type=float)
    g.add_argument("--min-delta", type=float)
    g.add_argument("--eval-every", type=int)
    g.add_argument("--val-fraction", type=float)
    g.add_argument("--out", help="output directory")
    g.add_argument("--seed", type=int, action="append",
                   help="replicate seed; repeat the flag for several")


_MODEL_FLAGS = {
    "model_kind": "kind", "input_dim": "input_dim", "num_classes": "num_classes",
    "hidden_dim": "hidden_dim", "activation": "activation", "init_sigma": "init_sigma",
    "init_seed": "init_seed",
}
_DATA_FLAGS = {
    "data_kind": "kind", "n_per_class": "n_per_class", "n": "n", "sigma": "sigma",
    "noise_rate": "noise_rate", "csv_path": "path",
}
_RUN_FLAGS = {
    name: name
    for name in ("k", "u", "steps", "aggregator", "tau", "pivot", "sampling", "lr",
                 "momentum", "weight_decay", "patience", "lr_factor", "min_lr",
                 "min_delta", "eval_every", "val_fraction")
}


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    raw = json.loads(json.dumps(raw))  # deep copy
    run_sec = raw.setdefault("run", {})
    model_sec = run_sec.setdefault("model", {})
    data_sec = run_sec.setdefault("data", {})
    for flag, key in _MODEL_FLAGS.items():
        v = getattr(args, flag, None)
        if v is not None:
            model_sec[key] = v
    for flag, key in _DATA_FLAGS.items():
        v = getattr(args, flag, None)
        if v is not None:
            data_sec[key] = v
    for flag, key in _RUN_FLAGS.items():
        v = getattr(args, flag, None)
        if v is not None:
            run_sec[key] = v
    if getattr(args, "out", None) is not None:
        raw["output_dir"] = args.out
    if getattr(args, "seed", None):
        raw["seeds"] = list(args.seed)
    # flag-mirrored num_classes/input_dim apply to the model section; the
    # data section inherits unless the file pinned its own values
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gafsim",
        description="Simulated data-parallel training with agreement-filtered gradient aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("run", "execute one configuration per seed"),
                       ("sweep", "grid sweep against the averaging baseline")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="JSON experiment config")
        _add_override_flags(p)
    sub.add_parser("check", help="run gradient and aggregation self-tests")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check()
    try:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        raw = _apply_overrides(raw, args)
        exp = load_experiment(raw)
        build_run_config(exp, exp["seeds"][0])  # validate before any work
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return cmd_run(exp)
        return cmd_sweep(exp)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
