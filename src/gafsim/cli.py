"""Command-line experiment runner.

Subcommands:
  run     execute one configuration per seed, write records + summary
  sweep   cross a sweep axis (tau grid, noise rates, or microbatch sizes)
          with the seed list, running agreement filtering against the
          averaging baseline and tabulating the improvement per cell
  check   quick self-tests: finite-difference gradients, an independent
          re-derivation of the aggregation scan, and the precomputed
          generator states against numpy's seeding

Configs are JSON (schema documented in the README). The keys, their
types and their defaults are the fields of ModelSpec, DataConfig and
RunConfig; every key but data.num_classes/input_dim (which follow the
model) has a matching flag that strictly overrides the file value. Unknown
keys anywhere in the file are hard errors. Exit codes: 0 success, 1
runtime failure, 2 configuration error; any other exception is a bug and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import typing
from collections.abc import Sequence
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np

from .aggregate import agreement_scan, gaf_aggregate, scan_work
from .data import DataConfig
from .models import MLP1, SOFTMAX_LINEAR, GradBlock, ModelSpec, init_params, loss_and_grad
from . import seeding, sim
from .sim import AGG_AVERAGING, AGG_GAF, RunConfig, group_key
from .telemetry import read_utf8, summarize, write_atomic, write_records

DEFAULT_TAU_GRID = [0.95, 0.97, 0.99, 1.01, 1.03, 1.05]


class ConfigError(Exception):
    pass


_SECTIONS = (("run.model", ModelSpec), ("run.data", DataConfig), ("run", RunConfig))
_NOT_KEYS = ("model", "data", "master_seed")  # RunConfig fields that are not run-section leaves
_FOLLOW_MODEL = ("num_classes", "input_dim")  # data keys that default to the model's value
_FLAG_NAMES = {
    ("run.model", "kind"): "--model-kind",
    ("run.data", "kind"): "--data-kind",
    ("run.data", "path"): "--csv-path",
}
# sweep axis -> the (section, key) each of its values replaces
_SWEEP_AXES = {
    "tau_grid": ("run", "tau"),
    "noise_rates": ("run.data", "noise_rate"),
    "u_values": ("run", "u"),
}


@functools.cache
def _key_table() -> dict[str, dict[str, tuple[type, bool]]]:
    """section -> key -> (value type, required), from the dataclass fields."""
    table = {}
    for where, cls in _SECTIONS:
        hints = typing.get_type_hints(cls)
        table[where] = {}
        for f in fields(cls):
            if f.name in _NOT_KEYS:
                continue
            # `int | None` and the like: None is only ever the default
            want = next(t for t in typing.get_args(hints[f.name]) or (hints[f.name],)
                        if t is not type(None))
            table[where][f.name] = (want, f.default is MISSING)
    return table


@functools.cache
def _flag_keys() -> dict[str, tuple[str, str]]:
    """Override flag -> (section, key): each key in kebab case, bar renames."""
    return {
        _FLAG_NAMES.get((where, key), "--" + key.replace("_", "-")): (where, key)
        for where, keys in _key_table().items()
        for key in keys
        if not (where == "run.data" and key in _FOLLOW_MODEL)
    }


def _typed(value, want: type, where: str):
    """value if it is a JSON value of type want (ints pass as floats), else ConfigError."""
    ok = isinstance(value, (int, float) if want is float else want)
    if not ok or isinstance(value, bool):
        raise ConfigError(f"{where}: expected {want.__name__}, got {json.dumps(value)}")
    try:
        return float(value) if want is float else value
    except OverflowError as exc:  # a JSON integer beyond float range
        raise ConfigError(f"{where}: {exc}") from None


def _section(raw, where: str, keys, overrides: dict | None = None) -> dict:
    """The raw section (absent means empty), checked for unknown keys, with
    the non-None overrides laid over."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    return {**raw, **{k: v for k, v in (overrides or {}).items() if v is not None}}


def _kwargs(section: dict, where: str) -> dict:
    """Type-checked constructor kwargs; absent or null keys keep the dataclass default."""
    out = {}
    for key, (want, required) in _key_table()[where].items():
        if section.get(key) is not None:
            out[key] = _typed(section[key], want, f"{where}.{key}")
        elif required:
            raise ConfigError(f"missing required field {where}.{key}")
    return out


def _build(cls, where: str, **kwargs):
    """cls(**kwargs), its range errors as ConfigErrors that name the section."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _template(sections: dict[str, dict], at: str | None = None) -> RunConfig:
    """The RunConfig of each section's checked kwargs; range errors name at, else the section."""
    model, data = (_build(cls, at or where, **sections[where]) for where, cls in _SECTIONS[:2])
    return _build(RunConfig, at or "run", model=model, data=data, **sections["run"])


def load_experiment(obj, overrides: dict | None = None, command: str = "run") -> dict:
    """Validate a raw config object, with overrides laid over it, into a
    RunConfig ("run"; None for the sweep command) plus sweep, output_dir, and seeds.

    overrides maps a section ("top-level config", "run", "run.model",
    "run.data") to {key: value}; None values are ignored. For the sweep
    command sweep is {axis: [(value, RunConfig), ...]}: each cell is built
    with its value in place of the key the axis replaces, and the first bad
    cell is reported once seeds and output_dir have passed."""
    if not isinstance(obj, dict):
        raise ConfigError("top-level config must be an object")
    over = overrides or {}
    table = _key_table()
    top = _section(obj, "top-level config", ("run", "sweep", "output_dir", "seeds"),
                   over.get("top-level config"))
    run_sec = _section(top.get("run"), "run", [*table["run"], "model", "data"], over.get("run"))
    model = _kwargs(_section(run_sec.get("model"), "run.model", table["run.model"],
                             over.get("run.model")), "run.model")
    data = _kwargs(_section(run_sec.get("data"), "run.data", table["run.data"],
                            over.get("run.data")), "run.data")
    for key in _FOLLOW_MODEL:
        data.setdefault(key, model[key])
    run = _kwargs(run_sec, "run")
    sweep = None if top.get("sweep") is None else _section(top["sweep"], "sweep", _SWEEP_AXES)
    sections = {"run.model": model, "run.data": data, "run": run}
    template = bad_cell = None
    if command == "sweep":
        if sweep is None:
            raise ConfigError("sweep section is required for the sweep command")
        present = [k for k in _SWEEP_AXES if sweep.get(k) is not None]
        if len(present) != 1:
            raise ConfigError(f"sweep needs exactly one of {', '.join(_SWEEP_AXES)}")
        axis = present[0]
        values = sweep[axis]
        if axis == "tau_grid" and values == []:
            values = list(DEFAULT_TAU_GRID)
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{axis} must be a nonempty list")
        where, key = _SWEEP_AXES[axis]
        want, cells = table[where][key][0], []
        for i, value in enumerate(values):
            at = f"sweep.{axis}[{i}]"
            try:
                cell = {**sections, where: {**sections[where], key: _typed(value, want, at)}}
                cells.append((value, _template(cell, at)))
            except ConfigError as exc:
                bad_cell = bad_cell or exc
        if not cells:  # then a bad key that the axis does not replace names its section
            _template(sections)
        sweep = {axis: cells}
    else:
        template = _template(sections)

    seeds = top.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a nonempty list of integers")
    seeds = [_typed(s, int, f"seeds[{i}]") for i, s in enumerate(seeds)]
    output_dir = _typed(top.get("output_dir", "runs"), str, "output_dir")
    if bad_cell is not None:
        raise bad_cell
    return {"run": template, "sweep": sweep, "output_dir": output_dir, "seeds": seeds}


def build_run_config(exp: dict, master_seed: int) -> RunConfig:
    return replace(exp["run"], master_seed=master_seed)


def _name_float(x: float) -> str:
    """x in :g form if that reads back as x, else its repr: distinct values, distinct names."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


def run_name(cfg: RunConfig) -> str:
    return (
        f"{cfg.aggregator}_tau{_name_float(cfg.tau)}_u{cfg.u}_k{cfg.k}"
        f"_noise{_name_float(cfg.data.noise_rate)}_seed{cfg.master_seed}"
    )


def _execute_one(cfgs: Sequence[RunConfig], out_root: Path) -> list[dict]:
    """Run one group of configs (see sim.run_detailed), write each one's run
    directory, and return one summary per config."""
    summaries = []
    try:
        # looked up on the module at call time, so a wrapper put on
        # gafsim.sim.run_detailed (a tracer, a test) sees every group
        results = sim.run_detailed(cfgs)
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"seed {cfgs[0].master_seed}: {exc}") from None
    for cfg, result in zip(cfgs, results):
        records = result.records
        rundir = out_root / run_name(cfg)
        rundir.mkdir(parents=True, exist_ok=True)
        write_records(records, rundir / "records.jsonl")
        summary = summarize(records)
        write_atomic(rundir / "summary.json", json.dumps(summary, indent=2) + "\n")
        run_obj = asdict(cfg)
        del run_obj["master_seed"]
        dump = {"run": run_obj, "output_dir": str(out_root), "seeds": [cfg.master_seed]}
        write_atomic(rundir / "config.json", json.dumps(dump, indent=2) + "\n")
        print(f"{run_name(cfg)}: final_val_acc={summary['final_val_acc']} "
              f"skip_fraction={summary['skip_fraction']:.3f}")
        summaries.append(summary)
    return summaries


def cmd_run(exp: dict) -> int:
    out_root = Path(exp["output_dir"])
    for seed in dict.fromkeys(exp["seeds"]):  # a repeated seed runs once
        _execute_one([build_run_config(exp, seed)], out_root)
    return 0


def cmd_sweep(exp: dict) -> int:
    (axis, cells), = exp["sweep"].items()  # load_experiment leaves one axis
    out_root = Path(exp["output_dir"])
    table = out_root / "sweep_summary.csv"
    # the table's (cell, seed) row pairs in table order, and the run groups
    # that make them: configs with equal group keys run in lockstep
    pairs = []
    groups: dict[tuple, dict[RunConfig, None]] = {}
    for j, (value, cell) in enumerate(cells):
        for seed in exp["seeds"]:
            # averaging == admit-all threshold; one baseline serves every tau
            base = replace(cell, aggregator=AGG_AVERAGING, tau=2.0, master_seed=seed)
            gaf = replace(cell, aggregator=AGG_GAF, master_seed=seed)
            pairs.append((j, value, seed, base, gaf))
            groups.setdefault(group_key(base), {}).update(dict.fromkeys((base, gaf)))

    summaries: dict[RunConfig, dict] = {}
    for i, (j, value, seed, base, gaf) in enumerate(pairs):
        if gaf not in summaries:  # the pair's group has not run yet
            key = group_key(base)
            legs = list(groups[key])
            try:
                summaries.update(zip(legs, _execute_one(legs, out_root)))
            except (ValueError, RuntimeError) as exc:
                # a group of one cell's value names that cell; a tau-grid group runs
                # every cell of its seed, and a repeated value makes several cells
                if axis == "tau_grid" or {p[0] for p in pairs if group_key(p[3]) == key} != {j}:
                    raise
                raise type(exc)(f"sweep.{axis}[{j}], {exc}") from None
        base_summary, gaf_summary = summaries[base], summaries[gaf]
        improvement = None
        if gaf_summary["final_val_acc"] is not None and base_summary["final_val_acc"] is not None:
            improvement = gaf_summary["final_val_acc"] - base_summary["final_val_acc"]
        # appended pair by pair, so a crash keeps every earlier row (cheaper
        # than a rename per pair); csv writes None as an empty cell
        with table.open("a" if i else "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if not i:
                writer.writerow(["param", "value", "seed", "aggregator", *gaf_summary,
                                 "improvement"])
            writer.writerow([axis, value, seed, AGG_AVERAGING, *base_summary.values(), None])
            writer.writerow([axis, value, seed, AGG_GAF, *gaf_summary.values(), improvement])
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
        x = rng.normal(size=(1, 8, 6))
        y = rng.integers(0, 4, size=(1, 8))
        # rows: the base vector, then each of 25 coordinates moved by +h, then by -h
        idx = rng.choice(params.size, size=25, replace=False)
        h = 1e-5
        rows = np.tile(params, (51, 1))
        rows[np.arange(1, 26), idx] += h
        rows[np.arange(26, 51), idx] -= h
        grads = np.empty((51, 1, params.size))
        losses = loss_and_grad(GradBlock(rows, spec, np.full(51, 0.01), grads), x, y)
        fd = (losses[1:26, 0] - losses[26:, 0]) / (2 * h)
        grad = grads[0, 0, idx]
        worst = float((abs(fd - grad) / np.maximum(np.maximum(abs(fd), abs(grad)), 1e-8)).max())
        line = f"gradcheck {kind}/{act}: max rel err {worst:.2e}"
        if worst < 1e-5:
            print(f"PASS {line}")
        else:
            print(f"FAIL {line}")
            ok = False

    # 200 instances as 40 five-leg groups, each leg with its own tau and pivot:
    # every leg is scanned with its group and alone, and both must match
    mismatches = 0
    for _ in range(40):
        k = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 40))
        block = rng.normal(size=(5, k, dim))
        taus = rng.uniform(0, 2, 5).tolist()
        pivots = rng.integers(k, size=5).tolist()
        group = agreement_scan(block, taus, pivots, scan_work(5, k, dim))
        for leg, grads in enumerate(block):
            ref_grad, ref_c = _naive_filter_reference(grads, taus[leg], pivots[leg])
            same = all(
                out.accepted_count == ref_c and (
                    (out.gradient is None and ref_grad is None)
                    or (out.gradient is not None and ref_grad is not None
                        and np.array_equal(out.gradient, ref_grad))
                )
                for out in (group[leg], gaf_aggregate(grads, taus[leg], pivots[leg]))
            )
            mismatches += 0 if same else 1
    if mismatches == 0:
        print("PASS aggregation scan matches naive reference on 200 random instances")
    else:
        print(f"FAIL aggregation scan: {mismatches}/200 mismatches")
        ok = False

    # run groups precompute their generator states; numpy's own seeding must agree
    seeds = rng.integers(0, 1 << 64, size=1000, dtype=np.uint64, endpoint=False)
    bad = seeding.seed_mismatches(seeds)
    if not bad:
        print("PASS precomputed generator states match numpy's default_rng on 1000 seeds")
    else:
        print(f"FAIL precomputed generator states: {len(bad)}/1000 seeds differ from numpy "
              f"{np.__version__}'s default_rng, first {bad[0]}")
        ok = False

    return 0 if ok else 1


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("overrides (take precedence over the config file)")
    for flag, (where, key) in _flag_keys().items():
        g.add_argument(flag, type=_key_table()[where][key][0], dest=f"{where}.{key}",
                       metavar=key.upper(), help=f"sets {where}.{key}")
    g.add_argument("--out", help="output directory")
    g.add_argument("--seed", type=int, action="append",
                   help="replicate seed; repeat the flag for several")


def _overrides(args: argparse.Namespace) -> dict:
    """The parsed flags as load_experiment overrides."""
    over = {"top-level config": {"output_dir": args.out, "seeds": args.seed}}
    for flag, (where, key) in _flag_keys().items():
        over.setdefault(where, {})[key] = getattr(args, f"{where}.{key}")
    return over


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
    sub.add_parser("check", help="run gradient, aggregation and seeding self-tests")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check()
    try:
        try:
            raw = json.loads(read_utf8(Path(args.config)))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: config is not valid JSON: {exc}") from None
        except (OSError, ValueError) as exc:  # the ValueError: bytes that are not UTF-8
            raise ConfigError(f"cannot read config: {exc}") from None
        exp = load_experiment(raw, _overrides(args), args.command)
        return cmd_run(exp) if args.command == "run" else cmd_sweep(exp)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        # the failures gafsim raises on purpose; anything else is a bug and keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
