"""The benchmark's workloads: scaled-down versions of the paper's experiments.

Each workload has three parts:

- ``setup(seed, workdir)`` builds what a user pays for once per process:
  the workload's datasets (through ``make_dataset``,
  ``inject_symmetric_noise`` and ``take``) and, for the CLI workload, its
  config file.
- ``execute(seed, workdir)`` is the timed unit of work, one *rep*. It calls
  gafsim only through public names looked up at call time (``gafsim.run``,
  ``gafsim.cli.main``), so the tracer's wrappers see every layer call.
- ``check(output, workdir)`` runs after the timer stops. It returns the
  sha256 of every run's ``records.jsonl`` bytes (as ``write_records``
  writes them) and every run's final validation accuracy.

Expects ``gafsim`` to be importable (``bench/run.py`` puts ``src/`` on the
path).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gafsim
import gafsim.cli
from gafsim import DataConfig, ModelSpec, RunConfig, derive_seed, make_dataset, take

# The noisy-cluster task of acceptance criteria 5 and 7: relu-128 on 10
# Gaussian clusters with spread 0.3 and 40% flipped labels.
CLUSTER_MODEL = ModelSpec(kind="mlp1", input_dim=32, num_classes=10, hidden_dim=128,
                          activation="relu", init_sigma=0.1)
CLUSTER_DATA = DataConfig(kind="gaussian", num_classes=10, input_dim=32, n_per_class=500,
                          sigma=0.3, noise_rate=0.4)

# The white-noise task of acceptance criterion 4 (tanh-64, init_sigma 10),
# as a CLI config; the empty tau_grid selects the CLI's default grid.
NOISE_SWEEP_CONFIG = {
    "run": {
        "model": {"kind": "mlp1", "input_dim": 32, "num_classes": 10, "hidden_dim": 64,
                  "activation": "tanh", "init_sigma": 10.0},
        "data": {"kind": "white_noise", "n": 2000},
        "k": 2, "u": 10, "lr": 0.08, "momentum": 0.95, "weight_decay": 0.0,
        "eval_every": 100, "val_fraction": 0.75, "sampling": "uniform", "aggregator": "gaf",
    },
    "sweep": {"tau_grid": []},
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_datasets(cfg: RunConfig) -> None:
    """Build a dataset of the shape and kind ``run`` builds for ``cfg``."""
    master = cfg.master_seed
    ds = make_dataset(cfg.data, seed=derive_seed(master, 1))
    if cfg.data.noise_rate > 0:
        ds = gafsim.inject_symmetric_noise(ds, cfg.data.noise_rate, derive_seed(master, 2))
    perm = np.random.default_rng(derive_seed(master, 3)).permutation(ds.n)
    take(ds, perm[round(cfg.val_fraction * ds.n):])


@dataclass(frozen=True)
class RunsWorkload:
    """A fixed list of runs made through ``gafsim.run`` on one master seed."""

    name: str
    why: str
    steps: int
    legs: tuple[dict, ...]  # RunConfig fields per run, on top of `base`
    base: dict

    def configs(self, seed: int) -> list[RunConfig]:
        return [
            RunConfig(**{**self.base, **leg, "steps": self.steps, "master_seed": seed})
            for leg in self.legs
        ]

    @property
    def runs_requested(self) -> int:
        return len(self.legs)

    @property
    def cli_runs_requested(self) -> int:
        return 0

    @property
    def steps_requested(self) -> int:
        return self.steps * len(self.legs)

    def setup(self, seed: int, workdir: Path) -> None:
        for cfg in self.configs(seed):
            build_datasets(cfg)

    def execute(self, seed: int, workdir: Path):
        return [(cfg, gafsim.run(cfg)) for cfg in self.configs(seed)]

    def check(self, output, workdir: Path) -> tuple[dict[str, str], list[float]]:
        hashes, vals = {}, []
        path = workdir / "records.jsonl"
        for cfg, records in output:
            gafsim.write_records(records, path)
            hashes[gafsim.cli.run_name(cfg)] = sha256_file(path)
            vals.append([r.val_acc for r in records if r.val_acc is not None][-1])
        return hashes, vals


# master seeds per noise-sweep rep: benchmark seed s runs 2s and 2s+1
SWEEP_SEEDS = 2


@dataclass(frozen=True)
class SweepWorkload:
    """``gafsim sweep`` over the default tau grid, run in-process."""

    name: str
    why: str
    steps: int
    config: dict

    def seeds(self, seed: int) -> list[int]:
        return [SWEEP_SEEDS * seed + i for i in range(SWEEP_SEEDS)]

    def experiment(self, seed: int) -> dict:
        obj = json.loads(json.dumps(self.config))
        obj["run"]["steps"] = self.steps
        obj["seeds"] = self.seeds(seed)
        return obj

    @property
    def grid(self) -> list[float]:
        return self.config["sweep"]["tau_grid"] or gafsim.cli.DEFAULT_TAU_GRID

    @property
    def runs_requested(self) -> int:
        # one filtered run and one averaging baseline per (tau, seed) cell
        return 2 * len(self.grid) * SWEEP_SEEDS

    @property
    def cli_runs_requested(self) -> int:
        return self.runs_requested

    @property
    def steps_requested(self) -> int:
        return self.steps * self.runs_requested

    def setup(self, seed: int, workdir: Path) -> None:
        obj = self.experiment(seed)
        exp = gafsim.cli.load_experiment(obj)
        for s in exp["seeds"]:
            build_datasets(gafsim.cli.build_run_config(exp, s))
        (workdir / "sweep.json").write_text(json.dumps(obj))

    def execute(self, seed: int, workdir: Path):
        out = workdir / "sweep-out"
        shutil.rmtree(out, ignore_errors=True)
        code = gafsim.cli.main(["sweep", "--config", str(workdir / "sweep.json"),
                                "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"gafsim sweep exited with code {code}")
        return out

    def check(self, out: Path, workdir: Path) -> tuple[dict[str, str], list[float]]:
        hashes, vals = {}, []
        for rundir in sorted(p for p in out.iterdir() if p.is_dir()):
            hashes[rundir.name] = sha256_file(rundir / "records.jsonl")
            vals.append(json.loads((rundir / "summary.json").read_text())["final_val_acc"])
        hashes["sweep_summary.csv"] = sha256_file(out / "sweep_summary.csv")
        shutil.rmtree(out)
        return hashes, vals


_CLUSTER_BASE = dict(model=CLUSTER_MODEL, data=CLUSTER_DATA, k=2, u=10, lr=0.05, momentum=0.9,
                     weight_decay=0.0, eval_every=100, val_fraction=0.2, sampling="stratified")

WORKLOADS = {
    w.name: w
    for w in (
        RunsWorkload(
            name="noisy-cluster",
            why="paper headline avg-vs-gaf pair at k=2 u=10: sampling, optimizer and eval dominate",
            steps=500,
            base=_CLUSTER_BASE,
            legs=({"aggregator": "avg", "tau": 2.0}, {"aggregator": "gaf", "tau": 0.97}),
        ),
        SweepWorkload(
            name="noise-sweep",
            why="CLI tau sweep x 2 seeds on white noise: many short skip-heavy runs, writes, dedupe",
            steps=100,
            config=NOISE_SWEEP_CONFIG,
        ),
    )
}

