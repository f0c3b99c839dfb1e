import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gafsim import cli, sim
from gafsim.cli import load_experiment, main
from gafsim.data import DataConfig
from gafsim.models import ModelSpec
from gafsim.sim import RunConfig


def minimal_config(tmp_path, **run_overrides):
    run = {
        "model": {"kind": "softmax_linear", "input_dim": 6, "num_classes": 3,
                  "init_sigma": 0.1},
        "data": {"kind": "gaussian", "n_per_class": 40, "sigma": 0.5},
        "k": 2,
        "u": 3,
        "steps": 10,
        "eval_every": 5,
    }
    run.update(run_overrides)
    cfg = {"run": run, "output_dir": str(tmp_path / "out"), "seeds": [0]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# sha256 of each summary.json and of sweep_summary.csv written by
# test_tau_sweep_outputs_are_golden's sweep
SWEEP_GOLDEN_DIGESTS = {
    "avg_tau2_u3_k2_noise0.2_seed0": "253fe96e7ba7c0cc5d54e6ef8b3b7acff7ca9b5da9f7adc027d628bd1f6fd490",
    "avg_tau2_u3_k2_noise0.2_seed1": "1f17abb7f4d6d53d6cbdafbddfd168cc8849303b3d2ad231defc4db3bf1f4fed",
    "gaf_tau0.5_u3_k2_noise0.2_seed0": "9bc123ec982268d74365df4a45e381985bb63a92352981ea6b3c6ea5f7dff73a",
    "gaf_tau0.5_u3_k2_noise0.2_seed1": "7c2ddc5a3d36d2cd16817fa34a3d5a1665e10b76b5b2a25d688db72d2566d1d1",
    "gaf_tau1_u3_k2_noise0.2_seed0": "e3351e5e16f2c3875f7c6416742a9d0f3441b79ca78550ff0ec657c8ec368c83",
    "gaf_tau1_u3_k2_noise0.2_seed1": "b72c1141c06c9669ca3fbe56eae2b4d7b625efe9a1593263417f02e188301fdb",
    "sweep_summary.csv": "1bbcdd0a8db7a2781bfcf5dbc9812e13bb8734b2b0bf8b6f97773753f7cf842f",
}
# the same for test_noise_sweep_outputs_are_golden's sweep
NOISE_SWEEP_GOLDEN_DIGESTS = {
    "avg_tau2_u3_k2_noise0.4_seed0": "12f30119310d8d7ce1b39ee2fe34d1701b8c7c467ceab843458b1ada660589da",
    "avg_tau2_u3_k2_noise0.4_seed1": "3861f84d94d09ce7bd729aa46353bbbb0414eb15135bcdc1f7bc6a1bb9523b00",
    "avg_tau2_u3_k2_noise0_seed0": "4458ede1e12c31511e7a92750250e0faf6ff2001e8a4a18c762342a45e13edb2",
    "avg_tau2_u3_k2_noise0_seed1": "45c6391652ed148a9a5fda1e7284a868f9bd037d7dccfeb053b6f175eaa77f0b",
    "gaf_tau0.97_u3_k2_noise0.4_seed0": "8b6a8a4a4d09d2839e8fcca9669719a706b66a043987c242544f604c44a4b092",
    "gaf_tau0.97_u3_k2_noise0.4_seed1": "a4dd55c4fed0753927f698de3e884bb352d7f909082c3f618fa9681a42434fae",
    "gaf_tau0.97_u3_k2_noise0_seed0": "4458ede1e12c31511e7a92750250e0faf6ff2001e8a4a18c762342a45e13edb2",
    "gaf_tau0.97_u3_k2_noise0_seed1": "5f28e232ca1f58e9b959a576f3e8dbf676ce8f11b04d3ffdf370796c5fecaa0d",
    "sweep_summary.csv": "3dbe6eabb8e261afd28538aa613df71859f61e9d916da082907c7140dc7368fa",
}


def sweep_config(tmp_path, sweep, seeds=(0,), **run_overrides):
    path = minimal_config(tmp_path, **run_overrides)
    obj = json.loads(path.read_text())
    obj["sweep"] = sweep
    obj["seeds"] = list(seeds)
    path.write_text(json.dumps(obj))
    return path


def output_digests(out_dir):
    """sha256 of each run's summary.json, by run name, and of sweep_summary.csv."""
    digests = {p.parent.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out_dir.glob("*/summary.json")}
    digests["sweep_summary.csv"] = hashlib.sha256(
        (out_dir / "sweep_summary.csv").read_bytes()).hexdigest()
    return digests


def read_summary(out_dir, name):
    return json.loads((out_dir / name / "summary.json").read_text())


class TestRunCommand:
    def test_minimal_run_writes_records(self, tmp_path, capsys):
        cfg = minimal_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        rundir = tmp_path / "out" / "avg_tau0.97_u3_k2_noise0_seed0"
        lines = (rundir / "records.jsonl").read_text().splitlines()
        assert len(lines) == 10
        assert (rundir / "records.csv").exists()
        assert (rundir / "summary.json").exists()
        assert "final_val_acc" in capsys.readouterr().out

    def test_missing_required_field_names_it(self, tmp_path, capsys):
        cfg = {"run": {"model": {"kind": "mlp1", "num_classes": 3},
                       "data": {"kind": "gaussian"}}, "seeds": [0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        assert "run.model.input_dim" in capsys.readouterr().err

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        obj = json.loads(path.read_text())
        obj["run"]["learning_rate"] = 0.1  # typo for lr
        path.write_text(json.dumps(obj))
        assert main(["run", "--config", str(path)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_unexpected_error_while_loading_exits_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise RuntimeError("simulated failure")

        monkeypatch.setattr(cli, "load_experiment", fail)
        assert main(["run", "--config", str(minimal_config(tmp_path))]) == 1
        assert capsys.readouterr().err == "error: simulated failure\n"
        assert not (tmp_path / "out").exists()

    def test_unexpected_exception_type_propagates(self, tmp_path, monkeypatch):
        # only ConfigError, ValueError, OSError and RuntimeError are gafsim's own failures;
        # any other exception is a bug and keeps its traceback
        def fail(*args):
            raise KeyError("final_val_acc")

        monkeypatch.setattr(cli, "load_experiment", fail)
        with pytest.raises(KeyError, match="final_val_acc"):
            main(["run", "--config", str(minimal_config(tmp_path))])

    def test_non_utf8_csv_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rows = [b"%d.5,%d" % (i % 3, i % 3) for i in range(30)]
        rows[4] = b"\xff.5,0"
        data.write_bytes(b"f0,label\n" + b"\n".join(rows) + b"\n")
        cfg = minimal_config(tmp_path, model={"kind": "softmax_linear", "input_dim": 1,
                                              "num_classes": 3},
                             data={"kind": "csv", "path": str(data)})
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {data}:6: 'utf-8' codec can't decode byte 0xff")
        assert not (tmp_path / "out").exists()

    def test_admit_all_filter_summary_matches_averaging(self, tmp_path):
        cfg = minimal_config(tmp_path, steps=30)
        assert main(["run", "--config", str(cfg), "--aggregator", "gaf",
                     "--tau", "2.0", "--pivot", "0"]) == 0
        assert main(["run", "--config", str(cfg), "--aggregator", "avg"]) == 0
        out = tmp_path / "out"
        gaf = read_summary(out, "gaf_tau2_u3_k2_noise0_seed0")
        avg = read_summary(out, "avg_tau0.97_u3_k2_noise0_seed0")
        assert gaf == avg

    def test_flags_override_file(self, tmp_path):
        cfg = minimal_config(tmp_path, steps=10)
        assert main(["run", "--config", str(cfg), "--steps", "4", "--seed", "9"]) == 0
        rundir = tmp_path / "out" / "avg_tau0.97_u3_k2_noise0_seed9"
        assert len((rundir / "records.jsonl").read_text().splitlines()) == 4

    def test_config_round_trip_reproduces_bytes(self, tmp_path):
        cfg = minimal_config(tmp_path, steps=12)
        assert main(["run", "--config", str(cfg), "--noise-rate", "0.2"]) == 0
        rundir = tmp_path / "out" / "avg_tau0.97_u3_k2_noise0.2_seed0"
        first = (rundir / "records.jsonl").read_bytes()
        dumped = rundir / "config.json"
        # the data dims that follow the model are written resolved
        data = json.loads(dumped.read_text())["run"]["data"]
        assert (data["num_classes"], data["input_dim"]) == (3, 6)
        assert main(["run", "--config", str(dumped)]) == 0
        assert (rundir / "records.jsonl").read_bytes() == first

    @pytest.mark.parametrize("value", ["abc", "nan"])
    def test_bad_csv_feature_names_file_and_line(self, tmp_path, capsys, value):
        data = tmp_path / "data.csv"
        rows = [f"{i % 3}.5,{i % 3}" for i in range(30)]
        rows[6] = f"{value},0"
        data.write_text("f0,label\n" + "\n".join(rows) + "\n")
        cfg = minimal_config(tmp_path, model={"kind": "softmax_linear", "input_dim": 1,
                                              "num_classes": 3},
                             data={"kind": "csv", "path": str(data)})
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"{data}:8: feature f0 must be a finite number" in capsys.readouterr().err

    def test_csv_model_mismatch_names_file_and_key(self, tmp_path, capsys):
        # a 4-class, 2-feature file against a 3-class, 5-input model
        data = tmp_path / "bad.csv"
        rows = [f"{i % 5}.0,{i % 7}.5,{i % 4}" for i in range(80)]
        data.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
        cfg = minimal_config(tmp_path, model={"kind": "softmax_linear", "input_dim": 5,
                                              "num_classes": 3},
                             data={"kind": "csv", "path": str(data)})
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert (f"{data}: 2 features and 4 classes, run.model has input_dim 5 "
                "and num_classes 3") in err
        assert "diverged" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lr,weight_decay,step", [(1e8, 0.1, 23), (1e300, 0.0, 2)],
                             ids=["decay", "no-decay"])
    def test_diverging_run_prints_one_error_line(self, tmp_path, lr, weight_decay, step):
        # the weights grow until their squares overflow (at weight_decay 0 the penalty is
        # then 0 * inf); a fresh process, so numpy's own warnings would reach stderr too
        cfg = minimal_config(tmp_path, steps=60, lr=lr, weight_decay=weight_decay,
                             momentum=0.0)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-m", "gafsim", "run", "--config", str(cfg)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == (f"error: training diverged at step {step}: "
                               "non-finite loss or gradient\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pivot", ["5", "-1"])
    def test_pivot_out_of_range_is_config_error(self, tmp_path, capsys, pivot):
        cfg = minimal_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--aggregator", "gaf",
                     "--pivot", pivot]) == 2
        assert f"pivot {pivot} out of range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_data_model_dim_conflict(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        obj = json.loads(path.read_text())
        obj["run"]["data"]["input_dim"] = 9
        path.write_text(json.dumps(obj))
        assert main(["run", "--config", str(path)]) == 2
        assert "input_dim" in capsys.readouterr().err


class TestSweepCommand:
    def test_noise_sweep_rows(self, tmp_path):
        path = minimal_config(tmp_path, steps=8)
        obj = json.loads(path.read_text())
        obj["sweep"] = {"noise_rates": [0.0, 0.4]}
        obj["seeds"] = [0, 1]
        path.write_text(json.dumps(obj))
        assert main(["sweep", "--config", str(path)]) == 0
        with (tmp_path / "out" / "sweep_summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        # 2 noise values x 2 aggregators = 4 rows per seed
        assert len(rows) == 8
        for row in rows:
            if row["aggregator"] == "gaf":
                base = next(
                    r for r in rows
                    if r["aggregator"] == "avg" and r["value"] == row["value"]
                    and r["seed"] == row["seed"]
                )
                expected = float(row["final_val_acc"]) - float(base["final_val_acc"])
                assert float(row["improvement"]) == pytest.approx(expected, abs=1e-12)
            else:
                assert row["improvement"] == ""

    def test_single_tau_sweep_matches_run(self, tmp_path):
        path = minimal_config(tmp_path, steps=10)
        obj = json.loads(path.read_text())
        obj["sweep"] = {"tau_grid": [0.97]}
        path.write_text(json.dumps(obj))
        assert main(["sweep", "--config", str(path)]) == 0
        gaf_dir = tmp_path / "out" / "gaf_tau0.97_u3_k2_noise0_seed0"
        assert gaf_dir.exists()

        run_cfg = minimal_config(tmp_path, steps=10, aggregator="gaf", tau=0.97)
        obj = json.loads(run_cfg.read_text())
        obj["output_dir"] = str(tmp_path / "single")
        run_cfg.write_text(json.dumps(obj))
        assert main(["run", "--config", str(run_cfg)]) == 0
        single = (tmp_path / "single" / "gaf_tau0.97_u3_k2_noise0_seed0" / "records.jsonl")
        swept = gaf_dir / "records.jsonl"
        assert single.read_bytes() == swept.read_bytes()

    def test_tau_sweep_outputs_are_golden(self, tmp_path):
        # digests recorded before the table and summary writers were derived
        # from summarize's keys; the bytes must never move
        path = sweep_config(tmp_path, {"tau_grid": [0.5, 1]}, seeds=[0, 1], steps=12,
                            data={"kind": "gaussian", "n_per_class": 40, "sigma": 0.5,
                                  "noise_rate": 0.2})
        assert main(["sweep", "--config", str(path)]) == 0
        assert output_digests(tmp_path / "out") == SWEEP_GOLDEN_DIGESTS

    def test_noise_sweep_outputs_are_golden(self, tmp_path):
        # digests recorded before the sweep ran each group at its first table row
        path = sweep_config(tmp_path, {"noise_rates": [0.0, 0.4]}, seeds=[0, 1], steps=12)
        assert main(["sweep", "--config", str(path)]) == 0
        assert output_digests(tmp_path / "out") == NOISE_SWEEP_GOLDEN_DIGESTS

    @staticmethod
    def record_groups(monkeypatch) -> list:
        """The legs of each run group the sweep runs, as (aggregator, tau, noise, seed)."""
        groups = []
        real_run = sim.run_detailed

        def recording(cfgs):
            groups.append([(c.aggregator, c.tau, c.data.noise_rate, c.master_seed)
                           for c in cfgs])
            return real_run(cfgs)

        monkeypatch.setattr(sim, "run_detailed", recording)
        return groups

    def test_tau_sweep_runs_one_group_per_seed(self, tmp_path, monkeypatch):
        path = sweep_config(tmp_path, {"tau_grid": [0.5, 1]}, seeds=[0, 1], steps=4)
        groups = self.record_groups(monkeypatch)
        assert main(["sweep", "--config", str(path)]) == 0
        # one averaging baseline (tau 2), then each tau's filtered leg
        assert groups == [[("avg", 2.0, 0.0, seed), ("gaf", 0.5, 0.0, seed),
                           ("gaf", 1.0, 0.0, seed)] for seed in (0, 1)]

    def test_noise_sweep_runs_one_group_per_pair_in_table_order(self, tmp_path, monkeypatch):
        path = sweep_config(tmp_path, {"noise_rates": [0.0, 0.4]}, seeds=[0, 1], steps=4)
        groups = self.record_groups(monkeypatch)
        assert main(["sweep", "--config", str(path)]) == 0
        assert groups == [[("avg", 2.0, noise, seed), ("gaf", 0.97, noise, seed)]
                          for noise in (0.0, 0.4) for seed in (0, 1)]

    def test_table_keeps_finished_rows_when_a_later_run_fails(self, tmp_path, monkeypatch):
        path = minimal_config(tmp_path, steps=6)
        obj = json.loads(path.read_text())
        obj["sweep"] = {"tau_grid": [0.5, 1]}
        obj["seeds"] = [0, 1]
        path.write_text(json.dumps(obj))

        def run_then_fail(cfgs):
            # seed 0's group (both cells) finishes, seed 1's crashes
            if cfgs[0].master_seed == 1:
                raise RuntimeError("simulated crash")
            return real_run(cfgs)

        real_run = sim.run_detailed
        monkeypatch.setattr(sim, "run_detailed", run_then_fail)
        assert main(["sweep", "--config", str(path)]) == 1
        with (tmp_path / "out" / "sweep_summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["seed"], r["aggregator"]) for r in rows] == [
            ("0.5", "0", "avg"), ("0.5", "0", "gaf")]

    def test_failed_first_group_leaves_no_directory(self, tmp_path, capsys):
        # 3 white-noise rows over 2 classes cannot fill a stratified u=2 macrobatch
        path = sweep_config(tmp_path, {"tau_grid": [0.97]}, u=2,
                            model={"kind": "softmax_linear", "input_dim": 6, "num_classes": 2},
                            data={"kind": "white_noise", "n": 3})
        assert main(["sweep", "--config", str(path)]) == 1
        assert "class 0 has 1 samples, need 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_uniform_u_beyond_the_train_split_fails_before_any_run(self, tmp_path, capsys):
        # 40 white-noise rows leave 32 for training: u=2 fits, u=30 (k*u=60) does not
        path = sweep_config(tmp_path, {"u_values": [2, 30]}, k=2, u=2, sampling="uniform",
                            model={"kind": "softmax_linear", "input_dim": 6, "num_classes": 2},
                            data={"kind": "white_noise", "n": 40})
        assert main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err == ("config error: sweep.u_values[1]: uniform macrobatch "
                                           "k*u=60 exceeds the 32 training rows of 40\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("run,sweep,cells,message", [
        # 28 white-noise rows leave 21 for training: k*u=24 does not fit, 10 and 20 do
        ({"sampling": "uniform", "u": 12, "val_fraction": 0.25,
          "data": {"kind": "white_noise", "n": 28}}, {"u_values": [5, 10]},
         ["tau0.97_u5_k2_noise0", "tau0.97_u10_k2_noise0"],
         "run: uniform macrobatch k*u=24 exceeds the 21 training rows of 28"),
        ({"u": 4}, {"u_values": [3, 6]}, ["tau0.97_u3_k2_noise0", "tau0.97_u6_k2_noise0"],
         "run: stratified sampling needs u divisible by num_classes (4 % 3 != 0)"),
        ({"tau": 3.0, "steps": 5, "data": {"kind": "gaussian", "n_per_class": 20}},
         {"tau_grid": [0.5, 1.0]}, ["tau0.5_u3_k2_noise0", "tau1_u3_k2_noise0"],
         "run: tau must be in [0, 2]"),
        ({"steps": 5, "data": {"kind": "gaussian", "n_per_class": 20, "noise_rate": 1.5}},
         {"noise_rates": [0.0, 0.2]}, ["tau0.97_u3_k2_noise0", "tau0.97_u3_k2_noise0.2"],
         "run.data: noise_rate must be in [0, 1]"),
    ], ids=["uniform", "stratified", "tau", "noise_rate"])
    def test_u_sweep_checks_each_cell_not_the_replaced_run_u(self, tmp_path, capsys, run,
                                                            sweep, cells, message):
        # every sweep axis replaces one run key in each cell, checked with the cell's value
        path = sweep_config(tmp_path, sweep, **run)
        assert main(["sweep", "--config", str(path)]) == 0
        assert {p.name for p in (tmp_path / "out").glob("gaf_*")} == {
            f"gaf_{cell}_seed0" for cell in cells}
        # the run command runs run.u, so it still rejects it
        shutil.rmtree(tmp_path / "out")
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_requires_exactly_one_axis(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        obj = json.loads(path.read_text())
        obj["sweep"] = {"noise_rates": [0.1], "u_values": [2]}
        path.write_text(json.dumps(obj))
        assert main(["sweep", "--config", str(path)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_sweep_without_section_is_config_error(self, tmp_path):
        path = minimal_config(tmp_path)
        assert main(["sweep", "--config", str(path)]) == 2


# (section, key, flag or None, flag value, value in the built RunConfig); a
# key without a flag is set in the file instead
KEY_CASES = [
    ("model", "kind", "--model-kind", "mlp1", "mlp1"),
    ("model", "input_dim", "--input-dim", "5", 5),
    ("model", "num_classes", "--num-classes", "4", 4),
    ("model", "hidden_dim", "--hidden-dim", "7", 7),
    ("model", "activation", "--activation", "relu", "relu"),
    ("model", "init_sigma", "--init-sigma", "0.3", 0.3),
    ("model", "init_seed", "--init-seed", "11", 11),
    ("data", "kind", "--data-kind", "white_noise", "white_noise"),
    ("data", "num_classes", None, 3, 3),
    ("data", "input_dim", None, 6, 6),
    ("data", "n_per_class", "--n-per-class", "33", 33),
    ("data", "n", "--n", "123", 123),
    ("data", "sigma", "--sigma", "0.7", 0.7),
    ("data", "noise_rate", "--noise-rate", "0.25", 0.25),
    ("data", "path", "--csv-path", "x.csv", "x.csv"),
    ("run", "k", "--k", "3", 3),
    ("run", "u", "--u", "6", 6),
    ("run", "steps", "--steps", "5", 5),
    ("run", "aggregator", "--aggregator", "gaf", "gaf"),
    ("run", "tau", "--tau", "1.01", 1.01),
    ("run", "pivot", "--pivot", "1", 1),
    ("run", "sampling", "--sampling", "uniform", "uniform"),
    ("run", "lr", "--lr", "0.2", 0.2),
    ("run", "momentum", "--momentum", "0.5", 0.5),
    ("run", "weight_decay", "--weight-decay", "0.01", 0.01),
    ("run", "patience", "--patience", "7", 7),
    ("run", "lr_factor", "--lr-factor", "0.5", 0.5),
    ("run", "min_lr", "--min-lr", "1e-5", 1e-5),
    ("run", "min_delta", "--min-delta", "1e-3", 1e-3),
    ("run", "eval_every", "--eval-every", "3", 3),
    ("run", "val_fraction", "--val-fraction", "0.3", 0.3),
]


def built_config(monkeypatch, argv) -> RunConfig:
    """The template RunConfig that `main(argv)` hands to the run command."""
    seen = []
    monkeypatch.setattr(cli, "cmd_run", lambda exp: seen.append(exp["run"]) or 0)
    assert main(argv) == 0
    return seen[0]


class TestConfigSchema:
    def test_cases_cover_every_dataclass_field(self):
        keys = {(section, key) for section, key, *_ in KEY_CASES}
        fields = {("model", f) for f in ModelSpec.__dataclass_fields__}
        fields |= {("data", f) for f in DataConfig.__dataclass_fields__}
        fields |= {("run", f) for f in RunConfig.__dataclass_fields__
                   if f not in ("model", "data", "master_seed")}
        assert keys == fields

    @pytest.mark.parametrize("section,key,flag,value,expected", KEY_CASES,
                             ids=[f"{c[0]}.{c[1]}" for c in KEY_CASES])
    def test_key_lands_in_run_config(self, tmp_path, monkeypatch, section, key, flag, value,
                                     expected):
        path = minimal_config(tmp_path)
        obj = json.loads(path.read_text())
        obj["run"]["model"]["hidden_dim"] = 2  # lets the kind flip to mlp1
        obj["run"]["u"] = 12  # stratified: divisible by the 3 and 4 classes used here
        argv = ["run", "--config", str(path)]
        if flag is None:
            obj["run"][section][key] = value
        else:
            argv += [flag, value]
        path.write_text(json.dumps(obj))
        cfg = built_config(monkeypatch, argv)
        target = cfg if section == "run" else getattr(cfg, section)
        assert getattr(target, key) == expected
        assert type(getattr(target, key)) is type(expected)

    def test_model_dims_flow_into_data(self, tmp_path, monkeypatch):
        cfg = built_config(monkeypatch, ["run", "--config", str(minimal_config(tmp_path, u=5)),
                                         "--num-classes", "5", "--input-dim", "9"])
        assert (cfg.data.num_classes, cfg.data.input_dim) == (5, 9)

    def test_minimal_config_gets_dataclass_defaults(self):
        obj = {"run": {"model": {"kind": "softmax_linear", "input_dim": 6, "num_classes": 5},
                       "data": {"kind": "gaussian"}}}
        exp = load_experiment(obj)
        assert exp["run"] == RunConfig(
            model=ModelSpec(kind="softmax_linear", input_dim=6, num_classes=5),
            data=DataConfig(kind="gaussian", num_classes=5, input_dim=6),
        )
        assert (exp["sweep"], exp["output_dir"], exp["seeds"]) == (None, "runs", [0])

    def test_int_values_of_float_keys_are_floats(self):
        obj = {"run": {"model": {"kind": "softmax_linear", "input_dim": 6, "num_classes": 5,
                                 "init_sigma": 1},
                       "data": {"kind": "gaussian", "sigma": 2}, "tau": 1, "lr": 1}}
        cfg = load_experiment(obj)["run"]
        assert [type(v) for v in (cfg.model.init_sigma, cfg.data.sigma, cfg.tau, cfg.lr)] == [
            float] * 4


class TestConfigErrors:
    """Each bad config exits 2, names the key, and writes nothing."""

    def assert_config_error(self, tmp_path, capsys, obj, message, command="run", flags=()):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        assert main([command, "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert not (tmp_path / "out").exists()

    def base(self, tmp_path):
        return json.loads(minimal_config(tmp_path).read_text())

    @pytest.mark.parametrize("where,value,message", [
        (("run", "k"), 2.7, "run.k: expected int, got 2.7"),
        (("run", "steps"), True, "run.steps: expected int, got true"),
        (("run", "lr"), "0.05", 'run.lr: expected float, got "0.05"'),
        (("run", "tau"), False, "run.tau: expected float, got false"),
        (("run", "pivot"), 0.0, "run.pivot: expected int, got 0.0"),
        (("run", "aggregator"), 1, "run.aggregator: expected str, got 1"),
        (("run", "model", "kind"), ["mlp1"], 'run.model.kind: expected str, got ["mlp1"]'),
        (("run", "model", "input_dim"), 6.0, "run.model.input_dim: expected int, got 6.0"),
        (("run", "data", "noise_rate"), "0.1", 'run.data.noise_rate: expected float, got "0.1"'),
        (("run", "data", "path"), 3, "run.data.path: expected str, got 3"),
        (("seeds",), [True], "seeds[0]: expected int, got true"),
        (("seeds",), [0, 0.5], "seeds[1]: expected int, got 0.5"),
        (("seeds",), [], "seeds must be a nonempty list of integers"),
        (("output_dir",), 5, "output_dir: expected str, got 5"),
    ], ids=["k-float", "steps-bool", "lr-str", "tau-bool", "pivot-float", "aggregator-int",
            "model.kind-list", "model.input_dim-float", "data.noise_rate-str", "data.path-int",
            "seeds-bool", "seeds-float", "seeds-empty", "output_dir-int"])
    def test_mistyped_value(self, tmp_path, capsys, where, value, message):
        obj = self.base(tmp_path)
        section = obj
        for key in where[:-1]:
            section = section[key]
        section[where[-1]] = value
        self.assert_config_error(tmp_path, capsys, obj, message)

    @pytest.mark.parametrize("sweep,message", [
        ({"noise_rates": [0.0, 1.5]}, "sweep.noise_rates[1]: noise_rate must be in [0, 1]"),
        ({"noise_rates": [0.0, "x"]}, 'sweep.noise_rates[1]: expected float, got "x"'),
        ({"u_values": [3.9]}, "sweep.u_values[0]: expected int, got 3.9"),
        ({"u_values": [3, 0]}, "sweep.u_values[1]: k and u must be positive"),
        ({"u_values": [3, 4]},
         "sweep.u_values[1]: stratified sampling needs u divisible by num_classes (4 % 3 != 0)"),
        ({"tau_grid": [0.97, 2.5]}, "sweep.tau_grid[1]: tau must be in [0, 2]"),
        ({"tau_grid": [True]}, "sweep.tau_grid[0]: expected float, got true"),
        # a bad first value is named as its cell, not as the run key it replaces
        ({"tau_grid": [2.5, 0.97]}, "sweep.tau_grid[0]: tau must be in [0, 2]"),
        ({"noise_rates": [1.5]}, "sweep.noise_rates[0]: noise_rate must be in [0, 1]"),
        ({"u_values": [4, 3]},
         "sweep.u_values[0]: stratified sampling needs u divisible by num_classes (4 % 3 != 0)"),
    ], ids=["noise-range", "noise-str", "u-float", "u-zero", "u-classes", "tau-range",
            "tau-bool", "first-tau-range", "first-noise-range", "first-u-classes"])
    def test_bad_sweep_cell_fails_before_any_run(self, tmp_path, capsys, sweep, message):
        obj = self.base(tmp_path)
        obj["sweep"] = sweep
        self.assert_config_error(tmp_path, capsys, obj, message, command="sweep")

    @pytest.mark.parametrize("where,value,message", [
        (("run", "data", "noise_rate"), 1.5, "run.data: noise_rate must be in [0, 1]"),
        (("run", "steps"), 0, "run: steps must be >= 1"),
        (("run", "model", "kind"), "mlp1", "run.model: mlp1 requires hidden_dim >= 1"),
        (("run", "u"), 4, "run: stratified sampling needs u divisible by num_classes (4 % 3 != 0)"),
        (("run", "data", "sigma"), 0, "run.data: sigma must be positive"),
        (("run", "data", "n_per_class"), 0, "run.data: n_per_class must be >= 1"),
        (("run", "data"), {"kind": "white_noise", "n": 0}, "run.data: n must be >= 1"),
        (("run", "val_fraction"), 0.001,
         "run: val_fraction 0.001 leaves an empty split of 120 rows"),
    ], ids=["noise_rate", "steps", "hidden_dim", "u-classes", "sigma", "n_per_class",
            "white_noise-n", "val_fraction"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_range_error_names_section(self, tmp_path, capsys, where, value, message, command):
        obj = self.base(tmp_path)
        obj["sweep"] = {"tau_grid": [0.97]}
        section = obj
        for key in where[:-1]:
            section = section[key]
        section[where[-1]] = value
        self.assert_config_error(tmp_path, capsys, obj, message, command=command)

    @pytest.mark.parametrize("flags,message", [
        (["--lr", "-1"], "run: lr must be positive"),
        (["--momentum", "1.0"], "run: momentum must be in [0, 1)"),
        (["--lr-factor", "1.5"], "run: lr_factor must be in (0, 1)"),
        (["--patience", "-1"], "run: patience must be >= 0"),
        (["--min-lr", "1"], "run: min_lr must be in [0, lr], got 1 with lr"),
    ], ids=["lr", "momentum", "lr-factor", "patience", "min-lr"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_optimizer_setting_rejected_before_any_run(self, tmp_path, capsys, flags, message,
                                                       command):
        obj = self.base(tmp_path)
        obj["sweep"] = {"tau_grid": [0.97]}
        self.assert_config_error(tmp_path, capsys, obj, message, command=command, flags=flags)

    def test_integer_beyond_float_range_is_config_error(self, tmp_path, capsys):
        obj = self.base(tmp_path)
        obj["run"]["lr"] = 10 ** 400
        self.assert_config_error(tmp_path, capsys, obj,
                                 "run.lr: int too large to convert to float")

    def test_range_error_from_flag_names_section(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, self.base(tmp_path),
                                 "run.data: noise_rate must be in [0, 1]",
                                 flags=["--noise-rate", "1.5"])

    @pytest.mark.parametrize("mutate,message", [
        (lambda obj: [1, 2], "top-level config must be an object"),
        (lambda obj: {**obj, "run": [1]}, "run must be an object"),
        (lambda obj: {**obj, "run": {**obj["run"], "model": 5}}, "run.model must be an object"),
        (lambda obj: {**obj, "run": {**obj["run"], "data": "gaussian"}},
         "run.data must be an object"),
        (lambda obj: {**obj, "sweep": [0.97]}, "sweep must be an object"),
    ], ids=["top", "run", "model", "data", "sweep"])
    def test_non_object_section(self, tmp_path, capsys, mutate, message):
        obj = mutate(self.base(tmp_path))
        self.assert_config_error(tmp_path, capsys, obj, message, flags=["--k", "2"])

    @pytest.mark.parametrize("flag,value,message", [
        ("--sampling", "strat", "unknown sampling 'strat'"),
        ("--aggregator", "mean", "unknown aggregator 'mean'"),
        ("--activation", "sigmoid", "unknown activation 'sigmoid'"),
        ("--model-kind", "cnn", "unknown model kind 'cnn'"),
        ("--data-kind", "mnist", "unknown dataset kind 'mnist'"),
    ], ids=["sampling", "aggregator", "activation", "model-kind", "data-kind"])
    def test_unknown_choice_flag(self, tmp_path, capsys, flag, value, message):
        self.assert_config_error(tmp_path, capsys, self.base(tmp_path), message,
                                 flags=[flag, value])

    def test_unknown_sampling_in_file(self, tmp_path, capsys):
        obj = self.base(tmp_path)
        obj["run"]["sampling"] = "strat"
        self.assert_config_error(tmp_path, capsys, obj, "unknown sampling 'strat'")


class TestCheckCommand:
    def test_self_tests_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_module_entry_point(self, tmp_path):
        # `python -m gafsim check` from a source checkout, outside the repo
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-m", "gafsim", "check"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("PASS") == 4
