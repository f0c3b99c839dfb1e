import csv
import json

import pytest

from gafsim.cli import main


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
        assert main(["run", "--config", str(dumped)]) == 0
        assert (rundir / "records.jsonl").read_bytes() == first

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


class TestCheckCommand:
    def test_self_tests_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
