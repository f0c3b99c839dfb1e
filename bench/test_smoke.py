"""Smoke tests for the benchmark itself, at a few steps per run.

    python3 -m pytest bench/test_smoke.py -q

Each workload must run traced and untraced, emit every metric that
BENCHMARK.json names, leave its records unchanged under tracing, and put
every wrapped gafsim function back.
"""

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs src/ on the path)

TINY_STEPS = 12


def current_targets() -> list:
    return [getattr(importlib.import_module(mod), attr) for mod, attr, _ in tracing.TARGETS]


def test_benchmark_json_names_what_the_harness_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_metric_and_restores_wrappers(name, tmp_path):
    workload = replace(workloads.WORKLOADS[name], steps=TINY_STEPS)
    originals = current_targets()
    workload.setup(0, tmp_path)
    spans = tmp_path / "spans.jsonl"
    result = run.measure(workload, 0, tmp_path, 0.01, trace=True, spans_path=spans)

    assert all(a is b for a, b in zip(current_targets(), originals))
    reps = result["reps"]
    assert len(reps) == 2 and all(r["error"] is None for r in reps)
    # the traced rep hashes the same as the untraced one
    attempted, failed = run.verify(reps, None, workload.runs_requested)
    assert attempted == 2 * len(reps[0]["hashes"]) and failed == 0

    layers = result["layers"]
    assert set(layers) == set(run.LAYER_UNITS)
    runs_executed = layers["cli.runs_executed"] or workload.runs_requested
    assert layers["data.sample_calls"] == TINY_STEPS * runs_executed
    e2e, _ = run.end_to_end(workload, [{**result, "setup_s": 0.5, "peak_rss_mib": 50.0}])
    assert set(e2e) == set(run.E2E_UNITS)
    assert all(v > 0 for v in e2e.values())

    lines = spans.read_text().splitlines()
    assert json.loads(lines[0])["fields"] == ["name", "start_ns", "end_ns", "parent", "run"]
    records = [json.loads(line) for line in lines[1:]]
    by_id = dict(enumerate(records))
    for rec in records:
        if rec[0] == "models.grad":
            assert by_id[rec[3]][0] == "sim.step"
        if rec[0] == "sim.step":
            assert by_id[rec[3]][0] == "sim.run"
        assert rec[1] <= rec[2]


def test_tracer_restores_when_traced_code_raises():
    originals = current_targets()
    with pytest.raises(RuntimeError, match="boom"):
        with tracing.Tracer():
            assert not all(a is b for a, b in zip(current_targets(), originals))
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(current_targets(), originals))


def test_tracer_fails_on_a_name_gafsim_no_longer_has(monkeypatch):
    originals = current_targets()
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("gafsim.sim", "gone", "sim.gone"),))
    with pytest.raises(AttributeError, match="gone"):
        tracing.Tracer().install()
    monkeypatch.undo()
    assert all(a is b for a, b in zip(current_targets(), originals))


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "noisy-cluster", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
