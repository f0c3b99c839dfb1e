import dataclasses
import json
import time

import numpy as np
import pytest

from gafsim import telemetry
from gafsim.telemetry import (
    StepRecord,
    read_records,
    summarize,
    write_atomic,
    write_records,
)

from conftest import N_PROPERTY_CASES


def make_records(n, rng=None, k=2):
    rng = rng or np.random.default_rng(0)
    records = []
    for t in range(1, n + 1):
        skipped = bool(rng.integers(4) == 0)
        records.append(
            StepRecord(
                step=t,
                train_loss=float(rng.uniform(0, 3)),
                cos_distances=[float(rng.uniform(0, 2)) for _ in range(k - 1)],
                accepted_count=1 if skipped else k,
                skipped=skipped,
                lr=0.01,
                train_acc=float(rng.uniform(0, 1)) if t % 10 == 0 else None,
                val_acc=float(rng.uniform(0, 1)) if t % 10 == 0 else None,
            )
        )
    return records


class TestSerialization:
    def test_round_trip(self, tmp_path):
        records = make_records(50)
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        assert read_records(path) == records

    def test_empty_records(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records([], path)
        assert path.read_text() == ""
        csv_lines = path.with_suffix(".csv").read_text().splitlines()
        assert len(csv_lines) == 1 and csv_lines[0].startswith("step,")

    def test_byte_reproducible(self, tmp_path):
        records = make_records(30)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(records, p1)
        write_records(records, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.with_suffix(".csv").read_bytes() == p2.with_suffix(".csv").read_bytes()

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(make_records(3), path)
        obj = json.loads(path.read_text().splitlines()[0])
        assert list(obj) == [
            "step", "train_loss", "cos_distances", "accepted_count",
            "skipped", "lr", "train_acc", "val_acc",
        ]
        assert isinstance(obj["cos_distances"], list)

    def test_one_record_schema(self):
        # the JSON keys, the CSV columns and read_records' type table all
        # come from RECORD_FIELDS, so it must name the StepRecord fields
        assert list(telemetry.RECORD_FIELDS) == [f.name for f in dataclasses.fields(StepRecord)]

    @pytest.mark.parametrize("line, message", [
        ('{"step": 3,', "invalid JSON"),
        ('{"step": 3}', "missing record fields ['train_loss', 'cos_distances', 'accepted_count', "
                        "'skipped', 'lr', 'train_acc', 'val_acc']"),
        ('{"step": 3, "train_loss": 0.5, "cos_distances": [0.1], "accepted_count": 2, '
         '"skipped": false, "train_acc": null, "val_acc": null}', "missing record fields ['lr']"),
        ("[3, 0.5]", "expected a JSON object, got list"),
        ('{"step": 3, "train_loss": 0.5, "pivot": 0}', "unknown record fields ['pivot']"),
        ('{"step": "x", "train_loss": 0.5}', "field 'step' must be an integer, got 'x'"),
        ('{"step": true, "train_loss": 0.5}', "field 'step' must be an integer, got True"),
        ('{"step": 3.0, "train_loss": 0.5}', "field 'step' must be an integer, got 3.0"),
        ('{"step": 3, "train_loss": "y"}', "field 'train_loss' must be a number, got 'y'"),
        ('{"step": 3, "train_loss": false}', "field 'train_loss' must be a number, got False"),
        ('{"step": 3, "train_loss": 0.5, "cos_distances": 0.1}',
         "field 'cos_distances' must be a list of numbers, got 0.1"),
        ('{"step": 3, "train_loss": 0.5, "cos_distances": [0.1, "a"]}',
         "field 'cos_distances' must be a list of numbers, got [0.1, 'a']"),
        ('{"step": 3, "train_loss": 0.5, "accepted_count": 2.0}',
         "field 'accepted_count' must be an integer, got 2.0"),
        ('{"step": 3, "train_loss": 0.5, "accepted_count": false}',
         "field 'accepted_count' must be an integer, got False"),
        ('{"step": 3, "train_loss": 0.5, "skipped": 0}', "field 'skipped' must be a boolean, got 0"),
        ('{"step": 3, "train_loss": 0.5, "lr": null}', "field 'lr' must be a number, got None"),
        ('{"step": 3, "train_loss": 0.5, "train_acc": true}',
         "field 'train_acc' must be a number or null, got True"),
        ('{"step": 3, "train_loss": 0.5, "val_acc": "0.5"}',
         "field 'val_acc' must be a number or null, got '0.5'"),
    ])
    def test_bad_line_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "records.jsonl"
        write_records(make_records(2), path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ValueError) as info:
            read_records(path)
        assert str(info.value).startswith(f"{path}:3: ")
        assert message in str(info.value)

    def test_failed_replace_keeps_old_files(self, tmp_path, monkeypatch):
        # the new text is fully written to a temp file, then the rename fails
        path = tmp_path / "records.jsonl"
        write_records(make_records(5), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(telemetry.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            write_records(make_records(9, np.random.default_rng(1)), path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "summary.json"
        write_atomic(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            write_atomic(path, "new " * 1000 + "\udc80")  # lone surrogate: unencodable
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]
        assert path.read_text() == "old\n"

    def test_write_failure_names_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            write_records([], tmp_path / "no" / "such" / "records.jsonl")

    def test_large_write_is_quick(self, tmp_path):
        records = make_records(100_000)
        start = time.monotonic()
        write_records(records, tmp_path / "big.jsonl")
        assert time.monotonic() - start < 5.0


class TestSummarize:
    def test_single_record(self):
        rec = StepRecord(step=1, train_loss=1.0, val_acc=0.5)
        summary = summarize([rec])
        assert summary["final_val_acc"] == summary["best_val_acc"] == 0.5

    def test_all_skipped(self):
        records = [
            StepRecord(step=t, train_loss=1.0, skipped=True, accepted_count=1)
            for t in range(1, 5)
        ]
        assert summarize(records)["skip_fraction"] == 1.0

    def test_hand_computed_summary(self):
        # 8 records; val accs 0.3 then 0.6 then final 0.5; steps 7-8 are the
        # last quartile with distances {0.8, 1.2} -> mean 1.0; 2 skips of 8
        records = [
            StepRecord(step=1, train_loss=1.0, cos_distances=[0.1], val_acc=0.3),
            StepRecord(step=2, train_loss=1.0, cos_distances=[0.2]),
            StepRecord(step=3, train_loss=1.0, cos_distances=[0.3], skipped=True),
            StepRecord(step=4, train_loss=1.0, cos_distances=[0.4], val_acc=0.6),
            StepRecord(step=5, train_loss=1.0, cos_distances=[0.5]),
            StepRecord(step=6, train_loss=1.0, cos_distances=[0.6], skipped=True),
            StepRecord(step=7, train_loss=1.0, cos_distances=[0.8]),
            StepRecord(step=8, train_loss=1.0, cos_distances=[1.2], val_acc=0.5),
        ]
        summary = summarize(records)
        assert summary["final_val_acc"] == 0.5
        assert summary["best_val_acc"] == 0.6
        assert summary["skip_fraction"] == 0.25
        assert summary["mean_cos_distance_last_quartile"] == pytest.approx(1.0)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])


@pytest.mark.properties
class TestProperties:
    def test_round_trip_lossless_for_hostile_floats(self, rng, tmp_path):
        # denormals, huge magnitudes, and full-precision mantissas all
        # round-trip bit for bit through the JSONL path
        for case in range(N_PROPERTY_CASES):
            scale = 10.0 ** rng.integers(-300, 300)
            records = [
                StepRecord(
                    step=1,
                    train_loss=float(rng.normal() * scale),
                    cos_distances=[float(np.nextafter(rng.uniform(0, 2), 3))],
                    accepted_count=2,
                    skipped=False,
                    lr=float(np.nextafter(rng.uniform(0, 1), 2)),
                    train_acc=None,
                    val_acc=float(rng.uniform()),
                )
            ]
            path = tmp_path / f"r{case}.jsonl"
            write_records(records, path)
            back = read_records(path)
            assert back == records
            assert back[0].train_loss.hex() == records[0].train_loss.hex()
