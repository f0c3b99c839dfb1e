"""Step-record serialization and run summaries.

The canonical on-disk format is JSONL, one object per training step, with
a companion CSV holding the scalar columns (cosine distances reduced to
their mean). Serialization is byte-reproducible for identical records and
round-trips every finite float64 exactly. Every file is written atomically
(see write_atomic).
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# record field, in schema order -> (check on its decoded JSON value, what it wants)
RECORD_FIELDS = {
    "step": (_is_int, "an integer"),
    "train_loss": (_is_number, "a number"),
    "cos_distances": (
        lambda v: isinstance(v, list) and all(map(_is_number, v)),
        "a list of numbers",
    ),
    "accepted_count": (_is_int, "an integer"),
    "skipped": (lambda v: isinstance(v, bool), "a boolean"),
    "lr": (_is_number, "a number"),
    "train_acc": (lambda v: v is None or _is_number(v), "a number or null"),
    "val_acc": (lambda v: v is None or _is_number(v), "a number or null"),
}


@dataclass
class StepRecord:
    """Telemetry for one macrobatch step.

    cos_distances holds the agreement-scan distances (length k-1);
    train_acc/val_acc are None except on evaluation steps.
    """

    step: int
    train_loss: float
    cos_distances: list[float] = field(default_factory=list)
    accepted_count: int = 1
    skipped: bool = False
    lr: float = 0.0
    train_acc: float | None = None
    val_acc: float | None = None


def write_atomic(path, text: str) -> None:
    """Replace `path` with `text` through a temp file in the same directory.

    The text goes to a temp file that os.replace then renames over `path`,
    so a reader or a crash mid-write sees either the old file or the new
    one, never a partial one; on failure the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_records(records: list[StepRecord], path) -> None:
    """Write JSONL to `path` and the scalar CSV next to it (.csv suffix)."""
    path = Path(path)
    # vars() holds the fields in declaration (schema) order; asdict would
    # deep-copy every value first and double the cost of a write
    lines = [json.dumps(vars(r), separators=(",", ":")) for r in records]
    # the CSV columns are the record fields, the distances reduced to their mean
    csv_buf = io.StringIO()
    writer = csv.writer(csv_buf, lineterminator="\n")
    writer.writerow(name.replace("cos_distances", "cos_distance_mean") for name in RECORD_FIELDS)
    for r in records:
        d = r.cos_distances
        row = {**vars(r), "cos_distances": sum(d) / len(d) if d else None,
               "skipped": "true" if r.skipped else "false"}
        # csv writes None as an empty cell and floats by repr
        writer.writerow(row.values())
    try:
        write_atomic(path, "".join(line + "\n" for line in lines))
        write_atomic(path.with_suffix(".csv"), csv_buf.getvalue())
    except OSError as exc:
        raise OSError(f"failed writing records to {path}: {exc}") from exc


def read_records(path) -> list[StepRecord]:
    """Read back a JSONL records file written by write_records.

    Every error names `path:line`: invalid JSON, a non-object line, unknown
    or missing fields, and field values of the wrong type.
    """
    path = Path(path)
    records = []
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"failed reading records from {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - set(RECORD_FIELDS)
        if unknown:
            raise ValueError(f"{path}:{lineno}: unknown record fields {sorted(unknown)}")
        for name, value in obj.items():
            check, wanted = RECORD_FIELDS[name]
            if not check(value):
                raise ValueError(f"{path}:{lineno}: field {name!r} must be {wanted}, got {value!r}")
        missing = [name for name in RECORD_FIELDS if name not in obj]
        if missing:
            raise ValueError(f"{path}:{lineno}: missing record fields {missing}")
        records.append(StepRecord(**obj))
    return records


def summarize(records: list[StepRecord]) -> dict:
    """Aggregate a run: final/best validation accuracy, skip fraction, and
    the mean agreement distance over the last quartile of steps."""
    if not records:
        raise ValueError("cannot summarize an empty run")
    val_accs = [r.val_acc for r in records if r.val_acc is not None]
    tail = records[(3 * len(records)) // 4 :]
    tail_distances = [d for r in tail for d in r.cos_distances]
    return {
        "final_val_acc": val_accs[-1] if val_accs else None,
        "best_val_acc": max(val_accs) if val_accs else None,
        "skip_fraction": sum(r.skipped for r in records) / len(records),
        "mean_cos_distance_last_quartile": (
            sum(tail_distances) / len(tail_distances) if tail_distances else None
        ),
    }
