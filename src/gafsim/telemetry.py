"""Rolling averages, step-record serialization, and run summaries.

The canonical on-disk format is JSONL, one object per training step, with
a companion CSV holding the scalar columns (cosine distances reduced to
their mean). Serialization is byte-reproducible for identical records and
round-trips every finite float64 exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RECORD_FIELDS = (
    "step",
    "train_loss",
    "cos_distances",
    "accepted_count",
    "skipped",
    "lr",
    "train_acc",
    "val_acc",
)


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


def rolling_mean(values, window: int) -> list[float]:
    """Trailing-window mean with truncated warm-up.

    Element i is the mean of the last `window` values ending at i; during
    warm-up it is the mean of everything seen so far, so the first output
    equals the first input.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n == 0:
        return []
    # each window is summed independently (no running-difference drift)
    warm = min(window, n)
    head = [float(values[: i + 1].sum() / (i + 1)) for i in range(warm)]
    if n <= window:
        return head
    windows = np.lib.stride_tricks.sliding_window_view(values, window)
    body = windows[1:].sum(axis=1) / window
    return head + [float(v) for v in body]


def _record_to_obj(r: StepRecord) -> dict:
    return {
        "step": r.step,
        "train_loss": r.train_loss,
        "cos_distances": list(r.cos_distances),
        "accepted_count": r.accepted_count,
        "skipped": r.skipped,
        "lr": r.lr,
        "train_acc": r.train_acc,
        "val_acc": r.val_acc,
    }


def write_records(records: list[StepRecord], path) -> None:
    """Write JSONL to `path` and the scalar CSV next to it (.csv suffix)."""
    path = Path(path)
    lines = [json.dumps(_record_to_obj(r), separators=(",", ":")) for r in records]
    csv_buf = io.StringIO()
    writer = csv.writer(csv_buf, lineterminator="\n")
    writer.writerow(
        ["step", "train_loss", "cos_distance_mean", "accepted_count", "skipped", "lr", "train_acc", "val_acc"]
    )
    for r in records:
        mean_d = sum(r.cos_distances) / len(r.cos_distances) if r.cos_distances else ""
        writer.writerow(
            [
                r.step,
                repr(r.train_loss),
                repr(mean_d) if mean_d != "" else "",
                r.accepted_count,
                "true" if r.skipped else "false",
                repr(r.lr),
                "" if r.train_acc is None else repr(r.train_acc),
                "" if r.val_acc is None else repr(r.val_acc),
            ]
        )
    try:
        path.write_text("".join(line + "\n" for line in lines))
        path.with_suffix(".csv").write_text(csv_buf.getvalue())
    except OSError as exc:
        raise OSError(f"failed writing records to {path}: {exc}") from exc


def read_records(path) -> list[StepRecord]:
    """Read back a JSONL records file written by write_records."""
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
        try:
            records.append(StepRecord(**obj))
        except TypeError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
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
