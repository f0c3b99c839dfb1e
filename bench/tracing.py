"""Span tracing around gafsim's layer boundaries, from outside the package.

``Tracer.install`` replaces each function in ``TARGETS`` at the name that
``gafsim.sim`` or ``gafsim.cli`` (or a module they call through) looks it
up under, with a wrapper that records a span: name, start, end, parent span
and run id. ``restore`` puts every original back. Spans stay in memory and
are written out once, by ``write``.

The training loop has no per-step function, so the tracer synthesizes a
``sim.step`` span: it opens when ``sample_macrobatch`` is entered (the first
call of every step) and closes at the next step's sample or at the end of
the run.

A name missing from the installed gafsim makes ``install`` raise, so a
traced run against a refactored layer fails instead of reporting zeros.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute, span name); the span name's prefix is the layer
TARGETS = (
    ("gafsim.sim", "run_detailed", "sim.run"),
    ("gafsim.sim", "make_dataset", "data.build"),
    ("gafsim.data", "inject_symmetric_noise", "data.build"),
    ("gafsim.sim", "take", "data.build"),
    ("gafsim.sim", "sample_macrobatch", "data.sample"),
    ("gafsim.sim", "init_params", "models.init"),
    ("gafsim.sim", "loss_and_grad", "models.grad"),
    ("gafsim.sim", "accuracy", "models.eval"),
    ("gafsim.sim", "gaf_aggregate", "aggregate.scan"),
    ("gafsim.sim", "running_scan_distances", "aggregate.scan"),
    ("gafsim.sim", "average", "aggregate.average"),
    ("gafsim.aggregate", "cosine_distance", "gradvec.cosine"),
    ("gafsim.gradvec", "dot", "gradvec.dot"),
    ("gafsim.sim", "init_optim", "optim.init"),
    ("gafsim.sim", "sgd_step", "optim.sgd"),
    ("gafsim.sim", "skip_step", "optim.skip"),
    ("gafsim.sim", "plateau_update", "optim.plateau"),
    ("gafsim.cli", "main", "cli.main"),
    ("gafsim.cli", "cmd_sweep", "cli.sweep"),
    ("gafsim.cli", "_execute_one", "cli.execute"),
    ("gafsim.cli", "write_records", "telemetry.write"),
    ("gafsim.cli", "summarize", "telemetry.summarize"),
)

LAYERS = ("data", "models", "gradvec", "aggregate", "optim", "sim", "telemetry", "cli")

# span record fields, in order
NAME, START, END, PARENT, RUN = range(5)


def _observe_grad(counts, args, kwargs, out):
    counts["models.grad_rows"] += len(args[1])


def _observe_scan(counts, args, kwargs, out):
    # running_scan_distances (the averaging leg) returns a plain list
    if hasattr(out, "accepted_count"):
        counts["aggregate.gaf_calls"] += 1
        counts["aggregate.candidates"] += len(out.pairwise_distances)
        counts["aggregate.accepted"] += out.accepted_count - 1
        counts["aggregate.skipped"] += bool(out.skipped)


def _observe_write(counts, args, kwargs, out):
    path = Path(args[1])
    counts["telemetry.bytes"] += os.path.getsize(path) + os.path.getsize(path.with_suffix(".csv"))


OBSERVERS = {
    ("gafsim.sim", "loss_and_grad"): _observe_grad,
    ("gafsim.sim", "gaf_aggregate"): _observe_scan,
    ("gafsim.cli", "write_records"): _observe_write,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._run_id = 0
        self._step: int | None = None  # open sim.step span
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._run_id])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span stack out of order: closing {sid}, top was {popped}")

    def _close_step(self) -> None:
        if self._step is not None:
            self._close(self._step)
            self._step = None

    def _wrap(self, fn, name: str, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "sim.run":
                tracer._run_id += 1
            elif name == "data.sample" and tracer._stack and (
                tracer.spans[tracer._stack[-1]][NAME] in ("sim.run", "sim.step")
            ):
                tracer._close_step()
                tracer._step = tracer._open("sim.step")
            sid = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                if name == "sim.run":
                    tracer._close_step()
                tracer._close(sid)
            if observe is not None:
                observe(tracer.counts, args, kwargs, out)
            return out

        return wrapper

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for modname, attr, name in TARGETS:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, OBSERVERS.get((modname, attr))))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        self._stack.clear()
        self._step = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- output ------------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        """Write a JSON header line, then one ``[name, start_ns, end_ns,
        parent, run]`` line per span (parent -1 for a root span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with tmp.open("w") as fh:
            fh.write(json.dumps({**header, "fields": ["name", "start_ns", "end_ns", "parent", "run"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        os.replace(tmp, path)

    def layer_metrics(self, reps: int) -> dict[str, float]:
        """Per-layer metrics; counts and ``_s`` totals are per rep."""
        durations: dict[str, list[int]] = {}
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            dur = span[END] - span[START]
            durations.setdefault(span[NAME], []).append(dur)
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += dur
        self_ns = Counter()
        step_self = 0
        for sid, span in enumerate(self.spans):
            own = span[END] - span[START] - child_ns[sid]
            self_ns[span[NAME].split(".", 1)[0]] += own
            if span[NAME] == "sim.step":
                step_self += own

        def us(name, q):
            d = durations.get(name)
            return float(np.percentile(d, q)) / 1e3 if d else 0.0

        def calls(name):
            return len(durations.get(name, ())) / reps

        def total_s(name):
            return sum(durations.get(name, ())) / 1e9 / reps

        c = self.counts
        steps_ns = sum(durations.get("sim.step", ()))
        out = {
            "data.sample_us_p50": us("data.sample", 50),
            "data.sample_us_p99": us("data.sample", 99),
            "data.sample_calls": calls("data.sample"),
            "data.build_s": total_s("data.build"),
            "models.grad_us_p50": us("models.grad", 50),
            "models.grad_us_p99": us("models.grad", 99),
            "models.grad_calls": calls("models.grad"),
            "models.grad_rows": c["models.grad_rows"] / reps,
            "models.eval_s": total_s("models.eval"),
            "models.eval_calls": calls("models.eval"),
            "gradvec.dot_calls": calls("gradvec.dot"),
            "gradvec.dot_us_p50": us("gradvec.dot", 50),
            "aggregate.scan_us_p50": us("aggregate.scan", 50),
            "aggregate.scan_us_p99": us("aggregate.scan", 99),
            "aggregate.candidates": c["aggregate.candidates"] / reps,
            "aggregate.accept_ratio": (
                c["aggregate.accepted"] / c["aggregate.candidates"] if c["aggregate.candidates"] else 0.0
            ),
            "aggregate.skip_ratio": (
                c["aggregate.skipped"] / c["aggregate.gaf_calls"] if c["aggregate.gaf_calls"] else 0.0
            ),
            "optim.sgd_us_p50": us("optim.sgd", 50),
            "optim.sgd_calls": calls("optim.sgd"),
            "optim.skip_calls": calls("optim.skip"),
            "optim.plateau_calls": calls("optim.plateau"),
            "sim.step_us_p50": us("sim.step", 50),
            "sim.step_us_p99": us("sim.step", 99),
            "sim.self_share": step_self / steps_ns if steps_ns else 0.0,
            "telemetry.write_s": total_s("telemetry.write"),
            "telemetry.bytes": c["telemetry.bytes"] / reps,
            "cli.runs_executed": calls("cli.execute"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9 / reps
        return out
