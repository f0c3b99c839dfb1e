#!/usr/bin/env python3
"""gafsim benchmark: end-to-end throughput and per-layer spans.

Usage, from the repository root:

    python3 bench/run.py --workload noisy-cluster --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 50

``--trace 0`` measures the end-to-end metrics in five fresh child
processes, one after another, each timing reps for a fifth of ``--seconds``;
before each, two more children only set up, so ``setup_s`` has 15 samples.
After every timed rep a child runs a fixed host-speed probe (``hostspeed``);
the run's wall and CPU timings are scaled by its mean probe wall and CPU
time, so that the host's drift between runs does not read as a change of
gafsim's speed.
``--trace 1`` measures the per-layer metrics in one child: untraced reps for
half of ``--seconds``, then traced reps for the other half (their ratio is
``sim.trace_overhead``). Without ``--trace`` both are run. ``--workload all``
runs every workload.

Every rep's records are hashed and compared with ``bench/reference.json``;
for a seed it has no hashes for, all reps must agree with each other. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit, and the machine. The traced child writes its spans to
``bench/out/spans-<workload>-seed<seed>.jsonl``.

BLAS threads are left as the environment sets them, as users get them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# A child's setup_s runs from here, before numpy and gafsim are imported, to
# its first rep.
STARTED = time.perf_counter()

import hostspeed  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

# Untraced timed children per run; peak_rss_mib is the median over them.
CHILDREN = 5
# Set-up-only children (no reps) before each timed one; setup_s is the
# median over all CHILDREN * (1 + SETUP_ONLY) children.
SETUP_ONLY = 2
# Seconds a child may run past its measuring budget before it is killed.
CHILD_GRACE_S = 40

E2E_UNITS = {
    "steps_per_s": "1/s",
    "cpu_per_step_us": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "final_val_acc": "fraction",
}
LAYER_UNITS = {
    "data.sample_us_p50": "us",
    "data.sample_us_p99": "us",
    "data.sample_calls": "count",
    "data.build_s": "s",
    "models.grad_us_p50": "us",
    "models.grad_us_p99": "us",
    "models.grad_calls": "count",
    "models.grad_rows": "count",
    "models.eval_s": "s",
    "models.eval_calls": "count",
    "gradvec.dot_calls": "count",
    "gradvec.dot_us_p50": "us",
    "aggregate.scan_us_p50": "us",
    "aggregate.scan_us_p99": "us",
    "aggregate.candidates": "count",
    "aggregate.accept_ratio": "ratio",
    "aggregate.skip_ratio": "ratio",
    "optim.sgd_us_p50": "us",
    "optim.sgd_calls": "count",
    "optim.skip_calls": "count",
    "optim.plateau_calls": "count",
    "sim.step_us_p50": "us",
    "sim.step_us_p99": "us",
    "sim.self_share": "ratio",
    "sim.trace_overhead": "ratio",
    "telemetry.write_s": "s",
    "telemetry.bytes": "bytes",
    "cli.runs_executed": "count",
    "cli.runs_requested": "count",
    **{f"{layer}.self_s": "s" for layer in
       ("data", "models", "gradvec", "aggregate", "optim", "sim", "telemetry", "cli")},
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# -- machine -----------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def thread_count() -> int | None:
    """Threads in this process; after numpy is imported this counts BLAS's."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "process_threads_after_numpy_import": thread_count(),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def fingerprint(m: dict) -> dict:
    """What the records' bits depend on besides the code."""
    return {key: m[key] for key in ("cpu", "numpy", "blas")}


# -- child: set up, then time reps -------------------------------------------


def timed_reps(workload, seed: int, workdir: Path, budget_s: float) -> list[dict]:
    """Run reps, each followed by an untimed host-speed probe, until the next
    one would end past ``budget_s`` (at least one)."""
    reps = []
    start = time.monotonic()
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        error = None
        try:
            out = workload.execute(seed, workdir)
        except Exception:  # noqa: BLE001 - a failed rep is counted, not fatal
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        rep = {"wall_s": wall, "cpu_s": cpu, "error": error, "hashes": {}, "val_accs": []}
        if error is None:
            try:
                rep["hashes"], rep["val_accs"] = workload.check(out, workdir)
            except Exception:  # noqa: BLE001
                rep["error"] = traceback.format_exc()
        if rep["error"] is not None:
            print(f"rep failed:\n{rep['error']}", file=sys.stderr)
        rep["probe_wall_s"], rep["probe_cpu_s"] = hostspeed.probe()
        reps.append(rep)
        if (time.monotonic() - start) * (len(reps) + 1) / len(reps) > budget_s:
            return reps


def measure(workload, seed: int, workdir: Path, seconds: float, trace: bool,
            spans_path: Path | None = None, header: dict | None = None) -> dict:
    """Time reps of an already set-up workload; with ``trace``, half the
    time untraced and half traced, and compute the per-layer metrics."""
    if not trace:
        return {"reps": timed_reps(workload, seed, workdir, seconds)}
    plain = timed_reps(workload, seed, workdir, seconds / 2)
    with tracing.Tracer() as tracer:  # restores every wrapped name on exit
        traced = timed_reps(workload, seed, workdir, seconds / 2)
    layers = tracer.layer_metrics(reps=len(traced))
    layers["sim.trace_overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0
    )
    layers["cli.runs_requested"] = workload.cli_runs_requested
    if spans_path is not None:
        tracer.write(spans_path, header or {})
    return {"reps": plain + traced, "layers": layers}


def child_main(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - STARTED
        result = {"reps": []} if args.seconds == 0 else measure(
            workload, args.seed, workdir, args.seconds, bool(args.trace),
            spans_path=OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
            header={"workload": args.workload, "seed": args.seed, "machine": machine()},
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


# -- parent: spawn children, verify, report ----------------------------------


class HarnessError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--child", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload}: child ran past {seconds + CHILD_GRACE_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload}: child exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise HarnessError(f"{workload}: child printed no result") from None
    return result


def load_reference(workload: str, seed: int, fp: dict) -> dict | None:
    try:
        ref = json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return None
    if ref.get("fingerprint") != fp:
        print(f"note: {REFERENCE.name} was recorded on {ref.get('fingerprint')}; "
              f"this machine is {fp}, so reps are only checked against each other",
              file=sys.stderr)
        return None
    return ref["hashes"].get(workload, {}).get(str(seed))


def verify(reps: list[dict], expected: dict | None, runs_per_rep: int) -> tuple[int, int]:
    """(attempted, failed) outputs: each run's records, and the sweep table.
    An output fails when its rep raised or its hash differs from ``expected``
    (or, without one, from the first good rep)."""
    if expected is None:
        expected = next((r["hashes"] for r in reps if r["error"] is None), None)
    attempted = failed = 0
    for rep in reps:
        if rep["error"] is not None:
            n = len(expected) if expected else runs_per_rep
            attempted += n
            failed += n
            continue
        keys = set(expected) | set(rep["hashes"])
        attempted += len(keys)
        failed += sum(rep["hashes"].get(k) != expected.get(k) for k in keys)
    return attempted, failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(workload, results: list[dict]) -> tuple[dict, dict]:
    """(metrics, printable spread) from the untraced children, timed and
    set-up-only. Wall and CPU timings are scaled by the run's host factors
    (see ``hostspeed``), so they read as at the reference host speed."""
    ok = [r for res in results for r in res["reps"] if r["error"] is None]
    if not ok:
        return dict.fromkeys(E2E_UNITS, 0.0), {**{k: (None, 0, "reps") for k in E2E_UNITS},
                                                "host_factors": (0.0, 0.0)}
    steps = workload.steps_requested
    wall_host = sum(r["probe_wall_s"] for r in ok) / len(ok) / hostspeed.PROBE_REF_WALL_S
    cpu_host = sum(r["probe_cpu_s"] for r in ok) / len(ok) / hostspeed.PROBE_REF_CPU_S
    # per rep, each scaled by the probe that followed it; printed only
    rates = [steps / r["wall_s"] * r["probe_wall_s"] / hostspeed.PROBE_REF_WALL_S for r in ok]
    cpu = [r["cpu_s"] / steps * 1e6 * hostspeed.PROBE_REF_CPU_S / r["probe_cpu_s"] for r in ok]
    setup = [res["setup_s"] / wall_host for res in results]
    rss = [res["peak_rss_mib"] for res in results if res["reps"]]
    vals = ok[0]["val_accs"]
    # Throughput and CPU are totals over all good reps, and the host factors
    # are mean probes over the run: a slow period slows the reps and the
    # probes between them alike, and the totals average over its length.
    total_steps = steps * len(ok)
    metrics = {
        "steps_per_s": total_steps / sum(r["wall_s"] for r in ok) * wall_host,
        "cpu_per_step_us": sum(r["cpu_s"] for r in ok) / total_steps * 1e6 / cpu_host,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(rss),
        "final_val_acc": sum(vals) / len(vals),
    }
    spread = {
        "steps_per_s": (quartiles(rates), len(rates), "reps"),
        "cpu_per_step_us": (quartiles(cpu), len(cpu), "reps"),
        "setup_s": (quartiles(setup), len(setup), "children"),
        "peak_rss_mib": (quartiles(rss), len(rss), "children"),
        "final_val_acc": (None, len(vals), "runs"),
        "host_factors": (wall_host, cpu_host),
    }
    return metrics, spread


def run_workload(name: str, seed: int, seconds: float, trace: int, fp: dict) -> tuple[dict, int, int]:
    import workloads

    workload = workloads.WORKLOADS[name]
    if trace:
        results = [spawn(name, seed, seconds, 1)]
    else:
        results = []
        for _ in range(CHILDREN):
            results += [spawn(name, seed, 0, 0) for _ in range(SETUP_ONLY)]
            results.append(spawn(name, seed, seconds / CHILDREN, 0))
    reps = [r for res in results for r in res["reps"]]
    attempted, failed = verify(reps, load_reference(name, seed, fp), workload.runs_requested)

    print(f"{name}: seed {seed}, {len(reps)} reps of {workload.runs_requested} runs, "
          f"{workload.steps_requested} steps each; outputs checked {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted if attempted else 1.0:.4f} ratio")
    if trace:
        metrics = results[0]["layers"]
        for key, unit in LAYER_UNITS.items():
            print(f"  {key:24s} {metrics[key]:14.6g} {unit}")
        metrics = {k: metrics[k] for k in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        metrics, spread = end_to_end(workload, results)
        for key, unit in E2E_UNITS.items():
            qs, n, what = spread[key]
            detail = f"(mean of {n} {what})" if qs is None else \
                f"({n} {what}: p25 {qs[0]:.6g}, median {qs[1]:.6g}, p75 {qs[2]:.6g})"
            print(f"  {key:24s} {metrics[key]:14.6g} {unit:8s} {detail}")
        for kind, factor, ref in zip(("wall", "cpu"), spread["host_factors"],
                                     (hostspeed.PROBE_REF_WALL_S, hostspeed.PROBE_REF_CPU_S)):
            print(f"  {'host_factor_' + kind:24s} {factor:14.6g} {'ratio':8s} "
                  f"(mean probe {kind} time over {ref} s; scales the {kind} timings above)")
        units = E2E_UNITS
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, attempted, failed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gafsim" / "__init__.py").is_file():
        print(f"error: gafsim sources not found at {SRC / 'gafsim'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.child:
        return child_main(args)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or args.seconds <= 0:
        print(f"error: workload must be one of {', '.join(workloads.WORKLOADS)} or all, "
              f"and --seconds positive", file=sys.stderr)
        return 2
    traces = [args.trace] if args.trace is not None else [0, 1]

    m = machine()
    print(f"machine: {json.dumps(m)}")
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            for trace in traces:
                got, a, f = run_workload(name, args.seed, args.seconds, trace, fingerprint(m))
                prefix = "" if len(names) == 1 and len(traces) == 1 else f"{name}:"
                metrics.update({prefix + k: v for k, v in got.items()})
                attempted += a
                failed += f
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
