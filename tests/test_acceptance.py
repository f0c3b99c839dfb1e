"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with -s or check test outcomes).
The training-based criteria use configurations calibrated at this desk
scale; the constants below are frozen on purpose so regressions are loud.
Seed gates are spelled out per criterion.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from gafsim import (
    DataConfig,
    ModelSpec,
    RunConfig,
    gaf_aggregate,
    init_params,
    measure_pairwise_distance_trend,
    run,
    run_detailed,
    write_records,
)
from gafsim.aggregate import average
from gafsim.sim import _TAG_INIT, derive_seed

import conftest
from oracles import finite_difference_grad, naive_filtered_aggregate

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2)
TAU_GRID = (0.95, 0.97, 0.99, 1.01, 1.03, 1.05)

# white-noise task: saturated random-feature init keeps the two workers'
# micro-gradients nearly orthogonal for the filter, while the heavy-ball
# baseline still memorizes the random labels inside 3000 steps
WHITE_NOISE_DATA = DataConfig(kind="white_noise", num_classes=10, input_dim=32, n=2000)
WHITE_NOISE_MODEL = ModelSpec(kind="mlp1", input_dim=32, num_classes=10, hidden_dim=64,
                              activation="tanh", init_sigma=10.0)
WHITE_NOISE_RUN = dict(k=2, u=10, steps=3000, lr=0.08, momentum=0.95, weight_decay=0.0,
                       eval_every=100, val_fraction=0.75, sampling="uniform")

# noisy-cluster task: spread 0.3 puts the clean-data baseline at ~0.92
# validation accuracy; 128 hidden units give enough capacity to memorize
# the 40% flipped labels over 10000 steps
CLUSTER_MODEL = ModelSpec(kind="mlp1", input_dim=32, num_classes=10, hidden_dim=128,
                          activation="relu", init_sigma=0.1)
CLUSTER_SIGMA = 0.3
CLUSTER_RUN = dict(k=2, u=10, steps=10_000, lr=0.05, momentum=0.9, weight_decay=0.0,
                   eval_every=100, val_fraction=0.2, sampling="stratified")

REPO = Path(__file__).resolve().parent.parent

# rebuilds a RunConfig from its asdict() JSON in a fresh interpreter and
# writes the run's records to the given path
FRESH_PROCESS_RUN = """
import json, sys
from gafsim import DataConfig, ModelSpec, RunConfig, run, write_records
kw = json.loads(sys.argv[1])
cfg = RunConfig(model=ModelSpec(**kw.pop("model")), data=DataConfig(**kw.pop("data")), **kw)
write_records(run(cfg), sys.argv[2])
"""


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)


def cluster_cfg(noise_rate: float, aggregator: str, tau: float, seed: int, **overrides):
    data = DataConfig(kind="gaussian", num_classes=10, input_dim=32, n_per_class=500,
                      sigma=CLUSTER_SIGMA, noise_rate=noise_rate)
    kw = dict(CLUSTER_RUN)
    kw.update(overrides)
    return RunConfig(model=CLUSTER_MODEL, data=data, aggregator=aggregator, tau=tau,
                     master_seed=seed, **kw)


# final validation accuracy per config; criterion 7's u = 10 legs are configs
# criterion 5 also runs, and a RunConfig is frozen and hashable, so they are
# read from here instead of run again
FINAL_VAL: dict[RunConfig, float] = {}


def final_vals(cfgs) -> list[float]:
    """Each config's final validation accuracy. The configs not run yet go as
    one run group, so they must share a seed, data, k, u and step count."""
    todo = [cfg for cfg in dict.fromkeys(cfgs) if cfg not in FINAL_VAL]
    if todo:
        for cfg, result in zip(todo, run_detailed(todo)):
            FINAL_VAL[cfg] = [r.val_acc for r in result.records if r.val_acc is not None][-1]
    return [FINAL_VAL[cfg] for cfg in cfgs]


class TestCriterion1AggregatorOracle:
    def test_filter_matches_naive_reimplementation(self):
        start = time.monotonic()
        rng = np.random.default_rng(424242)
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 513))
            grads = [rng.normal(size=dim) for _ in range(k)]
            tau = float(rng.uniform(0, 2))
            pivot = int(rng.integers(k))
            out = gaf_aggregate(grads, tau, pivot)
            ref_grad, ref_c, ref_mask, _, ref_skip = naive_filtered_aggregate(grads, tau, pivot)
            assert out.accepted_count == ref_c
            assert out.accepted_mask == ref_mask
            assert (out.gradient is None) == ref_skip
            if ref_grad is None:
                assert out.gradient is None
            else:
                assert np.array_equal(out.gradient, ref_grad)

            admit_all = gaf_aggregate(grads, 2.0, pivot)
            assert admit_all.gradient is not None
            assert admit_all.accepted_count == k
            assert np.allclose(admit_all.gradient, average(grads), atol=1e-12, rtol=1e-12)
        elapsed = time.monotonic() - start
        ok = elapsed < 5.0
        report("1 aggregator-oracle", ok, f"1000 instances exact, tau=2 ~ average, {elapsed:.2f}s")
        assert ok


class TestCriterion2GradientCorrectness:
    def test_finite_difference_agreement(self):
        start = time.monotonic()
        rng = np.random.default_rng(31337)
        draws = (
            [("softmax_linear", "tanh")] * 20
            + [("mlp1", "tanh")] * 10
            + [("mlp1", "relu")] * 10
        )
        worst = 0.0
        for kind, act in draws:
            spec = ModelSpec(kind=kind, input_dim=int(rng.integers(3, 12)),
                             num_classes=int(rng.integers(2, 8)),
                             hidden_dim=int(rng.integers(3, 10)), activation=act,
                             init_sigma=float(rng.uniform(0.2, 1.0)),
                             init_seed=int(rng.integers(1 << 31)))
            params = init_params(spec)
            n = int(rng.integers(2, 12))
            x = rng.normal(size=(n, spec.input_dim))
            y = rng.integers(0, spec.num_classes, size=n)
            wd = float(rng.choice([0.0, 0.01]))
            _, grad = conftest.one_row(params, x, y, spec, weight_decay=wd)

            def loss_of(vec, spec=spec, x=x, y=y, wd=wd):
                return conftest.one_row(vec, x, y, spec, weight_decay=wd)[0]

            idx = rng.choice(params.size, size=min(50, params.size), replace=False)
            for i, fd in finite_difference_grad(loss_of, params, idx, h=1e-5).items():
                denom = max(abs(fd), abs(grad[i]), 1e-8)
                worst = max(worst, abs(fd - grad[i]) / denom)
        elapsed = time.monotonic() - start
        ok = worst < 1e-5 and elapsed < 30.0
        report("2 gradient-correctness", ok,
               f"max rel err {worst:.2e} over 40 draws x 50 coords, {elapsed:.1f}s")
        assert ok


class TestCriterion3DeterminismAndSkips:
    def test_repeat_runs_and_skip_semantics(self, tmp_path):
        start = time.monotonic()
        data = DataConfig(kind="gaussian", num_classes=5, input_dim=8, n_per_class=80,
                          sigma=0.5, noise_rate=0.3)
        model = ModelSpec(kind="softmax_linear", input_dim=8, num_classes=5, init_sigma=0.1)
        cfg = RunConfig(model=model, data=data, k=4, u=5, steps=150, aggregator="gaf",
                        tau=1.0, eval_every=50, master_seed=11)
        # two runs in this process and one in a fresh interpreter, which
        # shares no module state, allocator history or hash seed with it
        paths = [tmp_path / f"records_{name}.jsonl" for name in ("a", "b", "fresh")]
        for path in paths[:2]:
            write_records(run(cfg), path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_PROCESS_RUN, json.dumps(asdict(cfg)), str(paths[2])],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        blobs = [path.read_bytes() for path in paths]
        identical = blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) > 0

        # tau=0 rejects every candidate: the whole run is forced skips and
        # params, velocity, lr, and scheduler state stay bitwise at init
        skip_cfg = replace(cfg, tau=0.0, steps=40)
        result = run_detailed([skip_cfg])[0]
        spec0 = replace(skip_cfg.model,
                        init_seed=derive_seed(skip_cfg.master_seed, _TAG_INIT,
                                              skip_cfg.model.init_seed))
        untouched = (
            all(r.skipped for r in result.records)
            and np.array_equal(result.params, init_params(spec0))
            and np.array_equal(result.opt.velocity, np.zeros(result.params.size))
            and result.opt.lr == skip_cfg.lr
            and result.opt.step_count == 0
            and result.opt.bad_epochs == 0
            and result.opt.best_metric == float("-inf")
        )
        elapsed = time.monotonic() - start
        ok = identical and untouched and elapsed < 60.0
        report("3 determinism+skip", ok,
               f"2 in-process + 1 fresh-process runs byte-identical={identical}, "
               f"forced-skip state untouched={untouched}, {elapsed:.1f}s")
        assert ok


class TestCriterion4WhiteNoise:
    def test_baseline_memorizes_filter_freezes(self):
        start = time.monotonic()
        passing = 0
        details = []
        for seed in SEEDS:
            base_cfg = RunConfig(model=WHITE_NOISE_MODEL, data=WHITE_NOISE_DATA,
                                 aggregator="avg", master_seed=seed, **WHITE_NOISE_RUN)
            gaf_cfg = replace(base_cfg, aggregator="gaf", tau=0.97)
            base, filt = (result.records for result in run_detailed([base_cfg, gaf_cfg]))
            train_accs = [r.train_acc for r in base if r.train_acc is not None]
            val_accs = [r.val_acc for r in base if r.val_acc is not None]
            post = [d for r in base if r.step > 200 for d in r.cos_distances]
            skip_rate = float(np.mean([r.skipped for r in filt if r.step > 200]))
            filt_train = max(r.train_acc for r in filt if r.train_acc is not None)

            checks = (
                max(train_accs) > 0.9
                and all(0.05 <= v <= 0.15 for v in val_accs)
                and float(np.mean(post)) > 0.9
                and skip_rate >= 0.9
                and filt_train < 0.3
            )
            passing += checks
            details.append(
                f"seed{seed}: btrain={max(train_accs):.2f} skip={skip_rate:.2f} "
                f"gtrain={filt_train:.2f}{'' if checks else ' X'}"
            )
        elapsed = time.monotonic() - start
        ok = passing >= 2 and elapsed < 300.0
        report("4 white-noise", ok, f"{passing}/3 seeds [{'; '.join(details)}], {elapsed:.0f}s")
        assert ok


class TestCriterion5NoisyLabelImprovement:
    def test_filtered_training_beats_averaging_under_noise(self):
        start = time.monotonic()

        def improvement(noise_rate):
            # per seed, the baseline and every tau run as one group of 7 legs
            per_seed = [
                final_vals([cluster_cfg(noise_rate, "avg", 2.0, seed)]
                           + [cluster_cfg(noise_rate, "gaf", tau, seed) for tau in TAU_GRID])
                for seed in SEEDS
            ]
            base_mean = float(np.mean([vals[0] for vals in per_seed]))
            tau_means = {}
            for i, tau in enumerate(TAU_GRID, start=1):
                tau_means[tau] = float(np.mean([vals[i] for vals in per_seed]))
            best_tau, best_mean = max(tau_means.items(), key=lambda kv: kv[1])
            return best_mean - base_mean, best_tau, base_mean

        gain_noisy, tau_noisy, base_noisy = improvement(0.4)
        gain_clean, tau_clean, base_clean = improvement(0.0)
        elapsed = time.monotonic() - start
        ok = (
            gain_noisy >= 0.02
            and gain_noisy >= gain_clean
            and 0.85 <= base_clean <= 0.95
            and elapsed < 900.0
        )
        report("5 noisy-label-improvement", ok,
               f"improvement@40%={gain_noisy:+.3f} (tau={tau_noisy}) vs "
               f"@0%={gain_clean:+.3f} (tau={tau_clean}); clean baseline={base_clean:.3f}, "
               f"{elapsed:.0f}s")
        assert ok


class TestCriterion6BatchSizeTrend:
    def test_distance_decreases_with_microbatch_size(self):
        # measured in the under-fit regime (tiny lr): once training has
        # interpolated, drawing disjoint batches from the small pool
        # anti-correlates the workers and masks the size effect
        start = time.monotonic()
        all_mono = True
        details = []
        for seed in SEEDS:
            cfg = cluster_cfg(0.4, "avg", 2.0, seed, steps=2000, lr=5e-4, eval_every=1000)
            trend = measure_pairwise_distance_trend(cfg, [10, 50, 100, 500])
            vals = [trend[u] for u in (10, 50, 100, 500)]
            mono = all(a > b for a, b in zip(vals, vals[1:]))
            all_mono = all_mono and mono
            details.append(f"seed{seed}: {['%.3f' % v for v in vals]}{'' if mono else ' X'}")
        elapsed = time.monotonic() - start
        ok = all_mono and elapsed < 600.0
        report("6 batch-size-trend", ok, f"{'; '.join(details)}, {elapsed:.0f}s")
        assert ok


class TestCriterion7BenefitShrinksWithBatchSize:
    def test_improvement_larger_at_small_microbatch(self):
        # equal-compute comparison: step counts scale so both batch sizes
        # process the same number of sample-gradients (10 * 10000 = 500 * 200)
        start = time.monotonic()
        gains = {10: [], 500: []}
        for seed in SEEDS:
            for u, steps in ((10, 10_000), (500, 200)):
                base, filt = final_vals([cluster_cfg(0.4, "avg", 2.0, seed, u=u, steps=steps),
                                         cluster_cfg(0.4, "gaf", 0.97, seed, u=u, steps=steps)])
                gains[u].append(filt - base)
        mean_small = float(np.mean(gains[10]))
        mean_large = float(np.mean(gains[500]))
        elapsed = time.monotonic() - start
        ok = mean_small > mean_large and elapsed < 900.0
        report("7 benefit-vs-batch-size", ok,
               f"improvement u=10 {mean_small:+.3f} vs u=500 {mean_large:+.3f}, {elapsed:.0f}s")
        assert ok


class TestCriterion8PropertySuites:
    def test_all_property_suites_green(self):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-m", "properties", "-q"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True,
            text=True,
        )
        elapsed = time.monotonic() - start
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
        ok = proc.returncode == 0 and elapsed < 120.0
        report("8 property-suites", ok, f"{tail}, {elapsed:.0f}s")
        assert ok
