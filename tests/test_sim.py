import numpy as np
import pytest

from gafsim.data import DataConfig, sample_macrobatch
from gafsim.models import MLP1, SOFTMAX_LINEAR, ModelSpec, init_params, loss_and_grad
from gafsim.sim import (
    _TAG_INIT,
    _TAG_STEP,
    RunConfig,
    derive_seed,
    measure_pairwise_distance_trend,
    run,
    run_detailed,
)
from gafsim.telemetry import write_records

from dataclasses import replace

from conftest import N_PROPERTY_CASES

DATA = DataConfig(kind="gaussian", num_classes=5, input_dim=8, n_per_class=60,
                  sigma=0.6, noise_rate=0.2)
MODEL = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=8, num_classes=5, init_sigma=0.1)


def base_cfg(**kw):
    defaults = dict(model=MODEL, data=DATA, k=2, u=5, steps=60, aggregator="avg",
                    eval_every=20, master_seed=123)
    defaults.update(kw)
    return RunConfig(**defaults)


def records_bytes(records, tmp_path, name):
    path = tmp_path / f"{name}.jsonl"
    write_records(records, path)
    return path.read_bytes()


class TestDeterminism:
    def test_identical_runs_identical_records(self):
        a = run(base_cfg(aggregator="gaf", tau=0.97))
        b = run(base_cfg(aggregator="gaf", tau=0.97))
        assert a == b

    def test_trend_measurement_reproducible(self):
        cfg = base_cfg(steps=40)
        a = measure_pairwise_distance_trend(cfg, [5, 10])
        b = measure_pairwise_distance_trend(cfg, [5, 10])
        assert a == b

    def test_trend_requires_two_workers(self):
        with pytest.raises(ValueError, match="k=2"):
            measure_pairwise_distance_trend(base_cfg(k=3), [5])


class TestBaselineEquivalence:
    def test_admit_all_filter_matches_averaging_bitwise(self, tmp_path):
        # same summation order (pivot 0, ascending) makes the trajectories
        # identical to the last bit
        avg = run(base_cfg(steps=100))
        gaf = run(base_cfg(steps=100, aggregator="gaf", tau=2.0, pivot=0))
        assert records_bytes(avg, tmp_path, "avg") == records_bytes(gaf, tmp_path, "gaf")


class TestStepAccounting:
    def test_single_step_run(self):
        records = run(base_cfg(steps=1))
        assert len(records) == 1
        assert records[0].step == 1
        assert records[0].val_acc is not None  # final-step snapshot

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            base_cfg(steps=0)

    @pytest.mark.parametrize("pivot", [-1, 2, 5])
    def test_pivot_outside_workers_rejected(self, pivot):
        with pytest.raises(ValueError, match=f"pivot {pivot} out of range"):
            base_cfg(k=2, aggregator="gaf", pivot=pivot)

    def test_pivot_at_last_worker_accepted(self):
        assert base_cfg(k=2, aggregator="gaf", pivot=1).pivot == 1

    def test_skips_plus_applied_cover_run(self):
        result = run_detailed(base_cfg(aggregator="gaf", tau=0.5, steps=80))
        skips = sum(r.skipped for r in result.records)
        assert result.opt.skip_count == skips
        assert result.opt.step_count + skips == 80

    def test_records_mark_skips_consistently(self):
        records = run(base_cfg(aggregator="gaf", tau=0.5, steps=80))
        for r in records:
            assert r.skipped == (r.accepted_count == 1)
            assert len(r.cos_distances) == 1  # k - 1


class TestSkipSemantics:
    def test_always_skip_run_touches_nothing(self):
        cfg = base_cfg(aggregator="gaf", tau=0.0, steps=50)
        result = run_detailed(cfg)
        assert all(r.skipped for r in result.records)
        spec = replace(cfg.model,
                       init_seed=derive_seed(cfg.master_seed, _TAG_INIT, cfg.model.init_seed))
        assert np.array_equal(result.params.flatten(), init_params(spec).flatten())
        assert np.array_equal(result.opt.velocity, np.zeros(result.params.total_dim))
        assert result.opt.lr == cfg.lr
        assert result.opt.step_count == 0
        assert result.sched.bad_epochs == 0
        assert result.sched.best_metric == float("-inf")

    def test_skips_do_not_advance_eval_cadence(self):
        # tau=0 skips every step, so no evaluation is ever fed and only the
        # final-step snapshot carries accuracies
        records = run(base_cfg(aggregator="gaf", tau=0.0, steps=30, eval_every=5))
        evals = [r for r in records if r.val_acc is not None]
        assert len(evals) == 1 and evals[0].step == 30


class TestSingleWorker:
    # k=1 has no candidate to agree with: averaging steps on the lone
    # gradient, while the filter has no agreeing pair and skips every step
    def test_averaging_steps_every_time(self):
        cfg = base_cfg(k=1, steps=20)
        result = run_detailed(cfg)
        assert not any(r.skipped for r in result.records)
        assert all(r.accepted_count == 1 for r in result.records)
        assert all(r.cos_distances == [] for r in result.records)
        assert result.opt.step_count == 20
        spec = replace(cfg.model,
                       init_seed=derive_seed(cfg.master_seed, _TAG_INIT, cfg.model.init_seed))
        assert not np.array_equal(result.params.flatten(), init_params(spec).flatten())

    @pytest.mark.parametrize("tau", [0.0, 2.0])
    def test_filter_skips_every_time(self, tau):
        result = run_detailed(base_cfg(k=1, steps=20, aggregator="gaf", tau=tau))
        assert all(r.skipped for r in result.records)
        assert all(r.accepted_count == 1 for r in result.records)
        assert result.opt.skip_count == 20 and result.opt.step_count == 0


class TestSnapshotConsistency:
    def test_first_step_reproducible_serially(self):
        cfg = base_cfg(k=3, u=5, aggregator="gaf", tau=1.0)
        result = run_detailed(cfg)
        spec = replace(cfg.model,
                       init_seed=derive_seed(cfg.master_seed, _TAG_INIT, cfg.model.init_seed))
        params = init_params(spec)
        batches = sample_macrobatch(result.train, cfg.k, cfg.u, cfg.sampling,
                                    derive_seed(cfg.master_seed, _TAG_STEP, 1))
        losses = []
        for mb in batches:
            loss, _ = loss_and_grad(params, mb.features, mb.labels, spec, cfg.weight_decay)
            losses.append(loss)
        expected = losses[0]
        for v in losses[1:]:
            expected += v
        expected /= cfg.k
        assert result.records[0].train_loss == expected

    def test_averaging_step_equals_union_gradient(self):
        cfg = base_cfg(steps=1, momentum=0.0, lr=0.5)
        result = run_detailed(cfg)
        spec = replace(cfg.model,
                       init_seed=derive_seed(cfg.master_seed, _TAG_INIT, cfg.model.init_seed))
        params = init_params(spec)
        applied = (params.flatten() - result.params.flatten()) / cfg.lr
        batches = sample_macrobatch(result.train, cfg.k, cfg.u, cfg.sampling,
                                    derive_seed(cfg.master_seed, _TAG_STEP, 1))
        union_x = np.vstack([mb.features for mb in batches])
        union_y = np.concatenate([mb.labels for mb in batches])
        _, union_grad = loss_and_grad(params, union_x, union_y, spec, cfg.weight_decay)
        assert np.allclose(applied, union_grad, atol=1e-10)


class TestEvaluation:
    def test_eval_cadence_counts_applied_steps(self):
        records = run(base_cfg(steps=60, eval_every=20))
        eval_steps = [r.step for r in records if r.val_acc is not None]
        assert eval_steps == [20, 40, 60]

    def test_validation_scored_against_clean_labels(self):
        # separable clusters with heavy label noise: training on noisy labels
        # cannot beat the noise ceiling on the train split, while validation
        # accuracy (clean labels) can exceed it
        data = DataConfig(kind="gaussian", num_classes=4, input_dim=8, n_per_class=100,
                          sigma=0.05, noise_rate=0.5)
        model = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=8, num_classes=4, init_sigma=0.1)
        cfg = RunConfig(model=model, data=data, k=2, u=4, steps=400, aggregator="avg",
                        lr=0.1, eval_every=100, master_seed=7)
        result = run_detailed(cfg)
        final = result.records[-1]
        assert final.val_acc > 0.85
        assert final.train_acc < 0.75

    def test_nonfinite_loss_aborts_with_step_context(self):
        # lr * weight_decay >> 1 multiplies the weights each step until the
        # decay term overflows to inf
        cfg = base_cfg(lr=1e6, weight_decay=10.0, steps=200, eval_every=1000)
        with pytest.raises(RuntimeError, match="step"):
            run(cfg)


@pytest.mark.properties
class TestProperties:
    def test_skip_accounting_property(self):
        rng = np.random.default_rng(78)
        for _ in range(N_PROPERTY_CASES // 20):
            steps = int(rng.integers(5, 40))
            cfg = base_cfg(steps=steps, aggregator="gaf",
                           tau=float(rng.uniform(0.0, 1.5)),
                           master_seed=int(rng.integers(1 << 31)))
            result = run_detailed(cfg)
            assert result.opt.step_count + result.opt.skip_count == steps
            assert result.opt.skip_count == sum(r.skipped for r in result.records)
