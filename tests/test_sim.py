import re

import numpy as np
import pytest

from gafsim.aggregate import agreement_scan
from gafsim.data import DataConfig, sample_macrobatch
from gafsim import sim
from gafsim.models import MLP1, SOFTMAX_LINEAR, ModelSpec, init_params, loss_and_grad
from gafsim.sim import (
    _TAG_INIT,
    _TAG_STEP,
    GROUP_FIELDS,
    RunConfig,
    derive_seed,
    measure_pairwise_distance_trend,
    run,
    run_detailed,
)
from gafsim.telemetry import write_records

from dataclasses import fields, replace

from conftest import N_PROPERTY_CASES, one_row
from records_digest import run_digest

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

    def test_unknown_sampling_rejected(self):
        with pytest.raises(ValueError, match="unknown sampling 'strat'"):
            base_cfg(sampling="strat")

    @pytest.mark.parametrize("kind", ["gaussian", "white_noise"])
    def test_stratified_u_not_divisible_by_classes_rejected(self, kind):
        data = DataConfig(kind=kind, num_classes=5, input_dim=8)
        with pytest.raises(ValueError, match=r"u divisible by num_classes \(4 % 5 != 0\)"):
            base_cfg(data=data, u=4)
        assert base_cfg(data=data, u=4, sampling="uniform").u == 4

    def test_csv_u_checked_only_once_read(self, tmp_path):
        # a CSV file's class count is unknown until it is read: the check runs then, before step 1
        path = tmp_path / "d.csv"
        rows = [f"{i % 7}.0,{i % 3}" for i in range(60)]
        path.write_text("f0,label\n" + "\n".join(rows) + "\n")
        model = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=1, num_classes=3)
        cfg = base_cfg(model=model, data=DataConfig(kind="csv", num_classes=3, input_dim=1,
                                                    path=str(path)), u=4)
        with pytest.raises(ValueError, match="divisible"):
            run(cfg)

    @pytest.mark.parametrize("kind", ["gaussian", "white_noise"])
    def test_data_model_class_conflict_rejected(self, kind):
        data = DataConfig(kind=kind, num_classes=4, input_dim=8)
        with pytest.raises(ValueError, match="data.num_classes 4 conflicts with "
                                             "model.num_classes 5"):
            base_cfg(data=data)

    def test_csv_dims_need_not_restate_the_model(self, tmp_path):
        # a CSV file's dims come from the file, so DataConfig's defaults stand
        path = tmp_path / "d.csv"
        rows = [f"{i % 7}.0,{i % 3}" for i in range(60)]
        path.write_text("f0,label\n" + "\n".join(rows) + "\n")
        model = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=1, num_classes=3)
        restated = base_cfg(model=model, data=DataConfig(kind="csv", num_classes=3, input_dim=1,
                                                         path=str(path)), u=3)
        defaults = replace(restated, data=DataConfig(kind="csv", path=str(path)))
        assert (defaults.data.num_classes, defaults.data.input_dim) != (3, 1)
        assert run(defaults) == run(restated)

    @pytest.mark.parametrize("key,value,message", [
        ("lr", -1.0, "lr must be positive"),
        ("lr", 0.0, "lr must be positive"),
        ("momentum", 1.0, r"momentum must be in \[0, 1\)"),
        ("momentum", -0.1, r"momentum must be in \[0, 1\)"),
        ("lr_factor", 1.5, r"factor must be in \(0, 1\)"),
        ("lr_factor", 0.0, r"factor must be in \(0, 1\)"),
        ("patience", -1, "patience must be >= 0"),
        ("min_lr", -1e-6, r"min_lr must be in \[0, lr\], got -1e-06 with lr 0.01"),
        ("min_lr", 0.02, r"min_lr must be in \[0, lr\], got 0.02 with lr 0.01"),
    ])
    def test_optimizer_settings_rejected_at_construction(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            base_cfg(**{key: value})

    @pytest.mark.parametrize("min_lr", [0.0, 0.01])
    def test_min_lr_may_be_zero_or_the_starting_lr(self, min_lr):
        assert base_cfg(lr=0.01, min_lr=min_lr).min_lr == min_lr

    @pytest.mark.parametrize("data,val_fraction,rows", [
        (DATA, 0.001, 300),  # round(0.3): no validation rows
        (DATA, 0.999, 300),  # round(299.7): no training rows
        (DataConfig(kind="white_noise", num_classes=5, input_dim=8, n=10), 0.04, 10),
        (DataConfig(kind="white_noise", num_classes=5, input_dim=8, n=10), 0.96, 10),
    ], ids=["gaussian-val", "gaussian-train", "white_noise-val", "white_noise-train"])
    def test_val_fraction_leaving_an_empty_split_rejected(self, data, val_fraction, rows):
        with pytest.raises(ValueError, match=f"^val_fraction {val_fraction:g} leaves an empty "
                                             f"split of {rows} rows$"):
            base_cfg(data=data, val_fraction=val_fraction)

    def test_val_fraction_check_rounds_like_the_split(self):
        # 0.06 * 10 rounds to 1 validation row, 0.94 * 10 to 9 (1 training row)
        data = DataConfig(kind="white_noise", num_classes=5, input_dim=8, n=10)
        for val_fraction in (0.06, 0.94):
            cfg = base_cfg(data=data, val_fraction=val_fraction, k=1, u=1, steps=2,
                           sampling="uniform")
            assert len(run(cfg)) == 2

    def test_csv_empty_split_fails_at_run_time(self, tmp_path):
        # a CSV file's row count is unknown until it is read
        path = tmp_path / "d.csv"
        rows = [f"{i % 7}.0,{i % 3}" for i in range(60)]
        path.write_text("f0,label\n" + "\n".join(rows) + "\n")
        model = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=1, num_classes=3)
        cfg = base_cfg(model=model, data=DataConfig(kind="csv", path=str(path)), u=3,
                       val_fraction=0.001)
        with pytest.raises(ValueError) as info:
            run(cfg)
        assert str(info.value) == f"{path}: val_fraction 0.001 leaves an empty split of 60 rows"

    @pytest.mark.parametrize("data,val_fraction,train_rows,rows", [
        (DATA, 0.2, 240, 300),
        (DATA, 0.9, 30, 300),
        (DataConfig(kind="white_noise", num_classes=5, input_dim=8, n=40), 0.2, 32, 40),
        (DataConfig(kind="white_noise", num_classes=5, input_dim=8, n=40), 0.5, 20, 40),
    ], ids=["gaussian", "gaussian-small-train", "white_noise", "white_noise-half"])
    def test_uniform_macrobatch_beyond_the_train_split_rejected(self, data, val_fraction,
                                                               train_rows, rows):
        # the largest k*u the train split supplies runs; one more row is a config error
        fits = base_cfg(data=data, val_fraction=val_fraction, sampling="uniform", k=2,
                        u=train_rows // 2, steps=2)
        assert len(run(fits)) == 2
        with pytest.raises(ValueError) as info:
            replace(fits, k=1, u=train_rows + 1)
        assert str(info.value) == (f"uniform macrobatch k*u={train_rows + 1} exceeds the "
                                   f"{train_rows} training rows of {rows}")

    def test_stratified_and_csv_capacity_fail_at_run_time(self, tmp_path):
        # stratified capacity depends on the drawn split, a CSV file's rows on the file,
        # which is checked once read, before step 1
        data = DataConfig(kind="white_noise", num_classes=5, input_dim=8, n=40)
        cfg = base_cfg(data=data, k=2, u=10, steps=2)
        with pytest.raises(ValueError, match="class 3 has 3 samples, need 4 for k=2, u=10"):
            run(cfg)
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n" + "\n".join(f"{i}.0,{i % 3}" for i in range(20)) + "\n")
        model = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=1, num_classes=3)
        cfg = base_cfg(model=model, data=DataConfig(kind="csv", path=str(path)), u=9,
                       sampling="uniform")
        with pytest.raises(ValueError) as info:
            run(cfg)
        assert str(info.value) == (f"{path}: uniform macrobatch k*u=18 exceeds the 16 "
                                   "training rows of 20")

    @pytest.mark.parametrize("kind", ["gaussian", "white_noise"])
    def test_data_model_input_dim_conflict_rejected(self, kind):
        data = DataConfig(kind=kind, num_classes=5, input_dim=9)
        with pytest.raises(ValueError, match="data.input_dim 9 conflicts with "
                                             "model.input_dim 8"):
            base_cfg(data=data)

    @pytest.mark.parametrize("model_dims", [(5, 3), (2, 3)], ids=["input_dim", "num_classes"])
    def test_csv_model_mismatch_names_file_before_step_1(self, tmp_path, model_dims):
        # a 4-class, 2-feature file: too wide for 5 inputs, too many classes for 3
        path = tmp_path / "bad.csv"
        rows = [f"{i % 5}.0,{i % 7}.5,{i % 4}" for i in range(80)]
        path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
        input_dim, num_classes = model_dims
        model = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=input_dim, num_classes=num_classes)
        data = DataConfig(kind="csv", num_classes=num_classes, path=str(path))
        cfg = base_cfg(model=model, data=data, u=4, sampling="uniform")
        with pytest.raises(ValueError) as info:
            run(cfg)
        assert str(info.value) == (
            f"{path}: 2 features and 4 classes, run.model has input_dim {input_dim} "
            f"and num_classes {num_classes}"
        )

    def test_csv_with_fewer_classes_than_model_runs(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = [f"{i % 5}.0,{i % 3}" for i in range(60)]
        path.write_text("f0,label\n" + "\n".join(rows) + "\n")
        model = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=1, num_classes=5)
        data = DataConfig(kind="csv", num_classes=5, path=str(path))
        assert len(run(base_cfg(model=model, data=data, u=4, steps=3,
                                sampling="uniform"))) == 3

    def test_skips_plus_applied_cover_run(self):
        result = run_detailed([base_cfg(aggregator="gaf", tau=0.5, steps=80)])[0]
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
        result = run_detailed([cfg])[0]
        assert all(r.skipped for r in result.records)
        spec = replace(cfg.model,
                       init_seed=derive_seed(cfg.master_seed, _TAG_INIT, cfg.model.init_seed))
        assert np.array_equal(result.params, init_params(spec))
        assert np.array_equal(result.opt.velocity, np.zeros(result.params.size))
        assert result.opt.lr == cfg.lr
        assert result.opt.step_count == 0
        assert result.opt.bad_epochs == 0
        assert result.opt.best_metric == float("-inf")

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
        result = run_detailed([cfg])[0]
        assert not any(r.skipped for r in result.records)
        assert all(r.accepted_count == 1 for r in result.records)
        assert all(r.cos_distances == [] for r in result.records)
        assert result.opt.step_count == 20
        spec = replace(cfg.model,
                       init_seed=derive_seed(cfg.master_seed, _TAG_INIT, cfg.model.init_seed))
        assert not np.array_equal(result.params, init_params(spec))

    @pytest.mark.parametrize("tau", [0.0, 2.0])
    def test_filter_skips_every_time(self, tau):
        result = run_detailed([base_cfg(k=1, steps=20, aggregator="gaf", tau=tau)])[0]
        assert all(r.skipped for r in result.records)
        assert all(r.accepted_count == 1 for r in result.records)
        assert result.opt.skip_count == 20 and result.opt.step_count == 0

    def test_grouped_legs_match_their_runs_alone(self, tmp_path):
        cfg = base_cfg(k=1, steps=20)
        legs = [cfg, replace(cfg, aggregator="gaf", tau=2.0, pivot=0)]
        avg, gaf = run_detailed(legs)
        for i, (leg, got) in enumerate(zip(legs, (avg, gaf))):
            assert (records_bytes(got.records, tmp_path, f"group{i}")
                    == records_bytes(run_detailed([leg])[0].records, tmp_path, f"alone{i}"))
        assert not any(r.skipped for r in avg.records) and all(r.skipped for r in gaf.records)


class TestSnapshotConsistency:
    def test_first_step_reproducible_serially(self):
        cfg = base_cfg(k=3, u=5, aggregator="gaf", tau=1.0)
        result = run_detailed([cfg])[0]
        spec = replace(cfg.model,
                       init_seed=derive_seed(cfg.master_seed, _TAG_INIT, cfg.model.init_seed))
        params = init_params(spec)
        _, features, labels = sample_macrobatch(result.train, cfg.k, cfg.u, cfg.sampling,
                                                derive_seed(cfg.master_seed, _TAG_STEP, 1))
        losses = []
        for x, y in zip(features, labels):
            loss, _ = one_row(params, x, y, spec, cfg.weight_decay)
            losses.append(loss)
        expected = losses[0]
        for v in losses[1:]:
            expected += v
        expected /= cfg.k
        assert result.records[0].train_loss == expected

    def test_averaging_step_equals_union_gradient(self):
        cfg = base_cfg(steps=1, momentum=0.0, lr=0.5)
        result = run_detailed([cfg])[0]
        spec = replace(cfg.model,
                       init_seed=derive_seed(cfg.master_seed, _TAG_INIT, cfg.model.init_seed))
        params = init_params(spec)
        applied = (params - result.params) / cfg.lr
        _, features, labels = sample_macrobatch(result.train, cfg.k, cfg.u, cfg.sampling,
                                                derive_seed(cfg.master_seed, _TAG_STEP, 1))
        union_x = features.reshape(-1, features.shape[-1])
        union_y = labels.reshape(-1)
        _, union_grad = one_row(params, union_x, union_y, spec, cfg.weight_decay)
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
        result = run_detailed([cfg])[0]
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
            result = run_detailed([cfg])[0]
            assert result.opt.step_count + result.opt.skip_count == steps
            assert result.opt.skip_count == sum(r.skipped for r in result.records)


# the noisy-cluster and noise-sweep tasks of the benchmark, as RunConfigs
CLUSTER = RunConfig(
    model=ModelSpec(kind=MLP1, input_dim=32, num_classes=10, hidden_dim=128, activation="relu",
                    init_sigma=0.1),
    data=DataConfig(kind="gaussian", num_classes=10, input_dim=32, n_per_class=500, sigma=0.3,
                    noise_rate=0.4),
    k=2, u=10, steps=200, lr=0.05, momentum=0.9, eval_every=100, val_fraction=0.2,
)
NOISE_SWEEP_CELL = RunConfig(
    model=ModelSpec(kind=MLP1, input_dim=32, num_classes=10, hidden_dim=64, activation="tanh",
                    init_sigma=10.0),
    data=DataConfig(kind="white_noise", num_classes=10, input_dim=32, n=2000),
    k=2, u=10, steps=100, aggregator="gaf", tau=0.97, sampling="uniform", lr=0.08,
    momentum=0.95, eval_every=100, val_fraction=0.75,
)


def state_bytes(state) -> bytes:
    """An OptimState's fields as float64 bytes, in field order."""
    return b"".join(np.asarray(getattr(state, f.name), dtype=np.float64).tobytes()
                    for f in fields(state))


class TestRunGroups:
    """Legs of one run group share the data, every macrobatch and every pivot
    draw, and each leg ends byte-equal to its config run alone."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_each_leg_matches_its_run_alone(self, k, tmp_path):
        cfg = base_cfg(k=k, steps=45, eval_every=5, patience=1)
        legs = [
            replace(cfg, aggregator="gaf", tau=0.9),
            replace(cfg, aggregator="avg", tau=2.0),
            replace(cfg, aggregator="gaf", tau=1.0, pivot=k - 1),
            replace(cfg, aggregator="gaf", tau=1.1, lr=0.05, eval_every=3, patience=0),
            replace(cfg, aggregator="avg", lr=0.2, momentum=0.5, weight_decay=0.01,
                    eval_every=7, patience=2, lr_factor=0.5),
            replace(cfg, aggregator="gaf", tau=0.9),  # a duplicate of the first leg
        ]
        results = run_detailed(legs)
        assert len(results) == len(legs) and results[5] is results[0]
        for i, (leg, got) in enumerate(zip(legs, results)):
            alone = run_detailed([leg])[0]
            assert got.records == alone.records
            assert (records_bytes(got.records, tmp_path, f"group{i}")
                    == records_bytes(alone.records, tmp_path, f"alone{i}"))
            assert got.params.tobytes() == alone.params.tobytes()
            assert state_bytes(got.opt) == state_bytes(alone.opt)
        # the legs really differ: the group is not one run copied six times
        assert len({r.params.tobytes() for r in results}) == (5 if k > 1 else 3)

    def test_legs_exercise_skips_and_lr_cuts(self):
        cfg = base_cfg(k=2, steps=45, eval_every=3, patience=0, aggregator="gaf", tau=0.9)
        (result,) = run_detailed([cfg])
        assert 0 < result.opt.skip_count < 45 and result.opt.lr < cfg.lr

    @pytest.mark.parametrize("name,value", [
        ("model", replace(MODEL, init_seed=1)),
        ("data", replace(DATA, noise_rate=0.0)),
        ("k", 3),
        ("u", 10),
        ("sampling", "uniform"),
        ("val_fraction", 0.3),
        ("master_seed", 5),
        ("steps", 7),
    ])
    def test_legs_that_differ_in_a_shared_field_are_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"run group legs differ in {name}: "):
            run_detailed([base_cfg(), base_cfg(aggregator="gaf"), base_cfg(**{name: value})])

    # lr * weight_decay >> 1 grows the weights every step until a product
    # overflows. Run alone (momentum 0), "dot" diverges at step 23 in the
    # agreement scan's dot product, the others in loss_and_grad: "loss" at step
    # 23, "late" and "late2" at step 27
    DIVERGING = {"dot": (dict(lr=1e6, weight_decay=10.0), 23),
                 "loss": (dict(lr=1e8, weight_decay=0.1), 23),
                 "late": (dict(lr=1e6, weight_decay=1.0), 27),
                 "late2": (dict(lr=1e5, weight_decay=10.0), 27)}

    @pytest.mark.parametrize("names", [
        ("dot", "loss"), ("loss", "dot"), ("late", "dot"), ("late", "late2"),
    ])
    def test_diverging_leg_is_named_with_its_step(self, names):
        # the group fails as a leg-by-leg pass would: at the earliest step, and
        # there at the first leg in group order that fails, with its own message
        cfg = base_cfg(steps=60, eval_every=1000, momentum=0.0)
        legs = [cfg, *(replace(cfg, **self.DIVERGING[name][0]) for name in names),
                replace(cfg, aggregator="gaf")]
        failures = []
        for i, leg in enumerate(legs[1:3], start=1):
            with pytest.raises(RuntimeError) as info:
                run(leg)
            step, message = re.fullmatch(r"training diverged at step (\d+): (.+)",
                                         str(info.value)).groups()
            failures.append((int(step), i, message))
        assert [f[0] for f in failures] == [self.DIVERGING[name][1] for name in names]
        step, i, message = min(failures)
        with pytest.raises(RuntimeError) as info:
            run_detailed(legs)
        assert str(info.value) == f"training diverged at step {step} in group leg {i}: {message}"

    @staticmethod
    def record_blocks(monkeypatch):
        """Patch the loop's loss_and_grad to record each call's row count and block."""
        calls = []

        def recording(params, features, labels, spec, weight_decay, grad):
            calls.append((len(params), grad))
            return loss_and_grad(params, features, labels, spec, weight_decay, grad)

        monkeypatch.setattr(sim, "loss_and_grad", recording)
        return calls

    def test_every_step_writes_into_one_block(self, monkeypatch):
        cfg = base_cfg(k=3, steps=20)
        calls = self.record_blocks(monkeypatch)
        run_detailed([cfg, replace(cfg, aggregator="gaf", tau=0.9),
                      replace(cfg, lr=0.05, weight_decay=0.01)])
        block = calls[0][1]
        assert len(calls) == 20 and all(rows == 3 and grad is block for rows, grad in calls)
        assert block.shape == (3, 3, init_params(MODEL).size)

    def test_per_leg_calls_write_into_the_group_block(self, monkeypatch):
        cfg = base_cfg(steps=60, eval_every=1000, momentum=0.0)
        # the "loss" leg fails the stacked call at step 23, so legs 0 and 1 call alone
        legs = [cfg, *(replace(cfg, **self.DIVERGING[name][0]) for name in ("dot", "loss")),
                replace(cfg, aggregator="gaf")]
        calls = self.record_blocks(monkeypatch)
        with pytest.raises(RuntimeError, match="diverged at step 23 in group leg 1"):
            run_detailed(legs)
        block = calls[0][1]
        per_leg = [grad for rows, grad in calls if rows == 1]
        assert len(per_leg) == 2 and all(grad.shape == (1, 2, block.shape[2]) for grad in per_leg)
        # leg i writes into row i of the group's block
        assert all(np.shares_memory(grad, block[i]) for i, grad in enumerate(per_leg))

    def test_every_step_makes_one_group_scan(self, monkeypatch):
        # one agreement_scan call per step filters every leg; averaging is the
        # scan at tau 2 from pivot 0, so no per-leg scan or average is called
        scans, others = [], []

        def recording(grads, taus, pivots, work):
            scans.append((len(grads), list(taus), list(pivots)))
            return agreement_scan(grads, taus, pivots, work)

        monkeypatch.setattr(sim, "agreement_scan", recording)
        for name in ("gaf_aggregate", "average", "running_scan_distances"):
            monkeypatch.setattr(sim, name, lambda *args, name=name: others.append(name))
        cfg = base_cfg(k=3, steps=20)
        run_detailed([cfg, replace(cfg, aggregator="gaf", tau=0.9),
                      replace(cfg, aggregator="gaf", tau=0.9, pivot=2)])
        assert len(scans) == 20 and others == []
        assert all(legs == 3 and taus == [2.0, 0.9, 0.9] for legs, taus, _ in scans)
        pivots = [p for _, _, p in scans]
        assert [p[0] for p in pivots] == [0] * 20 and [p[2] for p in pivots] == [2] * 20
        # the middle leg takes each step's drawn pivot
        assert {p[1] for p in pivots} == {0, 1, 2}

    def test_scan_overflows_in_different_rounds_name_the_lower_leg(self, monkeypatch):
        # At step 5 leg 2's rows overflow in the scan's first round (a squared
        # norm), and leg 1's in its second: its pivot and first candidate are
        # each 1e154 in one entry, so their squares and dot are finite and the
        # candidate is admitted, but their sum's squared norm is not. A
        # leg-by-leg pass meets leg 1 first, so the group names it.
        cfg = base_cfg(k=3, steps=10)
        legs = [cfg, replace(cfg, lr=0.02), replace(cfg, lr=0.03), replace(cfg, lr=0.04)]
        dim = init_params(MODEL).size
        crafted = {1: np.zeros((3, dim)), 2: np.ones((3, dim))}
        crafted[1][:2, 0] = 1e154
        crafted[1][2] = 1.0
        crafted[2][1, 0] = 1e200
        group_blocks = []

        def crafting(params, features, labels, spec, weight_decay, grad):
            losses = loss_and_grad(params, features, labels, spec, weight_decay, grad)
            if len(params) == len(legs):
                group_blocks.append(grad)
            if len(group_blocks) == 5:
                whole = group_blocks[0]
                for i, rows in crafted.items():
                    if grad is whole:
                        whole[i] = rows
                    elif np.shares_memory(grad, whole[i]):
                        grad[0] = rows
            return losses

        monkeypatch.setattr(sim, "loss_and_grad", crafting)
        with pytest.raises(ValueError, match="^non-finite dot product$"):
            agreement_scan(crafted[1][None], [2.0], [0], np.empty((2, 4 * dim)))
        with pytest.raises(RuntimeError) as info:
            run_detailed(legs)
        assert str(info.value) == ("training diverged at step 5 in group leg 1: "
                                   "non-finite dot product")

    def test_shared_fields_are_config_fields(self):
        assert set(GROUP_FIELDS) <= {f.name for f in fields(RunConfig)}

    def test_a_lone_config_or_no_config_is_rejected(self):
        with pytest.raises(TypeError, match=r"pass \[cfg\]"):
            run_detailed(base_cfg())
        with pytest.raises(ValueError, match="at least one"):
            run_detailed([])


class TestGoldenDigests:
    """sha256 of the records files plus the final parameters, recorded with
    one gradient call per microbatch: any change to the numerics fails here."""

    @pytest.mark.parametrize("cfg,digest", [
        (replace(CLUSTER, aggregator="avg", tau=2.0),
         "31b1f8505951b77057d893d0bba8976c51825c9002c674565db7be9e61dd6818"),
        (replace(CLUSTER, aggregator="gaf", tau=0.97),
         "3321921fbf12fd027a72b6af45fff5aa3589547e7ade724c1983f7e59e8eeb29"),
        (NOISE_SWEEP_CELL,
         "0a89b2e39f09c091d3f059775218b3ad9b9ab54432637d58af0fe2cb71cd053f"),
    ], ids=["noisy-cluster-avg", "noisy-cluster-gaf", "noise-sweep-gaf-tau0.97"])
    def test_run_digest_unchanged(self, cfg, digest):
        assert run_digest(cfg) == digest
