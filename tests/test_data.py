import dataclasses
import hashlib

import numpy as np
import pytest

from gafsim.data import (
    STRATIFIED,
    UNIFORM,
    DataConfig,
    Dataset,
    _replay_bounds,
    _replay_choice,
    gen_gaussian_clusters,
    gen_white_noise,
    inject_symmetric_noise,
    load_csv,
    make_dataset,
    sample_macrobatch,
    take,
)
from gafsim.models import SOFTMAX_LINEAR, ModelSpec, accuracy, init_params
from gafsim.optim import init_optim, sgd_step

from conftest import N_PROPERTY_CASES, one_row


def train_linear(ds, steps=300, lr=1.0):
    spec = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=ds.dim, num_classes=ds.num_classes,
                     init_sigma=0.0)
    params = init_params(spec)
    opt = init_optim(lr, 0.0, params.size, 100, 0.1, 1e-6, 1e-4)
    for _ in range(steps):
        _, grad = one_row(params, ds.features, ds.labels, spec)
        params, opt = sgd_step(params, grad, opt)
    return params, spec


class TestGaussianClusters:
    def test_near_zero_spread_is_separable(self):
        ds = gen_gaussian_clusters(3, 8, 20, sigma=1e-6, seed=4)
        params, spec = train_linear(ds)
        assert accuracy(params, ds.features, ds.labels, spec) == 1.0

    def test_same_seed_identical(self):
        a = gen_gaussian_clusters(4, 6, 10, sigma=0.7, seed=9)
        b = gen_gaussian_clusters(4, 6, 10, sigma=0.7, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_huge_spread_near_chance(self):
        # two unit-norm means, spread 10: Monte-Carlo estimate of the Bayes
        # rate from the true class densities stays near coin-flipping
        ds = gen_gaussian_clusters(2, 8, 2000, sigma=10.0, seed=13)
        rng = np.random.default_rng(99)
        idx = rng.choice(ds.n, size=2000, replace=False)
        x, y = ds.features[idx], ds.labels[idx]
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(2)])
        log_lik = -((x[:, None, :] - means[None]) ** 2).sum(axis=2) / (2 * 10.0**2)
        bayes_acc = float((log_lik.argmax(axis=1) == y).mean())
        assert bayes_acc < 0.6

        holdout = gen_gaussian_clusters(2, 8, 500, sigma=10.0, seed=13)
        params, spec = train_linear(ds, steps=150, lr=0.5)
        val = take(holdout, np.arange(500))
        assert accuracy(params, val.features, val.labels, spec) < 0.7

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gen_gaussian_clusters(1, 4, 10, sigma=1.0, seed=0)
        with pytest.raises(ValueError):
            gen_gaussian_clusters(3, 4, 10, sigma=0.0, seed=0)


class TestWhiteNoise:
    def test_label_histogram_uniform(self):
        ds = gen_white_noise(10, 4, 50_000, seed=21)
        counts = np.bincount(ds.labels, minlength=10)
        expected = 5000
        sigma = np.sqrt(50_000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - expected) < 3 * sigma)

    def test_same_seed_identical(self):
        a = gen_white_noise(5, 3, 100, seed=2)
        b = gen_white_noise(5, 3, 100, seed=2)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_trained_model_is_chance_on_holdout(self):
        ds = gen_white_noise(4, 6, 4000, seed=5)
        train = take(ds, np.arange(2000))
        hold = take(ds, np.arange(2000, 4000))
        params, spec = train_linear(train, steps=200, lr=0.5)
        assert accuracy(params, hold.features, hold.labels, spec) == pytest.approx(0.25, abs=0.03)


class TestNoiseInjection:
    def test_rate_zero_unchanged(self):
        ds = gen_gaussian_clusters(4, 3, 25, sigma=0.5, seed=1)
        noisy = inject_symmetric_noise(ds, 0.0, seed=7)
        assert np.array_equal(noisy.labels, ds.clean_labels)

    def test_rate_one_flips_everything(self):
        ds = gen_gaussian_clusters(4, 3, 25, sigma=0.5, seed=1)
        noisy = inject_symmetric_noise(ds, 1.0, seed=7)
        assert np.all(noisy.labels != noisy.clean_labels)

    def test_exact_flip_count(self):
        ds = gen_gaussian_clusters(10, 3, 100, sigma=0.5, seed=1)
        noisy = inject_symmetric_noise(ds, 0.4, seed=7)
        assert int((noisy.labels != noisy.clean_labels).sum()) == 400

    def test_rejects_bad_rate(self):
        ds = gen_white_noise(3, 2, 10, seed=0)
        with pytest.raises(ValueError, match="rate"):
            inject_symmetric_noise(ds, 1.5, seed=0)


class TestMacrobatchSampling:
    def test_stratified_one_per_class(self):
        ds = gen_gaussian_clusters(6, 4, 30, sigma=0.5, seed=3)
        _, _, labels = sample_macrobatch(ds, k=2, u=6, mode=STRATIFIED, step_seed=11)
        for row in labels:
            assert sorted(row.tolist()) == list(range(6))

    def test_disjoint_microbatches(self):
        ds = gen_gaussian_clusters(5, 4, 40, sigma=0.5, seed=3)
        picks, _, _ = sample_macrobatch(ds, k=4, u=10, mode=STRATIFIED, step_seed=11)
        seen = picks.ravel()
        assert len(set(seen.tolist())) == len(seen) == 40

    def test_same_step_seed_identical(self):
        ds = gen_white_noise(5, 4, 200, seed=3)
        a = sample_macrobatch(ds, 3, 5, UNIFORM, step_seed=77)
        b = sample_macrobatch(ds, 3, 5, UNIFORM, step_seed=77)
        assert np.array_equal(a[0], b[0])

    @pytest.mark.parametrize("mode, u", [(STRATIFIED, 6), (UNIFORM, 4)])
    def test_returns_one_macrobatch_array_each(self, mode, u):
        ds = inject_symmetric_noise(gen_gaussian_clusters(3, 5, 40, 0.5, seed=2), 0.3, seed=4)
        picks, features, labels = sample_macrobatch(ds, 3, u, mode, step_seed=5)
        assert picks.shape == (3, u) and picks.dtype == np.int64
        assert features.shape == (3, u, 5) and features.dtype == np.float64
        assert labels.shape == (3, u) and labels.dtype == np.int64
        assert features.flags.c_contiguous
        assert np.array_equal(features, ds.features[picks])
        assert np.array_equal(labels, ds.labels[picks])

    def test_stratified_needs_divisible_u(self):
        ds = gen_gaussian_clusters(4, 3, 25, sigma=0.5, seed=1)
        with pytest.raises(ValueError, match="divisible"):
            sample_macrobatch(ds, 2, 6, STRATIFIED, step_seed=0)

    def test_pool_exhaustion_errors(self):
        ds = gen_gaussian_clusters(2, 3, 4, sigma=0.5, seed=1)
        with pytest.raises(ValueError, match="need"):
            sample_macrobatch(ds, 5, 2, STRATIFIED, step_seed=0)

    def test_first_short_class_is_named(self):
        # classes 1 and 3 are short; capacity is checked before any draw
        labels = np.repeat([0, 1, 2, 3], [5, 2, 4, 1])
        ds = Dataset(np.zeros((12, 2)), labels, labels.copy(), num_classes=4)
        with pytest.raises(ValueError) as exc:
            sample_macrobatch(ds, 3, 4, STRATIFIED, step_seed=0)
        assert str(exc.value) == "class 1 has 2 samples, need 3 for k=3, u=4"

    def test_uniform_overdraw_errors(self):
        ds = gen_white_noise(3, 2, 10, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            sample_macrobatch(ds, 3, 5, UNIFORM, step_seed=0)


def _noisy_clusters():
    # the noisy-cluster task's classes: 10 of about 400 rows, 40% of labels flipped
    return inject_symmetric_noise(gen_gaussian_clusters(10, 3, 400, 0.3, seed=4), 0.4, seed=5)


class TestSamplingPlans:
    """sample_macrobatch checks a (k, u, mode) shape and lays out its bounds once per
    dataset, in ds.sampling_plans: a dataset sampled in several shapes must draw what
    a fresh one draws, and a shape that fails its checks must fail every time."""

    # replayed (2 rows a class), per-class choice calls (criterion 6's u = 50: 10 rows
    # a class), and uniform
    SHAPES = [(2, 10, STRATIFIED), (2, 50, STRATIFIED), (3, 7, UNIFORM)]

    @pytest.mark.parametrize("first, second", [(0, 1), (1, 0), (0, 2), (2, 1)],
                             ids=["replay-then-choice", "choice-then-replay",
                                  "replay-then-uniform", "uniform-then-choice"])
    def test_two_shapes_in_turn_draw_what_a_fresh_dataset_draws(self, first, second):
        ds = _noisy_clusters()
        for step in range(12):
            shape = self.SHAPES[(first, second)[step % 2]]
            seed = 1000 + step
            got = sample_macrobatch(ds, *shape, seed)
            fresh = _noisy_clusters()
            expected = sample_macrobatch(fresh, *shape, seed)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            # the memoized plan leaves a generator where a fresh dataset's plan does
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            ds.sampling_plans[shape](rngs[0])
            fresh.sampling_plans[shape](rngs[1])
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        assert set(ds.sampling_plans) == {self.SHAPES[first], self.SHAPES[second]}

    def test_a_plan_is_built_once_per_shape(self):
        ds = _noisy_clusters()
        sample_macrobatch(ds, 2, 10, STRATIFIED, 1)
        plan = ds.sampling_plans[2, 10, STRATIFIED]
        sample_macrobatch(ds, 2, 10, STRATIFIED, 2)
        assert ds.sampling_plans[2, 10, STRATIFIED] is plan and len(ds.sampling_plans) == 1
        # a subset is a new dataset with plans of its own
        assert take(ds, np.arange(ds.n)).sampling_plans == {}

    @pytest.mark.parametrize("k, u, mode, message", [
        (0, 10, STRATIFIED, "k and u must be positive"),
        (2, 0, UNIFORM, "k and u must be positive"),
        (2, 15, STRATIFIED,
         r"stratified sampling needs u divisible by num_classes \(15 % 10 != 0\)"),
        (2, 10, "sorted", "unknown sampling mode 'sorted'"),
        (4, 7, UNIFORM, "macrobatch k\\*u=28 exceeds dataset size 27"),
        (3, 10, STRATIFIED, "class 2 has 0 samples, need 3 for k=3, u=10"),
    ], ids=["k-zero", "u-zero", "indivisible-u", "unknown-mode", "uniform-overdraw",
            "short-class"])
    def test_a_failing_shape_raises_every_call_and_is_never_stored(self, k, u, mode, message):
        # 10 classes of 3 rows, but class 2 has none
        labels = np.repeat([c for c in range(10) if c != 2], 3)
        ds = Dataset(np.zeros((labels.size, 2)), labels, labels.copy(), num_classes=10)
        for seed in (0, 1):
            with pytest.raises(ValueError, match=f"^{message}$"):
                sample_macrobatch(ds, k, u, mode, seed)
            assert ds.sampling_plans == {}
        picks, _, _ = sample_macrobatch(ds, 1, 2, UNIFORM, 0)
        assert picks.shape == (1, 2) and list(ds.sampling_plans) == [(1, 2, UNIFORM)]


def _csv_dataset(tmp_path):
    path = tmp_path / "data.csv"
    rows = [f"{0.5 * i},{-1.0 * i},{(i * 7) % 4}" for i in range(30)]
    path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
    return load_csv(path)


DATASET_BUILDERS = {
    "gaussian": lambda tmp_path: gen_gaussian_clusters(4, 3, 25, sigma=0.5, seed=1),
    "white_noise": lambda tmp_path: gen_white_noise(5, 3, 120, seed=2),
    "csv": _csv_dataset,
    "take": lambda tmp_path: take(gen_white_noise(4, 2, 90, seed=3), np.arange(5, 80, 2)),
    "noise": lambda tmp_path: inject_symmetric_noise(
        gen_gaussian_clusters(4, 3, 25, sigma=0.5, seed=1), 0.4, seed=7
    ),
}


class TestClassPools:
    @pytest.mark.parametrize("builder", DATASET_BUILDERS.values(), ids=DATASET_BUILDERS.keys())
    def test_pools_are_class_rows(self, builder, tmp_path):
        ds = builder(tmp_path)
        rows, starts, sizes = ds.class_layout
        assert len(starts) == len(sizes) == ds.num_classes
        for c in range(ds.num_classes):
            pool = rows[starts[c]:starts[c] + sizes[c]]
            assert np.array_equal(pool, np.flatnonzero(ds.labels == c))

    def test_pools_computed_once(self):
        ds = gen_white_noise(3, 2, 40, seed=0)
        assert ds.class_layout is ds.class_layout

    def test_dataset_is_frozen(self):
        # the pool cache would go stale if labels could be reassigned
        ds = gen_white_noise(3, 2, 40, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.labels = np.zeros(40, dtype=np.int64)


def _batches_digest(macrobatch):
    # per microbatch, in worker order: its indices, features, labels
    h = hashlib.sha256()
    for indices, features, labels in zip(*macrobatch):
        h.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(features, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


class TestSamplingGolden:
    """Pins the drawn rows, features and labels, so a faster sampler must keep
    the exact draw stream (every recorded run depends on it)."""

    @pytest.mark.parametrize("mode, k, u, step_seed, digest", [
        (STRATIFIED, 1, 5, 0, "2d032463dc11bc9f"),
        (STRATIFIED, 2, 10, 11, "8e1f7c6f8374fe7f"),
        (STRATIFIED, 4, 5, 12345, "eb1b68b0b2d2fc96"),
        (STRATIFIED, 3, 15, 2**63 + 7, "53b5a3aa9f67e361"),
        (UNIFORM, 1, 1, 0, "cd64c05b94d03ffe"),
        (UNIFORM, 3, 7, 11, "41c6297f320bb6a4"),
        (UNIFORM, 5, 2, 2**63 + 7, "878ec8d42b13e143"),
    ])
    def test_macrobatch_digest(self, mode, k, u, step_seed, digest):
        if mode == STRATIFIED:
            ds = inject_symmetric_noise(gen_gaussian_clusters(5, 3, 40, 0.5, seed=8), 0.4, seed=9)
        else:
            ds = gen_white_noise(4, 3, 90, seed=8)
        assert _batches_digest(sample_macrobatch(ds, k, u, mode, step_seed)) == digest

    def test_tail_shuffle_digest(self):
        # both classes exceed 10000 rows and each draws 210 > pool // 50 of them,
        # so choice takes its tail-shuffle branch, not Floyd's algorithm
        ds = inject_symmetric_noise(gen_gaussian_clusters(2, 2, 10200, 0.5, seed=8), 0.1, seed=9)
        assert np.all(np.bincount(ds.labels) > 10000)
        macrobatch = sample_macrobatch(ds, 3, 140, STRATIFIED, step_seed=5)
        assert _batches_digest(macrobatch) == "b2e42c3e7d36de3f"


def _choice_calls(sizes, need, seed):
    rng = np.random.default_rng(seed)
    picks = [rng.choice(n, size=need, replace=False) for n in sizes.tolist()]
    return np.array(picks), rng.bit_generator.state


class TestSamplingReplay:
    """_replay_choice must draw what per-class Generator.choice calls draw, and leave
    the generator in the same state; a numpy that changes choice fails here."""

    def _assert_replays(self, sizes, need, seed):
        rng = np.random.default_rng(seed)
        local = _replay_choice(rng, _replay_bounds(np.asarray(sizes), need))
        expected, state = _choice_calls(np.asarray(sizes), need, seed)
        assert np.array_equal(local, expected), (sizes, need, seed)
        assert rng.bit_generator.state == state, (sizes, need, seed)

    def test_matches_choice_on_seeded_cases(self):
        # pools of need to need + 60 rows, so that Floyd's collisions happen
        cases = np.random.default_rng(2024)
        for _ in range(2500):
            need = int(cases.integers(1, 9))
            sizes = need + cases.integers(0, 61, size=int(cases.integers(1, 13)))
            self._assert_replays(sizes, need, int(cases.integers(1 << 63)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_choice_at_floyd_limit(self, seed):
        # 200 of 10001 rows is still Floyd's algorithm in choice
        self._assert_replays([10001], 200, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_tail_shuffle_is_not_replayed(self, seed):
        # 201 of 10001 rows takes choice's tail shuffle, which the replay does not
        # follow: the sampler must (and does) call choice there
        rng = np.random.default_rng(seed)
        assert not np.array_equal(_replay_choice(rng, _replay_bounds(np.array([10001]), 201)),
                                  _choice_calls(np.array([10001]), 201, seed)[0])

    @pytest.mark.parametrize("sizes, k, per_class", [
        ([40] * 10, 2, 1),  # replayed
        ([9, 7, 6, 6, 8, 9, 6, 6, 7, 6, 9, 6], 3, 2),  # replayed, pools of need to need + 3
        ([30] * 4, 2, 3),  # choice calls
        ([10005] + [201] * 401, 1, 201),  # choice calls: class 0 is on the tail-shuffle branch
    ], ids=["replay", "replay-collisions", "choice", "choice-tail"])
    def test_sampler_matches_choice_calls(self, sizes, k, per_class):
        sizes = np.array(sizes)
        labels = np.repeat(np.arange(sizes.size), sizes)
        ds = Dataset(np.zeros((labels.size, 1)), labels, labels, sizes.size)
        for seed in range(20):
            picks, _, _ = sample_macrobatch(ds, k, sizes.size * per_class, STRATIFIED, seed)
            local = _choice_calls(sizes, k * per_class, seed)[0]
            rows = local + (np.cumsum(sizes) - sizes)[:, None]
            expected = rows.reshape(sizes.size, k, per_class).transpose(1, 0, 2)
            assert np.array_equal(picks, expected.reshape(k, -1))


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n0.5,-1.25,0\n3.0,4.5,2\n")
        ds = load_csv(path)
        assert ds.n == 2 and ds.dim == 2 and ds.num_classes == 3
        assert np.array_equal(ds.features, [[0.5, -1.25], [3.0, 4.5]])
        assert np.array_equal(ds.labels, [0, 2])

    def test_rejects_wrong_arity(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n0.5,-1.25,0\n3.0,2\n")
        with pytest.raises(ValueError, match="expected 3 fields"):
            load_csv(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n1,2,0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_rejects_negative_label(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n1.0,-2\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["abc", "", "nan", "inf", "-Infinity"])
    def test_rejects_non_finite_feature_with_line(self, tmp_path, value):
        path = tmp_path / "data.csv"
        path.write_text(f"f0,f1,label\n0.5,-1.25,0\n3.0,{value},1\n")
        with pytest.raises(ValueError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}:3: feature f1 must be a finite number"

    @pytest.mark.parametrize("bad_line", [3, 1502], ids=["first-chunk", "late-line"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, bad_line):
        path = tmp_path / "data.csv"
        rows = [b"%d.5,%d" % (i % 7, i % 3) for i in range(2000)]
        rows[bad_line - 2] = b"1.5,\xff1"
        path.write_bytes(b"f0,label\n" + b"\n".join(rows) + b"\n")
        with pytest.raises(ValueError) as exc:
            load_csv(path)
        assert str(exc.value).startswith(f"{path}:{bad_line}: 'utf-8' codec can't decode "
                                         "byte 0xff in position ")

    def test_oversized_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n0.5,0\n" + "1" * 200_000 + ",1\n")
        with pytest.raises(ValueError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}:3: field larger than field limit (131072)"

    def test_make_dataset_dispatch(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n1.0,0\n2.0,1\n")
        ds = make_dataset(DataConfig(kind="csv", path=str(path)), seed=0)
        assert ds.n == 2


@pytest.mark.properties
class TestProperties:
    def test_noise_preserves_features_and_flips_exactly(self, rng):
        for _ in range(N_PROPERTY_CASES):
            c = int(rng.integers(2, 8))
            n_per = int(rng.integers(2, 30))
            ds = gen_gaussian_clusters(c, int(rng.integers(1, 6)), n_per, sigma=0.5,
                                       seed=int(rng.integers(1 << 31)))
            rate = float(rng.uniform(0, 1))
            noisy = inject_symmetric_noise(ds, rate, seed=int(rng.integers(1 << 31)))
            assert noisy.features is ds.features
            flipped = noisy.labels != noisy.clean_labels
            assert int(flipped.sum()) == round(rate * ds.n)
            # a flip never lands on the clean label by construction
            assert np.all(noisy.labels[flipped] != noisy.clean_labels[flipped])
            assert np.all((noisy.labels >= 0) & (noisy.labels < c))

    def test_stratified_histograms_match(self, rng):
        for _ in range(N_PROPERTY_CASES):
            c = int(rng.integers(2, 6))
            per = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            ds = gen_gaussian_clusters(c, 3, 8 * per * k, sigma=0.5,
                                       seed=int(rng.integers(1 << 31)))
            ds = inject_symmetric_noise(ds, float(rng.uniform(0, 0.5)),
                                        seed=int(rng.integers(1 << 31)))
            _, _, labels = sample_macrobatch(ds, k, per * c, STRATIFIED,
                                             step_seed=int(rng.integers(1 << 31)))
            hists = [np.bincount(row, minlength=c) for row in labels]
            for h in hists[1:]:
                assert np.array_equal(h, hists[0])

    def test_sampling_reproducible(self, rng):
        for _ in range(N_PROPERTY_CASES):
            ds_seed = int(rng.integers(1 << 31))
            step_seed = int(rng.integers(1 << 31))
            mode = STRATIFIED if rng.integers(2) else UNIFORM
            u = 6 if mode == STRATIFIED else int(rng.integers(1, 8))
            ds1 = gen_white_noise(3, 4, 120, seed=ds_seed)
            ds2 = gen_white_noise(3, 4, 120, seed=ds_seed)
            a = sample_macrobatch(ds1, 2, u, mode, step_seed)
            b = sample_macrobatch(ds2, 2, u, mode, step_seed)
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])
