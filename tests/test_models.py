import math
from dataclasses import replace

import numpy as np
import pytest

from gafsim import models
from gafsim.models import (
    MLP1,
    SOFTMAX_LINEAR,
    GradBlock,
    ModelSpec,
    accuracy,
    init_params,
    loss_and_grad,
    predict,
)
from gafsim.optim import init_optim, sgd_step

from conftest import N_PROPERTY_CASES, one_row
from oracles import finite_difference_grad, single_batch_loss_and_grad

LINEAR = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=6, num_classes=4, init_sigma=0.5, init_seed=1)
MLP_TANH = ModelSpec(
    kind=MLP1, input_dim=6, num_classes=4, hidden_dim=5, activation="tanh", init_sigma=0.5, init_seed=2
)
MLP_RELU = ModelSpec(
    kind=MLP1, input_dim=6, num_classes=4, hidden_dim=5, activation="relu", init_sigma=0.5, init_seed=3
)
ALL_SPECS = [LINEAR, MLP_TANH, MLP_RELU]
# the models of the benchmark's noisy-cluster and noise-sweep workloads
BENCH_SPECS = [
    ModelSpec(kind=MLP1, input_dim=32, num_classes=10, hidden_dim=128, activation="relu"),
    ModelSpec(kind=MLP1, input_dim=32, num_classes=10, hidden_dim=64, activation="tanh",
              init_sigma=10.0),
]


def layers(params, spec):
    return models._layer_views(params, spec)


def random_batch(rng, spec, n=12):
    x = rng.normal(size=(n, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=n)
    return x, y


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ModelSpec(kind="resnet", input_dim=3, num_classes=2)

    def test_mlp_needs_hidden(self):
        with pytest.raises(ValueError, match="hidden_dim"):
            ModelSpec(kind=MLP1, input_dim=3, num_classes=2, hidden_dim=0)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="num_classes"):
            ModelSpec(kind=SOFTMAX_LINEAR, input_dim=3, num_classes=1)


class TestInit:
    def test_zero_init(self):
        spec = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=4, num_classes=3, init_sigma=0.0)
        params = init_params(spec)
        assert np.array_equal(params, np.zeros(params.size))

    def test_same_seed_same_params(self):
        a = init_params(MLP_TANH)
        b = init_params(MLP_TANH)
        assert np.array_equal(a, b)

    def test_gaussian_moments(self):
        spec = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=1000, num_classes=10,
                         init_sigma=0.1, init_seed=7)
        w = layers(init_params(spec), spec)[0][0]
        assert w.size == 10_000
        assert abs(w.mean()) < 0.1
        assert abs(w.std() - 0.1) < 0.01

    def test_biases_start_zero(self):
        for spec in ALL_SPECS:
            for _, b in layers(init_params(spec), spec):
                assert np.array_equal(b, np.zeros_like(b))


class TestLossAndGrad:
    def test_zero_params_gives_log_c(self, rng):
        spec = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=6, num_classes=4, init_sigma=0.0)
        params = init_params(spec)
        x, y = random_batch(rng, spec)
        loss, grad = one_row(params, x, y, spec)
        assert loss == pytest.approx(math.log(4), abs=1e-12)
        # bias gradient at zero params: uniform softmax minus label frequency
        gb = grad[-4:]
        freq = np.bincount(y, minlength=4) / len(y)
        assert np.allclose(gb, 0.25 - freq, atol=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=["linear", "mlp_tanh", "mlp_relu"])
    def test_matches_finite_differences(self, spec, rng):
        params = init_params(spec)
        x, y = random_batch(rng, spec)
        wd = 0.01
        _, grad = one_row(params, x, y, spec, weight_decay=wd)

        def loss_of(vec):
            return one_row(vec, x, y, spec, weight_decay=wd)[0]

        idx = rng.choice(params.size, size=min(30, params.size), replace=False)
        fd = finite_difference_grad(loss_of, params, idx)
        for i, val in fd.items():
            denom = max(abs(val), abs(grad[i]), 1e-8)
            assert abs(val - grad[i]) / denom < 1e-5

    def test_duplicated_batch_unchanged(self, rng):
        for spec in ALL_SPECS:
            params = init_params(spec)
            x, y = random_batch(rng, spec, n=8)
            loss1, grad1 = one_row(params, x, y, spec, weight_decay=0.01)
            loss2, grad2 = one_row(
                params, np.vstack([x, x]), np.concatenate([y, y]), spec, weight_decay=0.01
            )
            assert loss1 == pytest.approx(loss2, abs=1e-12)
            assert np.allclose(grad1, grad2, atol=1e-12)

    def test_empty_batch_errors(self):
        with pytest.raises(ValueError, match="nonempty"):
            one_row(init_params(LINEAR), np.zeros((0, 6)), np.zeros(0, dtype=int), LINEAR)

    def test_feature_dim_mismatch_errors(self, rng):
        with pytest.raises(ValueError, match="input_dim"):
            one_row(init_params(LINEAR), rng.normal(size=(3, 9)), np.zeros(3, dtype=int), LINEAR)


class TestAccuracy:
    def test_constant_predictor_on_its_class(self):
        spec = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=2, num_classes=3, init_sigma=0.0)
        params = init_params(spec)
        layers(params, spec)[0][1][2] = 5.0  # bias pushes every prediction to class 2
        x = np.random.default_rng(0).normal(size=(40, 2))
        assert accuracy(params, x, np.full(40, 2), spec) == 1.0

    def test_zero_params_tie_breaks_to_class_zero(self, rng):
        spec = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=5, num_classes=4, init_sigma=0.0)
        params = init_params(spec)
        x = rng.normal(size=(100, 5))
        y = np.repeat(np.arange(4), 25)
        assert accuracy(params, x, y, spec) == 0.25

    def test_random_params_random_labels_near_chance(self, rng):
        spec = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=8, num_classes=10,
                         init_sigma=1.0, init_seed=11)
        params = init_params(spec)
        x = rng.normal(size=(10_000, 8))
        y = rng.integers(0, 10, size=10_000)
        assert accuracy(params, x, y, spec) == pytest.approx(0.1, abs=0.02)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy(init_params(LINEAR), np.zeros((0, 6)), np.zeros(0, dtype=int), LINEAR)


class TestPredict:
    # offsets from the chunk size: one short, exact, one over, two chunks and a bit
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=["linear", "mlp_tanh", "mlp_relu"])
    @pytest.mark.parametrize("chunks,extra", [(1, -1), (1, 0), (1, 1), (2, 3)])
    def test_chunked_equals_single_pass(self, spec, chunks, extra, rng):
        params = init_params(spec)
        n = chunks * models._predict_chunk_rows(layers(params, spec)) + extra
        x = rng.normal(size=(n, spec.input_dim))
        single = models._forward(layers(params, spec), x, spec)[1].argmax(axis=-1)
        assert single.shape == (n,)
        assert np.array_equal(predict(params, x, spec), single)

    def test_empty_set_predicts_nothing(self):
        out = predict(init_params(MLP_RELU), np.zeros((0, 6)), MLP_RELU)
        assert out.shape == (0,)

    @pytest.mark.parametrize("spec", BENCH_SPECS, ids=["relu128", "tanh64"])
    def test_every_chunk_stays_under_blas_serial_cutoff(self, spec, monkeypatch):
        # m*n*k <= 2^18 keeps each OpenBLAS product on one thread
        chunks = []
        real = models._forward

        def recording(views, features, spec):
            chunks.append(features.shape[0])
            return real(views, features, spec)

        monkeypatch.setattr(models, "_forward", recording)
        params = init_params(spec)
        x = np.random.default_rng(0).normal(size=(1000, spec.input_dim))
        predict(params, x, spec)
        assert sum(chunks) == 1000 and len(chunks) > 1
        sizes = [w.size for w, _ in layers(params, spec)]
        for rows in chunks:
            assert all(rows * size <= 2**18 for size in sizes)
        # and no smaller than the cutoff allows
        assert (chunks[0] + 1) * max(sizes) > 2**18


class TestLayout:
    """The spec alone lays out a parameter vector: one made for another spec,
    or of another length, raises instead of being evaluated."""

    @pytest.mark.parametrize("make", [
        lambda: init_params(replace(MLP_RELU, hidden_dim=8)),
        lambda: init_params(LINEAR),
        lambda: init_params(MLP_TANH)[:-1],
        lambda: np.append(init_params(MLP_TANH), 0.0),
    ], ids=["wider-relu-mlp", "linear", "one-short", "one-long"])
    def test_mismatched_vector_raises(self, make, rng):
        bad = make()
        params = init_params(MLP_TANH)
        x, y = random_batch(rng, MLP_TANH)
        layout = f"flat vector has {bad.size} entries, expected {params.size}"
        with pytest.raises(ValueError, match=layout):
            one_row(bad, x, y, MLP_TANH)
        with pytest.raises(ValueError, match=layout):
            GradBlock(np.stack([bad, bad]), MLP_TANH, np.zeros(2), np.empty((2, 2, bad.size)))
        with pytest.raises(ValueError, match=layout):
            predict(bad, x, MLP_TANH)
        with pytest.raises(ValueError, match=layout):
            accuracy(bad, x, y, MLP_TANH)
        opt = init_optim(0.1, 0.9, params.size, 100, 0.1, 1e-6, 1e-4)
        with pytest.raises(ValueError, match="does not match params"):
            sgd_step(params, bad, opt)
        with pytest.raises(ValueError, match="does not match params"):
            sgd_step(bad, params, opt)


class TestStacked:
    """loss_and_grad's one form: a GradBlock of (L, P) params with (L,) decay, writing
    into an (L, k, P) float64 C-contiguous block, on (k, u, d) features."""

    def test_label_out_of_range_errors(self, rng):
        x, y = random_batch(rng, LINEAR)
        for bad in (-1, LINEAR.num_classes):
            y[0] = bad
            with pytest.raises(ValueError, match="labels"):
                one_row(init_params(LINEAR), x, y, LINEAR)

    @pytest.mark.parametrize("params,features,decay,block,message", [
        ((28,), (2, 5, 6), (1,), lambda: np.empty((1, 2, 28)),
         r"params of shape \(28,\), expected \(L, P\) rows"),
        ((1, 28), (5, 6), (1,), lambda: np.empty((1, 1, 28)),
         r"features of shape \(5, 6\), expected nonempty \(k, u, d\)"),
        ((2, 28), (2, 5, 6), (), lambda: np.empty((2, 2, 28)),
         r"weight_decay of shape \(\) for 2 parameter rows"),
        ((2, 28), (2, 5, 6), (3,), lambda: np.empty((2, 2, 28)),
         r"weight_decay of shape \(3,\) for 2 parameter rows"),
        ((2, 28), (2, 5, 6), (2,), lambda: np.empty((2, 2, 29)),
         r"gradient block of shape \(2, 2, 29\), expected \(2, 2, 28\)"),
        ((2, 28), (2, 5, 6), (2,), lambda: np.empty((2, 28)),
         r"gradient block of shape \(2, 28\), expected \(2, k, 28\)"),
        ((2, 28), (2, 5, 6), (2,), lambda: np.empty((2, 3, 28)),
         r"gradient block of shape \(2, 3, 28\), expected \(2, 2, 28\)"),
        ((2, 28), (2, 5, 6), (2,), lambda: np.empty((2, 2, 28), dtype=np.float32),
         r"gradient block of dtype float32, expected float64"),
        ((2, 28), (2, 5, 6), (2,), lambda: np.empty((2, 2, 56))[..., ::2],
         r"gradient block with strides \(896, 448, 16\), expected C-contiguous"),
    ], ids=["1-d-params", "2-d-features", "scalar-decay", "decay-per-row-plus-one",
            "block-one-entry-long", "2-d-block", "block-of-other-k", "float32-block",
            "strided-block"])
    def test_other_shapes_are_rejected(self, params, features, decay, block, message):
        labels = np.zeros(features[:-1], dtype=int)
        with pytest.raises(ValueError, match=f"^{message}$"):
            loss_and_grad(GradBlock(np.zeros(params), LINEAR, np.zeros(decay), block()),
                          np.zeros(features), labels)

    def test_stacked_label_shape_mismatch_errors(self, rng):
        x = rng.normal(size=(2, 5, 6))
        with pytest.raises(ValueError, match="disagree"):
            loss_and_grad(GradBlock(init_params(LINEAR)[None], LINEAR, np.zeros(1),
                                    np.empty((1, 2, 28))), x, np.zeros((2, 4), dtype=int))

    def test_nonfinite_weight_raises_at_zero_decay(self, rng):
        # an inf first-layer weight saturates its tanh unit, so the cross-entropy and
        # every gradient stay finite and only the weights' squared norm is not: the
        # guard must still raise with no decay multiply-add to carry the inf
        params = init_params(MLP_TANH)
        x, y = random_batch(rng, MLP_TANH)
        for weight in (np.inf, -np.inf):
            bad = params.copy()
            layers(bad, MLP_TANH)[0][0][0, 0] = weight
            with np.errstate(invalid="ignore"):
                ins, logits = models._forward(layers(bad, MLP_TANH), x, MLP_TANH)
            assert np.isfinite(ins[-1]).all() and np.isfinite(logits).all()
            with pytest.raises(ValueError, match="^non-finite loss or gradient$"):
                with np.errstate(invalid="ignore"):
                    one_row(bad, x, y, MLP_TANH, weight_decay=0.0)

    def test_relu_at_exact_zero_pre_activations(self, rng):
        # relu's mask is read from its output, which is > 0.0 exactly where its
        # input is, signed zeros and NaN included
        pre = np.array([0.0, -0.0, np.nan, 5e-324, -5e-324, 1.0, -1.0, np.inf, -np.inf])
        assert np.array_equal(np.maximum(pre, 0.0) > 0.0, pre > 0.0)
        # hidden pre-activations that are exactly zero: zero feature rows (of +0.0
        # and of -0.0) under a zero bias (+0.0 and -0.0), and rows whose two
        # features cancel through a unit's weights (2 * 1.5 - 1 * 3.0); a product
        # sum starts from +0.0 and x + -x is +0.0, so none reaches -0.0
        spec = ModelSpec(kind=MLP1, input_dim=2, num_classes=3, hidden_dim=4,
                         activation="relu", init_sigma=1.0, init_seed=5)
        params = init_params(spec)
        (w1, b1), _ = layers(params, spec)
        w1[:2] = [[2.0, -1.0], [-4.0, 2.0]]
        b1[:] = [0.0, -0.0, 0.0, -0.0]
        x = rng.normal(size=(2, 6, 2))
        x[:, 0], x[:, 1] = 0.0, -0.0
        x[:, 2:4] = [[1.5, 3.0], [-0.25, -0.5]]
        y = rng.integers(0, 3, size=(2, 6))
        assert ((x @ w1.T + b1) == 0.0).sum() == 2 * (2 * 4 + 2 * 2)
        rows = np.stack([params, 2.0 * params])  # the same zeros on both legs
        for decay in (np.zeros(2), np.array([0.0, 0.1])):
            grads = np.empty((2, 2, params.size))
            losses = loss_and_grad(GradBlock(rows, spec, decay, grads), x, y)
            for leg, i in np.ndindex(2, 2):
                ref_loss, ref_grad = single_batch_loss_and_grad(rows[leg], x[i], y[i], spec,
                                                                decay[leg])
                assert losses[leg, i] == ref_loss
                assert grads[leg, i].tobytes() == ref_grad.tobytes()

    def test_negative_zero_cross_entropy_reads_as_zero(self):
        # one dominant logit: every picked log-probability is exactly 0.0, so
        # the cross-entropy is -0.0; the returned loss must still be +0.0
        spec = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=3, num_classes=4, init_sigma=0.0)
        params = init_params(spec)
        (w, b), = layers(params, spec)
        b[0] = 1000.0
        x = np.random.default_rng(1).normal(size=(5, 3))
        y = np.zeros(5, dtype=int)
        log_p = models._log_softmax(x @ w.T + b)
        ce = -log_p[np.arange(5), y].mean()
        assert ce == 0.0 and math.copysign(1.0, ce) == -1.0
        loss, _ = one_row(params, x, y, spec)
        assert math.copysign(1.0, loss) == 1.0
        block = GradBlock(np.stack([params, params]), spec, np.zeros(2),
                          np.empty((2, 2, params.size)))
        losses = loss_and_grad(block, np.stack([x, x]), np.stack([y, y]))
        assert [math.copysign(1.0, v) for v in losses.ravel()] == [1.0] * 4


class TestGradBlock:
    """A GradBlock is built once per run group and reused every step: the rows
    rewritten in place between calls must give what a fresh block gives."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=["linear", "tanh", "relu"])
    @pytest.mark.parametrize("decay", [np.zeros(3), np.array([0.0, 1e-3, 0.1]), np.full(3, 0.05)],
                             ids=["no-decay", "mixed-decay", "decay"])
    def test_reused_block_equals_a_fresh_block_per_call(self, rng, spec, k, decay):
        grads = np.empty((3, k, init_params(spec).size))
        block = GradBlock(np.zeros((3, grads.shape[2])), spec, decay, grads)
        for u in (5, 5, 9, 1, 5):
            rows = rng.normal(size=block.params.shape)
            block.params[...] = rows
            x = rng.normal(size=(k, u, spec.input_dim))
            y = rng.integers(0, spec.num_classes, size=(k, u))
            losses = loss_and_grad(block, x, y)
            fresh = np.empty_like(grads)
            assert losses.tobytes() == loss_and_grad(GradBlock(rows, spec, decay, fresh),
                                                     x, y).tobytes()
            for leg, i in np.ndindex(3, k):
                assert grads[leg, i].tobytes() == fresh[leg, i].tobytes()

    def test_block_holds_its_own_rows_and_the_callers_gradient_block(self):
        rows, grads = np.zeros((2, 28)), np.empty((2, 1, 28))
        block = GradBlock(rows, LINEAR, np.zeros(2), grads)
        assert block.grad is grads and not np.shares_memory(block.params, rows)
        assert block.params.flags.c_contiguous and block.params.dtype == np.float64
        # every layer view reads the block's rows and writes the block's gradients
        for (w, b), (gw, gb) in zip(block.layers, block.views):
            assert np.shares_memory(w, block.params) and np.shares_memory(b, block.params)
            assert np.shares_memory(gw, grads) and np.shares_memory(gb, grads)

    def test_call_errors_keep_the_block_usable(self, rng):
        block = GradBlock(init_params(LINEAR)[None], LINEAR, np.zeros(1), np.empty((1, 2, 28)))
        x, y = rng.normal(size=(2, 5, 6)), rng.integers(0, 4, size=(2, 5))
        expected = loss_and_grad(block, x, y).tobytes()
        for bad in (-1, LINEAR.num_classes):
            with pytest.raises(ValueError, match=r"^labels must be in \[0, 4\)$"):
                loss_and_grad(block, x, np.full((2, 5), bad))
        with pytest.raises(ValueError, match=r"^feature dim 5 does not match spec.input_dim 6$"):
            loss_and_grad(block, x[..., :5], y)
        with pytest.raises(ValueError, match=r"^gradient block of shape \(1, 2, 28\), "
                                             r"expected \(1, 3, 28\)$"):
            loss_and_grad(block, rng.normal(size=(3, 5, 6)), np.zeros((3, 5), dtype=int))
        assert loss_and_grad(block, x, y).tobytes() == expected


@pytest.mark.properties
class TestProperties:
    def test_gradient_matches_finite_differences(self, rng):
        # randomized (params, batch) draws across both kinds and activations
        cases = 0
        while cases < N_PROPERTY_CASES:
            for base in ALL_SPECS:
                spec = ModelSpec(
                    kind=base.kind,
                    input_dim=int(rng.integers(2, 8)),
                    num_classes=int(rng.integers(2, 6)),
                    hidden_dim=int(rng.integers(2, 7)),
                    activation=base.activation,
                    init_sigma=float(rng.uniform(0.2, 1.0)),
                    init_seed=int(rng.integers(1 << 31)),
                )
                params = init_params(spec)
                x, y = random_batch(rng, spec, n=int(rng.integers(1, 10)))
                wd = float(rng.choice([0.0, 0.01, 0.1]))
                _, grad = one_row(params, x, y, spec, weight_decay=wd)

                def loss_of(vec, spec=spec, x=x, y=y, wd=wd):
                    return one_row(vec, x, y, spec, weight_decay=wd)[0]

                idx = rng.choice(params.size, size=min(5, params.size), replace=False)
                for i, val in finite_difference_grad(loss_of, params, idx).items():
                    denom = max(abs(val), abs(grad[i]), 1e-8)
                    assert abs(val - grad[i]) / denom < 1e-5
                cases += 1

    def test_cross_entropy_nonnegative(self, rng):
        for _ in range(N_PROPERTY_CASES):
            spec = ModelSpec(
                kind=str(rng.choice([SOFTMAX_LINEAR, MLP1])),
                input_dim=int(rng.integers(2, 10)),
                num_classes=int(rng.integers(2, 8)),
                hidden_dim=int(rng.integers(2, 8)),
                init_sigma=float(rng.uniform(0, 2)),
                init_seed=int(rng.integers(1 << 31)),
            )
            params = init_params(spec)
            x, y = random_batch(rng, spec, n=int(rng.integers(1, 16)))
            loss, _ = one_row(params, x, y, spec, weight_decay=0.0)
            assert loss >= 0.0

    def test_macrobatch_gradient_is_mean_of_micro(self, rng):
        # equal-size microbatches: the union gradient is the plain mean
        for _ in range(N_PROPERTY_CASES):
            spec = ModelSpec(
                kind=str(rng.choice([SOFTMAX_LINEAR, MLP1])),
                input_dim=4,
                num_classes=3,
                hidden_dim=5,
                init_sigma=0.5,
                init_seed=int(rng.integers(1 << 31)),
            )
            params = init_params(spec)
            k = int(rng.integers(2, 5))
            u = int(rng.integers(1, 6))
            x, y = random_batch(rng, spec, n=k * u)
            wd = float(rng.choice([0.0, 0.01]))
            _, union_grad = one_row(params, x, y, spec, weight_decay=wd)
            micro = [
                one_row(params, x[i * u : (i + 1) * u], y[i * u : (i + 1) * u], spec,
                        weight_decay=wd)[1]
                for i in range(k)
            ]
            assert np.allclose(sum(micro) / k, union_grad, atol=1e-10)

    def test_stacked_equals_single_calls_bytewise(self, rng):
        # both kinds and activations, k 1-5, u 1-30, weight decay 0 and > 0;
        # each [l, i] row of a call on one or on 1-4 parameter rows (legs), each
        # with its own weight decay or (every fourth case) one value for all legs,
        # or on those legs at decay 0 next to the same legs at decay 0.1,
        # must match that row's own (1, P) x (1, u, d) call and the 2-D reference arithmetic
        for case in range(N_PROPERTY_CASES):
            base = ALL_SPECS[case % len(ALL_SPECS)]
            spec = ModelSpec(
                kind=base.kind,
                input_dim=int(rng.integers(1, 12)),
                num_classes=int(rng.integers(2, 8)),
                hidden_dim=int(rng.integers(1, 20)),
                activation=base.activation,
                init_sigma=float(rng.choice([0.1, 1.0, 5.0])),
                init_seed=int(rng.integers(1 << 31)),
            )
            params = init_params(spec)
            k = int(rng.integers(1, 6))
            u = int(rng.integers(1, 31))
            x = rng.normal(size=(k, u, spec.input_dim))
            y = rng.integers(0, spec.num_classes, size=(k, u))
            wd = float(rng.choice([0.0, 1e-3, 0.1]))
            n_legs = int(rng.integers(1, 5))
            leg_params = np.stack([params] + [params + rng.normal(size=params.size)
                                              for _ in range(n_legs - 1)])
            leg_wd = (rng.choice([0.0, 1e-3, 0.1], size=n_legs) if case % 4
                      else np.full(n_legs, wd))
            # every leg twice, at decay exactly 0 and at 0.1: a zero-decay row in a call
            # that runs the decay multiply-adds must match its own call, which skips them
            mixed = (np.concatenate([leg_params, leg_params]),
                     np.concatenate([np.zeros(n_legs), np.full(n_legs, 0.1)]))
            for rows, decay in ((params[None], np.array([wd])), (leg_params, leg_wd), mixed):
                grads = np.empty((len(rows), k, params.size))
                losses = loss_and_grad(GradBlock(rows, spec, decay, grads), x, y)
                assert losses.shape == (len(rows), k)
                for leg, i in np.ndindex(len(rows), k):
                    loss, grad = one_row(rows[leg], x[i], y[i], spec, decay[leg])
                    ref_loss, ref_grad = single_batch_loss_and_grad(rows[leg], x[i], y[i], spec,
                                                                    decay[leg])
                    assert losses[leg, i] == loss == ref_loss
                    assert grads[leg, i].tobytes() == grad.tobytes() == ref_grad.tobytes()

    def test_layer_views_are_writable_views_into_the_vector(self, rng):
        for _ in range(N_PROPERTY_CASES):
            spec = ModelSpec(
                kind=str(rng.choice([SOFTMAX_LINEAR, MLP1])),
                input_dim=int(rng.integers(1, 12)),
                num_classes=int(rng.integers(2, 9)),
                hidden_dim=int(rng.integers(1, 12)),
                init_sigma=1.0,
                init_seed=int(rng.integers(1 << 31)),
            )
            params = init_params(spec)
            before = params.copy()
            views = layers(params, spec)
            dims = ([spec.input_dim, spec.hidden_dim, spec.num_classes] if spec.kind == MLP1
                    else [spec.input_dim, spec.num_classes])
            assert ([(w.shape, b.shape) for w, b in views]
                    == [((rows, cols), (rows,)) for cols, rows in zip(dims, dims[1:])])
            assert np.array_equal(np.concatenate([a.ravel() for wb in views for a in wb]), params)
            # writes through every view land in the vector itself
            for w, b in views:
                w += 1.0
                b += 1.0
            assert np.array_equal(params, before + 1.0)
