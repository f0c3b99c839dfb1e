import numpy as np
import pytest

from gafsim.models import SOFTMAX_LINEAR, ModelSpec, init_params
from gafsim.optim import SchedState, init_optim, plateau_update, sgd_step, skip_step

from conftest import N_PROPERTY_CASES

SPEC = ModelSpec(kind=SOFTMAX_LINEAR, input_dim=4, num_classes=3, init_sigma=0.5, init_seed=8)


def fresh():
    params = init_params(SPEC)
    return params, init_optim(lr=1.0, momentum=0.0, dim=params.size)


class TestSgdStep:
    def test_plain_gradient_step(self, rng):
        params, opt = fresh()
        grad = rng.normal(size=params.size)
        new_params, new_opt = sgd_step(params, grad, opt)
        assert np.array_equal(new_params, params - grad)
        assert new_opt.step_count == 1

    def test_zero_gradient_no_move(self):
        params, opt = fresh()
        new_params, _ = sgd_step(params, np.zeros(params.size), opt)
        assert np.array_equal(new_params, params)

    def test_momentum_unrolled_two_steps(self, rng):
        # velocity: g then 1.9g; displacement g + 1.9g = 2.9g
        params = init_params(SPEC)
        opt = init_optim(lr=1.0, momentum=0.9, dim=params.size)
        g = rng.normal(size=params.size)
        p1, opt = sgd_step(params, g, opt)
        p2, opt = sgd_step(p1, g, opt)
        assert np.allclose(params - p2, 2.9 * g, atol=1e-12)

    def test_dim_mismatch(self):
        params, opt = fresh()
        with pytest.raises(ValueError, match="does not match params"):
            sgd_step(params, np.zeros(params.size + 1), opt)


class TestSkipStep:
    def test_identity_except_counter(self):
        params = init_params(SPEC)
        opt = init_optim(lr=0.1, momentum=0.9, dim=params.size)
        _, opt = sgd_step(params, np.ones(params.size), opt)
        skipped = skip_step(opt)
        assert skipped.lr == opt.lr
        assert skipped.momentum == opt.momentum
        assert skipped.velocity is opt.velocity
        assert np.array_equal(skipped.velocity, opt.velocity)
        assert skipped.step_count == opt.step_count
        assert skipped.skip_count == opt.skip_count + 1

    def test_hundred_skips_leave_params_alone(self):
        params, opt = fresh()
        before = params.copy()
        for _ in range(100):
            opt = skip_step(opt)
        assert np.array_equal(params, before)
        assert opt.skip_count == 100

    def test_skip_then_step_equals_step(self, rng):
        params = init_params(SPEC)
        opt = init_optim(lr=0.3, momentum=0.9, dim=params.size)
        g = rng.normal(size=params.size)
        direct, _ = sgd_step(params, g, opt)
        via_skip, _ = sgd_step(params, g, skip_step(opt))
        assert np.array_equal(direct, via_skip)


class TestPlateau:
    def test_improving_metric_keeps_lr(self):
        params, _ = fresh()
        opt = init_optim(lr=0.01, momentum=0.0, dim=params.size)
        sched = SchedState(patience=3, lr_factor=0.1)
        for metric in np.linspace(0.1, 0.9, 20):
            sched, opt = plateau_update(sched, opt, float(metric))
        assert opt.lr == 0.01

    def test_constant_metric_cuts_once_after_patience(self):
        # best already established; patience+1 stale evals trigger one cut
        params, _ = fresh()
        opt = init_optim(lr=0.01, momentum=0.0, dim=params.size)
        sched = SchedState(patience=4, lr_factor=0.1, best_metric=0.5)
        for _ in range(5):
            sched, opt = plateau_update(sched, opt, 0.5)
        assert opt.lr == pytest.approx(0.001)
        assert sched.bad_epochs == 0
        sched, opt = plateau_update(sched, opt, 0.5)
        assert opt.lr == pytest.approx(0.001)  # counter restarted, no double cut

    def test_two_plateaus_reach_factor_squared(self):
        params, _ = fresh()
        opt = init_optim(lr=0.01, momentum=0.0, dim=params.size)
        sched = SchedState(patience=2, lr_factor=0.1, best_metric=0.5)
        for _ in range(6):
            sched, opt = plateau_update(sched, opt, 0.5)
        assert opt.lr == pytest.approx(1e-4)

    def test_min_lr_floor(self):
        params, _ = fresh()
        opt = init_optim(lr=1e-6, momentum=0.0, dim=params.size)
        sched = SchedState(patience=0, lr_factor=0.1, min_lr=1e-6, best_metric=1.0)
        sched, opt = plateau_update(sched, opt, 0.0)
        assert opt.lr == 1e-6

    def test_rejects_nonfinite_metric(self):
        params, _ = fresh()
        opt = init_optim(lr=0.01, momentum=0.0, dim=params.size)
        sched = SchedState(patience=1, lr_factor=0.5)
        with pytest.raises(ValueError, match="finite"):
            plateau_update(sched, opt, float("nan"))


@pytest.mark.properties
class TestProperties:
    def test_skip_is_bitwise_identity(self, rng):
        params = init_params(SPEC)
        for _ in range(N_PROPERTY_CASES):
            opt = init_optim(
                lr=float(rng.uniform(1e-5, 1.0)),
                momentum=float(rng.uniform(0, 0.99)),
                dim=params.size,
            )
            _, opt = sgd_step(params, rng.normal(size=params.size), opt)
            skipped = skip_step(opt)
            assert skipped.lr == opt.lr
            assert np.array_equal(skipped.velocity, opt.velocity)
            assert skipped.step_count == opt.step_count
            assert skipped.skip_count == opt.skip_count + 1

    def test_lr_never_increases_and_respects_floor(self, rng):
        params = init_params(SPEC)
        for _ in range(N_PROPERTY_CASES):
            opt = init_optim(lr=float(rng.uniform(1e-4, 0.5)), momentum=0.0,
                             dim=params.size)
            sched = SchedState(patience=int(rng.integers(0, 4)),
                               lr_factor=float(rng.uniform(0.05, 0.9)), min_lr=1e-6)
            prev = opt.lr
            for _ in range(40):
                sched, opt = plateau_update(sched, opt, float(rng.uniform(0, 1)))
                assert opt.lr <= prev
                assert opt.lr >= 1e-6
                assert sched.bad_epochs <= sched.patience
                prev = opt.lr
