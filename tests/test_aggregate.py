import numpy as np
import pytest

from gafsim import aggregate
from gafsim.aggregate import (
    _strict_row_sums,
    agreement_scan,
    average,
    draw_pivot,
    gaf_aggregate,
    running_scan_distances,
    scan_work,
)

from conftest import N_PROPERTY_CASES
from oracles import naive_filtered_aggregate, naive_mean, per_candidate_scan


def v(*xs):
    return np.array(xs, dtype=np.float64)


def random_instance(rng, k_max=8, dim_max=512, dim_min=1):
    k = int(rng.integers(2, k_max + 1))
    dim = int(rng.integers(dim_min, dim_max + 1))
    return [rng.normal(size=dim) for _ in range(k)]


class TestAverage:
    def test_two_orthogonal(self):
        assert np.array_equal(average([v(1, 0), v(0, 1)]), v(0.5, 0.5))

    def test_single_element(self):
        assert np.array_equal(average([v(2, 2)]), v(2, 2))

    def test_hundred_copies(self):
        x = np.random.default_rng(5).normal(size=32)
        out = average([x] * 100)
        assert np.allclose(out, x, atol=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no gradients"):
            average([])

    def test_dim_mismatch_errors(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            average([v(1, 2), v(1, 2, 3)])


class TestGafAggregate:
    def test_identical_gradients_accepted(self):
        out = gaf_aggregate([v(1, 0), v(1, 0)], 0.97, 0)
        assert not out.skipped
        assert out.accepted_count == 2
        assert np.array_equal(out.gradient, v(1, 0))
        assert out.accepted_mask == [True, True]

    def test_orthogonal_pair_skips(self):
        out = gaf_aggregate([v(1, 0), v(0, 1)], 0.97, 0)
        assert out.skipped
        assert out.accepted_count == 1
        assert out.gradient is None
        assert out.pairwise_distances == [1.0]

    def test_running_sum_scan(self):
        # second gradient joins the sum, the opposing third is then rejected
        # against [2, 0.1]; values re-derived with the step-by-step oracle
        grads = [v(1, 0), v(1, 0.1), v(-1, 0)]
        out = gaf_aggregate(grads, 0.97, 0)
        ref_grad, ref_c, ref_mask, ref_d, ref_skip = naive_filtered_aggregate(grads, 0.97, 0)
        assert out.accepted_count == ref_c == 2
        assert out.accepted_mask == ref_mask == [True, True, False]
        assert not out.skipped and not ref_skip
        assert np.array_equal(out.gradient, v(1, 0.05))
        assert np.array_equal(out.gradient, ref_grad)
        assert out.pairwise_distances == pytest.approx(ref_d, abs=1e-15)
        assert out.pairwise_distances[0] == pytest.approx(0.00496, abs=1e-5)
        assert out.pairwise_distances[1] == pytest.approx(1.99875, abs=1e-5)

    def test_tau_two_equals_average(self, rng):
        for _ in range(50):
            grads = random_instance(rng, dim_max=64)
            out = gaf_aggregate(grads, 2.0, int(rng.integers(len(grads))))
            assert not out.skipped
            assert out.accepted_count == len(grads)
            assert np.allclose(out.gradient, average(grads), atol=1e-12, rtol=1e-12)

    def test_random_pivot_is_seeded(self):
        # the training loop draws each step's pivot with draw_pivot and passes the index
        assert [draw_pivot(4, s) for s in range(60)] == [draw_pivot(4, s) for s in range(60)]
        assert {draw_pivot(4, s) for s in range(60)} == {0, 1, 2, 3}

    @pytest.mark.parametrize("pivot", [-1, 3])
    def test_pivot_out_of_range(self, pivot):
        with pytest.raises(ValueError, match="out of range"):
            gaf_aggregate([v(1, 0), v(0, 1), v(1, 1)], 1.0, pivot)

    @pytest.mark.parametrize("tau", [-0.1, 2.5, np.nan])
    def test_invalid_tau(self, tau):
        with pytest.raises(ValueError, match=r"tau must be in \[0, 2\]"):
            gaf_aggregate([v(1, 0), v(0, 1)], tau, 0)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no gradients"):
            gaf_aggregate([], 1.0, 0)


def all_pivots(grads, tau):
    """One aggregation per pivot choice, to probe the scan's order sensitivity."""
    return [gaf_aggregate(grads, tau, s) for s in range(len(grads))]


class TestAllPivots:
    def test_symmetric_pair(self):
        outs = all_pivots([v(1, 0), v(1, 0)], 0.97)
        assert len(outs) == 2
        for out in outs:
            assert out.accepted_count == 2
            assert np.array_equal(out.gradient, v(1, 0))

    def test_orthogonal_pair_all_skip(self):
        outs = all_pivots([v(1, 0), v(0, 1)], 0.97)
        assert all(out.skipped for out in outs)

    def test_pivot_changes_accepted_set(self):
        grads = [v(1, 0), v(1, 0.1), v(-1, 0)]
        outs = all_pivots(grads, 0.97)
        for s, out in enumerate(outs):
            ref_grad, ref_c, ref_mask, _, ref_skip = naive_filtered_aggregate(grads, 0.97, s)
            assert out.accepted_count == ref_c
            assert out.accepted_mask == ref_mask
            assert out.skipped == ref_skip
        assert outs[0].accepted_mask == [True, True, False]
        assert outs[2].skipped  # opposing pivot agrees with nothing


class TestScanDistances:
    def test_matches_filter_with_admit_all(self):
        rng = np.random.default_rng(11)
        grads = [rng.normal(size=16) for _ in range(5)]
        out = gaf_aggregate(grads, 2.0, 0)
        assert running_scan_distances(grads) == out.pairwise_distances
        # the same index-order sum and division as plain averaging, to the bit
        assert out.gradient.tobytes() == average(grads).tobytes()


class TestGradientBlock:
    """A (k, P) array is accepted wherever a list of k vectors is."""

    def test_block_equals_list_of_rows(self, rng):
        block = rng.normal(size=(4, 33))
        rows = list(block)
        a, b = gaf_aggregate(block, 1.0, 3), gaf_aggregate(rows, 1.0, 3)
        assert a.gradient.tobytes() == b.gradient.tobytes()
        assert (a.accepted_mask, a.pairwise_distances) == (b.accepted_mask, b.pairwise_distances)
        assert average(block).tobytes() == average(rows).tobytes()
        assert running_scan_distances(block) == running_scan_distances(rows)

    def test_block_is_not_modified(self, rng):
        block = rng.normal(size=(3, 8))
        before = block.copy()
        gaf_aggregate(block, 2.0, 1)
        average(block)
        assert np.array_equal(block, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("as_list", [False, True], ids=["block", "list"])
    def test_non_finite_entry_errors(self, bad, as_list):
        block = np.ones((3, 4))
        block[2, 1] = bad
        grads = list(block) if as_list else block
        for call in (average, running_scan_distances,
                     lambda g: gaf_aggregate(g, 1.0, 0)):
            with pytest.raises(ValueError, match="non-finite"):
                call(grads)

    def test_non_vector_element_errors(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            average([v(1, 2), np.ones((2, 2))])
        with pytest.raises(ValueError, match="must be 1-D vectors"):
            average(np.ones((2, 2, 2)))


@pytest.mark.properties
class TestProperties:
    def test_baseline_equivalence(self, rng):
        for _ in range(N_PROPERTY_CASES):
            grads = random_instance(rng, dim_max=128)
            pivot = int(rng.integers(len(grads)))
            out = gaf_aggregate(grads, 2.0, pivot)
            assert not out.skipped
            assert out.accepted_count == len(grads)
            assert np.allclose(out.gradient, average(grads), atol=1e-12, rtol=1e-12)

    def test_acceptance_bounded_by_admit_all(self, rng):
        for _ in range(N_PROPERTY_CASES):
            # dim >= 2 so random reals are never exactly aligned (any two
            # same-signed scalars would be)
            grads = random_instance(rng, dim_max=64, dim_min=2)
            pivot = int(rng.integers(len(grads)))
            tau = float(rng.uniform(0, 2))
            c_tau = gaf_aggregate(grads, tau, pivot).accepted_count
            c_all = gaf_aggregate(grads, 2.0, pivot).accepted_count
            assert c_tau <= c_all == len(grads)
            out_zero = gaf_aggregate(grads, 0.0, pivot)
            assert out_zero.accepted_count == 1 and out_zero.skipped

    def test_candidate_order_can_matter_and_k2_cannot(self):
        # concrete order-dependent instance: the mid vector pulls the
        # running sum close enough for the otherwise-rejected candidate
        pivot, near, far = v(1, 0), v(1, 1), v(0, 1)
        a = gaf_aggregate([pivot, far, near], 0.97, 0)
        b = gaf_aggregate([pivot, near, far], 0.97, 0)
        assert a.accepted_count == 2 and b.accepted_count == 3
        assert not np.array_equal(a.gradient, b.gradient)

        # k=2 with the pivot vector held fixed has a single candidate, so
        # listing order cannot change the outcome
        rng = np.random.default_rng(9)
        for _ in range(N_PROPERTY_CASES):
            x, y = rng.normal(size=8), rng.normal(size=8)
            tau = float(rng.uniform(0, 2))
            out1 = gaf_aggregate([x, y], tau, 0)
            out2 = gaf_aggregate([y, x], tau, 1)
            assert out1.accepted_count == out2.accepted_count
            assert out1.skipped == out2.skipped
            assert out1.pairwise_distances == out2.pairwise_distances
            if not out1.skipped:
                assert np.array_equal(out1.gradient, out2.gradient)

    def test_matches_naive_oracle(self, rng):
        for _ in range(N_PROPERTY_CASES):
            grads = random_instance(rng, dim_max=64)
            tau = float(rng.uniform(0, 2))
            pivot = int(rng.integers(len(grads)))
            out = gaf_aggregate(grads, tau, pivot)
            ref_grad, ref_c, ref_mask, _, ref_skip = naive_filtered_aggregate(grads, tau, pivot)
            assert out.accepted_count == ref_c
            assert out.accepted_mask == ref_mask
            assert out.skipped == ref_skip
            if ref_grad is None:
                assert out.gradient is None
            else:
                assert np.array_equal(out.gradient, ref_grad)


def bits(values) -> bytes:
    """float64 bytes of values, so -0.0 and 0.0 compare unequal."""
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.properties
class TestStrictRowSums:
    """_strict_row_sums is np.add.accumulate(row)[-1] for every row, bit for bit,
    on both sides of the crossover, sign of zero included."""

    @pytest.fixture(params=["as set", "accumulate", "column"])
    def path(self, request, monkeypatch):
        # the crossover as set, or every row count down one side (the column
        # path from two rows on, as one row never takes it)
        crossover = {"as set": aggregate._COLUMN_MIN_ROWS, "accumulate": 1 << 30, "column": 2}
        monkeypatch.setattr(aggregate, "_COLUMN_MIN_ROWS", crossover[request.param])
        return request.param

    @staticmethod
    def check(products):
        spare = np.empty(products.size)
        with np.errstate(over="ignore", invalid="ignore"):
            want = [np.add.accumulate(row)[-1] for row in products]  # before the helper's writes
            if np.isfinite(want).all():
                assert bits(_strict_row_sums(products, spare)) == bits(want)
            else:
                with pytest.raises(ValueError, match="^non-finite dot product$"):
                    _strict_row_sums(products, spare)
        return np.isfinite(want).all()

    def test_random_rows_at_every_scale(self, path, rng):
        finite = 0
        for _ in range(N_PROPERTY_CASES):
            rows = int(rng.integers(1, 65))
            dim = int(np.exp(rng.uniform(0, np.log(6000))))
            # a scale per row from 1e-300 to 1e308, where entries and sums overflow to inf
            with np.errstate(over="ignore"):
                products = rng.normal(size=(rows, dim)) * 10.0 ** rng.uniform(-300, 308, (rows, 1))
            finite += self.check(products)
        assert 0 < finite < N_PROPERTY_CASES

    def test_signed_zeros_and_subnormals(self, path, rng):
        for _ in range(N_PROPERTY_CASES):
            rows = int(rng.integers(1, 65))
            dim = int(rng.integers(1, 300))
            zeros = rng.choice([0.0, -0.0], size=(rows, dim))
            zeros[rng.random(rows) < 0.3] = -0.0  # whole rows of -0.0 sum to -0.0
            self.check(zeros)
            subnormal = rng.normal(size=(rows, dim)) * 10.0 ** rng.uniform(-323, -308, (rows, 1))
            self.check(np.where(rng.random((rows, dim)) < 0.3, zeros, subnormal))

    @pytest.mark.parametrize("rows", [2, 3, 5, 6, 7])
    def test_few_long_columns(self, path, rows, rng):
        # few columns over more rows than numpy's 8192-element buffer
        for dim in (1, 2, 8191, 8193, 20000):
            self.check(rng.normal(size=(rows, dim)) * 10.0 ** rng.uniform(-3, 3, (rows, 1)))

    def test_one_row_is_never_reduced_by_column(self, rng):
        # numpy sums a one-column reduction pairwise, not in index order: the
        # accumulate path, which leaves the row's running sums in place, takes it
        assert aggregate._COLUMN_MIN_ROWS > 1
        for dim in (1, 7, 129, 6000):
            row = rng.normal(size=(1, dim))
            want = np.add.accumulate(row[0])
            _strict_row_sums(row, np.empty(dim))
            assert row[0].tobytes() == want.tobytes()


def random_group(rng, scale_exp=(-3, 3)):
    """A random (L, k, P) block with L and k in 1-8 and P in 1-6000 (log-uniform),
    a random scale per row, some zero and duplicate rows, and per-leg taus (0, 2
    or random) and pivots (one drawn pivot for every leg, or fixed per leg)."""
    legs, k = (int(n) for n in rng.integers(1, 9, size=2))
    dim = int(np.exp(rng.uniform(0, np.log(6000))))
    block = rng.normal(size=(legs, k, dim)) * 10.0 ** rng.uniform(*scale_exp, (legs, k, 1))
    block[rng.random((legs, k)) < 0.1] = 0.0
    for leg in range(legs):
        if rng.random() < 0.2:
            block[leg, rng.integers(k)] = block[leg, rng.integers(k)]
    taus = [float(rng.choice([0.0, 2.0, rng.uniform(0, 2)])) for _ in range(legs)]
    drawn = int(rng.integers(k))
    pivots = [drawn if rng.random() < 0.5 else int(rng.integers(k)) for _ in range(legs)]
    return block, taus, pivots


def assert_same_outcome(out, ref):
    assert bits(out.pairwise_distances) == bits(ref.pairwise_distances)
    assert out.accepted_mask == ref.accepted_mask
    assert out.accepted_count == ref.accepted_count
    assert out.skipped == ref.skipped
    assert (out.gradient is None) == (ref.gradient is None)
    if ref.gradient is not None:
        assert out.gradient.tobytes() == ref.gradient.tobytes()


class TestAgreementScan:
    """One agreement_scan call over a group's (L, k, P) block gives each leg the
    outcome of the per-candidate loop, byte for byte."""

    def test_matches_per_candidate_loop(self, rng):
        for _ in range(500):
            block, taus, pivots = random_group(rng)
            before = block.copy()
            outs = agreement_scan(block, taus, pivots, scan_work(*block.shape))
            assert len(outs) == len(block)
            for leg, out in enumerate(outs):
                assert_same_outcome(out, per_candidate_scan(block[leg], taus[leg], pivots[leg]))
            assert np.array_equal(block, before)

    def test_public_wrapper_is_the_one_leg_scan(self, rng):
        for _ in range(100):
            block, taus, pivots = random_group(rng)
            for leg in range(len(block)):
                assert_same_outcome(gaf_aggregate(list(block[leg]), taus[leg], pivots[leg]),
                                    per_candidate_scan(block[leg], taus[leg], pivots[leg]))

    def test_work_space_is_reused_across_shapes(self, rng):
        work = scan_work(8, 8, 6000)
        for _ in range(50):
            block, taus, pivots = random_group(rng)
            for leg, out in enumerate(agreement_scan(block, taus, pivots, work)):
                assert_same_outcome(out, per_candidate_scan(block[leg], taus[leg], pivots[leg]))

    def test_overflow_raises_when_the_loop_does(self, rng):
        raised = 0
        for _ in range(300):
            # row scales up to 1e160, whose squares overflow
            block, taus, pivots = random_group(rng, scale_exp=(140, 160))
            failing = []
            for leg in range(len(block)):
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        per_candidate_scan(block[leg], taus[leg], pivots[leg])
                except ValueError as exc:
                    failing.append(str(exc))
            with np.errstate(over="ignore", invalid="ignore"):
                if failing:
                    assert set(failing) == {"non-finite dot product"}
                    with pytest.raises(ValueError, match="^non-finite dot product$"):
                        agreement_scan(block, taus, pivots, scan_work(*block.shape))
                    raised += 1
                else:
                    agreement_scan(block, taus, pivots, scan_work(*block.shape))
        assert 0 < raised < 300

    def test_empty_vectors_are_directionless(self):
        # no entries: every dot product is 0.0, so every distance is 2.0
        block = np.empty((2, 3, 0))
        outs = agreement_scan(block, [2.0, 1.0], [0, 2], scan_work(2, 3, 0))
        for leg, out in enumerate(outs):
            assert_same_outcome(out, per_candidate_scan(block[leg], [2.0, 1.0][leg], [0, 2][leg]))
        assert [o.pairwise_distances for o in outs] == [[2.0, 2.0]] * 2
        assert [o.accepted_count for o in outs] == [3, 1]

    def test_lone_gradients_skip_without_a_sum(self):
        # k = 1 has no candidate, so no dot product is taken, even one that would overflow
        block = np.full((3, 1, 4), 1e300)
        outs = agreement_scan(block, [2.0, 1.0, 0.0], [0, 0, 0], scan_work(3, 1, 4))
        assert [(o.gradient, o.accepted_count, o.accepted_mask, o.pairwise_distances, o.skipped)
                for o in outs] == [(None, 1, [True], [], True)] * 3
