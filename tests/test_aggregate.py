import numpy as np
import pytest

from gafsim.aggregate import (
    average,
    draw_pivot,
    gaf_aggregate,
    running_scan_distances,
)

from conftest import N_PROPERTY_CASES
from oracles import naive_filtered_aggregate, naive_mean


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
