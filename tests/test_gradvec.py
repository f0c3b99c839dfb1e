import math

import numpy as np
import pytest

from gafsim.gradvec import as_gradvec, cosine_distance, dot, l2_norm

from conftest import N_PROPERTY_CASES, random_vec


def v(*xs):
    return np.array(xs, dtype=np.float64)


class TestDot:
    def test_orthogonal(self):
        assert dot(v(1, 0), v(0, 1)) == 0.0

    def test_hand_arithmetic(self):
        assert dot(v(1, 2), v(3, 4)) == 11.0

    def test_linearity_constant(self):
        c = 3.0
        assert dot(np.full(10, c), np.ones(10)) == 10 * c

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dot(v(1, 2), v(1, 2, 3))

    def test_empty(self):
        assert dot(np.array([]), np.array([])) == 0.0


class TestNorm:
    def test_three_four_five(self):
        assert l2_norm(v(3, 4)) == 5.0

    def test_zero_vector(self):
        assert l2_norm(np.zeros(7)) == 0.0

    def test_ones(self):
        assert l2_norm(np.ones(4)) == 2.0


class TestCosineDistance:
    def test_identical_direction(self):
        assert cosine_distance(v(1, 0), v(1, 0)) == 0.0

    def test_orthogonal(self):
        assert cosine_distance(v(1, 0), v(0, 1)) == 1.0

    def test_opposite(self):
        assert cosine_distance(v(1, 0), v(-1, 0)) == 2.0

    def test_analytic_45_degrees(self):
        assert cosine_distance(v(1, 1), v(1, 0)) == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)

    def test_zero_norm_is_maximal(self):
        assert cosine_distance(np.zeros(3), v(1, 2, 3)) == 2.0
        assert cosine_distance(v(1, 2, 3), np.zeros(3)) == 2.0
        assert cosine_distance(np.full(3, 1e-31), v(1, 2, 3)) == 2.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_distance(v(1, 0), v(1, 0, 0))


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_gradvec([1.0, float("nan")])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            as_gradvec(np.zeros((2, 2)))


@pytest.mark.properties
class TestProperties:
    def test_self_distance_zero(self, rng):
        for _ in range(N_PROPERTY_CASES):
            a = random_vec(rng)
            if l2_norm(a) < 1e-12:
                continue
            assert abs(cosine_distance(a, a)) <= 1e-12

    def test_symmetry_exact(self, rng):
        for _ in range(N_PROPERTY_CASES):
            a = random_vec(rng)
            b = random_vec(rng, dim=a.shape[0])
            assert cosine_distance(a, b) == cosine_distance(b, a)

    def test_positive_scale_invariance(self, rng):
        for _ in range(N_PROPERTY_CASES):
            a = random_vec(rng)
            b = random_vec(rng, dim=a.shape[0])
            s = float(np.exp(rng.uniform(-13, 13)))
            assert cosine_distance(a * s, b) == pytest.approx(
                cosine_distance(a, b), abs=1e-12
            )

    def test_negation_reflects_distance(self, rng):
        for _ in range(N_PROPERTY_CASES):
            a = random_vec(rng)
            b = random_vec(rng, dim=a.shape[0])
            assert cosine_distance(-a, b) == pytest.approx(
                2.0 - cosine_distance(a, b), abs=1e-12
            )

    def test_range_clamped_large_dims(self, rng):
        # dims log-uniform up to 1e6, correlated pairs to stress the clamp
        for _ in range(N_PROPERTY_CASES):
            dim = int(np.exp(rng.uniform(0, np.log(1_000_000))))
            a = rng.normal(size=dim)
            mix = float(rng.uniform(-1, 1))
            b = mix * a + (1 - abs(mix)) * rng.normal(size=dim)
            d = cosine_distance(a, b)
            assert 0.0 <= d <= 2.0
