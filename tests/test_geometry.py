import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rqf.geometry import (
    antipode,
    fibonacci_sphere,
    project_tangent,
    random_unit_vector,
    sphere_distance,
    symmetric_matrix,
    unit_vector,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def vectors(n_min=2, n_max=6):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=n, max_size=n
        )
    )


class TestUnitVector:
    def test_normalizes(self):
        x = unit_vector([3.0, 4.0])
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        assert np.allclose(x, [0.6, 0.8])

    def test_rejects_tiny_norm(self):
        with pytest.raises(ValueError):
            unit_vector([1e-9, 0.0])

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            unit_vector([1.0])

    def test_overflowing_norm_is_rescaled_not_zeroed(self):
        # the norm of these finite entries overflows: they once gave the zero
        # vector and a numpy overflow warning
        big = np.array([1e308, 1e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = unit_vector(big)
            assert np.array_equal(x, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
            assert np.array_equal(unit_vector(-big), -x)
            assert np.array_equal(unit_vector(x), x)

    def test_read_only(self):
        x = unit_vector([1.0, 0.0])
        with pytest.raises(ValueError):
            x[0] = 2.0

    @given(vectors())
    @settings(max_examples=60, deadline=None)
    def test_norm_one_whenever_defined(self, coords):
        arr = np.asarray(coords)
        if np.linalg.norm(arr) < 1e-8:
            return
        assert abs(np.linalg.norm(unit_vector(arr)) - 1.0) < 1e-12

    @given(
        st.integers(2, 64).flatmap(lambda n: st.lists(st.floats(-1, 1), min_size=n, max_size=n)),
        st.floats(1e-7, 1e7),
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_odd(self, coords, scale):
        arr = np.asarray(coords) * scale
        assume(np.linalg.norm(arr) >= 1e-8)
        x = unit_vector(arr)
        assert np.array_equal(unit_vector(x), x)
        assert np.array_equal(unit_vector(-arr), -x)


class TestProjectTangent:
    def test_already_tangent(self):
        assert np.array_equal(project_tangent(E1, E2).vec, E2)

    def test_radial_killed(self):
        assert np.allclose(project_tangent(E1, E1).vec, 0.0, atol=1e-12)

    def test_direct_evaluation(self):
        x = unit_vector([1.0, 1.0])
        tv = project_tangent(x, np.array([1.0, 0.0]))
        assert np.allclose(tv.vec, [0.5, -0.5], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_tangent(E1, np.ones(4))

    @given(vectors(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_orthogonal(self, coords, rnd):
        arr = np.asarray(coords)
        if np.linalg.norm(arr) < 1e-8:
            return
        x = unit_vector(arr)
        v = np.array([rnd.uniform(-5, 5) for _ in range(x.size)])
        once = project_tangent(x, v).vec
        twice = project_tangent(x, once).vec
        assert np.max(np.abs(twice - once)) < 1e-12
        assert abs(np.dot(x, once)) < 1e-10

    @given(vectors(), st.floats(-7, 7, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_radial_multiples_vanish(self, coords, c):
        arr = np.asarray(coords)
        if np.linalg.norm(arr) < 1e-8:
            return
        x = unit_vector(arr)
        assert np.max(np.abs(project_tangent(x, c * x).vec)) < 1e-12

    def test_projection_even_in_base_point(self):
        # P_x = P_{-x} entrywise, hence the projected vectors agree bitwise
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = random_unit_vector(4, rng)
            v = rng.standard_normal(4)
            a = project_tangent(x, v).vec
            b = project_tangent(antipode(x), v).vec
            assert np.array_equal(a, b)


class TestSphereDistance:
    @pytest.mark.parametrize(
        "x,y,expected",
        [(E1, E1, 0.0), (E1, -E1, np.pi), (E1, E2, np.pi / 2)],
    )
    def test_reference_pairs(self, x, y, expected):
        assert sphere_distance(x, y) == pytest.approx(expected, abs=1e-15)

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        x, y = random_unit_vector(5, rng), random_unit_vector(5, rng)
        assert sphere_distance(x, y) == sphere_distance(y, x)

    def test_clamps_collinear_roundoff(self):
        x = unit_vector([1.0, 1.0, 1.0])
        assert sphere_distance(x, x) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sphere_distance(E1, np.array([1.0, 0.0]))

    def test_nan_inner_product_stays_nan(self):
        # the clamp once turned NaN into -1, a distance of pi
        assert math.isnan(sphere_distance(np.array([1.0, 0.0]), np.array([math.nan, 0.0])))


class TestAntipode:
    def test_negation(self):
        assert np.array_equal(antipode(E1), -E1)

    def test_involution_bit_exact(self):
        rng = np.random.default_rng(7)
        x = random_unit_vector(6, rng)
        assert np.array_equal(antipode(antipode(x)), x)

    def test_inner_product_minus_one(self):
        rng = np.random.default_rng(8)
        x = random_unit_vector(3, rng)
        assert np.dot(x, antipode(x)) == pytest.approx(-1.0, abs=1e-15)


class TestSymmetricMatrix:
    def test_accepts_symmetric(self):
        m = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(symmetric_matrix(m), m)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_matrix([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_matrix(np.ones((2, 3)))


def test_fibonacci_sphere_on_sphere():
    pts = fibonacci_sphere(100)
    assert pts.shape == (100, 3)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
    # near-equidistribution: mean close to the origin
    assert np.linalg.norm(pts.mean(axis=0)) < 0.05
