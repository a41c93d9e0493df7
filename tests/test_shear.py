"""The shear map, its inverse, and sampled Lipschitz ratio checks."""

import math
import random

import pytest

from antichains import (
    SHEAR_INVERSE,
    SKEW_INVERSE_2D,
    LipschitzBoundExceeded,
    NonFiniteError,
    ShearParams,
    classify,
    lipschitz_sample_check,
    random_weak_antichain,
    rescale_to_unit,
    shear,
    shear_inverse,
    shear_points,
)


def test_shear_examples():
    params = ShearParams(2, 0.1)
    assert shear((1, 0), params) == pytest.approx((0.9, -0.1))
    assert shear((0, 0), params) == (0.0, 0.0)
    assert shear((1, 1), params) == pytest.approx((0.8, 0.8))


def test_shear_adds_coordinates_left_to_right():
    # a compensated sum, as sum() is from CPython 3.12 on, would end the
    # first coordinate of each in ...7cp-5 and ...58p-3
    params = ShearParams(3, 0.1)
    assert shear((0.1, 0.2, 0.3), params)[0].hex() == "0x1.47ae147ae147ap-5"
    assert shear_inverse((0.1, 0.2, 0.3), params)[0].hex() == "0x1.7c57c57c57c59p-3"


def test_shear_sum_identity():
    params = ShearParams(2, 0.1)
    image = shear((1, 0), params)
    assert sum(image) == pytest.approx((1 - 2 * 0.1) * 1)


def test_shear_sum_identity_random():
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randint(1, 5)
        params = ShearParams(n, rng.uniform(1e-4, 1 / (2 * n) - 1e-4))
        x = tuple(rng.uniform(0, 1) for _ in range(n))
        image = shear(x, params)
        assert abs(sum(image) - (1 - n * params.epsilon) * sum(x)) <= 1e-12


def test_shear_stays_in_doubled_cube():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 4)
        params = ShearParams(n, rng.uniform(1e-4, 1 / (2 * n) - 1e-4))
        x = tuple(rng.uniform(0, 1) for _ in range(n))
        assert all(-1.0 - 1e-12 <= c <= 1.0 + 1e-12 for c in shear(x, params))


def test_shear_inverse_examples():
    params = ShearParams(2, 0.1)
    assert shear_inverse((0.9, -0.1), params) == pytest.approx((1.0, 0.0))
    assert shear_inverse((0.0, 0.0), params) == (0.0, 0.0)


def test_shear_roundtrip():
    rng = random.Random(9)
    for _ in range(1000):
        n = rng.randint(1, 5)
        params = ShearParams(n, rng.uniform(1e-4, 1 / (2 * n) - 1e-4))
        x = tuple(rng.uniform(-2, 2) for _ in range(n))
        back = shear_inverse(shear(x, params), params)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(x, back))


def test_shear_params_validation():
    with pytest.raises(ValueError):
        ShearParams(2, 0.0)
    with pytest.raises(ValueError):
        ShearParams(2, 0.25)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        ShearParams(0, 0.1)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        rescale_to_unit([(1,)], 0)
    assert ShearParams(2, 0.1).inverse_lipschitz == pytest.approx(1 / math.sqrt(0.6))


@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_non_int_dimension_and_side_are_rejected(bad):
    # ShearParams(1.5, 0.1) used to build, and rescale_to_unit([(1,)], 2.5)
    # to return [(0.4,)]
    message = f"must be an int, got {bad!r}$"
    with pytest.raises(ValueError, match="^n " + message):
        ShearParams(bad, 0.1)
    with pytest.raises(ValueError, match="^k " + message):
        rescale_to_unit([(1,)], bad)


@pytest.mark.parametrize("point", [(math.nan,), (1, math.inf), (-math.inf, 0)])
def test_rescale_rejects_non_finite_coordinates(point):
    # [(nan,)] used to come back as [(nan,)]
    with pytest.raises(NonFiniteError, match="^point coordinates must be finite$"):
        rescale_to_unit([(0, 1), point], 2)


def test_shear_dimension_mismatch():
    with pytest.raises(ValueError):
        shear((1, 2, 3), ShearParams(2, 0.1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_shear_and_inverse_reject_non_finite_points(bad):
    # shear((nan, 0.2), p) used to return (nan, nan) and
    # shear_inverse((inf, 0.2), p) (inf, inf)
    params = ShearParams(2, 0.1)
    for f in (shear, shear_inverse):
        for x in ((bad, 0.2), (0.2, bad)):
            with pytest.raises(NonFiniteError, match="^point must be finite$"):
                f(x, params)
        # the length check still comes first
        with pytest.raises(ValueError, match="^point has dimension 3, expected 2$"):
            f((bad, 0.2, 0.3), params)


def test_sheared_weak_antichains_become_antichains():
    for seed in range(60):
        n = 2 + seed % 2
        k = 6
        A = random_weak_antichain(n, k, 8, seed=seed)
        params = ShearParams(n, 0.05)
        image = shear_points(rescale_to_unit(A, k), params)
        assert classify(image).is_antichain, seed


def test_rescale_preserves_strong_order():
    A = random_weak_antichain(3, 5, 10, seed=2)
    unit = rescale_to_unit(A, 5)
    assert classify(unit).is_weak_antichain
    assert all(0 <= c < 1 for p in unit for c in p)


def test_lipschitz_check_shear_inverse():
    params = ShearParams(2, 0.1)
    worst = lipschitz_sample_check(
        SHEAR_INVERSE, params.inverse_lipschitz, 2000, seed=0, params=params
    )
    assert 0 < worst <= params.inverse_lipschitz * (1 + 1e-12)


@pytest.mark.parametrize("n, epsilon", [(2, 0.2), (3, 0.1)])
def test_shear_inverse_sampled_ratio_is_the_exact_constant(n, epsilon):
    # the shear is I - epsilon * 11^T, with eigenvalues 1 and 1 - n*epsilon,
    # so its inverse's exact Lipschitz constant is 1/(1 - n*epsilon), below
    # inverse_lipschitz; the sampled maximum stays under it and reaches it
    params = ShearParams(n, epsilon)
    exact = 1 / (1 - n * epsilon)
    assert exact < params.inverse_lipschitz
    worst = lipschitz_sample_check(SHEAR_INVERSE, exact, 2000, seed=0, params=params)
    assert 0.98 * exact <= worst <= exact * (1 + 1e-12)


def test_lipschitz_check_skew_inverse_2d():
    worst = lipschitz_sample_check(SKEW_INVERSE_2D, 1.0, 2000, seed=1)
    assert 0 < worst <= 1.0 + 1e-12


def test_lipschitz_check_rejects_too_small_bound():
    params = ShearParams(2, 0.12)
    with pytest.raises(LipschitzBoundExceeded):
        lipschitz_sample_check(SHEAR_INVERSE, 1.0, 2000, seed=0, params=params)


def test_lipschitz_check_explicit_pairs_and_coincident_pairs():
    params = ShearParams(2, 0.1)
    # identical points record no ratio at all
    assert (
        lipschitz_sample_check(
            SHEAR_INVERSE,
            params.inverse_lipschitz,
            [((0.5, 0.5), (0.5, 0.5))],
            params=params,
        )
        == 0.0
    )
    worst = lipschitz_sample_check(
        SHEAR_INVERSE,
        params.inverse_lipschitz,
        [((0.0, 0.0), (1.0, 1.0)), ((0.3, 0.3), (0.3, 0.3))],
        params=params,
    )
    assert worst > 0


@pytest.mark.parametrize(
    "bad_pair",
    [
        ((math.nan, 0.0), (0.0, 0.0)),
        ((0.0, 0.0), (0.0, math.inf)),
        ((-math.inf, 0.0), (-math.inf, 0.0)),
    ],
)
def test_lipschitz_check_rejects_non_finite_pairs(bad_pair):
    # a NaN ratio listed first used to come back from max() as the result,
    # passing the bound and hiding the violating pair's ratio of 1.25
    params = ShearParams(2, 0.1)
    violating = ((0.0, 0.0), (0.5, 0.5))
    with pytest.raises(LipschitzBoundExceeded, match="1.25"):
        lipschitz_sample_check(SHEAR_INVERSE, 1.0, [violating], params=params)
    for pairs in ([bad_pair, violating], [violating, bad_pair]):
        with pytest.raises(NonFiniteError, match="^point must be finite$"):
            lipschitz_sample_check(SHEAR_INVERSE, 1.0, pairs, params=params)


def test_lipschitz_check_rejects_a_non_finite_ratio_of_finite_points():
    # the points are finite, but their distance overflows to inf and the
    # ratio is inf/inf; raised, not skipped, since no ratio was checked
    params = ShearParams(2, 0.1)
    violating = ((0.0, 0.0), (0.5, 0.5))
    overflow = ((1e308, 0.0), (-1e308, 0.0))
    for pairs in ([overflow, violating], [violating, overflow]):
        with pytest.raises(NonFiniteError, match=r"^ratio of the pair .* must be finite$"):
            lipschitz_sample_check(SHEAR_INVERSE, 1.0, pairs, params=params)
    # a large but finite pair still records its ratio, the map being linear
    bound = params.inverse_lipschitz
    large, unit = (
        lipschitz_sample_check(SHEAR_INVERSE, bound, [((c, 0.0), (-c, 0.0))], params=params)
        for c in (1e300, 1.0)
    )
    assert large == pytest.approx(unit, rel=1e-12)


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
def test_lipschitz_check_rejects_non_finite_bound(bound):
    # a NaN bound used to let every ratio pass (1.67 came back where 0.5 raises)
    params = ShearParams(2, 0.2)
    with pytest.raises(LipschitzBoundExceeded):
        lipschitz_sample_check(SHEAR_INVERSE, 0.5, 50, params=params)
    for kind, kwargs in ((SHEAR_INVERSE, {"params": params}), (SKEW_INVERSE_2D, {})):
        with pytest.raises(NonFiniteError, match="^bound must be finite$"):
            lipschitz_sample_check(kind, bound, 50, **kwargs)


@pytest.mark.parametrize("kind", [SHEAR_INVERSE, SKEW_INVERSE_2D])
@pytest.mark.parametrize("pairs", [0, -5, True, False])
def test_lipschitz_check_refuses_pair_counts_below_one(kind, pairs):
    # a count of 0 or less used to return 0.0 having checked nothing
    with pytest.raises(ValueError, match="^pairs must be"):
        lipschitz_sample_check(kind, 10.0, pairs, params=ShearParams(2, 0.1))


def test_lipschitz_check_argument_validation():
    with pytest.raises(ValueError):
        lipschitz_sample_check("mystery-map", 1.0, 10)
    with pytest.raises(ValueError):
        lipschitz_sample_check(SHEAR_INVERSE, 1.0, 10)  # params missing
    with pytest.raises(ValueError):
        lipschitz_sample_check(SKEW_INVERSE_2D, 0.0, 10)
