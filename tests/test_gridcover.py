"""Cell indexing, covers of points and surfaces, and covering bounds."""

import math
import random
import re
from bisect import bisect_right
from itertools import product

import pytest

from antichains import (
    BoxDimensionFit,
    GridCover,
    Hyperplane,
    LinearGraph,
    LpSphere,
    NonFiniteError,
    PointCloud,
    PredicateRegion,
    SingularStaircase,
    TabulatedMonotone,
    alpha,
    box_dimension,
    classify,
    covering_bound,
    cube_index,
    d_const,
    grid_cover,
    random_weak_antichain,
    surface_measure,
    volume_ratio_curve,
)
from antichains.gridcover import _row

ANTIDIAG = Hyperplane(2)


def test_alpha_values():
    assert alpha(0) == 1.0
    assert abs(alpha(1) - 1.0) < 1e-12
    assert abs(alpha(2) - math.pi / 4) < 1e-12


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_alpha_rejects_non_finite_exponents(s):
    # alpha(nan) and alpha(inf) used to return NaN, and covering_bound(cover,
    # s=nan) failed only on the NaN value it computed
    with pytest.raises(NonFiniteError, match="^s must be finite$"):
        alpha(s)
    with pytest.raises(NonFiniteError, match="^s must be finite$"):
        covering_bound(GridCover(2, 2, frozenset({(1, 1)})), s=s)


def test_d_const_values():
    assert abs(d_const(1) - 1.0) < 1e-12
    assert abs(d_const(2) - math.sqrt(2)) < 1e-12
    assert abs(d_const(3) - 3 * math.pi / 4) < 1e-12


def test_sizes_below_their_least_value_are_rejected():
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        d_const(0)
    with pytest.raises(ValueError, match="^m must be >= 1$"):
        cube_index((0.5,), 0)
    # grid_cover(PointCloud(0, ()), 4) used to return a cover of dim 0, which
    # GridCover itself rejects, and volume_ratio_curve(PointCloud(-1, ()),
    # [2, 4]) returned [0.0, 0.0]
    for dim in (0, -1):
        with pytest.raises(ValueError, match="^dim must be >= 1$"):
            PointCloud(dim, ())


def test_cube_index_examples():
    assert cube_index((0.0, 0.0), 2) == (1, 1)
    assert cube_index((0.5, 0.5), 2) == (2, 2)
    assert cube_index((1.0, 1.0), 3) == (3, 3)


def test_cube_index_puts_rationals_in_their_exact_cells():
    # c/k lies in cell floor(c*m/k) + 1; on a face c/k = j/m both sides round
    # to the same float, and off a face they differ by far more than a
    # rounding error, so the float faces decide exactly
    for k in range(1, 61):
        for c in range(k):
            for m in range(1, 61):
                assert cube_index((c / k,), m) == (min(c * m // k, m - 1) + 1,), (c, k, m)


def test_row_is_bisection_over_the_faces():
    for m in range(1, 130):
        faces = [j / m for j in range(1, m)]
        for face in (0.0, *faces, 1.0):
            for v in (math.nextafter(face, -1.0), face, math.nextafter(face, 2.0)):
                if 0.0 <= v <= 1.0:
                    assert _row(v, m) == bisect_right(faces, v) + 1, (v, m)


def test_point_on_a_surface_lies_in_its_cover():
    # 0.29 * 100 rounds below 29, but 0.29 is the face 29/100 itself
    point = (0.5, 0.29)
    for surface in (
        TabulatedMonotone(2, (((0.0,), 0.29),)),
        LinearGraph((0.0,), offset=0.29),
    ):
        assert cube_index(point, 100) in grid_cover(surface, 100).indices


def test_cube_index_errors():
    with pytest.raises(ValueError):
        cube_index((1.5,), 2)
    with pytest.raises(ValueError):
        cube_index((-0.1,), 2)


def test_point_cloud_covers():
    assert grid_cover(PointCloud(2, ((0.0, 0.0),)), 7).indices == {(1, 1)}
    corner = grid_cover(PointCloud(2, ((1.0, 1.0),)), 3)
    assert corner.indices == {(3, 3)}
    assert corner.exact


def test_point_cloud_stores_tuples():
    cloud = PointCloud(2, [[0.5, 0.25], (1.0, 0.0)])
    assert cloud.points == ((0.5, 0.25), (1.0, 0.0))
    assert cloud == PointCloud(2, ((0.5, 0.25), (1.0, 0.0)))
    assert hash(cloud) == hash(PointCloud(2, cloud.points))


def test_antidiagonal_cover_m2_by_hand():
    cov = grid_cover(ANTIDIAG, 2)
    assert cov.indices == {(1, 2), (2, 2), (2, 1)}


def test_antidiagonal_cover_counts():
    for m in range(2, 65):
        assert len(grid_cover(ANTIDIAG, m)) == 2 * m - 1, m


def test_planar_sphere_meets_2m_minus_1_cells():
    # the arc from (0, 1) to (1, 0) crosses each inner face once per axis,
    # so it meets 2m - 1 cells; where it passes through a grid corner (p = 2,
    # m = 13: 5^2 + 12^2 = 13^2) it meets the cell whose lower corner that is
    for p in (1, 2, 3, 4, 8, 16, 64, 1000):
        for m in range(1, 65):
            assert len(grid_cover(LpSphere(2, p), m)) == 2 * m - 1, (p, m)


def test_sphere_corner_lies_in_the_cell_above_it():
    # 8^2 + 12^2 + 9^2 = 17^2: the corner (8, 12, 9)/17 is in cell
    # (9, 13, 10), and (8, 12, 9) only touches the sphere at its open corner
    cells = grid_cover(LpSphere(3, 2), 17).indices
    assert (9, 13, 10) in cells and (8, 12, 9) not in cells


def test_huge_exponent_covers_the_shell():
    # (7/8)^1e300 is 0, so the cells with a coordinate 8 are the cover, and
    # no power of 1e300 digits is formed
    cells = grid_cover(LpSphere(3, 1e300), 8).indices
    assert cells == {d for d in product(range(1, 9), repeat=3) if 8 in d}
    assert len(cells) == 169


def test_covering_bound_examples():
    cov = grid_cover(ANTIDIAG, 2)
    est = covering_bound(cov)
    assert est.upper_bound_only and est.method == "covering"
    assert abs(est.value - 3 * math.sqrt(2) / 2) < 1e-12

    single = grid_cover(PointCloud(2, ((0.25, 0.25),)), 10)
    assert abs(covering_bound(single).value - math.sqrt(2) / 10) < 1e-12


def test_covering_sum_can_lie_below_the_measure():
    # a covering sum bounds the measure only in the limit of fine grids; at
    # m = 1 these exact one-cell covers give less than the measure
    for surface, cover_sum, measure in (
        (SingularStaircase(12), 1.4142, 1.9923),
        (LpSphere(3, 50), 2.3562, 2.9334),
    ):
        est = covering_bound(grid_cover(surface, 1))
        true = surface_measure(surface, 1e-3)
        assert round(est.value, 4) == cover_sum and round(true.value, 4) == measure
        assert est.value < true.value - true.error_bound


def test_covering_bound_explicit_exponent():
    # a 1-dimensional cover of the full interval bounds its length by 1
    full = GridCover(8, 1, frozenset((j,) for j in range(1, 9)))
    assert abs(covering_bound(full, s=1).value - 1.0) < 1e-12
    with pytest.raises(ValueError):
        covering_bound(full)  # default exponent dim-1 needs dim >= 2


@pytest.mark.parametrize(
    "m,dim,bad",
    [
        (4, 2, (1, 2, 3)),  # too long
        (4, 2, (3,)),  # too short
        (4, 3, (2, 0, 1)),  # coordinate 0
        (4, 3, (5, 1, 1)),  # coordinate m+1
        (1, 1, (2,)),
    ],
)
def test_grid_cover_rejects_bad_index(m, dim, bad):
    good = {(1,) * dim, (m,) * dim}
    with pytest.raises(ValueError) as err:
        GridCover(m, dim, frozenset(good | {bad}))
    assert str(err.value) == f"index {bad} outside [1,{m}]^{dim}"


def test_grid_cover_accepts_full_grid_and_empty_set():
    assert len(GridCover(3, 2, frozenset(product(range(1, 4), repeat=2)))) == 9
    assert len(GridCover(5, 4, frozenset())) == 0
    with pytest.raises(ValueError, match="^cover needs m >= 1 and dim >= 1$"):
        GridCover(0, 2, frozenset())


# each route of grid_cover at m = 1..24 (1..12 in four dimensions), with
# points and samples on the cube's faces and corners
TRUSTED_TARGETS = [
    (Hyperplane(3), 24),
    (Hyperplane(4), 12),
    (LpSphere(3, 2.5), 24),
    (LpSphere(4, 3), 12),
    (LinearGraph((-0.5, -0.3), offset=0.9), 24),
    (LinearGraph((1.5,), offset=-0.3), 24),
    (
        TabulatedMonotone(
            3, (((0.0, 0.0), 1.0), ((0.5, 0.25), 0.5), ((0.25, 0.75), 0.25), ((1.0, 1.0), 0.0))
        ),
        24,
    ),
    (SingularStaircase(4), 24),
    (PointCloud(3, ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, 1.0, 0.0), (0.3, 0.7, 0.2))), 24),
    (PredicateRegion(2, lambda x: abs(x[0] ** 2 + x[1] ** 2 - 0.5) < 0.05), 24),
]


@pytest.mark.parametrize(
    "target, top",
    TRUSTED_TARGETS,
    ids=[f"{type(t).__name__}-{i}" for i, (t, _) in enumerate(TRUSTED_TARGETS)],
)
def test_trusted_covers_pass_the_checking_constructor(target, top):
    # grid_cover skips GridCover's index check; every cover it builds must
    # still pass it unchanged
    for m in range(1, top + 1):
        cov = grid_cover(target, m)
        assert cov.indices, m
        assert GridCover(cov.m, cov.dim, cov.indices, cov.exact) == cov, m


def test_trusted_skips_the_index_check():
    bad = frozenset({(1, 1), (0, 2)})
    cov = GridCover._trusted(2, 2, bad, exact=False)
    assert (cov.m, cov.dim, cov.indices, cov.exact) == (2, 2, bad, False)
    with pytest.raises(ValueError, match=r"^index \(0, 2\) outside \[1,2\]\^2$"):
        GridCover(2, 2, bad)


@pytest.mark.parametrize("m", [2.5, 2.0, True, False])
def test_non_int_resolution_is_rejected(m):
    message = f"^m must be an int, got {re.escape(repr(m))}$"
    for target in (
        PointCloud(1, ((0.9,), (0.1,))),
        PredicateRegion(2, lambda x: True),
        LpSphere(3, 2),
    ):
        with pytest.raises(ValueError, match=message):
            grid_cover(target, m)
        with pytest.raises(ValueError, match="^m must be >= 1$"):
            grid_cover(target, 0)
    with pytest.raises(ValueError, match=message):
        GridCover(m, 1, frozenset())
    with pytest.raises(ValueError, match=message):
        cube_index((0.9,), m)


@pytest.mark.parametrize("dim", [1.5, 2.0, True, False])
def test_non_int_dimension_is_rejected(dim):
    message = f"^dim must be an int, got {re.escape(repr(dim))}$"
    with pytest.raises(ValueError, match=message):
        GridCover(2, dim, frozenset())
    # PredicateRegion(2.5, f) and PointCloud(1.5, ()) used to build, and
    # grid_cover made covers of them that skip GridCover's check
    with pytest.raises(ValueError, match=message):
        PredicateRegion(dim, lambda x: True)
    with pytest.raises(ValueError, match=message):
        PointCloud(dim, ())
    with pytest.raises(ValueError, match=f"^samples_per_axis must be an int, got {re.escape(repr(dim))}$"):
        PredicateRegion(2, lambda x: True, samples_per_axis=dim)
    # d_const(2.5) used to return 1.80
    with pytest.raises(ValueError, match=f"^n must be an int, got {re.escape(repr(dim))}$"):
        d_const(dim)


@pytest.mark.parametrize("budget", [math.nan, math.inf, 100.0, True])
def test_non_int_budget_is_rejected(budget):
    # every comparison with NaN is False, so grid_cover(Hyperplane(3), 4,
    # budget=nan) used to return its 34 cells and a predicate ran unbounded
    message = f"^budget must be an int, got {re.escape(repr(budget))}$"
    for target in (Hyperplane(3), PredicateRegion(2, lambda x: True), PointCloud(1, ((0.5,),))):
        with pytest.raises(ValueError, match=message):
            grid_cover(target, 4, budget=budget)
    with pytest.raises(ValueError, match="^budget must be >= 0$"):
        grid_cover(Hyperplane(3), 4, budget=-1)


def test_chained_projection_bound_and_dim_bound():
    # covering bound of each surface against the projection route and the
    # dimension constant, at every tested resolution; both surfaces project
    # onto the full unit interval in each direction
    D = d_const(2)
    for surface in (ANTIDIAG, LpSphere(2, 2), LpSphere(2, 8)):
        for m in (2, 4, 8, 16, 32, 64):
            left = covering_bound(grid_cover(surface, m)).value
            proj_cover = GridCover(m, 1, frozenset((j,) for j in range(1, m + 1)))
            right = D * 2 * covering_bound(proj_cover, s=1).value
            assert left <= right + 1e-12
            assert left <= D * 2 + 1e-12  # the finiteness bound D*n at n = 2


def test_volume_ratio_antidiagonal():
    ratios = volume_ratio_curve(ANTIDIAG, [2, 4, 8, 16])
    assert ratios == [3 / 4, 7 / 16, 15 / 64, 31 / 256]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_volume_ratio_full_square_and_point():
    square = PredicateRegion(2, lambda x: True)
    assert volume_ratio_curve(square, [2, 5, 9]) == [1.0, 1.0, 1.0]
    point = PointCloud(2, ((0.3, 0.6),))
    assert volume_ratio_curve(point, [2, 4]) == [1 / 4, 1 / 16]


def test_predicate_cover_is_flagged():
    disc = PredicateRegion(2, lambda x: x[0] ** 2 + x[1] ** 2 <= 1.0)
    cov = grid_cover(disc, 8)
    assert not cov.exact
    assert len(cov) <= 64


def test_box_dimension_examples():
    fit = box_dimension(ANTIDIAG, [8, 16, 32, 64])
    assert abs(fit.dimension - 1.0) <= 0.05
    assert fit.counts == (15, 31, 63, 127)

    square = box_dimension(PredicateRegion(2, lambda x: True), [4, 8, 16])
    assert abs(square.dimension - 2.0) < 1e-9

    point = box_dimension(PointCloud(2, ((0.5, 0.5),)), [2, 4, 8])
    assert point.dimension == 0.0


def _speck(c):
    # a square of side 2e-3 at (c, c), which only the sample (c, c) finds
    return PredicateRegion(2, lambda x: abs(x[0] - c) < 1e-3 and abs(x[1] - c) < 1e-3)


def test_box_dimension_rejects_a_cover_empty_at_some_resolutions():
    # m = 1 samples (0.125, 0.125), m = 2 samples (0.0625, 0.0625)
    assert len(grid_cover(_speck(0.125), 1)) == 1
    assert len(grid_cover(_speck(0.125), 2)) == 0
    with pytest.raises(ValueError, match="^cover is empty at m=2 but not at every resolution$"):
        box_dimension(_speck(0.125), (1, 2))
    with pytest.raises(ValueError, match="^cover is empty at m=1 but not at every resolution$"):
        box_dimension(_speck(0.0625), (1, 2))
    with pytest.raises(ValueError, match="^cover is empty at m=4 "):
        box_dimension(_speck(0.125), (1, 4, 2))


def test_box_dimension_of_an_empty_target_is_zero():
    fit = box_dimension(PredicateRegion(2, lambda x: False), (1, 2, 4))
    assert fit == BoxDimensionFit(0.0, 0.0, (0, 0, 0))


def test_box_dimension_needs_two_resolutions():
    with pytest.raises(ValueError):
        box_dimension(ANTIDIAG, [4, 4])


def test_cover_contains_all_listed_points():
    rng = random.Random(31)
    for _ in range(50):
        dim = rng.randint(1, 3)
        pts = tuple(
            tuple(rng.random() for _ in range(dim)) for _ in range(rng.randint(1, 10))
        )
        m = rng.randint(1, 9)
        cov = grid_cover(PointCloud(dim, pts), m)
        for p in pts:
            assert cube_index(p, m) in cov.indices


def test_cover_cells_stay_near_the_points():
    # every point of the covered region lies within sqrt(n)/m of the set
    rng = random.Random(37)
    pts = tuple((rng.random(), rng.random()) for _ in range(6))
    m = 5
    cov = grid_cover(PointCloud(2, pts), m)
    for d in cov.indices:
        for off in product((0.25, 0.75), repeat=2):
            sample = tuple((di - 1 + oi) / m for di, oi in zip(d, off))
            dist = min(math.dist(sample, p) for p in pts)
            assert dist <= math.sqrt(2) / m + 1e-12


def test_weak_antichain_cover_is_weak_antichain_in_index_space():
    for seed in range(12):
        A = random_weak_antichain(2, 6, 8, seed=seed)
        cloud = PointCloud(2, tuple(tuple(c / 6 for c in p) for p in A))
        for m in (3, 5, 8):
            cov = grid_cover(cloud, m)
            assert classify(cov.indices).is_weak_antichain, (seed, m)


def test_lpsphere_cover_matches_parametric_sampling():
    s = LpSphere(2, 2.0)
    for m in (3, 7, 12):
        exact = grid_cover(s, m)
        sampled = set()
        steps = 4000
        for i in range(steps + 1):
            theta = math.pi / 2 * i / steps
            x, y = math.cos(theta), math.sin(theta)
            sampled.add(cube_index((min(x, 1.0), min(y, 1.0)), m))
        assert sampled <= exact.indices
        assert len(exact) <= len(sampled) + 2


def test_linear_graph_covers_by_hand():
    flat = LinearGraph(gradient=(0.0,), offset=0.5)
    assert grid_cover(flat, 2).indices == {(1, 2), (2, 2)}
    diag = LinearGraph(gradient=(1.0,))
    assert grid_cover(diag, 2).indices == {(1, 1), (2, 2)}
    down = LinearGraph(gradient=(-1.0,), offset=1.0)
    assert grid_cover(down, 2).indices == {(1, 2), (2, 2), (2, 1)}


def test_linear_graph_cover_respects_base_boxes():
    # base boxes are closed, so x = 0.5 itself contributes the third cell
    half = LinearGraph(gradient=(0.0,), base=(((0.0, 0.5),),), offset=0.25)
    cov = grid_cover(half, 4)
    assert cov.indices == {(1, 2), (2, 2), (3, 2)}


def test_staircase_cover_depth_zero_matches_antidiagonal():
    # only at some m: the staircase rows by the float faces, the hyperplane
    # by the rational ones, and these m are among the 24 of 1..300 where the
    # two covers agree (they first differ at m = 5)
    for m in (2, 3, 8, 16):
        assert grid_cover(SingularStaircase(0), m).indices == grid_cover(ANTIDIAG, m).indices


def test_p1_sphere_cover_matches_antidiagonal():
    # the p = 1 sphere is the anti-diagonal, and both decide in integers on
    # the rational faces, the sphere on the power table c^1 against m
    for m in range(1, 65):
        assert grid_cover(LpSphere(2, 1), m).indices == grid_cover(ANTIDIAG, m).indices


def test_staircase_cover_contains_vertices():
    from antichains import staircase_polyline

    s = SingularStaircase(3)
    m = 9
    cov = grid_cover(s, m)
    for v in staircase_polyline(3):
        assert cube_index(v, m) in cov.indices
