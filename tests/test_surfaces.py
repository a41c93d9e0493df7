"""Surface families: measures, projections, the inequality, and skewed projections.

Run as a script, ``python tests/test_surfaces.py`` compares the depth-20
staircase vertices with the two-list builder they replaced, bit for bit.
"""

import dataclasses
import hashlib
import inspect
import math
import random
import re
import tracemalloc
from array import array
from bisect import bisect_left
from fractions import Fraction
from itertools import chain

import pytest

from antichains import (
    Hyperplane,
    LinearGraph,
    LpSphere,
    MeasureEstimate,
    NonFiniteError,
    SingularStaircase,
    TabulatedMonotone,
    facet_union_measure,
    format_surface_descriptor,
    graph_value,
    grid_cover,
    irwin_hall_cdf,
    monotone_extension,
    parse_surface_descriptor,
    projection_measure,
    skew_measures_2d,
    slab_volume,
    staircase_polyline,
    surface_dim,
    surface_measure,
    surface_measure_quadrature,
    verify_projection_inequality,
    volume_ratio_curve,
)
from antichains import surfaces
from antichains.quadrature import integrate_adaptive


# frozen staircase-length oracle: 2^k steep pieces of size (3^-k, 2^-k) plus
# flats totalling 1 - (2/3)^k give 1 - (2/3)^k + sqrt(1 + (4/9)^k)
def _staircase_length(k: int) -> float:
    return 1 - (2 / 3) ** k + math.sqrt(1 + (4 / 9) ** k)


def test_irwin_hall_cdf_hand_values():
    assert irwin_hall_cdf(1, 0.3) == pytest.approx(0.3)
    assert irwin_hall_cdf(2, 0.5) == pytest.approx(0.125)
    assert irwin_hall_cdf(2, 1.5) == pytest.approx(0.875)
    assert irwin_hall_cdf(3, 1.0) == pytest.approx(1 / 6)
    assert irwin_hall_cdf(3, 2.0) == pytest.approx(5 / 6)
    assert irwin_hall_cdf(4, -1.0) == 0.0
    assert irwin_hall_cdf(4, 9.0) == 1.0


def test_irwin_hall_cdf_monte_carlo():
    rng = random.Random(101)
    n, t, trials = 3, 1.4, 40_000
    hits = sum(sum(rng.random() for _ in range(n)) <= t for _ in range(trials))
    p = irwin_hall_cdf(n, t)
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 4 * se


def test_slab_volume_examples():
    assert slab_volume(1, 0.5) == pytest.approx(0.5)
    assert slab_volume(2, 1.0) == 0.75
    assert slab_volume(2, 2.0) == pytest.approx(1.0)


def _exact_irwin_hall(n, t):
    # the inclusion-exclusion sum in fractions, the rounding left to float()
    t = Fraction(t)
    if t <= 0:
        return Fraction(0)
    if t >= n:
        return Fraction(1)
    terms = ((-1) ** k * math.comb(n, k) * (t - k) ** n for k in range(math.floor(t) + 1))
    return sum(terms) / math.factorial(n)


def test_irwin_hall_sums_are_correctly_rounded():
    rng = random.Random(34)
    for _ in range(300):
        n = rng.randrange(1, 60)
        t = rng.choice((rng.uniform(-1.0, n + 1.0), rng.randrange(2 * n + 1) / 2))
        assert irwin_hall_cdf(n, t) == float(_exact_irwin_hall(n, t)), (n, t)
        c = rng.choice((rng.uniform(0.0, n), float(rng.randrange(n + 1)), 1.0, 0.0))
        exact = _exact_irwin_hall(n, (n + Fraction(c)) / 2) - _exact_irwin_hall(
            n, (n - Fraction(c)) / 2
        )
        assert slab_volume(n, c) == float(exact), (n, c)


def test_irwin_hall_sums_do_not_cancel_at_large_n():
    # the float inclusion-exclusion printed 1.694291718123469 here (23%
    # high), -17424.848185166087 for the slab, and overflowed at n = 200
    assert surface_measure(Hyperplane(100)).value == 1.3799020407550002
    assert projection_measure(Hyperplane(100), 1).value == 0.13799020407550003
    assert slab_volume(120, 2.0) == 0.24788010680775246
    assert 0 < slab_volume(200, 1.0) < 1
    assert 0 < surface_measure(Hyperplane(1001)).value < 2
    assert surfaces._hyperplane_base_measure(4) == 2 / 3


@pytest.mark.parametrize(
    "call",
    [
        lambda: irwin_hall_cdf(1001, 0.5),
        lambda: slab_volume(1001, 1.0),
        lambda: surface_measure(Hyperplane(1002)),
        lambda: projection_measure(Hyperplane(1002), 1),
    ],
)
def test_irwin_hall_sums_refuse_n_above_their_limit(call):
    with pytest.raises(ValueError, match="exceeds the limit of 1000$"):
        call()


def test_slab_volume_range_check():
    with pytest.raises(ValueError):
        slab_volume(2, -0.1)
    with pytest.raises(ValueError):
        slab_volume(2, 2.5)


def test_monotone_extension_examples():
    t = TabulatedMonotone(2, (((0.2,), 0.8), ((0.6,), 0.3)))
    assert monotone_extension(t, (0.1,)) == 1.0  # nothing below: empty min is 1
    assert monotone_extension(t, (0.2,)) == 0.8  # agrees with the samples
    assert monotone_extension(t, (0.7,)) == 0.3


def test_monotone_extension_is_order_reversing():
    rng = random.Random(5)
    pts = tuple(
        ((rng.random(), rng.random()), rng.random()) for _ in range(8)
    )
    samples = []
    for (x, y), v in sorted(pts):
        # force order-reversing values by descending sort along a chain
        samples.append(((x, y), v))
    values = sorted((v for _, v in samples), reverse=True)
    t = TabulatedMonotone(3, tuple((pt, v) for (pt, _), v in zip(sorted(pts), values)))
    for _ in range(200):
        a = (rng.random(), rng.random())
        b = (min(a[0] + rng.random() * 0.3, 1.0), min(a[1] + rng.random() * 0.3, 1.0))
        assert monotone_extension(t, a) >= monotone_extension(t, b)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedMonotone(2, (((0.2,), 0.3), ((0.6,), 0.8)))  # increasing
    with pytest.raises(ValueError):
        TabulatedMonotone(2, (((0.2,), 1.3),))
    with pytest.raises(ValueError):
        TabulatedMonotone(2, (((0.2,), 0.5), ((0.2,), 0.4)))


def test_hyperplane_closed_forms():
    assert surface_measure(Hyperplane(2)).value == pytest.approx(math.sqrt(2), abs=1e-12)
    assert surface_measure(Hyperplane(3)).value == pytest.approx(3 * math.sqrt(3) / 4, abs=1e-12)
    # n = 4 by hand: sqrt(4) * (F_3(2) - F_3(1)) = 2 * (5/6 - 1/6) = 4/3
    assert surface_measure(Hyperplane(4)).value == pytest.approx(4 / 3, abs=1e-12)


def test_hyperplane_quadrature_cross_check():
    for n in (2, 3, 4):
        closed = surface_measure(Hyperplane(n)).value
        quad = surface_measure_quadrature(Hyperplane(n))
        assert abs(quad.value - closed) <= quad.error_bound + 1e-9, n


def test_float_sums_add_left_to_right():
    # each value differs in its last bits where sum() is compensated, as it
    # is from CPython 3.12 on
    assert graph_value(Hyperplane(4), (0.1, 0.2, 0.9)).hex() == "0x1.9999999999998p-1"
    x = (0.1, 0.2, 0.3)
    assert graph_value(LpSphere(4, 1), x).hex() == "0x1.9999999999998p-2"
    assert graph_value(LinearGraph((1.0, 1.0, 1.0)), x).hex() == "0x1.3333333333334p-1"
    hyperplane = surface_measure_quadrature(Hyperplane(5), 1e-2)
    assert hyperplane.error_bound.hex() == "0x1.4deb635869d56p-8"
    sphere = surface_measure(LpSphere(4, 4), tol=0.5)
    assert (sphere.value.hex(), sphere.error_bound.hex()) == (
        "0x1.2d835a13412a6p+1",
        "0x1.74855d8588757p-5",
    )


# one surface of each family over the base cube [0,1]^2, but the staircase over [0,1]
_GRAPHS = [
    Hyperplane(3),
    LpSphere(3, 2),
    LinearGraph((1.0, -0.5)),
    TabulatedMonotone(3, (((0.2, 0.3), 0.5),)),
    SingularStaircase(2),
]


@pytest.mark.parametrize("s", _GRAPHS, ids=lambda s: type(s).__name__)
def test_graph_value_checks_its_point(s):
    d = surface_dim(s) - 1
    for x in ((0.0,) * d, (1.0,) * d, (0.5,) * d):
        assert math.isfinite(graph_value(s, x))
    for x in ((), (0.5,) * (d - 1), (0.5,) * (d + 1)):
        with pytest.raises(ValueError, match=f"must have {d} coordinates$"):
            graph_value(s, x)
    for bad in (-0.1, 1.5, -1e-300, 1.0000000000000002):
        with pytest.raises(ValueError, match="outside the unit cube$") as info:
            graph_value(s, (0.5,) * (d - 1) + (bad,))
        assert not isinstance(info.value, NonFiniteError)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteError, match="^point coordinates must be finite$"):
            graph_value(s, (bad,) + (0.5,) * (d - 1))


def test_monotone_extension_checks_its_point():
    t = TabulatedMonotone(2, (((0.2,), 0.8),))
    with pytest.raises(ValueError, match="must have 1 coordinates$"):
        monotone_extension(t, (0.5, 0.5))
    with pytest.raises(ValueError, match="outside the unit cube$"):
        monotone_extension(t, (1.5,))
    with pytest.raises(NonFiniteError):
        monotone_extension(t, (math.nan,))


def test_hyperplane_projections():
    est = projection_measure(Hyperplane(2), 1)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    for axis in (1, 2, 3):
        assert projection_measure(Hyperplane(3), axis).value == pytest.approx(0.75)


def test_linear_graph_measures():
    assert surface_measure(LinearGraph(gradient=(0.0,))).value == pytest.approx(1.0)
    assert surface_measure(LinearGraph(gradient=(1.0,))).value == pytest.approx(math.sqrt(2))
    assert projection_measure(LinearGraph(gradient=(0.5,)), 1).value == pytest.approx(0.5)
    assert projection_measure(LinearGraph(gradient=(0.5,)), 2).value == pytest.approx(1.0)


def test_linear_graph_multi_box_base():
    s = LinearGraph(
        gradient=(2.0, 0.0),
        base=(
            ((0.0, 0.25), (0.0, 1.0)),
            ((0.5, 0.75), (0.0, 0.5)),
        ),
    )
    vol = 0.25 + 0.125
    assert surface_measure(s).value == pytest.approx(math.sqrt(5) * vol)
    assert projection_measure(s, 1).value == pytest.approx(2 * vol)
    assert projection_measure(s, 3).value == pytest.approx(vol)


def test_constructors_store_tuples():
    # lists given to the constructors are stored as nested tuples, so the
    # surfaces hash, compare equal to their tuple twins and pass the checks
    # that compare with tuples
    graph = LinearGraph([-0.5], base=[[[0.0, 1.0]]], offset=0.9)
    assert graph == LinearGraph((-0.5,), offset=0.9)
    assert hash(graph) == hash(LinearGraph((-0.5,), offset=0.9))
    assert skew_measures_2d(graph).passes
    table = TabulatedMonotone(3, [([0.2, 0.3], 0.5), ([0.6, 0.1], 0.4)])
    assert table.samples == (((0.2, 0.3), 0.5), ((0.6, 0.1), 0.4))
    assert hash(table) == hash(TabulatedMonotone(3, table.samples))


def test_linear_graph_overlapping_base_rejected():
    with pytest.raises(ValueError):
        LinearGraph(gradient=(1.0,), base=(((0.0, 0.6),), ((0.5, 1.0),)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(NonFiniteError, match="gradient components must be finite"):
        LinearGraph(gradient=(-0.5, bad), offset=0.9)
    with pytest.raises(NonFiniteError, match="offset must be finite"):
        LinearGraph(gradient=(-0.5,), offset=bad)
    with pytest.raises(NonFiniteError, match="p must be finite"):
        LpSphere(2, bad)
    with pytest.raises(NonFiniteError):
        MeasureEstimate(bad, "closed-form")
    with pytest.raises(NonFiniteError):
        MeasureEstimate(1.0, "quadrature", bad)


_TOLERANCE_CALLS = [
    lambda tol: surface_measure(LpSphere(3, 2), tol),
    lambda tol: surface_measure(Hyperplane(3), tol),
    lambda tol: surface_measure_quadrature(Hyperplane(3), tol),
    lambda tol: projection_measure(LpSphere(3, 2), 1, tol),
    lambda tol: verify_projection_inequality(LpSphere(3, 2), tol),
    lambda tol: skew_measures_2d(LpSphere(2, 2), tol),
    lambda tol: integrate_adaptive(lambda x: 1.0, ((0.0, 1.0),), tol),
    lambda tol: integrate_adaptive(lambda x: 1.0, ((0.0, 1.0), (0.0, 1.0)), tol),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", _TOLERANCE_CALLS)
def test_non_finite_tolerances_rejected(call, bad):
    # a NaN used to run the sphere to the evaluation budget, and an infinite
    # tolerance let verification pass on an unbounded error
    with pytest.raises(NonFiniteError, match="tolerance must be finite"):
        call(bad)


@pytest.mark.parametrize("bad", [0.0, -0.0, -1e-3])
@pytest.mark.parametrize("call", _TOLERANCE_CALLS)
def test_non_positive_tolerances_rejected(call, bad):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        call(bad)


def test_quadrature_estimates_carry_convergence_and_work():
    est = surface_measure(LpSphere(3, 2), 1e-2)
    assert est.converged and est.evaluations > 0
    quad = surface_measure_quadrature(Hyperplane(3), 1e-2)
    assert quad.converged and quad.evaluations > 0
    arc = surface_measure(LpSphere(2, 2), 1e-6)
    assert arc.converged and arc.evaluations > 0
    closed = surface_measure(Hyperplane(3))
    assert closed.converged and closed.evaluations == 0


def test_unconverged_quadrature_is_flagged(monkeypatch):
    def starved(*args, **kwargs):
        return integrate_adaptive(*args, **kwargs, max_evals=200)

    monkeypatch.setattr(surfaces, "integrate_adaptive", starved)
    est = surface_measure(LpSphere(3, 2), 1e-3)
    assert not est.converged and est.error_bound > 1e-3
    assert 200 <= est.evaluations
    report = verify_projection_inequality(LpSphere(3, 2), 1e-3)
    assert not report.surface.converged
    assert not report.passes  # the left side would otherwise pass by its value
    assert report.surface.value <= report.right_total
    skew = skew_measures_2d(LpSphere(2, 2), 1e-6)
    assert not skew.surface.converged and not skew.passes


def test_quarter_circle_arc_length():
    est = surface_measure(LpSphere(2, 2), 1e-6)
    assert est.method == "quadrature"
    assert abs(est.value - math.pi / 2) <= est.error_bound + 1e-9
    assert abs(est.value - math.pi / 2) <= 1e-6


def test_p1_sphere_is_the_antidiagonal():
    est = surface_measure(LpSphere(2, 1), 1e-6)
    assert est.value == pytest.approx(math.sqrt(2), abs=1e-6)


def test_sphere_measures_increase_with_p():
    values = [surface_measure(LpSphere(2, p), 1e-6).value for p in (2, 4, 8, 16, 32, 64)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v <= 2.0 for v in values)
    assert values[0] > math.sqrt(2)


def test_octant_sphere_area():
    est = surface_measure(LpSphere(3, 2), 1e-3)
    assert abs(est.value - math.pi / 2) <= est.error_bound + 1e-9


def test_sphere_projections_fill_the_ball():
    assert projection_measure(LpSphere(2, 2), 1).value == pytest.approx(1.0)
    assert projection_measure(LpSphere(2, 7), 2).value == pytest.approx(1.0)
    # quarter disc in the base of the 3-dimensional round sphere
    assert projection_measure(LpSphere(3, 2), 2).value == pytest.approx(math.pi / 4)
    assert projection_measure(LpSphere(3, 1), 1).value == pytest.approx(0.5)


def test_tabulated_surface_measures():
    t = TabulatedMonotone(2, (((0.5,), 0.5),))
    assert surface_measure(t).value == 1.0
    assert projection_measure(t, 1).value == 0.0
    assert projection_measure(t, 2).value == 1.0


def test_pointwise_slope_inequality():
    rng = random.Random(61)
    for _ in range(500):
        g = [rng.uniform(-4, 4) for _ in range(rng.randint(1, 5))]
        assert math.sqrt(1 + sum(c * c for c in g)) <= 1 + sum(abs(c) for c in g) + 1e-12


def test_verify_hyperplane():
    report = verify_projection_inequality(Hyperplane(2))
    assert report.passes
    assert report.surface.value == pytest.approx(math.sqrt(2))
    assert report.right_total == pytest.approx(2.0)
    assert report.left_within_dim_bound and report.right_within_dim_bound


def test_verify_lpsphere():
    report = verify_projection_inequality(LpSphere(2, 8), 1e-6)
    assert report.passes
    assert math.sqrt(2) < report.surface.value < 2.0
    assert report.right_total == pytest.approx(2.0)


def test_verify_linear_graph():
    report = verify_projection_inequality(LinearGraph(gradient=(1.0,)))
    assert report.passes
    assert report.surface.value == pytest.approx(math.sqrt(2))
    assert report.right_total == pytest.approx(2.0)


def test_verify_tabulated_is_equality():
    t = TabulatedMonotone(2, (((0.3,), 0.7), ((0.8,), 0.1)))
    report = verify_projection_inequality(t)
    assert report.passes
    assert report.surface.value == pytest.approx(report.right_total)


def test_staircase_polyline_shape():
    verts = staircase_polyline(0)
    assert verts == [(0.0, 1.0), (1.0, 0.0)]
    verts = staircase_polyline(2)
    assert verts[0] == (0.0, 1.0) and verts[-1] == (1.0, 0.0)
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    assert xs == sorted(xs)
    assert ys == sorted(ys, reverse=True)


def test_staircase_lengths_match_frozen_oracle():
    for k in range(0, 13):
        est = surface_measure(SingularStaircase(k))
        assert est.value == pytest.approx(_staircase_length(k), abs=1e-12), k


def test_staircase_length_monotone_toward_two():
    lengths = [surface_measure(SingularStaircase(k)).value for k in range(0, 13)]
    assert lengths[0] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert all(a < b for a, b in zip(lengths, lengths[1:]))
    assert lengths[-1] >= 1.95
    assert all(v < 2.0 for v in lengths)


def test_staircase_polyline_is_a_fresh_list():
    expected = staircase_polyline(3)
    verts = staircase_polyline(3)
    verts[0] = (0.5, 0.5)
    verts.append((2.0, 2.0))
    assert staircase_polyline(3) == expected
    assert staircase_polyline(3) is not staircase_polyline(3)


def test_deep_staircase_builds_no_vertex_list():
    # covers, values and lengths walk the construction: a depth-20 polyline
    # of 2,097,152 vertices would take hundreds of MB
    s = SingularStaircase(20)
    for call in (
        lambda: grid_cover(s, 256),
        lambda: graph_value(s, (0.3,)),
        lambda: surface_measure(s),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("bad", [2.5, 3.0, True])
def test_non_int_dimensions_are_rejected(bad):
    # Hyperplane(2.5), LpSphere(3.0, 2) and TabulatedMonotone(2.5, ()) used to
    # build, and then surface_measure and verify_projection_inequality raised
    # raw TypeErrors; irwin_hall_cdf(2.5, 1.0) raised one too, and
    # facet_union_measure(2.5) returned 2.5; projection_measure(Hyperplane(3),
    # 2.5) returned a closed form for an axis that does not exist
    def message(name):
        return f"^{name} must be an int, got {re.escape(repr(bad))}$"

    for name, call in (
        ("n", lambda: Hyperplane(bad)),
        ("n", lambda: LpSphere(bad, 2)),
        ("dim", lambda: TabulatedMonotone(bad, ())),
        ("n", lambda: irwin_hall_cdf(bad, 1.0)),
        ("n", lambda: slab_volume(bad, 1.0)),
        ("n", lambda: facet_union_measure(bad)),
        ("axis", lambda: projection_measure(Hyperplane(3), bad)),
    ):
        with pytest.raises(ValueError, match=message(name)):
            call()


def test_dimension_below_one_is_rejected():
    for call in (
        lambda: irwin_hall_cdf(0, 0.5),
        lambda: slab_volume(0, 0.0),
        lambda: facet_union_measure(0),
    ):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            call()


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_irwin_hall_cdf_rejects_non_finite_t(t):
    # a NaN t used to raise a bare "cannot convert float NaN to integer"
    with pytest.raises(NonFiniteError, match="^t must be finite$"):
        irwin_hall_cdf(3, t)


@pytest.mark.parametrize("depth", [2.5, 3.0, True, False])
def test_non_int_depth_is_rejected(depth):
    message = f"^depth must be an int, got {re.escape(repr(depth))}$"
    with pytest.raises(ValueError, match=message):
        SingularStaircase(depth)
    with pytest.raises(ValueError, match=message):
        staircase_polyline(depth)


def _oracle_staircase_vertices(depth: int) -> tuple[tuple[float, float], ...]:
    # the builder that kept a rising vertex list beside the steep pieces
    steep = [(0.0, 0.0, 1.0, 1.0)]
    for _ in range(depth):
        nxt = []
        for x0, y0, x1, y1 in steep:
            third = (x1 - x0) / 3
            ym = (y0 + y1) / 2
            nxt.append((x0, y0, x0 + third, ym))
            nxt.append((x1 - third, ym, x1, y1))
        steep = nxt
    rising: list[tuple[float, float]] = [(0.0, 0.0)]
    for x0, y0, x1, y1 in steep:
        if (x0, y0) != rising[-1]:
            rising.append((x0, y0))
        rising.append((x1, y1))
    return tuple((x, 1.0 - y) for x, y in rising)


def _vertex_digest(vertices) -> tuple[int, str]:
    """Vertex count and a hash of every coordinate's bits, so -0.0 and 0.0 differ."""
    bits = array("d", chain.from_iterable(vertices)).tobytes()
    return len(vertices), hashlib.sha256(bits).hexdigest()


def _assert_staircase_vertices_match_oracle(depth: int) -> None:
    # one polyline alive at a time: at depth 20 each builder peaks at
    # several hundred MB
    expected = _vertex_digest(_oracle_staircase_vertices(depth))
    assert _vertex_digest(staircase_polyline(depth)) == expected, depth


def test_staircase_vertices_match_two_list_builder():
    for depth in range(13):
        _assert_staircase_vertices_match_oracle(depth)


def test_staircase_graph_value():
    s = SingularStaircase(4)
    assert graph_value(s, (0.0,)) == pytest.approx(1.0)
    assert graph_value(s, (1.0,)) == pytest.approx(0.0)
    assert graph_value(s, (0.5,)) == pytest.approx(0.5)  # flat centre piece


def _oracle_staircase_value(verts, x):
    # the walk along the polyline that the bisection replaced, given the
    # polyline instead of copying it per call
    if not 0.0 <= x <= 1.0:
        raise ValueError("staircase argument outside [0,1]")
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        if x0 <= x <= x1:
            if x1 == x0:
                return min(y0, y1)
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return verts[-1][1]


def _bisect_staircase_value(verts, xs, x):
    # the bisection that the descent replaced, kept verbatim apart from
    # taking the vertices and abscissae instead of a cached record
    # the first segment whose abscissae enclose x: the abscissae strictly
    # increase and run from 0 to 1
    t = max(bisect_left(xs, x) - 1, 0)
    (x0, y0), (x1, y1) = verts[t], verts[t + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def test_staircase_graph_value_matches_linear_walk():
    # and the bisection, bit for bit
    rng = random.Random(17)
    for depth in range(13):
        s = SingularStaircase(depth)
        verts = staircase_polyline(depth)
        abscissae = [x for x, _ in verts]
        xs = abscissae + [rng.random() for _ in range(100)] + [0, 1, 0.5]
        for x in xs:
            value = graph_value(s, (x,))
            assert value == _oracle_staircase_value(verts, x), (depth, x)
            assert value.hex() == _bisect_staircase_value(verts, abscissae, x).hex(), (depth, x)


def test_staircase_lookups_copy_no_polyline(monkeypatch):
    s = SingularStaircase(12)
    expected = (graph_value(s, (0.3,)), surface_measure(s), skew_measures_2d(s))
    monkeypatch.setattr(surfaces, "staircase_polyline", lambda depth: pytest.fail("copied"))
    assert (graph_value(s, (0.3,)), surface_measure(s), skew_measures_2d(s)) == expected


def test_skew_antidiagonal():
    report = skew_measures_2d(Hyperplane(2))
    assert report.passes
    assert report.surface.value == pytest.approx(math.sqrt(2))
    assert report.delta_total == pytest.approx(2.0)


def test_skew_constant_graph_is_equality():
    report = skew_measures_2d(LinearGraph(gradient=(0.0,), offset=0.5))
    assert report.passes
    assert report.surface.value == pytest.approx(1.0)
    assert report.delta_parts[0].value == pytest.approx(0.5)
    assert report.delta_parts[1].value == pytest.approx(0.5)


def test_skew_quarter_circle():
    report = skew_measures_2d(LpSphere(2, 2))
    assert report.passes
    assert report.surface.value == pytest.approx(math.pi / 2, abs=1e-5)
    assert report.delta_total == pytest.approx(2.0)


def test_skew_tabulated_example():
    t = TabulatedMonotone(2, (((0.2,), 0.8), ((0.6,), 0.3)))
    report = skew_measures_2d(t)
    # images by hand: [0.2,0.6] and [0.8,1] for the first part, [0.3,0.7] for
    # the second
    assert report.delta_parts[0].value == pytest.approx(0.6)
    assert report.delta_parts[1].value == pytest.approx(0.4)
    assert report.passes


def test_skew_tabulated_against_sampling_oracle():
    rng = random.Random(71)
    for trial in range(10):
        cuts = sorted(rng.uniform(0.05, 0.95) for _ in range(rng.randint(1, 6)))
        vals = sorted((rng.random() for _ in cuts), reverse=True)
        t = TabulatedMonotone(2, tuple(((c,), v) for c, v in zip(cuts, vals)))
        report = skew_measures_2d(t)
        # rasterise the two skewed images: sample much finer than the cell
        # grid so truncation at cell boundaries cannot skew the count
        samples, cells = 50_000, 2_000
        hit1 = set()
        hit2 = set()
        for i in range(samples + 1):
            x = i / samples
            fx = monotone_extension(t, (x,))
            if x <= fx:
                hit1.add(int((fx - x) * cells))
            if x >= fx:
                hit2.add(int((x - fx) * cells))
        approx1 = len(hit1) / cells
        approx2 = len(hit2) / cells
        assert abs(report.delta_parts[0].value - approx1) <= 8 / cells, trial
        assert abs(report.delta_parts[1].value - approx2) <= 8 / cells, trial


def _interval_union_measure(intervals):
    # the measure of a union of closed intervals, overlaps counted once
    total = 0.0
    hi_seen = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if hi_seen is None or lo > hi_seen:
            total += hi - lo
            hi_seen = hi
        elif hi > hi_seen:
            total += hi - hi_seen
            hi_seen = hi
    return total


def test_skew_tabulated_images_never_overlap():
    # the summed image lengths are the measures of the unions, bit for bit,
    # also with cuts and values on common dyadic points and repeated values
    rng = random.Random(73)

    def coord():
        return rng.choice((rng.random(), rng.randrange(9) / 8))

    for trial in range(2000):
        cuts = sorted({coord() for _ in range(rng.randint(1, 6))})
        vals = sorted((coord() for _ in cuts), reverse=True)
        t = TabulatedMonotone(2, tuple(((c,), v) for c, v in zip(cuts, vals)))
        images = ([], [])
        for a, b, v in surfaces._step_pieces(t):
            if a <= v:
                images[0].append((v - min(b, v), v - a))
            if b >= v:
                images[1].append((max(a, v) - v, b - v))
        for d in images:
            ordered = sorted((lo, hi) for lo, hi in d if hi > lo)
            assert all(h <= lo for (_, h), (lo, _) in zip(ordered, ordered[1:])), trial
        report = skew_measures_2d(t)
        assert report.delta_parts[0].value == _interval_union_measure(images[0]), trial
        assert report.delta_parts[1].value == _interval_union_measure(images[1]), trial


def test_skew_rejects_increasing_linear_graph():
    with pytest.raises(ValueError):
        skew_measures_2d(LinearGraph(gradient=(1.0,)))


def test_skew_requires_dimension_two():
    with pytest.raises(ValueError):
        skew_measures_2d(Hyperplane(3))


def test_step_pieces_tile_the_unit_interval():
    # the breaks start at 0.0 and end at 1.0, so some piece always exists;
    # cuts at either end add no empty piece
    for samples in ((), (((0.0,), 0.5),), (((0.5,), 0.75), ((1.0,), 0.25))):
        pieces = surfaces._step_pieces(TabulatedMonotone(2, samples))
        assert pieces[0][0] == 0.0 and pieces[-1][1] == 1.0, samples
        assert all(a < b for a, b, _ in pieces), samples
        assert all(b == a for (_, b, _), (a, _, _) in zip(pieces, pieces[1:])), samples
    assert surfaces._step_pieces(TabulatedMonotone(2, ())) == [(0.0, 1.0, 1.0)]


def test_tabulated_graph_value_is_the_step_extension():
    table = TabulatedMonotone(3, (((0.25, 0.5), 0.75), ((0.5, 0.25), 0.5), ((1.0, 1.0), 0.0)))
    for x in ((0.0, 0.0), (0.25, 0.5), (0.3, 0.9), (0.6, 0.6), (1.0, 1.0), (1.0, 0.2)):
        assert graph_value(table, x) == monotone_extension(table, x), x


@pytest.mark.parametrize("depth", range(6))
def test_staircase_projections_are_onto(depth):
    stair = SingularStaircase(depth)
    for axis in (1, 2):
        assert projection_measure(stair, axis) == MeasureEstimate(1.0, "closed-form")
    report = verify_projection_inequality(stair)
    assert report.passes and report.right_total == 2.0
    assert report.surface.value == pytest.approx(_staircase_length(depth))


@pytest.mark.parametrize(
    "call, exception, message",
    [
        (
            lambda: surface_measure_quadrature(SingularStaircase(2)),
            TypeError,
            "no quadrature route for SingularStaircase",
        ),
        (
            lambda: skew_measures_2d(LinearGraph((-0.5,), base=(((0.0, 0.5),),), offset=0.9)),
            ValueError,
            "skewed measures need the full unit base",
        ),
        (
            lambda: skew_measures_2d(LinearGraph((-2.0,), offset=1.5)),
            ValueError,
            "graph values must stay inside the unit square",
        ),
        (lambda: MeasureEstimate(1.0, "guess"), ValueError, "unknown method 'guess'"),
        (
            lambda: MeasureEstimate(-0.5, "closed-form"),
            ValueError,
            "measure values are non-negative",
        ),
        (
            lambda: MeasureEstimate(1.0, "quadrature", -1e-9),
            ValueError,
            "error bounds are non-negative",
        ),
    ],
)
def test_rejections_name_their_reason(call, exception, message):
    with pytest.raises(exception) as info:
        call()
    assert type(info.value) is exception and str(info.value) == message


def test_facet_union_measure():
    assert facet_union_measure(3) == 3.0


def test_surface_descriptor_round_trip():
    surfaces = [
        Hyperplane(3),
        LpSphere(2, 8.0),
        LinearGraph(gradient=(-1.0, 0.5), base=(((0.0, 1.0), (0.0, 0.5)),), offset=0.75),
        TabulatedMonotone(2, (((0.2,), 0.8), ((0.6,), 0.3))),
        SingularStaircase(7),
        LinearGraph(
            gradient=(-0.5, 0.25, -0.125),
            base=(
                ((0.0, 0.5), (0.0, 1.0), (0.25, 0.75)),
                ((0.5, 1.0), (0.0, 0.5), (0.0, 1.0)),
                ((0.5, 1.0), (0.5, 1.0), (0.1, 0.2)),
            ),
            offset=0.9,
        ),
        TabulatedMonotone(
            3, (((0.2, 0.3), 0.7), ((0.6, 0.1), 0.4), ((0.5, 0.5), 0.2), ((1.0, 1.0), 0.0))
        ),
    ]
    for s in surfaces:
        assert parse_surface_descriptor(format_surface_descriptor(s)) == s


def test_surface_descriptor_errors():
    with pytest.raises(ValueError):
        parse_surface_descriptor("n=2\n")
    with pytest.raises(ValueError):
        parse_surface_descriptor("family=moebius\nn=2\n")
    with pytest.raises(ValueError):
        parse_surface_descriptor("family=lpsphere\nn=2\n")
    with pytest.raises(ValueError, match="bad box axis '0:x'"):
        parse_surface_descriptor("family=linear\ngradient=-0.5\nbox=0:x\n")
    with pytest.raises(ValueError, match="bad box axis ''"):
        parse_surface_descriptor("family=linear\ngradient=-0.5\nbox=0:1,\n")
    with pytest.raises(ValueError, match="bad number list '-0.5,a'"):
        parse_surface_descriptor("family=linear\ngradient=-0.5,a\n")


@pytest.mark.parametrize(
    "text, key",
    [
        ("family=linear\ngradient=-0.5\nofset=0.9\n", "ofset"),
        ("family=hyperplane\nn=3\np=7\n", "p"),
        ("family=lpsphere\nn=2\np=2\noffset=0.5\n", "offset"),
        ("family=tabulated\nn=2\nsample=0.2,0.8\nbox=0:1\n", "box"),
        ("family=staircase\ndepth=2\nn=2\n", "n"),
    ],
)
def test_descriptor_refuses_a_key_the_family_does_not_take(text, key):
    # such keys used to be ignored, so the misspelt ofset=0.9 built offset 0
    family = text.split("\n")[0].removeprefix("family=")
    with pytest.raises(ValueError, match=f"^{family} surface takes no '{key}'$"):
        parse_surface_descriptor(text)


@pytest.mark.parametrize(
    "text, key",
    [
        ("family=hyperplane\nn=3\nn=4\n", "n"),
        ("family=linear\ngradient=-0.5\ngradient=0.5\n", "gradient"),
        ("family=linear\ngradient=-0.5\noffset=0.1\noffset=0.1\n", "offset"),
        ("family=lpsphere\nn=2\np=2\np=3\n", "p"),
        ("family=tabulated\nn=2\nn=2\nsample=0.2,0.8\n", "n"),
        ("family=staircase\nfamily=staircase\ndepth=2\n", "family"),
    ],
)
def test_descriptor_refuses_a_repeated_key(text, key):
    # the last value used to win, so n=3 then n=4 built Hyperplane(4); box
    # and sample still repeat (the round trip above writes several of each)
    with pytest.raises(ValueError, match=f"^descriptor repeats the key '{key}'$"):
        parse_surface_descriptor(text)


def test_descriptor_number_lists_skip_empty_items():
    # as the inline --gradient and --sample flags always have
    linear = parse_surface_descriptor("family=linear\ngradient=-0.5,\noffset=0.9\n")
    assert linear == LinearGraph((-0.5,), offset=0.9)
    tab = parse_surface_descriptor("family=tabulated\nn=2\nsample=0.2,,0.8,\n")
    assert tab == TabulatedMonotone(2, (((0.2,), 0.8),))


@pytest.mark.parametrize(
    "call",
    [
        lambda s: surface_dim(s),
        lambda s: graph_value(s, (0.5,)),
        lambda s: surface_measure(s),
        lambda s: surface_measure_quadrature(s),
        lambda s: projection_measure(s, 1),
        lambda s: format_surface_descriptor(s),
        lambda s: grid_cover(s, 4),
        lambda s: volume_ratio_curve(s, [2, 4]),
    ],
)
@pytest.mark.parametrize("bogus", [object(), None, (0.5, 0.5)])
def test_non_surfaces_raise_type_error(call, bogus):
    with pytest.raises(TypeError):
        call(bogus)


# the dataclass shape of each family: fields, constructor, repr
_FAMILY_SHAPES = [
    (Hyperplane(3), "(n: int) -> None", "Hyperplane(n=3)"),
    (LpSphere(2, 8.0), "(n: int, p: float) -> None", "LpSphere(n=2, p=8.0)"),
    (
        LinearGraph((-0.5, 0.25), (((0.0, 0.5), (0.0, 1.0)),), 0.9),
        "(gradient: tuple[float, ...], base: tuple[tuple[tuple[float, float], ...], ...]"
        " | None = None, offset: float = 0.0) -> None",
        "LinearGraph(gradient=(-0.5, 0.25), base=(((0.0, 0.5), (0.0, 1.0)),), offset=0.9)",
    ),
    (
        TabulatedMonotone(3, (((0.2, 0.3), 0.7),)),
        "(dim: int, samples: tuple[tuple[tuple[float, ...], float], ...]) -> None",
        "TabulatedMonotone(dim=3, samples=(((0.2, 0.3), 0.7),))",
    ),
    (SingularStaircase(4), "(depth: int) -> None", "SingularStaircase(depth=4)"),
]


@pytest.mark.parametrize("surface, signature, text", _FAMILY_SHAPES)
def test_family_dataclass_shape(surface, signature, text):
    cls = type(surface)
    assert str(inspect.signature(cls)) == signature
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == list(inspect.signature(cls).parameters)
    assert repr(surface) == text
    twin = parse_surface_descriptor(format_surface_descriptor(surface))
    assert twin == surface and hash(twin) == hash(surface) and twin is not surface
    assert all(surface != other for other, _, _ in _FAMILY_SHAPES if other is not surface)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(surface, names[0], None)


def _oracle_polyline_length(vertices) -> float:
    # the length summed over the vertex list, kept verbatim
    return math.fsum(
        math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(vertices, vertices[1:])
    )


def test_staircase_length_is_the_polyline_sum():
    # the same float as the fsum over the vertex list, at every depth
    for depth in range(15):
        value = surface_measure(SingularStaircase(depth)).value
        assert value.hex() == _oracle_polyline_length(staircase_polyline(depth)).hex(), depth


if __name__ == "__main__":
    _assert_staircase_vertices_match_oracle(20)
    print("depth-20 staircase vertices agree with the two-list builder, bit for bit")
