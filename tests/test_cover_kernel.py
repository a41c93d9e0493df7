"""Differential tests: the grid cover kernels against the per-cell code they replaced.

The oracles below are the earlier cell routines, which test every one of
the m^n cells (every segment's bounding box, for the staircase), kept
verbatim apart from their names; the staircase's boxes are widened by one
row each side, so they need no cell rule of their own, and a segment whose
ends lie strictly inside one cell's float faces tests only that cell (on
every depth and m of the sweep below, the same cells as the full boxes).
The staircase's segment-cell clip `_segment_hits_cell`, which the
library's staircase kernel used until it became a walk over the polyline's
face crossings, is kept verbatim here as that oracle's cell test.  The
kernels find each column's run, or the staircase's lattice path, directly
and must give exactly the same cell sets.  The sphere's oracle is the
exception: it decides each cell exactly, in ints for an integer p and in
decimal otherwise, so it shares no rounding with the kernel and none with
the interpreter's sum().  The hyperplane's earlier column kernel, which
tabled each column's run in closed form once per base-coordinate sum,
before the hyperplane and the sphere shared one level-set walk, is kept
verbatim too, as is the staircase kernel that bisected each crossing on
the polyline's coordinates before it was found by descent; the descent
must yield that kernel's path in the same order.  So are the staircase's x
and y segment descents that replayed the construction's halvings before
the ordinates were computed from the leaf index; the readers must return
their tuples.

    PYTHONPATH=src python tests/test_cover_kernel.py 10

checks that the staircase's abscissae strictly increase and its ordinates
never do at depths 15..20 (0..14 run in tier-1), compares its descent with
the bisect kernel, path order included, at those depths and m = 1000 and
4096 (0..12 run in tier-1), compares its segment readers with the
descents they replaced at those depths on every face k/m for m <= 300,
729, 1000 and 4096 and every ordinate one and two ulps either side (0..14
run in tier-1), sweeps the staircase over
depths 0..14 and m = 1..300, 729 and 1000, 10 random linear graphs,
spheres and 3-D tabulated tables over m = 1..48, 10 random 4-D spheres and
tables over m = 1..16, the 3-D sphere against the exact oracle over
m = 1..48 for every exponent of SPHERE_PS, and the hyperplane's covers
against its per-sum table kernel at n = 2 over m = 1..1000 and n = 3 over
m = 1..128, outside tier-1.  grid_cover builds its covers without GridCover's index check, so
each swept cover is also rebuilt through it.
"""

import decimal
import math
import random
import sys
from bisect import bisect_left, bisect_right
from functools import lru_cache, reduce
from itertools import chain, product

import pytest

from antichains import (
    BudgetExceededError,
    GridCover,
    Hyperplane,
    LinearGraph,
    LpSphere,
    PointCloud,
    PredicateRegion,
    SingularStaircase,
    TabulatedMonotone,
    grid_cover,
    monotone_extension,
    staircase_polyline,
    surface_dim,
)
from antichains import gridcover
from antichains.gridcover import _interval_overlap
from antichains.surfaces import _staircase_x_segment, _staircase_y_segment

# ---------------------------------------------------------------------------
# oracles


def _cell_indices(m, dim):
    return product(range(1, m + 1), repeat=dim)


def _oracle_hyperplane_cells(s, m):
    n = s.n
    for d in _cell_indices(m, n):
        sd = sum(d)
        if 2 * (sd - n) <= m * n < 2 * sd:
            yield d


def _oracle_lpsphere_cells(s, m):
    # the sphere meets the half-open cell d iff sum (d_i - 1)^p <= m^p <
    # sum d_i^p, decided exactly: in ints for an integer p, and otherwise in
    # decimal with 60 digits past the units of m^p; a power that is an
    # integer, such as 9^1.5, comes out exact, so ties at grid corners are
    # decided too.  Neither depends on how the interpreter's sum() rounds
    n, p = s.n, s.p
    if p == int(p):
        power = [c ** int(p) for c in range(m + 1)]
        add = sum
    else:
        ctx = decimal.Context(prec=int(p * math.log10(m + 1)) + 60)
        power = [ctx.power(c, decimal.Decimal(p)) for c in range(m + 1)]

        def add(terms):
            return reduce(ctx.add, terms)

    for d in _cell_indices(m, n):
        if add(power[c - 1] for c in d) <= power[m] < add(power[c] for c in d):
            yield d


def _table_hyperplane_cells(s: Hyperplane, m: int):
    # integer arithmetic keeps the half-open test exact: the cell meets the
    # slice iff sum(lower) <= n/2 < sum(upper), i.e. iff
    # m*n < 2*sum(d) <= m*n + 2n, so over a base cell with sum sb the hit
    # rows are h+1..h+n with h = (m*n - 2*sb) // 2, clipped to 1..m.  The
    # run depends on sb alone, so it is tabled once per sum, and the runs
    # over a head's m base cells are a slice of that table
    n = s.n
    mn = m * n
    by_sum = []
    for sb in range(m * (n - 1) + 1):
        h = (mn - 2 * sb) // 2
        by_sum.append(range(max(h + 1, 1), min(h + n, m) + 1))
    rows = range(1, m + 1)
    for head in _cell_indices(m, n - 2):
        sh = sum(head)
        for di, run in zip(rows, by_sum[sh + 1 : sh + m + 1]):
            for j in run:
                yield (*head, di, j)


def _oracle_linear_cells(s, m):
    grad = s.gradient
    d_base = len(grad)
    for d in _cell_indices(m, d_base + 1):
        base_idx, j = d[:-1], d[-1]
        val_lo = (j - 1) / m
        val_hi = j / m
        val_hi_closed = j == m
        hit = False
        for box in s.base:
            f_lo = s.offset
            f_hi = s.offset
            lo_attained = True
            hi_attained = True
            empty = False
            for (box_lo, box_hi), di, c in zip(box, base_idx, grad):
                cell_lo = (di - 1) / m
                cell_hi = di / m
                lo_x = max(cell_lo, box_lo)
                hi_x = min(cell_hi, box_hi)
                hi_x_closed = hi_x < cell_hi or di == m
                if lo_x > hi_x or (lo_x == hi_x and not hi_x_closed):
                    empty = True
                    break
                if c >= 0:
                    f_lo += c * lo_x
                    f_hi += c * hi_x
                    if c > 0:
                        hi_attained = hi_attained and hi_x_closed
                else:
                    f_lo += c * hi_x
                    f_hi += c * lo_x
                    lo_attained = lo_attained and hi_x_closed
            if empty:
                continue
            if _interval_overlap(
                f_lo, lo_attained, f_hi, hi_attained, val_lo, True, val_hi, val_hi_closed
            ):
                hit = True
                break
        if hit:
            yield d


def _oracle_tabulated_cells(s, m):
    # neighbouring cells share corners, so each corner's extension is
    # computed once
    extension = {}
    d_base = s.dim - 1
    axis_cuts = [sorted({pt[i] for pt, _ in s.samples}) for i in range(d_base)]
    for d in _cell_indices(m, s.dim):
        base_idx, j = d[:-1], d[-1]
        val_lo = (j - 1) / m
        positions = []
        for i, di in enumerate(base_idx):
            cell_lo = (di - 1) / m
            cell_hi = di / m
            closed_top = di == m
            pos = [cell_lo]
            for cut in axis_cuts[i]:
                if cell_lo < cut < cell_hi or (closed_top and cut == cell_hi):
                    pos.append(cut)
            positions.append(pos)
        hit = False
        for corner in product(*positions):
            v = extension.get(corner)
            if v is None:
                v = extension[corner] = monotone_extension(s, corner)
            if v >= val_lo and (v < j / m or (j == m and v <= 1.0)):
                hit = True
                break
        if hit:
            yield d


def _segment_hits_cell(p, q, d, m: int) -> bool:
    """Whether the closed segment p-q meets the half-open cell ``d``."""
    t_lo, t_lo_open = 0.0, False
    t_hi, t_hi_open = 1.0, False
    for axis in range(2):
        a = p[axis]
        delta = q[axis] - p[axis]
        lo = (d[axis] - 1) / m
        hi = d[axis] / m
        top_closed = d[axis] == m
        if delta == 0.0:
            inside = a >= lo and (a < hi or (top_closed and a <= hi))
            if not inside:
                return False
            continue
        t1 = (lo - a) / delta
        t2 = (hi - a) / delta
        if delta > 0:
            if t1 > t_lo or (t1 == t_lo and not t_lo_open):
                t_lo, t_lo_open = t1, False
            if t2 < t_hi or (t2 == t_hi and not top_closed):
                t_hi, t_hi_open = t2, not top_closed
        else:
            if t2 > t_lo or (t2 == t_lo and not t_lo_open):
                t_lo, t_lo_open = t2, not top_closed
            if t1 < t_hi or (t1 == t_hi and not t_hi_open):
                t_hi, t_hi_open = t1, False
    if t_lo > t_hi:
        return False
    if t_lo == t_hi:
        return not (t_lo_open or t_hi_open)
    return True


@lru_cache(maxsize=1)
def _staircase_segments(depth: int) -> list:
    # the sweep asks for every m at one depth before the next
    verts = staircase_polyline(depth)
    return list(zip(verts, verts[1:]))


def _inside_cell(p, q, i: int, j: int, m: int) -> bool:
    """Whether p and q lie strictly inside cell (i, j)'s faces, the floats the segment test reads."""
    x_lo, x_hi, y_lo, y_hi = (i - 1) / m, i / m, (j - 1) / m, j / m
    return x_lo < p[0] < x_hi and x_lo < q[0] < x_hi and y_lo < p[1] < y_hi and y_lo < q[1] < y_hi


def _oracle_staircase_cells(s, m):
    # each segment's bounding box of cells, widened by one row each side
    # since the product int(c * m) can miss a face by a rounding error, and
    # the segment test decides every cell of it; a segment whose ends lie
    # strictly inside one cell's faces stays in that cell, and only that
    # cell is tested
    hits = set()
    for p, q in _staircase_segments(s.depth):
        i, j = int(p[0] * m) + 1, int(p[1] * m) + 1
        if _inside_cell(p, q, i, j, m):
            cells = [(i, j)]
        else:
            i_lo, i_hi = sorted((i, int(q[0] * m) + 1))
            j_lo, j_hi = sorted((j, int(q[1] * m) + 1))
            cells = product(
                range(max(i_lo - 1, 1), min(i_hi + 1, m) + 1),
                range(max(j_lo - 1, 1), min(j_hi + 1, m) + 1),
            )
        for d in cells:
            if d not in hits and _segment_hits_cell(p, q, d, m):
                hits.add(d)
    return hits


def _bisect_staircase_cells(verts, m):
    # the library kernel before the crossings were found by descent: each
    # crossing's segment bisected on the polyline's coordinates, kept
    # verbatim apart from taking the vertices instead of a cached record
    xs = tuple(x for x, _ in verts)
    neg_ys = tuple(-y for _, y in verts)
    crossings = []
    for k in range(1, m):
        t = k / m
        a = bisect_left(xs, t)  # x[a-1] < t <= x[a]
        crossings.append((a, (t - xs[a - 1]) / (xs[a] - xs[a - 1]), 0))
        b = bisect_right(neg_ys, -t)  # y[b-1] >= t > y[b]
        (_, y0), (_, y1) = verts[b - 1], verts[b]
        crossings.append((b, (t - y0) / (y1 - y0), 1))
    crossings.sort()
    i, j = 1, m
    yield i, j
    for _, _, down in crossings:
        if down:
            j -= 1
        else:
            i += 1
        yield i, j


def _oracle_staircase_x_segment(depth: int, t: float):
    """The falling segment (end, x0, y0, x1, y1) with x0 < t <= x1, or the first at t = 0.

    ``end`` is the index of its end vertex, the one ``bisect_left`` on the
    abscissae finds for t.
    """
    x0, y0, x1, y1 = 0.0, 0.0, 1.0, 1.0
    leaf = 0
    for level in reversed(range(depth)):
        third = (x1 - x0) / 3
        ym = (y0 + y1) / 2
        lx1 = x0 + third
        rx0 = x1 - third
        if t <= lx1:
            x1, y1 = lx1, ym
        elif t <= rx0:
            # the flat after the left subtree's last leaf, leaf + 2**level - 1
            return 2 * (leaf + (1 << level)), lx1, 1.0 - ym, rx0, 1.0 - ym
        else:
            x0, y0 = rx0, ym
            leaf += 1 << level
    return 2 * leaf + 1, x0, 1.0 - y0, x1, 1.0 - y1


def _oracle_staircase_y_segment(depth: int, t: float):
    """The falling segment (end, y0, y1) with y0 >= t > y1, for 0 < t <= 1.

    Only a steep leaf spans ordinates, and ``end`` is the index of its end
    vertex, the one ``bisect_right`` on the negated ordinates finds for -t.
    """
    y0, y1 = 0.0, 1.0
    leaf = 0
    for level in reversed(range(depth)):
        ym = (y0 + y1) / 2
        if t > 1.0 - ym:
            y1 = ym
        else:
            y0 = ym
            leaf += 1 << level
    return 2 * leaf + 1, 1.0 - y0, 1.0 - y1


_ORACLES = {
    Hyperplane: _oracle_hyperplane_cells,
    LpSphere: _oracle_lpsphere_cells,
    LinearGraph: _oracle_linear_cells,
    TabulatedMonotone: _oracle_tabulated_cells,
    SingularStaircase: _oracle_staircase_cells,
}

# ---------------------------------------------------------------------------
# cases


def _bench_table():
    # the 4x4 order-reversing table the cover benchmark runs
    return TabulatedMonotone(
        3,
        tuple(
            ((i / 4, j / 4), round(max(0.0, 0.95 - (i + j) / 8), 6))
            for i in range(4)
            for j in range(4)
        ),
    )


# sample cuts and values on the faces of every grid whose m is a multiple of 4
_FACE_TABLE = TabulatedMonotone(
    3,
    (
        ((0.0, 0.0), 0.75),
        ((0.5, 0.0), 0.5),
        ((0.0, 0.5), 0.5),
        ((0.25, 0.75), 0.25),
        ((0.5, 0.5), 0.25),
        ((1.0, 1.0), 0.0),
    ),
)

CASES = [
    *(Hyperplane(n) for n in (2, 3, 4)),
    # p = 1 and 2, integer tables with ties at grid corners; 7.5, the float
    # table; 16 to 1000, integer tables and the shell of cells with a
    # coordinate m, where a power of 1.0 would absorb the smaller terms
    LpSphere(2, 1),
    LpSphere(2, 16),
    LpSphere(2, 1000),
    LpSphere(3, 2),
    LpSphere(3, 7.5),
    LpSphere(3, 64),
    LpSphere(3, 1000),
    LpSphere(4, 3),
    # negative, zero and positive gradient components; the graph leaves the
    # cube on part of the base
    LinearGraph((-0.5, -0.3), offset=0.9),
    LinearGraph((-0.5, 0.0), offset=0.6),
    LinearGraph((0.4, -0.7), offset=0.5),
    LinearGraph((1.5,), offset=-0.3),
    LinearGraph((0.0,), offset=0.5),
    LinearGraph((-2.0,), offset=1.5),
    LinearGraph((-0.3, 0.2, -0.6), offset=0.7),
    # the closed-form runs' fallback: values exactly on the faces of every
    # grid whose m is a multiple of 4, a value of exactly 1.0, a flat graph
    # on a face for even m (as (0.0,) at 0.5 above), and a graph that leaves
    # the cube at both ends
    LinearGraph((-0.25, -0.5), offset=0.75),
    LinearGraph((-0.5,), offset=1.0),
    LinearGraph((0.0, 0.0), offset=0.5),
    LinearGraph((1.2, 0.9), offset=-0.6),
    # 0.3 + 1e-20*x rounds to 0.3, a point interval whose upper end is open
    # inside every column but the last; the kernel follows the oracle, which
    # then finds no cell there.  Both are wrong here: the graph crosses every
    # column (see test_rounded_point_interval_keeps_its_cells)
    LinearGraph((1e-20,), offset=0.3),
    # two boxes whose faces lie on grid faces for even m
    LinearGraph(
        (-0.5, 0.25),
        base=(((0.0, 0.5), (0.0, 0.25)), ((0.5, 1.0), (0.25, 0.75))),
        offset=0.5,
    ),
    _bench_table(),
    _FACE_TABLE,
    TabulatedMonotone(2, (((0.25,), 0.5), ((0.5,), 0.25), ((0.75,), 0.0))),
    *(SingularStaircase(depth) for depth in range(9)),
]


def _case_id(s):
    if isinstance(s, TabulatedMonotone):
        return f"TabulatedMonotone(dim={s.dim}, {len(s.samples)} samples)"
    return repr(s)


@pytest.mark.parametrize("surface", CASES, ids=_case_id)
def test_cover_matches_oracle(surface):
    oracle = _ORACLES[type(surface)]
    top = 12 if surface_dim(surface) == 4 else 32
    for m in range(1, top + 1):
        cov = grid_cover(surface, m)
        assert cov.exact
        assert cov.indices == frozenset(oracle(surface, m)), m


# the benchmark's staircase depth at its own resolutions and at m that are
# not powers of two, whose cell faces k/m are not dyadic and so land between
# the staircase's float vertices in every way rounding allows
STAIRCASE_MS = (16, 27, 32, 64, 100, 128, 243, 256)


@pytest.mark.parametrize("m", STAIRCASE_MS)
def test_deep_staircase_matches_oracle(m):
    surface = SingularStaircase(12)
    assert grid_cover(surface, m).indices == frozenset(_oracle_staircase_cells(surface, m))


def _random_linear_graph(rng):
    def coord():
        # half of the box faces sit on the faces of small grids
        return rng.choice((rng.random(), rng.randrange(13) / 12))

    gradient = tuple(rng.choice((0.0, rng.uniform(-2.0, 2.0))) for _ in range(2))
    if rng.random() < 0.5:
        base = None
    else:
        cut = coord()
        lo = tuple(sorted((coord(), coord())))
        hi = tuple(sorted((coord(), coord())))
        base = (((0.0, cut), lo), ((cut, 1.0), hi))
    return LinearGraph(gradient, base=base, offset=rng.uniform(-0.5, 1.5))


def _random_table(rng, dim):
    """An order-reversing table of up to 6 samples, possibly empty.

    Coordinates and values fall on the faces of small grids half of the
    time, 1.0 included; values are a decreasing affine function clipped to
    [0, 1] and rounded, so they tie and reach 1.0.
    """

    def coord():
        return rng.choice((rng.random(), rng.randrange(13) / 12))

    weights = [rng.uniform(0.0, 1.0) for _ in range(dim - 1)]
    top = rng.uniform(0.5, 1.5)
    step = rng.choice((12, 20))
    samples = {}
    for _ in range(rng.randrange(7)):
        pt = tuple(coord() for _ in range(dim - 1))
        value = top - sum(w * c for w, c in zip(weights, pt))
        samples[pt] = round(min(max(value, 0.0), 1.0) * step) / step
    return TabulatedMonotone(dim, tuple(samples.items()))


def _checked_cover(target, m):
    # grid_cover skips GridCover's index check, so the cover is also rebuilt
    # through it
    cover = grid_cover(target, m)
    assert GridCover(cover.m, cover.dim, cover.indices, cover.exact) == cover, (target, m)
    return cover


def _assert_matches_oracle(surface, ms):
    oracle = _ORACLES[type(surface)]
    for m in ms:
        assert _checked_cover(surface, m).indices == frozenset(oracle(surface, m)), (surface, m)


def test_random_surfaces_match_oracle():
    rng = random.Random(7)
    for _ in range(40):
        _assert_matches_oracle(_random_linear_graph(rng), range(1, 13))
    for _ in range(20):
        _assert_matches_oracle(LpSphere(rng.choice((2, 3)), rng.uniform(1.0, 10.0)), range(1, 17))
    # four dimensions: the sphere's base sums span two head axes
    for _ in range(6):
        _assert_matches_oracle(LpSphere(4, rng.uniform(1.0, 10.0)), range(1, 11))
    tables = [_random_table(rng, 3) for _ in range(30)] + [_random_table(rng, 4) for _ in range(8)]
    # the draws hold every edge case: an empty table, tied values, a value
    # of 1.0, a sample at coordinate 1.0, and cuts off every small grid's faces
    values = [[v for _, v in table.samples] for table in tables]
    coords = [c for table in tables for pt, _ in table.samples for c in pt]
    assert any(not table.samples for table in tables)
    assert any(len(set(vs)) < len(vs) for vs in values)
    assert any(1.0 in vs for vs in values)
    assert 1.0 in coords
    assert any(c * 12 != round(c * 12) for c in coords)
    for table in tables:
        _assert_matches_oracle(table, range(1, 13 if table.dim == 3 else 9))


# exponents from a plane (p = 1) to near-cubes (p = 1e4), whose powers
# underflow to 0.0 on most of the table
SPHERE_PS = (1, 1.1, 1.5, 2, 3, 4, 7.5, 8, 16, 64, 1000, 1e4)


def _assert_sphere_exponents_match_oracle(n, ms):
    for p in SPHERE_PS:
        _assert_matches_oracle(LpSphere(n, p), ms)


@pytest.mark.parametrize("n, top", [(2, 64), (3, 16), (4, 8)])
def test_sphere_exponents_match_exact_oracle(n, top):
    _assert_sphere_exponents_match_oracle(n, range(1, top + 1))


def _assert_hyperplane_matches_table(n, ms):
    for m in ms:
        assert _checked_cover(Hyperplane(n), m).indices == frozenset(
            _table_hyperplane_cells(Hyperplane(n), m)
        ), (n, m)


@pytest.mark.parametrize("n, top", [(2, 300), (3, 64), (4, 16), (5, 10)])
def test_hyperplane_walk_matches_sum_table(n, top):
    # integer face tables: the walk and the closed-form rows decide alike
    _assert_hyperplane_matches_table(n, range(1, top + 1))


def _assert_staircase_is_monotone(depth):
    # the crossing walk's order and denominators rest on this
    verts = staircase_polyline(depth)
    assert all(x0 < x1 and y0 >= y1 for (x0, y0), (x1, y1) in zip(verts, verts[1:])), depth


def test_staircase_abscissae_increase_and_ordinates_never_do():
    for depth in range(15):
        _assert_staircase_is_monotone(depth)


def test_staircase_cover_is_a_lattice_path():
    # one step right or down per inner face crossed, from the top-left cell
    # to the bottom-right one
    for depth in (*range(15), 16, 20):
        stair = SingularStaircase(depth)
        for m in (*range(1, 65), 243, 729, 1000):
            path = sorted(grid_cover(stair, m).indices, key=lambda d: (d[0], -d[1]))
            assert path[0] == (1, m) and path[-1] == (m, 1), (depth, m)
            assert len(path) == 2 * m - 1, (depth, m)
            steps = {(i1 - i0, j1 - j0) for (i0, j0), (i1, j1) in zip(path, path[1:])}
            assert steps <= {(1, 0), (0, -1)}, (depth, m)


def _assert_descent_matches_bisect(depths, ms):
    # as lists: the descent must yield the path in the bisect kernel's order
    for depth in depths:
        stair = SingularStaircase(depth)
        verts = staircase_polyline(depth)
        for m in ms:
            assert list(gridcover._staircase_cells(stair, m)) == list(
                _bisect_staircase_cells(verts, m)
            ), (depth, m)


def test_staircase_descent_matches_bisect():
    _assert_descent_matches_bisect(range(13), (*range(1, 65), *STAIRCASE_MS))


def _faces(ms):
    return sorted({k / m for m in ms for k in range(m + 1)})


def _near_ordinates(depth):
    # every ordinate 1 - j/2**depth of the polyline, and the floats one and
    # two ulps either side of it: the ties of the y descent's comparisons
    for j in range(2**depth + 1):
        up = down = 1.0 - j / 2**depth
        yield up
        for _ in range(2):
            up, down = math.nextafter(up, 2.0), math.nextafter(down, -1.0)
            yield up
            yield down


def _assert_segments_match_descent(depth, x_ts, y_ts):
    # the segment readers against the descents that replayed the halvings,
    # over their domains: 0 <= t <= 1 for x and 0 < t <= 1 for y
    for t in x_ts:
        if 0.0 <= t <= 1.0:
            want = _oracle_staircase_x_segment(depth, t)
            assert _staircase_x_segment(depth, t) == want, (depth, t)
    for t in y_ts:
        if 0.0 < t <= 1.0:
            want = _oracle_staircase_y_segment(depth, t)
            assert _staircase_y_segment(depth, t) == want, (depth, t)


def test_staircase_segments_match_descent():
    faces = _faces((*range(1, 65), *STAIRCASE_MS))
    for depth in range(15):
        near_xs = [
            u for x, _ in staircase_polyline(depth)
            for u in (math.nextafter(x, -1.0), x, math.nextafter(x, 2.0))
        ]
        _assert_segments_match_descent(depth, faces + near_xs, chain(faces, _near_ordinates(depth)))


def test_antidiagonal_counts_up_to_200():
    for m in range(1, 201):
        assert len(grid_cover(Hyperplane(2), m)) == 2 * m - 1, m


@pytest.mark.xfail(
    strict=True, reason="rounding closes the attained interval to an open point"
)
def test_rounded_point_interval_keeps_its_cells():
    # y = 0.3 + 1e-20*x lies in row 2 of every column at m = 4
    cover = grid_cover(LinearGraph((1e-20,), offset=0.3), 4)
    assert cover.indices == frozenset((i, 2) for i in range(1, 5))


@pytest.mark.xfail(
    strict=True, reason="every column's interval rounds to the face 0.5, open at both ends"
)
def test_on_face_point_interval_keeps_its_cells():
    # y = 0.5 + 1e-17*(x1 - x2) lies above the face 0.5 (row 3) where
    # x1 > x2 and below it (row 2) where x1 < x2, so at m = 4 it meets row
    # 3 over the base cells with i >= j and row 2 over those with i <= j
    cover = grid_cover(LinearGraph((1e-17, -1e-17), offset=0.5), 4)
    base = list(product(range(1, 5), repeat=2))
    assert cover.indices == frozenset(
        [(i, j, 3) for i, j in base if i >= j] + [(i, j, 2) for i, j in base if i <= j]
    )


def test_linear_fallback_runs_on_a_minority_of_columns(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _interval_overlap(*args)

    monkeypatch.setattr(gridcover, "_interval_overlap", counted)
    # the benchmark's graph: some top ends land on faces, and each column
    # whose top row takes the exact test makes one call, on a minority of
    # the m^2 columns
    m = 48
    grid_cover(LinearGraph((-0.5, -0.3), offset=0.9), m)
    assert 0 < len(calls) < m * m // 2


def test_budget_bounds_base_cells():
    # an analytic family visits the m^(n-1) base cells, not all m^n cells
    with pytest.raises(BudgetExceededError, match="^16384 base cells exceed budget 16383$"):
        grid_cover(LinearGraph((-0.5, -0.3), offset=0.9), 128, budget=16383)
    assert len(grid_cover(LinearGraph((-0.5, -0.3), offset=0.9), 128, budget=16384)) > 0
    assert len(grid_cover(Hyperplane(3), 8, budget=64)) > 0
    with pytest.raises(BudgetExceededError, match="^64 base cells exceed budget 63$"):
        grid_cover(Hyperplane(3), 8, budget=63)
    with pytest.raises(BudgetExceededError, match="^100 base cells exceed budget 99$"):
        grid_cover(SingularStaircase(3), 100, budget=99)


def test_negative_budget_is_rejected_on_every_route():
    # before anything else, even on a point cloud, which spends no budget
    for target in (
        PointCloud(2, ((0.5, 0.5),)),
        PredicateRegion(2, lambda x: True),
        Hyperplane(2),
        LpSphere(3, 2),
    ):
        with pytest.raises(ValueError, match="^budget must be >= 0$"):
            grid_cover(target, 0, budget=-1)


def test_budget_bounds_all_cells_of_a_predicate():
    region = PredicateRegion(3, lambda x: sum(x) <= 1.5)
    assert len(grid_cover(region, 8, budget=512)) > 0
    with pytest.raises(BudgetExceededError, match="^512 cells exceed budget 511$"):
        grid_cover(region, 8, budget=511)


def _sweep(surfaces: int) -> None:
    """The staircase's monotone coordinates at depths 15..20, its descent
    against the bisect kernel at those depths and m = 1000 and 4096, its
    segment readers against the halving descents at those depths, its
    covers at depths 0..14 and m = 1..300, 729 and 1000, then ``surfaces`` random
    linear graphs, spheres and 3-D tables at m = 1..48, as many 4-D spheres
    and tables at m = 1..16, the 3-D sphere against the exact oracle at
    m = 1..48 over SPHERE_PS, and the hyperplane against its per-sum table
    kernel at n = 2 and m = 1..1000 and at n = 3 and m = 1..128; every
    cover is also rebuilt through GridCover's index check."""
    for depth in range(15, 21):
        _assert_staircase_is_monotone(depth)
    _assert_descent_matches_bisect(range(15, 21), (1000, 4096))
    faces = _faces((*range(1, 301), 729, 1000, 4096))
    for depth in range(15, 21):
        _assert_segments_match_descent(depth, faces, chain(faces, _near_ordinates(depth)))
    for depth in range(15):
        stair = SingularStaircase(depth)
        for m in (*range(1, 301), 729, 1000):
            assert _checked_cover(stair, m).indices == frozenset(
                _oracle_staircase_cells(stair, m)
            ), (depth, m)
    rng = random.Random(48)
    for _ in range(surfaces):
        for surface in (
            _random_linear_graph(rng),
            LpSphere(rng.choice((2, 3)), rng.uniform(1.0, 10.0)),
            _random_table(rng, 3),
        ):
            _assert_matches_oracle(surface, range(1, 49))
        for surface in (LpSphere(4, rng.uniform(1.0, 10.0)), _random_table(rng, 4)):
            _assert_matches_oracle(surface, range(1, 17))
    _assert_sphere_exponents_match_oracle(3, range(1, 49))
    _assert_hyperplane_matches_table(2, range(1, 1001))
    _assert_hyperplane_matches_table(3, range(1, 129))


if __name__ == "__main__":
    surfaces = int(sys.argv[1])
    _sweep(surfaces)
    print(
        "staircase coordinates monotone, descent equal to the bisect kernel and"
        " segments equal to the halving descents at depths 15..20; staircases and"
        f" {surfaces} random linear graphs, spheres and tables"
        " (3-D, and 4-D spheres and tables): covers agree; 3-D spheres agree"
        " with the exact oracle up to m = 48 for 12 exponents; hyperplane walk"
        " agrees with the per-sum table up to m = 1000 (n = 2) and 128 (n = 3);"
        " every cover passes GridCover's index check"
    )
