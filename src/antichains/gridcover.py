"""Cube-grid covers of subsets of the unit cube and covering measure bounds.

The unit cube splits into m^n half-open cells (the last cell of each axis
is closed at 1).  A grid cover records which cells meet a target set; the
target can be an explicit point list, one of the analytic surface families,
or an arbitrary membership predicate sampled on a per-cell grid.  Covers of
the analytic families are exact; predicate covers under-approximate and
are flagged as such.

Every analytic family is the graph of a function of the first n-1
coordinates, so its cover visits each of the m^(n-1) base cells once and
walks that column of cells only where the graph passes, applying the
family's exact per-cell test there.
"""

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import product

from .estimate import COVERING, MeasureEstimate
from .partition import BudgetExceededError
from .surfaces import (
    Hyperplane,
    LinearGraph,
    LpSphere,
    SingularStaircase,
    TabulatedMonotone,
    monotone_extension,
    staircase_polyline,
    surface_dim,
)

__all__ = [
    "GridCover",
    "PointCloud",
    "PredicateRegion",
    "alpha",
    "d_const",
    "cube_index",
    "grid_cover",
    "covering_bound",
    "volume_ratio_curve",
    "BoxDimensionFit",
    "box_dimension",
]


def alpha(s: float) -> float:
    """Volume of an s-dimensional ball of radius 1/2 (the measure normaliser)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return math.pi ** (s / 2) / (2**s * math.gamma(s / 2 + 1))


def d_const(n: int) -> float:
    """The dimension constant n^((n-1)/2) * alpha(n-1) of the covering bound."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n ** ((n - 1) / 2) * alpha(n - 1)


def cube_index(x: Sequence[float], m: int) -> tuple[int, ...]:
    """The 1-based multi-index of the grid cell containing ``x``.

    Cells are half-open except at the top face, so boundary points land on
    a unique, deterministic cell.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    idx = []
    for c in x:
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"coordinate {c} outside [0,1]")
        j = int(c * m) + 1
        idx.append(m if j > m else j)
    return tuple(idx)


@dataclass(frozen=True)
class GridCover:
    """The multi-indices of the side-1/m cells meeting a target set."""

    m: int
    dim: int
    indices: frozenset[tuple[int, ...]]
    exact: bool = True

    def __post_init__(self):
        if self.m < 1 or self.dim < 1:
            raise ValueError("cover needs m >= 1 and dim >= 1")
        for d in self.indices:
            if len(d) != self.dim or not all(1 <= c <= self.m for c in d):
                raise ValueError(f"index {d} outside [1,{self.m}]^{self.dim}")

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class PointCloud:
    """An explicit finite subset of the unit cube."""

    dim: int
    points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError(f"point {p} has dimension {len(p)}, expected {self.dim}")
            if not all(0.0 <= c <= 1.0 for c in p):
                raise ValueError(f"point {p} outside the unit cube")


@dataclass(frozen=True)
class PredicateRegion:
    """A membership oracle sampled on a fixed per-cell grid.

    Covers built from a predicate can miss cells whose intersection dodges
    the sample grid, so they are flagged as inexact under-approximations.
    """

    dim: int
    contains: Callable[[tuple[float, ...]], bool]
    samples_per_axis: int = 4

    def __post_init__(self):
        if self.dim < 1 or self.samples_per_axis < 1:
            raise ValueError("region needs dim >= 1 and samples_per_axis >= 1")


def _cell_indices(m: int, dim: int):
    return product(range(1, m + 1), repeat=dim)


def _start_row(value: float, m: int) -> int:
    """The row whose half-open value range holds ``value``, once clamped into [0, 1]."""
    return int(min(max(value, 0.0), 1.0) * m) + 1


def _walk_run(side, start: int, m: int) -> range:
    """The rows j in 1..m with ``side(j) == 0``, found by walking from ``start``.

    ``side`` must be non-decreasing in j: -1 for cells below the run, 0 on
    it, +1 above it.  The start only decides where the walk begins, so a
    poor one costs steps but never changes the run.
    """
    j = min(max(start, 1), m)
    s = side(j)
    while s < 0 and j < m:
        j += 1
        s = side(j)
    while s > 0 and j > 1:
        j -= 1
        s = side(j)
    if s:
        return range(0)
    lo = hi = j
    while lo > 1 and side(lo - 1) == 0:
        lo -= 1
    while hi < m and side(hi + 1) == 0:
        hi += 1
    return range(lo, hi + 1)


def _column_cells(rows, m: int, d_base: int):
    """Cells of a graph over the base: each base cell's hit rows, from ``rows(base)``."""
    for base in _cell_indices(m, d_base):
        for j in rows(base):
            yield (*base, j)


def _hyperplane_cells(s: Hyperplane, m: int):
    # integer arithmetic keeps the half-open test exact: the cell meets the
    # slice iff sum(lower) <= n/2 and (n/2 < sum(upper) or the cell is the
    # closed top corner with equality, which cannot occur for n >= 2)
    n = s.n
    mn = m * n

    def rows(base):
        sb = sum(base)

        def side(j):
            sd = sb + j
            if mn >= 2 * sd:
                return -1
            return 1 if 2 * (sd - n) > mn else 0

        return _walk_run(side, (mn - 2 * sb) // 2 + 1, m)

    return _column_cells(rows, m, n - 1)


def _lpsphere_cells(s: LpSphere, m: int):
    # the p-norm power sum is strictly increasing in every coordinate, so the
    # sphere meets the half-open cell iff g(lower) <= 1 < g(upper); the
    # powers are tabulated once and summed in the cell's coordinate order
    p = s.p
    power = [(c / m) ** p for c in range(m + 1)]

    def rows(base):
        s_hi = sum(power[c] for c in base)
        s_lo = sum(power[c - 1] for c in base)

        def side(j):
            if s_hi + power[j] <= 1.0:
                return -1
            return 1 if s_lo + power[j - 1] > 1.0 else 0

        start = _start_row((1.0 - s_hi) ** (1.0 / p), m) if s_hi < 1.0 else 1
        return _walk_run(side, start, m)

    return _column_cells(rows, m, s.n - 1)


def _interval_overlap(a, a_closed, b, b_closed, c, c_closed, d, d_closed) -> bool:
    """Whether [a,b] and [c,d] with per-end closedness flags intersect."""
    lo = max(a, c)
    hi = min(b, d)
    if lo < hi:
        return True
    if lo > hi:
        return False
    in_first = (lo > a or (lo == a and a_closed)) and (lo < b or (lo == b and b_closed))
    in_second = (lo > c or (lo == c and c_closed)) and (lo < d or (lo == d and d_closed))
    return in_first and in_second


def _linear_box_values(s: LinearGraph, box, base, m: int):
    """Graph values over the base cell's part inside ``box``, or None if it is empty.

    The values form the interval from ``f_lo`` to ``f_hi``; the flags say
    whether each end is attained, as the cell's upper faces are open.
    """
    f_lo = s.offset
    f_hi = s.offset
    lo_attained = True
    hi_attained = True
    for (box_lo, box_hi), di, c in zip(box, base, s.gradient):
        cell_lo = (di - 1) / m
        cell_hi = di / m
        lo_x = max(cell_lo, box_lo)
        hi_x = min(cell_hi, box_hi)
        hi_x_closed = hi_x < cell_hi or di == m
        if lo_x > hi_x or (lo_x == hi_x and not hi_x_closed):
            return None
        if c >= 0:
            f_lo += c * lo_x
            f_hi += c * hi_x
            if c > 0:
                hi_attained = hi_attained and hi_x_closed
        else:
            f_lo += c * hi_x
            f_hi += c * lo_x
            lo_attained = lo_attained and hi_x_closed
    return f_lo, lo_attained, f_hi, hi_attained


def _linear_cells(s: LinearGraph, m: int):
    # over each base box the values attained on a base cell form one
    # interval, so the rows meeting it are one run; the column is the union
    # of the runs of the boxes that meet the base cell
    def rows(base):
        hit = set()
        for box in s.base:
            values = _linear_box_values(s, box, base, m)
            if values is None:
                continue
            f_lo, lo_attained, f_hi, hi_attained = values

            def side(j):
                val_hi = j / m
                if _interval_overlap(
                    f_lo, lo_attained, f_hi, hi_attained, (j - 1) / m, True, val_hi, j == m
                ):
                    return 0
                return -1 if val_hi <= f_lo else 1

            hit.update(_walk_run(side, _start_row(f_lo, m), m))
        return hit

    return _column_cells(rows, m, len(s.gradient))


def _tabulated_cells(s: TabulatedMonotone, m: int):
    # the step extension is constant on the arrangement pieces cut by the
    # sample coordinates, and each piece's value appears at its lower
    # corner, so the values attained on a base cell are exactly the
    # extension at the candidate corners below; each value lies in one row
    positions = []
    for i in range(s.dim - 1):
        cuts = sorted({pt[i] for pt, _ in s.samples})
        per_cell = [None]
        for di in range(1, m + 1):
            cell_lo = (di - 1) / m
            cell_hi = di / m
            closed_top = di == m
            per_cell.append(
                [cell_lo]
                + [c for c in cuts if cell_lo < c < cell_hi or (closed_top and c == cell_hi)]
            )
        positions.append(per_cell)

    def rows(base):
        hit = set()
        corners = product(*(pos[di] for pos, di in zip(positions, base)))
        for v in {monotone_extension(s, corner) for corner in corners}:

            def side(j):
                if v >= (j - 1) / m and (v < j / m or (j == m and v <= 1.0)):
                    return 0
                return -1 if v >= j / m else 1

            hit.update(_walk_run(side, _start_row(v, m), m))
        return hit

    return _column_cells(rows, m, s.dim - 1)


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


def _staircase_cells(s: SingularStaircase, m: int):
    verts = staircase_polyline(s.depth)
    idx = [cube_index(v, m) for v in verts]
    hits: set[tuple[int, int]] = set()
    for p, q, a, b in zip(verts, verts[1:], idx, idx[1:]):
        if a == b:
            # most segments of a deep staircase lie inside one cell
            if a not in hits and _segment_hits_cell(p, q, a, m):
                hits.add(a)
            continue
        (pi, pj), (qi, qj) = a, b
        for i in range(min(pi, qi), max(pi, qi) + 1):
            for j in range(min(pj, qj), max(pj, qj) + 1):
                d = (i, j)
                if d not in hits and _segment_hits_cell(p, q, d, m):
                    hits.add(d)
    return hits


_FAMILY_CELLS = {
    Hyperplane: _hyperplane_cells,
    LpSphere: _lpsphere_cells,
    LinearGraph: _linear_cells,
    TabulatedMonotone: _tabulated_cells,
    SingularStaircase: _staircase_cells,
}


def grid_cover(target, m: int, budget: int = 2_000_000) -> GridCover:
    """The set of grid cells meeting the target at resolution m.

    Point clouds index directly; the analytic families walk the column of
    cells over each base cell with an exact per-cell intersection test;
    predicates are sampled and flagged inexact.  ``budget`` bounds the m^n
    cells of the grid on every route, although a column walk tests far
    fewer.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if isinstance(target, PointCloud):
        return GridCover(m, target.dim, frozenset(cube_index(p, m) for p in target.points))
    if isinstance(target, PredicateRegion):
        dim = target.dim
        if m**dim > budget:
            raise BudgetExceededError(f"{m**dim} cells exceed budget {budget}")
        S = target.samples_per_axis
        offsets = [
            tuple((o + 0.5) / S for o in combo) for combo in product(range(S), repeat=dim)
        ]
        hits = set()
        for d in _cell_indices(m, dim):
            for off in offsets:
                pt = tuple((di - 1 + oi) / m for di, oi in zip(d, off))
                if target.contains(pt):
                    hits.add(d)
                    break
        return GridCover(m, dim, frozenset(hits), exact=False)
    dim = surface_dim(target)
    if m**dim > budget:
        raise BudgetExceededError(f"{m**dim} cells exceed budget {budget}")
    return GridCover(m, dim, frozenset(_FAMILY_CELLS[type(target)](target, m)))


def covering_bound(cover: GridCover, s: int | None = None) -> MeasureEstimate:
    """One-sided upper bound on the s-dimensional measure of the covered set.

    Every cell is a set of diameter sqrt(dim)/m, so the cover witnesses
    alpha_s * count * (sqrt(dim)/m)^s as an upper bound at that scale.  The
    default exponent dim-1 is the antichain case; pass ``s=dim`` to bound
    the full-dimensional measure of a projection image.
    """
    if s is None:
        if cover.dim < 2:
            raise ValueError("the default exponent dim-1 needs dim >= 2")
        s = cover.dim - 1
    if s < 0:
        raise ValueError("s must be >= 0")
    value = alpha(s) * len(cover) * (math.sqrt(cover.dim) / cover.m) ** s
    return MeasureEstimate(value, COVERING, 0.0, upper_bound_only=True)


def volume_ratio_curve(target, m_list: Sequence[int]) -> list[float]:
    """Covered-cell fraction |G_m| / m^n per resolution; tends to the volume for closed sets."""
    covers = (grid_cover(target, m) for m in m_list)
    return [len(c) / c.m**c.dim for c in covers]


@dataclass(frozen=True)
class BoxDimensionFit:
    dimension: float
    residual: float
    counts: tuple[int, ...]


def box_dimension(target, m_list: Sequence[int]) -> BoxDimensionFit:
    """Least-squares slope of log cell-count against log resolution.

    The residual is the largest absolute deviation of the fit, reported so
    that a poor fit is visible; an empty target has dimension 0.
    """
    ms = list(m_list)
    if len(set(ms)) < 2:
        raise ValueError("need at least two distinct resolutions")
    counts = tuple(len(grid_cover(target, m)) for m in ms)
    if counts[0] == 0:
        return BoxDimensionFit(0.0, 0.0, counts)
    xs = [math.log(m) for m in ms]
    ys = [math.log(c) for c in counts]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))
    return BoxDimensionFit(slope, residual, counts)
