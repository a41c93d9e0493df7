"""Cube-grid covers of subsets of the unit cube and their covering sums.

The unit cube splits into m^n half-open cells (the last cell of each axis is
closed at 1): v lies in row j of its axis iff (j-1)/m <= v < j/m, or v = 1
and j = m.  The hyperplane (table 2j) and the sphere with an integer p
(table c^p against m^p) decide in integers on the rational faces j/m, ties
at grid corners included; every other route takes the faces as floats, and
a non-integer p decides a cell whose corner lies within rounding of the
sphere on rounded powers (LpSphere(3, 1.5) at m = 36, corner (9, 16, 25)/36,
rounds the right way).  The conventions differ where a float face rounds
across a surface: x + y = 1 as a depth-0 staircase and as Hyperplane(2)
first differ at m = 5, where fl(1/5) + fl(4/5) exceeds 1.  A grid cover
records which cells meet a target set; the target can be an explicit point
list, one of the analytic surface families, or an arbitrary membership
predicate sampled on a per-cell grid.  Covers of the analytic families are
exact; predicate covers under-approximate and are flagged as such.

Every analytic family is the graph of a function of the first n-1
coordinates, so its cover visits each of the m^(n-1) base cells once and
finds the run of cells of that column that the graph meets without testing
it cell by cell.  The hyperplane and the sphere are level sets of a sum of
one increasing function per coordinate, so one walk serves both: on a table
of that function at the faces, each run end only moves down as the last base
coordinate grows and walks down from the previous base cell's, tested on
sums built axis by axis for one head (a base cell of the first n-2 axes) at
a time.  A linear graph's run goes from the row of its attained interval's
lower end to the row of its upper end, both bisected on the faces, and is
settled in closed form: the exact interval test decides only the top row of
a column whose interval is a point, starts at or above 1, or ends on a face
or below 0.  A tabulated graph's values are the step extension at a base
cell's corners, read from per-axis bitsets of the samples below each corner,
the prefix ORs of one sorted pass over the axis's sample coordinates, ANDed
head by head.  The staircase's polyline crosses each inner face once per
axis, so its cover is the lattice path that steps right or down at each
crossing in the order they occur; an x crossing is found by walking down the
staircase's construction and a y crossing by arithmetic on its dyadic
ordinates, so a cover costs O(m*depth) and builds no vertex list.
"""

import math
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate, product
from operator import or_

from .estimate import (
    COVERING,
    BudgetExceededError,
    MeasureEstimate,
    _sum_in_order,
    require_finite,
    require_int,
)
from .surfaces import (
    Hyperplane,
    LinearGraph,
    LpSphere,
    SingularStaircase,
    TabulatedMonotone,
    _staircase_x_segment,
    _staircase_y_segment,
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
    """Volume of an s-dimensional ball of radius 1/2 (the measure normaliser).

    ``s`` is a number, a bool not counting as one (else ValueError).
    """
    if isinstance(s, bool):
        raise ValueError(f"s must be a number, got {s!r}")
    require_finite("s", s)
    if s < 0:
        raise ValueError("s must be >= 0")
    return math.pi ** (s / 2) / (2**s * math.gamma(s / 2 + 1))


def d_const(n: int) -> float:
    """The dimension constant n^((n-1)/2) * alpha(n-1) of the covering bound."""
    require_int("n", n, 1)
    return n ** ((n - 1) / 2) * alpha(n - 1)


def _row(v: float, m: int) -> int:
    """The row j of 1..m with (j-1)/m <= v < j/m in floats, or m at v = 1.

    The rounded product v*m can put v a rounding error across a face from
    its row, never a whole row away, so one step settles it.
    """
    j = min(int(v * m) + 1, m)
    if v < (j - 1) / m:
        return j - 1
    if j < m and v >= j / m:
        return j + 1
    return j


def cube_index(x: Sequence[float], m: int) -> tuple[int, ...]:
    """The 1-based multi-index of the grid cell containing ``x``.

    Cells are half-open except at the top face: coordinate c lies in cell j
    iff (j-1)/m <= c < j/m with the faces rounded to floats, or c = 1 and
    j = m, so boundary points land on a unique, deterministic cell, the one
    every surface cover on the float faces uses.
    """
    require_int("m", m, 1)
    idx = []
    for c in x:
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"coordinate {c} outside [0,1]")
        idx.append(_row(c, m))
    return tuple(idx)


@dataclass(frozen=True)
class GridCover:
    """The multi-indices of the side-1/m cells meeting a target set.

    A cover from ``grid_cover`` is valid by construction, since every route
    makes only cells of [1,m]^dim, and is not scanned again; one built by
    hand is checked index by index.
    """

    m: int
    dim: int
    indices: frozenset[tuple[int, ...]]
    exact: bool = True

    def __post_init__(self):
        require_int("m", self.m)
        require_int("dim", self.dim)
        if self.m < 1 or self.dim < 1:
            raise ValueError("cover needs m >= 1 and dim >= 1")
        for d in self.indices:
            if len(d) != self.dim or not all(1 <= c <= self.m for c in d):
                raise ValueError(f"index {d} outside [1,{self.m}]^{self.dim}")

    @classmethod
    def _trusted(
        cls, m: int, dim: int, indices: frozenset[tuple[int, ...]], exact: bool = True
    ) -> "GridCover":
        """Build from cells of [1,m]^dim without re-checking them.

        Only for covers ``grid_cover`` made itself; everything from outside
        goes through the constructor.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "exact", exact)
        return self

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class PointCloud:
    """An explicit finite subset of the unit cube."""

    dim: int
    points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        require_int("dim", self.dim, 1)
        object.__setattr__(self, "points", tuple(map(tuple, self.points)))
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
        require_int("dim", self.dim)
        require_int("samples_per_axis", self.samples_per_axis)
        if self.dim < 1 or self.samples_per_axis < 1:
            raise ValueError("region needs dim >= 1 and samples_per_axis >= 1")


def _level_cells(n: int, m: int, power, level):
    # the cells meeting a level set {phi(x_1) + ... + phi(x_n) = level} of a
    # strictly increasing phi, tabled on the faces as power[j] = phi(j/m):
    # the sum increases in every coordinate, so the half-open cell d meets
    # it iff sum power[d_i - 1] <= level < sum power[d_i].  Each head (a
    # base cell of the first n-2 axes) is summed in turn, axis by axis from
    # the int 0, once for every last base row: an integer table stays in
    # ints, and 0 + x is x for a float.  Over a base cell the rows with
    # s_hi + power[j] > level >= s_lo + power[j-1] form one run.  Both sums
    # grow with the last base row (power never decreases, float addition is
    # monotone), so each end only moves down: it walks down from the
    # previous base row's, on the cell test's sums
    rows = range(1, m + 1)
    for head in product(rows, repeat=n - 2):
        hi0 = lo0 = 0
        for di in head:
            hi0 += power[di]
            lo0 += power[di - 1]
        lo, hi = m + 1, m
        for di in rows:
            s_hi = hi0 + power[di]
            s_lo = lo0 + power[di - 1]
            # the sum test ends nearly every walk, so it goes first; at the
            # bound it reads power[0] or power[-1], both real entries
            while s_hi + power[lo - 1] > level and lo > 1:
                lo -= 1
            while s_lo + power[hi - 1] > level and hi:
                hi -= 1
            for j in range(lo, hi + 1):
                yield head + (di, j)


def _hyperplane_cells(s: Hyperplane, m: int):
    # sum(x) = n/2 on the rational faces j/m, doubled into integers
    return _level_cells(s.n, m, [2 * j for j in range(m + 1)], m * s.n)


def _lpsphere_cells(s: LpSphere, m: int):
    # integer p: sum (d_i - 1)^p <= m^p < sum d_i^p, decided in ints.  Else,
    # or where every sum without a top-row term is at most 1/2 (the cover is
    # the shell of cells with a coordinate m), floats decide; power[m] is
    # infinite, read only in upper sums, so no term is lost next to a 1.0
    n, p = s.n, s.p
    if p == int(p) and n * ((m - 1) / m) ** p > 0.5:
        p = int(p)
        return _level_cells(n, m, [c**p for c in range(m + 1)], m**p)
    return _level_cells(n, m, [(c / m) ** p for c in range(m)] + [math.inf], 1.0)


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


def _linear_axis_terms(box_side, c: float, m: int):
    """Per base row meeting one side of a box: (row, lower term, upper term, attained flags).

    The terms are the gradient component times the ends of the row's part
    inside the box, ordered so that they add to the lower and upper graph
    values; an end is not attained where an open upper cell face cuts it off.
    """
    box_lo, box_hi = box_side
    terms = []
    for di in range(1, m + 1):
        cell_hi = di / m
        lo_x = max((di - 1) / m, box_lo)
        hi_x = min(cell_hi, box_hi)
        hi_x_closed = hi_x < cell_hi or di == m
        if lo_x > hi_x or (lo_x == hi_x and not hi_x_closed):
            continue
        if c >= 0:
            terms.append((di, c * lo_x, c * hi_x, True, hi_x_closed or c == 0))
        else:
            terms.append((di, c * hi_x, c * lo_x, hi_x_closed, True))
    return terms


def _linear_cells(s: LinearGraph, m: int):
    # over each base box the values attained on a base cell form the
    # interval from f_lo to f_hi, whose terms are tabulated per axis and
    # added in axis order.  The rows meeting it run from the row of f_lo to
    # the row of f_hi, each bisected on the lower faces and clipped to 1..m.
    # Every row below the top one meets the interval's interior, so only the
    # top row can depend on the attained flags, and it does not either while
    # f_lo < f_hi, f_lo < 1 and f_hi lies above the row's lower face.
    # Otherwise (f_hi on a face or below 0, f_lo at least 1, or a point
    # interval) the top row takes the exact interval test.  The column is
    # the union over the boxes
    lower = [j / m for j in range(m)]
    for box in s.base:
        *heads, last = [_linear_axis_terms(side, c, m) for side, c in zip(box, s.gradient)]
        partial = [((), s.offset, s.offset, True, True)]
        for terms in heads:
            partial = [
                (base + (di,), f_lo + t_lo, f_hi + t_hi, lo_att and a_lo, hi_att and a_hi)
                for base, f_lo, f_hi, lo_att, hi_att in partial
                for di, t_lo, t_hi, a_lo, a_hi in terms
            ]
        for head, f_lo0, f_hi0, lo_att0, hi_att0 in partial:
            for di, t_lo, t_hi, a_lo, a_hi in last:
                f_lo = f_lo0 + t_lo
                f_hi = f_hi0 + t_hi
                hi = bisect_right(lower, f_hi, 1)
                if not (f_lo < f_hi and f_lo < 1.0 and lower[hi - 1] < f_hi):
                    lo_att = lo_att0 and a_lo
                    hi_att = hi_att0 and a_hi
                    if not _interval_overlap(
                        f_lo, lo_att, f_hi, hi_att, lower[hi - 1], True, hi / m, hi == m
                    ):
                        hi -= 1
                for j in range(bisect_right(lower, f_lo, 1), hi + 1):
                    yield head + (di, j)


def _tabulated_cells(s: TabulatedMonotone, m: int):
    # the step extension is constant on the arrangement pieces cut by the
    # sample coordinates, and each piece's value appears at its lower
    # corner, so the values attained on a base cell are exactly the
    # extension at the cell's lower corner and the cuts inside it.  With
    # the samples sorted by value, bit k of an axis mask marks sample k at
    # or below a corner coordinate (prefix ORs over the sorted coordinates,
    # bisected), and a row's set takes the masks at its lower face and at
    # each coordinate in it.  The AND over the axes, head axes first, marks
    # the samples below the corner, its lowest bit the minimum, which is the
    # extension (1 where no bit is set).  Each value lies in one row
    samples = sorted(s.samples, key=lambda sample: sample[1])
    value_rows = [_row(val, m) for _, val in samples]
    everything = (1 << len(samples)) - 1
    rows = range(1, m + 1)
    row_masks = []
    for i in range(s.dim - 1):
        pairs = sorted((pt[i], 1 << k) for k, (pt, _) in enumerate(samples))
        coords = [c for c, _ in pairs]
        at_or_below = list(accumulate((bit for _, bit in pairs), or_, initial=0))
        per_row = [None] + [{at_or_below[bisect_right(coords, (di - 1) / m)]} for di in rows]
        for c in coords:
            per_row[_row(c, m)].add(at_or_below[bisect_right(coords, c)])
        row_masks.append(per_row)

    *heads, last = row_masks
    for head in product(rows, repeat=s.dim - 2):
        head_masks = {everything}
        for per_row, di in zip(heads, head):
            head_masks = {a & b for a in head_masks for b in per_row[di]}
        for di in rows:
            for mask in {a & b for a in head_masks for b in last[di]}:
                yield head + (di, value_rows[(mask & -mask).bit_length() - 1] if mask else m)


def _staircase_cells(s: SingularStaircase, m: int):
    # x strictly increases and y never increases along the polyline, so it
    # crosses each inner face k/m once per axis: from the point where x = k/m
    # on it lies in column k+1, and just after the last point with y >= k/m
    # in row k.  Its cover is the lattice path from (1, m) to (m, 1) that
    # steps right at each x crossing and down at each y crossing, in the
    # order they occur; at a tie the right step comes first, since the
    # crossing point lies in the right-hand cell.  Each crossing's segment is
    # read off the construction (by descent for x, by arithmetic for y), keyed
    # by the index of its end vertex, and its place on the segment is the
    # quotient a segment-cell clip forms, so ties fall the same way
    crossings = []
    for k in range(1, m):
        t = k / m
        a, x0, _, x1, _ = _staircase_x_segment(s.depth, t)  # x0 < t <= x1
        crossings.append((a, (t - x0) / (x1 - x0), 0))
        b, y0, y1 = _staircase_y_segment(s.depth, t)  # y0 >= t > y1
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


_FAMILY_CELLS = {
    Hyperplane: _hyperplane_cells,
    LpSphere: _lpsphere_cells,
    LinearGraph: _linear_cells,
    TabulatedMonotone: _tabulated_cells,
    SingularStaircase: _staircase_cells,
}


def grid_cover(target, m: int, budget: int = 2_000_000) -> GridCover:
    """The set of grid cells meeting the target at resolution m.

    Point clouds index directly; the analytic families find the run of hit
    cells over each of the m^(n-1) base cells, settled by the family's exact
    half-open intersection test; predicates are sampled at every one of the
    m^n cells and flagged inexact.  ``budget`` bounds what each route
    visits: the m^(n-1) base cells of an analytic family, the m^n cells of a
    predicate.  Point clouds are not budgeted.  A negative budget is an
    error, and so is an ``m`` that is not an int of at least 1 (a bool
    included).  Every route makes only cells of [1,m]^dim, so the cover is
    built without ``GridCover``'s index check.
    """
    require_int("budget", budget, 0)
    require_int("m", m, 1)
    if isinstance(target, PointCloud):
        return GridCover._trusted(
            m, target.dim, frozenset(cube_index(p, m) for p in target.points)
        )
    if isinstance(target, PredicateRegion):
        dim = target.dim
        if m**dim > budget:
            raise BudgetExceededError(f"{m**dim} cells exceed budget {budget}")
        S = target.samples_per_axis
        offsets = [
            tuple((o + 0.5) / S for o in combo) for combo in product(range(S), repeat=dim)
        ]
        hits = set()
        for d in product(range(1, m + 1), repeat=dim):
            for off in offsets:
                pt = tuple((di - 1 + oi) / m for di, oi in zip(d, off))
                if target.contains(pt):
                    hits.add(d)
                    break
        return GridCover._trusted(m, dim, frozenset(hits), exact=False)
    dim = surface_dim(target)
    if m ** (dim - 1) > budget:
        raise BudgetExceededError(f"{m ** (dim - 1)} base cells exceed budget {budget}")
    return GridCover._trusted(m, dim, frozenset(_FAMILY_CELLS[type(target)](target, m)))


def covering_bound(cover: GridCover, s: int | None = None) -> MeasureEstimate:
    """The covering sum alpha_s * count * (sqrt(dim)/m)^s of the cover.

    The cells have diameter delta = sqrt(dim)/m, so the sum bounds H^s_delta,
    which is at most H^s: at a fixed m it can lie below the measure
    (SingularStaircase(12) at m = 1: 1.4142 for a length of 1.9923), and only
    H^s <= lim inf over m of the sums holds.  ``upper_bound_only`` keeps it
    apart from two-sided values.  The default exponent dim-1 is the
    antichain case; pass ``s=dim`` for the measure of a projection image.
    ``s`` is checked as :func:`alpha` checks it, so a bool raises ValueError.
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
    that a poor fit is visible; a target whose every cover is empty has
    dimension 0, and one empty at some resolutions only has no fit.
    """
    ms = list(m_list)
    if len(set(ms)) < 2:
        raise ValueError("need at least two distinct resolutions")
    counts = tuple(len(grid_cover(target, m)) for m in ms)
    if not any(counts):
        return BoxDimensionFit(0.0, 0.0, counts)
    if 0 in counts:
        raise ValueError(
            f"cover is empty at m={ms[counts.index(0)]} but not at every resolution"
        )
    xs = [math.log(m) for m in ms]
    ys = [math.log(c) for c in counts]
    n = len(xs)
    mean_x = _sum_in_order(xs) / n
    mean_y = _sum_in_order(ys) / n
    sxx = _sum_in_order((x - mean_x) ** 2 for x in xs)
    sxy = _sum_in_order((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))
    return BoxDimensionFit(slope, residual, counts)
