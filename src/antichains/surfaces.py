"""Antichain surfaces given as graphs of order-reversing functions.

Five families are supported: the central diagonal hyperplane slice of the
cube, the positive part of an l^p sphere, linear graphs over a box-union
base, tabulated order-reversing functions extended to step functions, and
the decreasing singular-staircase polyline.  Each family knows its surface
measure, its projection measures, and enough analytic structure for the
2-dimensional skewed-projection measures.
"""

import math
from dataclasses import dataclass

from .estimate import CLOSED_FORM, QUADRATURE, MeasureEstimate, require_finite
from .quadrature import INSIDE, OUTSIDE, STRADDLE, integrate_adaptive

__all__ = [
    "Hyperplane",
    "LpSphere",
    "LinearGraph",
    "TabulatedMonotone",
    "SingularStaircase",
    "surface_dim",
    "graph_value",
    "monotone_extension",
    "irwin_hall_cdf",
    "slab_volume",
    "facet_union_measure",
    "staircase_polyline",
    "default_tolerance",
    "surface_measure",
    "surface_measure_quadrature",
    "projection_measure",
    "InequalityReport",
    "verify_projection_inequality",
    "SkewReport",
    "skew_measures_2d",
    "parse_surface_descriptor",
    "format_surface_descriptor",
]

Boxes = tuple[tuple[tuple[float, float], ...], ...]


@dataclass(frozen=True)
class Hyperplane:
    """The slice {x in [0,1]^n : x_1 + ... + x_n = n/2}."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("hyperplane surface needs n >= 2")


@dataclass(frozen=True)
class LpSphere:
    """The positive part {x in [0,1]^n : ||x||_p = 1} of an l^p sphere."""

    n: int
    p: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("sphere surface needs n >= 2")
        require_finite("p", self.p)
        if self.p < 1:
            raise ValueError("p must be >= 1")


@dataclass(frozen=True)
class LinearGraph:
    """The graph of x -> offset + c.x over a union of disjoint base boxes.

    The base boxes live in [0,1]^(n-1), one (lo, hi) pair per axis.  The
    measure formulas depend only on the gradient and the base volume, so an
    arbitrary gradient sign is allowed; the offset only positions the graph.
    """

    gradient: tuple[float, ...]
    base: Boxes | None = None
    offset: float = 0.0

    def __post_init__(self):
        if not self.gradient:
            raise ValueError("gradient must have at least one component")
        require_finite("gradient components", *self.gradient)
        require_finite("offset", self.offset)
        d = len(self.gradient)
        if self.base is None:
            object.__setattr__(self, "base", (((0.0, 1.0),) * d,))
        for box in self.base:
            if len(box) != d:
                raise ValueError("base boxes must match the gradient dimension")
            for lo, hi in box:
                if not (0.0 <= lo <= hi <= 1.0):
                    raise ValueError(f"base interval ({lo}, {hi}) outside [0,1]")
        for i, a in enumerate(self.base):
            for b in self.base[i + 1 :]:
                if all(max(al, bl) < min(ah, bh) for (al, ah), (bl, bh) in zip(a, b)):
                    raise ValueError("base boxes overlap")


@dataclass(frozen=True)
class TabulatedMonotone:
    """Samples of an order-reversing function on [0,1]^(n-1).

    The associated surface is the graph of the step extension
    ``min { f(a) : sample a <= x }`` with empty minimum 1, which reproduces
    the samples and is order-reversing everywhere.
    """

    dim: int
    samples: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("tabulated surface needs dimension >= 2")
        seen = set()
        for pt, val in self.samples:
            if len(pt) != self.dim - 1:
                raise ValueError(f"sample point {pt} must have {self.dim - 1} coordinates")
            if not all(0.0 <= c <= 1.0 for c in pt):
                raise ValueError(f"sample point {pt} outside the unit cube")
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"sample value {val} outside [0,1]")
            if pt in seen:
                raise ValueError(f"duplicate sample point {pt}")
            seen.add(pt)
        for (a, fa), (b, fb) in (
            (s, t) for s in self.samples for t in self.samples if s is not t
        ):
            if all(x <= y for x, y in zip(a, b)) and fa < fb:
                raise ValueError(f"samples at {a} and {b} are not order-reversing")


@dataclass(frozen=True)
class SingularStaircase:
    """Depth-k approximation of a decreasing singular staircase on [0,1]^2.

    Flat pieces sit over the removed middle thirds; the remaining intervals
    carry the steep linear pieces.  Depth 0 is the plain anti-diagonal.
    """

    depth: int

    def __post_init__(self):
        if not 0 <= self.depth <= 20:
            raise ValueError("depth must be in 0..20")


Surface = Hyperplane | LpSphere | LinearGraph | TabulatedMonotone | SingularStaircase


def surface_dim(s: Surface) -> int:
    if isinstance(s, (Hyperplane, LpSphere)):
        return s.n
    if isinstance(s, LinearGraph):
        return len(s.gradient) + 1
    if isinstance(s, TabulatedMonotone):
        return s.dim
    if isinstance(s, SingularStaircase):
        return 2
    raise TypeError(f"not a surface: {s!r}")


def default_tolerance(n: int) -> float:
    """Default absolute quadrature tolerance by ambient dimension."""
    return {2: 1e-6, 3: 1e-3}.get(n, 5e-2)


# ---------------------------------------------------------------------------
# closed-form helpers


def irwin_hall_cdf(n: int, t: float) -> float:
    """CDF of a sum of n independent uniform [0,1] variables.

    Inclusion-exclusion over the corners of the cube cut off by the plane
    of constant coordinate sum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if t <= 0:
        return 0.0
    if t >= n:
        return 1.0
    total = 0.0
    for k in range(int(t) + 1):
        total += (-1) ** k * math.comb(n, k) * (t - k) ** n
    return total / math.factorial(n)


def slab_volume(n: int, c: float) -> float:
    """Volume of {x in [0,1]^n : (n-c)/2 <= sum x_i < (n+c)/2}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= c <= n:
        raise ValueError(f"c must be in [0, {n}]")
    return irwin_hall_cdf(n, (n + c) / 2) - irwin_hall_cdf(n, (n - c) / 2)


def facet_union_measure(n: int) -> float:
    """Measure of the union of the n zero-coordinate facets of the cube."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(n)


def _orthant_ball_volume(d: int, p: float) -> float:
    """Volume of the positive-orthant part of the unit l^p ball in d dimensions."""
    return math.gamma(1 + 1 / p) ** d / math.gamma(1 + d / p)


def _hyperplane_base_measure(n: int) -> float:
    # base region of the graph form: {x in [0,1]^(n-1): n/2 - 1 <= sum <= n/2}
    return irwin_hall_cdf(n - 1, n / 2) - irwin_hall_cdf(n - 1, n / 2 - 1)


def _linear_base_volume(s: LinearGraph) -> float:
    return sum(math.prod(hi - lo for lo, hi in box) for box in s.base)


# ---------------------------------------------------------------------------
# staircase polyline


def staircase_polyline(depth: int) -> list[tuple[float, float]]:
    """Vertices of the decreasing depth-k staircase from (0,1) to (1,0)."""
    if not 0 <= depth <= 20:
        raise ValueError("depth must be in 0..20")
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
    return [(x, 1.0 - y) for x, y in rising]


def _polyline_length(vertices) -> float:
    return sum(
        math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(vertices, vertices[1:])
    )


# ---------------------------------------------------------------------------
# graph evaluation


def monotone_extension(samples: TabulatedMonotone, x) -> float:
    """Step extension of the tabulated function: min over samples below ``x``.

    With no sample below ``x`` the value is 1, so the extension is total on
    the unit cube and still order-reversing.
    """
    x = tuple(x)
    if len(x) != samples.dim - 1:
        raise ValueError(f"point {x} must have {samples.dim - 1} coordinates")
    if not all(0.0 <= c <= 1.0 for c in x):
        raise ValueError(f"point {x} outside the unit cube")
    best = 1.0
    for pt, val in samples.samples:
        if val < best and all(a <= b for a, b in zip(pt, x)):
            best = val
    return best


def graph_value(s: Surface, x) -> float:
    """Value of the base-to-last-coordinate function of a graph-type surface."""
    x = tuple(x)
    if isinstance(s, Hyperplane):
        return s.n / 2 - sum(x)
    if isinstance(s, LpSphere):
        rest = 1.0 - sum(c**s.p for c in x)
        return rest ** (1.0 / s.p) if rest > 0 else 0.0
    if isinstance(s, LinearGraph):
        return s.offset + sum(c * v for c, v in zip(s.gradient, x))
    if isinstance(s, TabulatedMonotone):
        return monotone_extension(s, x)
    if isinstance(s, SingularStaircase):
        return _staircase_value(s, x[0])
    raise TypeError(f"not a surface: {s!r}")


def _staircase_value(s: SingularStaircase, x: float) -> float:
    verts = staircase_polyline(s.depth)
    if not 0.0 <= x <= 1.0:
        raise ValueError("staircase argument outside [0,1]")
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        if x0 <= x <= x1:
            if x1 == x0:
                return min(y0, y1)
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return verts[-1][1]


# ---------------------------------------------------------------------------
# surface measures


def _lpsphere_quadrature(s: LpSphere, tol: float) -> MeasureEstimate:
    """Quadrature over the symmetric piece where the graph coordinate is largest.

    The sphere splits into n congruent pieces by which coordinate is
    maximal; on the graph piece the integrand stays below sqrt(n) and the
    rim singularity never enters, so the integral converges cleanly.
    """
    n, p = s.n, s.p
    d = n - 1

    def integrand(x):
        ssum = sum(c**p for c in x)
        mx = max(x)
        if ssum + mx**p > 1.0:
            return 0.0
        fval = (1.0 - ssum) ** (1.0 / p)
        acc = 1.0
        for c in x:
            if c > 0.0:
                acc += (c / fval) ** (2.0 * (p - 1.0))
        return math.sqrt(acc)

    edge = 0.5 ** (1.0 / p)
    if d == 1:
        # the piece region is exactly [0, 2^(-1/p)]
        res = integrate_adaptive(integrand, ((0.0, edge),), tol / n)
    else:

        def classify(lo, hi):
            g_hi = sum(c**p for c in hi) + max(hi) ** p
            if g_hi <= 1.0:
                return INSIDE
            g_lo = sum(c**p for c in lo) + max(lo) ** p
            if g_lo > 1.0:
                return OUTSIDE
            return STRADDLE

        box = tuple(((0.0, edge),) * d)
        res = integrate_adaptive(
            integrand, box, tol / n, cell_classify=classify, sup_bound=math.sqrt(n)
        )
    return MeasureEstimate(n * res.value, QUADRATURE, n * res.error_bound)


def _hyperplane_quadrature(s: Hyperplane, tol: float) -> MeasureEstimate:
    """Direct graph-form quadrature of the diagonal slice, for cross-checking."""
    n = s.n
    d = n - 1
    lo_b, hi_b = n / 2 - 1, n / 2
    rt = math.sqrt(n)

    def integrand(x):
        ssum = sum(x)
        return rt if lo_b <= ssum <= hi_b else 0.0

    def classify(lo, hi):
        if sum(lo) >= lo_b and sum(hi) <= hi_b:
            return INSIDE
        if sum(hi) < lo_b or sum(lo) > hi_b:
            return OUTSIDE
        return STRADDLE

    box = tuple(((0.0, 1.0),) * d)
    res = integrate_adaptive(integrand, box, tol, cell_classify=classify, sup_bound=rt)
    return MeasureEstimate(res.value, QUADRATURE, res.error_bound)


def surface_measure(s: Surface, tol: float | None = None) -> MeasureEstimate:
    """The (n-1)-dimensional measure of the surface.

    Hyperplane, linear, tabulated, and staircase families have closed
    forms; the l^p sphere is integrated adaptively.  The error bound of a
    quadrature estimate is the achieved one, which may exceed the requested
    tolerance when the budget runs out.
    """
    n = surface_dim(s)
    if tol is None:
        tol = default_tolerance(n)
    if isinstance(s, Hyperplane):
        return MeasureEstimate(math.sqrt(n) * _hyperplane_base_measure(n), CLOSED_FORM)
    if isinstance(s, LpSphere):
        return _lpsphere_quadrature(s, tol)
    if isinstance(s, LinearGraph):
        slope = math.sqrt(1.0 + sum(c * c for c in s.gradient))
        return MeasureEstimate(slope * _linear_base_volume(s), CLOSED_FORM)
    if isinstance(s, TabulatedMonotone):
        # the step extension is flat off a null set, so the graph measures
        # exactly as its base
        return MeasureEstimate(1.0, CLOSED_FORM)
    if isinstance(s, SingularStaircase):
        return MeasureEstimate(_polyline_length(staircase_polyline(s.depth)), CLOSED_FORM)
    raise TypeError(f"not a surface: {s!r}")


def surface_measure_quadrature(s: Surface, tol: float | None = None) -> MeasureEstimate:
    """Force the quadrature route where one exists; used to cross-check closed forms."""
    n = surface_dim(s)
    if tol is None:
        tol = default_tolerance(n)
    if isinstance(s, Hyperplane):
        return _hyperplane_quadrature(s, tol)
    if isinstance(s, LpSphere):
        return _lpsphere_quadrature(s, tol)
    if isinstance(s, (LinearGraph, TabulatedMonotone)):
        return surface_measure(s, tol)
    raise TypeError(f"no quadrature route for {type(s).__name__}")


def projection_measure(s: Surface, axis: int, tol: float | None = None) -> MeasureEstimate:
    """Measure of the image after deleting coordinate ``axis`` (1-based).

    Deleting the graph coordinate leaves the base region; deleting a base
    coordinate integrates the corresponding absolute partial derivative,
    which each family resolves in closed form.
    """
    n = surface_dim(s)
    if not 1 <= axis <= n:
        raise ValueError(f"axis {axis} out of range 1..{n}")
    if tol is None:
        tol = default_tolerance(n)
    if isinstance(s, Hyperplane):
        # all partial derivatives are -1, so every projection has the base measure
        return MeasureEstimate(_hyperplane_base_measure(n), CLOSED_FORM)
    if isinstance(s, LpSphere):
        # every projection fills the positive-orthant unit ball in n-1 dims
        return MeasureEstimate(_orthant_ball_volume(n - 1, s.p), CLOSED_FORM)
    if isinstance(s, LinearGraph):
        vol = _linear_base_volume(s)
        if axis == n:
            return MeasureEstimate(vol, CLOSED_FORM)
        return MeasureEstimate(abs(s.gradient[axis - 1]) * vol, CLOSED_FORM)
    if isinstance(s, TabulatedMonotone):
        # step extension: base projections are null, the base itself is full
        return MeasureEstimate(1.0 if axis == n else 0.0, CLOSED_FORM)
    if isinstance(s, SingularStaircase):
        # continuous and onto in both coordinates
        return MeasureEstimate(1.0, CLOSED_FORM)
    raise TypeError(f"not a surface: {s!r}")


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of the projection inequality with their error budgets."""

    surface: MeasureEstimate
    projections: tuple[MeasureEstimate, ...]
    right_total: float
    tolerance: float
    passes: bool
    dim: int
    left_within_dim_bound: bool
    right_within_dim_bound: bool


def verify_projection_inequality(s: Surface, tol: float | None = None) -> InequalityReport:
    """Check that the surface measure is at most the sum of its projections.

    Also reports whether each side stays below the ambient dimension, the
    universal bound for weak antichains in the unit cube.
    """
    n = surface_dim(s)
    if tol is None:
        tol = default_tolerance(n)
    left = surface_measure(s, tol)
    projections = tuple(projection_measure(s, i, tol) for i in range(1, n + 1))
    right_total = sum(p.value for p in projections)
    slack = left.error_bound + sum(p.error_bound for p in projections) + tol
    return InequalityReport(
        surface=left,
        projections=projections,
        right_total=right_total,
        tolerance=tol,
        passes=left.value <= right_total + slack,
        dim=n,
        left_within_dim_bound=left.value <= n + left.error_bound + tol,
        right_within_dim_bound=right_total <= n + slack,
    )


# ---------------------------------------------------------------------------
# skewed projections in the plane


@dataclass(frozen=True)
class SkewReport:
    surface: MeasureEstimate
    delta_parts: tuple[MeasureEstimate, MeasureEstimate]
    delta_total: float
    tolerance: float
    passes: bool


def _step_pieces(s: TabulatedMonotone) -> list[tuple[float, float, float]]:
    """Maximal constancy pieces (a, b, value) of the 1-D step extension."""
    cuts = sorted({pt[0] for pt, _ in s.samples})
    breaks = [0.0] + [c for c in cuts if 0.0 < c <= 1.0] + [1.0]
    pieces = []
    for a, b in zip(breaks, breaks[1:]):
        if b > a:
            pieces.append((a, b, monotone_extension(s, (a,))))
    if not pieces:
        pieces.append((0.0, 1.0, monotone_extension(s, (0.0,))))
    return pieces


def _interval_union_measure(intervals) -> float:
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


def _tabulated_skew(s: TabulatedMonotone) -> tuple[float, float]:
    """Exact skewed-image measures of a step graph by interval bookkeeping.

    The map value - x is strictly decreasing even across the jumps, so the
    image intervals of distinct pieces never overlap and the union measures
    are exact.
    """
    d1 = []
    d2 = []
    for a, b, v in _step_pieces(s):
        if a <= v:
            hi_x = min(b, v)
            d1.append((v - hi_x, v - a))
        if b >= v:
            lo_x = max(a, v)
            d2.append((lo_x - v, b - v))
    return _interval_union_measure(d1), _interval_union_measure(d2)


def skew_measures_2d(s: Surface, tol: float | None = None) -> SkewReport:
    """Surface measure against the summed skewed-projection measures (n = 2).

    The surface must be the graph of a weakly decreasing function over the
    full unit base.  For continuous families the two skewed images are the
    intervals [0, f(0)] and [0, 1 - f(1)]; tabulated step functions get an
    exact interval-union computation instead.
    """
    if surface_dim(s) != 2:
        raise ValueError("skewed-projection measures are implemented for n = 2")
    if tol is None:
        tol = default_tolerance(2)
    if isinstance(s, LinearGraph):
        if s.base != (((0.0, 1.0),),):
            raise ValueError("skewed measures need the full unit base")
        if s.gradient[0] > 0:
            raise ValueError("skewed measures need an order-reversing graph")
    if isinstance(s, TabulatedMonotone):
        v1, v2 = _tabulated_skew(s)
    else:
        f0 = graph_value(s, (0.0,))
        f1 = graph_value(s, (1.0,))
        if not (0.0 <= f1 <= f0 <= 1.0):
            raise ValueError("graph values must stay inside the unit square")
        v1, v2 = f0, 1.0 - f1
    left = surface_measure(s, tol)
    parts = (
        MeasureEstimate(v1, CLOSED_FORM),
        MeasureEstimate(v2, CLOSED_FORM),
    )
    total = v1 + v2
    passes = left.value <= total + left.error_bound + tol
    return SkewReport(left, parts, total, tol, passes)


# ---------------------------------------------------------------------------
# descriptor files


_FAMILY_NAMES = {
    Hyperplane: "hyperplane",
    LpSphere: "lpsphere",
    LinearGraph: "linear",
    TabulatedMonotone: "tabulated",
    SingularStaircase: "staircase",
}


def format_surface_descriptor(s: Surface) -> str:
    """Serialise a surface to the key=value descriptor format."""
    lines = [f"family={_FAMILY_NAMES[type(s)]}"]
    if isinstance(s, Hyperplane):
        lines.append(f"n={s.n}")
    elif isinstance(s, LpSphere):
        lines.append(f"n={s.n}")
        lines.append(f"p={s.p!r}")
    elif isinstance(s, LinearGraph):
        lines.append("gradient=" + ",".join(repr(c) for c in s.gradient))
        lines.append(f"offset={s.offset!r}")
        for box in s.base:
            lines.append("box=" + ",".join(f"{lo!r}:{hi!r}" for lo, hi in box))
    elif isinstance(s, TabulatedMonotone):
        lines.append(f"n={s.dim}")
        for pt, val in s.samples:
            lines.append("sample=" + ",".join(repr(c) for c in (*pt, val)))
    elif isinstance(s, SingularStaircase):
        lines.append(f"depth={s.depth}")
    return "\n".join(lines) + "\n"


def parse_surface_descriptor(text: str) -> Surface:
    """Parse the key=value descriptor format produced by format_surface_descriptor."""
    entries: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad descriptor line {line!r}")
        key, value = line.split("=", 1)
        entries.append((key.strip(), value.strip()))
    fields = dict(entries)
    family = fields.get("family")
    if family is None:
        raise ValueError("descriptor is missing the family line")
    try:
        if family == "hyperplane":
            return Hyperplane(n=int(fields["n"]))
        if family == "lpsphere":
            return LpSphere(n=int(fields["n"]), p=float(fields["p"]))
        if family == "linear":
            gradient = tuple(float(c) for c in fields["gradient"].split(","))
            offset = float(fields.get("offset", "0"))
            boxes = []
            for key, value in entries:
                if key == "box":
                    box = []
                    for axis in value.split(","):
                        lo, hi = axis.split(":")
                        box.append((float(lo), float(hi)))
                    boxes.append(tuple(box))
            if not boxes:
                boxes = [((0.0, 1.0),) * len(gradient)]
            return LinearGraph(gradient=gradient, base=tuple(boxes), offset=offset)
        if family == "tabulated":
            dim = int(fields["n"])
            samples = []
            for key, value in entries:
                if key == "sample":
                    nums = [float(c) for c in value.split(",")]
                    if len(nums) != dim:
                        raise ValueError(
                            f"sample {value!r} needs {dim - 1} coordinates and a value"
                        )
                    samples.append((tuple(nums[:-1]), nums[-1]))
            return TabulatedMonotone(dim=dim, samples=tuple(samples))
        if family == "staircase":
            return SingularStaircase(depth=int(fields["depth"]))
    except KeyError as exc:
        raise ValueError(f"descriptor is missing field {exc.args[0]!r}") from None
    raise ValueError(f"unknown surface family {family!r}")
