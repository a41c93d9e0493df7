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
from functools import cache
from itertools import pairwise
from typing import get_args

from .estimate import (
    CLOSED_FORM,
    QUADRATURE,
    MeasureEstimate,
    _sum_in_order,
    require_axis,
    require_finite,
    require_int,
    require_tolerance,
)
from .quadrature import integrate_adaptive

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


def _numbers(text: str) -> list[float]:
    """A comma-separated number list; empty items are skipped."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"bad number list {text!r}") from None


def _box(text: str) -> tuple[tuple[float, float], ...]:
    """A base box written as lo:hi per axis, comma separated."""
    box = []
    for axis in text.split(","):
        try:
            lo, hi = axis.split(":")
            box.append((float(lo), float(hi)))
        except ValueError:
            raise ValueError(f"bad box axis {axis!r}") from None
    return tuple(box)


# Each family names its descriptor family, the keys it must be given and
# the keys it may be given, and implements what the public functions delegate to:
# _dim, _value, _measure, _quadrature, _projection, _fields, _from_fields.


@dataclass(frozen=True)
class Hyperplane:
    """The slice {x in [0,1]^n : x_1 + ... + x_n = n/2}."""

    _family = "hyperplane"
    _required = ("n",)
    _optional = ()
    n: int

    def __post_init__(self):
        require_int("n", self.n)
        if self.n < 2:
            raise ValueError("hyperplane surface needs n >= 2")

    def _dim(self) -> int:
        return self.n

    def _value(self, x) -> float:
        return self.n / 2 - _sum_in_order(x)

    def _measure(self, tol: float) -> MeasureEstimate:
        return MeasureEstimate(math.sqrt(self.n) * _hyperplane_base_measure(self.n), CLOSED_FORM)

    def _quadrature(self, tol: float) -> MeasureEstimate:
        """Graph-form quadrature of the diagonal slice, for cross-checking.

        The last base coordinate is integrated out: over the other n - 2 it
        ranges over [max(0, n/2 - 1 - s), min(1, n/2 - s)], s their sum, so
        the integrand is sqrt(n) times that length, continuous and
        piecewise linear on the full cube.  For n = 2 no base coordinate
        is left, and the constant sqrt(2) is integrated over [0, 1].
        """
        n = self.n
        rt = math.sqrt(n)
        hi_b, lo_b = n / 2, n / 2 - 1

        def integrand(x):
            ssum = _sum_in_order(x)
            return rt * max(0.0, min(1.0, hi_b - ssum) - max(0.0, lo_b - ssum))

        if n == 2:
            res = integrate_adaptive(lambda x: rt, ((0.0, 1.0),), tol)
        else:
            res = integrate_adaptive(integrand, ((0.0, 1.0),) * (n - 2), tol)
        return MeasureEstimate(
            res.value, QUADRATURE, res.error_bound,
            converged=res.converged, evaluations=res.evaluations,
        )

    def _projection(self, axis: int) -> MeasureEstimate:
        # all partial derivatives are -1, so every projection has the base measure
        return MeasureEstimate(_hyperplane_base_measure(self.n), CLOSED_FORM)

    def _fields(self) -> list[tuple[str, str]]:
        return [("n", f"{self.n}")]

    @classmethod
    def _from_fields(cls, fields: dict, entries: list) -> "Hyperplane":
        return cls(n=int(fields["n"]))


@dataclass(frozen=True)
class LpSphere:
    """The positive part {x in [0,1]^n : ||x||_p = 1} of an l^p sphere."""

    _family = "lpsphere"
    _required = ("n", "p")
    _optional = ()
    n: int
    p: float

    def __post_init__(self):
        require_int("n", self.n)
        if self.n < 2:
            raise ValueError("sphere surface needs n >= 2")
        require_finite("p", self.p)
        if self.p < 1:
            raise ValueError("p must be >= 1")

    def _dim(self) -> int:
        return self.n

    def _value(self, x) -> float:
        rest = 1.0 - _sum_in_order(c**self.p for c in x)
        return rest ** (1.0 / self.p) if rest > 0 else 0.0

    def _measure(self, tol: float) -> MeasureEstimate:
        """Quadrature of a bounded, continuous integrand over a full box.

        For n >= 3 the standard simplex {v >= 0, sum v = 1} is projected
        radially onto the sphere, x = v / ||v||_p (the cone-measure view of
        Naor & Romik, 2003), and its first n - 1 coordinates are mapped to
        the cube [0,1]^(n-1) by the Duffy transform: v_1 = t_1, v_j = t_j *
        prod_{i<j} (1 - t_i), v_n = prod_i (1 - t_i), with Jacobian prod_i
        (1 - t_i)^(n-1-i).  The surface element is sqrt(sum_i (v_i /
        ||v||_p)^(2p-2)) / ||v||_p^n, which is bounded because ||v||_p >=
        n^(1/p - 1) on the simplex.  Its bounds at large p are still
        heuristic: the element turns sharply at the ridges where max(v)
        changes coordinate, and a coarse grid can miss that.  Its two sums,
        of (v_i / max(v))^(2p-2) and of (v_i / max(v))^p, each start at 0.0
        and add i = 1..n left to right; the values pinned bit for bit on
        CPython 3.11 rest on that order.

        For n = 2 the arc splits into two congruent graph pieces about
        x = y.  The piece over [0, 2^(-1/p)] has slope^2 u = (w / (1 -
        w))^(2 - 2/p) in the power coordinate w = x^p, and its flat part
        2^(-1/p) is split off exactly: sqrt(1 + u) - 1 = u / (sqrt(1 + u)
        + 1) is left to integrate.  In x that remainder is a layer of width
        about 1/p at the corner, which a coarse grid steps over at large p;
        in w it spreads over the whole interval.  The grading w = t^a / 2
        with a = 2p / (2p - 1) makes it vanish linearly at t = 0: the
        integrand is a constant times t^(a/p - 1) * u, and u behaves like
        t^(a (2 - 2/p)), so the exponent is a (2 - 1/p) - 1 = 1.  With
        a = 1 it would be w^(1 - 1/p), whose kink at 0 the Richardson
        charge underestimates for p near 1.
        """
        n, p = self.n, self.p
        inv_p = 1.0 / p
        if n == 2:
            a = 1.0 / (1.0 - 0.5 * inv_p)  # 2p / (2p - 1), without overflowing 2p
            e, q = a * inv_p, 2.0 - 2.0 * inv_p
            flat = 0.5**inv_p
            scale, power = e * flat, e - 1.0
            pieces, box = 2, ((0.0, 1.0),)

            def integrand(x):
                (t,) = x
                w = 0.5 * t**a
                u = (w / (1.0 - w)) ** q
                return scale * t**power * u / (math.sqrt(1.0 + u) + 1.0)

        else:
            pieces, box, flat = 1, ((0.0, 1.0),) * (n - 1), 0.0
            q, scale = 2.0 * (p - 1.0), -(n + p - 1.0) * inv_p

            def integrand(t):
                # jac collects prod_{i<j} (1 - t_i) for every j, which is the
                # Duffy Jacobian.  With w = v / max(v), so that no power of a
                # coordinate underflows for large p, the surface element is
                # sqrt(sum w^(2p-2)) * (sum w^p)^(-(n+p-1)/p) / max(v)^n;
                # one pass over v divides by max(v) and adds both sums.
                rest = jac = 1.0
                v = []
                for c in t:
                    v.append(c * rest)
                    jac *= rest
                    rest *= 1.0 - c
                v.append(rest)
                top = max(v)
                sq = sp = 0.0
                for c in v:
                    c /= top
                    sq += c**q
                    sp += c**p
                return jac * math.sqrt(sq) * sp**scale / top**n

        res = integrate_adaptive(integrand, box, tol / pieces)
        return MeasureEstimate(
            pieces * (flat + res.value), QUADRATURE, pieces * res.error_bound,
            converged=res.converged, evaluations=res.evaluations,
        )

    _quadrature = _measure

    def _projection(self, axis: int) -> MeasureEstimate:
        # every projection fills the positive-orthant unit ball in n-1 dims
        return MeasureEstimate(_orthant_ball_volume(self.n - 1, self.p), CLOSED_FORM)

    def _fields(self) -> list[tuple[str, str]]:
        return [("n", f"{self.n}"), ("p", repr(self.p))]

    @classmethod
    def _from_fields(cls, fields: dict, entries: list) -> "LpSphere":
        return cls(n=int(fields["n"]), p=float(fields["p"]))


@dataclass(frozen=True)
class LinearGraph:
    """The graph of x -> offset + c.x over a union of disjoint base boxes.

    The base boxes live in [0,1]^(n-1), one (lo, hi) pair per axis.  The
    measure formulas depend only on the gradient and the base volume, so an
    arbitrary gradient sign is allowed; the offset only positions the graph.
    """

    _family = "linear"
    _required = ("gradient",)
    _optional = ("offset", "box")
    gradient: tuple[float, ...]
    base: Boxes | None = None
    offset: float = 0.0

    def __post_init__(self):
        # the sequences given are stored as nested tuples, so the graph
        # hashes and compares by value
        object.__setattr__(self, "gradient", tuple(self.gradient))
        if not self.gradient:
            raise ValueError("gradient must have at least one component")
        require_finite("gradient components", *self.gradient)
        require_finite("offset", self.offset)
        d = len(self.gradient)
        base = (((0.0, 1.0),) * d,) if self.base is None else self.base
        object.__setattr__(self, "base", tuple(tuple(map(tuple, box)) for box in base))
        for box in self.base:
            if len(box) != d:
                raise ValueError("base boxes must match the gradient dimension")
            require_finite("base bounds", *(c for axis in box for c in axis))
            for lo, hi in box:
                if not (0.0 <= lo <= hi <= 1.0):
                    raise ValueError(f"base interval ({lo}, {hi}) outside [0,1]")
        for i, a in enumerate(self.base):
            for b in self.base[i + 1 :]:
                if all(max(al, bl) < min(ah, bh) for (al, ah), (bl, bh) in zip(a, b)):
                    raise ValueError("base boxes overlap")

    def _dim(self) -> int:
        return len(self.gradient) + 1

    def _value(self, x) -> float:
        return self.offset + _sum_in_order(c * v for c, v in zip(self.gradient, x))

    def _base_volume(self) -> float:
        return _sum_in_order(math.prod(hi - lo for lo, hi in box) for box in self.base)

    def _measure(self, tol: float) -> MeasureEstimate:
        slope = math.sqrt(1.0 + _sum_in_order(c * c for c in self.gradient))
        return MeasureEstimate(slope * self._base_volume(), CLOSED_FORM)

    _quadrature = _measure

    def _projection(self, axis: int) -> MeasureEstimate:
        weight = 1.0 if axis == self._dim() else abs(self.gradient[axis - 1])
        return MeasureEstimate(weight * self._base_volume(), CLOSED_FORM)

    def _fields(self) -> list[tuple[str, str]]:
        return [
            ("gradient", ",".join(repr(c) for c in self.gradient)),
            ("offset", repr(self.offset)),
            *(("box", ",".join(f"{lo!r}:{hi!r}" for lo, hi in box)) for box in self.base),
        ]

    @classmethod
    def _from_fields(cls, fields: dict, entries: list) -> "LinearGraph":
        gradient = tuple(_numbers(fields["gradient"]))
        offset = float(fields.get("offset", "0"))
        boxes = tuple(_box(value) for key, value in entries if key == "box")
        return cls(gradient=gradient, base=boxes or None, offset=offset)


@dataclass(frozen=True)
class TabulatedMonotone:
    """Samples of an order-reversing function on [0,1]^(n-1).

    The associated surface is the graph of the step extension
    ``min { f(a) : sample a <= x }`` with empty minimum 1, which reproduces
    the samples and is order-reversing everywhere.
    """

    _family = "tabulated"
    _required = ("n", "sample")
    _optional = ()
    dim: int
    samples: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        require_int("dim", self.dim)
        if self.dim < 2:
            raise ValueError("tabulated surface needs dimension >= 2")
        object.__setattr__(self, "samples", tuple((tuple(pt), val) for pt, val in self.samples))
        seen = set()
        for pt, val in self.samples:
            if len(pt) != self.dim - 1:
                raise ValueError(f"sample point {pt} must have {self.dim - 1} coordinates")
            require_finite("samples", *pt, val)
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

    def _dim(self) -> int:
        return self.dim

    def _value(self, x) -> float:
        best = 1.0
        for pt, val in self.samples:
            if val < best and all(a <= b for a, b in zip(pt, x)):
                best = val
        return best

    def _measure(self, tol: float) -> MeasureEstimate:
        # the step extension is flat off a null set, so the graph measures
        # exactly as its base
        return MeasureEstimate(1.0, CLOSED_FORM)

    _quadrature = _measure

    def _projection(self, axis: int) -> MeasureEstimate:
        # step extension: base projections are null, the base itself is full
        return MeasureEstimate(1.0 if axis == self.dim else 0.0, CLOSED_FORM)

    def _fields(self) -> list[tuple[str, str]]:
        return [
            ("n", f"{self.dim}"),
            *(("sample", ",".join(repr(c) for c in (*pt, val))) for pt, val in self.samples),
        ]

    @classmethod
    def _from_fields(cls, fields: dict, entries: list) -> "TabulatedMonotone":
        dim = int(fields["n"])
        samples = []
        for key, value in entries:
            if key == "sample":
                nums = _numbers(value)
                if len(nums) != dim:
                    raise ValueError(f"sample {value!r} needs {dim - 1} coordinates and a value")
                samples.append((tuple(nums[:-1]), nums[-1]))
        return cls(dim=dim, samples=tuple(samples))


@dataclass(frozen=True)
class SingularStaircase:
    """Depth-k approximation of a decreasing singular staircase on [0,1]^2.

    Flat pieces sit over the removed middle thirds; the remaining intervals
    carry the steep linear pieces.  Depth 0 is the plain anti-diagonal.
    """

    _family = "staircase"
    _required = ("depth",)
    _optional = ()
    depth: int

    def __post_init__(self):
        _require_depth(self.depth)

    def _dim(self) -> int:
        return 2

    def _value(self, x) -> float:
        (x,) = x
        _, x0, y0, x1, y1 = _staircase_x_segment(self.depth, x)
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def _measure(self, tol: float) -> MeasureEstimate:
        return MeasureEstimate(_polyline_length(_staircase_vertices(self.depth)), CLOSED_FORM)

    def _quadrature(self, tol: float) -> MeasureEstimate:
        raise TypeError(f"no quadrature route for {type(self).__name__}")

    def _projection(self, axis: int) -> MeasureEstimate:
        # continuous and onto in both coordinates
        return MeasureEstimate(1.0, CLOSED_FORM)

    def _fields(self) -> list[tuple[str, str]]:
        return [("depth", f"{self.depth}")]

    @classmethod
    def _from_fields(cls, fields: dict, entries: list) -> "SingularStaircase":
        return cls(depth=int(fields["depth"]))


Surface = Hyperplane | LpSphere | LinearGraph | TabulatedMonotone | SingularStaircase

_FAMILIES = {cls._family: cls for cls in get_args(Surface)}


def _surface(s) -> Surface:
    """``s`` itself, once checked to be a surface of one of the families."""
    if not isinstance(s, Surface):
        raise TypeError(f"not a surface: {s!r}")
    return s


def surface_dim(s: Surface) -> int:
    return _surface(s)._dim()


def default_tolerance(n: int) -> float:
    """Default absolute quadrature tolerance by ambient dimension."""
    return {2: 1e-6, 3: 1e-3}.get(n, 5e-2)


def _tolerance(s: Surface, tol: float | None) -> float:
    """``tol``, or the default for the dimension of ``s``, once ``s`` is checked to be a surface.

    A given ``tol`` must be finite (else NonFiniteError) and positive (else ValueError).
    """
    n = surface_dim(s)
    if tol is None:
        return default_tolerance(n)
    require_tolerance(tol)
    return tol


# ---------------------------------------------------------------------------
# closed-form helpers


# the largest n the exact sums below take: at n = 1000 a sum at a float
# with a full 53-bit mantissa takes about 0.25 s, and at n = 2000 about 2 s
# (CPython 3.11.7 on a 2-CPU x86-64 VM)
_IRWIN_HALL_MAX_N = 1000


def _irwin_hall(n: int, num: int, den: int) -> tuple[int, int]:
    """F_n(num/den), 0 <= num/den <= n, exactly: an integer numerator over den^n * n!.

    Inclusion-exclusion over the corners of the cube cut off by the plane
    of constant coordinate sum, in integers, so no term cancels in
    rounding.  F_n is symmetric about n/2, so the sum runs over the corners
    below the nearer of t and n - t.
    """
    if n > _IRWIN_HALL_MAX_N:
        raise ValueError(
            f"an exact Irwin-Hall sum of {n} uniforms exceeds the limit of {_IRWIN_HALL_MAX_N}"
        )
    scale = den**n * math.factorial(n)
    flip = 2 * num > n * den
    if flip:
        num = n * den - num
    total = 0
    for k in range(num // den + 1):
        term = math.comb(n, k) * (num - k * den) ** n
        total += -term if k % 2 else term
    return (scale - total if flip else total), scale


def irwin_hall_cdf(n: int, t: float) -> float:
    """CDF of a sum of n independent uniform [0,1] variables.

    Summed exactly on the float ``t`` and rounded once, so the value is
    the correctly rounded CDF; n above 1000 is a ValueError.
    """
    require_int("n", n, 1)
    require_finite("t", t)
    if t <= 0:
        return 0.0
    if t >= n:
        return 1.0
    num, scale = _irwin_hall(n, *t.as_integer_ratio())
    return num / scale


def slab_volume(n: int, c: float) -> float:
    """Volume of {x in [0,1]^n : (n-c)/2 <= sum x_i < (n+c)/2}.

    By symmetry it is 1 - 2 F_n((n-c)/2), summed exactly and rounded once,
    so the value is correctly rounded; n above 1000 is a ValueError.
    """
    require_int("n", n, 1)
    require_finite("c", c)
    if not 0.0 <= c <= n:
        raise ValueError(f"c must be in [0, {n}]")
    a, b = c.as_integer_ratio()
    num, scale = _irwin_hall(n, n * b - a, 2 * b)
    return (scale - 2 * num) / scale


def facet_union_measure(n: int) -> float:
    """Measure of the union of the n zero-coordinate facets of the cube."""
    require_int("n", n, 1)
    return float(n)


def _orthant_ball_volume(d: int, p: float) -> float:
    """Volume of the positive-orthant part of the unit l^p ball in d dimensions."""
    return math.gamma(1 + 1 / p) ** d / math.gamma(1 + d / p)


@cache
def _hyperplane_base_measure(n: int) -> float:
    # base region of the graph form: {x in [0,1]^(n-1): n/2 - 1 <= sum <= n/2};
    # a verification asks for it once per axis, so it is kept per n (at most
    # one entry for each n the exact sums take)
    return slab_volume(n - 1, 1.0)


# ---------------------------------------------------------------------------
# staircase polyline


def _require_depth(depth) -> None:
    require_int("depth", depth)
    if not 0 <= depth <= 20:
        raise ValueError("depth must be in 0..20")


# The depth-k staircase splits the rising piece (0, 0, 1, 1) k times: a piece
# (x0, y0, x1, y1) keeps its outer thirds (x0, y0, x0 + third, ym) and
# (x1 - third, ym, x1, y1), third = (x1 - x0)/3 and ym = (y0 + y1)/2, and its
# middle third becomes a flat at ym.  Flipped by y -> 1.0 - y, steep leaf L
# (0-based, left to right) runs from vertex 2L to vertex 2L + 1 of the falling
# polyline and the flat after it ends at vertex 2L + 2.  The halvings are
# exact, so leaf L falls from 1.0 - L/2**k to 1.0 - (L+1)/2**k and the readers
# compute the ordinates; the thirds round, so every reader replays them and
# all see the same abscissae.  None holds more than one root-to-leaf path: a
# depth-20 polyline has about two million vertices.


def _staircase_vertices(depth: int):
    # each steep leaf's two ends, left to right: the flats have positive
    # length, so no leaf starts where the previous one ends, and the first
    # starts at (0.0, 1.0 - 0.0)
    stack = [(0.0, 0.0, 1.0, 1.0, depth)]
    while stack:
        x0, y0, x1, y1, d = stack.pop()
        if d:
            third = (x1 - x0) / 3
            ym = (y0 + y1) / 2
            stack.append((x1 - third, ym, x1, y1, d - 1))
            stack.append((x0, y0, x0 + third, ym, d - 1))
        else:
            yield x0, 1.0 - y0
            yield x1, 1.0 - y1


def _staircase_x_segment(depth: int, t: float):
    """The falling segment (end, x0, y0, x1, y1) with x0 < t <= x1, or the first at t = 0.

    ``end`` is the index of its end vertex, the one ``bisect_left`` on the
    abscissae finds for t.
    """
    x0, x1 = 0.0, 1.0
    leaf = 0
    for level in reversed(range(depth)):
        third = (x1 - x0) / 3
        lx1 = x0 + third
        rx0 = x1 - third
        if t <= lx1:
            x1 = lx1
        elif t <= rx0:
            # the flat after the left subtree's last leaf, at that leaf's lower end
            leaf += 1 << level
            y = 1.0 - leaf / 2**depth
            return 2 * leaf, lx1, y, rx0, y
        else:
            x0 = rx0
            leaf += 1 << level
    return 2 * leaf + 1, x0, 1.0 - leaf / 2**depth, x1, 1.0 - (leaf + 1) / 2**depth


def _staircase_y_segment(depth: int, t: float):
    """The falling segment (end, y0, y1) with y0 >= t > y1, for 0 < t <= 1.

    Only a steep leaf spans ordinates, and ``end`` is the index of its end
    vertex, the one ``bisect_right`` on the negated ordinates finds for -t.
    """
    # leaf L spans 1 - L/2**depth >= t > 1 - (L+1)/2**depth, so L is the floor of
    # (1 - t)*2**depth; 1.0 - t rounds, but never below L/2**depth, a float
    leaf = int((1.0 - t) * 2**depth)
    if t > 1.0 - leaf / 2**depth:
        leaf -= 1
    return 2 * leaf + 1, 1.0 - leaf / 2**depth, 1.0 - (leaf + 1) / 2**depth


def staircase_polyline(depth: int) -> list[tuple[float, float]]:
    """Vertices of the decreasing depth-k staircase from (0,1) to (1,0)."""
    _require_depth(depth)
    return list(_staircase_vertices(depth))


def _polyline_length(vertices) -> float:
    # fsum, so the length is the same float on every interpreter (3.12's sum
    # of floats is compensated, earlier ones add in order); it is correctly
    # rounded, so it can read the vertices one at a time
    return math.fsum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in pairwise(vertices))


# ---------------------------------------------------------------------------
# graph evaluation


def _base_point(x, dim: int) -> tuple:
    """``x`` as a tuple, once checked to be a point of the base cube [0,1]^(dim-1).

    A point needs dim - 1 coordinates (else ValueError), each finite (else
    NonFiniteError) and in [0, 1] (else ValueError).
    """
    x = tuple(x)
    if len(x) != dim - 1:
        raise ValueError(f"point {x} must have {dim - 1} coordinates")
    require_finite("point coordinates", *x)
    if not all(0.0 <= c <= 1.0 for c in x):
        raise ValueError(f"point {x} outside the unit cube")
    return x


def monotone_extension(samples: TabulatedMonotone, x) -> float:
    """Step extension of the tabulated function: min over samples below ``x``.

    With no sample below ``x`` the value is 1, so the extension is total on
    the unit cube and still order-reversing.  ``x`` must be a point of the
    base cube, as for :func:`graph_value`.
    """
    return samples._value(_base_point(x, samples.dim))


def graph_value(s: Surface, x) -> float:
    """Value of the base-to-last-coordinate function of a graph-type surface.

    ``x`` must be a point of the base cube [0,1]^(n-1): n - 1 coordinates
    (else ValueError), each finite (else NonFiniteError) and in [0, 1]
    (else ValueError).
    """
    s = _surface(s)
    return s._value(_base_point(x, s._dim()))


# ---------------------------------------------------------------------------
# surface measures


def surface_measure(s: Surface, tol: float | None = None) -> MeasureEstimate:
    """The (n-1)-dimensional measure of the surface.

    Hyperplane, linear, tabulated, and staircase families have closed
    forms; the l^p sphere is integrated adaptively.  The error bound of a
    quadrature estimate is the achieved one, which may exceed the requested
    tolerance when the budget runs out.
    """
    tol = _tolerance(s, tol)
    return s._measure(tol)


def surface_measure_quadrature(s: Surface, tol: float | None = None) -> MeasureEstimate:
    """Force the quadrature route where one exists; used to cross-check closed forms."""
    tol = _tolerance(s, tol)
    return s._quadrature(tol)


def projection_measure(s: Surface, axis: int, tol: float | None = None) -> MeasureEstimate:
    """Measure of the image after deleting coordinate ``axis`` (1-based).

    Deleting the graph coordinate leaves the base region; deleting a base
    coordinate integrates the corresponding absolute partial derivative,
    which each family resolves in closed form.
    """
    require_axis(axis, surface_dim(s))
    _tolerance(s, tol)  # every family's projection is closed-form, but a bad tol is still an error
    return s._projection(axis)


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
    universal bound for weak antichains in the unit cube.  A surface
    measure that missed its tolerance establishes nothing, so the report
    does not pass.
    """
    n = surface_dim(s)
    tol = _tolerance(s, tol)
    left = surface_measure(s, tol)
    projections = tuple(projection_measure(s, i, tol) for i in range(1, n + 1))
    right_total = _sum_in_order(p.value for p in projections)
    slack = left.error_bound + _sum_in_order(p.error_bound for p in projections) + tol
    return InequalityReport(
        surface=left,
        projections=projections,
        right_total=right_total,
        tolerance=tol,
        passes=left.converged and left.value <= right_total + slack,
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
    return pieces


def _tabulated_skew(s: TabulatedMonotone) -> tuple[float, float]:
    """Exact skewed-image measures of a step graph by interval bookkeeping.

    The map value - x is strictly decreasing even across the jumps, so the
    image intervals of distinct pieces never overlap and the union measures
    are the sums of the lengths.
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
    return tuple(_sum_in_order(hi - lo for lo, hi in sorted(d) if hi > lo) for d in (d1, d2))


def skew_measures_2d(s: Surface, tol: float | None = None) -> SkewReport:
    """Surface measure against the summed skewed-projection measures (n = 2).

    The surface must be the graph of a weakly decreasing function over the
    full unit base.  For continuous families the two skewed images are the
    intervals [0, f(0)] and [0, 1 - f(1)]; tabulated step functions get an
    exact interval-union computation instead.  As in
    ``verify_projection_inequality``, an unconverged surface measure does
    not pass.
    """
    if surface_dim(s) != 2:
        raise ValueError("skewed-projection measures are implemented for n = 2")
    tol = _tolerance(s, tol)
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
    passes = left.converged and left.value <= total + left.error_bound + tol
    return SkewReport(left, parts, total, tol, passes)


# ---------------------------------------------------------------------------
# descriptor files


def format_surface_descriptor(s: Surface) -> str:
    """Serialise a surface to the key=value descriptor format."""
    fields = [("family", _surface(s)._family), *s._fields()]
    return "".join(f"{key}={value}\n" for key, value in fields)


def _surface_from_fields(entries: list[tuple[str, str]]) -> Surface:
    """Build a surface from descriptor (key, value) pairs; ``box`` and ``sample`` repeat.

    Descriptor files and the inline command-line flags both come here.  Any
    other repeated key raises ValueError naming it.
    """
    seen = set()
    for key, _ in entries:
        if key in seen and key not in ("box", "sample"):
            raise ValueError(f"descriptor repeats the key {key!r}")
        seen.add(key)
    fields = dict(entries)
    family = fields.get("family")
    if family is None:
        raise ValueError("descriptor is missing the family line")
    cls = _FAMILIES.get(family)
    if cls is None:
        raise ValueError(f"unknown surface family {family!r}")
    for key in fields:
        if key != "family" and key not in cls._required + cls._optional:
            raise ValueError(f"{family} surface takes no {key!r}")
    try:
        return cls._from_fields(fields, entries)
    except KeyError as exc:
        raise ValueError(f"descriptor is missing field {exc.args[0]!r}") from None


def parse_surface_descriptor(text: str) -> Surface:
    """Parse the key=value descriptor format produced by format_surface_descriptor.

    A key that the family does not take, or a repeated key other than
    ``box`` and ``sample``, raises ValueError naming it.
    """
    entries: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad descriptor line {line!r}")
        key, value = line.split("=", 1)
        entries.append((key.strip(), value.strip()))
    return _surface_from_fields(entries)
