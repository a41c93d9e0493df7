"""Integer lattice points, dominance orders, and coordinate projections.

Points are plain tuples of integers.  :class:`PointSet` holds a finite set
of points sharing one dimension as one tuple sorted lexicographically, so
that serialisation and reports are deterministic and membership bisects.
Coordinate axes are numbered 1..n throughout, matching the usual
mathematical convention for projections.
"""

import enum
import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from itertools import combinations
from operator import le, lt
from typing import NamedTuple

from .estimate import NonFiniteError, require_axis, require_int

__all__ = [
    "Order",
    "Point",
    "PointSet",
    "Classification",
    "dominates",
    "classify",
    "project",
    "skew_split",
    "skew_split_disjoint",
    "skew_project",
    "parse_point_set",
    "format_point_set",
    "load_point_set",
    "save_point_set",
]

Point = tuple[int, ...]

#: coordinate types that compare with ints consistently with their equality and
#: hash, so a probe made of them can bisect a sorted tuple of int points (NaN
#: orders below and above nothing, so it lands somewhere and is never equal)
_BISECTABLE = (int, float, bool)


class Order(enum.Enum):
    """Dominance relations between coordinate tuples."""

    #: componentwise x_i <= y_i
    LEQ = "leq"
    #: componentwise <= and distinct
    STRICT = "strict"
    #: strictly less in every coordinate
    STRONG = "strong"


def dominates(x: Sequence, y: Sequence, order: Order) -> bool:
    """True when ``x`` lies below ``y`` in the given dominance order.

    Works for integer and real coordinate tuples alike.
    """
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    if order is Order.STRONG:
        return all(a < b for a, b in zip(x, y))
    le = all(a <= b for a, b in zip(x, y))
    if order is Order.LEQ:
        return le
    if order is Order.STRICT:
        return le and tuple(x) != tuple(y)
    raise TypeError(f"not an Order: {order!r}")


class PointSet:
    """An immutable finite set of integer points of one common dimension.

    Duplicate points are rejected at construction so input mistakes surface
    early; operations that legitimately collapse points (projections)
    deduplicate before building their result.  Iteration is always in
    lexicographic order.  The sorted tuple ``points`` is the only store:
    equality and hashing read it, and membership bisects it.

    ``_weak`` is True only on the sets ``random_weak_antichain`` returns,
    which its sampler has proved weak antichains, so ``greedy_partition``
    does not screen them again.  Every other set, built here or by
    ``_trusted``, read from a file or a pickle, projected, or a
    certificate's part or a scan's witness, has it False and is screened.

    ``_sizes`` is None until ``partition._image_sizes`` fills it with the n
    image sizes, the size after deleting each coordinate in turn, so that
    ``greedy_partition``, ``PartitionCertificate.validate`` and
    ``projection_gap`` build each image once per set.  ``points`` never
    changes, so the cache cannot go stale; equality, hashing and ``repr``
    do not read it.  A pickle carries ``dim`` and ``points`` only, checked
    again when loaded, so an unpickled set starts with neither cache.
    """

    __slots__ = ("dim", "points", "_weak", "_sizes")

    def __init__(self, dim: int, points: Iterable[Sequence[int]] = ()):
        require_int("dim", dim, 1)
        seen: set[Point] = set()
        for p in points:
            t = tuple(p)
            if len(t) != dim:
                raise ValueError(f"point {t} has dimension {len(t)}, expected {dim}")
            if not all(isinstance(c, int) and not isinstance(c, bool) for c in t):
                raise ValueError(f"point {t} has non-integer coordinates")
            if t in seen:
                raise ValueError(f"duplicate point {t}")
            seen.add(t)
        self.dim = dim
        self.points = tuple(sorted(seen))
        self._weak = False
        self._sizes = None

    @classmethod
    def _trusted(cls, dim: int, points: Iterable[Point]) -> "PointSet":
        """Build from distinct ``dim``-tuples of ints without re-checking them.

        Only for sets the library derived from valid input; everything from
        outside goes through ``__init__``.  Duplicates are not removed, so
        the caller must pass each point once.
        """
        self = cls.__new__(cls)
        self.dim = dim
        self.points = tuple(sorted(points))
        self._weak = False
        self._sizes = None
        return self

    @classmethod
    def in_box(cls, dim: int, k: int, points: Iterable[Sequence[int]] = ()) -> "PointSet":
        """Construct a set restricted to the box [0,k)^dim; out-of-box points are errors."""
        require_int("k", k)
        if k < 1:
            raise ValueError("box side k must be >= 1")
        ps = cls(dim, points)
        for p in ps:
            if not all(0 <= c < k for c in p):
                raise ValueError(f"point {p} outside the box [0,{k})^{dim}")
        return ps

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        t = tuple(p)
        pts = self.points
        if not all(type(c) in _BISECTABLE for c in t):
            # a str, None, a Fraction or a list need not order against ints,
            # or could raise doing so; such a probe gets set membership's answer
            return t in frozenset(pts)
        i = bisect_left(pts, t)
        return i < len(pts) and pts[i] == t

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.dim == other.dim and self.points == other.points

    def __hash__(self) -> int:
        return hash((self.dim, self.points))

    def __repr__(self) -> str:
        body = ", ".join(map(str, self.points[:6]))
        if len(self.points) > 6:
            body += f", ... {len(self.points) - 6} more"
        return f"PointSet(dim={self.dim}, [{body}])"

    def __getstate__(self):
        """The slots-only pickle state, without the private caches."""
        return None, {"dim": self.dim, "points": self.points}

    def __setstate__(self, state) -> None:
        """Load a pickled state, with or without the private slots.

        The dimension and points are checked like any outside input, and
        neither the sampler's proof nor the image sizes is taken from the
        pickle, which may predate either slot or carry a forged value.
        """
        slots = state[1]
        self.__init__(slots["dim"], slots["points"])


class Classification(NamedTuple):
    is_antichain: bool
    is_weak_antichain: bool


def _comparable_pair(pts: Sequence, rel):
    """The first pair (x, y) with ``rel(x_i, y_i)`` on every axis, ``rel`` being ``lt`` or ``le``.

    ``pts`` must be distinct and sorted lexicographically: then no later
    point lies below an earlier one in either order, so one direction is
    tested, first on the first coordinate alone.  None when no pair relates.
    """
    for x, y in combinations(pts, 2):
        if rel(x[0], y[0]) and all(map(rel, x, y)):
            return x, y
    return None


def classify(points) -> Classification:
    """Test the two antichain properties of a finite point collection.

    Accepts a :class:`PointSet` or any iterable of equal-length tuples with
    integer or real coordinates; non-finite coordinates raise
    :class:`NonFiniteError`.  A set is an antichain when no two distinct
    members compare under ``STRICT``, and a weak antichain when no pair
    compares under ``STRONG``; the first property implies the second.
    """
    if isinstance(points, PointSet):
        pts: Sequence = points.points
    else:
        pts = sorted({tuple(p) for p in points})
        if pts and any(len(p) != len(pts[0]) for p in pts):
            raise ValueError("points of mixed dimension")
        # NaN compares false both ways, so the sorted order would mean nothing
        if not all(-math.inf < c < math.inf for p in pts for c in p):
            raise NonFiniteError("point coordinates must be finite")
    if _comparable_pair(pts, le) is None:
        return Classification(True, True)
    return Classification(False, _comparable_pair(pts, lt) is None)


def project(points: PointSet, axis: int) -> PointSet:
    """Delete coordinate ``axis`` (1-based); duplicates in the image collapse."""
    if points.dim < 2:
        raise ValueError("projection needs dimension >= 2")
    require_axis(axis, points.dim)
    i = axis - 1
    image = {p[:i] + p[i + 1 :] for p in points}
    return PointSet._trusted(points.dim - 1, image)


def skew_split(points: PointSet) -> tuple[PointSet, ...]:
    """Split by which coordinate attains the minimum of the point.

    A point whose minimum is attained in several coordinates is placed in
    every attaining part, so the parts cover the set but need not be
    disjoint.  See :func:`skew_split_disjoint` for the counting variant.
    """
    parts: list[list[Point]] = [[] for _ in range(points.dim)]
    for p in points:
        lo = min(p)
        for i, c in enumerate(p):
            if c == lo:
                parts[i].append(p)
    return tuple(PointSet(points.dim, part) for part in parts)


def skew_split_disjoint(points: PointSet) -> tuple[PointSet, ...]:
    """Like :func:`skew_split`, but ties go to the lowest attaining index only."""
    parts: list[list[Point]] = [[] for _ in range(points.dim)]
    for p in points:
        parts[p.index(min(p))].append(p)
    return tuple(PointSet(points.dim, part) for part in parts)


def skew_project(points: PointSet, axis: int) -> PointSet:
    """Subtract coordinate ``axis`` from the remaining coordinates.

    Every input point must attain its coordinate minimum at ``axis`` (as the
    parts of :func:`skew_split` do); the image then lies in dimension n-1
    with non-negative coordinates.
    """
    if points.dim < 2:
        raise ValueError("skew projection needs dimension >= 2")
    require_axis(axis, points.dim)
    i = axis - 1
    image = set()
    for p in points:
        if p[i] != min(p):
            raise ValueError(f"point {p} is not minimal in coordinate {axis}")
        image.add(tuple(c - p[i] for j, c in enumerate(p) if j != i))
    return PointSet(points.dim - 1, image)


def format_point_set(points: PointSet) -> str:
    """Serialise to the point-set text format (header line, then one point per line)."""
    lines = [f"dim={points.dim}"]
    lines.extend(",".join(str(c) for c in p) for p in points)
    return "\n".join(lines) + "\n"


def parse_point_set(text: str) -> PointSet:
    """Parse the point-set text format; blank lines and ``#`` comments are skipped."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("dim="):
        raise ValueError('point set text must start with a "dim=<n>" header')
    try:
        dim = int(lines[0][4:])
    except ValueError as exc:
        raise ValueError(f"bad dimension header {lines[0]!r}") from exc
    pts = []
    for ln in lines[1:]:
        try:
            pts.append(tuple(int(field) for field in ln.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad point line {ln!r}") from exc
    return PointSet(dim, pts)


def load_point_set(path) -> PointSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_point_set(fh.read())


def save_point_set(points: PointSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_point_set(points))
