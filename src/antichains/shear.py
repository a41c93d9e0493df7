"""The linear shear that turns weak antichains into antichains.

The map subtracts a small multiple of the coordinate sum from every
coordinate.  It maps the unit cube into [-1,1]^n, scales coordinate sums by
an exact factor, and has an inverse whose Lipschitz constant is explicit,
so sampled ratio checks can be pinned against it.
"""

import math
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .estimate import _sum_in_order, require_finite, require_int

__all__ = [
    "ShearParams",
    "shear",
    "shear_inverse",
    "shear_points",
    "rescale_to_unit",
    "lipschitz_sample_check",
    "LipschitzBoundExceeded",
    "SHEAR_INVERSE",
    "SKEW_INVERSE_2D",
]

SHEAR_INVERSE = "shear-inverse"
SKEW_INVERSE_2D = "skew-inverse-2d"


class LipschitzBoundExceeded(RuntimeError):
    """A sampled expansion ratio exceeded the claimed Lipschitz constant."""


@dataclass(frozen=True)
class ShearParams:
    """Dimension and strength of the shear; requires 0 < epsilon < 1/(2n)."""

    n: int
    epsilon: float

    def __post_init__(self):
        require_int("n", self.n, 1)
        require_finite("epsilon", self.epsilon)
        if not 0.0 < self.epsilon < 1.0 / (2 * self.n):
            raise ValueError(f"epsilon must lie in (0, {1.0 / (2 * self.n)})")

    @property
    def inverse_lipschitz(self) -> float:
        """Lipschitz constant of the inverse map: 1/sqrt(1 - 2n*epsilon).

        It is a valid bound but not a tight one.  The shear is the symmetric
        map I - epsilon * 11^T, whose eigenvalues are 1 and 1 - n*epsilon, so
        the inverse's exact constant is 1/(1 - n*epsilon), which is smaller;
        sampled ratios reach it along the diagonal.  Reports print this
        value, so it stays as it is.
        """
        return 1.0 / math.sqrt(1.0 - 2 * self.n * self.epsilon)


def shear(x: Sequence[float], params: ShearParams) -> tuple[float, ...]:
    """Subtract epsilon times the coordinate sum from every coordinate."""
    if len(x) != params.n:
        raise ValueError(f"point has dimension {len(x)}, expected {params.n}")
    s = _sum_in_order(x)
    return tuple(c - params.epsilon * s for c in x)


def shear_inverse(y: Sequence[float], params: ShearParams) -> tuple[float, ...]:
    """Exact inverse: coordinate sums scale by 1 - n*epsilon, so they recover first."""
    if len(y) != params.n:
        raise ValueError(f"point has dimension {len(y)}, expected {params.n}")
    s = _sum_in_order(y) / (1.0 - params.n * params.epsilon)
    return tuple(c + params.epsilon * s for c in y)


def shear_points(points: Iterable[Sequence[float]], params: ShearParams) -> list[tuple[float, ...]]:
    return [shear(p, params) for p in points]


def rescale_to_unit(points: Iterable[Sequence[int]], k: int) -> list[tuple[float, ...]]:
    """Map integer points of [0,k)^n into the unit cube by dividing by k."""
    require_int("k", k, 1)
    return [tuple(c / k for c in p) for p in points]


def _skew_pair_2d(rng: random.Random):
    """A pair on a decreasing plane path together with its skewed projections.

    Between two points of a weak antichain in the plane, moving right by d
    goes down and moving up by e goes left, so the pair has the form
    (x, y) and (x - d, y + e) with d, e >= 0; their skewed projections are
    y - x and y - x + d + e.
    """
    x = rng.uniform(0.2, 1.0)
    y = rng.uniform(x, 1.0)
    d = rng.uniform(0.0, x)
    e = rng.uniform(0.0, 1.0 - y)
    points = ((x, y), (x - d, y + e))
    images = ((y - x,), (y - x + d + e,))
    return images, points


def lipschitz_sample_check(
    map_kind: str,
    bound: float,
    pairs: "int | Iterable[tuple[Sequence[float], Sequence[float]]]" = 1000,
    seed: int = 0,
    params: ShearParams | None = None,
) -> float:
    """Max expansion ratio of the chosen inverse map over sampled point pairs.

    For ``shear-inverse``, pairs live in the shear's range and the ratio is
    ||inverse(a) - inverse(b)|| / ||a - b||; explicit pairs may be supplied
    instead of a count.  For ``skew-inverse-2d``, decreasing plane pairs are
    sampled and compared against their skewed projections.  Coincident
    pairs record no ratio.  A count must be an int of at least 1, a bool
    not counting as one (else ValueError).  Raises
    :class:`LipschitzBoundExceeded` if any ratio exceeds the bound beyond
    floating-point slack.
    """
    require_finite("bound", bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    if isinstance(pairs, int):
        require_int("pairs", pairs, 1)
    rng = random.Random(seed)
    ratios: list[float] = []

    if map_kind == SHEAR_INVERSE:
        if params is None:
            raise ValueError("shear-inverse check needs ShearParams")
        if isinstance(pairs, int):
            pair_iter = (
                (
                    tuple(rng.uniform(-1.0, 1.0) for _ in range(params.n)),
                    tuple(rng.uniform(-1.0, 1.0) for _ in range(params.n)),
                )
                for _ in range(pairs)
            )
        else:
            pair_iter = ((tuple(a), tuple(b)) for a, b in pairs)
        for a, b in pair_iter:
            den = math.dist(a, b)
            if den == 0.0:
                continue
            ratios.append(math.dist(shear_inverse(a, params), shear_inverse(b, params)) / den)
    elif map_kind == SKEW_INVERSE_2D:
        if not isinstance(pairs, int):
            raise ValueError("skew-inverse-2d samples its own pairs; pass a count")
        for _ in range(pairs):
            (ia, ib), (pa, pb) = _skew_pair_2d(rng)
            den = abs(ia[0] - ib[0])
            if den == 0.0:
                continue
            ratios.append(math.dist(pa, pb) / den)
    else:
        raise ValueError(f"unknown map kind {map_kind!r}")

    worst = max(ratios, default=0.0)
    if worst > bound * (1 + 1e-12):
        raise LipschitzBoundExceeded(
            f"observed ratio {worst} exceeds the bound {bound} for {map_kind}"
        )
    return worst
