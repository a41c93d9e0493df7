"""Extremal antichain constructions on grid posets and exact width search.

Widths come from a chain decomposition instead of a matching search.  A grid
is a product of chains, so under the strict order it splits into symmetric
chains, one per point of the middle layer (de Bruijn, van Ebbenhorst
Tengbergen & Kruyswijk, 1951); under the strong order the diagonals through
the zero-coordinate points partition it.  A chain cover together with one
point from each chain, the points pairwise incomparable, certifies the width:
an antichain meets each chain at most once, so the number of chains bounds
it, and the chosen points reach the bound (Dilworth, 1950).
"""

import math
from dataclasses import dataclass
from itertools import product

from .estimate import BudgetExceededError, require_int
from .lattice import Order, PointSet

__all__ = [
    "GridPoset",
    "WidthResult",
    "layer_size",
    "middle_layer_index",
    "layer_construct",
    "wn_construct",
    "max_antichain",
    "best_construction",
]


@dataclass(frozen=True)
class GridPoset:
    """Points {0,...,m-1}^n under a strict dominance order.

    ``Order.STRICT`` compares for ordinary antichains, ``Order.STRONG`` for
    weak antichains; both are strict partial orders, so the same machinery
    applies to either.
    """

    n: int
    m: int
    order: Order = Order.STRICT

    def __post_init__(self):
        require_int("n", self.n)
        require_int("m", self.m)
        if self.n < 1 or self.m < 1:
            raise ValueError("grid needs n >= 1 and m >= 1")
        if self.order not in (Order.STRICT, Order.STRONG):
            raise ValueError("grid posets use Order.STRICT or Order.STRONG")

    @property
    def size(self) -> int:
        return self.m**self.n


def _check_grid(n: int, m: int) -> None:
    require_int("n", n)
    require_int("m", m)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")


def layer_size(n: int, m: int, ell: int) -> int:
    """Number of grid points with coordinate sum ``ell``.

    By inclusion-exclusion over the j coordinates forced to m or more,
    sum_j (-1)^j C(n, j) C(ell - jm + n - 1, n - 1), exactly in integers;
    sums outside 0..n(m-1) have no points and return 0.
    """
    _check_grid(n, m)
    require_int("ell", ell)
    if ell < 0 or ell > n * (m - 1):
        return 0
    return sum(
        (-1) ** j * math.comb(n, j) * math.comb(ell - j * m + n - 1, n - 1)
        for j in range(min(n, ell // m) + 1)
    )


def middle_layer_index(n: int, m: int) -> int:
    return (n * (m - 1)) // 2


def layer_construct(n: int, m: int, ell: int) -> PointSet:
    """The full layer of coordinate-sum ``ell``; a maximum antichain at the middle sum."""
    _check_grid(n, m)
    require_int("ell", ell)
    return PointSet(n, (p for p in product(range(m), repeat=n) if sum(p) == ell))


def wn_construct(n: int, m: int) -> PointSet:
    """All grid points with at least one zero coordinate: m^n - (m-1)^n points.

    This is a maximum weak antichain of the grid.
    """
    _check_grid(n, m)
    return PointSet(n, (p for p in product(range(m), repeat=n) if 0 in p))


@dataclass(frozen=True)
class WidthResult:
    width: int
    witness: PointSet
    method: str  # "matching" or "construction"


def _chains(poset: GridPoset) -> list[list[int]]:
    """A chain decomposition of the grid whose consecutive pairs are a maximum matching.

    Points are mixed-radix indices, coordinate 0 most significant, so index
    order is lexicographic order.  Each chain runs bottom to top by single
    steps: unit steps for the strict order, (1,...,1) for the strong one.
    """
    n, m = poset.n, poset.m
    if poset.order is Order.STRONG:
        diag = sum(m**i for i in range(n))
        return [
            [idx + t * diag for t in range(m - max(p))]
            for idx, p in enumerate(product(range(m), repeat=n))
            if 0 in p
        ]
    # product of a chain c_0 < ... < c_h with [m]: hook j is (c_i, j) for
    # i <= h - j, followed by (c_(h-j), t) for t > j
    chains = [list(range(m))]
    for _ in range(n - 1):
        chains = [
            [c * m + j for c in chain[: len(chain) - j]]
            + [chain[-1 - j] * m + t for t in range(j + 1, m)]
            for chain in chains
            for j in range(min(len(chain), m))
        ]
    return chains


def max_antichain(poset: GridPoset, budget: int = 4096) -> WidthResult:
    """Exact maximum antichain of a grid poset via a minimum chain cover.

    The chains of ``_chains`` are a minimum chain cover, so the width is
    their number, and the witness takes one point of each.  Under the
    strict order with n >= 2 that is the point of rank ceil(N/2), N =
    n(m - 1), the rank being the coordinate sum: each chain climbs by unit
    steps from rank r to rank N - r, and points of one rank are
    incomparable.  Otherwise it is the chain's top: under the strong order
    it has a coordinate m - 1, so nothing lies strongly above it, and a
    line, whose one chain would serve with any of its points, gives its top
    as well.  The chains' consecutive pairs are a maximum matching of the
    comparability graph, so ``method`` keeps reading ``"matching"``, a
    label of the public output.
    """
    require_int("budget", budget, 0)
    if poset.size > budget:
        raise BudgetExceededError(
            f"grid has {poset.size} points, budget is {budget}"
        )
    n, m = poset.n, poset.m
    strides = [m ** (n - 1 - i) for i in range(n)]
    chains = _chains(poset)
    picks = []
    for chain in chains:
        i = -1
        if poset.order is Order.STRICT and n > 1:
            i = (n * (m - 1) + 1) // 2 - sum(chain[0] // s % m for s in strides)
            # a negative index would wrap round to a wrong point
            if not 0 <= i < len(chain):
                raise RuntimeError("chain misses the middle rank")
        picks.append(chain[i])
    witness = [tuple(idx // s % m for s in strides) for idx in sorted(picks)]
    return WidthResult(width=len(chains), witness=PointSet._trusted(n, witness), method="matching")


def best_construction(poset: GridPoset) -> WidthResult:
    """Closed-form extremal witness: the middle layer, or the zero-coordinate set."""
    if poset.order is Order.STRICT:
        witness = layer_construct(poset.n, poset.m, middle_layer_index(poset.n, poset.m))
    else:
        witness = wn_construct(poset.n, poset.m)
    return WidthResult(width=len(witness), witness=witness, method="construction")
