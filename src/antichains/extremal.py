"""Extremal antichain constructions on grid posets and exact width search.

Widths are closed-form layers, certified by chain covers.  A grid is a
product of chains, so under the strict order it splits into symmetric
chains (de Bruijn, van Ebbenhorst Tengbergen & Kruyswijk, 1951): one runs
by unit steps from rank r to rank N - r, the rank being the coordinate sum
and N = n(m - 1), so each meets rank ceil(N/2) exactly once, and that
layer, an antichain, has one point per chain.  Under the strong order the
diagonals through the zero-coordinate points partition the grid, and their
tops are the points with a coordinate m - 1, which are pairwise strongly
incomparable.  An antichain meets each chain at most once, so either set
reaches the bound the cover gives (Dilworth, 1950).
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
    _check_grid(n, m)
    return (n * (m - 1)) // 2


def _grid_where(n: int, m: int, keep) -> PointSet:
    """The grid points that ``keep`` accepts; ``product`` yields them distinct and sorted."""
    return PointSet._trusted(n, filter(keep, product(range(m), repeat=n)))


def layer_construct(n: int, m: int, ell: int) -> PointSet:
    """The full layer of coordinate-sum ``ell``; a maximum antichain at the middle sum."""
    _check_grid(n, m)
    require_int("ell", ell)
    return _grid_where(n, m, lambda p: sum(p) == ell)


def wn_construct(n: int, m: int) -> PointSet:
    """All grid points with at least one zero coordinate: m^n - (m-1)^n points.

    This is a maximum weak antichain of the grid.
    """
    _check_grid(n, m)
    return _grid_where(n, m, lambda p: 0 in p)


@dataclass(frozen=True)
class WidthResult:
    width: int
    witness: PointSet
    method: str  # "matching" or "construction"


def max_antichain(poset: GridPoset, budget: int = 4096) -> WidthResult:
    """Exact maximum antichain of a grid poset, in closed form.

    Under the strict order with n >= 2 the symmetric chains each meet rank
    ceil(N/2), N = n(m - 1), exactly once, so the witness is that whole
    layer and the width its size.  Otherwise it is the set of chain tops,
    the points with a coordinate m - 1: under the strong order they top the
    diagonals one to one, with the zero-coordinate points at the bottoms,
    and nothing lies strongly above them; a line is one chain, and its top
    serves as well as any point.  The chains' consecutive pairs are a
    maximum matching of the comparability graph, so ``method`` keeps
    reading ``"matching"``, a label of the public output.
    """
    require_int("budget", budget, 0)
    if poset.size > budget:
        raise BudgetExceededError(
            f"grid has {poset.size} points, budget is {budget}"
        )
    n, m = poset.n, poset.m
    if poset.order is Order.STRICT and n > 1:
        witness = layer_construct(n, m, (n * (m - 1) + 1) // 2)
    else:
        witness = _grid_where(n, m, lambda p: m - 1 in p)
    return WidthResult(width=len(witness), witness=witness, method="matching")


def best_construction(poset: GridPoset) -> WidthResult:
    """Closed-form extremal witness: the middle layer, or the zero-coordinate set."""
    if poset.order is Order.STRICT:
        witness = layer_construct(poset.n, poset.m, middle_layer_index(poset.n, poset.m))
    else:
        witness = wn_construct(poset.n, poset.m)
    return WidthResult(width=len(witness), witness=witness, method="construction")
