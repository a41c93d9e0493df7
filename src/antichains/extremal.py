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


def layer_construct(n: int, m: int, ell: int) -> PointSet:
    """The full layer of coordinate-sum ``ell``; a maximum antichain at the middle sum.

    Built in lexicographic order, first coordinate outermost: a first
    coordinate a runs over max(0, ell - (m-1)(n-1)) .. min(m-1, ell), the
    values the other n - 1 coordinates can make up to ``ell``, and prefixes
    each point of their layer of sum ell - a.  Every partial point built
    completes to a point of the layer, so the cost follows the layer's size,
    at most n tuple steps per point, not the m^n points of the grid.  A sum
    outside 0..n(m-1) gives the empty set.
    """
    _check_grid(n, m)
    require_int("ell", ell)
    top = m - 1
    if not 0 <= ell <= n * top:
        return PointSet._trusted(n, ())
    # tails[s]: the k-coordinate tails with coordinate sum s, in lexicographic
    # order, for each s that n - k more coordinates can complete to ell
    tails = {s: [(s,)] for s in range(max(0, ell - (n - 1) * top), min(top, ell) + 1)}
    for k in range(2, n + 1):
        tails = {
            s: [
                (a,) + tail
                for a in range(max(0, s - (k - 1) * top), min(top, s) + 1)
                for tail in tails[s - a]
            ]
            for s in range(max(0, ell - (n - k) * top), min(k * top, ell) + 1)
        }
    return PointSet._trusted(n, tails[ell])


def _with_coordinate(n: int, m: int, c: int) -> PointSet:
    """The grid points with some coordinate equal to ``c``, built in lexicographic order.

    On k + 1 coordinates the set is, for each first coordinate a in turn,
    a prefixed to the whole k-grid when a == c and to the set on k
    coordinates otherwise, so no point outside the set is made.
    """
    points = [(c,)]
    for k in range(1, n):
        points = [
            (a,) + tail
            for a in range(m)
            for tail in (product(range(m), repeat=k) if a == c else points)
        ]
    return PointSet._trusted(n, points)


def wn_construct(n: int, m: int) -> PointSet:
    """All grid points with at least one zero coordinate: m^n - (m-1)^n points.

    This is a maximum weak antichain of the grid.  It is built directly in
    lexicographic order: 0 prefixed to the whole (n-1)-grid, then each other
    first coordinate prefixed to the (n-1)-dimensional set, so the cost
    follows the set's size.
    """
    _check_grid(n, m)
    return _with_coordinate(n, m, 0)


@dataclass(frozen=True)
class WidthResult:
    """The width of a grid poset and a maximum (weak) antichain that attains it.

    ``method`` is ``"matching"`` from :func:`max_antichain` and
    ``"construction"`` from :func:`best_construction`.  ``max_antichain``
    runs no matching: its witness is a closed form that a chain cover
    certifies, and ``"matching"`` stays only because it is a value of the
    CLI's output.
    """

    width: int
    witness: PointSet
    method: str


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

    Either witness is built directly in lexicographic order (see
    :func:`layer_construct`; the chain tops are m - 1 prefixed to the whole
    (n-1)-grid and each other first coordinate prefixed to the tops on n - 1
    coordinates), so its cost follows the witness, not the grid; ``budget``
    still bounds the grid's size.
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
        witness = _with_coordinate(n, m, m - 1)
    return WidthResult(width=len(witness), witness=witness, method="matching")


def best_construction(poset: GridPoset) -> WidthResult:
    """Closed-form extremal witness: the middle layer, or the zero-coordinate set."""
    if poset.order is Order.STRICT:
        witness = layer_construct(poset.n, poset.m, middle_layer_index(poset.n, poset.m))
    else:
        witness = wn_construct(poset.n, poset.m)
    return WidthResult(width=len(witness), witness=witness, method="construction")
