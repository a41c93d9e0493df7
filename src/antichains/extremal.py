"""Extremal antichain constructions on grid posets and exact width search.

Widths come from a chain decomposition instead of a matching search.  A grid
is a product of chains, so under the strict order it splits into symmetric
chains, one per point of the middle layer (de Bruijn, van Ebbenhorst
Tengbergen & Kruyswijk, 1951); under the strong order the diagonals through
the zero-coordinate points partition it.  Consecutive chain elements form a
maximum matching of the comparability graph, and the König witness
built from a maximum matching does not depend on which one is used
(Dulmage & Mendelsohn, 1958), so one alternating search over unit steps
yields the width and a maximum antichain without building any edges.
"""

from dataclasses import dataclass
from itertools import product

from .lattice import Order, PointSet
from .partition import BudgetExceededError

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
        if self.n < 1 or self.m < 1:
            raise ValueError("grid needs n >= 1 and m >= 1")
        if self.order not in (Order.STRICT, Order.STRONG):
            raise ValueError("grid posets use Order.STRICT or Order.STRONG")

    @property
    def size(self) -> int:
        return self.m**self.n


def layer_size(n: int, m: int, ell: int) -> int:
    """Number of grid points with coordinate sum ``ell``.

    Computed as the degree-``ell`` coefficient of (1 + t + ... + t^(m-1))^n;
    sums outside 0..n(m-1) have no points and return 0.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if ell < 0 or ell > n * (m - 1):
        return 0
    coeffs = [1]
    for _ in range(n):
        nxt = [0] * (len(coeffs) + m - 1)
        for j, c in enumerate(coeffs):
            for t in range(m):
                nxt[j + t] += c
        coeffs = nxt
    return coeffs[ell]


def middle_layer_index(n: int, m: int) -> int:
    return (n * (m - 1)) // 2


def layer_construct(n: int, m: int, ell: int) -> PointSet:
    """The full layer of coordinate-sum ``ell``; a maximum antichain at the middle sum."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    return PointSet(n, (p for p in product(range(m), repeat=n) if sum(p) == ell))


def wn_construct(n: int, m: int) -> PointSet:
    """All grid points with at least one zero coordinate: m^n - (m-1)^n points.

    This is a maximum weak antichain of the grid.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
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
    their number.  The witness is the König set of their matching: the
    points whose left copy an alternating path from a chain top reaches
    while the right copy stays unreached.  The right copies reached are the
    strict up-set of the left points reached, so the search walks unit
    steps, and each right point reached leads back to its chain predecessor.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if poset.size > budget:
        raise BudgetExceededError(
            f"grid has {poset.size} points, budget is {budget}"
        )
    n, m, size = poset.n, poset.m, poset.size
    strides = [m ** (n - 1 - i) for i in range(n)]
    chains = _chains(poset)
    left = bytearray(size)
    right = bytearray(size)
    for chain in chains:
        left[chain[-1]] = 1
    # under the strong order nothing lies strictly above a chain top, which
    # has a coordinate m - 1, so there the search reaches nothing
    if poset.order is Order.STRICT:
        pred = [-1] * size
        for chain in chains:
            for lo, hi in zip(chain, chain[1:]):
                pred[hi] = lo
        # every point taken from the stack is a reached left or right copy,
        # and either way its unit steps up are reached right copies
        stack = [chain[-1] for chain in chains]
        while stack:
            u = stack.pop()
            for s in strides:
                v = u + s
                if u // s % m < m - 1 and not right[v]:
                    right[v] = 1
                    stack.append(v)
                    w = pred[v]
                    if w >= 0 and not left[w]:
                        left[w] = 1
                        stack.append(w)

    witness = [
        tuple(idx // s % m for s in strides)
        for idx in range(size)
        if left[idx] and not right[idx]
    ]
    width = len(chains)
    if len(witness) != width:
        raise RuntimeError("witness extraction disagrees with the matching size")
    return WidthResult(width=width, witness=PointSet._trusted(n, witness), method="matching")


def best_construction(poset: GridPoset) -> WidthResult:
    """Closed-form extremal witness: the middle layer, or the zero-coordinate set."""
    if poset.order is Order.STRICT:
        witness = layer_construct(poset.n, poset.m, middle_layer_index(poset.n, poset.m))
    else:
        witness = wn_construct(poset.n, poset.m)
    return WidthResult(width=len(witness), witness=witness, method="construction")
