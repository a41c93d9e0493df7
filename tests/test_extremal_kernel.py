"""Differential tests: closed-form grid widths against the searches they replaced.

Three oracles are kept verbatim apart from their names.  The first builds
the whole strict comparability graph, runs Hopcroft-Karp and extracts the
König witness by alternating reachability; the second is the chain cover
the library once built, symmetric chains or diagonals, checked here to
partition the grid by single steps; the third runs the König alternating
search over unit steps on the chain cover's own matching.  The library returns the
middle layer or the set of chain tops in closed form and must give the same
width and the same witness tuple as the first and third.

The matching oracle takes about a minute beyond 1,024 points, so tier-1
stops there; the alternating search runs in tier-1 up to 16,384 points, in
about 2 s.  Run the rest with

    PYTHONPATH=src python tests/test_extremal_kernel.py 1024 4096
    PYTHONPATH=src python tests/test_extremal_kernel.py 16384 65536

The first sweep checks both oracles, the second only the alternating search.
"""

import sys
from collections import deque
from itertools import product

import pytest

from antichains import (
    GridPoset,
    Order,
    classify,
    layer_size,
    max_antichain,
    middle_layer_index,
)
from antichains.extremal import WidthResult
from antichains.lattice import PointSet
from antichains.partition import BudgetExceededError

# ---------------------------------------------------------------------------
# oracle: the matching route, verbatim


def _strictly_above(p, m, order):
    """Points of the grid strictly above ``p`` in the given order."""
    if order is Order.STRONG:
        yield from product(*(range(c + 1, m) for c in p))
    else:
        for q in product(*(range(c, m) for c in p)):
            if q != p:
                yield q


def _max_matching(adj):
    """Hopcroft-Karp maximum matching on a bipartite graph given as left adjacency.

    The DFS phase is iterative because augmenting paths can be as long as a
    chain through the whole poset.
    """
    lefts = sorted(adj)
    pair_u = {}
    pair_v = {}
    dist = {}

    def bfs():
        queue = deque()
        for u in lefts:
            if u not in pair_u:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = -1
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = pair_v.get(v)
                if w is None:
                    found = True
                elif dist.get(w, -1) < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(root):
        stack = [[root, iter(adj[root]), None]]
        while stack:
            frame = stack[-1]
            u, edges = frame[0], frame[1]
            moved = False
            for v in edges:
                w = pair_v.get(v)
                if w is None:
                    frame[2] = v
                    for fu, _, fv in stack:
                        pair_u[fu] = fv
                        pair_v[fv] = fu
                    return True
                if dist.get(w, -1) == dist[u] + 1:
                    frame[2] = v
                    stack.append([w, iter(adj[w]), None])
                    moved = True
                    break
            if not moved:
                dist[u] = -1
                stack.pop()
        return False

    matching = 0
    while bfs():
        for u in lefts:
            if u not in pair_u and dfs(u):
                matching += 1
    return matching, pair_u, pair_v


def _oracle_max_antichain(poset):
    """Width and witness tuple of the comparability-graph matching route."""
    pts = sorted(product(range(poset.m), repeat=poset.n))
    adj = {p: sorted(_strictly_above(p, poset.m, poset.order)) for p in pts}
    matching, pair_u, pair_v = _max_matching(adj)

    reachable_left = set()
    reachable_right = set()
    queue = deque(u for u in pts if u not in pair_u)
    reachable_left.update(queue)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in reachable_right:
                reachable_right.add(v)
                w = pair_v.get(v)
                if w is not None and w not in reachable_left:
                    reachable_left.add(w)
                    queue.append(w)

    witness = [p for p in pts if p in reachable_left and p not in reachable_right]
    width = poset.size - matching
    if len(witness) != width:
        raise RuntimeError("witness extraction disagrees with the matching size")
    return width, tuple(witness)


# ---------------------------------------------------------------------------
# oracle: the chain cover, verbatim


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


# ---------------------------------------------------------------------------
# oracle: the alternating search over the chain cover's matching, verbatim


def _alternating_max_antichain(poset: GridPoset, budget: int = 4096) -> WidthResult:
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


# ---------------------------------------------------------------------------
# grids


def _grids(lo, hi, max_n=12, max_m=64):
    """Every grid with lo < m^n <= hi, n <= max_n and m <= max_m, in both orders."""
    return [
        GridPoset(n, m, order)
        for n in range(1, max_n + 1)
        for m in range(1, max_m + 1)
        if lo < m**n <= hi
        for order in (Order.STRICT, Order.STRONG)
    ]


def _point(idx, n, m):
    return tuple(idx // m ** (n - 1 - i) % m for i in range(n))


def test_agrees_with_matching_oracle_up_to_1024_points():
    grids = _grids(0, 1024)
    assert len(grids) == 256
    for poset in grids:
        res = max_antichain(poset, budget=1024)
        assert (res.width, tuple(res.witness)) == _oracle_max_antichain(poset), poset


def _alternating_grids(lo, hi):
    return _grids(lo, hi, max_n=16, max_m=256)


def _agrees_with_alternating_search(poset, budget):
    res = max_antichain(poset, budget=budget)
    old = _alternating_max_antichain(poset, budget=budget)
    return (res.width, tuple(res.witness), res.method) == (
        old.width,
        tuple(old.witness),
        old.method,
    )


def test_agrees_with_alternating_search_up_to_16384_points():
    grids = _alternating_grids(0, 16384)
    assert len(grids) == 2 * 452
    for poset in grids:
        assert _agrees_with_alternating_search(poset, 16384), poset


@pytest.mark.parametrize("poset", _grids(0, 1024), ids=lambda p: f"{p.n}-{p.m}-{p.order.name}")
def test_chains_partition_the_grid_by_single_steps(poset):
    n, m = poset.n, poset.m
    chains = [[_point(idx, n, m) for idx in chain] for chain in _chains(poset)]
    flat = sorted(p for chain in chains for p in chain)
    assert flat == sorted(product(range(m), repeat=n))
    step = 1 if poset.order is Order.STRICT else n
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            diffs = [y - x for x, y in zip(a, b)]
            assert min(diffs) >= 0 and sum(diffs) == step, (a, b)
            if poset.order is Order.STRONG:
                assert set(diffs) == {1}
        if poset.order is Order.STRICT:
            assert sum(chain[0]) + sum(chain[-1]) == n * (m - 1)
        else:
            assert 0 in chain[0] and m - 1 in chain[-1]
    # the closed-form witness takes one point from every chain
    witness = set(max_antichain(poset, budget=1024).witness)
    assert [sum(p in witness for p in chain) for chain in chains] == [1] * len(chains)


def test_grid_beyond_the_matching_route():
    # 13,824 points: the comparability graph alone would have tens of
    # millions of edges
    strict = max_antichain(GridPoset(3, 24), budget=20_000)
    assert strict.width == layer_size(3, 24, middle_layer_index(3, 24)) == len(strict.witness)
    assert classify(strict.witness).is_antichain
    weak = max_antichain(GridPoset(3, 24, Order.STRONG), budget=20_000)
    assert weak.width == 24**3 - 23**3 == len(weak.witness)
    assert classify(weak.witness).is_weak_antichain


if __name__ == "__main__":
    lo, hi = (int(a) for a in sys.argv[1:3])
    grids = _alternating_grids(lo, hi)
    for poset in grids:
        assert _agrees_with_alternating_search(poset, hi), poset
    print(f"{len(grids)} grids with {lo} < m^n <= {hi}: alternating search agrees")
    # beyond 4,096 points the matching oracle's comparability graph alone
    # has millions of edges
    if hi <= 4096:
        grids = _grids(lo, hi)
        for poset in grids:
            res = max_antichain(poset, budget=hi)
            assert (res.width, tuple(res.witness)) == _oracle_max_antichain(poset), poset
        print(f"{len(grids)} grids with {lo} < m^n <= {hi}: matching oracle agrees")
