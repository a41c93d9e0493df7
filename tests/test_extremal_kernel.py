"""Differential tests: chain-decomposition widths against the matching route they replaced.

The oracle below is the previous ``max_antichain``, kept verbatim apart from
its name: it builds the whole strict comparability graph, runs Hopcroft-Karp
and extracts the König witness by alternating reachability.  The chain
kernel must give the same width and the same witness tuple.

The sweep over larger grids takes about a minute, almost all of it in the
oracle, so tier-1 stops at 1,024 points; run the rest with

    PYTHONPATH=src python tests/test_extremal_kernel.py 1024 4096
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
from antichains.extremal import _chains

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
# grids


def _grids(lo, hi):
    """Every grid with lo < m^n <= hi, n <= 12 and m <= 64, in both orders."""
    return [
        GridPoset(n, m, order)
        for n in range(1, 13)
        for m in range(1, 65)
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
    grids = _grids(lo, hi)
    for poset in grids:
        res = max_antichain(poset, budget=hi)
        assert (res.width, tuple(res.witness)) == _oracle_max_antichain(poset), poset
    print(f"{len(grids)} grids with {lo} < m^n <= {hi}: width and witness agree")
