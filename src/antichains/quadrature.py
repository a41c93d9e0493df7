"""Adaptive midpoint quadrature on dyadic subdivisions of a box.

A cell's estimate ``est`` is its midpoint value times its volume; the sum
``s`` over its 2^d children refines it, and ``|s - est| / 3`` (the
Richardson difference) is the cell's error.

Without a region classifier every cell is refined locally: it is accepted
once its Richardson difference fits its share of ``tol`` in proportion to
its volume, and split otherwise.

With a classifier the integral is global-adaptive, as in QUADPACK
(Piessens et al., 1983) and DCUHRE (Berntsen, Espelid & Genz, 1991): cells
fully outside the region contribute nothing, and of the remaining cells the
one with the largest error contribution is split next, until the summed
error fits ``tol``.  A cell that straddles the region boundary is charged
its worst case ``sup_bound * vol`` and valued at its midpoint estimate;
straddling cells of one depth share that charge, so they are split level
by level.  Evaluation order is fixed, so results are bit-reproducible.
"""

import heapq
from dataclasses import dataclass
from itertools import product
from math import fsum, prod

from .estimate import require_tolerance

__all__ = ["QuadratureResult", "integrate_adaptive", "INSIDE", "OUTSIDE", "STRADDLE"]

INSIDE, OUTSIDE, STRADDLE = 1, -1, 0

Box = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_bound: float
    evaluations: int
    converged: bool


def _volume(cell: Box) -> float:
    return prod(hi - lo for lo, hi in cell)


def _split(cell: Box) -> list[Box]:
    halves = [((lo, (lo + hi) / 2), ((lo + hi) / 2, hi)) for lo, hi in cell]
    return [
        tuple(halves[i][b] for i, b in enumerate(bits))
        for bits in product((0, 1), repeat=len(cell))
    ]


def integrate_adaptive(
    f,
    box: Box,
    tol: float,
    *,
    cell_classify=None,
    sup_bound: float = 1.0,
    max_depth: int = 26,
    min_depth: int = 2,
    max_frontier: int = 65_536,
    max_evals: int = 4_000_000,
) -> QuadratureResult:
    """Integrate ``f`` over ``box`` to an absolute tolerance.

    ``tol`` must be finite (else NonFiniteError) and positive (else
    ValueError).  A cell shallower than ``min_depth`` is always split and a
    cell at ``max_depth`` never is; a smooth cell that stops there with its
    error unresolved is charged ``|s - est|`` rather than a third of it.
    Without a classifier, refinement also stops once ``max_evals``
    evaluations are spent.

    ``cell_classify(lo, hi)`` may report INSIDE / OUTSIDE / STRADDLE for a
    cell given its corner tuples; ``f`` must return 0 outside the region and
    stay below ``sup_bound`` inside it.  The classified integral stops once
    the summed error is at most ``tol``, once ``max_evals`` evaluations are
    spent, once no cell that carries error can be split, or when a completed
    level of straddling cells holds at least ``max_frontier`` cells: the cap
    is tested only when the last cell of a level has been split, and it ends
    all refinement, smooth cells included.
    Every unresolved cell charges its error to the reported bound, so the
    bound is always honest; callers should treat a bound above ``tol`` as a
    flagged, not failed, estimate.
    """
    require_tolerance(tol)
    vol_total = _volume(box)
    if vol_total <= 0:
        return QuadratureResult(0.0, 0.0, 0, True)
    if cell_classify is not None:
        return _integrate_global(
            f, box, tol, cell_classify, sup_bound, max_depth, min_depth, max_frontier, max_evals
        )

    state = {"value": 0.0, "err": 0.0, "evals": 0}

    def mid_estimate(cell: Box) -> float:
        state["evals"] += 1
        mid = tuple((lo + hi) / 2 for lo, hi in cell)
        return f(mid) * _volume(cell)

    def smooth(cell: Box, est: float, depth: int) -> None:
        children = _split(cell)
        ests = [mid_estimate(c) for c in children]
        s = sum(ests)
        richardson = abs(s - est) / 3
        share = tol * (_volume(cell) / vol_total)
        if depth >= min_depth and richardson <= share:
            state["value"] += s
            state["err"] += richardson
            return
        if depth >= max_depth or state["evals"] >= max_evals:
            state["value"] += s
            state["err"] += abs(s - est)
            return
        for child, child_est in zip(children, ests):
            smooth(child, child_est, depth + 1)

    smooth(box, mid_estimate(box), 0)
    return QuadratureResult(
        value=state["value"],
        error_bound=state["err"],
        evaluations=state["evals"],
        converged=state["err"] <= tol * (1 + 1e-9),
    )


def _integrate_global(
    f, box: Box, tol, classify, sup_bound, max_depth, min_depth, max_frontier, max_evals
) -> QuadratureResult:
    # A cell is named by its depth k and a packed integer index: axis j's
    # coordinate i_j (the cell spans ticks i_j and i_j + 1 of depth k) sits
    # in bits [j*stride, (j+1)*stride), so a child's index is the parent's
    # shifted left by one, or'ed with the child's offset.
    d = len(box)
    origin = [lo for lo, _ in box]
    stride = max_depth + 1
    mask = (1 << stride) - 1
    shifts = [j * stride for j in range(d)]
    offsets = [sum(b << s for b, s in zip(bits, shifts)) for bits in product((0, 1), repeat=d)]
    # the tick of index i at depth k on axis j is origin[j] + i * steps[k][j];
    # the same tick is the same float at every depth, so children tile their
    # parent exactly
    steps = [[(hi - lo) * 0.5**k for lo, hi in box] for k in range(max_depth + 3)]
    vols = [_volume(box) * 0.5 ** (d * k) for k in range(max_depth + 2)]
    evals = 0

    def coords(idx: int) -> list[int]:
        return [(idx >> s) & mask for s in shifts]

    def own_estimate(k: int, idx: int) -> float:
        nonlocal evals
        evals += 1
        mid = tuple(a + (2 * i + 1) * h for a, i, h in zip(origin, coords(idx), steps[k + 1]))
        return f(mid) * vols[k]

    def child_estimates(k: int, idx: int) -> list[float]:
        nonlocal evals
        evals += len(offsets)
        mids = [
            (a + (4 * i + 1) * h, a + (4 * i + 3) * h)
            for a, i, h in zip(origin, coords(idx), steps[k + 2])
        ]
        vol = vols[k + 1]
        return [f(mid) * vol for mid in product(*mids)]

    heap: list[tuple[float, int, int, float]] = []  # smooth cells: (-error, k, index, s)
    final: list[tuple[float, float]] = []  # (value, error) of cells split no further
    total = 0.0  # running sum of every charge; resynced when a level completes and to stop

    def settle(k: int, idx: int, est: float) -> None:
        # a smooth cell with its own estimate: evaluate its children and file it
        nonlocal total
        ests = child_estimates(k, idx)
        s = sum(ests)
        if k >= max_depth:
            final.append((s, abs(s - est)))
            total += abs(s - est)
        elif k < min_depth and evals < max_evals:
            for e, off in zip(ests, offsets):
                settle(k + 1, (idx << 1) | off, e)
        else:
            err = abs(s - est) / 3 if k >= min_depth else abs(s - est)
            heapq.heappush(heap, (-err, k, idx, s))
            total += err

    # straddling cells: ``level`` at depth ``sk``, split in order from
    # ``pos``; their children that still straddle go to ``nxt``
    level: list[int] = []
    nxt: list[int] = []
    pos = sk = 0
    side = classify(tuple(origin), tuple(hi for _, hi in box))
    if side == INSIDE:
        settle(0, 0, own_estimate(0, 0))
    elif side == STRADDLE:
        level = [0]
        total += sup_bound * vols[0]

    def error_bound() -> float:
        charges = [-e for e, *_ in heap] + [e for _, e in final]
        charges += [(len(level) - pos) * sup_bound * vols[sk], len(nxt) * sup_bound * vols[sk + 1]]
        return fsum(charges)

    capped = len(level) >= max_frontier
    while evals < max_evals and not capped:
        if total <= tol:
            # stop on the exact sum, not on the running one
            total = error_bound()
            if total <= tol:
                break
        # the charge of the next straddling cell; only cells with a charge are split
        straddle = sup_bound * vols[sk] if pos < len(level) and sk < max_depth else 0.0
        if heap and -heap[0][0] > straddle:
            neg_err, k, idx, _ = heapq.heappop(heap)
            total += neg_err
            for e, off in zip(child_estimates(k, idx), offsets):
                settle(k + 1, (idx << 1) | off, e)
        elif straddle > 0:
            idx = level[pos]
            pos += 1
            total -= straddle
            lows, highs = [], []
            for a, i, step in zip(origin, coords(idx), steps[sk + 1]):
                t0, t1, t2 = a + 2 * i * step, a + (2 * i + 1) * step, a + (2 * i + 2) * step
                lows.append((t0, t1))
                highs.append((t1, t2))
            for lo, hi, off in zip(product(*lows), product(*highs), offsets):
                side = classify(lo, hi)
                child = (idx << 1) | off
                if side == INSIDE:
                    settle(sk + 1, child, own_estimate(sk + 1, child))
                elif side == STRADDLE:
                    nxt.append(child)
                    total += sup_bound * vols[sk + 1]
            if pos == len(level):
                level, nxt, pos, sk = nxt, [], 0, sk + 1
                capped = len(level) >= max_frontier
                total = error_bound()
        else:
            break

    values = [s for *_, s in heap] + [v for v, _ in final]
    values += [own_estimate(sk, idx) for idx in level[pos:]]
    values += [own_estimate(sk + 1, idx) for idx in nxt]
    error = error_bound()
    return QuadratureResult(
        value=fsum(values),
        error_bound=error,
        evaluations=evals,
        converged=error <= tol * (1 + 1e-9),
    )
