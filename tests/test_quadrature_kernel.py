"""Differential tests: the smooth-integrand quadrature against the classified oracle.

``_oracle_integrate_adaptive`` is the previous ``integrate_adaptive``, kept
verbatim: without a classifier each cell is refined locally until its
Richardson difference fits its share of ``tol``; with one, straddling
cells are charged ``sup_bound * vol`` and split level by level in a
global-adaptive loop.  ``_oracle_measure`` feeds it the previous integrands
and classifiers of the surface families, also verbatim: the graph form over
the base box for the hyperplane, and one of the n symmetric graph pieces
for the sphere.  The library now integrates smooth integrands over full
boxes (the Duffy-mapped simplex for the sphere, the n = 2 arc in graded
power coordinates, the hyperplane with its last base coordinate
integrated out), so both sides compute the same surface measure from
different problems.
"""

import heapq
import math
from dataclasses import astuple
from functools import lru_cache
from itertools import product
from math import fsum, prod

import pytest

from antichains import surfaces
from antichains.estimate import require_tolerance
from antichains.quadrature import QuadratureResult, integrate_adaptive

# the region labels of the previous classifiers, defined here so the oracle stands alone
INSIDE, OUTSIDE, STRADDLE = 1, -1, 0

Box = tuple[tuple[float, float], ...]

# ---------------------------------------------------------------------------
# oracle: the classified global-adaptive integrator, verbatim


def _volume(cell: Box) -> float:
    return prod(hi - lo for lo, hi in cell)


def _split(cell: Box) -> list[Box]:
    halves = [((lo, (lo + hi) / 2), ((lo + hi) / 2, hi)) for lo, hi in cell]
    return [
        tuple(halves[i][b] for i, b in enumerate(bits))
        for bits in product((0, 1), repeat=len(cell))
    ]


def _oracle_integrate_adaptive(
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
    """The previous ``integrate_adaptive``: local recursion without a classifier."""
    require_tolerance(tol)
    vol_total = _volume(box)
    if vol_total <= 0:
        return QuadratureResult(0.0, 0.0, 0, True)
    if cell_classify is not None:
        return _oracle_integrate_global(
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


def _oracle_integrate_global(
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


# ---------------------------------------------------------------------------
# the previous integrands and classifiers of the surface families, verbatim


def _old_hyperplane(n, tol):
    d = n - 1
    lo_b, hi_b = n / 2 - 1, n / 2
    rt = math.sqrt(n)

    def integrand(x):
        ssum = sum(x)
        return rt if lo_b <= ssum <= hi_b else 0.0

    def classify(lo, hi):
        if sum(lo) >= lo_b and sum(hi) <= hi_b:
            return INSIDE
        if sum(hi) < lo_b or sum(lo) > hi_b:
            return OUTSIDE
        return STRADDLE

    box = tuple(((0.0, 1.0),) * d)
    return _oracle_integrate_adaptive(integrand, box, tol, cell_classify=classify, sup_bound=rt)


def _old_lpsphere(n, p, tol):
    d = n - 1

    def integrand(x):
        ssum = sum(c**p for c in x)
        mx = max(x)
        if ssum + mx**p > 1.0:
            return 0.0
        fval = (1.0 - ssum) ** (1.0 / p)
        acc = 1.0
        for c in x:
            if c > 0.0:
                acc += (c / fval) ** (2.0 * (p - 1.0))
        return math.sqrt(acc)

    edge = 0.5 ** (1.0 / p)
    if d == 1:
        # the piece region is exactly [0, 2^(-1/p)]
        res = _oracle_integrate_adaptive(integrand, ((0.0, edge),), tol / n)
    else:

        def classify(lo, hi):
            g_hi = sum(c**p for c in hi) + max(hi) ** p
            if g_hi <= 1.0:
                return INSIDE
            g_lo = sum(c**p for c in lo) + max(lo) ** p
            if g_lo > 1.0:
                return OUTSIDE
            return STRADDLE

        box = tuple(((0.0, edge),) * d)
        res = _oracle_integrate_adaptive(
            integrand, box, tol / n, cell_classify=classify, sup_bound=math.sqrt(n)
        )
    return QuadratureResult(n * res.value, n * res.error_bound, res.evaluations, res.converged)


def _oracle_measure(surface, tol) -> QuadratureResult:
    if isinstance(surface, surfaces.Hyperplane):
        return _old_hyperplane(surface.n, tol)
    return _old_lpsphere(surface.n, surface.p, tol)


# ---------------------------------------------------------------------------
# the integrals the surface families ask for now


def _recorded(run) -> list:
    """The (f, box, tol, kwargs) of every integral that ``run()`` asks for."""
    calls = []

    def record(f, box, tol, **kwargs):
        calls.append((f, box, tol, kwargs))
        return QuadratureResult(0.0, 0.0, 0, True)

    saved = surfaces.integrate_adaptive
    surfaces.integrate_adaptive = record
    try:
        run()
    finally:
        surfaces.integrate_adaptive = saved
    return calls


def _problem(surface, tol):
    """The (f, box, tol, kwargs) that ``surface``'s quadrature route integrates."""
    (call,) = _recorded(lambda: surfaces.surface_measure_quadrature(surface, tol))
    return call


_CASES = [
    (surfaces.Hyperplane(2), 1e-2),
    (surfaces.Hyperplane(2), 1e-6),
    (surfaces.Hyperplane(3), 1e-1),
    (surfaces.Hyperplane(3), 1e-2),
    (surfaces.Hyperplane(3), 3e-3),
    (surfaces.Hyperplane(4), 1.0),
    (surfaces.Hyperplane(4), 0.5),
    (surfaces.Hyperplane(4), 0.25),
    (surfaces.LpSphere(3, 1), 1e-1),
    (surfaces.LpSphere(3, 1), 1e-2),
    (surfaces.LpSphere(3, 2), 1e-1),
    (surfaces.LpSphere(3, 2), 1e-2),
    (surfaces.LpSphere(3, 2), 3e-3),
    (surfaces.LpSphere(3, 7.5), 1e-1),
    (surfaces.LpSphere(3, 7.5), 1e-2),
    (surfaces.LpSphere(4, 2), 1.0),
    (surfaces.LpSphere(4, 2), 0.5),
    (surfaces.LpSphere(4, 4), 1.0),
    (surfaces.LpSphere(4, 4), 0.5),
]
_IDS = [f"{s!r}@{tol}" for s, tol in _CASES]


@lru_cache(maxsize=None)
def _pair(case: int):
    surface, tol = _CASES[case]
    return surfaces.surface_measure_quadrature(surface, tol), _oracle_measure(surface, tol)


@pytest.mark.parametrize("case", range(len(_CASES)), ids=_IDS)
def test_agrees_with_oracle_within_both_bounds(case):
    new, old = _pair(case)
    assert abs(new.value - old.value) <= new.error_bound + old.error_bound


@pytest.mark.parametrize("case", range(len(_CASES)), ids=_IDS)
def test_meets_tolerance_where_oracle_did(case):
    new, old = _pair(case)
    tol = _CASES[case][1]
    if old.converged:
        assert new.converged and new.error_bound <= tol * (1 + 1e-9)


@pytest.mark.parametrize("case", range(len(_CASES)), ids=_IDS)
def test_halves_the_evaluations(case):
    # With no straddling cells and no n-fold split, most cases stop at the
    # floor that min_depth = 2 sets, 1 + 2^d + 4^d + 8^d evaluations in d
    # dimensions: the same 15 as the oracle for the constant n = 2 slice,
    # and 0.002-0.62 of its evaluations elsewhere.  The others take under a
    # tenth (0.016-0.02).
    new, old = _pair(case)
    d = len(_problem(*_CASES[case])[1])
    if new.evaluations == sum(2 ** (d * k) for k in range(4)):
        assert new.evaluations <= old.evaluations
    else:
        assert new.evaluations <= 0.1 * old.evaluations


@pytest.mark.parametrize("case", range(len(_CASES)), ids=_IDS)
def test_converged_flag_reads_the_reported_bound(case):
    f, box, tol, kwargs = _problem(*_CASES[case])
    for max_evals in (50, 500, 4_000_000):
        res = integrate_adaptive(f, box, tol, **kwargs, max_evals=max_evals)
        assert res.converged == (res.error_bound <= tol * (1 + 1e-9))


@pytest.mark.parametrize("case", [3, 11, 16], ids=[_IDS[i] for i in (3, 11, 16)])
def test_repeated_calls_are_bit_identical(case):
    f, box, tol, kwargs = _problem(*_CASES[case])
    # repr round-trips every float exactly, signed zeros included
    first = repr(astuple(integrate_adaptive(f, box, tol, **kwargs)))
    for _ in range(2):
        assert repr(astuple(integrate_adaptive(f, box, tol, **kwargs))) == first


def test_max_evals_stops_with_an_honest_bound():
    f, box, tol, kwargs = _problem(surfaces.LpSphere(3, 2), 1e-4)
    res = integrate_adaptive(f, box, tol, **kwargs, max_evals=2_000)
    assert not res.converged
    # the octant sphere has area pi/2
    assert abs(res.value - math.pi / 2) <= res.error_bound


def test_stops_when_no_cell_can_reduce_the_error():
    # the cell holding the jump at x = 1/3 reaches max_depth still above
    # tol, and the flat cells on either side carry no error, so nothing is
    # worth splitting: the loop must stop instead of spending max_evals
    def step(x):
        return 1.0 if x[0] < 1 / 3 else 0.0

    res = integrate_adaptive(step, ((0.0, 1.0),), 1e-12, max_depth=20, max_evals=100_000)
    assert not res.converged
    assert res.evaluations < 1_000
    assert abs(res.value - 1 / 3) <= res.error_bound


# ---------------------------------------------------------------------------
# the n = 2 arcs: graded power coordinates against the graph piece in the local loop


def test_sweep_agrees_with_oracle_within_both_bounds():
    for p in range(1, 65):
        new = surfaces.surface_measure(surfaces.LpSphere(2, p), 1e-6)
        old = _old_lpsphere(2, p, 1e-6)
        assert new.converged and old.converged
        assert abs(new.value - old.value) <= new.error_bound + old.error_bound
        assert new.evaluations <= old.evaluations


def test_sweep_evaluation_budget():
    # the benchmark's p sweep: the graph piece over [0, 2^(-1/p)] took 9,008
    # evaluations in the global loop, graded power coordinates take 3,632
    total = sum(
        surfaces.surface_measure(surfaces.LpSphere(2, p), 1e-6).evaluations
        for p in range(2, 65, 2)
    )
    assert total <= 4_000


@pytest.mark.parametrize("max_evals, min_depth", [(40, 2), (4_000_000, 0), (4_000_000, 5)])
def test_budgets_agree_with_oracle_within_both_bounds(max_evals, min_depth):
    def f(x):
        return math.sqrt(abs(x[0] - 0.3)) + x[-1] ** 2

    for box in (((0.0, 1.0),), ((0.0, 1.0), (0.0, 0.5))):
        kwargs = {"max_evals": max_evals, "min_depth": min_depth, "max_depth": 12}
        new = integrate_adaptive(f, box, 1e-4, **kwargs)
        old = _oracle_integrate_adaptive(f, box, 1e-4, **kwargs)
        assert new.converged == old.converged
        assert abs(new.value - old.value) <= new.error_bound + old.error_bound
