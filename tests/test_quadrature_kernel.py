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

``_previous_integrate_adaptive`` is the global-adaptive loop as it was
before its tables and per-child calls were taken out, also verbatim but for
its sums, which add left to right; the current loop must return
bit-identical results.  ``_previous_sphere_integrand`` is the l^p sphere's
Duffy-mapped surface element for n >= 3 as it was before its two sums
moved into one pass, verbatim; the current one must return bit-identical
values.  Run as a script,

    PYTHONPATH=src python tests/test_quadrature_kernel.py 2000

checks the loop on 2,000 seeded random problems outside tier-1: smooth,
kinked and step integrands on random boxes in d = 1..4, with random
tolerances, budgets and depths.  It then checks the surface element on
2,000 seeded random points for each n = 3, 4, 5 and each of the eight
exponents p that tier-1 covers.
"""

import heapq
import math
import random
import sys
from dataclasses import astuple
from functools import lru_cache
from itertools import product
from math import fsum, prod

import pytest

from antichains import surfaces
from antichains.estimate import BudgetExceededError, NonFiniteError, _sum_in_order, require_tolerance
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
# the previous global-adaptive loop, verbatim but for its name and its three
# sums of ``ests``, which add left to right as the library's do, so that the
# bit-for-bit check holds on interpreters whose sum() is compensated


def _previous_integrate_adaptive(
    f,
    box: Box,
    tol: float,
    *,
    max_depth: int = 26,
    min_depth: int = 2,
    max_evals: int = 4_000_000,
) -> QuadratureResult:
    """Integrate ``f`` over ``box`` to an absolute tolerance.

    ``tol`` must be finite (else NonFiniteError) and positive (else
    ValueError).  A cell shallower than ``min_depth`` is always split and a
    cell at ``max_depth`` never is.  Refinement stops once the summed
    charge is at most ``tol``, once ``max_evals`` evaluations are spent, or
    once no cell that carries a charge can be split.  Every unresolved cell
    charges its error to the reported bound; callers should treat a bound
    above ``tol`` as a flagged, not failed, estimate.
    """
    require_tolerance(tol)
    d = len(box)
    vol_total = prod(hi - lo for lo, hi in box)
    if vol_total <= 0:
        return QuadratureResult(0.0, 0.0, 0, True)

    # A cell is named by its depth k and a packed integer index: axis j's
    # coordinate i_j (the cell spans ticks i_j and i_j + 1 of depth k) sits
    # in bits [j*stride, (j+1)*stride), so a child's index is the parent's
    # shifted left by one, or'ed with the child's offset.
    origin = [lo for lo, _ in box]
    stride = max_depth + 1
    mask = (1 << stride) - 1
    shifts = [j * stride for j in range(d)]
    offsets = [sum(b << s for b, s in zip(bits, shifts)) for bits in product((0, 1), repeat=d)]
    # the tick of index i at depth k on axis j is origin[j] + i * steps[k][j];
    # the same tick is the same float at every depth, so children tile their
    # parent exactly
    steps = [[(hi - lo) * 0.5**k for lo, hi in box] for k in range(max_depth + 3)]
    vols = [vol_total * 0.5 ** (d * k) for k in range(max_depth + 2)]

    def child_estimates(k: int, idx: int) -> list[float]:
        nonlocal evals
        evals += len(offsets)
        mids = [
            (a + (4 * ((idx >> s) & mask) + 1) * h, a + (4 * ((idx >> s) & mask) + 3) * h)
            for a, s, h in zip(origin, shifts, steps[k + 2])
        ]
        vol = vols[k + 1]
        return [f(mid) * vol for mid in product(*mids)]

    # waiting cells: (-charge, k, index, est, child estimates); the children's
    # estimates are kept, so splitting a cell evaluates only its grandchildren
    heap: list[tuple[float, int, int, float, list[float]]] = []
    final: list[tuple[float, float]] = []  # (s, |s - est|) of cells at max_depth
    total = 0.0  # running sum of every charge; resynced with fsum before stopping

    def settle(k: int, idx: int, est: float) -> None:
        # a cell with its own estimate: evaluate its children and file it
        nonlocal total
        ests = child_estimates(k, idx)
        s = _sum_in_order(ests)
        diff = abs(s - est)
        if k >= max_depth:
            final.append((s, diff))
            total += diff
        elif k < min_depth and evals < max_evals:
            for e, off in zip(ests, offsets):
                settle(k + 1, (idx << 1) | off, e)
        else:
            charge = diff / 3 if k >= min_depth else diff
            heapq.heappush(heap, (-charge, k, idx, est, ests))
            total += charge

    def error_bound() -> float:
        return fsum([-c for c, *_ in heap] + [e for _, e in final])

    root = f(tuple(a + h for a, h in zip(origin, steps[1]))) * vols[0]
    evals = 1
    settle(0, 0, root)
    while evals < max_evals and heap and heap[0][0] < 0:
        if total <= tol:
            # stop on the exact sum, not on the running one
            total = error_bound()
            if total <= tol:
                break
        neg_charge, k, idx, _, ests = heapq.heappop(heap)
        total += neg_charge
        for e, off in zip(ests, offsets):
            settle(k + 1, (idx << 1) | off, e)

    error = error_bound()
    accepted = error <= tol * (1 + 1e-9)
    values = [s for s, _ in final]
    for _, k, _, est, ests in heap:
        s = _sum_in_order(ests)
        values.append((4 * s - est) / 3 if accepted and k >= min_depth else s)
    if not accepted:
        error = fsum(
            [abs(_sum_in_order(ests) - est) for *_, est, ests in heap] + [e for _, e in final]
        )
    return QuadratureResult(
        value=fsum(values),
        error_bound=error,
        evaluations=evals,
        converged=accepted,
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


# ---------------------------------------------------------------------------
# the loop against its previous form: bit-identical results


def _assert_same(f, box, tol, **kwargs):
    new = integrate_adaptive(f, box, tol, **kwargs)
    old = _previous_integrate_adaptive(f, box, tol, **kwargs)
    # repr round-trips every float exactly, signed zeros included
    assert repr(astuple(new)) == repr(astuple(old)), (box, tol, kwargs)


def _kinked(x):
    return math.sqrt(abs(x[0] - 0.3)) + x[-1] ** 2


def _smooth(x):
    return 1.0 / (1.0 + sum((j + 1) * c * c for j, c in enumerate(x)))


def _step(x):
    return 1.0 if x[0] < 1 / 3 else 0.0


@pytest.mark.parametrize("case", range(len(_CASES)), ids=_IDS)
def test_bit_identical_to_previous_loop(case):
    f, box, tol, kwargs = _problem(*_CASES[case])
    _assert_same(f, box, tol, **kwargs)


def test_sweep_bit_identical_to_previous_loop():
    for p in (*range(1, 65), 1.1, 1000):
        f, box, tol, kwargs = _problem(surfaces.LpSphere(2, p), 1e-6)
        _assert_same(f, box, tol, **kwargs)


# 41 and 49 are evaluation counts that d = 1, 2 and 3 can reach exactly
@pytest.mark.parametrize("max_evals", [40, 41, 49, 50, 500, 4_000_000])
@pytest.mark.parametrize("min_depth", [0, 2, 5])
def test_budgets_bit_identical_to_previous_loop(max_evals, min_depth):
    problems = [
        (_kinked, ((0.0, 1.0),), 1e-4),
        (_kinked, ((0.0, 1.0), (0.0, 0.5)), 1e-4),
        _problem(surfaces.Hyperplane(2), 1e-6)[:3],
        _problem(surfaces.LpSphere(3, 2), 1e-2)[:3],
    ]
    if max_evals <= 500:
        # at min_depth 5 the d = 3 floor is 8^5 cells; only starved runs are quick
        problems.append(_problem(surfaces.LpSphere(4, 4), 0.5)[:3])
    for f, box, tol in problems:
        _assert_same(f, box, tol, max_evals=max_evals, min_depth=min_depth)


@pytest.mark.parametrize("max_depth", [0, 1, 3, 12, 20])
def test_depth_limit_bit_identical_to_previous_loop(max_depth):
    # the jump at x = 1/3 keeps a cell charged down to max_depth, so these
    # runs file cells as final; min_depth 5 above max_depth 3 files them
    # during the initial splits
    for min_depth in (0, 2, 5):
        kwargs = {"max_depth": max_depth, "min_depth": min_depth, "max_evals": 100_000}
        _assert_same(_step, ((0.0, 1.0),), 1e-12, **kwargs)
        _assert_same(_step, ((0.0, 1.0), (0.0, 2.0)), 1e-12, **kwargs)


@pytest.mark.parametrize(
    "box",
    [
        ((0, 1),),
        ((0, 3), (1, 2)),
        ((-2, 5), (0, 1), (3, 4)),
        ((0, 1.5), (2, 3)),
        ((1, 2**60),),
        ((0, 2**53 - 1), (0, 3), (0, 3)),
    ],
)
def test_integer_boxes_bit_identical_to_previous_loop(box):
    # integer bounds compare and hash equal to float ones, but an integer
    # volume is rounded once where a float product rounds at every factor
    for f in (_kinked, _smooth):
        _assert_same(f, box, 1e-3 * prod(hi - lo for lo, hi in box), max_evals=2_000)


@pytest.mark.parametrize(
    "box",
    [
        ((-0.3, 0.7),),
        ((0.1, 0.35), (-2.0, 5.0)),
        ((1e-3, 2.0), (0.5, 0.625), (-1.0, -0.25)),
        ((0.2, 0.3), (-1.0, 0.0), (3.0, 3.5), (0.0, 1.25)),
        ((0.0, 1.0), (0.5, 0.5)),
    ],
)
def test_offset_boxes_bit_identical_to_previous_loop(box):
    for f in (_kinked, _smooth, _step):
        _assert_same(f, box, 1e-3)


# ---------------------------------------------------------------------------
# the sphere's surface element against its previous form: bit-identical values


def _previous_sphere_integrand(n, p):
    """The Duffy-mapped surface element of ``LpSphere(n, p)``, n >= 3, as it
    was before its two sums moved into one pass over v, verbatim."""
    inv_p = 1.0 / p
    q, scale = 2.0 * (p - 1.0), -(n + p - 1.0) * inv_p

    def integrand(t):
        rest = jac = 1.0
        v = []
        for c in t:
            v.append(c * rest)
            jac *= rest
            rest *= 1.0 - c
        v.append(rest)
        top = max(v)
        w = [c / top for c in v]
        return (
            jac * math.sqrt(_sum_in_order(c**q for c in w))
            * _sum_in_order(c**p for c in w) ** scale / top**n
        )

    return integrand


_SPHERE_NS = (3, 4, 5)
_SPHERE_PS = (1, 1.1, 1.5, 2, 4, 8, 64, 1000)


def _simplex_point(t) -> list[float]:
    # the Duffy map as the integrand computes it, so ties are ties in floats
    rest, v = 1.0, []
    for c in t:
        v.append(c * rest)
        rest *= 1.0 - c
    return v + [rest]


def _special_points(n) -> list[tuple[float, ...]]:
    """Every point of [0,1]^(n-1) with coordinates in {0, 1/4, 1/3, 1/2, 1}:
    the faces where some t_i is 0 or 1, and simplex points whose max(v) is
    attained more than once, such as t = (1/2, 0) with v = (1/2, 0, 1/2) or
    t = (1/4, 1/3, 1/2) with v = (1/4, 1/4, 1/4, 1/4)."""
    return list(product((0.0, 0.25, 1 / 3, 0.5, 1.0), repeat=n - 1))


def _assert_sphere_integrands_agree(n, p, points) -> None:
    f = _problem(surfaces.LpSphere(n, p), 1e-2)[0]
    old = _previous_sphere_integrand(n, p)
    for t in points:
        # repr round-trips every float exactly, signed zeros included
        assert repr(f(t)) == repr(old(t)), (n, p, t)


def test_special_points_reach_ties():
    for n in _SPHERE_NS:
        points = _special_points(n)
        tied = [t for t in points if _simplex_point(t).count(max(_simplex_point(t))) > 1]
        assert len(tied) >= 5, n
    assert _simplex_point((0.25, 1 / 3, 0.5)) == [0.25] * 4


@pytest.mark.parametrize("n", _SPHERE_NS)
@pytest.mark.parametrize("p", _SPHERE_PS)
def test_sphere_integrand_bit_identical_to_previous(n, p):
    rng = random.Random(n * 10_007 + _SPHERE_PS.index(p))
    points = [tuple(rng.random() for _ in range(n - 1)) for _ in range(300)]
    _assert_sphere_integrands_agree(n, p, points + _special_points(n))


@pytest.mark.parametrize("n, p, tol", [(3, 1.1, 1e-2), (4, 8, 1.0), (5, 2, 2.0)])
def test_sphere_integrals_bit_identical_to_previous_integrand(n, p, tol):
    f, box, tol, kwargs = _problem(surfaces.LpSphere(n, p), tol)
    new = integrate_adaptive(f, box, tol, **kwargs, max_evals=20_000)
    old = integrate_adaptive(_previous_sphere_integrand(n, p), box, tol, **kwargs, max_evals=20_000)
    assert repr(astuple(new)) == repr(astuple(old))


def _integrand_sweep(points: int) -> None:
    rng = random.Random(33)
    for n in _SPHERE_NS:
        for p in _SPHERE_PS:
            ts = [tuple(rng.random() for _ in range(n - 1)) for _ in range(points)]
            _assert_sphere_integrands_agree(n, p, ts)


# ---------------------------------------------------------------------------
# the contract the benchmark's tracer relies on: f is called once per
# counted evaluation, with a tuple


def _counted(f):
    calls = []

    def g(x):
        assert type(x) is tuple
        calls.append(x)
        return f(x)

    return g, calls


@pytest.mark.parametrize("case", range(len(_CASES)), ids=_IDS)
def test_calls_f_once_per_evaluation(case):
    f, box, tol, kwargs = _problem(*_CASES[case])
    g, calls = _counted(f)
    assert integrate_adaptive(g, box, tol, **kwargs).evaluations == len(calls)


def test_starved_run_calls_f_once_per_evaluation():
    f, box, tol, kwargs = _problem(surfaces.LpSphere(3, 2), 1e-4)
    g, calls = _counted(f)
    res = integrate_adaptive(g, box, tol, **kwargs, max_evals=50)
    assert not res.converged
    assert res.evaluations == len(calls)


# boxes of one axis run their own split; these budgets and depths stop it
# mid-split, in the forced splits below min_depth or at max_depth
@pytest.mark.parametrize(
    "box", [((0.0, 1.0),), ((0, 3),), ((1, 2**60),), ((-0.3, 0.7),), ((1e-3, 2.0),)]
)
@pytest.mark.parametrize("max_evals", [40, 41, 2_000])
@pytest.mark.parametrize("min_depth", [0, 2, 5])
@pytest.mark.parametrize("max_depth", [0, 1, 3, 26])
def test_one_axis_calls_f_in_the_previous_order(box, max_evals, min_depth, max_depth):
    # equal results could hide points that are called in another order
    kwargs = {"max_evals": max_evals, "min_depth": min_depth, "max_depth": max_depth}
    tol = 1e-6 * (box[0][1] - box[0][0])
    for f in (_kinked, _step):
        g, calls = _counted(f)
        g_old, calls_old = _counted(f)
        new = integrate_adaptive(g, box, tol, **kwargs)
        old = _previous_integrate_adaptive(g_old, box, tol, **kwargs)
        assert new.evaluations == len(calls) == len(calls_old) == old.evaluations
        # repr round-trips every float exactly, signed zeros included
        assert repr(calls) == repr(calls_old), (f.__name__, box, kwargs)


# ---------------------------------------------------------------------------
# boxes


@pytest.mark.parametrize(
    "box", [((1.0, 0.0), (1.0, 0.0)), ((1.0, 0.0),), ((0.0, 1.0), (0.5, 0.25))]
)
def test_rejects_reversed_axes(box):
    with pytest.raises(ValueError, match="hi < lo"):
        integrate_adaptive(_kinked, box, 1e-3)


@pytest.mark.parametrize(
    "box",
    [
        ((0.0, math.nan),),
        ((0.0, math.inf),),
        ((-math.inf, 0.0),),
        ((0.0, 1.0), (math.nan, 1.0)),
    ],
)
def test_rejects_non_finite_bounds(box):
    with pytest.raises(NonFiniteError):
        integrate_adaptive(_kinked, box, 1e-3)


def test_rejects_empty_box():
    with pytest.raises(ValueError, match="axis"):
        integrate_adaptive(_kinked, (), 1e-3)


# ---------------------------------------------------------------------------
# knobs


@pytest.mark.parametrize("knob", ["max_depth", "min_depth", "max_evals"])
@pytest.mark.parametrize("value", [-1, -5])
def test_rejects_negative_knobs(knob, value):
    g, calls = _counted(_kinked)
    with pytest.raises(ValueError) as err:
        integrate_adaptive(g, ((0.0, 1.0),), 1e-3, **{knob: value})
    assert type(err.value) is ValueError
    assert str(err.value) == f"{knob} must be >= 0, got {value}"
    assert not calls


@pytest.mark.parametrize("knob", ["max_depth", "min_depth", "max_evals"])
@pytest.mark.parametrize("value", [2.5, math.nan, 3.0, True])
def test_rejects_non_int_knobs(knob, value):
    # max_evals=nan or 2.5 used to stop after 3 evaluations, min_depth=nan
    # turned off the forced splits but still read converged, and
    # max_depth=3.0 raised a raw TypeError from the index packing
    g, calls = _counted(_kinked)
    with pytest.raises(ValueError) as err:
        integrate_adaptive(g, ((0.0, 1.0),), 1e-3, **{knob: value})
    assert type(err.value) is ValueError
    assert str(err.value) == f"{knob} must be an int, got {value!r}"
    assert not calls


@pytest.mark.parametrize("knob", ["max_depth", "min_depth", "max_evals"])
def test_zero_knobs_are_accepted(knob):
    # the root and its 2^d children are evaluated whatever the knobs say
    for d in (1, 2, 3):
        g, calls = _counted(_kinked)
        res = integrate_adaptive(g, ((0.0, 1.0),) * d, 1e-3, **{knob: 0})
        assert res.evaluations == len(calls) >= 1 + 2**d
        if knob != "min_depth":
            assert res.evaluations == 1 + 2**d


def test_unaffordable_split_is_refused_before_any_evaluation(monkeypatch):
    # a split costs 4^d evaluations; 4^11 exceeds the default budget of
    # 4,000,000, so LpSphere(12, 2) (d = 11) raises before its integrand
    # runs, where LpSphere(14, 2) used to plan 2^26 evaluations
    calls = []

    def counted_integrator(f, box, tol, **kwargs):
        g, seen = _counted(f)
        calls.append(seen)
        return integrate_adaptive(g, box, tol, **kwargs)

    monkeypatch.setattr(surfaces, "integrate_adaptive", counted_integrator)
    with pytest.raises(BudgetExceededError, match=r"4\^11 = 4194304 evaluations"):
        surfaces.surface_measure(surfaces.LpSphere(12, 2.0), 0.5)
    assert len(calls) == 1 and not calls[0]
    g, seen = _counted(_smooth)
    with pytest.raises(BudgetExceededError):
        integrate_adaptive(g, ((0.0, 1.0),) * 11, 1e-3, max_evals=4**11 - 1)
    assert not seen
    # d = 10 is below the default budget, so a starved run goes ahead
    assert integrate_adaptive(g, ((0.0, 1.0),) * 10, 1e-3, max_evals=0).evaluations == 1 + 2**10


@pytest.mark.parametrize("box", [((0.5, 0.5),), ((0.0, 1.0), (2.0, 2.0)), ((3, 3), (0, 1))])
def test_flat_box_has_zero_integral(box):
    g, calls = _counted(_kinked)
    assert integrate_adaptive(g, box, 1e-3) == QuadratureResult(0.0, 0.0, 0, True)
    assert not calls


# ---------------------------------------------------------------------------
# integrand values


def _halves(left, right):
    return lambda x: left if x[0] < 0.5 else right


@pytest.mark.parametrize(
    "f, box",
    [
        (lambda x: math.nan, ((0.0, 1.0),)),
        (lambda x: math.inf, ((0.0, 1.0),)),
        (lambda x: -math.inf, ((0.0, 1.0), (0.0, 1.0))),
        (_halves(math.inf, -math.inf), ((0.0, 1.0),)),
        (_halves(-math.inf, math.inf), ((0.0, 1.0),)),
        (_halves(math.nan, 1.0), ((0.0, 1.0), (0.0, 1.0))),
    ],
    ids=["nan", "inf", "-inf-2d", "inf|-inf", "-inf|inf", "nan|1-2d"],
)
def test_rejects_non_finite_integrand_values(f, box):
    # NaN used to return a NaN value marked unconverged, and +-inf on the two
    # halves a raw ValueError from fsum
    with pytest.raises(NonFiniteError, match="^integrand values must be finite$"):
        integrate_adaptive(f, box, 1e-3)


def _alternating(big):
    # +big at the quarter points of unit cells and -big at their midpoints,
    # so a unit cell's est and s have opposite signs
    return lambda x: -big if x[0] % 1 == 0.5 else big


@pytest.mark.parametrize(
    "f, box, max_evals, message",
    [
        (lambda x: 1e308, ((0.0, 4.0),), 4_000_000, "integral"),
        (lambda x: 1e308 if x[0] < 2.0 else -1e308, ((0.0, 4.0),), 4_000_000, "integral"),
        (lambda x: -1e308 if x[0] < 2.0 else 1e308, ((0.0, 4.0),), 4_000_000, "integral"),
        (lambda x: 1e308, ((0.0, 2.0), (0.0, 2.0)), 4_000_000, "integral"),
        (_alternating(0.85e308), ((0.0, 4.0),), 20, "error bound"),
    ],
    ids=["1e308", "1e308|-1e308", "-1e308|1e308", "1e308-2d", "charges"],
)
def test_overflowed_integrals_raise(f, box, max_evals, message):
    # a finite integrand whose sum passes the largest float used to return
    # value inf marked converged (1-D), or raise a raw ValueError ("-inf +
    # inf in fsum") or OverflowError ("intermediate overflow in fsum")
    with pytest.raises(NonFiniteError, match=f"^{message} must be finite$"):
        integrate_adaptive(f, box, 1e-3, max_evals=max_evals)


# ---------------------------------------------------------------------------
# the wider differential sweep, outside tier-1


def _random_problem(rng: random.Random):
    """A seeded random integrand, box, tolerance and set of knobs."""
    d = rng.randint(1, 4)
    box = []
    for _ in range(d):
        lo = rng.choice((0, rng.uniform(-3.0, 3.0)))
        box.append((lo, lo + rng.choice((1, rng.uniform(1e-3, 4.0)))))
    box = tuple(box)
    c = [rng.uniform(-2.0, 2.0) for _ in range(d)]
    t = sum(ci * (lo + hi) / 2 for ci, (lo, hi) in zip(c, box)) + rng.uniform(-0.5, 0.5)
    kind = rng.choice(("smooth", "kinked", "step"))
    if kind == "smooth":

        def f(x):
            return math.exp(sum(ci * xi for ci, xi in zip(c, x)))

    elif kind == "kinked":

        def f(x):
            return math.sqrt(abs(sum(ci * xi for ci, xi in zip(c, x)) - t))

    else:

        def f(x):
            return 1.0 if sum(ci * xi for ci, xi in zip(c, x)) < t else 0.0

    kwargs = {
        "max_evals": int(10 ** rng.uniform(1.0, 4.3)),
        "min_depth": rng.randint(0, 4),
        "max_depth": rng.randint(0, 26),
    }
    tol = 10 ** rng.uniform(-9.0, 0.0) * prod(hi - lo for lo, hi in box)
    return kind, f, box, tol, kwargs


def _sweep(problems: int) -> None:
    rng = random.Random(18)
    for _ in range(problems):
        kind, f, box, tol, kwargs = _random_problem(rng)
        try:
            _assert_same(f, box, tol, **kwargs)
        except AssertionError:
            print(f"differs: {kind} on {box} at {tol!r}, {kwargs}")
            raise


if __name__ == "__main__":
    problems = int(sys.argv[1])
    _sweep(problems)
    print(f"{problems} random problems: bit-identical to the previous loop")
    _integrand_sweep(problems)
    print(
        f"{problems} random points per sphere (n, p), n = 3..5, 8 exponents: "
        "bit-identical to the previous surface element"
    )
