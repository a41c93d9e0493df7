"""Differential tests: the global-adaptive quadrature against the two-phase oracle.

``_oracle_integrate_adaptive`` is the previous ``integrate_adaptive``, kept
verbatim: breadth-first refinement of straddling cells down to ``tol/2``,
then local recursion in which each interior cell gets a share of ``tol/2``
in proportion to its volume.  The surface families' integrands and
classifiers are captured by rebinding ``surfaces.integrate_adaptive``, so
both integrators see exactly the same problem.
"""

import math
from dataclasses import astuple
from functools import lru_cache
from itertools import product

import pytest

from antichains import surfaces
from antichains.quadrature import (
    INSIDE,
    STRADDLE,
    QuadratureResult,
    integrate_adaptive,
)

# ---------------------------------------------------------------------------
# oracle: the two-phase integrator, verbatim


def _volume(cell):
    return math.prod(hi - lo for lo, hi in cell)


def _split(cell):
    halves = [((lo, (lo + hi) / 2), ((lo + hi) / 2, hi)) for lo, hi in cell]
    return [
        tuple(halves[i][b] for i, b in enumerate(bits))
        for bits in product((0, 1), repeat=len(cell))
    ]


def _oracle_integrate_adaptive(
    f,
    box,
    tol,
    *,
    cell_classify=None,
    sup_bound=1.0,
    max_depth=26,
    min_depth=2,
    max_frontier=65_536,
    max_evals=4_000_000,
):
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    vol_total = _volume(box)
    if vol_total <= 0:
        return QuadratureResult(0.0, 0.0, 0, True)

    smooth_tol = tol if cell_classify is None else tol / 2
    straddle_budget = 0.0 if cell_classify is None else tol / 2

    state = {"value": 0.0, "err": 0.0, "evals": 0}

    def mid_estimate(cell):
        state["evals"] += 1
        mid = tuple((lo + hi) / 2 for lo, hi in cell)
        return f(mid) * _volume(cell)

    def smooth(cell, est, depth):
        children = _split(cell)
        ests = [mid_estimate(c) for c in children]
        s = sum(ests)
        richardson = abs(s - est) / 3
        share = smooth_tol * (_volume(cell) / vol_total)
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

    if cell_classify is None:
        smooth(box, mid_estimate(box), 0)
    else:
        # resolve the region boundary first: classification is cheap, and the
        # smooth interior work should not starve the geometric refinement
        lows = tuple(lo for lo, _ in box)
        highs = tuple(hi for _, hi in box)
        side = cell_classify(lows, highs)
        pending = []
        interior = []
        if side == INSIDE:
            interior.append((box, 0))
        elif side == STRADDLE:
            pending = [box]
        depth = 0
        while pending:
            frontier_err = sup_bound * sum(_volume(c) for c in pending)
            if (
                frontier_err <= straddle_budget
                or depth >= max_depth
                or len(pending) >= max_frontier
            ):
                break
            nxt = []
            for cell in pending:
                for child in _split(cell):
                    lows = tuple(lo for lo, _ in child)
                    highs = tuple(hi for _, hi in child)
                    side = cell_classify(lows, highs)
                    if side == INSIDE:
                        interior.append((child, depth + 1))
                    elif side == STRADDLE:
                        nxt.append(child)
            pending = nxt
            depth += 1
        for cell in pending:
            state["value"] += mid_estimate(cell)
            state["err"] += sup_bound * _volume(cell)
        for cell, cell_depth in interior:
            smooth(cell, mid_estimate(cell), cell_depth)

    return QuadratureResult(
        value=state["value"],
        error_bound=state["err"],
        evaluations=state["evals"],
        converged=state["err"] <= tol * (1 + 1e-9),
    )


# ---------------------------------------------------------------------------
# the classified integrals of the surface families


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
def _pair(case: int) -> tuple[QuadratureResult, QuadratureResult]:
    f, box, tol, kwargs = _problem(*_CASES[case])
    return integrate_adaptive(f, box, tol, **kwargs), _oracle_integrate_adaptive(f, box, tol, **kwargs)


@pytest.mark.parametrize("case", range(len(_CASES)), ids=_IDS)
def test_agrees_with_oracle_within_both_bounds(case):
    new, old = _pair(case)
    assert abs(new.value - old.value) <= new.error_bound + old.error_bound


@pytest.mark.parametrize("case", range(len(_CASES)), ids=_IDS)
def test_meets_tolerance_where_oracle_did(case):
    new, old = _pair(case)
    tol = _problem(*_CASES[case])[2]
    if old.converged:
        assert new.converged and new.error_bound <= tol * (1 + 1e-9)


# Evaluations at equal tolerance, new / oracle, by integral dimension.  The
# oracle resolves straddling cells down to tol/2 and the new loop stops as
# soon as everything fits tol, up to one level of straddling cells earlier.
# In 2-D (n = 3) that last level is about half of the oracle's work, so the
# ratio ranges over 0.26-0.51 across tolerances; in 3-D (n = 4) it is 0.12-0.24.
_EVAL_RATIO = {2: 0.55, 3: 0.5}


@pytest.mark.parametrize("case", range(len(_CASES)), ids=_IDS)
def test_halves_the_evaluations(case):
    new, old = _pair(case)
    if old.evaluations <= 100:
        # no classified refinement at all: the root cell is inside the region
        assert new.evaluations == old.evaluations
    else:
        d = len(_problem(*_CASES[case])[1])
        assert new.evaluations <= _EVAL_RATIO[d] * old.evaluations


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


def test_frontier_cap_stops_at_a_completed_level():
    # both integrators classify every child of every level up to the first
    # level of at least max_frontier straddling cells, and no further
    f, box, tol, kwargs = _problem(surfaces.LpSphere(4, 4), 1e-3)
    counts = {}
    for name, integrate in (("new", integrate_adaptive), ("old", _oracle_integrate_adaptive)):
        calls = [0]

        def classify(lo, hi, inner=kwargs["cell_classify"]):
            calls[0] += 1
            return inner(lo, hi)

        res = integrate(f, box, tol, **{**kwargs, "cell_classify": classify}, max_frontier=500)
        assert not res.converged and res.error_bound > tol
        counts[name] = (calls[0], res)
    (new_calls, new), (old_calls, old) = counts["new"], counts["old"]
    assert new_calls == old_calls
    assert abs(new.value - old.value) <= new.error_bound + old.error_bound


def test_max_evals_stops_with_an_honest_bound():
    f, box, tol, kwargs = _problem(surfaces.LpSphere(3, 2), 1e-4)
    res = integrate_adaptive(f, box, tol, **kwargs, max_evals=2_000)
    assert not res.converged
    # the piece is one third of the octant sphere, of area pi/2
    assert abs(res.value - math.pi / 6) <= res.error_bound


def test_stops_when_no_cell_can_reduce_the_error():
    # the cell holding the jump at x = 1/3 reaches max_depth still above
    # tol, and the flat cells on either side carry no error, so nothing is
    # worth splitting: the loop must stop instead of spending max_evals
    def step(x):
        return 1.0 if x[0] < 1 / 3 else 0.0

    res = integrate_adaptive(
        step, ((0.0, 1.0),), 1e-12, cell_classify=lambda lo, hi: INSIDE, max_depth=20,
        max_evals=100_000,
    )
    assert not res.converged
    assert res.evaluations < 1_000
    assert abs(res.value - 1 / 3) <= res.error_bound


# ---------------------------------------------------------------------------
# the unclassified path is the oracle's, bit for bit


def test_unclassified_sweep_is_bit_identical():
    problems = _recorded(
        lambda: [surfaces.surface_measure(surfaces.LpSphere(2, p), 1e-6) for p in range(1, 65)]
    )
    assert len(problems) == 64
    for f, box, tol, kwargs in problems:
        assert "cell_classify" not in kwargs
        new = integrate_adaptive(f, box, tol, **kwargs)
        old = _oracle_integrate_adaptive(f, box, tol, **kwargs)
        assert repr(astuple(new)) == repr(astuple(old))


@pytest.mark.parametrize("max_evals, min_depth", [(40, 2), (4_000_000, 0), (4_000_000, 5)])
def test_unclassified_budgets_are_bit_identical(max_evals, min_depth):
    def f(x):
        return math.sqrt(abs(x[0] - 0.3)) + x[-1] ** 2

    for box in (((0.0, 1.0),), ((0.0, 1.0), (0.0, 0.5))):
        kwargs = {"max_evals": max_evals, "min_depth": min_depth, "max_depth": 12}
        new = integrate_adaptive(f, box, 1e-4, **kwargs)
        old = _oracle_integrate_adaptive(f, box, 1e-4, **kwargs)
        assert repr(astuple(new)) == repr(astuple(old))
