"""Global-adaptive midpoint quadrature on dyadic subdivisions of a box.

A cell's estimate ``est`` is its midpoint value times its volume; the sum
``s`` over its 2^d children refines it.  The midpoint rule's error is
O(h^2) in any dimension, so Richardson extrapolation gives the cell the
value ``(4s - est) / 3`` and ``|s - est| / 3`` estimates the error of ``s``,
which the extrapolated value improves on; that is the cell's charge.

The integral is global-adaptive, as in QUADPACK (Piessens et al., 1983) and
DCUHRE (Berntsen, Espelid & Genz, 1991): of all cells, the one with the
largest charge is split next, until the summed charge fits ``tol``.  The
integrand must be bounded and continuous on the box, so no cell needs a
region test; the surface families map their domains to full boxes.  A cell
that stops unresolved, at ``max_depth`` or because ``max_evals`` ran out,
keeps ``s`` and is charged the full ``|s - est|``.  Evaluation order is
fixed, so results are bit-reproducible.

A box of one axis (the n = 2 arcs, the ``Hyperplane(3)`` cross-check) is
split by its own function, which computes cell i's four grandchild
midpoints ``a + (8i + 1|3|5|7) * hw`` directly and adds each child's two
estimates inline, with no per-axis pairs, products or lists; it makes the
same calls in the same order, and the same sums, as the n-axis split, and
both file each child through one function.  On the benchmark's p-sweep (32
arcs at 1e-6, 3,632 evaluations) it takes about two thirds of the n-axis
split's time, and the ``quadrature`` workload's median ``batch_s`` fell by
22% (0.00880 to 0.00684 s at seed 3, 0.00880 to 0.00686 s at seed 11; 10
alternating 25 s pairs each, every pair a win; CPython 3.11, shared 2-CPU
x86-64 VM).

A cell's ``s`` adds its children's estimates left to right from 0.0
(``estimate._sum_in_order``), and so do the sums inside the surface
families' integrands: the l^p sphere's surface element for n >= 3 adds its
two power sums from 0.0 in one pass over the simplex point.  The values
pinned bit for bit on CPython 3.11 rest on that order; ``sum()`` of floats
is compensated from 3.12 on and would change them.  Only the final value
and the error bound are totals of ``fsum``, which is correctly rounded.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import product
from math import fsum, prod

from .estimate import (
    BudgetExceededError,
    NonFiniteError,
    _sum_in_order,
    require_finite,
    require_int,
    require_tolerance,
)

__all__ = ["QuadratureResult", "integrate_adaptive", "INSIDE", "OUTSIDE", "STRADDLE"]

# region labels of the former cell classifier; no integrator reads them now
INSIDE, OUTSIDE, STRADDLE = 1, -1, 0

Box = tuple[tuple[float, float], ...]

_DEFAULT_MAX_EVALS = 4_000_000


def _fsum(name: str, values: list[float]) -> float:
    """``fsum(values)``, raising NonFiniteError where fsum overflows or meets inf + -inf."""
    try:
        return fsum(values)
    except (OverflowError, ValueError):
        raise NonFiniteError(f"{name} must be finite") from None


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_bound: float
    evaluations: int
    converged: bool


def integrate_adaptive(
    f,
    box: Box,
    tol: float,
    *,
    max_depth: int = 26,
    min_depth: int = 2,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Integrate ``f`` over ``box`` to an absolute tolerance.

    ``tol`` must be finite (else NonFiniteError) and positive (else
    ValueError).  ``box`` needs at least one axis and ``lo <= hi`` on each
    (else ValueError), with finite bounds (else NonFiniteError); an axis
    with ``lo == hi`` gives the zero result.  ``max_depth``, ``min_depth``
    and ``max_evals`` must be ints >= 0, and a bool is not one (else
    ValueError).  The root and its 2^d children are always evaluated;
    beyond them, a cell shallower than ``min_depth`` is always split and a
    cell at ``max_depth`` never is.
    Refinement stops once the summed charge is at most ``tol``, once
    ``max_evals`` evaluations are spent, or once no cell that carries a
    charge can be split.  ``max_evals`` is checked before each split, and
    a split costs 4^d evaluations, so a run overshoots it by at most the
    splits in progress (the forced ones shallower than ``min_depth`` nest).
    A box with 4^d above both ``max_evals`` and the default budget of
    4,000,000 (d >= 11 at the default) raises BudgetExceededError before
    anything is evaluated.  Every unresolved cell charges its error to the
    reported bound; callers should treat a bound above ``tol`` as a
    flagged, not failed, estimate.  An integrand value that is NaN or
    infinite raises NonFiniteError once refinement stops, and so does a
    finite integrand whose integral or error bound overflows a float.
    """
    require_tolerance(tol)
    knobs = {"max_depth": max_depth, "min_depth": min_depth, "max_evals": max_evals}
    for name, value in knobs.items():
        require_int(name, value)
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if not box:
        raise ValueError("box must have at least one axis")
    for lo, hi in box:
        require_finite("box bounds", lo, hi)
        if hi < lo:
            raise ValueError(f"box axis ({lo}, {hi}) has hi < lo")
    d = len(box)
    widths = [hi - lo for lo, hi in box]
    vol_total = float(prod(widths))
    if vol_total <= 0:
        return QuadratureResult(0.0, 0.0, 0, True)
    # the budget is checked before each split, and one split costs 4^d
    # evaluations and keeps 2^d cells of 2^d estimates each
    if 4**d > max(max_evals, _DEFAULT_MAX_EVALS):
        raise BudgetExceededError(
            f"a split of a {d}-axis box costs 4^{d} = {4**d} evaluations, above both"
            f" max_evals ({max_evals}) and the default budget {_DEFAULT_MAX_EVALS}"
        )

    # A cell is named by its depth k and a packed integer index: axis j's
    # coordinate i_j (the cell spans ticks i_j and i_j + 1 of depth k) sits
    # in bits [j*stride, (j+1)*stride), so a child's index is the parent's
    # shifted left by one, or'ed with the child's offset.  The tick of index
    # i at depth k on axis j is origin[j] + i * (widths[j] * 0.5**k); the
    # same tick is the same float at every depth, so children tile their
    # parent exactly.
    origin = [lo for lo, _ in box]
    stride = max_depth + 1
    mask = (1 << stride) - 1
    shifts = [j * stride for j in range(d)]
    offsets = [sum(b << s for b, s in zip(bits, shifts)) for bits in product((0, 1), repeat=d)]
    n_children = len(offsets)

    # waiting cells: (-charge, k, index, est, s, child estimates); the
    # children's estimates are kept, so splitting a cell evaluates only its
    # grandchildren, and so is their sum s, which the cell's value reads
    # (a list in n axes, a pair in one)
    heap: list[tuple[float, int, int, float, float, Sequence[float]]] = []
    final: list[tuple[float, float]] = []  # (s, |s - est|) of cells at max_depth
    total = 0.0  # running sum of every charge; resynced with fsum before stopping

    def settle(k: int, idx: int, est: float, s: float, ests: Sequence[float]) -> None:
        # a child (k, idx) whose own children's estimates ``ests`` add up to
        # ``s``: file it as final, split it now or queue it by its charge
        nonlocal total
        diff = abs(s - est)
        if k >= max_depth:
            final.append((s, diff))
            total += diff
        elif k < min_depth and evals < max_evals:
            split(k, idx, ests)
        else:
            charge = diff / 3 if k >= min_depth else diff
            heappush(heap, (-charge, k, idx, est, s, ests))
            total += charge

    def split_axes(k: int, idx: int, ests: Sequence[float]) -> None:
        # cell (k, idx) is split, its children's estimates are ``ests``:
        # evaluate the grandchildren and file each child
        nonlocal evals
        # per axis, the midpoints of the four grandchild intervals, as the
        # pairs that lie in the first and the second child
        h = 0.5 ** (k + 3)
        pairs = []
        for a, w, sh in zip(origin, widths, shifts):
            i = 8 * ((idx >> sh) & mask)
            hw = w * h
            pairs.append(
                ((a + (i + 1) * hw, a + (i + 3) * hw), (a + (i + 5) * hw, a + (i + 7) * hw))
            )
        vol = vol_total * 0.5 ** (d * (k + 2))
        k += 1
        for e, off, axes in zip(ests, offsets, product(*pairs)):
            evals += n_children
            child_ests = [f(mid) * vol for mid in product(*axes)]
            settle(k, (idx << 1) | off, e, _sum_in_order(child_ests), child_ests)

    def split_line(k: int, idx: int, ests: Sequence[float]) -> None:
        # split_axes for one axis, where a cell's index is its tick: the
        # same midpoints, calls and sums without the per-axis tables
        nonlocal evals
        i = 8 * idx
        hw = width * 0.5 ** (k + 3)
        vol = vol_total * 0.5 ** (k + 2)
        k += 1
        idx <<= 1
        evals += 2
        c0 = f((a + (i + 1) * hw,)) * vol
        c1 = f((a + (i + 3) * hw,)) * vol
        settle(k, idx, ests[0], 0.0 + c0 + c1, (c0, c1))
        evals += 2
        c0 = f((a + (i + 5) * hw,)) * vol
        c1 = f((a + (i + 7) * hw,)) * vol
        settle(k, idx | 1, ests[1], 0.0 + c0 + c1, (c0, c1))

    def error_bound() -> float:
        return _fsum("error bound", [-cell[0] for cell in heap] + [e for _, e in final])

    if d == 1:
        a, width = origin[0], widths[0]
        split = split_line
    else:
        split = split_axes
    root = f(tuple(a + w * 0.5 for a, w in zip(origin, widths))) * vol_total
    evals = 1
    # the box is the first child of a cell at depth -1 with the same origin;
    # that cell has no second child, which only split_axes leaves out
    split_axes(-1, 0, [root])
    while evals < max_evals and heap and heap[0][0] < 0:
        if total <= tol:
            # stop on the exact sum, not on the running one
            total = error_bound()
            if total <= tol:
                break
        neg_charge, k, idx, _, _, ests = heappop(heap)
        total += neg_charge
        split(k, idx, ests)
    # settle and the splits refer to each other through these two names;
    # dropping them frees the cells now, not at the next garbage collection
    del split, settle

    error = error_bound()
    # every evaluation enters some cell's |s - est|, so a NaN or infinite
    # value of f leaves this bound non-finite
    require_finite("integrand values", error)
    accepted = error <= tol * (1 + 1e-9)
    values = [s for s, _ in final]
    for _, k, _, est, s, _ in heap:
        values.append((4 * s - est) / 3 if accepted and k >= min_depth else s)
    if not accepted:
        diffs = [abs(s - est) for *_, est, s, _ in heap]
        error = _fsum("error bound", diffs + [e for _, e in final])
    # finite values can still add up past the largest float
    value = _fsum("integral", values)
    require_finite("integral", value)
    return QuadratureResult(
        value=value,
        error_bound=error,
        evaluations=evals,
        converged=accepted,
    )
