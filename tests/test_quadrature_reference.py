"""Reference gate: every quadrature route brackets its exact value.

Each estimate must converge, and the exact reference must lie within
``value +- (error_bound + 8 * 2**-52 * |reference|)``.  The last term is a
float-rounding allowance only: ``Hyperplane(3)`` is exact to 2e-16 with a
bound of 4e-17.  The ``LpSphere(2, p)`` arcs with no closed form are
checked against chord polylines, whose own error bound widens the window.
Run as a script for a sweep at tighter tolerances:

    PYTHONPATH=src python tests/test_quadrature_reference.py
"""

import json
import math
import sys
import time
from functools import lru_cache

import pytest

from antichains import cli, surfaces
from antichains.surfaces import Hyperplane, LpSphere

ROUNDING = 8 * 2.0**-52


def _hyperplane(n: int) -> float:
    return surfaces.surface_measure(Hyperplane(n)).value


# (surface, reference, tier-1 tolerances, tighter tolerances for the sweep)
ROUTES = [
    *[
        (LpSphere(n, 1), math.sqrt(n) / math.factorial(n - 1), (0.5, 1e-2, 1e-3), tight)
        for n, tight in ((2, (1e-8,)), (3, (1e-6,)), (4, (1e-4,)), (5, (1e-4,)))
    ],
    (LpSphere(2, 2), math.pi / 2, (0.5, 1e-2, 1e-4, 1e-6), (1e-8, 1e-10)),
    (LpSphere(3, 2), math.pi / 2, (0.5, 1e-1, 1e-2, 1e-3), (1e-4, 1e-5)),
    (LpSphere(4, 2), math.pi**2 / 8, (1.0, 0.5, 1e-2), (1e-3, 3e-4)),
    *[
        (Hyperplane(n), _hyperplane(n), (0.5, 1e-2, 1e-3), tight)
        for n, tight in ((2, (1e-8,)), (3, (1e-8,)), (4, (1e-4, 1e-6)), (5, (1e-4,)))
    ],
]

_CASES = [(s, ref, tol) for s, ref, tols, _ in ROUTES for tol in tols]

# LpSphere(2, p) arcs without a closed form: (p, tier-1 tolerances, tighter tolerances)
ARCS = [(p, (0.5, 1e-3, 1e-4, 1e-6), (1e-8,)) for p in (1.1, 1.5, 8, 64, 256, 1000)]
_ARC_CASES = [(p, tol) for p, tols, _ in ARCS for tol in tols]


def _chords(p: float, segments: int) -> float:
    """Twice the length of the polyline through (w^(1/p), (1-w)^(1/p)) for w = u^8/2.

    u steps evenly over [0, 1], so the vertices crowd toward w = 0, where
    x = w^(1/p) moves fastest; the polyline runs from (0, 1) to the
    diagonal, half of the arc.
    """
    inv_p = 1.0 / p
    ws = [(i / segments) ** 8 / 2 for i in range(segments + 1)]
    pts = [(w**inv_p, (1.0 - w) ** inv_p) for w in ws]
    return 2 * math.fsum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:]))


@lru_cache(maxsize=None)
def arc_reference(p: float) -> tuple[float, float]:
    """The length of the ``LpSphere(2, p)`` arc by chords, and a bound on its error.

    Chords of a convex arc fall short by O(h^2), so the change from N to 2N
    chords is about three times the error of the finer polyline.  Rounding
    drifts a sum of 2N hypot terms by far less than 2N ulps (7.6e-14 at 4e5
    chords for p = 1, where the chords are exact); that allowance is added.
    """
    coarse, fine = _chords(p, 2**15), _chords(p, 2**16)
    return fine, abs(fine - coarse) + 2**16 * 2.0**-52 * fine


def brackets(surface, reference: float, tol: float, reference_error: float = 0.0):
    """The estimate, and whether it converged with ``reference`` inside its bound."""
    est = surfaces.surface_measure_quadrature(surface, tol)
    slack = est.error_bound + reference_error + ROUNDING * abs(reference)
    return est, est.converged and abs(est.value - reference) <= slack


@pytest.mark.parametrize(
    "surface, reference, tol", _CASES, ids=[f"{s!r}@{tol}" for s, _, tol in _CASES]
)
def test_reference_within_bound(surface, reference, tol):
    est, ok = brackets(surface, reference, tol)
    assert est.converged and est.error_bound <= tol * (1 + 1e-9)
    assert ok, (est.value, reference, est.error_bound)


@pytest.mark.parametrize(
    "p, tol", _ARC_CASES, ids=[f"LpSphere(2,{p})@{tol}" for p, tol in _ARC_CASES]
)
def test_arc_within_bound_of_its_chords(p, tol):
    # the arc bends in a layer of width about 1/p at the corner, which the
    # integrand must not step over at large p
    reference, reference_error = arc_reference(p)
    est, ok = brackets(LpSphere(2, p), reference, tol, reference_error)
    assert est.converged and est.error_bound <= tol * (1 + 1e-9)
    assert ok, (est.value, reference, est.error_bound, reference_error)


def test_large_p_arc_verifies_on_a_nonzero_bound(capsys):
    assert cli.main(["verify", "--surface", "lpsphere", "--n", "2", "--p", "1000"]) == 0
    surface = json.loads(capsys.readouterr().out)["surface"]
    reference, reference_error = arc_reference(1000)
    assert reference_error < surface["errorBound"]
    assert abs(surface["value"] - reference) <= surface["errorBound"] - reference_error


def test_arc_at_the_largest_exponents():
    # 2p overflows above p = 9e307; the arc is then two unit segments to
    # within 1e-307
    for p in (1e300, 1.7e308):
        est = surfaces.surface_measure(LpSphere(2, p))
        assert est.converged and abs(est.value - 2) <= est.error_bound + ROUNDING * 2


@pytest.mark.parametrize("n, tol", [(3, 1e-2), (4, 5e-2)])
def test_large_p_sphere_tends_to_the_facets(n, tol):
    # as p grows the positive l^p sphere tends to the n unit facets {x_i = 1};
    # every power of a coordinate underflows at p = 1e4 unless it is scaled
    est = surfaces.surface_measure(LpSphere(n, 1e4), tol)
    assert est.converged and est.error_bound <= tol * (1 + 1e-9)
    assert abs(est.value - n) <= est.error_bound + n * 1e-3


if __name__ == "__main__":
    failed = 0
    checks = [(s, ref, 0.0, tols) for s, ref, _, tols in ROUTES]
    checks += [(LpSphere(2, p), *arc_reference(p), tols) for p, _, tols in ARCS]
    for surface, reference, reference_error, tols in checks:
        for tol in tols:
            start = time.perf_counter()
            est, ok = brackets(surface, reference, tol, reference_error)
            failed += not ok
            print(
                f"{'ok  ' if ok else 'FAIL'} {surface!r}@{tol:g}: "
                f"error {abs(est.value - reference):.3g}, bound {est.error_bound:.3g}, "
                f"{est.evaluations} evaluations, {time.perf_counter() - start:.2f} s"
            )
    sys.exit(1 if failed else 0)
