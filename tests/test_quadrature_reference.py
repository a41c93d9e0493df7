"""Reference gate: every quadrature route brackets its exact value.

Each estimate must converge, and the exact reference must lie within
``value +- (error_bound + 8 * 2**-52 * |reference|)``.  The last term is a
float-rounding allowance only: ``Hyperplane(3)`` is exact to 2e-16 with a
bound of 4e-17.  Run as a script for a sweep at tighter tolerances:

    PYTHONPATH=src python tests/test_quadrature_reference.py
"""

import math
import sys
import time

import pytest

from antichains import surfaces
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


def brackets(surface, reference: float, tol: float):
    """The estimate, and whether it converged with ``reference`` inside its bound."""
    est = surfaces.surface_measure_quadrature(surface, tol)
    slack = est.error_bound + ROUNDING * abs(reference)
    return est, est.converged and abs(est.value - reference) <= slack


@pytest.mark.parametrize(
    "surface, reference, tol", _CASES, ids=[f"{s!r}@{tol}" for s, _, tol in _CASES]
)
def test_reference_within_bound(surface, reference, tol):
    est, ok = brackets(surface, reference, tol)
    assert est.converged and est.error_bound <= tol * (1 + 1e-9)
    assert ok, (est.value, reference, est.error_bound)


@pytest.mark.parametrize("n, tol", [(3, 1e-2), (4, 5e-2)])
def test_large_p_sphere_tends_to_the_facets(n, tol):
    # as p grows the positive l^p sphere tends to the n unit facets {x_i = 1};
    # every power of a coordinate underflows at p = 1e4 unless it is scaled
    est = surfaces.surface_measure(LpSphere(n, 1e4), tol)
    assert est.converged and est.error_bound <= tol * (1 + 1e-9)
    assert abs(est.value - n) <= est.error_bound + n * 1e-3


if __name__ == "__main__":
    failed = 0
    for surface, reference, _, tols in ROUTES:
        for tol in tols:
            start = time.perf_counter()
            est, ok = brackets(surface, reference, tol)
            failed += not ok
            print(
                f"{'ok  ' if ok else 'FAIL'} {surface!r}@{tol:g}: "
                f"error {abs(est.value - reference):.3g}, bound {est.error_bound:.3g}, "
                f"{est.evaluations} evaluations, {time.perf_counter() - start:.2f} s"
            )
    sys.exit(1 if failed else 0)
