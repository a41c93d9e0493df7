"""Outside-in tracing: spans and counters recorded from the benchmark's side.

Nothing under ``src/`` knows about tracing.  :func:`instrument` rebinds the
public functions of each layer in the namespaces that call them (the
defining module, plus ``cli`` where it imports the name), wraps the
callables handed to the integrator, and swaps ``random`` in
``antichains.partition`` for a module whose ``Random`` counts draws.  The
returned undo list puts every original back.

A span records name, start, end, self time, parent span and op id.  Self
time is the span's duration minus the time its child spans cover; calls are
strictly nested because everything runs on one thread, so a stack of
per-frame child totals gives it exactly.  Hot callables (integrand,
classifier, ``PointSet.__init__``, ``project``, ``monotone_extension``) are
aggregated only, so a million integrand calls cost no memory.
"""

import functools
import math
import random
import time
import types
from collections import defaultdict

__all__ = ["Tracer", "instrument", "restore"]


class Tracer:
    """Span stack, per-name aggregates and free-form counters of one traced run."""

    def __init__(self):
        #: name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        #: (span_id, name, start, end, self_s, parent_id, op_id)
        self.spans: list[tuple] = []
        self.op_id = None
        #: (duration, self time) of the span that ended last
        self.last = (0.0, 0.0)
        self._stack: list[list] = []  # [child_s, nearest recorded span id]
        self._next_id = 0

    def add_stat(self, name: str, total: float, own: float) -> None:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += total
        st[2] += own

    def call(self, name: str, fn, args=(), kwargs=None, record: bool = True):
        """Run ``fn`` inside a span named ``name``; ``last`` then holds its times."""
        stack = self._stack
        parent = stack[-1][1] if stack else None
        sid = parent
        if record:
            sid = self._next_id
            self._next_id += 1
        frame = [0.0, sid]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            own = dur - frame[0]
            self.add_stat(name, dur, own)
            self.last = (dur, own)
            if stack:
                stack[-1][0] += dur
            if record:
                self.spans.append((sid, name, t0, t1, own, parent, self.op_id))

    def wrap(self, name: str, fn, record: bool = True):
        call = self.call

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return call(name, fn, args, kwargs, record)

        return wrapped


def instrument(mods, tr: Tracer) -> list:
    """Rebind every traced public name of ``mods``; returns the undo list for :func:`restore`."""
    L, P, E, G, S, Q, C = (
        mods.lattice,
        mods.partition,
        mods.extremal,
        mods.gridcover,
        mods.surfaces,
        mods.quadrature,
        mods.cli,
    )
    undo: list = []
    counters = tr.counters

    def rebind(attr: str, wrapper, *owners) -> None:
        # the first owner defines the name; later owners (cli) only import it
        for owner in owners:
            if owner is owners[0] or hasattr(owner, attr):
                undo.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def plain(attr: str, name: str, *owners, record: bool = True) -> None:
        rebind(attr, tr.wrap(name, getattr(owners[0], attr), record), *owners)

    # lattice: point-set construction and projection, hot, aggregated only
    rebind("__init__", tr.wrap("lattice.PointSet", L.PointSet.__init__, record=False), L.PointSet)
    plain("project", "lattice.project", P, record=False)

    # partition: the sampler's candidates come from a counting Random that
    # draws the same stream as random.Random
    class CountingRandom(random.Random):
        def randrange(self, *args, **kwargs):
            counters["sampler.draws"] += 1
            return super().randrange(*args, **kwargs)

    shim = types.ModuleType("random")
    shim.__dict__.update(vars(random))
    shim.Random = CountingRandom
    rebind("random", shim, P)

    rwa_name = "partition.random_weak_antichain"
    rwa = P.random_weak_antichain

    def random_weak_antichain(n, k, size, *args, **kwargs):
        before = counters["sampler.draws"]
        A = tr.call(rwa_name, rwa, (n, k, size, *args), kwargs)
        counters[rwa_name + ".candidates"] += (counters["sampler.draws"] - before) / n
        counters[rwa_name + ".accepted"] += len(A)
        return A

    rebind("random_weak_antichain", random_weak_antichain, P)
    plain("greedy_partition", "partition.greedy_partition", P, C)
    rebind(
        "validate",
        tr.wrap("partition.PartitionCertificate.validate", P.PartitionCertificate.validate),
        P.PartitionCertificate,
    )
    plain("projection_gap", "partition.projection_gap", P, C)

    scan_name = "partition.exhaustive_gap_scan"
    scan = P.exhaustive_gap_scan

    def exhaustive_gap_scan(n, k, size, *args, **kwargs):
        res = tr.call(scan_name, scan, (n, k, size, *args), kwargs)
        counters[scan_name + ".subsets"] += math.comb(k**n, size)
        counters[scan_name + ".weak_count"] += res.weak_count
        return res

    rebind("exhaustive_gap_scan", exhaustive_gap_scan, P, C)

    # extremal
    width_name = "extremal.max_antichain"
    width = E.max_antichain

    def max_antichain(poset, *args, **kwargs):
        res = tr.call(width_name, width, (poset, *args), kwargs)
        counters[width_name + ".points"] += poset.size
        return res

    rebind("max_antichain", max_antichain, E, C)

    # gridcover: per-family self time; box_dimension reaches grid_cover
    # through the module global, so its covers are counted too
    cover_name = "gridcover.grid_cover"
    cover = G.grid_cover

    def grid_cover(target, m, *args, **kwargs):
        res = tr.call(cover_name, cover, (target, m, *args), kwargs)
        tr.add_stat(f"{cover_name}.{type(target).__name__}", *tr.last)
        counters[cover_name + ".cells_total"] += m**res.dim
        counters[cover_name + ".cells_hit"] += len(res)
        return res

    rebind("grid_cover", grid_cover, G, C)
    plain("box_dimension", "gridcover.box_dimension", G)
    rebind(
        "monotone_extension",
        tr.wrap("surfaces.monotone_extension", S.monotone_extension, record=False),
        S,
        G,
    )

    # quadrature: the integrand and classifier are wrapped per call
    quad_name = "quadrature.integrate_adaptive"
    integrate = S.integrate_adaptive
    straddle = Q.STRADDLE

    def integrate_adaptive(f, box, tol, *args, **kwargs):
        classify = kwargs.get("cell_classify")
        if classify is not None:

            def counted(lo, hi):
                side = classify(lo, hi)
                if side == straddle:
                    counters["quadrature.classify.straddle"] += 1
                return side

            kwargs["cell_classify"] = tr.wrap("quadrature.classify", counted, record=False)
        f = tr.wrap("quadrature.integrand", f, record=False)
        res = tr.call(quad_name, integrate, (f, box, tol, *args), kwargs)
        counters[quad_name + ".converged"] += bool(res.converged)
        key = quad_name + ".max_err_over_tol"
        counters[key] = max(counters[key], res.error_bound / tol)
        return res

    rebind("integrate_adaptive", integrate_adaptive, S)

    # surfaces: measure entry points, reached from the benchmark, from each
    # other and from cli
    for attr in (
        "surface_measure",
        "surface_measure_quadrature",
        "projection_measure",
        "verify_projection_inequality",
    ):
        plain(attr, f"surfaces.{attr}", S, C)

    plain("main", "cli.main", C)
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
