"""Benchmark of the antichains library: four seeded workloads, one closed-loop caller.

Run from the root of a checkout::

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` of the current directory; without it
the benchmark exits 2 and prints no result.  One process, one thread: each
op is called only after the previous one returned.  The seed fixes one
batch of ops, and that same batch runs again and again until the next run
would overrun ``--seconds`` (at least one runs); every op's result goes
through its oracle after the batch, outside the timed region.  A fixed
speed probe runs between ops, and ``batch_s`` sums over the batch's ops the
median of each op's time divided by the probe time around it, so that the
shared host's changing speed cancels out (see README.md).  Set-up (import,
seeded input generation and one untimed warm-up op per op kind) is repeated
before, between and after the batches and reported as a median.  With
``--trace 1`` one more batch runs with every layer's public functions
wrapped (see ``tracing.py``) and the per-layer metrics are reported instead
of the end-to-end ones.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
``{"meta": ...}`` object with Python version, CPU count, seed and commit.
See README.md in this directory for how to read the numbers.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from itertools import combinations

sys.dont_write_bytecode = True

from tracing import Tracer, instrument, restore  # noqa: E402
from workloads import DIGESTS, MISS, OK, WORKLOADS, OracleFailure  # noqa: E402

SETUP_REPEATS = 5
#: seconds ``probe_time()`` reads on an idle core of the reference host (a
#: shared 2-CPU x86-64 VM, CPython 3.11); it only scales ``batch_s`` to seconds
PROBE_REFERENCE_S = 4.0e-4
#: where traced runs write their spans, under the checkout root
OUT_DIR = ".bench_out"
LAYERS = ("lattice", "partition", "extremal", "gridcover", "surfaces", "quadrature", "cli")
FAMILIES = ("Hyperplane", "LpSphere", "LinearGraph", "TabulatedMonotone", "SingularStaircase")


# ---------------------------------------------------------------------------
# set-up


def fresh_import():
    """Import the library from scratch and return its layer modules."""
    for name in [m for m in sys.modules if m == "antichains" or m.startswith("antichains.")]:
        del sys.modules[name]
    importlib.import_module("antichains")
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"antichains.{layer}") for layer in LAYERS}
    )


def setup(workload, seed: int, small: bool):
    """Import, build the seeded batch and warm up; returns those and the time taken.

    The batch depends only on the seed, so every set-up of a run builds the
    same ops, bound to the freshly imported modules.
    """
    t0 = time.perf_counter()
    mods = fresh_import()
    ops = workload.batch(mods, random.Random(seed), small)
    for op in workload.warmup(mods):
        op.run()
    return mods, ops, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# measuring


_PROBE_RNG = random.Random(5)
_PROBE_POINTS = [tuple(_PROBE_RNG.randrange(8) for _ in range(4)) for _ in range(32)]


def probe() -> int:
    """Fixed pure-Python work, of the kinds the library does, that never calls it."""
    pairs = sum(
        1 for x, y in combinations(_PROBE_POINTS, 2) if all(a < b for a, b in zip(x, y))
    )
    acc = 0.0
    for i in range(500):
        acc += math.sqrt(i * 0.5 + 1.0)
    return pairs + int(acc)


def probe_time() -> float:
    """The host's speed right now: seconds of the faster of two ``probe()`` calls."""
    clock = time.perf_counter
    best = math.inf
    for _ in range(2):
        t0 = clock()
        probe()
        best = min(best, clock() - t0)
    return best


@dataclass
class Batch:
    #: seconds the ops took, probes left out
    wall: float = 0.0
    #: seconds per op
    latencies: list = field(default_factory=list)
    #: per op, the mean of the two probe times that bracket its timing group
    probes: list = field(default_factory=list)
    #: per op: OK, MISS, or None when it failed
    outcomes: list = field(default_factory=list)
    #: failed ops, plus one for a digest mismatch
    failed: int = 0
    missed: list = field(default_factory=list)
    digest: str | None = None


def batch_digest(entries) -> str:
    h = hashlib.sha256()
    for key, value in sorted(entries, key=lambda e: e[0]):
        h.update(f"{key}\t{value!r}\n".encode())
    return h.hexdigest()


def run_batch(ops, expected_digest, group: int = 1, tracer: Tracer | None = None) -> Batch:
    """Run every op once in order, then check each result outside the timed region.

    The speed probe runs before the first op and after every ``group`` ops,
    outside the ops' times.
    """
    clock = time.perf_counter
    results = []
    probes = []
    gc.collect()
    probes.append(probe_time())
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            if tracer is None:
                out = op.run()
            else:
                tracer.op_id = i
                out = tracer.call(f"op.{op.kind}", op.run)
            err = None
        except Exception as exc:  # one broken op must not end the run
            out, err = None, exc
        results.append((out, err, clock() - t0))
        if (i + 1) % group == 0 or i + 1 == len(ops):
            probes.append(probe_time())
    b = Batch(wall=sum(r[2] for r in results))
    entries = []
    for i, (op, (out, err, dt)) in enumerate(zip(ops, results)):
        b.latencies.append(dt)
        b.probes.append((probes[i // group] + probes[i // group + 1]) / 2)
        label = op.key or op.kind
        try:
            if err is not None:
                raise err
            outcome = op.check(out)
            if op.digest is not None:
                entries.append((op.key, op.digest(out)))
        except OracleFailure as exc:
            outcome = f"oracle: {exc}"
        except Exception:
            outcome = traceback.format_exc()
        if outcome == MISS:
            b.missed.append(label)
        elif outcome != OK:
            b.failed += 1
            print(f"FAILED {label}: {outcome}", file=sys.stderr)
            outcome = None
        b.outcomes.append(outcome)
    if entries:
        b.digest = batch_digest(entries)
        if expected_digest is not None and b.digest != expected_digest:
            b.failed += 1
            print(f"FAILED digest {b.digest} != {expected_digest}", file=sys.stderr)
    return b


def percentile(sorted_xs, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = min(len(sorted_xs), max(1, math.ceil(len(sorted_xs) * q)))
    return sorted_xs[rank - 1]


def batch_probes(batches) -> float:
    """The batch's time in probe times: sum over its ops of the median over the
    repeated batches of the op's time divided by the probe time around it."""
    per_op = zip(*(zip(b.latencies, b.probes) for b in batches))
    return sum(statistics.median(t / p for t, p in samples) for samples in per_op)


def end_to_end_metrics(batches, once, setup_times) -> dict:
    batch_s = batch_probes(batches) * PROBE_REFERENCE_S
    per_op = list(zip(*(b.outcomes for b in batches)))
    passed = sum(None not in outcomes for outcomes in per_op)
    met = sum(all(o == OK for o in outcomes) for outcomes in per_op)
    extra = once.outcomes if once else []
    return {
        "batch_s": (batch_s, "s"),
        "ops_per_s": (passed / batch_s, "ops/s"),
        "setup_s": (statistics.median(t / p for t, p in setup_times) * PROBE_REFERENCE_S, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((met + extra.count(OK)) / (len(per_op) + len(extra)), "1"),
    }


def layer_metrics(tr: Tracer, traced: Batch, untraced, lat_ms) -> dict:
    stats, c = tr.stats, tr.counters

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    rwa = "partition.random_weak_antichain"
    put(f"{rwa}.calls", calls(rwa), "count")
    put(f"{rwa}.self_s", self_s(rwa), "s")
    put(f"{rwa}.candidates", c[f"{rwa}.candidates"], "count")
    put(f"{rwa}.accept_ratio", ratio(c[f"{rwa}.accepted"], c[f"{rwa}.candidates"]), "1")
    for name in (
        "partition.greedy_partition",
        "partition.PartitionCertificate.validate",
        "partition.projection_gap",
    ):
        put(f"{name}.self_s", self_s(name), "s")
    for name in ("lattice.project", "lattice.PointSet"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.self_s", self_s(name), "s")
    scan = "partition.exhaustive_gap_scan"
    put(f"{scan}.self_s", self_s(scan), "s")
    put(f"{scan}.subsets", c[f"{scan}.subsets"], "count")
    put(f"{scan}.weak_count", c[f"{scan}.weak_count"], "count")
    put(f"{scan}.weak_ratio", ratio(c[f"{scan}.weak_count"], c[f"{scan}.subsets"]), "1")
    width = "extremal.max_antichain"
    put(f"{width}.calls", calls(width), "count")
    put(f"{width}.self_s", self_s(width), "s")
    put(f"{width}.points", c[f"{width}.points"], "count")
    cover = "gridcover.grid_cover"
    put(f"{cover}.calls", calls(cover), "count")
    put(f"{cover}.self_s", self_s(cover), "s")
    put(f"{cover}.cells_total", c[f"{cover}.cells_total"], "count")
    put(f"{cover}.cells_hit", c[f"{cover}.cells_hit"], "count")
    put(f"{cover}.hit_ratio", ratio(c[f"{cover}.cells_hit"], c[f"{cover}.cells_total"]), "1")
    for family in FAMILIES:
        put(f"{cover}.{family}.self_s", self_s(f"{cover}.{family}"), "s")
    put("gridcover.box_dimension.self_s", self_s("gridcover.box_dimension"), "s")
    put("surfaces.monotone_extension.calls", calls("surfaces.monotone_extension"), "count")
    quad = "quadrature.integrate_adaptive"
    n_quad = calls(quad)
    n_classify = calls("quadrature.classify")
    put(f"{quad}.calls", n_quad, "count")
    put(f"{quad}.self_s", self_s(quad), "s")
    put(f"{quad}.evaluations", calls("quadrature.integrand"), "count")
    put(f"{quad}.classify_calls", n_classify, "count")
    put(f"{quad}.straddle_ratio", ratio(c["quadrature.classify.straddle"], n_classify), "1")
    put(f"{quad}.converged_ratio", ratio(c[f"{quad}.converged"], n_quad), "1")
    put(f"{quad}.max_err_over_tol", c[f"{quad}.max_err_over_tol"], "1")
    put("quadrature.integrand.self_s", self_s("quadrature.integrand"), "s")
    put("quadrature.classify.self_s", self_s("quadrature.classify"), "s")
    for name in (
        "surface_measure",
        "surface_measure_quadrature",
        "projection_measure",
        "verify_projection_inequality",
    ):
        put(f"surfaces.{name}.self_s", self_s(f"surfaces.{name}"), "s")
    put("cli.main.calls", calls("cli.main"), "count")
    put("cli.main.self_s", self_s("cli.main"), "s")
    put("op.p50_ms", percentile(lat_ms, 0.50), "ms")
    put("op.p90_ms", percentile(lat_ms, 0.90), "ms")
    put("op.p99_ms", percentile(lat_ms, 0.99), "ms")
    put("op.p999_ms", percentile(lat_ms, 0.999), "ms")
    put("op.samples", len(lat_ms), "count")
    put("trace.wall_s", traced.wall, "s")
    put("trace.overhead_ratio", batch_probes([traced]) / batch_probes(untraced), "1")
    return out


def measure(workload, seed: int, seconds: float, trace: bool, small: bool):
    """Set up, run the once-per-run ops and then the seeded batch for ``seconds``
    (at least once), plus one traced batch if asked.

    Set-up repeats SETUP_REPEATS times before the first batch, once between
    batches and SETUP_REPEATS times after the last, so its median samples the
    whole run as the batches do; each set-up is bracketed by speed probes
    like an op.  Each batch runs the same ops on the newest modules.
    """
    expected = DIGESTS.get((workload.name, small))
    setup_times = []

    def set_up():
        before = probe_time()
        mods, ops, took = setup(workload, seed, small)
        setup_times.append((took, (before + probe_time()) / 2))
        return mods, ops

    for _ in range(SETUP_REPEATS):
        mods, ops = set_up()
    start = time.perf_counter()
    once = run_batch(workload.once(mods, small), None) if workload.once else None
    batches = []
    while True:
        t0 = time.perf_counter()
        batches.append(run_batch(ops, expected, workload.group))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            break
        mods, ops = set_up()
    for _ in range(SETUP_REPEATS):
        mods, ops = set_up()
    traced = tracer = None
    if trace:
        tracer = Tracer()
        undo = instrument(mods, tracer)
        try:
            traced = run_batch(ops, expected, workload.group, tracer)
        finally:
            restore(undo)
    return setup_times, once, batches, traced, tracer


# ---------------------------------------------------------------------------
# metadata and entry point


def _commit(root: str) -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "antichains")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run(workload_name: str, seed: int, seconds: float, trace: bool, small: bool = False,
        root: str | None = None):
    """Run one workload and return ``(meta, result)``; ``result`` is the printed object."""
    root = os.path.abspath(root or os.getcwd())
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    workload = WORKLOADS[workload_name]
    setup_times, once, batches, traced, tracer = measure(workload, seed, seconds, trace, small)
    every = batches + [b for b in (once, traced) if b]
    attempted = sum(len(b.latencies) for b in every)
    failed = sum(b.failed for b in every)
    if trace:
        lat_ms = sorted(dt * 1e3 for b in batches for dt in b.latencies)
        metrics = layer_metrics(tracer, traced, batches, lat_ms)
    else:
        metrics = end_to_end_metrics(batches, once, setup_times)
    meta = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "small": small,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": _nproc(),
        "commit": _commit(root),
        "src_sha256": _source_digest(src),
        "batches": len(batches),
        "ops_per_batch": len(batches[0].latencies),
        "setup_s": [t for t, _ in setup_times],
        "batch_wall_s": [b.wall for b in batches],
        "once_wall_s": once.wall if once else None,
        "traced_wall_s": traced.wall if traced else None,
        "fastest_probe_s": min(p for b in batches for p in b.probes),
        "fastest_ops_s": sum(min(ts) for ts in zip(*(b.latencies for b in batches))),
        "missed_tolerance": sorted({k for b in every for k in b.missed}),
        "digest_expected": DIGESTS.get((workload_name, small)),
        "digest_observed": sorted({b.digest for b in every if b.digest}),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if trace:
        _write_trace(root, meta, tracer)
    return meta, result


def _write_trace(root: str, meta: dict, tr: Tracer) -> None:
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{meta['workload']}-seed{meta['seed']}.json")
    payload = {
        "meta": meta,
        "fields": ["id", "name", "start", "end", "self_s", "parent", "op"],
        "layers": {name: dict(zip(("calls", "total_s", "self_s"), st))
                   for name, st in sorted(tr.stats.items())},
        "counters": dict(sorted(tr.counters.items())),
        "spans": tr.spans,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "antichains", "__init__.py")):
        print("error: run from a checkout root holding src/antichains", file=sys.stderr)
        return 2
    meta, result = run(args.workload, args.seed, args.seconds, bool(args.trace), root=root)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
