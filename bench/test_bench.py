"""Self-test of the benchmark: every metric is emitted, and oracles catch wrong results.

Runs each workload at its tiny size.  From the repository root::

    python3 -m pytest -q bench
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: bool = False) -> dict:
    return run.run(workload, seed=3, seconds=0, trace=trace, small=True, root=ROOT)[1]


def _patch_library(monkeypatch, layer: str, attr: str, make) -> None:
    """Replace ``antichains.<layer>.<attr>`` with ``make(original)`` in every fresh import."""
    fresh_import = run.fresh_import

    def patched():
        mods = fresh_import()
        module = getattr(mods, layer)
        monkeypatch.setattr(module, attr, make(getattr(module, attr)))
        return mods

    monkeypatch.setattr(run, "fresh_import", patched)


def test_spec_names_the_workloads():
    assert sorted(WORKLOAD_NAMES) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_emitted_with_unit(workload, trace):
    res = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for value in res["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert res["metrics"]["ok_frac"]["value"] == 1.0


def test_certify_gap_off_by_one_fails(monkeypatch):
    def make(projection_gap):
        def wrong(A):
            report = projection_gap(A)
            return dataclasses.replace(report, gap=report.gap + 1)

        return wrong

    _patch_library(monkeypatch, "partition", "projection_gap", make)
    res = _run("certify")
    assert not res["correct"] and res["failed"] == res["attempted"]


def test_exact_scan_wrong_min_gap_fails(monkeypatch):
    def make(scan):
        def wrong(n, k, size, *args, **kwargs):
            res = scan(n, k, size, *args, **kwargs)
            return dataclasses.replace(res, min_gap=res.min_gap - 1)

        return wrong

    _patch_library(monkeypatch, "partition", "exhaustive_gap_scan", make)
    res = _run("exact-scan")
    assert not res["correct"] and res["failed"] >= 2


def test_cover_extra_cell_caught_by_digest_only(monkeypatch):
    def make(grid_cover):
        def wrong(target, m, *args, **kwargs):
            cov = grid_cover(target, m, *args, **kwargs)
            if type(target).__name__ == "LpSphere":
                # the corner cell is far from the sphere: oracles still
                # pass, but the exact cell set changed
                cov = dataclasses.replace(cov, indices=cov.indices | {(1, 1, 1)})
            return cov

        return wrong

    _patch_library(monkeypatch, "gridcover", "grid_cover", make)
    res = _run("cover")
    assert not res["correct"] and res["failed"] == 1


def test_quadrature_wrong_value_fails(monkeypatch):
    def make(surface_measure):
        def wrong(s, tol=None):
            est = surface_measure(s, tol)
            if getattr(s, "n", None) == 3:
                est = dataclasses.replace(est, value=est.value + 0.1)
            return est

        return wrong

    _patch_library(monkeypatch, "surfaces", "surface_measure", make)
    res = _run("quadrature")
    assert not res["correct"] and res["failed"] >= 1


def test_quadrature_missed_tolerance_is_not_a_failure(monkeypatch):
    def make(surface_measure):
        def loose(s, tol=None):
            est = surface_measure(s, tol)
            if getattr(s, "n", None) == 4:
                est = dataclasses.replace(est, error_bound=2 * tol)
            return est

        return loose

    _patch_library(monkeypatch, "surfaces", "surface_measure", make)
    res = _run("quadrature")
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"]["ok_frac"]["value"] < 1.0


def test_batch_time_cancels_the_host_speed():
    fast = run.Batch(latencies=[0.2, 0.01], probes=[4e-4, 4e-4])
    slow = run.Batch(latencies=[0.3, 0.015], probes=[6e-4, 6e-4])
    assert run.batch_probes([fast, slow, slow]) == pytest.approx(0.21 / 4e-4)
    slower_code = run.Batch(latencies=[0.4, 0.02], probes=[4e-4, 4e-4])
    assert run.batch_probes([slower_code]) == pytest.approx(2 * run.batch_probes([fast]))
