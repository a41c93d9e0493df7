"""End-to-end checks of the command-line interface and its exit codes."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from antichains import (
    Hyperplane,
    LinearGraph,
    LpSphere,
    SingularStaircase,
    TabulatedMonotone,
    format_surface_descriptor,
)
from antichains import cli, surfaces
from antichains.cli import _surface_from_args, build_parser, main
from antichains.quadrature import integrate_adaptive

AB = "dim=2\n0,1\n1,0\n"  # a two-point antichain
FULL_BOX = "dim=2\n0,0\n0,1\n1,0\n1,1\n"  # not a weak antichain
CHAIN = "dim=2\n0,0\n1,1\n"
NEGATIVE = "dim=2\n-1,-2\n-3,-1\n"  # no coordinate reaches 0
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)


@pytest.fixture
def points_file(tmp_path):
    def write(text, name="points.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_gap_example(points_file, capsys):
    code, payload = run_json(capsys, ["gap", "--points", points_file(AB)])
    assert code == 0
    assert payload == {"size": 2, "projections": [2, 2], "gap": 2}


def test_gap_min_gap_verification_exit(points_file, capsys):
    code, payload = run_json(
        capsys, ["gap", "--points", points_file(FULL_BOX), "--min-gap", "1"]
    )
    assert code == 2
    assert payload["gap"] == 0  # the full box falls short of the weak-antichain floor


def test_check_expectations(points_file, capsys):
    code, payload = run_json(capsys, ["check", "--points", points_file(AB)])
    assert code == 0 and payload["is_antichain"]

    code, payload = run_json(
        capsys, ["check", "--points", points_file(CHAIN), "--expect", "antichain"]
    )
    assert code == 2
    assert not payload["is_antichain"] and not payload["is_weak_antichain"]

    code, _ = run_json(
        capsys, ["check", "--points", points_file(AB), "--expect", "weak-antichain"]
    )
    assert code == 0


def test_partition_roundtrip(points_file, capsys):
    code, payload = run_json(
        capsys, ["partition", "--points", points_file("dim=2\n0,0\n0,1\n1,0\n")]
    )
    assert code == 0
    assert payload["part_sizes"] == [2, 1]
    assert payload["parts"][0] == [[0, 0], [0, 1]]


def test_partition_operation_error(points_file, capsys):
    code = main(["partition", "--points", points_file(CHAIN)])
    assert code == 1
    assert "not a weak antichain" in capsys.readouterr().err


def test_measure_hyperplane(capsys):
    code, payload = run_json(capsys, ["measure", "--surface", "hyperplane", "--n", "2"])
    assert code == 0
    assert payload["method"] == "closed-form"
    assert abs(payload["value"] - math.sqrt(2)) < 1e-12


def test_measure_projection_axis(capsys):
    code, payload = run_json(
        capsys, ["measure", "--surface", "hyperplane", "--n", "3", "--axis", "2"]
    )
    assert code == 0
    assert payload["value"] == pytest.approx(0.75)


def test_verify_lpsphere_passes(capsys):
    code, payload = run_json(
        capsys, ["verify", "--surface", "lpsphere", "--n", "2", "--p", "8"]
    )
    assert code == 0
    assert payload["passes"] and payload["right_total"] == pytest.approx(2.0)
    assert payload["surface"]["value"] < 2.0


def test_unconverged_surface_never_passes(monkeypatch, capsys):
    def starved(*args, **kwargs):
        return integrate_adaptive(*args, **kwargs, max_evals=200)

    monkeypatch.setattr(surfaces, "integrate_adaptive", starved)
    argv = ["verify", "--surface", "lpsphere", "--n", "3", "--p", "2", "--tol", "1e-3"]
    code, payload = run_json(capsys, argv)
    assert code == 2 and payload["passes"] is False
    assert payload["surface"]["converged"] is False
    assert payload["surface"]["errorBound"] > payload["tolerance"]
    assert all("converged" not in p for p in payload["projections"])
    argv = ["skew2d", "--surface", "lpsphere", "--n", "2", "--p", "2", "--tol", "1e-6"]
    code, payload = run_json(capsys, argv)
    assert code == 2 and payload["passes"] is False
    assert payload["surface"]["converged"] is False


def test_skew2d_pass(capsys):
    code, payload = run_json(capsys, ["skew2d", "--surface", "hyperplane", "--n", "2"])
    assert code == 0
    assert payload["delta_total"] == pytest.approx(2.0)


def test_width_layer_wn(capsys):
    code, payload = run_json(capsys, ["width", "--n", "2", "--m", "3"])
    assert code == 0 and payload["width"] == 3

    code, payload = run_json(capsys, ["width", "--n", "2", "--m", "3", "--order", "weak"])
    assert code == 0 and payload["width"] == 5

    code, payload = run_json(capsys, ["layer", "--n", "2", "--m", "3"])
    assert code == 0 and payload["size"] == 3 and payload["ell"] == 2

    code, payload = run_json(capsys, ["wn", "--n", "2", "--m", "3"])
    assert code == 0 and payload["size"] == 5


def test_width_default_budget_admits_mid_size_grids(capsys):
    # 13,824 points take about 30 ms, well within the default budget
    code, payload = run_json(capsys, ["width", "--n", "3", "--m", "24"])
    assert code == 0 and payload["width"] == 432  # the middle layer of [24]^3


def test_width_sweep_csv(capsys):
    code = main(["width", "--n", "2", "--m-list", "2,3,4", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,m,order,width,method"
    assert [ln.split(",")[3] for ln in lines[1:]] == ["2", "3", "4"]
    assert main(["width", "--m-list", "2,3"]) == 64  # --n or --n-list required
    capsys.readouterr()


def test_gap_scan_csv(capsys):
    code = main(["gap-scan", "--n", "2", "--k", "3", "--size-list", "1,2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "size,min_gap,reference_gap,weak_count,witness"
    assert lines[1].startswith("1,1,1,")
    assert lines[2].startswith("2,1,1,")


def test_gap_scan_random_mode(capsys):
    code, payload = run_json(
        capsys,
        [
            "gap-scan", "--n", "2", "--k", "4", "--size", "3",
            "--sample", "20", "--seed", "7", "--format", "json",
        ],
    )
    assert code == 0
    assert payload["mode"] == "random"
    assert payload["rows"][0]["min_gap"] >= 1


def test_gap_scan_rejects_a_negative_budget_in_both_modes(capsys):
    # the random mode spends no budget, but a negative one is bad usage there too
    for mode in ([], ["--sample", "3"]):
        argv = ["gap-scan", "--n", "2", "--k", "3", "--size", "2", *mode, "--budget", "-1"]
        assert main(argv) == 64, mode
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: budget must be >= 0\nusage: antichains gap-scan")
    argv = ["gap-scan", "--n", "2", "--k", "3", "--size", "2", "--sample", "3", "--budget", "0"]
    assert main(argv) == 0


def test_width_and_cover_reject_a_negative_budget(points_file, capsys):
    # one rule with gap-scan: a negative budget is bad usage, where an
    # exceeded one is an operation error; point clouds spend no budget but
    # are held to the rule too
    cloud = points_file("dim=2\n0,1\n1,0\n")
    for argv, at_zero in [
        (["width", "--n", "2", "--m", "3"], 1),
        (["cover", "--surface", "hyperplane", "--n", "3", "--m", "4"], 1),
        (["cover", "--points", cloud, "--m", "4"], 0),
    ]:
        assert main([*argv, "--budget", "-1"]) == 64, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: budget must be >= 0\nusage: antichains {argv[0]}")
        assert main([*argv, "--budget", "0"]) == at_zero, argv
        capsys.readouterr()


def test_cover_points_and_surface(points_file, capsys):
    code, payload = run_json(
        capsys, ["cover", "--points", points_file("dim=2\n0,1\n1,0\n"), "--m", "2"]
    )
    assert code == 0
    assert payload["count"] == 2  # the two rescaled points sit in two cells

    code, payload = run_json(
        capsys, ["cover", "--surface", "hyperplane", "--n", "2", "--m", "4"]
    )
    assert code == 0
    assert payload["count"] == 7

    code = main(
        ["cover", "--surface", "hyperplane", "--n", "2", "--m-list", "2,4,8", "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,count,ratio,bound,exact"
    assert len(lines) == 4


def test_large_p_sphere_cover_keeps_every_cell(capsys):
    # the arc meets 2m - 1 cells at every p, and the cover is exact
    argv = ["cover", "--surface", "lpsphere", "--n", "2", "--p", "1000", "--m", "64"]
    code, payload = run_json(capsys, argv)
    assert code == 0 and payload["count"] == 127 and payload["exact"] is True


def test_cover_budget_counts_base_cells(capsys):
    argv = ["cover", "--surface", "linear", "--gradient=-0.5,-0.3", "--offset", "0.9"]
    argv += ["--m", "128"]
    assert main([*argv, "--budget", "16383"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 16384 base cells exceed budget 16383\n"
    code, payload = run_json(capsys, [*argv, "--budget", "16384"])
    assert code == 0 and payload["count"] == 29504


def test_slab_and_staircase(capsys):
    code, payload = run_json(capsys, ["slab", "--n", "2", "--c", "1"])
    assert code == 0 and payload["volume"] == 0.75

    code, payload = run_json(capsys, ["staircase", "--depth", "12"])
    assert code == 0 and payload["length"] >= 1.95

    code = main(["staircase", "--depth", "2", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y" and len(lines) == 9  # 8 vertices at depth 2


def test_staircase_json_builds_no_vertex_list(capsys):
    # without --vertices the JSON holds the length and the vertex count only;
    # the depth-16 polyline alone would take tens of MB
    tracemalloc.start()
    try:
        code = main(["staircase", "--depth", "16"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["vertices"] == 2**17
    assert peak < 4 * 2**20, peak


def test_p_sweep_csv_increasing(capsys):
    code = main(["p-sweep", "--p-list", "2,4,8"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,value,error_bound"
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert values == sorted(values)


def test_shear_subcommand(points_file, capsys):
    code, payload = run_json(
        capsys, ["shear", "--points", points_file("dim=2\n0,0\n0,1\n1,0\n"), "--epsilon", "0.1"]
    )
    assert code == 0
    assert payload["is_antichain"]
    assert payload["scale"] == 2


def test_float_outputs_do_not_depend_on_the_interpreter(points_file, capsys):
    # sum() of floats is compensated from CPython 3.12 on, which would print
    # 0.04000000000000001, and 2.355571040536535 with bound
    # 0.04547374978962058, here
    code, payload = run_json(
        capsys,
        ["shear", "--points", points_file("dim=3\n1,2,3\n"), "--epsilon", "0.1", "--scale", "10"],
    )
    assert code == 0
    assert payload["points"] == [[0.039999999999999994, 0.14, 0.24]]
    code, payload = run_json(
        capsys, ["measure", "--surface", "lpsphere", "--n", "4", "--p", "4", "--tol", "0.5"]
    )
    assert code == 0
    assert (payload["value"], payload["errorBound"]) == (2.3555710405365344, 0.04547374978962065)


def test_negative_point_files_get_the_derived_scale_one(points_file, capsys):
    # the derived scale, largest coordinate plus 1, is at least 1
    path = points_file(NEGATIVE)
    assert main(["cover", "--points", path, "--m", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: point (-3.0, -1.0) outside the unit cube\n"
    code, payload = run_json(capsys, ["shear", "--points", path, "--epsilon", "0.1"])
    assert code == 0 and payload["scale"] == 1
    assert sum(payload["points"], []) == pytest.approx([-2.6, -0.6, -0.7, -1.7])
    assert payload["is_antichain"]


@pytest.mark.parametrize(
    "command", ["check", "partition", "gap", "layer", "wn", "measure", "verify", "skew2d",
                "shear", "slab"]
)
def test_csv_is_refused_by_subcommands_without_a_table(command, capsys):
    assert main([command, "--format", "csv"]) == 64
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'csv'" in err


def test_csv_is_refused_before_any_measuring(monkeypatch, capsys):
    monkeypatch.setattr(cli, "surface_measure", lambda *args: pytest.fail("measured"))
    argv = ["measure", "--surface", "lpsphere", "--n", "3", "--p", "8", "--tol", "1e-5"]
    assert main([*argv, "--format", "csv"]) == 64
    assert capsys.readouterr().out == ""


def test_surface_descriptor_file(tmp_path, capsys):
    desc = tmp_path / "surface.txt"
    desc.write_text("family=lpsphere\nn=2\np=4\n")
    code, payload = run_json(capsys, ["measure", "--surface", str(desc)])
    assert code == 0
    assert 1.7 < payload["value"] < 1.8


def test_usage_errors_exit_64(points_file, capsys):
    assert main(["slab", "--n", "2", "--c", "5"]) == 64
    assert main(["no-such-command"]) == 64
    assert main([]) == 64
    assert main(["measure", "--surface", "hyperplane"]) == 64  # missing --n
    assert main(["measure", "--surface", "lpsphere", "--n", "2", "--p", "0.5"]) == 64
    assert main(["verify", "--surface", "hyperplane", "--n", "2", "--tol", "nan"]) == 64
    assert main(["measure", "--surface", "hyperplane", "--n", "2", "--tol", "inf"]) == 64
    assert main(["shear", "--points", points_file(AB), "--epsilon", "0.4"]) == 64
    assert main(["width", "--n", "2", "--m", "3", "--threads", "2"]) == 64  # no such flag
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["cover", "--surface", "hyperplane", "--n", "3", "--m", "abc"],
            "usage error: argument --m/--m-list: bad integer list 'abc'\n",
        ),
        (["p-sweep", "--p-list", ","], "usage error: p-sweep needs a non-empty --p-list\n"),
    ],
)
def test_bad_lists_are_usage_errors(argv, message, capsys):
    assert main(argv) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message)


@pytest.mark.parametrize("value", ["two", "0"])
def test_threads_environment_is_ignored(value, monkeypatch, capsys):
    monkeypatch.setenv("ANTICHAINS_THREADS", value)
    code, payload = run_json(capsys, ["width", "--n", "2", "--m", "3"])
    assert code == 0 and payload["width"] == 3


def test_bad_descriptor_file_is_operation_error(tmp_path, capsys):
    desc = tmp_path / "bad.txt"
    desc.write_text("family=lpsphere\nn=2\np=0.2\n")
    assert main(["measure", "--surface", str(desc)]) == 1
    capsys.readouterr()


def test_operation_errors_exit_1(points_file, capsys):
    assert main(["gap", "--points", "/nonexistent/path.txt"]) == 1
    assert main(["width", "--n", "6", "--m", "6", "--budget", "100"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        # alpha's math.gamma, then the orthant volume's, overflow
        (["cover", "--surface", "hyperplane", "--n", "402", "--m", "1"], "math range error"),
        (["measure", "--surface", "lpsphere", "--n", "400", "--p", "1", "--axis", "1"], "math range error"),
        # a split of the 13-axis sphere integral costs 4^13 evaluations
        (["measure", "--surface", "lpsphere", "--n", "14", "--p", "2"], "4^13 = 67108864"),
        (["measure", "--surface", "hyperplane", "--n", "1002"], "exceeds the limit of 1000"),
    ],
)
def test_overflows_and_unaffordable_sums_are_operation_errors(argv, message, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_large_n_closed_forms_are_exact(capsys):
    # the float inclusion-exclusion printed a surface 23% high, a negative
    # slab and an OverflowError traceback for these
    code, report = run_json(capsys, ["verify", "--surface", "hyperplane", "--n", "100"])
    assert code == 0 and report["passes"]
    assert report["surface"]["value"] == 1.3799020407550002
    assert {p["value"] for p in report["projections"]} == {0.13799020407550003}
    assert run_json(capsys, ["slab", "--n", "120", "--c", "2"]) == (
        0,
        {"c": 2.0, "n": 120, "volume": 0.24788010680775246},
    )
    code, slab = run_json(capsys, ["slab", "--n", "200", "--c", "1"])
    assert code == 0 and 0 < slab["volume"] < 1


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "--surface", "linear", "--gradient=-0.5,nan", "--offset", "0.9", "--m", "4"],
        ["verify", "--surface", "linear", "--gradient", "inf", "--offset", "0.5"],
        ["measure", "--surface", "linear", "--gradient", "nan"],
        ["measure", "--surface", "lpsphere", "--n", "2", "--p", "nan"],
        ["verify", "--surface", "linear", "--gradient=-0.5", "--offset", "inf"],
        ["p-sweep", "--p-list", "2,inf", "--format", "json"],
        ["measure", "--surface", "linear", "--gradient=-0.5", "--box", "nan:1"],
        ["measure", "--surface", "tabulated", "--n", "2", "--sample", "0.2,nan"],
        ["slab", "--n", "2", "--c", "nan"],
        ["slab", "--n", "2", "--c", "inf"],
        ["slab", "--n", "2", "--c=-inf"],
    ],
)
def test_non_finite_inputs_are_operation_errors(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert "NaN" not in out and "Infinity" not in out


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
def test_non_finite_shear_epsilon_is_operation_error(epsilon, points_file, capsys):
    assert main(["shear", "--points", points_file(AB), f"--epsilon={epsilon}"]) == 1
    assert capsys.readouterr() == ("", "error: epsilon must be finite\n")


def test_non_finite_descriptor_is_operation_error(tmp_path, capsys):
    desc = tmp_path / "nan.txt"
    desc.write_text("family=linear\ngradient=-0.5,nan\noffset=0.9\n")
    assert main(["cover", "--surface", str(desc), "--m", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["verify", "--surface", "hyperplane", "--n", "3", "--p", "7"],
            "hyperplane surface takes no 'p'",
        ),
        (
            ["measure", "--surface", "lpsphere", "--n", "2", "--p", "2", "--offset", "0.5"],
            "lpsphere surface takes no 'offset'",
        ),
        (
            ["cover", "--surface", "staircase", "--depth", "2", "--gradient", "1", "--m", "4"],
            "staircase surface takes no 'gradient'",
        ),
        (
            ["skew2d", "--surface", "{desc}", "--depth", "2"],
            "a surface descriptor takes no --depth",
        ),
        (
            ["measure", "--surface", "{desc}", "--n", "4", "--box", "0:1"],
            "a surface descriptor takes no --n",
        ),
        (
            ["cover", "--points", "{points}", "--m", "4", "--n", "3", "--p", "7"],
            "--points takes no --n",
        ),
    ],
)
def test_surface_flags_the_surface_does_not_take_are_usage_errors(
    argv, message, tmp_path, capsys
):
    # these flags used to be dropped without a word
    desc = tmp_path / "surface.txt"
    desc.write_text("family=hyperplane\nn=3\n")
    points = tmp_path / "points.txt"
    points.write_text("dim=2\n0,1\n1,0\n")
    argv_in = [a.replace("{desc}", str(desc)).replace("{points}", str(points)) for a in argv]
    assert main(argv_in) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage error: {message}\nusage: antichains {argv[0]} ")


def test_descriptor_key_the_family_does_not_take_is_operation_error(tmp_path, capsys):
    desc = tmp_path / "typo.txt"
    desc.write_text("family=linear\ngradient=-0.5\nofset=0.9\n")
    assert main(["verify", "--surface", str(desc)]) == 1
    assert capsys.readouterr() == ("", "error: linear surface takes no 'ofset'\n")


def test_descriptor_repeating_a_key_is_operation_error(tmp_path, capsys):
    # the last n used to win, so this verified Hyperplane(4)
    desc = tmp_path / "twice.txt"
    desc.write_text("family=hyperplane\nn=3\nn=4\n")
    assert main(["verify", "--surface", str(desc)]) == 1
    assert capsys.readouterr() == ("", "error: descriptor repeats the key 'n'\n")


def test_linear_graph_offset_defaults_to_zero_without_the_flag():
    args = build_parser().parse_args(["measure", "--surface", "linear", "--gradient=-0.5"])
    assert args.offset is None
    assert _surface_from_args(args) == LinearGraph((-0.5,), offset=0.0)


def test_byte_identical_outputs(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["verify", "--surface", "lpsphere", "--n", "2", "--p", "8"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, surface",
    [
        (["--surface", "hyperplane", "--n", "4"], Hyperplane(4)),
        (["--surface", "lpsphere", "--n", "3", "--p", "2.5"], LpSphere(3, 2.5)),
        (["--surface", "linear", "--gradient=-0.5,0.25,"], LinearGraph((-0.5, 0.25))),
        (
            ["--surface", "linear", "--gradient=-1,0.5", "--offset", "0.75",
             "--box", "0:0.5,0:1", "--box", "0.5:1,0.25:0.75"],
            LinearGraph(
                (-1.0, 0.5), (((0.0, 0.5), (0.0, 1.0)), ((0.5, 1.0), (0.25, 0.75))), 0.75
            ),
        ),
        (
            ["--surface", "tabulated", "--n", "3", "--sample", "0.2,0.3,0.7",
             "--sample", "0.6,0.1,0.4"],
            TabulatedMonotone(3, (((0.2, 0.3), 0.7), ((0.6, 0.1), 0.4))),
        ),
        (["--surface", "staircase", "--depth", "5"], SingularStaircase(5)),
    ],
)
def test_inline_flags_and_descriptor_file_build_equal_surfaces(flags, surface, tmp_path):
    desc = tmp_path / "surface.txt"
    desc.write_text(format_surface_descriptor(surface))
    parser = build_parser()
    inline = _surface_from_args(parser.parse_args(["measure", *flags]))
    from_file = _surface_from_args(parser.parse_args(["measure", "--surface", str(desc)]))
    assert inline == surface
    assert from_file == surface


@pytest.mark.parametrize(
    "argv, code",
    [
        (["measure", "--surface", "hyperplane", "--n", "2", "--tol", "nan"], 64),
        (["verify", "--surface", "hyperplane", "--n", "2", "--tol", "0"], 64),
        (["skew2d", "--surface", "staircase", "--depth", "2", "--tol", "-1"], 64),
        (["p-sweep", "--p-list", "2", "--tol", "0"], 64),
        (["slab", "--n", "2", "--c", "-0.5"], 64),
        (["slab", "--n", "2", "--c", "5"], 64),
        (["slab", "--n", "0", "--c", "0"], 64),
        (["staircase", "--depth", "-1"], 64),
        (["staircase", "--depth", "21"], 64),
        (["shear", "--points", "{points}", "--epsilon", "0"], 64),
        (["shear", "--points", "{points}", "--epsilon", "0.4"], 64),
        (["shear", "--points", "{points}", "--epsilon", "0.1", "--scale", "0"], 64),
        (["shear", "--points", "/nonexistent/path.txt", "--epsilon", "0"], 1),
        (["measure", "--surface", "hyperplane", "--n", "3", "--axis", "0"], 64),
        (["measure", "--surface", "hyperplane", "--n", "3", "--axis", "4"], 64),
        (["gap-scan", "--n", "2", "--k", "3", "--size", "2", "--sample", "0"], 64),
        (["gap-scan", "--n", "0", "--k", "3", "--size", "1"], 64),
        (["gap-scan", "--n", "2", "--k", "2", "--size", "9", "--sample", "3"], 64),
        (["gap-scan", "--n", "2", "--k", "3", "--size", "5", "--budget", "10"], 1),
        (["width", "--n", "0", "--m", "3"], 64),
        (["width", "--n", "2", "--m-list", "3,0"], 64),
        (["width", "--n", "2"], 64),
        (["width", "--n", "2", "--m-list", ","], 64),
        (["width", "--n", "2", "--m", "3", "--m-list", "2,3"], 0),
        (["wn", "--n", "0", "--m", "3"], 64),
        (["wn", "--n", "2", "--m", "0"], 64),
        (["layer", "--n", "0", "--m", "3"], 64),
        (["layer", "--n", "2", "--m", "0"], 64),
        (["cover", "--surface", "hyperplane", "--n", "0", "--m", "2"], 64),
        (["cover", "--surface", "hyperplane", "--n", "3", "--m", "0"], 64),
        (["cover", "--surface", "hyperplane", "--n", "3"], 64),
        (["cover", "--points", "{points}", "--surface", "hyperplane", "--m", "2"], 64),
        (["cover", "--surface", "hyperplane", "--n", "2", "--m-list", ","], 64),
        (["cover", "--points", "{points}", "--m", "2,4"], 0),
        (["cover", "--points", "", "--m", "4"], 1),
    ],
)
def test_each_flag_rule_has_one_exit_code(argv, code, points_file, capsys):
    path = points_file(AB)
    assert main([a.replace("{points}", path) for a in argv]) == code
    out, err = capsys.readouterr()
    if code != 0:
        assert out == "" and err.startswith("usage error: " if code == 64 else "error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--surface", "hyperplane", "--n", "2", "--format", "csv"],
        ["width", "--n", "2"],
        ["cover", "--m", "2"],
        ["slab", "--n", "2", "--c", "x"],
        ["measure", "--surface", "hyperplane"],
        ["slab", "--n", "2", "--c", "5"],
    ],
)
def test_flag_errors_print_their_subcommand_usage(argv, capsys):
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert f"usage: antichains {argv[0]} " in err


def _golden_runs(argvs, directory):
    """Run golden argvs through ``main`` in this process; returns each (exit, stdout, stderr)."""
    for name, text in GOLDEN["files"].items():
        (directory / name).write_text(text, encoding="utf-8")
    runs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{dir}", str(directory)) for a in argv])
        runs.append((code, out.getvalue(), err.getvalue()))
    return runs


def test_reused_parser_matches_a_fresh_parser(tmp_path, monkeypatch):
    argvs = [case["argv"] for case in GOLDEN["cases"]]
    usage = [case["argv"] for case in GOLDEN["cases"] if case["exit"] == 64]

    def fresh(argvs):
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", build_parser)
            return _golden_runs(argvs, tmp_path)

    cli._parser.cache_clear()
    forward = _golden_runs(argvs, tmp_path)
    backward = _golden_runs(argvs[::-1], tmp_path)[::-1]
    assert forward == backward == fresh(argvs)
    # usage lines wrap to the terminal width at print time, not at the first build
    wrapped = {}
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        wrapped[columns] = _golden_runs(usage, tmp_path)
        assert wrapped[columns] == fresh(usage)
    assert wrapped["40"] != wrapped["120"]


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    assert build_parser() is not build_parser()
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv in (["slab", "--n", "2", "--c", "1"], ["width", "--n", "2", "--m", "3"], []):
        main(argv)
    capsys.readouterr()
    assert len(built) == 1


def test_append_flags_do_not_leak_between_calls(capsys):
    tabulated = ["measure", "--surface", "tabulated", "--n", "3"]
    assert main([*tabulated, "--sample", "0.2,0.3,0.7"]) == 0
    capsys.readouterr()
    assert main(tabulated) == 64
    assert "tabulated needs --n and --sample" in capsys.readouterr().err

    linear = ["cover", "--surface", "linear", "--gradient=-0.5,-0.3", "--offset", "0.9"]
    linear += ["--m", "8"]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    runs = []
    for argv in ([*linear, "--box", "0:0.5,0:1"], linear):
        code = main(argv)
        run = (code, *capsys.readouterr())
        process = subprocess.run(
            [sys.executable, "-m", "antichains.cli", *argv], capture_output=True, text=True,
            env=env, check=False,
        )
        assert run == (process.returncode, process.stdout, process.stderr)
        runs.append(run)
    assert runs[0][0] == runs[1][0] == 0 and runs[0] != runs[1]


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["width", "--help"]])
def test_help_and_version_return_zero_in_process(argv, capsys):
    # argparse ends these runs itself; main returns its status, stdout unchanged
    with pytest.raises(SystemExit) as exited:
        build_parser().parse_args(argv)
    assert exited.value.code == 0
    printed = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == printed
    assert printed.out.startswith("antichains " if argv == ["--version"] else "usage: antichains")
