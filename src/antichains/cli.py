"""Command-line entry point exposing every operation as a subcommand.

Output is machine readable: JSON objects (sorted keys) or CSV tables with a
header row, written to stdout or to ``--output``.  Identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 operation error,
2 computed fine but a verification did not pass (also when its surface
measure missed the tolerance), 64 bad usage.  A flag value that argparse or
the library rejects is bad usage, and its subcommand's usage line follows the
message; so is a surface flag that the family does not take, or any surface
flag beside a descriptor path or beside ``cover --points``.  A non-finite
number the library rejects (a surface parameter, ``slab --c``, ``shear
--epsilon``), a file's contents (a repeated descriptor key among them), an
exceeded budget and an arithmetic overflow are operation errors.
``--m``/``--m-list``, ``--n``/``--n-list`` and ``--size``/``--size-list`` are
each one flag taking a comma-separated integer list.
"""

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import __version__
from .estimate import MeasureEstimate, NonFiniteError, require_int
from .extremal import GridPoset, layer_construct, layer_size, max_antichain, middle_layer_index, wn_construct
from .gridcover import PointCloud, covering_bound, grid_cover
from .lattice import Order, PointSet, classify, load_point_set
from .partition import exhaustive_gap_scan, greedy_partition, projection_gap, random_gap_scan
from .shear import ShearParams, rescale_to_unit, shear_points
from .surfaces import (
    _FAMILIES,
    LpSphere,
    SingularStaircase,
    _numbers,
    _surface_from_fields,
    parse_surface_descriptor,
    projection_measure,
    skew_measures_2d,
    slab_volume,
    staircase_polyline,
    surface_measure,
    verify_projection_inequality,
)

USAGE_EXIT = 64


class UsageError(Exception):
    """Bad flags; ``parser`` is the (sub)parser whose usage line applies, if any."""

    def __init__(self, message, parser=None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self)


def _int_list(text: str) -> list[int]:
    """A non-empty comma-separated integer list; empty items are skipped."""
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    return values


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


@contextlib.contextmanager
def _as_usage():
    """Report a ValueError as bad usage, around calls whose every ValueError is a flag's rule.

    Non-finite numbers stay operation errors, as the library raises them.
    """
    try:
        yield
    except NonFiniteError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _derived_scale(ps: PointSet) -> int:
    """What a point file's coordinates are divided by: the largest plus 1, and at least 1."""
    return max(max((max(p) for p in ps), default=0) + 1, 1)


def _given_surface_flags(args) -> list[str]:
    return [key for key in _SURFACE_FLAGS if getattr(args, key) is not None]


def _refuse_surface_flags(args, target: str) -> None:
    """A surface flag beside ``target``, which takes none, is a usage error."""
    given = _given_surface_flags(args)
    if given:
        raise UsageError(f"{target} takes no --{given[0]}")


def _surface_from_args(args) -> object:
    """Build a surface from --surface: a family name plus flags, or a descriptor path.

    The surface flags are named after the descriptor keys, so an inline
    surface becomes descriptor entries for the one descriptor parser.
    Invalid inline parameters (a flag the family does not take, or any flag
    beside a descriptor path) are usage errors, except non-finite numbers,
    which the family rejects as an operation error; a broken descriptor
    file is a data problem and surfaces as an operation error too.
    """
    name = args.surface
    family = _FAMILIES.get(name)
    if family is None:
        _refuse_surface_flags(args, "a surface descriptor")
        try:
            with open(name, "r", encoding="utf-8") as fh:
                return parse_surface_descriptor(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read surface descriptor {name!r}: {exc}") from exc
    if any(getattr(args, key) in (None, "") for key in family._required):
        raise UsageError(f"{name} needs " + " and ".join(f"--{k}" for k in family._required))
    entries = [("family", name)]
    for key in _given_surface_flags(args):
        value = getattr(args, key)
        for item in value if isinstance(value, list) else [value]:
            entries.append((key, item if isinstance(item, str) else repr(item)))
    with _as_usage():
        return _surface_from_fields(entries)


def _estimate_json(est: MeasureEstimate) -> dict:
    """An estimate's JSON; ``"converged": false`` marks one that missed its tolerance.

    Converged estimates carry no flag, so their output stays as it was.
    """
    payload = {
        "value": est.value,
        "errorBound": est.error_bound,
        "method": est.method,
        "upperBoundOnly": est.upper_bound_only,
    }
    if not est.converged:
        payload["converged"] = False
    return payload


# JSON output is, to the byte, what json.dumps writes with sorted keys, an
# indent of 2 and allow_nan=False.  json uses its C encoder only without an
# indent, so an indented payload went through the pure-Python encoder one
# value at a time; the writer below sends each point list, most of any large
# output, through the C encoder in one pass.

_INT_ROW_TYPES = {list, tuple}
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _json_scalar(obj) -> str:
    """json's text of a value that is not a list, tuple or dict, in json's own type order."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    # a non-finite float or a type json does not write: json raises its own
    # ValueError or TypeError; with an indent it takes the encoder that
    # writes the payloads, whose message names the value
    return json.dumps(obj, indent=0, allow_nan=False)


def _json_int_rows(rows, newline: str) -> str | None:
    """The indented text of ``rows`` if it is a list of non-empty rows of exact ints, else None.

    The C encoder's compact text of such a list has a comma between two
    numbers and "],[" between two rows and no other punctuation inside, so
    two replacements put in the line breaks and indents.
    """
    if not (
        set(map(type, rows)) <= _INT_ROW_TYPES
        and all(rows)
        and set(map(type, chain.from_iterable(rows))) == {int}
    ):
        return None
    inner = newline + "  "
    cell = inner + "  "
    body = _compact_json(rows)[2:-2].replace(",", "," + cell)
    body = body.replace("]," + cell + "[", inner + "]," + inner + "[" + cell)
    return "[" + inner + "[" + cell + body + inner + "]" + newline + "]"


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append the indented JSON text of ``obj``, whose lines inside start with ``newline``."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        rows = _json_int_rows(obj, newline)
        if rows is not None:
            out.append(rows)
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # sorted as json sorts, before a key that is not a str gets json's
        # text, or json's own TypeError for a type a key cannot have
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                number = isinstance(key, (int, float)) or key is None
                key = _json_scalar(key) if number else json.dumps({key: 0}, indent=0)
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(_json_scalar(obj))


def _json_text(payload) -> str:
    """The text, or the error, of json.dumps with sorted keys, an indent of 2 and no NaN."""
    out: list[str] = []
    _write_json(payload, "\n", out)
    return "".join(out)


def _emit(args, payload, rows=None, header=None) -> None:
    """Write JSON or, where the subcommand offers it and it was requested, CSV."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = _json_text(payload) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers: return (payload, rows, header, ok)


def _cmd_check(args):
    ps = load_point_set(args.points)
    cls = classify(ps)
    payload = {
        "dim": ps.dim,
        "size": len(ps),
        "is_antichain": cls.is_antichain,
        "is_weak_antichain": cls.is_weak_antichain,
    }
    ok = True
    if args.expect == "antichain":
        ok = cls.is_antichain
    elif args.expect == "weak-antichain":
        ok = cls.is_weak_antichain
    return payload, None, None, ok


def _cmd_partition(args):
    ps = load_point_set(args.points)
    cert = greedy_partition(ps)
    cert.validate()
    payload = {
        "dim": ps.dim,
        "size": len(ps),
        "part_sizes": [len(p) for p in cert.parts],
        "projection_sizes_per_part": list(cert.per_part_projection_sizes),
        "parts": [[list(pt) for pt in part] for part in cert.parts],
    }
    return payload, None, None, True


def _cmd_gap(args):
    ps = load_point_set(args.points)
    report = projection_gap(ps)
    payload = {
        "size": report.set_size,
        "projections": list(report.projection_sizes),
        "gap": report.gap,
    }
    ok = True if args.min_gap is None else report.gap >= args.min_gap
    return payload, None, None, ok


def _cmd_gap_scan(args):
    random = args.sample is not None
    with _as_usage():
        # one rule for both modes, though the random mode spends no budget
        require_int("budget", args.budget, 0)
        results = [
            random_gap_scan(args.n, args.k, size, args.sample, seed=args.seed)
            if random
            else exhaustive_gap_scan(args.n, args.k, size, budget=args.budget)
            for size in args.size
        ]
    reference = args.n - 1
    payload = {
        "n": args.n,
        "k": args.k,
        "mode": "random" if random else "exhaustive",
        "reference_gap": reference,
        "rows": [
            {
                "size": r.size,
                "min_gap": r.min_gap,
                "weak_count": r.weak_count,
                "witness": [list(p) for p in r.witness] if r.witness is not None else None,
            }
            for r in results
        ],
    }
    header = ["size", "min_gap", "reference_gap", "weak_count", "witness"]
    rows = [
        [
            r.size,
            r.min_gap,
            reference,
            r.weak_count,
            "" if r.witness is None else ";".join(",".join(map(str, p)) for p in r.witness),
        ]
        for r in results
    ]
    ok = all(r.min_gap is None or r.min_gap >= reference for r in results)
    return payload, rows, header, ok


def _cmd_width(args):
    order = Order.STRONG if args.order == "weak" else Order.STRICT
    with _as_usage():
        grids = [GridPoset(n, m, order) for n in args.n for m in args.m]
        results = [(g.n, g.m, max_antichain(g, budget=args.budget)) for g in grids]
    if len(results) == 1:
        n, m, result = results[0]
        payload = {
            "n": n,
            "m": m,
            "order": args.order,
            "width": result.width,
            "method": result.method,
            "witness": [list(p) for p in result.witness],
        }
    else:
        payload = {
            "order": args.order,
            "rows": [
                {"n": n, "m": m, "width": r.width, "method": r.method}
                for n, m, r in results
            ],
        }
    header = ["n", "m", "order", "width", "method"]
    rows = [[n, m, args.order, r.width, r.method] for n, m, r in results]
    return payload, rows, header, True


def _cmd_layer(args):
    with _as_usage():
        ell = middle_layer_index(args.n, args.m) if args.ell is None else args.ell
        points = layer_construct(args.n, args.m, ell)
        size = layer_size(args.n, args.m, ell)
    payload = {
        "n": args.n,
        "m": args.m,
        "ell": ell,
        "size": size,
        "points": [list(p) for p in points],
    }
    return payload, None, None, True


def _cmd_wn(args):
    with _as_usage():
        points = wn_construct(args.n, args.m)
    payload = {
        "n": args.n,
        "m": args.m,
        "size": len(points),
        "points": [list(p) for p in points],
    }
    return payload, None, None, True


def _cmd_cover(args):
    if args.points is not None:
        _refuse_surface_flags(args, "--points")
        ps = load_point_set(args.points)
        target = PointCloud(ps.dim, tuple(rescale_to_unit(ps, _derived_scale(ps))))
    else:
        target = _surface_from_args(args)
    entries = []
    for m in args.m:
        # the target is built, so grid_cover rejects only m or a negative budget
        with _as_usage():
            cov = grid_cover(target, m, budget=args.budget)
        bound = covering_bound(cov).value if cov.dim >= 2 else None
        entries.append(
            {
                "m": m,
                "count": len(cov),
                "ratio": len(cov) / m**cov.dim,
                "bound": bound,
                "exact": cov.exact,
            }
        )
    payload = entries[0] if len(entries) == 1 else {"curve": entries}
    header = ["m", "count", "ratio", "bound", "exact"]
    rows = [list(e.values()) for e in entries]
    return payload, rows, header, True


def _cmd_measure(args):
    surface = _surface_from_args(args)
    if args.axis is not None:
        with _as_usage():
            est = projection_measure(surface, args.axis, args.tol)
    else:
        est = surface_measure(surface, args.tol)
    return _estimate_json(est), None, None, True


def _cmd_verify(args):
    surface = _surface_from_args(args)
    report = verify_projection_inequality(surface, args.tol)
    payload = {
        "dim": report.dim,
        "surface": _estimate_json(report.surface),
        "projections": [_estimate_json(p) for p in report.projections],
        "right_total": report.right_total,
        "tolerance": report.tolerance,
        "passes": report.passes,
        "left_within_dim_bound": report.left_within_dim_bound,
        "right_within_dim_bound": report.right_within_dim_bound,
    }
    return payload, None, None, report.passes


def _cmd_skew2d(args):
    surface = _surface_from_args(args)
    report = skew_measures_2d(surface, args.tol)
    payload = {
        "surface": _estimate_json(report.surface),
        "delta1": _estimate_json(report.delta_parts[0]),
        "delta2": _estimate_json(report.delta_parts[1]),
        "delta_total": report.delta_total,
        "tolerance": report.tolerance,
        "passes": report.passes,
    }
    return payload, None, None, report.passes


def _cmd_shear(args):
    ps = load_point_set(args.points)
    scale = _derived_scale(ps) if args.scale is None else args.scale
    with _as_usage():
        params = ShearParams(n=ps.dim, epsilon=args.epsilon)
        image = shear_points(rescale_to_unit(ps, scale), params)
    cls = classify(image) if image else None
    payload = {
        "n": ps.dim,
        "epsilon": args.epsilon,
        "scale": scale,
        "inverse_lipschitz": params.inverse_lipschitz,
        "points": [list(p) for p in image],
        "is_antichain": cls.is_antichain if cls else True,
    }
    return payload, None, None, True


def _cmd_slab(args):
    with _as_usage():
        value = slab_volume(args.n, args.c)
    return {"n": args.n, "c": args.c, "volume": value}, None, None, True


def _cmd_staircase(args):
    with _as_usage():
        stair = SingularStaircase(depth=args.depth)
    est = surface_measure(stair)
    payload = {"depth": args.depth, "length": est.value, "vertices": 2 ** (args.depth + 1)}
    # 2^(depth+1) vertices: built only when they are printed
    verts = None
    if args.vertices or args.format == "csv":
        verts = staircase_polyline(args.depth)
        if args.vertices:
            payload["polyline"] = verts
    return payload, verts, ["x", "y"], True


def _cmd_p_sweep(args):
    with _as_usage():
        spheres = [LpSphere(n=args.n, p=p) for p in _numbers(args.p_list)]
    if not spheres:
        raise UsageError("p-sweep needs a non-empty --p-list")
    entries = []
    for sphere in spheres:
        est = surface_measure(sphere, args.tol)
        entries.append({"p": sphere.p, "value": est.value, "errorBound": est.error_bound})
    payload = {"n": args.n, "rows": entries}
    header = ["p", "value", "error_bound"]
    rows = [[e["p"], e["value"], e["errorBound"]] for e in entries]
    return payload, rows, header, True


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="antichains", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name, handler, help, table=None):
        # table: the default format where CSV is offered; parser: what a usage error prints
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, parser=p, format=table)
        return p

    p = command("check", _cmd_check, "classify a point set")
    p.add_argument("--points", required=True)
    p.add_argument("--expect", choices=("antichain", "weak-antichain"))

    p = command("partition", _cmd_partition, "greedy partition certificate of a weak antichain")
    p.add_argument("--points", required=True)

    p = command("gap", _cmd_gap, "projection sizes and gap of a point set")
    p.add_argument("--points", required=True)
    p.add_argument("--min-gap", type=int, dest="min_gap")

    p = command("gap-scan", _cmd_gap_scan, "minimum gap over weak antichains in a box", "csv")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--size", "--size-list", type=_int_list, required=True)
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--sample", type=int, help="sample this many random weak antichains instead")
    p.add_argument("--seed", type=int, default=0)

    p = command("width", _cmd_width, "maximum antichain of a grid poset", "json")
    p.add_argument("--n", "--n-list", type=_int_list, required=True, help="dimensions")
    p.add_argument("--m", "--m-list", type=_int_list, required=True, help="chain lengths")
    p.add_argument("--order", choices=("antichain", "weak"), default="antichain")
    # the slowest grids within the default, (16,2) and (10,3) under the weak
    # order, take about 1 s each, most of it printing a 60k-point witness
    p.add_argument("--budget", type=int, default=65_536)

    p = command("layer", _cmd_layer, "a constant-coordinate-sum layer of the grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int)

    p = command("wn", _cmd_wn, "the zero-coordinate maximum weak antichain of the grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = command("cover", _cmd_cover, "grid cells meeting a point set or surface", "json")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--points")
    target.add_argument("--surface")
    p.add_argument("--m", "--m-list", type=_int_list, required=True, help="grid resolutions")
    p.add_argument("--budget", type=int, default=2_000_000)
    _surface_flags(p)

    p = command("measure", _cmd_measure, "surface or projection measure of a surface")
    p.add_argument("--surface", required=True)
    p.add_argument("--axis", type=int, help="projection axis; omit for the surface measure")
    p.add_argument("--tol", type=_tolerance)
    _surface_flags(p)

    p = command("verify", _cmd_verify, "check the projection inequality for a surface")
    p.add_argument("--surface", required=True)
    p.add_argument("--tol", type=_tolerance)
    _surface_flags(p)

    p = command("skew2d", _cmd_skew2d, "skewed-projection measures in the plane")
    p.add_argument("--surface", required=True)
    p.add_argument("--tol", type=_tolerance)
    _surface_flags(p)

    p = command("shear", _cmd_shear, "shear a point set into an antichain")
    p.add_argument("--points", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--scale", type=int, help="divide coordinates by this (default: max+1)")

    p = command("slab", _cmd_slab, "volume of the centred coordinate-sum slab")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)

    p = command(
        "staircase", _cmd_staircase, "singular staircase approximation and its length", "json"
    )
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--vertices", action="store_true", help="include the polyline in JSON")

    p = command("p-sweep", _cmd_p_sweep, "sphere measures for a list of p values", "csv")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--p-list", dest="p_list", required=True)
    p.add_argument("--tol", type=_tolerance)

    # every subcommand ends with --output and --format
    for p in sub.choices.values():
        table = p.get_default("format")
        p.add_argument("--output", help="write to this path instead of stdout")
        formats = ("json",) if table is None else ("json", "csv")
        p.add_argument("--format", choices=formats, default=table or "json")
    return parser


# parse_args leaves no state on the parser, so main builds it once per process
@functools.cache
def _parser() -> _Parser:
    return build_parser()


# the descriptor keys of the surface families, each given by the flag of its name
_SURFACE_FLAGS = {
    "n": dict(type=int, help="surface dimension (hyperplane/lpsphere/tabulated)"),
    "p": dict(type=float, help="sphere exponent"),
    "gradient": dict(help="comma-separated gradient of a linear graph"),
    "offset": dict(type=float, help="linear graph offset"),
    "box": dict(action="append", help="base box lo:hi per axis, comma separated; repeatable"),
    "sample": dict(action="append", help="tabulated sample: coordinates then value"),
    "depth": dict(type=int, help="staircase depth"),
}


def _surface_flags(p) -> None:
    for key, spec in _SURFACE_FLAGS.items():
        p.add_argument(f"--{key}", **spec)


def main(argv=None) -> int:
    parser = _parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required", parser)
        payload, rows, header, ok = args.handler(args)
        _emit(args, payload, rows, header)
    except SystemExit as exc:
        # only --help and --version leave parse_args this way, once their text is out
        return exc.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        (exc.parser or args.parser).print_usage(sys.stderr)
        return USAGE_EXIT
    except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
