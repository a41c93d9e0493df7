"""The CLI's JSON writer against json.dumps with sorted keys, indent 2 and no NaN.

``cli._json_text`` must give the same text as that call, or raise the same
exception with the same message.  Seeded random payloads cover nested
dicts, lists and tuples, empty ones too; rows of ints that the writer's one
pass takes and rows it must not (a bool, a float, an IntEnum or an empty
row among the ints); negative and 20-digit ints; -0.0, 1e-300 and 1e300;
IntEnum, float and str subclasses; keys and values with non-ASCII, control
and quote characters; keys that are not strings; and NaN and infinities,
which must raise json's own ValueError.  Every JSON payload of the golden
CLI file is checked too.  Run as a script, ``python tests/test_cli_json.py
CASES`` checks CASES random payloads outside tier-1.
"""

import enum
import json
import math
import pathlib
import random
import sys
import time

import pytest

from antichains import cli
from antichains.cli import _json_text

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text("utf-8"))


class Shade(enum.IntEnum):
    DARK = -3
    LIGHT = 12


class Real(float):
    # json writes a float subclass by float.__repr__, not by its own repr
    def __repr__(self):
        return f"Real({float(self)!r})"


class Text(str):
    pass


_TEXTS = ["", "a", "size", "é", "日本", "\x00", "\x1f", "\n\t\r", '"', "\\", "'", "\u2028", "\x7f", "😀"]
_TEXTS.append('q"\\u00e9')
_SPECIAL = [math.nan, math.inf, -math.inf]


def _oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _outcome(write, obj):
    try:
        return "text", write(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _int(rng: random.Random) -> int:
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return rng.randint(-(10**6), 10**6)
    digits = rng.randint(10**19, 10**20 - 1)  # 20 digits
    return -digits if kind == 2 else digits if kind == 3 else rng.randint(0, 60)


def _text(rng: random.Random) -> str:
    text = "".join(rng.choice(_TEXTS) for _ in range(rng.randint(0, 3)))
    return Text(text) if rng.random() < 0.1 else text


def _scalar(rng: random.Random, special: float):
    kind = rng.randrange(10)
    if kind == 0:
        return rng.choice([-0.0, 0.0, 1e-300, 1e300, -1e300, 0.1, 2.5, 1 / 3])
    if kind == 1:
        return Real(rng.choice([-0.0, 1e-300, 1e300, 0.5]))
    if kind == 2:
        return rng.choice([None, True, False])
    if kind == 3:
        return rng.choice(list(Shade))
    if kind == 4:
        return _text(rng)
    if kind == 5 and rng.random() < special:
        return Real(rng.choice(_SPECIAL)) if rng.random() < 0.2 else rng.choice(_SPECIAL)
    return _int(rng)


def _rows(rng: random.Random, special: float):
    """Points as the CLI writes them, now and then with one entry the one pass must refuse."""
    width = rng.randint(1, 4)
    rows = [
        rng.choice((list, tuple))(_int(rng) for _ in range(width)) for _ in range(rng.randint(1, 6))
    ]
    if rng.random() < 0.4:
        row = list(rows[rng.randrange(len(rows))])
        where = rng.randrange(len(row))
        row[where] = rng.choice([True, False, 1.0, -0.0, Shade.DARK, None, "1", []])
        if rng.random() < special:
            row[where] = rng.choice(_SPECIAL)
        rows[rng.randrange(len(rows))] = row
    if rng.random() < 0.15:
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(([], ())))
    return rows


def _key(rng: random.Random, kind: str):
    if kind == "text":
        return _text(rng)
    if kind == "int":
        return rng.choice([_int(rng), Shade.LIGHT, True, False])
    if kind == "float":
        return rng.choice([-0.0, 1e-300, 1e300, 0.25, Real(2.0)])
    return rng.choice([_text(rng), _int(rng), 0.5, None])  # mixed kinds rarely sort


def _value(rng: random.Random, depth: int, special: float):
    kind = rng.randrange(6) if depth > 0 else 0
    if kind in (0, 1):
        return _scalar(rng, special)
    if kind == 2:
        return _rows(rng, special)
    if kind == 3:
        keys = rng.choices(["text", "int", "float", "mixed"], [12, 2, 2, 1])[0]
        return {_key(rng, keys): _value(rng, depth - 1, special) for _ in range(rng.randint(0, 4))}
    items = [_value(rng, depth - 1, special) for _ in range(rng.randint(0, 4))]
    return tuple(items) if kind == 4 else items


def _payload(rng: random.Random):
    # one payload in five may hold a NaN or an infinity; most are dicts, as
    # the CLI's are
    special = 0.5 if rng.random() < 0.2 else 0.0
    if rng.random() < 0.1:
        return _value(rng, rng.randint(0, 4), special)
    return {_text(rng): _value(rng, rng.randint(1, 4), special) for _ in range(rng.randint(1, 6))}


def _check(obj) -> str:
    got, want = _outcome(_json_text, obj), _outcome(_oracle, obj)
    assert got == want, (obj, got, want)
    return "text" if got[0] == "text" else got[0].__name__


def _sweep(cases: int, seed: int = 41) -> dict[str, int]:
    rng = random.Random(seed)
    counts: dict[str, int] = {}
    for _ in range(cases):
        kind = _check(_payload(rng))
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def test_random_payloads_match_json_dumps(monkeypatch):
    one_pass = []

    def rows(obj, newline):
        text = int_rows(obj, newline)
        one_pass.append(text is not None)
        return text

    int_rows = cli._json_int_rows
    monkeypatch.setattr(cli, "_json_int_rows", rows)
    start = time.perf_counter()
    counts = _sweep(2000)
    elapsed = time.perf_counter() - start
    # the sweep reaches the text, both errors, and lists the one pass takes
    # and refuses
    assert counts["text"] > 1500 and counts["ValueError"] > 50 and counts["TypeError"] > 20, counts
    assert one_pass.count(True) > 500 and one_pass.count(False) > 500
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        (),
        [[]],
        [(), ()],
        [[0]],
        ((1, -2), [3, 4]),
        [[10**19, -(10**19)], [7, 0]],
        [[True, 1]],
        [[1.0, 2]],
        [[Shade.DARK, 1]],
        [[1, 2], []],
        {"a": [[0, 1], [1, 0]], "b": {"c": [[5]]}},
        [-0.0, 1e-300, 1e300, Real(-0.0), Text('"\n')],
        {Text("é"): Shade.LIGHT, "\x00": None},
        {1: "a", 0.5: "b", True: "c"},
        {None: 1},
        {"a": 1, 2: 3},
        {(1, 2): 0},
        [object()],
        math.nan,
        [math.inf],
        {"x": [[0, 1], [-math.inf]]},
        {math.nan: 1},
        [[1, 2], [3, math.nan]],
    ],
)
def test_chosen_payloads_match_json_dumps(obj):
    _check(obj)


def test_golden_payloads_round_trip():
    checked = 0
    for case in GOLDEN["cases"]:
        out = case["stdout"]
        if not out.startswith(("{", "[")):
            continue  # a CSV table or no output
        payload = json.loads(out)
        assert _json_text(payload) + "\n" == out == _oracle(payload) + "\n", case["id"]
        checked += 1
    assert checked > 30


if __name__ == "__main__":
    cases = int(sys.argv[1])
    counts = _sweep(cases)
    print(f"{cases} random payloads: the same text or error as json.dumps {counts}")
