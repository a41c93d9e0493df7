"""Golden command-line runs: recorded stdout and exit code of every subcommand.

Each case in ``data/cli_golden.json`` gives an argv in which ``{dir}``
stands for a directory holding the point sets and surface descriptors of
the file's ``files`` table.  The recorded stdout must match exactly, so a
refactor that keeps the CLI contract passes this file unedited.  After an
intended output change, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from antichains.cli import main

DATA = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
GOLDEN = json.loads(DATA.read_text(encoding="utf-8"))


def _run(argv, directory):
    """Write the case files into ``directory`` and run one argv; returns (exit, stdout, stderr)."""
    for name, text in GOLDEN["files"].items():
        (directory / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{dir}", str(directory)) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=[c["id"] for c in GOLDEN["cases"]])
def test_cli_golden(case, tmp_path):
    code, out, err = _run(case["argv"], tmp_path)
    assert code == case["exit"]
    assert out == case["stdout"]
    if code == 64:
        assert out == "" and err.startswith("usage error: ")
    if code == 1:
        assert out == "" and err.startswith("error: ")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in GOLDEN["cases"]:
            case["exit"], case["stdout"], _ = _run(case["argv"], pathlib.Path(tmp))
    DATA.write_text(json.dumps(GOLDEN, indent=1) + "\n", encoding="utf-8")
