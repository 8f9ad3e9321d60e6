"""Golden CLI corpus: recorded invocations replayed byte for byte.

Each line of golden/cli_corpus.jsonl holds one invocation of
``clasplab.cli.main`` -- argv, optional stdin, exit code, stdout and
stderr.  The replay test runs every row again and compares all four
outputs exactly, so a refactor that keeps this file green keeps the CLI's
observable behaviour.

Re-record only when a behaviour change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "golden" / "cli_corpus.jsonl"

_INPUTS = (
    [["--generate", "unknot"], ["--generate", "trefoil"]]
    + [["--generate", "torus4", "--n", str(n)] for n in range(4)]
    + [["--generate", "braid", "--strands", "2",
        "--word", ",".join(["1"] * k)] for k in (3, 6, 9, 12)]
    + [["--generate", "braid", "--strands", "4",
        "--word", ",".join(["1,2,3"] * k)] for k in (1, 2, 3)]
)

_OPEN_FRONT = "lc 1\nlc 3\nx 2\nrc 3\n"
_HANDLE_SCRIPT = "h0 1 @1\nh0 3 @2\nh1 1 @2\nr1 2 @4 up\nr1 1 @2 down\n"
_BAD_SADDLE_SCRIPT = "h0 1 @1\nh0 3 @2\nh1 2 @3\n"


def corpus_invocations():
    """(argv, stdin) of every recorded invocation, in file order."""
    rows = []
    for source in _INPUTS:
        for command in ("rulings", "clasps", "parity", "obstruct",
                        "validate", "generate"):
            for fmt in ("json", "text"):
                rows.append(([command, *source, "--format", fmt], None))
        rows.append((["render", *source], None))
        rows.append((["render", *source, "--style", "ascii"], None))
        rows.append((["search", *source, "--depth", "3"], None))
        rows.append((["cobordism", *source, "--generate-upper", "unknot"],
                     None))
        rows.append((["cobordism", *source, "--generate-upper", "torus4",
                      "--upper-n", "0", "--format", "text"], None))
    for ruling in ("[1]", "[3]", "[1,2,3]"):
        rows.append((["render", "--generate", "trefoil", "--ruling", ruling],
                     None))
        for command in ("clasps", "parity"):
            rows.append(([command, "--generate", "trefoil", "--ruling",
                          ruling], None))
    for ruling in ("[5,6,7,11,12]", "[1,3,6,7,11,13,14]"):
        rows.append((["render", "--generate", "torus4", "--n", "0",
                      "--ruling", ruling], None))
    # error rows: a switch ordinal out of range, a spent budget, a
    # non-normal switch set, and an unclosed front on stdin
    for command in ("clasps", "parity", "render"):
        rows.append(([command, "--generate", "trefoil", "--ruling", "[99]"],
                     None))
    rows.append((["clasps", "--generate", "trefoil", "--ruling", "[2]"],
                 None))
    for command in ("rulings", "obstruct"):
        rows.append(([command, "--generate", "torus4", "--n", "1",
                      "--budget", "5"], None))
    rows.append((["rulings", "--generate", "braid", "--strands", "2",
                  "--word", "1,1,1,1,1,1", "--budget", "5"], None))
    for fmt in ("json", "text"):
        rows.append((["validate", "--input", "-", "--format", fmt],
                     _OPEN_FRONT))
    rows.append((["rulings", "--input", "-"], _OPEN_FRONT))
    # ruling transport through apply-script: births, a compatible saddle
    # and a tongue, then a saddle joining two different eyes
    for fmt in ("json", "text"):
        rows.append((["apply-script", "--script", "-", "--format", fmt],
                     _HANDLE_SCRIPT))
    rows.append((["apply-script", "--script", "-"], _BAD_SADDLE_SCRIPT))
    return rows


def invoke(argv, stdin=None):
    """Run cli.main in-process; return (exit code, stdout, stderr)."""
    from clasplab.cli import main
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    # a byte-backed stdin, as a process has: the CLI reads stdin.buffer
    sys.stdin = io.TextIOWrapper(io.BytesIO((stdin or "").encode("utf-8")),
                                 encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def load_corpus():
    with CORPUS.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_corpus_covers_the_invocation_list():
    rows = load_corpus()
    assert [(r["argv"], r["stdin"]) for r in rows] == \
        [(argv, stdin) for argv, stdin in corpus_invocations()]
    assert {r["exit"] for r in rows} == {0, 1}


def test_corpus_replays_byte_identical(monkeypatch):
    monkeypatch.delenv("CLASPLAB_BUDGET", raising=False)
    mismatches = []
    for row in load_corpus():
        code, out, err = invoke(row["argv"], row["stdin"])
        if (code, out, err) != (row["exit"], row["stdout"], row["stderr"]):
            mismatches.append(" ".join(row["argv"]))
    assert mismatches == []


def record():
    os.environ.pop("CLASPLAB_BUDGET", None)
    CORPUS.parent.mkdir(exist_ok=True)
    with CORPUS.open("w", encoding="utf-8") as fh:
        for argv, stdin in corpus_invocations():
            code, out, err = invoke(argv, stdin)
            fh.write(json.dumps({"argv": argv, "stdin": stdin, "exit": code,
                                 "stdout": out, "stderr": err},
                                sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
