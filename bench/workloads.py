"""The benchmark's four workloads: inputs from the seed, one operation, a check.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  An operation is called through
``call(name, fn, *args)``, which the benchmark swaps for a span recorder or
a counter in traced runs; untraced runs call the function directly.

Why these four (see README.md for the layer map):

* ``torus_obstruct`` -- one ruling, width 22: nearly all time is the
  ``rulings`` search, so it is the workload a width-reducing scan moves.
* ``braid_obstruct`` -- 1597 rulings, width 4: nearly all time is the
  per-ruling ``clasps`` report, and ``rulings`` is exercised by listing many
  outputs rather than pruning a wide state.
* ``random_fillings`` -- seeded random scripts run to a certificate: the
  ``moves`` layer (enumerate, apply, transport) and ``fillability``.
* ``cli_cold`` -- one ``python -m clasplab.cli`` process per operation:
  interpreter start, imports and argument parsing, which every compute
  optimisation bypasses.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import clasplab
from clasplab import fillability

import reference

ROOT = Path(__file__).resolve().parent.parent

TORUS_N = 3
BRAID_K = 16
#: random_fillings cycles through script lengths 1..MAX_SCRIPT.
MAX_SCRIPT = 25


@dataclass(frozen=True)
class Workload:
    """One workload.

    ``setup(seed, workdir)`` builds the inputs and returns ``input_at(i)``,
    the input of operation i.  ``op(input, call)`` runs one operation in
    this process; ``timed_op`` is what the end-to-end run times, when that
    differs.  ``check(input, result)`` returns None for a correct result
    and a reason otherwise.  ``cycle`` operations cover every kind of input
    once; the counting pass of a traced run runs exactly that many.
    """

    name: str
    setup: Callable
    op: Callable
    check: Callable
    cycle: int
    timed_op: Optional[Callable] = None


def _word(diagram) -> list:
    return [(e.kind, e.pos) for e in diagram.events]


# ---------------------------------------------------------------------------
# obstruction verdicts

def _verdict_op(diagram, call):
    return call("fillability.obstruction_verdict",
                fillability.obstruction_verdict, diagram)


def _torus_setup(seed: int, workdir: Path):
    diagram = clasplab.generate_torus4(TORUS_N)
    return lambda i: diagram


def _check_torus(diagram, verdict) -> Optional[str]:
    word = _word(diagram)
    counts = {kind: sum(1 for k, _ in word if k == kind)
              for kind in ("lc", "rc", "x")}
    if counts != reference.torus4_word_shape(TORUS_N) \
            or not reference.is_closed_word(word) \
            or reference.n_components(word) != 1:
        return f"torus4({TORUS_N}) word has the wrong shape"
    clasps = reference.torus4_clasps(TORUS_N)
    if not verdict.obstructed or len(verdict.evidence) != 1:
        return (f"expected obstructed with one ruling, got "
                f"{verdict.verdict} with {len(verdict.evidence)}")
    ruling = verdict.evidence[0]
    if ruling.clasps != clasps or ruling.parity != "odd":
        return f"expected {clasps} clasps (odd), got {ruling.clasps}"
    if reference.ruling_clasps(word, ruling.switches) != clasps:
        return "the reference scan disagrees with the ruling's clasps"
    return None


def _braid_setup(seed: int, workdir: Path):
    diagram = clasplab.generate_negative_braid_closure(2, [1] * BRAID_K)
    return lambda i: diagram


def _check_braid(diagram, verdict) -> Optional[str]:
    word = _word(diagram)
    if word != [("lc", 1), ("lc", 2)] + [("x", 1)] * BRAID_K \
            + [("rc", 2), ("rc", 1)]:
        return "braid closure word is wrong"
    want = reference.braid2_ruling_count(BRAID_K)
    switch_sets = {e.switches for e in verdict.evidence}
    if len(verdict.evidence) != want or len(switch_sets) != want:
        return (f"expected F({BRAID_K + 1}) = {want} distinct rulings, got "
                f"{len(verdict.evidence)} ({len(switch_sets)} distinct)")
    if verdict.obstructed or verdict.witness is None:
        return "expected not obstructed, with an even witness"
    clasps = reference.ruling_clasps(word, verdict.witness)
    if clasps is None or clasps % 2:
        return f"witness {verdict.witness} is not an even normal ruling"
    if any(e.parity != ("odd" if e.clasps % 2 else "even")
           for e in verdict.evidence):
        return "a ruling's parity disagrees with its clasp count"
    return None


# ---------------------------------------------------------------------------
# random filling scripts

def _fillings_setup(seed: int, workdir: Path):
    return lambda i: (1 + i % MAX_SCRIPT, seed + i)


def _fillings_op(inp, call):
    length, seed = inp
    script = call("fillability.random_script", fillability.random_script,
                  length, seed)
    return script, call("fillability.run_script", fillability.run_script,
                        script)


def _check_fillings(inp, result) -> Optional[str]:
    length, _ = inp
    script, certificate = result
    if len(script) != length or tuple(script) != certificate.script:
        return f"asked for {length} moves, got {len(script)}"
    word = reference.replay_script(script)
    if word != _word(certificate.diagram):
        return "certificate diagram differs from the replayed script"
    clasps = reference.ruling_clasps(word, certificate.ruling)
    if clasps is None:
        return "certificate ruling is not normal"
    if clasps % 2 or clasps != certificate.report.total \
            or certificate.report.parity != "even":
        return (f"certificate has {certificate.report.total} clasps "
                f"({certificate.report.parity}); reference counts {clasps}")
    return None


# ---------------------------------------------------------------------------
# CLI cold start

def _cli_commands(seed: int, workdir: Path) -> list:
    """The six subcommands, each with a checker of its stdout."""
    k = 6 + seed % 7
    n = seed % 3
    trefoil = workdir / "trefoil.front"
    script = workdir / "hand.script"

    def obstruct(out):
        return json.loads(out) == {
            "verdict": "obstructed", "witness": None, "note": None,
            "rulings": [{"switches": reference.TORUS4_N0_SWITCHES,
                         "clasps": reference.torus4_clasps(0),
                         "parity": "odd"}]}

    def parity(out):
        return json.loads(out) == [
            {"switches": r, "clasps": c, "parity": "odd" if c % 2 else "even"}
            for r, c in zip(reference.TREFOIL_RULINGS,
                            reference.TREFOIL_CLASPS)]

    def braid_rulings(out):
        rulings = json.loads(out)
        return (len(rulings) == reference.braid2_ruling_count(k)
                and len({tuple(r) for r in rulings}) == len(rulings)
                and all(r == sorted(set(r)) and set(r) <= set(range(1, k + 1))
                        for r in rulings))

    def generated(out):
        word = [(kind, int(p)) for kind, p in
                (line.split() for line in out.splitlines())]
        counts = {kind: sum(1 for kd, _ in word if kd == kind)
                  for kind in ("lc", "rc", "x")}
        return (counts == reference.torus4_word_shape(n)
                and reference.is_closed_word(word)
                and reference.n_components(word) == 1)

    return [
        (["obstruct", "--generate", "torus4", "--n", "0"], obstruct),
        (["rulings", "--generate", "trefoil"],
         lambda out: json.loads(out) == reference.TREFOIL_RULINGS),
        (["parity", "--input", str(trefoil)], parity),
        (["rulings", "--generate", "braid", "--strands", "2",
          "--word", ",".join(["1"] * k)], braid_rulings),
        (["apply-script", "--script", str(script)],
         lambda out: json.loads(out) == reference.HAND_SCRIPT_RESULT),
        (["generate", "--generate", "torus4", "--n", str(n)], generated),
    ]


def _cli_setup(seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "trefoil.front").write_text(
        "".join(f"{kind} {p}\n" for kind, p in reference.TREFOIL))
    (workdir / "hand.script").write_text(reference.HAND_SCRIPT)
    commands = _cli_commands(seed, workdir)
    return lambda i: commands[i % len(commands)]


def _cli_in_process(inp, call):
    # Imported here so that only this workload's operations pay for the
    # CLI module; the other workloads' set-up time stays import-free of it.
    from clasplab import cli

    argv, _ = inp
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = call("cli.main", cli.main, argv)
    return code, out.getvalue()


def _cli_process(inp, call):
    argv, _ = inp
    done = subprocess.run([sys.executable, "-m", "clasplab.cli", *argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout


def _check_cli(inp, result) -> Optional[str]:
    argv, expected = inp
    code, out = result
    if code != 0:
        return f"{argv[0]} exited with {code}"
    try:
        ok = expected(out)
    except (ValueError, TypeError) as exc:
        return f"{argv[0]} printed unreadable output: {exc}"
    return None if ok else f"{argv[0]} printed a wrong answer"


WORKLOADS = {w.name: w for w in (
    Workload("torus_obstruct", _torus_setup, _verdict_op, _check_torus, 1),
    Workload("braid_obstruct", _braid_setup, _verdict_op, _check_braid, 1),
    Workload("random_fillings", _fillings_setup, _fillings_op,
             _check_fillings, MAX_SCRIPT),
    Workload("cli_cold", _cli_setup, _cli_in_process, _check_cli, 6,
             timed_op=_cli_process),
)}
