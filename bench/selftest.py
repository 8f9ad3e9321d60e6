"""Self-test of the benchmark harness.

Usage: python3 bench/selftest.py

* Runs every workload for a fraction of a second, untraced and traced, and
  checks that each metric is printed with its unit, that the JSON line
  carries exactly the metrics ``BENCHMARK.json`` lists, and that no
  operation failed.
* Feeds one deliberately wrong reference answer and checks that the
  operations land in ``failed_frac``.
* Checks that the benchmark refuses to run without the clasplab sources.
* Checks the verdicts of ``compare.py`` on made-up runs.

Writes only under ``bench/out/selftest``.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import compare
import run

OUT = run.BENCH / "out" / "selftest"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_workload(workload: str, trace: int) -> None:
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace),
         "--out-dir", str(OUT)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    for name, unit in units.items():
        pattern = rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b"
        assert any(re.match(pattern, ln) for ln in lines), \
            f"{workload}: {name} [{unit}] not printed"
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, \
        f"{workload} trace {trace}: {done.stdout}"
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in last["metrics"].items()}, \
        f"{workload}: JSON metrics differ from BENCHMARK.json"


def check_wrong_reference() -> None:
    sys.path.insert(0, str(run.SRC))
    import reference
    import workloads

    wl = workloads.WORKLOADS["braid_obstruct"]
    right = reference.braid2_ruling_count
    reference.braid2_ruling_count = lambda k: right(k) + 1
    try:
        loop = run.measure(wl.op, wl.check, wl.setup(0, OUT), 0.1)
    finally:
        reference.braid2_ruling_count = right
    metrics, _ = run.latency_metrics(loop)
    assert loop.attempted >= 1 and metrics["failed_frac"] == 1.0, metrics
    assert "distinct rulings" in loop.errors[0], loop.errors


def check_bare_directory() -> None:
    """Without src/ the benchmark exits non-zero and prints no result."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "torus_obstruct",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout


def check_verdicts() -> None:
    base = [10.0 + 0.01 * i for i in range(10)]
    faster = [v * 1.2 for v in base]
    slower = [v * 0.7 for v in base]
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(base, faster, "higher", 0.1)[0] == "improved"
    assert compare.verdict(base, faster, "higher", 0.1, True)[0] == "no worse"
    assert compare.verdict(base, faster, "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, slower, "higher", 0.1)[0] == "worse"
    assert compare.verdict(base, base, "higher", 0.1)[0] == "no worse"
    assert compare.verdict(noisy, base, "higher", 0.1)[0] == "unresolved"
    assert compare.verdict(base[:5], faster[:5], "higher", 0.1)[0] == \
        "no worse"  # too few pairs to claim a gain


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    check_verdicts()
    check_wrong_reference()
    check_bare_directory()
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            check_workload(workload, trace)
            print(f"ok  {workload} trace {trace}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
