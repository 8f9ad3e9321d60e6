"""clasplab benchmark: one workload, end to end or traced.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a clasplab checkout and imports the package from
``src/``.  With ``--trace 0`` it times the workload as a closed loop with one
client for S seconds and reports the end-to-end metrics, in host-speed
normalised time (see hostspeed.py); with ``--trace 1`` it reports the
per-layer split instead (see README.md).  Every operation is
checked against a reference that does not come from clasplab, and a wrong
answer counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with an environment stamp, goes to ``<out-dir>/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("torus_obstruct", "braid_obstruct", "random_fillings",
                  "cli_cold")

#: Set-ups per run; setup_s is their median.
SETUPS = 11

#: Operation seconds between two host-speed probes.
BLOCK_S = 0.1

#: End-to-end metrics and units.  failed_frac is printed with the others;
#: the JSON line carries it as ``failed``/``attempted`` because on correct
#: code it is 0.
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "failed_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
E2E_IN_JSON = tuple(m for m in E2E_UNITS if m != "failed_frac")

LAYER_UNITS = {
    "rulings.enumerate_calls": "count", "rulings.enumerate_s": "s",
    "rulings.rulings_found": "count", "rulings.scan_steps": "count",
    "rulings.is_normal_calls": "count",
    "clasps.report_calls": "count", "clasps.report_s": "s",
    "clasps.resolve_s": "s", "clasps.pair_scans": "count",
    "clasps.pair_scan_s": "s",
    "moves.enumerate_calls": "count", "moves.enumerate_s": "s",
    "moves.moves_built": "count", "moves.built_per_accepted": "ratio",
    "moves.apply_calls": "count", "moves.apply_s": "s",
    "moves.transport_calls": "count", "moves.transport_s": "s",
    "moves.transport_failures": "count", "moves.entry_scan_s": "s",
    "diagram.validate_calls": "count", "diagram.validate_s": "s",
    "fillability.verdict_s": "s", "fillability.random_script_s": "s",
    "fillability.run_script_s": "s", "fillability.accept_ratio": "ratio",
    "cli.python_floor_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
    "cli.exit_nonzero": "count",
    "trace.overhead_frac": "ratio",
}


def _run_child(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


# ---------------------------------------------------------------------------
# environment stamp

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout, e.g. an exported tree
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def env_stamp() -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


# ---------------------------------------------------------------------------
# the closed loop

@dataclass
class Loop:
    """Outcome of one timed loop: every operation's seconds and failures.

    ``scales`` holds each operation's host-speed factor, so that
    ``normalised()`` gives its seconds on the reference host.
    """

    seconds: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def add(self, elapsed: float, error: str | None,
            scale: float = 1.0) -> None:
        self.seconds.append(elapsed)
        self.scales.append(scale)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def extend(self, other: "Loop") -> None:
        self.seconds += other.seconds
        self.scales += other.scales
        self.failed += other.failed
        self.errors += other.errors

    def normalised(self) -> list:
        return [s * k for s, k in zip(self.seconds, self.scales)]

    def ops_per_s(self, seconds: list) -> float:
        """Correct operations per second of operation time."""
        return (self.attempted - self.failed) / sum(seconds)


def attempt(op, check, inp, call) -> tuple:
    """Run and check one operation: (seconds, None or failure reason).

    The operation is timed; the check is not.  An exception from either is
    a failed operation, never the end of the run.
    """
    t0 = perf_counter()
    try:
        result = op(inp, call)
    except Exception as exc:  # counted as a failure, the loop goes on
        return perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    try:
        return elapsed, check(inp, result)
    except Exception as exc:  # a check that cannot read the result
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


def direct(span, fn, *args):
    return fn(*args)


def measure(op, check, input_at, seconds: float, call=direct,
            stop=lambda: False, probe=hostspeed.KERNEL) -> Loop:
    """Closed loop, one client: run operations 0, 1, ... for ``seconds``.

    The host's speed is probed before and after every block of about
    BLOCK_S seconds of operations, outside the operations' own times.
    """
    loop = Loop()
    deadline = perf_counter() + seconds
    i = 0
    before = probe.ms()
    done = False
    while not done:
        block, block_s = [], 0.0
        while block_s < BLOCK_S and not done:
            elapsed, error = attempt(op, check, input_at(i), call)
            block.append((elapsed, error))
            block_s += elapsed
            i += 1
            done = perf_counter() >= deadline or stop()
        after = probe.ms()
        scale = probe.scale(before, after)
        for elapsed, error in block:
            loop.add(elapsed, error, scale)
        before = after
    return loop


def _latencies(seconds: list) -> tuple:
    """(median ms, tail ms, tail percentile) of operation times.

    The tail is the highest percentile with at least ten samples beyond it.
    """
    ms = sorted(s * 1000 for s in seconds)
    n = len(ms)
    tail, tail_pct = (ms[n - 11], 100 * (n - 10) / n) if n > 10 \
        else (ms[-1], 100.0)
    return statistics.median(ms), tail, tail_pct


def latency_metrics(loop: Loop) -> tuple:
    """(metrics, details): throughput, median and tail latency, failures.

    The metrics are in normalised time; the details keep the raw figures.
    """
    seconds = loop.normalised()
    p50, tail, tail_pct = _latencies(seconds)
    metrics = {"ops_per_s": loop.ops_per_s(seconds),
               "op_p50_ms": p50,
               "op_tail_ms": tail,
               "failed_frac": loop.failed / loop.attempted}
    raw_p50, raw_tail, _ = _latencies(loop.seconds)
    details = {"op_samples": loop.attempted, "op_tail_pct": tail_pct,
               "raw_ops_per_s": loop.ops_per_s(loop.seconds),
               "raw_op_p50_ms": raw_p50, "raw_op_tail_ms": raw_tail,
               "host_speed_p50": statistics.median(loop.scales)}
    return metrics, details


# ---------------------------------------------------------------------------
# runs

def setup_times(workload: str, seed: int, workdir: Path) -> tuple:
    """SETUPS fresh-interpreter set-ups (import + inputs): (normalised, raw).

    Each child times the compute kernel itself, right after its set-up;
    importing is in-process Python work, which that kernel tracks.
    """
    probe = hostspeed.KERNEL
    normalised, raw = [], []
    for _ in range(SETUPS):
        done = _run_child([str(BENCH / "setup_probe.py"), workload, str(seed),
                           str(workdir)])
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        seconds, probe_ms = map(float, done.stdout.split()[-2:])
        raw.append(seconds)
        normalised.append(seconds * probe.scale(probe_ms, probe_ms))
    return normalised, raw


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def timed_run(wl, input_at, seconds: float, setups: tuple) -> tuple:
    """End-to-end metrics of one untraced run: (metrics, details, loop)."""
    # A CLI call starts an interpreter; the others compute in this process.
    op, probe = (wl.timed_op, hostspeed.PROCESS) if wl.timed_op \
        else (wl.op, hostspeed.KERNEL)
    attempt(op, wl.check, input_at(0), direct)  # warm caches and bytecode
    loop = measure(op, wl.check, input_at, seconds, probe=probe)
    metrics, details = latency_metrics(loop)
    metrics["setup_s"] = statistics.median(setups[0])
    # A CLI operation runs in a child process; the others in this one.
    metrics["peak_rss_mb"] = peak_rss_mb(children=wl.timed_op is not None)
    details["setup_samples"], details["raw_setup_samples"] = setups
    return metrics, details, loop


def _import_ms() -> float:
    """Cumulative import time of clasplab.cli from ``-X importtime``."""
    done = _run_child(["-X", "importtime", "-c", "import clasplab.cli"])
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "clasplab.cli":
            return int(parts[1]) / 1000
    raise RuntimeError("clasplab.cli missing from -X importtime output")


def cli_process_metrics(wl, input_at, loop: Loop) -> dict:
    """Interpreter floor, import time, and one cycle of CLI processes."""
    floor = []
    for _ in range(5):
        t0 = perf_counter()
        _run_child(["-c", "pass"])
        floor.append((perf_counter() - t0) * 1000)
    codes = []

    def recorded(inp, call):
        result = wl.timed_op(inp, call)
        codes.append(result[0])
        return result

    for i in range(wl.cycle):
        loop.add(*attempt(recorded, wl.check, input_at(i), direct))
    return {"cli.python_floor_ms": statistics.median(floor),
            "cli.import_ms": statistics.median([_import_ms() for _ in range(3)]),
            "cli.exit_nonzero": sum(code != 0 for code in codes)}


def traced_run(wl, input_at, seconds: float, spans_path: Path) -> tuple:
    """Per-layer metrics: (metrics, details, loop).

    Half the time runs untraced and half with spans, both in this process,
    which gives the tracing overhead; then one counting pass over
    ``wl.cycle`` operations gives the counts.
    """
    attempt(wl.op, wl.check, input_at(0), direct)
    plain = measure(wl.op, wl.check, input_at, seconds / 2)
    spans = tracing.Spans()
    with tracing.installed(spans.wrap) as missing:
        traced = measure(wl.op, wl.check, input_at, seconds / 2, spans.call,
                         spans.full)
    counts = tracing.Counts()
    counted = Loop()
    with tracing.installed(counts.wrap,
                           tracing.TARGETS + (tracing.STEP_TARGET,)):
        for i in range(wl.cycle):
            counted.add(*attempt(wl.op, wl.check, input_at(i), counts.call))

    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    metrics.update(tracing.layer_metrics(spans.self_times(), traced.attempted,
                                         counts, wl.cycle))
    # Attempted rather than correct operations, so failures cannot divide by 0.
    metrics["trace.overhead_frac"] = 1 - (
        traced.attempted / sum(traced.normalised())) / (
        plain.attempted / sum(plain.normalised()))
    if wl.timed_op is not None:
        metrics["cli.main_ms"] = statistics.median(plain.normalised()) * 1000
        metrics.update(cli_process_metrics(wl, input_at, counted))
    spans.dump(spans_path)

    loop = Loop()
    for part in (plain, traced, counted):
        loop.extend(part)
    details = {"traced_ops": traced.attempted, "counted_ops": wl.cycle,
               "spans": len(spans.sid), "spans_file": spans_path.name,
               "missing_targets": missing}
    return metrics, details, loop


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> dict:
    """Run one workload and return its result document."""
    import workloads  # imports clasplab, so only once src/ is on sys.path

    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{workload}"
    load_start = os.getloadavg()[0]
    wl = workloads.WORKLOADS[workload]
    if trace:
        input_at = wl.setup(seed, workdir)
        metrics, details, loop = traced_run(
            wl, input_at, seconds, out_dir / f"{workload}-seed{seed}-spans.json.gz")
        units = LAYER_UNITS
    else:
        setups = setup_times(workload, seed, workdir)
        input_at = wl.setup(seed, workdir)
        metrics, details, loop = timed_run(wl, input_at, seconds, setups)
        units = E2E_UNITS
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "env": {**env_stamp(), "load1_start": load_start,
                "load1_end": os.getloadavg()[0]},
        "attempted": loop.attempted, "failed": loop.failed,
        "errors": loop.errors,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "details": details,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=BENCH / "out",
                        help="where result files go (default: bench/out)")
    args = parser.parse_args(argv)
    if not (SRC / "clasplab" / "__init__.py").is_file():
        print(f"bench: no clasplab package under {SRC}; run from a clasplab "
              "checkout", file=sys.stderr)
        return 2
    # This process and every child it starts import clasplab from src/.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.out_dir)
    path = args.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    details = result["details"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for reason in result["errors"]:
        print(f"  failure: {reason}")
    notes = {}
    if not args.trace:
        n = details["op_samples"]
        notes = {"ops_per_s": f"n={n}", "op_p50_ms": f"n={n}",
                 "op_tail_ms": f"p{details['op_tail_pct']:.1f}, n={n}",
                 "setup_s": f"median of {len(details['setup_samples'])}"}
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}{note}")
    shown = E2E_IN_JSON if not args.trace else tuple(LAYER_UNITS)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: result["metrics"][k] for k in shown},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
