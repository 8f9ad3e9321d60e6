"""Compare two sets of benchmark results: a parent commit and a change.

Usage: python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--trace 0`` result files that ``bench/run.py``
wrote, one per workload and seed, made with the same benchmark code and run
length.  Runs are paired by seed.  For every workload and every end-to-end
metric of ``BENCHMARK.json`` this prints both medians with their quartiles,
the share of pairs the change wins (ties count for neither side), and a
verdict:

* ``improved``: the change wins at least nine tenths of at least ten pairs,
  the medians differ by more than the parent's own quartile spread, and the
  change fails no more operations than the parent;
* ``unresolved``: the parent's spread is wider than the metric's bound and
  not every change run beats every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``no worse``: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict:
    """workload -> seed -> result document."""
    out: dict = {}
    for path in sorted(directory.glob("*-trace0.json")):
        doc = json.loads(path.read_text())
        out.setdefault(doc["workload"], {})[doc["seed"]] = doc
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list, change: list, better: str, bound: float,
            more_failures: bool = False) -> tuple:
    """(verdict, wins, pairs) for paired values of one metric."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - p_med)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) \
            and gain > p_q3 - p_q1 and not more_failures:
        return "improved", wins, len(pairs)
    if p_med == 0 or (p_q3 - p_q1) / abs(p_med) > bound:
        worst_change = min(sign * c for c in change)
        best_parent = max(sign * p for p in parent)
        return ("no worse" if worst_change > best_parent else "unresolved",
                wins, len(pairs))
    if -gain / abs(p_med) > bound:
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> list:
    """Rows of (workload, metric, parent q, change q, wins, pairs, verdict)."""
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        p_docs = [parent[workload][s] for s in seeds]
        c_docs = [change[workload][s] for s in seeds]
        more_failures = (sum(d["failed"] for d in c_docs)
                         > sum(d["failed"] for d in p_docs))
        for m in spec["end_to_end"]:
            p = [d["metrics"][m["name"]]["value"] for d in p_docs]
            c = [d["metrics"][m["name"]]["value"] for d in c_docs]
            v, wins, n = verdict(p, c, m["better"], m["bound"], more_failures)
            rows.append((workload, m["name"], quartiles(p), quartiles(c),
                         wins, n, v))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(Path(argv[0]), Path(argv[1]), spec)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':<16} {'metric':<12} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'wins':>7}  verdict")
    for workload, name, pq, cq, wins, n, v in rows:
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{workload:<16} {name:<12} {fmt.format(*pq):>28} "
              f"{fmt.format(*cq):>28} {wins:>3}/{n:<3}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
