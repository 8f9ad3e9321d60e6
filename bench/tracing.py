"""Spans and counters around clasplab's layer entry points.

The wrappers are installed from the benchmark's side, at the names each
module imported, and removed afterwards; nothing in clasplab changes.  A
target that no longer exists is listed as missing and its metrics read
zero, so a refactor that renames a function does not break the benchmark.

Two wrappers share the target list.  ``Spans`` times every call and keeps
(id, name, start, end, parent) in memory; self time is a span's duration
minus its children's.  ``Counts`` only counts calls, result sizes and
exceptions, and also counts the hot ``PairingState.step``, so that its
cost never lands in the timed spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

#: (module, attribute at that import site, span name).  The span name is
#: the layer and function that runs, wherever it was imported.
TARGETS = (
    ("clasplab.fillability", "enumerate_rulings", "rulings.enumerate_rulings"),
    ("clasplab.fillability", "clasp_report", "clasps.clasp_report"),
    ("clasplab.fillability", "apply_move", "moves.apply_move"),
    ("clasplab.fillability", "enumerate_applicable_moves",
     "moves.enumerate_applicable_moves"),
    ("clasplab.fillability", "require_valid", "diagram.require_valid"),
    ("clasplab.cli", "enumerate_rulings", "rulings.enumerate_rulings"),
    ("clasplab.cli", "clasp_report", "clasps.clasp_report"),
    ("clasplab.cli", "obstruction_verdict", "fillability.obstruction_verdict"),
    ("clasplab.cli", "run_script", "fillability.run_script"),
    ("clasplab.clasps", "resolve", "clasps.resolve"),
    ("clasplab.clasps", "is_normal_ruling", "rulings.is_normal_ruling"),
    ("clasplab.clasps", "count_clasps_pair", "clasps.count_clasps_pair"),
    ("clasplab.clasps", "require_valid", "diagram.require_valid"),
    ("clasplab.moves", "RulingTransport.__call__",
     "moves.RulingTransport.__call__"),
    ("clasplab.moves", "pairing_state_at", "rulings.pairing_state_at"),
    ("clasplab.moves", "require_valid", "diagram.require_valid"),
    ("clasplab.moves", "validate", "diagram.validate"),
    ("clasplab.rulings", "require_valid", "diagram.require_valid"),
    ("clasplab.diagram", "require_valid", "diagram.require_valid"),
    ("clasplab.diagram", "validate", "diagram.validate"),
)

#: Counted but never timed: one call per event of every scan.
STEP_TARGET = ("clasplab.rulings", "PairingState.step",
               "rulings.PairingState.step")

#: Functions whose result length is recorded as work done.
SIZED = ("rulings.enumerate_rulings", "moves.enumerate_applicable_moves",
         "fillability.random_script")

#: Spans kept per traced run; the traced loop stops after the operation
#: that reaches it, which bounds memory on the many-call workloads.
SPAN_CAP = 200_000


def _resolve(module: str, attribute: str):
    """(owner, name, current value) of a dotted attribute, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, name, None)):
        return None
    return owner, name, getattr(owner, name)


@contextlib.contextmanager
def installed(wrap, targets=TARGETS):
    """Replace each target with ``wrap(span_name, original)`` for the block.

    Yields the list of targets that were not found.
    """
    saved, missing = [], []
    try:
        for module, attribute, span in targets:
            found = _resolve(module, attribute)
            if found is None:
                missing.append(f"{module}.{attribute}")
                continue
            owner, name, original = found
            saved.append((owner, name, original))
            setattr(owner, name, wrap(span, original))
        yield missing
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class Spans:
    """In-memory spans of one traced run."""

    def __init__(self):
        self.names: list = []
        self._index: dict = {}
        self.sid = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self._next = 0

    def full(self) -> bool:
        return len(self.sid) >= SPAN_CAP

    def wrap(self, span: str, fn):
        if span not in self._index:
            self._index[span] = len(self.names)
            self.names.append(span)
        ix = self._index[span]
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.sid.append(sid)
                self.name.append(ix)
                self.start.append(t0)
                self.end.append(t1)
                self.parent.append(parent)
        return timed

    def call(self, span: str, fn, *args):
        return self.wrap(span, fn)(*args)

    def self_times(self) -> dict:
        """Span name -> (calls, total self seconds, total seconds)."""
        child = Counter()
        for k in range(len(self.sid)):
            child[self.parent[k]] += self.end[k] - self.start[k]
        out: dict = {}
        for k in range(len(self.sid)):
            name = self.names[self.name[k]]
            dur = self.end[k] - self.start[k]
            calls, own, total = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, own + dur - child[self.sid[k]], total + dur)
        return out

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON columns."""
        doc = {"names": self.names, "id": list(self.sid),
               "name": list(self.name), "start": list(self.start),
               "end": list(self.end), "parent": list(self.parent)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


class Counts:
    """Call counts, result sizes and exceptions of one counting pass.

    ``calls["root>name"]`` counts calls made inside the benchmark's root
    call ``root``, e.g. ``apply_move`` inside ``random_script``.
    """

    def __init__(self):
        self.calls = Counter()
        self.sizes = Counter()
        self.errors = Counter()
        self._root = None

    def wrap(self, span: str, fn):
        sized = span in SIZED

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[span] += 1
            if self._root is not None:
                self.calls[f"{self._root}>{span}"] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[f"{span}:{type(exc).__name__}"] += 1
                raise
            if sized:
                self.sizes[span] += len(result)
            return result
        return counted

    def call(self, span: str, fn, *args):
        self._root = span
        try:
            return self.wrap(span, fn)(*args)
        finally:
            self._root = None


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(times: dict, n_traced: int, counts: Counts,
                  n_counted: int) -> dict:
    """Per-operation layer metrics: self seconds from the spans of
    ``n_traced`` operations, counts from ``n_counted`` counted ones."""
    def own(*spans):
        return _per(sum(times.get(s, (0, 0.0, 0.0))[1] for s in spans),
                    n_traced)

    def calls(span):
        return _per(counts.calls[span], n_counted)

    def sizes(span):
        return _per(counts.sizes[span], n_counted)

    accepted = counts.sizes["fillability.random_script"]
    applied = counts.calls["fillability.random_script>moves.apply_move"]
    built = counts.sizes["moves.enumerate_applicable_moves"]
    return {
        "rulings.enumerate_calls": calls("rulings.enumerate_rulings"),
        "rulings.enumerate_s": own("rulings.enumerate_rulings"),
        "rulings.rulings_found": sizes("rulings.enumerate_rulings"),
        "rulings.scan_steps": calls("rulings.PairingState.step"),
        "rulings.is_normal_calls": calls("rulings.is_normal_ruling"),
        "clasps.report_calls": calls("clasps.clasp_report"),
        "clasps.report_s": own("clasps.clasp_report"),
        "clasps.resolve_s": own("clasps.resolve", "rulings.is_normal_ruling"),
        "clasps.pair_scans": calls("clasps.count_clasps_pair"),
        "clasps.pair_scan_s": own("clasps.count_clasps_pair"),
        "moves.enumerate_calls": calls("moves.enumerate_applicable_moves"),
        "moves.enumerate_s": own("moves.enumerate_applicable_moves"),
        "moves.moves_built": sizes("moves.enumerate_applicable_moves"),
        "moves.built_per_accepted": _per(built, accepted),
        "moves.apply_calls": calls("moves.apply_move"),
        "moves.apply_s": own("moves.apply_move"),
        "moves.transport_calls": calls("moves.RulingTransport.__call__"),
        "moves.transport_s": own("moves.RulingTransport.__call__"),
        "moves.transport_failures": _per(
            counts.errors["moves.RulingTransport.__call__:TransportFailure"],
            n_counted),
        "moves.entry_scan_s": own("rulings.pairing_state_at"),
        "diagram.validate_calls": calls("diagram.validate"),
        "diagram.validate_s": own("diagram.validate", "diagram.require_valid"),
        "fillability.verdict_s": own("fillability.obstruction_verdict"),
        "fillability.random_script_s": own("fillability.random_script"),
        "fillability.run_script_s": own("fillability.run_script"),
        "fillability.accept_ratio": _per(accepted, applied),
    }
