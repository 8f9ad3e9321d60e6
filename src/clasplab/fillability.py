"""Decomposable fillings as move scripts, and the parity obstruction.

A filling certificate is a script of moves that builds a diagram from the
empty front.  Threading the switch set through each move's transport
yields the script's associated normal ruling, whose clasp total is always
even; an odd total would mean the calculus itself is broken, so it is
raised as a hard internal error.

The contrapositive is the obstruction: a link whose normal rulings are
all odd admits no such script at all.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Iterable, NamedTuple, Optional

from .clasps import ClaspReport, _sorted_reports, clasp_report
from .diagram import (LEFT_CUSP, RIGHT_CUSP, FrontDiagram, serialize,
                      transpose_events)
from .errors import (BudgetExceeded, EvennessViolation, NotApplicable,
                     ScriptError, TransportFailure)
from .rulings import PairingState, _enumerate, switches_of
# moves is imported where a script runs, so verdicts do not load it.


class FillingCertificate(NamedTuple):
    script: tuple
    diagram: FrontDiagram
    ruling: frozenset
    report: ClaspReport

    def to_json(self) -> dict:
        return {
            "script": [str(m) for m in self.script],
            "diagram": serialize(self.diagram),
            "ruling": sorted(self.ruling),
            "clasps": self.report.to_json(),
        }


def run_script(script: Iterable) -> FillingCertificate:
    """Fold the script from the empty diagram, tracking its ruling.

    Raises ScriptError at the first inapplicable move, TransportFailure
    when a saddle is incompatible with the ruling so far, and
    EvennessViolation if the final clasp total is odd (an internal bug,
    never a property of the script).  The final clasp report rescans the
    whole word under the carried switch flags.
    """
    from .moves import apply_move
    diagram = FrontDiagram()
    flags: list = []
    entries = [PairingState.start]
    script = tuple(script)
    for i, move in enumerate(script, start=1):
        try:
            diagram, transport = apply_move(diagram, move)
        except NotApplicable as exc:
            raise ScriptError(str(exc), index=i) from exc
        transport.carry(flags, entries)
    ruling = switches_of(diagram, flags)
    report = clasp_report(diagram, ruling)
    if report.parity != "even":
        raise EvennessViolation(
            f"filling certificate has {report.total} clasps; "
            "the move calculus must keep this even")
    return FillingCertificate(script, diagram, ruling, report)


class RulingEvidence(NamedTuple):
    switches: tuple
    clasps: int
    parity: str

    def to_json(self) -> dict:
        return {"switches": list(self.switches), "clasps": self.clasps,
                "parity": self.parity}


class ObstructionVerdict(NamedTuple):
    """Outcome of the all-rulings-odd test.

    ``obstructed`` means the diagram has at least one normal ruling and
    every one of them is odd, which rules out any filling built from the
    move calculus.  A diagram with no rulings at all is reported
    unobstructed *by this criterion*, with a note; the absence of rulings
    is a different obstruction, outside this library's claims.
    """

    obstructed: bool
    evidence: tuple
    witness: Optional[tuple] = None
    note: Optional[str] = None

    @property
    def verdict(self) -> str:
        return "obstructed" if self.obstructed else "not_obstructed"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "rulings": [e.to_json() for e in self.evidence],
            "witness": list(self.witness) if self.witness is not None else None,
            "note": self.note,
        }


def obstruction_verdict(diagram: FrontDiagram,
                        budget: Optional[int] = None) -> ObstructionVerdict:
    """Enumerate rulings and decide whether all of them are odd."""
    switches, fold_ids, reports = _sorted_reports(diagram, budget)
    if not switches:
        return ObstructionVerdict(False, (), None, "no normal rulings at all")
    # read per fold, then per ruling by fold id, all in C: tuple.__new__
    # skips the NamedTuple's Python-level __new__
    totals = [report.total for report in reports]
    parity = list(map([r.parity for r in reports].__getitem__, fold_ids))
    evidence = tuple(map(partial(tuple.__new__, RulingEvidence),
                         zip(switches, map(totals.__getitem__, fold_ids),
                             parity)))
    witness = switches[parity.index("even")] if "even" in parity else None
    return ObstructionVerdict(witness is None, evidence, witness)


class CobordismParity(NamedTuple):
    status: str  # "compatible" | "incompatible" | "not_applicable"
    lower: Optional[RulingEvidence] = None
    upper: Optional[RulingEvidence] = None
    reason: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "lower": self.lower.to_json() if self.lower else None,
            "upper": self.upper.to_json() if self.upper else None,
            "reason": self.reason,
        }


def cobordism_parity_check(lower: FrontDiagram, upper: FrontDiagram,
                           budget: Optional[int] = None) -> CobordismParity:
    """Parity test for a cobordism between two unique-ruling links.

    Applies only when each diagram has exactly one normal ruling; a
    cobordism built from the move calculus forces equal parities, so
    unequal parities are incompatible with one.
    """
    sides = []
    for diagram in (lower, upper):
        # a report is needed only for a unique ruling, so counting
        # clasps during the search would mostly be wasted
        switches = _enumerate(diagram, budget)[0]
        if len(switches) != 1:
            return CobordismParity(
                "not_applicable",
                reason=f"a diagram has {len(switches)} normal rulings; "
                       "the test needs exactly 1 on each side")
        report = clasp_report(diagram, switches[0])
        sides.append(RulingEvidence(switches[0], report.total, report.parity))
    status = ("compatible" if sides[0].parity == sides[1].parity
              else "incompatible")
    return CobordismParity(status, sides[0], sides[1])


def random_script(length: int, seed: int) -> list:
    """Seeded-deterministic script of applicable moves from the empty front.

    Samples a move kind, then a move of that kind, skipping saddles that
    are incompatible with the ruling carried so far.  A TransportFailure
    of any other move is a bug of the calculus and propagates.

    Generator protocol: the moves come from one ``random.Random(seed)``
    that only these calls consume, in this order, so a script is fixed by
    its seed, and a shorter length gives a prefix of it.  For each step:

    1. ``rng.choice(kinds)``, where ``kinds`` lists the kinds that have an
       applicable move, in MOVE_KINDS order (which is sorted order);
    2. ``rng.shuffle(candidates)``, where ``candidates`` is every
       applicable move of the chosen kind, in menu order (by anchor, slot
       and variant);
    3. the shuffled moves are tried in turn and the first one whose
       transport succeeds is appended.  If every one fails (only saddles
       can), the kind is removed from ``kinds`` and the step goes back
       to 1.

    Only the moves tried are built: the step shuffles the indices of the
    chosen kind's menu, which draws the same numbers as shuffling the
    moves themselves.
    """
    if length < 1:
        raise ValueError("scripts have length >= 1")
    from .moves import _menu, applicable_kinds, apply_move
    rng = random.Random(seed)
    diagram = FrontDiagram()
    flags: list = []
    entries = [PairingState.start]
    script: list = []
    while len(script) < length:
        kinds = applicable_kinds(diagram)
        accepted = False
        while kinds and not accepted:
            kind = rng.choice(kinds)
            menu = _menu(diagram, kind)
            order = list(range(len(menu)))
            rng.shuffle(order)
            for i in order:
                m = menu[i]
                new_diagram, transport = apply_move(diagram, m)
                try:
                    transport.carry(flags, entries)
                except TransportFailure:
                    if kind != "h1":
                        raise  # only a saddle can meet an incompatible ruling
                    continue
                diagram = new_diagram
                script.append(m)
                accepted = True
                break
            else:
                kinds.remove(kind)
        if not accepted:
            break  # cannot happen: h0 is always applicable and compatible
    return script


class SearchResult(NamedTuple):
    status: str  # "found" | "exhausted" | "pruned"
    script: Optional[tuple] = None
    stats: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "script": [str(m) for m in self.script]
            if self.script is not None else None,
            "stats": self.stats,
        }


def _backward_steps(diagram: FrontDiagram):
    """Yield (parent, forward_move) pairs, in deterministic order.

    Each forward move recreates the diagram from the parent: a handle
    whose eye or saddle is deleted, the redo move of a window that
    moves._undo reads, or the transposition that swaps two events back.
    Every pair is verified by reapplying before being yielded.  Only
    simplifying and lateral rewrites are explored, so the search is best
    effort.
    """
    from .moves import Move, _undo, apply_move
    events = diagram.events
    candidates = []
    for i, (a, b) in enumerate(zip(events, events[1:])):
        if a.pos == b.pos and {a.kind, b.kind} == {LEFT_CUSP, RIGHT_CUSP}:
            handle = "h0" if a.kind == LEFT_CUSP else "h1"
            candidates.append((events[:i] + events[i + 2:],
                               Move(handle, i + 1, a.pos)))
    undos = [_undo(events, i) for i in range(len(events))]
    for kind in ("r1inv", "r2inv", "r3"):
        for i, undo in enumerate(undos):
            if undo is not None and undo[0] == kind:
                candidates.append((events[:i] + undo[1] + events[i + 3:],
                                   undo[2]))
    for i, (a, b) in enumerate(zip(events, events[1:])):
        swapped = transpose_events(a, b)
        if swapped is not None:
            candidates.append((events[:i] + swapped + events[i + 2:],
                               Move("tr", i + 1)))
    for parent_events, move in candidates:
        parent = FrontDiagram(parent_events)
        try:
            redone, _ = apply_move(parent, move)
        except NotApplicable:
            continue
        if redone.events == events:
            yield parent, move


#: search_filling's default depth bound and node budget.
SEARCH_DEPTH = 8
SEARCH_NODE_BUDGET = 20_000


def search_filling(diagram: FrontDiagram, depth_bound: int = SEARCH_DEPTH,
                   node_budget: int = SEARCH_NODE_BUDGET) -> SearchResult:
    """Bounded backward search for a filling script of the diagram.

    Returns "pruned" without searching when the obstruction verdict says
    no script can exist, "found" with a verified script on success, and
    "exhausted" otherwise.  Exhaustion is not evidence of
    non-fillability; only pruning carries a claim.  ``node_budget`` bounds
    the obstruction pre-check and the number of nodes expanded (none at 0).
    """
    try:
        verdict = obstruction_verdict(diagram, budget=node_budget)
    except BudgetExceeded:
        verdict = None
    if verdict is not None and verdict.obstructed:
        return SearchResult("pruned", None,
                            {"nodes": 0, "depth": 0, "reason": "all rulings odd"})
    if not diagram.events:
        return SearchResult("found", (), {"nodes": 0, "depth": 0})

    if node_budget < 1:
        return SearchResult("exhausted", None,
                            {"nodes": 0, "depth": 0, "reason": "node budget"})

    start = serialize(diagram)
    seen = {start: None}  # key -> (parent_key, forward move)
    frontier = [diagram]
    nodes = 0
    for depth in range(1, depth_bound + 1):
        next_frontier = []
        for d in frontier:
            d_key = serialize(d)
            for parent, move in _backward_steps(d):
                key = serialize(parent)
                if key in seen:
                    continue
                nodes += 1
                seen[key] = (d_key, move)
                if not parent.events:
                    script, cursor = [], key
                    while seen[cursor] is not None:
                        cursor, mv = seen[cursor]
                        script.append(mv)
                    certificate = run_script(script)
                    if certificate.diagram.events != diagram.events:
                        raise ScriptError(
                            "reconstructed script does not reproduce the "
                            "input diagram")
                    return SearchResult("found", tuple(script),
                                        {"nodes": nodes, "depth": depth})
                if nodes >= node_budget:
                    return SearchResult("exhausted", None,
                                        {"nodes": nodes, "depth": depth,
                                         "reason": "node budget"})
                next_frontier.append(parent)
        if not next_frontier:
            return SearchResult("exhausted", None,
                                {"nodes": nodes, "depth": depth,
                                 "reason": "no backward moves left"})
        frontier = next_frontier
    return SearchResult("exhausted", None,
                        {"nodes": nodes, "depth": depth_bound,
                         "reason": "depth bound"})
