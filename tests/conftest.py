from typing import Optional

import pytest
from hypothesis import settings

from clasplab import (EvennessViolation, FrontDiagram,
                      InternalInvariantError, NotApplicable, ScriptError,
                      UnknownEye, apply_move, clasp_report,
                      generate_negative_braid_closure, generate_torus4,
                      generate_trefoil, generate_unknot, random_script,
                      run_script)
from clasplab.clasps import INTERLEAVED, _pair_config
from clasplab.diagram import CROSSING
from clasplab.errors import BudgetExceeded
from clasplab.fillability import FillingCertificate
from clasplab.rulings import PairingState

# Reproducible property tests for CI (--hypothesis-profile=ci): the same
# examples on every run, no per-example deadline on a slow runner.
settings.register_profile("ci", derandomize=True, deadline=None,
                          max_examples=100)


def small_corpus():
    """Named diagrams used across the suite."""
    return {
        "empty": FrontDiagram(),
        "unknot": generate_unknot(),
        "unlink2": FrontDiagram(generate_unknot().events * 2),
        "trefoil": generate_trefoil(),
        "nested_trefoil": generate_negative_braid_closure(2, [1, 1, 1]),
        "braid3": generate_negative_braid_closure(3, [1, 2, 1]),
        "braid4": generate_negative_braid_closure(4, [1, 2, 3]),
        "torus4_0": generate_torus4(0),
    }


def random_fillable(count, length, seed_base=0):
    """Diagrams built by seeded random move scripts (hence fillable)."""
    out = []
    for k in range(count):
        cert = run_script(random_script(length, seed_base + k))
        out.append(cert.diagram)
    return out


def reference_run_script(script) -> FillingCertificate:
    """run_script threading the ruling through each transport's public
    call, which rebuilds the switch flags and rescans the prefix from the
    empty pairing on every move.

    The test-only reference for the runner's carried flags and entry
    pairings, with the same results and errors.
    """
    diagram = FrontDiagram()
    ruling = frozenset()
    script = tuple(script)
    for i, move in enumerate(script, start=1):
        try:
            diagram, transport = apply_move(diagram, move)
        except NotApplicable as exc:
            raise ScriptError(str(exc), index=i) from exc
        ruling = transport(ruling)
    report = clasp_report(diagram, ruling)
    if report.parity != "even":
        raise EvennessViolation(
            f"filling certificate has {report.total} clasps; "
            "the move calculus must keep this even")
    return FillingCertificate(script, diagram, ruling, report)


def backtrack_rulings(diagram, budget=None, state=None, steps=None) -> list:
    """Backtracking over the switch choices of the word as given.

    The test-only reference for rulings._transfer, with the same
    arguments and results: (switches, state.tallies()) per ruling, where
    ``switches`` is the increasing tuple of switched crossing ordinals.  Each
    crossing branches on a copy (switch) and on the state itself
    (non-switch), and dead states prune the subtree.  Raises
    BudgetExceeded once more than ``budget`` event steps have been taken;
    a list passed as ``steps`` receives the number taken.
    """
    events = diagram.events
    ordinals = diagram.walk.ordinals
    found: list = []
    nodes = 0

    def walk(i: int, state: PairingState, switched: list) -> None:
        nonlocal nodes
        while i < len(events):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(
                    f"enumeration exceeded {budget} steps", nodes=nodes)
            e = events[i]
            if e.kind != CROSSING:
                if state.step(e) is not None:
                    return
                i += 1
                continue
            branch = state.copy()
            if branch.step(e, is_switch=True) is None:
                switched.append(ordinals[i])
                walk(i + 1, branch, switched)
                switched.pop()
            if state.step(e, is_switch=False) is not None:
                return
            i += 1
        found.append((tuple(switched), state.tallies()))

    walk(0, (state or PairingState()).copy(), [])
    if steps is not None:
        steps.append(nodes)
    return found


@pytest.fixture(scope="session")
def corpus():
    return small_corpus()


@pytest.fixture(scope="session")
def fillable_small():
    return random_fillable(30, 8, seed_base=500)


#: Diagrams where mapping a ruling back by crossing identity alone gives a
#: non-ruling: a lone switch passes to the other crossing of a swap.
SWITCH_PASSING_SCRIPTS = ((19, 93), (15, 139), (17, 266))


@pytest.fixture(scope="session")
def fillable_300():
    return random_fillable(300, 16, seed_base=0) + [
        run_script(random_script(length, seed)).diagram
        for length, seed in SWITCH_PASSING_SCRIPTS]


def clasp_intervals(res, eye_a: int, eye_b: int) -> list:
    """Clasps of one eye pair via the incremental record scan.

    The test-only reference for the clasps resolve and ClaspState find.
    Only crossings between the two eyes can change their configuration;
    crossings with third eyes permute slots without reordering these four
    strands, so the scan walks the pair's records alone.  Returns the
    (enter, leave) event indices of each clasp's interleaved interval.
    """
    for eye in (eye_a, eye_b):
        if not 0 <= eye < res.n_eyes:
            raise UnknownEye(f"eye {eye} not in resolution")
    if eye_a == eye_b:
        raise UnknownEye("clasps are counted between distinct eyes")
    a, b = min(eye_a, eye_b), max(eye_a, eye_b)
    start = max(res.birth[a], res.birth[b])
    if start >= min(res.death[a], res.death[b]):
        return []  # the eyes never coexist
    order = tuple(s for s in res.slices[start] if s[0] in (a, b))
    config = _pair_config(order)
    if config == INTERLEAVED:
        raise InternalInvariantError("eyes interleave at a birth slice")

    clasps = []
    entering: Optional[tuple] = None  # (strand pair, event) opening the run
    for r in res.records:
        if (r.eye_a, r.eye_b) != (a, b):
            continue
        if r.switch:
            # Normality keeps switches out of interleaved intervals; a
            # counterexample would need a clasp rule this scan lacks.
            if config == INTERLEAVED:
                raise InternalInvariantError(
                    "switch touch-point inside an interleaved interval")
            continue
        i = order.index((r.eye_a, r.strand_a))
        j = order.index((r.eye_b, r.strand_b))
        if abs(i - j) != 1:
            raise InternalInvariantError(
                "crossing between non-adjacent strands")
        lst = list(order)
        lst[i], lst[j] = lst[j], lst[i]
        order = tuple(lst)
        new_config = _pair_config(order)
        if config == INTERLEAVED and new_config == INTERLEAVED:
            raise InternalInvariantError(
                "pair crossing inside an interleaved interval")
        if config != INTERLEAVED and new_config == INTERLEAVED:
            entering = ((r.strand_a, r.strand_b), r.event_index)
        elif config == INTERLEAVED and new_config != INTERLEAVED:
            if entering[0] == (r.strand_a, r.strand_b):
                clasps.append((entering[1], r.event_index))
            entering = None
        config = new_config
    if config == INTERLEAVED:
        raise InternalInvariantError("eyes interleave at a death slice")
    return clasps
