"""Normal rulings of a front diagram.

A ruling designates a subset of the crossings as switches and smooths each
switch into two horizontal arcs.  The smoothed diagram must decompose into
*eyes*: closed curves with one left cusp, one right cusp and no
self-intersection, pairwise compatible at every switch.

The decision procedure is a left-to-right scan.  Its state pairs the live
slots into eyes; each event updates the pairing:

* left cusp at p: a new eye occupies slots p, p+1;
* non-switch crossing at p: slots p, p+1 trade eyes -- pruned if both
  belong to one eye (that eye would self-intersect);
* switch crossing at p: slots keep their eyes, but the two eyes must sit
  in one of the three admissible configurations (see switch_allowed);
* right cusp at p: slots p, p+1 must be the two slots of a single eye.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Optional

from .diagram import (CROSSING, LEFT_CUSP, Event, FrontDiagram,
                      far_commutation_order, require_valid, transpose_events)
from .errors import BudgetExceeded, InvalidRuling, SameEye, TransportFailure

#: A normal ruling is just its switch set, as crossing ordinals (1-based).
NormalRuling = frozenset

EMPTY_RULING: NormalRuling = frozenset()


class PairingState:
    """Mutable pairing of live slots into eyes during a scan.

    ``mate(p)`` is the slot currently occupied by the other strand of the
    eye through slot p.  The pairing alone decides every ruling condition;
    eye identities are not needed here.
    """

    __slots__ = ("_m",)

    def __init__(self, mates: Optional[list] = None):
        self._m = [0] if mates is None else mates

    def copy(self) -> "PairingState":
        return PairingState(list(self._m))

    @property
    def n_strands(self) -> int:
        return len(self._m) - 1

    def mate(self, p: int) -> int:
        return self._m[p]

    def partition(self) -> tuple:
        """Canonical snapshot of the pairing, for state comparison."""
        m = self._m
        return tuple((p, m[p]) for p in range(1, len(m)) if p < m[p])

    def birth(self, p: int) -> None:
        m = self._m
        for i in range(1, len(m)):
            if m[i] >= p:
                m[i] += 2
        m[p:p] = [p + 1, p]

    def death(self, p: int) -> None:
        m = self._m
        del m[p:p + 2]
        for i in range(1, len(m)):
            if m[i] >= p + 2:
                m[i] -= 2

    def same_eye(self, p: int) -> bool:
        return self._m[p] == p + 1

    def switch_ok(self, p: int) -> bool:
        """Normality at a switch between the eyes through slots p, p+1.

        With a = mate(p) and b = mate(p+1), exactly three of the six mate
        configurations are admissible: the two eyes vertically disjoint, or
        nested with both mates above, or nested with both mates below.
        Interleaved eyes never switch.
        """
        m = self._m
        a, b = m[p], m[p + 1]
        return (a < p and b > p + 1) or (p + 1 < b < a) or (b < a < p)

    def cross(self, p: int) -> None:
        m = self._m
        a, b = m[p], m[p + 1]
        m[a], m[b] = p + 1, p
        m[p], m[p + 1] = b, a

    def step(self, event: Event, is_switch: bool = False) -> Optional[str]:
        """Advance over one event; return a failure reason or None.

        The event word is assumed valid, so slot ranges are not rechecked.
        """
        p = event.pos
        if event.kind == LEFT_CUSP:
            self.birth(p)
        elif event.kind == CROSSING:
            if self.same_eye(p):
                if is_switch:
                    return "switch between two strands of one eye"
                return "eye self-intersects at an unswitched crossing"
            if is_switch:
                if not self.switch_ok(p):
                    return "normality violated: eyes interleave at switch"
            else:
                self.cross(p)
        else:
            if not self.same_eye(p):
                return "right cusp joins strands of two different eyes"
            self.death(p)
        return None


def switch_allowed(state: PairingState, p: int) -> bool:
    """Whether a switch at slots (p, p+1) is admissible in this state.

    Raises SameEye when both slots belong to one eye, where a switch is
    never legal.
    """
    if state.same_eye(p):
        raise SameEye(f"slots {p},{p + 1} belong to one eye")
    return state.switch_ok(p)


class RulingCheck(NamedTuple):
    ok: bool
    reason: Optional[str] = None
    event_index: Optional[int] = None  # 1-based, where the scan failed


def _check_switches(diagram: FrontDiagram, switches: Iterable) -> frozenset:
    switches = frozenset(switches)
    c = diagram.n_crossings
    for o in switches:
        if not 1 <= o <= c:
            raise InvalidRuling(f"switch ordinal {o} outside 1..{c}")
    return switches


def is_normal_ruling(diagram: FrontDiagram, switches: Iterable) -> RulingCheck:
    """Run the scan with the given switch set and report the outcome."""
    require_valid(diagram)
    switches = _check_switches(diagram, switches)
    state = PairingState()
    ordinal = 0
    for i, e in enumerate(diagram.events, start=1):
        if e.kind == CROSSING:
            ordinal += 1
            fail = state.step(e, ordinal in switches)
        else:
            fail = state.step(e)
        if fail is not None:
            return RulingCheck(False, fail, i)
    return RulingCheck(True)


def ruling_sort_key(ruling: Iterable) -> tuple:
    """Deterministic order used everywhere: by size, then lexicographic."""
    t = tuple(sorted(ruling))
    return (len(t), t)


def _search(diagram: FrontDiagram, budget: Optional[int]) -> list:
    """Backtracking over the switch choices of the word as given.

    Each crossing branches on switch / non-switch; dead states prune the
    subtree.  Raises BudgetExceeded once more than ``budget`` event steps
    have been taken.
    """
    events = diagram.events
    ordinal_at = {}
    c = 0
    for i, e in enumerate(events):
        if e.kind == CROSSING:
            c += 1
            ordinal_at[i] = c
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
                switched.append(ordinal_at[i])
                walk(i + 1, branch, switched)
                switched.pop()
            if state.step(e, is_switch=False) is not None:
                return
            i += 1
        found.append(frozenset(switched))

    walk(0, PairingState(), [])
    # walk reaches itself through its closure cell; break that cycle so
    # a reordered word is freed now, not at the next full collection.
    walk = None
    return found


def _hop_windows(diagram: FrontDiagram, hops: tuple) -> list:
    """Replay far_commutation_order's hops on the original word.

    Returns (t, windows) for each emitted event t that hopped, where
    windows[j] pairs the reordered-side and original-side events at word
    indices t+j, t+j+1.  The original side is recorded rather than
    recomputed because a swap is not always undone by swapping back: the
    swap of [lc p, rc p+2] is [rc p, lc p], which alone does not say on
    which side of the dying eye the new one was born.
    """
    word = list(diagram.events)
    steps = []
    for t, k in enumerate(hops):
        windows = []
        for i in range(t + k - 1, t - 1, -1):
            before = (word[i], word[i + 1])
            word[i], word[i + 1] = transpose_events(*before)
            windows.append(((word[i], word[i + 1]), before))
        if windows:
            steps.append((t, windows[::-1]))
    return steps


def _retrace(diagram: FrontDiagram, narrow: FrontDiagram, steps: list,
             ruling: frozenset) -> frozenset:
    """Carry a ruling of ``narrow`` back to the crossings of ``diagram``.

    Undoes the hops of _hop_windows last first.  A hop past a cusp keeps
    every switch on its crossing.  A hop of two crossings is a ``tr``
    move and takes the boundary-matching switch choice, which does not
    always follow crossing identity: when the two crossings involve the
    same two eyes, a lone switch can pass to the other crossing.  Undoing
    the hops of event t only touches word indices >= t, so their entry
    state is the reordered word's prefix state at t.
    """
    flags = []
    ordinal = 0
    for e in narrow.events:
        if e.kind == CROSSING:
            ordinal += 1
        flags.append(e.kind == CROSSING and ordinal in ruling)
    entries = {t: None for t, _ in steps}
    state = PairingState()
    for t, e in enumerate(narrow.events):
        if t in entries:
            entries[t] = state.copy()
        state.step(e, flags[t])
    for t, windows in reversed(steps):
        state = entries[t]
        for i, ((first, second), (old_first, old_second)) in \
                enumerate(windows, start=t):
            f1, f2 = flags[i], flags[i + 1]
            if first.kind == CROSSING and second.kind == CROSSING \
                    and f1 != f2:
                matches = window_matches(state, (first, second),
                                         {1} if f1 else {2},
                                         (old_first, old_second))
                if matches is None or len(matches) != 1:
                    raise TransportFailure(
                        "no unique boundary-matching switch choice while "
                        "mapping a ruling back to the original word")
                f2, f1 = 1 in matches[0], 2 in matches[0]
            flags[i], flags[i + 1] = f2, f1
            state.step(old_first, f2)
    switched = [f for e, f in zip(diagram.events, flags)
                if e.kind == CROSSING]
    return frozenset(o for o, f in enumerate(switched, start=1) if f)


def enumerate_rulings(diagram: FrontDiagram, budget: Optional[int] = None) -> list:
    """All normal rulings, by backtracking over the switch choices.

    The backtracking cost grows with the width (the most strands alive on
    one slice), so the word is first reordered by far commutation: among
    the events that can commute to the front of what is left, right cusps
    go first, then crossings, then left cusps, lower slots first (see
    far_commutation_order).  The search runs on that word when it is
    strictly narrower, else on ``diagram`` itself, and each ruling found
    on the reordered word is carried back along the ``tr`` moves, so
    switch sets are always crossing ordinals of ``diagram`` itself, in
    ruling_sort_key order.  The optional ``budget`` bounds the event
    steps taken on the word actually searched before BudgetExceeded is
    raised.
    """
    require_valid(diagram)
    narrow, hops = far_commutation_order(diagram)
    if max(narrow.strand_counts()) < max(diagram.strand_counts()):
        steps = _hop_windows(diagram, hops)
        found = [_retrace(diagram, narrow, steps, r)
                 for r in _search(narrow, budget)]
    else:
        found = _search(diagram, budget)
    return sorted(found, key=ruling_sort_key)


def brute_force_rulings(diagram: FrontDiagram) -> list:
    """Filter all 2^c switch subsets through is_normal_ruling.

    Independent check for enumerate_rulings; only sensible for small c.
    """
    require_valid(diagram)
    c = diagram.n_crossings
    out = []
    for r in range(c + 1):
        for combo in combinations(range(1, c + 1), r):
            if is_normal_ruling(diagram, combo).ok:
                out.append(frozenset(combo))
    return sorted(out, key=ruling_sort_key)


def pairing_state_at(diagram: FrontDiagram, switches: Iterable,
                     event_index: int) -> PairingState:
    """Scan the first ``event_index`` events and return the state.

    Raises InvalidRuling if the scan dies before reaching the slice.
    """
    switches = _check_switches(diagram, switches)
    state = PairingState()
    ordinal = 0
    for i, e in enumerate(diagram.events[:event_index], start=1):
        if e.kind == CROSSING:
            ordinal += 1
            fail = state.step(e, ordinal in switches)
        else:
            fail = state.step(e)
        if fail is not None:
            raise InvalidRuling(f"event {i}: {fail}")
    return state


def _scan_window(entry: PairingState, window, switch_locals) -> Optional[list]:
    st = entry.copy()
    local = 0
    for e in window:
        if e.kind == CROSSING:
            local += 1
            fail = st.step(e, local in switch_locals)
        else:
            fail = st.step(e)
        if fail is not None:
            return None
    # The mate list pins the pairing down as partition() does, without
    # building the pair tuples that would crowd CPython's tuple free lists.
    return st._m


def window_matches(entry: PairingState, old, old_switches,
                   new) -> Optional[list]:
    """Boundary matching for a rewrite of one window of the word.

    Switch sets are local crossing ordinals (1-based) of their window.
    Returns None when ``old`` does not scan from ``entry`` under
    ``old_switches``; otherwise every switch set of ``new`` that scans
    from ``entry`` to the same exit pairing.  Windows with equal crossing
    counts only exchange switch sets of equal size: boundary matching
    alone cannot split e.g. the one-switch and all-switch assignments of
    a triple point, whose exit pairings coincide.
    """
    exit_pairing = _scan_window(entry, old, old_switches)
    if exit_pairing is None:
        return None
    cs = sum(1 for e in old if e.kind == CROSSING)
    ct = sum(1 for e in new if e.kind == CROSSING)
    matches = []
    for mask in range(1 << ct):
        locals_ = {k + 1 for k in range(ct) if mask >> k & 1}
        if cs == ct and len(locals_) != len(old_switches):
            continue
        if _scan_window(entry, new, locals_) == exit_pairing:
            matches.append(locals_)
    return matches
