import copy
import pickle
from bisect import bisect_left, insort
from itertools import combinations
from typing import Iterable, Optional

import pytest
from hypothesis import settings

from clasplab import (ClaspLabError, EvennessViolation,
                      FrontDiagram, Move, NotApplicable, ScriptError,
                      apply_move, clasp_report,
                      generate_negative_braid_closure, generate_torus4,
                      generate_trefoil, generate_unknot, is_normal_ruling,
                      random_script, run_script)
from clasplab.diagram import (_DELTA, _RANK, CROSSING, LEFT_CUSP, RIGHT_CUSP,
                              Event, far_commutation_order)
from clasplab.errors import BudgetExceeded, TransportFailure
from clasplab.fillability import FillingCertificate
from clasplab.rulings import (PairingState, scan, switch_flags,
                              window_matches)


class UnknownEye(ClaspLabError):
    """The oracles were asked about an eye id the resolution lacks."""


class InternalInvariantError(ClaspLabError):
    """A resolution the oracles read breaks an invariant of the scan."""


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


def disjoint_union(first: FrontDiagram, second: FrontDiagram) -> FrontDiagram:
    """Place two closed diagrams side by side (disjoint x-ranges)."""
    return FrontDiagram(first.events + second.events)


def stacked_union(lower: FrontDiagram, upper: FrontDiagram,
                  gap: int | None = None) -> FrontDiagram:
    """Insert ``upper`` above the strands of ``lower`` at one word gap.

    The upper diagram's events run at a single x-interval of the lower
    word, with positions offset by the strand count there, so the two
    never interleave vertically.  ``gap`` is a 1-based insertion index
    into the lower word (default: its middle).
    """
    if gap is None:
        gap = len(lower) // 2 + 1
    if not 1 <= gap <= len(lower) + 1:
        raise ValueError(f"gap {gap} outside 1..{len(lower) + 1}")
    offset = lower.walk.counts[gap - 1]
    inserted = [Event(e.kind, e.pos + offset) for e in upper.events]
    events = list(lower.events)
    events[gap - 1:gap - 1] = inserted
    return FrontDiagram(events)


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


def assert_value_contract(value, text, fields, other, hashable=True):
    """The contract of the library's immutable value types: the exact
    repr ``text``; equal to the value rebuilt from ``fields`` (its
    compared fields, which are its constructor's arguments) and unequal
    to ``other``, in which one field differs; hashed as ``fields`` (or
    unhashable, when a field is a dict); no assignment or deletion; and
    equal, of the same type, after a copy.copy and a pickle round trip."""
    assert repr(value) == text
    assert value == type(value)(*fields)
    assert value != other and not value == other
    if hashable:
        assert hash(value) == hash(fields)
    else:
        with pytest.raises(TypeError):
            hash(value)
    first = text.partition("(")[2].partition("=")[0]  # as the repr names it
    with pytest.raises(AttributeError):
        setattr(value, first, None)
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert getattr(value, first) == fields[0]
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value


def ruling_sort_key(ruling: Iterable) -> tuple:
    """Deterministic order used everywhere: by size, then lexicographic."""
    t = tuple(sorted(ruling))
    return (len(t), t)


def tb(diagram: FrontDiagram) -> Optional[int]:
    """The Thurston-Bennequin number of a knot's front, writhe minus half
    the cusps, or None for a link or the empty front (orienting a link is
    a convention, which this does not pick).  A crossing counts +1 when
    both strands run the same x-direction, under either orientation."""
    slots, crossings = [], []
    mates = ({}, {})  # strand -> its mate at the (left, right) cusp
    for e in diagram.events:
        p = e.pos - 1
        if e.kind == LEFT_CUSP:
            a = len(mates[0])
            b = a + 1
            slots[p:p] = [a, b]
            mates[0].update({a: b, b: a})
        elif e.kind == RIGHT_CUSP:
            a, b = slots[p:p + 2]
            del slots[p:p + 2]
            mates[1].update({a: b, b: a})
        else:
            slots[p:p + 2] = slots[p + 1], slots[p]
            crossings.append((slots[p], slots[p + 1]))
    # A strand runs from its left cusp to its right cusp; walking the knot
    # rightward along strand 0, each cusp turns the direction around.
    rightward, s = {}, 0
    while mates[0] and s not in rightward:
        rightward[s] = len(rightward) % 2 == 0
        s = mates[rightward[s]][s]
    if not rightward or len(rightward) < len(mates[0]):
        return None
    writhe = sum(1 if rightward[a] == rightward[b] else -1
                 for a, b in crossings)
    return writhe - len(mates[0]) // 2


def partition(m: tuple) -> tuple:
    """The eyes of the pairing keyed ``m`` (its mates), as slot pairs."""
    return tuple((p, m[p]) for p in range(1, len(m)) if p < m[p])


def step(key: tuple, event: Event, is_switch: bool = False) -> tuple:
    """The pairing after one event, which must scan from ``key``."""
    keys, _, fail = scan((event,), (is_switch,), key=key)
    assert fail is None, (key, event, fail)
    return keys[-1]


def brute_force_rulings(diagram: FrontDiagram) -> list:
    """Filter all 2^c switch subsets through is_normal_ruling.

    Independent check for enumerate_rulings; only sensible for small c.
    Subsets are tried by size, each size in lexicographic order, which is
    ruling_sort_key order.
    """
    c = diagram.n_crossings
    return [frozenset(combo) for r in range(c + 1)
            for combo in combinations(range(1, c + 1), r)
            if is_normal_ruling(diagram, combo).ok]


def backtrack_rulings(diagram, budget=None, cls=PairingState,
                      steps=None) -> list:
    """Backtracking over the switch choices of the word as given.

    The test-only reference for rulings._transfer, with the same
    arguments and results as rows (see as_rows): (switches, tallies) per
    ruling, where ``switches`` is the increasing tuple of switched
    crossing ordinals and ``tallies`` the sorted (label, sum) pairs of
    the edges' tallies.  Each crossing branches on the switch edge, then
    the plain edge of ``cls.edges``, and dead edges prune the subtree.
    Raises BudgetExceeded once more than ``budget`` event steps have been
    taken; a list passed as ``steps`` receives the number taken.
    """
    events = diagram.events
    ordinals = diagram.walk.ordinals
    found: list = []
    nodes = 0

    def walk(i: int, key: tuple, switched: list, tallies: list) -> None:
        nonlocal nodes
        while i < len(events):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(
                    f"enumeration exceeded {budget} steps", nodes=nodes)
            switch, plain = cls.edges(key, events[i])
            if switch is not None:
                walk(i + 1, switch[0], switched + [ordinals[i]],
                     tallies + [switch[1]])
            if plain is None:
                return
            key, tally = plain
            tallies = tallies + [tally]
            i += 1
        sums: dict = {}
        for tally in tallies:
            if tally is not None:
                sums[tally[0]] = sums.get(tally[0], 0) + tally[1]
        found.append((tuple(switched), tuple(sorted(sums.items()))))

    walk(0, cls.start, [], [])
    if steps is not None:
        steps.append(nodes)
    return found


def far_commutation_windows(diagram) -> tuple:
    """diagram.far_commutation_order the slow way, with every swap it makes.

    The test-only reference for the ready-set order: each step rescans the
    whole remaining word, and takes, among the events that commute to its
    front, the least by kind (right cusps, crossings, left cusps), then by
    slot on the front slice, then by word order.

    Returns (reordered diagram, windows).  windows[t] lists, in word
    order, the (after, before) event pairs of each swap the t-th emitted
    event made, at word indices t+j, t+j+1; each swap is one ``tr`` move.
    The before pair is kept because a swap is not always undone by
    swapping back: [lc p, rc p+2] swaps to [rc p, lc p], which alone does
    not say on which side of the dying eye the new one was born.
    """
    rest = list(diagram.events)
    out = []
    windows = []
    width = 0
    while rest:
        # Doubled coordinates on the slice left of rest[k]: slot p is 2p,
        # the gap below it 2p-1.  front[d] is the coordinate d has on the
        # front slice, or None once an earlier remaining event occupies d,
        # so that nothing needing d commutes to the front.
        front = list(range(2 * width + 2))
        best = None
        for k, e in enumerate(rest):
            kind, p = e.kind, e.pos
            if kind == LEFT_CUSP:
                gap = front[2 * p - 1]
                key = None if gap is None else (2, gap + 1, k)
                # Both outer gaps of the new eye are the old gap.
                front[2 * p:2 * p] = (None, None, None, gap)
            else:
                lo, mid, hi = front[2 * p:2 * p + 3]
                key = None if lo is None or mid is None or hi is None \
                    else (_RANK[kind], lo, k)
                if kind == CROSSING:
                    front[2 * p:2 * p + 3] = (None, None, None)
                else:
                    front[2 * p - 1:2 * p + 4] = (None,)
            if key is not None and (best is None or key < best):
                best = key
        k = best[2]
        moving = rest.pop(k)
        kind, p = moving.kind, moving.pos
        # Commute it to the front as transpose_events does: of each two
        # swapped events, the upper one shifts by the lower one's delta.
        swaps = []
        for j in range(k - 1, -1, -1):
            other, q = rest[j].kind, rest[j].pos
            before = (rest[j], moving)
            lo = 2 * p - 1 if kind == LEFT_CUSP else 2 * p
            if lo > (2 * q - 1 if other == RIGHT_CUSP else 2 * q + 2):
                p -= _DELTA[other]
                moving = Event(kind, p)
            else:
                rest[j] = Event(other, q + _DELTA[kind])
            swaps.append(((moving, rest[j]), before))
        out.append(moving)
        windows.append(tuple(reversed(swaps)))
        width += _DELTA[kind]
    return FrontDiagram(out), tuple(windows)


def normalize(diagram: FrontDiagram) -> tuple:
    """Commute independent events into the greedy far-commutation order.

    Among the events that can commute to the front of what is left of the
    word, right cusps go first, then crossings, then left cusps, lower
    slots first; this closes eyes early and opens them late, so the result
    is often much narrower than the input (constant width 10 across the
    torus4 family).  See diagram.far_commutation_order, which
    enumerate_rulings also searches on.  Normalizing a normal form changes
    nothing.  Returns (diagram, tr moves applied), so rulings can be
    transported along: the t-th emitted event hops back to index t by one
    ``tr`` move per event it passes, nearest first.
    """
    canon, origins = far_commutation_order(diagram)
    emitted, moves = [], []
    for t, i in enumerate(origins):
        hops = i - bisect_left(emitted, i)  # events before i not yet emitted
        moves += [Move("tr", t + j) for j in range(hops, 0, -1)]
        insort(emitted, i)
    return canon, moves


def match_swap(entry: tuple, old, old_flags, new) -> Optional[list]:
    """Boundary matching of a swap from its entry pairing alone: None when
    ``old`` does not scan from ``entry`` under ``old_flags``, else the
    flag lists of every match of ``new`` (see rulings.window_matches)."""
    keys, _, fail = scan(old, old_flags, key=entry)
    if fail is not None:
        return None
    return [flags for flags, _ in
            window_matches(entry, keys[-1], old, old_flags, new)]


def retrace(narrow, windows: tuple, ruling: tuple) -> list:
    """Carry a ruling of ``narrow`` back to switch flags of the original word
    by replaying every swap through the wide intermediate words.

    The test-only reference for rulings._map_back.  Undoes the swaps
    far_commutation_windows recorded in ``windows``, last emitted event
    first.  A swap past a cusp keeps every switch on its
    crossing.  A swap of two crossings is a ``tr`` move and takes the
    boundary-matching switch choice, which does not always follow crossing
    identity: when the two crossings involve the same two eyes, a lone
    switch can pass to the other crossing.  Undoing the swaps of event t
    only touches word indices >= t, so their entry pairing is the
    reordered word's prefix pairing at t.

    Boundary matching runs only when the two crossings, at p and q, share
    an eye: when the mate of p or p+1 is q or q+1 on entry.  Otherwise
    the lone switch stays on its crossing.  The eyes through p, p+1 and
    those through q, q+1 are then four distinct eyes, so crossing p moves
    no mate of q or q+1 and cannot change switch_ok(q), nor crossing q
    switch_ok(p): the flags that travel with their events scan.  The
    other one-switch choice crosses the other eye pair instead, which
    leaves different exit mates, so it does not match.
    """
    flags = switch_flags(narrow, ruling)
    entries = scan(narrow.events, flags)[0]
    for t in reversed([t for t, swaps in enumerate(windows) if swaps]):
        m = entries[t]
        for i, ((first, second), old) in enumerate(windows[t], start=t):
            f1, f2 = flags[i], flags[i + 1]
            if f1 != f2 and first.kind == CROSSING == second.kind and (
                    second.pos <= m[first.pos] <= second.pos + 1 or
                    second.pos <= m[first.pos + 1] <= second.pos + 1):
                matches = match_swap(m, (first, second), (f1, f2), old)
                if matches is None or len(matches) != 1:
                    raise TransportFailure(
                        "no unique boundary-matching switch choice while "
                        "mapping a ruling back to the original word")
                f2, f1 = matches[0]
            # flags travel with their events, unless boundary matching
            # moved a lone switch to the other crossing
            flags[i], flags[i + 1] = f2, f1
            m = step(m, old[0], f2)
    return flags


def hop_counts(origins) -> list:
    """Per event of a reordered word, how many events it passed: those
    before it in the caller's word (index below origins[t]) and emitted
    after it."""
    return [i - sum(j < i for j in origins[:t])
            for t, i in enumerate(origins)]


def as_rows(columns) -> list:
    """The (switches, tallies) rows of _transfer's or _enumerate's
    (switch tuples, fold ids, folds) columns."""
    switches, fold_ids, folds = columns
    return list(zip(switches, map(folds.__getitem__, fold_ids)))


def as_columns(rows) -> tuple:
    """The columns of (switches, tallies) rows, inverse of as_rows: fold
    ids are given in listing order, one per distinct tallies."""
    ids: dict = {}
    return ([switches for switches, _ in rows],
            [ids.setdefault(tallies, len(ids)) for _, tallies in rows],
            list(ids))


def reference_enumerate(diagram, budget, cls=PairingState,
                        reordered=None) -> tuple:
    """rulings._enumerate on the slow paths: the windowed reorder and the
    swap-by-swap retrace, with the same arguments and results.
    ``reordered`` may pass in far_commutation_windows(diagram)."""
    from clasplab.rulings import _transfer
    narrow, windows = reordered or far_commutation_windows(diagram)
    if max(narrow.walk.counts) >= max(diagram.walk.counts):
        found = as_rows(_transfer(diagram, budget, cls))
    else:
        found = []
        for ruling in _transfer(narrow, budget)[0]:
            flags = retrace(narrow, windows, ruling)
            tallies = scan(diagram.events, flags, cls)[1]
            found.append((tuple(o for o, f in zip(diagram.walk.ordinals,
                                                  flags) if f), tallies))
    found.sort(key=lambda row: (len(row[0]), row[0]))
    return as_columns(found)


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


# ---------------------------------------------------------------------------
# independent clasp oracle: classify every slice from scratch

DISJOINT = "disjoint"
NESTED = "nested"
INTERLEAVED = "interleaved"

#: Strand labels within an eye.  The lower strand at birth stays below its
#: partner for the eye's whole life (the two never cross), so the label is
#: simply the current vertical order.
LOWER, UPPER = 0, 1


def _pair_config(order: tuple) -> str:
    """Configuration of two eyes from their four strands' vertical order."""
    eyes = tuple(e for e, _ in order)
    if eyes[0] == eyes[1]:
        return DISJOINT
    if eyes[0] == eyes[3]:
        return NESTED
    return INTERLEAVED


def brute_pair_clasps(diagram: FrontDiagram, ruling: Iterable,
                      eye_a: int, eye_b: int) -> int:
    """Recount one pair's clasps by materializing every slice.

    Replays the word with its own scan, classifies the pair's
    configuration on every slice, locates maximal interleaved runs, and
    reads the bounding crossings' strand pairs off the position arrays.
    Used to cross-check the counts of ClaspState.
    """
    ruling = frozenset(ruling)
    slots: list = []
    slices = [()]
    next_eye = ordinal = 0
    for e in diagram.events:
        p = e.pos
        if e.kind == LEFT_CUSP:
            slots[p - 1:p - 1] = [(next_eye, LOWER), (next_eye, UPPER)]
            next_eye += 1
        elif e.kind == CROSSING:
            ordinal += 1
            if ordinal not in ruling:
                slots[p - 1], slots[p] = slots[p], slots[p - 1]
        else:
            del slots[p - 1:p + 1]
        slices.append(tuple(slots))
    if not (0 <= eye_a < next_eye and 0 <= eye_b < next_eye):
        raise UnknownEye("eye id out of range")

    def config_at(k):
        both = [s for s in slices[k] if s[0] in (eye_a, eye_b)]
        if len(both) != 4:
            return None  # not coexisting on this slice
        return _pair_config(tuple(both))

    def swapped_pair(k):
        """Strand pair of event k when it crosses our two eyes, else None."""
        e = diagram.events[k - 1]
        if e.kind != CROSSING:
            return None
        lo, hi = slices[k - 1][e.pos - 1], slices[k - 1][e.pos]
        if lo == slices[k][e.pos - 1]:
            return None  # a switch: nothing moved
        if {lo[0], hi[0]} != {eye_a, eye_b}:
            return None
        if lo[0] != min(eye_a, eye_b):
            lo, hi = hi, lo
        return (lo[1], hi[1])

    configs = [config_at(k) for k in range(len(slices))]
    clasps = 0
    k = 0
    while k < len(configs):
        if configs[k] != INTERLEAVED:
            k += 1
            continue
        start = k
        while k < len(configs) and configs[k] == INTERLEAVED:
            k += 1
        enter = swapped_pair(start)       # event turning slice start-1 -> start
        leave = swapped_pair(k)           # event turning slice k-1 -> k
        if enter is None or leave is None:
            raise InternalInvariantError(
                "interleaved run not bounded by pair crossings")
        if enter == leave:
            clasps += 1
    return clasps


# ---------------------------------------------------------------------------
# independent normality oracle: strand labels by slice position, no mates

def slice_normality(diagram: FrontDiagram, switches: Iterable) -> tuple:
    """Decide a switch set by the positions of (eye, strand) labels.

    The test-only reference for the pairing scan (is_normal_ruling): each
    slice lists the live strands bottom to top as (eye, strand) labels,
    and each condition reads the labels themselves.  A crossing on two
    strands of one eye fails, so does a right cusp on strands of two
    eyes, and at a switch the two eyes' four strands, in slice order,
    must not interleave (_pair_config).
    Returns (True, None, None), else (False, reason, i) with i the
    1-based index of the first failing event.
    """
    switches = frozenset(switches)
    slots: list = []
    next_eye = ordinal = 0
    for i, e in enumerate(diagram.events, start=1):
        p = e.pos
        if e.kind == LEFT_CUSP:
            slots[p - 1:p - 1] = [(next_eye, LOWER), (next_eye, UPPER)]
            next_eye += 1
            continue
        lo, hi = slots[p - 1][0], slots[p][0]
        if e.kind == RIGHT_CUSP:
            if lo != hi:
                return False, "right cusp joins strands of two different " \
                    "eyes", i
            del slots[p - 1:p + 1]
            continue
        ordinal += 1
        switched = ordinal in switches
        if lo == hi:
            return False, ("switch between two strands of one eye"
                           if switched else
                           "eye self-intersects at an unswitched crossing"), i
        if not switched:
            slots[p - 1], slots[p] = slots[p], slots[p - 1]
        elif _pair_config(tuple(s for s in slots
                                if s[0] in (lo, hi))) == INTERLEAVED:
            return False, "normality violated: eyes interleave at switch", i
    return True, None, None
