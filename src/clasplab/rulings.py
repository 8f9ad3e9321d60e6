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
  in one of the three admissible configurations (see _switch_ok);
* right cusp at p: slots p, p+1 must be the two slots of a single eye.

A scan state is its key, an immutable tuple: for the bare pairing
(PairingState), the mates; for the clasp count (clasps.ClaspState), the
eye id of each slot, which fixes the mates, and what the count needs
besides.  Each state class has a start key and one transition,
``edges(key, event)``, which gives the key's switch step and plain step,
each as (next key, tally) or None for a dead end; the normality rule at
a switch is written once, in _switch_ok, which both classes call on the
two mates.  A class that counts something reports each edge's tally, and
the scans sum them per label without knowing what they count.

A switch choice is carried as per-event flags (True at switched crossings,
False everywhere else), and ``scan`` runs a class over a word or a window
of one, taking each event's edge by its flag and listing the keys it
passes.  Every linear walk reads its keys off ``scan``, _map_back and
clasps.resolve included.  Only two loops step keys themselves:
_transfer's forward pass, which merges equal keys, and window_matches,
which tries each switch choice of a rewritten window (measured slower
through ``scan``).  Boundary matching runs only in move transport.
Switch sets of crossing ordinals meet the flags only in switch_flags,
switches_of and _enumerate.

Rulings are listed by a transfer scan (_transfer): equal keys scan every
suffix alike, so its forward pass keeps each distinct key once and steps
it by its class's ``edges``.  A backward pass lists each key's suffixes
by switch count from the next event's lists, already in final order,
and folds the tallies per suffix.  The listing is columns: the switch
tuples (increasing, until a public listing makes them frozensets), fold
ids, and the table of distinct folds the ids index.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, combinations, compress, zip_longest
from typing import Iterable, NamedTuple, Optional

from .diagram import (CROSSING, LEFT_CUSP, Event, FrontDiagram,
                      far_commutation_order)
from .errors import BudgetExceeded, InvalidRuling, TransportFailure


def _switch_ok(a: int, b: int, p: int) -> bool:
    """Normality at a switch between the eyes through slots p, p+1.

    With a and b the mates of p and p+1, exactly three of the six mate
    configurations are admissible: the two eyes vertically disjoint, or
    nested with both mates above, or nested with both mates below.
    Interleaved eyes never switch.  An unswitched crossing swaps a and b,
    so it turns each admissible configuration into an interleaved one and
    back.
    """
    return (a < p and b > p + 1) or (p + 1 < b < a) or (b < a < p)


def _born(m: list, p: int) -> None:
    """A left cusp at p: a new eye on slots p, p+1, in place."""
    for i in range(1, len(m)):
        if m[i] >= p:
            m[i] += 2
    m[p:p] = (p + 1, p)


def _died(m: list, p: int) -> None:
    """A right cusp closes the eye on slots p, p+1, in place."""
    del m[p:p + 2]
    for i in range(1, len(m)):
        if m[i] >= p + 2:
            m[i] -= 2


class PairingState:
    """The pairing scan's state class.  A state is its key, the tuple of
    mates: ``m[p]`` is the slot currently occupied by the other strand of
    the eye through slot p; slots are 1-based and ``m[0]`` is 0.  The
    pairing alone decides every ruling condition; eye identities are not
    needed here.  ``start`` is the empty pairing, and ``edges`` is the one
    transition, built from _switch_ok, _born and _died.
    """

    start = (0,)

    @staticmethod
    def edges(m: tuple, event: Event) -> tuple:
        """The switch step and the plain step of the state keyed ``m``
        over ``event``, each as (next key, tally), or None for a dead end
        (_failure names it); the switch step is None off crossings.  A
        switch keeps the pairing, so its key is ``m`` itself."""
        p, kind = event.pos, event.kind
        if kind == CROSSING:
            a, b = m[p], m[p + 1]
            if a == p + 1:
                return None, None  # an eye crossing itself
            mates = list(m)  # slots p, p+1 trade eyes
            mates[a], mates[b], mates[p], mates[p + 1] = p + 1, p, b, a
            return ((m, None) if _switch_ok(a, b, p) else None,
                    (tuple(mates), None))
        mates = list(m)
        if kind == LEFT_CUSP:
            _born(mates, p)
        elif m[p] != p + 1:
            return None, None  # a right cusp of two eyes
        else:
            _died(mates, p)
        return None, (tuple(mates), None)


def _failure(key: tuple, event: Event, is_switch: bool) -> str:
    """Why the edge over ``event`` from ``key`` is dead, read off the mates
    or off the eye ids that lead a counting state's key."""
    if event.kind != CROSSING:
        if is_switch:
            side = "left" if event.kind == LEFT_CUSP else "right"
            return f"switch flag on a {side} cusp"
        return "right cusp joins strands of two different eyes"
    p, eyes = event.pos, key[0]
    same = key[p] == p + 1 if isinstance(eyes, int) else \
        eyes[p] == eyes[p + 1]
    if not same:
        return "normality violated: eyes interleave at switch"
    if is_switch:
        return "switch between two strands of one eye"
    return "eye self-intersects at an unswitched crossing"


def scan(events, flags, cls=PairingState,
         key: Optional[tuple] = None) -> tuple:
    """Run a state class's scan over ``events`` with per-event switch flags.

    Starts from ``key``, or from ``cls.start``, and stops at the end of
    the shorter of ``events`` and ``flags``.  Each event takes the switch
    or the plain edge of ``cls.edges`` by its flag, and the edges' tallies
    are summed per label.  Returns (keys, tallies, fail): the keys passed,
    ``keys[i]`` the one before ``events[i]`` and ``keys[-1]`` the last
    reached; the sorted (label, sum) pairs; and None when every event
    scans, else (i, reason) with i the 1-based index of the first failing
    event, so ``keys[-1]`` is the state before it and ``len(keys) == i``.
    """
    if key is None:
        key = cls.start
    keys, edges, sums, fail = [key], cls.edges, {}, None
    for i, (e, f) in enumerate(zip(events, flags), start=1):
        edge = edges(key, e)[not f]
        if edge is None:
            fail = i, _failure(key, e, f)
            break
        key, tally = edge
        keys.append(key)
        if tally is not None:
            label, amount = tally
            sums[label] = sums.get(label, 0) + amount
    return keys, tuple(sorted(sums.items())), fail


def switch_flags(diagram: FrontDiagram, switches: Iterable) -> list:
    """Per-event switch flags of a set of crossing ordinals (1-based)."""
    switches = frozenset(switches)
    c = diagram.n_crossings
    for o in switches:
        if type(o) is not int:
            raise InvalidRuling(f"switch ordinal {o!r} is not an int")
        if not 1 <= o <= c:
            raise InvalidRuling(f"switch ordinal {o} outside 1..{c}")
    return [o in switches for o in diagram.walk.ordinals]


def switches_of(diagram: FrontDiagram, flags) -> frozenset:
    """The crossing ordinals flagged as switches; inverse of switch_flags."""
    return frozenset(o for o, f in zip(diagram.walk.ordinals, flags) if f)


class RulingCheck(NamedTuple):
    ok: bool
    reason: Optional[str] = None
    event_index: Optional[int] = None  # 1-based, where the scan failed


def is_normal_ruling(diagram: FrontDiagram, switches: Iterable) -> RulingCheck:
    """Run the scan with the given switch set and report the outcome."""
    _, _, fail = scan(diagram.events, switch_flags(diagram, switches))
    if fail is None:
        return RulingCheck(True)
    return RulingCheck(False, fail[1], fail[0])


class _FoldStep(dict):
    """Fold id -> the fold id after one tally: the memo table of that
    tally, filled on first use.  ``folds[f]`` is a sorted (label, sum)
    tuple and ``ids`` its inverse, shared by every table of one scan."""

    __slots__ = ("_tally", "_folds", "_ids")

    def __init__(self, tally: tuple, folds: list, ids: dict):
        self._tally, self._folds, self._ids = tally, folds, ids

    def __missing__(self, f: int) -> int:
        sums = dict(self._folds[f])
        label, amount = self._tally
        sums[label] = sums.get(label, 0) + amount
        fold = tuple(sorted(sums.items()))
        g = self[f] = self._ids.setdefault(fold, len(self._folds))
        if g == len(self._folds):
            self._folds.append(fold)
        return g


def _transfer(diagram: FrontDiagram, budget: Optional[int],
              cls=PairingState) -> tuple:
    """Every way to scan the word as given, by size, then lexicographic,
    as columns (switches, fold_ids, folds): the increasing tuples of
    switch ordinals and per ruling the index in ``folds`` of its fold,
    the sorted (label, sum) pairs ``scan`` would report for it.
    ``folds`` holds once each fold the backward pass meets, listed or not.

    A transfer-matrix scan in two passes.  Forward, event by event, it
    keeps only keys (states with equal keys scan every suffix alike) and
    each key's number of prefix paths.  One loop serves every state class
    ``cls``: its ``edges(key, event)`` gives the key's switch step and
    plain step, each as (next key, tally) or None for a dead end, and a
    switch keeps the key, since it never changes the pairing.  Backward,
    each node lists its suffixes, the paths from it to the end of the
    word, in buckets by switch count, from the next layer's: a switch
    edge prepends its ordinal to every switch tuple and moves each bucket
    up by one, and each size lists the switch edge's first, so the start
    key's buckets, in count order, are the listing.  Each edge maps the
    fold ids through its tally's memo table (_FoldStep), unless it adds 0
    to a label that every fold holds (the child's such labels plus the
    edge's, and at a join those of both).  A node reaches the end exactly
    when it has buckets.  Every prepend copies a tuple, so a ruling with s
    switches costs s*s element copies, all of them in C.

    Raises BudgetExceeded, before listing anything, once more than
    ``budget`` event steps would be taken by a backtracking search: the
    sum of the path counts over every (event, key).
    """
    edges, keys, paths = cls.edges, [cls.start], [1]
    # Per event, two slots per node: the switch step, then the plain one.
    # nxt[slot] is the node it reaches in the next layer (-1 for none) and
    # tal[slot] its tally.  Flat lists keep the objects the garbage
    # collector tracks to a few per event, not a few per edge.
    layers = []
    steps = 0
    for e in diagram.events:
        steps += sum(paths)
        if budget is not None and steps > budget:
            raise BudgetExceeded(
                f"enumeration exceeded {budget} steps", nodes=budget + 1)
        index: dict = {}  # key -> node of the next layer
        next_paths, nxt, tal = [], [], []
        for key, n in zip(keys, paths):
            for edge in edges(key, e):
                if edge is None:
                    nxt.append(-1)
                    tal.append(None)
                    continue
                k = index.setdefault(edge[0], len(next_paths))
                if k == len(next_paths):
                    next_paths.append(n)
                else:
                    next_paths[k] += n
                nxt.append(k)
                tal.append(edge[1])
        layers.append((nxt, tal))
        keys, paths = list(index), next_paths

    # Backward: per node, its suffixes by switch count as (switch tuple
    # lists, fold id lists, labels all its folds hold); -1 is a dead end.
    dead, folds, fold_ids, tables = ([], [], None), [()], {(): 0}, {}

    def tallied(suffixes: tuple, tally: tuple) -> tuple:
        """Suffixes after a tally, unchanged if it adds 0 to a held label."""
        switches, ids, held = suffixes
        if not tally[1] and tally[0] in held:
            return suffixes
        if tally not in tables:
            tables[tally] = _FoldStep(tally, folds, fold_ids)
        step = tables[tally].__getitem__
        return switches, [list(map(step, f)) for f in ids], held | {tally[0]}

    suffixes = [([[()]], [[0]], frozenset())] * len(keys) + [dead]
    for (nxt, tal), ordinal in zip(reversed(layers),
                                   reversed(diagram.walk.ordinals)):
        prefix = (ordinal,).__add__
        listed = []
        for j in range(0, len(nxt), 2):
            plain = suffixes[nxt[j + 1]]
            if plain[0] and tal[j + 1] is not None:
                plain = tallied(plain, tal[j + 1])
            switch = suffixes[nxt[j]]
            if switch[0]:
                if tal[j] is not None:
                    switch = tallied(switch, tal[j])
                sa, fa, held = switch
                sb, fb, also = plain
                # the switch edge's bucket i lists first in bucket i + 1;
                # f is empty exactly when s is
                ss, ff = sb[:1] or [[]], fb[:1] or [[]]
                for s, f, t, g in zip_longest(sa, fa, sb[1:], fb[1:],
                                              fillvalue=[]):
                    ss.append([*map(prefix, s), *t] if s else t)
                    ff.append(f + g if f and g else f or g)
                plain = ss, ff, held & also if sb else held
            listed.append(plain)
        suffixes = listed + [dead]
    switches, ids, _ = suffixes[0]
    return (list(chain.from_iterable(switches)),
            list(chain.from_iterable(ids)), folds)


def _map_back(narrow: FrontDiagram, origins: tuple, ruling: tuple) -> list:
    """Carry a ruling of ``narrow``, far_commutation_order's reordering of
    a word, back to switch flags of that word, ``origins[t]`` being the
    word's index of the t-th event of ``narrow``.

    Undoing the reordering moves each emitted event back past the events
    emitted after it that precede it in the word, last emitted first;
    each swap is a ``tr`` move, whose transport takes the boundary-matching
    switch choice.  A swap past a cusp keeps every switch on its crossing,
    and so does a swap of two crossings that share at most one eye: with
    one eye shared, the other one-switch choice crosses the other eye pair
    instead and leaves different exit mates; with none, neither crossing
    can change the other's switch test (_switch_ok).  So the flags travel
    by the permutation ``origins``, except by one rule: two crossings
    that carry the same two eyes, the strands entering one mated with the
    two entering the other, trade flags, so a lone switch passes to the
    other crossing (with equal flags the trade changes nothing).  Of the
    eight local cases (the moving crossing below or above, the switch on
    either crossing, its strands mated straight or across), four put the
    switch between interleaved eyes, so their window does not scan, and in
    the other four boundary matching gives exactly the trade.  The window
    is part of a normal ruling, so it scans, and no match is needed.

    A swap starts from the pairing on a cut of the dependency order: the
    reordered word before the moving crossing, then the events it has
    passed.  Those never touch its strands, and a mate changes strand
    only at a switch on that mate, so the walk visits only crossings on
    the two mated strands (named by their left cusp's index in the
    word), read off ``scan``'s key before the moving crossing.  Crossings
    on one strand never commute, so they come in the same order in both
    words, and one walk of the reordered word lists each strand's
    crossings.
    """
    # Per crossing of the reordered word: its strands and their mates on
    # the slice before it; per strand, the times of its crossings in the
    # reordered word.
    flags = switch_flags(narrow, ruling)
    keys, stack, walks = scan(narrow.events, flags)[0], [], []
    strands, on = {}, {}
    for t, e in enumerate(narrow.events):
        p = e.pos
        if e.kind == LEFT_CUSP:
            lower = 2 * origins[t]
            stack[p - 1:p - 1] = (lower, lower + 1)
            on[lower], on[lower + 1] = [], []
        elif e.kind == CROSSING:
            a, b = strands[origins[t]] = stack[p - 1], stack[p]
            on[a].append(t)
            on[b].append(t)
            m = keys[t]
            walks.append((t, stack[m[p] - 1], stack[m[p + 1] - 1]))
            stack[p - 1], stack[p] = b, a
        else:
            del stack[p - 1:p + 1]

    out = [False] * len(origins)
    for t, f in enumerate(flags):
        out[origins[t]] = f
    for t, mate1, mate2 in reversed(walks):
        moving = origins[t]
        c = -1
        while True:
            # the next crossing on a mated strand that the moving one
            # passes: after c, emitted after t, and before it in the word
            passed = []
            for cs in (on[mate1], on[mate2]):
                k = max(bisect_right(cs, c, key=origins.__getitem__),
                        bisect_right(cs, t))
                if k < len(cs) and origins[cs[k]] < moving:
                    passed.append(origins[cs[k]])
            if not passed:
                break
            c = min(passed)
            u1, u2 = strands[c]
            if {u1, u2} == {mate1, mate2}:  # the two trade flags
                out[c], out[moving] = out[moving], out[c]
            if out[c]:  # the eyes turn: a mate on u1 goes on along u2
                turn = {u1: u2, u2: u1}
                mate1, mate2 = turn.get(mate1, mate1), turn.get(mate2, mate2)
    return out


def _enumerate(diagram: FrontDiagram, budget: Optional[int],
               cls=PairingState) -> tuple:
    """Every normal ruling as _transfer's columns, by size, then
    lexicographic: on ``diagram`` itself, as the transfer scan lists them;
    after mapping back, which changes the ordinals, sorted by (length,
    tuple), with fold ids assigned in listing order.

    The number of scan states grows with the width (the most strands
    alive on one slice), so the word is first reordered by far
    commutation: among the events that can commute to the front of what
    is left, right cusps go first, then crossings, then left cusps, lower
    slots first (see far_commutation_order).  The reorder stops once its
    emitted prefix is as wide as ``diagram``, since the result could not
    be strictly narrower; the transfer scan (_transfer) then runs on
    ``diagram`` itself.  Otherwise it runs on the reordered word, and
    _map_back carries each ruling found there back by the reorder's
    permutation and the ``tr`` swaps it stands for, so switches are always
    crossing ordinals of ``diagram`` itself.  The optional ``budget``
    bounds the backtracking steps on the word actually scanned; it is
    checked before any ruling is listed.

    The folds are the tallies the state class ``cls`` (default the bare
    pairing) adds when run over ``diagram`` under the ruling: folded along
    the listing when ``diagram`` is scanned, else read off one linear scan
    after the ruling is mapped back.  What a counting class counts on the
    reordered word is not proven equal to its count on ``diagram`` (a
    lone switch can pass to the other crossing of a ``tr`` hop), so the
    reordered scan runs on a bare pairing.  A mapped-back ruling that the
    linear scan refuses raises TransportFailure.
    """
    reordered = far_commutation_order(diagram, max(diagram.walk.counts))
    if reordered is None:
        return _transfer(diagram, budget, cls)
    narrow, origins = reordered
    ordinals = diagram.walk.ordinals
    rows = []
    for ruling in _transfer(narrow, budget)[0]:
        flags = _map_back(narrow, origins, ruling)
        tallies = ()
        if cls is not PairingState:
            _, tallies, fail = scan(diagram.events, flags, cls)
            if fail is not None:
                raise TransportFailure(
                    f"a ruling mapped back to the original word fails at "
                    f"event {fail[0]}: {fail[1]}")
        rows.append((tuple(compress(ordinals, flags)), tallies))
    rows.sort(key=lambda row: (len(row[0]), row[0]))
    ids: dict = {}  # fold -> fold id, in listing order
    fold_ids = [ids.setdefault(tallies, len(ids)) for _, tallies in rows]
    return [switches for switches, _ in rows], fold_ids, list(ids)


def enumerate_rulings(diagram: FrontDiagram, budget: Optional[int] = None) -> list:
    """All normal rulings, from a transfer scan over the switch choices.

    Switch sets are crossing ordinals of ``diagram``, by size, then
    lexicographic; the scan runs on a narrower reordering of the word
    when there is one (see _enumerate).  The optional ``budget`` bounds
    the steps a backtracking search would take on the word actually
    scanned; BudgetExceeded is raised before any ruling is listed.
    """
    return list(map(frozenset, _enumerate(diagram, budget)[0]))


def window_matches(entry: tuple, exit_key: tuple, old, old_flags,
                   new) -> list:
    """Boundary matching for a rewrite of one window of the word.

    ``exit_key`` is the pairing that the old window ``old`` reaches from
    the pairing ``entry`` under its switch flags ``old_flags``.  Returns
    every switch choice of ``new`` that scans from ``entry`` to the same
    pairing, each as (flags, keys): its per-event flag list and the
    pairing after each of its events.  Windows with equal crossing counts
    only exchange choices with equal switch counts: boundary matching
    alone cannot split e.g. the one-switch and all-switch assignments of
    a triple point, whose exit pairings coincide.
    """
    slots = [k for k, e in enumerate(new) if e.kind == CROSSING]
    if len(slots) == len([e for e in old if e.kind == CROSSING]):
        sizes = [sum(old_flags)]
    else:
        sizes = range(len(slots) + 1)
    # keys stepped by hand: through scan, random scripts ran ~6% slower
    edges, matches = PairingState.edges, []
    for size in sizes:
        for switched in combinations(slots, size):
            flags = [k in switched for k in range(len(new))]
            key, keys = entry, []
            for e, f in zip(new, flags):
                edge = edges(key, e)[not f]
                if edge is None:
                    break
                key = edge[0]
                keys.append(key)
            else:
                if key == exit_key:
                    matches.append((flags, keys))
    return matches
