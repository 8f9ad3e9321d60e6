"""Reference answers that do not come from clasplab.

The benchmark checks every operation against these.  Nothing here imports
clasplab: each expected value comes from a closed form, from the paper's
torus4 values, or from the small self-contained front model below, which
replays move scripts as word rewrites and scans rulings and clasps with
its own code.

Events are ``(kind, pos)`` tuples with kind ``"lc"``, ``"rc"`` or ``"x"``
and 1-based vertical slots, as in the clasplab text format.
"""

from __future__ import annotations

from typing import Iterable, Optional

LC, RC, X = "lc", "rc", "x"

#: The right-handed trefoil front and its normal rulings, by hand.
TREFOIL = ((LC, 1), (LC, 3), (X, 2), (X, 2), (X, 2), (RC, 3), (RC, 1))
TREFOIL_RULINGS = [[1], [3], [1, 2, 3]]
#: Clasp totals of the trefoil rulings above: switching only crossing 1
#: (or only 3) leaves the other two as one clasp; switching all three
#: leaves the eyes disjoint.
TREFOIL_CLASPS = [1, 1, 0]

#: torus4(0) from the paper: one normal ruling, 2n+5 = 5 clasps.
TORUS4_N0_SWITCHES = [5, 6, 7, 11, 12]

#: A hand-checked script: a small eye, a tongue on its lower strand, then
#: a second small eye to the right.  The tongue's only compatible switch
#: choice switches its crossing, which keeps both eyes disjoint.
HAND_SCRIPT = "h0 1\nr1 1 @2 up\nh0 1\n"
HAND_SCRIPT_RESULT = {
    "clasps": {"pairs": [{"clasps": 0, "eyes": [0, 1]}], "parity": "even",
               "total": 0},
    "diagram": "lc 1\nlc 2\nx 1\nrc 2\nrc 1\nlc 1\nrc 1\n",
    "ruling": [1],
    "script": ["h0 1", "r1 1 @2 up", "h0 1"],
}


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def braid2_ruling_count(k: int) -> int:
    """Normal rulings of the 2-strand closure of sigma_1^k: F(k+1)."""
    return fibonacci(k + 1)


def torus4_clasps(n: int) -> int:
    """Clasps of the unique ruling of torus4(n): 2n+5."""
    return 2 * n + 5


def torus4_word_shape(n: int) -> dict:
    """Event counts of the torus4(n) front: q = 2n+5 cusps of each kind
    and 3q crossings."""
    q = 2 * n + 5
    return {LC: q, RC: q, X: 3 * q}


# ---------------------------------------------------------------------------
# a self-contained front model

def is_closed_word(events: Iterable) -> bool:
    """Every event fits the strands alive, and the word ends with none."""
    s = 0
    for kind, p in events:
        if p < 1:
            return False
        if kind == LC:
            if p > s + 1:
                return False
            s += 2
        elif kind in (RC, X):
            if p + 1 > s:
                return False
            if kind == RC:
                s -= 2
        else:
            return False
    return s == 0


def n_components(events: Iterable) -> int:
    """Components of a closed front, by joining strands at their cusps."""
    parent: dict = {}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    slots: list = []
    fresh = 0
    for kind, p in events:
        if kind == LC:
            parent[fresh] = parent[fresh + 1] = fresh
            slots[p - 1:p - 1] = [fresh, fresh + 1]
            fresh += 2
        elif kind == RC:
            a, b = find(slots[p - 1]), find(slots[p])
            parent[max(a, b)] = min(a, b)
            del slots[p - 1:p + 1]
        else:
            slots[p - 1], slots[p] = slots[p], slots[p - 1]
    return len({find(a) for a in parent})


def _apply_labelled(state: tuple, event: tuple, tag) -> Optional[tuple]:
    """Apply one event to a slice of strand labels; None if it does not fit.

    ``state`` is (slots, touched): the labels bottom to top, and for each
    crossing or right cusp, by event tag, the two labels it acted on.  A
    left cusp's new strands are labelled by its tag, so two orders of the
    same events can be compared strand by strand.
    """
    slots, touched = state
    kind, p = event
    if kind == LC:
        if not 1 <= p <= len(slots) + 1:
            return None
        return slots[:p - 1] + [(tag, 0), (tag, 1)] + slots[p - 1:], touched
    if p < 1 or p + 1 > len(slots):
        return None
    pair = slots[p - 1:p + 1]
    middle = [] if kind == RC else pair[::-1]
    return (slots[:p - 1] + middle + slots[p + 1:],
            {**touched, tag: tuple(pair)})


def _transpose(events: list, i: int) -> tuple:
    """The two events at i, i+1 performed in the other order.

    Finds the renumbering by replaying both orders on labelled strands: a
    cusp moves the slots above it by two, so each position can only stay or
    shift by two.  Raises ValueError unless exactly one choice gives the
    same slice with every event acting on the same strands.
    """
    s = 0
    for kind, _ in events[:i]:
        s += {LC: 2, RC: -2, X: 0}[kind]
    start = ([("old", k) for k in range(s)], {})
    first, second = events[i], events[i + 1]
    want = _apply_labelled(_apply_labelled(start, first, "first"), second,
                           "second")
    found = []
    for d2 in (0, -2, 2):
        new_second = (second[0], second[1] + d2)
        mid = _apply_labelled(start, new_second, "second")
        if mid is None:
            continue
        for d1 in (0, -2, 2):
            new_first = (first[0], first[1] + d1)
            if _apply_labelled(mid, new_first, "first") == want:
                found.append((new_second, new_first))
    if len(found) != 1:
        raise ValueError(f"transposition at event {i + 1} is not unique")
    return found[0]


def _r2_target(cusp: tuple, variant: str) -> list:
    """A cusp slid past the strand above (up) or below (down) it."""
    kind, p = cusp
    if kind == LC:
        if variant == "up":
            return [(LC, p + 1), (X, p), (X, p + 1)]
        return [(LC, p - 1), (X, p), (X, p - 1)]
    if variant == "up":
        return [(X, p + 1), (X, p), (RC, p + 1)]
    return [(X, p - 1), (X, p), (RC, p - 1)]


def replay_move(events: list, kind: str, anchor: Optional[int], pos: int,
                variant: str) -> list:
    """Apply one move of the front calculus to an event word.

    Insertions (h0, h1, r1) go before event ``anchor``, or at the end when
    it is None; the other kinds rewrite the window starting at ``anchor``.
    Raises ValueError when the window does not have the move's shape.
    """
    events = list(events)
    if kind in ("h0", "h1", "r1"):
        gap = len(events) if anchor is None else anchor - 1
        if kind == "h0":
            new = [(LC, pos), (RC, pos)]
        elif kind == "h1":
            new = [(RC, pos), (LC, pos)]
        elif variant in ("", "up"):
            new = [(LC, pos + 1), (X, pos), (RC, pos + 1)]
        else:
            new = [(LC, pos), (X, pos + 1), (RC, pos)]
        events[gap:gap] = new
        return events
    i = anchor - 1
    window = events[i:i + 3]
    if kind == "r1inv":
        tongue = [(LC, window[0][1]), (X, window[0][1] - 1),
                  (RC, window[0][1])]
        tongue_down = [(LC, window[0][1]), (X, window[0][1] + 1),
                       (RC, window[0][1])]
        if window not in (tongue, tongue_down):
            raise ValueError(f"r1inv at {anchor}: no tongue")
        del events[i:i + 3]
    elif kind == "r2":
        cusp = events[i]
        if cusp[0] == X:
            raise ValueError(f"r2 at {anchor}: not a cusp")
        events[i:i + 1] = _r2_target(cusp, variant or "up")
    elif kind == "r2inv":
        # The inverse of r2: find the cusp and direction whose r2 is the window.
        candidates = []
        for cusp_kind in (LC, RC):
            for q in range(1, max(p for _, p in window) + 2):
                for v in ("up", "down"):
                    if _r2_target((cusp_kind, q), v) == window:
                        candidates.append((cusp_kind, q))
        if len(candidates) != 1:
            raise ValueError(f"r2inv at {anchor}: window is not an r2 image")
        events[i:i + 3] = candidates
    elif kind == "r3":
        (k0, q), (k1, r), (k2, q2) = window
        if (k0, k1, k2) != (X, X, X) or q2 != q or abs(q - r) != 1:
            raise ValueError(f"r3 at {anchor}: no triple point")
        events[i:i + 3] = [(X, r), (X, q), (X, r)]
    elif kind == "tr":
        events[i:i + 2] = _transpose(events, i)
    else:
        raise ValueError(f"unknown move kind {kind!r}")
    return events


def replay_script(moves: Iterable) -> list:
    """The event word a move script builds from the empty front.

    ``moves`` yields objects with ``kind``, ``anchor``, ``pos`` and
    ``variant`` attributes.
    """
    events: list = []
    for m in moves:
        events = replay_move(events, m.kind, m.anchor, m.pos, m.variant)
    return events


def _eye_config(slots: list, a: int, b: int) -> str:
    """Disjoint, nested or interleaved, from the order of four strands."""
    order = [eye for eye, _ in slots if eye in (a, b)]
    if order[0] == order[1]:
        return "disjoint"
    if order[0] == order[3]:
        return "nested"
    return "interleaved"


def ruling_clasps(events: Iterable, switches: Iterable) -> Optional[int]:
    """Total clasp count of a normal ruling, or None if it is not normal.

    Smooths the switches, follows each eye's lower and upper strand, and
    checks the normal-ruling conditions on the way: an unswitched crossing
    joins two eyes, a switch never joins interleaved eyes, and a right cusp
    closes one eye.  A clasp is an interleaved interval of an eye pair that
    is entered and left by crossings of the same strand of each eye.
    """
    switches = set(switches)
    slots: list = []  # (eye, strand) bottom to top
    entering: dict = {}  # eye pair -> strand pair that made it interleave
    eyes = 0
    ordinal = 0
    clasps = 0
    for kind, p in events:
        if kind == LC:
            slots[p - 1:p - 1] = [(eyes, 0), (eyes, 1)]
            eyes += 1
            continue
        lo, hi = slots[p - 1], slots[p]
        if kind == RC:
            if lo[0] != hi[0]:
                return None
            del slots[p - 1:p + 1]
            continue
        ordinal += 1
        if lo[0] == hi[0]:
            return None
        pair = (min(lo[0], hi[0]), max(lo[0], hi[0]))
        before = _eye_config(slots, *pair)
        if ordinal in switches:
            if before == "interleaved":
                return None
            continue
        slots[p - 1], slots[p] = hi, lo
        after = _eye_config(slots, *pair)
        strands = (lo[1], hi[1]) if lo[0] == pair[0] else (hi[1], lo[1])
        if after == "interleaved":
            entering[pair] = strands
        elif before == "interleaved":
            clasps += entering.pop(pair) == strands
    return clasps
