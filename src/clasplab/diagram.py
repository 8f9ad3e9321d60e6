"""Event-word encoding of front diagrams of Legendrian links.

A generic front is read left to right as a word of events, each carrying a
1-based vertical slot (1 = bottom strand):

* ``lc p`` -- left cusp: inserts two new strands at slots p, p+1,
  shifting former slots >= p up by 2;
* ``rc p`` -- right cusp: removes the strands at slots p, p+1,
  shifting former slots >= p+2 down by 2;
* ``x p``  -- crossing: exchanges the strands at slots p and p+1.

A diagram is closed: the strand count starts at 0 and returns to 0 after
the last event.  Crossings are numbered 1..c left to right.  Building a
FrontDiagram checks all of this once, so code that takes one never checks
it again; ``validate`` reports on any raw event word.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import InvalidBraidLetter, InvalidDiagram, ParseError

LEFT_CUSP = "lc"
RIGHT_CUSP = "rc"
CROSSING = "x"

_KINDS = (LEFT_CUSP, RIGHT_CUSP, CROSSING)
_NAMES = {LEFT_CUSP: "left cusp", RIGHT_CUSP: "right cusp",
          CROSSING: "crossing"}
_DELTA = {LEFT_CUSP: 2, RIGHT_CUSP: -2, CROSSING: 0}


class _Frozen:
    """Base of the immutable values the scan and move loops read: slots
    read faster than NamedTuple getters.  ``_fields``, the constructor's
    arguments in order, are compared within one class, hashed as a tuple,
    pickled and (unless ``_hidden``) shown; setting any attribute raises."""

    __slots__ = ()
    _hidden = ()

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields
                 if name not in self._hidden)
        return f"{type(self).__name__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Event(_Frozen):
    """One cusp or crossing of a front, at one x-coordinate."""

    __slots__ = _fields = ("kind", "pos")

    def __init__(self, kind: str, pos: int):
        if kind not in _KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if type(pos) is not int:  # bool included: str() must parse back
            raise ValueError(f"event position {pos!r} is not an int")
        if pos < 1:
            raise ValueError("event positions are 1-based")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pos", pos)

    def __str__(self):
        return f"{self.kind} {self.pos}"


def lc(p: int) -> Event:
    return Event(LEFT_CUSP, p)


def rc(p: int) -> Event:
    return Event(RIGHT_CUSP, p)


def x(p: int) -> Event:
    return Event(CROSSING, p)


class Violation(NamedTuple):
    """A broken invariant, located at a 1-based event index."""

    event_index: int
    rule: str

    def __str__(self):
        return f"event {self.event_index}: {self.rule}"


class DiagramWalk(NamedTuple):
    """What one left-to-right pass over a valid event word finds."""

    counts: tuple  # strand count before each event, plus the final count
    ordinals: tuple  # per event: crossing ordinal (1-based), 0 at cusps
    n_crossings: int


def _walk(events: tuple) -> tuple:
    """The one pass over an event word that everything else reads:
    (DiagramWalk, None) for a valid closed word, else (None, the first
    Violation), since slot arithmetic is meaningless past it."""
    counts, ordinals = [0], []
    s = c = 0
    for i, e in enumerate(events, start=1):
        p = e.pos
        if e.kind == LEFT_CUSP:
            need = p > s + 1 and f"position <= {s + 1}"
        else:
            need = p + 1 > s and f"two strands at {p},{p + 1}"
        if need:
            return None, Violation(i, f"{_NAMES[e.kind]} at {p} needs "
                                      f"{need} (only {s} strands alive)")
        is_crossing = e.kind == CROSSING
        c += is_crossing
        ordinals.append(c if is_crossing else 0)
        s += _DELTA[e.kind]
        counts.append(s)
    if s != 0:
        return None, Violation(
            len(events), f"diagram is not closed: {s} strands left open")
    return DiagramWalk(tuple(counts), tuple(ordinals), c), None


class FrontDiagram(_Frozen):
    """An immutable closed front diagram, stored as its event word.

    Construction walks the word once and raises InvalidDiagram at its
    first violation, so every FrontDiagram is a valid closed front;
    ``walk`` keeps what that pass found.
    """

    __slots__ = ("events", "walk")
    _fields = ("events",)

    def __init__(self, events: Iterable[Event] = ()):
        events = tuple(events)
        walk, violation = _walk(events)
        if violation is not None:
            raise InvalidDiagram(str(violation))
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "walk", walk)

    def __len__(self):
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __str__(self):
        return "[" + ", ".join(str(e) for e in self.events) + "]"

    @property
    def n_crossings(self) -> int:
        return self.walk.n_crossings


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...] = ()


def validate(word: Iterable[Event]) -> ValidationReport:
    """Check any event word against the front-diagram invariants.

    Returns a report rather than raising; only the first offending event
    is reported.
    """
    _, violation = _walk(tuple(word))
    return ValidationReport(violation is None,
                            () if violation is None else (violation,))


class StrandTrace(NamedTuple):
    """Connectivity data of a diagram.

    Strand segments are numbered by birth (each left cusp creates ids
    2k-1, 2k); ``slices[i]`` lists the ids on the slice left of event i,
    bottom to top.  Components are numbered 0,1,.. by first appearance.
    """

    slices: tuple[tuple[int, ...], ...]
    component_of_strand: dict[int, int]
    n_components: int


def trace_components(diagram: FrontDiagram) -> StrandTrace:
    """Trace strand identities through the word and join them at cusps."""
    parent: dict[int, int] = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    slices: list[tuple[int, ...]] = [()]
    stack: list[int] = []
    next_id = 1
    for e in diagram.events:
        if e.kind == LEFT_CUSP:
            a, b = next_id, next_id + 1
            next_id += 2
            parent[a] = a
            parent[b] = b
            union(a, b)
            stack[e.pos - 1:e.pos - 1] = [a, b]
        elif e.kind == RIGHT_CUSP:
            a, b = stack[e.pos - 1], stack[e.pos]
            union(a, b)
            del stack[e.pos - 1:e.pos + 1]
        else:
            stack[e.pos - 1], stack[e.pos] = stack[e.pos], stack[e.pos - 1]
        slices.append(tuple(stack))

    component_of: dict[int, int] = {}
    order: dict[int, int] = {}
    for sid in range(1, next_id):
        root = find(sid)
        if root not in order:
            order[root] = len(order)
        component_of[sid] = order[root]
    return StrandTrace(tuple(slices), component_of, len(order))


# ---------------------------------------------------------------------------
# far commutation


#: Per kind, the slots an event needs on the slice to its left (_NEEDS)
#: and fills on the slice to its right (_FILLS), as (low, high) offsets
#: from twice its slot: a cusp's gap, the half slot below its slot, is -1.
_NEEDS = {LEFT_CUSP: (-1, -1), RIGHT_CUSP: (0, 2), CROSSING: (0, 2)}
_FILLS = {LEFT_CUSP: (0, 2), RIGHT_CUSP: (-1, -1), CROSSING: (0, 2)}


def _side(first: Event, second: Event) -> int:
    """Where the support of ``second`` lies against that of ``first`` on
    the slice between the two adjacent events: 1 wholly above, -1 wholly
    below, 0 when they meet (shared slots, or a birth/death aimed at the
    same gap).  The two commute exactly when it is not 0."""
    low, high = _FILLS[first.kind]
    need_low, need_high = _NEEDS[second.kind]
    d = 2 * (second.pos - first.pos)
    if high < d + need_low:
        return 1
    if d + need_high < low:
        return -1
    return 0


def transpose_events(first: Event, second: Event) -> Optional[tuple]:
    """Swap two adjacent events when their supports are disjoint.

    Returns the renumbered (second, first) pair, or None when the events
    interact (see _side).
    """
    side = _side(first, second)
    if side > 0:
        return Event(second.kind, second.pos - _DELTA[first.kind]), first
    if side < 0:
        return second, Event(first.kind, first.pos + _DELTA[second.kind])
    return None


_RANK = {RIGHT_CUSP: 0, CROSSING: 1, LEFT_CUSP: 2}


class _Gap(list):
    """The gap objects of the caller's word that a left cusp waits for and
    that lie in one gap of the emitted word's last slice, bottom to top.
    Equal only to itself, so that list.index finds a gap by identity."""

    __eq__ = object.__eq__


def far_commutation_order(diagram: FrontDiagram,
                          stop_width: Optional[int] = None):
    """Greedy topological order of a valid word under far commutation.

    Each step takes, among the remaining events that commute to the front
    of the remaining word, the least by kind -- right cusps, then
    crossings, then left cusps -- then by slot on the front slice, then
    by word order.  Closing eyes early and opening them late keeps few
    strands alive.  Running the order on its own output changes nothing.
    Returns (reordered diagram, origins), origins[t] being the index in
    ``diagram`` of the t-th emitted event, or None once the emitted
    prefix has ``stop_width`` strands alive.

    One forward pass builds the dependency order on doubled coordinates
    (slot p is 2p, the gap below it 2p-1): each coordinate has one
    occupant, the last event that filled it, and an event waits for the
    occupants of what it needs.  A left cusp also fills the outer gaps of
    its eye, as a left cusp born there would have the same key but a
    later index; a right cusp's merged gap waits, through one extra node,
    for the cusp and both outer gaps.  Then only ready events get keys.
    The emitted word's last slice names strands by their left cusp, and
    its gaps hold the gap objects left cusps wait for, so a left cusp
    finds its gap after right cusps merged it with others.  Only a left
    cusp can wait for more: a right cusp emitted early erases its strands
    from the rest of the word, and ``free`` checks the gaps beyond them.
    """
    events = diagram.events
    n = len(events)
    succs = [[] for _ in range(n)]
    waiting = [0] * n

    def wait(node, pred):
        if pred >= 0 and node not in succs[pred]:
            succs[pred].append(node)
            waiting[node] += 1

    occ = [-1, -1]  # occupant per doubled coordinate; index 0 unused
    gaps = [0]  # gap objects of the slice, bottom to top
    stack = []  # strand names of the slice, bottom to top
    info = []  # per event: what it needs, its first new gap object, and
    #            for a left cusp the gap objects and strands it saw
    lc_gap = [False]  # per gap object: whether a left cusp splits it
    filler = [-1]  # per gap object: the node that occupies it
    killer = [0] * (2 * n)  # per strand name: the right cusp it dies at
    for i, e in enumerate(events):
        p = e.pos
        if e.kind == LEFT_CUSP:
            wait(i, occ[2 * p - 1])
            occ[2 * p - 1:2 * p] = (i,) * 5
            g = gaps[p - 1]
            lc_gap[g] = True
            new = len(lc_gap)
            info.append((g, new, tuple(gaps), tuple(stack)))
            gaps[p - 1:p] = (new, new + 1, new + 2)
            lc_gap += (False, False, False)
            filler += (i, i, i)
            stack[p - 1:p - 1] = (2 * i, 2 * i + 1)
            continue
        for pred in occ[2 * p:2 * p + 3]:
            wait(i, pred)
        info.append((stack[p - 1], len(lc_gap)))
        lc_gap.append(False)
        if e.kind == CROSSING:
            occ[2 * p:2 * p + 3] = (i, i, i)
            gaps[p] = len(lc_gap) - 1
            filler.append(i)
            stack[p - 1], stack[p] = stack[p], stack[p - 1]
        else:
            v = i
            outer = (occ[2 * p - 1], occ[2 * p + 3])
            if outer != (-1, -1):
                v = len(succs)
                succs.append([])
                waiting.append(0)
                for pred in (i,) + outer:
                    wait(v, pred)
            occ[2 * p - 1:2 * p + 4] = (v,)
            gaps[p - 1:p + 2] = (len(lc_gap) - 1,)
            filler.append(v)
            killer[stack[p - 1]] = killer[stack[p]] = i
            del stack[p - 1:p + 1]
    done = bytearray(len(succs))

    def free(i):
        """Whether every gap left cusp i now shares is unoccupied."""
        _, _, slice_gaps, slice_strands = info[i]
        lo = hi = events[i].pos - 1
        while lo and done[killer[slice_strands[lo - 1]]]:
            lo -= 1
        while hi < len(slice_strands) and done[killer[slice_strands[hi]]]:
            hi += 1
        return all(filler[h] < 0 or done[filler[h]]
                   for h in slice_gaps[lo:hi + 1])

    ready = (set(), set(), set())
    for i in range(n):
        if not waiting[i]:
            ready[_RANK[events[i].kind]].add(i)
    front_strands: list = []
    front_gaps = [_Gap([0] * lc_gap[0])]
    where = {0: front_gaps[0]}
    out, origins = [], []
    width = 0
    while len(out) < n:
        rank = 0 if ready[0] else 1 if ready[1] else 2
        if rank == 2:
            at = front_gaps.index
            slot, i = min((at(where[info[k][0]]), k) for k in ready[2]
                          if free(k))
        else:
            at = front_strands.index
            slot, i = min((at(info[k][0]), k) for k in ready[rank])
        ready[rank].remove(i)
        kind = events[i].kind
        need, new = info[i][:2]  # its gap object or lower strand; new gaps
        if kind == LEFT_CUSP:
            below = front_gaps[slot]
            k = below.index(need)
            inner = _Gap([new + 1] * lc_gap[new + 1])
            above = _Gap([new + 2] * lc_gap[new + 2] + below[k + 1:])
            below[k:] = [new] * lc_gap[new]
            for gap in (below, inner, above):
                where.update(dict.fromkeys(gap, gap))
            front_gaps[slot + 1:slot + 1] = (inner, above)
            front_strands[slot:slot] = (2 * i, 2 * i + 1)
            width += 2
            if stop_width is not None and width >= stop_width:
                return None
        elif kind == CROSSING:
            s = front_strands
            s[slot], s[slot + 1] = s[slot + 1], s[slot]
            if lc_gap[new]:
                front_gaps[slot + 1].append(new)
                where[new] = front_gaps[slot + 1]
        else:
            below, inner, above = front_gaps[slot:slot + 3]
            below += inner + [new] * lc_gap[new] + above
            where.update(dict.fromkeys(below, below))
            front_gaps[slot:slot + 3] = (below,)
            del front_strands[slot:slot + 2]
            width -= 2
        out.append(Event(kind, slot + 1))
        origins.append(i)
        finished = [i]
        while finished:
            node = finished.pop()
            done[node] = 1
            for s in succs[node]:
                waiting[s] -= 1
                if not waiting[s]:
                    if s < n:
                        ready[_RANK[events[s].kind]].add(s)
                    else:
                        finished.append(s)
    return FrontDiagram(out), tuple(origins)


# ---------------------------------------------------------------------------
# generators

def generate_unknot() -> FrontDiagram:
    """The one-eye unknot front [lc 1, rc 1]."""
    return FrontDiagram([lc(1), rc(1)])


def generate_trefoil() -> FrontDiagram:
    """The right-handed trefoil: two stacked eyes with three crossings.

    Crossings are numbered 1, 2, 3 left to right.
    """
    return FrontDiagram([lc(1), lc(3), x(2), x(2), x(2), rc(3), rc(1)])


def generate_negative_braid_closure(strands: int, word: list[int]) -> FrontDiagram:
    """Nested plat closure of a braid word on the given number of strands.

    The closure opens with ``strands`` nested left cusps pairing strand i
    with strand 2*strands+1-i, emits each braid letter j as a crossing at
    position j, and closes with the mirrored nested right cusps.
    """
    if strands < 2:
        raise InvalidBraidLetter("need at least 2 strands")
    if not word:
        raise InvalidBraidLetter("braid word must be non-empty")
    for letter in word:
        if not 1 <= letter <= strands - 1:
            raise InvalidBraidLetter(
                f"letter {letter} outside 1..{strands - 1}")
    events = [lc(i) for i in range(1, strands + 1)]
    events += [x(j) for j in word]
    events += [rc(i) for i in range(strands, 0, -1)]
    return FrontDiagram(events)


def generate_torus4(n: int) -> FrontDiagram:
    """Front of the negative 4-strand torus knot with 2n+5 sign-reversed
    full twists, i.e. the mirror of the (4, 2n+5) torus knot.

    Negative crossings force the staircase layout below: q = 2n+5 stacked
    eyes, three descending runs of crossings weaving each eye under the
    next three, and a tail that closes the four strands of the last eyes.
    The word has q left cusps and exactly 3q crossings, and one component.
    The positive counterpart would be generate_negative_braid_closure(4,
    [1, 2, 3] * q), whose front is the mirror image.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    q = 2 * n + 5
    events = [lc(2 * i - 1) for i in range(1, q + 1)]
    for start in (2, 3, 4):
        events += [x(j) for j in range(start, 2 * q - start + 1, 2)]
    events += [rc(5)] * (q - 4)
    events += [x(4), x(3), x(5), x(2), x(4), x(6)]
    events += [rc(1)] * 4
    return FrontDiagram(events)


# ---------------------------------------------------------------------------
# text format: one event per line, '#' comments, blank lines ignored

def ascii_number(text: str) -> Optional[int]:
    """The value of a nonempty run of ASCII digits, else None (``int()``
    also reads signs, underscores and other scripts' digits)."""
    return int(text) if text.isascii() and text.isdigit() else None


def parse_with_lines(text: str) -> tuple[tuple[Event, ...], tuple[int, ...]]:
    """Parse the text format into its raw, unchecked event word, with
    each event's source line number."""
    events = []
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected '<kind> <pos>', got {raw!r}", line=ln)
        kind, pos_text = parts
        if kind not in _KINDS:
            raise ParseError(f"unknown event kind {kind!r}", line=ln)
        pos = ascii_number(pos_text)
        if pos is None:
            raise ParseError(f"bad position {pos_text!r}", line=ln)
        if pos < 1:
            raise ParseError("positions are 1-based", line=ln)
        events.append(Event(kind, pos))
        lines.append(ln)
    return tuple(events), tuple(lines)


def parse(text: str) -> FrontDiagram:
    """Parse the line-oriented diagram format into a valid closed front;
    raises ParseError or InvalidDiagram."""
    return FrontDiagram(parse_with_lines(text)[0])


def serialize(diagram: FrontDiagram) -> str:
    """Inverse of :func:`parse` up to comments and whitespace."""
    return "".join(f"{e.kind} {e.pos}\n" for e in diagram.events)
