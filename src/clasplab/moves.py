"""Front moves as local event-word rewrites, with ruling transport.

The calculus consists of

* ``h0`` -- birth of a small eye: insert [lc p, rc p];
* ``h1`` -- saddle between two vertically adjacent strands: insert
  [rc p, lc p];
* ``r1``/``r1inv`` -- a strand grows/loses a tongue (two cusps and one
  crossing between tongue and strand);
* ``r2``/``r2inv`` -- a cusp slides past the strand just above or below
  it, gaining/losing two crossings;
* ``r3`` -- the triple-point rewrite [x q, x r, x q] -> [x r, x q, x r]
  for |q - r| = 1;
* ``tr`` -- transposition of two adjacent events with disjoint vertical
  support (renumbering slots as needed).

The three window kinds (r1inv, r2inv, r3) are read in one place,
``_undo``: for a window it gives the events the window move leaves and
the r1, r2 or r3 move that rewrites those back.  The forward rewrite of a
window move and the backward search's redo moves
(fillability._backward_steps) both come from it.

Every rewrite carries a transport of normal rulings by one rule: switch
choices outside the rewritten window are kept, and the window is assigned
the unique local switch choice that scans validly and reproduces the same
exit pairing as the original.  That boundary-matching rule is asserted
unambiguous at run time; for isotopy moves the resulting transport is a
bijection on ruling sets, which the test suite checks move by move.
Handles insert no crossing, so they keep the switch set: a birth always
scans back to its entry pairing, and a saddle does exactly when the two
reconnected strands form one eye of the ruling's resolution.  Otherwise
the saddle has no match and fails loudly.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate
from typing import Iterable, Optional

from .diagram import (CROSSING, LEFT_CUSP, RIGHT_CUSP, Event, FrontDiagram,
                      _Frozen, _side, ascii_number, lc, rc, transpose_events,
                      x)
from .errors import InvalidDiagram, InvalidRuling, NotApplicable, \
    ParseError, TransportFailure
from .rulings import scan, switch_flags, switches_of, window_matches

MOVE_KINDS = ("h0", "h1", "r1", "r1inv", "r2", "r2inv", "r3", "tr")
_INSERTION_KINDS = ("h0", "h1", "r1")
#: The move kinds that take each optional token; any kind takes an anchor.
_TAKES = {"position": _INSERTION_KINDS, "variant": ("r1", "r2")}


class Move(_Frozen):
    """One anchored rewrite.

    For insertion kinds (h0, h1, r1) the anchor is a 1-based word gap
    (insert before event #anchor; None appends at the end).  For the rest
    it is the 1-based index of the first window event.  ``pos`` is the
    vertical slot argument where the kind needs one; ``variant`` selects
    the up/down orientation of r1 and r2.
    """

    __slots__ = _fields = ("kind", "anchor", "pos", "variant")

    def __init__(self, kind: str, anchor: Optional[int] = None, pos: int = 0,
                 variant: str = ""):
        if kind not in MOVE_KINDS:
            raise ValueError(f"unknown move kind {kind!r}")
        if variant not in ("", "up", "down"):
            raise ValueError(f"unknown variant {variant!r}")
        # what __str__ drops or parse_move cannot read back is refused
        for what, given in (("position", pos), ("variant", variant)):
            if given and kind not in _TAKES[what]:
                raise ValueError(f"{kind} takes no {what}")
        if anchor is None and kind not in _INSERTION_KINDS:
            raise ValueError(f"{kind} needs an anchor")
        if type(pos) is not int or type(anchor) not in (int, type(None)):
            raise ValueError("positions and anchors are ints")
        if pos < 0 or (anchor or 0) < 0:
            raise ValueError("positions and anchors are never negative")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "variant", variant)

    def __str__(self):
        parts = [self.kind]
        if self.kind in _TAKES["position"]:
            parts.append(str(self.pos))
        if self.anchor is not None:
            parts.append(f"@{self.anchor}")
        if self.kind in _TAKES["variant"] and self.variant:
            parts.append(self.variant)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# window patterns

def _r1_window(q: int, variant: str) -> list:
    if variant == "up":
        return [lc(q + 1), x(q), rc(q + 1)]
    return [lc(q), x(q + 1), rc(q)]


#: The window kinds by the kinds of a window's outer events.  Every such
#: window is (k0 at p, x at p +- 1, k2 at p).
_WINDOW_KINDS = {(LEFT_CUSP, RIGHT_CUSP): "r1inv",
                 (LEFT_CUSP, CROSSING): "r2inv",
                 (CROSSING, RIGHT_CUSP): "r2inv",
                 (CROSSING, CROSSING): "r3"}


def _window_kind(a: Event, b: Event, c: Event) -> Optional[str]:
    """The kind (r1inv, r2inv or r3) whose window is [a, b, c], or None."""
    if b.kind == CROSSING and a.pos == c.pos and abs(b.pos - a.pos) == 1:
        return _WINDOW_KINDS.get((a.kind, c.kind))
    return None


def _r2_target(cusp: Event, variant: str) -> list:
    p = cusp.pos
    if cusp.kind == LEFT_CUSP:
        if variant == "up":
            return [lc(p + 1), x(p), x(p + 1)]
        return [lc(p - 1), x(p), x(p - 1)]
    if variant == "up":
        return [x(p + 1), x(p), rc(p + 1)]
    return [x(p - 1), x(p), rc(p - 1)]


def _r2_variants(cusp: Event, s: int) -> list:
    """The r2 variants applicable to ``cusp`` with ``s`` strands left of it."""
    variants = []
    if cusp.kind != CROSSING:
        if cusp.pos >= 2:
            variants.append("down")
        if s >= cusp.pos + (0 if cusp.kind == LEFT_CUSP else 2):
            variants.append("up")
    return variants


#: Why a window move does not apply, by kind.
_NOT_A_WINDOW = {"r1inv": "window is not a tongue",
                 "r2inv": "window does not undo an r2",
                 "r3": "window is not a triple point"}


def _undo(events, i0: int) -> Optional[tuple]:
    """(kind, replacement, redo) for the window events[i0:i0+3], or None
    when those are no window: the window move ``kind`` (r1inv, r2inv or
    r3) rewrites the window to the replacement events, and the ``redo``
    move (r1, r2 or r3, anchored at the window) rewrites them back."""
    w = events[i0:i0 + 3]
    kind = _window_kind(*w) if len(w) == 3 else None
    if kind is None:
        return None
    a, b, _ = w
    anchor = i0 + 1
    variant = "up" if b.pos < a.pos else "down"
    if kind == "r1inv":
        return kind, (), Move("r1", anchor, min(a.pos, b.pos), variant)
    if kind == "r2inv":
        cusp = lc(b.pos) if a.kind == LEFT_CUSP else rc(b.pos)
        return kind, (cusp,), Move("r2", anchor, variant=variant)
    return kind, (x(b.pos), x(a.pos), x(b.pos)), Move("r3", anchor)


# ---------------------------------------------------------------------------
# rewrites

def _resolve(diagram: FrontDiagram, move: Move) -> tuple:
    """The move's rewrite (i0, n_old, new_events): replace
    events[i0:i0+n_old] (0-based i0) with new_events."""
    events = diagram.events
    counts = diagram.walk.counts
    kind = move.kind
    if kind in _INSERTION_KINDS:
        gap = move.anchor if move.anchor is not None else len(events) + 1
        if not 1 <= gap <= len(events) + 1:
            raise NotApplicable(f"gap {gap} outside 1..{len(events) + 1}")
        s = counts[gap - 1]
        p = move.pos
        if kind == "h0":
            if not 1 <= p <= s + 1:
                raise NotApplicable(f"h0 at {p} needs 1..{s + 1}")
            return gap - 1, 0, (lc(p), rc(p))
        if kind == "h1":
            if not 1 <= p <= s - 1:
                raise NotApplicable(
                    f"h1 at {p} needs two strands at {p},{p + 1}")
            return gap - 1, 0, (rc(p), lc(p))
        variant = move.variant or "up"
        if not 1 <= p <= s:
            raise NotApplicable(f"r1 needs a strand at {p}")
        return gap - 1, 0, tuple(_r1_window(p, variant))

    i0 = move.anchor - 1
    if not 0 <= i0 < len(events):
        raise NotApplicable(f"anchor {move.anchor} outside the word")

    if kind in _NOT_A_WINDOW:
        undo = _undo(events, i0)
        if undo is None or undo[0] != kind:
            raise NotApplicable(_NOT_A_WINDOW[kind])
        return i0, 3, undo[1]
    if kind == "r2":
        e = events[i0]
        variant = move.variant or "up"
        if variant not in _r2_variants(e, counts[i0]):
            raise NotApplicable("r2 needs a cusp with a neighbouring strand")
        return i0, 1, tuple(_r2_target(e, variant))
    # tr
    if i0 + 1 >= len(events):
        raise NotApplicable("transposition needs two events")
    swapped = transpose_events(events[i0], events[i0 + 1])
    if swapped is None:
        raise NotApplicable("events share vertical support")
    return i0, 2, tuple(swapped)


# ---------------------------------------------------------------------------
# ruling transport

class RulingTransport(_Frozen):
    """Per-ruling switch-set map induced by one move.

    Every move keeps the switches outside its window and takes the unique
    window choice that reaches the same exit pairing.  Isotopy moves give
    a bijection between the full ruling sets of source and target; a
    saddle raises TransportFailure on rulings it is incompatible with.

    Calling it on a switch set checks the ordinals, then the ruling with
    one scan of the whole source word, which refuses a non-ruling as
    "event i: reason", as is_normal_ruling reports it, and hands the
    scan's keys to ``carry``, the one transport routine.  The script
    runner keeps its flags and keys across moves and calls ``carry``
    itself, without a rescan: the pairing after the old window is already
    the entry of the event after it.
    """

    __slots__ = _fields = ("move", "source", "target", "_rewrite")
    _hidden = ("_rewrite",)

    def __init__(self, move: Move, source: FrontDiagram,
                 target: FrontDiagram, _rewrite: tuple):
        object.__setattr__(self, "move", move)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_rewrite", _rewrite)

    def __call__(self, ruling: Iterable) -> frozenset:
        flags = switch_flags(self.source, ruling)
        keys, _, fail = scan(self.source.events, flags)
        if fail is not None:
            raise InvalidRuling(f"event {fail[0]}: {fail[1]}")
        self.carry(flags, keys)
        return switches_of(self.target, flags)

    def carry(self, flags: list, entries: list) -> None:
        """Carry a ruling across the move, in place: ``flags`` are the
        source word's per-event switch flags and ``entries[i]`` the
        pairing before event i (and after the last), as a PairingState
        key.  The new window takes the one switch choice that scans from
        the pairing entering the old window to the one leaving it, and the
        keys passed while scanning it become the entries inside the new
        window; the entries after it stay valid.  Raises TransportFailure,
        leaving both lists as they were, unless exactly one choice does."""
        i0, n_old, new_events = self._rewrite
        end = i0 + n_old
        matches = window_matches(entries[i0], entries[end],
                                 self.source.events[i0:end], flags[i0:end],
                                 new_events)
        if len(matches) != 1:
            if self.move.kind == "h1":
                p = self.move.pos
                raise TransportFailure(
                    f"saddle at {p},{p + 1} joins two different eyes "
                    "of this ruling's resolution")
            raise TransportFailure(
                f"{'no' if not matches else 'ambiguous'} boundary-matching "
                f"switch choice for {self.move}")
        flags[i0:end], entries[i0 + 1:end + 1] = matches[0]


def apply_move(diagram: FrontDiagram, move: Move) -> tuple:
    """Rewrite the diagram and return (new diagram, ruling transport)."""
    rw = _resolve(diagram, move)
    i0, n_old, new_events = rw
    events = list(diagram.events)
    events[i0:i0 + n_old] = new_events
    try:
        target = FrontDiagram(events)
    except InvalidDiagram as exc:
        raise NotApplicable(
            f"rewrite produced an invalid word: {exc}") from exc
    return target, RulingTransport(move, diagram, target, rw)


#: Per insertion kind: the slots a gap with s strands offers beyond s,
#: and each slot's variants in menu order.
_INSERTION_SLOTS = {"h0": (1, ("",)), "h1": (-1, ("",)),
                    "r1": (0, ("down", "up"))}


class _InsertionMenu(Sequence):
    """One insertion kind's moves by gap, slot and variant, each built
    only when indexed: a gap with s strands offers s + 1 births,
    max(s - 1, 0) saddles or 2s tongues, and ``menu[i]`` bisects the
    running sum of those sizes for its gap."""

    def __init__(self, kind: str, counts):
        self.kind = kind
        extra, self._variants = _INSERTION_SLOTS[kind]
        self._starts = [0, *accumulate(max(s + extra, 0) * len(self._variants)
                                       for s in counts)]

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i: int) -> Move:
        if not 0 <= i < self._starts[-1]:
            raise IndexError(f"menu index {i} out of range")
        gap = bisect_right(self._starts, i)
        slot, v = divmod(i - self._starts[gap - 1], len(self._variants))
        return Move(self.kind, gap, slot + 1, self._variants[v])


class _AnchorMenu(Sequence):
    """One kind's moves at listed (anchor, variant) pairs, each built only
    when indexed."""

    def __init__(self, kind: str, at: list):
        self.kind, self._at = kind, at

    def __len__(self) -> int:
        return len(self._at)

    def __getitem__(self, i: int) -> Move:
        anchor, variant = self._at[i]
        return Move(self.kind, anchor, variant=variant)


def _r2_anchors(events, counts):
    return ((i, v) for i, e in enumerate(events, 1)
            for v in _r2_variants(e, counts[i - 1]))


def _tr_anchors(events):
    return ((i, "") for i, pair in enumerate(zip(events, events[1:]), 1)
            if _side(*pair))


def _menu(diagram: FrontDiagram, kind: str) -> Sequence:
    """One kind's applicable moves by anchor, slot and variant, each built
    only when indexed."""
    events, counts = diagram.events, diagram.walk.counts
    if kind in _INSERTION_KINDS:
        return _InsertionMenu(kind, counts)
    if kind == "r2":
        return _AnchorMenu(kind, list(_r2_anchors(events, counts)))
    if kind == "tr":
        return _AnchorMenu(kind, list(_tr_anchors(events)))
    return _AnchorMenu(kind, [
        (i, "") for i, w in enumerate(zip(events, events[1:], events[2:]), 1)
        if _window_kind(*w) == kind])


def applicable_kinds(diagram: FrontDiagram) -> list:
    """The kinds with at least one applicable move, in MOVE_KINDS order.

    A birth is always applicable, a saddle where two strands are alive
    and a tongue where one is.  One pass over the word's triples finds
    the window kinds; r2 and tr stop at their first move.
    """
    events, counts = diagram.events, diagram.walk.counts
    present = {_window_kind(*w) for w in zip(events, events[1:], events[2:])}
    top = max(counts)
    present.update(k for k, ok in (
        ("h0", True), ("h1", top >= 2), ("r1", top >= 1),
        ("r2", next(_r2_anchors(events, counts), None) is not None),
        ("tr", next(_tr_anchors(events), None) is not None)) if ok)
    return [k for k in MOVE_KINDS if k in present]


def enumerate_applicable_moves(diagram: FrontDiagram) -> list:
    """Every applicable move at every anchor, kind by kind in MOVE_KINDS
    order, then by anchor, slot and variant."""
    return [m for kind in MOVE_KINDS for m in _menu(diagram, kind)]


# ---------------------------------------------------------------------------
# move script text format

def serialize_script(moves: Iterable) -> str:
    return "".join(str(m) + "\n" for m in moves)


def parse_move(line: str, line_no: Optional[int] = None) -> Move:
    """One script line: the kind, then at most one of each token it takes."""
    tokens = line.split()
    kind = tokens[0]
    if kind not in MOVE_KINDS:
        raise ParseError(f"unknown move kind {kind!r}", line=line_no)
    given = {}
    for tok in tokens[1:]:
        if tok in ("up", "down"):
            what, value = "variant", tok
        else:
            what = "anchor" if tok.startswith("@") else "position"
            value = ascii_number(tok.removeprefix("@"))
            if value is None:
                bad = "anchor" if what == "anchor" else "token"
                raise ParseError(f"bad {bad} {tok!r}", line=line_no)
        if what in given:
            raise ParseError(f"repeated {what} {tok!r}", line=line_no)
        if kind not in _TAKES.get(what, MOVE_KINDS):
            raise ParseError(f"{kind} takes no {what}, got {tok!r}",
                             line=line_no)
        given[what] = value
    if kind in _INSERTION_KINDS:
        given.setdefault("position", 1)
    elif "anchor" not in given:
        raise ParseError(f"{kind} needs an @anchor", line=line_no)
    return Move(kind, given.get("anchor"), given.get("position", 0),
                given.get("variant", ""))


def parse_script(text: str) -> list:
    moves = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        moves.append(parse_move(line, line_no=ln))
    return moves
