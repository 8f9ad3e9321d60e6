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

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .diagram import (CROSSING, LEFT_CUSP, RIGHT_CUSP, Event, FrontDiagram,
                      far_commutation_order, lc, rc, transpose_events, x)
from .errors import InvalidDiagram, InvalidRuling, NotApplicable, \
    ParseError, TransportFailure
from .rulings import scan, switch_flags, switches_of, window_matches

MOVE_KINDS = ("h0", "h1", "r1", "r1inv", "r2", "r2inv", "r3", "tr")
_INSERTION_KINDS = ("h0", "h1", "r1")
#: The move kinds that take each optional token; any kind takes an anchor.
_TAKES = {"position": _INSERTION_KINDS, "variant": ("r1", "r2")}


@dataclass(frozen=True)
class Move:
    """One anchored rewrite.

    For insertion kinds (h0, h1, r1) the anchor is a 1-based word gap
    (insert before event #anchor; None appends at the end).  For the rest
    it is the 1-based index of the first window event.  ``pos`` is the
    vertical slot argument where the kind needs one; ``variant`` selects
    the up/down orientation of r1 and r2.
    """

    kind: str
    anchor: Optional[int] = None
    pos: int = 0
    variant: str = ""

    def __post_init__(self):
        if self.kind not in MOVE_KINDS:
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.variant not in ("", "up", "down"):
            raise ValueError(f"unknown variant {self.variant!r}")

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


def _match_r1inv(events, i0: int) -> Optional[tuple]:
    """Return (q, variant) when events[i0:i0+3] is a tongue window."""
    w = events[i0:i0 + 3]
    if len(w) < 3 or w[0].kind != LEFT_CUSP or w[1].kind != CROSSING \
            or w[2].kind != RIGHT_CUSP or w[0].pos != w[2].pos:
        return None
    a = w[0].pos
    if w[1].pos == a - 1:
        return a - 1, "up"
    if w[1].pos == a + 1:
        return a, "down"
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


def _match_r2inv(events, i0: int) -> Optional[tuple]:
    """Return (cusp_event, variant) when the window undoes an r2."""
    w = events[i0:i0 + 3]
    if len(w) < 3:
        return None
    if w[0].kind == LEFT_CUSP and w[1].kind == CROSSING \
            and w[2].kind == CROSSING and w[2].pos == w[0].pos:
        a = w[0].pos
        if w[1].pos == a - 1:
            return lc(a - 1), "up"
        if w[1].pos == a + 1:
            return lc(a + 1), "down"
    if w[0].kind == CROSSING and w[1].kind == CROSSING \
            and w[2].kind == RIGHT_CUSP and w[0].pos == w[2].pos:
        a = w[2].pos
        if w[1].pos == a - 1:
            return rc(a - 1), "up"
        if w[1].pos == a + 1:
            return rc(a + 1), "down"
    return None


def _match_r3(events, i0: int) -> Optional[list]:
    w = events[i0:i0 + 3]
    if len(w) < 3 or any(e.kind != CROSSING for e in w):
        return None
    q, r = w[0].pos, w[1].pos
    if w[2].pos == q and abs(q - r) == 1:
        return [x(r), x(q), x(r)]
    return None


# ---------------------------------------------------------------------------
# rewrites

@dataclass(frozen=True)
class _Rewrite:
    """Replace events[i0:i0+n_old] with new_events (0-based i0)."""

    i0: int
    n_old: int
    new_events: tuple


def _resolve(diagram: FrontDiagram, move: Move) -> _Rewrite:
    events = diagram.events
    counts = diagram.strand_counts()
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
            return _Rewrite(gap - 1, 0, (lc(p), rc(p)))
        if kind == "h1":
            if not 1 <= p <= s - 1:
                raise NotApplicable(
                    f"h1 at {p} needs two strands at {p},{p + 1}")
            return _Rewrite(gap - 1, 0, (rc(p), lc(p)))
        variant = move.variant or "up"
        if not 1 <= p <= s:
            raise NotApplicable(f"r1 needs a strand at {p}")
        return _Rewrite(gap - 1, 0, tuple(_r1_window(p, variant)))

    if move.anchor is None:
        raise NotApplicable(f"{kind} needs an event anchor")
    i0 = move.anchor - 1
    if not 0 <= i0 < len(events):
        raise NotApplicable(f"anchor {move.anchor} outside the word")

    if kind == "r1inv":
        m = _match_r1inv(events, i0)
        if m is None:
            raise NotApplicable("window is not a tongue")
        return _Rewrite(i0, 3, ())
    if kind == "r2":
        e = events[i0]
        variant = move.variant or "up"
        if variant not in _r2_variants(e, counts[i0]):
            raise NotApplicable("r2 needs a cusp with a neighbouring strand")
        return _Rewrite(i0, 1, tuple(_r2_target(e, variant)))
    if kind == "r2inv":
        m = _match_r2inv(events, i0)
        if m is None:
            raise NotApplicable("window does not undo an r2")
        cusp, _ = m
        return _Rewrite(i0, 3, (cusp,))
    if kind == "r3":
        target = _match_r3(events, i0)
        if target is None:
            raise NotApplicable("window is not a triple point")
        return _Rewrite(i0, 3, tuple(target))
    # tr
    if i0 + 1 >= len(events):
        raise NotApplicable("transposition needs two events")
    swapped = transpose_events(events[i0], events[i0 + 1])
    if swapped is None:
        raise NotApplicable("events share vertical support")
    return _Rewrite(i0, 2, tuple(swapped))


# ---------------------------------------------------------------------------
# ruling transport

@dataclass(frozen=True)
class RulingTransport:
    """Per-ruling switch-set map induced by one move.

    Every move keeps the switches outside its window and takes the unique
    window choice that reaches the same exit pairing.  Isotopy moves give
    a bijection between the full ruling sets of source and target; a
    saddle raises TransportFailure on rulings it is incompatible with.
    """

    move: Move
    source: FrontDiagram
    target: FrontDiagram
    _rewrite: _Rewrite = field(repr=False)

    def __call__(self, ruling: Iterable) -> frozenset:
        ruling = frozenset(ruling)
        rw = self._rewrite
        flags = switch_flags(self.source, ruling)
        entry, fail = scan(self.source.events, flags[:rw.i0])
        if fail is not None:
            raise InvalidRuling(f"event {fail[0]}: {fail[1]}")
        end = rw.i0 + rw.n_old
        matches = window_matches(entry, self.source.events[rw.i0:end],
                                 flags[rw.i0:end], rw.new_events)
        if matches is None:
            raise InvalidRuling(
                "switch set is not a normal ruling of the source diagram")
        if len(matches) != 1:
            if self.move.kind == "h1":
                p = self.move.pos
                raise TransportFailure(
                    f"saddle at {p},{p + 1} joins two different eyes "
                    "of this ruling's resolution")
            raise TransportFailure(
                f"{'no' if not matches else 'ambiguous'} boundary-matching "
                f"switch choice for {self.move}")
        return switches_of(self.target, flags[:rw.i0] + matches[0]
                           + flags[end:])


def apply_move(diagram: FrontDiagram, move: Move) -> tuple:
    """Rewrite the diagram and return (new diagram, ruling transport)."""
    rw = _resolve(diagram, move)
    events = list(diagram.events)
    events[rw.i0:rw.i0 + rw.n_old] = rw.new_events
    try:
        target = FrontDiagram(events)
    except InvalidDiagram as exc:
        raise NotApplicable(
            f"rewrite produced an invalid word: {exc}") from exc
    return target, RulingTransport(move, diagram, target, rw)


#: One lazy menu per kind: (events, strand counts) -> that kind's
#: applicable moves by anchor, slot and variant.
_MENUS = {
    "h0": lambda ev, cs: (Move("h0", g, p) for g, s in enumerate(cs, 1)
                          for p in range(1, s + 2)),
    "h1": lambda ev, cs: (Move("h1", g, p) for g, s in enumerate(cs, 1)
                          for p in range(1, s)),
    "r1": lambda ev, cs: (Move("r1", g, p, v) for g, s in enumerate(cs, 1)
                          for p in range(1, s + 1) for v in ("down", "up")),
    "r1inv": lambda ev, cs: (Move("r1inv", i + 1) for i in range(len(ev))
                             if _match_r1inv(ev, i) is not None),
    "r2": lambda ev, cs: (Move("r2", i + 1, variant=v)
                          for i, e in enumerate(ev)
                          for v in _r2_variants(e, cs[i])),
    "r2inv": lambda ev, cs: (Move("r2inv", i + 1) for i in range(len(ev))
                             if _match_r2inv(ev, i) is not None),
    "r3": lambda ev, cs: (Move("r3", i + 1) for i in range(len(ev))
                          if _match_r3(ev, i) is not None),
    "tr": lambda ev, cs: (Move("tr", i + 1) for i in range(len(ev) - 1)
                          if transpose_events(ev[i], ev[i + 1]) is not None),
}


def applicable_kinds(diagram: FrontDiagram) -> list:
    """The kinds with at least one applicable move, in MOVE_KINDS order.

    Each kind's menu is run only up to its first move.
    """
    events, counts = diagram.events, diagram.walk.counts
    return [k for k in MOVE_KINDS
            if next(_MENUS[k](events, counts), None) is not None]


def moves_of_kind(diagram: FrontDiagram, kind: str) -> list:
    """Every applicable move of one kind, by anchor, slot and variant."""
    return list(_MENUS[kind](diagram.events, diagram.walk.counts))


def enumerate_applicable_moves(diagram: FrontDiagram) -> list:
    """Every applicable move at every anchor, kind by kind in MOVE_KINDS
    order, then by anchor, slot and variant."""
    return [m for kind in MOVE_KINDS for m in moves_of_kind(diagram, kind)]


def normalize(diagram: FrontDiagram) -> tuple:
    """Commute independent events into the greedy far-commutation order.

    Among the events that can commute to the front of what is left of the
    word, right cusps go first, then crossings, then left cusps, lower
    slots first; this closes eyes early and opens them late, so the result
    is often much narrower than the input (constant width 10 across the
    torus4 family).  See diagram.far_commutation_order, which
    enumerate_rulings also searches on.  Normalizing a normal form changes
    nothing.  Returns (diagram, tr moves applied), so rulings can be
    transported along.
    """
    canon, windows = far_commutation_order(diagram)
    return canon, [Move("tr", t + j) for t, swaps in enumerate(windows)
                   for j in range(len(swaps), 0, -1)]


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
            try:
                value = int(tok.removeprefix("@"))
            except ValueError:
                bad = "anchor" if what == "anchor" else "token"
                raise ParseError(f"bad {bad} {tok!r}", line=line_no) from None
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
