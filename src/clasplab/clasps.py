"""Resolutions of a ruling, eye-pair analysis, and clasp counts.

Smoothing every switch of a normal ruling decomposes the front into eyes.
For a fixed pair of eyes, each slice where both are alive shows one of
three configurations -- disjoint, nested, or interleaved -- and the
configuration changes exactly at crossings between the two eyes, always
moving one step along disjoint <-> interleaved <-> nested.

A *clasp* is a maximal interleaved interval whose two bounding crossings
involve the same strand of each eye: the pair crosses and crosses back.
An interleaved interval bounded by crossings of different strand pairs is
a single strand passing through both strands of the other eye and
contributes nothing.  The parity of the total clasp count over all pairs
is the quantity the filling obstruction runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .diagram import CROSSING, LEFT_CUSP, FrontDiagram, require_valid
from .errors import InvalidRuling, UnknownEye
from .rulings import PairingState, switch_flags

DISJOINT = "disjoint"
NESTED = "nested"
INTERLEAVED = "interleaved"

#: Strand labels within an eye.  The lower strand at birth stays below its
#: partner for the eye's whole life (the two never cross), so the label is
#: simply the current vertical order.
LOWER, UPPER = 0, 1


@dataclass(frozen=True)
class CrossingRecord:
    """A crossing of the resolved diagram between two distinct eyes.

    ``switch`` records are touch-points (the eyes meet without trading
    slots); the rest are genuine transpositions.  Eyes are normalized so
    eye_a < eye_b, with strand_a / strand_b the involved strand of each.
    """

    ordinal: int
    event_index: int  # 1-based index into the diagram word
    eye_a: int
    strand_a: int
    eye_b: int
    strand_b: int
    switch: bool


@dataclass(frozen=True)
class Resolution:
    """The eye decomposition of a diagram under one normal ruling."""

    diagram: FrontDiagram
    ruling: frozenset
    n_eyes: int
    birth: tuple  # per eye: 1-based event index of its left cusp
    death: tuple  # per eye: 1-based event index of its right cusp
    slices: tuple  # per slice: ((eye, strand), ...) bottom to top
    records: tuple  # all CrossingRecords, in diagram order

    def records_for(self, eye_a: int, eye_b: int) -> list:
        a, b = min(eye_a, eye_b), max(eye_a, eye_b)
        return [r for r in self.records if r.eye_a == a and r.eye_b == b]

    def coexist(self, eye_a: int, eye_b: int) -> bool:
        return (max(self.birth[eye_a], self.birth[eye_b])
                < min(self.death[eye_a], self.death[eye_b]))


def resolve(diagram: FrontDiagram, ruling: Iterable) -> Resolution:
    """Scan the diagram once, checking the ruling and building its eyes."""
    require_valid(diagram)
    ruling = frozenset(ruling)
    flags = switch_flags(diagram, ruling)
    state = PairingState()
    slots: list = []  # (eye, strand) per live slot
    slices = [()]
    birth: list = []
    death: list = []
    records: list = []
    for i, (e, switch, ordinal) in enumerate(
            zip(diagram.events, flags, diagram.walk.ordinals), start=1):
        fail = state.step(e, switch)
        if fail is not None:
            raise InvalidRuling(f"event {i}: {fail}")
        p = e.pos
        if e.kind == LEFT_CUSP:
            eye = len(birth)
            birth.append(i)
            death.append(0)
            slots[p - 1:p - 1] = [(eye, LOWER), (eye, UPPER)]
        elif e.kind == CROSSING:
            (ea, sa), (eb, sb) = slots[p - 1], slots[p]
            if ea > eb:
                (ea, sa), (eb, sb) = (eb, sb), (ea, sa)
            records.append(CrossingRecord(
                ordinal, i, ea, sa, eb, sb, switch=switch))
            if not switch:
                slots[p - 1], slots[p] = slots[p], slots[p - 1]
        else:
            death[slots[p - 1][0]] = i
            del slots[p - 1:p + 1]
        slices.append(tuple(slots))
    return Resolution(diagram, ruling, len(birth), tuple(birth),
                      tuple(death), tuple(slices), tuple(records))


def _pair_config(order: tuple) -> str:
    """Configuration of two eyes from their four strands' vertical order."""
    eyes = tuple(e for e, _ in order)
    if eyes[0] == eyes[1]:
        return DISJOINT
    if eyes[0] == eyes[3]:
        return NESTED
    return INTERLEAVED


def _initial_order(res: Resolution, eye_a: int, eye_b: int, slice_index: int) -> tuple:
    return tuple(s for s in res.slices[slice_index] if s[0] in (eye_a, eye_b))


def clasp_intervals(res: Resolution, eye_a: int, eye_b: int) -> list:
    """Clasps of one eye pair via the incremental record scan.

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
    if not res.coexist(eye_a, eye_b):
        return []
    a, b = min(eye_a, eye_b), max(eye_a, eye_b)
    start = max(res.birth[a], res.birth[b])
    order = _initial_order(res, a, b, start)
    config = _pair_config(order)
    if config == INTERLEAVED:
        raise AssertionError("eyes interleave at a birth slice")

    clasps = []
    entering: Optional[tuple] = None  # (strand pair, event) opening the run
    for r in res.records_for(a, b):
        if r.switch:
            # Normality keeps switches out of interleaved intervals; a
            # counterexample would need a clasp rule this scan lacks.
            if config == INTERLEAVED:
                raise AssertionError(
                    "switch touch-point inside an interleaved interval")
            continue
        i = order.index((r.eye_a, r.strand_a))
        j = order.index((r.eye_b, r.strand_b))
        if abs(i - j) != 1:
            raise AssertionError("crossing between non-adjacent strands")
        lst = list(order)
        lst[i], lst[j] = lst[j], lst[i]
        order = tuple(lst)
        new_config = _pair_config(order)
        if config == INTERLEAVED and new_config == INTERLEAVED:
            raise AssertionError("pair crossing inside an interleaved interval")
        if config != INTERLEAVED and new_config == INTERLEAVED:
            entering = ((r.strand_a, r.strand_b), r.event_index)
        elif config == INTERLEAVED and new_config != INTERLEAVED:
            if entering[0] == (r.strand_a, r.strand_b):
                clasps.append((entering[1], r.event_index))
            entering = None
        config = new_config
    if config == INTERLEAVED:
        raise AssertionError("eyes interleave at a death slice")
    return clasps


@dataclass(frozen=True)
class PairClasps:
    eyes: tuple
    clasps: int


@dataclass(frozen=True)
class ClaspReport:
    pairs: tuple
    total: int
    parity: str  # "odd" | "even"

    def to_json(self) -> dict:
        return {
            "pairs": [{"eyes": list(p.eyes), "clasps": p.clasps}
                      for p in self.pairs],
            "total": self.total,
            "parity": self.parity,
        }


def parity_of_total(total: int) -> str:
    return "odd" if total % 2 else "even"


def clasp_report(diagram: FrontDiagram, ruling: Iterable) -> ClaspReport:
    """Count clasps for every interacting eye pair and total them up.

    Pairs that never cross are omitted from the listing (their count is 0
    by definition); the total and parity cover all pairs either way.
    """
    res = resolve(diagram, ruling)
    interacting = sorted({(r.eye_a, r.eye_b) for r in res.records})
    pairs = []
    total = 0
    for a, b in interacting:
        n = len(clasp_intervals(res, a, b))
        pairs.append(PairClasps((a, b), n))
        total += n
    return ClaspReport(tuple(pairs), total, parity_of_total(total))


# ---------------------------------------------------------------------------
# independent oracle: classify every slice from scratch

def brute_pair_clasps(diagram: FrontDiagram, ruling: Iterable,
                      eye_a: int, eye_b: int) -> int:
    """Recount one pair's clasps by materializing every slice.

    Replays the word with its own scan, classifies the pair's
    configuration on every slice, locates maximal interleaved runs, and
    reads the bounding crossings' strand pairs off the position arrays.
    Used to cross-check clasp_intervals.
    """
    require_valid(diagram)
    ruling = frozenset(ruling)
    slots: list = []
    slices = [()]
    next_eye = 0
    ordinal = 0
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
            raise AssertionError("interleaved run not bounded by pair crossings")
        if enter == leave:
            clasps += 1
    return clasps
