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

Clasps are counted by ClaspState, the pairing scan's state class keyed on
an eye id per live slot, the number of eyes born and, per interleaved eye
pair, the strand pair that entered its current interval.  It keeps no
mates: an eye's two slots are the two slots with its id, so each mate is
read off the eye ids.  Each crossing's edge tallies its eye pair and the
clasps it closed.  clasp_report is one
linear scan with it, which sums the tallies per pair, and ruling_reports
counts during the transfer scan that lists the rulings (the backward pass
sums each suffix's tallies), so no ruling is scanned twice.  The scan
yields each distinct count once, as a fold, and its rulings already by
size, then lexicographic, so the listing behind both (_sorted_reports)
builds one report per fold and sorts nothing.  resolve runs the same
scan once and reads what it needs off the keys it passes: the eyes, the
slices (each labelled in one pass over its eye ids), the crossing
records and each clasp's interval (for rendering).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .diagram import CROSSING, LEFT_CUSP, FrontDiagram
from .errors import InvalidRuling
from .rulings import _enumerate, _switch_ok, scan, switch_flags


class CrossingRecord(NamedTuple):
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


class Resolution(NamedTuple):
    """The eye decomposition of a diagram under one normal ruling."""

    n_eyes: int
    birth: tuple  # per eye: 1-based event index of its left cusp
    death: tuple  # per eye: 1-based event index of its right cusp
    slices: tuple  # per slice: ((eye, strand), ...) bottom to top
    records: tuple  # all CrossingRecords, in diagram order
    clasps: tuple  # (eye_a, eye_b, enter, leave) per clasp, by leave


def resolve(diagram: FrontDiagram, ruling: Iterable) -> Resolution:
    """Run one ClaspState scan, checking the ruling and building its eyes
    from the keys it passes; a ruling the scan refuses raises InvalidRuling
    naming the failing event.

    Eye ids and strand labels are the keys': a strand is upper (1) where
    its eye's other slot lies below it, else lower (0).  Each crossing is
    recorded from the slice before it.  An interleaved interval opens
    where the crossing's key after it holds more open pairs than the key
    before it, and a clasp closes where the key before it holds the pair
    opened by the same strands, as the ClaspState tally counts it.
    """
    flags = switch_flags(diagram, ruling)
    keys, _, fail = scan(diagram.events, flags, ClaspState)
    if fail is not None:
        raise InvalidRuling(f"event {fail[0]}: {fail[1]}")
    slices = [()]
    birth, death, records, clasps = [], [], [], []
    entered: dict = {}  # eye pair -> event index entering its interval
    for i, (e, switch, ordinal, (eyes, _, opened), after) in enumerate(
            zip(diagram.events, flags, diagram.walk.ordinals, keys,
                keys[1:]), start=1):
        p = e.pos
        if e.kind == LEFT_CUSP:
            birth.append(i)
            death.append(0)
        elif e.kind == CROSSING:
            (ea, sa), (eb, sb) = sorted(slices[-1][p - 1:p + 1])
            records.append(CrossingRecord(
                ordinal, i, ea, sa, eb, sb, switch=switch))
            if len(after[2]) > len(opened):  # it opened an interval
                entered[ea, eb] = i
            elif ((ea, eb), (sa == 1, sb == 1)) in opened:  # a clasp
                clasps.append((ea, eb, entered[ea, eb], i))
        else:
            death[eyes[p]] = i
        labels, seen = [], set()  # an eye's lower strand comes first
        for eye in after[0][1:]:
            labels.append((eye, int(eye in seen)))
            seen.add(eye)
        slices.append(tuple(labels))
    return Resolution(len(birth), tuple(birth), tuple(death), tuple(slices),
                      tuple(records), tuple(clasps))


class PairClasps(NamedTuple):
    eyes: tuple
    clasps: int


class ClaspReport(NamedTuple):
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


class ClaspState:
    """The pairing scan's state class extended to count clasps.

    A key is (eyes, born, opened): the eye id of each live slot (eyes are
    numbered by birth; index 0 is None), the number of eyes born, and a
    frozenset of (eye pair, entering strands) for each pair inside an
    interleaved interval, with the strand pair of the crossing that
    opened it.  The eye ids fix the mates, the pairing scan's key: an
    eye's two slots are the two slots with its id, so ``edges`` reads each
    mate off them and keeps no mates of its own.  A strand is the upper
    one of its eye (True) when its mate lies below it.  The eyes through
    slots p, p+1 interleave exactly when the switch test fails there, and
    an unswitched crossing between them toggles that, so the test before
    a crossing tells whether it enters or leaves an interleaved interval.
    Each crossing's tally is (eye pair, clasps it closed), which the scans
    sum per pair.  No records, slices or per-pair strand orders are
    built.  The number born merges nothing the eye ids alone would not:
    every state of one layer has seen the same left cusps.
    """

    start = ((None,), 0, frozenset())

    @staticmethod
    def edges(key: tuple, event) -> tuple:
        """PairingState.edges on the mates that the eye ids fix, with the
        eye ids, the open intervals and each crossing's tally stepped."""
        eyes, born, opened = key
        p, kind = event.pos, event.kind
        if kind == LEFT_CUSP:
            eyes = eyes[:p] + (born, born) + eyes[p:]
            return None, ((eyes, born + 1, opened), None)
        x, y = eyes[p], eyes[p + 1]
        if kind != CROSSING:
            if x != y:
                return None, None  # a right cusp of two eyes
            return None, ((eyes[:p] + eyes[p + 2:], born, opened), None)
        if x == y:
            return None, None  # an eye crossing itself
        a = eyes.index(x)  # the mates of p and p + 1
        if a == p:
            a = eyes.index(x, p + 2)
        b = eyes.index(y)
        if b == p + 1:
            b = eyes.index(y, p + 2)
        pair, strands = ((x, y), (a < p, b < p)) if x < y else \
            ((y, x), (b < p, a < p))
        swapped = list(eyes)
        swapped[p], swapped[p + 1] = y, x
        after = tuple(swapped)
        if _switch_ok(a, b, p):  # the plain step enters an interval
            return (key, (pair, 0)), \
                ((after, born, opened | {(pair, strands)}), (pair, 0))
        clasp = int((pair, strands) in opened)  # and here it leaves one
        # close the pair's interval, whichever strand pair entered it
        opened = opened - {(pair, (False, False)), (pair, (False, True)),
                           (pair, (True, False)), (pair, (True, True))}
        return None, ((after, born, opened), (pair, clasp))


def report_of(tallies: tuple) -> ClaspReport:
    """The clasp report of sorted (eye pair, clasp count) tallies."""
    total = sum(count for _, count in tallies)
    return ClaspReport(tuple(PairClasps(eyes, count)
                             for eyes, count in tallies),
                       total, parity_of_total(total))


def clasp_report(diagram: FrontDiagram, ruling: Iterable) -> ClaspReport:
    """Count clasps for every interacting eye pair and total them up.

    One linear ClaspState scan over the word, which also checks the
    ruling.  Pairs that never cross are omitted from the listing (their
    count is 0 by definition); the total and parity cover all pairs
    either way.
    """
    _, tallies, fail = scan(diagram.events, switch_flags(diagram, ruling),
                            ClaspState)
    if fail is not None:
        raise InvalidRuling(f"event {fail[0]}: {fail[1]}")
    return report_of(tallies)


def _sorted_reports(diagram: FrontDiagram, budget: Optional[int]) -> tuple:
    """(switches, fold_ids, reports) of every normal ruling, by size, then
    lexicographic: _enumerate's columns, counting clasps during the
    transfer scan, with one ClaspReport per fold, so rulings with equal
    counts share one report (``reports[fold_ids[i]]`` is the i-th's)."""
    switches, fold_ids, folds = _enumerate(diagram, budget, ClaspState)
    return switches, fold_ids, list(map(report_of, folds))


def ruling_reports(diagram: FrontDiagram,
                   budget: Optional[int] = None) -> list:
    """(ruling, ClaspReport) of every normal ruling, by size, then
    lexicographic, with no ruling scanned twice (see _sorted_reports);
    ``budget`` bounds the scan exactly as in enumerate_rulings."""
    switches, fold_ids, reports = _sorted_reports(diagram, budget)
    return list(zip(map(frozenset, switches),
                    map(reports.__getitem__, fold_ids)))
