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

Clasps are counted by ClaspState, the pairing scan's state class with an
eye id per live slot and, per interleaved eye pair, the strand pair that
entered its current interval, all in its key.  Each crossing's edge
tallies its eye pair and the clasps it closed.  clasp_report is one
linear scan with it, which sums the tallies per pair, and ruling_reports
counts during the transfer scan that lists the rulings (the backward pass
sums each suffix's tallies), so no ruling is scanned twice.  The scan
yields each distinct count once, as a fold, and its rulings already by
size, then lexicographic, so the listing behind both (_sorted_reports)
builds one report per fold and sorts nothing.  resolve steps the same
keys and keeps what it passes: the eyes, the slices, the crossing records
and each clasp's interval (for rendering).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .diagram import CROSSING, LEFT_CUSP, FrontDiagram
from .errors import InvalidRuling
from .rulings import (PairingState, _enumerate, _failure, _switch_ok, scan,
                      switch_flags)


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
    """Run one ClaspState scan, checking the ruling and building its eyes.

    Eye ids and strand labels are the keys': a strand is upper (1) where
    its mate lies below it, else lower (0).  Each crossing is recorded
    from the key before it.  After an unswitched crossing, its pair is
    open when it opened an interleaved interval, and its tally counts 1
    when it closed a clasp.
    """
    flags = switch_flags(diagram, ruling)
    edges, key = ClaspState.edges, ClaspState.start
    slices = [()]
    birth, death, records, clasps = [], [], [], []
    entered: dict = {}  # eye pair -> event index entering its interval
    for i, (e, switch, ordinal) in enumerate(
            zip(diagram.events, flags, diagram.walk.ordinals), start=1):
        m, eyes, _, opened = key
        edge = edges(key, e)[not switch]
        if edge is None:
            raise InvalidRuling(f"event {i}: {_failure(key, e, switch)}")
        key, tally = edge
        p = e.pos
        if e.kind == LEFT_CUSP:
            birth.append(i)
            death.append(0)
        elif e.kind == CROSSING:
            (ea, sa), (eb, sb) = sorted(((eyes[p], int(m[p] < p)),
                                         (eyes[p + 1], int(m[p + 1] < p + 1))))
            records.append(CrossingRecord(
                ordinal, i, ea, sa, eb, sb, switch=switch))
            if len(key[3]) > len(opened):  # it opened an interval
                entered[ea, eb] = i
            elif tally[1]:
                clasps.append((ea, eb, entered[ea, eb], i))
        else:
            death[eyes[p]] = i
        m, eyes = key[:2]
        slices.append(tuple((eyes[q], int(m[q] < q))
                            for q in range(1, len(m))))
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

    A key is (mates, eyes, born, opened): the mates as in PairingState,
    the eye id of each live slot (eyes are numbered by birth; index 0 is
    None, as the mates' is 0), the number of eyes born, and a frozenset of
    (eye pair, entering strands) for each pair inside an interleaved
    interval, with the strand pair of the crossing that opened it.  The
    eyes through slots p, p+1 interleave exactly when the switch test
    fails there, so reading it before and after an unswitched crossing
    tells whether the crossing enters or leaves an interleaved interval;
    a strand is the upper one of its eye (True) when its mate lies below
    it.  Each crossing's tally is (eye pair, clasps it closed), which the
    scans sum per pair.  No records, slices or per-pair strand orders are
    built.  The mates and the number born merge nothing the eye ids alone
    would not: the eye ids fix the mates, and every state of one layer
    has seen the same left cusps.
    """

    start = ((0,), (None,), 0, frozenset())

    @staticmethod
    def edges(key: tuple, event) -> tuple:
        """PairingState.edges on the mates, with the eye ids, the open
        intervals and each crossing's tally stepped alongside."""
        m, eyes, born, opened = key
        switch, plain = PairingState.edges(m, event)
        if plain is None:
            return None, None
        p, mates = event.pos, plain[0]
        if event.kind == LEFT_CUSP:
            eyes = eyes[:p] + (born, born) + eyes[p:]
            return None, ((mates, eyes, born + 1, opened), None)
        if event.kind != CROSSING:
            return None, ((mates, eyes[:p] + eyes[p + 2:], born, opened), None)
        a, b = eyes[p], eyes[p + 1]
        at_p, at_q = m[p] < p, m[p + 1] < p + 1
        pair, strands = ((a, b), (at_p, at_q)) if a < b else \
            ((b, a), (at_q, at_p))
        if switch is None:  # the pair interleaves, and the crossing leaves
            clasp = int((pair, strands) in opened)
            opened = frozenset(o for o in opened if o[0] != pair)
        else:
            switch, clasp = (key, (pair, 0)), 0
            if not _switch_ok(mates, p):  # the crossing enters an interval
                opened = opened | {(pair, strands)}
        eyes = eyes[:p] + (b, a) + eyes[p + 2:]
        return switch, ((mates, eyes, born, opened), (pair, clasp))


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
