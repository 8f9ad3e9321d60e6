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

Clasps are counted by ClaspState, the pairing scan extended with an eye
id per live slot, a count per eye pair, and the strand pair that entered
each interleaved pair's current interval.  clasp_report is one linear
scan with it, and ruling_reports counts during the transfer scan that
lists the rulings (each crossing's tally, its eye pair and the clasps it
closed, is summed per suffix in the backward pass), so no ruling is
scanned twice.  The scan yields each distinct count once, as a fold, so
the listing behind both (_sorted_reports) builds one report per fold.
resolve runs the same scan and keeps what it passes:
the eyes, the slices, the crossing records and each clasp's interval
(for rendering).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .diagram import CROSSING, LEFT_CUSP, FrontDiagram
from .errors import InvalidRuling
from .rulings import (PairingState, _cross, _enumerate, _switch_ok, scan,
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

    Eye ids and strand labels are the state's: a strand is upper (1)
    where its mate lies below it, else lower (0).  Each crossing is
    recorded just before it steps.  After an unswitched crossing, its
    pair is open when it opened an interleaved interval, and its tally
    counts 1 when it closed a clasp.
    """
    flags = switch_flags(diagram, ruling)
    state = ClaspState()
    # the scan updates these in place
    m, eyes, opens = state._m, state._eyes, state._open
    slices = [()]
    birth, death, records, clasps = [], [], [], []
    opened: dict = {}  # eye pair -> event index entering its interval
    for i, (e, switch, ordinal) in enumerate(
            zip(diagram.events, flags, diagram.walk.ordinals), start=1):
        p = e.pos
        if e.kind == CROSSING:
            (ea, sa), (eb, sb) = sorted(((eyes[p], int(m[p] < p)),
                                         (eyes[p + 1], int(m[p + 1] < p + 1))))
        elif e.kind != LEFT_CUSP:
            dying = eyes[p]
        fail = state.step(e, switch)
        if fail is not None:
            raise InvalidRuling(f"event {i}: {fail}")
        if e.kind == LEFT_CUSP:
            birth.append(i)
            death.append(0)
        elif e.kind == CROSSING:
            records.append(CrossingRecord(
                ordinal, i, ea, sa, eb, sb, switch=switch))
            if not switch:
                if (ea, eb) in opens:
                    opened[ea, eb] = i
                elif state.tally[1]:
                    clasps.append((ea, eb, opened[ea, eb], i))
        else:
            death[dying] = i
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


class ClaspState(PairingState):
    """The pairing scan, counting clasps as it goes.

    Besides the mates it keeps the eye id of each live slot (eyes are
    numbered by birth), the clasp count of each eye pair that has met at
    a crossing, and for each pair inside an interleaved interval the
    strand pair of the crossing that opened it (its entering strands).
    The eyes through slots p, p+1 interleave exactly when the switch test
    fails there, so reading it before and after an unswitched crossing
    tells whether the crossing enters or leaves an interleaved interval;
    a strand is the upper one of its eye when its mate lies below it.
    Each crossing's tally is (eye pair, clasps it closed).  No records,
    slices or per-pair strand orders are built.

    The key is all but the counts, which only add up: the mates, the eye
    ids, the number of eyes born and the open intervals, so ``edges`` can
    rebuild a state from it.  The mates and that number merge nothing the
    eye ids alone would not: the eye ids fix the mates, and every state
    of one layer has seen the same left cusps.
    """

    __slots__ = ("_eyes", "_born", "_open", "_counts", "tally")

    def __init__(self):
        super().__init__()
        self._eyes = [None]  # eye id per slot; index 0 unused, as in _m
        self._born = 0
        self._open: dict = {}  # interleaved (eye_a, eye_b) -> entering
        self._counts: dict = {}  # (eye_a, eye_b) -> clasp count
        self.tally = None

    def copy(self) -> "ClaspState":
        c = PairingState.__new__(ClaspState)
        c._m, c._eyes, c._born = self._m[:], self._eyes[:], self._born
        c._open, c._counts = self._open.copy(), self._counts.copy()
        c.tally = self.tally
        return c

    def key(self) -> tuple:
        return (tuple(self._m), tuple(self._eyes), self._born,
                frozenset(self._open.items()))

    def tallies(self) -> tuple:
        return tuple(sorted(self._counts.items()))

    @staticmethod
    def edges(key: tuple, event) -> tuple:
        """PairingState.edges on the state rebuilt from ``key``, stepped
        with and then without the switch, as a switch step keeps the key."""
        m, eyes, born, opened = key
        state = PairingState.__new__(ClaspState)
        state._m, state._eyes, state._born = list(m), list(eyes), born
        state._open, state._counts = dict(opened), {}
        switch = None
        if event.kind == CROSSING and state.step(event, True) is None:
            switch = key, state.tally
        if state.step(event) is not None:
            return switch, None
        return switch, (state.key(), state.tally)

    def step(self, event, is_switch: bool = False):
        p = event.pos
        if event.kind != CROSSING:
            fail = PairingState.step(self, event)
            if fail is None:
                self.tally = None
                if event.kind == LEFT_CUSP:
                    self._eyes[p:p] = (self._born, self._born)
                    self._born += 1
                else:
                    del self._eyes[p:p + 2]
            return fail
        m, eyes = self._m, self._eyes
        a, b = eyes[p], eyes[p + 1]
        if is_switch and a != b and _switch_ok(m, p):
            pair = (a, b) if a < b else (b, a)
            self._counts.setdefault(pair, 0)
            self.tally = (pair, 0)
            return None
        if is_switch or a == b:  # a failure; the pairing step names it
            return PairingState.step(self, event, is_switch)
        # strand labels: True (upper) where the strand's mate lies below it
        at_p, at_q = m[p] < p, m[p + 1] < p + 1
        pair, strands = ((a, b), (at_p, at_q)) if a < b else \
            ((b, a), (at_q, at_p))
        leaves = not _switch_ok(m, p)
        _cross(m, p)
        eyes[p], eyes[p + 1] = b, a
        clasp = 0
        if leaves:
            clasp = 1 if self._open.pop(pair, None) == strands else 0
        elif not _switch_ok(m, p):
            self._open[pair] = strands
        self._counts[pair] = self._counts.get(pair, 0) + clasp
        self.tally = (pair, clasp)
        return None


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
    state, fail = scan(diagram.events, switch_flags(diagram, ruling),
                       ClaspState())
    if fail is not None:
        raise InvalidRuling(f"event {fail[0]}: {fail[1]}")
    return report_of(state.tallies())


def _sorted_reports(diagram: FrontDiagram, budget: Optional[int]) -> tuple:
    """(switches, fold_ids, reports) of every normal ruling, by size, then
    lexicographic: _enumerate's columns, counting clasps during the
    transfer scan, with one ClaspReport per fold, so rulings with equal
    counts share one report (``reports[fold_ids[i]]`` is the i-th's)."""
    switches, fold_ids, folds = _enumerate(diagram, budget, ClaspState())
    return switches, fold_ids, list(map(report_of, folds))


def ruling_reports(diagram: FrontDiagram,
                   budget: Optional[int] = None) -> list:
    """(ruling, ClaspReport) of every normal ruling, by size, then
    lexicographic, with no ruling scanned twice (see _sorted_reports);
    ``budget`` bounds the scan exactly as in enumerate_rulings."""
    switches, fold_ids, reports = _sorted_reports(diagram, budget)
    return list(zip(map(frozenset, switches),
                    map(reports.__getitem__, fold_ids)))
