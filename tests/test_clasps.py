"""Resolutions, eye pairs, clasp counting, and the slice-scan oracle."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from clasplab import rulings
from clasplab import (BudgetExceeded, ClaspState, CrossingRecord,
                      FrontDiagram, InvalidRuling, clasp_report,
                      enumerate_rulings, generate_negative_braid_closure,
                      generate_torus4, generate_trefoil, generate_unknot,
                      is_normal_ruling, lc, obstruction_verdict, rc,
                      resolve, ruling_reports, scan, switch_flags)
from clasplab.clasps import (ClaspReport, PairClasps, Resolution,
                             parity_of_total)
from clasplab.diagram import far_commutation_order
from clasplab.fillability import (ObstructionVerdict, RulingEvidence,
                                  random_script, run_script)
from conftest import (DISJOINT, INTERLEAVED, LOWER, NESTED, UPPER,
                      InternalInvariantError, UnknownEye, _pair_config,
                      assert_value_contract, backtrack_rulings,
                      brute_force_rulings, brute_pair_clasps, clasp_intervals,
                      disjoint_union, random_fillable, ruling_sort_key)


class TestResolve:
    def test_unknot(self):
        res = resolve(generate_unknot(), set())
        assert res.n_eyes == 1
        assert res.records == ()

    def test_trefoil_all_switched(self):
        res = resolve(generate_trefoil(), {1, 2, 3})
        assert res.n_eyes == 2
        assert all(r.switch for r in res.records)

    def test_trefoil_one_switch(self):
        res = resolve(generate_trefoil(), {1})
        crossings = [r for r in res.records if not r.switch]
        assert [r.ordinal for r in crossings] == [2, 3]
        assert all({r.eye_a, r.eye_b} == {0, 1} for r in res.records)

    def test_invalid_ruling(self):
        with pytest.raises(InvalidRuling):
            resolve(generate_trefoil(), {2})

    def test_eyes_ordered_by_birth(self):
        res = resolve(generate_trefoil(), {1})
        assert res.birth == (1, 2)
        assert res.death == (7, 6)


class TestCountClasps:
    def test_trefoil_singletons_have_one_clasp(self):
        for switches in ({1}, {3}):
            res = resolve(generate_trefoil(), switches)
            assert len(clasp_intervals(res, 0, 1)) == 1

    def test_trefoil_full_switching_has_none(self):
        res = resolve(generate_trefoil(), {1, 2, 3})
        assert len(clasp_intervals(res, 0, 1)) == 0

    def test_disjoint_unknots(self):
        d = disjoint_union(generate_unknot(), generate_unknot())
        res = resolve(d, set())
        assert len(clasp_intervals(res, 0, 1)) == 0

    def test_unknown_eye(self):
        res = resolve(generate_unknot(), set())
        with pytest.raises(UnknownEye):
            clasp_intervals(res, 0, 3)
        with pytest.raises(UnknownEye):
            clasp_intervals(res, 0, 0)


class TestClaspReport:
    @pytest.mark.parametrize("switches,total,par", [
        ({1}, 1, "odd"), ({3}, 1, "odd"), ({1, 2, 3}, 0, "even")])
    def test_trefoil(self, switches, total, par):
        report = clasp_report(generate_trefoil(), switches)
        assert report.total == total
        assert report.parity == par
        assert parity_of_total(report.total) == par

    def test_torus4_unique_ruling_has_five_clasps(self):
        d = generate_torus4(0)
        (ruling,) = enumerate_rulings(d)
        report = clasp_report(d, ruling)
        assert report.total == 5
        assert report.parity == "odd"

    def test_total_is_sum_of_pairs(self, fillable_small):
        for d in fillable_small:
            for r in enumerate_rulings(d):
                report = clasp_report(d, r)
                assert report.total == sum(p.clasps for p in report.pairs)
                assert report.parity == ("odd" if report.total % 2 else "even")

    def test_json_shape(self):
        data = clasp_report(generate_trefoil(), {1}).to_json()
        assert data == {"pairs": [{"eyes": [0, 1], "clasps": 1}],
                        "total": 1, "parity": "odd"}


class TestPairConfigs:
    def test_classifier(self):
        a, b = (0, 0), (0, 1)
        c, d = (1, 0), (1, 1)
        assert _pair_config((a, b, c, d)) == DISJOINT
        assert _pair_config((a, c, d, b)) == NESTED
        assert _pair_config((a, c, b, d)) == INTERLEAVED

    def test_never_interleaved_at_birth_or_death(self, corpus, fillable_small):
        # exercised by the assertions inside the scan; just run it broadly
        for d in list(corpus.values()) + fillable_small:
            for r in enumerate_rulings(d):
                res = resolve(d, r)
                for a in range(res.n_eyes):
                    for b in range(a + 1, res.n_eyes):
                        clasp_intervals(res, a, b)


class TestOracle:
    def _check(self, d, ruling):
        """Record scan, slice oracle, one linear ClaspState scan and the
        clasps resolve lists agree."""
        res = resolve(d, ruling)
        _, tallies, fail = scan(d.events, switch_flags(d, ruling), ClaspState)
        assert fail is None
        counted = dict(tallies)
        assert set(counted) == {(r.eye_a, r.eye_b) for r in res.records}
        for a in range(res.n_eyes):
            for b in range(a + 1, res.n_eyes):
                n = len(clasp_intervals(res, a, b))
                assert n == brute_pair_clasps(d, ruling, a, b)
                assert counted.get((a, b), 0) == n
                assert sum(c[:2] == (a, b) for c in res.clasps) == n

    def test_corpus(self, corpus):
        for d in corpus.values():
            for r in enumerate_rulings(d):
                self._check(d, r)

    def test_fillable_small(self, fillable_small):
        for d in fillable_small:
            for r in enumerate_rulings(d):
                self._check(d, r)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 14))
    def test_random_fillable(self, seed, length):
        cert = run_script(random_script(length, seed))
        self._check(cert.diagram, cert.ruling)


class TestValueTypes:
    """conftest.assert_value_contract for the clasp records."""

    def test_crossing_record(self):
        fields = (2, 4, 0, LOWER, 1, UPPER, False)
        assert_value_contract(
            CrossingRecord(*fields),
            "CrossingRecord(ordinal=2, event_index=4, eye_a=0, strand_a=0, "
            "eye_b=1, strand_b=1, switch=False)",
            fields, CrossingRecord(*fields[:-1], True))

    def test_resolution(self):
        slices = ((), ((0, 0), (0, 1)), ())
        assert_value_contract(
            resolve(generate_unknot(), ()),
            "Resolution(n_eyes=1, birth=(1,), death=(2,), "
            "slices=((), ((0, 0), (0, 1)), ()), records=(), clasps=())",
            (1, (1,), (2,), slices, (), ()),
            Resolution(1, (1,), (3,), slices, (), ()))

    def test_reports(self):
        pair = PairClasps((0, 1), 1)
        assert_value_contract(pair, "PairClasps(eyes=(0, 1), clasps=1)",
                              ((0, 1), 1), PairClasps((0, 2), 1))
        report = clasp_report(generate_trefoil(), {1})
        assert_value_contract(
            report, "ClaspReport(pairs=(PairClasps(eyes=(0, 1), clasps=1),),"
                    " total=1, parity='odd')",
            ((pair,), 1, "odd"), ClaspReport((pair,), 3, "odd"))
        assert report.to_json() == {"pairs": [{"eyes": [0, 1], "clasps": 1}],
                                    "total": 1, "parity": "odd"}


class TestInvariantErrors:
    def test_inconsistent_resolution_raises_named_error(self):
        res = resolve(generate_trefoil(), {1, 2, 3})
        # the lower strand of eye 0 and the upper strand of eye 1 are never
        # adjacent, so no unswitched crossing can exchange them
        bad = CrossingRecord(2, 4, 0, LOWER, 1, UPPER, switch=False)
        res = res._replace(records=(bad,))
        with pytest.raises(InternalInvariantError,
                           match="crossing between non-adjacent strands"):
            clasp_intervals(res, 0, 1)


def reference_report(diagram, ruling):
    """clasp_report as it was before clasps were counted in the scan:
    resolve the ruling, then run clasp_intervals on each interacting pair."""
    res = resolve(diagram, ruling)
    pairs = [PairClasps((a, b), len(clasp_intervals(res, a, b)))
             for a, b in sorted({(r.eye_a, r.eye_b) for r in res.records})]
    total = sum(p.clasps for p in pairs)
    return ClaspReport(tuple(pairs), total, parity_of_total(total))


def reference_rulings(diagram):
    """Every normal ruling, by ruling_sort_key, without enumerate_rulings:
    the 2^c filter up to 12 crossings, else backtracking over the switch
    choices of the word as given."""
    if diagram.n_crossings <= 12:
        return brute_force_rulings(diagram)
    return sorted((frozenset(r) for r, _ in backtrack_rulings(diagram)),
                  key=ruling_sort_key)


def reference_verdict(diagram):
    """obstruction_verdict from the reference rulings, each reported by
    resolving it."""
    evidence = []
    for r in reference_rulings(diagram):
        report = reference_report(diagram, r)
        evidence.append(RulingEvidence(tuple(sorted(r)), report.total,
                                       report.parity))
    if not evidence:
        return ObstructionVerdict(False, (), None, "no normal rulings at all")
    witness = next((e.switches for e in evidence if e.parity == "even"),
                   None)
    return ObstructionVerdict(witness is None, tuple(evidence), witness)


def is_narrower(d):
    narrow, _ = far_commutation_order(d)
    return max(narrow.walk.counts) < max(d.walk.counts)


_FAMILIES = {
    "braid2": lambda: [generate_negative_braid_closure(2, [1] * k)
                       for k in range(1, 19)],
    "braid4": lambda: [generate_negative_braid_closure(4, [1, 2, 3] * k)
                       for k in range(1, 4)],
    "torus4": lambda: [generate_torus4(n) for n in range(5)],
    "small": lambda: [generate_trefoil(), generate_unknot()],
    "fillable10": lambda: random_fillable(150, 10),
    "fillable16": lambda: random_fillable(150, 16),
    "fillable25": lambda: random_fillable(150, 25),
}


@functools.lru_cache(maxsize=None)
def verdict_family(name):
    return tuple(_FAMILIES[name]())


class TestCountedInSearch:
    """ruling_reports counts clasps during the ruling search; the verdict
    and the reports must equal enumerating, then resolving each ruling."""

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_verdict_matches_reference(self, family):
        for d in verdict_family(family):
            assert obstruction_verdict(d) == reference_verdict(d)
            listed = ruling_reports(d)
            assert [r for r, _ in listed] == enumerate_rulings(d)
            for r, report in listed:
                assert report == reference_report(d, r)

    @pytest.mark.parametrize("d,parities", [
        (FrontDiagram([lc(1), lc(1), rc(2), rc(1)]), set()),
        *[(generate_torus4(n), {"odd"}) for n in range(4)],
        (generate_negative_braid_closure(2, [1] * 10), {"odd", "even"})],
        ids=["no_rulings", "torus4_0", "torus4_1", "torus4_2", "torus4_3",
             "braid2_10"])
    def test_verdict_by_fold_equals_the_reference(self, d, parities):
        """No rulings (the note), all odd and mixed parities: the evidence
        read per fold is what resolving each ruling gives.  A NamedTuple
        equals a plain tuple, so the repr and the element types are
        checked too."""
        verdict, want = obstruction_verdict(d), reference_verdict(d)
        assert verdict == want
        assert repr(verdict) == repr(want)
        assert all(type(e) is RulingEvidence for e in verdict.evidence)
        assert {e.parity for e in verdict.evidence} == parities

    def test_listings_share_one_order(self, fillable_300):
        diagrams = [d for name in ("braid2", "braid4", "torus4")
                    for d in verdict_family(name)] + fillable_300
        for d in diagrams:
            rulings = enumerate_rulings(d)
            listed = ruling_reports(d)
            verdict = obstruction_verdict(d)
            assert rulings == sorted(rulings, key=ruling_sort_key)
            assert [r for r, _ in listed] == rulings
            assert [e.switches for e in verdict.evidence] == \
                [tuple(sorted(r)) for r, _ in listed]
            even = [e.switches for e in verdict.evidence
                    if e.parity == "even"]
            assert verdict.witness == (even[0] if even else None)

    @pytest.mark.parametrize("d", [generate_torus4(1), generate_trefoil()],
                             ids=["narrowed", "as_given"])
    def test_one_reordering_per_verdict(self, d, monkeypatch):
        calls = []

        def counted(diagram, *args):
            calls.append(diagram)
            return far_commutation_order(diagram, *args)

        monkeypatch.setattr(rulings, "far_commutation_order", counted)
        obstruction_verdict(d)
        assert calls == [d]

    def test_families_cover_both_search_words(self):
        diagrams = [d for name in _FAMILIES for d in verdict_family(name)]
        narrowed = sum(map(is_narrower, diagrams))
        assert 0 < narrowed < len(diagrams)

    @pytest.mark.parametrize("d", [
        generate_negative_braid_closure(2, [1] * 12), generate_torus4(2)],
        ids=["braid2_12", "torus4_2"])
    def test_budget_is_the_enumeration_budget(self, d):
        def outcome(fn, budget):
            try:
                fn(d, budget=budget)
            except BudgetExceeded as exc:
                return exc.nodes
            return None

        low, enough = 0, 10_000  # enumeration needs more than low steps
        while low + 1 < enough:
            mid = (low + enough) // 2
            if outcome(enumerate_rulings, mid) is None:
                enough = mid
            else:
                low = mid
        for b in sorted({*range(0, enough + 40, 23), enough - 1, enough}):
            want = outcome(enumerate_rulings, b)
            assert (want is None) == (b >= enough)
            assert outcome(obstruction_verdict, b) == want
            assert outcome(ruling_reports, b) == want

    def test_invalid_ruling_message_matches_the_check(self, corpus,
                                                      fillable_small):
        rng = random.Random(7)
        failures = 0
        for d in list(corpus.values()) + fillable_small:
            c = d.n_crossings
            for _ in range(20):
                switches = {o for o in range(1, c + 1) if rng.random() < 0.4}
                check = is_normal_ruling(d, switches)
                if check.ok:
                    assert clasp_report(d, switches) == \
                        reference_report(d, switches)
                    continue
                failures += 1
                for report in (clasp_report, resolve):
                    with pytest.raises(InvalidRuling) as info:
                        report(d, switches)
                    assert str(info.value) == \
                        f"event {check.event_index}: {check.reason}"
        assert failures > 100
