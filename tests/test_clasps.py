"""Resolutions, eye pairs, clasp counting, and the slice-scan oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from clasplab import (InvalidRuling, UnknownEye,
                      brute_pair_clasps, clasp_intervals, clasp_report,
                      disjoint_union, enumerate_rulings, generate_torus4,
                      generate_trefoil, generate_unknot, resolve)
from clasplab.clasps import (DISJOINT, INTERLEAVED, NESTED, _pair_config,
                             parity_of_total)
from clasplab.fillability import random_script, run_script


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
        res = resolve(d, ruling)
        for a in range(res.n_eyes):
            for b in range(a + 1, res.n_eyes):
                assert len(clasp_intervals(res, a, b)) == \
                    brute_pair_clasps(d, ruling, a, b)

    def test_corpus(self, corpus):
        for d in corpus.values():
            for r in enumerate_rulings(d):
                self._check(d, r)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 14))
    def test_random_fillable(self, seed, length):
        cert = run_script(random_script(length, seed))
        self._check(cert.diagram, cert.ruling)
