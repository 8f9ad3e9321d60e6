"""Scripts, certificates, verdicts, and the filling search."""

import pytest

from clasplab import (EvennessViolation, FrontDiagram, Move, ScriptError,
                      TransportFailure, apply_move, cobordism_parity_check,
                      enumerate_applicable_moves,
                      generate_negative_braid_closure, generate_torus4,
                      generate_trefoil, generate_unknot, lc,
                      obstruction_verdict, random_script, rc, run_script,
                      search_filling)
from clasplab.fillability import (CobordismParity, FillingCertificate,
                                  ObstructionVerdict, RulingEvidence,
                                  SearchResult, _backward_steps)
from clasplab.moves import RulingTransport
from conftest import assert_value_contract, reference_run_script


def outcome(runner, script):
    """The certificate JSON, or the error type and message."""
    try:
        return runner(script).to_json()
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc)


class TestRunScript:
    def test_single_birth(self):
        cert = run_script([Move("h0", 1, 1)])
        fields = (cert.script, cert.diagram, cert.ruling, cert.report)
        assert cert.diagram.events == generate_unknot().events
        assert cert.ruling == frozenset()
        assert cert.report.total == 0

    def test_birth_then_saddle(self):
        cert = run_script([Move("h0", 1, 1), Move("h1", 2, 1)])
        assert cert.diagram.events == (lc(1), rc(1), lc(1), rc(1))
        assert cert.ruling == frozenset()

    def test_empty_script(self):
        cert = run_script([])
        assert cert.diagram.events == ()

    def test_inapplicable_move_reports_index(self):
        with pytest.raises(ScriptError, match="move 2"):
            run_script([Move("h0", 1, 1), Move("r3", 1)])

    def test_first_move_must_create_strands(self):
        with pytest.raises(ScriptError, match="move 1"):
            run_script([Move("h1", 1, 1)])

    def test_incompatible_saddle_fails_loudly(self):
        # two stacked eyes; the saddle between them joins different eyes
        script = [Move("h0", 1, 1), Move("h0", 2, 3), Move("h1", 3, 2)]
        with pytest.raises(TransportFailure):
            run_script(script)

    def test_carried_state_matches_the_threaded_transports(self):
        for seed in range(500):
            script = random_script(1 + seed % 25, seed)
            assert outcome(run_script, script) == \
                outcome(reference_run_script, script), seed

    @pytest.mark.parametrize("script", [
        [Move("h0", 1, 1), Move("h0", 2, 3), Move("h1", 3, 2)],
        [Move("h0", 1, 1), Move("r3", 1)],
        random_script(25, 1452),  # the known odd certificate
    ])
    def test_failing_scripts_fail_alike(self, script):
        assert outcome(run_script, script) == \
            outcome(reference_run_script, script)


class TestRandomScript:
    def test_deterministic(self):
        assert random_script(20, 9) == random_script(20, 9)

    def test_single_move_is_a_birth(self):
        (move,) = random_script(1, 123)
        assert move.kind == "h0"

    def test_certificates_always_even(self):
        for seed in range(120):
            cert = run_script(random_script(1 + seed % 25, seed))
            assert cert.report.parity == "even"

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            random_script(0, 1)

    def test_isotopy_transport_failure_propagates(self, monkeypatch):
        real = RulingTransport.carry

        def broken(self, flags, entries):
            if self.move.kind == "r1":
                raise TransportFailure("broken r1 transport")
            return real(self, flags, entries)

        monkeypatch.setattr(RulingTransport, "carry", broken)
        with pytest.raises(TransportFailure, match="broken r1"):
            random_script(25, 9)

    @pytest.mark.xfail(strict=True, raises=EvennessViolation,
                       reason="known defect: move 15 (r3 @7) maps the unique "
                              "ruling {3} with 0 clasps to {3} with 1 clasp")
    def test_r3_keeps_certificate_even(self):
        run_script(random_script(25, 1452))


class TestObstruction:
    def test_trefoil_not_obstructed(self):
        verdict = obstruction_verdict(generate_trefoil())
        assert not verdict.obstructed
        assert verdict.witness == (1, 2, 3)
        assert len(verdict.evidence) == 3

    def test_unknot_not_obstructed(self):
        verdict = obstruction_verdict(generate_unknot())
        assert not verdict.obstructed
        assert verdict.witness == ()

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_torus_family_obstructed(self, n):
        verdict = obstruction_verdict(generate_torus4(n))
        assert verdict.obstructed
        assert len(verdict.evidence) == 1
        assert verdict.evidence[0].clasps == 2 * n + 5

    def test_no_rulings_is_not_obstructed_by_this_criterion(self):
        # a stabilized unknot: the zigzag kills every candidate ruling
        d = FrontDiagram([lc(1), lc(1), rc(2), rc(1)])
        verdict = obstruction_verdict(d)
        assert not verdict.obstructed
        assert verdict.note == "no normal rulings at all"
        assert verdict.evidence == ()

    def test_verdict_stable_under_isotopy_moves(self, corpus):
        from clasplab import apply_move, enumerate_applicable_moves
        for d in corpus.values():
            base = obstruction_verdict(d).verdict
            for m in enumerate_applicable_moves(d):
                if m.kind in ("h0", "h1"):
                    continue
                d2, _ = apply_move(d, m)
                assert obstruction_verdict(d2).verdict == base


class TestRulingEvidence:
    """The verdict's evidence is an immutable value with a fixed repr,
    the hash of its field tuple and a fixed JSON form."""

    def test_value_contract(self):
        e = RulingEvidence((1, 3), 1, "odd")
        assert repr(e) == \
            "RulingEvidence(switches=(1, 3), clasps=1, parity='odd')"
        assert hash(e) == hash((e.switches, e.clasps, e.parity))
        assert e.to_json() == {"switches": [1, 3], "clasps": 1,
                               "parity": "odd"}
        with pytest.raises(AttributeError):
            e.clasps = 2

    def test_verdict_builds_evidence(self):
        # a NamedTuple equals a plain tuple, so the reference comparison
        # in test_clasps.py cannot see which one the verdict built
        evidence = obstruction_verdict(generate_trefoil()).evidence
        assert [type(e) for e in evidence] == [RulingEvidence] * 3


class TestValueTypes:
    """conftest.assert_value_contract and the JSON form of the filling
    records."""

    UNKNOT = "FrontDiagram(events=(Event(kind='lc', pos=1), " \
             "Event(kind='rc', pos=1)))"
    H0 = "Move(kind='h0', anchor=1, pos=1, variant='')"
    EVEN = "RulingEvidence(switches=(), clasps=0, parity='even')"

    def test_filling_certificate(self):
        cert = run_script([Move("h0", 1, 1)])
        fields = (cert.script, cert.diagram, cert.ruling, cert.report)
        assert_value_contract(
            cert, f"FillingCertificate(script=({self.H0},), "
                  f"diagram={self.UNKNOT}, ruling=frozenset(), "
                  "report=ClaspReport(pairs=(), total=0, parity='even'))",
            fields, FillingCertificate(*fields[:2], frozenset({1}), fields[3]))
        assert cert.to_json() == {
            "script": ["h0 1 @1"], "diagram": "lc 1\nrc 1\n", "ruling": [],
            "clasps": {"pairs": [], "total": 0, "parity": "even"}}

    def test_obstruction_verdict(self):
        verdict = obstruction_verdict(generate_unknot())
        evidence = (RulingEvidence((), 0, "even"),)
        assert_value_contract(
            verdict, f"ObstructionVerdict(obstructed=False, "
                     f"evidence=({self.EVEN},), witness=(), note=None)",
            (False, evidence, (), None),
            ObstructionVerdict(False, evidence, None, None))
        assert verdict.to_json() == {
            "verdict": "not_obstructed", "witness": [], "note": None,
            "rulings": [{"switches": [], "clasps": 0, "parity": "even"}]}

    def test_cobordism_parity(self):
        result = cobordism_parity_check(generate_unknot(), generate_unknot())
        even = RulingEvidence((), 0, "even")
        assert_value_contract(
            result, f"CobordismParity(status='compatible', lower={self.EVEN}, "
                    f"upper={self.EVEN}, reason=None)",
            ("compatible", even, even, None),
            CobordismParity("incompatible", even, even, None))
        assert result.to_json() == {
            "status": "compatible", "reason": None,
            "lower": {"switches": [], "clasps": 0, "parity": "even"},
            "upper": {"switches": [], "clasps": 0, "parity": "even"}}

    def test_search_result(self):
        result = search_filling(generate_unknot())
        assert_value_contract(
            result, f"SearchResult(status='found', script=({self.H0},), "
                    "stats={'nodes': 1, 'depth': 1})",
            ("found", (Move("h0", 1, 1),), {"nodes": 1, "depth": 1}),
            SearchResult("found", (Move("h0", 1, 1),), {"nodes": 2}),
            hashable=False)
        assert result.to_json() == {"status": "found", "script": ["h0 1 @1"],
                                    "stats": {"nodes": 1, "depth": 1}}


class TestCobordismParity:
    def test_unknot_trefoil_not_applicable(self):
        result = cobordism_parity_check(generate_unknot(), generate_trefoil())
        assert result.status == "not_applicable"

    def test_torus_pair_compatible(self):
        result = cobordism_parity_check(generate_torus4(0), generate_torus4(1))
        assert result.status == "compatible"
        assert result.lower.parity == "odd"
        assert result.upper.parity == "odd"

    def test_unknot_pair_compatible(self):
        result = cobordism_parity_check(generate_unknot(), generate_unknot())
        assert result.status == "compatible"
        assert result.lower.parity == "even"

    def test_unknot_vs_torus_incompatible(self):
        result = cobordism_parity_check(generate_unknot(), generate_torus4(0))
        assert result.status == "incompatible"


class TestSearch:
    def test_backward_steps_are_listed_moves(self):
        """Every (parent, move) the backward search takes is a move the
        parent's menu lists, and it rebuilds the diagram."""
        pairs = 0
        for seed in range(600):
            d = run_script(random_script(1 + seed % 12, seed)).diagram
            for parent, move in _backward_steps(d):
                assert move in enumerate_applicable_moves(parent), (seed,
                                                                    move)
                assert apply_move(parent, move)[0].events == d.events
                pairs += 1
        assert pairs > 3000

    def test_unknot_found(self):
        result = search_filling(generate_unknot())
        assert result.status == "found"
        assert [str(m) for m in result.script] == ["h0 1 @1"]

    def test_torus_pruned(self):
        result = search_filling(generate_torus4(0))
        assert result.status == "pruned"

    def test_trefoil_shallow_exhausted(self):
        result = search_filling(generate_trefoil(), depth_bound=1)
        assert result.status == "exhausted"

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: a script-built front has tb = -(births + "
        "saddles), since each h0 and each h1 lowers tb by 1, and the "
        "trefoil has tb 1, so the search exhausts after 3 nodes"))
    def test_trefoil_found(self):
        assert search_filling(generate_trefoil()).status == "found"

    def test_found_scripts_verify(self):
        for seed in (1, 2, 5, 8):
            cert = run_script(random_script(6, seed))
            result = search_filling(cert.diagram, depth_bound=6,
                                    node_budget=4000)
            if result.status == "found":
                redone = run_script(result.script)
                assert redone.diagram.events == cert.diagram.events
                assert redone.report.parity == "even"

    def test_budget_bounds_the_obstruction_precheck(self):
        # 165,580,141 rulings: the pre-check must give up within the budget
        d = generate_negative_braid_closure(2, [1] * 40)
        assert search_filling(d, node_budget=100).status == "exhausted"
        # torus4(1) is obstructed, but 5 steps cannot show it
        result = search_filling(generate_torus4(1), node_budget=5)
        assert result.status == "exhausted"
        assert result.stats["reason"] == "node budget"

    def test_pruned_implies_never_found(self):
        for n in (0, 1):
            d = generate_torus4(n)
            assert search_filling(d).status == "pruned"
