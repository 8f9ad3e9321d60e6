"""Event words, validation, tracing, generators, and the text format."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from clasplab import (FrontDiagram, InvalidBraidLetter, InvalidDiagram,
                      ParseError, generate_negative_braid_closure,
                      generate_torus4, generate_trefoil, generate_unknot, lc,
                      parse, rc, serialize, trace_components,
                      transpose_events, validate, x)
from clasplab.diagram import (CROSSING, LEFT_CUSP, Event, StrandTrace,
                              ValidationReport, Violation,
                              far_commutation_order)
from clasplab.fillability import random_script, run_script
from conftest import (assert_value_contract, disjoint_union,
                      far_commutation_windows, hop_counts, random_fillable,
                      stacked_union)


def cusp_tallies(diagram):
    """(left cusps, right cusps) per component of the trace, each cusp's
    component read off a strand it touches: on the slice after a left
    cusp, on the slice before a right cusp."""
    t = trace_components(diagram)
    tallies = [[0, 0] for _ in range(t.n_components)]
    for i, e in enumerate(diagram.events):
        if e.kind != CROSSING:
            born = e.kind == LEFT_CUSP
            strand = t.slices[i + born][e.pos - 1]
            tallies[t.component_of_strand[strand]][not born] += 1
    return [tuple(tally) for tally in tallies]


class TestValidate:
    def test_minimal_unknot(self):
        assert validate(FrontDiagram([lc(1), rc(1)])).ok

    def test_empty_diagram(self):
        assert validate(FrontDiagram()).ok

    def test_right_cusp_out_of_range(self):
        report = validate([lc(1), rc(2)])
        assert not report.ok
        assert report.violations[0].event_index == 2
        assert "right cusp" in report.violations[0].rule

    def test_unclosed_diagram(self):
        report = validate([lc(1)])
        assert not report.ok
        assert "not closed" in report.violations[0].rule

    def test_crossing_needs_two_strands(self):
        report = validate([lc(1), x(2), rc(1)])
        assert not report.ok
        assert report.violations[0].event_index == 2

    def test_strand_profile_steps(self, corpus):
        for d in corpus.values():
            counts = d.walk.counts
            assert counts[0] == 0 and counts[-1] == 0
            for a, b in zip(counts, counts[1:]):
                assert b - a in (-2, 0, 2) and b >= 0

    def test_single_event_edits_are_flagged_or_fine(self, corpus):
        for d in corpus.values():
            for i in range(len(d)):
                edited = d.events[:i] + d.events[i + 1:]
                validate(edited)  # must never crash, any verdict is fine

    @pytest.mark.parametrize("word", [
        [rc(1)], [x(1)], [lc(1), rc(2)], [lc(1), x(2), rc(1)],
        [lc(3), rc(3)], [lc(1)]])
    def test_construction_raises_the_first_violation(self, word):
        with pytest.raises(InvalidDiagram) as info:
            FrontDiagram(word)
        assert str(info.value) == str(validate(word).violations[0])


class TestTrace:
    def test_unknot(self):
        assert cusp_tallies(generate_unknot()) == [(1, 1)]

    def test_trefoil(self):
        assert cusp_tallies(generate_trefoil()) == [(2, 2)]

    def test_two_component_unlink(self):
        d = FrontDiagram([lc(1), rc(1), lc(1), rc(1)])
        assert trace_components(d).n_components == 2

    def test_invalid_diagram_raises(self):
        with pytest.raises(InvalidDiagram):
            trace_components(FrontDiagram([rc(1)]))

    def test_cusp_tallies_balance(self, corpus, fillable_small):
        for d in list(corpus.values()) + fillable_small:
            tallies = cusp_tallies(d)
            assert sum(left for left, _ in tallies) == \
                sum(e.kind == LEFT_CUSP for e in d.events)
            for left, right in tallies:
                assert left == right


class TestValueTypes:
    """Each value's repr, equality, hash, immutability, copy and pickle
    (conftest.assert_value_contract)."""

    def test_event(self):
        assert_value_contract(Event("x", 2), "Event(kind='x', pos=2)",
                              ("x", 2), Event("x", 3))
        # unlike a NamedTuple record, a slotted value equals no tuple
        assert Event("x", 2) != ("x", 2)

    @pytest.mark.parametrize("kind, pos, message", [
        ("q", 1, "unknown event kind 'q'"),
        ("x", 0, "event positions are 1-based"),
        ("x", 1.0, "event position 1.0 is not an int"),
        ("lc", True, "event position True is not an int"),
        ("rc", "1", "event position '1' is not an int")])
    def test_event_refuses_bad_fields(self, kind, pos, message):
        with pytest.raises(ValueError, match=message):
            Event(kind, pos)

    def test_front_diagram(self):
        d = generate_unknot()
        assert_value_contract(
            d, "FrontDiagram(events=(Event(kind='lc', pos=1), "
               "Event(kind='rc', pos=1)))",
            (d.events,), FrontDiagram(d.events * 2))
        assert pickle.loads(pickle.dumps(d)).walk == d.walk

    def test_validation_records(self):
        v = Violation(3, "bad")
        assert_value_contract(v, "Violation(event_index=3, rule='bad')",
                              (3, "bad"), Violation(3, "worse"))
        assert_value_contract(
            ValidationReport(False, (v,)),
            "ValidationReport(ok=False, "
            "violations=(Violation(event_index=3, rule='bad'),))",
            (False, (v,)), ValidationReport(True, (v,)))

    def test_strand_trace(self):
        t = trace_components(generate_unknot())
        assert_value_contract(
            t, "StrandTrace(slices=((), (1, 2), ()), "
               "component_of_strand={1: 0, 2: 0}, n_components=1)",
            (((), (1, 2), ()), {1: 0, 2: 0}, 1),
            StrandTrace(t.slices, t.component_of_strand, 2), hashable=False)


class TestGenerators:
    def test_unknot_word(self):
        assert generate_unknot().events == (lc(1), rc(1))

    def test_trefoil_word(self):
        d = generate_trefoil()
        assert d.events == (lc(1), lc(3), x(2), x(2), x(2), rc(3), rc(1))
        assert d.n_crossings == 3
        assert trace_components(d).n_components == 1

    def test_braid_closure_two_strands(self):
        d = generate_negative_braid_closure(2, [1, 1, 1])
        assert d.n_crossings == 3
        assert trace_components(d).n_components == 1

    def test_braid_closure_four_strands(self):
        d = generate_negative_braid_closure(4, [1, 2, 3] * 5)
        assert d.n_crossings == 15
        assert trace_components(d).n_components == 1

    def test_braid_letter_out_of_range(self):
        with pytest.raises(InvalidBraidLetter):
            generate_negative_braid_closure(2, [5])

    def test_braid_word_nonempty(self):
        with pytest.raises(InvalidBraidLetter):
            generate_negative_braid_closure(3, [])

    @pytest.mark.parametrize("n", range(11))
    def test_torus4_crossings_and_components(self, n):
        d = generate_torus4(n)
        assert validate(d).ok
        assert d.n_crossings == 3 * (2 * n + 5)
        assert trace_components(d).n_components == 1

    def test_unions(self):
        u = generate_unknot()
        assert trace_components(disjoint_union(u, u)).n_components == 2
        stacked = stacked_union(u, u, gap=2)
        assert validate(stacked).ok
        assert trace_components(stacked).n_components == 2


class TestTextFormat:
    def test_parse_unknot(self):
        assert parse("lc 1\nrc 1\n").events == generate_unknot().events

    def test_serialize_trefoil(self):
        assert serialize(generate_trefoil()) == \
            "lc 1\nlc 3\nx 2\nx 2\nx 2\nrc 3\nrc 1\n"

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nlc 1  # inline\nrc 1\n"
        assert parse(text).events == generate_unknot().events

    def test_zero_position_rejected(self):
        with pytest.raises(ParseError, match="1-based"):
            parse("x 0")

    @pytest.mark.parametrize("pos", ["+1", "1_0", "\u0661"])
    def test_positions_are_ascii_digits(self, pos):
        # int() would read these as 1, 10 and 1
        with pytest.raises(ParseError) as info:
            parse(f"lc 1\nrc 1\nlc {pos}\nrc 1\n")
        assert str(info.value) == f"line 3: bad position {pos!r}"

    def test_bad_kind_rejected(self):
        with pytest.raises(ParseError, match="kind"):
            parse("zz 1")

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse("lc 1\nrc 1\nx zero\n")

    def test_strict_mode(self):
        with pytest.raises(InvalidDiagram):
            parse("rc 1\n")

    def test_round_trip_corpus(self, corpus, fillable_small):
        for d in list(corpus.values()) + fillable_small:
            assert parse(serialize(d)).events == d.events

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 14))
    def test_round_trip_random_fillable(self, seed, length):
        d = run_script(random_script(length, seed)).diagram
        assert parse(serialize(d)).events == d.events


def reference_order(diagram):
    """The greedy far-commutation order, found the slow way: every
    remaining event tries its whole transposition chain to the front.

    Returns (diagram, hops, windows): hops[t] counts the swaps of the t-th
    emitted event, and windows[t] lists them in word order as the
    (after, before) event pairs transpose_events gives."""
    rank = {"rc": 0, "x": 1, "lc": 2}
    rest, out, hops, windows = list(diagram.events), [], [], []
    while rest:
        best = None
        for k in range(len(rest)):
            e = rest[k]
            for j in range(k - 1, -1, -1):
                swapped = transpose_events(rest[j], e)
                if swapped is None:
                    break
                e = swapped[0]
            else:
                key = (rank[e.kind], e.pos, k)
                if best is None or key < best:
                    best = key
        k = best[2]
        e = rest.pop(k)
        swaps = []
        for j in range(k - 1, -1, -1):
            before = (rest[j], e)
            e, rest[j] = transpose_events(*before)
            swaps.append(((e, rest[j]), before))
        out.append(e)
        hops.append(k)
        windows.append(tuple(swaps[::-1]))
    return FrontDiagram(out), tuple(hops), tuple(windows)


class TestFarCommutationOrder:
    def test_matches_transposition_reference(self, corpus):
        diagrams = list(corpus.values())
        diagrams += [generate_torus4(n) for n in range(4)]
        diagrams += random_fillable(60, 16, seed_base=7000)
        for d in diagrams:
            narrow, windows = far_commutation_windows(d)
            ref_narrow, ref_hops, ref_windows = reference_order(d)
            assert (narrow, windows) == (ref_narrow, ref_windows)
            assert tuple(len(w) for w in windows) == ref_hops
            assert validate(narrow).ok
            assert sorted(e.kind for e in narrow) == sorted(e.kind for e in d)
            fast, origins = far_commutation_order(d)
            assert fast == narrow
            assert tuple(hop_counts(origins)) == ref_hops
            assert [d.events[i].kind for i in origins] == \
                [e.kind for e in narrow]

    def test_torus4_width_is_constant(self):
        for n in range(8):
            d = generate_torus4(n)
            narrow, _ = far_commutation_order(d)
            assert max(d.walk.counts) == 2 * (2 * n + 5)
            assert max(narrow.walk.counts) == 10

    def test_crossings_keep_their_order_along_each_strand(self,
                                                          fillable_300):
        """Crossings on one strand never commute, so the reorder emits
        them in word order; rulings._map_back reads a strand's crossings
        off the reordered word alone."""
        diagrams = [generate_torus4(n) for n in range(15)]
        diagrams += [generate_negative_braid_closure(4, [1, 2, 3] * k)
                     for k in range(1, 5)]
        for d in diagrams + fillable_300:
            _, origins = far_commutation_order(d)
            time = {i: t for t, i in enumerate(origins)}
            slices = trace_components(d).slices
            on = {}  # strand segment -> emission times of its crossings
            for i, e in enumerate(d.events):
                if e.kind == CROSSING:
                    for strand in slices[i][e.pos - 1:e.pos + 1]:
                        on.setdefault(strand, []).append(time[i])
            for times in on.values():
                assert times == sorted(times), d

    def test_no_narrower_order(self):
        for d in (generate_trefoil(), generate_torus4(0),
                  generate_negative_braid_closure(2, [1] * 16)):
            narrow, _ = far_commutation_order(d)
            assert max(narrow.walk.counts) == max(d.walk.counts)
