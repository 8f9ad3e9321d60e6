"""Normal ruling decision procedure and enumeration."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from clasplab import (BudgetExceeded, ClaspState, FrontDiagram, InvalidRuling,
                      TransportFailure, apply_move, clasp_report,
                      enumerate_applicable_moves, enumerate_rulings,
                      generate_negative_braid_closure, generate_torus4,
                      generate_trefoil, generate_unknot, is_normal_ruling, lc,
                      obstruction_verdict, rc, resolve, ruling_reports, scan,
                      switch_flags, switches_of, x)
from clasplab import clasps, rulings
from clasplab import diagram as diagram_mod
from clasplab.diagram import CROSSING, Event, far_commutation_order
from clasplab.fillability import random_script, run_script
from clasplab.rulings import (PairingState, _map_back, _switch_ok,
                              _transfer, window_matches)
from conftest import (as_columns, as_rows, backtrack_rulings,
                      brute_force_rulings, far_commutation_windows,
                      hop_counts, match_swap, partition, reference_enumerate,
                      retrace, ruling_sort_key, slice_normality,
                      small_corpus, stacked_union, step)


def state_at(diagram, switches, event_index):
    """Pairing key after the first ``event_index`` events, which must
    scan."""
    keys, _, _ = scan(diagram.events, switch_flags(diagram, switches))
    assert len(keys) > event_index
    return keys[event_index]


def switch_fail(key, event):
    """The reason a switch at ``event`` fails from ``key``, or None."""
    fail = scan((event,), (True,), key=key)[2]
    return fail and fail[1]


class TestSwitchAllowed:
    def test_disjoint_eyes_allow_switch(self):
        # two stacked eyes, crossing slots (2,3): mates at 1 and 4
        key = state_at(generate_trefoil(), frozenset(), 2)
        assert partition(key) == ((1, 2), (3, 4))
        assert _switch_ok(key[2], key[3], 2)
        assert switch_fail(key, x(2)) is None

    def test_interleaved_eyes_forbid_switch(self):
        # after one unswitched crossing the trefoil eyes interleave
        key = state_at(generate_trefoil(), frozenset(), 3)
        assert partition(key) == ((1, 3), (2, 4))
        assert not _switch_ok(key[2], key[3], 2)
        assert switch_fail(key, x(2)) == \
            "normality violated: eyes interleave at switch"

    def test_same_eye_raises(self):
        key = state_at(generate_unknot(), frozenset(), 1)
        assert key[1] == 2  # slot 1's mate is slot 2
        assert switch_fail(key, x(1)) == \
            "switch between two strands of one eye"

    def test_nested_eyes_allow_switch(self):
        d = FrontDiagram([lc(1), lc(2), x(1), rc(2), rc(1)])
        key = state_at(d, frozenset(), 2)
        assert partition(key) == ((1, 4), (2, 3))
        assert _switch_ok(key[1], key[2], 1)


class TestScanKernel:
    def test_flags_round_trip(self, corpus):
        for d in corpus.values():
            for r in enumerate_rulings(d):
                flags = switch_flags(d, r)
                assert len(flags) == len(d)
                assert switches_of(d, flags) == r
                assert switch_flags(d, iter(r)) == flags

    def test_flags_reject_out_of_range_ordinals(self):
        with pytest.raises(InvalidRuling, match="outside 1..3"):
            switch_flags(generate_trefoil(), {4})
        with pytest.raises(InvalidRuling):
            switch_flags(generate_trefoil(), {0})

    @pytest.mark.parametrize("check", [
        lambda d: clasp_report(d, {1, 1.5}),
        lambda d: apply_move(d, enumerate_applicable_moves(d)[0])[1]({1, 2.5}),
        lambda d: is_normal_ruling(d, {True}),
        lambda d: is_normal_ruling(d, ["1"]),
        lambda d: resolve(d, {1.0}),
        lambda d: clasp_report(d, [[1]]),
        lambda d: clasp_report(d, [{1}]),
    ], ids=["report_float", "transport_float", "check_bool", "check_str",
            "resolve_float", "report_list", "report_set"])
    def test_flags_reject_ordinals_that_are_not_ints(self, check):
        with pytest.raises(InvalidRuling, match="is not an int"):
            check(generate_trefoil())

    def test_keys_are_the_prefix_scans_last_keys(self, corpus,
                                                 fillable_small):
        """keys[i] is where a scan of the first i events ends, and a
        failing scan lists the keys up to the event that fails."""
        failures = 0
        for d in list(corpus.values()) + fillable_small:
            c = d.n_crossings
            for r in enumerate_rulings(d)[:4] + [range(1, c + 1),
                                                 range(1, c + 1, 2)]:
                flags = switch_flags(d, r)
                for cls in (PairingState, ClaspState):
                    keys, _, fail = scan(d.events, flags, cls)
                    assert len(keys) == (len(d) + 1 if fail is None
                                         else fail[0])
                    failures += fail is not None
                    for i, key in enumerate(keys):
                        assert key == scan(d.events[:i], flags[:i], cls)[0][-1]
        assert failures > 20

    def test_failure_index_is_one_based(self):
        d = generate_trefoil()
        _, _, fail = scan(d.events, switch_flags(d, {2}))
        assert fail == (4, "normality violated: eyes interleave at switch")
        check = is_normal_ruling(d, {2})
        assert (check.event_index, check.reason) == fail

    @pytest.mark.parametrize("cls", [PairingState, ClaspState])
    def test_switch_flag_on_a_cusp_is_named(self, cls):
        unknot = generate_unknot().events
        assert scan(unknot, [True, False], cls)[2] == \
            (1, "switch flag on a left cusp")
        assert scan(unknot, [False, True], cls)[2] == \
            (2, "switch flag on a right cusp")
        # a right cusp of two eyes, unflagged, keeps its own reason
        two_eyes = cls.start
        for e in (lc(1), lc(3)):
            two_eyes = scan((e,), (False,), cls, two_eyes)[0][-1]
        assert scan((rc(2),), (False,), cls, two_eyes)[2] == \
            (1, "right cusp joins strands of two different eyes")
        d = generate_trefoil()
        assert scan(d.events, [True] * len(d), cls)[2] == \
            (1, "switch flag on a left cusp")

    def test_resumes_from_a_given_state(self, corpus):
        for d in corpus.values():
            for r in enumerate_rulings(d):
                flags = switch_flags(d, r)
                half = len(d) // 2
                keys, _, fail = scan(d.events[:half], flags[:half])
                assert fail is None
                resumed, _, fail = scan(d.events[half:], flags[half:],
                                        key=keys[-1])
                assert fail is None and resumed[-1] == PairingState.start


class TestIsNormalRuling:
    def test_trefoil_singleton(self):
        assert is_normal_ruling(generate_trefoil(), {1}).ok

    def test_trefoil_middle_crossing_fails(self):
        check = is_normal_ruling(generate_trefoil(), {2})
        assert not check.ok
        assert check.event_index is not None

    def test_unknot_empty(self):
        assert is_normal_ruling(generate_unknot(), set()).ok

    def test_every_enumerated_ruling_passes(self, corpus):
        for d in corpus.values():
            for r in enumerate_rulings(d):
                assert is_normal_ruling(d, r).ok

    def test_equals_the_slice_oracle(self, corpus, fillable_300):
        """Every switch set of every diagram with at most 12 crossings
        gets the verdict, reason and event of conftest.slice_normality,
        which reads strand labels, not mates."""
        reasons = set()
        for d in list(corpus.values()) + fillable_300:
            c = d.n_crossings
            if c > 12:
                continue
            for size in range(c + 1):
                for switches in combinations(range(1, c + 1), size):
                    want = slice_normality(d, switches)
                    assert tuple(is_normal_ruling(d, switches)) == want
                    reasons.add(want[1])
        assert len(reasons) == 5  # each failure, and None


class TestEnumerate:
    def test_trefoil(self):
        rulings = enumerate_rulings(generate_trefoil())
        assert [sorted(r) for r in rulings] == [[1], [3], [1, 2, 3]]

    def test_unknot(self):
        assert enumerate_rulings(generate_unknot()) == [frozenset()]

    def test_two_component_unlink(self):
        d = FrontDiagram([lc(1), rc(1), lc(1), rc(1)])
        assert enumerate_rulings(d) == [frozenset()]

    def test_matches_brute_force_on_corpus(self, corpus, fillable_small):
        for d in list(corpus.values()) + fillable_small:
            if d.n_crossings <= 12:
                assert enumerate_rulings(d) == brute_force_rulings(d)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_rulings(generate_trefoil(), budget=3)

    def test_disjoint_union_multiplies(self, corpus):
        trefoil = generate_trefoil()
        for name in ("unknot", "trefoil", "nested_trefoil"):
            other = corpus[name]
            union = stacked_union(trefoil, other, gap=3)
            assert len(enumerate_rulings(union)) == \
                3 * len(enumerate_rulings(other))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 12))
    def test_enumeration_equals_brute_force(self, seed, length):
        d = run_script(random_script(length, seed)).diagram
        if d.n_crossings <= 10:
            assert enumerate_rulings(d) == brute_force_rulings(d)


def is_narrower(d):
    narrow, _ = far_commutation_order(d)
    return max(narrow.walk.counts) < max(d.walk.counts)


class TestReorderedEnumeration:
    """enumerate_rulings searches a narrower reordering of the word when
    there is one; every ruling must come back in the caller's ordinals."""

    def test_inputs_exercise_the_reordered_path(self, fillable_300):
        assert sum(map(is_narrower, fillable_300)) > 100
        assert all(is_narrower(d) for d in fillable_300[-3:])

    def test_matches_brute_force(self, corpus, fillable_300):
        for d in list(corpus.values()) + fillable_300:
            if d.n_crossings <= 12:
                assert enumerate_rulings(d) == brute_force_rulings(d)

    def test_matches_search_on_the_original_word(self, fillable_300):
        for d in fillable_300:
            seed_order = sorted((frozenset(r)
                                 for r, _ in backtrack_rulings(d)),
                                key=ruling_sort_key)
            assert enumerate_rulings(d) == seed_order

    def test_lone_switch_passes_to_the_other_crossing(self):
        d = run_script(random_script(15, 139)).diagram
        assert enumerate_rulings(d) == [frozenset({9})]

    def test_lone_switch_trades_by_rule(self):
        """_map_back trades the flags of two swapped crossings that carry
        both mates' strands, without a boundary match.  All 8 local cases
        on four slots: the moving crossing below or above, the lone switch
        on it or on the other one, and its strands mated straight or
        across.  A window either does not scan (the switch sits between
        interleaved eyes, which a normal ruling never has) or matches
        only the traded flags: the switch stays at the first crossing."""
        outcomes = []
        for pm, po in ((1, 3), (3, 1)):
            for across in (False, True):
                m = [0] * 5
                for s, u in zip((pm, pm + 1),
                                (po + across, po + 1 - across)):
                    m[s], m[u] = u, s
                old = (x(pm), x(po))
                for old_flags in ((True, False), (False, True)):
                    matches = match_swap(tuple(m), old, old_flags, old[::-1])
                    assert matches in (None, [list(old_flags)])
                    outcomes.append(matches is None)
        assert len(outcomes) == 8 and sum(outcomes) == 4

    @pytest.mark.parametrize("k", range(6, 19))
    def test_braid2_fibonacci_counts(self, k):
        fib = [1, 1]
        while len(fib) <= k:
            fib.append(fib[-1] + fib[-2])
        d = generate_negative_braid_closure(2, [1] * k)
        assert len(enumerate_rulings(d)) == fib[k]  # F(k+1), F(1) = F(2) = 1

    @pytest.mark.parametrize("n", range(11))
    def test_torus4_unique_odd_ruling(self, n):
        d = generate_torus4(n)
        rulings = enumerate_rulings(d)
        assert len(rulings) == 1
        assert is_normal_ruling(d, rulings[0]).ok
        assert clasp_report(d, rulings[0]).total == 2 * n + 5
        verdict = obstruction_verdict(d)
        assert verdict.obstructed
        assert verdict.evidence[0].switches == tuple(sorted(rulings[0]))

    def test_a_mapped_back_ruling_that_does_not_scan_raises(self,
                                                            monkeypatch):
        """The clasp count of a ruling found on the reordered word is a
        rescan of the caller's word; a mapped-back ruling that fails it
        is an error, not a listing with the tallies of a prefix."""
        d = generate_torus4(1)
        assert is_narrower(d)

        def corrupted(narrow, origins, ruling):
            flags = _map_back(narrow, origins, ruling)
            flags[flags.index(True)] = False
            return flags

        monkeypatch.setattr(rulings, "_map_back", corrupted)
        with pytest.raises(TransportFailure, match="mapped back to the "
                           "original word fails at event"):
            ruling_reports(d)

    def test_eye_ids_fix_the_mates(self, fillable_300):
        """A ClaspState key keeps no mates: at every key a scan passes,
        the mates read off its eye ids are PairingState's key at the same
        index, and a failing scan stops at the same event.  So both
        classes key the same states, and the transfer scan runs out of
        budget at the same step count.  The budget is checked on the word
        as given and on its reordering when that is narrower, except for
        torus4(3) and torus4(4) as given, whose scans take seconds."""
        def mates(key):
            slots: dict = {}
            for q, eye in enumerate(key[0][1:], start=1):
                slots.setdefault(eye, []).append(q)
            m = [0] * len(key[0])
            for a, b in slots.values():
                m[a], m[b] = b, a
            return tuple(m)

        def outcome(d, budget, cls):
            return budget_outcome(lambda w, budget: _transfer(w, budget, cls),
                                  d, budget)

        torus = [generate_torus4(n) for n in range(5)]
        words = (list(small_corpus().values()) + torus + fillable_300
                 + [generate_negative_braid_closure(2, [1] * k)
                    for k in range(1, 13)]
                 + [generate_negative_braid_closure(4, [1, 2, 3] * k)
                    for k in range(1, 5)])
        failures = 0
        for d in words:
            c = d.n_crossings
            for r in enumerate_rulings(d)[:50] + [range(1, c + 1),
                                                  range(1, c + 1, 2)]:
                flags = switch_flags(d, r)
                keys, _, fail = scan(d.events, flags)
                counted, _, counted_fail = scan(d.events, flags, ClaspState)
                assert list(map(mates, counted)) == keys
                assert counted_fail == fail
                failures += fail is not None
            scanned = [] if d in torus[3:] else [d]
            if is_narrower(d):
                scanned.append(far_commutation_order(d)[0])
            for w in scanned:
                steps = []
                backtrack_rulings(w, steps=steps)
                assert outcome(w, steps[0], ClaspState) is None
                for b in range(steps[0] - 1, -1, -max(steps[0] // 3, 1)):
                    assert outcome(w, b, ClaspState) == b + 1
                    assert outcome(w, b, PairingState) == b + 1
        assert failures > 100

    def test_budget_counts_steps_on_the_searched_word(self):
        d = generate_torus4(3)
        steps = 387  # DFS steps on the narrow word; the original needs 144,678
        assert len(enumerate_rulings(d, budget=steps)) == 1
        with pytest.raises(BudgetExceeded):
            enumerate_rulings(d, budget=steps - 1)


def by_size(rows) -> list:
    """Rows in backtracking order, stably sorted by switch count: the
    order the transfer scan lists."""
    return sorted(rows, key=lambda row: len(row[0]))


def budget_outcome(fn, d, budget):
    try:
        fn(d, budget=budget)
    except BudgetExceeded as exc:
        return exc.nodes
    return None


_KERNEL_FAMILIES = {
    "corpus": lambda: list(small_corpus().values()),
    "braid2": lambda: [generate_negative_braid_closure(2, [1] * k)
                       for k in range(1, 19)],
    "braid4": lambda: [generate_negative_braid_closure(4, [1, 2, 3] * k)
                       for k in range(1, 5)],
    "torus4": lambda: [generate_torus4(n) for n in range(7)],
}


class TestTransferScan:
    """The transfer scan lists what backtracking over the switch choices
    lists (conftest.backtrack_rulings), with the same clasp reports and
    the same budget outcome at the backtracking step count and one below."""

    def _check(self, d, monkeypatch):
        steps = []

        def backtrack(word, budget, cls=PairingState):
            return as_columns(by_size(backtrack_rulings(word, budget, cls,
                                                        steps)))

        with monkeypatch.context() as patched:
            patched.setattr(rulings, "_transfer", backtrack)
            rows = ruling_reports(d)
            threshold = steps[0]
            budgets = [threshold] + ([threshold - 1] if threshold else [])
            want = {b: budget_outcome(ruling_reports, d, b) for b in budgets}
        assert want[threshold] is None
        assert want.get(threshold - 1, threshold) == threshold
        got = ruling_reports(d)
        assert got == rows
        # rulings with equal counts share one report
        assert len({id(r) for _, r in got}) == len({r for _, r in got})
        assert enumerate_rulings(d) == [r for r, _ in rows]
        for b, outcome in want.items():
            assert budget_outcome(ruling_reports, d, b) == outcome
            assert budget_outcome(enumerate_rulings, d, b) == outcome

    @pytest.mark.parametrize("family", sorted(_KERNEL_FAMILIES))
    def test_equals_backtracking(self, family, monkeypatch):
        for d in _KERNEL_FAMILIES[family]():
            self._check(d, monkeypatch)

    def test_equals_backtracking_on_fillables(self, fillable_300,
                                              monkeypatch):
        for d in fillable_300:
            self._check(d, monkeypatch)

    def test_equals_backtracking_on_the_word_as_given(self, fillable_300):
        for d in fillable_300[:100]:
            for cls in (PairingState, ClaspState):
                want = backtrack_rulings(d, None, cls)
                got = as_rows(_transfer(d, None, cls))
                for switches, _ in got:
                    assert type(switches) is tuple
                    assert all(a < b for a, b in zip(switches, switches[1:]))
                assert sorted(got, key=lambda row: ruling_sort_key(row[0])) \
                    == sorted(want, key=lambda row: ruling_sort_key(row[0]))

    def test_lists_in_final_order(self, fillable_300):
        """By size, then lexicographic, with no sort after the scan: the
        order of backtracking (switch first at each crossing) stably
        sorted by switch count.  The wide torus4 words are scanned as
        given up to torus4(2), and all of them as _enumerate scans them,
        reordered.  Each fold is listed once, so rulings with equal
        tallies have one fold id."""
        words = [d for family, make in _KERNEL_FAMILIES.items()
                 if family != "torus4" for d in make()]
        torus = _KERNEL_FAMILIES["torus4"]()
        words += torus[:3] + [far_commutation_order(d)[0] for d in torus]
        for d in words + fillable_300:
            for cls in (PairingState, ClaspState):
                columns = _transfer(d, None, cls)
                assert as_rows(columns) == \
                    by_size(backtrack_rulings(d, None, cls))
                folds = columns[2]
                assert len(set(folds)) == len(folds)

    def test_long_word_lists_without_deep_recursion(self):
        # 1,500 disjoint unknots: 3,000 events, one ruling
        d = FrontDiagram(generate_unknot().events * 1500)
        assert _transfer(d, None) == ([()], [0], [()])
        assert _transfer(d, None, ClaspState) == ([()], [0], [()])

    def test_budget_raised_before_listing(self):
        d = generate_negative_braid_closure(2, [1] * 40)
        with pytest.raises(BudgetExceeded) as info:
            _transfer(d, 20_000)
        assert info.value.nodes == 20_001


def retrace_matching_every_swap(narrow, windows, ruling, passed):
    """retrace without its shared-eye test: boundary matching runs at
    every two-crossing swap whose flags differ, and ``passed`` receives
    per match whether the lone switch passed to the other crossing."""
    flags = switch_flags(narrow, ruling)
    keys = scan(narrow.events, flags)[0]
    for t in reversed([t for t, swaps in enumerate(windows) if swaps]):
        key = keys[t]
        for i, ((first, second), old) in enumerate(windows[t], start=t):
            f1, f2 = flags[i], flags[i + 1]
            if f1 != f2 and first.kind == CROSSING == second.kind:
                matches = match_swap(key, (first, second), (f1, f2), old)
                if matches is None or len(matches) != 1:
                    raise TransportFailure("no unique match")
                passed.append(matches[0] == [f1, f2])
                f2, f1 = matches[0]
            flags[i], flags[i + 1] = f2, f1
            key = step(key, old[0], f2)
    return flags


class TestRetrace:
    def test_equals_matching_every_swap(self, fillable_300, monkeypatch):
        calls, passed = [], []

        def counted(*args):
            calls.append(args)
            return window_matches(*args)

        monkeypatch.setattr(rulings, "window_matches", counted)
        checked = 0
        for d in fillable_300 + [generate_torus4(n) for n in range(8)]:
            narrow, windows = far_commutation_windows(d)
            fast, origins = far_commutation_order(d)
            assert fast == narrow
            for ruling in _transfer(narrow, None)[0]:
                flags = retrace(narrow, windows, ruling)
                assert flags == \
                    retrace_matching_every_swap(narrow, windows, ruling,
                                                passed)
                assert _map_back(narrow, origins, ruling) == flags
                checked += 1
        assert checked > 300
        # _map_back trades a lone switch by rule, never by a match, and
        # the sweep holds swaps where the lone switch passes
        assert calls == [] and any(passed)


@pytest.mark.parametrize("d", [
    generate_negative_braid_closure(2, [1] * 16), generate_trefoil()],
    ids=["braid2_16", "trefoil"])
def test_reorder_stops_once_no_narrower(d, monkeypatch):
    """_enumerate stops the reorder as soon as the emitted prefix is as
    wide as the caller's word, and then scans the caller's word."""
    width = max(d.walk.counts)
    assert max(far_commutation_order(d)[0].walk.counts) == width
    emitted = []

    def counted(kind, pos):
        emitted.append(kind)
        return Event(kind, pos)

    with monkeypatch.context() as patched:
        patched.setattr(diagram_mod, "Event", counted)
        assert far_commutation_order(d, width) is None
    assert 0 < len(emitted) < len(d)
    steps = []
    listed = backtrack_rulings(d, steps=steps)
    assert enumerate_rulings(d) == sorted((frozenset(r) for r, _ in listed),
                                          key=ruling_sort_key)
    for budget in (steps[0], steps[0] - 1):
        assert budget_outcome(enumerate_rulings, d, budget) == \
            (None if budget == steps[0] else budget + 1)


_SWEEP = {
    "corpus": lambda: list(small_corpus().values()),
    "braid2": lambda: [generate_negative_braid_closure(2, [1] * k)
                       for k in range(1, 19)],
    "braid4": lambda: [generate_negative_braid_closure(4, [1, 2, 3] * k)
                       for k in range(1, 5)],
    "torus4": lambda: [generate_torus4(n) for n in range(41)],
    "fillable": lambda: [run_script(random_script(1 + s % 25, s)).diagram
                         for s in range(3000)],
}


@pytest.mark.parametrize("family", sorted(_SWEEP))
def test_equals_the_slow_paths(family, monkeypatch):
    """The ready-set reorder and the permutation mapping back give what
    the rescanning reorder and the swap-by-swap retrace give: the same
    narrow word, hop counts, flags, listings, verdicts and budget
    outcomes."""
    def reference_outcomes(d, threshold, reordered):
        def slow(diagram, budget, cls=PairingState):
            return reference_enumerate(diagram, budget, cls, reordered)

        with monkeypatch.context() as patched:
            patched.setattr(rulings, "_enumerate", slow)
            patched.setattr(clasps, "_enumerate", slow)
            return outcomes(d, threshold)

    def outcomes(d, threshold):
        budgets = (threshold, threshold - 1) if threshold else (0,)
        return (enumerate_rulings(d), obstruction_verdict(d),
                [budget_outcome(ruling_reports, d, b) for b in budgets])

    narrowed = 0
    for d in _SWEEP[family]():
        narrow, windows = far_commutation_windows(d)
        fast, origins = far_commutation_order(d)
        assert fast == narrow
        assert hop_counts(origins) == [len(w) for w in windows]
        searched = d
        if max(narrow.walk.counts) < max(d.walk.counts):
            narrowed += 1
            searched = narrow
            for ruling in _transfer(narrow, None)[0]:
                assert _map_back(narrow, origins, ruling) == \
                    retrace(narrow, windows, ruling)
        steps = []
        backtrack_rulings(searched, steps=steps)
        assert outcomes(d, steps[0]) == \
            reference_outcomes(d, steps[0], (narrow, windows))
    assert narrowed or family in ("braid2", "braid4", "corpus")
