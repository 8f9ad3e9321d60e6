"""Acceptance suite: one test per release criterion, one line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import time

import pytest

from clasplab import (apply_move, clasp_report, cobordism_parity_check,
                      enumerate_applicable_moves, enumerate_rulings,
                      generate_torus4, generate_trefoil, generate_unknot,
                      obstruction_verdict, parse, random_script, resolve,
                      ruling_reports, run_script, search_filling, serialize)
from clasplab.cli import main

from conftest import (brute_force_rulings, brute_pair_clasps, clasp_intervals,
                      random_fillable, ruling_sort_key, small_corpus)


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS  ({detail})")


def test_criterion_1_trefoil_fixture():
    start = time.monotonic()
    d = generate_trefoil()
    rulings = enumerate_rulings(d)
    assert [sorted(r) for r in rulings] == [[1], [3], [1, 2, 3]]
    totals = {tuple(sorted(r)): clasp_report(d, r).total for r in rulings}
    assert totals == {(1,): 1, (3,): 1, (1, 2, 3): 0}
    parities = sorted(clasp_report(d, r).parity for r in rulings)
    assert parities == ["even", "odd", "odd"]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("1 (trefoil fixture)",
           f"rulings {{1}},{{3}},{{1,2,3}}; clasps 1,1,0; {elapsed:.2f}s")


@pytest.mark.parametrize("n", [0, 1, 2])
def test_criterion_2_torus_family(n):
    start = time.monotonic()
    d = generate_torus4(n)
    rulings = enumerate_rulings(d)
    detail = (f"n={n}: {len(rulings)} ruling(s), "
              f"clasps {[clasp_report(d, r).total for r in rulings]}")
    assert len(rulings) == 1, \
        f"representative mismatch: expected a unique normal ruling, {detail}"
    total = clasp_report(d, rulings[0]).total
    assert total == 2 * n + 5, \
        f"representative mismatch: expected {2 * n + 5} clasps, {detail}"
    assert obstruction_verdict(d).obstructed
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("2 (torus family)",
           f"n={n}: 1 ruling, {total} clasps, obstructed; {elapsed:.2f}s")


def test_criterion_3_even_certificates():
    start = time.monotonic()
    for seed in range(1000):
        length = 1 + seed % 25
        certificate = run_script(random_script(length, seed))
        assert certificate.report.parity == "even", \
            f"odd certificate at seed {seed}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report("3 (even certificates)",
           f"1000 scripts, zero odd totals; {elapsed:.1f}s")


def test_criterion_4_invariance_suite():
    start = time.monotonic()
    diagrams = [generate_unknot(), generate_trefoil(), generate_torus4(0)]
    diagrams += random_fillable(100, 8, seed_base=4000)
    checked = 0
    for d in diagrams:
        src = enumerate_rulings(d)
        src_parities = sorted(clasp_report(d, r).parity for r in src)
        for move in enumerate_applicable_moves(d):
            if move.kind in ("h0", "h1"):
                continue
            target, transport = apply_move(d, move)
            images = [transport(r) for r in src]
            assert len(set(images)) == len(images), (move, "not injective")
            assert sorted(images, key=ruling_sort_key) == \
                enumerate_rulings(target), (move, "not onto")
            assert sorted(clasp_report(target, r).parity
                          for r in images) == src_parities, \
                (move, "parity multiset changed")
            checked += 1
    elapsed = time.monotonic() - start
    report("4 (move invariance)",
           f"{len(diagrams)} diagrams, {checked} isotopy moves, "
           f"zero exceptions; {elapsed:.1f}s")


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    enum_checked = 0
    for d in small_corpus().values():
        if d.n_crossings <= 12:
            assert enumerate_rulings(d) == brute_force_rulings(d)
            enum_checked += 1
    # Random certificates have no clasps, so every ruling of the corpus
    # rides along, and at least one clasp must be compared.
    cases = [(d, r) for d in small_corpus().values()
             for r, _ in ruling_reports(d)]
    for k in range(500):
        certificate = run_script(random_script(1 + k % 20, 9000 + k))
        cases.append((certificate.diagram, certificate.ruling))
    clasp_checked = clasps_compared = 0
    for d, ruling in cases:
        res = resolve(d, ruling)
        for a in range(res.n_eyes):
            for b in range(a + 1, res.n_eyes):
                n = len(clasp_intervals(res, a, b))
                assert n == brute_pair_clasps(d, ruling, a, b)
                assert sum(c[:2] == (a, b) for c in res.clasps) == n
                clasp_checked += 1
                clasps_compared += n
    assert clasps_compared > 0
    elapsed = time.monotonic() - start
    report("5 (oracle equivalence)",
           f"{enum_checked} enumerations vs 2^c filter, {clasp_checked} "
           f"pair scans ({clasps_compared} clasps) vs slice oracle, zero "
           f"mismatches; {elapsed:.1f}s")


def test_criterion_6_verdicts():
    trefoil = obstruction_verdict(generate_trefoil())
    assert not trefoil.obstructed and trefoil.witness == (1, 2, 3)
    unknot = obstruction_verdict(generate_unknot())
    assert not unknot.obstructed
    torus = obstruction_verdict(generate_torus4(0))
    assert torus.obstructed
    assert search_filling(generate_torus4(0)).status == "pruned"
    pair = cobordism_parity_check(generate_torus4(0), generate_torus4(1))
    assert pair.status == "compatible"
    assert pair.lower.parity == "odd" and pair.upper.parity == "odd"
    report("6 (verdicts)",
           "trefoil/unknot unobstructed, torus obstructed+pruned, "
           "torus pair compatible")


def test_criterion_7_round_trip_and_determinism(capsys, tmp_path):
    for d in list(small_corpus().values()) + random_fillable(50, 10,
                                                             seed_base=7000):
        assert parse(serialize(d)).events == d.events
    runs = []
    for _ in range(2):
        code = main(["obstruct", "--generate", "torus4", "--n", "0"])
        assert code == 0
        runs.append(capsys.readouterr().out.encode())
    assert runs[0] == runs[1]
    report("7 (round trip + determinism)",
           "corpus round-trips; identical invocations byte-identical")
