"""Rendering is pure presentation: deterministic, side-effect free."""

from clasplab import (ascii_render, clasp_report, enumerate_rulings,
                      generate_torus4, generate_trefoil, generate_unknot,
                      svg_render)


def test_ascii_unknot():
    art = ascii_render(generate_unknot())
    assert art.splitlines() == ["<-->", "<-->"]


def test_ascii_marks_crossings():
    art = ascii_render(generate_trefoil())
    assert art.count("x") == 6  # three crossings, two rows each


def test_svg_is_deterministic():
    d = generate_trefoil()
    assert svg_render(d) == svg_render(d)
    assert svg_render(d, {1}) == svg_render(d, {1})


def test_svg_well_formed():
    s = svg_render(generate_trefoil(), {1})
    assert s.startswith("<svg ") and s.rstrip().endswith("</svg>")
    assert s.count("<polyline") == 4  # two eyes, two strands each


def test_svg_marks_clasps_and_switches(corpus, fillable_small):
    d = generate_torus4(0)
    (ruling,) = enumerate_rulings(d)
    s = svg_render(d, ruling)
    assert s.count('stroke="#c00"') == 5  # one dashed mark per clasp
    for d in list(corpus.values()) + fillable_small:
        for r in enumerate_rulings(d):
            assert svg_render(d, r).count('stroke="#c00"') == \
                clasp_report(d, r).total


def test_render_does_not_mutate(corpus):
    for d in corpus.values():
        events = d.events
        ascii_render(d)
        svg_render(d)
        assert d.events == events
