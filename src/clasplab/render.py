"""Static SVG and ASCII pictures of fronts and their resolutions.

Pure presentation: output depends only on the diagram (and ruling), with
fixed layout constants and a fixed palette, so renders are byte-stable.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .diagram import CROSSING, LEFT_CUSP, FrontDiagram, trace_components

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#17becf", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22")

_X0, _DX = 24.0, 36.0
_Y0, _DY = 18.0, 26.0


def _color(i: int) -> str:
    return PALETTE[i % len(PALETTE)]


def ascii_render(diagram: FrontDiagram) -> str:
    """Character grid of the front, one column per event.

    ``<`` and ``>`` mark the two slots of a cusp, ``x`` the two slots of
    a crossing, ``-`` a strand passing through.
    """
    counts = diagram.walk.counts
    height = max(counts, default=0)
    if height == 0:
        return "(empty diagram)\n"
    rows = {h: [] for h in range(1, height + 1)}
    for i, e in enumerate(diagram.events):
        before, after = counts[i], counts[i + 1]
        for h in range(1, height + 1):
            if e.pos <= h <= e.pos + 1:
                mark = {LEFT_CUSP: "<", CROSSING: "x"}.get(e.kind, ">")
                cell = mark
            else:
                alive = after if e.kind == LEFT_CUSP else before
                cell = "-" if h <= alive else " "
            run = "-" if h <= after else " "
            rows[h].append(cell + run * 2)
    lines = ["".join(rows[h]).rstrip() for h in range(height, 0, -1)]
    return "\n".join(lines) + "\n"


def _paths_from_slices(slices) -> dict:
    """Map strand key -> list of (slice index, height) while alive."""
    paths: dict = {}
    for j, slice_ in enumerate(slices):
        for height, key in enumerate(slice_, start=1):
            paths.setdefault(key, []).append((j, height))
    return paths


def _xy(j: int, h: int, height: int) -> tuple:
    return (_X0 + _DX * j, _Y0 + _DY * (height - h))


def _polyline(points, color: str, dashed: bool = False) -> str:
    attrs = f'stroke="{color}" stroke-width="2" fill="none"'
    if dashed:
        attrs += ' stroke-dasharray="4 3"'
    coords = " ".join(f"{px:.1f},{py:.1f}" for px, py in points)
    return f'<polyline points="{coords}" {attrs}/>'


def _cusp_arc(lo, hi, left: bool, color: str) -> str:
    bulge = -0.55 * _DX if left else 0.55 * _DX
    cx = lo[0] + bulge
    cy = (lo[1] + hi[1]) / 2.0
    return (f'<path d="M {lo[0]:.1f} {lo[1]:.1f} Q {cx:.1f} {cy:.1f} '
            f'{hi[0]:.1f} {hi[1]:.1f}" stroke="{color}" stroke-width="2" '
            f'fill="none"/>')


def svg_render(diagram: FrontDiagram, ruling: Optional[Iterable] = None) -> str:
    """Draw the front; with a ruling, draw its resolution instead.

    Resolution strands are colored per eye, switch touch-points get a
    tick, and each clasp's interleaved interval is marked with a dashed
    vertical segment.
    """
    counts = diagram.walk.counts
    height = max(counts, default=0)
    n_slices = len(diagram) + 1
    width = _X0 * 2 + _DX * max(n_slices - 1, 1)
    total_h = _Y0 * 2 + _DY * max(height - 1, 1)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width:.0f}" height="{total_h:.0f}" '
             f'viewBox="0 0 {width:.0f} {total_h:.0f}">']

    marks = []
    if ruling is None:
        trace = trace_components(diagram)
        slices = trace.slices
        paths = _paths_from_slices(slices)
        color_of = {key: _color(trace.component_of_strand[key])
                    for key in paths}
    else:
        # only a ruling needs clasps, so plain fronts do not load it
        from .clasps import resolve
        res = resolve(diagram, ruling)
        slices = res.slices
        paths = _paths_from_slices(slices)
        color_of = {key: _color(key[0]) for key in paths}
        for r in res.records:
            if r.switch:
                px = _X0 + _DX * (r.event_index - 0.5)
                p = diagram.events[r.event_index - 1].pos
                lo = _xy(0, p, height)[1]
                hi = _xy(0, p + 1, height)[1]
                marks.append(f'<line x1="{px:.1f}" y1="{hi:.1f}" '
                             f'x2="{px:.1f}" y2="{lo:.1f}" stroke="#444" '
                             f'stroke-width="1" stroke-dasharray="2 2"/>')
        for a, b, enter, leave in sorted(res.clasps):
            j = (enter + leave - 1) // 2
            heights = [h for h, key in enumerate(slices[j], start=1)
                       if key[0] in (a, b)]
            px = _X0 + _DX * j
            y_lo = _xy(j, min(heights), height)[1]
            y_hi = _xy(j, max(heights), height)[1]
            marks.append(f'<line x1="{px:.1f}" y1="{y_hi:.1f}" '
                         f'x2="{px:.1f}" y2="{y_lo:.1f}" stroke="#c00" '
                         f'stroke-width="1.5" stroke-dasharray="5 3"/>')

    # each cusp's two strands, read off the slice where they are alive
    births, deaths = {}, {}
    for i, e in enumerate(diagram.events, start=1):
        if e.kind == LEFT_CUSP:
            births[slices[i][e.pos - 1], slices[i][e.pos]] = (i, e.pos)
        elif e.kind != CROSSING:
            deaths[slices[i - 1][e.pos - 1], slices[i - 1][e.pos]] = (i, e.pos)

    for key in sorted(paths):
        pts = [_xy(j, h, height) for j, h in paths[key]]
        parts.append(_polyline(pts, color_of[key]))
    for (lo_key, hi_key), (i, p) in sorted(births.items()):
        lo = _xy(i, p, height)
        hi = _xy(i, p + 1, height)
        parts.append(_cusp_arc(lo, hi, True, color_of[lo_key]))
    for (lo_key, hi_key), (i, p) in sorted(deaths.items()):
        lo = _xy(i - 1, p, height)
        hi = _xy(i - 1, p + 1, height)
        parts.append(_cusp_arc(lo, hi, False, color_of[lo_key]))
    parts.extend(marks)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
