#!/usr/bin/env python3
"""Clasps of a ruling's resolution, and the parity invariant.

For each pair of eyes, a clasp is an interval where the eyes interleave,
entered and left by the same pair of strands: they cross and cross back.
The parity of the total clasp count is invariant under every front
isotopy move, which is what makes it usable as an obstruction.
"""
from clasplab import (clasp_report, enumerate_rulings, generate_trefoil,
                      generate_torus4, resolve)

trefoil = generate_trefoil()
print("Trefoil rulings and their clasp counts:")
for ruling in enumerate_rulings(trefoil):
    report = clasp_report(trefoil, ruling)
    print(f"    switches {sorted(ruling)}: total {report.total} "
          f"({report.parity})")

print()
print("Pair-by-pair view for switches {1}:")
res = resolve(trefoil, {1})
for rec in res.records:
    role = "switch" if rec.switch else "cross"
    print(f"    crossing {rec.ordinal}: eyes {rec.eye_a}/{rec.eye_b} "
          f"strands {rec.strand_a}/{rec.strand_b} ({role})")
for eye_a, eye_b, enter, leave in res.clasps:
    print(f"    clasp between eyes {eye_a} and {eye_b}: interleaved from "
          f"event {enter} to event {leave}")

print()
print("The 4-strand negative torus family: one ruling, odd clasp totals")
for n in (0, 1, 2):
    d = generate_torus4(n)
    (ruling,) = enumerate_rulings(d)
    report = clasp_report(d, ruling)
    print(f"    n={n}: {d.n_crossings} crossings, unique ruling has "
          f"{report.total} clasps ({report.parity})")
