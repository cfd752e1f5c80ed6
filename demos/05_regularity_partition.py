#!/usr/bin/env python3
"""The algebraic regularity partition for bilinear Bohr varieties.

A family of Freiman-linear maps y -> L(y) into the dual of G defines row
Bohr sets B(Gamma cup {L(y)}; rho).  The partition splits the y-domain into
proper progressions on which row sizes and pairwise intersections
concentrate (properties (i) and (ii)); failures surface vanishing integer
relations among the maps, which shrink the working progression.
"""

from fractions import Fraction

import bogolib as bg
from bogolib.bilinear import (
    linear_map_on_progression,
    qr_property_check,
    regularity_partition,
)
from bogolib.progressions import CosetProgression

gx = bg.make_group([64])
gy = bg.make_group([64])
c = CosetProgression.symmetric(gy, [(gy.element([1]), 25)])

# a generic linear map certifies in one cell
generic = linear_map_on_progression(c, gx.dual, [gx.dual.element([7])])
res = regularity_partition(c, [], [generic], Fraction(1, 4), Fraction(1, 4), 12, gx)
print(f"generic map: certified={res.certified} with {len(res.cells)} cell(s), steps={res.steps}")

# a map through a zero divisor (16 * y in Z/64) makes row sizes depend on
# y mod 4; at a tight eta the loop extracts the relations 2L = 0 on the
# evens and shrinks the partition accordingly
divisor = linear_map_on_progression(c, gx.dual, [gx.dual.element([16])])
res = regularity_partition(c, [], [divisor], Fraction(1, 4), Fraction(1, 8), 20, gx)
print(
    f"zero-divisor map at eta=1/8: steps={res.steps}, "
    f"relations={list(res.relation_lattice.rows)}, cells={len(res.cells)}"
)
for cell in res.cells:
    tag = "certified" if cell.certified else "flagged  "
    base = cell.progression.base.coords[0]
    print(
        f"  {tag} cell base {base:3d} size {cell.progression.size:3d} "
        f"rho {cell.rho} delta {cell.delta:.3f}"
    )

# certified cells re-pass the check when recomputed from scratch
for cell in res.cells:
    if cell.certified:
        again = qr_property_check(
            cell.progression, [], [divisor], cell.rho, Fraction(1, 8), gx
        )
        assert again.pass_i and again.pass_ii
print("all certified cells re-pass qr_property_check from scratch")

# at the coarser eta = 1/4 the same instance certifies after two shrinking
# steps, in six cells
res4 = regularity_partition(c, [], [divisor], Fraction(1, 4), Fraction(1, 4), 12, gx)
print(f"same instance at eta=1/4: certified={res4.certified} in {len(res4.cells)} cell(s)")
