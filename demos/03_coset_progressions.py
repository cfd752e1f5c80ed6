#!/usr/bin/env python3
"""Coset progressions and Freiman homomorphisms: properness, dense
Freiman-subgroups, the quotient-lifting construction and injectivity
refinements."""

from fractions import Fraction

import bogolib as bg
from bogolib.groups import GroupSubset, subgroup_generated
from bogolib.progressions import (
    Arm,
    CosetProgression,
    FreimanMap,
    extract_subprogression,
    injectivity_partition,
    intersect_refine,
    is_freiman_subgroup,
    partial_projectivity,
    popular_difference_progression,
)

g = bg.make_group([100])

# proper: every formal sum is distinct
c = CosetProgression.symmetric(g, [(g.element([1]), 10)])
print(f"C = [-10,10] in Z/100: size {c.size}, proper: {c.is_proper()}")

# the even residues of C form a Freiman-subgroup: closed under exactly
# those differences that stay inside C
evens = GroupSubset.from_indices(
    g, [i for i in list(range(0, 11, 2)) + list(range(90, 100, 2))]
)
print(f"evens are a Freiman-subgroup: {is_freiman_subgroup(evens, c.enumerate())}")

# extraction recovers a structured progression inside the subgroup
res = extract_subprogression(evens, c, Fraction(11, 21))
arm = res.progression.arms[0]
print(f"extracted stride {res.ells[0]}, arm [-{arm.hi}, {arm.hi}] * {arm.generator.coords}")

# partial projectivity: lift a homomorphism into a quotient to a Freiman
# 2-homomorphism on a large proper progression
gsrc = bg.make_group([4, 4])
h = bg.make_group([8])
kernel = subgroup_generated(h, [h.element([4])])
# representatives as a value array over G, the image index of each element:
# (a, b) -> 2a in Z8
lift_of = h.index_of_coords(2 * gsrc.coords_matrix[:, :1])
proj = partial_projectivity(gsrc, h, kernel, lift_of)
print(
    f"lifted on |C| = {proj.progression.size} of |G| = {gsrc.order} "
    f"(guarantee >= |G|/|K| = {gsrc.order // kernel.size}), rank {proj.progression.rank}"
)

# injectivity partition: a somewhat injective Freiman map splits into
# verified injective grid pieces
g42 = bg.make_group([4, 2])
h4 = bg.make_group([4])
sub = subgroup_generated(g42, [g42.element([0, 1])])
dom = CosetProgression(g42, g42.zero, (Arm(g42.element([1, 0]), 0, 3),), sub)
# values: the image index at every element of the domain's group, (a, b) -> a
phi = FreimanMap(dom, h4, g42.coords_matrix[:, 0])
part = injectivity_partition(phi, Fraction(1, 2))
print(f"projection map splits into {part.cell_count} cells with |D| = {part.refinement.size}")

# popular quadruple differences of an interval form a long symmetric
# progression, and intersections of progressions refine to one
ap = GroupSubset.from_indices(g, range(16))
pop = popular_difference_progression(ap)
print(f"popular differences of [0,15]: symmetric progression of size {pop.size}")

c1 = CosetProgression(g, g.element([0]), (Arm(g.element([1]), 0, 39),), GroupSubset.from_indices(g, [0]))
c2 = CosetProgression(g, g.element([20]), (Arm(g.element([1]), 0, 39),), GroupSubset.from_indices(g, [0]))
ref = intersect_refine([c1, c2], c1.enumerate() & c2.enumerate())
print(f"refined progression inside both intervals: size {ref.progression.size}, overlap {ref.overlap}")
