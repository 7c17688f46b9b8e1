"""
Filtration compatibility: splitting characters cone by cone
===========================================================
"""

from toricbundles import canonical_json
from toricbundles.fans import make_fan, projective_fan
from toricbundles.fields import QQ
from toricbundles.klyachko import (
    check_compatibility,
    filtration_to_json,
    make_filtration,
    murphy_filtration,
)

# a rank-2 bundle on P^2 given by one decreasing filtration per ray:
# full space below the listed jump, the listed subspace from there on,
# zero afterwards
p2 = projective_fan(2)
filt = murphy_filtration(
    2,
    {
        1: [(1, 0)],   # ray e1 jumps onto the line spanned by (1,0)
        2: [(0, 1)],   # ray e2 onto (0,1)
        3: [(1, 0)],   # ray -e1-e2 onto (1,0) again
    },
    QQ,
)
result = check_compatibility(p2, filt)
print("compatible:", bool(result))
print("characters per maximal cone:")
for cone, chars in zip(p2.max_cones, result.characters):
    print("  cone", cone, "->", chars)

# three pairwise-distinct lines in the plane on a single 3-dimensional
# cone cannot be split by one basis: the inclusion-exclusion count of
# required basis vectors at the bottom cell goes negative
orthant = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
bad = make_filtration(
    2,
    QQ,
    {
        (1, 0, 0): [(1, [(1, 0)])],
        (0, 1, 0): [(1, [(0, 1)])],
        (0, 0, 1): [(1, [(1, 1)])],
    },
)
verdict = check_compatibility(orthant, bad)
print("\nthree distinct lines on one orthant:", bool(verdict))
print("reason:", verdict.reason, " at cell:", verdict.cell)

# filtrations travel as JSON; ray keys are comma-joined coordinates
print("\nJSON:", canonical_json(filtration_to_json(filt))[:120], "...")
