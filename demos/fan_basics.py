"""
Fans, star subdivision, and the smoothness/completeness tests
=============================================================
"""

from toricbundles import canonical_json
from toricbundles.fans import (
    fan_to_json,
    is_complete,
    is_smooth,
    make_fan,
    projective_fan,
    star_subdivide,
    validate_fan,
)

# the fan of the projective plane: three rays, three 2-dimensional cones
p2 = projective_fan(2)
print("P^2 rays:", p2.rays)
print("P^2 maximal cones:", p2.max_cones)
print("valid:", validate_fan(p2) is None)
print("smooth:", is_smooth(p2), " complete:", is_complete(p2))

# blow up the torus-fixed point of the cone spanned by rays 1 and 2:
# star subdivision inserts the ray sum and splits the cone in two
bl = star_subdivide(p2, (1, 2))
print("\nafter one star subdivision:")
print("rays:", bl.rays)
print("maximal cones:", bl.max_cones)
print("still smooth:", is_smooth(bl), " still complete:", is_complete(bl))

# a weighted projective plane P(1,1,2) is complete but singular: the
# cone spanned by (1,0) and (-1,-2) has index 2
p112 = make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
print("\nP(1,1,2) smooth:", is_smooth(p112), " complete:", is_complete(p112))

# fans serialize to a canonical JSON document
print("\nJSON:", canonical_json(fan_to_json(p112)))
