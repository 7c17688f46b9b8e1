import json
import random
from fractions import Fraction

import pytest

from toricbundles import canonical_json
from toricbundles.errors import ConeNotInFan, NonSmoothCone, NotStronglyConvex
from toricbundles.fans import (
    cone_contains,
    cone_containing_point,
    cone_in_fan,
    fan_from_json,
    fan_to_json,
    is_complete,
    is_smooth,
    make_cone,
    make_fan,
    projective_fan,
    star_subdivide,
    validate_fan,
)

P112 = make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])


def test_make_cone_canonicalization():
    c = make_cone([(2, 4), (1, 0)])
    assert c.generators == ((1, 0), (1, 2))
    # Redundant interior generator removed.
    c = make_cone([(1, 0), (1, 1), (0, 1)])
    assert c.generators == ((0, 1), (1, 0))
    assert c.dim == 2
    with pytest.raises(NotStronglyConvex):
        make_cone([(1, 0), (-1, 0)])
    with pytest.raises(ValueError):
        make_cone([(0, 0)])
    assert make_cone([]).generators == ()


def test_cone_contains():
    gens = [(1, 0), (1, 2)]
    assert cone_contains(gens, (2, 2))
    assert cone_contains(gens, (1, 0))
    assert cone_contains(gens, (0, 0))
    assert not cone_contains(gens, (0, 1))
    assert not cone_contains(gens, (-1, 0))
    assert cone_contains(gens, (Fraction(1, 2), Fraction(1, 3)))


def test_projective_fan_basics():
    fan = projective_fan(2)
    assert len(fan.rays) == 3
    assert len(fan.max_cones) == 3
    assert validate_fan(fan) is None
    assert is_smooth(fan)
    assert is_complete(fan)
    for n in (1, 3, 4):
        f = projective_fan(n)
        assert validate_fan(f) is None
        assert is_smooth(f)
        assert is_complete(f)
        assert len(f.rays) == n + 1
        assert len(f.max_cones) == n + 1


def test_validate_fan_overlap_violation():
    bad = make_fan(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3)])
    violation = validate_fan(bad)
    assert violation is not None
    assert violation.code == "intersection_not_face"


def test_validate_fan_structural_violations():
    nested = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    object.__setattr__(nested, "max_cones", ((0,), (0, 1)))
    v = validate_fan(nested)
    assert v and v.code == "nested_maximal_cones"

    dependent = make_fan(2, [(1, 0), (1, 1), (1, 2)], [(0, 1, 2)])
    v = validate_fan(dependent)
    assert v and v.code == "not_simplicial"


def test_quadrant_fan_valid_complete():
    fan = make_fan(
        2,
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    assert validate_fan(fan) is None
    assert is_smooth(fan)
    assert is_complete(fan)


def test_single_cone_not_complete():
    fan = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    assert validate_fan(fan) is None
    assert not is_complete(fan)


def test_p112_smoothness_and_completeness():
    assert validate_fan(P112) is None
    assert is_complete(P112)
    assert not is_smooth(P112)


def test_star_subdivision_blowup_of_plane():
    fan = projective_fan(2)
    cone = [fan.ray_index((1, 0)), fan.ray_index((0, 1))]
    blown = star_subdivide(fan, cone)
    assert len(blown.rays) == 4
    assert (1, 1) in blown.rays
    assert len(blown.max_cones) == 4
    assert validate_fan(blown) is None
    assert is_smooth(blown)
    assert is_complete(blown)
    # The subdivided cone is gone; its proper faces survive.
    i, j = blown.ray_index((1, 0)), blown.ray_index((0, 1))
    assert not cone_in_fan(blown, (i, j))
    assert cone_in_fan(blown, (i,))
    assert cone_in_fan(blown, (j,))
    with pytest.raises(ConeNotInFan):
        star_subdivide(blown, (i, j))


def test_star_subdivision_rejects_singular_cone():
    cone = [P112.ray_index((-1, -2)), P112.ray_index((1, 0))]
    with pytest.raises(NonSmoothCone):
        star_subdivide(P112, cone)


def test_star_subdivision_dimension_guard():
    fan = projective_fan(2)
    with pytest.raises(ValueError):
        star_subdivide(fan, (0,))


def test_random_subdivision_sequences_stay_valid():
    rng = random.Random(11)
    for _ in range(6):
        fan = projective_fan(rng.choice([2, 3]))
        for _ in range(3):
            cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
            size = rng.randint(2, len(cone))
            sub = tuple(sorted(rng.sample(cone, size)))
            fan = star_subdivide(fan, sub)
            assert validate_fan(fan) is None
            assert is_smooth(fan)
            assert is_complete(fan)


def test_subdivision_preserves_point_location():
    rng = random.Random(5)
    fan = projective_fan(2)
    blown = star_subdivide(fan, (fan.ray_index((1, 0)), fan.ray_index((0, 1))))
    for _ in range(40):
        pt = (Fraction(rng.randint(-9, 9), 7), Fraction(rng.randint(-9, 9), 5))
        assert cone_containing_point(fan, pt) is not None
        assert cone_containing_point(blown, pt) is not None


def test_point_location_outside_support():
    fan = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    assert cone_containing_point(fan, (1, 1)) is not None
    assert cone_containing_point(fan, (-1, 0)) is None


def test_fan_json_round_trip_is_canonical():
    fan = star_subdivide(projective_fan(3), projective_fan(3).max_cones[0])
    text = canonical_json(fan_to_json(fan))
    again = fan_from_json(json.loads(text))
    assert again == fan
    assert canonical_json(fan_to_json(again)) == text
