import json
import random
from fractions import Fraction

import pytest

from toricbundles import canonical_json
from toricbundles.errors import RayNotInFan
from toricbundles.fields import QQ, PrimeField, rref
from toricbundles.fans import make_fan, projective_fan
from toricbundles.klyachko import (
    CharacterAssignment,
    check_compatibility,
    filtration_from_json,
    filtration_to_json,
    make_filtration,
    murphy_filtration,
    trivial_filtration,
)

ORTHANT3 = make_fan(
    3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)]
)


def two_points_one_line_filtration():
    # two points and a line through the first of them
    y1 = [(1, 0, 0)]
    y2 = [(0, 1, 0)]
    y3 = [(1, 0, 0), (0, 0, 1)]
    return murphy_filtration(2, {1: y1, 2: y2, 3: y3}, QQ)


def test_filtration_canonicalization():
    filt = make_filtration(2, QQ, {(1, 0): [(1, [(2, 0)])]})
    steps = filt.steps[(1, 0)]
    # zero subspace appended, basis rescaled to echelon form
    assert steps == ((1, ((1, 0),)), (2, ()))
    assert filt.dimension_at((1, 0), 0) == 2
    assert filt.dimension_at((1, 0), 1) == 1
    assert filt.dimension_at((1, 0), 5) == 0
    with pytest.raises(ValueError):
        make_filtration(2, QQ, {(1, 0): [(1, [(1, 0)]), (2, [(0, 1)])]})
    with pytest.raises(ValueError):
        make_filtration(2, QQ, {(1, 0): []})
    with pytest.raises(RayNotInFan):
        filt.subspace_at((0, 1), 0)


def test_trivial_filtration_compatible():
    fan = projective_fan(2)
    filt = trivial_filtration(3, QQ, fan)
    result = check_compatibility(fan, filt)
    assert result
    assert isinstance(result, CharacterAssignment)
    for chars in result.characters:
        assert chars == ((0, 0), (0, 0), (0, 0))


def test_two_points_and_a_line_on_plane():
    fan = projective_fan(2)
    result = check_compatibility(fan, two_points_one_line_filtration())
    assert result
    cone = fan.max_cones.index(
        tuple(sorted([fan.ray_index((1, 0)), fan.ray_index((0, 1))]))
    )
    # value-pairs {(0,0),(1,0),(0,1)} against (rho_1, rho_2)
    assert set(result.characters[cone]) == {(0, 0), (1, 0), (0, 1)}
    incident = fan.max_cones.index(
        tuple(sorted([fan.ray_index((1, 0)), fan.ray_index((-1, -1))]))
    )
    assert sorted(result.characters[incident]) == [(0, -1), (0, 0), (1, -2)]
    away = fan.max_cones.index(
        tuple(sorted([fan.ray_index((0, 1)), fan.ray_index((-1, -1))]))
    )
    assert sorted(result.characters[away]) == [(-1, 0), (-1, 0), (-1, 1)]


def test_splitting_basis_reproduces_filtration():
    fan = projective_fan(2)
    filt = two_points_one_line_filtration()
    result = check_compatibility(fan, filt)
    for k, cone in enumerate(fan.max_cones):
        for pos, i in enumerate(cone):
            ray = fan.rays[i]
            for jump, basis in filt.steps[ray]:
                selected = [
                    v
                    for u, v in zip(result.characters[k], result.bases[k])
                    if sum(c * x for c, x in zip(u, ray)) >= jump
                ]
                assert rref(selected, QQ) == basis


def test_three_distinct_lines_in_the_plane_fail():
    # rank 2 with three pairwise distinct lines: the mixed difference
    # at the origin cell is 3*1 - 2 = 1 too large, i.e. -1
    filt = make_filtration(
        2,
        QQ,
        {
            (1, 0, 0): [(1, [(1, 0)])],
            (0, 1, 0): [(1, [(0, 1)])],
            (0, 0, 1): [(1, [(1, 1)])],
        },
    )
    result = check_compatibility(ORTHANT3, filt)
    assert not result
    assert result.reason == "negative_multiplicity"
    assert result.cell == (0, 0, 0)
    assert result.cone == (0, 1, 2)


def test_three_coplanar_lines_fail_at_basis():
    # all differences are nonnegative, but no basis of k^3 contains a
    # vector from each of three distinct coplanar lines
    filt = make_filtration(
        3,
        QQ,
        {
            (1, 0, 0): [(1, [(1, 0, 0)])],
            (0, 1, 0): [(1, [(0, 1, 0)])],
            (0, 0, 1): [(1, [(1, 1, 0)])],
        },
    )
    result = check_compatibility(ORTHANT3, filt)
    assert not result
    assert result.reason == "basis_construction"


def test_three_generic_lines_in_space_pass():
    filt = make_filtration(
        3,
        QQ,
        {
            (1, 0, 0): [(1, [(1, 0, 0)])],
            (0, 1, 0): [(1, [(0, 1, 0)])],
            (0, 0, 1): [(1, [(0, 0, 1)])],
        },
    )
    result = check_compatibility(ORTHANT3, filt)
    assert result
    assert sorted(result.characters[0]) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_rank_one_sweep():
    rng = random.Random(5)
    for fan in (projective_fan(1), projective_fan(2), ORTHANT3):
        for _ in range(20):
            jumps = {r: rng.randint(-4, 5) for r in fan.rays}
            filt = make_filtration(
                1, QQ, {r: [(j, ())] for r, j in jumps.items()}
            )
            result = check_compatibility(fan, filt)
            assert result
            for k, cone in enumerate(fan.max_cones):
                (u,) = result.characters[k]
                for i in cone:
                    ray = fan.rays[i]
                    value = sum(c * x for c, x in zip(u, ray))
                    assert value == jumps[ray] - 1


def test_line_fan_never_incompatible():
    # maximal cones of the line fan have a single ray, so any pair of
    # filtrations splits cone by cone
    fan = projective_fan(1)
    same = [(1, 1)]
    filt = make_filtration(
        2, QQ, {(1,): [(1, same)], (-1,): [(1, same)]}
    )
    result = check_compatibility(fan, filt)
    assert result
    # rays are sorted, so cone 0 sits on the ray -1: levels 0 and 1
    # there solve to characters 0 and -1
    assert result.characters == (((-1,), (0,)), ((0,), (1,)))


def test_prime_field_filtrations():
    f2 = PrimeField(2)
    filt = murphy_filtration(
        2, {1: [(1, 0, 0)], 2: [(0, 1, 0)], 3: [(1, 0, 0), (0, 0, 1)]}, f2
    )
    result = check_compatibility(projective_fan(2), filt)
    assert result
    # over F_2 the same incompatible triple of plane lines exists
    bad = make_filtration(
        2,
        f2,
        {
            (1, 0, 0): [(1, [(1, 0)])],
            (0, 1, 0): [(1, [(0, 1)])],
            (0, 0, 1): [(1, [(1, 1)])],
        },
    )
    assert not check_compatibility(ORTHANT3, bad)


def test_json_round_trip():
    for fld, data in (
        (QQ, two_points_one_line_filtration()),
        (
            PrimeField(3),
            murphy_filtration(
                2,
                {1: [(1, 0, 0)], 2: [(0, 1, 0)], 3: [(2, 1, 0), (0, 0, 1)]},
                PrimeField(3),
            ),
        ),
    ):
        dumped = canonical_json(filtration_to_json(data))
        loaded = filtration_from_json(json.loads(dumped))
        assert loaded == data
        assert canonical_json(filtration_to_json(loaded)) == dumped


def test_json_rational_values_survive():
    filt = make_filtration(
        2, QQ, {(1, 0): [(1, [(Fraction(1, 3), 1)])], (0, 1): [(2, ())]}
    )
    loaded = filtration_from_json(json.loads(canonical_json(filtration_to_json(filt))))
    assert loaded.steps[(1, 0)][0][1] == ((1, 3),)
