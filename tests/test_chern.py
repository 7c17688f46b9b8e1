import json
import random

import pytest

from toricbundles import canonical_json
from toricbundles.chern import (
    ChernViolation,
    chars_for_flag,
    chars_on_cone,
    chern_from_json,
    chern_polynomial,
    evaluate_polynomial,
    explicit_chern,
    filtration_signature,
    murphy_chern,
    trivial_chern,
    validate_chern,
    value_pair_table,
    _neighbor_flag,
    _random_flag,
)
from toricbundles.errors import DimensionMismatch, InternalAudit, RayNotInFan
from toricbundles.fields import QQ
from toricbundles.fans import projective_fan
from toricbundles.klyachko import check_compatibility, murphy_filtration
from toricbundles.murphy import (
    MurphyFanHandle,
    build_murphy_fan,
    enumerate_flags,
    incidence_data,
    maximal_cone_rays,
)

FLAG3 = ((1, 2), (frozenset({1, 2, 3}),))


def datum_for(points, lines, pairs, n=None):
    data = incidence_data(points, lines, pairs)
    handle = build_murphy_fan(data.total - 1, materialize=False)
    return murphy_chern(data, handle)


def test_four_case_multisets_on_flag_cone():
    # the four cases on Cone(rho_1, rho_2, rho_1+rho_2+rho_3) for n=3,
    # written in coordinates: e1*-e3* = (1,0,-1) etc.
    both_points = datum_for(3, 1, [])
    assert chars_for_flag(both_points, *FLAG3) == tuple(
        sorted([(0, 0, 0), (1, 0, -1), (0, 1, -1)])
    )
    incident = datum_for(1, 3, [(1, 1)])
    assert chars_for_flag(incident, *FLAG3) == tuple(
        sorted([(0, 0, 0), (0, 1, -1), (1, 1, -2)])
    )
    non_incident = datum_for(1, 3, [(1, 2)])
    assert chars_for_flag(non_incident, *FLAG3) == tuple(
        sorted([(1, 0, -1), (0, 1, -1), (0, 1, -1)])
    )
    both_lines = datum_for(0, 4, [])
    assert chars_for_flag(both_lines, *FLAG3) == tuple(
        sorted([(1, 0, -1), (0, 1, -1), (1, 1, -2)])
    )


def test_line_point_case_swaps_coordinates():
    # object 1 is a point sitting on line 1 = object 2
    datum = datum_for(1, 3, [(1, 1)])
    # the pair is unordered: either order names the same cone
    a = chars_for_flag(datum, (2, 1), FLAG3[1])
    b = chars_for_flag(datum, (1, 2), FLAG3[1])
    assert a == b
    # the raw table mirrors its value pairs when the line comes first
    forward = value_pair_table(datum.incidence, 1, 2)
    backward = value_pair_table(datum.incidence, 2, 1)
    assert sorted(backward) == sorted((q, p) for p, q in forward)


def test_degenerate_plane_case():
    datum = datum_for(2, 1, [(1, 1)])
    assert chars_for_flag(datum, (1, 2), ()) == ((0, 0), (0, 1), (1, 0))


def test_dimension_mismatch():
    data = incidence_data(2, 1, [(1, 1)])
    with pytest.raises(DimensionMismatch):
        murphy_chern(data, build_murphy_fan(3, materialize=False))
    with pytest.raises(DimensionMismatch):
        murphy_chern(
            incidence_data(1, 1, []), build_murphy_fan(1, materialize=False)
        )


def test_characters_vanish_on_composite_rays():
    datum = datum_for(3, 2, [(1, 1), (2, 2)])
    rng = random.Random(11)
    flags = list(enumerate_flags(4))
    handle = build_murphy_fan(4, materialize=False)
    for pair, chain in rng.sample(flags, 40):
        chars = chars_for_flag(datum, pair, chain)
        rays = maximal_cone_rays(handle, pair, chain)
        for u in chars:
            for composite in rays[2:]:
                assert sum(c * x for c, x in zip(u, composite)) == 0


def test_validate_trivial_datum():
    fan = projective_fan(2)
    assert validate_chern(fan, trivial_chern(fan)) is None


def test_validate_murphy_small():
    for n, (points, lines, pairs) in {
        2: (2, 1, [(1, 1)]),
        3: (2, 2, [(1, 1), (2, 1)]),
    }.items():
        datum = datum_for(points, lines, pairs)
        handle = build_murphy_fan(n)
        assert validate_chern(handle, datum) is None


def test_validate_murphy_lazy_sampled():
    datum = datum_for(3, 2, [(1, 1), (2, 2), (3, 2)])
    handle = build_murphy_fan(4, materialize=False)
    assert validate_chern(handle, datum, samples=400) is None
    fano = datum_for(
        7,
        7,
        [
            (i, j + 1)
            for j, triple in enumerate(
                [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
            )
            for i in triple
        ],
    )
    lazy = build_murphy_fan(13, materialize=False)
    assert validate_chern(lazy, fano, samples=150) is None


def test_corrupted_datum_reports_violation():
    handle = build_murphy_fan(2)
    datum = datum_for(2, 1, [(1, 1)])
    cones = {}
    for cone in handle.fan.max_cones:
        key = tuple(sorted(handle.fan.cone_vectors(cone)))
        cones[key] = chars_on_cone(datum, handle, cone)
    target = tuple(sorted([(1, 0), (0, 1)]))
    broken = dict(cones)
    broken[target] = tuple(sorted([(0, 0), (1, 0), (1, 1)]))
    violation = validate_chern(
        handle.fan, explicit_chern(3, broken)
    )
    assert isinstance(violation, ChernViolation)
    assert violation.values_a != violation.values_b


def test_neighbor_flags_share_a_facet():
    handle = build_murphy_fan(4, materialize=False)
    all_flags = set(enumerate_flags(4))
    rng = random.Random(3)
    for pair, chain in rng.sample(sorted(all_flags), 25):
        for facet in range(4):
            other = _neighbor_flag(4, pair, chain, facet)
            assert other in all_flags
            assert other != (pair, chain)
            mine = set(maximal_cone_rays(handle, pair, chain))
            theirs = set(maximal_cone_rays(handle, *other))
            assert len(mine & theirs) == 3


def test_roundtrip_with_forced_filtrations():
    # a configuration realizing I: line 1 through both points, line 2
    # missing both
    subspaces = {
        1: [(1, 0, 0)],
        2: [(0, 1, 0)],
        3: [(1, 0, 0), (0, 1, 0)],
        4: [(1, 0, 1), (0, 1, 1)],
    }
    incidence = incidence_data(2, 2, [(1, 1), (2, 1)])
    handle = build_murphy_fan(3)
    datum = murphy_chern(incidence, build_murphy_fan(3, materialize=False))
    filt = murphy_filtration(3, subspaces, QQ)
    result = check_compatibility(handle.fan, filt)
    assert result
    for k, cone in enumerate(handle.fan.max_cones):
        assert result.characters[k] == chars_on_cone(datum, handle, cone)


def test_filtration_signature_murphy():
    datum = datum_for(2, 2, [(1, 1)])
    assert filtration_signature(datum, None, 1) == [(1, 1), (2, 0)]
    assert filtration_signature(datum, None, 2) == [(1, 1), (2, 0)]
    assert filtration_signature(datum, None, 3) == [(1, 2), (2, 0)]
    assert filtration_signature(datum, None, {1, 2, 3}) == [(1, 0)]
    # the same rays by vector
    assert filtration_signature(datum, None, (1, 0, 0)) == [(1, 1), (2, 0)]
    assert filtration_signature(datum, None, (-1, -1, -1)) == [(1, 2), (2, 0)]
    assert filtration_signature(datum, None, (1, 1, 1)) == [(1, 0)]
    with pytest.raises(RayNotInFan):
        filtration_signature(datum, None, (1, -1, 0))


def test_filtration_signature_explicit():
    fan = projective_fan(2)
    datum = trivial_chern(fan)
    assert filtration_signature(datum, fan, (1, 0)) == [(1, 0)]


def test_chern_polynomial_on_plane():
    handle = build_murphy_fan(2)
    fan = handle.fan
    datum = datum_for(2, 1, [(1, 1)])
    c1 = chern_polynomial(datum, handle, 1)
    points_cone = fan.max_cones.index(
        tuple(sorted([fan.ray_index((1, 0)), fan.ray_index((0, 1))]))
    )
    assert dict(c1.polys[points_cone]) == {(1, 0): 1, (0, 1): 1}
    away = fan.max_cones.index(
        tuple(sorted([fan.ray_index((0, 1)), fan.ray_index((-1, -1))]))
    )
    assert dict(c1.polys[away]) == {(1, 0): -3, (0, 1): 1}
    incident = fan.max_cones.index(
        tuple(sorted([fan.ray_index((1, 0)), fan.ray_index((-1, -1))]))
    )
    assert dict(c1.polys[incident]) == {(1, 0): 1, (0, 1): -3}
    # agreement along the shared ray (0,1)
    assert evaluate_polynomial(c1.polys[points_cone], (0, 7)) == 7
    assert evaluate_polynomial(c1.polys[away], (0, 7)) == 7
    c2 = chern_polynomial(datum, handle, 2)
    assert dict(c2.polys[points_cone]) == {(1, 1): 1}
    assert dict(c2.polys[away]) == {(2, 0): 3, (1, 1): -2}
    c3 = chern_polynomial(datum, handle, 3)
    assert c3.polys[incident] == ()


def test_chern_polynomial_trivial_and_bounds():
    fan = projective_fan(2)
    datum = trivial_chern(fan)
    for i in (1, 2, 3):
        assert all(p == () for p in chern_polynomial(datum, fan, i).polys)
    with pytest.raises(ValueError):
        chern_polynomial(datum, fan, 0)
    with pytest.raises(ValueError):
        chern_polynomial(datum, fan, 4)


def test_chern_polynomial_rejects_invalid_datum():
    fan = projective_fan(2)
    cones = {
        tuple(sorted(fan.cone_vectors(c))): [(0, 0), (0, 0), (0, 0)]
        for c in fan.max_cones
    }
    first = tuple(sorted(fan.cone_vectors(fan.max_cones[0])))
    cones[first] = [(1, 1), (0, 0), (0, 0)]
    datum = explicit_chern(3, cones)
    with pytest.raises(InternalAudit):
        chern_polynomial(datum, fan, 1)


def test_murphy_chern_polynomial_n3():
    handle = build_murphy_fan(3)
    datum = datum_for(2, 2, [(1, 1), (2, 1)])
    c1 = chern_polynomial(datum, handle, 1)
    assert len(c1.polys) == 12


def test_json_round_trips():
    murphy = datum_for(2, 1, [(1, 1)])
    loaded = chern_from_json(json.loads(canonical_json(murphy.to_json())))
    assert loaded == murphy
    assert loaded.n == 2 and loaded.rank == 3
    fan = projective_fan(2)
    explicit = trivial_chern(fan)
    loaded = chern_from_json(json.loads(canonical_json(explicit.to_json())))
    assert loaded == explicit


def _random_datum(rng, n):
    points = rng.randint(0, n + 1)
    lines = n + 1 - points
    pairs = [
        (i, j)
        for i in range(1, points + 1)
        for j in range(1, lines + 1)
        if rng.random() < 0.5
    ]
    data = incidence_data(points, lines, pairs)
    return murphy_chern(data, MurphyFanHandle(n=n, materialized=False))


def _closed_form_chars(datum, pair, chain):
    """Flag characters by their values on rho_1..rho_{n+1}, no solving.

    The (p, q) character is p on rho_a, q on rho_b, -(p + q) on the
    third element s of S_3 and 0 elsewhere: that sums to 0 over every
    chain set and over all n + 1 rays.  As rho_i = e_i for i <= n, the
    first n values are the character's coordinates.
    """
    n = datum.n
    a, b = pair
    s3 = chain[0] if chain else frozenset(range(1, n + 2))
    (s,) = s3 - {a, b}
    chars = []
    for p, q in value_pair_table(datum.incidence, a, b):
        values = [0] * (n + 1)
        values[a - 1], values[b - 1], values[s - 1] = p, q, -(p + q)
        chars.append(tuple(values[:n]))
    return tuple(sorted(chars))


def test_flag_characters_match_closed_form_on_every_small_flag():
    rng = random.Random(20261017)
    for n in (2, 3, 4):
        for _ in range(3):
            datum = _random_datum(rng, n)
            for pair, chain in enumerate_flags(n):
                assert chars_for_flag(datum, pair, chain) == _closed_form_chars(
                    datum, pair, chain
                )


def test_flag_characters_match_closed_form_on_random_flags():
    rng = random.Random(20261018)
    for _ in range(500):
        n = rng.randint(5, 13)
        datum = _random_datum(rng, n)
        pair, chain = _random_flag(n, rng)
        assert chars_for_flag(datum, pair, chain) == _closed_form_chars(
            datum, pair, chain
        )
