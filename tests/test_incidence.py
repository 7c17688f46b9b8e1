"""Configuration enumeration over small prime fields.

The headline counts are frozen from hand derivations in the projective
plane over F_2 (7 points, 3 points per line) and F_3 (13 points, 4 per
line).  For one marked point on one line and one point off it:
7*3*4 = 84 over F_2 and 13*4*9 = 468 over F_3.
"""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from toricbundles import canonical_json
from toricbundles.errors import BudgetExceeded
from toricbundles.incidence import (
    LISTING_CHUNK,
    PLANE_BYTES_LIMIT,
    _plane,
    check_configuration,
    check_plane,
    configuration_from_json,
    configuration_to_json,
    count_c_i,
    enumerate_c_i,
    listing_json_chunks,
    make_configuration,
    normalize_triple,
    projective_points,
    solutions,
    verify_equivalence,
)
from toricbundles.fields import QQ, PrimeField
from toricbundles.moduli import make_condition_set
from toricbundles.murphy import fano_incidence, incidence_data


def test_normalize_triple():
    assert normalize_triple((2, 4, 6), QQ) == (1, 2, 3)
    assert normalize_triple((0, 2, 3), PrimeField(5)) == (0, 1, 4)
    assert normalize_triple((0, 0, 7), PrimeField(2)) == (0, 0, 1)
    for bad in ((0, 0, 0), (1, 0), (1, 0, 0, 5), (True, 0, 0), (1.0, 0, 0)):
        with pytest.raises(ValueError):
            normalize_triple(bad, QQ)


def test_projective_point_counts():
    for p in (2, 3, 5):
        pts = projective_points(p)
        assert len(pts) == p * p + p + 1
        assert pts == sorted(set(pts))
        assert all(v[next(i for i, x in enumerate(v) if x)] == 1 for v in pts)


def _scanned_points(p):
    """The oracle: normalize all p^3 triples and sort the distinct ones."""
    fld = PrimeField(p)
    return sorted({
        normalize_triple(v, fld) for v in product(range(p), repeat=3) if any(v)
    })


PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)


@pytest.mark.parametrize("p", PRIMES_TO_13)
def test_projective_points_match_full_scan(p):
    assert projective_points(p) == _scanned_points(p)


@pytest.mark.parametrize("p", PRIMES_TO_13)
def test_plane_masks_match_dot_products(p):
    universe, on = _plane(p)
    assert list(universe) == _scanned_points(p)
    for v, mask in zip(universe, on):
        want = sum(
            1 << w for w, x in enumerate(universe)
            if sum(a * b for a, b in zip(v, x)) % p == 0
        )
        assert mask == want


def test_check_plane_refuses_before_building():
    check_plane(101)
    with pytest.raises(ValueError, match="not prime"):
        check_plane(4)
    for p in (211, 65521):
        with pytest.raises(ValueError, match=f"limit of {PLANE_BYTES_LIMIT}"):
            check_plane(p)
    _plane.cache_clear()
    with pytest.raises(ValueError, match="limit"):
        count_c_i(incidence_data(1, 0, []), 65521, budget=10)
    with pytest.raises(ValueError, match="limit"):
        verify_equivalence(incidence_data(2, 1, [(1, 1)]), 211)
    assert _plane.cache_info().currsize == 0


def test_check_configuration():
    inc = incidence_data(2, 1, [(1, 1)])
    good = make_configuration("Q", [(1, 0, 0), (0, 1, 0)], [(0, 0, 1)])
    # point 1 lies on the line, point 2 does too: incidence demands only
    # the first, so the exact-match check fails
    assert not check_configuration(good, inc)
    off = make_configuration("Q", [(0, 0, 1), (0, 1, 0)], [(0, 0, 1)])
    assert not check_configuration(off, inc)  # point 1 off its line
    ok = make_configuration("Q", [(1, 0, 0), (0, 1, 0)], [(0, 1, 0)])
    assert check_configuration(ok, inc)
    dup = make_configuration("Q", [(1, 0, 0), (2, 0, 0)], [(0, 1, 0)])
    assert not check_configuration(dup, inc)
    with pytest.raises(ValueError):
        check_configuration(ok, incidence_data(1, 1, []))


def test_marked_point_counts_frozen():
    inc = incidence_data(2, 1, [(1, 1)])
    assert len(enumerate_c_i(inc, 2)) == 84
    assert len(enumerate_c_i(inc, 3)) == 468


def test_enumeration_output_is_checked_and_sorted():
    inc = incidence_data(2, 1, [(1, 1)])
    configs = enumerate_c_i(inc, 2)
    assert configs == sorted(configs, key=lambda c: (c.points, c.lines))
    assert len(set(configs)) == len(configs)
    assert all(check_configuration(c, inc) for c in configs)
    assert all(c.field == "Fp:2" for c in configs)


def test_fano_realizable_only_in_characteristic_two():
    fano = fano_incidence()
    over_two = enumerate_c_i(fano, 2)
    # labeled embeddings of the Fano plane into PG(2,2) biject with its
    # automorphism group, of order 168
    assert len(over_two) == 168
    assert all(check_configuration(c, fano) for c in over_two[:5])
    assert enumerate_c_i(fano, 3) == []


def test_empty_condition_set_counts_points():
    conds = make_condition_set(1, 0, [])
    assert len(solutions(conds, 2)) == 7
    assert len(solutions(conds, 3)) == 13


def test_verify_equivalence_marked_point():
    for p, count in ((2, 84), (3, 468)):
        report = verify_equivalence(incidence_data(2, 1, [(1, 1)]), p)
        assert report.equal
        assert report.count_conditions == count
        assert report.count_direct == count
        assert report.discrepancy is None


def test_verify_equivalence_degenerate_pair():
    report = verify_equivalence(
        incidence_data(0, 2, []), 2, allow_degenerate=True
    )
    assert report.equal
    assert report.count_conditions == 42  # 7 * 6 ordered distinct lines


def test_report_json_round_trip():
    report = verify_equivalence(incidence_data(1, 2, [(1, 1)]), 2)
    data = report.to_json()
    assert data["equal"] is True
    assert data["count_conditions"] == data["count_direct"]
    assert data["discrepancy"] is None
    assert data["prime"] == 2


def _all_incidence_sets(d, dprime):
    cells = [(i, j) for i in range(1, d + 1) for j in range(1, dprime + 1)]
    for bits in range(1 << len(cells)):
        yield [cells[k] for k in range(len(cells)) if bits >> k & 1]


def _relabel_classes(d, dprime):
    """One representative per orbit of S_d x S_dprime on incidence sets."""
    seen = set()
    for pairs in _all_incidence_sets(d, dprime):
        key = min(
            tuple(sorted((sigma[i - 1], tau[j - 1]) for i, j in pairs))
            for sigma in permutations(range(1, d + 1))
            for tau in permutations(range(1, dprime + 1))
        )
        if key not in seen:
            seen.add(key)
            yield pairs


def test_equivalence_sweep_small():
    for total in (3, 4):
        for d in range(total + 1):
            dprime = total - d
            for pairs in _relabel_classes(d, dprime):
                for p in (2, 3):
                    report = verify_equivalence(incidence_data(d, dprime, pairs), p)
                    assert report.equal, (d, dprime, pairs, p)


def test_equivalence_sweep_five_objects_f3():
    for d in range(6):
        dprime = 5 - d
        for pairs in _relabel_classes(d, dprime):
            report = verify_equivalence(incidence_data(d, dprime, pairs), 3)
            assert report.equal, (d, dprime, pairs)


def test_brute_and_backtrack_agree():
    """The forward-checking engine against a full scan of P^2(F_p)."""
    cases = [
        incidence_data(2, 2, [(1, 1), (2, 2)]),
        incidence_data(3, 1, [(1, 1), (2, 1)]),
        incidence_data(1, 3, []),
    ]
    for inc in cases:
        for p in (2, 3):
            scan = []
            for combo in product(projective_points(p), repeat=inc.total):
                config = make_configuration(
                    f"Fp:{p}", combo[: inc.points], combo[inc.points :]
                )
                if check_configuration(config, inc):
                    scan.append(config)
            assert enumerate_c_i(inc, p) == scan
            assert enumerate_c_i(inc, p, workers=2) == scan


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _move(config, m):
    """Points x -> m x, lines l -> cof(m) l.

    cof(m) = det(m) m^-T has the columns c1 x c2, c2 x c0, c0 x c1 for
    the columns c0, c1, c2 of m, so (m x) . (cof(m) l) = det(m) (x . l).
    """
    c0, c1, c2 = zip(*m)
    cof = tuple(zip(_cross(c1, c2), _cross(c2, c0), _cross(c0, c1)))

    def apply(a, v):
        return [sum(x * y for x, y in zip(row, v)) for row in a]

    return make_configuration(
        config.field,
        [apply(m, x) for x in config.points],
        [apply(cof, l) for l in config.lines],
    )


def test_projective_invariance():
    rng = random.Random(20260815)
    inc = incidence_data(2, 1, [(1, 1)])
    for p in (2, 3):
        configs = set(enumerate_c_i(inc, p))
        moves = 0
        while moves < 5:
            m = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
            c0, c1, c2 = zip(*m)
            if sum(a * b for a, b in zip(c0, _cross(c1, c2))) % p == 0:
                continue
            moves += 1
            assert {_move(c, m) for c in configs} == configs


def test_budget_exceeded_carries_progress():
    inc = incidence_data(3, 0, [])
    with pytest.raises(BudgetExceeded) as info:
        enumerate_c_i(inc, 3, budget=25)
    assert info.value.nodes == 26
    assert info.value.partial_count >= 1


def test_worker_budget_error_keeps_its_counts():
    # every worker branch fixes object 0 and then runs the serial search
    # of the budget test above, so the first branch stops at node 26 too
    with pytest.raises(BudgetExceeded) as info:
        enumerate_c_i(incidence_data(3, 0, []), 3, budget=25, workers=2)
    assert info.value.nodes == 26
    assert info.value.partial_count == 22


def test_worker_budget_is_global_and_deterministic():
    # each branch fixes point 1 and costs 1 + 12 + 12 * 11 = 145 nodes;
    # the first two branches in order pass 200, whatever the worker count
    inc = incidence_data(3, 0, [])
    seen = set()
    for workers in (2, 3):
        with pytest.raises(BudgetExceeded) as info:
            enumerate_c_i(inc, 3, budget=200, workers=workers)
        seen.add((info.value.nodes, info.value.partial_count))
    assert seen == {(290, 264)}
    with pytest.raises(BudgetExceeded) as info:
        enumerate_c_i(inc, 3, budget=200)
    assert info.value.nodes == 201
    # the serial search runs 13 * 145 nodes; workers refuse exactly when it does
    for budget in (13 * 145 - 1, 13 * 145):
        for workers in (None, 2):
            try:
                count = count_c_i(inc, 3, budget=budget, workers=workers)
            except BudgetExceeded:
                count = None
            assert count == (None if budget < 13 * 145 else 13 * 12 * 11)


def test_worker_partition_matches_serial():
    inc = incidence_data(2, 1, [(1, 1)])
    serial = enumerate_c_i(inc, 2)
    parallel = enumerate_c_i(inc, 2, workers=2)
    assert parallel == serial


def test_configuration_json_round_trip():
    config = make_configuration(
        "Q", [(Fraction(1, 3), 1, 0), (0, 1, 0)], [(2, 0, 4)]
    )
    assert config.points[0] == (1, 3, 0)
    assert config.lines[0] == (1, 0, 2)
    again = configuration_from_json(configuration_to_json(config))
    assert again == config
    blob = canonical_json(configuration_to_json(config))
    assert '"field":"Q"' in blob

    mod = make_configuration("Fp:5", [(3, 1, 0)], [(0, 2, 1)])
    assert mod.points[0] == (1, 2, 0)
    assert configuration_from_json(configuration_to_json(mod)) == mod


def test_every_f2_point_appears_in_some_line_pencil():
    # cross-check the universe against line incidence: over F_2 each
    # point lies on exactly 3 of the 7 lines
    pts = projective_points(2)
    for x in pts:
        through = [l for l in pts if sum(a * b for a, b in zip(x, l)) % 2 == 0]
        assert len(through) == 3


# --- the streamed listing writer ----------------------------------------


def _listing_oracle(configs):
    """The listing as one dict through configuration_to_json."""
    return canonical_json({
        "count": len(configs),
        "configurations": [configuration_to_json(c) for c in configs],
    })


@st.composite
def configuration_lists(draw):
    """Configurations over one of F_2..F_7 or Q, shapes as the CLI lists."""
    tag = draw(st.sampled_from(["Fp:2", "Fp:3", "Fp:5", "Fp:7", "Q"]))
    if tag == "Q":
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        entry = st.integers(0, int(tag[3:]) - 1)
    vector = st.tuples(entry, entry, entry).filter(any)
    d, dprime = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    config = st.builds(
        lambda points, lines: make_configuration(tag, points, lines),
        st.lists(vector, min_size=d, max_size=d),
        st.lists(vector, min_size=dprime, max_size=dprime),
    )
    return draw(st.lists(config, max_size=12))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(configuration_lists())
def test_listing_chunks_match_the_dict_listing(configs):
    assert "".join(listing_json_chunks(configs)) == _listing_oracle(configs)


def test_listing_chunks_edge_cases():
    assert "".join(listing_json_chunks([])) == '{"configurations":[],"count":0}'
    halves = make_configuration("Q", [(2, 1, 0), (0, 3, 1)], [(1, 1, 1)])
    assert halves.points == ((1, Fraction(1, 2), 0), (0, 1, Fraction(1, 3)))
    text = "".join(listing_json_chunks([halves]))
    assert text == _listing_oracle([halves])
    assert '["1","1/2","0"]' in text
    mixed = [halves, make_configuration("Fp:5", [(2, 4, 0)], [])]
    assert "".join(listing_json_chunks(mixed)) == _listing_oracle(mixed)
    # 4650 configurations: two chunks of text between the head and tail
    listing = enumerate_c_i(incidence_data(2, 1, [(1, 1)]), 5)
    assert len(listing) > LISTING_CHUNK
    pieces = list(listing_json_chunks(listing))
    assert len(pieces) == 4
    assert "".join(pieces) == _listing_oracle(listing)
