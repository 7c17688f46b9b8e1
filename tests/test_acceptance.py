"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line (visible with -s or in the captured
section) once its assertions and runtime cap hold.  Frozen counts come
from hand derivations: 8 = 4 + 4 rays and 12 = 4 + 4*2 maximal cones
for n = 3, binomial ray counts in general, and the projective-plane
counting arguments behind 84 (7*3*4) and 468 (13*4*9).
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from toricbundles.chern import chars_for_flag, chars_on_cone, murphy_chern, validate_chern
from toricbundles.divisors import (
    NotCartier,
    class_group,
    evaluate_support,
    is_cartier,
    make_divisor,
)
from toricbundles.fans import (
    fan_from_json,
    is_complete,
    is_smooth,
    make_fan,
    projective_fan,
    validate_fan,
)
from toricbundles.fields import QQ
from toricbundles.incidence import (
    configuration_to_json,
    enumerate_c_i,
    verify_equivalence,
)
from toricbundles.intlin import (
    det,
    mat_mul,
    smith_decomposition,
    smith_normal_form,
)
from toricbundles.klyachko import check_compatibility, murphy_filtration
from toricbundles.moduli import audit_pairwise, make_murphy_instance
from toricbundles.murphy import (
    all_labels,
    build_murphy_fan,
    cone_membership,
    fano_incidence,
    incidence_data,
    murphy_ray_count,
    ray_vector,
)

P112 = make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])


def _cli(args):
    return subprocess.run(
        [sys.executable, "-m", "toricbundles.cli", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_1_fan_construction():
    start = time.monotonic()
    result = _cli(["murphy", "fan", "--n", "3"])
    assert result.returncode == 0
    fan3 = fan_from_json(json.loads(result.stdout))
    assert len(fan3.rays) == 8
    assert len(fan3.max_cones) == 12
    assert is_smooth(fan3)
    assert validate_fan(fan3) is None
    assert is_complete(fan3)

    result = _cli(["murphy", "fan", "--n", "4"])
    assert result.returncode == 0
    fan4 = fan_from_json(json.loads(result.stdout))
    assert len(fan4.rays) == 20

    for n in range(1, 7):
        vectors = {ray_vector(n, lab) for lab in all_labels(n)}
        expected = (n + 1) + sum(comb(n + 1, k) for k in range(3, n + 1))
        assert len(vectors) == expected
        assert murphy_ray_count(n) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 10
    print(f"ACCEPTANCE 1 PASS: murphy fan n=3 has 8 rays / 12 smooth "
          f"complete cones, n=4 has 20 rays, ray formula holds for n<=6 "
          f"({elapsed:.2f}s)")


def test_criterion_2_lazy_matches_materialized():
    start = time.monotonic()
    checked = 0
    for n in (3, 4, 5):
        lazy = build_murphy_fan(n, materialize=False)
        full = build_murphy_fan(n, materialize=True)
        label_sets = [
            frozenset(full.cone_labels(cone)) for cone in full.fan.max_cones
        ]
        faces = set()
        for labels in label_sets:
            for size in (1, 2, 3):
                faces.update(
                    frozenset(c) for c in combinations(labels, size)
                )
        universe = all_labels(n)
        for size in (1, 2, 3):
            for subset in combinations(universe, size):
                expected = frozenset(subset) in faces
                assert cone_membership(lazy, subset) == expected
                assert cone_membership(full, subset) == expected
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"ACCEPTANCE 2 PASS: lazy cone membership equals the "
          f"materialized face lattice on {checked} subsets for n in "
          f"{{3,4,5}} ({elapsed:.2f}s)")


def test_criterion_3_chern_well_defined():
    start = time.monotonic()
    exhaustive = {
        2: [incidence_data(2, 1, [(1, 1)]), incidence_data(1, 2, [])],
        3: [
            incidence_data(2, 2, [(1, 1), (2, 2)]),
            incidence_data(3, 1, [(1, 1), (2, 1)]),
        ],
    }
    for n, data in exhaustive.items():
        handle = build_murphy_fan(n, materialize=True)
        for inc in data:
            datum = murphy_chern(inc, handle)
            assert validate_chern(handle, datum) is None
    sampled = {
        4: incidence_data(3, 2, [(1, 1), (2, 1), (3, 2)]),
        5: incidence_data(3, 3, [(1, 1), (2, 2), (3, 3)]),
    }
    for n, inc in sampled.items():
        handle = build_murphy_fan(n, materialize=False)
        datum = murphy_chern(inc, handle)
        assert validate_chern(handle, datum, samples=1000) is None

    flag = ((1, 2), (frozenset({1, 2, 3}),))
    handle3 = build_murphy_fan(3, materialize=False)

    def multiset(points, lines, pairs):
        datum = murphy_chern(incidence_data(points, lines, pairs), handle3)
        return sorted(chars_for_flag(datum, *flag))

    assert multiset(3, 1, []) == [(0, 0, 0), (0, 1, -1), (1, 0, -1)]
    assert multiset(1, 3, [(1, 1)]) == [(0, 0, 0), (0, 1, -1), (1, 1, -2)]
    assert multiset(1, 3, [(1, 2)]) == [(0, 1, -1), (0, 1, -1), (1, 0, -1)]
    assert multiset(0, 4, []) == [(0, 1, -1), (1, 0, -1), (1, 1, -2)]
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"ACCEPTANCE 3 PASS: validate_chern exhaustive for n in {{2,3}}, "
          f"1000 sampled adjacent pairs for n in {{4,5}}, four displayed "
          f"multisets verbatim ({elapsed:.2f}s)")


def test_criterion_4_klyachko_round_trip():
    # realizable marked pair over Q: x1 on the line, x2 off it
    incidence = incidence_data(2, 1, [(1, 1)])
    handle = build_murphy_fan(2, materialize=True)
    filt = murphy_filtration(
        2,
        {
            1: [(1, 0, 0)],
            2: [(0, 1, 0)],
            3: [(1, 0, 0), (0, 0, 1)],
        },
        QQ,
    )
    assignment = check_compatibility(handle.fan, filt)
    assert assignment
    datum = murphy_chern(incidence, handle)
    for index, cone in enumerate(handle.fan.max_cones):
        recovered = sorted(assignment.characters[index])
        assert recovered == sorted(chars_on_cone(datum, handle, cone))
    print("ACCEPTANCE 4 PASS: forced filtrations for the marked pair are "
          "compatible on every maximal cone and recover murphy_chern(I)")


def test_criterion_5_moduli_equals_incidence():
    start = time.monotonic()
    pair = incidence_data(2, 1, [(1, 1)])
    for p, expected in ((2, 84), (3, 468)):
        report = verify_equivalence(pair, p)
        assert report.equal
        assert report.count_conditions == expected == report.count_direct

    cases = 0
    for total in (2, 3, 4, 5):
        for d in range(total + 1):
            dprime = total - d
            cells = [(i, j) for i in range(1, d + 1)
                     for j in range(1, dprime + 1)]
            for bits in range(1 << len(cells)):
                pairs = [cells[k] for k in range(len(cells)) if bits >> k & 1]
                report = verify_equivalence(
                    incidence_data(d, dprime, pairs), 2,
                    allow_degenerate=(total == 2),
                )
                assert report.equal, (d, dprime, pairs)
                cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(f"ACCEPTANCE 5 PASS: both routes give 84 (F_2) and 468 (F_3) for "
          f"the marked pair; {cases} exhaustive d+d'<=5 cases agree over "
          f"F_2 ({elapsed:.2f}s)")


def test_criterion_6_no_extra_incidences():
    start = time.monotonic()
    small = make_murphy_instance(incidence_data(2, 2, [(1, 1)]))
    assert small.handle.materialized
    assert audit_pairwise(small) is None

    fano = make_murphy_instance(fano_incidence(), materialize=False)
    assert audit_pairwise(fano) is None
    triples = 0
    for triple in combinations(range(1, 15), 3):
        assert not cone_membership(fano.handle, triple)
        triples += 1
    assert triples == 364
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"ACCEPTANCE 6 PASS: no three original rays span a cone for n=3 "
          f"(exhaustive) and n=13 (all 364 triples) ({elapsed:.2f}s)")


def test_criterion_7_fano_realizability_probe():
    start = time.monotonic()
    fano = fano_incidence()
    over_two = enumerate_c_i(fano, 2)
    assert over_two
    witness = configuration_to_json(over_two[0])
    over_three = enumerate_c_i(fano, 3)
    assert over_three == []
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"ACCEPTANCE 7 PASS: Fano data has {len(over_two)} realizations "
          f"over F_2 and none over F_3 ({elapsed:.2f}s); witness: "
          + json.dumps(witness, sort_keys=True, separators=(",", ":")))


def test_criterion_8_divisor_kit():
    for n in range(1, 6):
        group = class_group(projective_fan(n))
        assert group.free_rank == 1
        assert group.torsion == ()
    murphy3 = build_murphy_fan(3, materialize=True)
    group = class_group(murphy3.fan)
    assert group.free_rank == 5
    assert group.torsion == ()

    # coefficient 1 on ray (1,0); rays sort to [(-1,-2),(0,1),(1,0)]
    single = make_divisor(P112, [0, 0, 1])
    blocked = is_cartier(P112, single)
    assert isinstance(blocked, NotCartier)
    assert not blocked
    doubled = make_divisor(P112, [0, 0, 2])
    support = is_cartier(P112, doubled)
    assert support
    values = {
        (1, 1): 2,
        (-1, -1): 0,
        (1, -1): 3,
        (Fraction(1, 2), Fraction(-1, 2)): Fraction(3, 2),
    }
    for point, expected in values.items():
        assert evaluate_support(support, P112, point) == expected
    print("ACCEPTANCE 8 PASS: Cl(P^n)=Z for n<=5, Cl(X_3) has free rank 5, "
          "D_(1,0) on P(1,1,2) is non-Cartier while 2D is, with exact "
          "support values")


def test_criterion_9_invariant_suites():
    # the per-module property suites run in this same pytest session;
    # the SNF unimodular-invariance property is re-run here standalone
    def random_unimodular(rng, n, steps=8):
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(steps):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-3, 3)
                m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        return m

    rng = random.Random(20260815)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        p = random_unimodular(rng, rows)
        q = random_unimodular(rng, cols)
        assert smith_normal_form(a) == smith_normal_form(
            mat_mul(mat_mul(p, a), q)
        )
        u, d, v = smith_decomposition(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
    print("ACCEPTANCE 9 PASS: SNF unimodular invariance holds on 200 "
          "randomized cases; module invariant suites run in this session")
