import json
import random
from itertools import combinations

import pytest

from toricbundles import canonical_json
from toricbundles.chern import chars_for_flag
from toricbundles.errors import InternalAudit, InvalidConditionSet
from toricbundles.fans import make_fan
from toricbundles.moduli import (
    Atom,
    PairwiseViolation,
    audit_pairwise,
    conditions_from_json,
    conditions_to_json,
    generate_conditions,
    make_condition_set,
    make_murphy_instance,
    _canonical_chain,
    _jump_counts,
)
from toricbundles.murphy import (
    MurphyFanHandle,
    cone_flag,
    fano_incidence,
    incidence_data,
    ray_vector,
)


def test_atom_validation():
    with pytest.raises(InvalidConditionSet):
        Atom(kind="TANGENT", i=1, j=2)
    with pytest.raises(InvalidConditionSet):
        Atom(kind="DISTINCT_POINTS", i=2, j=2)
    with pytest.raises(InvalidConditionSet):
        make_condition_set(
            2,
            1,
            [Atom("INCIDENT", 1, 1), Atom("NON_INCIDENT", 1, 1)],
        )
    with pytest.raises(InvalidConditionSet):
        make_condition_set(2, 1, [Atom("INCIDENT", 3, 1)])
    # duplicates collapse silently: the set is canonical
    conds = make_condition_set(
        2, 1, [Atom("INCIDENT", 1, 1), Atom("INCIDENT", 1, 1)]
    )
    assert len(conds.atoms) == 1


def test_marked_pair_compiles_to_three_atoms():
    instance = make_murphy_instance(incidence_data(2, 1, [(1, 1)]))
    conds = generate_conditions(instance)
    assert set(conds.atoms) == {
        Atom("DISTINCT_POINTS", 1, 2),
        Atom("INCIDENT", 1, 1),
        Atom("NON_INCIDENT", 2, 1),
    }


def test_degenerate_pair_is_gated():
    data = incidence_data(0, 2, [])
    with pytest.raises(ValueError):
        make_murphy_instance(data)
    instance = make_murphy_instance(data, allow_degenerate=True)
    conds = generate_conditions(instance)
    assert set(conds.atoms) == {Atom("DISTINCT_LINES", 1, 2)}
    pointy = make_murphy_instance(
        incidence_data(1, 1, [(1, 1)]), allow_degenerate=True
    )
    assert set(generate_conditions(pointy).atoms) == {Atom("INCIDENT", 1, 1)}


def test_fano_atom_census():
    instance = make_murphy_instance(fano_incidence())
    assert not instance.handle.materialized
    conds = generate_conditions(instance)
    census = {}
    for atom in conds.atoms:
        census[atom.kind] = census.get(atom.kind, 0) + 1
    assert census == {
        "INCIDENT": 21,
        "NON_INCIDENT": 28,
        "DISTINCT_POINTS": 21,
        "DISTINCT_LINES": 21,
    }
    assert len(conds.atoms) == 91


def test_one_atom_per_pair_and_roundtrip():
    for data in (
        incidence_data(2, 2, [(1, 1), (2, 1)]),
        incidence_data(3, 1, [(2, 1)]),
        incidence_data(1, 3, [(1, 1), (1, 3)]),
    ):
        conds = generate_conditions(make_murphy_instance(data))
        n_pairs = data.total * (data.total - 1) // 2
        assert len(conds.atoms) == n_pairs
        assert conds.incidence() == data


def test_atom_independent_of_containing_cone():
    data = incidence_data(2, 2, [(1, 1), (2, 2)])
    instance = make_murphy_instance(data)
    handle = instance.handle
    n = handle.n
    for cone in handle.fan.max_cones:
        (a, b), chain = cone_flag(handle, cone)
        canonical = _jump_counts(
            chars_for_flag(instance.datum, (a, b), _canonical_chain(n, a, b)),
            n, a, b,
        )
        here = _jump_counts(chars_for_flag(instance.datum, (a, b), chain), n, a, b)
        assert canonical == here


def test_relabeling_equivariance():
    rng = random.Random(17)
    data = incidence_data(3, 2, [(1, 1), (3, 1), (2, 2)])
    base = generate_conditions(make_murphy_instance(data))
    perm_p = list(range(1, 4))
    perm_l = list(range(1, 3))
    rng.shuffle(perm_p)
    rng.shuffle(perm_l)
    mapped = incidence_data(
        3, 2, [(perm_p[i - 1], perm_l[j - 1]) for i, j in data.pairs]
    )
    relabeled = generate_conditions(make_murphy_instance(mapped))

    def push(atom):
        if atom.kind == "INCIDENT" or atom.kind == "NON_INCIDENT":
            return Atom(atom.kind, perm_p[atom.i - 1], perm_l[atom.j - 1])
        if atom.kind == "DISTINCT_POINTS":
            i, j = sorted((perm_p[atom.i - 1], perm_p[atom.j - 1]))
            return Atom(atom.kind, i, j)
        i, j = sorted((perm_l[atom.i - 1], perm_l[atom.j - 1]))
        return Atom(atom.kind, i, j)

    assert set(relabeled.atoms) == {push(a) for a in base.atoms}


def test_audit_pairwise():
    materialized = make_murphy_instance(incidence_data(2, 2, [(1, 1)]))
    assert audit_pairwise(materialized) is None
    fano = make_murphy_instance(fano_incidence())
    assert audit_pairwise(fano) is None


def test_audit_catches_injected_cone():
    rays = [(1, 0), (0, 1), (-1, -1)]
    fan = make_fan(2, rays, [(0, 1, 2)])
    handle = MurphyFanHandle(
        n=2,
        materialized=True,
        fan=fan,
        label_by_vector={ray_vector(2, k): k for k in (1, 2, 3)},
    )
    broken = make_murphy_instance(incidence_data(2, 1, [(1, 1)]))
    injected = type(broken)(
        incidence=broken.incidence, handle=handle, datum=broken.datum
    )
    violation = audit_pairwise(injected)
    assert isinstance(violation, PairwiseViolation)
    assert violation.triple == (1, 2, 3)
    with pytest.raises(InternalAudit):
        generate_conditions(injected)


def test_all_pairs_are_cones_lazy():
    instance = make_murphy_instance(fano_incidence())
    for a, b in combinations(range(1, 15), 2):
        from toricbundles.murphy import cone_membership

        assert cone_membership(instance.handle, [a, b])


def test_conditions_json_round_trip():
    conds = generate_conditions(
        make_murphy_instance(incidence_data(2, 1, [(1, 1)]))
    )
    data = json.loads(canonical_json(conditions_to_json(conds)))
    assert data["points"] == 2 and data["lines"] == 1
    loaded = conditions_from_json(data)
    assert loaded == conds
