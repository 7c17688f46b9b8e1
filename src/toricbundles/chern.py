"""Equivariant Chern data as character multisets on maximal cones.

A datum assigns r characters to every maximal cone, compatibly: two
cones sharing a face must induce the same multiset of value vectors on
the shared rays.  The rule-based datum for the blown-up fan assigns, on
the cone of the flag ({a, b}, S_3 < ... < S_n), the three characters
that vanish on every inserted ray and take prescribed value pairs on
(rho_a, rho_b), the pairs depending only on the object types of a and b
and on whether the pair is incident.

Elementary symmetric polynomials of the characters give the Chern
classes as piecewise polynomials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import (
    ConeNotInFan,
    DimensionMismatch,
    InternalAudit,
    MaterializationTooLarge,
    NonSmoothCone,
    RayNotInFan,
)
from .intlin import solve_integer_linear
from .murphy import (
    IncidenceData,
    MurphyFanHandle,
    cone_flag,
    enumerate_flags,
    incidence_from_json,
    maximal_cone_rays,
    normalize_label,
    ray_vector,
    validate_flag,
)

RANK = 3


@dataclass(frozen=True)
class ChernDatum:
    """Explicit per-cone characters, or the incidence-driven rule.

    Explicit: cones maps tuple(sorted ray vectors) to a sorted character
    tuple.  Rule-based: characters are solved on demand per flag.
    """

    kind: str
    rank: int
    cones: dict | None = None
    incidence: IncidenceData | None = None
    n: int | None = None


def explicit_chern(rank, cone_chars):
    """Build an explicit datum from {ray vectors of cone: characters}."""
    cones = {}
    for rays, chars in cone_chars.items():
        key = tuple(sorted(tuple(int(x) for x in r) for r in rays))
        value = tuple(sorted(tuple(int(x) for x in u) for u in chars))
        if len(value) != rank:
            raise ValueError(f"expected {rank} characters on {key}")
        cones[key] = value
    return ChernDatum(kind="explicit", rank=rank, cones=cones)


def trivial_chern(fan, rank=RANK):
    zero = tuple([tuple([0] * fan.dim)] * rank)
    return ChernDatum(
        kind="explicit",
        rank=rank,
        cones={tuple(sorted(fan.cone_vectors(c))): zero for c in fan.max_cones},
    )


def value_pair_table(incidence, a, b):
    """The three value pairs on (rho_a, rho_b) for objects a and b."""
    type_a = incidence.object_type(a)
    type_b = incidence.object_type(b)
    if type_a == "point" and type_b == "point":
        return ((0, 0), (1, 0), (0, 1))
    if type_a == "line" and type_b == "line":
        return ((1, 0), (0, 1), (1, 1))
    if type_a == "point":
        if incidence.incident(a, incidence.line_number(b)):
            return ((0, 0), (0, 1), (1, 1))
        return ((1, 0), (0, 1), (0, 1))
    swapped = value_pair_table(incidence, b, a)
    return tuple((q, p) for p, q in swapped)


def murphy_chern(incidence, handle):
    """Rule-based datum for the blown-up fan of the incidence pattern."""
    n = incidence.total - 1
    if handle.n != n:
        raise DimensionMismatch(
            f"fan dimension {handle.n} but d + d' - 1 = {n}"
        )
    if n < 2:
        raise DimensionMismatch(
            "the character rule needs a pair of original rays per cone"
        )
    return ChernDatum(kind="murphy", rank=RANK, incidence=incidence, n=n)


def chars_for_flag(datum, pair, chain):
    """Sorted characters of the rule-based datum on a flag cone."""
    if datum.kind != "murphy":
        raise ValueError("flag characters only exist for rule-based data")
    n = datum.n
    (a, b), chain = validate_flag(n, pair, chain)
    rows = [list(ray_vector(n, lab)) for lab in (a, b, *chain)]
    # the dual vectors u_a, u_b take value 1 on one of rho_a, rho_b and 0
    # on every other flag ray; the pair (p, q) gives p * u_a + q * u_b
    duals = []
    for target in ([1, 0], [0, 1]):
        solved = solve_integer_linear(rows, target + [0] * len(chain))
        if not solved:
            raise NonSmoothCone(f"flag rays of {(a, b)} are not a basis")
        duals.append(solved)
    u_a, u_b = duals
    return tuple(
        sorted(
            tuple(p * x + q * y for x, y in zip(u_a, u_b))
            for p, q in value_pair_table(datum.incidence, a, b)
        )
    )


def chars_on_cone(datum, fan_or_handle, cone):
    """Characters on a maximal cone, given by its ray index tuple."""
    if datum.kind == "murphy":
        handle = fan_or_handle
        pair, chain = cone_flag(handle, cone)
        return chars_for_flag(datum, pair, chain)
    fan = fan_or_handle.fan if isinstance(fan_or_handle, MurphyFanHandle) else fan_or_handle
    key = tuple(sorted(fan.cone_vectors(cone)))
    if key not in datum.cones:
        raise ConeNotInFan(f"no characters attached to cone {key}")
    return datum.cones[key]


@dataclass(frozen=True)
class ChernViolation:
    """Two cones whose value-vector multisets differ on shared rays."""

    cone_a: tuple
    cone_b: tuple
    shared: tuple
    values_a: tuple
    values_b: tuple


def _restriction(chars, rays):
    return tuple(
        sorted(
            tuple(sum(c * x for c, x in zip(u, ray)) for ray in rays)
            for u in chars
        )
    )


def _neighbor_flag(n, pair, chain, facet):
    """The unique other flag across the facet dropping generator #facet.

    Facet 0 and 1 drop rho_a or rho_b; facet k >= 2 drops the chain
    subset of size k + 1.
    """
    a, b = pair
    sets = [frozenset(s) for s in chain]
    if facet in (0, 1):
        kept = b if facet == 0 else a
        anchor = sets[0] if sets else frozenset(range(1, n + 2))
        (replacement,) = anchor - {a, b}
        return tuple(sorted((kept, replacement))), chain
    k = facet - 2
    below = sets[k - 1] if k > 0 else frozenset(pair)
    above = sets[k + 1] if k + 1 < len(sets) else frozenset(range(1, n + 2))
    (old,) = sets[k] - below
    (new,) = above - below - {old}
    rebuilt = list(sets)
    rebuilt[k] = below | {new}
    return pair, tuple(rebuilt)


@lru_cache(maxsize=None)
def _face_positions(k):
    """Positions of the generators of every nonempty face of a k-cone."""
    return tuple(
        tuple(t for t in range(k) if mask >> t & 1) for mask in range(1, 1 << k)
    )


def _face_disagreement(fan, restrict):
    """Indices (i, j) of two maximal cones holding a common face F with
    restrict(i, F) != restrict(j, F), or None when there are none.

    Faces are sorted ray index tuples.  Every cone holding F is compared
    with the first cone holding F, so each cone is restricted once to
    each face it shares: N (2^n - 2) restrictions on a complete
    simplicial fan, where all pairs of cones would take N^2 / 2.
    """
    reference = {}
    for j, cone in enumerate(fan.max_cones):
        for positions in _face_positions(len(cone)):
            face = tuple(cone[t] for t in positions)
            first = reference.setdefault(face, [j, None])
            if first[0] != j:
                if first[1] is None:
                    first[1] = restrict(first[0], face)
                if restrict(j, face) != first[1]:
                    return first[0], j
    return None


def validate_chern(target, datum, samples=1000, seed=20260815, pairs=None):
    """None if restriction-compatible, else a ChernViolation.

    On a materialized fan every two maximal cones must induce the same
    multiset on their whole intersection.  That holds exactly when all
    cones holding a face agree on it, so each cone's values u.r (u its
    characters, r its rays) are computed once and projected to each of
    its shared faces (see _face_disagreement).  A disagreement is
    reported for its two cones on their full intersection, where their
    multisets differ as well.  A lazy handle is checked on `samples`
    random adjacent flag pairs (or on the caller's explicit flag pairs).
    """
    handle = target if isinstance(target, MurphyFanHandle) else None
    fan = handle.fan if handle is not None else target
    if fan is not None and pairs is None:
        cones = fan.max_cones
        chars = [chars_on_cone(datum, target, c) for c in cones]
        # values[j][r]: the characters of cone j evaluated on its ray r
        values = [
            {r: tuple(sum(c * x for c, x in zip(u, fan.rays[r])) for u in us)
             for r in cone}
            for cone, us in zip(cones, chars)
        ]
        pair = _face_disagreement(
            fan,
            lambda j, face: sorted(zip(*(values[j][r] for r in face))),
        )
        if pair is None:
            return None
        i, j = pair
        rays = [fan.rays[t] for t in sorted(set(cones[i]) & set(cones[j]))]
        return ChernViolation(
            cone_a=cones[i],
            cone_b=cones[j],
            shared=tuple(rays),
            values_a=_restriction(chars[i], rays),
            values_b=_restriction(chars[j], rays),
        )
    if datum.kind != "murphy":
        raise ValueError("lazy validation needs the rule-based datum")
    n = datum.n
    if pairs is None:
        rng = random.Random(seed)
        pairs = []
        for _ in range(samples):
            flag = _random_flag(n, rng)
            pairs.append((flag, _neighbor_flag(n, *flag, rng.randrange(n))))
    for flag_a, flag_b in pairs:
        rays_a = maximal_cone_rays(
            handle or MurphyFanHandle(n=n, materialized=False), *flag_a
        )
        rays_b = maximal_cone_rays(
            handle or MurphyFanHandle(n=n, materialized=False), *flag_b
        )
        shared = sorted(set(rays_a) & set(rays_b))
        if not shared:
            continue
        va = _restriction(chars_for_flag(datum, *flag_a), shared)
        vb = _restriction(chars_for_flag(datum, *flag_b), shared)
        if va != vb:
            return ChernViolation(
                cone_a=flag_a,
                cone_b=flag_b,
                shared=tuple(shared),
                values_a=va,
                values_b=vb,
            )
    return None


def _random_flag(n, rng):
    universe = list(range(1, n + 2))
    rng.shuffle(universe)
    chain = tuple(frozenset(universe[:k]) for k in range(3, n + 1))
    pair = tuple(sorted(universe[:2]))
    return pair, chain


def _label_of_vector(n, vector):
    vector = tuple(int(x) for x in vector)
    if len(vector) != n:
        raise RayNotInFan(f"{vector} has wrong dimension")
    values = set(vector)
    if values == {0}:
        raise RayNotInFan("the zero vector is not a ray")
    if values <= {0, 1}:
        s = {i + 1 for i, x in enumerate(vector) if x == 1}
    elif values <= {-1, 0}:
        s = {i + 1 for i, x in enumerate(vector) if x == 0} | {n + 1}
    else:
        raise RayNotInFan(f"{vector} is not a ray of the blown-up fan")
    label = next(iter(s)) if len(s) == 1 else frozenset(s)
    try:
        normalize_label(n, label)
    except Exception:
        raise RayNotInFan(f"{vector} is not a ray of the blown-up fan") from None
    if ray_vector(n, label) != vector:
        raise RayNotInFan(f"{vector} is not a ray of the blown-up fan")
    return label


def _flag_through_label(n, label):
    """Some flag whose cone contains the labeled ray."""
    universe = list(range(1, n + 2))
    if isinstance(label, int):
        start = [label] + [x for x in universe if x != label]
    else:
        inside = sorted(label)
        start = inside + [x for x in universe if x not in label]
    chain = tuple(frozenset(start[:k]) for k in range(3, n + 1))
    pair = tuple(sorted(start[:2]))
    return pair, chain


def filtration_signature(datum, target, ray):
    """Jump positions and dimensions of the filtration a datum forces.

    Returns the list of (jump, dimension from that jump on); the full
    space is implicit below the first listed jump.
    """
    if datum.kind == "murphy":
        n = datum.n
        if isinstance(ray, (tuple, list)):
            label = _label_of_vector(n, ray)
        else:
            label = ray
        label = normalize_label(n, label)
        vector = ray_vector(n, label)
        chars = chars_for_flag(datum, *_flag_through_label(n, label))
    else:
        fan = target.fan if isinstance(target, MurphyFanHandle) else target
        index = fan.ray_index(ray)
        vector = fan.rays[index]
        cone = next(c for c in fan.max_cones if index in c)
        chars = chars_on_cone(datum, fan, cone)
    values = sorted(sum(c * x for c, x in zip(u, vector)) for u in chars)
    signature = []
    for v in sorted(set(values)):
        jump = v + 1
        signature.append((jump, sum(1 for w in values if w >= jump)))
    return signature


def chern_to_json(datum):
    if datum.kind == "murphy":
        return {"rule": "murphy", "incidence": datum.incidence.to_json()}
    return {
        "rank": datum.rank,
        "cones": [
            {"rays": [list(r) for r in key], "chars": [list(u) for u in chars]}
            for key, chars in sorted(datum.cones.items())
        ],
    }


def chern_from_json(data):
    if data.get("rule") == "murphy":
        incidence = incidence_from_json(data["incidence"])
        handle = MurphyFanHandle(n=incidence.total - 1, materialized=False)
        return murphy_chern(incidence, handle)
    cone_chars = {
        tuple(tuple(r) for r in entry["rays"]): entry["chars"]
        for entry in data["cones"]
    }
    return explicit_chern(int(data["rank"]), cone_chars)


def _poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
            if out[e] == 0:
                del out[e]
    return out


def _linear_poly(u):
    out = {}
    for j, c in enumerate(u):
        if c != 0:
            e = tuple(1 if t == j else 0 for t in range(len(u)))
            out[e] = c
    return out


def _elementary_symmetric(chars, i, nvars):
    total = {}
    for subset in combinations(chars, i):
        term = {tuple([0] * nvars): 1}
        for u in subset:
            term = _poly_mul(term, _linear_poly(u))
        total = _poly_add(total, term)
    return total


def _canonical_poly(p):
    return tuple(sorted(p.items()))


def _poly_substitute(p, vectors, nparams):
    """p after the substitution x = sum_k t_k * vectors[k]."""
    forms = []
    nvars = len(vectors[0]) if vectors else 0
    for j in range(nvars):
        forms.append(
            {
                tuple(1 if t == k else 0 for t in range(nparams)): vectors[k][j]
                for k in range(nparams)
                if vectors[k][j] != 0
            }
        )
    out = {}
    for exps, coeff in p.items():
        term = {tuple([0] * nparams): coeff}
        for j, e in enumerate(exps):
            for _ in range(e):
                term = _poly_mul(term, forms[j])
        out = _poly_add(out, term)
    return out


@dataclass(frozen=True)
class PiecewisePolynomial:
    """One integer polynomial per maximal cone, agreeing on shared faces.

    Each polynomial is a sorted tuple of (exponent tuple, coefficient).
    """

    nvars: int
    degree: int
    polys: tuple


def chern_polynomial(datum, target, i):
    """The i-th elementary symmetric class as a piecewise polynomial.

    The datum must pass validate_chern.  As an audit of the polynomial
    arithmetic, the polynomials of all cones holding a face must then
    restrict to the same polynomial on it; each cone's polynomial is
    substituted once per shared face (see _face_disagreement).
    """
    if not 1 <= i <= datum.rank:
        raise ValueError(f"index {i} outside 1..{datum.rank}")
    handle = target if isinstance(target, MurphyFanHandle) else None
    fan = handle.fan if handle is not None else target
    if fan is None:
        raise MaterializationTooLarge(
            "piecewise polynomials need a materialized fan"
        )
    violation = validate_chern(target, datum)
    if violation is not None:
        raise InternalAudit(f"datum is not restriction-compatible: {violation}")
    source = handle if handle is not None else fan
    polys = []
    per_cone = []
    for cone in fan.max_cones:
        chars = chars_on_cone(datum, source, cone)
        p = _elementary_symmetric(chars, i, fan.dim)
        per_cone.append(p)
        polys.append(_canonical_poly(p))
    mismatch = _face_disagreement(
        fan,
        lambda j, face: _poly_substitute(
            per_cone[j], [fan.rays[t] for t in face], len(face)
        ),
    )
    if mismatch is not None:
        a, b = mismatch
        raise InternalAudit(f"face disagreement between cones {a} and {b}")
    return PiecewisePolynomial(nvars=fan.dim, degree=i, polys=tuple(polys))


def evaluate_polynomial(poly, point):
    """Evaluate a canonical (exponents, coefficient) tuple at a point."""
    total = 0
    for exps, coeff in poly:
        term = coeff
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total
