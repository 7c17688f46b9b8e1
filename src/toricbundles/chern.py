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
from typing import ClassVar

from . import json_count, json_object, json_rows
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
    incidence_from_json,
    maximal_cone_rays,
    normalize_label,
    ray_vector,
    validate_flag,
)

RANK = 3


def _fan_of(target):
    """The materialized fan of a fan or handle; None for a lazy handle."""
    return target.fan if isinstance(target, MurphyFanHandle) else target


@dataclass(frozen=True)
class ExplicitChern:
    """Characters listed per maximal cone.

    cones maps tuple(sorted ray vectors) to a sorted tuple of `rank`
    characters.
    """

    rank: int
    cones: dict

    def chars_on(self, target, cone):
        key = tuple(sorted(_fan_of(target).cone_vectors(cone)))
        if key not in self.cones:
            raise ConeNotInFan(f"no characters attached to cone {key}")
        return self.cones[key]

    def ray_chars(self, target, ray):
        """The ray's vector and the characters of a maximal cone holding it."""
        if target is None:
            raise ValueError("an explicit character datum needs a fan")
        fan = _fan_of(target)
        index = fan.ray_index(ray)
        cone = next(c for c in fan.max_cones if index in c)
        return fan.rays[index], self.chars_on(fan, cone)

    def to_json(self):
        return {
            "rank": self.rank,
            "cones": [
                {"rays": [list(r) for r in key], "chars": [list(u) for u in chars]}
                for key, chars in sorted(self.cones.items())
            ],
        }


@dataclass(frozen=True)
class MurphyChern:
    """The incidence-driven rule on the blown-up fan of dimension n.

    Characters are solved on demand per flag (chars_for_flag).
    """

    incidence: IncidenceData
    rank: ClassVar[int] = RANK

    @property
    def n(self):
        return self.incidence.total - 1

    def chars_on(self, handle, cone):
        return chars_for_flag(self, *cone_flag(handle, cone))

    def ray_chars(self, target, ray):
        """The ray's vector and the characters of a flag cone holding it.

        The ray is a label or a vector; the fan is never consulted.
        """
        n = self.n
        label = _label_of_vector(n, ray) if isinstance(ray, (tuple, list)) else ray
        label = normalize_label(n, label)
        return ray_vector(n, label), chars_for_flag(
            self, *_flag_through_label(n, label)
        )

    def to_json(self):
        return {"rule": "murphy", "incidence": self.incidence.to_json()}


def explicit_chern(rank, cone_chars):
    """Build an explicit datum from {ray vectors of cone: characters}."""
    cones = {}
    for rays, chars in cone_chars.items():
        key = tuple(sorted(tuple(int(x) for x in r) for r in rays))
        value = tuple(sorted(tuple(int(x) for x in u) for u in chars))
        if len(value) != rank:
            raise ValueError(f"expected {rank} characters on {key}")
        cones[key] = value
    return ExplicitChern(rank=rank, cones=cones)


def trivial_chern(fan, rank=RANK):
    zero = [[0] * fan.dim] * rank
    return explicit_chern(rank, {fan.cone_vectors(c): zero for c in fan.max_cones})


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
    return MurphyChern(incidence=incidence)


def chars_for_flag(datum, pair, chain):
    """Sorted characters of the rule-based datum on a flag cone."""
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
    """Characters on a maximal cone, given by its ray index tuple.

    The rule-based datum needs the handle, which names cones by flags.
    """
    return datum.chars_on(fan_or_handle, cone)


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


def validate_chern(target, datum, samples=1000):
    """None if restriction-compatible, else a ChernViolation.

    On a materialized fan every two maximal cones must induce the same
    multiset on their whole intersection.  That holds exactly when all
    cones holding a face agree on it, so each cone's values u.r (u its
    characters, r its rays) are computed once and projected to each of
    its faces, and every cone holding a face is compared with the first
    one: N (2^n - 1) projections on a complete simplicial fan, where all
    pairs of cones would take N^2 / 2.  A disagreement is reported for
    its two cones on their full intersection, where their multisets
    differ as well.  A lazy handle (rule-based data only) is checked on
    `samples` random flags, each against its neighbour across a random
    facet.
    """
    fan = _fan_of(target)
    if fan is not None:
        cones = fan.max_cones
        chars = [datum.chars_on(target, c) for c in cones]
        # values[j][r]: the characters of cone j evaluated on its ray r
        values = [
            {r: tuple(sum(c * x for c, x in zip(u, fan.rays[r])) for u in us)
             for r in cone}
            for cone, us in zip(cones, chars)
        ]
        first = {}  # face -> (first cone holding it, its multiset there)
        for j, cone in enumerate(cones):
            for positions in _face_positions(len(cone)):
                face = tuple(cone[t] for t in positions)
                multiset = sorted(zip(*(values[j][r] for r in face)))
                i, expected = first.setdefault(face, (j, multiset))
                if multiset != expected:
                    rays = [fan.rays[t] for t in sorted(set(cones[i]) & set(cone))]
                    return ChernViolation(
                        cone_a=cones[i],
                        cone_b=cone,
                        shared=tuple(rays),
                        values_a=_restriction(chars[i], rays),
                        values_b=_restriction(chars[j], rays),
                    )
        return None
    n = datum.n
    rng = random.Random(20260815)
    for _ in range(samples):
        flag_a = _random_flag(n, rng)
        flag_b = _neighbor_flag(n, *flag_a, rng.randrange(n))
        # neighbours across a facet share its n - 1 rays
        shared = sorted(
            set(maximal_cone_rays(target, *flag_a))
            & set(maximal_cone_rays(target, *flag_b))
        )
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
    space is implicit below the first listed jump.  Rule-based data read
    the ray as a label or a vector and ignore target; explicit data need
    the fan.
    """
    vector, chars = datum.ray_chars(target, ray)
    values = sorted(sum(c * x for c, x in zip(u, vector)) for u in chars)
    signature = []
    for v in sorted(set(values)):
        jump = v + 1
        signature.append((jump, sum(1 for w in values if w >= jump)))
    return signature


def chern_from_json(data):
    """Datum from {"rule": "murphy", "incidence": {...}} or from
    {"rank": r, "cones": [{"rays": [[...], ...], "chars": [[...], ...]}]}.

    Raises ValueError with a one-line reason on anything else: a missing
    key, an unknown rule, a rank, ray coordinate or character coordinate
    that is not an integer (booleans included), or a cone entry that is
    not an object with rays and chars.
    """
    json_object(data, "character datum", ())
    if "rule" in data:
        if data["rule"] != "murphy":
            raise ValueError(f"character datum JSON: unknown rule {data['rule']!r}")
        json_object(data, "character datum", ("incidence",))
        incidence = incidence_from_json(data["incidence"])
        handle = MurphyFanHandle(n=incidence.total - 1, materialized=False)
        return murphy_chern(incidence, handle)
    json_object(data, "character datum", ("rank", "cones"))
    rank = json_count(data["rank"], "character datum", "rank")
    entries = data["cones"]
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and "rays" in e and "chars" in e for e in entries
    ):
        raise ValueError(
            "character datum JSON: cones must be a list of objects with rays and chars"
        )
    for entry in entries:
        json_rows(entry["rays"], "character datum", "rays", "ray coordinate")
        json_rows(entry["chars"], "character datum", "chars", "character coordinate")
    cone_chars = {tuple(tuple(r) for r in e["rays"]): e["chars"] for e in entries}
    return explicit_chern(rank, cone_chars)


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

    The datum must pass validate_chern.  Each cone's characters are
    computed once and validated as an explicit datum.  No check of the
    polynomials follows: restricting e_i of a cone's characters to a
    face gives e_i of the restricted characters, so cones that agree on
    a face as multisets agree there as polynomials.
    """
    if not 1 <= i <= datum.rank:
        raise ValueError(f"index {i} outside 1..{datum.rank}")
    fan = _fan_of(target)
    if fan is None:
        raise MaterializationTooLarge(
            "piecewise polynomials need a materialized fan"
        )
    chars = [datum.chars_on(target, c) for c in fan.max_cones]
    table = dict(zip(map(fan.cone_vectors, fan.max_cones), chars))
    violation = validate_chern(fan, explicit_chern(datum.rank, table))
    if violation is not None:
        raise InternalAudit(f"datum is not restriction-compatible: {violation}")
    polys = tuple(
        tuple(sorted(_elementary_symmetric(u, i, fan.dim).items())) for u in chars
    )
    return PiecewisePolynomial(nvars=fan.dim, degree=i, polys=polys)


def evaluate_polynomial(poly, point):
    """Evaluate a canonical (exponents, coefficient) tuple at a point."""
    total = 0
    for exps, coeff in poly:
        term = coeff
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total
