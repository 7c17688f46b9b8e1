"""Simplicial rational polyhedral fans with exact arithmetic.

A Fan stores a shared primitive ray table plus maximal cones as tuples of
ray indices.  Only simplicial fans are representable: every maximal cone
must have linearly independent generators, so each face is named by a
subset of ray indices.  Rays are lexicographically sorted and cones are
sorted index tuples, making equal fans compare equal structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import json_object, json_rows
from .errors import (
    ConeNotInFan,
    NonSmoothCone,
    NotStronglyConvex,
    RayNotInFan,
)
from .intlin import (
    fm_feasible,
    primitive,
    rank,
    smith_normal_form,
    solve_rational,
    vec_gcd,
)


@dataclass(frozen=True)
class Cone:
    """A strongly convex cone given by primitive, irredundant generators.

    Instances should be built through make_cone, which canonicalizes and
    validates the generator list.
    """

    generators: tuple

    @property
    def dim(self):
        return rank(list(self.generators)) if self.generators else 0

    @property
    def ambient_dim(self):
        return len(self.generators[0]) if self.generators else 0


def cone_contains(generators, point):
    """Exact membership of a rational point in the cone of `generators`."""
    gens = list(generators)
    if not gens:
        return all(x == 0 for x in point)
    n = len(gens[0])
    k = len(gens)
    # Feasibility of sum(lam_i g_i) = point with lam >= 0.
    eqs = [(tuple(g[c] for g in gens), point[c]) for c in range(n)]
    ineqs = [(tuple(1 if i == j else 0 for j in range(k)), 0) for i in range(k)]
    return fm_feasible(eqs, ineqs, k)


def make_cone(vectors):
    """Build a Cone from integer generators.

    Generators are scaled to primitive vectors, deduplicated, and redundant
    ones removed.  Raises NotStronglyConvex when the positive hull contains
    a line, ValueError on zero vectors or mixed dimensions.
    """
    vecs = [tuple(int(x) for x in v) for v in vectors]
    if not vecs:
        return Cone(generators=())
    n = len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise ValueError("generators of mixed dimension")
    prim = []
    for v in vecs:
        p = primitive(v)
        if p not in prim:
            prim.append(p)
    # Strong convexity: no nonzero nonnegative combination vanishes.
    k = len(prim)
    eqs = [(tuple(g[c] for g in prim), 0) for c in range(n)]
    eqs.append((tuple(1 for _ in range(k)), 1))
    ineqs = [(tuple(1 if i == j else 0 for j in range(k)), 0) for i in range(k)]
    if fm_feasible(eqs, ineqs, k):
        raise NotStronglyConvex(f"generators {prim} span a non-pointed cone")
    kept = list(prim)
    for v in list(kept):
        rest = [w for w in kept if w != v]
        if cone_contains(rest, v):
            kept = rest
    return Cone(generators=tuple(sorted(kept)))


@dataclass(frozen=True)
class Fan:
    """Simplicial fan: primitive ray table plus maximal cones by index."""

    dim: int
    rays: tuple
    max_cones: tuple

    def cone_vectors(self, cone):
        return tuple(self.rays[i] for i in cone)

    def ray_index(self, vector):
        vec = tuple(int(x) for x in vector)
        try:
            return self.rays.index(vec)
        except ValueError:
            raise RayNotInFan(f"{vec} is not a ray of the fan") from None


def make_fan(dim, rays, max_cones):
    """Canonicalize ray order and cone lists into a Fan."""
    rays = [tuple(int(x) for x in r) for r in rays]
    if any(len(r) != dim for r in rays):
        raise ValueError("ray of wrong dimension")
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate rays")
    if any(not 0 <= i < len(rays) for cone in max_cones for i in cone):
        raise ValueError("cone references a missing ray")
    order = sorted(range(len(rays)), key=lambda i: rays[i])
    remap = {old: new for new, old in enumerate(order)}
    sorted_rays = tuple(rays[i] for i in order)
    cones = sorted({tuple(sorted(remap[i] for i in set(cone))) for cone in max_cones})
    return Fan(dim=dim, rays=sorted_rays, max_cones=tuple(cones))


@dataclass(frozen=True)
class FanViolation:
    """Report describing why a candidate fan is invalid."""

    code: str
    detail: str


def _separating_functional_exists(fan, cone_a, cone_b):
    """Whether some u >= 0 on cone_a, <= 0 on cone_b vanishes exactly on
    the shared rays.  For simplicial cones this is equivalent to their
    intersection being a common face spanned by the shared rays."""
    shared = set(cone_a) & set(cone_b)
    n = fan.dim
    eqs = [(fan.rays[i], 0) for i in sorted(shared)]
    ineqs = [(fan.rays[i], 1) for i in cone_a if i not in shared]
    ineqs += [
        (tuple(-x for x in fan.rays[i]), 1) for i in cone_b if i not in shared
    ]
    return fm_feasible(eqs, ineqs, n)


def validate_fan(fan):
    """None when `fan` is a valid simplicial fan, else a FanViolation."""
    for ray in fan.rays:
        if len(ray) != fan.dim:
            return FanViolation("ray_dim", f"ray {ray} has wrong dimension")
        if vec_gcd(ray) != 1:
            return FanViolation("ray_not_primitive", f"ray {ray}")
    if len(set(fan.rays)) != len(fan.rays):
        return FanViolation("duplicate_rays", "ray table has duplicates")
    seen = set()
    for cone in fan.max_cones:
        if any(not 0 <= i < len(fan.rays) for i in cone):
            return FanViolation("bad_index", f"cone {cone}")
        if tuple(sorted(set(cone))) != cone:
            return FanViolation("cone_not_canonical", f"cone {cone}")
        if cone in seen:
            return FanViolation("duplicate_cone", f"cone {cone}")
        seen.add(cone)
        if cone and rank([list(fan.rays[i]) for i in cone]) != len(cone):
            return FanViolation(
                "not_simplicial", f"cone {cone} has dependent generators"
            )
    cones = fan.max_cones
    for a in range(len(cones)):
        for b in range(a + 1, len(cones)):
            sa, sb = set(cones[a]), set(cones[b])
            if sa <= sb or sb <= sa:
                return FanViolation(
                    "nested_maximal_cones", f"cones {cones[a]} and {cones[b]}"
                )
            if not _separating_functional_exists(fan, cones[a], cones[b]):
                return FanViolation(
                    "intersection_not_face",
                    f"cones {cones[a]} and {cones[b]} overlap badly",
                )
    return None


def projective_fan(n):
    """The complete smooth fan with rays e_1..e_n and -(e_1+...+e_n)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = []
    for omit in range(n + 1):
        cones.append(tuple(i for i in range(n + 1) if i != omit))
    return make_fan(n, rays, cones)


def cone_in_fan(fan, indices):
    """Whether the index set names a face of some maximal cone."""
    s = set(indices)
    return any(s <= set(c) for c in fan.max_cones)


def _is_unimodular(vectors):
    factors = smith_normal_form([list(v) for v in vectors])
    return len(factors) == len(vectors) and all(f == 1 for f in factors)


def resolve_cone(fan, cone):
    """Normalize a cone argument (Cone or index iterable) to index tuple."""
    if isinstance(cone, Cone):
        indices = tuple(fan.ray_index(g) for g in cone.generators)
    else:
        indices = tuple(int(i) for i in cone)
        for i in indices:
            if not 0 <= i < len(fan.rays):
                raise RayNotInFan(f"index {i} out of range")
    indices = tuple(sorted(set(indices)))
    if not cone_in_fan(fan, indices):
        raise ConeNotInFan(f"{indices} is not a cone of the fan")
    return indices


def star_subdivide(fan, cone):
    """Stellar subdivision at the ray sum of a smooth cone of the fan.

    The new ray is the sum of the cone's primitive generators.  Every
    maximal cone containing the cone is replaced by the cones obtained by
    swapping one of its generators for the new ray; everything else is
    untouched, so all proper faces of the subdivided cone survive.
    """
    indices = resolve_cone(fan, cone)
    if len(indices) < 2:
        raise ValueError("star subdivision needs a cone of dimension >= 2")
    vectors = [fan.rays[i] for i in indices]
    if not _is_unimodular(vectors):
        raise NonSmoothCone(f"cone {indices} is not smooth")
    new_ray = tuple(sum(col) for col in zip(*vectors))
    if new_ray in fan.rays:
        raise ValueError(f"subdivision ray {new_ray} already present")
    rays = list(fan.rays) + [new_ray]
    new_index = len(fan.rays)
    target = set(indices)
    cones = []
    for c in fan.max_cones:
        if target <= set(c):
            for drop in indices:
                cones.append(tuple(sorted((set(c) - {drop}) | {new_index})))
        else:
            cones.append(c)
    return make_fan(fan.dim, rays, cones)


def is_smooth(fan):
    """Whether every maximal cone's generators extend to a lattice basis."""
    return all(
        _is_unimodular(fan.cone_vectors(c)) for c in fan.max_cones if c
    )


def is_complete(fan):
    """Ridge-counting completeness test for a valid pure simplicial fan.

    True iff every maximal cone is full-dimensional, every ridge (codim-1
    face) lies in exactly two maximal cones, and the ridge-adjacency graph
    on maximal cones is connected.
    """
    n = fan.dim
    cones = fan.max_cones
    if not cones or any(len(c) != n for c in cones):
        return False
    ridge_members = {}
    for idx, c in enumerate(cones):
        for drop in c:
            ridge = tuple(i for i in c if i != drop)
            ridge_members.setdefault(ridge, []).append(idx)
    if any(len(v) != 2 for v in ridge_members.values()):
        return False
    adj = {i: set() for i in range(len(cones))}
    for a, b in ridge_members.values():
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(cones)


def cone_containing_point(fan, point):
    """Index of some maximal cone containing the rational point, or None.

    Maximal cones must be full-dimensional and simplicial, so membership
    reduces to the sign pattern of exact barycentric coordinates.
    """
    point = [Fraction(x) for x in point]
    for idx, c in enumerate(fan.max_cones):
        if len(c) != fan.dim:
            continue
        cols = [fan.rays[i] for i in c]
        a = [[cols[j][r] for j in range(len(c))] for r in range(fan.dim)]
        lam = solve_rational(a, point)
        if lam is not None and all(x >= 0 for x in lam):
            return idx
    return None


def fan_to_json(fan):
    return {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def fan_from_json(data):
    """Fan from {"dim": n, "rays": [[...], ...], "max_cones": [[...], ...]}.

    Raises ValueError with a one-line reason on anything else: a missing
    key, the lazy cone list, or a dimension, ray coordinate or cone index
    that is not an integer (booleans included).
    """
    json_object(data, "fan", ("dim", "rays", "max_cones"))
    if data["max_cones"] == "lazy":
        raise ValueError("lazy fan JSON carries no cone list to load")
    dim = data["dim"]
    if type(dim) is not int or dim < 0:
        raise ValueError(f"fan JSON: dim must be a nonnegative integer, got {dim!r}")
    json_rows(data["rays"], "fan", "rays", "ray coordinate")
    json_rows(data["max_cones"], "fan", "max_cones", "cone index")
    return make_fan(dim, data["rays"], data["max_cones"])
