"""Filtration data for equivariant bundles and the per-cone splitting test.

A bundle of rank r is described by a decreasing filtration of k^r for
every ray.  On each maximal cone, the dimensions of the intersections
dim(E^{r_1}(j_1) cap ... cap E^{r_n}(j_n)) are differenced to recover
the candidate character multiset u(sigma), and a common splitting basis
is then built constructively.  Both failure modes are reported: a
negative mixed difference, and the basis construction (or final span
verification) failing.

The membership convention is <u, rho> >= j throughout: a character u
contributes to E^rho(j) exactly when its value on the ray clears the
jump.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from . import json_count, json_object
from .errors import InternalAudit, NonSmoothCone, RayNotInFan, ToricError
from .fields import field_from_tag, rref, span_contains, subspace_intersect
from .intlin import solve_integer_linear
from .murphy import all_labels, ray_vector


@dataclass(frozen=True)
class Filtration:
    """Rank, working field, and per-ray jump steps.

    steps maps a ray vector to a tuple of (jump, rref basis) pairs with
    strictly increasing jumps and strictly decreasing nested subspaces;
    the full space is implicit below the first jump and the final listed
    subspace is always the zero subspace.
    """

    rank: int
    field: object
    steps: dict = dc_field(repr=False, default_factory=dict)

    def rays(self):
        return tuple(self.steps)

    def subspace_at(self, ray, j):
        """Basis of E^ray(j); None stands for the full space."""
        ray = tuple(int(x) for x in ray)
        if ray not in self.steps:
            raise RayNotInFan(f"no filtration attached to ray {ray}")
        current = None
        for jump, basis in self.steps[ray]:
            if j >= jump:
                current = basis
            else:
                break
        return current

    def dimension_at(self, ray, j):
        basis = self.subspace_at(ray, j)
        return self.rank if basis is None else len(basis)


def _canonical_steps(rank, fld, pairs):
    cleaned = []
    for jump, basis in pairs:
        jump = int(jump)
        basis = rref([[fld.coerce(x) for x in row] for row in basis], fld)
        if any(len(row) != rank for row in basis):
            raise ValueError("basis vector of wrong length")
        cleaned.append((jump, basis))
    cleaned.sort(key=lambda p: p[0])
    if len({j for j, _ in cleaned}) != len(cleaned):
        raise ValueError("repeated jump values")
    # a listed full space is the same as the implicit one below it
    while cleaned and len(cleaned[0][1]) == rank:
        cleaned.pop(0)
    dims = [len(b) for _, b in cleaned]
    if any(d <= e for d, e in zip(dims, dims[1:])):
        raise ValueError("subspace dimensions must strictly decrease")
    for (_, big), (_, small) in zip(cleaned, cleaned[1:]):
        if not all(span_contains(big, v, fld) for v in small):
            raise ValueError("filtration subspaces must be nested")
    if not cleaned:
        raise ValueError("a filtration must eventually reach zero")
    if cleaned[-1][1]:
        cleaned.append((cleaned[-1][0] + 1, ()))
    return tuple(cleaned)


def make_filtration(rank, fld, ray_steps):
    """Build a Filtration from {ray vector: [(jump, basis rows), ...]}."""
    steps = {}
    for ray, pairs in ray_steps.items():
        ray = tuple(int(x) for x in ray)
        steps[ray] = _canonical_steps(rank, fld, pairs)
    return Filtration(rank=rank, field=fld, steps=steps)


def trivial_filtration(rank, fld, fan):
    """Full space below jump 1, zero from jump 1 on, for every ray."""
    return make_filtration(rank, fld, {r: [(1, ())] for r in fan.rays})


def murphy_filtration(n, subspaces, fld):
    """Forced filtrations on the blown-up fan from object subspaces.

    subspaces maps each object index 1..n+1 to a basis (list of rows) of
    its subspace of k^r; the ray of object i jumps to that subspace at 1
    and to zero at 2, while every inserted ray carries the trivial
    filtration.
    """
    widths = {len(row) for basis in subspaces.values() for row in basis}
    if len(widths) != 1:
        raise ValueError("object subspaces live in different spaces")
    rank = widths.pop()
    ray_steps = {}
    for label in all_labels(n):
        vec = ray_vector(n, label)
        if isinstance(label, int):
            ray_steps[vec] = [(1, tuple(map(tuple, subspaces[label])))]
        else:
            ray_steps[vec] = [(1, ())]
    return make_filtration(rank, fld, ray_steps)


def _ray_id(ray):
    return ",".join(str(int(x)) for x in ray)


def _parse_ray_id(s):
    return tuple(int(x) for x in s.split(","))


def filtration_to_json(filt):
    fld = filt.field
    rays = {}
    for ray, steps in sorted(filt.steps.items()):
        rays[_ray_id(ray)] = [
            {"jump": j, "basis": [[fld.format(x) for x in row] for row in basis]}
            for j, basis in steps
        ]
    return {"rank": filt.rank, "field": fld.tag, "rays": rays}


def filtration_from_json(data):
    """Filtration from {"rank": r, "field": tag, "rays": {"a,b,...": steps}},
    each step {"jump": j, "basis": rows of field elements}.

    Raises ValueError with a one-line reason on anything else: a missing
    key, a rank or jump that is not an integer (booleans included), a
    ray key that is not comma-joined integers, a step that is not an
    object with jump and basis, or a basis entry that is neither an
    integer nor a string.
    """
    json_object(data, "filtration", ("rank", "field", "rays"))
    rank = json_count(data["rank"], "filtration", "rank")
    if not isinstance(data["rays"], dict):
        raise ValueError("filtration JSON: rays must be an object keyed by ray")
    ray_steps = {}
    for ray_id, steps in data["rays"].items():
        try:
            ray = _parse_ray_id(ray_id)
        except ValueError:
            raise ValueError(
                f"filtration JSON: ray key {ray_id!r} is not comma-joined integers"
            ) from None
        if not isinstance(steps, list) or not all(
            isinstance(s, dict) and "jump" in s and "basis" in s for s in steps
        ):
            raise ValueError(f"filtration JSON: the steps of ray {ray_id} must be "
                             "a list of objects with jump and basis")
        ray_steps[ray] = [(s["jump"], s["basis"]) for s in steps]
        for jump, basis in ray_steps[ray]:
            if type(jump) is not int:
                raise ValueError(
                    f"filtration JSON: a jump must be an integer, got {jump!r}"
                )
            if not isinstance(basis, list) or not all(
                isinstance(row, list) and all(type(x) in (int, str) for x in row)
                for row in basis
            ):
                raise ValueError("filtration JSON: a basis must be rows of integers "
                                 f"or strings, got {basis!r}")
    try:
        return make_filtration(rank, field_from_tag(data["field"]), ray_steps)
    except (ToricError, ValueError) as exc:
        raise ValueError(f"filtration JSON: {exc}") from None


@dataclass(frozen=True)
class CharacterAssignment:
    """Per maximal cone: sorted character multiset and a splitting basis.

    characters[k][t] is the t-th character on fan.max_cones[k], and
    bases[k][t] a vector spanning its line, so that every filtration
    subspace is the span of the basis vectors whose character clears the
    jump on the ray.
    """

    rank: int
    characters: tuple
    bases: tuple

    def on_cone(self, k):
        return self.characters[k]


@dataclass(frozen=True)
class Incompatible:
    """Falsy witness: the offending cone, grid cell, and failure kind."""

    cone: tuple
    cell: tuple | None
    reason: str
    detail: str = ""

    def __bool__(self):
        return False


def _grid_dimension(filt, cone_rays, point, cache):
    key = tuple(point)
    if key in cache:
        return cache[key]
    basis = None
    for ray, j in zip(cone_rays, point):
        sub = filt.subspace_at(ray, j)
        if sub is None:
            continue
        basis = sub if basis is None else subspace_intersect(basis, sub, filt.field)
        if not basis:
            break
    dim = filt.rank if basis is None else len(basis)
    cache[key] = dim
    return dim


def _subspace_basis(filt, cone_rays, point):
    basis = None
    for ray, j in zip(cone_rays, point):
        sub = filt.subspace_at(ray, j)
        if sub is None:
            continue
        basis = sub if basis is None else subspace_intersect(basis, sub, filt.field)
    if basis is None:
        fld = filt.field
        basis = rref(
            [
                [fld.one if i == j else fld.zero for j in range(filt.rank)]
                for i in range(filt.rank)
            ],
            fld,
        )
    return basis


def _check_cone(filt, fan, cone):
    """Candidate multiset and splitting basis for one maximal cone."""
    fld = filt.field
    cone_rays = [fan.rays[i] for i in cone]
    levels = []
    for ray in cone_rays:
        if ray not in filt.steps:
            raise RayNotInFan(f"no filtration attached to ray {ray}")
        levels.append([j - 1 for j, _ in filt.steps[ray]])
    cache = {}
    candidates = []
    for cell in product(*levels):
        mult = 0
        for eps in product((0, 1), repeat=len(cell)):
            corner = tuple(c + e for c, e in zip(cell, eps))
            sign = -1 if sum(eps) % 2 else 1
            mult += sign * _grid_dimension(filt, cone_rays, corner, cache)
        if mult < 0:
            return Incompatible(
                cone=tuple(cone),
                cell=cell,
                reason="negative_multiplicity",
                detail=f"mixed difference {mult}",
            )
        if mult > 0:
            candidates.append((cell, mult))
    total = sum(m for _, m in candidates)
    if total != filt.rank:
        raise InternalAudit(
            f"differencing must conserve the rank: {total} != {filt.rank}"
        )

    rows = [list(r) for r in cone_rays]
    chars = {}
    for cell, mult in candidates:
        solved = solve_integer_linear(rows, list(cell))
        if not solved:
            raise NonSmoothCone(
                f"cone {tuple(cone)} rays do not form a lattice basis"
            )
        chars[cell] = tuple(solved)

    # deepest cells first: any extension step then stays extendable
    order = sorted(
        candidates,
        key=lambda cm: (len(_subspace_basis(filt, cone_rays, cm[0])), -sum(cm[0]), cm[0]),
    )
    chosen = []
    labeled = []
    for cell, mult in order:
        pool = _subspace_basis(filt, cone_rays, cell)
        for _ in range(mult):
            span = rref(chosen, fld)
            pick = next(
                (v for v in pool if not span_contains(span, v, fld)), None
            )
            if pick is None:
                return Incompatible(
                    cone=tuple(cone),
                    cell=cell,
                    reason="basis_construction",
                    detail="no independent vector in the required intersection",
                )
            chosen.append(tuple(pick))
            labeled.append((cell, tuple(pick)))

    for i, ray in enumerate(cone_rays):
        for jump, basis in filt.steps[ray]:
            selected = [v for cell, v in labeled if cell[i] >= jump]
            if rref(selected, fld) != basis:
                return Incompatible(
                    cone=tuple(cone),
                    cell=None,
                    reason="span_mismatch",
                    detail=f"ray {ray} at jump {jump}",
                )

    ordered = sorted(zip((chars[c] for c, _ in labeled), (v for _, v in labeled)))
    return (
        tuple(u for u, _ in ordered),
        tuple(v for _, v in ordered),
    )


def check_compatibility(fan, filt):
    """CharacterAssignment on success, falsy Incompatible otherwise."""
    per_cone_chars = []
    per_cone_bases = []
    for cone in fan.max_cones:
        outcome = _check_cone(filt, fan, cone)
        if isinstance(outcome, Incompatible):
            return outcome
        chars, basis = outcome
        per_cone_chars.append(chars)
        per_cone_bases.append(basis)
    return CharacterAssignment(
        rank=filt.rank,
        characters=tuple(per_cone_chars),
        bases=tuple(per_cone_bases),
    )
