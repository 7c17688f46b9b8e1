"""Compilation of the rank conditions into pairwise incidence atoms.

On the blown-up fan every maximal cone contains exactly two original
rays, so the only binding grid cells pair two configuration objects.
Counting characters with value >= 1 on both rays turns each pair into
one atom: INCIDENT / NON_INCIDENT for a point and a line,
DISTINCT_POINTS / DISTINCT_LINES for pairs of like type.  The audit
confirms no cone ever joins three original rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chern import chars_for_flag, murphy_chern
from .errors import InternalAudit, InvalidConditionSet
from .murphy import (
    IncidenceData,
    MurphyFanHandle,
    build_murphy_fan,
    cone_membership,
    incidence_data,
    ray_vector,
)

KINDS = ("DISTINCT_LINES", "DISTINCT_POINTS", "INCIDENT", "NON_INCIDENT")


@dataclass(frozen=True, order=True)
class Atom:
    """One pairwise condition on configuration coordinates.

    INCIDENT(i,j): point i lies on line j (the pairing vanishes);
    NON_INCIDENT(i,j): it does not; DISTINCT_POINTS(i,j) and
    DISTINCT_LINES(i,j): the two coordinate triples are not
    proportional.  Distinctness atoms carry i < j of the same type.
    """

    kind: str
    i: int
    j: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidConditionSet(f"unknown atom kind {self.kind!r}")
        if self.kind in ("DISTINCT_POINTS", "DISTINCT_LINES") and not self.i < self.j:
            raise InvalidConditionSet("distinctness atoms need i < j")


@dataclass(frozen=True)
class ConditionSet:
    points: int
    lines: int
    atoms: tuple

    def incidence(self):
        """The incidence pattern read back off the INCIDENT atoms."""
        return incidence_data(
            self.points,
            self.lines,
            [(a.i, a.j) for a in self.atoms if a.kind == "INCIDENT"],
        )


def make_condition_set(points, lines, atoms):
    atoms = tuple(sorted(set(atoms)))
    seen_pairs = {}
    for atom in atoms:
        if atom.kind in ("INCIDENT", "NON_INCIDENT"):
            if not (1 <= atom.i <= points and 1 <= atom.j <= lines):
                raise InvalidConditionSet(f"{atom} out of range")
            key = ("IN", atom.i, atom.j)
            if key in seen_pairs and seen_pairs[key] != atom.kind:
                raise InvalidConditionSet(
                    f"contradictory atoms on point {atom.i}, line {atom.j}"
                )
            seen_pairs[key] = atom.kind
        elif atom.kind == "DISTINCT_POINTS":
            if not atom.j <= points:
                raise InvalidConditionSet(f"{atom} out of range")
        elif not atom.j <= lines:
            raise InvalidConditionSet(f"{atom} out of range")
    return ConditionSet(points=points, lines=lines, atoms=atoms)


def conditions_to_json(conds):
    return {
        "points": conds.points,
        "lines": conds.lines,
        "atoms": [{"kind": a.kind, "i": a.i, "j": a.j} for a in conds.atoms],
    }


def conditions_from_json(data):
    atoms = [Atom(kind=a["kind"], i=int(a["i"]), j=int(a["j"])) for a in data["atoms"]]
    return make_condition_set(int(data["points"]), int(data["lines"]), atoms)


@dataclass(frozen=True)
class MurphyInstance:
    """An incidence pattern with its fan handle and character rule."""

    incidence: IncidenceData
    handle: MurphyFanHandle
    datum: object


def make_murphy_instance(incidence, materialize=None, allow_degenerate=False):
    total = incidence.total
    if total < 2:
        raise ValueError("need at least two configuration objects")
    if total == 2 and not allow_degenerate:
        raise ValueError(
            "d + d' = 2 sits outside the construction; "
            "pass allow_degenerate=True to use the direct pair table"
        )
    n = total - 1
    handle = build_murphy_fan(n, materialize)
    datum = murphy_chern(incidence, handle) if n >= 2 else None
    return MurphyInstance(incidence=incidence, handle=handle, datum=datum)


def _canonical_chain(n, a, b):
    rest = [x for x in range(1, n + 2) if x not in (a, b)]
    return tuple(
        frozenset([a, b] + rest[: k - 2]) for k in range(3, n + 1)
    )


def _atom_for_pair(incidence, a, b, count):
    """Map a character count on a pair of original rays to its atom."""
    type_a = incidence.object_type(a)
    type_b = incidence.object_type(b)
    if type_a == "point" and type_b == "point":
        expected = {0: "DISTINCT_POINTS"}
    elif type_a == "line" and type_b == "line":
        expected = {1: "DISTINCT_LINES"}
    else:
        expected = {1: "INCIDENT", 0: "NON_INCIDENT"}
    kind = expected.get(count)
    if kind is None:
        raise InternalAudit(
            f"pair ({a}, {b}) requires intersection dimension {count}"
        )
    if kind == "INCIDENT" or kind == "NON_INCIDENT":
        point, line = (a, b) if type_a == "point" else (b, a)
        return Atom(kind=kind, i=point, j=incidence.line_number(line))
    if kind == "DISTINCT_POINTS":
        return Atom(kind=kind, i=a, j=b)
    i, j = incidence.line_number(a), incidence.line_number(b)
    return Atom(kind="DISTINCT_LINES", i=min(i, j), j=max(i, j))


def _jump_counts(chars, n, a, b):
    """Characters with value >= 1 on rho_a, on rho_b, and on both."""
    ra, rb = ray_vector(n, a), ray_vector(n, b)
    va = [sum(c * x for c, x in zip(u, ra)) for u in chars]
    vb = [sum(c * x for c, x in zip(u, rb)) for u in chars]
    return (
        sum(1 for x in va if x >= 1),
        sum(1 for y in vb if y >= 1),
        sum(1 for x, y in zip(va, vb) if x >= 1 and y >= 1),
    )


def generate_conditions(m):
    """ConditionSet with exactly one atom per unordered object pair."""
    incidence = m.incidence
    total = incidence.total
    if total == 2:
        return make_condition_set(
            incidence.points, incidence.lines, [_degenerate_atom(incidence)]
        )
    n = total - 1
    violation = audit_pairwise(m)
    if violation is not None:
        raise InternalAudit(
            f"three original rays span a cone: {violation.triple}"
        )
    atoms = []
    for a, b in combinations(range(1, total + 1), 2):
        chars = chars_for_flag(m.datum, (a, b), _canonical_chain(n, a, b))
        on_a, on_b, on_both = _jump_counts(chars, n, a, b)
        # the jump-1 cell on one ray alone must reproduce the forced
        # filtration dimension; anything else voids the compilation
        for label, count in ((a, on_a), (b, on_b)):
            want = 1 if incidence.object_type(label) == "point" else 2
            if count != want:
                raise InternalAudit(
                    f"ray {label} forces dimension {count}, expected {want}"
                )
        atoms.append(_atom_for_pair(incidence, a, b, on_both))
    return make_condition_set(incidence.points, incidence.lines, atoms)


def _degenerate_atom(incidence):
    if incidence.points == 2:
        return Atom(kind="DISTINCT_POINTS", i=1, j=2)
    if incidence.lines == 2:
        return Atom(kind="DISTINCT_LINES", i=1, j=2)
    if incidence.incident(1, 1):
        return Atom(kind="INCIDENT", i=1, j=1)
    return Atom(kind="NON_INCIDENT", i=1, j=1)


@dataclass(frozen=True)
class PairwiseViolation:
    """Truthy witness: three original rays contained in one cone."""

    triple: tuple


def audit_pairwise(m):
    """None if no cone joins three original rays, else the triple."""
    handle = m.handle
    n = handle.n
    if handle.materialized:
        for cone in handle.fan.max_cones:
            singles = sorted(
                lab for lab in handle.cone_labels(cone) if isinstance(lab, int)
            )
            if len(singles) >= 3:
                return PairwiseViolation(triple=tuple(singles[:3]))
        return None
    for triple in combinations(range(1, n + 2), 3):
        if cone_membership(handle, triple):
            return PairwiseViolation(triple=triple)
    return None
