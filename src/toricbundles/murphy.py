"""Blowups of projective space along all invariant centers of codim >= 3.

Starting from the fan of P^n (rays rho_1..rho_n = e_1..e_n and
rho_{n+1} = -(e_1+...+e_n)), the fan is refined by star subdivision of
every cone spanned by a set S of original rays, for |S| = n down to 3,
in lexicographic order of S within each stage.  Each subdivision inserts
the ray rho_S = sum of the rho_i over S, so rays carry labels: an int in
1..n+1 (original) or a frozenset S with 3 <= |S| <= n (inserted).

Maximal cones of the result are indexed by flags: an unordered pair
{a, b} together with a chain S_3 < S_4 < ... < S_n of subsets with
{a, b} <= S_3.  The lazy oracle answers cone-membership queries from the
labels alone, without materializing the fan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, factorial

from . import json_count, json_object
from .errors import (
    InternalAudit,
    InvalidFlag,
    InvalidLabel,
    MaterializationTooLarge,
)
from .fans import Fan, fan_to_json, projective_fan, star_subdivide

MATERIALIZE_LIMIT = 6
# The JSON of a lazy fan lists every labelled ray, 2^(n+1) - 2 - n(n+1)/2
# of them: 130 934 rays (5 MB of text, about 2 s) at n = 16.
LIST_RAYS_LIMIT = 16


@dataclass(frozen=True)
class IncidenceData:
    """Abstract incidence pattern: d points, d' lines, prescribed pairs.

    A pair (i, j) demands that point i lie on line j; every absent pair
    demands non-incidence.  Indices are 1-based.
    """

    points: int
    lines: int
    pairs: frozenset

    def __post_init__(self):
        if self.points < 0 or self.lines < 0:
            raise ValueError("negative object counts")
        for i, j in self.pairs:
            if not (1 <= i <= self.points and 1 <= j <= self.lines):
                raise ValueError(f"incidence pair {(i, j)} out of range")

    @property
    def total(self):
        return self.points + self.lines

    def object_type(self, k):
        """"point" or "line" for a 1-based object index."""
        if not 1 <= k <= self.total:
            raise ValueError(f"object index {k} out of range")
        return "point" if k <= self.points else "line"

    def line_number(self, k):
        return k - self.points

    def incident(self, i, j):
        return (i, j) in self.pairs

    def to_json(self):
        return {
            "points": self.points,
            "lines": self.lines,
            "incidences": sorted([i, j] for i, j in self.pairs),
        }


def incidence_data(points, lines, pairs):
    return IncidenceData(points=points, lines=lines, pairs=frozenset(
        (int(i), int(j)) for i, j in pairs
    ))


def incidence_from_json(data):
    """IncidenceData from {"points": d, "lines": d', "incidences": pairs}.

    Raises ValueError with a one-line reason on anything else: a missing
    key, a count or index that is not a nonnegative integer (booleans
    included), a pair that is not two integers, or a repeated pair.
    """
    json_object(data, "incidence", ("points", "lines", "incidences"))
    points = json_count(data["points"], "incidence", "points")
    lines = json_count(data["lines"], "incidence", "lines")
    if not isinstance(data["incidences"], list):
        raise ValueError("incidence JSON: incidences must be a list of pairs")
    pairs = set()
    for pair in data["incidences"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(
                f"incidence JSON: {pair!r} is not a pair of two integers"
            )
        i, j = (json_count(x, "incidence", "a pair entry") for x in pair)
        if (i, j) in pairs:
            raise ValueError(f"incidence JSON: pair {[i, j]} is repeated")
        pairs.add((i, j))
    return incidence_data(points, lines, pairs)


def fano_incidence():
    """The 7-point, 7-line incidence pattern of the Fano plane."""
    triples = [
        (1, 2, 3),
        (1, 4, 5),
        (1, 6, 7),
        (2, 4, 6),
        (2, 5, 7),
        (3, 4, 7),
        (3, 5, 6),
    ]
    pairs = {(i, j + 1) for j, triple in enumerate(triples) for i in triple}
    return incidence_data(7, 7, pairs)


def normalize_label(n, label):
    """Validate a ray label: int in 1..n+1, or a set S, 3 <= |S| <= n."""
    if isinstance(label, bool):
        raise InvalidLabel(f"{label!r} is not a ray label")
    if isinstance(label, int):
        if not 1 <= label <= n + 1:
            raise InvalidLabel(f"singleton label {label} out of range 1..{n + 1}")
        return label
    if isinstance(label, (set, frozenset, tuple, list)):
        s = frozenset(int(x) for x in label)
        if len(s) != len(tuple(label)):
            raise InvalidLabel(f"repeated entries in composite label {label!r}")
        if not s or not all(1 <= x <= n + 1 for x in s):
            raise InvalidLabel(f"composite label {sorted(s)} out of range")
        if not 3 <= len(s) <= n:
            raise InvalidLabel(
                f"composite label size {len(s)} outside 3..{n}"
            )
        return s
    raise InvalidLabel(f"{label!r} is not a ray label")


def ray_vector(n, label):
    """Primitive lattice vector of a labeled ray of the blown-up fan."""
    label = normalize_label(n, label)
    if isinstance(label, int):
        members = {label}
    else:
        members = set(label)
    vec = [0] * n
    for i in members:
        if i <= n:
            vec[i - 1] += 1
        else:
            vec = [x - 1 for x in vec]
    return tuple(vec)


def all_labels(n):
    """All ray labels in a deterministic order: singletons, then subsets."""
    labels = list(range(1, n + 2))
    for k in range(3, n + 1):
        labels.extend(frozenset(s) for s in combinations(range(1, n + 2), k))
    return labels


def murphy_ray_count(n):
    return (n + 1) + sum(comb(n + 1, k) for k in range(3, n + 1))


def murphy_max_cone_count(n):
    if n == 1:
        return 2
    return comb(n + 1, 2) * factorial(n - 1)


@dataclass
class MurphyFanHandle:
    """Access point for the blown-up fan, materialized or lazy."""

    n: int
    materialized: bool
    fan: Fan | None = None
    label_by_vector: dict = field(default_factory=dict, repr=False)

    def ray_label(self, index):
        return self.label_by_vector[self.fan.rays[index]]

    def ray_index(self, label):
        return self.fan.ray_index(ray_vector(self.n, label))

    def cone_labels(self, cone):
        """Labels of a materialized cone given by ray indices."""
        return frozenset(self.ray_label(i) for i in cone)


def build_murphy_fan(n, materialize=None):
    """Construct the handle; materializes the fan only for n <= 6."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if materialize is None:
        materialize = n <= MATERIALIZE_LIMIT
    if not materialize:
        return MurphyFanHandle(n=n, materialized=False)
    if n > MATERIALIZE_LIMIT:
        raise MaterializationTooLarge(
            f"materialized mode supports n <= {MATERIALIZE_LIMIT}, got {n}"
        )
    fan = projective_fan(n)
    for k in range(n, 2, -1):
        for s in combinations(range(1, n + 2), k):
            vectors = [ray_vector(n, i) for i in s]
            indices = tuple(fan.ray_index(v) for v in vectors)
            fan = star_subdivide(fan, indices)
    label_by_vector = {ray_vector(n, lab): lab for lab in all_labels(n)}
    if set(label_by_vector) != set(fan.rays):
        raise InternalAudit("blow-up rays differ from the labeled ray set")
    return MurphyFanHandle(
        n=n, materialized=True, fan=fan, label_by_vector=label_by_vector
    )


def cone_membership(handle, labels):
    """Whether a set of labeled rays spans a cone of the blown-up fan.

    Rule: at most two singleton labels; the composite labels form a chain
    under inclusion; every singleton belongs to the smallest composite.
    """
    n = handle.n
    normalized = [normalize_label(n, lab) for lab in labels]
    if len({lab if isinstance(lab, int) else frozenset(lab) for lab in normalized}) != len(
        normalized
    ):
        raise InvalidLabel("repeated labels in membership query")
    singles = sorted(lab for lab in normalized if isinstance(lab, int))
    comps = sorted(
        (lab for lab in normalized if not isinstance(lab, int)), key=len
    )
    if n == 1:
        return len(singles) <= 1
    if len(singles) > 2:
        return False
    for small, big in zip(comps, comps[1:]):
        if not small < big:
            return False
    if comps:
        smallest = comps[0]
        if any(a not in smallest for a in singles):
            return False
    return True


def enumerate_flags(n):
    """All (pair, chain) flags, deterministically ordered; n >= 2."""
    if n < 2:
        raise ValueError("flags need n >= 2")
    universe = tuple(range(1, n + 2))

    def chains_down(top, size):
        if size < 3:
            yield ()
            return
        for sub in combinations(sorted(top), size):
            s = frozenset(sub)
            for rest in chains_down(s, size - 1):
                yield rest + (s,)

    if n == 2:
        for pair in combinations(universe, 2):
            yield pair, ()
        return
    for chain in chains_down(frozenset(universe), n):
        s3 = chain[0]
        for pair in combinations(sorted(s3), 2):
            yield pair, chain


def validate_flag(n, pair, chain):
    a, b = (int(pair[0]), int(pair[1]))
    if a == b or not (1 <= a <= n + 1 and 1 <= b <= n + 1):
        raise InvalidFlag(f"invalid pair {pair}")
    chain = tuple(normalize_label(n, s) for s in chain)
    if len(chain) != max(n - 2, 0):
        raise InvalidFlag(
            f"chain must list subset sizes 3..{n}, got {len(chain)} entries"
        )
    for expected_size, s in enumerate(chain, start=3):
        if len(s) != expected_size:
            raise InvalidFlag(f"chain entry {sorted(s)} has wrong size")
    for small, big in zip(chain, chain[1:]):
        if not small < big:
            raise InvalidFlag("chain is not strictly increasing")
    if chain and not {a, b} <= chain[0]:
        raise InvalidFlag(f"pair {pair} not contained in {sorted(chain[0])}")
    return (min(a, b), max(a, b)), chain


def maximal_cone_rays(handle, pair, chain):
    """Ray vectors of the maximal cone named by a flag.

    Ordered as [rho_a, rho_b, rho_{S_3}, ..., rho_{S_n}]; they form a
    basis of the lattice.
    """
    if handle.n < 2:
        raise InvalidFlag("maximal cones of the half line fan are single rays")
    (a, b), chain = validate_flag(handle.n, pair, chain)
    labels = [a, b, *chain]
    return [ray_vector(handle.n, lab) for lab in labels]


def flag_cone_indices(handle, pair, chain):
    """Sorted ray indices of a flag cone in the materialized fan."""
    if not handle.materialized:
        raise MaterializationTooLarge("flag indices need a materialized fan")
    vectors = maximal_cone_rays(handle, pair, chain)
    return tuple(sorted(handle.fan.ray_index(v) for v in vectors))


def cone_flag(handle, cone):
    """Inverse of flag_cone_indices for a maximal cone of the fan."""
    labels = [handle.ray_label(i) for i in cone]
    singles = sorted(lab for lab in labels if isinstance(lab, int))
    comps = sorted((lab for lab in labels if not isinstance(lab, int)), key=len)
    if len(singles) != 2:
        raise InvalidFlag(f"cone {cone} does not come from a flag")
    return (singles[0], singles[1]), tuple(comps)


def murphy_fan_to_json(handle):
    if handle.materialized:
        return fan_to_json(handle.fan)
    n = handle.n
    if n > LIST_RAYS_LIMIT:
        raise ValueError(
            f"the fan for n={n} has {murphy_ray_count(n)} rays, too many to "
            f"list; n must be at most {LIST_RAYS_LIMIT}"
        )
    rays = sorted(ray_vector(n, lab) for lab in all_labels(n))
    return {
        "dim": n,
        "rays": [list(r) for r in rays],
        "max_cones": "lazy",
        "ray_count": murphy_ray_count(n),
        "max_cone_count": murphy_max_cone_count(n),
    }
