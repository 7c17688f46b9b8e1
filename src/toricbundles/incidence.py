"""Point/line configurations in the projective plane and enumeration.

Configurations are stored projectively normalized (first nonzero
coordinate 1), which turns proportionality into plain equality and
makes solution sets comparable as sorted lists.  Enumeration over a
prime field runs as forward checking over bitset domains: each object's
domain is an int bitmask over the p^2 + p + 1 points, an assignment
narrows its neighbours' domains in one step, an emptied domain prunes
the branch, and the object with the fewest values left goes next.
The engine consumes binary constraints from two independent sources:
directly from incidence data, or from a compiled ConditionSet.  The
constraints read off incidence data are the one definition of "a
configuration realizes the incidence data": `check_configuration`
tests them one by one in any field.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import canonical_json, json_object
from .errors import BudgetExceeded
from .fields import PrimeField, field_from_tag
from .moduli import generate_conditions, make_murphy_instance

ZERO_DOT, NONZERO_DOT, DISTINCT = 0, 1, 2

# The plane's incidence masks take N^2/8 bytes for its N = p^2 + p + 1
# points: 13 MB at p = 101, 250 MB at p = 211.  A field whose masks
# would pass this many bytes is refused before they are built.
PLANE_BYTES_LIMIT = 1 << 26
# Configurations per piece of listing text (listing_json_chunks).
LISTING_CHUNK = 4096


@dataclass(frozen=True, slots=True)
class Configuration:
    """Normalized homogeneous coordinates for d points and d' lines."""

    field: str
    points: tuple
    lines: tuple


def normalize_triple(v, fld):
    """Scale a nonzero triple so that its first nonzero entry is 1.

    Raises ValueError unless v has three entries, each an int, a
    Fraction or a string such as "1/2"; a bool (JSON true/false) and a
    float are not field elements.
    """
    v = tuple(v)
    if len(v) != 3 or not all(
        isinstance(x, (int, str, Fraction)) and not isinstance(x, bool)
        for x in v
    ):
        raise ValueError(f"{list(v)!r} is not a triple of field elements")
    v = tuple(fld.coerce(x) for x in v)
    lead = next((x for x in v if x != fld.zero), None)
    if lead is None:
        raise ValueError("zero vector is not projective")
    inv = fld.inv(lead)
    return tuple(fld.mul(inv, x) for x in v)


def make_configuration(field_tag, points, lines):
    fld = field_from_tag(field_tag)
    return Configuration(
        field=field_tag,
        points=tuple(normalize_triple(x, fld) for x in points),
        lines=tuple(normalize_triple(l, fld) for l in lines),
    )


def _triple_json(v, fld):
    """The JSON value of one normalized triple: its formatted entries."""
    return [fld.format(x) for x in v]


def configuration_to_json(config):
    fld = field_from_tag(config.field)
    return {
        "field": config.field,
        "points": [_triple_json(v, fld) for v in config.points],
        "lines": [_triple_json(v, fld) for v in config.lines],
    }


class _TripleTexts(dict):
    """Canonical JSON text of each triple over one field, made once."""

    def __init__(self, fld):
        super().__init__()
        self.fld = fld

    def __missing__(self, v):
        text = self[v] = canonical_json(_triple_json(v, self.fld))
        return text


class _ConfigurationForms(dict):
    """Per field tag: a configuration's JSON text as a %-template of its
    joined line and point texts, and the text lookup of its triples."""

    def __missing__(self, tag):
        field = canonical_json(tag).replace("%", "%%")
        form = self[tag] = (
            '{"field":' + field + ',"lines":[%s],"points":[%s]}',
            _TripleTexts(field_from_tag(tag)).__getitem__,
        )
        return form


def listing_json_chunks(configs):
    """The text of canonical_json({"count": len(configs), "configurations":
    [configuration_to_json(c) for c in configs]}), in pieces.

    Joined, the pieces are that text byte for byte, for configurations
    whose entries are their field's elements (as make_configuration and
    the search build them).  Each distinct triple is formatted once per
    field, and each piece holds LISTING_CHUNK configurations, so a
    caller can write the listing as it is produced instead of holding
    it twice.
    """
    forms = _ConfigurationForms()
    join = ",".join
    yield '{"configurations":['
    for start in range(0, len(configs), LISTING_CHUNK):
        yield ("," if start else "") + join([
            form % (join(map(text, c.lines)), join(map(text, c.points)))
            for c in configs[start:start + LISTING_CHUNK]
            for form, text in (forms[c.field],)
        ])
    yield f'],"count":{len(configs)}}}'


def configuration_from_json(data):
    """Configuration from {"field": tag, "points": [...], "lines": [...]}.

    Raises ValueError with a one-line reason on anything else: a missing
    key, a vector list that is not a list of lists, or a vector that
    normalize_triple refuses.
    """
    json_object(data, "configuration", ("field", "points", "lines"))
    for key in ("points", "lines"):
        vectors = data[key]
        if not isinstance(vectors, list) or not all(isinstance(v, list) for v in vectors):
            raise ValueError(f"configuration JSON: {key} must be a list of vectors")
    try:
        return make_configuration(data["field"], data["points"], data["lines"])
    except ValueError as exc:
        raise ValueError(f"configuration JSON: {exc}") from None


def check_plane(p):
    """Refuse p unless it is a prime whose plane fits PLANE_BYTES_LIMIT."""
    PrimeField(p)
    n = p * p + p + 1
    if n * n // 8 > PLANE_BYTES_LIMIT:
        raise ValueError(
            f"the plane over F_{p} needs {n * n // 8} bytes of incidence "
            f"masks, more than the limit of {PLANE_BYTES_LIMIT}"
        )


def projective_points(p):
    """All p^2 + p + 1 normalized triples over F_p, sorted.

    The first nonzero entry is 1, so they are (0, 0, 1), then (0, 1, b),
    then (1, a, b), each block sorting after the one before.
    """
    PrimeField(p)
    return (
        [(0, 0, 1)]
        + [(0, 1, b) for b in range(p)]
        + [(1, a, b) for a in range(p) for b in range(p)]
    )


def _holds(kind, a, b, fld):
    """Whether normalized triples a and b satisfy one binary constraint."""
    if kind == DISTINCT:
        return a != b
    dot = fld.zero
    for x, y in zip(a, b):
        dot = fld.add(dot, fld.mul(x, y))
    return (dot == fld.zero) == (kind == ZERO_DOT)


def check_configuration(config, incidence):
    """Whether the configuration realizes the incidence data exactly."""
    if len(config.points) != incidence.points or len(config.lines) != incidence.lines:
        raise ValueError("configuration shape does not match incidence data")
    fld = field_from_tag(config.field)
    values = config.points + config.lines
    return all(
        _holds(kind, values[a], values[b], fld)
        for a, b, kind in _constraints_from_incidence(incidence)
    )


def _constraints_from_incidence(incidence):
    """Binary constraints read directly off the incidence data."""
    d, dprime = incidence.points, incidence.lines
    cons = []
    for i in range(d):
        for k in range(i + 1, d):
            cons.append((i, k, DISTINCT))
    for j in range(dprime):
        for k in range(j + 1, dprime):
            cons.append((d + j, d + k, DISTINCT))
    for i in range(d):
        for j in range(dprime):
            kind = ZERO_DOT if incidence.incident(i + 1, j + 1) else NONZERO_DOT
            cons.append((i, d + j, kind))
    return cons


def _constraints_from_atoms(conds):
    """Binary constraints compiled from a ConditionSet's atoms."""
    d = conds.points
    cons = []
    for atom in conds.atoms:
        if atom.kind == "INCIDENT":
            cons.append((atom.i - 1, d + atom.j - 1, ZERO_DOT))
        elif atom.kind == "NON_INCIDENT":
            cons.append((atom.i - 1, d + atom.j - 1, NONZERO_DOT))
        elif atom.kind == "DISTINCT_POINTS":
            cons.append((atom.i - 1, atom.j - 1, DISTINCT))
        else:
            cons.append((d + atom.i - 1, d + atom.j - 1, DISTINCT))
    return cons


@lru_cache(maxsize=4)
def _plane(p):
    """The sorted points of PG(2, p) and their incidence bitmasks.

    Bit w of on[v] is set when universe[v] . universe[w] = 0 mod p.
    Points and lines share coordinates, so on[v] is also the set of
    points on the line universe[v]; it is built from two spanning
    vectors of that line in O(p) steps rather than by N dot products.
    A point's index follows from its coordinates, in the block order
    of projective_points.
    """
    universe = projective_points(p)
    inverse = [0] + [pow(x, p - 2, p) for x in range(1, p)]

    def position(v):
        x, y, z = v
        if x:
            return 1 + p + y * inverse[x] % p * p + z * inverse[x] % p
        if y:
            return 1 + z * inverse[y] % p
        return 0

    on = []
    for line in universe:
        # line[k] = 1 is the leading entry; the line is spanned by
        # e_i - line[i] e_k for the two other coordinates i
        k = line.index(1)
        i, j = (t for t in range(3) if t != k)
        u, w = [0, 0, 0], [0, 0, 0]
        u[i], u[k] = 1, -line[i] % p
        w[j], w[k] = 1, -line[j] % p
        mask = 1 << position(u)
        for s in range(p):
            mask |= 1 << position([(b + s * a) % p for a, b in zip(u, w)])
        on.append(mask)
    return tuple(universe), tuple(on)


def _forward_check(n_objects, constraints, on, size, budget, listing, first=None):
    """Forward checking over bitset domains, fewest remaining values first.

    A domain is an int whose bit v stands for universe[v].  Giving an
    object a value narrows the domain of every free neighbour in one
    step: `& on[v]` (ZERO_DOT), `& ~on[v]` (NONZERO_DOT) or by clearing
    bit v (DISTINCT), and a branch that empties a domain is pruned.  The
    next object is the free one with the fewest values left, ties going
    to the lower index.  A node is one value tried for one object.

    Returns (solutions, count, nodes); solutions are assignment tuples,
    collected only when `listing`.  `first` fixes object 0 to one value.
    """
    neighbors = [[] for _ in range(n_objects)]
    for a, b, kind in constraints:
        neighbors[a].append((b, kind))
        neighbors[b].append((a, kind))
    domains = [(1 << size) - 1] * n_objects
    if first is not None:
        domains[0] = 1 << first
    assignment = [None] * n_objects
    found = []
    count = nodes = 0

    def exhausted():
        return BudgetExceeded(
            f"node budget {budget} exhausted", partial_count=count, nodes=nodes
        )

    def descend(domains, free):
        nonlocal count, nodes
        obj = min(free, key=lambda o: (domains[o].bit_count(), o))
        dom = domains[obj]
        if len(free) == 1:
            # every value left completes a solution: settle them at once
            k = dom.bit_count()
            if budget is not None and nodes + k > budget:
                count += budget - nodes
                nodes = budget + 1
                raise exhausted()
            nodes += k
            count += k
            while listing and dom:
                low = dom & -dom
                dom ^= low
                assignment[obj] = low.bit_length() - 1
                found.append(tuple(assignment))
            assignment[obj] = None
            return
        free = [o for o in free if o != obj]
        checks = [(o, kind) for o, kind in neighbors[obj] if assignment[o] is None]
        while dom:
            low = dom & -dom
            dom ^= low
            v = low.bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise exhausted()
            narrowed = domains[:]
            for o, kind in checks:
                if kind == ZERO_DOT:
                    left = narrowed[o] & on[v]
                elif kind == NONZERO_DOT:
                    left = narrowed[o] & ~on[v]
                else:
                    left = narrowed[o] & ~low
                if not left:
                    break
                narrowed[o] = left
            else:
                assignment[obj] = v
                descend(narrowed, free)
        assignment[obj] = None

    if n_objects == 0:
        return [()], 1, 0
    descend(domains, list(range(n_objects)))
    return found, count, nodes


def _branch_task(args):
    n_objects, constraints, p, budget, listing, first = args
    universe, on = _plane(p)
    return _forward_check(
        n_objects, constraints, on, len(universe), budget, listing, first=first
    )


def _run_engine(n_objects, constraints, p, budget, workers, listing):
    """(assignment tuples if `listing`, solution count) over F_p.

    Runs forward checking, split over `workers` processes by the value
    of object 0 when more than one is asked for.  A field that fails
    check_plane is refused before its plane is built.
    """
    check_plane(p)
    universe, on = _plane(p)
    if not (workers and workers > 1 and n_objects >= 1):
        found, count, _ = _forward_check(
            n_objects, constraints, on, len(universe), budget, listing
        )
        return found, count
    # Branch v fixes object 0 to value v; it runs the nodes the serial
    # search spends below that value.  Each branch gets the whole budget,
    # and the results are read in branch order, so the search refuses as
    # soon as the ordered prefix passes the budget, whatever `workers` is.
    found, count, total_nodes = [], 0, 0
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        branches = [
            pool.submit(
                _branch_task, (n_objects, constraints, p, budget, listing, v)
            )
            for v in range(len(universe))
        ]
        for branch in branches:
            try:
                part, k, nodes = branch.result()
            except BudgetExceeded as exc:
                part, k, nodes = [], exc.partial_count, exc.nodes
            found.extend(part)
            count += k
            total_nodes += nodes
            if budget is not None and total_nodes > budget:
                raise BudgetExceeded(
                    f"node budget {budget} exhausted across workers",
                    partial_count=count,
                    nodes=total_nodes,
                )
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return found, count


def _configurations(d, found, p):
    """Sorted Configurations from assignment tuples (points, then lines).

    Sorts `found` in place.
    """
    point = _plane(p)[0].__getitem__
    tag = f"Fp:{p}"
    # universe is sorted, so index order is the (points, lines) order
    found.sort()
    return [
        Configuration(tag, triples[:d], triples[d:])
        for triples in (tuple(map(point, values)) for values in found)
    ]


def enumerate_c_i(incidence, p, budget=None, workers=None):
    """All F_p configurations realizing the incidence data exactly."""
    found, _ = _run_engine(
        incidence.total,
        _constraints_from_incidence(incidence),
        p, budget, workers, listing=True,
    )
    return _configurations(incidence.points, found, p)


def count_c_i(incidence, p, budget=None, workers=None):
    """The number of configurations enumerate_c_i would return."""
    _, count = _run_engine(
        incidence.total,
        _constraints_from_incidence(incidence),
        p, budget, workers, listing=False,
    )
    return count


def solutions(conds, p, budget=None, workers=None):
    """All F_p configurations satisfying every atom of a ConditionSet."""
    found, _ = _run_engine(
        conds.points + conds.lines,
        _constraints_from_atoms(conds),
        p, budget, workers, listing=True,
    )
    return _configurations(conds.points, found, p)


@dataclass(frozen=True)
class EquivalenceReport:
    points: int
    lines: int
    prime: int
    equal: bool
    count_conditions: int
    count_direct: int
    discrepancy: Configuration | None

    def to_json(self):
        return {
            "points": self.points,
            "lines": self.lines,
            "prime": self.prime,
            "equal": self.equal,
            "count_conditions": self.count_conditions,
            "count_direct": self.count_direct,
            "discrepancy": (
                None
                if self.discrepancy is None
                else configuration_to_json(self.discrepancy)
            ),
        }


def verify_equivalence(
    incidence, p, budget=None, workers=None, allow_degenerate=False
):
    """Compare compiled-condition solutions with direct enumeration."""
    check_plane(p)
    instance = make_murphy_instance(
        incidence, materialize=False, allow_degenerate=allow_degenerate
    )
    conds = generate_conditions(instance)
    via_conditions = solutions(conds, p, budget=budget, workers=workers)
    direct = enumerate_c_i(incidence, p, budget=budget, workers=workers)
    equal = via_conditions == direct
    discrepancy = None if equal else min(
        set(via_conditions) ^ set(direct), key=lambda c: (c.points, c.lines)
    )
    return EquivalenceReport(
        points=incidence.points,
        lines=incidence.lines,
        prime=p,
        equal=equal,
        count_conditions=len(via_conditions),
        count_direct=len(direct),
        discrepancy=discrepancy,
    )

