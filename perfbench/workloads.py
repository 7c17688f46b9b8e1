"""Seeded job lists for the three benchmark workloads.

The benchmark owns its inputs: a workload seed drives random.Random, and
the package under test only ever sees the JSON files written from the
jobs drawn here.  Realizable incidence patterns are read off sampled
configurations (distinct points and distinct lines of a projective
plane), so every such pattern has at least one solution; unrealizable
ones carry a planted 2x2 block (two points on two common lines), which
no configuration of distinct points and lines can satisfy.

A job list is a sequence of rounds.  Every round holds the same strata
in a seeded order, so the mix of cheap and expensive jobs, and with it
the latency quantiles, is the same for every seed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("incidence_search", "murphy_verify", "fan_bundle")


def load_expected():
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# projective planes and incidence patterns


def projective_points(p):
    """Normalized triples (first nonzero entry 1) of PG(2, p), sorted."""
    out = set()
    for v in itertools.product(range(p), repeat=3):
        if any(v):
            lead = next(x for x in v if x)
            inv = pow(lead, p - 2, p)
            out.add(tuple(x * inv % p for x in v))
    return sorted(out)


def read_pattern(points, lines, p=None):
    """1-based (point, line) pairs whose dot product vanishes (mod p)."""
    pairs = []
    for i, x in enumerate(points, start=1):
        for j, l in enumerate(lines, start=1):
            dot = x[0] * l[0] + x[1] * l[1] + x[2] * l[2]
            if (dot if p is None else dot % p) == 0:
                pairs.append((i, j))
    return pairs


def incidence_json(points, lines, pairs):
    return {
        "points": points,
        "lines": lines,
        "incidences": sorted([i, j] for i, j in pairs),
    }


def pattern_type(points, lines, pairs):
    """Isomorphism class of a pattern under relabelling points and lines.

    The key keeps the two sides apart.  The smaller side is relabelled in
    order of degree, each way allowed, and the other side's incidence
    masks are sorted; the least result wins.
    """
    if points <= lines:
        small, members = points, [[] for _ in range(lines)]
        for i, j in pairs:
            members[j - 1].append(i - 1)
        side = "L"
    else:
        small, members = lines, [[] for _ in range(points)]
        for i, j in pairs:
            members[i - 1].append(j - 1)
        side = "P"
    degree = [0] * small
    for group in members:
        for b in group:
            degree[b] += 1
    classes = [
        list(group)
        for _, group in itertools.groupby(
            sorted(range(small), key=degree.__getitem__), key=degree.__getitem__)
    ]
    best = None
    for blocks in itertools.product(*(itertools.permutations(c) for c in classes)):
        bit = [0] * small
        k = 0
        for block in blocks:
            for b in block:
                bit[b] = 1 << k
                k += 1
        key = sorted(sum(bit[b] for b in group) for group in members)
        if best is None or key < best:
            best = key
    return f"{points}x{lines}{side}" + ".".join(map(str, best))


def count_key(p, points, lines, pairs):
    return f"{p}:{pattern_type(points, lines, pairs)}"


def has_double_incidence(pairs):
    """Two points both on two lines: impossible for distinct points."""
    lines_of = {}
    for i, j in pairs:
        lines_of.setdefault(i, set()).add(j)
    return any(
        len(lines_of[a] & lines_of[b]) >= 2
        for a, b in itertools.combinations(sorted(lines_of), 2)
    )


def closed_form_count(p, points, lines, pairs):
    """Counts with a closed form, else None.

    The marked pair (two points, one line through the first) has
    (p^2+p+1)(p+1)p^2 solutions; the Fano pattern has |PGL(3,2)| = 168
    over F_2 and none over F_3; a planted 2x2 block has none.
    """
    pairs = set(pairs)
    if (points, lines, pairs) == (2, 1, {(1, 1)}):
        return (p * p + p + 1) * (p + 1) * p * p
    if has_double_incidence(pairs):
        return 0
    if points == 7 and lines == 7 and count_key(p, 7, 7, pairs) == count_key(
        p, 7, 7, FANO_PAIRS
    ):
        return {2: 168, 3: 0}.get(p)
    return None


FANO_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
                (3, 4, 7), (3, 5, 6))
FANO_PAIRS = {(i, j + 1) for j, t in enumerate(FANO_TRIPLES) for i in t}


def fano_subpattern(drop_points, drop_lines):
    """Fano pattern without the listed points and lines, renumbered."""
    keep_p = [i for i in range(1, 8) if i not in drop_points]
    keep_l = [j for j in range(1, 8) if j not in drop_lines]
    pairs = [
        (keep_p.index(i) + 1, keep_l.index(j) + 1)
        for i, j in FANO_PAIRS
        if i in keep_p and j in keep_l
    ]
    return len(keep_p), len(keep_l), pairs


def relabel(rng, points, lines, pairs):
    """The same pattern under a seeded renumbering of points and lines."""
    sp = list(range(1, points + 1))
    sl = list(range(1, lines + 1))
    rng.shuffle(sp)
    rng.shuffle(sl)
    return [(sp[i - 1], sl[j - 1]) for i, j in pairs]


def sample_configuration(rng, p, points, lines):
    """Distinct points and distinct lines of PG(2, p)."""
    universe = projective_points(p)
    return rng.sample(universe, points), rng.sample(universe, lines)


def plant_double_incidence(rng, points, lines, density=0.3):
    """A random pattern containing a 2x2 block, hence unrealizable."""
    pairs = {
        (i, j)
        for i in range(1, points + 1)
        for j in range(1, lines + 1)
        if rng.random() < density
    }
    a, b = rng.sample(range(1, points + 1), 2)
    c, d = rng.sample(range(1, lines + 1), 2)
    pairs |= {(a, c), (a, d), (b, c), (b, d)}
    return sorted(pairs)


# ---------------------------------------------------------------------------
# rounds
#
# A round is a fixed list of slots; the seed fills each slot with a fresh
# pattern of the slot's shape and solution count, in a fresh labelling.
# Slots are sized so that cheap, middle and expensive jobs keep fixed
# shares: the median and the 90th percentile of a run of whole rounds then
# fall inside groups of jobs of like cost, and do not jump with the seed.


def draw_realizable(rng, counts, p, points, lines, count):
    """Pattern read off a sampled configuration, with `count` solutions."""
    while True:
        pts, lns = sample_configuration(rng, p, points, lines)
        pairs = read_pattern(pts, lns, p)
        if counts[count_key(p, points, lines, pairs)] == count:
            return pairs


def _enumerate_job(stratum, p, d, dl, pairs, count, listing):
    return {
        "kind": "list" if listing else "count",
        "stratum": stratum,
        "field": p,
        "input": incidence_json(d, dl, pairs),
        "expect": {"count": count},
    }


def _verify_job(stratum, p, d, dl, pairs, count):
    return {
        "kind": "verify",
        "stratum": stratum,
        "field": p,
        "input": incidence_json(d, dl, pairs),
        "expect": {"count": count},
    }


# Fano without the three points of one line and that line, or without
# those and one more point: 0.2-0.5 s of search over F_3 in any labelling.
# Dropping only points 6 and 7 costs 2-5 s once relabelled, too long for
# a round.
FANO_DROPS = [
    (tuple(sorted(set(line) | extra)), (j + 1,))
    for j, line in enumerate(FANO_TRIPLES)
    for extra in [set()] + [{x} for x in range(1, 8) if x not in line]
]

# (stratum, field, points, lines, solution count, listing).  Per round:
# eight cheap jobs (with the two unrealizable ones below), six F_5
# count-only jobs of like cost around the median, the F_3 listings,
# search-heavy and F_7 count jobs above them, and four F_7 listings on
# top, which hold the 90th percentile.
INCIDENCE_SLOTS = (
    ("f2_small_count", 2, 2, 2, 168, False),
    ("f2_small_count", 2, 3, 2, 168, False),
    ("f2_small_list", 2, 2, 3, 336, True),
    ("f3_count", 3, 2, 2, 2808, False),
    ("f3_count", 3, 2, 2, 4680, False),
    ("f5_list", 5, 2, 1, 4650, True),
) + (("f5_count", 5, 1, 2, 18600, False),) * 6 + (
    ("f3_count", 3, 3, 3, 11232, False),
    ("f2_search", 2, 3, 3, 168, False),
    ("f3_list", 3, 2, 3, 8424, True),
    ("f3_list", 3, 3, 2, 14040, True),
    ("f7_count", 7, 2, 1, 22344, False),
) + (("f7_list", 7, 1, 2, 22344, True), ("f7_list", 7, 2, 1, 22344, True)) * 2
# (stratum, field, points, lines) of cheap patterns with a planted 2x2 block
INCIDENCE_UNREALIZABLE = (
    ("unrealizable_f2", 2, 4, 4),
    ("unrealizable_f3", 3, 3, 3),
)


def _incidence_round(rng, expected):
    counts = expected["counts"]
    jobs = [
        _enumerate_job(name, p, d, dl,
                       draw_realizable(rng, counts, p, d, dl, count), count, listing)
        for name, p, d, dl, count, listing in INCIDENCE_SLOTS
    ]
    for name, p, d, dl in INCIDENCE_UNREALIZABLE:
        jobs.append(_enumerate_job(
            name, p, d, dl, plant_double_incidence(rng, d, dl), 0, False))
    d, dl, pairs = fano_subpattern(*rng.choice(FANO_DROPS))
    pairs = relabel(rng, d, dl, pairs)
    jobs.append(_enumerate_job("fano_sub_f3", 3, d, dl, pairs,
                               counts[count_key(3, d, dl, pairs)], False))
    return jobs


# (field, points, lines, solution count): d + d' runs over 6..14 on F_2.
# Per round: seven cheap jobs, seven 9-object jobs of like cost around the
# median, the larger and the F_3 jobs above them, and four Fano planes on
# top, which hold the 90th percentile.  Beyond 6 objects nearly every F_2
# configuration is a projective frame, with 168 solutions.
VERIFY_SLOTS = (
    (2, 4, 3, 168), (2, 3, 4, 168), (2, 4, 3, 168),
    (2, 4, 4, 168), (2, 4, 4, 168),
) + ((2, 5, 4, 168),) * 7 + (
    (2, 3, 3, 168),
    (2, 5, 5, 168),
    (2, 6, 5, 168),
    (2, 6, 6, 168),
    (2, 7, 6, 168),
    (3, 3, 3, 11232),
) + ((2, 7, 7, 168),) * 4
VERIFY_UNREALIZABLE = ((4, 3), (3, 4))


def _verify_round(rng, expected):
    counts = expected["counts"]
    jobs = [
        _verify_job(f"f{p}_{d + dl}", p, d, dl,
                    draw_realizable(rng, counts, p, d, dl, count), count)
        for p, d, dl, count in VERIFY_SLOTS
    ]
    for d, dl in VERIFY_UNREALIZABLE:
        jobs.append(_verify_job("unrealizable_f2", 2, d, dl,
                                plant_double_incidence(rng, d, dl), 0))
    return jobs


def _rational_configuration(rng, modulus, points, lines):
    """Distinct points and lines over Q (modulus None) or F_modulus.

    Lines are drawn through one or two of the points or at random, so
    the read-off pattern has incidences of every kind.
    """
    def reduce(v):
        return tuple(v) if modulus is None else tuple(x % modulus for x in v)

    def cross(a, b):
        return reduce((a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                       a[0] * b[1] - a[1] * b[0]))

    def proportional(a, b):
        return not any(cross(a, b))

    while True:
        pts = [reduce(rng.randint(-4, 4) for _ in range(3)) for _ in range(points)]
        lns = []
        for _ in range(lines):
            style = rng.random()
            if style < 0.4 and points >= 2:
                lns.append(cross(*rng.sample(pts, 2)))
            elif style < 0.7 and points >= 1:
                lns.append(cross(rng.choice(pts),
                                 reduce(rng.randint(-4, 4) for _ in range(3))))
            else:
                lns.append(reduce(rng.randint(-4, 4) for _ in range(3)))
        vectors = [(v, "p") for v in pts] + [(v, "l") for v in lns]
        if any(not any(v) for v, _ in vectors):
            continue
        if any(ka == kb and proportional(a, b)
               for (a, ka), (b, kb) in itertools.combinations(vectors, 2)):
            continue
        return pts, lns


def chern_key(incidence, degree):
    text = json.dumps(incidence, sort_keys=True, separators=(",", ":"))
    return f"{text}|{degree}"


def murphy_ray_count(n):
    """(n+1) original rays plus one per subset of size 3..n; counted here
    rather than taken from the package, so the audit check stays independent."""
    return (n + 1) + sum(math.comb(n + 1, k) for k in range(3, n + 1))


def _audit_job(stratum, n):
    """The blow-up fan is valid, complete and smooth; Cl is free of rank
    #rays - n."""
    rays = murphy_ray_count(n)
    return {"kind": "audit", "stratum": stratum, "input": {"n": n},
            "expect": {"rays": rays, "free_rank": rays - n}}


# Per round: four cheap n=3 jobs, two n=4 Klyachko round trips, eight
# n=4 Chern classes around the median and three n=4 fan audits on top.
FAN_SLOTS = (
    ("chern", 3), ("audit", 3), ("klyachko", 3, "Q"), ("klyachko", 3, "Fp:101"),
    ("klyachko", 4, "Q"), ("klyachko", 4, "Fp:101"),
) + (("chern", 4),) * 8 + (("audit", 4),) * 3


def _fan_round(rng, expected):
    jobs = []
    for kind, n, *field in FAN_SLOTS:
        if kind == "audit":
            jobs.append(_audit_job(f"audit_n{n}", n))
        elif kind == "chern":
            d = rng.randint(0, n + 1)
            pts, lns = sample_configuration(rng, 5, d, n + 1 - d)
            incidence = incidence_json(d, n + 1 - d, read_pattern(pts, lns, 5))
            degree = rng.randint(1, 3)
            jobs.append({
                "kind": "chern",
                "stratum": f"chern_n{n}",
                "input": {"incidence": incidence, "degree": degree},
                "expect": {"digest": expected["chern"][chern_key(incidence, degree)]},
            })
        else:
            modulus = None if field[0] == "Q" else 101
            d = rng.randint(1, n)
            pts, lns = _rational_configuration(rng, modulus, d, n + 1 - d)
            jobs.append({
                "kind": "klyachko",
                "stratum": f"klyachko_n{n}_{'q' if modulus is None else 'f101'}",
                "input": {"n": n, "field": field[0],
                          "points": [list(v) for v in pts],
                          "lines": [list(v) for v in lns]},
                "expect": {"pairs": read_pattern(pts, lns, modulus)},
            })
    return jobs


ROUNDS = {
    "incidence_search": _incidence_round,
    "murphy_verify": _verify_round,
    "fan_bundle": _fan_round,
}

# One fixed, cheap job per workload, run untimed during set-up.
WARMUP = {
    "incidence_search": _enumerate_job(
        "warmup", 2, 2, 1, [(1, 1)], 84, True),
    "murphy_verify": _verify_job("warmup", 2, 2, 1, [(1, 1)], 84),
    "fan_bundle": _audit_job("warmup", 3),
}


def make_rounds(workload, seed, rounds, expected):
    """`rounds` lists of jobs for one workload, fixed by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(rounds):
        block = ROUNDS[workload](rng, expected)
        rng.shuffle(block)
        out.append(block)
    return out
