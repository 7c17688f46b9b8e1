"""Fast exact checks against the plain versions they replaced.

Each oracle below is the earlier, slower formulation: fm_feasible with
its equalities substituted over Fraction, and all-pairs comparison of
maximal cones for the fan and Chern datum checks and for the agreement
of Chern polynomials on shared faces.
derandomize=True fixes the example stream.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toricbundles.chern import (
    _restriction,
    chars_on_cone,
    chern_polynomial,
    explicit_chern,
    murphy_chern,
    validate_chern,
)
from toricbundles.errors import InternalAudit
from toricbundles.fans import (
    Fan,
    projective_fan,
    star_subdivide,
    validate_fan,
)
from toricbundles.intlin import fm_feasible, rank, vec_gcd
from toricbundles.murphy import build_murphy_fan, incidence_data

# --- Fourier-Motzkin over Fraction -------------------------------------


def _oracle_rref_aug(a, b):
    ncols = len(a[0]) if a else 0
    m = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m[:r] + [row for row in m[r:] if any(row)], pivots


def _oracle_normalize(coeffs, rhs):
    denom = 1
    for x in (*coeffs, rhs):
        if isinstance(x, Fraction):
            denom = denom * x.denominator // gcd(denom, x.denominator)
    row = [int(x * denom) for x in coeffs] + [int(rhs * denom)]
    g = vec_gcd(row)
    if g > 1:
        row = [x // g for x in row]
    return tuple(row)


def _oracle_fm(eqs, ineqs, nvars):
    """The Fraction-based fm_feasible: Gaussian substitution of the
    equalities over Q, then Fourier-Motzkin on primitive integer rows."""
    subs = None
    active = list(range(nvars))
    if eqs:
        rows, pivots = _oracle_rref_aug(
            [list(c) for c, _ in eqs], [r for _, r in eqs]
        )
        for row in rows[len(pivots):]:
            if row[-1] != 0:
                return False
        subs = dict(zip(pivots, rows[: len(pivots)]))
        active = [j for j in range(nvars) if j not in subs]
    work = []
    for coeffs, rhs in ineqs:
        coeffs = [Fraction(x) for x in coeffs]
        rhs = Fraction(rhs)
        if subs:
            for p, row in subs.items():
                f = coeffs[p]
                if f != 0:
                    rhs -= f * row[-1]
                    for j in active:
                        coeffs[j] -= f * row[j]
                    coeffs[p] = Fraction(0)
        work.append(_oracle_normalize([coeffs[j] for j in active], rhs))
    rows = set()
    for row in work:
        if not any(row[:-1]):
            if row[-1] > 0:
                return False
            continue
        rows.add(row)
    for _ in range(len(active)):
        if not rows:
            return True
        width = len(next(iter(rows))) - 1
        counts = []
        for j in range(width):
            pos = sum(1 for r in rows if r[j] > 0)
            neg = sum(1 for r in rows if r[j] < 0)
            if pos or neg:
                counts.append((pos * neg, j))
        if not counts:
            break
        _, var = min(counts)
        pos = [r for r in rows if r[var] > 0]
        neg = [r for r in rows if r[var] < 0]
        rows = {r[:var] + r[var + 1 :] for r in rows if r[var] == 0}
        for p in pos:
            for q in neg:
                comb = [-q[var] * pb + p[var] * qb for pb, qb in zip(p, q)]
                del comb[var]
                if not any(comb[:-1]):
                    if comb[-1] > 0:
                        return False
                    continue
                g = vec_gcd(comb)
                rows.add(tuple(x // g for x in comb))
    return all(r[-1] <= 0 for r in rows)


small = st.integers(-3, 3)
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def systems(entry):
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.tuples(*[entry] * n), entry), max_size=3
            ),
            st.lists(
                st.tuples(st.tuples(*[entry] * n), entry), max_size=7
            ),
        )
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(systems(small), systems(fractions)))
def test_fm_feasible_matches_fraction_oracle(system):
    n, eqs, ineqs = system
    assert fm_feasible(eqs, ineqs, n) == _oracle_fm(eqs, ineqs, n)
    assert fm_feasible([], ineqs, n) == _oracle_fm([], ineqs, n)


def test_fm_oracle_sees_both_answers():
    # x + y = 1, x, y >= 0 is feasible; adding x + y >= 2 is not
    eqs = [((1, 1), 1)]
    ineqs = [((1, 0), 0), ((0, 1), 0)]
    assert _oracle_fm(eqs, ineqs, 2) and fm_feasible(eqs, ineqs, 2)
    ineqs.append(((Fraction(1, 2), Fraction(1, 2)), 1))
    assert not _oracle_fm(eqs, ineqs, 2)
    assert not fm_feasible(eqs, ineqs, 2)


# --- fan validation, all pairs -----------------------------------------


def _oracle_validate_fan(fan):
    """The FanViolation code of a plain all-pairs check, or None."""
    for ray in fan.rays:
        if len(ray) != fan.dim:
            return "ray_dim"
        if vec_gcd(ray) != 1:
            return "ray_not_primitive"
    if len(set(fan.rays)) != len(fan.rays):
        return "duplicate_rays"
    seen = set()
    for cone in fan.max_cones:
        if any(not 0 <= i < len(fan.rays) for i in cone):
            return "bad_index"
        if tuple(sorted(set(cone))) != cone:
            return "cone_not_canonical"
        if cone in seen:
            return "duplicate_cone"
        seen.add(cone)
        if cone and rank([list(fan.rays[i]) for i in cone]) != len(cone):
            return "not_simplicial"
    for a, b in combinations(fan.max_cones, 2):
        if set(a) <= set(b) or set(b) <= set(a):
            return "nested_maximal_cones"
        shared = set(a) & set(b)
        eqs = [(fan.rays[i], 0) for i in sorted(shared)]
        ineqs = [(fan.rays[i], 1) for i in a if i not in shared]
        ineqs += [(tuple(-x for x in fan.rays[i]), 1) for i in b if i not in shared]
        if not _oracle_fm(eqs, ineqs, fan.dim):
            return "intersection_not_face"
    return None


@st.composite
def subdivided_fans(draw):
    fan = projective_fan(3)
    for _ in range(draw(st.integers(0, 3))):
        cone = draw(st.sampled_from(fan.max_cones))
        face = draw(st.lists(st.sampled_from(cone), min_size=2, max_size=3,
                             unique=True))
        fan = star_subdivide(fan, tuple(sorted(face)))
    return fan


@st.composite
def corrupted_fans(draw):
    fan = draw(subdivided_fans())
    rays, cones = list(fan.rays), list(fan.max_cones)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(rays) - 1))
        rays[k] = draw(st.tuples(small, small, small).filter(any))
    else:
        k = draw(st.integers(0, len(cones) - 1))
        slot = draw(st.integers(0, len(cones[k]) - 1))
        new = draw(st.integers(0, len(rays) - 1))
        changed = list(cones[k])
        changed[slot] = new
        cones[k] = tuple(sorted(set(changed)))
    return Fan(dim=fan.dim, rays=tuple(rays), max_cones=tuple(cones))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(subdivided_fans())
def test_validate_fan_accepts_star_subdivisions_like_oracle(fan):
    assert validate_fan(fan) is None
    assert _oracle_validate_fan(fan) is None


@settings(derandomize=True, max_examples=80, deadline=None)
@given(corrupted_fans())
def test_validate_fan_matches_all_pairs_oracle(fan):
    violation = validate_fan(fan)
    code = None if violation is None else violation.code
    assert code == _oracle_validate_fan(fan)


# --- Chern datum and polynomials, all pairs -----------------------------


def _oracle_chern_pairs(fan, chars):
    """Every pair of maximal cones whose restrictions differ."""
    bad = set()
    for i, j in combinations(range(len(fan.max_cones)), 2):
        shared = sorted(set(fan.max_cones[i]) & set(fan.max_cones[j]))
        rays = [fan.rays[t] for t in shared]
        if shared and _restriction(chars[i], rays) != _restriction(chars[j], rays):
            bad.add((fan.max_cones[i], fan.max_cones[j]))
    return bad


@st.composite
def rule_data(draw):
    n = draw(st.integers(2, 4))
    points = draw(st.integers(0, n + 1))
    lines = n + 1 - points
    pairs = draw(st.sets(st.tuples(st.integers(1, points), st.integers(1, lines)))
                 if points and lines else st.just(set()))
    handle = build_murphy_fan(n)
    return handle, murphy_chern(incidence_data(points, lines, pairs), handle)


@st.composite
def corrupted_data(draw):
    handle, datum = draw(rule_data())
    fan = handle.fan
    chars = [list(chars_on_cone(datum, handle, c)) for c in fan.max_cones]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(chars) - 1))
        m = draw(st.integers(0, 2))
        u = list(chars[k][m])
        u[draw(st.integers(0, fan.dim - 1))] += draw(st.sampled_from([-1, 1]))
        chars[k][m] = tuple(u)
    return fan, chars


def _explicit(fan, chars):
    return explicit_chern(
        3, {fan.cone_vectors(c): u for c, u in zip(fan.max_cones, chars)}
    )


@settings(derandomize=True, max_examples=40, deadline=None)
@given(corrupted_data())
def test_validate_chern_matches_all_pairs_oracle(case):
    fan, chars = case
    chars = [tuple(sorted(u)) for u in chars]
    violation = validate_chern(fan, _explicit(fan, chars))
    bad = _oracle_chern_pairs(fan, chars)
    assert (violation is None) == (not bad)
    if violation is not None:
        assert (violation.cone_a, violation.cone_b) in bad
        shared = sorted(set(violation.cone_a) & set(violation.cone_b))
        assert violation.shared == tuple(fan.rays[t] for t in shared)
        assert violation.values_a != violation.values_b


def _oracle_substitute(p, vectors):
    """p(sum_k t_k v_k) expanded monomial by monomial."""
    m = len(vectors)
    out = {}
    for exps, coeff in p.items():
        term = {(0,) * m: coeff}
        for j, e in enumerate(exps):
            for _ in range(e):
                nxt = {}
                for mono, c in term.items():
                    for k in range(m):
                        if vectors[k][j]:
                            key = tuple(x + (t == k) for t, x in enumerate(mono))
                            nxt[key] = nxt.get(key, 0) + c * vectors[k][j]
                term = nxt
        for mono, c in term.items():
            out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


def _oracle_poly_pairs(fan, polys):
    bad = set()
    for a, b in combinations(range(len(fan.max_cones)), 2):
        shared = sorted(set(fan.max_cones[a]) & set(fan.max_cones[b]))
        rays = [fan.rays[t] for t in shared]
        if shared and _oracle_substitute(polys[a], rays) != _oracle_substitute(
            polys[b], rays
        ):
            bad.add((a, b))
    return bad


@settings(derandomize=True, max_examples=30, deadline=None)
@given(rule_data(), corrupted_data(), st.integers(1, 3))
def test_chern_polynomial_agrees_on_faces_like_oracle(rule, case, degree):
    handle, datum = rule
    polys = chern_polynomial(datum, handle, degree).polys
    assert not _oracle_poly_pairs(handle.fan, [dict(p) for p in polys])
    fan, chars = case
    explicit = _explicit(fan, chars)
    if _oracle_chern_pairs(fan, chars):
        with pytest.raises(InternalAudit):
            chern_polynomial(explicit, fan, degree)
    else:
        polys = chern_polynomial(explicit, fan, degree).polys
        assert not _oracle_poly_pairs(fan, [dict(p) for p in polys])
