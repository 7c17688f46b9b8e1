"""Hypothesis property suites for the exact-arithmetic kernels.

derandomize=True keeps every run on a fixed example stream, so these
are deterministic invariant checks rather than fuzzing.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from hypothesis import example, given, settings, strategies as st

from toricbundles.fields import (
    QQ,
    PrimeField,
    rref,
    span_contains,
    subspace_intersect,
    subspace_sum,
)
from toricbundles.incidence import (
    DISTINCT,
    ZERO_DOT,
    _configurations,
    _constraints_from_incidence,
    _plane,
    check_configuration,
    count_c_i,
    enumerate_c_i,
    make_configuration,
    normalize_triple,
)
from toricbundles.intlin import (
    mat_vec,
    primitive,
    smith_normal_form,
    solve_integer_linear,
    solve_rational,
)
from toricbundles.murphy import incidence_data

FIXED = settings(derandomize=True, max_examples=60, deadline=None)

entries = st.integers(min_value=-9, max_value=9)


def matrices(max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda m: st.integers(1, max_side).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


@FIXED
@given(st.lists(entries, min_size=1, max_size=5).filter(lambda v: any(v)))
def test_primitive_is_primitive_and_parallel(v):
    p = primitive(v)
    assert gcd(*p, 0) == 1 if len(p) > 1 else abs(p[0]) == 1
    g = gcd(*(abs(x) for x in v))
    assert tuple(x // g for x in v) == p


@FIXED
@given(matrices())
def test_smith_factors_form_divisibility_chain(a):
    factors = smith_normal_form(a)
    assert all(f > 0 for f in factors)
    for x, y in zip(factors, factors[1:]):
        assert y % x == 0
    assert len(factors) <= min(len(a), len(a[0]))


@FIXED
@given(matrices(), st.lists(entries, min_size=1, max_size=4))
def test_integer_solve_is_exact(a, x):
    x = x[: len(a[0])] + [0] * (len(a[0]) - len(x))
    b = mat_vec(a, x)
    solved = solve_integer_linear(a, b)
    assert solved
    assert mat_vec(a, list(solved)) == b


@FIXED
@given(matrices(), st.lists(entries, min_size=4, max_size=4))
def test_integer_solve_agrees_with_rational_solve(a, b):
    b = b[: len(a)] + [0] * (len(a) - len(b))
    rational = solve_rational(a, b)
    solved = solve_integer_linear(a, b)
    if rational is None:
        assert not solved and solved.kind == "no_rational"
    elif solved:
        assert all(type(x) is int for x in solved)
        assert mat_vec(a, solved) == b
    else:
        # an integral rational solution would contradict the witness
        assert any(x.denominator != 1 for x in rational)
        assert solved.kind == "not_integral"
        assert all(isinstance(x, Fraction) for x in solved.rational)
        assert mat_vec(a, list(solved.rational)) == b


@FIXED
@given(matrices(), st.sampled_from([QQ, PrimeField(2), PrimeField(5)]))
def test_rref_is_idempotent_and_spans(a, fld):
    basis = rref(a, fld)
    assert rref(basis, fld) == basis
    for row in a:
        assert span_contains(basis, row, fld)


@FIXED
@given(matrices(3), matrices(3), st.sampled_from([QQ, PrimeField(3)]))
def test_subspace_lattice_bounds(a, b, fld):
    width = max(len(a[0]), len(b[0]))
    a = [list(r) + [0] * (width - len(r)) for r in a]
    b = [list(r) + [0] * (width - len(r)) for r in b]
    meet = subspace_intersect(rref(a, fld), rref(b, fld), fld)
    join = subspace_sum(a, b, fld)
    for v in meet:
        assert span_contains(rref(a, fld), v, fld)
        assert span_contains(rref(b, fld), v, fld)
        assert span_contains(join, v, fld)
    for v in rref(a, fld):
        assert span_contains(join, v, fld)
    assert len(meet) + len(join) == len(rref(a, fld)) + len(rref(b, fld))


@FIXED
@given(
    st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(lambda v: any(v)),
    st.integers(1, 4),
)
def test_normalize_triple_kills_scaling(v, c):
    fld = PrimeField(5)
    scaled = [c * x % 5 for x in v]
    if any(scaled):
        assert normalize_triple(scaled, fld) == normalize_triple(v, fld)
    assert normalize_triple(
        [Fraction(3, 7) * x for x in v], QQ
    ) == normalize_triple(v, QQ)


def _brute(n_objects, constraints, on, size):
    """Every assignment in lexicographic order, each checked in full."""
    found = []
    for combo in product(range(size), repeat=n_objects):
        for a, b, kind in constraints:
            va, vb = combo[a], combo[b]
            if kind == DISTINCT:
                ok = va != vb
            else:
                ok = (on[va] >> vb & 1) == (kind == ZERO_DOT)
            if not ok:
                break
        else:
            found.append(combo)
    return found


def brute_force(inc, p):
    """The oracle: configurations realizing inc over F_p, by a full scan."""
    universe, on = _plane(p)
    found = _brute(inc.total, _constraints_from_incidence(inc), on, len(universe))
    return _configurations(inc.points, found, p)


@st.composite
def incidence_cases(draw, primes=(2, 3, 5)):
    """A prime and incidence data with d + d' <= 4 (brute force stays cheap)."""
    p = draw(st.sampled_from(primes))
    total = draw(st.integers(1, 4))
    d = draw(st.integers(0, total))
    cells = [(i, j) for i in range(1, d + 1) for j in range(1, total - d + 1)]
    pairs = [cell for cell in cells if draw(st.booleans())]
    return p, incidence_data(d, total - d, pairs)


# two points on two common lines: no configuration of distinct points
# and distinct lines realizes it, over any field
BLOCK = incidence_data(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(incidence_cases())
@example((2, BLOCK))
@example((3, BLOCK))
@example((5, BLOCK))
def test_forward_checking_matches_brute_force(case):
    p, inc = case
    oracle = brute_force(inc, p)
    assert enumerate_c_i(inc, p) == oracle
    assert enumerate_c_i(inc, p, workers=2) == oracle
    assert count_c_i(inc, p) == count_c_i(inc, p, workers=2) == len(oracle)
    if inc is BLOCK:
        assert oracle == []


@FIXED
@given(incidence_cases(primes=(2, 3)), st.data())
def test_check_configuration_agrees_with_brute_force(case, data):
    p, inc = case
    oracle = brute_force(inc, p)
    if oracle and data.draw(st.booleans()):
        config = data.draw(st.sampled_from(oracle))
    else:
        vector = st.tuples(*[st.integers(0, p - 1)] * 3).filter(any)
        config = make_configuration(
            f"Fp:{p}",
            data.draw(st.lists(vector, min_size=inc.points, max_size=inc.points)),
            data.draw(st.lists(vector, min_size=inc.lines, max_size=inc.lines)),
        )
    assert check_configuration(config, inc) == (config in oracle)
