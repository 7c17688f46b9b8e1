import random
from fractions import Fraction

import pytest

from toricbundles.fields import QQ, right_kernel
from toricbundles.intlin import (
    NoIntegralSolution,
    det,
    fm_feasible,
    mat_mul,
    mat_vec,
    primitive,
    rank,
    smith_decomposition,
    smith_normal_form,
    solve_integer_linear,
    solve_rational,
    vec_gcd,
)


def random_unimodular(rng, n, steps=8):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if rng.random() < 0.3:
            k, l = rng.randrange(n), rng.randrange(n)
            if k != l:
                m[k], m[l] = m[l], m[k]
    return m


def test_primitive_and_gcd():
    assert vec_gcd([4, -6, 10]) == 2
    assert primitive([4, -6, 10]) == (2, -3, 5)
    assert primitive([0, -7]) == (0, -1)
    with pytest.raises(ValueError):
        primitive([0, 0])


def test_det_examples():
    assert det([[1, 0], [0, 1]]) == 1
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[1, 0, 0], [0, 1, 0], [-1, -1, -1]]) == -1


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1], [-1, -2]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0


def test_smith_normal_form_hand_values():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1], [-1]]) == [1]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    # 2x2 with a nontrivial invariant factor pair
    assert smith_normal_form([[2, 4], [4, 8]]) == [2]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]


def test_smith_decomposition_certificate():
    a = [[12, 6, 4, 8], [3, 9, 6, 12], [2, 16, 14, 28], [20, 10, 10, 20]]
    u, d, v = smith_decomposition(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(4)]
    for i in range(3):
        if diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0
    for i in range(4):
        for j in range(4):
            if i != j:
                assert d[i][j] == 0


def test_smith_unimodular_invariance_randomized():
    rng = random.Random(20260815)
    cases = 0
    while cases < 220:
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        p = random_unimodular(rng, m)
        q = random_unimodular(rng, n)
        b = mat_mul(mat_mul(p, a), q)
        assert smith_normal_form(a) == smith_normal_form(b)
        u, d, v = smith_decomposition(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        factors = [d[i][i] for i in range(min(m, n)) if d[i][i] != 0]
        assert all(f > 0 for f in factors)
        for x, y in zip(factors, factors[1:]):
            assert y % x == 0
        cases += 1


def test_solve_integer_linear_exactness():
    a = [[1, 0], [-1, -2]]
    x = solve_integer_linear(a, [2, 0])
    assert x == [2, -1]
    assert mat_vec(a, x) == [2, 0]

    res = solve_integer_linear(a, [1, 0])
    assert isinstance(res, NoIntegralSolution)
    assert not res
    assert res.kind == "not_integral"
    assert res.rational == (Fraction(1), Fraction(-1, 2))

    res = solve_integer_linear([[1, 1], [2, 2]], [1, 3])
    assert res.kind == "no_rational"
    assert res.rational is None


def test_solve_integer_linear_randomized():
    rng = random.Random(7)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        xtrue = [rng.randint(-5, 5) for _ in range(n)]
        b = mat_vec(a, xtrue)
        x = solve_integer_linear(a, b)
        assert not isinstance(x, NoIntegralSolution)
        assert mat_vec(a, x) == b


def test_solve_rational_and_kernel():
    assert solve_rational([[2, 0], [0, 4]], [1, 2]) == [
        Fraction(1, 2),
        Fraction(1, 2),
    ]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None
    ker = right_kernel([[1, 1, 0], [0, 0, 1]], 3, QQ)
    assert len(ker) == 1
    assert ker[0][0] + ker[0][1] == 0 and ker[0][2] == 0


def test_fm_feasibility_basics():
    # x >= 1 and -x >= 0 is infeasible
    assert not fm_feasible([], [((1,), 1), ((-1,), 0)], 1)
    # x >= 1 and x <= 3 (i.e. -x >= -3)
    assert fm_feasible([], [((1,), 1), ((-1,), -3)], 1)
    # x + y = 1 with x, y >= 0
    assert fm_feasible([((1, 1), 1)], [((1, 0), 0), ((0, 1), 0)], 2)
    # x + y = -1 with x, y >= 0
    assert not fm_feasible([((1, 1), -1)], [((1, 0), 0), ((0, 1), 0)], 2)
    # inconsistent equalities
    assert not fm_feasible([((1, 0), 1), ((1, 0), 2)], [], 2)
    # fractional data
    assert fm_feasible([], [((Fraction(1, 2),), Fraction(1, 4))], 1)


def test_fm_feasibility_separating_functional():
    # Find u with <u,(1,0)> >= 1, <u,(0,1)> >= 1: feasible (u = (1,1)).
    assert fm_feasible([], [((1, 0), 1), ((0, 1), 1)], 2)
    # u vanishing on (1,1) with <u,(1,0)> >= 1 and <u,(0,1)> >= 1: infeasible.
    assert not fm_feasible([((1, 1), 0)], [((1, 0), 1), ((0, 1), 1)], 2)
    # u vanishing on (1,1), positive on (1,0), negative on (0,1): u=(1,-1).
    assert fm_feasible([((1, 1), 0)], [((1, 0), 1), ((0, -1), 1)], 2)
