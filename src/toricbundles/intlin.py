"""Exact integer and rational linear algebra.

Matrices are lists of rows of Python ints, so everything is
arbitrary-precision.  Rational intermediates use fractions.Fraction.
No floating point enters any computation in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import FourierMotzkinBlowup


def vec_gcd(v) -> int:
    return gcd(*v)


def primitive(v):
    """Divide an integer vector by the gcd of its entries.

    Raises ValueError on the zero vector.
    """
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out

def mat_vec(a, x):
    return [sum(r * v for r, v in zip(row, x)) for row in a]


def det(a) -> int:
    """Determinant of a square integer matrix (Bareiss, exact)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(a) -> int:
    """Rank over Q of an integer (or Fraction) matrix."""
    m = [[Fraction(x) for x in row] for row in a]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def _rref_aug(a, b):
    """Reduced echelon form of [a | b] over Q.

    Returns (rows, pivot_cols) where rows include the augmented column.
    """
    ncols = len(a[0]) if a else (0 if not b else 0)
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


def solve_rational(a, b):
    """One rational solution of a x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    if len(a) != len(b):
        raise ValueError("shape mismatch")
    ncols = len(a[0]) if a else 0
    rows, pivots = _rref_aug(a, b)
    for row in rows[len(pivots):]:
        if row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        x[col] = row[-1]
    return x


def smith_decomposition(a):
    """Unimodular U, V and diagonal D with U a V = D.

    D carries the invariant factors on its diagonal: nonnegative, each
    dividing the next.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    d = [[int(x) for x in row] for row in a]
    u = identity(m)
    v = identity(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        for row in d:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def neg_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(m, n)):
        while True:
            piv = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = d[i][j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        piv = (i, j)
                if best == 1:
                    break
            if piv is None:
                break
            if piv != (t, t):
                if piv[0] != t:
                    swap_rows(t, piv[0])
                if piv[1] != t:
                    swap_cols(t, piv[1])
            if d[t][t] < 0:
                neg_row(t)
            restart = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t] != 0:
                        swap_rows(i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j] != 0:
                        swap_cols(j, t)
                        restart = True
                        break
            if restart:
                continue
            pivot = d[t][t]
            if pivot == 1:
                break
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % pivot != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if d[t][t] == 0:
            break
    return u, d, v


def smith_normal_form(a):
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix."""
    _, d, _ = smith_decomposition(a)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i] != 0:
            out.append(d[i][i])
    return out


@dataclass(frozen=True)
class NoIntegralSolution:
    """Failure witness for solve_integer_linear.

    kind is "no_rational" when the system is inconsistent over Q, and
    "not_integral" when a rational solution exists but no integer one;
    in the latter case `rational` carries one rational solution.
    """

    kind: str
    rational: tuple | None = None

    def __bool__(self):
        return False


def solve_integer_linear(a, b):
    """Integer solution x of a x = b, else a NoIntegralSolution witness."""
    m = len(a)
    if len(b) != m:
        raise ValueError("shape mismatch")
    n = len(a[0]) if m else 0
    u, d, v = smith_decomposition(a)
    c = mat_vec(u, list(b))
    y = [0] * n
    integral = True
    for i in range(m):
        di = d[i][i] if i < min(m, n) else 0
        if di == 0:
            if c[i] != 0:
                return NoIntegralSolution(kind="no_rational")
        elif c[i] % di == 0:
            y[i] = c[i] // di
        else:
            y[i] = Fraction(c[i], di)
            integral = False
    x = mat_vec(v, y)
    if not integral:
        return NoIntegralSolution(
            kind="not_integral", rational=tuple(Fraction(t) for t in x)
        )
    return x


def _normalize_ineq(coeffs, rhs):
    """Scale (coeffs, rhs) for c.x >= rhs to a primitive integer row."""
    row = (*coeffs, rhs)
    if set(map(type, row)) != {int}:
        denom = 1
        for x in row:
            if isinstance(x, Fraction):
                denom = denom * x.denominator // gcd(denom, x.denominator)
        row = tuple(int(x * denom) for x in row)
    g = vec_gcd(row)
    if g > 1:
        row = tuple(x // g for x in row)
    return row


def fm_feasible(eqs, ineqs, nvars, max_rows=200_000):
    """Exact feasibility of {eq.x = rhs} and {c.x >= rhs} over Q.

    Entries may be ints or Fractions.  Each row is scaled once to a
    primitive integer row, and everything after that stays in integers.
    Equalities are removed by fraction-free elimination (after Bareiss):
    the pivot e of column p turns every other row r into
    |e_p| r - sign(e_p) r_p e, divided by its gcd.  The pivot columns are
    those of the reduced echelon form, and the multiplier |e_p| is
    positive, so the rows left over the free variables are those of
    Gaussian substitution up to a positive factor.  Fourier-Motzkin then
    eliminates the free variables, fewest new rows first, and raises
    FourierMotzkinBlowup beyond `max_rows` rows.
    """
    pending = [_normalize_ineq(c, r) for c, r in eqs]
    work = [_normalize_ineq(c, r) for c, r in ineqs]
    pivots = set()
    for col in range(nvars):
        if not pending:
            break
        e = next((e for e in pending if e[col]), None)
        if e is None:
            continue
        pending.remove(e)
        pivots.add(col)
        scale = e[col]
        sign = 1 if scale > 0 else -1
        scale *= sign
        for rows in (pending, work):
            for k, r in enumerate(rows):
                f = r[col]
                if f:
                    f *= sign
                    comb = [scale * x - f * y for x, y in zip(r, e)]
                    g = vec_gcd(comb)
                    if g > 1:
                        comb = [x // g for x in comb]
                    rows[k] = comb
    # every equality left has lost all its coefficients
    if any(e[-1] for e in pending):
        return False
    active = [j for j in range(nvars) if j not in pivots]
    if pivots:
        work = [tuple([r[j] for j in active] + [r[-1]]) for r in work]

    rows = set()
    for row in work:
        if not any(row[:-1]):
            if row[-1] > 0:
                return False
            continue
        rows.add(row)

    nfree = len(active)
    for _ in range(nfree):
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
        keep = [r for r in rows if r[var] == 0]
        rows = set()
        for r in keep:
            rows.add(r[:var] + r[var + 1 :])
        for p in pos:
            for q in neg:
                comb = [
                    -q[var] * pb + p[var] * qb
                    for pb, qb in zip(p, q)
                ]
                del comb[var]
                if not any(comb[:-1]):
                    if comb[-1] > 0:
                        return False
                    continue
                g = vec_gcd(comb)
                rows.add(tuple(x // g for x in comb))
        if len(rows) > max_rows:
            raise FourierMotzkinBlowup(
                f"Fourier-Motzkin row blowup: {len(rows)} rows > {max_rows}"
            )
    # Every surviving row is constant by now: 0 >= rhs must hold.
    return all(r[-1] <= 0 for r in rows)
