"""Prime fields, the rational field, and row reduction over either.

A "field" here is an object providing exact arithmetic on canonical
element representations: Fraction for Q, residues in range(p) for F_p.
Subspaces are represented by their reduced row echelon basis (a tuple of
row tuples), which is canonical, so subspace equality is tuple equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ToricError


class RationalField:
    """The field Q with Fraction elements."""

    tag = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def coerce(x):
        return Fraction(x)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return Fraction(1) / a

    @staticmethod
    def format(a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


QQ = RationalField()


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The field F_p for a small prime p, elements as residues in range(p)."""

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"{p!r} is not prime")
        if p >= 1 << 16:
            raise ValueError(f"prime modulus {p} exceeds the 2^16 cap")
        self.p = p
        self.zero = 0
        self.one = 1 % p
        self.tag = f"Fp:{p}"

    def coerce(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    @staticmethod
    def format(a):
        return int(a)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


def field_from_tag(tag):
    """Inverse of the `tag` attribute: "Q" or "Fp:<p>"."""
    if tag == "Q":
        return QQ
    if isinstance(tag, str) and tag.startswith("Fp:"):
        return _prime_field(int(tag[3:]))
    raise ToricError(f"unknown field tag {tag!r}")


@lru_cache(maxsize=64)
def _prime_field(p):
    return PrimeField(p)


def rref(rows, field):
    """Canonical reduced row echelon basis of the span of `rows`."""
    m = [[field.coerce(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    out = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != field.zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][col])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != field.zero:
                f = m[i][col]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    for i in range(r):
        out.append(tuple(m[i]))
    return tuple(out)


def span_contains(basis, v, field):
    """Whether vector v lies in the span of an rref basis."""
    v = [field.coerce(x) for x in v]
    for row in basis:
        piv = next(j for j, x in enumerate(row) if x != field.zero)
        if v[piv] != field.zero:
            f = v[piv]
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
    return all(x == field.zero for x in v)


def right_kernel(rows, ncols, field):
    """Canonical basis of {x : M x = 0} for M with the given rows."""
    basis = rref(rows, field)
    pivots = []
    for row in basis:
        pivots.append(next(j for j, x in enumerate(row) if x != field.zero))
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for row, piv in zip(basis, pivots):
            v[piv] = field.neg(row[f])
        out.append(tuple(v))
    return rref(out, field)


def subspace_sum(a, b, field):
    return rref(list(a) + list(b), field)


def subspace_intersect(a, b, field):
    """Intersection of two row spans, as a canonical rref basis."""
    if not a or not b:
        return ()
    stacked = list(a) + list(b)
    width = len(stacked[0])
    cols = [[row[j] for row in stacked] for j in range(width)]
    left_kernel = right_kernel(cols, len(stacked), field)
    gens = []
    for lam in left_kernel:
        v = [field.zero] * width
        for c, row in zip(lam[: len(a)], a):
            if c != field.zero:
                v = [field.add(x, field.mul(c, y)) for x, y in zip(v, row)]
        gens.append(v)
    return rref(gens, field)
