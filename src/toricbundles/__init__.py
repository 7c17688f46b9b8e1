"""Exact toric fans, equivariant bundle data, and incidence verification.

The package is organized as a small library of exact (integer / rational /
prime-field) computational kernels:

- intlin: Smith normal form, integer linear solve, rational feasibility
- fields: prime fields and row-reduction over abstract fields
- fans: simplicial rational fans, star subdivision, smooth/complete tests
- murphy: iterated blowups of projective space with a lazy cone oracle
- divisors: Cartier tests, support functions, divisor class groups
- klyachko: filtration compatibility and splitting bases
- chern: per-cone character data, validation, piecewise polynomials
- moduli: compilation of bundle data into incidence conditions
- incidence: point/line configurations over small fields and equivalence
- cli: command-line access to all of the above
"""

import json

__version__ = "0.1.0"

SCHEMA_VERSION = "1"


def canonical_json(obj):
    """The one JSON text for obj: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
