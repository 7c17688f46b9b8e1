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


def json_object(data, what, keys):
    """Refuse data unless it is a JSON object holding every key.

    The ValueError names the input (`what` JSON) and the problem in one
    line, as do those of json_rows.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} JSON lacks the key {key!r}")


def json_count(value, what, key):
    """value, refused unless it is a nonnegative integer (bool is not)."""
    if type(value) is not int:
        raise ValueError(f"{what} JSON: {key} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} JSON: {key} must be nonnegative, got {value}")
    return value


def json_rows(rows, what, key, item):
    """Refuse rows unless it is a list of lists of integers (no booleans)."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"{what} JSON: {key} must be a list of lists")
    for row in rows:
        for x in row:
            if type(x) is not int:
                raise ValueError(f"{what} JSON: a {item} must be an integer, got {x!r}")
