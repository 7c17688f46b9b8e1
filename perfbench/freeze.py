"""Recompute perfbench/expected.json with the package in this checkout.

    python3 perfbench/freeze.py

The answers the benchmark checks against, frozen from one commit:

- counts: solution count of every incidence-pattern type that the job
  generators can draw, keyed by field and pattern type.  The families
  are enumerated exhaustively, so a lookup never misses: for each shape
  of a round slot, every pair of a point subset and a line subset of
  PG(2, 2) over F_2 and every labelled pattern over larger fields; and
  the Fano sub-patterns.
- chern: a digest of chern_polynomial for every labelled pattern with
  d + d' in {4, 5} and every degree 1..3.

Run it only at a commit whose answers are trusted; a later change that
alters an answer is then reported as a failed job.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads as W  # noqa: E402
from toricbundles.chern import chern_polynomial, murphy_chern  # noqa: E402
from toricbundles.incidence import enumerate_c_i  # noqa: E402
from toricbundles.murphy import build_murphy_fan, incidence_data  # noqa: E402


def labelled_patterns(points, lines):
    cells = [(i, j) for i in range(1, points + 1) for j in range(1, lines + 1)]
    for mask in range(1 << len(cells)):
        yield points, lines, [c for k, c in enumerate(cells) if mask >> k & 1]


def subset_patterns(p, points, lines):
    universe = W.projective_points(p)
    for pts in itertools.combinations(universe, points):
        for lns in itertools.combinations(universe, lines):
            yield points, lines, W.read_pattern(pts, lns, p)


def main():
    started = time.time()
    shapes = {(p, d, dl) for _, p, d, dl, _, _ in W.INCIDENCE_SLOTS}
    shapes |= {(p, d, dl) for p, d, dl, _ in W.VERIFY_SLOTS}
    families = [
        # over F_2 every configuration is a pair of subsets of the 7 points
        (p, subset_patterns(p, d, dl) if p == 2 else labelled_patterns(d, dl))
        for p, d, dl in sorted(shapes)
    ]
    families.append((3, (W.fano_subpattern(*drop) for drop in W.FANO_DROPS)))

    counts = {}
    for p, patterns in families:
        for d, dl, pairs in patterns:
            key = W.count_key(p, d, dl, pairs)
            if key not in counts:
                inc = incidence_data(d, dl, pairs)
                counts[key] = len(enumerate_c_i(inc, p))
        print(f"counts: {len(counts)} types ({time.time() - started:.0f}s)",
              file=sys.stderr, flush=True)

    chern = {}
    for n in (3, 4):
        handle = build_murphy_fan(n, materialize=True)
        for d in range(n + 2):
            for _, _, pairs in labelled_patterns(d, n + 1 - d):
                inc_json = W.incidence_json(d, n + 1 - d, pairs)
                datum = murphy_chern(incidence_data(d, n + 1 - d, pairs), handle)
                for degree in (1, 2, 3):
                    poly = chern_polynomial(datum, handle, degree)
                    chern[W.chern_key(inc_json, degree)] = checks.chern_digest(poly)
        print(f"chern: {len(chern)} digests ({time.time() - started:.0f}s)",
              file=sys.stderr, flush=True)

    partial = W.EXPECTED_PATH + ".partial"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump({"counts": counts, "chern": chern}, handle, sort_keys=True,
                  indent=0)
        handle.write("\n")
    os.replace(partial, W.EXPECTED_PATH)


if __name__ == "__main__":
    main()
