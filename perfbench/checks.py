"""Answer checks for benchmark jobs, run outside the timed region.

Each check returns None when the answer is right and a one-line reason
otherwise.  Listed configurations are verified by the plain dot-product
test below rather than by the package's own checker, and counts against
closed forms where one exists, else against expected.json.
"""

from __future__ import annotations

import hashlib
import json
import workloads as W


def chern_digest(poly):
    """Short digest of a PiecewisePolynomial's canonical data."""
    text = json.dumps([poly.nvars, poly.degree, poly.polys])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected_count(job):
    """The closed form when there is one, else the frozen count."""
    inc = job["input"]
    pairs = [tuple(pair) for pair in inc["incidences"]]
    closed = W.closed_form_count(job["field"], inc["points"], inc["lines"], pairs)
    frozen = job["expect"]["count"]
    if closed is not None and closed != frozen:
        return None
    return frozen


class ListingChecker:
    """Plain dot-product test of listed configurations for one input.

    A configuration passes when its coordinates are normalized points of
    PG(2, p), its points and its lines are pairwise distinct, and point i
    lies on line j (dot product 0 mod p) exactly for the input's pairs.
    """

    def __init__(self, inc, p):
        self.p = p
        self.shape = (inc["points"], inc["lines"])
        self.wanted = {tuple(pair) for pair in inc["incidences"]}
        self.cells = [(i, j) for i in range(1, inc["points"] + 1)
                      for j in range(1, inc["lines"] + 1)]
        self.plane = set(W.projective_points(p))
        self.zero = {}
        self.seen = set()

    def _on(self, x, l):
        key = (x, l)
        if key not in self.zero:
            self.zero[key] = (x[0] * l[0] + x[1] * l[1] + x[2] * l[2]) % self.p == 0
        return self.zero[key]

    def reason(self, config):
        """Why the configuration fails (or repeats an earlier one), or None."""
        if config.get("field") != f"Fp:{self.p}":
            return f"field tag {config.get('field')!r}"
        points = tuple(map(tuple, config["points"]))
        lines = tuple(map(tuple, config["lines"]))
        if (len(points), len(lines)) != self.shape:
            return "wrong number of points or lines"
        if not self.plane.issuperset(points + lines):
            return "coordinates not normalized"
        if len(set(points)) != len(points) or len(set(lines)) != len(lines):
            return "repeated point or line"
        for i, j in self.cells:
            if self._on(points[i - 1], lines[j - 1]) != ((i, j) in self.wanted):
                return "incidences differ from the input"
        if (points, lines) in self.seen:
            return "configuration listed twice"
        self.seen.add((points, lines))
        return None


def check_enumerate(job, result):
    code, stdout = result
    if code != 0:
        return f"exit code {code}"
    want = expected_count(job)
    if want is None:
        return "frozen count contradicts the closed form"
    data = json.loads(stdout)
    if data.get("count") != want:
        return f"count {data.get('count')} != {want}"
    if job["kind"] == "count":
        return None if set(data) == {"count"} else "unexpected keys"
    configs = data.get("configurations")
    if not isinstance(configs, list) or len(configs) != want:
        return "listing length differs from the count"
    checker = ListingChecker(job["input"], job["field"])
    for config in configs:
        reason = checker.reason(config)
        if reason:
            return reason
    return None


def check_verify(job, result):
    code, stdout = result
    if code != 0:
        return f"exit code {code}"
    want = expected_count(job)
    if want is None:
        return "frozen count contradicts the closed form"
    data = json.loads(stdout)
    if data.get("equal") is not True or data.get("discrepancy") is not None:
        return "routes disagree"
    got = (data.get("count_conditions"), data.get("count_direct"))
    if got != (want, want):
        return f"counts {got} != {want}"
    return None


def check_chern(job, result):
    got = chern_digest(result)
    want = job["expect"]["digest"]
    return None if got == want else f"digest {got} != {want}"


def check_audit(job, result):
    if result["violation"] is not None:
        return f"validate_fan: {result['violation']}"
    if not result["complete"] or not result["smooth"]:
        return "fan not complete and smooth"
    want = job["expect"]
    if result["rays"] != want["rays"]:
        return f"{result['rays']} rays, expected {want['rays']}"
    group = result["class_group"]
    if tuple(group.torsion) != () or group.free_rank != want["free_rank"]:
        return f"class group {group}, expected free of rank {want['free_rank']}"
    return None


def check_klyachko(job, result, chern_module, murphy_module):
    """Recovered characters equal the rule-based datum on every cone."""
    handle, assignment = result
    if not assignment:
        return f"incompatible: {assignment}"
    data = job["input"]
    d, dl = len(data["points"]), len(data["lines"])
    incidence = murphy_module.incidence_data(d, dl, job["expect"]["pairs"])
    datum = chern_module.murphy_chern(incidence, handle)
    for k, cone in enumerate(handle.fan.max_cones):
        want = sorted(chern_module.chars_on_cone(datum, handle, cone))
        if sorted(assignment.characters[k]) != want:
            return f"characters differ on cone {cone}"
    return None
