"""Exit codes, canonical JSON output, and determinism of the CLI."""

import json
import time

import pytest

from toricbundles import canonical_json
from toricbundles.cli import MAX_WORKERS, main
from toricbundles.fields import QQ
from toricbundles.incidence import configuration_to_json, enumerate_c_i
from toricbundles.klyachko import (
    filtration_to_json,
    make_filtration,
    trivial_filtration,
)
from toricbundles.fans import fan_to_json, make_fan, projective_fan
from toricbundles.murphy import fano_incidence, incidence_data

P112 = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -2]],
        "max_cones": [[0, 1], [1, 2], [0, 2]]}
PAIR = {"points": 2, "lines": 1, "incidences": [[1, 1]]}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_version(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert out.strip() == "1"


def test_usage_errors(capsys):
    assert run(capsys, ["nonsense"])[0] == 2
    assert run(capsys, ["fan"])[0] == 2
    code, out, err = run(capsys, ["fan", "smooth", "--fan", "/no/such/file"])
    assert code == 2
    assert out == ""
    assert "error:" in err
    # the search has one engine; there is no --mode to pick another
    code, out, _ = run(capsys, ["incidence", "enumerate", "--incidence", "x",
                                "--field", "2", "--mode", "brute"])
    assert (code, out) == (2, "")


def test_murphy_fan_n3(capsys):
    code, out, err = run(capsys, ["murphy", "fan", "--n", "3"])
    assert code == 0
    data = json.loads(out)
    assert len(data["rays"]) == 8
    assert len(data["max_cones"]) == 12
    assert "8 rays" in err


def test_murphy_fan_lazy(capsys):
    code, out, _ = run(capsys, ["murphy", "fan", "--n", "9", "--lazy"])
    assert code == 0
    data = json.loads(out)
    assert data["max_cones"] == "lazy"
    assert data["ray_count"] == len(data["rays"])


def test_fan_smooth_exit_codes(tmp_path, capsys):
    p112 = write(tmp_path, "p112.json", P112)
    code, out, _ = run(capsys, ["fan", "smooth", "--fan", p112])
    assert code == 1
    assert json.loads(out) == {"smooth": False}
    p2 = write(tmp_path, "p2.json", fan_to_json(projective_fan(2)))
    code, out, _ = run(capsys, ["fan", "smooth", "--fan", p2])
    assert code == 0
    assert json.loads(out) == {"smooth": True}


def test_fan_build_validate_complete(tmp_path, capsys):
    code, out, _ = run(capsys, [
        "fan", "build", "--dim", "2",
        "--rays", "[[1,0],[0,1],[-1,-1]]",
        "--cones", "[[0,1],[1,2],[0,2]]",
    ])
    assert code == 0
    built = json.loads(out)
    assert len(built["rays"]) == 3
    path = write(tmp_path, "built.json", built)
    assert run(capsys, ["fan", "validate", "--fan", path])[0] == 0
    assert run(capsys, ["fan", "complete", "--fan", path])[0] == 0

    overlapping = write(tmp_path, "bad.json", {
        "dim": 2,
        "rays": [[1, 0], [0, 1], [1, 1]],
        "max_cones": [[0, 1], [1, 2], [0, 2]],
    })
    code, out, _ = run(capsys, ["fan", "validate", "--fan", overlapping])
    assert code == 1
    assert json.loads(out)["valid"] is False

    quadrant = write(tmp_path, "quadrant.json", {
        "dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]],
    })
    code, out, _ = run(capsys, ["fan", "complete", "--fan", quadrant])
    assert code == 1
    assert json.loads(out) == {"complete": False}


def test_fan_subdivide(tmp_path, capsys):
    p2 = write(tmp_path, "p2.json", fan_to_json(projective_fan(2)))
    code, out, _ = run(capsys, ["fan", "subdivide", "--fan", p2,
                                "--cone", "[1,2]"])
    assert code == 0
    data = json.loads(out)
    assert len(data["rays"]) == 4
    assert len(data["max_cones"]) == 4


def test_murphy_verify_pair(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    report = str(tmp_path / "report.json")
    code, out, err = run(capsys, [
        "murphy", "verify", "--incidence", pair, "--field", "2",
        "--report", report,
    ])
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["count_conditions"] == 84
    assert data["count_direct"] == 84
    assert "84" in err and "agree" in err
    assert json.loads(open(report).read()) == data


def test_murphy_equations_and_audit(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    code, out, _ = run(capsys, ["murphy", "equations", "--incidence", pair])
    assert code == 0
    atoms = json.loads(out)["atoms"]
    assert {a["kind"] for a in atoms} == {
        "DISTINCT_POINTS", "INCIDENT", "NON_INCIDENT"
    }
    code, out, _ = run(capsys, ["murphy", "audit", "--incidence", pair])
    assert code == 0
    assert json.loads(out) == {"ok": True}


def test_murphy_chern_and_signature(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    code, out, _ = run(capsys, ["murphy", "chern", "--incidence", pair])
    assert code == 0
    chern = write(tmp_path, "chern.json", json.loads(out))
    # label 1 is a point object: one character hits level 1
    code, out, _ = run(capsys, ["bundle", "signature", "--chern", chern,
                                "--ray", "1"])
    assert code == 0
    assert json.loads(out) == {"signature": [[1, 1], [2, 0]]}
    # label 3 is the line object, addressed here by its ray vector -e1-e2
    code, out, _ = run(capsys, ["bundle", "signature", "--chern", chern,
                                "--ray", "[-1,-1]"])
    assert code == 0
    assert json.loads(out) == {"signature": [[1, 2], [2, 0]]}


def test_divisor_commands(tmp_path, capsys):
    p112 = write(tmp_path, "p112.json", P112)
    # rays sort to [(-1,-2),(0,1),(1,0)]; put coefficient 1 on ray (1,0)
    code, out, _ = run(capsys, ["divisor", "cartier", "--fan", p112,
                                "--coeffs", "[0,0,1]"])
    assert code == 1
    data = json.loads(out)
    assert data["cartier"] is False
    assert data["obstruction"] == ["1", "-1/2"]

    code, out, _ = run(capsys, ["divisor", "cartier", "--fan", p112,
                                "--coeffs", "[0,0,2]"])
    assert code == 0
    assert json.loads(out)["cartier"] is True

    code, out, _ = run(capsys, ["divisor", "classgroup", "--fan", p112])
    assert code == 0
    assert json.loads(out) == {"free_rank": 1, "torsion": []}

    p1 = write(tmp_path, "p1.json", {
        "dim": 1, "rays": [[-1], [1]], "max_cones": [[0], [1]],
    })
    code, out, _ = run(capsys, ["divisor", "support", "--fan", p1,
                                "--coeffs", "[0,1]", "--point", "[2]"])
    assert code == 0
    assert json.loads(out) == {"value": 2}
    code, out, _ = run(capsys, ["divisor", "support", "--fan", p1,
                                "--coeffs", "[0,1]", "--point", "[\"1/2\"]"])
    assert code == 0
    assert json.loads(out) == {"value": "1/2"}

    quadrant = write(tmp_path, "quadrant.json", {
        "dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]],
    })
    code, out, _ = run(capsys, ["divisor", "support", "--fan", quadrant,
                                "--coeffs", "[1,1]", "--point", "[-1,-1]"])
    assert code == 1
    assert "outside" in json.loads(out)["error"]


def test_bundle_check_compat(tmp_path, capsys):
    p2 = write(tmp_path, "p2.json", fan_to_json(projective_fan(2)))
    triv = write(tmp_path, "triv.json",
                 filtration_to_json(trivial_filtration(3, QQ, projective_fan(2))))
    code, out, _ = run(capsys, ["bundle", "check-compat", "--fan", p2,
                                "--filtration", triv])
    assert code == 0
    data = json.loads(out)
    assert data["compatible"] is True
    assert data["rank"] == 3
    assert len(data["cones"]) == 3

    orthant = write(tmp_path, "orthant.json", fan_to_json(
        make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    ))
    lines = write(tmp_path, "lines.json", filtration_to_json(make_filtration(
        2, QQ, {
            (1, 0, 0): [(1, [(1, 0)])],
            (0, 1, 0): [(1, [(0, 1)])],
            (0, 0, 1): [(1, [(1, 1)])],
        },
    )))
    code, out, _ = run(capsys, ["bundle", "check-compat", "--fan", orthant,
                                "--filtration", lines])
    assert code == 1
    data = json.loads(out)
    assert data["compatible"] is False
    assert data["reason"] == "negative_multiplicity"


def test_incidence_enumerate_and_check(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    code, out, _ = run(capsys, ["incidence", "enumerate", "--incidence", pair,
                                "--field", "2", "--count-only"])
    assert code == 0
    assert json.loads(out) == {"count": 84}

    code, full, _ = run(capsys, ["incidence", "enumerate", "--incidence", pair,
                                 "--field", "2"])
    assert code == 0
    configs = json.loads(full)["configurations"]
    assert len(configs) == 84

    good = write(tmp_path, "good.json", configs[0])
    code, out, _ = run(capsys, ["incidence", "check", "--config", good,
                                "--incidence", pair])
    assert code == 0
    assert json.loads(out) == {"matches": True}

    bad = write(tmp_path, "bad.json", {
        "field": "Fp:2",
        "points": [[1, 0, 0], [0, 1, 0]],
        "lines": [[1, 1, 1]],
    })
    code, out, _ = run(capsys, ["incidence", "check", "--config", bad,
                                "--incidence", pair])
    assert code == 1
    assert json.loads(out) == {"matches": False}


def test_incidence_budget_exit(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    code, out, err = run(capsys, ["incidence", "enumerate", "--incidence", pair,
                                  "--field", "3", "--budget", "10"])
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_worker_output_is_byte_identical(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    outputs = []
    for workers in ("1", "2", "3"):
        code, out, _ = run(capsys, [
            "incidence", "enumerate", "--incidence", pair, "--field", "2",
            "--workers", workers,
        ])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_count_only_is_byte_identical(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    for workers in ("1", "2", "3"):
        code, out, _ = run(capsys, [
            "incidence", "enumerate", "--incidence", pair, "--field", "3",
            "--count-only", "--workers", workers,
        ])
        assert code == 0
        assert out == '{"count":468}\n'


def test_fourier_motzkin_blowup_exits_2(tmp_path, capsys, monkeypatch):
    from functools import partial

    from toricbundles import fans, intlin
    from toricbundles.murphy import build_murphy_fan

    fan = write(tmp_path, "fan.json",
                fan_to_json(build_murphy_fan(3, materialize=True).fan))
    monkeypatch.setattr(fans, "fm_feasible",
                        partial(intlin.fm_feasible, max_rows=1))
    code, out, err = run(capsys, ["fan", "validate", "--fan", fan])
    assert code == 2
    assert out == ""
    assert err.startswith("error: Fourier-Motzkin row blowup")
    assert err.count("\n") == 1


def test_stdout_is_canonical_json(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    _, out, _ = run(capsys, ["murphy", "equations", "--incidence", pair])
    data = json.loads(out)
    assert out == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("data, reason", [
    ({"points": True, "lines": 1, "incidences": []}, "points must be an integer"),
    ({"points": 2, "lines": False, "incidences": []}, "lines must be an integer"),
    ({"points": 2, "lines": 1, "incidences": [[True, 1]]},
     "a pair entry must be an integer"),
    ({"points": -1, "lines": 1, "incidences": []}, "points must be nonnegative"),
    ({"points": 2, "lines": 1, "incidences": [[1, -1]]},
     "a pair entry must be nonnegative"),
    ({"points": 2, "lines": 1, "incidences": [[1, 1], [1, 1]]},
     "pair [1, 1] is repeated"),
    ({"points": 2, "lines": 1, "incidences": [[1]]},
     "[1] is not a pair of two integers"),
    ({"points": 2, "lines": 1, "incidences": [[1, 1, 1]]},
     "[1, 1, 1] is not a pair of two integers"),
    ({"points": 2, "lines": 1, "incidences": [[1, 1.5]]},
     "a pair entry must be an integer"),
    ({"points": 2, "lines": 1, "incidences": [[1, "1"]]},
     "a pair entry must be an integer"),
    ({"points": 2, "lines": 1, "incidences": {"1": 1}},
     "incidences must be a list of pairs"),
    ({"points": 2, "lines": 1}, "lacks the key 'incidences'"),
    ({"lines": 1, "incidences": []}, "lacks the key 'points'"),
    ([2, 1, []], "must be an object"),
])
def test_malformed_incidence_json_exits_2(tmp_path, capsys, data, reason):
    path = write(tmp_path, "bad.json", data)
    for argv in (
        ["incidence", "enumerate", "--incidence", path, "--field", "2",
         "--count-only"],
        ["murphy", "verify", "--incidence", path, "--field", "2"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: incidence JSON")
        assert reason in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("data, reason", [
    ({"field": "Fp:2", "points": [[1, 0]], "lines": [[0, 0, 1]]},
     "[1, 0] is not a triple of field elements"),
    ({"field": "Fp:2", "points": [[1, 0, 0, 5]], "lines": [[0, 0, 1]]},
     "[1, 0, 0, 5] is not a triple of field elements"),
    ({"field": "Fp:2", "points": [[True, 0, 0]], "lines": [[0, 0, 1]]},
     "[True, 0, 0] is not a triple of field elements"),
    ({"field": "Fp:2", "points": [[1, 0, 0]], "lines": [[0, None, 1]]},
     "[0, None, 1] is not a triple of field elements"),
    ({"field": "Fp:2", "points": [1], "lines": [[0, 0, 1]]},
     "points must be a list of vectors"),
    ({"points": [[1, 0, 0]], "lines": [[0, 0, 1]]}, "lacks the key 'field'"),
    ({"field": "Fp:2", "lines": [[0, 0, 1]]}, "lacks the key 'points'"),
    ({"field": "Fp:2", "points": [[1, 0, 0]]}, "lacks the key 'lines'"),
    ([1], "must be an object"),
])
def test_malformed_configuration_json_exits_2(tmp_path, capsys, data, reason):
    inc = write(tmp_path, "inc.json", {"points": 1, "lines": 1, "incidences": [[1, 1]]})
    path = write(tmp_path, "bad.json", data)
    code, out, err = run(capsys, ["incidence", "check", "--config", path,
                                  "--incidence", inc])
    assert code == 2
    assert out == ""
    assert err.startswith("error: configuration JSON")
    assert reason in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("data, reason", [
    (dict(P112, rays=[[True, 0], [0, 1], [-1, -1]]),
     "a ray coordinate must be an integer, got True"),
    (dict(P112, max_cones=[[0, 1.5], [1, 2], [0, 2]]),
     "a cone index must be an integer, got 1.5"),
    (dict(P112, max_cones=[[0, 3], [1, 2], [0, 2]]), "cone references a missing ray"),
    (dict(P112, dim=True), "dim must be a nonnegative integer"),
    (dict(P112, rays=[1, 2]), "rays must be a list of lists"),
    ({"dim": 2, "rays": P112["rays"]}, "lacks the key 'max_cones'"),
    ([P112], "must be an object"),
])
def test_malformed_fan_json_exits_2(tmp_path, capsys, data, reason):
    path = write(tmp_path, "bad.json", data)
    for command in ("validate", "smooth", "complete"):
        code, out, err = run(capsys, ["fan", command, "--fan", path])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert reason in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("rays, cones, reason", [
    ("[[true,0],[0,1],[-1,-1]]", "[[0,1],[1,2],[0,2]]",
     "a ray coordinate must be an integer, got True"),
    ('[["1",0],[0,1],[-1,-1]]', "[[0,1],[1,2],[0,2]]",
     "a ray coordinate must be an integer, got '1'"),
    ("[[1,0],[0,1],[-1,-1]]", "[[0,1.5],[1,2],[0,2]]",
     "a cone index must be an integer, got 1.5"),
    ("[[1,0],[0,1],[-1,-1]]", "[[0,3],[1,2],[0,2]]", "cone references a missing ray"),
    ("[1,2]", "[[0,1]]", "rays must be a list of lists"),
])
def test_fan_build_malformed_exits_2(capsys, rays, cones, reason):
    code, out, err = run(capsys, ["fan", "build", "--dim", "2",
                                  "--rays", rays, "--cones", cones])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert reason in err
    assert err.count("\n") == 1


EXPLICIT = {"rank": 2, "cones": [
    {"rays": [[1, 0], [0, 1]], "chars": [[1, 0], [0, 1]]},
    {"rays": [[0, 1], [-1, -1]], "chars": [[-1, 0], [-1, 1]]},
    {"rays": [[1, 0], [-1, -1]], "chars": [[1, -1], [0, -1]]},
]}


def test_bundle_signature_explicit(tmp_path, capsys):
    p2 = write(tmp_path, "p2.json", fan_to_json(projective_fan(2)))
    chern = write(tmp_path, "chern.json", EXPLICIT)
    code, out, _ = run(capsys, ["bundle", "signature", "--chern", chern,
                                "--fan", p2, "--ray", "[1,0]"])
    assert code == 0
    assert json.loads(out) == {"signature": [[1, 1], [2, 0]]}
    code, out, err = run(capsys, ["bundle", "signature", "--chern", chern,
                                  "--ray", "[1,0]"])
    assert code == 2
    assert out == ""
    assert err == "error: an explicit character datum needs a fan\n"


CONE = {"rays": [[1, 0], [0, 1]], "chars": [[0, 0]]}


@pytest.mark.parametrize("data, reason", [
    ([1], "character datum JSON must be an object"),
    ({"rule": "murphy"}, "character datum JSON lacks the key 'incidence'"),
    ({"rule": "other", "incidence": PAIR}, "unknown rule 'other'"),
    ({"rule": "murphy", "incidence": [1]}, "incidence JSON must be an object"),
    ({"cones": [CONE]}, "lacks the key 'rank'"),
    ({"rank": 1}, "lacks the key 'cones'"),
    ({"rank": True, "cones": [CONE]}, "rank must be an integer, got True"),
    ({"rank": 1.0, "cones": [CONE]}, "rank must be an integer, got 1.0"),
    ({"rank": -1, "cones": [CONE]}, "rank must be nonnegative, got -1"),
    ({"rank": 1, "cones": [[1, 0]]},
     "cones must be a list of objects with rays and chars"),
    ({"rank": 1, "cones": [{"rays": [[1, 0]]}]},
     "cones must be a list of objects with rays and chars"),
    ({"rank": 1, "cones": [dict(CONE, rays=[[True, 0], [0, 1]])]},
     "a ray coordinate must be an integer, got True"),
    ({"rank": 1, "cones": [dict(CONE, rays=[1, 0])]}, "rays must be a list of lists"),
    ({"rank": 1, "cones": [dict(CONE, chars=[[0.5, 0]])]},
     "a character coordinate must be an integer, got 0.5"),
    ({"rank": 2, "cones": [CONE]}, "expected 2 characters"),
])
def test_malformed_chern_json_exits_2(tmp_path, capsys, data, reason):
    path = write(tmp_path, "bad.json", data)
    p2 = write(tmp_path, "p2.json", fan_to_json(projective_fan(2)))
    for extra in ([], ["--fan", p2]):
        code, out, err = run(capsys, ["bundle", "signature", "--chern", path,
                                      "--ray", "1", *extra])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert reason in err
        assert err.count("\n") == 1


STEP = {"jump": 1, "basis": []}
FILT = {"rank": 1, "field": "Q", "rays": {"1,0": [STEP]}}


@pytest.mark.parametrize("data, reason", [
    ([1], "filtration JSON must be an object"),
    ({"field": "Q", "rays": {}}, "filtration JSON lacks the key 'rank'"),
    ({"rank": 1, "rays": {}}, "filtration JSON lacks the key 'field'"),
    ({"rank": 1, "field": "Q"}, "filtration JSON lacks the key 'rays'"),
    (dict(FILT, rank=True), "rank must be an integer, got True"),
    (dict(FILT, rank="1"), "rank must be an integer, got '1'"),
    (dict(FILT, rays=[["1,0", [STEP]]]), "rays must be an object keyed by ray"),
    (dict(FILT, rays={"1,x": [STEP]}), "ray key '1,x' is not comma-joined integers"),
    (dict(FILT, rays={"1,0": STEP}), "must be a list of objects with jump and basis"),
    (dict(FILT, rays={"1,0": [{"jump": 1}]}),
     "must be a list of objects with jump and basis"),
    (dict(FILT, rays={"1,0": [{"jump": True, "basis": []}]}),
     "a jump must be an integer, got True"),
    (dict(FILT, rays={"1,0": [{"jump": 1.5, "basis": []}]}),
     "a jump must be an integer, got 1.5"),
    (dict(FILT, rays={"1,0": [{"jump": 0, "basis": [[True]]}, STEP]}),
     "a basis must be rows of integers or strings, got [[True]]"),
    (dict(FILT, rays={"1,0": [{"jump": 0, "basis": [1]}, STEP]}),
     "a basis must be rows of integers or strings, got [1]"),
    (dict(FILT, rays={"1,0": [{"jump": 0, "basis": [[1, 0]]}, STEP]}),
     "filtration JSON: basis vector of wrong length"),
    (dict(FILT, field="R"), "unknown field tag 'R'"),
])
def test_malformed_filtration_json_exits_2(tmp_path, capsys, data, reason):
    p2 = write(tmp_path, "p2.json", fan_to_json(projective_fan(2)))
    path = write(tmp_path, "bad.json", data)
    code, out, err = run(capsys, ["bundle", "check-compat", "--fan", p2,
                                  "--filtration", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: filtration JSON")
    assert reason in err
    assert err.count("\n") == 1


def _dict_listing(incidence, p):
    """The listing as the CLI wrote it before streaming: one dict, dumped."""
    configs = enumerate_c_i(incidence, p)
    return canonical_json({
        "count": len(configs),
        "configurations": [configuration_to_json(c) for c in configs],
    }) + "\n"


@pytest.mark.parametrize("incidence, p", [
    (incidence_data(2, 1, [(1, 1)]), 2),
    (fano_incidence(), 2),
    (incidence_data(2, 1, [(1, 1), (2, 1)]), 5),
])
def test_listing_stdout_matches_dict_listing(tmp_path, capsys, incidence, p):
    path = write(tmp_path, "incidence.json", incidence.to_json())
    want = _dict_listing(incidence, p)
    count = json.loads(want)["count"]
    for extra in ([], ["--workers", "2"]):
        code, out, err = run(capsys, ["incidence", "enumerate", "--incidence",
                                      path, "--field", str(p), *extra])
        assert code == 0
        assert out == want
        assert err == f"{count} configurations over F_{p}\n"


def test_oversized_field_exits_2_before_the_plane_is_built(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    start = time.perf_counter()
    code, out, err = run(capsys, ["incidence", "enumerate", "--incidence", pair,
                                  "--field", "65521", "--count-only",
                                  "--budget", "10"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: the plane over F_65521 needs")
    assert err.count("\n") == 1
    code, out, err = run(capsys, ["murphy", "verify", "--incidence", pair,
                                  "--field", "211"])
    assert (code, out) == (2, "")
    assert err.startswith("error: the plane over F_211 needs")
    assert err.count("\n") == 1
    one = write(tmp_path, "one.json", {"points": 1, "lines": 0, "incidences": []})
    code, out, _ = run(capsys, ["incidence", "enumerate", "--incidence", one,
                                "--field", "101", "--count-only"])
    assert (code, out) == (0, '{"count":10303}\n')


@pytest.mark.parametrize("command", [["incidence", "enumerate"],
                                     ["murphy", "verify"]])
@pytest.mark.parametrize("workers", ["0", "-1", str(MAX_WORKERS + 1), "100000"])
def test_workers_out_of_range_exits_2(tmp_path, capsys, monkeypatch, command,
                                      workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("toricbundles.incidence.ProcessPoolExecutor", no_pool)
    pair = write(tmp_path, "pair.json", PAIR)
    code, out, err = run(capsys, [*command, "--incidence", pair, "--field", "2",
                                  "--workers", workers])
    assert (code, out) == (2, "")
    assert err == (f"error: --workers must be between 1 and {MAX_WORKERS}, "
                   f"got {workers}\n")


@pytest.mark.parametrize("argv, reason", [
    (["divisor", "cartier", "--fan", "{p112}", "--coeffs", "[true,0,0]"],
     "--coeffs JSON: a coefficient must be an integer, got True"),
    (["divisor", "cartier", "--fan", "{p112}", "--coeffs", "[[1],0,0]"],
     "--coeffs JSON: a coefficient must be an integer, got [1]"),
    (["divisor", "cartier", "--fan", "{p112}", "--coeffs", "1"],
     "--coeffs must be a JSON list, got 1"),
    (["divisor", "support", "--fan", "{p112}", "--coeffs", "[0,0,1.5]",
      "--point", "[1,0]"],
     "--coeffs JSON: a coefficient must be an integer, got 1.5"),
    (["bundle", "signature", "--chern", "{explicit}", "--fan", "{p2}",
      "--ray", "3"], "--ray must be a JSON list, got 3"),
    (["bundle", "signature", "--chern", "{explicit}", "--fan", "{p2}",
      "--ray", "[true,0]"],
     "--ray JSON: a ray coordinate must be an integer, got True"),
    (["bundle", "signature", "--chern", "{rule}", "--ray", "[[1]]"],
     "--ray JSON: a ray coordinate must be an integer, got [1]"),
    (["bundle", "signature", "--chern", "{rule}", "--ray", "true"],
     "--ray JSON: a label must be an integer, got True"),
    (["bundle", "signature", "--chern", "{rule}", "--ray", '"1"'],
     "--ray JSON: a label must be an integer, got '1'"),
])
def test_vector_and_label_arguments_exit_2(tmp_path, capsys, argv, reason):
    files = {
        "p112": write(tmp_path, "p112.json", P112),
        "p2": write(tmp_path, "p2.json", fan_to_json(projective_fan(2))),
        "explicit": write(tmp_path, "explicit.json", EXPLICIT),
        "rule": write(tmp_path, "rule.json", {"rule": "murphy", "incidence": PAIR}),
    }
    code, out, err = run(capsys, [arg.format(**files) for arg in argv])
    assert (code, out) == (2, "")
    assert err == f"error: {reason}\n"


@pytest.mark.parametrize("argv", [["--n", "100", "--lazy"], ["--n", "17"]])
def test_murphy_fan_too_many_rays_exits_2(capsys, argv):
    code, out, err = run(capsys, ["murphy", "fan", *argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: the fan for n=")
    assert "n must be at most 16" in err
    assert err.count("\n") == 1
