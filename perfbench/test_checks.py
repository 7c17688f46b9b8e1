"""Self-test of the benchmark's answer checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

For every job kind a real job passes its check, and the same job with a
deliberately wrong expected answer is counted as failed: a check that can
never fail must not pass.
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as W  # noqa: E402


def _flip_first_pair(expect):
    pairs = {tuple(pair) for pair in expect["pairs"]}
    pairs ^= {(1, 1)}
    expect["pairs"] = sorted(pairs)


CORRUPT = {
    "count": lambda e: e.update(count=e["count"] + 1),
    "list": lambda e: e.update(count=e["count"] + 1),
    "verify": lambda e: e.update(count=e["count"] + 1),
    "chern": lambda e: e.update(digest="0" * 16),
    "audit": lambda e: e.update(free_rank=e["free_rank"] + 1),
    "klyachko": _flip_first_pair,
}

KINDS = [
    ("incidence_search", "count"),
    ("incidence_search", "list"),
    ("murphy_verify", "verify"),
    ("fan_bundle", "chern"),
    ("fan_bundle", "audit"),
    ("fan_bundle", "klyachko"),
]


@pytest.fixture(scope="module")
def benches():
    made = {name: run.Bench(name, 0, "test") for name in W.WORKLOADS}
    yield made
    for bench in made.values():
        bench.close()


def _cheapest(bench, kind):
    jobs = [j for j in bench.jobs if j["kind"] == kind]
    return min(jobs, key=lambda j: len(json.dumps(j["input"])))


@pytest.mark.parametrize("workload,kind", KINDS)
def test_right_answer_passes_and_wrong_answer_fails(benches, workload, kind):
    bench = benches[workload]
    job = _cheapest(bench, kind)
    assert bench.run(job)[1] is None
    wrong = copy.deepcopy(job)
    CORRUPT[kind](wrong["expect"])
    assert bench.run(wrong)[1] is not None


def test_listing_check_rejects_a_bad_configuration(benches):
    bench = benches["incidence_search"]
    job = _cheapest(bench, "list")
    code, stdout = bench.execute(job)
    data = json.loads(stdout)
    data["configurations"][0]["points"][0] = [2, 0, 0]
    assert run.checks.check_enumerate(job, (code, json.dumps(data))) is not None


def test_closed_forms():
    assert W.closed_form_count(2, 2, 1, [(1, 1)]) == 84
    assert W.closed_form_count(3, 2, 1, [(1, 1)]) == 468
    assert W.closed_form_count(2, 7, 7, W.FANO_PAIRS) == 168
    assert W.closed_form_count(3, 7, 7, W.FANO_PAIRS) == 0
    assert W.closed_form_count(5, 2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)]) == 0


def test_pattern_type_ignores_relabelling():
    import random

    rng = random.Random(0)
    d, dl, pairs = W.fano_subpattern((5, 6, 7), (7,))
    assert W.pattern_type(d, dl, pairs) == W.pattern_type(
        d, dl, W.relabel(rng, d, dl, pairs))
    assert W.pattern_type(2, 2, [(1, 1)]) != W.pattern_type(2, 2, [(1, 1), (2, 2)])


def test_benchmark_json_lists_the_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()


def test_generation_is_seeded():
    expected = W.load_expected()
    for name in W.WORKLOADS:
        assert W.make_rounds(name, 7, 2, expected) == W.make_rounds(name, 7, 2, expected)
        assert W.make_rounds(name, 7, 2, expected) != W.make_rounds(name, 8, 2, expected)
