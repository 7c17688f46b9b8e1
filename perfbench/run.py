"""Benchmark of the toricbundles pipeline on seeded workloads.

    python3 perfbench/run.py --workload incidence_search --seed 1 \
        --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from its src/
directory.  Jobs are user-level requests: CLI commands run in-process
through toricbundles.cli.main(argv) with stdout captured, or short library
pipelines for the fan and bundle steps the CLI does not expose.  Each job
is timed alone; its answer is checked after the timer stops, and every
wrong answer, exception or unexpected exit code counts as failed.

With --trace 0 the run goes through whole rounds of jobs until about
--seconds of job time have passed and reports the end-to-end metrics:
job throughput and latency quantiles rescaled to a reference host speed
(see REFERENCE_S), the median set-up time of fresh interpreters, and peak
memory.  With --trace 1 it runs the first rounds with and without
tracing, job by job, and reports per-function call counts and self times
plus the tracing overhead.  The last line of stdout is the JSON result;
the line before it records the environment, the sample counts, the share
of failed jobs and the raw wall-clock figures.
"""

import os
import sys

# Pin hashing before anything iterates a set of labels.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads as W  # noqa: E402

# Rounds generated per run, a few more than --seconds 30 uses today.  The
# timed loop runs whole rounds and starts over if it runs out.
ROUNDS = {"incidence_search": 10, "murphy_verify": 10, "fan_bundle": 24}
# Rounds in the traced run, which runs each of their jobs twice.
TRACE_ROUNDS = {"incidence_search": 2, "murphy_verify": 2, "fan_bundle": 5}
SETUP_REPEATS = 3
MIN_JOBS = 100

# On a shared host the speed of all Python code drifts by up to +-30%
# from one minute to the next.  A fixed pure-Python loop is timed before
# every job, and the end-to-end times (set-up included) are rescaled to a
# host on which that loop takes REFERENCE_S: multiplied by (REFERENCE_S /
# median loop time) to the power SPEED_EXPONENT.  The exponent is fitted:
# on 30 runs (ten per workload) on a shared 2-vCPU host whose loop time
# moved between 3.5 and 6.5 ms, the spread of each end-to-end time was
# least for exponents between 0.3 and 1.0, and 0.7 kept every spread at or
# below about 13%, against up to 30% for the raw figures.  The raw figures
# go to the report line.
REFERENCE_ITERATIONS = 30_000
REFERENCE_S = 0.005
SPEED_EXPONENT = 0.7

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Traced "module.function" names and the per-layer fields each reports.
LAYER_FUNCTIONS = {
    "incidence.enumerate_c_i": ("calls", "self_s"),
    "incidence.solutions": ("self_s",),
    "incidence.verify_equivalence": ("self_s",),
    "cli.main": ("self_s",),
    "moduli.generate_conditions": ("self_s",),
    "moduli.audit_pairwise": ("self_s",),
    "chern.chars_for_flag": ("calls", "self_s"),
    "intlin.solve_integer_linear": ("calls", "self_s"),
    "chern.validate_chern": ("self_s",),
    "chern.chern_polynomial": ("self_s",),
    "fans.validate_fan": ("self_s",),
    "intlin.fm_feasible": ("calls", "self_s"),
    "murphy.build_murphy_fan": ("self_s",),
    "murphy.cone_membership": ("calls",),
    "fans.star_subdivide": ("calls", "self_s"),
    "intlin.smith_normal_form": ("calls", "self_s"),
    "divisors.class_group": ("self_s",),
    "klyachko.check_compatibility": ("self_s",),
    "fields.rref": ("calls", "self_s"),
    "fields.subspace_intersect": ("calls", "self_s"),
}
LAYER_COUNTS = ("incidence.configs_returned", "moduli.atoms")

# Functions each workload must call; a rename that zeroes one fails the run.
EXPECTED_CALLS = {
    "incidence_search": ("cli.main", "incidence.enumerate_c_i"),
    "murphy_verify": (
        "cli.main", "incidence.verify_equivalence", "incidence.solutions",
        "incidence.enumerate_c_i", "moduli.generate_conditions",
        "moduli.audit_pairwise", "chern.chars_for_flag",
        "intlin.solve_integer_linear", "murphy.cone_membership",
    ),
    "fan_bundle": (
        "murphy.build_murphy_fan", "fans.star_subdivide",
        "intlin.smith_normal_form", "chern.validate_chern",
        "chern.chern_polynomial", "chern.chars_for_flag",
        "intlin.solve_integer_linear", "fans.validate_fan",
        "intlin.fm_feasible", "divisors.class_group",
        "klyachko.check_compatibility", "fields.rref",
        "fields.subspace_intersect",
    ),
}


def per_layer_names():
    names = [f"{fn}.{field}" for fn, fields in LAYER_FUNCTIONS.items()
             for field in fields]
    return names + list(LAYER_COUNTS) + ["trace.overhead_frac"]


class Fail(Exception):
    """The benchmark cannot produce a valid result."""


def import_package():
    if not os.path.isfile(os.path.join(SRC, "toricbundles", "__init__.py")):
        raise Fail(f"no toricbundles package under {SRC}")
    sys.path.insert(0, SRC)
    import toricbundles
    from toricbundles import (chern, cli, divisors, fans, fields, klyachko,
                              murphy)
    if os.path.dirname(os.path.abspath(toricbundles.__file__)) != os.path.join(
            SRC, "toricbundles"):
        raise Fail(f"imported toricbundles from {toricbundles.__file__}")
    return {"chern": chern, "cli": cli, "divisors": divisors, "fans": fans,
            "fields": fields, "klyachko": klyachko, "murphy": murphy}


class Bench:
    """Package modules, job list and inputs for one workload and seed."""

    def __init__(self, workload, seed, tag):
        self.pkg = import_package()
        self.expected = W.load_expected()
        self.rounds = W.make_rounds(workload, seed, ROUNDS[workload], self.expected)
        self.jobs = [job for block in self.rounds for job in block]
        self.dir = os.path.join(OUT, f"{workload}-{seed}-{tag}-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        for k, job in enumerate([W.WARMUP[workload]] + self.jobs):
            job["path"] = os.path.join(self.dir, f"job-{k:04d}.json")
            with open(job["path"], "w", encoding="utf-8") as handle:
                json.dump(job["input"], handle, sort_keys=True)
        reason = self.run(W.WARMUP[workload])[1]
        if reason:
            raise Fail(f"warm-up job failed: {reason}")

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg["cli"].main(argv)
        return code, out.getvalue()

    def execute(self, job):
        kind, path = job["kind"], job["path"]
        if kind in ("count", "list", "verify"):
            argv = (["incidence", "enumerate"] if kind != "verify"
                    else ["murphy", "verify"])
            argv += ["--incidence", path, "--field", str(job["field"])]
            if kind == "count":
                argv.append("--count-only")
            return self._cli(argv)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        murphy, chern = self.pkg["murphy"], self.pkg["chern"]
        if kind == "chern":
            incidence = murphy.incidence_from_json(data["incidence"])
            handle = murphy.build_murphy_fan(incidence.total - 1, materialize=True)
            datum = chern.murphy_chern(incidence, handle)
            return chern.chern_polynomial(datum, handle, data["degree"])
        if kind == "audit":
            fans = self.pkg["fans"]
            fan = murphy.build_murphy_fan(data["n"], materialize=True).fan
            return {
                "violation": fans.validate_fan(fan),
                "complete": fans.is_complete(fan),
                "smooth": fans.is_smooth(fan),
                "class_group": self.pkg["divisors"].class_group(fan),
                "rays": len(fan.rays),
            }
        if kind == "klyachko":
            fields, klyachko = self.pkg["fields"], self.pkg["klyachko"]
            fld = fields.field_from_tag(data["field"])
            subspaces = {}
            for i, x in enumerate(data["points"], start=1):
                subspaces[i] = [x]
            for j, line in enumerate(data["lines"], start=len(subspaces) + 1):
                subspaces[j] = fields.right_kernel([line], 3, fld)
            handle = murphy.build_murphy_fan(data["n"], materialize=True)
            filt = klyachko.murphy_filtration(data["n"], subspaces, fld)
            return handle, klyachko.check_compatibility(handle.fan, filt)
        raise ValueError(f"unknown job kind {kind!r}")

    def check(self, job, result):
        kind = job["kind"]
        if kind in ("count", "list"):
            return checks.check_enumerate(job, result)
        if kind == "verify":
            return checks.check_verify(job, result)
        if kind == "chern":
            return checks.check_chern(job, result)
        if kind == "audit":
            return checks.check_audit(job, result)
        return checks.check_klyachko(job, result, self.pkg["chern"],
                                     self.pkg["murphy"])

    def run(self, job, tracer=None):
        """(seconds, failure reason or None) for one job."""
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.execute(job)
            else:
                tracer.enabled = True
                try:
                    result = tracer.call("bench.job", self.execute, job)
                finally:
                    tracer.enabled = False
        except Exception as exc:  # a job that raises is a failed job
            return time.perf_counter() - start, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        try:
            return elapsed, self.check(job, result)
        except Exception as exc:  # malformed output is a wrong answer
            return elapsed, f"check raised {exc!r}"


def measure_setup(args):
    """Median wall time of fresh interpreters doing the whole set-up."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise Fail(f"set-up run failed: {done.stderr.strip()}")
    return statistics.median(times)


def source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "toricbundles")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def reference_loop():
    """Seconds taken by a fixed slice of dict, integer and sorting work."""
    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i * 7 % 13
    sorted(table.items())
    return time.perf_counter() - start


def run_timed(bench, seconds):
    """Run whole rounds until about `seconds` of job time have passed.

    Whole rounds keep every stratum's share of the jobs fixed.  The loop
    stops once the next round would end more than half a round late, but
    not before MIN_JOBS jobs, so that at least ten lie above the 90th
    percentile.
    """
    latencies, references, failures, strata = [], [], [], []
    total = 0.0
    done = 0
    while (done == 0 or len(latencies) < MIN_JOBS
           or total + total / done / 2 < seconds):
        for job in bench.rounds[done % len(bench.rounds)]:
            references.append(reference_loop())
            elapsed, reason = bench.run(job)
            total += elapsed
            latencies.append(elapsed)
            strata.append(job["stratum"])
            if reason:
                failures.append(f"{job['stratum']} {job['path']}: {reason}")
        done += 1
    return latencies, references, failures, strata, done


def latency_metrics(latencies):
    return {
        "job_ms_p50": statistics.median(latencies) * 1000,
        # a run holds >= MIN_JOBS jobs, so >= 10 lie above it
        "job_ms_p90": statistics.quantiles(latencies, n=10)[-1] * 1000,
    }


def end_to_end(args, bench, report):
    setup_s = measure_setup(args)
    latencies, references, failures, strata, rounds = run_timed(bench, args.seconds)
    speed = (REFERENCE_S / statistics.median(references)) ** SPEED_EXPONENT
    scaled = [elapsed * speed for elapsed in latencies]
    n = len(latencies)
    ok = n - len(failures)
    by_stratum = {}
    for name, elapsed in zip(strata, scaled):
        by_stratum.setdefault(name, []).append(elapsed)
    report.update({
        "samples": n,
        "rounds": rounds,
        "failed_frac": len(failures) / n,
        "reference_ms_p50": statistics.median(references) * 1000,
        "speed_factor": speed,
        "raw": dict(jobs_per_s=ok / sum(latencies), setup_s=setup_s,
                    **latency_metrics(latencies)),
        "strata_ms_p50": {
            name: [len(v), round(statistics.median(v) * 1000, 3)]
            for name, v in sorted(by_stratum.items())
        },
    })
    metrics = dict(
        jobs_per_s=ok / sum(scaled),
        setup_s=setup_s * speed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **latency_metrics(scaled),
    )
    return n, failures, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }


def traced(args, bench, report):
    from tracer import Tracer

    jobs = [job for block in bench.rounds[:TRACE_ROUNDS[args.workload]]
            for job in block]
    tracer = Tracer()
    try:
        tracer.install(LAYER_FUNCTIONS)
    except LookupError as exc:
        raise Fail(f"cannot trace: {exc}") from None
    failures = []
    walls = {False: 0.0, True: 0.0}
    # Each job runs untraced and traced, in alternating order, so warm-up
    # effects fall on both sides of the overhead ratio alike.
    for k, job in enumerate(jobs):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            elapsed, reason = bench.run(job, tracer if with_trace else None)
            walls[with_trace] += elapsed
            if reason:
                side = "traced" if with_trace else "untraced"
                failures.append(f"{side} {job['stratum']} {job['path']}: {reason}")
    tracer.uninstall()

    summary = tracer.summary()
    silent = [name for name in EXPECTED_CALLS[args.workload]
              if summary.get(name, (0, 0.0))[0] == 0]
    if silent:
        raise Fail(f"expected calls never happened on {args.workload}: {silent}")

    spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json.gz")
    tracer.write(spans_path)
    report["samples"] = 2 * len(jobs)
    report["spans"] = len(tracer.span_start)
    report["spans_file"] = os.path.relpath(spans_path, ROOT)

    metrics = {}
    for name, fields in LAYER_FUNCTIONS.items():
        calls, self_s = summary.get(name, (0, 0.0))
        for field in fields:
            if field == "calls":
                metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
            else:
                metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name in LAYER_COUNTS:
        metrics[name] = {"value": tracer.counts.get(name, 0), "unit": "count"}
    metrics["trace.overhead_frac"] = {
        "value": walls[True] / walls[False] - 1, "unit": "fraction"}
    return 2 * len(jobs), failures, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up and exit (used to time set-up)")
    args = parser.parse_args(argv)

    bench = None
    try:
        os.makedirs(OUT, exist_ok=True)
        bench = Bench(args.workload, args.seed, "setup" if args.setup_only else "run")
        if args.setup_only:
            return 0
        report = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), "source_sha256": source_digest(),
        }
        runner = traced if args.trace else end_to_end
        attempted, failures, metrics = runner(args, bench, report)
    except Fail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if bench is not None:
            bench.close()
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
