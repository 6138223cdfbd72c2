"""voltlift benchmark: one closed-loop client, seeded workloads, checked results.

    python3 perfbench/run.py --workload lift-undirected --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The package is imported from ``src/`` next
to this directory; without it the benchmark exits with code 2.

``--trace 0`` prints the end-to-end metrics: set-up time measured in fresh
interpreters, warm job latency, lifted vertices per second and peak RSS.
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics from the spans of ``spans.py``.  The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# a fresh interpreter pays one untimed import first (it writes bytecode
# caches in a new checkout), then this many timed set-ups
SETUP_SPAWNS = 5
SPAWN_TIMEOUT_S = 120
PERTURBATION = 1e-3

# predictions the workload design rests on: (workload, metric that should be
# the largest self time) and (workload, expected multiset fallback share)
LARGEST_SELF_TIME = {
    "lift-undirected": "voltage.character_matrix_s",
    "cayley-verify": "spectra.eigenvalues_s",
    "digraph-verify": "spectra.eigenvalues_s",
}
FALLBACK_SHARE = {"cayley-verify": 0.0, "digraph-verify": 1.0}


def _import_voltlift():
    """Import voltlift from this checkout's src/, never from elsewhere."""
    if not (SRC / "voltlift" / "__init__.py").is_file():
        print(f"benchmark: {SRC / 'voltlift'} is missing; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import voltlift

    if Path(voltlift.__file__).resolve().parent != SRC / "voltlift":
        sys.exit(f"benchmark: imported voltlift from {voltlift.__file__}, not {SRC}")
    return voltlift


@dataclasses.dataclass
class JobRecord:
    job_id: int
    instance: int
    seconds: float
    traced: bool
    returned: bool
    problems: list
    result: object = None


class Runner:
    """Runs jobs of one workload and checks each against the first job of
    its instance; the first jobs are checked against references later."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.firsts: dict[int, object] = {}
        self.latest: dict[int, float] = {}
        self.records: list[JobRecord] = []
        self.rounds: list[tuple[bool, list[JobRecord], float]] = []

    def job(self, index: int, traced: bool) -> JobRecord:
        from workloads import same_values

        inst = self.workload.instances[index]
        job_id = len(self.records)
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.job_span(job_id):
                    raw = inst.job()
            else:
                raw = inst.job()
        except Exception:  # a job that raises counts as failed; the loop goes on
            seconds = time.perf_counter() - start
            record = JobRecord(job_id, index, seconds, traced, False,
                               [traceback.format_exc(limit=3).strip()])
        else:
            seconds = time.perf_counter() - start
            result = inst.summarise(raw)
            problems = list(result.problems)
            first = self.firsts.setdefault(index, result)
            if first is not result and not same_values(result.values, first.values):
                problems.append("differs from the first job of its instance")
            record = JobRecord(job_id, index, seconds, traced, True, problems, result)
        self.records.append(record)
        self.latest[index] = seconds
        return record

    def round(self, traced: bool, indices=None, deadline=None) -> list[JobRecord]:
        """One pass over the instances; with a deadline it stops before a
        job whose last run would overrun it."""
        indices = range(len(self.workload.instances)) if indices is None else indices
        records = []
        start = time.perf_counter()
        if traced:
            self.tracer.install()
        try:
            for i in indices:
                if deadline is not None and \
                        time.perf_counter() + self.latest.get(i, 0.0) > deadline:
                    break
                records.append(self.job(i, traced))
        finally:
            if traced:
                self.tracer.uninstall()
        if records:
            self.rounds.append((traced, records, time.perf_counter() - start))
        return records

    def measure(self, seconds: float, trace: bool) -> None:
        """Untraced: round-robin over the instances until the next job would
        overrun ``seconds``, after one whole round.  Traced: whole rounds,
        alternately untraced and traced, at least one of each."""
        deadline = time.perf_counter() + seconds
        if trace:
            while len(self.rounds) < 2 or time.perf_counter() + max(
                    d for _, _, d in self.rounds[-2:]) <= deadline:
                self.round(len(self.rounds) % 2 == 1)
            return
        self.round(False)
        while len(self.round(False, deadline=deadline)) == len(self.workload.instances):
            pass

    def check_references(self) -> None:
        """Check each instance's first result against its reference; every
        job of a failing instance fails with it."""
        from workloads import check

        for index, first in self.firsts.items():
            inst = self.workload.instances[index]
            problems = check(inst, first, inst.reference())
            for record in self.records:
                if record.instance == index:
                    record.problems.extend(problems)


def percentile(values, q: float) -> float:
    """The q-quantile, interpolated linearly between order statistics."""
    import numpy as np

    return float(np.percentile(list(values), 100 * q))


def instance_means(records) -> dict[int, float]:
    """Mean latency of each instance over its jobs that returned.  Each
    instance runs once per round, so the means stand for a typical round
    and do not depend on where the last, partial round stopped."""
    by_instance: dict[int, list[float]] = {}
    for r in records:
        if r.returned:
            by_instance.setdefault(r.instance, []).append(r.seconds)
    return {i: statistics.fmean(v) for i, v in by_instance.items()}


# ------------------------------------------------------------ set-up time


def setup_child(workload_name: str, seed: int, import_only: bool) -> None:
    """Body of a spawned set-up interpreter: import, build the first
    instance's inputs, run its job cold, print the monotonic clock."""
    _import_voltlift()
    import workloads

    if not import_only:
        next(workloads.instances(workload_name, seed)).job()
    print(time.monotonic(), flush=True)


def measure_setup(workload_name: str, seed: int, spawns: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", workload_name, "--seed", str(seed)]
    subprocess.run(cmd + ["--import-only"], check=True, capture_output=True,
                   timeout=SPAWN_TIMEOUT_S)
    times = []
    for _ in range(spawns):
        start = time.monotonic()
        done = subprocess.run(cmd, check=True, capture_output=True, text=True,
                              timeout=SPAWN_TIMEOUT_S)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


# --------------------------------------------------------------- metrics


def end_to_end(runner: Runner, setup_times: list[float], peak_rss_mb: float) -> dict:
    """Latency percentiles over the per-instance mean latencies; throughput
    is the lifted vertices of one round of mean jobs over that round's time,
    with failed instances delivering none."""
    timed = [r for r in runner.records if not r.traced]
    means = instance_means(timed)
    failing = {r.instance for r in timed if r.problems}
    lifted = sum(runner.workload.instances[i].lift_vertices for i in means
                 if i not in failing)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "job_p50_s": (percentile(means.values(), 0.5), "s", len(timed)),
        "job_p90_s": (percentile(means.values(), 0.9), "s", len(timed)),
        "lift_vertices_per_s": (lifted / sum(means.values()), "vertices/s", len(timed)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


TIME_SPANS = {
    "orbits.k_set_decomposition_s": ["orbits.k_set_decomposition"],
    "orbits.token_base_graph_s": ["orbits.token_base_graph"],
    "orbits.circulant_linegraph_base_s": ["orbits.circulant_linegraph_base"],
    "orbits.verify_natural_isomorphism_s": ["orbits.verify_natural_isomorphism"],
    "voltage.match_voltage_pairing_s": ["voltage.match_voltage_pairing"],
    "voltage.base_matrix_s": ["voltage.base_matrix"],
    "voltage.character_matrix_s": ["voltage.character_matrix"],
    "voltage.apply_representation_s": ["voltage.apply_representation"],
    "voltage.lift_s": ["voltage.lift"],
    "algebra.enumerate_characters_s": ["algebra.enumerate_characters"],
    "algebra.irreps_completeness_defect_s": ["algebra.irreps_completeness_defect"],
    "graphs.cayley_graph_s": ["graphs.cayley_graph"],
    "graphs.universal_matrix_s": ["graphs.universal_matrix"],
    "tokens.token_graph_s": ["tokens.token_graph", "tokens.token_digraph"],
    "spectra.eigenvalues_s": ["spectra.eigenvalues"],
    "spectra.group_s": ["spectra.group"],
    "spectra.multiset_equal_s": ["spectra.multiset_equal"],
    "spectra.lift_spectrum_s": ["spectra.lift_spectrum"],
    "spectra.direct_spectrum_s": ["spectra.direct_spectrum"],
    "spectra.rep_spectrum_s": ["spectra.rep_spectrum"],
    "bench.unattributed_s": ["bench.job"],
}


def _round_layers(records, self_times, calls, counts) -> dict:
    """Per-layer values of one traced round."""
    job_ids = [r.job_id for r in records]
    out = {}
    for metric, names in TIME_SPANS.items():
        total = sum(self_times[j][name] for j in job_ids for name in names)
        out[metric] = (total / len(job_ids), "s")

    def total_calls(name):
        return sum(calls[j][name] for j in job_ids)

    def total_count(key):
        return sum(counts[j][key] for j in job_ids)

    spectra_built = total_calls("spectra.lift_spectrum") + total_calls("spectra.rep_spectrum")
    comparisons = total_calls("spectra.multiset_equal")
    from spans import LSA_CALLS

    out.update({
        "orbits.base_vertices": (total_count("orbits.base_vertices"), "count"),
        "orbits.base_arcs": (total_count("orbits.base_arcs"), "count"),
        "voltage.character_matrix_calls": (total_calls("voltage.character_matrix"), "count"),
        "voltage.base_matrix_calls_per_spectrum": (
            total_calls("voltage.base_matrix") / spectra_built if spectra_built else 0.0,
            "calls/spectrum"),
        "tokens.token_arcs": (total_count("tokens.token_arcs"), "count"),
        "spectra.eigenvalues_calls": (total_calls("spectra.eigenvalues"), "count"),
        "spectra.eig_dim_max": (max(counts[j]["spectra.eig_dim_max"] for j in job_ids), "rows"),
        "spectra.eig_n3_sum": (total_count("spectra.eig_n3_sum"), "count"),
        "spectra.multiset_fallback_share": (
            total_count(LSA_CALLS) / comparisons if comparisons else 0.0, "ratio"),
        "spectra.cluster_count_gap": (
            sum(r.result.cluster_gap for r in records if r.returned), "count"),
        "spectra.max_pairing_distance": (
            max((r.result.pairing_distance for r in records
                 if r.returned and math.isfinite(r.result.pairing_distance)), default=0.0),
            "abs"),
    })
    return out


def per_layer(runner: Runner) -> dict:
    """Median over traced rounds of each round's per-layer value.  Times
    are self seconds per job; counts are totals over one round."""
    tracer = runner.tracer
    self_times, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    per_round = [_round_layers(recs, self_times, calls, counts)
                 for traced, recs, _ in runner.rounds if traced]
    out = {name: (statistics.median(rnd[name][0] for rnd in per_round), unit, len(per_round))
           for name, (_, unit) in per_round[0].items()}
    traced = [r for r in runner.records if r.traced]
    untraced = [r for r in runner.records if not r.traced]
    out["bench.trace_overhead_ratio"] = (
        percentile(instance_means(traced).values(), 0.5)
        / percentile(instance_means(untraced).values(), 0.5), "ratio", len(traced))
    return out


def prediction_check(runner: Runner, layers: dict) -> dict:
    """Shares of traced job time by layer metric, and the predictions."""
    workload_name = runner.workload.name
    job_time = statistics.median(statistics.fmean(r.seconds for r in recs)
                                 for traced, recs, _ in runner.rounds if traced)
    shares = {name: layers[name][0] / job_time for name in TIME_SPANS}
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    checks = []
    if workload_name in LARGEST_SELF_TIME:
        want = LARGEST_SELF_TIME[workload_name]
        checks.append({"prediction": f"{want} is the largest self time",
                       "holds": ranked[0][0] == want,
                       "largest": ranked[0][0], "share": round(shares[want], 4)})
    if workload_name in FALLBACK_SHARE:
        want = FALLBACK_SHARE[workload_name]
        got = layers["spectra.multiset_fallback_share"][0]
        checks.append({"prediction": f"spectra.multiset_fallback_share is {want:g}",
                       "holds": got == want, "value": got})
    return {"shares": {k: round(v, 4) for k, v in ranked if v > 0}, "checks": checks}


# ------------------------------------------------------------ run record


def blas_info() -> dict:
    import ctypes
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                       and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info.update(threads=fn(), library=Path(lib).name)
                return info
    return info


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_record(workload, threads_env_at_start) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": workload.name,
        "seed": workload.seed,
        "input_hash": workload.input_hash,
        "instances": [inst.label for inst in workload.instances],
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "voltlift_threads_unset": "VOLTLIFT_THREADS" not in os.environ,
        "voltlift_threads_at_start": threads_env_at_start,
        "load": "closed loop, one client",
    }


# ------------------------------------------------------------------ main


def _failed(runner: Runner) -> list[JobRecord]:
    return [r for r in runner.records if r.problems]


def run(args) -> int:
    import workloads

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, SETUP_SPAWNS)
    workload = workloads.build(args.workload, args.seed)
    record = run_record(workload, args.threads_env_at_start)

    from spans import Tracer

    # the first job pays the lazy imports, which setup_s already counts
    Runner(workload).round(False, [0])
    runner = Runner(workload, Tracer() if args.trace else None)
    runner.measure(args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.check_references()
    failed = _failed(runner)
    attempted = len(runner.records)
    record.update(rounds=len(runner.rounds), jobs=attempted,
                  latencies={workload.instances[i].label: [round(r.seconds, 6) for r in
                                                           runner.records if r.instance == i]
                             for i in range(len(workload.instances))},
                  failed_ratio=len(failed) / attempted,
                  failures=[f"{workload.instances[r.instance].label}: {p}"
                            for r in failed[:5] for p in r.problems[:2]])

    if args.trace:
        metrics = per_layer(runner)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        runner.tracer.write(path)
        record["trace_file"] = str(path.relative_to(ROOT))
        record["prediction_check"] = prediction_check(runner, metrics)
    else:
        metrics = end_to_end(runner, setup_times, peak_rss_mb)

    print(f"voltlift benchmark  workload={args.workload}  seed={args.seed}  "
          f"inputs={workload.input_hash}  trace={args.trace}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:14s} n={samples}")
    print(f"  {'failed_ratio':40s} {record['failed_ratio']:14.6g} {'ratio':14s} n={attempted}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def smoke(args) -> int:
    """One job per workload: metric names and units, checks that catch a
    perturbed eigenvalue, and seed-determined input hashes."""
    import workloads
    from spans import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {"e2e": {m["name"] for m in spec["end_to_end"]},
            "layer": {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in workloads.BUILDERS:
        w = workloads.build(name, args.seed)
        if w.input_hash != workloads.build(name, args.seed).input_hash:
            problems.append(f"{name}: the same seed gives another input hash")
        if w.input_hash == workloads.build(name, args.seed + 1).input_hash:
            problems.append(f"{name}: another seed gives the same input hash")

        runner = Runner(w, Tracer())
        runner.round(False, [0])
        runner.round(True, [0])
        runner.check_references()
        problems += [f"{name}: {p}" for r in _failed(runner) for p in r.problems]
        e2e = end_to_end(runner, measure_setup(name, args.seed, 1), 1.0)
        layers = per_layer(runner)
        for kind, got in (("e2e", e2e), ("layer", layers)):
            missing = want[kind] - {m for m, (_, unit, _) in got.items() if unit}
            if missing:
                problems.append(f"{name}: no {kind} metric {sorted(missing)}")

        # the same job again, with one eigenvalue moved after it returned
        inst = w.instances[0]

        def perturbed(raw, summarise=inst.summarise):
            result = summarise(raw)
            result.values[0] += PERTURBATION
            return result

        bad = Runner(workloads.Workload(name, args.seed,
                                        [dataclasses.replace(inst, summarise=perturbed)]))
        bad.round(False)
        bad.check_references()
        if not _failed(bad):
            problems.append(f"{name}: a perturbed eigenvalue passes the checks")
        print(f"smoke {name}: inputs={w.input_hash} "
              f"job={runner.records[0].seconds:.3f}s setup={e2e['setup_s'][0]:.3f}s")
    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="lift-undirected")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--import-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # the program runs with its defaults: no thread pool
    args.threads_env_at_start = os.environ.pop("VOLTLIFT_THREADS", None)
    _import_voltlift()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.BUILDERS)}")
    if args.setup_child:
        setup_child(args.workload, args.seed, args.import_only)
        return 0
    return smoke(args) if args.smoke else run(args)


if __name__ == "__main__":
    sys.exit(main())
