#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Runs one workload of the ParEval-Repo evaluation program and prints its
metrics, checking every output against a reference. Usage, from the root
of a checkout:

    python3 perfbench/run.py --workload paper_cold --seed 1070 \
        --seconds 15 --trace 0

Workloads (see perfbench/README.md for why each exists):
  paper_cold         the full paper sweep, figures and tables on an empty store
  paper_warm         the same against a store populated during set-up
  reference_execute  every shipped implementation built and run cold under
                     both execution engines
  serve_ci           an in-process sweep server with two closed-loop clients

--trace 0 prints the end-to-end metrics, measured untraced over several
repetitions, each in a fresh process. --trace 1 prints the per-layer
metrics of a serial traced run and writes its spans (Chrome trace-event
JSON) under the build directory.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The program is built from source first, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1070

# Nominal wall seconds of one repetition (process start to exit) on a
# 4-core machine: --seconds buys round(seconds / rep_s) repetitions, so
# both sides of a comparison do the same amount of work.
# `inputs`: how many sweep seeds one run cycles its repetitions through.
# Paper-spec timings and memory move with the seed (how many samples fail,
# how long their logs are), so a run derives three seeds from --seed and
# reports medians across them rather than the luck of one draw.
WORKLOADS = {
    "paper_cold": {"rep_s": 2.5, "reference": "paper", "inputs": 3},
    "paper_warm": {"rep_s": 2.3, "reference": "paper", "inputs": 3,
                   "populate": True},
    "reference_execute": {"rep_s": 0.25, "reference": None, "inputs": 1},
    "serve_ci": {"rep_s": 1.4, "reference": "serve_ci", "inputs": 1},
}
MIN_REPS = 6
DEADLINE_S = 150   # stop adding repetitions past this, whatever --seconds

END_TO_END = [
    ("total_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("job_latency_p50_s", "s"),
    ("job_latency_tail_s", "s"),
]

PER_LAYER = [
    ("agents.calls", "count"),
    ("agents.self_s", "s"),
    ("agents.tokens", "count"),
    ("agents.aborted_cells", "count"),
    ("score_cache.lookups", "count"),
    ("score_cache.hits", "count"),
    ("score_cache.misses", "count"),
    ("score_cache.hit_ratio", "ratio"),
    ("score_cache.dup_scores", "ratio"),
    ("buildsim.builds", "count"),
    ("buildsim.dup_builds", "ratio"),
    ("buildsim.self_s", "s"),
    ("buildsim.tu_lookups", "count"),
    ("buildsim.tu_compiles", "count"),
    ("buildsim.tu_dedupe_ratio", "ratio"),
    ("buildsim.plan_hits", "count"),
    ("buildsim.obj_hits", "count"),
    ("buildsim.link_hits", "count"),
    ("buildsim.link_misses", "count"),
    ("execsim.parses", "count"),
    ("execsim.links", "count"),
    ("execsim.runs", "count"),
    ("execsim.self_s", "s"),
    ("execsim.steps", "count"),
    ("execsim.ns_per_step", "ns"),
    ("execsim.tree_fallbacks", "count"),
    ("execsim.interp_s", "s"),
    ("execsim.vm_s", "s"),
    ("apps.validations", "count"),
    ("apps.self_s", "s"),
    ("classify.self_s", "s"),
    ("classify.logs", "count"),
    ("classify.exact_share", "ratio"),
    ("classify.raw_clusters", "count"),
    ("report.self_s", "s"),
    ("cachestore.attach_s", "s"),
    ("cachestore.records_replayed", "count"),
    ("cachestore.flush_s", "s"),
    ("cachestore.records_appended", "count"),
    ("cachestore.journal_bytes", "bytes"),
    ("cachestore.dropped_records", "count"),
    ("serve.jobs", "count"),
    ("serve.ttfr_p50_s", "s"),
    ("serve.records_streamed", "count"),
    ("serve.warm_share", "ratio"),
    ("par.threads", "count"),
    ("par.utilization", "ratio"),
    ("trace.total_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.verify_s", "s"),
]


# Layer self times the serve_ci traced run cannot see: they are spent on
# the server's pool, behind the protocol.
SERVER_SIDE = {"agents.self_s", "buildsim.self_s", "execsim.runs",
               "execsim.self_s", "execsim.steps", "execsim.ns_per_step",
               "execsim.interp_s", "execsim.vm_s", "apps.validations",
               "apps.self_s"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ------------------------------------------------------------------


def build():
    """Configure (once) and build the pass runner; returns (build_dir, exe)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "eval", "harness.hpp")):
        raise BenchError(f"no program sources under {ROOT}/src")
    base = (os.environ.get("CARGO_TARGET_DIR")
            or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(os.path.abspath(base), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return build_dir, os.path.join(build_dir, "perfbench_passes")


# ---- passes -----------------------------------------------------------------


def run_pass(exe, *args):
    """Run one pass in a fresh process. Returns (spawn time on the
    monotonic clock, the pass's result object). MISMATCH lines are passed
    through to stdout."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([exe, *args], stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass timed out: {' '.join(args)}")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        if line.startswith("MISMATCH"):
            print(line)
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass failed ({proc.returncode}): {' '.join(args)}")
    return spawned, json.loads(lines[-1])


def reference_file(exe, build_dir, kind, seed):
    """The expected digests for (kind, seed). The default seed's are
    committed; any other seed's are computed once on the uncached path,
    outside every timed interval and set-up, and kept beside the build."""
    if seed == DEFAULT_SEED:
        return os.path.join(HERE, "reference", f"{kind}-{seed}.json")
    with open(exe, "rb") as f:
        program = hashlib.sha1(f.read()).hexdigest()[:16]
    path = os.path.join(build_dir, "refs", f"{kind}-{seed}-{program}.json")
    if not os.path.isfile(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        run_pass(exe, "reference", "--workload", kind, "--seed", str(seed),
                 "--out", tmp)
        os.replace(tmp, path)
    return path


# ---- statistics -------------------------------------------------------------


def nearest_rank(values, q):
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * q // 100)))
    return ordered[int(rank) - 1]


def tail(values):
    """The highest of p99/p95/p90/p80/p75/p50 with at least ten jobs beyond
    it; the maximum when there are fewer than 20 jobs."""
    n = len(values)
    for q in (99, 95, 90, 80, 75, 50):
        if n * (100 - q) // 100 >= 10:
            return nearest_rank(values, q), f"p{q}"
    return max(values), "max"


def input_seeds(seed, n):
    """The sweep seeds a run derives from --seed; the first is --seed."""
    return [seed + k * 1000003 for k in range(n)]


def ratio(part, base):
    return part / base if base else 0.0


# ---- the two kinds of run ---------------------------------------------------


def measure(exe, build_dir, run_dir, workload, seed, seconds):
    """--trace 0: end-to-end metrics over fresh-process repetitions."""
    spec = WORKLOADS[workload]
    seeds = input_seeds(seed, spec["inputs"])
    # Per input: the reference to check against and, for paper_warm, the
    # populated store every repetition starts from a copy of.
    extra = [[] for _ in seeds]
    if spec["reference"]:
        for k, s in enumerate(seeds):
            extra[k] += ["--ref", reference_file(exe, build_dir,
                                                 spec["reference"], s)]
    setups = []
    if spec.get("populate"):
        for k, s in enumerate(seeds):
            store = os.path.join(run_dir, f"populated-{k}")
            spawned, r = run_pass(exe, "populate", "--seed", str(s),
                                  "--work", store)
            setups.append(r["ready_s"] - spawned)
            extra[k] += ["--template", store]
    reps = max(MIN_REPS, round(seconds / spec["rep_s"]))
    results = []
    started = time.monotonic()
    for i in range(reps):
        if i > 0 and time.monotonic() - started > DEADLINE_S:
            log(f"perfbench: deadline reached after {i} of {reps} repetitions")
            break
        work = os.path.join(run_dir, "rep")
        k = i % len(seeds)
        spawned, r = run_pass(exe, "rep", "--workload", workload,
                              "--seed", str(seeds[k]), "--work", work,
                              *extra[k])
        shutil.rmtree(work, ignore_errors=True)
        if not spec.get("populate"):
            setups.append(r["ready_s"] - spawned)
        results.append(r)

    if workload == "serve_ci":
        jobs = [j for r in results for j in r["jobs_s"]]
    else:  # a batch workload is one job per repetition
        jobs = [r["total_s"] for r in results]
    tail_value, tail_name = tail(jobs)
    metrics = {
        "total_s": statistics.median(r["total_s"] for r in results),
        "cpu_s": statistics.median(r["cpu_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "setup_s": statistics.median(setups),
        "job_latency_p50_s": statistics.median(jobs),
        "job_latency_tail_s": tail_value,
    }
    notes = {
        "total_s": f"median of {len(results)} repetitions",
        "setup_s": (f"median of {len(setups)} "
                    + ("store populations" if spec.get("populate")
                       else "starts: spawn to ready")),
        "job_latency_p50_s": f"{len(jobs)} jobs",
        "job_latency_tail_s": f"{tail_name} of {len(jobs)} jobs",
    }
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    return metrics, notes, END_TO_END, attempted, failed


def trace(exe, build_dir, run_dir, workload, seed):
    """--trace 1: per-layer metrics of one serial traced run, plus the
    pooled and serial untraced passes its ratios and overhead need."""
    spec = WORKLOADS[workload]
    ref = []
    if spec["reference"]:
        ref = ["--ref",
               reference_file(exe, build_dir, spec["reference"], seed)]
    template = []
    if spec.get("populate"):
        store = os.path.join(run_dir, "populated")
        run_pass(exe, "populate", "--seed", str(seed), "--work", store)
        template = ["--template", store]
    common = ["--workload", workload, "--seed", str(seed), *template, *ref]
    _, pooled = run_pass(exe, "rep", *common,
                         "--work", os.path.join(run_dir, "pooled"))
    _, serial = run_pass(exe, "rep", *common, "--threads", "1",
                         "--work", os.path.join(run_dir, "serial"))
    spans = os.path.join(build_dir, "traces", f"{workload}-{seed}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    _, traced = run_pass(exe, "trace", *common, "--out", spans,
                         "--work", os.path.join(run_dir, "traced"))

    m = dict(traced["metrics"])
    c = {"score_misses": 0, "score_entries": 0, "builds": 0,
         "build_entries": 0, **pooled.get("counters", {})}
    # Duplicate work of the pooled run: racing threads that scored or built
    # the same thing twice, as a share of the distinct results.
    m["score_cache.dup_scores"] = ratio(
        c["score_misses"] - c["score_entries"], c["score_entries"])
    m["buildsim.dup_builds"] = ratio(c["builds"] - c["build_entries"],
                                     c["build_entries"])
    m["par.threads"] = pooled["threads"]
    m["par.utilization"] = ratio(pooled["cpu_s"],
                                 pooled["total_s"] * pooled["threads"])
    m["trace.overhead_s"] = (m["trace.total_s"] - m["trace.verify_s"]
                             - serial["total_s"])
    notes = {
        "score_cache.dup_scores": (f"pooled: {c['score_misses']} misses"
                                   f" for {c['score_entries']} distinct"),
        "buildsim.dup_builds": (f"pooled: {c['builds']} builds for"
                                f" {c['build_entries']} distinct"),
        "par.utilization": (f"pooled: cpu {pooled['cpu_s']:.3f} s over"
                            f" wall {pooled['total_s']:.3f} s"
                            f" x {pooled['threads']}"),
        "trace.overhead_s": (f"traced {m['trace.total_s']:.3f} s less its"
                             f" verification, minus untraced serial"
                             f" {serial['total_s']:.3f} s"),
        "trace.total_s": f"{traced['spans']} spans written to {spans}",
    }
    metrics = {name: m.get(name, 0) for name, _ in PER_LAYER}
    attempted = pooled["ops"] + serial["ops"] + traced["ops"]
    failed = pooled["failed"] + serial["failed"] + traced["failed"]
    return metrics, notes, PER_LAYER, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build_dir, exe = build()
        run_dir = os.path.relpath(os.path.join(
            build_dir, "run", f"{args.workload}-{os.getpid()}"))
        try:
            if args.trace:
                result = trace(exe, build_dir, run_dir, args.workload,
                               args.seed)
            else:
                result = measure(exe, build_dir, run_dir, args.workload,
                                 args.seed, args.seconds)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    metrics, notes, declared, attempted, failed = result

    print(f"perfbench {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'})")
    bypassed = {name.split(".")[0] for name, _ in declared
                if args.trace and "." in name}
    bypassed -= {name.split(".")[0] for name, _ in declared
                 if "." in name and metrics[name] != 0}
    for name, unit in declared:
        note = notes.get(name, "")
        if name.split(".")[0] in bypassed:
            note = note or "layer bypassed on this workload"
        elif (args.workload == "serve_ci" and name in SERVER_SIDE
              and metrics[name] == 0):
            note = note or "runs inside the server: not traced from outside"
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_share':<28} {ratio(failed, attempted):>14.6g} "
          f"{'ratio':<6} {failed} of {attempted} operations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
