#!/usr/bin/env python3
"""End-to-end benchmark of latgossip: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
library, the `latgossip` CLI and the benchmark driver from source into
.bench_build/perfbench (RelWithDebInfo); later calls reuse that build.

Each run generates its inputs from --seed in a scratch directory under
.bench_build/perfbench-runs, starts the driver in a child process of its
own (so peak RSS is the workload's alone), and prints every metric with
its unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones,
derived from spans the driver records around each library call. The full
result (host facts, seed, input sizes, exact counts, failures) is written
to result.json in the run's scratch directory. README.md in this
directory describes the workloads and which end-to-end metric each
per-layer metric should move.

--self-test runs every workload, traced and untraced, at tiny sizes for
one second and checks every output once.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["broadcast_file", "alltoall_rumors", "sweep_manifest", "serve_mix"]

END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "graph.load_s": "s",
    "graph.load_mb_per_s": "MiB/s",
    "core.proto_init_s": "s",
    "sim.run_gossip_s": "s",
    "sim.ns_per_delivery": "ns",
    "sim.payload_gbit_per_s": "Gbit/s",
    "sim.rounds": "count",
    "sim.exchanges": "count",
    "sim.deliveries": "count",
    "sim.payload_bits": "count",
    "sim.max_inflight": "count",
    "sim.useful_delivery_frac": "ratio",
    "sim.digest": "hash",
    "pool.wall_s": "s",
    "pool.body_s": "s",
    "pool.efficiency": "ratio",
    "pool.dispatch_s": "s",
    "pool.serial_s": "s",
    "pool.trials_per_s": "1/s",
    "obs.fingerprint_s": "s",
    "obs.record_metrics_s": "s",
    "obs.metrics_json_s": "s",
    "obs.events": "count",
    "obs.manifest_bytes": "bytes",
    "store.open_s": "s",
    "store.replay_records": "count",
    "store.hit_ratio": "ratio",
    "store.log_bytes_per_insert": "bytes",
    "wire.ping_us_p50": "us",
    "serve.hit_ms_p50": "ms",
    "serve.hit_ms_p99": "ms",
    "serve.miss_ms_p50": "ms",
    "serve.miss_ms_p90": "ms",
    "serve.queries_per_s": "1/s",
    "serve.query_p50_ms": "ms",
    "serve.query_p99_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

# The parallel workloads spin every core before timing (host core ramp).
WARMED = {"sweep_manifest", "serve_mix"}

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
RUNS = os.path.join(".bench_build", "perfbench-runs")
DRIVER = os.path.join(BUILD, "perfbench_driver")
CLI = os.path.join(BUILD, "latgossip_tools", "latgossip")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the two binaries up to date."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "latgossip",
                  "perfbench_driver", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                if step[1] == "-S":
                    shutil.rmtree(BUILD, ignore_errors=True)
                fail("build failed")


def driver(args, cwd_dir):
    """Run the driver; its last stdout line is a JSON document."""
    try:
        proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver timed out in " + cwd_dir)
    if proc.returncode != 0:
        fail("driver exited with %d in %s" % (proc.returncode, cwd_dir))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing in " + cwd_dir)
    return json.loads(lines[-1])


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Generate inputs, run one workload, return (summary, full result)."""
    run_dir = os.path.join(RUNS, "%s-%d-%d" % (workload, seed, trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    size = ["--tiny"] if tiny else []
    gen = driver(["gen", workload, str(seed), run_dir] + size, run_dir)
    res = driver(["run", workload, str(seed), run_dir, str(seconds), str(trace),
                  os.path.abspath(CLI)] + size, run_dir)

    wanted = PER_LAYER if trace else END_TO_END
    values = dict(res["layers"], **res["counts"]) if trace else res["e2e"]
    missing = [m for m in wanted if trace == 0 and m not in values]
    metrics = {m: {"value": values.get(m, 0), "unit": unit}
               for m, unit in wanted.items()}
    correct = res["failed"] == 0 and not missing
    summary = {"correct": correct, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    full = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "load": "closed loop, one client" if workload == "serve_mix"
        else "batch",
        "host": {"nproc": os.cpu_count(),
                 "usable_cpus": len(os.sched_getaffinity(0)),
                 "warmup_spin_s": (0.2 if tiny else 2.0) if workload in WARMED else 0,
                 "build": res["build"], "git_sha": git_sha()},
        "inputs": gen["inputs"], "e2e": res["e2e"], "layers": res["layers"],
        "counts": res["counts"], "samples": res["samples"],
        "attempted": res["attempted"],
        "failed": res["failed"], "failures": res["failures"] + missing,
    }
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)
    return summary, full


def print_metrics(workload, summary, full):
    for name, m in summary["metrics"].items():
        print("%-16s %-28s %.6g %s" % (workload, name, m["value"], m["unit"]))
    if full["trace"] == 0:
        for name, samples in (("setup_p50_s", "setup_s"), ("job_p50_s", "job_s"),
                              ("job_p90_s", "job_s")):
            print("%-16s %-28s %.6g s (of %d samples)"
                  % (workload, name, full["e2e"][name],
                     len(full["samples"][samples])))
    for what in full["failures"]:
        print("%-16s FAILED: %s" % (workload, what))


def self_test():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            summary, full = run_workload(workload, 1, 1, trace, tiny=True)
            print_metrics(workload, summary, full)
            if not summary["correct"]:
                ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.self_test:
        return self_test()
    summary, full = run_workload(args.workload, args.seed, args.seconds,
                                 args.trace)
    print_metrics(args.workload, summary, full)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
