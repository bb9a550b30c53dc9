#!/usr/bin/env python3
"""Builds and runs the KGModel benchmark.

Run from the root of a source checkout:

    python3 kgbench/run.py --workload e2_control --seed 1 --seconds 10 --trace 0
    python3 kgbench/run.py --workload all

One workload prints a readable report on stderr and, as the last line of
stdout, the JSON result {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
BENCHMARK.json is the one list of metric names and units: the benchmark
binary reports every value it measured by name, and this script selects
and orders the declared ones, failing when one is missing.
`--workload all` runs every workload untraced and traced and prints every
metric by name with its unit (traced end-to-end numbers beside the
untraced ones, so the tracing overhead shows).

The exit code is 0 only when the build, the helper self-test and every
output check pass.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) inside the checkout; results and spans to its results/.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(BENCH_DIR, "..", "BENCHMARK.json")
WORKLOADS = ["e2_control", "pq_reach", "serve_mixed"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            log("kgbench: build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ)
    # Never look for a repository above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.getcwd())
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(binary, workload, seed, seconds, trace, out_dir, sha):
    """Runs the binary once; returns (exit code, its raw result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir, "--git-sha", sha]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        raw = None
    return proc.returncode, raw


def select(raw, spec, group):
    """The declared metrics of `group` in BENCHMARK.json order, with their
    units, and the names the binary did not report."""
    measured = raw.get(group, {})
    metrics, missing = {}, []
    for m in spec[group]:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]],
                                  "unit": m["unit"]}
        else:
            missing.append(m["name"])
    return metrics, missing


def report(raw, spec, traced):
    """Every declared metric the run measured, with its unit, on stderr."""
    for group in ("end_to_end", "per_layer"):
        label = group.replace("_", "-")
        if traced and group == "end_to_end":
            label = "traced end-to-end"
        measured = raw.get(group, {})
        for m in spec[group]:
            if m["name"] in measured:
                log(f"  {label:<18} {m['name']:<32} "
                    f"{measured[m['name']]:>14.6g} {m['unit']}")


def run_workload(binary, args, spec, out_dir, sha):
    """One workload in one mode; prints the result line, returns the code."""
    code, raw = run_one(binary, args.workload, args.seed, args.seconds,
                        args.trace, out_dir, sha)
    if raw is None:
        log(f"kgbench: {args.workload} printed no result (exit {code})")
        return code or 1
    report(raw, spec, args.trace == 1)
    group = "per_layer" if args.trace else "end_to_end"
    metrics, missing = select(raw, spec, group)
    if missing:
        log("kgbench: not measured: " + ", ".join(missing))
        return 4
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return code


def run_all(binary, args, spec, out_dir, sha):
    """Every workload, untraced then traced; returns the exit code."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        raws = {}
        for trace in (0, 1):
            code, raw = run_one(binary, workload, args.seed, args.seconds,
                                trace, out_dir, sha)
            if code != 0 or raw is None or not raw["correct"]:
                log(f"kgbench: {workload} trace={trace} failed (exit {code})")
                status = 1
            if raw is None:
                continue
            group = "per_layer" if trace else "end_to_end"
            _, missing = select(raw, spec, group)
            if missing:
                log(f"kgbench: {workload} trace={trace} did not measure "
                    + ", ".join(missing))
                status = 1
            raws[trace] = raw
        if 0 in raws:
            r = raws[0]
            rows.append(f"{workload}: attempted={r['attempted']} "
                        f"failed={r['failed']} correct={r['correct']}")
            traced = raws.get(1, {}).get("end_to_end", {})
            metrics, _ = select(r, spec, "end_to_end")
            for name, m in metrics.items():
                beside = ("" if name not in traced
                          else f"   (traced {traced[name]:.6g})")
                rows.append(f"  end-to-end {name:<34} {m['value']:>14.6g} "
                            f"{m['unit']}{beside}")
        if 1 in raws:
            metrics, _ = select(raws[1], spec, "per_layer")
            for name, m in metrics.items():
                rows.append(f"  per-layer  {name:<34} {m['value']:>14.6g} "
                            f"{m['unit']}")
    print("\n".join(rows))
    print("all workloads: " + ("ok" if status == 0 else "FAILED"))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        return 2
    if subprocess.run([os.path.join(build_dir, "kgbench_selftest")]).returncode:
        log("kgbench: helper self-test failed")
        return 3
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(build_dir, "kgbench")
    sha = git_sha()
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    if args.workload == "all":
        return run_all(binary, args, spec, out_dir, sha)
    return run_workload(binary, args, spec, out_dir, sha)


if __name__ == "__main__":
    sys.exit(main())
