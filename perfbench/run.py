#!/usr/bin/env python3
"""Repository benchmark: one workload per invocation, one JSON line out.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call builds the library and
the benchmark binary (perfbench/ysperf.cpp) from source into .bench_build/;
later calls reuse that build.  Each workload then runs in a fresh process
whose tuning and JIT caches point at new, empty temporary directories.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload twice,
untraced and then traced, and prints the per-layer metrics of the traced run
plus trace.overhead_frac (traced op_ms_win over untraced, minus 1); its spans
go to .bench_build/spans/<workload>-seed<n>.jsonl.  A registered workload's
traced run also runs its companion (see COMPANION) traced, for half as long,
and takes the companion's layers from it.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--toy shrinks every size (used by perfbench/selftest.py).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "ysperf")

WORKLOADS = ("stencil-stream", "halo-ranks", "ode-heat", "model-queries")

# Settings that would change what the library runs; a run refuses them
# rather than measuring something else under the benchmark's names.
REFUSED_ENV = ("YS_TRACE", "YS_BACKEND", "YS_SIMD", "YS_THREADS")

# BENCHMARK.json registers only the workloads that run on the whole pool.
# ode-heat and model-queries are single-threaded, and load from other
# tenants of the host moves single-threaded speed by up to 2x within
# minutes, more than any bound allows (README.md, "Noise on a shared host").
# Their layers are measured in the traced run of a registered workload:
# workload -> (companion, prefixes of the per-layer metrics it supplies).
COMPANION = {
    "stencil-stream": ("model-queries", ("service.", "cachesim.")),
    "halo-ranks": ("ode-heat", ("ode.", "offsite.")),
}

# After the build, every child together must finish well inside the
# per-run limit of 180 s; main() sets the deadline.
CHILDREN_S = 170
deadline = None


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over src/ and perfbench/: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build():
    """Configures (once) and builds ysperf; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at src/; cannot build")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ysperf",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def run_child(args, workload, seconds, trace, spans=None):
    """Runs one workload in a fresh process; returns its RESULT object."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        env = dict(os.environ)
        env["YS_JIT_CACHE"] = os.path.join(tmp, "jit")
        env["YS_TUNE_CACHE"] = os.path.join(tmp, "tune", "cache.json")
        os.makedirs(env["YS_JIT_CACHE"])
        os.makedirs(os.path.dirname(env["YS_TUNE_CACHE"]))
        env["TMPDIR"] = tmp
        cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        if args.toy:
            cmd.append("--toy")
        if spans:
            cmd += ["--spans", spans]
        try:
            proc = subprocess.run(cmd, cwd=tmp, capture_output=True,
                                  text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("perfbench: %s timed out" % workload)
            return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif not line.startswith("layer "):  # main() prints the merged ones
            print(line)
    if proc.returncode != 0 or result is None:
        log("perfbench: %s exited with code %d" % (workload, proc.returncode))
        return None
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true")
    args = p.parse_args()

    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        log("perfbench: refusing to run with %s set" % ", ".join(refused))
        return 2
    if not build():
        return 1
    global deadline
    deadline = time.monotonic() + CHILDREN_S

    print("# commit: %s" % git_commit())
    print("# source_digest: %s" % source_digest())
    base = run_child(args, args.workload, args.seconds, trace=0)
    if base is None:
        return 1
    if args.trace == 0:
        out = {"correct": base["correct"], "attempted": base["attempted"],
               "failed": base["failed"], "metrics": base["end_to_end"]}
    else:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        runs = [(args.workload, args.seconds, ())]
        if args.workload in COMPANION:
            companion, prefixes = COMPANION[args.workload]
            runs.append((companion, args.seconds / 2, prefixes))
        results = [base]
        metrics = None
        for workload, seconds, prefixes in runs:
            spans = os.path.join(spans_dir, "%s-seed%d.jsonl" %
                                 (workload, args.seed))
            traced = run_child(args, workload, seconds, trace=1, spans=spans)
            if traced is None:
                return 1
            print("# spans: %s" % os.path.relpath(spans, ROOT))
            results.append(traced)
            if metrics is None:
                metrics = dict(traced["per_layer"])
                untraced_ms = base["end_to_end"]["op_ms_win"]["value"]
                traced_ms = traced["end_to_end"]["op_ms_win"]["value"]
                metrics["trace.overhead_frac"] = {
                    "value": traced_ms / untraced_ms - 1.0, "unit": "ratio"}
            else:
                for name, m in traced["per_layer"].items():
                    if name.startswith(prefixes):
                        metrics[name] = m
        for name, m in metrics.items():
            print("layer %s = %.6g %s" % (name, m["value"], m["unit"]))
        out = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": metrics}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
