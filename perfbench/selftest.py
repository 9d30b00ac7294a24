#!/usr/bin/env python3
"""Self-test of the repository benchmark at toy sizes.

    python3 perfbench/selftest.py

For every workload run.py knows this runs perfbench/run.py --toy once
untraced, and for every workload in BENCHMARK.json once traced (1 s each;
the traced run includes the workload's companion), and checks that:

  * the last output line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct is true and failed is 0;
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    named in BENCHMARK.json is printed exactly once, with its unit, as a
    finite number;
  * the workload-specific readings (mlups, ode_step_ms_p50, query_ms_p50,
    query_ms_p99) and failed_frac = 0 appear on the workloads they apply to;
  * every span file is well formed: ids are unique, every parent exists,
    and every child lies inside its parent's interval;
  * a run with YS_THREADS set refuses to start and prints no result.

Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402  (WORKLOADS, COMPANION)

NAMED = {
    "stencil-stream": ["mlups"],
    "halo-ranks": ["mlups"],
    "ode-heat": ["ode_step_ms_p50"],
    "model-queries": ["query_ms_p50", "query_ms_p99"],
}

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what, flush=True)


def run(workload, trace, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--toy"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)


def printed(lines, prefix):
    """{name: [(value, unit), ...]} of 'prefix name = value unit' lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == prefix and parts[2] == "=":
            out.setdefault(parts[1], []).append((float(parts[3]), parts[4]))
    return out


def check_result(workload, proc, declared, prefix):
    expect(proc.returncode == 0,
           "%s: exit code %d\n%s" % (workload, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        expect(False, "%s: no output" % workload)
        return lines
    res = json.loads(lines[-1])
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           "%s: result keys %s" % (workload, sorted(res)))
    expect(res.get("correct") is True, "%s: correct is not true" % workload)
    expect(res.get("failed") == 0, "%s: failed = %s" % (workload,
                                                         res.get("failed")))
    expect(isinstance(res.get("attempted"), int) and res["attempted"] >= 1,
           "%s: attempted = %s" % (workload, res.get("attempted")))
    metrics = res.get("metrics", {})
    expect(set(metrics) == set(declared),
           "%s: metrics differ from BENCHMARK.json: missing %s, extra %s" %
           (workload, sorted(set(declared) - set(metrics)),
            sorted(set(metrics) - set(declared))))
    text = printed(lines, prefix)
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        expect(isinstance(m.get("value"), (int, float)) and
               math.isfinite(m["value"]) and m.get("unit") == unit,
               "%s: %s = %s, want a finite number in %s" %
               (workload, name, m, unit))
        if name != "trace.overhead_frac":
            seen = text.get(name, [])
            expect(len(seen) == 1 and seen[0][1] == unit,
                   "%s: '%s %s' printed %d times (unit %s)" %
                   (workload, prefix, name, len(seen),
                    seen[0][1] if seen else "-"))
    return lines


def check_spans(workload, lines):
    paths = [l.split(": ", 1)[1] for l in lines if l.startswith("# spans: ")]
    want = 2 if workload in bench_run.COMPANION else 1
    expect(len(paths) == want, "%s: %d span files reported, want %d" %
           (workload, len(paths), want))
    for path in paths:
        with open(os.path.join(ROOT, path)) as f:
            spans = [json.loads(l) for l in f]
        # <workload>-seed<n>.jsonl: the companion's file names the companion.
        check_span_tree(os.path.basename(path).rsplit("-seed", 1)[0], spans)


def check_span_tree(workload, spans):
    expect(len(spans) > 0, "%s: no spans" % workload)
    by_id = {}
    for s in spans:
        expect(s["id"] not in by_id, "%s: duplicate span id %s" %
               (workload, s["id"]))
        by_id[s["id"]] = s
        expect(s["end_s"] >= s["start_s"], "%s: span %s ends before it "
               "starts" % (workload, s["id"]))
        expect(s.get("name") and "req" in s and
               s.get("workload") == workload,
               "%s: span %s lacks name/req/workload" % (workload, s["id"]))
    for s in spans:
        if s["parent"] == 0:
            continue
        p = by_id.get(s["parent"])
        expect(p is not None, "%s: span %s has unknown parent %s" %
               (workload, s["id"], s["parent"]))
        if p is not None:
            expect(p["start_s"] <= s["start_s"] and s["end_s"] <= p["end_s"],
                   "%s: span %s (%s) outside parent %s (%s)" %
                   (workload, s["id"], s["name"], p["id"], p["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    registered = [w["name"] for w in bench["workloads"]]
    for name in bench_run.WORKLOADS:
        print("== %s" % name, flush=True)
        lines = check_result(name, run(name, 0), e2e, "metric")
        named = printed(lines, "metric")
        for extra in NAMED.get(name, []) + ["failed_frac"]:
            expect(len(named.get(extra, [])) == 1,
                   "%s: '%s' not printed once" % (name, extra))
        expect(named.get("failed_frac", [(1, "")])[0][0] == 0,
               "%s: failed_frac is not 0" % name)
        if name in registered:
            lines = check_result(name, run(name, 1), layer, "layer")
            check_spans(name, lines)

    env = dict(os.environ, YS_THREADS="2")
    proc = run(registered[0], 0, env=env)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "run with YS_THREADS set did not refuse")

    print("selftest: %s" % ("FAIL (%d)" % len(failures) if failures
                            else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
