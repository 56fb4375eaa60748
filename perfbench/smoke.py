#!/usr/bin/env python3
"""Tiny-size smoke check of the benchmark.

    python3 perfbench/smoke.py

Runs every workload at `--scale tiny` for one second, untraced and traced,
and checks that:
  - the last output line has exactly the keys correct/attempted/failed/metrics;
  - every output check passed (correct is true, failed is 0);
  - the last line carries exactly the end-to-end (untraced) or per-layer
    (traced) metrics of BENCHMARK.json, each with its declared unit;
  - every metric, including the workload-specific ones, is printed on a
    `metric <name> = <value> <unit> (n=<count>, clock=<clock>)` line.
Exits 0 when all hold, 1 otherwise.
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_METRICS = {
    "serve-online": ["sim_p50_us", "sim_p99_us", "sim_joules_per_inference",
                     "failed_fraction"],
    "fleet-skewed": ["sim_p50_us", "sim_p99_us", "sim_slo_load", "sim_joules_per_inference",
                     "failed_fraction"],
    "train-bagged": ["sim_train_s", "sim_infer_samples_per_s", "failed_fraction"],
}
METRIC_LINE = re.compile(r"^metric (\S+)\s+= (\S+) (\S+) \(n=(\d+), clock=(host|sim|-)\)$")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_run(workload, trace, spec):
    errors = []
    code, lines, stderr = run(workload, trace)
    if code != 0 or not lines:
        return ["exit code %d\n%s" % (code, stderr[-2000:])]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("last line keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        failed = [l for l in lines if l.startswith("check ") and "FAILED" in l]
        errors.append("checks failed: %s" % failed)
    expected = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in expected]
    if list(result["metrics"]) != names:
        errors.append("last-line metrics %s != %s" % (list(result["metrics"]), names))
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            errors.append("%s: unit %s, expected %s" % (metric["name"], got, metric["unit"]))
        elif got["value"] is None or not math.isfinite(got["value"]):
            errors.append("%s: value %s" % (metric["name"], got["value"]))
        if printed.get(metric["name"], (None, None))[1] != metric["unit"]:
            errors.append("%s: no metric line with unit %s" % (metric["name"], metric["unit"]))
    if not trace:
        for name in WORKLOAD_METRICS[workload]:
            if name not in printed:
                errors.append("%s: not printed" % name)
    if not any(l.startswith("sim_digest ") for l in lines):
        errors.append("no sim_digest line")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors = check_run(workload, trace, spec)
            print("%-14s trace=%d %s" % (workload, trace, "ok" if not errors else "FAILED"))
            for e in errors:
                print("  " + e)
            ok = ok and not errors
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
