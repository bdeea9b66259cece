#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny scale.

    python3 perfbench/selftest.py

Run from the root of a checkout. Builds the benchmark (through run.py),
then runs every workload of BENCHMARK.json, plus serve (runnable but not
gated, see README.md), at --tiny scale, timed and traced, and asserts
that:
  - the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics;
  - every end-to-end (timed) or per-layer (traced) metric of BENCHMARK.json
    is present with its declared unit, and no other metric is, neither in
    the result nor (for BENCHMARK.json workloads) among the measured ones
    the result leaves out;
  - the output checks passed, no operation failed, and at least one was
    attempted;
  - the traced run attributes at least 95% of its wall time to named spans;
  - a second timed run with the same seed prints the same digests and the
    same error_pct (results repeat exactly).
Exits 0 when all hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {out.returncode}\n"
                             f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check(workload, trace, spec, failures):
    lines, res = run(workload, trace)
    where = f"{workload} trace={trace}"
    gated = workload in [w["name"] for w in spec["workloads"]]
    extra = [l for l in lines if l.startswith("metrics outside BENCHMARK.json")]
    if gated and extra:
        failures.append(f"{where}: {extra[0]}")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{where}: result keys {sorted(res)}")
    if res.get("correct") is not True:
        failures.append(f"{where}: output checks failed")
    if res.get("failed") != 0 or not res.get("attempted", 0) >= 1:
        failures.append(f"{where}: attempted {res.get('attempted')} "
                        f"failed {res.get('failed')}")
    want = {m["name"]: m["unit"] for m in
            spec["per_layer" if trace else "end_to_end"]}
    got = res.get("metrics", {})
    if set(got) != set(want):
        failures.append(f"{where}: metrics differ: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is not None and (m.get("unit") != unit or
                              not isinstance(m.get("value"), (int, float))):
            failures.append(f"{where}: {name} is {m}, want unit {unit}")
    if trace and got.get("trace.attributed_pct", {}).get("value", 0) < 95:
        failures.append(f"{where}: attribution below 95%")
    return lines, res


def main():
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    workloads = [x["name"] for x in spec["workloads"]]
    if "serve" not in workloads:
        workloads.append("serve")
    for w in workloads:
        lines, res = check(w, 0, spec, failures)
        check(w, 1, spec, failures)
        again, res2 = run(w, 0)
        digests = [l for l in lines if l.startswith("digest ")]
        if not digests or digests != [l for l in again if l.startswith("digest ")]:
            failures.append(f"{w}: digests do not repeat for the same seed")
        if res["metrics"]["error_pct"] != res2["metrics"]["error_pct"]:
            failures.append(f"{w}: error_pct does not repeat for the same seed")
        print(f"selftest: {w} done", flush=True)
    for f in failures:
        print("selftest: FAIL", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
