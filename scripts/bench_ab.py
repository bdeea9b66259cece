#!/usr/bin/env python3
"""Paired A/B of the repository benchmark against a base revision.

Extracts <base-rev> into .bench_ab/<sha> (git archive, reused across
calls), then runs `perfbench/run.py` alternately in that tree and in the
candidate (the current checkout, or --new REV) so both sides see the same
host drift.
Each pair's two runs must print the same `digest` lines and the same
error_pct; any difference, or a failed run, exits 1. It then prints, for
every end-to-end metric of BENCHMARK.json, the medians, the median of the
per-pair new/base ratios with a bootstrap 95% interval, and how many pairs
the candidate won.

    scripts/bench_ab.py <base-rev> [--workload fit] [--pairs 5] \
        [--seconds 8] [--seed 1] [--new REV]

Run from the root of a checkout. Each side builds into its own tree's
.bench_build: CARGO_TARGET_DIR is dropped from the runs' environment, since
a shared build directory would make both sides run one binary. Exit codes:
0 ok, 1 mismatch or failed run, 2 usage error.
"""
import argparse
import json
import os
import random
import statistics
import subprocess
import sys

WORKDIR = ".bench_ab"  # listed in .gitignore


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev):
    """A scratch tree of rev under WORKDIR; kept so later calls rebuild
    incrementally."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.abspath(os.path.join(WORKDIR, sha))
    if not os.path.isdir(tree):
        os.makedirs(tree + ".tmp", exist_ok=True)
        archive = subprocess.Popen(["git", "archive", "--format=tar", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree + ".tmp"],
                       stdin=archive.stdout, check=True)
        if archive.wait():
            sys.exit(f"bench_ab: git archive {rev} failed")
        os.rename(tree + ".tmp", tree)
    return sha, tree


def run(tree, args, seconds, tiny=False):
    """One perfbench run in tree: (result JSON, sorted digest lines)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    if tiny:
        cmd.append("--tiny")
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        sys.stderr.write(p.stderr[-4000:])
        print(f"bench_ab: run failed in {tree}")
        sys.exit(1)
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        print(f"bench_ab: run in {tree} reported correct=false")
        sys.exit(1)
    return result, sorted(l for l in lines if l.startswith("digest "))


def bootstrap_median(xs, reps=2000):
    rng = random.Random(0)
    meds = sorted(statistics.median(rng.choices(xs, k=len(xs)))
                  for _ in range(reps))
    return meds[int(0.025 * reps)], meds[int(0.975 * reps) - 1]


def quartile_gap(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="base revision (commit, tag or branch)")
    ap.add_argument("--new", help="candidate revision (default: the checkout)")
    ap.add_argument("--workload", default="fit")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")

    with open("BENCHMARK.json") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    base_sha, base = extract(args.base)
    new = extract(args.new)[1] if args.new else os.getcwd()
    label = args.new or "checkout"
    print(f"bench_ab: {args.workload}, base {base_sha[:10]} vs {label}, "
          f"{args.pairs} pairs x {args.seconds:g} s, seed {args.seed}")
    for tree in (base, new):  # build, and check both sides run
        run(tree, args, 1, tiny=True)

    sides = {"base": [], "new": []}
    for i in range(args.pairs):
        order = ["base", "new"] if i % 2 == 0 else ["new", "base"]
        pair = {s: run(base if s == "base" else new, args, args.seconds)
                for s in order}
        (rb, db), (rn, dn) = pair["base"], pair["new"]
        eb = rb["metrics"]["error_pct"]["value"]
        en = rn["metrics"]["error_pct"]["value"]
        if db != dn or eb != en:
            print(f"bench_ab: pair {i + 1}: outputs differ\n"
                  f"  base error_pct {eb!r} {db}\n  new  error_pct {en!r} {dn}")
            return 1
        sides["base"].append(rb["metrics"])
        sides["new"].append(rn["metrics"])
        tp = {s: pair[s][0]["metrics"]["throughput_per_s"]["value"]
              for s in pair}
        print(f"pair {i + 1} ({order[0]} first): throughput_per_s "
              f"base {tp['base']:.6g} new {tp['new']:.6g} "
              f"ratio {tp['new'] / tp['base']:.4f}", flush=True)

    print(f"identical in every pair: error_pct {eb!r}; "
          + ("; ".join(db) if db else "no digest lines"))
    print(f"{'metric':<18}{'base med':>12}{'new med':>12}{'new/base':>10}"
          f"{'95% CI':>18}{'better':>8}{'|d med|>IQR':>13}")
    for name, direction in better.items():
        b = [m[name]["value"] for m in sides["base"] if name in m]
        n = [m[name]["value"] for m in sides["new"] if name in m]
        if len(b) != args.pairs or len(n) != args.pairs:
            continue
        ratios = [y / x if x else float("nan") for x, y in zip(b, n)]
        wins = sum((y > x) if direction == "higher" else (y < x)
                   for x, y in zip(b, n))
        lo, hi = bootstrap_median(ratios)
        gap = abs(statistics.median(n) - statistics.median(b))
        print(f"{name:<18}{statistics.median(b):>12.6g}"
              f"{statistics.median(n):>12.6g}"
              f"{statistics.median(ratios):>10.4f}"
              f"{f'[{lo:.4f}, {hi:.4f}]':>18}"
              f"{f'{wins}/{args.pairs}':>8}"
              f"{'yes' if gap > quartile_gap(b) else 'no':>13}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
