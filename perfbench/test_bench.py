#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/test_bench.py [--seconds 6]

For every workload, at the default seed (1) and one other seed (2), a
traced run must report no failed operation (every output matched its pinned
or direct-exec digest) and every reported latency percentile must sit
inside one population of latencies: no boundary between result-cache hits,
plain replays and simulating requests may lie within 10 points of p50 or 2
points of p99 (the benchmark's pop.* shares). Two untraced table3-cold runs
must report a bit-identical mp_err_pct.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(command, workload, seed, seconds, trace):
    p = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds),
                                  "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit("FAIL %s seed %d: exit %d\n%s" % (workload, seed,
                                                   p.returncode, p.stderr))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def inside(hit_pct, sim_pct, q, margin):
    """No population boundary within `margin` points of percentile q."""
    for b in (hit_pct, 100.0 - sim_pct):
        if 0.0 < b < 100.0 and abs(b - q) < margin:
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=6)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    problems = []
    for w in [w["name"] for w in bench["workloads"]]:
        for seed in (1, 2):
            result, m = run(command, w, seed, a.seconds, 1)
            tag = "%s seed %d" % (w, seed)
            print("%s: attempted %d failed %d, reads hit %.1f%% sim %.1f%%, "
                  "cold sim %.1f%%" % (tag, result["attempted"],
                                       result["failed"], m["pop.read_hit_pct"],
                                       m["pop.read_sim_pct"],
                                       m["pop.cold_sim_pct"]))
            if not result["correct"] or result["failed"] != 0:
                problems.append(tag + ": failed operations")
            read_ok = (inside(m["pop.read_hit_pct"], m["pop.read_sim_pct"],
                              50, 10) and
                       inside(m["pop.read_hit_pct"], m["pop.read_sim_pct"],
                              99, 2))
            cold_ok = inside(m["pop.cold_hit_pct"], m["pop.cold_sim_pct"],
                             50, 10)
            if not (read_ok and cold_ok) or m["pop.inside"] != 1:
                problems.append(tag + ": a percentile sits on a population "
                                "edge")
    first = run(command, "table3-cold", 1, a.seconds, 0)[1]["mp_err_pct"]
    second = run(command, "table3-cold", 1, a.seconds, 0)[1]["mp_err_pct"]
    if first != second:
        problems.append("mp_err_pct differs run to run: %r vs %r"
                        % (first, second))
    for p in problems:
        print("FAIL " + p)
    print("PASS" if not problems else "FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
