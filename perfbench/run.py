#!/usr/bin/env python3
"""Builds scalbench from this checkout and runs one benchmark workload.

    python3 perfbench/run.py --workload table3-cold --seed 1 --seconds 10 \
        --trace 0 [--load key=value,...]

Run it from the repository root. The first run configures and builds the
scaltool libraries plus the scalbench program into .bench_build/perfbench (Release);
later runs only rebuild what changed. Each run works in a fresh directory
under .bench_build/runs, which is deleted afterwards, so no run cache,
journal or archive survives from one run to the next. A traced run
(--trace 1) also leaves its spans in .bench_build/traces. The last line
of standard output is the result JSON object; build and progress output
goes to standard error.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "scalbench")


def group_alive(pgid):
    """True while any process of process group `pgid` still exists."""
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % pid) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            return True
    return False


def stop_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        if not group_alive(pgid):
            return
        time.sleep(0.01)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--load", default="")
    a = p.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)

    run_dir = os.path.join(OUT, "runs", "%s-%d-%d" % (a.workload, a.seed,
                                                      os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--pins", os.path.join(HERE, "pins.txt")]
    if a.load:
        cmd += ["--load", a.load]
    if a.trace == "1":
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.jsonl" % (a.workload, a.seed))]

    # Own process group, so fleet shards die with the run whatever happens.
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        stop_group(proc.pid)
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("scalbench exited with %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("scalbench printed no result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
