#!/usr/bin/env python3
"""perfbench entry point: build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The binary is built (CMake, Release) into
.bench_build/perfbench from perfbench/CMakeLists.txt, which compiles the
program's libraries from src/. Build output goes to standard error, so the
last line of standard output is always the benchmark's JSON result. Results
(host fingerprint, input digest) are also written to .bench_build/results/,
and traced runs write their spans to .bench_build/traces/.

--selftest runs every workload of BENCHMARK.json at a tiny size and checks
that each run prints every metric BENCHMARK.json names, with its unit, and
that one deliberately wrong truth value is counted as a failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under %s/src; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    return proc.returncode, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        before = len(problems)
        for trace in (0, 1):
            base = ["--workload", wl, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--tiny"]
            code, out = run_binary(base)
            res = last_json(out)
            tag = "%s trace=%d" % (wl, trace)
            if code != 0 or res is None or not res.get("correct") or res.get("failed"):
                problems.append("%s: clean run failed (exit %d)" % (tag, code))
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics %s != BENCHMARK.json %s" % (tag, got, expected[trace]))
            printed = [l for l in out.splitlines() if l.startswith("#   ")]
            for name, unit in expected[trace].items():
                if not any(l.split()[1] == name and l.split()[-1] == unit for l in printed):
                    problems.append("%s: %s not printed with unit %s" % (tag, name, unit))
        code, out = run_binary(["--workload", wl, "--seed", "7", "--seconds", "1",
                                "--trace", "0", "--tiny", "--inject-wrong-truth"])
        res = last_json(out)
        if code == 0 or res is None or res.get("correct") or not res.get("failed"):
            problems.append("%s: a wrong truth value was not counted as failed" % wl)
        print("selftest %s: %s" % (wl, "ok" if len(problems) == before else "FAILED"))
    for p in problems:
        print("selftest FAILED: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    build()
    if args.selftest:
        sys.exit(selftest())
    if not args.workload:
        fail("--workload is required")

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    results = os.path.join(ROOT, ".bench_build", "results")
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result-out", os.path.join(results, tag + ".json")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(traces, tag + ".tsv")]
    code, out = run_binary(cmd)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
