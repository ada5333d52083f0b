#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload replay|serve|history --seed N --seconds S --trace 0|1

The last line of standard output is the run's JSON result. The fault probe
(not gated) runs with --workload probe.

Steadiness mode runs every named workload N times, each in a fresh process
with seeds S..S+N-1 (--seed S, default 1), and prints median, quartiles and
spread per metric:

    python3 perfbench/run.py --steady 10 --workload replay,serve,history --seconds 10

--procs 0 runs with Go's default number of Ps instead of one (not gated).

The Go program is built from this checkout into the build directory
($CARGO_TARGET_DIR, default .bench_build), with the Go caches kept there
too, so a run reads and writes only inside the checkout. Per-run results of
steadiness mode and traced-run CPU profiles go to <build dir>/runs; a
traced run charges its profile samples to layers from the stacks
`go tool pprof -traces` prints.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD, "perfbench")
RUNS = os.path.join(BUILD, "runs")


def go_env():
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    # The module has no dependencies: nothing is ever fetched.
    env.update(GOPROXY="off", GOSUMDB="off", GOTOOLCHAIN="local", GOFLAGS="", PPROF_TMPDIR=os.path.join(BUILD, "tmp"))
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH, env=go_env())
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(args, capture=False):
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
           "-trace", str(args.trace), "-procs", str(args.procs)]
    if args.trace == 1:
        os.makedirs(RUNS, exist_ok=True)
        cmd += ["-profile-dir", RUNS]
    # A traced run charges its profile samples with `go tool pprof`, so it
    # gets the same Go environment as the build.
    if not capture:
        return subprocess.run(cmd, cwd=ROOT, env=go_env()).returncode
    proc = subprocess.run(cmd, cwd=ROOT, env=go_env(), stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("perfbench: %s seed %d exited with %d" % (args.workload, args.seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steady(args):
    os.makedirs(RUNS, exist_ok=True)
    for name in args.workload.split(","):
        results = []
        for seed in range(args.seed, args.seed + args.steady):
            one = argparse.Namespace(workload=name, seed=seed, seconds=args.seconds, trace=args.trace,
                                     procs=args.procs)
            res = run_once(one, capture=True)
            results.append(res)
            path = os.path.join(RUNS, "%s-trace%d-procs%d-seed%d.json" % (name, args.trace, args.procs, seed))
            with open(path, "w") as f:
                json.dump(res, f)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        ok = all(r["correct"] for r in results)
        print("%s: %d runs, correct=%s, failed share %s" % (name, len(results), ok, shares))
        print("  %-32s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3", "spread"))
        for metric in sorted(results[0]["metrics"]):
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            unit = results[0]["metrics"][metric]["unit"]
            print("  %-32s %14.6g %14.6g %14.6g %8.4f  %s" % (metric, q1, med, q3, spread, unit))
        sys.stdout.flush()


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0, help="runs per workload in steadiness mode")
    p.add_argument("--procs", type=int, default=1, help="Go Ps per run; 0 keeps Go's default (not gated)")
    args = p.parse_args()
    build()
    if args.steady:
        steady(args)
        return
    sys.exit(run_once(args))


if __name__ == "__main__":
    main()
