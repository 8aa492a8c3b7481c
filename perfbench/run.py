#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload solve_smallworld --seed 1 \
        --seconds 20 --trace 0 [--out results.jsonl]

Builds perfbench/ (and with it the library from src/) into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's inputs
from the seed in a separate process, runs the measurement in a fresh
process, and prints its report. The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Wall-clock limit for the whole invocation once the program is built.
RUN_LIMIT_S = 175.0


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then (re)build the measuring program."""
    binary_dir = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(binary_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", binary_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", binary_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(binary_dir, "perfbench")


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_child(cmd, env, deadline, capture):
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("%s exceeded the run time limit" % cmd[1])
    if proc.returncode != 0:
        raise RuntimeError("%s %s exited with %d" % (cmd[0], cmd[1], proc.returncode))
    return out.decode() if capture else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["solve_smallworld", "solve_road_mesh", "serve_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--out", help="append provenance + result as one JSON line")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    deadline = time.monotonic() + RUN_LIMIT_S

    env = dict(os.environ)
    # OpenMP team size: a team spanning every vCPU stalls at each BFS
    # level barrier whenever one vCPU is descheduled, so the solve
    # workloads leave one vCPU to the rest of the machine; serve_mixed
    # runs two teams at once (the batcher's sweeps and a cold solve), so
    # each gets half. See README.md for the measurements behind this.
    cpus = os.cpu_count() or 1
    threads = cpus // 2 if args.workload == "serve_mixed" else cpus - 1
    env["OMP_NUM_THREADS"] = str(max(1, threads))

    data = os.path.join(os.path.relpath(build_dir, ROOT), "data",
                        "%s-%d" % (args.workload, args.seed))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--data", data]
    try:
        run_child([binary, "prepare"] + common, env, deadline, capture=False)
        out = run_child([binary, "run"] + common +
                        ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                        env, deadline, capture=True)
    finally:
        # Inputs are regenerated per run; the pinned references and the
        # span traces stay.
        data_dir = os.path.join(ROOT, data)
        for name in os.listdir(data_dir) if os.path.isdir(data_dir) else []:
            if name.endswith((".txt", ".gr", ".csrbin")):
                os.remove(os.path.join(data_dir, name))

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])["provenance"]
    declared = declared_metrics(args.trace)
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if declared is not None and got != declared:
        raise SystemExit("run.py: metrics do not match BENCHMARK.json: %s vs %s" % (got, declared))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"provenance": provenance, "result": result}) + "\n")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log(e)
        sys.exit(1)
