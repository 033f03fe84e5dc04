#!/usr/bin/env python3
"""Cio(M) benchmark: build the harness, generate a workload, time it.

Usage, from the root of a checkout:

    python3 cio_bench/run.py --workload cio_fixed --seed 3 --seconds 15 --trace 0

Steps:
  1. configure and build cio_bench/ (the library sources of ../src plus
     the harness) into .bench_build/cio_bench;
  2. generate the workload's SweepJobs from --seed in a process of its
     own (the measuring process only reads the jobs file);
  3. compute the oracle digests of that job list once per harness
     binary and job list (cached under .bench_build);
  4. run the measurement and print its result as the last stdout line.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of the traced run. --size tiny shrinks every workload to a
few-second self-check size (see selfcheck.py). Everything the run
writes stays under .bench_build in the checkout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cio_fixed", "headroom_replay", "kernel_mix_fleet")


def fail(msg):
    print(f"cio_bench: {msg}", file=sys.stderr)
    sys.exit(1)


def digest_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run(cmd, env, capture=False):
    """Run cmd to completion; exit on failure."""
    proc = subprocess.run(cmd, env=env, text=True,
                          stdout=subprocess.PIPE if capture else None)
    if proc.returncode != 0:
        fail(f"{' '.join(map(str, cmd))} exited {proc.returncode}")
    return proc.stdout


def build(build_dir, env):
    if not (ROOT / "src" / "engine" / "engine.hpp").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env, capture=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", str(build_dir), "-j", jobs], env,
        capture=True)
    harness = build_dir / "cio_harness"
    if not harness.is_file():
        fail("build produced no cio_harness")
    return harness


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    out = base / "cio_bench"
    work = out / "work"
    tmp = out / "tmp"
    for d in (work, tmp, out / "jobs", out / "oracle"):
        d.mkdir(parents=True, exist_ok=True)

    env = dict(os.environ)
    env.pop("KB_CURVE_CACHE_DIR", None)  # cold runs must be cold
    env["TMPDIR"] = str(tmp)  # spill files and temp dirs stay here

    harness = build(out / "build", env)

    tag = f"{args.size}-seed{args.seed}"
    jobs = out / "jobs" / f"{args.workload}-{tag}.jobs"
    print(run([str(harness), "gen", str(jobs), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size], env,
              capture=True), end="")

    key = hashlib.sha256((digest_file(harness) +
                          digest_file(jobs)).encode()).hexdigest()[:24]
    oracle = out / "oracle" / f"{args.workload}-{key}.digests"
    if not oracle.is_file():
        partial = oracle.with_suffix(".partial")
        run([str(harness), "oracle", str(jobs), str(partial)], env)
        partial.replace(oracle)
        print(f"oracle computed: {oracle.name}")
    else:
        print(f"oracle cached: {oracle.name}")

    text = run([str(harness), "measure", str(jobs), str(oracle),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work", str(work), "--tag", tag], env, capture=True)
    lines = text.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
