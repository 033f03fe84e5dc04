#!/usr/bin/env python3
"""Tiny-size self-check of the Cio(M) benchmark.

Runs every workload at --size tiny, untraced and traced, and checks
that each run exits 0, that its last line is the result object, that
every metric BENCHMARK.json names is printed with its unit, that the
curves match the oracle digests (correct, no failed cells) and that
warm fleet runs emit no trace. Finally checks that the benchmark
refuses to run (non-zero exit, no result) in a directory holding only
BENCHMARK.json and cio_bench/.

    python3 cio_bench/selfcheck.py        # from the checkout root
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "1", "--trace",
                 str(trace), "--size", "tiny"],
                cwd=ROOT, text=True, stdout=subprocess.PIPE)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{label}: digests do not match the oracle")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
            metrics = result["metrics"]
            if set(metrics) != set(wanted[trace]):
                problems.append(
                    f"{label}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(wanted[trace]) - set(metrics))}, "
                    f"extra {sorted(set(metrics) - set(wanted[trace]))}")
            for name, unit in wanted[trace].items():
                got = metrics.get(name)
                if got is None:
                    continue
                if got.get("unit") != unit:
                    problems.append(f"{label}: {name} unit {got.get('unit')}"
                                    f" != {unit}")
                value = got.get("value")
                if not isinstance(value, (int, float)):
                    problems.append(f"{label}: {name} value {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{label}: {name} is {value}")
            warm = metrics.get("kernels.warm_emissions", {}).get("value", 0)
            if warm != 0:
                problems.append(f"{label}: warm runs emitted {warm} traces")
            print(f"ok {label}" if not problems else f"checked {label}")

    # Without the library sources the benchmark must refuse to run.
    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
         spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, text=True, stdout=subprocess.PIPE, env=env)
    if proc.returncode == 0 or any(line.startswith("{")
                                   for line in proc.stdout.splitlines()):
        problems.append("ran without library sources")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
