"""Run the benchmark over several seeds and keep every result.

    python3 bench/sweep.py --out results.jsonl --seeds 1-10 \\
        [--seconds S] [--trace 0|1]

For each seed the workloads run one after another, so slow stretches of
a shared host fall on all of them alike.  Each run appends one JSON
line: workload, seed, trace flag, the result object and every printed
figure.  Exits non-zero if any run failed.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(x[7:]) for x in lines if x.startswith("detail "))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "result": json.loads(lines[-1]),
        "env": detail["env"],
        "figures": {k: v["value"] for k, v in detail["figures"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    args.seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a", encoding="utf-8") as fh:
        for seed in seed_range(args.seeds):
            for workload in (w["name"] for w in spec["workloads"]):
                record = run_one(workload, seed, args.seconds, args.trace)
                fh.write(json.dumps(record) + "\n")
                fh.flush()
                res = record["result"]
                print(f"{workload} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
