"""mutdyn benchmark: one workload per invocation, measured in fresh interpreters.

    python3 bench/run.py --workload battery|scan|export --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The command starts one workload child
(``worker.py``) with set-up-only children before and after it, each
followed by a child that times a bare ``import numpy``; one at a time,
each a fresh interpreter importing ``mutdyn`` from ``src/``.  The child
is a single caller in a closed loop, with no threads.  Every operation's
output is checked; a failed operation is one that raised, exited
non-zero or failed its check.

Output: human-readable lines (environment, every metric by name and
unit, per-operation medians with their highest well-sampled percentile,
per-layer figures and traffic shares when traced, a ``detail`` JSON
line), then, as the last line, the result object.  With ``--trace 0``
its metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones of BENCHMARK.json, which the command reads for their names.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_CHILDREN = 6  # on each side of the workload child
# Set-up time follows the shared host's speed, which moved it by a third
# between sets of runs; a bare `import numpy` in a fresh child moves with
# it.  setup_s is the set-up median over the bare-import median, in
# seconds of a host where that import takes this long.
NUMPY_IMPORT_REF_S = 0.1
RUN_LIMIT_S = 170.0
# One thread per child, the single caller: numpy's BLAS pool would
# otherwise start threads at import that take the CPU from the import
# itself on a 2-vCPU host, by 0-70 ms of a ~0.2 s set-up.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

# figures a user of each workload sees: op name -> (metric, unit)
OP_METRICS = {
    "scan_rational": ("scan_rational_orbits_per_s", "1/s"),
    "scan_tropical": ("scan_tropical_orbits_per_s", "1/s"),
    "trop_json": ("trop_json_s", "s"),
    "trop_csv": ("trop_csv_s", "s"),
    "lattice_json": ("lattice_json_s", "s"),
    "orbit_csv": ("orbit_csv_s", "s"),
    "matclass_json": ("matclass_json_s", "s"),
}


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def top_percentile(values):
    """Highest of a few percentiles with at least ten samples beyond it."""
    ordered = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, -(-len(ordered) * pct // 100))  # nearest rank
        value = ordered[int(rank) - 1]
        if sum(v > value for v in ordered) >= 10:
            return pct, value
    return None


def environment(seed: int, numpy_version: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or None,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class ChildFailed(Exception):
    pass


def run_child(args: list, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    left = deadline - time.monotonic()
    if left <= 0:
        raise ChildFailed("no time left for the next child")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=left, cwd=ROOT, env=CHILD_ENV
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child exceeded the {RUN_LIMIT_S:g} s limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("child printed nothing")
    return json.loads(lines[-1])


def setup_children(common: list, deadline: float):
    """Set-up times and bare numpy import times, from alternating fresh children."""
    setup, ref = [], []
    for _ in range(SETUP_CHILDREN):
        setup.append(run_child(common + ["--setup-only"], deadline)["setup_s"])
        ref.append(run_child(common + ["--reference"], deadline)["import_numpy_s"])
    return setup, ref


def summarize(child: dict, setup: list, ref: list, spec: dict, trace: int) -> dict:
    """Every figure of the run by name: value and unit, plus sample notes."""
    figures = {}

    def put(name, value, unit, note=""):
        figures[name] = {"value": value, "unit": unit, "note": note}

    raw, numpy_s = statistics.median(setup), statistics.median(ref)
    put(
        "setup_s",
        raw / numpy_s * NUMPY_IMPORT_REF_S,
        "s",
        f"median of {len(setup)} fresh children over that of {len(ref)} bare numpy imports,"
        f" times {NUMPY_IMPORT_REF_S:g} s",
    )
    put("setup_raw_s", raw, "s", "unscaled")
    put("import_numpy_s", numpy_s, "s", "unscaled")
    put("peak_rss_mb", child["peak_rss_mb"], "MB", "workload child, before its first check")
    put(
        "failed_ops_share",
        child["failed"] / child["attempted"],
        "share",
        f"{child['failed']} of {child['attempted']} operations",
    )
    rounds = child["rounds"]["untraced"]
    put("round_calib", statistics.median(rounds), "calib", f"median of {len(rounds)} rounds")
    put("round_s", statistics.median(child["round_s"]), "s", "unscaled")
    if child["workload"] == "battery":
        put("battery_s", statistics.median(child["round_s"]), "s", "median pass of C1-C10, unscaled")
    for op, values in child["samples"].items():
        raw = statistics.median(child["seconds"][op])
        note = f"n={len(values)}, spread {quartile_spread(values):.3f}"
        top = top_percentile(values)
        note += f", p{top[0]:g} {top[1]:.4g}" if top else ", no percentile with 10 beyond"
        put(f"{op}_calib", statistics.median(values), "calib", note)
        if op in OP_METRICS:
            name, unit = OP_METRICS[op]
            put(name, child["scan_orbits"] / raw if unit == "1/s" else raw, unit, "unscaled")
    if trace:
        layers = child["layers"]
        traced = statistics.median(child["rounds"]["traced"])
        layers["trace.overhead_ratio"] = traced / statistics.median(rounds) - 1.0
        layers["acceptance.budget_overruns"] = child["budget_overruns"]
        mutates = layers.get("exchange.mutate.calls", 0)
        members = layers.get("exchange.mutation_class.members", 0)
        # no mutate call on the workload: reported as 0 rather than undefined
        layers["exchange.members_per_mutate"] = members / mutates if mutates else 0.0
        listed = {m["name"] for m in spec["per_layer"]}
        for m in spec["per_layer"]:
            put("layer " + m["name"], layers.get(m["name"], 0), m["unit"])
        # every other layer time the traced run took, by span name
        for name, value in layers.items():
            if name.endswith((".s", ".self_s")) and name not in listed:
                if name.startswith("acceptance.") and not name.endswith(".self_s"):
                    name = name[:-2] + "_s"  # acceptance.C1.s prints as acceptance.C1_s
                put("layer " + name, value, "s", "printed only")
        for kind in ("rational", "tropical"):
            calls = layers.get(f"orbits.iterate_orbit.{kind}.calls", 0)
            if calls:
                trunc = layers.get(f"orbits.iterate_orbit.{kind}.truncated", 0)
                put(f"traffic {kind}_truncated_share", trunc / calls, "share", f"{trunc} of {calls} orbits")
        for name, share in sorted(child["traffic"].items()):
            put("traffic " + name, share, "share", "of the op's traced time")
    return figures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "mutdyn", "__init__.py")):
        print(f"no mutdyn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    out_root = os.path.join(ROOT, ".bench_out")
    out_dir = os.path.join(out_root, f"{args.workload}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out-dir", out_dir]
    try:
        # set-up children on both sides of the workload child, so that their
        # median spans the run rather than one stretch of a shared host
        setup, ref = setup_children(common, deadline)
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", os.path.join(out_root, f"spans-{args.workload}-{args.seed}.jsonl")]
        child = run_child(common + extra, deadline)
        more_setup, more_ref = setup_children(common, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    env = environment(args.seed, child["numpy"])
    setup += more_setup + [child["setup_s"]]
    figures = summarize(child, setup, ref + more_ref, spec, args.trace)
    print(f"mutdyn benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    for name, f in figures.items():
        label = name if " " in name else "metric " + name
        print(f"{label} {f['value']:.6g} {f['unit']}" + (f"  ({f['note']})" if f["note"] else ""))
    for why in child["failures"]:
        print(f"failure {why}")
    print("detail " + json.dumps({"env": env, "figures": figures, "child": child}))

    if args.trace:
        wanted = {m["name"]: "layer " + m["name"] for m in spec["per_layer"]}
    else:
        wanted = {m["name"]: m["name"] for m in spec["end_to_end"]}
    metrics = {
        name: {"value": figures[key]["value"], "unit": figures[key]["unit"]}
        for name, key in wanted.items()
    }
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
