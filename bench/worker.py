"""One workload in a fresh interpreter; prints its measurements as one JSON line.

Started by ``run.py``, never imported.  ``setup_s`` runs from before
``import mutdyn`` until the workload's inputs are ready; with
``--setup-only`` that is all the child measures.  With ``--reference``
the child times only ``import numpy``, the yardstick of ``setup_s``
(see ``run.py``).  Otherwise it runs
rounds of the workload until the timed calls add up to ``--seconds``.
With ``--trace 1`` rounds alternate untraced and traced, starting
untraced, and the traced rounds give the per-layer figures.  Op times
are also given in units of the host-speed probe (``probe.py``).
"""
import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))


def _layers(tracer, names) -> dict:
    """Per-layer figures of one traced round; every one of ``names`` appears."""
    rows = tracer.summary()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for name in [*names, *(n for n in rows if n not in names)]:
        row = rows.get(name, zero)
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.s"] = row["s"]
        out[f"{name}.self_s"] = row["self_s"]
    out.update(tracer.counts)
    return out


_SHARES = {
    "orbits.iterate_orbit.rational": "iteration",
    "orbits.iterate_orbit.tropical": "iteration",
    "export.export_json": "formatting",
    "export.export_csv": "formatting",
    "exchange.mutation_class": "mutation_class",
}


def _traffic(tracer) -> dict:
    """Shares of each op's traced time spent iterating, formatting or closing a class."""
    total, part = Counter(), Counter()
    for name, start, end, parent, op in tracer.spans:
        if parent < 0:
            total[op] += end - start
        elif name in _SHARES:
            part[op, _SHARES[name]] += end - start
    return {f"{op}.{what}_share": v / total[op] for (op, what), v in part.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spans", default=None, help="file for the first traced round's spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", action="store_true", help="time a bare import of numpy only")
    args = ap.parse_args(argv)

    if args.reference:
        t0 = time.perf_counter()
        import numpy  # noqa: F401

        print(json.dumps({"import_numpy_s": time.perf_counter() - t0}))
        return 0

    os.makedirs(args.out_dir, exist_ok=True)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    t0 = time.perf_counter()
    import workloads  # imports mutdyn

    ops = workloads.make_ops(args.workload, args.seed, args.out_dir)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy

    if args.trace:
        from tracer import Tracer, installed_wrappers, span_names

        layer_names = [op.span for op in ops if op.span] + span_names()

    samples = {op.name: [] for op in ops}
    seconds = {op.name: [] for op in ops}
    rounds = {"untraced": [], "traced": []}
    round_s = []
    layer_rounds = []
    first_traced = None
    attempted = failed = overruns = 0
    failures = []
    budgets = {
        c.cid: c.budget_s for c in workloads.mutdyn.acceptance.CRITERIA if c.budget_s is not None
    }
    measured = 0.0
    n = 0
    while measured < args.seconds or (args.trace and not layer_rounds):
        tracer = Tracer() if args.trace and n % 2 == 1 else None
        results = workloads.run_round(ops, tracer)
        if n == 0:
            # the program's peak, read before the first output check can
            # raise it with the benchmark's own re-computation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            left = installed_wrappers()
            if left:
                raise RuntimeError(f"span wrappers left installed: {left}")
        reasons = workloads.check_round(ops, results)
        total = sum(r[1] for r in results)
        elapsed = sum(r[0] for r in results)
        for op, (dt, units, _, _), why in zip(ops, results, reasons):
            attempted += 1
            if why is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{op.name}: {why}")
            if tracer is None:
                samples[op.name].append(units)
                seconds[op.name].append(dt)
                overruns += op.name in budgets and dt > budgets[op.name]
        if tracer is None:
            rounds["untraced"].append(total)
            round_s.append(elapsed)
        else:
            rounds["traced"].append(total)
            layers = _layers(tracer, layer_names)
            layers["acceptance.criteria_failing"] = sum(
                isinstance(v, tuple) and v[0] is False for _, _, v, _ in results
            )
            layer_rounds.append(layers)
            if first_traced is None:
                first_traced = tracer
        measured += elapsed
        n += 1

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "samples": samples,
        "seconds": seconds,
        "rounds": rounds,
        "round_s": round_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "budget_overruns": overruns,
        "numpy": numpy.__version__,
        "scan_orbits": workloads.SCAN_ORBITS,
    }
    if layer_rounds:
        # counts repeat exactly from round to round; times take the median
        out["layers"] = {
            k: statistics.median(r.get(k, 0.0) for r in layer_rounds)
            if k.endswith((".s", ".self_s"))
            else v
            for k, v in layer_rounds[0].items()
        }
        out["traffic"] = _traffic(first_traced)
        if args.spans:
            first_traced.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
