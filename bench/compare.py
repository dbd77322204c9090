"""Compare two sets of benchmark runs made by sweep.py.

    python3 bench/compare.py first.jsonl second.jsonl

For every workload and end-to-end metric of BENCHMARK.json it prints
each set's median and quartile spread (distance between the first and
third quartile over the median), and the second median's change against
the first.  A metric is steady when each set's spread is within a third
of its bound and the second median is no worse than the first by more
than the bound.  The figures printed beside the gated ones follow for
reference.
Exits non-zero when any gated metric is not steady.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from run import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> dict:
    """workload -> figure name -> values, over the untraced runs of a file."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            figs = out.setdefault(rec["workload"], {})
            for name, value in rec["figures"].items():
                figs.setdefault(name, []).append(value)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("first")
    ap.add_argument("second")
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    a, b = load(args.first), load(args.second)
    steady = True
    print(f"{'workload':9} {'metric':28} {'median A':>11} {'spread A':>8} "
          f"{'median B':>11} {'spread B':>8} {'B vs A':>7} {'bound':>5}  verdict")
    for workload in sorted(a):
        for m in spec["end_to_end"]:
            va, vb = a[workload][m["name"]], b[workload][m["name"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = quartile_spread(va), quartile_spread(vb)
            change = (mb - ma) / ma
            worse = change if m["better"] == "lower" else -change
            ok = worse <= m["bound"] and max(sa, sb) <= m["bound"] / 3
            steady &= ok
            print(f"{workload:9} {m['name']:28} {ma:11.5g} {sa:8.3f} {mb:11.5g} {sb:8.3f} "
                  f"{change:+7.3f} {m['bound']:5.2f}  {'steady' if ok else 'NOT STEADY'} "
                  f"(n={len(va)},{len(vb)})")
        gated = {m["name"] for m in spec["end_to_end"]}
        for name in sorted(set(a[workload]) - gated):
            va, vb = a[workload][name], b[workload].get(name, [])
            if not vb or statistics.median(va) == 0:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            print(f"{workload:9} {name:28} {ma:11.5g} {quartile_spread(va):8.3f} "
                  f"{mb:11.5g} {quartile_spread(vb):8.3f} {(mb - ma) / ma:+7.3f}   -    printed")
    print("all gated metrics steady" if steady else "SOME GATED METRICS ARE NOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
