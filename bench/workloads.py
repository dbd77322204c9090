"""The benchmark's workloads: inputs drawn from a seed, timed calls, output checks.

Every workload is a list of operations run in order as one round by a
single caller in a closed loop.  An operation is one timed call into
the program: a criterion ``fn`` of the acceptance battery, or
``mutdyn.cli.main`` with a command line that writes to a file.  Each
operation carries the check its output must pass; checks run after the
round, outside the timed calls and with tracing removed.

- ``battery``: criteria C1-C10 of ``acceptance.CRITERIA`` in order.
  Their seeds are fixed in the program, so the benchmark seed does not
  reach them.  C11 is left out: it times interpreter start-ups, and the
  ``export`` workload covers its bytes.
- ``scan``: ``mutdyn scan`` for both map kinds over p, q in [0.5, 3],
  with a scan seed drawn from the benchmark seed.
- ``export``: five single commands at 1e5 steps (or the mutation-class
  cap), each writing one file.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import mutdyn.acceptance
import mutdyn.cli
from mutdyn.exchange import ExtendedExchangeMatrix, mutation_class
from mutdyn.export import export_json, parse_scan_json
from mutdyn.orbits import GrowthKind, OrbitKind, iterate_orbit
from mutdyn.params import Params

import reference
from probe import SpeedProbe

SCAN_RANGE = (0.5, 3.0)
SCAN_RESOLUTION = 12
SCAN_COUNT = 4
SCAN_STEPS = 2000
SCAN_ORBITS = SCAN_RESOLUTION * SCAN_RESOLUTION * SCAN_COUNT
# cells this close to the critical product pq = 4 may read either way
# at a finite horizon; every other cell must carry its regime's verdict
SCAN_BAND = 0.25

EXPORT_STEPS = 10**5
MATCLASS_CAP = 10**4


@dataclass
class Op:
    """One timed call and the check of what it produced.

    ``call`` returns the value ``check`` inspects; ``check`` returns
    None when the output is right, else a one-line reason.  ``expected``
    is the SHA-256 digest of the first checked output, where later
    outputs must repeat it.
    """

    name: str
    call: object
    check: object
    span: str = ""
    expected: bytes | None = field(default=None, repr=False)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"mutdyn-bench:{workload}:{seed}")


def _criterion_check(value):
    ok = (
        isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[0], bool)
        and isinstance(value[1], str)
    )
    return None if ok else f"criterion returned {value!r:.80}, not (bool, str)"


def battery_ops() -> list:
    crits = [c for c in mutdyn.acceptance.CRITERIA if c.cid != "C11"]
    return [Op(c.cid, c.fn, _criterion_check, span=f"acceptance.{c.cid}") for c in crits]


def _cli_main(argv):
    # looked up at call time so an installed tracer sees the call
    return mutdyn.cli.main(argv)


def _cli_call(argv):
    return functools.partial(_cli_main, argv)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _exit_zero(code):
    return None if code == 0 else f"exit code {code}, want 0"


def scan_argv(kind: str, scan_seed: int, out: str) -> list:
    lo, hi = SCAN_RANGE
    return [
        "scan", "--kind", kind,
        "--p-min", repr(lo), "--p-max", repr(hi),
        "--q-min", repr(lo), "--q-max", repr(hi),
        "--resolution", str(SCAN_RESOLUTION), "--count", str(SCAN_COUNT),
        "--seed", str(scan_seed), "--steps", str(SCAN_STEPS),
        "--out", out,
    ]  # fmt: skip


def check_scan(data: bytes, kind: str):
    text = data.decode("ascii")
    table = parse_scan_json(text)
    if export_json(table) != text:
        return "scan table does not round-trip through parse_scan_json"
    if table.kind.value != kind or len(table.cells) != SCAN_RESOLUTION**2:
        return f"scan table has kind {table.kind.value} and {len(table.cells)} cells"
    for cell in table.cells:
        pq = cell.p * cell.q
        if pq < 4.0 - SCAN_BAND:
            want = GrowthKind.BOUNDED_LIKE
        elif pq > 4.0 + SCAN_BAND:
            want = GrowthKind.EXPONENTIAL
        else:
            continue
        if cell.verdict.kind is not want:
            return f"cell p={cell.p} q={cell.q} reads {cell.verdict.kind.value}, want {want.value}"
    return None


def scan_ops(seed: int, out_dir: str) -> list:
    scan_seed = rng_for("scan", seed).randrange(2**31)
    ops = []
    for kind in ("rational", "tropical"):
        out = os.path.join(out_dir, f"scan_{kind}.json")

        def check(code, kind=kind, out=out):
            return _exit_zero(code) or check_scan(_read(out), kind)

        ops.append(Op(f"scan_{kind}", _cli_call(scan_argv(kind, scan_seed, out)), check))
    return ops


def _same_bits(a, b) -> bool:
    # the format writes -0.0 as 0, so signed zeros compare as +0.0
    a = np.asarray(a, dtype=float) + 0.0
    b = np.asarray(b, dtype=float) + 0.0
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _parse_orbit(data: bytes, fmt: str):
    """Points, and phi for tropical CSV, as read back from an export."""
    if fmt == "json":
        doc = json.loads(data)
        return doc["points"], None
    rows = [line.split(",") for line in data.decode("ascii").splitlines()[1:]]
    points = [[float(r[1]), float(r[2])] for r in rows]
    phi = [float(r[3]) for r in rows] if rows and len(rows[0]) == 4 else None
    return points, phi


def check_orbit_export(data: bytes, orbit, fmt: str):
    """Compare an orbit export to the independent serialisation and to the orbit."""
    want = reference.orbit_json(orbit) if fmt == "json" else reference.orbit_csv(orbit)
    if data != want.encode("ascii"):
        return f"{fmt} bytes differ from the reference serialisation"
    points, phi = _parse_orbit(data, fmt)
    if not _same_bits(points, orbit.points):
        return "parsed points differ from iterate_orbit's"
    if phi is not None and not _same_bits(phi, orbit.phi):
        return "parsed phi differs from iterate_orbit's"
    return None


def check_class_export(data: bytes, seed_matrix, result):
    doc = json.loads(data)
    members = doc["matrices"]
    if doc["size"] != len(members):
        return f"size {doc['size']} but {len(members)} matrices"
    if tuple(tuple(r) for r in members[0]) != seed_matrix.entries:
        return "the seed is not the first member"
    for m in members:
        ExtendedExchangeMatrix(tuple(tuple(r) for r in m))
    if data != reference.class_json(result).encode("ascii"):
        return "class bytes differ from the reference serialisation"
    return None


def _cached_check(op: Op, out: str, first_check):
    """Full check on the first output; later outputs must repeat its bytes.

    Only a digest of the checked bytes is kept, so that the check holds
    no copy of an output between rounds.
    """

    def check(code):
        bad = _exit_zero(code)
        if bad:
            return bad
        data = _read(out)
        digest = hashlib.sha256(data).digest()
        if op.expected is None:
            bad = first_check(data)
            if bad:
                return bad
            op.expected = digest
        return None if digest == op.expected else "output differs from the checked first run"

    return check


def export_inputs(seed: int) -> dict:
    """Exponents and starts for the export commands, drawn from the seed."""
    rng = rng_for("export", seed)

    def subcritical():
        p = rng.uniform(0.6, 1.8)
        return p, rng.uniform(1.0, 3.5) / p

    p, q = subcritical()
    s0, t0 = 0.0, 0.0
    while max(abs(s0), abs(t0)) < 0.1:
        s0, t0 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    ls0, lt0 = 0, 0
    while ls0 == 0 and lt0 == 0:
        ls0, lt0 = rng.randint(-9, 9), rng.randint(-9, 9)
    rp, rq = subcritical()
    x0, y0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    row = (rng.randint(1, 3), rng.randint(1, 3))
    return {
        "trop": (p, q, s0, t0),
        "lattice": (1.0, 1.0, float(ls0), float(lt0)),
        "orbit": (rp, rq, x0, y0),
        "row": row,
    }


def export_ops(seed: int, out_dir: str, steps: int = EXPORT_STEPS) -> list:
    inp = export_inputs(seed)
    ops = []

    def orbit_op(name, command, kind, values, fmt):
        p, q, a, b = values
        start = ("--s0", "--t0") if kind is OrbitKind.TROPICAL else ("--x0", "--y0")
        out = os.path.join(out_dir, f"{name}.{fmt}")
        argv = [
            command, "--p", repr(p), "--q", repr(q), start[0], repr(a), start[1], repr(b),
            "--steps", str(steps), "--format", fmt, "--out", out,
        ]  # fmt: skip
        op = Op(name, _cli_call(argv), None)

        def first(data):
            orbit = iterate_orbit(Params(p, q), kind, (a, b), steps)
            return check_orbit_export(data, orbit, fmt)

        op.check = _cached_check(op, out, first)
        ops.append(op)

    orbit_op("trop_json", "trop-orbit", OrbitKind.TROPICAL, inp["trop"], "json")
    orbit_op("trop_csv", "trop-orbit", OrbitKind.TROPICAL, inp["trop"], "csv")
    orbit_op("lattice_json", "trop-orbit", OrbitKind.TROPICAL, inp["lattice"], "json")
    orbit_op("orbit_csv", "orbit", OrbitKind.RATIONAL, inp["orbit"], "csv")

    a, b = inp["row"]
    out = os.path.join(out_dir, "matclass.json")
    argv = [
        "matclass", "--p", "1", "--q", "5", "--rows", f"{a},{b}",
        "--cap", str(MATCLASS_CAP), "--full", "--out", out,
    ]  # fmt: skip
    op = Op("matclass_json", _cli_call(argv), None)
    seed_matrix = ExtendedExchangeMatrix.from_exponents(1.0, 5.0, rows=((a, b),))

    def first_class(data):
        return check_class_export(data, seed_matrix, mutation_class(seed_matrix, MATCLASS_CAP))

    op.check = _cached_check(op, out, first_class)
    ops.append(op)
    return ops


def make_ops(workload: str, seed: int, out_dir: str) -> list:
    if workload == "battery":
        return battery_ops()
    if workload == "scan":
        return scan_ops(seed, out_dir)
    if workload == "export":
        return export_ops(seed, out_dir)
    raise ValueError(f"unknown workload {workload!r}")


def run_round(ops: list, tracer=None):
    """Run every op once, in order.

    Returns per op (busy seconds, the same in probe units, value,
    error).  Busy seconds exclude the probe's in-op readings.  Span
    wrappers are installed only for the op's own call, never while the
    probe takes its edge readings.
    """
    out = []
    for op in ops:
        err = value = None
        with SpeedProbe() as probe:
            if tracer is not None:
                tracer.install()
                tracer.op_id = op.name
            t0 = perf_counter()
            try:
                if tracer is None:
                    value = op.call()
                else:
                    value = tracer.call(op.span or "op." + op.name, op.call)
            except Exception as exc:  # a failed operation is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            finally:
                dt = perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            busy = dt - probe.inside
        out.append((busy, probe.units(busy), value, err))
    return out


def check_round(ops: list, results: list) -> list:
    """Failure reasons, one per op (None when its output is right)."""
    reasons = []
    for op, (_, _, value, err) in zip(ops, results):
        if err is None:
            try:
                err = op.check(value)
            except Exception as exc:  # a malformed output fails its check
                err = f"check raised {type(exc).__name__}: {exc}"
        reasons.append(err)
    return reasons
