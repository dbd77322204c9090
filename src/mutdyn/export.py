"""Deterministic text serialization of orbits, scans and mutation classes.

All numbers go through one formatting rule, every container is emitted
in a fixed order and line endings are always a single newline, so a
given object serializes to identical bytes on every run and platform
with the same floating-point results.
"""
from __future__ import annotations

import json
import math
from functools import partial

import numpy as np

from .errors import DomainError, _count, _real
from .exchange import MutationClassResult
from .orbits import GrowthKind, GrowthVerdict, Orbit, OrbitKind, ScanCell, ScanTable
from .orbits import _log_radius, _phi, _polar, _signs

__all__ = ["fmt_float", "export_csv", "export_json", "parse_scan_json"]

# rows formatted and joined into each piece of a long export: the CLI
# writes each piece as it is made, so it holds one piece's texts
_ROWS = 4096


def _fmt_col(a, quote: bool = False) -> list:
    """Every number of an array, flattened in C order, as text.

    The one number rule of every export: an integral float below 1e16
    in magnitude prints bare (so -0.0 prints as 0), any other finite
    float prints as its shortest round-trip ``repr``, and non-finite
    values print as inf/-inf/nan, in double quotes when ``quote`` is
    set.  Integer arrays print as integers.

    Values that compare equal print alike under this rule (0.0 and
    -0.0 both print 0, every nan prints nan), so an array with repeats
    formats each distinct value once and maps the texts back.  The
    exports call this on one chunk of ``_ROWS`` rows at a time, so the
    cost is one ``repr`` per distinct number of each chunk, and no
    text per number of a whole column is ever held.
    """
    a = np.asarray(a).ravel()
    if a.size > 1:
        # one sort finds whether any value repeats (a nan never equals a nan)
        s = np.sort(a)
        if (s[1:] == s[:-1]).any():
            keys, inverse = np.unique(a, return_inverse=True)
            # numpy 2.0 returned the inverse in the input's shape; ravel covers both
            texts = np.array(_fmt_each(keys, quote), dtype=object)
            return texts[inverse.ravel()].tolist()
    return _fmt_each(a, quote)


def _fmt_each(a: np.ndarray, quote: bool) -> list:
    # the number rule of _fmt_col applied to every element of a flat array
    if a.dtype.kind in "iu":
        return list(map(str, a.tolist()))
    a = a.astype(float, copy=False)
    # CPython's float repr already spells non-finite values inf/-inf/nan
    out = list(map(float.__repr__, a.tolist()))
    bare = np.flatnonzero((np.trunc(a) == a) & (np.abs(a) < 1e16))
    for i, text in zip(bare.tolist(), map(str, a[bare].astype(np.int64).tolist())):
        out[i] = text
    if quote:
        for i in np.flatnonzero(~np.isfinite(a)).tolist():
            out[i] = '"' + out[i] + '"'
    return out


def fmt_float(v: float) -> str:
    """Shortest decimal that round-trips; integral values below 1e16 print bare.

    Non-finite values (possible in diagnostics of orbits that grew
    past 1e154, never in orbit points) print as inf/-inf/nan.
    """
    return _fmt_col(np.array([float(v)]))[0]


class _Column:
    # an orbit's diagnostic, evaluated on each slice an export takes, never whole
    def __init__(self, diagnostic, points):
        self.diagnostic, self.points = diagnostic, points

    def __len__(self):
        return len(self.points)

    def __getitem__(self, rows):
        return self.diagnostic(self.points[rows])


def _csv(header: str, columns):
    """CSV text as pieces: the header, then one row per entry of the equal-length columns."""
    yield header
    yield "\n"
    for lo in range(0, len(columns[0]), _ROWS):
        cells = [_fmt_col(c[lo : lo + _ROWS]) for c in columns]
        yield "\n".join(map(",".join, zip(*cells)))
        yield "\n"


def _orbit_csv(orbit: Orbit):
    # the pieces of export_csv; no whole step or phi column is allocated
    pts = orbit.points
    columns = [range(len(pts)), pts[:, 0], pts[:, 1]]
    if orbit.kind is OrbitKind.TROPICAL:
        return _csv("step,s,t,phi", columns + [_Column(partial(_phi, orbit.params), pts)])
    return _csv("step,x,y", columns)


def export_csv(orbit: Orbit) -> str:
    """CSV text of an orbit, one row per point, step index first.

    Tropical orbits add the conserved quadratic as a final column.
    """
    return "".join(_orbit_csv(orbit))


def _nest(a: np.ndarray) -> str:
    # the entries of a non-empty array's axis 0, comma-joined: its
    # numbers are formatted in one call, then the texts nest by shape
    items = _fmt_col(a, quote=True)
    for axis in range(a.ndim - 1, 0, -1):
        k = a.shape[axis]
        if k == 0:
            items = ["[]"] * math.prod(a.shape[:axis])
            continue
        rows = zip(*[iter(items)] * k)
        if axis == 1:
            # the outermost level joins every row in one call
            return "[" + "],[".join(map(",".join, rows)) + "]"
        items = ["[" + ",".join(row) + "]" for row in rows]
    return ",".join(items)


def _floats(obj) -> list:
    # the scalar floats of a payload, in the order _put writes them
    if isinstance(obj, (dict, list, tuple)):
        return [v for c in (obj.values() if isinstance(obj, dict) else obj) for v in _floats(c)]
    return [obj] if isinstance(obj, float) else []


def _put(obj, texts=None):
    # the JSON text of obj as pieces: a container yields its children's
    # pieces, and texts the texts of its scalar floats, formatted in one
    # call that skips _fmt_col's repeat search: for a few hundred numbers
    # its sort would page in numpy code that a scan otherwise never runs
    if texts is None:
        texts = iter(_fmt_each(np.array(_floats(obj), dtype=float), True))
    if isinstance(obj, (np.ndarray, _Column)):
        # _ROWS entries of axis 0 at a time, so no text per number of
        # the whole array is held at once
        yield "["
        for lo in range(0, len(obj), _ROWS):
            if lo:
                yield ","
            yield _nest(obj[lo : lo + _ROWS])
        yield "]"
    elif isinstance(obj, dict):
        yield "{"
        for i, (k, v) in enumerate(obj.items()):
            yield ("," if i else "") + json.dumps(k) + ":"
            yield from _put(v, texts)
        yield "}"
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, v in enumerate(obj):
            if i:
                yield ","
            yield from _put(v, texts)
        yield "]"
    elif isinstance(obj, bool):
        yield "true" if obj else "false"
    elif obj is None:
        yield "null"
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, float):
        yield next(texts)
    elif isinstance(obj, str):
        yield json.dumps(obj)
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__}")


def _document(payload):
    # the pieces of a JSON document: the payload, then one newline
    yield from _put(payload)
    yield "\n"


def _verdict_dict(verdict: GrowthVerdict) -> dict:
    return {
        "kind": verdict.kind.value,
        "ratio": verdict.ratio,
        "rate": verdict.rate,
        "max_log_radius": verdict.max_log_radius,
    }


def _orbit_dict(orbit: Orbit) -> dict:
    out = {
        "kind": orbit.kind.value,
        "params": {"p": orbit.params.p, "q": orbit.params.q},
        "start": [float(orbit.start[0]), float(orbit.start[1])],
        "requested_steps": orbit.requested_steps,
        "truncated_at": orbit.truncated_at,
        "truncation_reason": orbit.truncation_reason,
        "points": orbit.points,
    }
    diag = {"log_radius": _Column(_log_radius, orbit.points)}
    if orbit.kind is OrbitKind.TROPICAL:
        diag["phi"] = _Column(partial(_phi, orbit.params), orbit.points)
        diag["polar_angle"] = _Column(partial(_polar, orbit.params), orbit.points)
        diag["sign_pairs"] = _Column(_signs, orbit.points)
    out["diagnostics"] = diag
    return out


def _scan_dict(table: ScanTable) -> dict:
    return {
        "kind": table.kind.value,
        "steps": table.steps,
        "p_values": [float(v) for v in table.p_values],
        "q_values": [float(v) for v in table.q_values],
        "cells": [
            {"p": c.p, "q": c.q, "verdict": _verdict_dict(c.verdict)} for c in table.cells
        ],
    }


def _class_dict(result: MutationClassResult) -> dict:
    return {
        "size": result.size,
        "complete": result.complete,
        "matrices": np.array([m.entries for m in result.matrices], dtype=float),
    }


def _payload(obj) -> dict:
    # the JSON payload of an orbit, a scan table or a mutation class
    if isinstance(obj, Orbit):
        return _orbit_dict(obj)
    if isinstance(obj, ScanTable):
        return _scan_dict(obj)
    if isinstance(obj, MutationClassResult):
        return _class_dict(obj)
    raise DomainError(f"no JSON export for {type(obj).__name__}")


def export_json(obj) -> str:
    """Canonical JSON text for an orbit, a scan table or a mutation class.

    Keys appear in a fixed order and numbers use the same formatting
    rule as the CSV export.  A trailing newline terminates the text.
    """
    return "".join(_document(_payload(obj)))


def _parse_verdict(d: dict) -> GrowthVerdict:
    kind = GrowthKind(d["kind"])

    def num(v):
        # a non-finite value comes back from its quoted text
        return None if v is None else float(v)

    return GrowthVerdict(
        kind,
        ratio=num(d.get("ratio")),
        rate=num(d.get("rate")),
        max_log_radius=num(d.get("max_log_radius")),
    )


def parse_scan_json(text: str) -> ScanTable:
    """Rebuild a ScanTable from its exported JSON text."""
    def reals(values, what):
        return tuple(_real(v, what, positive=True) for v in values)

    try:
        d = json.loads(text)
        cells = tuple(
            ScanCell(*reals((c["p"], c["q"]), "cell exponents"), _parse_verdict(c["verdict"]))
            for c in d["cells"]
        )
        p_values, q_values = reals(d["p_values"], "grid values"), reals(d["q_values"], "grid values")
        # cell() reads cell (i, j) as the one at (p_values[i], q_values[j])
        if [(c.p, c.q) for c in cells] != [(p, q) for p in p_values for q in q_values]:
            raise DomainError(f"cells are not the {len(p_values)} x {len(q_values)} grid's points")
        steps = _count(d["steps"], "steps", 0)
        return ScanTable(p_values, q_values, OrbitKind(d["kind"]), steps, cells)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"not a scan table document: {exc}") from None
