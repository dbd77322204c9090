"""Independent re-serialisation of mutdyn's export formats.

Written from the documented rule, not from ``mutdyn.export``: a float
that is integral and below 1e16 in magnitude prints as a bare integer,
any other finite float prints as ``repr``, non-finite values print as
``inf``/``-inf``/``nan`` (quoted inside JSON), keys keep a fixed order
and every text ends with one newline.  The export check compares the
program's bytes against these.
"""
from __future__ import annotations

import math


def num(v) -> str:
    v = float(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "-inf" if v < 0 else "inf"
    if v.is_integer() and -1e16 < v < 1e16:
        return "%d" % v
    return repr(v)


def jnum(v) -> str:
    text = num(v)
    return text if math.isfinite(float(v)) else '"' + text + '"'


def _jlist(values) -> str:
    return "[" + ",".join(jnum(v) for v in values) + "]"


def _jpairs(rows) -> str:
    return "[" + ",".join("[" + jnum(a) + "," + jnum(b) + "]" for a, b in rows) + "]"


def orbit_json(orbit) -> str:
    trunc = "null" if orbit.truncated_at is None else "%d" % orbit.truncated_at
    reason = "null" if orbit.truncation_reason is None else '"' + orbit.truncation_reason + '"'
    diag = ['"log_radius":' + _jlist(orbit.log_radius.tolist())]
    if orbit.kind.value == "tropical":
        diag.append('"phi":' + _jlist(orbit.phi.tolist()))
        diag.append('"polar_angle":' + _jlist(orbit.polar.tolist()))
        signs = ",".join("[%d,%d]" % (a, b) for a, b in orbit.signs.tolist())
        diag.append('"sign_pairs":[' + signs + "]")
    fields = [
        '"kind":"' + orbit.kind.value + '"',
        '"params":{"p":' + jnum(orbit.params.p) + ',"q":' + jnum(orbit.params.q) + "}",
        '"start":' + _jlist(orbit.start),
        '"requested_steps":%d' % orbit.requested_steps,
        '"truncated_at":' + trunc,
        '"truncation_reason":' + reason,
        '"points":' + _jpairs(orbit.points.tolist()),
        '"diagnostics":{' + ",".join(diag) + "}",
    ]
    return "{" + ",".join(fields) + "}\n"


def orbit_csv(orbit) -> str:
    pts = orbit.points.tolist()
    if orbit.kind.value == "tropical":
        lines = ["step,s,t,phi"]
        lines += [
            f"{i},{num(s)},{num(t)},{num(f)}"
            for i, ((s, t), f) in enumerate(zip(pts, orbit.phi.tolist()))
        ]
    else:
        lines = ["step,x,y"]
        lines += [f"{i},{num(x)},{num(y)}" for i, (x, y) in enumerate(pts)]
    return "\n".join(lines) + "\n"


def class_json(result) -> str:
    members = ",".join(_jpairs(m.entries) for m in result.matrices)
    complete = "true" if result.complete else "false"
    return '{"size":%d,"complete":%s,"matrices":[%s]}\n' % (result.size, complete, members)
