"""Serialization formats and the command-line front end."""
import hashlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import mutdyn.acceptance
import mutdyn.cli
import mutdyn.export
from mutdyn.cli import main
from mutdyn.errors import DomainError
from mutdyn.exchange import ExtendedExchangeMatrix, mutation_class
from mutdyn.export import _fmt_col, _put, export_csv, export_json, fmt_float, parse_scan_json
from mutdyn.levelset import levelset_points
from mutdyn.orbits import OrbitKind, StartPolicy, iterate_orbit, scan_grid
from mutdyn.params import Params
from mutdyn.svg import render_svg


def test_fmt_float_cases():
    assert fmt_float(0.1) == "0.1"
    assert fmt_float(2.0) == "2"
    assert fmt_float(-3.5) == "-3.5"
    assert fmt_float(-0.0) == "0"
    assert fmt_float(1e20) == "1e+20"
    assert fmt_float(math.nan) == "nan"
    assert fmt_float(math.inf) == "inf"
    assert fmt_float(-math.inf) == "-inf"
    assert float(fmt_float(0.30000000000000004)) == 0.30000000000000004
    assert fmt_float(1e16) == "1e+16"
    assert fmt_float(-1e16) == "-1e+16"
    assert fmt_float(9999999999999998.0) == "9999999999999998"
    assert fmt_float(5e-324) == "5e-324"


def test_csv_golden_tropical():
    orbit = iterate_orbit(Params(1, 1), OrbitKind.TROPICAL, (1, 0), 1)
    assert export_csv(orbit) == "step,s,t,phi\n0,1,0,1\n1,0,-1,1\n"


def test_csv_golden_rational():
    orbit = iterate_orbit(Params(1, 1), OrbitKind.RATIONAL, (1, 1), 5)
    assert export_csv(orbit) == (
        "step,x,y\n0,1,1\n1,2,3\n2,2,1\n3,1,2\n4,3,2\n5,1,1\n"
    )


def test_json_is_valid_deterministic_and_ordered():
    orbit = iterate_orbit(Params(1.3, 0.8), OrbitKind.TROPICAL, (0.4, -1.1), 12)
    text = export_json(orbit)
    assert text == export_json(orbit)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc.keys()) == [
        "kind", "params", "start", "requested_steps",
        "truncated_at", "truncation_reason", "points", "diagnostics",
    ]
    assert list(doc["diagnostics"].keys()) == [
        "log_radius", "phi", "polar_angle", "sign_pairs",
    ]
    assert doc["kind"] == "tropical"
    assert len(doc["points"]) == 13


def test_json_rational_orbit_has_no_tropical_diagnostics():
    orbit = iterate_orbit(Params(1, 1), OrbitKind.RATIONAL, (1, 1), 4)
    doc = json.loads(export_json(orbit))
    assert list(doc["diagnostics"].keys()) == ["log_radius"]


def test_json_quotes_non_finite_diagnostics():
    orbit = iterate_orbit(Params(3, 3), OrbitKind.TROPICAL, (1, 1), 300)
    text = export_json(orbit)
    doc = json.loads(text)
    quoted = [v for v in doc["diagnostics"]["phi"] if isinstance(v, str)]
    assert quoted
    assert all(v in ("nan", "inf", "-inf") for v in quoted)


def _rule_num(v, quote=False):
    # the documented number rule, one value at a time
    v = float(v)
    if math.isnan(v):
        text = "nan"
    elif math.isinf(v):
        text = "inf" if v > 0 else "-inf"
    elif v.is_integer() and abs(v) < 1e16:
        return "%d" % v
    else:
        return repr(v)
    return '"' + text + '"' if quote else text


def _rule_list(values):
    return "[" + ",".join(_rule_num(v, quote=True) for v in values) + "]"


def _rule_rows(rows):
    return "[" + ",".join(_rule_list(row) for row in rows) + "]"


def _rule_csv(orbit):
    head = "step,s,t,phi" if orbit.kind is OrbitKind.TROPICAL else "step,x,y"
    lines = [head]
    for i, (a, b) in enumerate(orbit.points.tolist()):
        row = [str(i), _rule_num(a), _rule_num(b)]
        if orbit.kind is OrbitKind.TROPICAL:
            row.append(_rule_num(orbit.phi[i]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _rule_json(orbit):
    diag = '"log_radius":' + _rule_list(orbit.log_radius.tolist())
    if orbit.kind is OrbitKind.TROPICAL:
        diag += ',"phi":' + _rule_list(orbit.phi.tolist())
        diag += ',"polar_angle":' + _rule_list(orbit.polar.tolist())
        signs = ",".join("[%d,%d]" % (a, b) for a, b in orbit.signs.tolist())
        diag += ',"sign_pairs":[' + signs + "]"
    fields = [
        '"kind":"%s"' % orbit.kind.value,
        '"params":{"p":%s,"q":%s}' % (_rule_num(orbit.params.p), _rule_num(orbit.params.q)),
        '"start":' + _rule_list(orbit.start),
        '"requested_steps":%d' % orbit.requested_steps,
        '"truncated_at":' + json.dumps(orbit.truncated_at),
        '"truncation_reason":' + json.dumps(orbit.truncation_reason),
        '"points":' + _rule_rows(orbit.points.tolist()),
        '"diagnostics":{' + diag + "}",
    ]
    return "{" + ",".join(fields) + "}\n"


def _export_orbits():
    rng = random.Random(20240601)
    edge = [0.0, -0.0, 1.0, -2.0, 3.0, 1e15, -1e15, 1e16, -1e16, 1.7e150, -3.1e150]
    positive = [1.0, 2.0, 3.0, 1e15, 1e16, 1.7e150, 0.37]
    orbits = []
    for i in range(40):
        params = Params(rng.choice([1.0, 2.0, 3.0, rng.uniform(0.3, 4.0)]),
                        rng.choice([1.0, 0.5, 3.0, rng.uniform(0.3, 4.0)]))
        steps = rng.choice([0, 1, 7, 60])
        if i % 2:
            start = (rng.choice(edge), rng.choice(edge))
            orbits.append(iterate_orbit(params, OrbitKind.TROPICAL, start, steps))
        else:
            start = (rng.choice(positive), rng.choice(positive))
            orbits.append(iterate_orbit(params, OrbitKind.RATIONAL, start, steps))
    orbits.append(iterate_orbit(Params(4, 4), OrbitKind.RATIONAL, (1e80, 1e80), 5))
    orbits.append(iterate_orbit(Params(3, 3), OrbitKind.TROPICAL, (1, 1), 300))
    return orbits


def test_orbit_exports_follow_the_number_rule_byte_for_byte(monkeypatch):
    orbits = _export_orbits()
    assert any(o.steps == 0 for o in orbits)
    assert orbits[-2].truncated
    assert not np.isfinite(orbits[-1].phi).all()
    # the text does not depend on how many rows each chunk formats
    for rows in (mutdyn.export._ROWS, 1, 3, 7):
        monkeypatch.setattr(mutdyn.export, "_ROWS", rows)
        for orbit in orbits:
            assert export_csv(orbit) == _rule_csv(orbit)
            assert export_json(orbit) == _rule_json(orbit)


def _whole_column_texts(orbit):
    # the JSON and CSV texts with every diagnostic read whole from the
    # cached Orbit arrays, as the exports read them before they took one
    # slice of points at a time
    payload = mutdyn.export._orbit_dict(orbit)
    pts = orbit.points
    columns = [range(len(pts)), pts[:, 0], pts[:, 1]]
    payload["diagnostics"] = {"log_radius": orbit.log_radius}
    if orbit.kind is OrbitKind.TROPICAL:
        payload["diagnostics"].update(
            phi=orbit.phi, polar_angle=orbit.polar, sign_pairs=orbit.signs
        )
        csv = mutdyn.export._csv("step,s,t,phi", columns + [orbit.phi])
    else:
        csv = mutdyn.export._csv("step,x,y", columns)
    return "".join(mutdyn.export._document(payload)), "".join(csv)


@pytest.mark.parametrize("rows, steps", [(7, 400), (4096, 16000)])
def test_chunked_diagnostics_equal_the_whole_cached_arrays(monkeypatch, rows, steps):
    # each orbit spans several chunks of rows; pq = 9 leaves float range
    # after about 340 steps and pq = 4.002 after about 15800
    escape = Params(3.0, 3.0) if rows == 7 else Params(2.001, 2.0)
    orbits = [
        iterate_orbit(Params(1.3, 0.8), OrbitKind.TROPICAL, (0.4, -1.1), steps),
        iterate_orbit(Params(1.3, 0.8), OrbitKind.RATIONAL, (1.1, 0.9), steps),
        # a lattice orbit of period 5, and one through the origin
        iterate_orbit(Params(1.0, 1.0), OrbitKind.TROPICAL, (3.0, -2.0), steps),
        iterate_orbit(Params(3.0, 3.0), OrbitKind.TROPICAL, (0.0, -0.0), steps),
        iterate_orbit(escape, OrbitKind.TROPICAL, (1.0, -0.5), steps),
    ]
    assert np.isnan(orbits[3].polar).all() and np.isneginf(orbits[3].log_radius).all()
    assert orbits[4].truncated
    monkeypatch.setattr(mutdyn.export, "_ROWS", rows)
    for orbit in orbits:
        assert len(orbit.points) > 3 * rows
        want_json, want_csv = _whole_column_texts(orbit)
        assert export_json(orbit) == want_json
        assert export_csv(orbit) == want_csv


def test_class_export_follows_the_number_rule_byte_for_byte(monkeypatch):
    results = [mutation_class(seed) for seed in (
        ExtendedExchangeMatrix.from_exponents(1, 1, rows=((1, 0),), negated=True),
        ExtendedExchangeMatrix.from_exponents(1, 3, rows=((0.5, 1.25), (-2, 1e-3))),
        # C9's class, 2946 members
        ExtendedExchangeMatrix.from_exponents(1, 5, rows=((1, 1),)),
    )]
    for rows in (mutdyn.export._ROWS, 1, 3, 7):
        monkeypatch.setattr(mutdyn.export, "_ROWS", rows)
        for result in results:
            members = ",".join(_rule_rows(m.entries) for m in result.matrices)
            want = '{"size":%d,"complete":%s,"matrices":[%s]}\n' % (
                result.size, json.dumps(result.complete), members)
            assert export_json(result) == want


_NEG_NAN = math.copysign(math.nan, -1.0)

# columns that take the repeat path (each distinct value formatted once)
# and the path that formats every element, with the values whose text
# the rule sets apart
_COLUMNS = [
    [0.5, 3.0, 0.5, -2.0, 3.0, 1e20, 0.1, 0.5, 1e-7, 0.1],
    [0.0, -0.0, 0.0, 1.0],
    [-0.0, 0.0, -0.0, 1.0],
    [-0.0, 0.0],
    [math.nan, _NEG_NAN, 1.0, math.nan, _NEG_NAN],
    [math.nan, _NEG_NAN],
    [math.inf, -math.inf, math.inf, 2.5, -math.inf],
    [1e16, -1e16, 2.0**53, 1e16, -(2.0**53), 9999999999999998.0, 2.0**53],
    [1e16, -1e16, 2.0**53, -(2.0**53), 0.3],
    [[1.5, 2.0], [1.5, -0.0], [0.0, 2.0]],
    [],
    [-0.0],
    [math.nan],
]


def _int_columns():
    yield np.array([1, -1, 0, 1, -1, 0], dtype=np.int8)
    yield np.array([0, 5, 2**62, -(2**63), 5, 2**62], dtype=np.int64)
    yield np.arange(7, dtype=np.int64)
    yield np.array([], dtype=np.int8)
    yield np.array([3], dtype=np.int64)


@pytest.mark.parametrize("quote", [False, True])
def test_fmt_col_follows_the_number_rule_element_by_element(quote):
    for col in map(np.array, _COLUMNS):
        want = [_rule_num(v, quote) for v in col.ravel().tolist()]
        assert _fmt_col(col, quote) == want
        # the repeat path must not hand a sign or a nan payload to the text
        assert _fmt_col(col.ravel()[::-1], quote) == want[::-1]
    for col in _int_columns():
        assert _fmt_col(col, quote) == [str(v) for v in col.tolist()]


def _rule_nested(x):
    # the JSON of a nested list, one value at a time
    if isinstance(x, list):
        return "[" + ",".join(map(_rule_nested, x)) + "]"
    return _rule_num(x, quote=True)


_SHAPES = [(0,), (0, 2), (2, 0), (3, 2), (0, 2, 2), (2, 0, 2), (2, 2, 0), (3, 2, 2)]


def test_document_scalars_keep_their_order_and_the_number_rule():
    # a document's scalar floats are formatted in one call and handed out
    # in walk order, around arrays, ints, bools, None and strings
    scalars = [math.nan, 0.5, -math.inf, -0.0, 1e16, 2.0, 0.5, math.inf, _NEG_NAN, 0.1]
    payload = {
        "a": scalars[0],
        "b": [scalars[1], 3, True, None, "x", (scalars[2], scalars[3])],
        "c": np.array([[1.5, math.nan]]),
        "d": {"e": scalars[4], "f": [], "g": {"h": scalars[5]}, "i": scalars[6:8]},
        "j": [[scalars[8]], scalars[9]],
    }
    text = "".join(_put(payload))
    want = '{"a":%s,"b":[%s,3,true,null,"x",[%s,%s]],"c":[[1.5,"nan"]],' % tuple(
        _rule_num(v, quote=True) for v in scalars[:4]
    ) + '"d":{"e":%s,"f":[],"g":{"h":%s},"i":[%s,%s]},"j":[[%s],%s]}' % tuple(
        _rule_num(v, quote=True) for v in scalars[4:]
    )
    assert text == want


@pytest.mark.parametrize("shape, rows", [
    pytest.param(shape, rows, id=f"shape{i}" + (f"-rows{rows}" if rows else ""))
    for rows in (None, 1, 3) for i, shape in enumerate(_SHAPES)
])  # fmt: skip
def test_emit_array_nests_like_the_lists_it_holds(shape, rows, monkeypatch):
    if rows:
        monkeypatch.setattr(mutdyn.export, "_ROWS", rows)
    values = [0.5, -0.0, math.nan, 3.0, 0.5, math.inf, 1e20, 0.0]
    a = np.resize(values, math.prod(shape)).reshape(shape)
    text = "".join(_put(a))
    assert text == _rule_nested(a.tolist())
    json.loads(text)


_ROWS_IDS = ["default", "rows1", "rows3", "rows7"]


@pytest.mark.parametrize("rows", [None, 1, 3, 7], ids=_ROWS_IDS)
def test_periodic_lattice_orbit_exports_follow_the_number_rule(
    capsys, monkeypatch, tmp_path, rows
):
    if rows:
        monkeypatch.setattr(mutdyn.export, "_ROWS", rows)
    # p = q = 1 is the finite-type case: an integer start repeats with
    # period 5, so every column holds a handful of distinct values
    orbit = iterate_orbit(Params(1, 1), OrbitKind.TROPICAL, (3, -2), 1000)
    assert (orbit.points[5:] == orbit.points[:-5]).all()
    assert all(len(np.unique(col)) <= 5 for col in (*orbit.points.T, orbit.phi))
    argv = ["trop-orbit", "--p", "1", "--q", "1", "--s0", "3", "--t0", "-2", "--steps", "1000"]
    for fmt, rule in (("json", _rule_json), ("csv", _rule_csv)):
        assert _cli_bytes(capsys, tmp_path, argv + ["--format", fmt]) == rule(orbit)


def _cli_bytes(capsys, tmp_path, argv):
    # the text a command prints, checked equal to the bytes it writes to --out
    code, out, _ = _run(capsys, argv)
    assert code == 0
    target = tmp_path / "out"
    code, printed, _ = _run(capsys, argv + ["--out", str(target)])
    assert code == 0 and printed == ""
    assert target.read_bytes() == out.encode("ascii")
    return out


def _levelset_rule(level, pieces, fmt):
    arrays = [np.array(piece, dtype=float).reshape(-1, 2).tolist() for piece in pieces]
    if fmt == "json":
        return '{"level":%s,"pieces":%s}\n' % (_rule_num(level), _rule_nested(arrays))
    rows = [
        f"{k},{i},{_rule_num(s)},{_rule_num(t)}"
        for k, piece in enumerate(arrays) for i, (s, t) in enumerate(piece)
    ]
    return "\n".join(["piece,index,s,t"] + rows) + "\n"


@pytest.mark.parametrize("rows", [None, 1, 3, 7], ids=_ROWS_IDS)
def test_cli_documents_equal_the_in_process_text(capsys, monkeypatch, tmp_path, rows):
    # every document kind the CLI streams, printed and written to a file,
    # is the text of the same object exported in process
    if rows:
        monkeypatch.setattr(mutdyn.export, "_ROWS", rows)
    cases = []
    for kind, argv, start in (
        (OrbitKind.TROPICAL, ["trop-orbit", "--s0", "0.4", "--t0", "-1.1"], (0.4, -1.1)),
        (OrbitKind.RATIONAL, ["orbit", "--x0", "0.4", "--y0", "1.1"], (0.4, 1.1)),
    ):
        orbit = iterate_orbit(Params(1.3, 0.8), kind, start, 50)
        argv = argv + ["--p", "1.3", "--q", "0.8", "--steps", "50", "--format"]
        cases += [(argv + ["json"], export_json(orbit)), (argv + ["csv"], export_csv(orbit))]
    for kind in ("rational", "tropical"):
        table = scan_grid((0.5, 3.0), (0.5, 3.0), 3, OrbitKind(kind), 40, StartPolicy(seed=1, count=2))
        argv = ["scan", "--p-min", "0.5", "--p-max", "3", "--q-min", "0.5", "--q-max", "3",
                "--resolution", "3", "--steps", "40", "--kind", kind, "--seed", "1", "--count", "2"]
        cases.append((argv, export_json(table)))
    seed = ExtendedExchangeMatrix.from_exponents(1, 3, rows=((1, 1),))
    result = mutation_class(seed)
    argv = ["matclass", "--p", "1", "--q", "3", "--rows", "1,1"]
    cases.append((argv + ["--full"], export_json(result)))
    summary = {"size": result.size, "complete": result.complete}
    cases.append((argv, json.dumps(summary, separators=(",", ":")) + "\n"))
    pieces = levelset_points(Params(3, 3), -3.0, samples_per_piece=12)
    argv = ["levelset", "--p", "3", "--q", "3", "--level", "-3", "--samples", "12", "--format"]
    for fmt in ("json", "csv"):
        cases.append((argv + [fmt], _levelset_rule(-3.0, pieces, fmt)))
    for argv, want in cases:
        assert _cli_bytes(capsys, tmp_path, argv) == want, argv


def test_exports_hold_no_text_per_number_of_a_whole_column():
    # formatted a chunk of rows at a time and joined once, an export's
    # peak allocation is about twice its text: the finished pieces and
    # the joined document (a text per number of every column, and a
    # copy per nesting level, took about 6x for CSV and 3x for JSON)
    orbit = iterate_orbit(Params(1.3, 0.8), OrbitKind.TROPICAL, (0.4, -1.1), 16000)
    # diagnostics are computed on first read: read them before tracing
    assert all(len(d) for d in (orbit.log_radius, orbit.phi, orbit.polar, orbit.signs))
    for export, bound in ((export_csv, 4.0), (export_json, 2.5)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            text = export(orbit)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(text), (export.__name__, peak / len(text))


def test_cli_writes_each_piece_as_it_is_made(tmp_path):
    # a 4x longer orbit has the same traced peak through the CLI's
    # writer: the whole text held would quadruple it
    peaks = {}
    for steps in (16000, 64000):
        orbit = iterate_orbit(Params(1.3, 0.8), OrbitKind.TROPICAL, (0.4, -1.1), steps)
        assert all(len(d) for d in (orbit.log_radius, orbit.phi, orbit.polar, orbit.signs))
        for fmt in ("csv", "json"):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                with mutdyn.cli._out(tmp_path / "orbit") as fh:
                    fh.writelines(mutdyn.cli._orbit_text(orbit, fmt))
                peaks[steps, fmt] = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
    for fmt in ("csv", "json"):
        assert peaks[64000, fmt] <= 1.1 * peaks[16000, fmt], (fmt, peaks)


def test_json_rejects_unsupported_objects():
    with pytest.raises(DomainError):
        export_json(42)


def test_scan_json_roundtrip():
    table = scan_grid((0.5, 1.5), (0.5, 1.5), 2, OrbitKind.TROPICAL, 60,
                      StartPolicy(seed=11, count=2))
    assert parse_scan_json(export_json(table)) == table


def test_scan_json_roundtrips_quoted_non_finite_verdicts():
    # an orbit that stays at the origin has log radius -inf throughout
    table = scan_grid((0.5, 3.0), (0.5, 3.0), 2, OrbitKind.TROPICAL, 40,
                      StartPolicy(points=((0.0, 0.0),)))
    text = export_json(table)
    assert text.count('"max_log_radius":"-inf"') == 4
    assert parse_scan_json(text) == table


def test_scan_json_rejects_bad_documents():
    for bad in ("{}", "[1, 2", '{"kind": "rational", "steps": 1, '
                '"p_values": [], "q_values": [], "cells": 5}'):
        with pytest.raises(DomainError):
            parse_scan_json(bad)
    # a cell off its grid point, which cell(i, j) would report as on it
    doc = json.loads(export_json(scan_grid((0.5, 1.5), (0.5, 1.5), 2, OrbitKind.TROPICAL, 40)))
    doc["cells"][0]["p"] = 7.0
    with pytest.raises(DomainError, match="^not a scan table document: cells are not the 2 x 2"):
        parse_scan_json(json.dumps(doc))


def test_scan_json_refuses_documents_that_break_the_count_and_real_rules():
    good = json.loads(export_json(scan_grid((0.5, 1.5), (0.5, 1.5), 2, OrbitKind.TROPICAL, 40)))
    edits = [
        ("steps", 1.5), ("steps", -3), ("steps", "4"),
        ("p_values", [1.0, "nan"]), ("q_values", [1.0, -2.0]), ("q_values", [1.0, 0.0]),
        # a grid its cells do not fill, which cell() would index past
        ("q_values", [1.0]), ("cells", []),
    ]
    for key, value in edits:
        with pytest.raises(DomainError, match="^not a scan table document: "):
            parse_scan_json(json.dumps({**good, key: value}))
    for key, value in (("p", 0.0), ("q", "inf")):
        cells = [{**good["cells"][0], key: value}] + good["cells"][1:]
        with pytest.raises(DomainError, match="^not a scan table document: "):
            parse_scan_json(json.dumps({**good, "cells": cells}))
    # the unedited document still parses
    assert parse_scan_json(json.dumps(good)).steps == 40


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_trop_orbit_csv_golden(capsys):
    code, out, err = _run(capsys, [
        "trop-orbit", "--p", "1", "--q", "1", "--s0", "1", "--t0", "0", "--steps", "1",
    ])
    assert code == 0
    assert out == "step,s,t,phi\n0,1,0,1\n1,0,-1,1\n"
    assert err == ""


def test_cli_orbit_json(capsys):
    code, out, _ = _run(capsys, [
        "orbit", "--p", "1", "--q", "1", "--x0", "1", "--y0", "1",
        "--steps", "5", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "rational"
    assert doc["points"][-1] == [1, 1]


def test_cli_svg_output_is_deterministic(capsys):
    argv = ["trop-orbit", "--p", "1", "--q", "1", "--s0", "1", "--t0", "0",
            "--steps", "3", "--format", "svg"]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    assert first.startswith("<svg xmlns=")
    code, second, _ = _run(capsys, argv)
    assert first == second


SVG_SHA256 = {
    ("trop-orbit", "--p", "1", "--q", "1", "--s0", "1", "--t0", "0", "--steps", "3"):
        "2e717128c884f3e46a715f1f5235100d96a8374dd7cd3952e7322643052b2f40",
    ("levelset", "--p", "3", "--q", "3", "--level", "3"):
        "8cd2e2cb5ebda69fdefd6047550f86d15ebea314ef762c73c35f960913168c93",
}


@pytest.mark.parametrize("argv", list(SVG_SHA256), ids=lambda argv: argv[0])
def test_cli_svg_golden_digest(capsys, argv):
    code, out, _ = _run(capsys, [*argv, "--format", "svg"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SVG_SHA256[argv]


# seeded scans: the digests pin both kinds' drawn starts and verdicts
SCAN_SHA256 = {
    "rational": "045d0a6d3242e4b54c19b17a15778125c5e2c56aaefde250f3c0ff2e8fc4c9d4",
    "tropical": "7aae4674a051bdb8bae3fe6ff27fea7fa8e7a245f21b627ebb6b7b07ca88df4e",
}


@pytest.mark.parametrize("kind", list(SCAN_SHA256))
def test_cli_seeded_scan_golden_digest(capsys, kind):
    code, out, _ = _run(capsys, [
        "scan", "--kind", kind, "--resolution", "4", "--count", "2", "--seed", "3",
        "--steps", "200",
    ])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_SHA256[kind]


# full class listings: the digests pin every member's bits and the
# discovery order of the pq = 5 class, which ends where its chains leave
# float range, from the plain seed with one row and the negated one with three
MATCLASS_SHA256 = {
    ("1,1", False): "8158bcf28bede39462edb63fad4d33f8daa91927200ea2b6bf6a1d8d60d51587",
    ("1,2;3,1;2,2", True): "5b1962320e69cc82e8106fcbd98e3b772bc36e602fc06a045dc160fc74ed619d",
}


@pytest.mark.parametrize("rows, negated", list(MATCLASS_SHA256))
def test_cli_matclass_golden_digest(capsys, rows, negated):
    argv = ["matclass", "--p", "1", "--q", "5", "--rows", rows, "--cap", "10000", "--full"]
    code, out, _ = _run(capsys, argv + ["--negated"] * negated)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MATCLASS_SHA256[rows, negated]


def test_render_svg_refuses_what_it_cannot_draw():
    for content in (5, [5]):
        with pytest.raises(DomainError, match="must be an Orbit or point sequences"):
            render_svg(content)
    with pytest.raises(DomainError, match="a point must be a pair"):
        render_svg([[5]])
    for content in ([], [[]]):
        with pytest.raises(DomainError, match="nothing to render"):
            render_svg(content)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="non-finite"):
            render_svg([[(0.0, 1.0), (2.0, bad)]])


def test_render_svg_widens_a_flat_box_by_one():
    # a flat extent becomes [v - 1, v + 1], so the flat coordinate lands
    # on the canvas centre (320, 240)
    assert "M51.200,240.000 L588.800,240.000" in render_svg([[(0.0, 5.0), (4.0, 5.0)]])
    assert "M320.000,441.600 L320.000,38.400" in render_svg([[(2.0, 0.0), (2.0, 3.0)]])
    assert "M320.000,240.000 L320.000,240.000" in render_svg([[(7.0, -7.0), (7.0, -7.0)]])
    # a lone point of an orbit at the origin: both extents widen, the
    # axes cross at its marker
    svg = render_svg(iterate_orbit(Params(1, 1), OrbitKind.TROPICAL, (0, 0), 0))
    assert '<circle cx="320.000" cy="240.000"' in svg
    assert svg.count("<line ") == 2


def test_cli_out_writes_file(capsys, tmp_path):
    target = tmp_path / "orbit.csv"
    code, out, _ = _run(capsys, [
        "trop-orbit", "--p", "1", "--q", "1", "--s0", "1", "--t0", "0",
        "--steps", "1", "--out", str(target),
    ])
    assert code == 0
    assert out == ""
    assert target.read_text() == "step,s,t,phi\n0,1,0,1\n1,0,-1,1\n"
    # a file holds the bytes the same command prints
    argv = ["trop-orbit", "--p", "1.3", "--q", "0.8", "--s0", "0.4", "--t0", "-1.1",
            "--steps", "50", "--format", "json"]
    code, out, _ = _run(capsys, argv + ["--out", str(target)])
    assert code == 0 and out == ""
    code, out, _ = _run(capsys, argv)
    assert code == 0
    want = export_json(iterate_orbit(Params(1.3, 0.8), OrbitKind.TROPICAL, (0.4, -1.1), 50))
    assert out == want
    assert target.read_bytes() == out.encode("ascii")


@pytest.mark.parametrize("cmd", [
    ["trop-orbit", "--p", "1", "--q", "1", "--s0", "1", "--t0", "0", "--steps", "5"],
    ["scan", "--resolution", "2", "--steps", "40"],
])
def test_cli_unwritable_out_is_an_error(capsys, monkeypatch, tmp_path, cmd):
    # --out is opened before the work, so an unwritable path fails at once
    def unreached(*args):
        raise AssertionError("the command ran before --out was opened")

    monkeypatch.setattr(mutdyn.cli, "scan_grid", unreached)
    monkeypatch.setattr(mutdyn.cli, "iterate_orbit", unreached)
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = _run(capsys, cmd + ["--out", str(target)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")


def test_cli_failing_command_leaves_its_out_file_empty(capsys, tmp_path):
    target = tmp_path / "scan.json"
    target.write_text("old")
    code, out, err = _run(capsys, ["scan", "--p-max", "inf", "--resolution", "2",
                                   "--steps", "40", "--out", str(target)])
    assert code == 1 and out == "" and err.startswith("error:")
    assert target.read_text() == ""


def test_cli_truncated_orbit_exits_two_with_prefix(capsys):
    code, out, err = _run(capsys, [
        "orbit", "--p", "4", "--q", "4", "--x0", "1e80", "--y0", "1e80", "--steps", "5",
    ])
    assert code == 2
    assert out == "step,x,y\n0,1e+80,1e+80\n"
    assert "left float range at step 1" in err


def test_cli_period(capsys):
    code, out, _ = _run(capsys, ["period", "--p", "1", "--q", "1", "--s0", "1", "--t0", "0"])
    assert code == 0 and out == "5\n"
    code, out, _ = _run(capsys, ["period", "--p", "2", "--q", "2", "--s0", "1", "--t0", "0",
                                 "--max-steps", "200"])
    assert code == 0 and out == "none\n"


def test_cli_reads_negative_values_in_exponent_form(capsys):
    # argparse's own matcher takes -1e-3 for an option; here a value that
    # starts with a minus and a digit, or a minus, a point and a digit, is
    # a number, read as the --flag=value form (always a value) reads it
    trop = ["trop-orbit", "--p", "1", "--q", "1", "--s0", "1", "--steps", "2"]
    for argv, flag, value in (
        (trop, "--t0", "-1e-3"),
        (trop, "--t0", "-.5"),
        (trop, "--t0", "-1E+2"),
        (["period", "--p", "1", "--q", "1", "--t0", "1"], "--s0", "-2.5e0"),
        (["levelset", "--p", "3", "--q", "3", "--samples", "4"], "--level", "-5.2e0"),
    ):
        code, out, err = _run(capsys, [*argv, flag, value])
        assert (code, err) == (0, ""), (argv, value)
        assert (code, out, err) == _run(capsys, [*argv, f"{flag}={value}"]), (argv, value)
    # a minus before anything else is still an option, so --t0 lacks its value
    code, _, err = _run(capsys, [*trop, "--t0", "-x"])
    assert code == 1
    assert err == "usage error: argument --t0: expected one argument\n"


def test_cli_reads_negative_non_finite_values(capsys):
    # -inf and -nan in any spelling float() takes are values too, so they
    # reach the finiteness check as the --flag=value form does
    trop = ["trop-orbit", "--p", "1", "--q", "1", "--s0", "1", "--steps", "2"]
    levelset = ["levelset", "--p", "3", "--q", "3", "--samples", "4"]
    for argv, flag, value in (
        (trop, "--t0", "-inf"),
        (trop, "--t0", "-nan"),
        (trop, "--t0", "-Infinity"),
        (trop, "--t0", "-NaN"),
        (levelset, "--level", "-inf"),
    ):
        code, out, err = _run(capsys, [*argv, flag, value])
        assert code == 1 and "must be finite" in err, (argv, value, err)
        assert (code, out, err) == _run(capsys, [*argv, f"{flag}={value}"]), (argv, value)
    # a word that only starts like one is still an option
    for value in ("-in", "-nanx", "-infinite"):
        code, _, err = _run(capsys, [*trop, "--t0", value])
        assert (code, err) == (1, "usage error: argument --t0: expected one argument\n"), value


def test_cli_usage_errors(capsys):
    for argv in ([], ["orbit", "--p", "1"], ["nope"], ["orbit", "--p", "x"]):
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert err.startswith("usage error:")


def test_cli_domain_error_exits_one(capsys):
    for argv in (
        ["orbit", "--p", "1", "--q", "1", "--x0", "-1", "--y0", "1", "--steps", "5"],
        # an infinite range end is an exponent out of range, not a nan one
        ["scan", "--p-max", "inf", "--resolution", "2", "--steps", "40"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error:")


def test_cli_range_error_exits_two(capsys):
    # the level's radius sqrt(1e308 / 5e-324) is beyond float range
    argv = ["levelset", "--p", "5e-324", "--q", "5e-324", "--level", "1e308"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "range error: level 1e+308 has points beyond float range\n"


def test_cli_scan_config_and_overrides(capsys, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "# grid under test\n"
        "p-min = 0.5\np-max = 1.5\nq-min = 0.5\nq-max = 1.5\n"
        "resolution = 3\nsteps = 60\nkind = tropical\nseed = 3\ncount = 2\n"
    )
    code, out, _ = _run(capsys, ["scan", "--config", str(cfg), "--resolution", "2"])
    assert code == 0
    table = parse_scan_json(out)
    assert len(table.p_values) == 2
    assert table.kind is OrbitKind.TROPICAL
    assert table.steps == 60
    code, again, _ = _run(capsys, ["scan", "--config", str(cfg), "--resolution", "2"])
    assert again == out


def test_cli_scan_config_errors(capsys, tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("p-mni = 0.5\n")
    code, _, err = _run(capsys, ["scan", "--config", str(bad_key)])
    assert code == 1 and "unknown key" in err
    bad_val = tmp_path / "b.cfg"
    bad_val.write_text("resolution = abc\n")
    code, _, err = _run(capsys, ["scan", "--config", str(bad_val)])
    assert code == 1 and "bad value" in err
    bad_kind = tmp_path / "e.cfg"
    bad_kind.write_text("kind = foo\n")
    code, _, err = _run(capsys, ["scan", "--config", str(bad_kind)])
    assert code == 1 and "bad value for kind" in err
    no_eq = tmp_path / "c.cfg"
    no_eq.write_text("resolution\n")
    code, _, err = _run(capsys, ["scan", "--config", str(no_eq)])
    assert code == 1 and "key=value" in err
    not_utf8 = tmp_path / "d.cfg"
    not_utf8.write_bytes(b"resolution = \xff\n")
    for unreadable in (tmp_path / "absent.cfg", not_utf8):
        code, _, err = _run(capsys, ["scan", "--config", str(unreadable)])
        assert code == 1 and err.startswith("error: cannot read config")


def test_cli_scan_count_needs_a_seed(capsys, tmp_path):
    # without a seed every cell has the one start (1, 1), so a count
    # would be dropped; it is refused from a flag and from a config
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("resolution = 2\nsteps = 40\ncount = 3\n")
    for argv in (["scan", "--resolution", "2", "--count", "3"], ["scan", "--config", str(cfg)]):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err == "usage error: --count needs --seed\n"
    code, out, _ = _run(capsys, ["scan", "--config", str(cfg), "--seed", "2"])
    assert code == 0
    assert parse_scan_json(out) == scan_grid(
        (0.5, 2.0), (0.5, 2.0), 2, OrbitKind.RATIONAL, 40, StartPolicy(seed=2, count=3)
    )


def test_cli_scan_negative_seed_is_an_error(capsys):
    code, out, err = _run(capsys, ["scan", "--seed", "-1", "--resolution", "2", "--steps", "40"])
    assert code == 1 and out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_cli_levelset_formats(capsys):
    code, out, _ = _run(capsys, [
        "levelset", "--p", "1", "--q", "1", "--level", "1", "--samples", "16",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "piece,index,s,t"
    assert len(lines) == 1 + 2 * 16
    code, out, _ = _run(capsys, [
        "levelset", "--p", "1", "--q", "1", "--level", "1", "--samples", "16",
        "--format", "json",
    ])
    doc = json.loads(out)
    assert doc["level"] == 1
    assert len(doc["pieces"]) == 2
    code, _, err = _run(capsys, [
        "levelset", "--p", "1", "--q", "1", "--level", "-1",
    ])
    assert code == 1 and err.startswith("error:")


LEVELSET_CSV = """\
piece,index,s,t
0,0,0,1
0,1,0.2716647219739424,0.8360980424504947
0,2,0.48388807530528793,0.6660147983817921
0,3,0.6660147983817921,0.48388807530528793
0,4,0.8360980424504948,0.27166472197394237
0,5,1,0
0,6,1.1318032902298174,-0.36774518125687616
0,7,1.1171116931719378,-0.8116291536214888
0,8,0.8116291536214888,-1.1171116931719378
0,9,0.3677451812568763,-1.1318032902298176
0,10,6.123233995736766e-17,-1
0,11,-0.27166472197394226,-0.8360980424504947
0,12,-0.48388807530528793,-0.6660147983817922
0,13,-0.666014798381792,-0.48388807530528805
0,14,-0.8360980424504947,-0.2716647219739424
0,15,-1,0
1,0,0,1
1,1,-0.09948525419205205,0.9465389662041598
1,2,-0.18953072460722659,0.8916719536584272
1,3,-0.27166472197394226,0.8360980424504947
1,4,-0.34729931704908723,0.7800470376440698
1,5,-0.417681254292085,0.7234451538029878
1,6,-0.48388807530528793,0.6660147983817922
1,7,-0.5468423570267072,0.6073299653525551
1,8,-0.6073299653525548,0.5468423570267076
1,9,-0.666014798381792,0.48388807530528805
1,10,-0.7234451538029874,0.4176812542920853
1,11,-0.7800470376440695,0.3472993170490875
1,12,-0.8360980424504947,0.2716647219739424
1,13,-0.891671953658427,0.18953072460722692
1,14,-0.9465389662041597,0.09948525419205244
1,15,-1,0
"""


def test_cli_levelset_golden_bytes(capsys):
    argv = ["levelset", "--p", "1", "--q", "1", "--level", "1", "--samples", "16"]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and out == LEVELSET_CSV
    rows = [line.split(",") for line in LEVELSET_CSV.splitlines()[1:]]
    pieces = [
        "[" + ",".join(f"[{s},{t}]" for pi, _, s, t in rows if pi == k) + "]"
        for k in ("0", "1")
    ]
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert out == '{"level":1,"pieces":[' + ",".join(pieces) + "]}\n"


def test_cli_matclass(capsys):
    code, out, _ = _run(capsys, ["matclass", "--p", "1", "--q", "1", "--rows", "1,0"])
    assert code == 0
    assert json.loads(out) == {"size": 10, "complete": True}
    code, out, _ = _run(capsys, [
        "matclass", "--p", "1", "--q", "1", "--rows", "1,0", "--negated", "--full",
    ])
    doc = json.loads(out)
    assert doc["size"] == 10 and len(doc["matrices"]) == 10
    code, _, err = _run(capsys, ["matclass", "--p", "1", "--q", "1", "--rows", "1"])
    assert code == 1 and err.startswith("error:")


def test_cli_verify_reports_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(mutdyn.acceptance, "run_all", lambda: False)
    assert main(["verify"]) == 1
    monkeypatch.setattr(mutdyn.acceptance, "run_all", lambda: True)
    assert main(["verify"]) == 0
    capsys.readouterr()


def test_cli_matclass_entries_near_float_range(capsys):
    # entries near float range keep their class; a chain that leaves
    # float range ends there, and the class is reported incomplete
    code, out, _ = _run(capsys, ["matclass", "--p", "1", "--q", "1e303"])
    assert code == 0 and json.loads(out) == {"size": 2, "complete": True}
    for argv, size in ((["--p", "1", "--q", "5", "--rows", "1e303,1"], 50),
                       (["--p", "1e200", "--q", "1e200", "--rows", "1,1"], 5)):  # fmt: skip
        code, out, err = _run(capsys, ["matclass"] + argv)
        assert code == 0 and err == ""
        assert json.loads(out) == {"size": size, "complete": False}


def test_cli_levelset_with_subnormal_exponents(capsys):
    # pq underflows to 0: a negative level's set is empty, as below pq = 4
    code, _, err = _run(capsys, ["levelset", "--p", "1e-320", "--q", "1e-320", "--level", "-3"])
    assert code == 1 and err == "error: level -3.0 has no point within radius inf\n"
    # level / p overflows, the semi-axis 1e160 does not
    argv = ["levelset", "--p", "1e-320", "--q", "1e-300", "--level", "1", "--format", "json"]
    code, out, _ = _run(capsys, argv)
    points = [pt for piece in json.loads(out)["pieces"] for pt in piece]
    assert code == 0 and all(math.isfinite(v) for pt in points for v in pt)
    assert points[-1] == [-1.0 / math.sqrt(1e-320), 0]
