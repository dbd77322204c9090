"""The benchmark's own checks: tracing hygiene, seeded inputs, export checks.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""
import signal

import mutdyn.cli
import mutdyn.exchange
import mutdyn.orbits
import pytest

import tracer
import workloads


def _scan_op(tmp_path, seen):
    out = str(tmp_path / "scan.json")
    argv = ["scan", "--kind", "tropical", "--resolution", "2", "--steps", "40", "--out", out]

    def call():
        seen.append(tracer.installed_wrappers())
        return mutdyn.cli.main(argv)

    return workloads.Op("small_scan", call, lambda code: None)


def test_wrappers_removed_before_untraced_timing(tmp_path, monkeypatch):
    originals = (mutdyn.cli.iterate_orbit, mutdyn.orbits.growth_classification, mutdyn.exchange.mutate)
    during_op, during_edges = [], []
    real_edge = workloads.SpeedProbe.edge

    def edge(self):
        during_edges.append(tracer.installed_wrappers())
        real_edge(self)

    monkeypatch.setattr(workloads.SpeedProbe, "edge", edge)
    ops = [_scan_op(tmp_path, during_op), _scan_op(tmp_path, during_op)]
    tr = tracer.Tracer()
    results = workloads.run_round(ops, tr)

    assert all(err is None for *_, err in results)
    assert all(during_op), "the ops ran without the span wrappers"
    assert {"mutdyn.cli.iterate_orbit", "mutdyn.orbits.iterate_orbit"} <= set(during_op[0])
    assert len(during_edges) == 2 * len(ops)
    assert not any(during_edges), "a wrapper was installed during an untraced timing"
    assert tracer.installed_wrappers() == []
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert (mutdyn.cli.iterate_orbit, mutdyn.orbits.growth_classification, mutdyn.exchange.mutate) == originals
    names = {span[0] for span in tr.spans}
    assert {"op.small_scan", "cli.main", "orbits.scan_grid", "orbits.iterate_orbit.tropical"} <= names


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.call("outer", lambda: tr.call("inner", lambda: sum(range(20000))))
    rows = tr.summary()
    assert rows["outer"]["calls"] == rows["inner"]["calls"] == 1
    assert rows["outer"]["self_s"] == pytest.approx(rows["outer"]["s"] - rows["inner"]["s"])


def _argvs(seed, out_dir):
    ops = workloads.scan_ops(seed, out_dir) + workloads.export_ops(seed, out_dir)
    return [op.call.args[0] for op in ops]


def test_new_seed_changes_inputs(tmp_path):
    out_dir = str(tmp_path)
    assert _argvs(3, out_dir) == _argvs(3, out_dir)
    for a, b in zip(_argvs(3, out_dir), _argvs(4, out_dir)):
        assert a != b, f"seed does not reach {a[0]}"


def _check(op, code):
    return workloads.check_round([op], [(0.0, 0.0, code, None)])[0]


def _corrupt(path, pos):
    data = bytearray(path.read_bytes())
    pos %= len(data)
    data[pos] = ord("7") if data[pos] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("name", ["trop_json", "trop_csv", "lattice_json", "orbit_csv", "matclass_json"])
def test_one_corrupted_byte_fails_the_export_check(tmp_path, name):
    [op] = [o for o in workloads.export_ops(5, str(tmp_path), steps=60) if o.name == name]
    code = op.call()
    assert _check(op, code) is None
    out = next(tmp_path.iterdir())
    good = out.read_bytes()
    for pos in (10, len(good) // 2, len(good) - 3):
        out.write_bytes(good)
        _corrupt(out, pos)
        assert _check(op, code) is not None  # cached path: bytes must repeat
        [fresh] = [o for o in workloads.export_ops(5, str(tmp_path), steps=60) if o.name == name]
        assert _check(fresh, code) is not None  # full path: independent re-serialisation


def test_scan_check_rejects_a_wrong_verdict(tmp_path):
    [op, _] = workloads.scan_ops(2, str(tmp_path))
    code = op.call()
    assert _check(op, code) is None
    out = tmp_path / "scan_rational.json"
    text = out.read_text()
    assert '"bounded-like"' in text
    out.write_text(text.replace('"bounded-like"', '"exponential"', 1))
    assert _check(op, code) is not None


def test_battery_check_wants_bool_and_str():
    check = workloads.battery_ops()[0].check
    assert check((True, "detail")) is None
    assert check((1, "detail")) is not None
    assert check([True, "detail"]) is not None
