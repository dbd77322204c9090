"""Acceptance gate: one test per criterion, each with its verdict line.

The full battery runs once per session; individual tests read the
cached verdicts so the suite stays fast and the per-criterion lines
stay visible in failure output.
"""
import io
import os
import re
import subprocess
import time

import pytest

import mutdyn
from mutdyn import acceptance, tropical
from mutdyn.acceptance import CRITERIA, Criterion, run_all


@pytest.fixture(scope="module")
def verdicts():
    return {crit.cid: crit.run() for crit in CRITERIA}


@pytest.mark.parametrize("cid", [c.cid for c in CRITERIA])
def test_criterion(verdicts, cid):
    crit = next(c for c in CRITERIA if c.cid == cid)
    ok, detail = verdicts[cid]
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {cid} {crit.title}: {detail}")
    assert ok, f"{crit.title}: {detail}"


# What C1-C10 report, without the timing suffix: a refactor of their
# kernels must not change a single printed figure.  C3, C7 and C8 were
# pinned as the per-point implementations produced them.
PINNED_DETAILS = {
    "C1": "2800 orbits across m=3..30 all at the predicted period",
    "C2": "m=7 gives 9 (want 9), m=10 gives 6 (want 6)",
    "C3": (
        "max drift 1e4 steps: rotation 5.49e-14 (full horizon), critical 1.08e-10 and "
        "hyperbolic 9.82e-11 (inside the measurable window; raw full-horizon 4.17e-08 "
        "and 9.98e+292, see module note)"
    ),
    "C4": "five-cycle error 0.0e+00, three-cycle error 0.0e+00, no early return",
    "C5": "all escapes within 4 steps; tropical ratios held",
    "C6": (
        "worst |det J - 1| = 2.35e-09 over 1000 points x 10 params; branch dets exact"
    ),
    "C7": (
        "872 orbits with conserved value >= 0, lifted angle never rose; 128 with value < 0 "
        "stayed in the open fourth quadrant, unlifted angle never fell; sign coherence "
        "always by N=79; first negative witness p=2.1105 q=3.0653 start=(2.0434, -1.8916) "
        "value -5.225, lifted angle rises at step 2"
    ),
    "C8": (
        "closed forms within 1.9e-13 relative for n <= 30; "
        "300 first-quadrant runs matched the linearization bit for bit"
    ),
    "C9": (
        "classes closed (m=3:10, m=4:6, m=5:14, m=6:8, m=7:18, m=8:10); "
        "the pq=5 class leaves float range with 2946 members under the 10^4 cap, its chains "
        "after 1471 and 1474 mutations; row actions exact"
    ),
    "C10": "all 100 rotation-regime cells bounded-like over 1e4 steps, peak log radius 3.12",
}


@pytest.mark.parametrize("cid", sorted(PINNED_DETAILS))
def test_criterion_detail_is_pinned(verdicts, cid):
    _, detail = verdicts[cid]
    # the last "; " opens the timing suffix
    assert detail.rpartition("; ")[0] == PINNED_DETAILS[cid]


@pytest.mark.parametrize("name, value", [("_STEP_BLOCK", 1), ("_STEP_BLOCK", 3), ("_BLOCK_NUMBERS", 100)])
def test_c7_detail_does_not_depend_on_the_block(monkeypatch, name, value):
    # C7, and C1 and C5 with it, read each block of their one pass before
    # the next one overwrites it, and carry what they found across blocks;
    # a budget of 100 numbers makes every block one row
    monkeypatch.setattr(tropical, name, value)
    for crit in CRITERIA:
        if crit.cid in ("C1", "C5", "C7"):
            assert crit.fn() == (True, PINNED_DETAILS[crit.cid])


class _Child:
    # a finished child process as C11 reads it
    def __init__(self, code=0, out=b"x" * 200, err=b""):
        self.returncode, self._pipes = code, (out, err)

    def communicate(self):
        return self._pipes


def test_c11_children_import_the_running_package(monkeypatch):
    # the package's parent directory leads the children's PYTHONPATH,
    # ahead of the entries this process was given
    envs = []

    def popen(args, **kwargs):
        envs.append(kwargs["env"])
        return _Child()

    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(["elsewhere", "other"]))
    monkeypatch.setattr(acceptance.subprocess, "Popen", popen)
    assert acceptance._c11_golden_outputs()[0]
    root = os.path.dirname(os.path.dirname(os.path.abspath(mutdyn.__file__)))
    assert len(envs) == 6
    assert all(env["PYTHONPATH"].split(os.pathsep) == [root, "elsewhere", "other"] for env in envs)


def test_c11_starts_six_children_and_reports_in_format_then_run_order(monkeypatch):
    # every child is started before any is read, and a failure is
    # reported as the runs made one after another reported it: csv,
    # json, svg, and within a format run 1 before run 2
    events = []

    def fake(children):
        it = iter(children)

        def popen(args, **kwargs):
            events.append(("start", args[-1]))
            child = next(it)
            read = child.communicate

            def communicate():
                events.append(("read", args[-1]))
                return read()

            child.communicate = communicate
            return child

        monkeypatch.setattr(acceptance.subprocess, "Popen", popen)
        events.clear()
        return acceptance._c11_golden_outputs()

    ok = [_Child(out=b"c" * 300), _Child(out=b"c" * 300), _Child(out=b"j" * 400), _Child(out=b"j" * 400)]
    ok += [_Child(out=b"s" * 500), _Child(out=b"s" * 500)]
    assert fake(ok) == (True, "byte-identical reruns for csv 300B, json 400B, svg 500B")
    assert [e[0] for e in events] == ["start"] * 6 + ["read"] * 6
    assert [e[1] for e in events] == ["csv", "csv", "json", "json", "svg", "svg"] * 2
    failing = [_Child(), _Child(3, err=b"csv two"), _Child(4, err=b"json one")] + [_Child() for _ in range(3)]
    assert fake(failing) == (False, "csv run exited 3: csv two")
    failing = [_Child(), _Child(out=b"y" * 200), _Child(5, err=b"one"), _Child(6, err=b"two")]
    failing += [_Child(), _Child()]
    assert fake(failing) == (False, "csv output differs between identical runs")
    failing = [_Child(), _Child(), _Child(5, err=b"one"), _Child(6, err=b"two"), _Child(), _Child()]
    assert fake(failing) == (False, "json run exited 5: one")
    failing = [_Child() for _ in range(4)] + [_Child(out=b"s" * 10), _Child(out=b"s" * 10)]
    assert fake(failing) == (False, "svg output suspiciously small (10 bytes)")


def _slow(ok, detail):
    # a check that takes a measurable time, so a zero budget is overrun
    def fn():
        time.sleep(0.001)
        return ok, detail

    return fn


def test_criterion_over_budget_fails_and_says_so():
    ok, detail = Criterion("X1", "slow pass", 0.0, _slow(True, "fine")).run()
    assert not ok
    assert re.fullmatch(r"fine; over budget \(\d+\.\d\ds > 0\.0s\)", detail)
    # a failing check keeps its own detail and reports its time
    ok, detail = Criterion("X2", "slow fail", 0.0, _slow(False, "broke")).run()
    assert not ok
    assert re.fullmatch(r"broke; \d+\.\d\ds \(budget 0s\)", detail)
    ok, detail = Criterion("X3", "unbudgeted", None, _slow(True, "fine")).run()
    assert ok and re.fullmatch(r"fine; \d+\.\d\ds", detail)


def test_run_all_prints_one_line_per_criterion_and_the_outcome(monkeypatch, capsys):
    passing = Criterion("S1", "passes", 1.0, lambda: (True, "ok"))
    failing = Criterion("S2", "fails", None, lambda: (False, "no"))
    monkeypatch.setattr(acceptance, "CRITERIA", (passing, failing))
    out = io.StringIO()
    assert run_all(out) is False
    lines = out.getvalue().splitlines()
    assert re.fullmatch(r"\[PASS\] S1 passes: ok; \d+\.\d\ds \(budget 1s\)", lines[0])
    assert re.fullmatch(r"\[FAIL\] S2 fails: no; \d+\.\d\ds", lines[1])
    assert lines[2:] == ["FAILURES PRESENT"]
    # without a stream the lines go to stdout
    monkeypatch.setattr(acceptance, "CRITERIA", (passing,))
    assert run_all() is True
    assert capsys.readouterr().out.splitlines()[-1] == "all criteria passed"
