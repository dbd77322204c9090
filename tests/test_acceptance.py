"""Acceptance gate: one test per criterion, each with its verdict line.

The full battery runs once per session; individual tests read the
cached verdicts so the suite stays fast and the per-criterion lines
stay visible in failure output.
"""
import io
import math
import os
import re
import subprocess
import time
from functools import reduce

import numpy as np
import pytest

import mutdyn
from mutdyn import acceptance, tropical
from mutdyn.acceptance import CRITERIA, Criterion, run_all
from mutdyn.params import Params, theta_of
from mutdyn.tropical import PointPL, mu_c, tau


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


# C7's text for one forced failure each: the start is formatted only on a
# failure path, and must read as these pinned lines
C7_FAILURES = {
    "_sign_coherent_indices": (
        417, None,
        "no sign coherence by 500 for p=2.50823724353804 q=3.4533362911206704 "
        "start=(-0.010259018965640188, 1.3530898977935184)",
    ),
    "_first_rises": (
        5, 7,
        "angle rose at step 7 from value 36.4 >= 0, p=2.0 q=2.0 "
        "start=(-1.3719357725196286, 2.897007839722466)",
    ),
}


@pytest.mark.parametrize("name", list(C7_FAILURES))
def test_c7_failure_text_is_unchanged(monkeypatch, name):
    index, value, text = C7_FAILURES[name]
    real = getattr(acceptance, name)

    def forced(*args):
        out = list(real(*args))
        out[index] = value
        return out

    monkeypatch.setattr(acceptance, name, forced)
    assert acceptance._c7_angle_and_signs() == (False, text)


def _c8_trials():
    # C8's 1000 trials drawn one scalar at a time: pq, p, then the start
    rng = acceptance._rng(8)
    for trial in range(1000):
        pq = float(rng.uniform(0.2, 3.9)) if trial < 600 else float(rng.uniform(4.0, 7.0))
        p = float(rng.uniform(0.3, 2.5))
        yield Params(p, pq / p), PointPL(*rng.uniform(-3.0, 3.0, 2))


def _c8_runs():
    # C8's 300 linearization runs: params, start and n_max in draw order
    rng2 = acceptance._rng(80)
    runs = []
    while len(runs) < 300:
        pq = float(rng2.uniform(2.05, 3.5))
        p = float(rng2.uniform(0.6, 2.0))
        params = Params(p, pq / p)
        th = theta_of(params)
        n_max = int((math.pi / th - 2.0) // 2.0)
        while n_max >= 1 and math.pi - (2 * n_max + 2) * th < 0.01:
            n_max -= 1
        if n_max >= 1:
            runs.append((params, PointPL(float(rng2.uniform(0.05, 2.5)), float(rng2.uniform(0.05, 2.5))), n_max))
    return runs


def _c8_per_object():
    # C8 on Params and PointPL objects, one trial and one run at a time,
    # stepping through acceptance._tau_step and tau as they are at call time
    params, starts = zip(*((prm, pt.as_tuple()) for prm, pt in _c8_trials()))
    p, q = np.array([(prm.p, prm.q) for prm in params]).T
    kappa, nu = acceptance._kappa(p, q), acceptance._nu(p, q)
    s0, t0 = np.array(starts).T
    cur_s, cur_t = np.empty((2, 31, len(params)))
    cur_s[0], cur_t[0] = s0, t0
    for n in range(1, 31):
        cur_s[n], cur_t[n] = acceptance._tau_step(p, q, cur_s[n - 1], cur_t[n - 1])
    sn, tn, tn_t = tropical._closed_forms(kappa, nu, 30, s0, t0)
    scale = reduce(np.maximum, (1.0, abs(cur_s), abs(cur_t), abs(sn), abs(tn), abs(tn_t)))
    err = reduce(np.maximum, (abs(sn - cur_s), abs(tn - cur_t), abs(-sn + cur_s), abs(tn_t - (cur_t + p * cur_s))))
    thetas = [theta_of(prm) for prm in params[:600]]
    trig = tropical._trig_forms(thetas, nu[:600], 30, s0[:600], t0[:600])
    err[:, :600] = reduce(np.maximum, (abs(a - b[:, :600]) for a, b in zip(trig, (sn, tn, tn_t))), err[:, :600])
    for trial in range(len(params)):
        for n in range(31):
            if err[n, trial] > 1e-9 * scale[n, trial]:
                return False, f"closed form off by {err[n, trial]:.2e} at n={n}, params={params[trial]}"
    for prm, start, n_max in _c8_runs():
        a = b = start
        for _ in range(n_max + 1):
            a, b = mu_c(prm, a), tau(prm, b)
            if not (a.s == b.s and a.t == b.t):
                return False, f"alternating iterates split at params={prm}"
    return True, (
        f"closed forms within {float(np.max(err / scale)):.1e} relative for n <= 30; "
        f"300 first-quadrant runs matched the linearization bit for bit"
    )


def test_c8_draws_every_trial_at_once_with_the_scalar_stream(monkeypatch):
    # the first _tau_step call steps all 1000 trials from their starts
    calls = []
    real = acceptance._tau_step
    monkeypatch.setattr(acceptance, "_tau_step", lambda *args: calls.append(args) or real(*args))
    assert acceptance._c8_closed_forms() == _c8_per_object() == (True, PINNED_DETAILS["C8"])
    params, starts = zip(*_c8_trials())
    want = [[prm.p for prm in params], [prm.q for prm in params], [pt.s for pt in starts], [pt.t for pt in starts]]
    assert [np.asarray(v).tobytes() for v in calls[0]] == [np.array(v).tobytes() for v in want]


def _perturbed(monkeypatch, shifts):
    # _tau_step with s moved by shifts[p] in the columns of those p values,
    # in acceptance and under tau alike
    real = tropical._tau_step

    def step(p, q, s, t):
        s2, t2 = real(p, q, s, t)
        for target, shift in shifts.items():
            s2 = np.where(p == target, shift(s2), s2)[()]
        return s2, t2

    monkeypatch.setattr(acceptance, "_tau_step", step)
    monkeypatch.setattr(tropical, "_tau_step", step)


def test_c8_reports_the_first_failing_trial_as_the_per_object_code(monkeypatch):
    # trial 731 fails at n = 1; trial 100's small shift adds up to a
    # failure only at n = 6, yet it comes first in trial order
    params = [prm for prm, _ in _c8_trials()]
    _perturbed(monkeypatch, {params[731].p: lambda s: s + 1e-3, params[100].p: lambda s: s + 3e-10})
    got = acceptance._c8_closed_forms()
    assert got == _c8_per_object() == (False, f"closed form off by 7.24e-09 at n=6, params={params[100]}")


@pytest.mark.parametrize("step_block", [64, 3, 1])
def test_c8_reports_the_first_split_run_as_the_per_object_code(monkeypatch, step_block):
    # one ulp off in runs 90 and 250: the closed forms still hold, and the
    # first split in draw order is reported, in blocks of any length
    monkeypatch.setattr(tropical, "_STEP_BLOCK", step_block)
    runs = _c8_runs()

    def bump(s):
        return np.nextafter(s, np.inf)

    _perturbed(monkeypatch, {runs[250][0].p: bump, runs[90][0].p: bump})
    got = acceptance._c8_closed_forms()
    assert got == _c8_per_object() == (False, f"alternating iterates split at params={runs[90][0]}")


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
