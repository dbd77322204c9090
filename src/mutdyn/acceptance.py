"""The package's headline guarantees, runnable as one suite.

Each criterion is a self-contained check with a fixed seed, a stated
tolerance and a wall-clock budget; ``run_all`` prints one PASS/FAIL
line per criterion.  The same list backs the test suite and the
``mutdyn verify`` command.

Conserved-quantity note (criterion 3).  The drift bound is checked
over the full horizon in the rotation regime and, in the growing
regimes, while an orbit's infinity norm stays within 1e3; the raw
full-horizon figure is reported alongside.  Past that window the drift
is not only rounding of the evaluation: at the critical product the
64-bit evaluation reads ten times the exact drift of the computed
orbit, but a hyperbolic orbit's own rounding (about eps r a step)
moves it off its level set, and its exact drift is as large, order 1.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import reduce
from itertools import chain, count

import numpy as np

from .exchange import ExtendedExchangeMatrix, mutate, mutation_class
from .floatops import det2
from .orbits import (
    OrbitKind,
    StartPolicy,
    GrowthKind,
    _draw_starts,
    _first_rises,
    _phi_drift_pass,
    iterate_orbit,
    scan_grid,
)
from .params import Params, _kappa, _nu, theta_of
from .rational import PointPos, mu_x_log, symplectic_residual
from .tropical import (
    PointPL,
    _blocks,
    _closed_forms,
    _conserved,
    _cut,
    _first_returns,
    _lift,
    _pl_step,
    _quad_coefs,
    _renormalise,
    _sign_coherent_indices,
    _tau_step,
    _trig_forms,
    detect_period,
    mu1_c,
    mu1_c_branch_matrices,
    mu2_c,
    mu2_c_branch_matrices,
    mu_c_branch_matrices,
)

__all__ = ["Criterion", "CRITERIA", "run_all"]

_BASE_SEED = 20260822


def _rng(offset: int) -> np.random.Generator:
    return np.random.default_rng(_BASE_SEED + offset)


_STARTS = (-3.0, 3.0, 0.1)  # in [-3, 3]^2, at least 0.1 from the origin


def _q_for_m(m: int) -> float:
    return 4.0 * math.cos(math.pi / m) ** 2


def _expected_period(m: int) -> int:
    return m + 2 if m % 2 else (m + 2) // 2


def _c1_period_table():
    ms = range(3, 31)
    starts = _draw_starts(_rng(1), 100 * len(ms), *_STARTS)
    s0, t0 = np.array(starts).T
    # one pass to the largest horizon; each start's own is its period + 10
    step = _pl_step(1.0, np.repeat([_q_for_m(m) for m in ms], 100), s0.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _first_returns(s0, t0, _blocks(step, s0, t0, max(map(_expected_period, ms)) + 10))
    for m, start, k in zip(np.repeat(ms, 100).tolist(), starts, got.tolist()):
        want = _expected_period(m)
        if k != want:
            return False, f"m={m} start={start} period {k if 0 < k <= want + 10 else None} != {want}"
    return True, f"{len(starts)} orbits across m=3..30 all at the predicted period"


def _c2_named_periods():
    got7 = detect_period(Params(1.0, _q_for_m(7)), PointPL(1.0, 1.0), 40)
    got10 = detect_period(Params(1.0, _q_for_m(10)), PointPL(1.0, 1.0), 40)
    ok = got7 == 9 and got10 == 6
    return ok, f"m=7 gives {got7} (want 9), m=10 gives {got10} (want 6)"


def _c3_conserved_drift():
    rng = _rng(3)
    n = 100
    p_sub = rng.uniform(0.4, 3.0, n)
    q_sub = rng.uniform(0.3, 3.8, n) / p_sub
    p_crit = rng.uniform(0.5, 4.0, n)
    q_crit = 4.0 / p_crit
    p_sup = rng.uniform(0.7, 3.0, n)
    q_sup = rng.uniform(4.5, 9.0, n) / p_sup
    p_all = np.concatenate([p_sub, p_crit, p_sup])
    q_all = np.concatenate([q_sub, q_crit, q_sup])
    s0 = rng.uniform(-2.0, 2.0, 3 * n)
    t0 = rng.uniform(-2.0, 2.0, 3 * n)
    steps = 10**4
    # one pass yields both the windowed and the raw drift
    window, full = _phi_drift_pass(p_all, q_all, s0, t0, steps, 1e3)
    full = full[n:]
    sub_max = float(window[:n].max())
    crit_max = float(window[n : 2 * n].max())
    sup_max = float(window[2 * n :].max())
    ok = max(sub_max, crit_max, sup_max) <= 1e-9
    detail = (
        f"max drift 1e4 steps: rotation {sub_max:.2e} (full horizon), "
        f"critical {crit_max:.2e} and hyperbolic {sup_max:.2e} (inside the "
        f"measurable window; raw full-horizon {float(full[:n].max()):.2e} and "
        f"{float(full[n:].max()):.2e}, see module note)"
    )
    return ok, detail


def _c4_hand_orbits():
    orb = iterate_orbit(Params(1.0, 1.0), OrbitKind.RATIONAL, (1.0, 1.0), 5)
    want = np.array([(1, 1), (2, 3), (2, 1), (1, 2), (3, 2), (1, 1)], dtype=float)
    err1 = float(np.max(np.abs(orb.points - want)))
    orb2 = iterate_orbit(Params(2.0, 1.0), OrbitKind.RATIONAL, (1.0, 1.0), 3)
    want2 = np.array([(1, 1), (2, 5), (3, 2), (1, 1)], dtype=float)
    err2 = float(np.max(np.abs(orb2.points - want2)))
    early = min(
        float(np.max(np.abs(orb.points[k] - orb.points[0]))) for k in (1, 2, 3, 4)
    )
    early2 = min(float(np.max(np.abs(orb2.points[k] - orb2.points[0]))) for k in (1, 2))
    ok = err1 <= 1e-12 and err2 <= 1e-12 and early > 1e-9 and early2 > 1e-9
    return ok, f"five-cycle error {err1:.1e}, three-cycle error {err2:.1e}, no early return"


def _c5_escape():
    rng = _rng(5)
    log_goal = math.log(1e6)
    # every input drawn first, in the order of the checks below
    pairs, logs, starts = [], [], []
    for _ in range(10):
        p = float(rng.uniform(0.8, 3.0))
        pairs.append((p, float(rng.uniform(4.5, 12.0)) / p))
        logs.append([[math.log(v) for v in rng.uniform(0.5, 3.0, 2)] for _ in range(20)])
        starts += _draw_starts(rng, 20, *_STARTS)
    # each tropical start up to its first point in the coherent cone, then
    # 100 steps of the linearization from there, renormalized past 1e100
    p, q = np.repeat(pairs, 20, axis=0).T
    s, t = s0, t0 = np.array(starts).T
    entered = np.zeros(len(starts), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _, ss, ts in chain([(0, s0[None], t0[None])], _blocks(_pl_step(p, q, s0.shape), s0, t0, 299)):
            # a point out of float range ends its orbit (the cone test passes s = inf)
            cone = (ss > 0.0) & (ss < math.inf) & (ts < 0.0) & (np.sqrt(p) * ss + np.sqrt(q) * ts >= 0.0)
            new, row = cone.any(axis=0) & ~entered, cone.argmax(axis=0)
            s, t = np.where(new, ss[row, range(len(row))], s), np.where(new, ts[row, range(len(row))], t)
            entered |= new
            if entered.all():
                break
        floor = _kappa(p, q) - 1.0 - 1e-6
        ratio = np.full(len(starts), math.nan)
        for _ in range(100):
            s2, t2 = _tau_step(p, q, s, t)
            ratio = np.where(np.isnan(ratio) & (abs(t2) < floor * abs(t)), abs(t2) / abs(t), ratio)
            s, t = _renormalise(s2, t2)
    worst_steps = 0
    for i, ((p, q), pair_logs) in enumerate(zip(pairs, logs)):
        params = Params(p, q)
        for a, b in pair_logs:
            for step in range(1, 201):
                a, b = mu_x_log(params, (a, b))
                if p * a > log_goal:
                    worst_steps = max(worst_steps, step)
                    break
            else:
                return False, f"p={p} q={q} never passed 1e6 within 200 steps"
        for j in range(20 * i, 20 * i + 20):
            if not entered[j]:
                return False, f"p={p} q={q} start never reached the coherent cone"
            if not np.isnan(ratio[j]):
                return False, f"p={p} q={q}: growth ratio {ratio[j]:.6f} < {floor[j]:.6f}"
    return True, f"all escapes within {worst_steps} steps; tropical ratios held"


def _c6_symplectic_and_dets():
    rng = _rng(6)
    worst = 0.0
    for _ in range(10):
        params = Params(float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.5, 3.5)))
        xs = np.exp(rng.uniform(-1.5, 1.5, 100))
        ys = np.exp(rng.uniform(-1.5, 1.5, 100))
        for x, y in zip(xs, ys):
            worst = max(worst, symplectic_residual(params, PointPos(float(x), float(y))))
        for mat in mu_c_branch_matrices(params):
            if det2(mat) != 1.0:
                return False, f"composed branch det {det2(mat)!r} != 1 at {params}"
        for mat in mu1_c_branch_matrices(params) + mu2_c_branch_matrices(params):
            if det2(mat) != -1.0:
                return False, f"factor branch det {det2(mat)!r} != -1 at {params}"
    ok = worst < 1e-4
    return ok, f"worst |det J - 1| = {worst:.2e} over 1000 points x 10 params; branch dets exact"


def _c7_angle_and_signs():
    # For pq > 4 the conserved quadratic is indefinite, so the angle rule
    # splits by the sign of the start's conserved value.  With a value
    # >= 0 the lifted angle never rises.  A negative value occurs only in
    # the open fourth quadrant, between the two invariant directions; the
    # orbit stays there on its level branch and its angle climbs toward
    # the expanding direction, so there the plain atan2 angle (whose
    # range that quadrant does not cross) never falls.  Every orbit is
    # checked against its half of the rule, and both halves must occur.
    rng = _rng(7)
    pairs = [(2.0, 2.0)]
    while len(pairs) < 10:
        p = float(rng.uniform(0.8, 2.8))
        q = float(rng.uniform(4.2, 9.0)) / p
        pairs.append((p, q))
    # one column per start, all drawn first
    flat = [(p, q, s, t) for p, q in pairs for s, t in _draw_starts(rng, 100, *_STARTS)]
    p, q, s0, t0 = np.array(flat).T
    cut = np.repeat([_cut(*pair) for pair in pairs], 100)
    fourth = np.ones(len(flat), dtype=bool)

    def angles():
        # one pass over every orbit; none leaves float range or meets the
        # origin (the map fixes it), so every angle is defined
        for first, ss, ts in chain([(0, s0[None], t0[None])], _blocks(_pl_step(p, q, s0.shape), s0, t0, 200)):
            fourth[...] &= ((ss > 0.0) & (ts < 0.0)).all(axis=0)
            lifted, raw = _lift(cut, ss, ts)
            # negation is exact, so a rise of -atan2 is a fall of atan2
            yield first, np.concatenate([lifted, -raw], axis=1)

    rises = _first_rises(angles())
    values = _conserved(_quad_coefs(p, q), s0, t0).tolist()
    worst_n = -1
    nonneg = negative = 0
    witness = None
    where = "p={} q={} start={}".format  # formatted on a failure path only
    for (p, q, s, t), value, rise, fell, inside, n0 in zip(
        flat, values, rises, rises[len(flat) :], fourth.tolist(), _sign_coherent_indices(p, q, s0, t0, 500)
    ):
        if value >= 0.0:
            nonneg += 1
            if rise is not None:
                return False, f"angle rose at step {rise} from value {value:.3g} >= 0, {where(p, q, (s, t))}"
        else:
            negative += 1
            if not inside:
                return False, f"value {value:.3g} < 0 left the open fourth quadrant, {where(p, q, (s, t))}"
            if fell is not None:
                return False, f"unlifted angle fell at step {fell}, {where(p, q, (s, t))}"
            if witness is None:
                witness = (p, q, (s, t), value, rise)
        if n0 is None:
            return False, f"no sign coherence by 500 for {where(p, q, (s, t))}"
        worst_n = max(worst_n, n0)
    if not (nonneg and negative):
        return False, f"a population is empty: {nonneg} starts with value >= 0, {negative} below"
    p, q, (s0, t0), value, rise = witness
    return True, (
        f"{nonneg} orbits with conserved value >= 0, lifted angle never rose; {negative} "
        f"with value < 0 stayed in the open fourth quadrant, unlifted angle never fell; "
        f"sign coherence always by N={worst_n}; first negative witness p={p:.4f} "
        f"q={q:.4f} start=({s0:.4f}, {t0:.4f}) value {value:.3f}, lifted angle rises "
        f"at step {rise}"
    )


def _c8_closed_forms():
    # every trial's (pq, p, s, t) in one draw, the stream of drawing them in turn
    lows = np.repeat([[0.2, 0.3, -3.0, -3.0], [4.0, 0.3, -3.0, -3.0]], [600, 400], axis=0)
    highs = np.repeat([[3.9, 2.5, 3.0, 3.0], [7.0, 2.5, 3.0, 3.0]], [600, 400], axis=0)
    pq, p, s0, t0 = _rng(8).uniform(lows, highs).T
    # one column per trial, one row per n = 0..30
    q = pq / p
    kappa, nu = _kappa(p, q), _nu(p, q)
    cur_s, cur_t = np.empty((2, 31, len(p)))
    cur_s[0], cur_t[0] = s0, t0
    for n in range(1, 31):
        cur_s[n], cur_t[n] = _tau_step(p, q, cur_s[n - 1], cur_t[n - 1])
    tilde_t = cur_t + p * cur_s
    sn, tn, tn_t = _closed_forms(kappa, nu, 30, s0, t0)
    scale = reduce(np.maximum, (1.0, abs(cur_s), abs(cur_t), abs(sn), abs(tn), abs(tn_t)))
    err = reduce(np.maximum, (abs(sn - cur_s), abs(tn - cur_t), abs(tn_t - tilde_t)))
    sub = slice(0, 600)
    thetas = list(map(math.acos, (kappa[sub] / 2.0).tolist()))
    trig_s, trig_t, trig_t_t = _trig_forms(thetas, nu[sub], 30, s0[sub], t0[sub])
    trig_err = (abs(trig_s - sn[:, sub]), abs(trig_t - tn[:, sub]), abs(trig_t_t - tn_t[:, sub]))
    err[:, sub] = reduce(np.maximum, trig_err, err[:, sub])
    # the first failure in trial order, then n
    failing = np.flatnonzero((err > 1e-9 * scale).T)
    if len(failing):
        trial, n = divmod(int(failing[0]), 31)
        return False, f"closed form off by {err[n, trial]:.2e} at n={n}, params={Params(p[trial], q[trial])}"
    worst = float(np.max(err / scale))
    runs = []
    rng2 = _rng(80)
    while len(runs) < 300:
        pq = float(rng2.uniform(2.05, 3.5))
        p = float(rng2.uniform(0.6, 2.0))
        q = pq / p
        th = theta_of(Params(p, q))
        n_max = int((math.pi / th - 2.0) // 2.0)
        while n_max >= 1 and math.pi - (2 * n_max + 2) * th < 0.01:
            n_max -= 1
        if n_max >= 1:
            runs.append((p, q, float(rng2.uniform(0.05, 2.5)), float(rng2.uniform(0.05, 2.5)), n_max + 1))
    # every run's n_max + 1 steps of mu_c in one pass against tau's, one column per run
    p, q, s, t, steps = np.array(runs).T
    split = np.zeros(len(runs), dtype=bool)
    for first, ss, ts in _blocks(_pl_step(p, q, s.shape), s, t, int(steps.max())):
        for n, a_s, a_t in zip(count(first), ss, ts):
            s, t = _tau_step(p, q, s, t)
            split |= (n <= steps) & ((a_s != s) | (a_t != t))
    if split.any():
        run = int(split.argmax())
        return False, f"alternating iterates split at params={Params(p[run], q[run])}"
    return True, (
        f"closed forms within {worst:.1e} relative for n <= 30; "
        f"300 first-quadrant runs matched the linearization bit for bit"
    )


_CLASS_SIZES = {3: 10, 4: 6, 5: 14, 6: 8, 7: 18, 8: 10}


def _c9_mutation_classes():
    for m, want in _CLASS_SIZES.items():
        seed = ExtendedExchangeMatrix.from_exponents(1.0, _q_for_m(m), rows=((1.0, 1.0),))
        result = mutation_class(seed, cap=4000)
        if not result.complete or result.size != want:
            return False, f"m={m}: size {result.size} complete={result.complete}, want {want}"
    seed = ExtendedExchangeMatrix.from_exponents(1.0, 5.0, rows=((1.0, 1.0),))
    result = mutation_class(seed, cap=10**4)
    if result.complete or result.size != 2946:
        return False, f"hyperbolic class: size {result.size} complete={result.complete}"
    rng = _rng(9)
    for _ in range(100):
        p, q = (float(v) for v in rng.uniform(0.2, 3.0, 2))
        s, t = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
        params = Params(p, q)
        plain = ExtendedExchangeMatrix.from_exponents(p, q, rows=((s, t),))
        negated = ExtendedExchangeMatrix.from_exponents(p, q, rows=((s, t),), negated=True)
        m1 = mutate(plain, 1)
        img1 = mu1_c(params, PointPL(s, t))
        if m1.entries[:2] != negated.entries[:2] or m1.entries[2] != img1.as_tuple():
            return False, f"direction-1 mutation mismatch at p={p} q={q} row=({s},{t})"
        m2 = mutate(negated, 2)
        img2 = mu2_c(params, PointPL(s, t))
        if m2.entries[:2] != plain.entries[:2] or m2.entries[2] != img2.as_tuple():
            return False, f"direction-2 mutation mismatch at p={p} q={q} row=({s},{t})"
    sizes = ", ".join(f"m={m}:{n}" for m, n in _CLASS_SIZES.items())
    return True, (
        f"classes closed ({sizes}); the pq=5 class leaves float range with 2946 members "
        "under the 10^4 cap, its chains after 1471 and 1474 mutations; row actions exact"
    )


def _c10_bounded_grid():
    table = scan_grid(
        (0.2, 1.9),
        (0.2, 1.9),
        10,
        OrbitKind.RATIONAL,
        10**4,
        StartPolicy(points=((1.0, 1.0),)),
    )
    bad = [
        (c.p, c.q, c.verdict.kind.value)
        for c in table.cells
        if c.verdict.kind is not GrowthKind.BOUNDED_LIKE
    ]
    if bad:
        return False, f"{len(bad)} cells not bounded-like, first: {bad[0]}"
    peak = max(c.verdict.max_log_radius for c in table.cells)
    return True, f"all 100 rotation-regime cells bounded-like over 1e4 steps, peak log radius {peak:.2f}"


def _c11_golden_outputs():
    base = [
        sys.executable,
        "-m",
        "mutdyn",
        "orbit",
        "--p",
        "1.2734",
        "--q",
        "0.8421",
        "--x0",
        "1",
        "--y0",
        "1",
        "--steps",
        "100",
        "--format",
    ]
    # the children import this package first, however this process found it
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    # all six started together and read before the checks, which keep the order of runs in turn
    pipe = subprocess.PIPE
    started = {
        fmt: [subprocess.Popen(base + [fmt], stdout=pipe, stderr=pipe, env=env) for _ in range(2)]
        for fmt in ("csv", "json", "svg")
    }
    runs = {fmt: [(*proc.communicate(), proc.returncode) for proc in procs] for fmt, procs in started.items()}
    sizes = {}
    for fmt, pair in runs.items():
        for _, err, code in pair:
            if code != 0:
                return False, f"{fmt} run exited {code}: {err.decode()[:200]}"
        (out, _, _), (again, _, _) = pair
        if out != again:
            return False, f"{fmt} output differs between identical runs"
        if len(out) < 200:
            return False, f"{fmt} output suspiciously small ({len(out)} bytes)"
        sizes[fmt] = len(out)
    listing = ", ".join(f"{k} {v}B" for k, v in sizes.items())
    return True, f"byte-identical reruns for {listing}"


@dataclass(frozen=True)
class Criterion:
    cid: str
    title: str
    budget_s: float | None
    fn: object

    def run(self):
        t0 = time.perf_counter()
        ok, detail = self.fn()
        elapsed = time.perf_counter() - t0
        if ok and self.budget_s is not None and elapsed > self.budget_s:
            ok = False
            detail += f"; over budget ({elapsed:.2f}s > {self.budget_s}s)"
        else:
            detail += f"; {elapsed:.2f}s"
            if self.budget_s is not None:
                detail += f" (budget {self.budget_s:g}s)"
        return ok, detail


CRITERIA = (
    Criterion("C1", "periodic products reproduce the full period table", 2.0, _c1_period_table),
    Criterion("C2", "named periods at m=7 and m=10", 1.0, _c2_named_periods),
    Criterion("C3", "conserved quadratic drifts below 1e-9 over 1e4 steps", 1.0, _c3_conserved_drift),
    Criterion("C4", "hand-checked short cycles of the birational map", 0.1, _c4_hand_orbits),
    Criterion("C5", "hyperbolic escape rates for both maps", 1.0, _c5_escape),
    Criterion("C6", "area preservation and exact branch determinants", 1.0, _c6_symplectic_and_dets),
    Criterion(
        "C7",
        "angle non-increasing for conserved value >= 0, climbing in the fourth quadrant below 0; "
        "eventual sign coherence",
        1.0,
        _c7_angle_and_signs,
    ),
    Criterion("C8", "closed forms match iteration; linearization exact early on", 1.0, _c8_closed_forms),
    Criterion("C9", "mutation classes: finite tables, range exits, row actions", 5.0, _c9_mutation_classes),
    Criterion("C10", "rotation-regime grid stays bounded-like", 10.0, _c10_bounded_grid),
    Criterion("C11", "command-line exports are byte-stable", None, _c11_golden_outputs),
)


def run_all(stream=None) -> bool:
    """Run every criterion, print one line each, return overall success."""
    out = stream if stream is not None else sys.stdout
    all_ok = True
    for crit in CRITERIA:
        ok, detail = crit.run()
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {crit.cid} {crit.title}: {detail}", file=out)
    print(f"{'all criteria passed' if all_ok else 'FAILURES PRESENT'}", file=out)
    return all_ok
