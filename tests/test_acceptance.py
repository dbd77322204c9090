"""Acceptance gate: one test per criterion, each with its verdict line.

The full battery runs once per session; individual tests read the
cached verdicts so the suite stays fast and the per-criterion lines
stay visible in failure output.
"""
import pytest

from mutdyn.acceptance import CRITERIA


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
        "cap exhausts at 10^4 for pq=5; row actions exact"
    ),
    "C10": "all 100 rotation-regime cells bounded-like over 1e4 steps, peak log radius 3.12",
}


@pytest.mark.parametrize("cid", sorted(PINNED_DETAILS))
def test_criterion_detail_is_pinned(verdicts, cid):
    _, detail = verdicts[cid]
    # the last "; " opens the timing suffix
    assert detail.rpartition("; ")[0] == PINNED_DETAILS[cid]
