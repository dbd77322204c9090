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


# What C3, C7 and C8 report, without the timing suffix, pinned as the
# per-point implementations produced it: a refactor of their kernels
# must not change a single printed figure.
PINNED_DETAILS = {
    "C3": (
        "max drift 1e4 steps: rotation 5.49e-14 (full horizon), critical 1.08e-10 and "
        "hyperbolic 9.82e-11 (inside the measurable window; raw full-horizon 4.17e-08 "
        "and 9.98e+292, see module note)"
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
}


@pytest.mark.parametrize("cid", sorted(PINNED_DETAILS))
def test_criterion_detail_is_pinned(verdicts, cid):
    _, detail = verdicts[cid]
    # the last "; " opens the timing suffix
    assert detail.rpartition("; ")[0] == PINNED_DETAILS[cid]
