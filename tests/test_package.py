"""The package's namespace and the rules every count and real argument follow."""
import importlib
import math
import pkgutil
import types

import numpy as np
import pytest

import mutdyn
from mutdyn import (
    DomainError,
    ExtendedExchangeMatrix,
    H_dist,
    OrbitKind,
    Params,
    PointPL,
    StartPolicy,
    V_dist,
    chebyshev_u,
    detect_m,
    detect_period,
    first_sign_coherent_index,
    fixed_curves,
    iterate_orbit,
    levelset_points,
    levelset_residual,
    mu_x_log,
    mutate,
    mutation_class,
    phi_drift_batch,
    render_svg,
    scan_grid,
    sign_pair,
    tau_closed_form,
    tau_trig_form,
)

# __main__ runs the command line on import
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(mutdyn.__path__) if not m.name.startswith("_")
)

# the modules whose export lists make up the package's namespace
NAMESPACE = ("errors", "params", "rational", "tropical", "exchange", "orbits", "export", "levelset", "svg")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    # what `from mutdyn.<module> import *` needs
    module = importlib.import_module(f"mutdyn.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_names_are_the_modules_export_lists():
    names = {
        n for n in dir(mutdyn)
        if not n.startswith("_") and not isinstance(getattr(mutdyn, n), types.ModuleType)
    }
    modules = [importlib.import_module(f"mutdyn.{m}") for m in NAMESPACE]
    assert names == {n for module in modules for n in module.__all__}
    for module in modules:
        assert all(getattr(mutdyn, n) is getattr(module, n) for n in module.__all__)


_ONE = Params(1.0, 1.0)
_START = PointPL(1.0, 0.0)

# (call with a count, the count's name in messages, its least value)
COUNTS = {
    "iterate_orbit": (lambda n: iterate_orbit(_ONE, OrbitKind.TROPICAL, (1.0, 0.0), n), "steps", 0),
    "phi_drift_batch": (lambda n: phi_drift_batch(1.0, 1.0, 1.0, 0.0, n), "steps", 0),
    "StartPolicy": (lambda n: StartPolicy(seed=1, count=n), "count", 1),
    "scan_grid": (lambda n: scan_grid((1.0, 2.0), (1.0, 2.0), n, OrbitKind.TROPICAL, 20), "resolution", 1),
    "chebyshev_u": (lambda n: chebyshev_u(n, 0.3), "index", -1),
    "tau_closed_form": (lambda n: tau_closed_form(_ONE, n, _START), "iterate count", 0),
    "tau_trig_form": (lambda n: tau_trig_form(_ONE, n, _START), "iterate count", 0),
    "detect_period": (lambda n: detect_period(_ONE, _START, n), "max_steps", 1),
    "first_sign_coherent_index": (lambda n: first_sign_coherent_index(Params(3.0, 3.0), _START, n), "cap", 0),
    "mutation_class": (lambda n: mutation_class(ExtendedExchangeMatrix(((0, 1), (-1, 0))), n), "cap", 1),
    "levelset_points": (lambda n: levelset_points(_ONE, 1.0, n), "samples_per_piece", 2),
    "mutate": (lambda n: mutate(ExtendedExchangeMatrix(((0, 1), (-1, 0))), n), "mutation direction", 1),
    "detect_m": (lambda n: detect_m(_ONE, n), "cap", 1),
}


@pytest.mark.parametrize("entry", COUNTS)
def test_count_arguments_are_integers_at_or_above_their_least_value(entry):
    call, name, low = COUNTS[entry]
    for bad in (math.nan, math.inf, -math.inf, 2.5, -0.5, None, "2"):
        with pytest.raises(DomainError) as err:
            call(bad)
        assert str(err.value) == f"{name} must be an integer, got {bad!r}"
    for below in (low - 1, float(low - 1)):
        with pytest.raises(DomainError) as err:
            call(below)
        assert str(err.value) == f"{name} must be >= {low}, got {low - 1}"
    for good in (2.0, np.int64(2)):
        call(good)


_THREE = Params(3.0, 3.0)

# (call with a real argument in one slot, a value that slot takes)
REALS = {
    "H_dist": (lambda x: H_dist(_THREE, x), 2.0),
    "V_dist": (lambda x: V_dist(_THREE, x), 2.0),
    "fixed_curves": (lambda x: fixed_curves(_ONE, x), 2.0),
    "levelset_points": (lambda x: levelset_points(_ONE, x), 1.0),
    "levelset_residual": (lambda x: levelset_residual(_ONE, [[(1.0, 0.0)]], x), 1.0),
    "phi_drift_batch": (lambda x: phi_drift_batch(x, 1.0, 0.0, 1.0, 3), 1.0),
    "from_exponents": (lambda x: ExtendedExchangeMatrix.from_exponents(x, 1.0), 1.0),
    "scan_grid": (lambda x: scan_grid((x, 2.0), (1.0, 2.0), 2, OrbitKind.TROPICAL, 20), 1.0),
    "StartPolicy": (lambda x: StartPolicy(points=((x, 1.0),)), 1.0),
    "iterate_orbit": (lambda x: iterate_orbit(_ONE, OrbitKind.TROPICAL, (x, 0.0), 3), 1.0),
    "sign_pair": (lambda x: sign_pair(PointPL(1.0, -1.0), x), 2.0),
    "chebyshev_u": (lambda x: chebyshev_u(2, x), 0.3),
    "levelset_residual_pieces": (lambda x: levelset_residual(_ONE, [[(x, 1.0)]], 1.0), 1.0),
    "mu_x_log": (lambda x: mu_x_log(_ONE, (0.5, x)), 1.0),
    "scale_cap": (lambda x: phi_drift_batch(1.0, 1.0, 0.0, 1.0, 3, scale_cap=x), 1.0),
    "render_svg": (lambda x: render_svg([[(x, 1.0), (2.0, 0.0)]]), 1.0),
}

# what a slot takes beyond finite reals: sign_pair's scale defaults to
# the point's own norm and keeps a nan scale's band at EQ_TOL,
# chebyshev_u runs its recurrence at infinite x, and no scale_cap means
# no cap
ALSO_TAKES = {
    "sign_pair": (None, math.nan, math.inf),
    "chebyshev_u": (math.inf, -math.inf),
    "scale_cap": (None, math.inf),
}


@pytest.mark.parametrize("entry", REALS)
def test_real_arguments_reject_what_float_cannot_convert(entry):
    call, good = REALS[entry]
    also = ALSO_TAKES.get(entry, ())
    for bad in (None, "a", 1j, 10**400):
        if bad not in also:
            with pytest.raises(DomainError):
                call(bad)
    for value in (good, int(good), np.float64(good), np.int64(good), *also):
        call(value)


@pytest.mark.parametrize("call", [
    lambda: StartPolicy(points=((1,),)),
    lambda: StartPolicy(points=5),
    lambda: iterate_orbit(_ONE, OrbitKind.TROPICAL, (1,), 3),
    lambda: iterate_orbit(_ONE, OrbitKind.RATIONAL, None, 3),
    lambda: scan_grid(None, (1.0, 2.0), 2, OrbitKind.TROPICAL, 20),
    lambda: scan_grid((1.0, 2.0), (1.0,), 2, OrbitKind.RATIONAL, 20),
], ids=["policy-short-pair", "policy-not-pairs", "start-short-pair", "start-none",
        "p-range-none", "q-range-short"])  # fmt: skip
def test_pairs_reject_other_shapes(call):
    with pytest.raises(DomainError):
        call()
