"""Planar exchange-map dynamics.

A toolkit for a family of planar maps built from exchange-matrix
mutation: the birational map on the positive quadrant, its
piecewise-linear shadow on the whole plane, the conserved quantities
tying them together and the mutation classes they come from.
"""
from .errors import DomainError, MutdynError, RangeError, RegimeError
from .params import (
    Params,
    Regime,
    classify_regime,
    detect_m,
    kappa_nu,
    theta_of,
)
from .rational import (
    PointPos,
    UVPoint,
    UVRegion,
    H_dist,
    V_dist,
    fixed_curves,
    from_uv,
    mu1_uv,
    mu1_x,
    mu2_uv,
    mu2_x,
    mu_uv,
    mu_x,
    mu_x_closed,
    mu_x_inv,
    mu_x_log,
    region_uv,
    symplectic_residual,
    to_uv,
)
from .tropical import (
    PointPL,
    PolarAngle,
    SignPair,
    chebyshev_u,
    detect_period,
    f_quad,
    first_sign_coherent_index,
    g_quad,
    hat_mu1,
    hat_mu2,
    mu1_c,
    mu1_c_branch_matrices,
    mu2_c,
    mu2_c_branch_matrices,
    mu_c,
    mu_c_branch_matrices,
    mu_c_inv,
    phi,
    polar_angle,
    reflect_x,
    reflect_y,
    sign_pair,
    slope_angle_delta,
    tau,
    tau1,
    tau2,
    tau_closed_form,
    tau_trig_form,
)
from .exchange import ExtendedExchangeMatrix, MutationClassResult, mutate, mutation_class
from .orbits import (
    MAX_ORBIT_POINTS,
    GrowthKind,
    GrowthVerdict,
    Orbit,
    OrbitKind,
    ScanCell,
    ScanTable,
    StartPolicy,
    conserved_drift,
    growth_classification,
    iterate_orbit,
    monotonic_angle_audit,
    phi_drift_batch,
    scan_grid,
)
from .export import export_csv, export_json, fmt_float, parse_scan_json
from .levelset import levelset_points, levelset_residual
from .svg import render_svg

__version__ = "0.1.0"
