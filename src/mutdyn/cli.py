"""Command-line interface.

Exit codes: 0 success, 1 usage or domain errors, 2 for results that
left floating-point range (a truncated orbit still writes its finite
prefix before exiting with 2).
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import DomainError, RangeError, RegimeError
from .exchange import ExtendedExchangeMatrix, mutation_class
from .export import _csv, _emit, export_csv, export_json
from .levelset import levelset_points
from .orbits import OrbitKind, StartPolicy, iterate_orbit, scan_grid
from .params import Params
from .svg import render_svg
from .tropical import PointPL, detect_period

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; route it through our codes
    def error(self, message):
        raise _UsageError(message)


def _write_out(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _params_from(args) -> Params:
    return Params(args.p, args.q)


def _add_params_args(sp):
    sp.add_argument("--p", type=float, required=True, help="first exponent, positive")
    sp.add_argument("--q", type=float, required=True, help="second exponent, positive")


def _add_output_args(sp, formats=("csv", "json", "svg")):
    sp.add_argument("--format", choices=formats, default=formats[0])
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def _orbit_text(orbit, fmt: str) -> str:
    if fmt == "csv":
        return export_csv(orbit)
    if fmt == "json":
        return export_json(orbit)
    return render_svg(orbit)


def _cmd_orbit(args) -> int:
    orbit = iterate_orbit(_params_from(args), args.kind, (args.a0, args.b0), args.steps)
    _write_out(_orbit_text(orbit, args.format), args.out)
    if orbit.truncated:
        print(
            f"orbit left float range at step {orbit.truncated_at}; "
            f"wrote the finite prefix",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_period(args) -> int:
    period = detect_period(
        _params_from(args), PointPL(args.s0, args.t0), args.max_steps
    )
    print("none" if period is None else str(period))
    return 0


def _apply_scan_config(path, flags):
    # a key=value file naming scan flags without their dashes; each value
    # is checked as its flag checks it and becomes that flag's default
    by_key = {action.option_strings[0][2:]: action for action in flags}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, val = (x.strip() for x in line.partition("="))
            if key not in by_key:
                raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
            action = by_key[key]
            try:
                value = (action.type or str)(val)
                if action.choices is not None and value not in action.choices:
                    raise ValueError(val)
            except ValueError:
                raise DomainError(f"{path}:{lineno}: bad value for {key}: {val!r}") from None
            action.default = value


def _cmd_scan(args) -> int:
    policy = None if args.seed is None else StartPolicy(seed=args.seed, count=args.count)
    table = scan_grid(
        (args.p_min, args.p_max),
        (args.q_min, args.q_max),
        args.resolution,
        OrbitKind(args.kind),
        args.steps,
        policy,
    )
    _write_out(export_json(table), args.out)
    return 0


def _cmd_levelset(args) -> int:
    pieces = levelset_points(
        _params_from(args), args.level, samples_per_piece=args.samples
    )
    if args.format == "svg":
        text = render_svg(pieces)
    elif args.format == "json":
        arrays = [np.array(piece, dtype=float).reshape(-1, 2) for piece in pieces]
        text = _emit({"level": float(args.level), "pieces": arrays}) + "\n"
    else:
        pts = np.array([pt for piece in pieces for pt in piece], dtype=float).reshape(-1, 2)
        which = [pi for pi, piece in enumerate(pieces) for _ in piece]
        index = [idx for piece in pieces for idx in range(len(piece))]
        text = _csv("piece,index,s,t", [which, index, pts[:, 0], pts[:, 1]])
    _write_out(text, args.out)
    return 0


def _parse_rows(text: str):
    rows = []
    if text:
        for chunk in text.split(";"):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise DomainError(f"each row needs two entries, got {chunk!r}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise DomainError(f"bad row entry in {chunk!r}") from None
    return tuple(rows)


def _cmd_matclass(args) -> int:
    seed = ExtendedExchangeMatrix.from_exponents(
        args.p, args.q, rows=_parse_rows(args.rows), negated=args.negated
    )
    result = mutation_class(seed, cap=args.cap)
    if args.full:
        text = export_json(result)
    else:
        text = _emit({"size": result.size, "complete": result.complete}) + "\n"
    _write_out(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import run_all

    return 0 if run_all() else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="mutdyn", description="Planar exchange-map dynamics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("orbit", help="iterate the birational map on the positive quadrant")
    _add_params_args(sp)
    sp.add_argument("--x0", dest="a0", metavar="X0", type=float, required=True)
    sp.add_argument("--y0", dest="b0", metavar="Y0", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_orbit, kind=OrbitKind.RATIONAL)

    sp = sub.add_parser("trop-orbit", help="iterate the piecewise-linear map on the plane")
    _add_params_args(sp)
    sp.add_argument("--s0", dest="a0", metavar="S0", type=float, required=True)
    sp.add_argument("--t0", dest="b0", metavar="T0", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_orbit, kind=OrbitKind.TROPICAL)

    sp = sub.add_parser("period", help="detect the period of a piecewise-linear orbit")
    _add_params_args(sp)
    sp.add_argument("--s0", type=float, required=True)
    sp.add_argument("--t0", type=float, required=True)
    sp.add_argument("--max-steps", type=int, default=1000)
    sp.set_defaults(func=_cmd_period)

    sp = sub.add_parser("scan", help="growth verdicts over a parameter grid")
    sp.add_argument(
        "--config",
        default=None,
        help="key=value file of the flags below, named without dashes; flags override it",
    )
    flags = (
        sp.add_argument("--p-min", type=float, default=0.5),
        sp.add_argument("--p-max", type=float, default=2.0),
        sp.add_argument("--q-min", type=float, default=0.5),
        sp.add_argument("--q-max", type=float, default=2.0),
        sp.add_argument("--resolution", type=int, default=5),
        sp.add_argument("--steps", type=int, default=1000),
        sp.add_argument("--kind", choices=("rational", "tropical"), default="rational"),
        sp.add_argument("--seed", type=int, default=None),
        sp.add_argument("--count", type=int, default=1),
    )
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_scan, config_flags=flags)

    sp = sub.add_parser("levelset", help="sample a level set of the conserved function")
    _add_params_args(sp)
    sp.add_argument("--level", type=float, required=True)
    sp.add_argument("--samples", type=int, default=256)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_levelset)

    sp = sub.add_parser("matclass", help="mutation class of an extended exchange matrix")
    _add_params_args(sp)
    sp.add_argument("--rows", default="", help='extra rows as "a,b;c,d"')
    sp.add_argument("--cap", type=int, default=10**5)
    sp.add_argument("--negated", action="store_true", help="start from the negated block")
    sp.add_argument("--full", action="store_true", help="include every matrix in the output")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_matclass)

    sp = sub.add_parser("verify", help="run the acceptance checks and report each one")
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # the file's values become defaults, so flags given as well win
            _apply_scan_config(args.config, args.config_flags)
            args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RangeError as exc:
        print(f"range error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
