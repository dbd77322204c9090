"""Command-line interface.

Exit codes: 0 success, 1 usage or domain errors, 2 for results that
left floating-point range (a truncated orbit still writes its finite
prefix before exiting with 2).
"""
from __future__ import annotations

import argparse
import contextlib
import re
import sys

import numpy as np

from .errors import DomainError, RangeError, RegimeError
from .exchange import ExtendedExchangeMatrix, mutation_class
from .export import _csv, _document, _orbit_csv, _payload
from .levelset import levelset_points
from .orbits import OrbitKind, StartPolicy, iterate_orbit, scan_grid
from .params import Params
from .svg import render_svg
from .tropical import PointPL, detect_period

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; route it through our codes.  Its
    # own matcher reads -1 and -1.5 as numbers but -1e-3, -.5 and -inf as
    # options; here the non-finite spellings float() takes are numbers too
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _out(path):
    # the --out file, opened before the command's work as a shell's > opens
    # it, so an unwritable path fails at once; stdout when there is none.
    # Commands write each piece as it is made, so no whole document is held
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from None


def _add_params_args(sp):
    sp.add_argument("--p", type=float, required=True, help="first exponent, positive")
    sp.add_argument("--q", type=float, required=True, help="second exponent, positive")


def _add_output_args(sp):
    sp.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def _orbit_text(orbit, fmt: str):
    if fmt == "csv":
        return _orbit_csv(orbit)
    if fmt == "json":
        return _document(_payload(orbit))
    return [render_svg(orbit)]


def _cmd_orbit(args) -> int:
    orbit = iterate_orbit(Params(args.p, args.q), args.kind, (args.a0, args.b0), args.steps)
    args.out.writelines(_orbit_text(orbit, args.format))
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
        Params(args.p, args.q), PointPL(args.s0, args.t0), args.max_steps
    )
    print("none" if period is None else str(period))
    return 0


def _apply_scan_config(path, flags):
    # a key=value file naming scan flags without their dashes; each value
    # is checked as its flag checks it and becomes that flag's default
    by_key = {action.option_strings[0][2:]: action for action in flags}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
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
    if args.seed is None:
        if args.count is not None:
            # without a seed every cell starts from (1, 1) alone
            raise _UsageError("--count needs --seed")
        policy = None
    else:
        policy = StartPolicy(seed=args.seed, count=1 if args.count is None else args.count)
    table = scan_grid(
        (args.p_min, args.p_max),
        (args.q_min, args.q_max),
        args.resolution,
        OrbitKind(args.kind),
        args.steps,
        policy,
    )
    args.out.writelines(_document(_payload(table)))
    return 0


def _cmd_levelset(args) -> int:
    pieces = levelset_points(
        Params(args.p, args.q), args.level, samples_per_piece=args.samples
    )
    if args.format == "svg":
        doc = [render_svg(pieces)]
    elif args.format == "json":
        arrays = [np.array(piece, dtype=float).reshape(-1, 2) for piece in pieces]
        doc = _document({"level": float(args.level), "pieces": arrays})
    else:
        pts = np.array([pt for piece in pieces for pt in piece], dtype=float).reshape(-1, 2)
        which = [pi for pi, piece in enumerate(pieces) for _ in piece]
        index = [idx for piece in pieces for idx in range(len(piece))]
        doc = _csv("piece,index,s,t", [which, index, pts[:, 0], pts[:, 1]])
    args.out.writelines(doc)
    return 0


def _parse_rows(text: str):
    # "a,b;c,d" as rows of strings; the matrix checks their shape and entries
    return tuple(tuple(chunk.split(",")) for chunk in text.split(";")) if text else ()


def _cmd_matclass(args) -> int:
    seed = ExtendedExchangeMatrix.from_exponents(
        args.p, args.q, rows=_parse_rows(args.rows), negated=args.negated
    )
    result = mutation_class(seed, cap=args.cap)
    payload = _payload(result) if args.full else {"size": result.size, "complete": result.complete}
    args.out.writelines(_document(payload))
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import run_all

    return 0 if run_all() else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="mutdyn", description="Planar exchange-map dynamics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, kind, a0, b0, text in (
        ("orbit", OrbitKind.RATIONAL, "X0", "Y0", "the birational map on the positive quadrant"),
        ("trop-orbit", OrbitKind.TROPICAL, "S0", "T0", "the piecewise-linear map on the plane"),
    ):
        sp = sub.add_parser(name, help=f"iterate {text}")
        _add_params_args(sp)
        sp.add_argument(f"--{a0.lower()}", dest="a0", metavar=a0, type=float, required=True)
        sp.add_argument(f"--{b0.lower()}", dest="b0", metavar=b0, type=float, required=True)
        sp.add_argument("--steps", type=int, required=True)
        _add_output_args(sp)
        sp.set_defaults(func=_cmd_orbit, kind=kind)

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
        sp.add_argument("--count", type=int, default=None, help="starts per cell, needs --seed"),
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
        with _out(getattr(args, "out", None)) as args.out:
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
