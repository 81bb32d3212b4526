"""Command-line front end.

Three command groups mirror the library layers:

  frieze-lab frieze    gen | diag | check | mutate | moduli
  frieze-lab continuum hill | frieze2d | liouville | curvature | kirillov
  frieze-lab limit     study

Exit codes: 0 success, 2 input/validation error (with a JSON error object on
stdout), 3 acceptance-criterion failure (report still emitted).  Output is
deterministic for a fixed invocation; files are written atomically.  The
environment variable FRIEZE_LAB_NODES overrides the default quadrature/ODE
resolution.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import serialize
from .cluster import omega_rank
from .continuous import (
    MIN_LIOUVILLE_GRID,
    boundary_check,
    curvature_conformal,
    frieze_from_curve,
    liouville_residual_field,
    potential_from_frieze,
)
from .curves import curve_family, lift_curve, on_grid, trig_poly
from .exceptions import FriezeLabError
from .frieze import (
    ZigzagCoords,
    ZigzagPath,
    diagonal_to_frieze,
    elementary_mutation,
    propagate_from_quiddity,
)
from .hill import HillPotential, hill_solve, is_antiperiodic, is_nonoscillating
from .kirillov import field_from_variation, kirillov_form_curve, kirillov_form_fields_both
from .limit import convergence_study
from .recurrence import cross_ratio_coordinates, polygon_from_frieze
from .serialize import csv_string, dumps, fraction_to_str

# bounded, period-pi variation presets for the limit/kirillov commands
VARIATIONS = {
    "bump1": {0: (0.5, 0.0), 1: (-0.5, 0.0)},  # sin^2 x
    "bump2": {0: (0.25, 0.0), 1: (0.0, 0.5), 2: (-0.25, 0.0)},
    "bump3": {0: (0.375, 0.0), 1: (-0.5, 0.0), 2: (0.125, 0.0)},  # sin^4 x
    "bump4": {1: (0.0, 0.25), 2: (0.0, -0.125)},  # sin^2 x sin 2x
}


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".frieze-lab-")
    except OSError as exc:  # name the requested file, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _fail(reason: str, code: int = 2) -> int:
    sys.stdout.write(dumps({"error": reason}))
    return code


def _parse_rationals(text: str) -> list[Fraction]:
    return [Fraction(tok) for tok in text.split(",") if tok]


def _read_doc(path: str) -> dict:
    import json

    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _variation(name: str):
    if name not in VARIATIONS:
        raise FriezeLabError(f"unknown variation preset {name!r}")
    return trig_poly(math.pi, VARIATIONS[name])


# ---------------------------------------------------------------------------
# frieze group


def cmd_frieze(args) -> int:
    if args.sub == "gen":
        frieze = propagate_from_quiddity(_parse_rationals(args.quiddity))
        _emit(dumps(serialize.frieze_to_doc(frieze)), args.output)
        return 0
    if args.sub == "diag":
        frieze = diagonal_to_frieze(_parse_rationals(args.values), base=args.base)
        _emit(dumps(serialize.frieze_to_doc(frieze)), args.output)
        return 0
    if args.sub == "check":
        frieze = serialize.frieze_from_doc(_read_doc(args.input))
        report = frieze.check()
        report["valid"] = frieze.is_valid()
        _emit(dumps(report), args.output)
        return 0 if report["valid"] else 2
    if args.sub == "mutate":
        moves = tuple(m for m in args.moves.split(",") if m) if args.moves else ()
        values = _parse_rationals(args.values)
        path = ZigzagPath(start=args.start, moves=moves, width=len(values))
        out = elementary_mutation(
            ZigzagCoords(path=path, values=tuple(values)), args.position
        )
        _emit(
            dumps(
                {
                    "start": out.path.start,
                    "moves": list(out.path.moves),
                    "values": [fraction_to_str(v) for v in out.values],
                }
            ),
            args.output,
        )
        return 0
    if args.sub == "moduli":
        if args.quiddity:
            frieze = propagate_from_quiddity(_parse_rationals(args.quiddity))
        else:
            frieze = serialize.frieze_from_doc(_read_doc(args.input))
        polygon = polygon_from_frieze(frieze)
        moduli = cross_ratio_coordinates(polygon)
        diag = frieze.diagonal()
        _emit(
            dumps(
                {
                    "polygon": serialize.polygon_to_doc(polygon)["vertices"],
                    "cross_ratios": [fraction_to_str(x) for x in moduli.coordinates],
                    "omega_rank": omega_rank(diag),
                }
            ),
            args.output,
        )
        return 0
    raise AssertionError(args.sub)


# ---------------------------------------------------------------------------
# continuum group


def _family_curve(args):
    if not math.isfinite(args.s):
        raise ValueError(f"--s must be finite, got {args.s}")
    if not math.isfinite(args.c) or args.c == 0.0:
        raise ValueError(f"--c must be finite and nonzero, got {args.c}")
    curve = curve_family(args.family, s=args.s, c=args.c)
    if curve.period is not None:
        curve.require_admissible()
    return curve


def cmd_continuum(args) -> int:
    grid_floor = MIN_LIOUVILLE_GRID if args.sub == "liouville" else 1
    if "grid" in vars(args) and args.grid < grid_floor:
        return _fail(f"--grid must be at least {grid_floor}, got {args.grid}")
    if "h" in vars(args) and not 0.0 < args.h < math.inf:
        return _fail(f"--h must be finite and positive, got {args.h}")
    curve = _family_curve(args)
    lift = lift_curve(curve)
    T = curve.period if curve.period is not None else math.pi

    if args.sub == "hill":
        pot = HillPotential(kappa=lift.kappa, c=curve.c, period=T, dkappa=curve.dkappa)
        sol, mono = hill_solve(pot, steps=args.steps)
        _emit(
            dumps(
                {
                    "monodromy": [[mono[0][0], mono[0][1]], [mono[1][0], mono[1][1]]],
                    "max_dev_from_minus_id": float(np.max(np.abs(np.array(mono) + np.eye(2)))),
                    "antiperiodic": is_antiperiodic(mono),
                    "nonoscillating": is_nonoscillating(pot, steps=args.steps),
                }
            ),
            args.output,
        )
        return 0

    frieze = frieze_from_curve(lift)

    if args.sub == "frieze2d":
        xs = np.linspace(0.0, T, args.grid, endpoint=False)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        values = on_grid(frieze.F, X, Y)
        rows = list(zip(X.ravel().tolist(), Y.ravel().tolist(), values.ravel().tolist()))
        _emit(csv_string(("x", "y", "value"), rows), args.output)
        return 0

    # aperiodic families get a fixed off-diagonal evaluation box
    box = ((0.0, 1.0), (1.5, 3.0)) if frieze.period is None else None

    if args.sub in ("liouville", "curvature"):
        if args.sub == "liouville":
            vals, pts = liouville_residual_field(frieze, grid=args.grid, domain=box)
            summary = {"max_residual": float(vals.max())}
        else:
            vals, pts = curvature_conformal(frieze, grid=args.grid, h=args.h, domain=box)
            summary = {"max_abs_K_plus_1": float(np.max(np.abs(vals + 1.0)))}
        if args.format == "csv":
            rows = [(x, y, v) for (x, y), v in zip(pts, vals.tolist())]
            _emit(csv_string(("x", "y", "value"), rows), args.output)
        else:
            _emit(dumps({**summary, "grid": args.grid}), args.output)
        return 0

    if args.sub == "kirillov":
        pot = HillPotential(kappa=lift.kappa, c=curve.c, period=T, dkappa=curve.dkappa)
        xi = _variation(args.xi)
        eta = _variation(args.eta)
        X = field_from_variation(curve, xi)
        Y = field_from_variation(curve, eta)
        line1, line2 = kirillov_form_fields_both(pot, X, Y, nodes=args.nodes)
        curve_val = kirillov_form_curve(curve, xi, eta, nodes=args.nodes)
        _emit(
            dumps(
                {
                    "fields_line1": line1,
                    "fields_line2": line2,
                    "curve_formula": curve_val,
                    "curve_over_fields": curve_val / line1 if line1 else None,
                }
            ),
            args.output,
        )
        return 0
    raise AssertionError(args.sub)


# ---------------------------------------------------------------------------
# limit group


def cmd_limit(args) -> int:
    curve = _family_curve(args)
    if curve.period is None:
        return _fail(f"family {args.family!r} is not closed; the study needs a period")
    n_list = [int(tok) for tok in args.n.split(",") if tok]
    xi = _variation(args.xi)
    eta = _variation(args.eta)
    report = convergence_study(curve, xi, eta, n_list, nodes=args.nodes)

    rows = [
        (
            r["n"],
            r["discrete"],
            r["integral"],
            r["kirillov_scaled"],
            r["err_integral"],
            r["err_kirillov"],
            r["observed_order"],
        )
        for r in report.rows()
    ]
    if args.format == "csv":
        text = csv_string(
            (
                "n",
                "discrete",
                "integral",
                "kirillov_scaled",
                "err_integral",
                "err_kirillov",
                "observed_order",
            ),
            rows,
        )
    else:
        text = dumps(
            {
                "c": report.c,
                "integral": report.integral,
                "kirillov_curve": report.kirillov_curve,
                "kirillov_scaled": report.kirillov_scaled,
                "records": report.rows(),
            }
        )
    _emit(text, args.output)

    if len(n_list) < 3 or min(n_list) < 100:
        sys.stderr.write("warning: below resolution floor, no pass/fail claim\n")
        return 0
    trivial = all(abs(r.discrete) < 1e-14 for r in report.records) and abs(
        report.kirillov_scaled
    ) < 1e-14
    if trivial:
        return 0
    ok = report.errors_decreasing() and report.final_relative_error() < 1e-2
    return 0 if ok else 3


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ValueError, so main answers it like any bad input."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frieze-lab", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)

    fz = groups.add_parser("frieze", help="exact frieze patterns").add_subparsers(
        dest="sub", required=True
    )
    gen = fz.add_parser("gen", help="quiddity -> frieze JSON")
    gen.add_argument("--quiddity", required=True, help="comma-separated rationals")
    diag = fz.add_parser("diag", help="diagonal -> frieze JSON")
    diag.add_argument("--values", required=True)
    diag.add_argument("--base", type=int, default=None)
    chk = fz.add_parser("check", help="validate a frieze document")
    chk.add_argument("input", nargs="?", default="-", help="path or - for stdin")
    mut = fz.add_parser("mutate", help="flip one zigzag coordinate")
    mut.add_argument("--values", required=True)
    mut.add_argument("--start", type=int, required=True)
    mut.add_argument("--moves", default="", help="comma-separated SE/SW")
    mut.add_argument("--position", type=int, required=True, help="0-based")
    mod = fz.add_parser("moduli", help="polygon and cross-ratio coordinates")
    mod.add_argument("--quiddity", default=None)
    mod.add_argument("--input", default="-")
    for sub in (gen, diag, chk, mut, mod):
        sub.add_argument("--output", "-o", default=None)

    co = groups.add_parser("continuum", help="curves, Hill, Liouville").add_subparsers(
        dest="sub", required=True
    )
    for name, extra in (
        ("hill", ("steps",)),
        ("frieze2d", ("grid",)),
        ("liouville", ("grid", "format")),
        ("curvature", ("grid", "h", "format")),
        ("kirillov", ("nodes", "xi", "eta")),
    ):
        sub = co.add_parser(name)
        sub.add_argument("--family", default="tan", choices=("tan", "linear"))
        sub.add_argument("--s", type=float, default=0.0)
        sub.add_argument("--c", type=float, default=0.5)
        sub.add_argument("--output", "-o", default=None)
        if "steps" in extra:
            sub.add_argument("--steps", type=int, default=None)
        if "grid" in extra:
            sub.add_argument("--grid", type=int, default=48)
        if "h" in extra:
            sub.add_argument("--h", type=float, default=1e-3)
        if "format" in extra:
            sub.add_argument("--format", default="json", choices=("json", "csv"))
        if "nodes" in extra:
            sub.add_argument("--nodes", type=int, default=None)
        if "xi" in extra:
            sub.add_argument("--xi", default="bump1", choices=sorted(VARIATIONS))
            sub.add_argument("--eta", default="bump2", choices=sorted(VARIATIONS))

    li = groups.add_parser("limit", help="discretization studies").add_subparsers(
        dest="sub", required=True
    )
    study = li.add_parser("study")
    study.add_argument("--family", default="tan", choices=("tan", "linear"))
    study.add_argument("--s", type=float, default=0.2)
    study.add_argument("--c", type=float, default=0.5)
    study.add_argument("--n", default="100,200,400,800")
    study.add_argument("--xi", default="bump1", choices=sorted(VARIATIONS))
    study.add_argument("--eta", default="bump2", choices=sorted(VARIATIONS))
    study.add_argument("--nodes", type=int, default=None)
    study.add_argument("--format", default="csv", choices=("csv", "json"))
    study.add_argument("--output", "-o", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.group == "frieze":
            return cmd_frieze(args)
        if args.group == "continuum":
            return cmd_continuum(args)
        if args.group == "limit":
            return cmd_limit(args)
        raise AssertionError(args.group)
    except (FriezeLabError, ValueError, ZeroDivisionError, OSError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
