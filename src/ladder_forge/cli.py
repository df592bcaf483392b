"""Command line front end.

Subcommands cover the three layers of the package: the operator DSL
(``parse``, ``commutator``), the exact algebra checks (``verify-algebra``,
``casimir``), the factorization-family transforms (``transform``) and the
numerical Coulomb verification (``coulomb-verify``, ``coulomb-residual``).

Reports are emitted as text or JSON.  The JSON document always has the shape

    {"command": ..., "params": {...},
     "rows": [{"name", "expected", "actual", "residual", "pass"}, ...],
     "pass": bool}

with every numeric value rendered as a decimal string (exact rationals keep
their p/q form) so the output is stable across platforms.

Exit status: 0 when every check passed, 1 when a verification failed, 2 on
usage or expression errors.  ``--tol`` overrides the tolerance of the
numerical subcommands; every bound the CLI checks, and its default, is one of
``coulomb``'s named bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import factorizations, generators, opalgebra, opdsl


def _num(value):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (Fraction, int)):
        return str(value)
    return f"{float(value):.12e}"


def _row(name, expected, actual, residual, passed) -> dict:
    return {
        "name": name,
        "expected": _num(expected),
        "actual": _num(actual),
        "residual": _num(residual),
        "pass": bool(passed),
    }


def _finite(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {raw!r}")
    return value


def _tolerance(raw: str) -> float:
    value = _finite(raw)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {raw!r}")
    return value


def _at_least(minimum: int):
    def count(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {raw!r}")
        return value
    return count


def _rational(raw: str) -> Fraction:
    limit = sys.get_int_max_str_digits()  # 0 when unlimited
    try:  # printing fails past int's digit limit: fail here, not in the report after the work
        _, e, exponent = raw.lower().partition("e")
        if e and limit and abs(int(exponent)) > limit:  # before Fraction builds 10**exponent
            raise ValueError(raw)
        return Fraction(str(Fraction(raw)))
    except (ValueError, ZeroDivisionError):
        shown = raw if len(raw) <= 40 else raw[:40] + "..."
        raise argparse.ArgumentTypeError(
            f"must be a rational number, got {shown!r} (each part within Python's int digit limit)") from None


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2)
    else:
        lines = [f"{report['command']}"]
        for row in report["rows"]:
            parts = [row["name"]]
            for key in ("expected", "actual", "residual"):
                if row[key] is not None:
                    parts.append(f"{key}={row[key]}")
            parts.append("PASS" if row["pass"] else "FAIL")
            lines.append("  " + "  ".join(parts))
        lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _finish(command: str, params: dict, rows: list[dict], args) -> int:
    overall = all(row["pass"] for row in rows)
    report = {"command": command, "params": params, "rows": rows, "pass": overall}
    _emit(report, args)
    return 0 if overall else 1


def _cmd_parse(args) -> int:
    expr = opdsl.parse(args.expression)
    return _finish("parse", {"expression": args.expression},
                   [_row("normal-form", None, opdsl.render(expr), None, True)], args)


def _cmd_commutator(args) -> int:
    left = opdsl.parse(args.left)
    right = opdsl.parse(args.right)
    result = opalgebra.commutator(left, right)
    rows = [_row("commutator", None, opdsl.render(result), None, True)]
    return _finish("commutator", {"left": args.left, "right": args.right}, rows, args)


def _report_rows(reports) -> list[dict]:
    return [_row(rep.name, 0, opdsl.render(rep.residual), None, rep.passed) for rep in reports]


def _cmd_verify_algebra(args) -> int:
    which = args.algebra
    algebra = generators.ALGEBRAS[which]
    rows = _report_rows(algebra.reports())
    closure = generators.closure_report(which)
    expected = algebra.dimension
    rows.append(_row(f"{which} closure dimension", expected, closure.dimension,
                     abs(closure.dimension - expected),
                     closure.closed and closure.dimension == expected))
    return _finish("verify-algebra", {"algebra": which}, rows, args)


def _cmd_casimir(args) -> int:
    return _finish("casimir", {}, _report_rows(generators.casimir_reports()), args)


def _transform_rows(result) -> list[dict]:
    rows = [_row("target.family", None, result.target.family, None, True)]
    for key, value in sorted(vars(result.target).items()):
        rows.append(_row(f"target.{key}", None, value, None, True))
    for key, value in result.quantum_map.items():
        rows.append(_row(key, None, value, None, True))
    if result.epsilon is not None:
        rows.append(_row("epsilon", None, result.epsilon, None, True))
    rows.append(_row("scale_s", None, result.scale_s, None, True))
    return rows


def _cmd_transform(args) -> int:
    q = args.q
    params = {"route": args.route, "q": str(q), "l": args.l, "m": args.m}
    if args.route == "f2b":
        result = factorizations.f_to_b(q, args.l, args.m)
    elif args.route == "f2c":
        result = factorizations.f_to_c(q, args.l, args.m, args.eps)
        params["eps"] = args.eps
    else:
        first = factorizations.f_to_b(q, args.l, args.m)
        result = factorizations.b_to_c(
            first.target,
            first.quantum_map["lbar+cbar"],
            first.quantum_map["mbar+cbar"],
            args.eps,
        )
        params["eps"] = args.eps
    return _finish("transform", params, _transform_rows(result), args)


def _action_rows(reports) -> list[dict]:
    rows = []
    for rep in reports:
        label = f"{rep.operator} {rep.source}"
        if rep.annihilation:
            rows.append(_row(label + " annihilated", 0.0, rep.measured,
                             rep.measured, rep.passed))
        else:
            residual = max(rep.coefficient_error, rep.profile_residual)
            rows.append(_row(label, rep.expected, rep.measured, residual, rep.passed))
    return rows


def _cmd_coulomb_verify(args) -> int:
    from . import coulomb  # numpy loads here; the algebra subcommands never load it
    # each row's quadrature order follows the largest principal label it reaches: T+ lifts t_max to
    # n = t_max + 1, and A+ or B+ lifts the largest odd mu + nu the weyl grid holds by half a level
    top = min(args.mu_max + args.nu_max, 2 * args.nu_max - 1)  # the largest odd mu + nu is top - 1 + top % 2
    for flags, n in ((f"--t-max {args.t_max}", args.t_max + 1),
                     (f"--mu-max {args.mu_max} with --nu-max {args.nu_max}", Fraction(top + 1 + top % 2, 2))):
        order = coulomb.normalization_order(n)
        if order > coulomb.MAX_QUAD_ORDER:
            raise ValueError(f"{flags} needs quadrature order {order}, past the float limit {coulomb.MAX_QUAD_ORDER}")
    Z = args.Z
    sweeps = coulomb.sweep_su11(args.t_max, Z, args.tol) + coulomb.sweep_weyl(args.mu_max, args.nu_max, Z, args.tol)
    rows = _action_rows(sweeps)

    states = [coulomb.state_tm(t, m, Z) for t in range(1, args.t_max + 1) for m in range(t)]
    worst_norm = max(map(coulomb.normalization_residual, states))
    rows.append(_row("normalization worst", 0.0, worst_norm, worst_norm,
                     worst_norm <= coulomb.NORM_TOL))
    worst_cas = max(map(coulomb.casimir_residual, states))
    rows.append(_row("casimir worst", 0.0, worst_cas, worst_cas,
                     worst_cas <= (args.tol or coulomb.PROFILE_TOL)))
    ground_munu, ground_tm = coulomb.state_munu(0, 1, Z), coulomb.state_tm(1, 0, Z)
    same = (ground_munu.munu == ground_tm.munu
            and ground_munu.norm_sq == ground_tm.norm_sq)
    rows.append(_row("labelings agree on ground state", True, same, None, same))

    shift_ok = True
    for rep in sweeps:
        if rep.annihilation:
            continue
        cs = coulomb.charge_shift(coulomb.make_state(rep.family, rep.source, Z),
                                  rep.operator)
        shift_ok = shift_ok and cs.gamma_invariant and cs.energy_invariant
    rows.append(_row("gamma and energy invariant under charge shift",
                     True, shift_ok, None, shift_ok))

    params = {"Z": str(Z), "t_max": args.t_max, "mu_max": args.mu_max,
              "nu_max": args.nu_max,
              "tol": _num(args.tol) if args.tol is not None else None}
    return _finish("coulomb-verify", params, rows, args)


def _cmd_coulomb_residual(args) -> int:
    from . import coulomb
    tol = args.tol or coulomb.PROFILE_TOL  # --tol is positive when given
    Z = args.Z
    if not 0 <= args.L < args.n:  # state_tm's own message names its labels (t, m), not the flags
        raise ValueError(f"need --n >= 1 and 0 <= --L <= --n - 1, got --n {args.n} --L {args.L}")
    state = coulomb.state_tm(args.n, args.L, Z)
    norm = coulomb.normalization_residual(state)  # first: it refuses a state past the quadrature ceiling
    resid = coulomb.schrodinger_residual(state)
    control = coulomb.schrodinger_residual(state, lambda_shift=args.shift)
    rows = [
        _row("schrodinger residual", 0.0, resid, resid, resid <= tol),
        _row("detuned control", abs(args.shift), control, abs(control - abs(args.shift)),
             control >= coulomb.DETUNED_FLOOR),
        _row("normalization", 0.0, norm, norm, norm <= coulomb.NORM_TOL),
    ]
    if args.dump:
        nodes, _ = coulomb.gauss_laguerre(coulomb.DEFAULT_QUAD_ORDER)
        psi = state.radial(nodes / float(state.gamma))
        with open(args.dump, "w") as fh:
            fh.write("rho,psi\n")
            for rho, value in zip(nodes, psi):
                fh.write(f"{rho:.16e},{value:.16e}\n")
    params = {"Z": str(Z), "n": args.n, "L": args.L, "shift": _num(args.shift)}
    return _finish("coulomb-residual", params, rows, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladder-forge",
        description="exact ladder-operator algebra with numerical verification",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="PATH", help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="normal-order an operator expression")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("commutator", help="commutator of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_commutator)

    p = sub.add_parser("verify-algebra", help="commutation table and closure")
    p.add_argument("algebra", choices=tuple(generators.ALGEBRAS))
    p.set_defaults(func=_cmd_verify_algebra)

    p = sub.add_parser("casimir", help="quadratic invariant identities")
    p.set_defaults(func=_cmd_casimir)

    p = sub.add_parser("transform", help="map between factorization families")
    p.add_argument("route", choices=("f2b", "f2c", "b2c"))
    p.add_argument("--q", type=_rational, required=True, help="rational coupling, e.g. -3 or -3/2")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=int, choices=(1, -1), default=1)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("coulomb-verify", help="ladder actions on bound states")
    p.add_argument("--Z", type=_rational, default="1", help="rational charge")
    p.add_argument("--t-max", type=_at_least(1), default=6, dest="t_max")
    p.add_argument("--mu-max", type=_at_least(0), default=5, dest="mu_max")
    p.add_argument("--nu-max", type=_at_least(0), default=7, dest="nu_max")
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=_cmd_coulomb_verify)

    p = sub.add_parser("coulomb-residual", help="radial equation residual")
    p.add_argument("--Z", type=_rational, default="1", help="rational charge")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--shift", type=_finite, default=0.1,
                   help="eigenvalue detuning of the radial equation in rho = gamma r units, "
                        "for the negative control")
    p.add_argument("--tol", type=_tolerance, default=None)
    p.add_argument("--dump", metavar="PATH", help="write rho,psi samples as CSV")
    p.set_defaults(func=_cmd_coulomb_residual)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the DSL's lex and syntax errors, unwritable paths
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
