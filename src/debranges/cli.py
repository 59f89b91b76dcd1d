"""Command-line front end.

Parses JSON problem specifications, dispatches to the library modules, and
emits machine-readable JSON reports plus optional CSV profiles.  Exit codes:
0 success/verified, 1 a mathematical assertion failed (the failing invariant
is named), 2 input/schema error, 3 numerical non-convergence.

Reports are deterministic given (config, seed), apart from the wall-clock
field; floats are emitted in Python's shortest round-trip representation,
which re-reads to the identical double.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import bounds as B
from . import extremal as X
from .acceptance import run_all
from .hb_core import (
    PhaseProfile,
    RotationRealPart,
    SpecError,
    entire_from_dict,
    phase,
    phase_derivative,
    phase_derivative_sup,
    spec_from_dict,
)
from .hormander import (
    BracketUnavailableError,
    MaxAtInfinityError,
    WrongSignError,
    verify_sign_free,
    verify_theorem1,
)
from .numerics import NonConvergenceError

__all__ = ["main", "run", "validate_report"]

TOL_ENV_VAR = "DEBRANGES_TOL"

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SpecError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON in {path}: {exc}") from exc


def _write_report(report: dict, out: Optional[str]) -> None:
    payload = json.dumps(_jsonable(report), indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _write_csv(rows, header: Sequence[str], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) for v in row])


def _default_tol(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get(TOL_ENV_VAR)
    if env:
        try:
            return float(env)
        except ValueError as exc:
            raise SpecError(f"{TOL_ENV_VAR} must be a float, got {env!r}") from exc
    return 1e-9


def _parse_window(text: Optional[str]):
    if text is None:
        return None
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise SpecError(f"--window must be LO,HI, got {text!r}") from exc
    if not lo < hi:
        raise SpecError(f"--window must satisfy LO < HI, got {text!r}")
    return lo, hi


REPORT_KEYS = {
    "phase": {"anchor_point", "anchor_value", "phase_sup", "phase_sup_location"},
    "verify-hormander": {"kind", "xi", "alpha", "norm", "bracket", "min_margin_scaled", "passed"},
    "bounds": {"p", "K_p", "C_bound", "C_bound_nonasymptotic_pth_power", "phase_sup"},
    "extremal": {"p", "xi", "C_value", "zeros", "kkt_residual"},
    "separation": {"min_gap", "delta", "a_zero_gap", "passed"},
    "selftest": {"criteria", "all_passed"},
}


def validate_report(report: dict) -> None:
    """Check an emitted report against the documented shape; raises SpecError."""
    for key in ("command", "inputs", "values", "tolerances", "passed", "wall_time_s"):
        if key not in report:
            raise SpecError(f"report is missing the required key {key!r}")
    cmd = report["command"]
    if cmd not in REPORT_KEYS:
        raise SpecError(f"unknown report command {cmd!r}")
    missing = REPORT_KEYS[cmd] - set(report["values"])
    if missing:
        raise SpecError(f"report values missing {sorted(missing)}")


def _cmd_phase(args) -> dict:
    spec = spec_from_dict(_load_json(args.spec))
    profile = PhaseProfile(spec)
    sup = phase_derivative_sup(spec)
    window = _parse_window(args.window) or (-5.0, 5.0)
    values = {
        "anchor_point": profile.anchor_point,
        "anchor_value": profile.anchor_value,
        "phase_sup": sup.value,
        "phase_sup_location": "at infinity" if sup.location is None else sup.location,
        "phase_at_window": [phase(profile, window[0]), phase(profile, window[1])],
        "window": list(window),
    }
    if args.csv:
        xs = np.linspace(window[0], window[1], 512)
        _write_csv(
            zip(xs, phase(profile, xs), phase_derivative(spec, xs)),
            ["x", "phi", "phi_prime"],
            args.csv,
        )
    return {"values": values, "passed": True, "tolerances": {}}


def _cmd_verify_hormander(args) -> dict:
    spec = spec_from_dict(_load_json(args.spec))
    tol = _default_tol(args)
    if args.f:
        f = entire_from_dict(_load_json(args.f))
        f.certify(spec)
    else:
        f = RotationRealPart(spec, args.alpha or 0.0)
    window = _parse_window(args.window)
    verify = verify_sign_free if args.sign_free else verify_theorem1
    rep = verify(f, spec, tol=tol, window=window)
    if args.csv:
        _write_csv(rep.margin_rows(), ["x", "margin"], args.csv)
    out = {"values": rep.to_dict(), "passed": rep.passed, "tolerances": {"margin": tol}}
    if not rep.passed:
        out["failed_invariant"] = "hormander-lower-bound-margin"
    return out


def _cmd_bounds(args) -> dict:
    if args.p is None:
        raise SpecError("bounds requires --p")
    if args.spec:
        spec = spec_from_dict(_load_json(args.spec))
        sup = phase_derivative_sup(spec)
        phase_sup = sup.value
        extra = {"phase_sup_location": "at infinity" if sup.location is None else sup.location}
        if args.p == 2.0:
            value, attained, loc = B.C2_embedding_norm(spec)
            extra["C2_exact"] = value
            extra["C2_attained"] = attained
    else:
        phase_sup = 2 * math.pi
        extra = {"note": "no spec given; Paley-Wiener phase_sup = 2 pi assumed"}
    report = B.make_bound_report(args.p, phase_sup)
    if args.csv:
        ps = np.linspace(0.5, 50.0, 100)
        rows = [
            (
                p,
                B.K_p_closed(p),
                B.embedding_bound(p, phase_sup),
                B.nonasymptotic_bound_pth_power(p, phase_sup),
                B.asymptotic_check(p) if p >= 1 else float("nan"),
            )
            for p in ps
        ]
        _write_csv(rows, ["p", "K_p", "bound", "nonasymptotic_pth_power", "ratio"], args.csv)
    values = report.to_dict()
    values.update(extra)
    return {"values": values, "passed": True, "tolerances": {"wendel_chain": 1e-12}}


def _make_problem(args) -> X.ExtremalProblem:
    spec = spec_from_dict(_load_json(args.spec))
    if args.p is None or args.xi is None:
        raise SpecError("extremal/separation require --p and --xi")
    if spec.is_paley_wiener:
        window = _parse_window(args.window)
        if window is None:
            raise SpecError("Paley-Wiener extremal problems need --window LO,HI")
        nodes = np.linspace(window[0], window[1], args.nodes or 9)
        basis = X.KernelNodeBasis(tuple(float(t) for t in nodes))
        return X.ExtremalProblem(
            p=args.p, spec=spec, xi=args.xi, basis=basis, window=window
        )
    degree = args.degree if args.degree is not None else spec.degree - 2
    return X.ExtremalProblem(
        p=args.p, spec=spec, xi=args.xi, basis=X.PolynomialBasis(degree)
    )


def _cmd_extremal(args) -> dict:
    problem = _make_problem(args)
    sol = X.solve(problem, seed=args.seed)
    if args.csv:
        spread = 2.0 + max((abs(z) for z in problem.spec.zeros), default=2.0)
        xs = np.linspace(problem.xi - 3 * spread, problem.xi + 3 * spread, 1024)
        from .hb_core import eval_E

        vals = np.abs(np.real(sol.eval(xs))) / np.abs(eval_E(problem.spec, xs))
        _write_csv(zip(xs, vals), ["x", "f_over_absE"], args.csv)
    values = sol.to_dict()
    tol = {"kkt": problem.kkt_tol}
    return {"values": values, "passed": True, "tolerances": tol}


def _cmd_separation(args) -> dict:
    problem = _make_problem(args)
    sol = X.solve(problem, seed=args.seed)
    rep = X.separation_report(sol, problem)
    values = rep.to_dict()
    values["zeros"] = list(sol.zeros)
    values["C_value"] = sol.C_value
    out = {"values": values, "passed": rep.passed, "tolerances": {"min_gap": 0.0}}
    if not rep.passed:
        out["failed_invariant"] = "extremal-zero-separation"
    return out


def _cmd_selftest(args) -> dict:
    results = run_all(seed=args.seed or 0, verbose=True)
    values = {
        "criteria": [
            {
                "id": r.cid,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
                "elapsed_s": r.elapsed,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    out = {"values": values, "passed": values["all_passed"], "tolerances": {}}
    if not values["all_passed"]:
        failed = [r.cid for r in results if not r.passed]
        out["failed_invariant"] = f"acceptance-criteria {failed}"
    return out


_COMMANDS = {
    "phase": _cmd_phase,
    "verify-hormander": _cmd_verify_hormander,
    "bounds": _cmd_bounds,
    "extremal": _cmd_extremal,
    "separation": _cmd_separation,
    "selftest": _cmd_selftest,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="debranges",
        description="Hermite-Biehler phase machinery, lower-bound verification, "
        "embedding bounds, and point-evaluation extremal problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("phase", "phase function, derivative, and supremum of a spec"),
        ("verify-hormander", "margin-check the lower bound for a member"),
        ("bounds", "K(p) and embedding-norm bounds"),
        ("extremal", "solve a point-evaluation extremal problem"),
        ("separation", "zero-separation diagnostics of an extremal function"),
        ("selftest", "run the embedded acceptance suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", help="path to an HBSpec JSON file")
        p.add_argument("--f", help="path to a structured-function JSON file")
        p.add_argument("--p", type=float, help="exponent p")
        p.add_argument("--xi", type=float, help="evaluation point")
        p.add_argument("--alpha", type=float, help="rotation angle")
        p.add_argument("--window", help="LO,HI window")
        p.add_argument("--out", help="write the JSON report here (default stdout)")
        p.add_argument("--csv", help="write the CSV profile here")
        p.add_argument("--tol", type=float, help=f"tolerance override (or ${TOL_ENV_VAR})")
        p.add_argument("--seed", type=int, help="seed for randomized suites")
        p.add_argument("--degree", type=int, help="polynomial basis degree cap")
        p.add_argument("--nodes", type=int, help="kernel-node count (Paley-Wiener mode)")
        p.add_argument("--sign-free", action="store_true", help="use the |f| variant")
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    inputs = {
        k: v
        for k, v in vars(args).items()
        if k != "command" and v is not None and v is not False
    }
    try:
        body = _COMMANDS[args.command](args)
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NonConvergenceError, X.ComplexZeroError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (WrongSignError, BracketUnavailableError, MaxAtInfinityError, ArithmeticError) as exc:
        # a bare ArithmeticError is a failed invariant check (Wendel chain,
        # interval energy, kernel numerator, real coefficients, sign change)
        # whose message names the invariant
        print(f"mathematical assertion failed ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report = {
        "command": args.command,
        "inputs": inputs,
        "values": body["values"],
        "tolerances": body["tolerances"],
        "passed": body["passed"],
        "wall_time_s": time.perf_counter() - t0,
    }
    if "failed_invariant" in body:
        report["failed_invariant"] = body["failed_invariant"]
    validate_report(report)
    _write_report(report, args.out)
    return EXIT_OK if body["passed"] else EXIT_ASSERTION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
