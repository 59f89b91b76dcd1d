"""End-to-end verification of the generalized Hormander lower bound.

For a real entire member f of H^inf(E) attaining f(xi) = |E(xi)| ||f/E||_inf,
and alpha with E(xi) = e^{-i alpha} |E(xi)|, the function satisfies
f(x) >= ||f/E||_inf A_alpha(x) between the zeros of B_alpha that bracket xi.
This module locates the extremal point, builds the bracket from phase
levels, runs the dense-grid margin check with worst-node refinement, and
evaluates the local expansion (double zero of f - A_alpha, positive
curvature, increasing -B_alpha) at xi.  Without a window, xi comes from one
scan of the whole line through x = c + s tan(theta), checked against the
exact limit of |f/E| at infinity (OverflowError where f and E overflow on it,
kernels of the spec's own space aside: pass a window); on polynomial specs
each peak is pinned by bisecting the slope of log|f/E|.

Verification is grid-based to numerical precision, not interval-rigorous.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np
from numpy.polynomial import polynomial as P

from .hb_core import (
    BracketUnavailableError,
    Combination,
    HBSpec,
    Kernel,
    PhaseProfile,
    RotationRealPart,
    StructuredEntire,
    eval_AB,
    eval_E,
    phase,
    phase_bracket,
    phase_limits,
    rotate,
    same_de_branges_space,
    solve_phase_level,
)
from .numerics import _refine_max, golden_max, monotone_solve

__all__ = [
    "BracketUnavailableError",
    "WrongSignError",
    "MaxAtInfinityError",
    "LocalExpansion",
    "HormanderReport",
    "locate_extremum",
    "bracket_B_zeros",
    "bracket_A_zeros",
    "verify_theorem1",
    "verify_sign_free",
    "local_expansion_check",
]

EntireLike = Union[StructuredEntire, Callable[[np.ndarray], np.ndarray]]

class WrongSignError(RuntimeError):
    """f is negative at every extremal point; use verify_sign_free."""


class MaxAtInfinityError(RuntimeError):
    """|f/E| approaches its supremum only as |x| -> infinity."""


def _real_eval(f: EntireLike) -> Callable[[np.ndarray], np.ndarray]:
    return lambda x: np.real(np.asarray(f(np.asarray(x, dtype=float))))


def bracket_B_zeros(
    spec: HBSpec, alpha: float, xi: float, tol: float = 1e-8
) -> Tuple[float, float]:
    """Zeros of B_alpha immediately left and right of xi, from phase levels.

    Requires B_alpha(xi) = 0 (within tol, relative to |E(xi)|), which is
    automatic when alpha is taken from E(xi) = e^{-i alpha} |E(xi)|.  The
    bracketing zeros solve phi(b) = phi(xi) -+ 2 pi.
    """
    return phase_bracket(spec, alpha, xi, 2 * math.pi, tol)


def bracket_A_zeros(
    spec: HBSpec, alpha: float, xi: float, tol: float = 1e-8
) -> Tuple[float, float]:
    """Zeros of A_alpha immediately left and right of xi: phi(a) = phi(xi) -+ pi."""
    return phase_bracket(spec, alpha, xi, math.pi, tol)


# ---------------------------------------------------------------------------
# Locating the extremum of f/|E|
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Candidate:
    x: float
    value: float  # |f(x)| / |E(x)|
    sign: int  # sign of f(x)


def _rotation_candidates(f: RotationRealPart, spec: HBSpec) -> List[_Candidate]:
    """Extremal points of |A_beta / E|: the zeros of B_beta nearest 0.

    |A_beta/E| = |cos(beta - phi/2)| <= 1 with equality exactly on the phase
    level 2*beta (mod 2 pi); at the crossing of the level 2*beta + 2 pi k the
    sign of A_beta is (-1)^k times a sign fixed by the spec.
    """
    beta_rel = f.beta + f.spec.rotation - spec.rotation
    profile = PhaseProfile(spec)
    lo_lim, hi_lim = phase_limits(profile)
    two_pi = 2 * math.pi
    k0 = round((phase(profile, 0.0) - 2 * beta_rel) / two_pi)
    # A_beta = |E| cos(beta_rel + arg E) with arg E = rotation + N pi/2 -
    # (phi - offset)/2, i.e. |E| cos(pi (j - k)) on the level, for the integer
    # j below; reading the sign off E itself overflows at far crossings
    j = round((profile.offset + 2 * spec.rotation + spec.degree * math.pi) / two_pi)
    # the seven levels around phi(0): callers take the crossings nearest 0
    ks = np.arange(k0 - 3, k0 + 4)
    levels = 2 * beta_rel + two_pi * ks
    inside = (lo_lim < levels) & (levels < hi_lim)
    if not inside.any():
        raise MaxAtInfinityError(
            "B_beta has no real zeros: |f/E| approaches its supremum only at "
            "infinity for this rotation"
        )
    xs = solve_phase_level(profile, levels[inside], 0.0)
    out = [
        _Candidate(x=x, value=1.0, sign=1 if (j - k) % 2 == 0 else -1)
        for x, k in zip(xs.tolist(), ks[inside].tolist())
    ]
    out.sort(key=lambda c: abs(c.x))
    return out


def _log_ratio_slope(coeffs: np.ndarray, spec: HBSpec) -> Callable[[np.ndarray], np.ndarray]:
    """(log|f/E|)' = f'/f - sum_n (x - x_n) / ((x - x_n)^2 + yhat_n^2) on a
    polynomial spec, from f's monomial coefficients: no |E|^2 is formed."""
    dc = P.polyder(coeffs)

    def slope(x):
        d = x[:, None] - spec.x_n
        with np.errstate(divide="ignore", invalid="ignore"):
            df_f = P.polyval(x, dc) / P.polyval(x, coeffs)
        return df_f - np.sum(d / (d * d + spec.yhat_n ** 2), axis=1)

    return slope


def _grid_candidates(
    ratio: Callable[[np.ndarray], np.ndarray],
    fval: Callable[[np.ndarray], np.ndarray],
    xs: np.ndarray,
    vals: np.ndarray,
    coeffs: Optional[np.ndarray],
    spec: HBSpec,
) -> List[_Candidate]:
    """Refine the maxima of ratio scanned as vals on the increasing grid xs:
    golden section between a peak's neighbours, then, given f's monomial
    coefficients, one lockstep bisection of the slope of log|f/E| on every
    bracket where it falls through 0.  That pins xi where value comparison
    stalls at sqrt(eps); a bisected point is kept only if not lower."""
    n_grid = xs.size
    # refine every interior local maximum near the global level; the screen
    # uses parabolic vertex estimates since raw grid values carry O(h^2) bias
    idx = [
        i
        for i in range(1, n_grid - 1)
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]
    ]
    idx += [0] if vals[0] > vals[1] else []
    idx += [n_grid - 1] if vals[-1] > vals[-2] else []
    est = {}
    for i in idx:
        v = vals[i]
        if 0 < i < n_grid - 1:
            den = 2 * vals[i] - vals[i - 1] - vals[i + 1]
            if den > 0:
                v = vals[i] + (vals[i + 1] - vals[i - 1]) ** 2 / (8 * den)
        est[i] = v
    peak = max(est.values())
    near = np.array([i for i in idx if not est[i] < peak * (1.0 - 1e-6)], dtype=int)
    lo_n, hi_n = xs[np.maximum(near - 1, 0)], xs[np.minimum(near + 1, n_grid - 1)]
    vs, xr = golden_max(ratio, lo_n, hi_n, tol=1e-13)
    if coeffs is not None:
        slope = _log_ratio_slope(coeffs, spec)
        i = np.flatnonzero((slope(lo_n) > 0.0) & (slope(hi_n) < 0.0))
        xb = monotone_solve(lambda x: -slope(x), 0.0, (lo_n[i], hi_n[i]), tol=1e-15)
        vb = ratio(xb)
        keep = vb >= vs[i] * (1.0 - 1e-12)
        xr[i[keep]], vs[i[keep]] = xb[keep], vb[keep]
    cands = list(zip(xr.tolist(), vs.tolist()))
    best = max(v for _, v in cands)
    out = []
    for x, v in cands:
        if v >= best * (1.0 - 1e-9):  # a tie with the best
            sgn = 1 if float(fval(np.array([x]))[0]) >= 0 else -1
            out.append(_Candidate(x=x, value=v, sign=sgn))
    # deduplicate refinements that collapsed to the same point
    out.sort(key=lambda c: c.x)
    dedup: List[_Candidate] = []
    for c in out:
        if dedup and abs(c.x - dedup[-1].x) < 1e-10 * (1.0 + abs(c.x)):
            continue
        dedup.append(c)
    dedup.sort(key=lambda c: abs(c.x))
    return dedup


def _whole_line_scan(
    f: StructuredEntire,
    coeffs: np.ndarray,
    spec: HBSpec,
    ratio: Callable[[np.ndarray], np.ndarray],
    n_grid: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """|f/E| on x = c + s tan(theta), theta evenly spaced inside (-pi/2, pi/2).

    c and s are the midpoint and (at least 1) the half-width of the range of
    the zeros' real parts, so the grid is densest where E varies.  Where f
    and E overflow, a kernel of the spec's own space takes its phase form
    |E(t)| |sin((phi(x) - phi(t))/2)| / (pi |x - t|), free of E at x.
    """
    n = spec.degree
    if coeffs.size - 1 > n:
        raise MaxAtInfinityError("deg f > deg E: the ratio f/E is unbounded")
    re = [complex(z).real for z in spec.zeros] or [0.0]
    c = 0.5 * (max(re) + min(re))
    s = max(1.0, 0.5 * (max(re) - min(re)))
    theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_grid + 2)[1:-1]
    xs = c + s * np.tan(theta)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(ratio(xs), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any() and isinstance(f, Kernel) and same_de_branges_space(f.spec, spec):
        profile = PhaseProfile(spec, f.t)
        half = 0.5 * (phase(profile, xs[bad]) - profile.anchor_value)
        vals[bad] = abs(eval_E(spec, f.t)) * np.abs(np.sin(half)) / (math.pi * np.abs(xs[bad] - f.t))
    if not np.all(np.isfinite(vals)):
        raise OverflowError(
            "|f/E| is not representable in floating point on the scan of the "
            "whole line (f and E overflow); pass a window"
        )
    limit = abs(float(coeffs[-1])) / spec.scale if coeffs.size - 1 == n else 0.0
    scanned = float(np.max(vals))
    if limit >= scanned:
        raise MaxAtInfinityError(
            f"|f/E| tends to {limit} at infinity, at least its scanned "
            f"maximum {scanned}, so the supremum need not be attained"
        )
    return xs, vals


def _as_scaled_rotation(f: EntireLike) -> Optional[Tuple[float, RotationRealPart]]:
    """Unwrap w * A_beta (a Combination with one rotation term): -A_beta is
    A_{beta+pi}, so scalar multiples stay on the exact phase route."""
    if isinstance(f, RotationRealPart):
        return 1.0, f
    if isinstance(f, Combination) and len(f.terms) == 1:
        w, node = f.terms[0]
        if isinstance(node, RotationRealPart) and w != 0.0:
            beta = node.beta if w > 0 else node.beta + math.pi
            return abs(w), RotationRealPart(node.spec, beta)
    return None


def _candidates(
    f: EntireLike,
    spec: HBSpec,
    window: Optional[Tuple[float, float]],
    n_grid: int,
) -> List[_Candidate]:
    scaled = _as_scaled_rotation(f)
    if scaled is not None and same_de_branges_space(scaled[1].spec, spec):
        w, rot = scaled
        return [
            _Candidate(x=c.x, value=w * c.value, sign=c.sign)
            for c in _rotation_candidates(rot, spec)
        ]
    structured = isinstance(f, StructuredEntire) and spec.is_polynomial
    if window is None and not structured:
        raise ValueError(
            "an explicit window is required for Paley-Wiener specs and for raw "
            "callables (the whole-line scan only covers structured members on "
            "polynomial-type specs)"
        )
    fe = _real_eval(f)

    def ratio(x):
        return np.abs(fe(x)) / np.abs(eval_E(spec, np.asarray(x, dtype=float)))

    coeffs = None
    if window is None:
        coeffs = f.poly_coeffs(spec)
        xs, vals = _whole_line_scan(f, coeffs, spec, ratio, n_grid)
    else:
        xs = np.linspace(float(window[0]), float(window[1]), n_grid)
        vals = np.asarray(ratio(xs), dtype=float)
        if structured:
            try:
                coeffs = f.poly_coeffs(spec)
            except (ValueError, ArithmeticError):
                pass
    return _grid_candidates(ratio, fe, xs, vals, coeffs, spec)


def locate_extremum(
    f: EntireLike,
    spec: HBSpec,
    window: Optional[Tuple[float, float]] = None,
    n_grid: int = 4096,
) -> Tuple[float, float]:
    """(xi, ||f/E||_inf estimate): argmax of |f/|E|| with smallest |xi|.

    Without a window, |f/E| is scanned once on the whole line through
    x = c + s tan(theta) and checked against its exact limit at infinity
    (OverflowError where it is not representable there, kernels of the
    spec's own space aside: pass a window).
    Ties (periodic functions in Paley-Wiener space) break to the argmax of
    smallest absolute value, for determinism.
    """
    cands = _candidates(f, spec, window, n_grid)
    norm = max(c.value for c in cands)
    xi = min((c for c in cands), key=lambda c: (abs(c.x), c.x)).x
    return xi, norm


# ---------------------------------------------------------------------------
# Local expansion at the extremal point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalExpansion:
    """(Omega, Omega', Omega'', Gamma') at xi with their sign/zero flags.

    Omega_alpha = f - A_alpha must vanish to second order at xi with
    nonnegative curvature; Gamma_alpha = -B_alpha must be increasing there.
    """

    omega: float
    omega_d1: float
    omega_d2: float
    gamma_d1: float
    zero_ok: bool
    flat_ok: bool
    convex_ok: bool
    gamma_increasing_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.zero_ok and self.flat_ok and self.convex_ok and self.gamma_increasing_ok

    def to_dict(self) -> dict:
        return {
            "omega": self.omega,
            "omega_d1": self.omega_d1,
            "omega_d2": self.omega_d2,
            "gamma_d1": self.gamma_d1,
            "zero_ok": self.zero_ok,
            "flat_ok": self.flat_ok,
            "convex_ok": self.convex_ok,
            "gamma_increasing_ok": self.gamma_increasing_ok,
        }


def local_expansion_check(
    f: EntireLike,
    spec: HBSpec,
    xi: float,
    alpha: float,
    step: Optional[float] = None,
    tol: float = 1e-9,
) -> LocalExpansion:
    """Finite-difference check of the local structure at the extremal point.

    f must already be normalized: f(xi) = e^{i alpha} E(xi) = |E(xi)| up to
    tolerance.  Five-point central stencils; the default step is 1e-4 times
    the B_alpha bracket width when available.
    """
    fe = _real_eval(f)
    if step is None:
        try:
            b_l, b_r = bracket_B_zeros(spec, alpha, xi, tol=1e-6)
            step = 1e-4 * (b_r - b_l)
        except (BracketUnavailableError, ValueError):
            step = 1e-4 * (1.0 + abs(xi))

    h = step
    xs = xi + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    a, b = eval_AB(spec, alpha, xs)
    om = fe(xs) - a  # omega = f - A_alpha
    ga = -b  # gamma = -B_alpha
    om_xi = om[2]
    om_d1 = (om[0] - 8 * om[1] + 8 * om[3] - om[4]) / (12 * h)
    om_d2 = (-om[0] + 16 * om[1] - 30 * om[2] + 16 * om[3] - om[4]) / (12 * h * h)
    ga_d1 = (ga[0] - 8 * ga[1] + 8 * ga[3] - ga[4]) / (12 * h)
    s = max(1.0, abs(complex(eval_E(spec, xi))))
    return LocalExpansion(
        omega=float(om_xi),
        omega_d1=float(om_d1),
        omega_d2=float(om_d2),
        gamma_d1=float(ga_d1),
        zero_ok=abs(om_xi) <= tol * s,
        flat_ok=abs(om_d1) <= max(tol, 1e-7) * s,
        convex_ok=om_d2 >= -max(tol, 1e-6) * s,
        gamma_increasing_ok=ga_d1 > 0.0,
    )


# ---------------------------------------------------------------------------
# Theorem verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HormanderReport:
    """Margin profile and local data for one lower-bound verification.

    margin holds the raw values f(x) - ||f/E||_inf A_alpha(x) (with |f| in
    the sign-free variant); the pass decision uses the margin scaled by
    norm * max(1, |E(x)|), which is what the tolerance refers to.
    """

    kind: str
    xi: float
    alpha: float
    norm: float
    bracket: Tuple[float, float]
    margin_x: np.ndarray
    margin: np.ndarray
    min_margin: float
    min_margin_scaled: float
    worst_x: float
    equality_gap: float
    tolerance: float
    passed: bool
    local: LocalExpansion

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "xi": self.xi,
            "alpha": self.alpha,
            "norm": self.norm,
            "bracket": list(self.bracket),
            "min_margin": self.min_margin,
            "min_margin_scaled": self.min_margin_scaled,
            "worst_x": self.worst_x,
            "equality_gap": self.equality_gap,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "local_expansion": self.local.to_dict(),
            "n_margin_nodes": int(self.margin_x.size),
        }

    def margin_rows(self):
        """(x, margin) rows for the CSV profile."""
        return np.column_stack([self.margin_x, self.margin])


def _verify(
    f: EntireLike,
    spec: HBSpec,
    tol: float,
    window: Optional[Tuple[float, float]],
    n_grid: int,
    sign_free: bool,
) -> HormanderReport:
    cands = _candidates(f, spec, window, max(n_grid, 1024))
    norm = max(c.value for c in cands)
    if not sign_free:
        usable = [c for c in cands if c.sign > 0]
        if not usable:
            raise WrongSignError(
                "f is negative at every extremal point; the signed theorem "
                "needs f(xi) = +|E(xi)| ||f/E||_inf (use verify_sign_free)"
            )
    else:
        usable = list(cands)
    usable.sort(key=lambda c: (abs(c.x), c.x))

    # smallest-|x| extremal point whose bracket exists; degenerate specs can
    # lack a zero of B_alpha (A_alpha) on one side of an extreme candidate
    xi = alpha = lo = hi = e_xi = sgn = None
    last_err: Optional[BracketUnavailableError] = None
    for cand in usable:
        e_c = complex(eval_E(spec, cand.x))
        alpha_c = -cmath.phase(e_c)
        try:
            if sign_free:
                lo, hi = bracket_A_zeros(spec, alpha_c, cand.x)
            else:
                lo, hi = bracket_B_zeros(spec, alpha_c, cand.x)
        except BracketUnavailableError as err:
            last_err = err
            continue
        # sgn is the sign of f(xi): +1 in the signed theorem, whose usable
        # candidates all have f(xi) > 0
        xi, alpha, e_xi, sgn = cand.x, alpha_c, e_c, float(cand.sign)
        break
    if xi is None:
        raise last_err or BracketUnavailableError("no usable extremal point")

    fe = _real_eval(f)

    def margins(x):
        """The raw margin f - norm A_alpha (|f| when sign-free) at the array x,
        and its scaled form raw / (norm max(1, |E|)), from one E."""
        e = eval_E(spec, x)
        fx = fe(x)
        if sign_free:
            fx = np.abs(fx)
        raw = fx - norm * rotate(e, alpha)[0]
        return raw, raw / (norm * np.maximum(1.0, np.abs(e)))

    xs = np.linspace(lo, hi, n_grid)
    raw, scaled = margins(xs)
    # the scan is the margin grid itself; only the refinement evaluates anew
    neg_worst, worst_x = _refine_max(lambda x: -margins(x)[1], xs, -scaled, 1e-13)
    min_scaled, worst_x = -float(neg_worst[0]), float(worst_x[0])
    min_raw = min(float(np.min(raw)), float(margins(np.array([worst_x]))[0][0]))
    e_s = max(1.0, abs(e_xi))
    equality_gap = abs(float(margins(np.array([xi]))[0][0])) / norm
    equality_ok = equality_gap <= tol * e_s

    def normalized(x):
        return sgn * fe(np.asarray(x, dtype=float)) / norm

    # the signed bracket is the B_alpha bracket the default step is made of
    step = None if sign_free else 1e-4 * (hi - lo)
    local = local_expansion_check(normalized, spec, xi, alpha, step=step, tol=tol)
    passed = (min_scaled >= -tol) and equality_ok and lo < xi < hi
    return HormanderReport(
        kind="sign_free" if sign_free else "theorem1",
        xi=xi,
        alpha=alpha,
        norm=norm,
        bracket=(lo, hi),
        margin_x=xs,
        margin=raw,
        min_margin=min_raw,
        min_margin_scaled=min_scaled,
        worst_x=worst_x,
        equality_gap=equality_gap,
        tolerance=tol,
        passed=passed,
        local=local,
    )


def verify_theorem1(
    f: EntireLike,
    spec: HBSpec,
    tol: float = 1e-9,
    window: Optional[Tuple[float, float]] = None,
    n_grid: int = 2048,
) -> HormanderReport:
    """Verify f(x) >= ||f/E||_inf A_alpha(x) on the B_alpha-zero bracket.

    Locates xi with f(xi) = +|E(xi)| ||f/E||_inf (raising WrongSignError if
    the maximum is attained only with the negative sign), takes alpha from
    E(xi) = e^{-i alpha} |E(xi)|, and margin-checks the inequality on a
    2048-node grid with golden refinement at the worst node.  Without a
    window xi comes from one scan of the whole line through x = c + s
    tan(theta), as in locate_extremum (OverflowError: pass a window).
    """
    return _verify(f, spec, tol, window, n_grid, sign_free=False)


def verify_sign_free(
    f: EntireLike,
    spec: HBSpec,
    tol: float = 1e-9,
    window: Optional[Tuple[float, float]] = None,
    n_grid: int = 2048,
) -> HormanderReport:
    """Verify |f(x)| >= ||f/E||_inf A_alpha(x) on the A_alpha-zero bracket."""
    return _verify(f, spec, tol, window, n_grid, sign_free=True)
