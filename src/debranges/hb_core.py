"""Hermite-Biehler functions in product form and their phase machinery.

An HBSpec encodes E(z) = scale * e^{i rotation} * e^{-i exp_rate z} * prod_n
(z - z_n) with every z_n strictly below the real axis, so E has no real zeros
and |E#(z)| < |E(z)| in the open upper half-plane.  The inner function
Theta_E = E#/E then has the closed-form unwrapped phase

    phi(x) = C + 2 exp_rate x + 2 sum_n arctan((x - x_n) / yhat_n),

where x_n + i yhat_n are the reflections of the zeros of E.  All operations
are pure functions of immutable inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .numerics import monotone_solve, sup_on_window

__all__ = [
    "SpecError",
    "MembershipError",
    "BracketUnavailableError",
    "HBSpec",
    "PhaseProfile",
    "PhaseSup",
    "HBBarReport",
    "eval_E",
    "eval_E_prime",
    "eval_AB",
    "theta",
    "phase",
    "phase_derivative",
    "phase_derivative_sup",
    "phase_limits",
    "level_crossings",
    "solve_phase_level",
    "phase_bracket",
    "hb_bar_check",
    "upper_half_plane_grid",
    "StructuredEntire",
    "RotationRealPart",
    "Kernel",
    "RealPolynomial",
    "Combination",
    "entire_from_dict",
    "spec_from_dict",
    "spec_to_dict",
    "same_de_branges_space",
]

# Beyond this many zeros the plain complex product risks harmless but ugly
# intermediate overflow; switch to log-magnitude accumulation.
_PLAIN_PRODUCT_LIMIT = 64
# Entries of the points x zeros difference block that the plain product holds
# at once (512 KB); a refined quadrature grid of 131,072 points and 12 zeros
# in one block would take 25 MB.
_PRODUCT_BLOCK = 1 << 15


class SpecError(ValueError):
    """Invalid Hermite-Biehler data."""


class MembershipError(ValueError):
    """A structured function is not certified for the ambient space."""


class BracketUnavailableError(RuntimeError):
    """The phase has too little variation for a B/A-zero bracket."""


@dataclass(frozen=True)
class HBSpec:
    """Product-form Hermite-Biehler function without real zeros.

    exp_rate is the a in the factor e^{-iaz} (half the exponential rate of
    Theta_E), zeros are the zeros of E (all with negative imaginary part),
    rotation multiplies by e^{i rotation}, scale by a positive real.
    """

    exp_rate: float = 0.0
    zeros: Tuple[complex, ...] = ()
    rotation: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        if not (math.isfinite(self.exp_rate) and self.exp_rate >= 0.0):
            raise SpecError(f"exp_rate must be finite and >= 0, got {self.exp_rate}")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise SpecError(f"scale must be finite and > 0, got {self.scale}")
        if not math.isfinite(self.rotation):
            raise SpecError("rotation must be finite")
        for z in self.zeros:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise SpecError(f"non-finite zero {z}")
            if z.imag >= 0.0:
                raise SpecError(
                    f"zero {z} is not in the open lower half-plane; "
                    "E must have no real zeros"
                )
        if self.exp_rate == 0.0 and not self.zeros:
            raise SpecError(
                "degenerate spec: exp_rate = 0 with no zeros makes E constant "
                "and phi' identically zero"
            )

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @property
    def is_paley_wiener(self) -> bool:
        return self.exp_rate > 0.0

    @property
    def is_polynomial(self) -> bool:
        return self.exp_rate == 0.0


def _scalar_if_0d(z, out, kind=complex):
    """out as a Python scalar of the given kind when z is a scalar."""
    return kind(out) if np.ndim(z) == 0 else out


@lru_cache(maxsize=512)
def _zero_data(spec: HBSpec):
    """Real parts and (positive) reflected imaginary parts of the zeros."""
    xs = np.array([z.real for z in spec.zeros])
    ys = np.array([-z.imag for z in spec.zeros])
    return xs, ys


def eval_E(spec: HBSpec, z, conjugate: bool = False):
    """Evaluate E(z), or E#(z) = conj(E(conj z)) when conjugate is set.

    Vectorized over z.  Uses the plain complex product up to 64 zeros and
    log-magnitude accumulation beyond, for overflow safety.
    """
    zz = np.asarray(z, dtype=complex)
    sgn = -1.0 if conjugate else 1.0
    roots = np.conj(np.array(spec.zeros)) if conjugate else np.array(spec.zeros)
    head = spec.scale * np.exp(
        1j * sgn * spec.rotation - 1j * sgn * spec.exp_rate * zz
    )
    if spec.degree == 0:
        out = head
    elif spec.degree <= _PLAIN_PRODUCT_LIMIT:
        # a large input goes in blocks of points, so the points x zeros
        # differences never exceed _PRODUCT_BLOCK entries; every point's
        # product is the same bits either way
        step = max(1, _PRODUCT_BLOCK // spec.degree)
        if zz.size <= step:
            prod = np.multiply.reduce(zz[..., None] - roots, axis=-1)
        else:
            flat, prod = zz.reshape(-1), np.empty(zz.size, dtype=complex)
            for i in range(0, zz.size, step):
                block = flat[i : i + step, None] - roots
                np.multiply.reduce(block, axis=-1, out=prod[i : i + step])
            prod = prod.reshape(zz.shape)
        out = head * prod
    else:
        diffs = zz[..., None] - roots
        logmag = (
            math.log(spec.scale)
            + np.sum(np.log(np.abs(diffs)), axis=-1)
            + sgn * spec.exp_rate * zz.imag
        )
        arg = (
            sgn * spec.rotation
            - sgn * spec.exp_rate * zz.real
            + np.sum(np.angle(diffs), axis=-1)
        )
        out = np.exp(logmag) * np.exp(1j * arg)
    return _scalar_if_0d(z, out)


def eval_E_prime(spec: HBSpec, z, conjugate: bool = False):
    """Analytic derivative E'(z) via the logarithmic derivative.

    E'/E = -i exp_rate + sum_n 1/(z - z_n) away from the zeros; exact for the
    product form.
    """
    zz = np.asarray(z, dtype=complex)
    sgn = -1.0 if conjugate else 1.0
    roots = np.conj(np.array(spec.zeros)) if conjugate else np.array(spec.zeros)
    logd = -1j * sgn * spec.exp_rate * np.ones_like(zz)
    if spec.degree:
        logd = logd + np.sum(1.0 / (zz[..., None] - roots), axis=-1)
    out = eval_E(spec, zz, conjugate=conjugate) * logd
    return _scalar_if_0d(z, out)


def eval_AB(spec: HBSpec, beta: float, x):
    """(A_beta(x), B_beta(x)): real and imaginary parts of e^{i beta} E(x)."""
    w = _scalar_if_0d(x, np.exp(1j * beta) * eval_E(spec, np.asarray(x, dtype=float)))
    return w.real, w.imag


def theta(spec: HBSpec, x):
    """The meromorphic inner function Theta_E = E#/E on the real axis."""
    xx = np.asarray(x, dtype=float)
    return eval_E(spec, xx, conjugate=True) / eval_E(spec, xx)


@dataclass(frozen=True)
class PhaseProfile:
    """Closed-form unwrapped phase of Theta_E with an anchored branch.

    The branch is fixed by phi(anchor_point) = anchor_value; when the anchor
    value is omitted it defaults to the principal argument of
    Theta_E(anchor_point) in (-pi, pi].  A supplied value must be consistent
    with Theta_E at the anchor (branches only differ by multiples of 2 pi).
    """

    spec: HBSpec
    anchor_point: float = 0.0
    anchor_value: Optional[float] = None
    # phi(x) - the unanchored arctan sum; fixed by the anchor
    offset: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.anchor_point):
            raise SpecError("anchor_point must be finite")
        principal = cmath.phase(complex(theta(self.spec, self.anchor_point)))
        if principal <= -math.pi:  # cmath.phase returns (-pi, pi]; guard -pi
            principal += 2 * math.pi
        if self.anchor_value is None:
            object.__setattr__(self, "anchor_value", principal)
        else:
            gap = (self.anchor_value - principal) / (2 * math.pi)
            if abs(gap - round(gap)) > 1e-9:
                raise SpecError(
                    f"anchor_value {self.anchor_value} is not a branch of "
                    f"arg Theta_E({self.anchor_point}) = {principal} mod 2 pi"
                )
        unanchored = float(_unanchored_phase(self.spec, self.anchor_point))
        object.__setattr__(self, "offset", self.anchor_value - unanchored)

    def __call__(self, x):
        return phase(self, x)


def _unanchored_phase(spec: HBSpec, x):
    xx = np.asarray(x, dtype=float)
    acc = 2.0 * spec.exp_rate * xx
    if spec.degree:
        xs, ys = _zero_data(spec)
        acc = acc + 2.0 * np.sum(
            np.arctan((xx[..., None] - xs) / ys), axis=-1
        )
    return acc


def phase(profile: PhaseProfile, x):
    """phi(x): strictly increasing, with e^{i phi(x)} = Theta_E(x)."""
    out = _unanchored_phase(profile.spec, x) + profile.offset
    return _scalar_if_0d(x, out, float)


def phase_derivative(spec: HBSpec, x):
    """phi'(x) = 2 exp_rate + 2 sum_n yhat_n / ((x - x_n)^2 + yhat_n^2) > 0."""
    xx = np.asarray(x, dtype=float)
    acc = 2.0 * spec.exp_rate * np.ones_like(xx)
    if spec.degree:
        xs, ys = _zero_data(spec)
        d = xx[..., None] - xs
        acc = acc + 2.0 * np.sum(ys / (d * d + ys * ys), axis=-1)
    return _scalar_if_0d(x, acc, float)


class PhaseSup(NamedTuple):
    """Supremum of phi' and where it is attained.

    location is None when the supremum is only approached as |x| -> infinity
    (possible only for pure-exponential specs, where phi' is constant).
    """

    value: float
    location: Optional[float]


def phase_derivative_sup(spec: HBSpec) -> PhaseSup:
    """sup over the real line of phi', refined around each zero's bump.

    phi' is a finite sum of unimodal bumps over the constant 2*exp_rate, so a
    coarse 64-point grid per bump plus golden-section refinement localizes
    the maximum; the tail value 2*exp_rate is always strictly smaller when
    zeros are present.
    """
    if spec.degree == 0:
        return PhaseSup(2.0 * spec.exp_rate, None)
    xs, ys = _zero_data(spec)
    scans = [((x - 3.0 * y, x + 3.0 * y), 64) for x, y in zip(xs, ys)]
    # a hull scan guards against maxima falling between bump windows
    scans.append(((float(np.min(xs - 3.0 * ys)), float(np.max(xs + 3.0 * ys))), 256))
    best_v, best_x = max(
        (
            sup_on_window(lambda t: phase_derivative(spec, t), w, n, refine_tol=1e-14)
            for w, n in scans
        ),
        key=lambda vx: vx[0],
    )
    return PhaseSup(float(best_v), float(best_x))


def phase_limits(profile: PhaseProfile) -> Tuple[float, float]:
    """(phi(-inf), phi(+inf)); infinite for Paley-Wiener specs."""
    spec = profile.spec
    if spec.exp_rate > 0.0:
        return -math.inf, math.inf
    total = math.pi * spec.degree
    return profile.offset - total, profile.offset + total


def solve_phase_level(
    profile: PhaseProfile, level: float, start: float, tol: float = 1e-14
) -> float:
    """The unique x with phi(x) = level, bracketed outward from start.

    Raises BracketUnavailableError when the level lies outside the phase
    range (phi(-inf), phi(+inf)), i.e. phi never reaches it.  The bracket
    grows geometrically from start, in steps of 2 pi / phi'(start), before
    the monotone bisection/Newton inversion; inside the range the growth
    ends, since phi is continuous and reaches every level.
    """
    lo_lim, hi_lim = phase_limits(profile)
    if not lo_lim < level < hi_lim:
        raise BracketUnavailableError(
            f"phase level {level} is outside the phase range ({lo_lim}, "
            f"{hi_lim}): total phase variation insufficient"
        )
    side = 1.0 if level >= phase(profile, start) else -1.0
    step = 2 * math.pi / phase_derivative(profile.spec, start)
    while side * (phase(profile, start + side * step) - level) < 0.0:
        step *= 2.0
    probe = start + side * step
    return monotone_solve(
        lambda t: phase(profile, t),
        level,
        (min(start, probe), max(start, probe)),
        tol=tol,
        dg=lambda t: phase_derivative(profile.spec, t),
    )


def phase_bracket(
    spec: HBSpec, alpha: float, xi: float, offset: float, tol: float = 1e-8
) -> Tuple[float, float]:
    """The points left and right of xi where phi = phi(xi) -+ offset.

    xi must lie on the 2*alpha phase level, i.e. B_alpha(xi) = 0 within tol
    relative to |E(xi)|.  Offsets 2 pi, pi and pi/2 give the neighbouring
    zeros of B_alpha, those of A_alpha, and the |A_alpha/E|^2 >= 1/2
    plateau edges.
    """
    _, b = eval_AB(spec, alpha, xi)
    if abs(b) > tol * abs(complex(eval_E(spec, xi))):
        raise ValueError(f"B_alpha({xi}) = {b} is not zero; alpha does not match xi")
    profile = PhaseProfile(spec)
    phi_xi = phase(profile, xi)
    return (
        solve_phase_level(profile, phi_xi - offset, xi),
        solve_phase_level(profile, phi_xi + offset, xi),
    )


def level_crossings(
    profile: PhaseProfile,
    target_mod_2pi: float,
    window: Tuple[float, float],
    tol: float = 1e-13,
) -> np.ndarray:
    """All solutions of phi(x) = target (mod 2 pi) inside a finite window.

    With target = 2*beta + pi these are exactly the zeros of A_beta, with
    target = 2*beta the zeros of B_beta.  Monotone bisection/Newton on the
    closed-form phase, each level bracketed from the previous root;
    returns a sorted array, possibly empty.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window must be finite and nonempty, got ({lo}, {hi})")
    philo = phase(profile, lo)
    phihi = phase(profile, hi)
    two_pi = 2 * math.pi
    kmin = math.ceil((philo - target_mod_2pi) / two_pi - 1e-12)
    kmax = math.floor((phihi - target_mod_2pi) / two_pi + 1e-12)
    roots = []
    start = lo
    for k in range(kmin, kmax + 1):
        level = target_mod_2pi + two_pi * k
        if level < philo - 1e-12 or level > phihi + 1e-12:
            continue
        start = solve_phase_level(profile, level, start, tol)
        roots.append(start)
    return np.clip(np.array(roots), lo, hi)


@dataclass(frozen=True)
class HBBarReport:
    """Result of sampling |g#(z)| <= |g(z)| over an upper-half-plane grid."""

    worst_ratio: float
    passed: bool
    n_checked: int
    n_skipped: int
    skipped_points: Tuple[complex, ...]


def hb_bar_check(
    g,
    g_sharp,
    sample_grid,
    tol: float = 1e-12,
) -> HBBarReport:
    """Check |g#(z)| <= |g(z)| (1 + tol) on upper-half-plane samples.

    g and g_sharp are vectorized complex evaluators.  Points where g
    vanishes to working precision are skipped and reported, since the ratio
    is undefined there.
    """
    pts = np.asarray(sample_grid, dtype=complex).ravel()
    if np.any(pts.imag <= 0):
        raise ValueError("all sample points must have positive imaginary part")
    gv = np.asarray(g(pts), dtype=complex)
    gs = np.asarray(g_sharp(pts), dtype=complex)
    mag = np.abs(gv)
    floor = 1e-14 * float(np.max(mag)) if mag.size else 0.0
    ok = mag > floor
    ratios = np.abs(gs[ok]) / mag[ok]
    worst = float(np.max(ratios)) if ratios.size else 0.0
    skipped = tuple(complex(p) for p in pts[~ok])
    return HBBarReport(
        worst_ratio=worst,
        passed=worst <= 1.0 + tol,
        n_checked=int(np.count_nonzero(ok)),
        n_skipped=len(skipped),
        skipped_points=skipped,
    )


def upper_half_plane_grid(
    x_window: Tuple[float, float] = (-5.0, 5.0),
    y_range: Tuple[float, float] = (0.05, 4.0),
    nx: int = 32,
    ny: int = 32,
) -> np.ndarray:
    """nx-by-ny grid of points strictly above the real axis."""
    xs = np.linspace(x_window[0], x_window[1], nx)
    ys = np.geomspace(y_range[0], y_range[1], ny)
    return (xs[:, None] + 1j * ys[None, :]).ravel()


# ---------------------------------------------------------------------------
# Structured members of H^infinity(E)
# ---------------------------------------------------------------------------


def same_de_branges_space(a: HBSpec, b: HBSpec) -> bool:
    """Whether two specs generate the same spaces (rotation is immaterial)."""
    return (
        a.exp_rate == b.exp_rate
        and a.scale == b.scale
        and sorted(a.zeros, key=lambda z: (z.real, z.imag))
        == sorted(b.zeros, key=lambda z: (z.real, z.imag))
    )


class StructuredEntire:
    """A certified real entire member of H^infinity(E).

    Every node evaluates anywhere in the plane and satisfies f = f# by
    construction.  certify() checks the membership certificate against an
    ambient spec; poly_coeffs() returns exact real monomial coefficients when
    the ambient space is polynomial-type.
    """

    def eval(self, z):
        raise NotImplementedError

    def __call__(self, z):
        return self.eval(z)

    def eval_sharp(self, z):
        """f#(z) = conj(f(conj z)); equals f for these real entire nodes."""
        return self.eval(z)

    def certify(self, ambient: HBSpec) -> None:
        raise NotImplementedError

    def poly_coeffs(self, ambient: HBSpec) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


def _as_real_coeffs(c: np.ndarray, what: str) -> np.ndarray:
    scale = float(np.max(np.abs(c))) if c.size else 0.0
    if scale and float(np.max(np.abs(c.imag))) > 1e-12 * scale:
        raise ArithmeticError(f"{what}: coefficients failed to come out real")
    out = np.real(c).astype(float)
    # drop trailing rounding noise so degrees are meaningful
    tol = 1e-13 * scale
    n = out.size
    while n > 1 and abs(out[n - 1]) <= tol:
        n -= 1
    return out[:n]


def _e_poly_coeffs(spec: HBSpec, conjugate: bool = False) -> np.ndarray:
    """Monomial coefficients of polynomial-type E (or E#). Complex."""
    if not spec.is_polynomial:
        raise ValueError("E is not a polynomial (exp_rate > 0)")
    roots = [complex(z).conjugate() if conjugate else complex(z) for z in spec.zeros]
    c = np.polynomial.polynomial.polyfromroots(roots) if roots else np.array([1.0 + 0j])
    sgn = -1.0 if conjugate else 1.0
    return spec.scale * np.exp(1j * sgn * spec.rotation) * c


class RotationRealPart(StructuredEntire):
    """A_beta of a spec: the real part of e^{i beta} E on the real axis."""

    def __init__(self, spec: HBSpec, beta: float):
        if not math.isfinite(beta):
            raise SpecError("beta must be finite")
        self.spec = spec
        self.beta = float(beta)

    def eval(self, z):
        zz = np.asarray(z, dtype=complex)
        w = 0.5 * (
            np.exp(1j * self.beta) * eval_E(self.spec, zz)
            + np.exp(-1j * self.beta) * eval_E(self.spec, zz, conjugate=True)
        )
        return _scalar_if_0d(z, w)

    def certify(self, ambient: HBSpec) -> None:
        if same_de_branges_space(self.spec, ambient):
            return
        if self.spec.degree == 0 and self.spec.exp_rate <= ambient.exp_rate:
            # pure exponential of smaller type: bounded, type within budget
            return
        raise MembershipError(
            "RotationRealPart is only certified for its own space or, for "
            "pure-exponential specs, an ambient space of at least its type"
        )

    def poly_coeffs(self, ambient: HBSpec) -> np.ndarray:
        if not self.spec.is_polynomial:
            raise ValueError("not polynomial-type")
        c = 0.5 * (
            np.exp(1j * self.beta) * _e_poly_coeffs(self.spec)
            + np.exp(-1j * self.beta) * _e_poly_coeffs(self.spec, conjugate=True)
        )
        return _as_real_coeffs(c, "RotationRealPart")

    def to_dict(self) -> dict:
        return {
            "kind": "rotation_real_part",
            "spec": spec_to_dict(self.spec),
            "beta": self.beta,
        }


class Kernel(StructuredEntire):
    """The reproducing kernel K_t of H^2(E) at a real node t.

    K_t(z) = [E(z) conj(E(t)) - E#(z) conj(E#(t))] / (2 pi i (t - z)), with
    the removable singularity at z = t filled by (1/2pi) |E(t)|^2 phi'(t).
    Near the diagonal the quotient loses eps/|z - t| digits to cancellation,
    so a quadratic Taylor form (exact E derivatives through third order)
    bridges |z - t| below 1e-4 (1 + |t|); its value at t is the diagonal
    formula exactly.
    """

    _DIAGONAL_WINDOW = 1e-4

    def __init__(self, spec: HBSpec, t: float):
        if not math.isfinite(t):
            raise SpecError("kernel node must be finite")
        self.spec = spec
        self.t = float(t)
        # E(t), E#(t) and the numerator jet depend on t alone: once per kernel
        self._et = complex(eval_E(spec, self.t))
        self._ets = complex(eval_E(spec, self.t, conjugate=True))
        self._jet = self._numerator_jet()

    def diagonal(self) -> float:
        """K_t(t) = (1/2 pi) |E(t)|^2 phi'(t)."""
        return abs(self._et) ** 2 * phase_derivative(self.spec, self.t) / (2 * math.pi)

    def _numerator_jet(self):
        """(N', N'', N''') of N(z) = E(z) conj(E(t)) - E#(z) conj(E#(t)) at t."""
        out = []
        for conjugate, e in ((False, self._et), (True, self._ets)):
            roots = (
                np.conj(np.array(self.spec.zeros))
                if conjugate
                else np.array(self.spec.zeros)
            )
            sgn = -1.0 if conjugate else 1.0
            d = self.t - roots if self.spec.degree else np.array([])
            l1 = -1j * sgn * self.spec.exp_rate + (np.sum(1.0 / d) if d.size else 0.0)
            l2 = -(np.sum(1.0 / d ** 2) if d.size else 0.0)
            l3 = 2.0 * (np.sum(1.0 / d ** 3) if d.size else 0.0)
            out.append(
                (e * l1, e * (l1 * l1 + l2), e * (l1 ** 3 + 3 * l1 * l2 + l3))
            )
        (e1, e2, e3), (s1, s2, s3) = out
        ct, cts = np.conj(self._et), np.conj(self._ets)
        return (e1 * ct - s1 * cts, e2 * ct - s2 * cts, e3 * ct - s3 * cts)

    def eval(self, z):
        zz = np.asarray(z, dtype=complex)
        e, es = eval_E(self.spec, zz), eval_E(self.spec, zz, conjugate=True)
        return _scalar_if_0d(z, self._from_E(zz, e, es))

    def _from_E(self, zz, e, es):
        """K_t at the complex array zz from E(zz) and E#(zz): the values are
        the same for every kernel of one spec, so a kernel sum computes them
        once per point set."""
        num = e * np.conj(self._et) - es * np.conj(self._ets)
        den = 2j * math.pi * (self.t - zz)
        near = np.abs(zz - self.t) < self._DIAGONAL_WINDOW * (1.0 + abs(self.t))
        n1, n2, n3 = self._jet
        u = zz - self.t
        taylor = -(n1 + n2 * u / 2.0 + n3 * u * u / 6.0) / (2j * math.pi)
        return np.where(near, taylor, num / np.where(near, 1.0, den))

    def certify(self, ambient: HBSpec) -> None:
        if same_de_branges_space(self.spec, ambient):
            return
        if self.spec.degree == 0 and self.spec.exp_rate <= ambient.exp_rate:
            return
        raise MembershipError(
            "Kernel is only certified for its own space or, for "
            "pure-exponential specs, an ambient space of at least its type"
        )

    def poly_coeffs(self, ambient: HBSpec) -> np.ndarray:
        if not self.spec.is_polynomial:
            raise ValueError("not polynomial-type")
        num = np.conj(self._et) * _e_poly_coeffs(self.spec) - np.conj(
            self._ets
        ) * _e_poly_coeffs(self.spec, conjugate=True)
        # numerator vanishes at t; deflate by (z - t) via Horner division
        q, rem = _deflate(num, self.t)
        if abs(rem) > 1e-10 * (1.0 + float(np.max(np.abs(num)))):
            raise ArithmeticError("kernel numerator did not vanish at its node")
        return _as_real_coeffs(q / (-2j * math.pi), "Kernel")

    def to_dict(self) -> dict:
        return {"kind": "kernel", "spec": spec_to_dict(self.spec), "t": self.t}


def _deflate(coeffs: np.ndarray, root: complex):
    """Divide a monomial-coefficient polynomial by (z - root)."""
    n = coeffs.size
    q = np.zeros(n - 1, dtype=complex)
    acc = coeffs[n - 1]
    for k in range(n - 2, -1, -1):
        q[k] = acc
        acc = coeffs[k] + root * acc
    return q, acc


class RealPolynomial(StructuredEntire):
    """Real polynomial in monomial coefficients (constant first)."""

    def __init__(self, coefficients: Sequence[float]):
        c = np.asarray(list(coefficients), dtype=float)
        if c.size == 0:
            raise SpecError("empty coefficient list")
        if not np.all(np.isfinite(c)):
            raise SpecError("non-finite coefficient")
        self.coefficients = c

    @property
    def degree(self) -> int:
        nz = np.nonzero(self.coefficients)[0]
        return int(nz[-1]) if nz.size else 0

    def eval(self, z):
        zz = np.asarray(z, dtype=complex)
        out = np.polynomial.polynomial.polyval(zz, self.coefficients)
        return _scalar_if_0d(z, out)

    def certify(self, ambient: HBSpec) -> None:
        if not ambient.is_polynomial:
            raise MembershipError(
                "polynomials are unbounded against a Paley-Wiener weight"
            )
        if self.degree > ambient.degree - 1:
            raise MembershipError(
                f"degree {self.degree} exceeds the H^inf cap "
                f"{ambient.degree - 1} for this spec"
            )

    def poly_coeffs(self, ambient: HBSpec) -> np.ndarray:
        return self.coefficients.copy()

    def to_dict(self) -> dict:
        return {"kind": "polynomial", "coefficients": list(map(float, self.coefficients))}


class Combination(StructuredEntire):
    """Real-linear combination of structured members."""

    def __init__(self, terms: Iterable[Tuple[float, StructuredEntire]]):
        terms = tuple((float(w), node) for w, node in terms)
        if not terms:
            raise SpecError("empty combination")
        for w, node in terms:
            if not math.isfinite(w):
                raise SpecError("non-finite weight")
            if not isinstance(node, StructuredEntire):
                raise SpecError(f"not a structured member: {node!r}")
        self.terms = terms

    def eval(self, z):
        acc = self.terms[0][0] * np.asarray(self.terms[0][1].eval(z))
        for w, node in self.terms[1:]:
            acc = acc + w * np.asarray(node.eval(z))
        return _scalar_if_0d(z, acc)

    def certify(self, ambient: HBSpec) -> None:
        for _, node in self.terms:
            node.certify(ambient)

    def poly_coeffs(self, ambient: HBSpec) -> np.ndarray:
        parts = [node.poly_coeffs(ambient) * w for w, node in self.terms]
        n = max(p.size for p in parts)
        out = np.zeros(n)
        for p in parts:
            out[: p.size] += p
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "combination",
            "terms": [[w, node.to_dict()] for w, node in self.terms],
        }


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------


def spec_to_dict(spec: HBSpec) -> dict:
    return {
        "exp_rate": spec.exp_rate,
        "zeros": [[z.real, z.imag] for z in spec.zeros],
        "rotation": spec.rotation,
        "scale": spec.scale,
    }


def spec_from_dict(d: dict) -> HBSpec:
    if not isinstance(d, dict):
        raise SpecError(f"spec must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - {"exp_rate", "zeros", "rotation", "scale"}
    if unknown:
        raise SpecError(f"unknown spec fields: {sorted(unknown)}")
    try:
        zeros = tuple(complex(float(re), float(im)) for re, im in d.get("zeros", []))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"zeros must be [[re, im], ...]: {exc}") from exc
    try:
        return HBSpec(
            exp_rate=float(d.get("exp_rate", 0.0)),
            zeros=zeros,
            rotation=float(d.get("rotation", 0.0)),
            scale=float(d.get("scale", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(str(exc)) from exc


def entire_from_dict(d: dict) -> StructuredEntire:
    """Parse the tagged JSON tree for structured members."""
    if not isinstance(d, dict) or "kind" not in d:
        raise SpecError("structured function must be a JSON object with a 'kind'")
    kind = d["kind"]
    if kind == "rotation_real_part":
        return RotationRealPart(spec_from_dict(d["spec"]), float(d["beta"]))
    if kind == "kernel":
        return Kernel(spec_from_dict(d["spec"]), float(d["t"]))
    if kind == "polynomial":
        return RealPolynomial(d["coefficients"])
    if kind == "combination":
        return Combination(
            (float(w), entire_from_dict(sub)) for w, sub in d["terms"]
        )
    raise SpecError(f"unknown structured-function kind {kind!r}")
