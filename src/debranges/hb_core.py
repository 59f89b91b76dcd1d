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
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .numerics import _refine_max, monotone_solve

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
    "rotate",
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

# Entries of the points x zeros array that a sum or product over the zeros
# (_reduce_over_zeros) holds at once (512 KB); a refined quadrature grid of
# 131,072 points and 12 zeros in one block would take 25 MB, the coarse phi'
# scans of phase_derivative_sup at N = 256 over 30 MB.
_PRODUCT_BLOCK = 1 << 15

# Real inputs of at least _REAL_AXIS_MIN points take eval_E's zeros-major
# product, in blocks of _REAL_AXIS_BLOCK points: at 1,024 points it is slower
# than the reduce from N = 24 zeros on, at 2,048 faster for N = 3 to 256.
_REAL_AXIS_MIN = 2048
_REAL_AXIS_BLOCK = 8192


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
    # read-only arrays of the zeros, their conjugates, and the x_n and yhat_n
    # of the phase (real parts and reflected imaginary parts); fixed by zeros
    roots: np.ndarray = field(init=False, repr=False, compare=False)
    conj_roots: np.ndarray = field(init=False, repr=False, compare=False)
    x_n: np.ndarray = field(init=False, repr=False, compare=False)
    yhat_n: np.ndarray = field(init=False, repr=False, compare=False)
    # phase_derivative_sup's result, kept on the first call
    _phase_sup: Optional[PhaseSup] = field(
        default=None, init=False, repr=False, compare=False
    )

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
        roots = np.array(self.zeros, dtype=complex)
        for name, arr in (
            ("roots", roots),
            ("conj_roots", np.conj(roots)),
            ("x_n", roots.real.copy()),
            ("yhat_n", -roots.imag),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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


def _reduce_over_zeros(fn, x: np.ndarray, n_zeros: int, dtype=float) -> np.ndarray:
    """fn over the points of x in blocks of at most _PRODUCT_BLOCK points x
    zeros entries, in x's shape.

    fn maps an array of points to one value per point, reducing over the
    last axis of the points x zeros array it forms; this is the only place
    such arrays arise.  An input within one block goes to fn whole, in its
    own shape; a larger one in 1-D blocks.  Each point's value has the same
    bits either way.

    eval_E's product over a points x zeros array walks each point's row
    with a scalar accumulator, acc <- acc * (x - z_n) as re = ar br - ai bi,
    im = ar bi + ai br, one rounding per float operation.  On real points
    _real_axis_product makes the same operations zeros-major, with
    br = x - Re z_n and bi = -Im z_n, so both orders give the same bits.
    """
    step = max(1, _PRODUCT_BLOCK // n_zeros)
    if x.size <= step:
        return fn(x)
    flat = x.reshape(-1)
    out = np.empty(flat.size, dtype=dtype)
    for i in range(0, flat.size, step):
        out[i : i + step] = fn(flat[i : i + step])
    return out.reshape(x.shape)


def _real_axis_product(x: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """prod_n (x - roots_n) at real points x, zeros-major, with the bits of
    the complex reduce (see _reduce_over_zeros).  Each block keeps the
    running product as two float vectors: numpy fuses an elementwise complex
    multiply, which differs in the last bit."""
    flat = x.reshape(-1)
    out = np.empty(flat.size, dtype=complex)
    shifts, bis = roots.real.tolist(), (-roots.imag).tolist()
    for i in range(0, flat.size, _REAL_AXIS_BLOCK):
        xb = flat[i : i + _REAL_AXIS_BLOCK]
        re, im = xb - shifts[0], np.full_like(xb, bis[0])
        br, t, s = np.empty_like(xb), np.empty_like(xb), np.empty_like(xb)
        for shift, bi in zip(shifts[1:], bis[1:]):
            np.subtract(xb, shift, out=br)
            np.subtract(np.multiply(re, br, out=t), np.multiply(im, bi, out=s), out=t)
            np.add(np.multiply(re, bi, out=s), np.multiply(im, br, out=br), out=im)
            re, t = t, re
        out.real[i : i + _REAL_AXIS_BLOCK] = re
        out.imag[i : i + _REAL_AXIS_BLOCK] = im
    return out.reshape(x.shape)


def eval_E(spec: HBSpec, z, conjugate: bool = False):
    """Evaluate E(z), or E#(z) = conj(E(conj z)) when conjugate is set.

    Vectorized over z.  One plain complex product over the zeros at every
    degree; where a partial product leaves the floating-point range the
    value is not finite, and the callers that need a finite E (Kernel and
    hormander's whole-line scan) raise OverflowError.  The product runs in
    one of two orders with the same roundings, so with the same bits: a
    real input of at least _REAL_AXIS_MIN points goes zeros-major through
    float vectors (_real_axis_product), any other input point by point
    through numpy's complex reduce (_reduce_over_zeros).
    """
    arr = np.asarray(z)
    zz = np.asarray(arr, dtype=complex)
    sgn = -1.0 if conjugate else 1.0
    roots = spec.conj_roots if conjugate else spec.roots
    out = spec.scale * np.exp(
        1j * sgn * spec.rotation - 1j * sgn * spec.exp_rate * zz
    )
    if spec.degree and arr.dtype.kind in "fiu" and arr.size >= _REAL_AXIS_MIN:
        out = out * _real_axis_product(np.asarray(arr, dtype=float), roots)
    elif spec.degree:
        out = out * _reduce_over_zeros(
            lambda b: np.multiply.reduce(b[..., None] - roots, axis=-1),
            zz,
            spec.degree,
            complex,
        )
    return _scalar_if_0d(z, out)


def _eval_E_pair(spec: HBSpec, z):
    """(E(z), E#(z)).  Where every point is real this is (E, conj E) from
    one product on the real parts: the two products then differ only in the
    signs of their imaginary parts, bit for bit."""
    zz = np.asarray(z, dtype=complex)
    if not zz.imag.any():
        e = eval_E(spec, zz.real)
        return e, _scalar_if_0d(z, np.conj(e))
    return eval_E(spec, zz), eval_E(spec, zz, conjugate=True)


def eval_E_prime(spec: HBSpec, z, conjugate: bool = False):
    """Analytic derivative E'(z) via the logarithmic derivative.

    E'/E = -i exp_rate + sum_n 1/(z - z_n) away from the zeros; exact for the
    product form.
    """
    zz = np.asarray(z, dtype=complex)
    sgn = -1.0 if conjugate else 1.0
    roots = spec.conj_roots if conjugate else spec.roots
    logd = -1j * sgn * spec.exp_rate * np.ones_like(zz)
    if spec.degree:
        logd = logd + _reduce_over_zeros(
            lambda b: np.sum(1.0 / (b[..., None] - roots), axis=-1),
            zz,
            spec.degree,
            complex,
        )
    out = eval_E(spec, zz, conjugate=conjugate) * logd
    return _scalar_if_0d(z, out)


def eval_AB(spec: HBSpec, beta: float, x):
    """(A_beta(x), B_beta(x)): real and imaginary parts of e^{i beta} E(x)."""
    a, b = rotate(eval_E(spec, np.asarray(x, dtype=float)), beta)
    return _scalar_if_0d(x, a, float), _scalar_if_0d(x, b, float)


def rotate(e, beta: float):
    """(A_beta, B_beta) from values e of E already evaluated on the real axis:
    the real and imaginary parts of e^{i beta} e."""
    w = np.exp(1j * beta) * e
    return w.real, w.imag


def theta(spec: HBSpec, x):
    """The meromorphic inner function Theta_E = E#/E on the real axis."""
    e, es = _eval_E_pair(spec, np.asarray(x, dtype=float))
    return es / e


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
        xs, ys = spec.x_n, spec.yhat_n

        def arctans(b):
            d = b[..., None] - xs
            d /= ys
            return np.sum(np.arctan(d, out=d), axis=-1)

        acc = acc + 2.0 * _reduce_over_zeros(arctans, xx, spec.degree)
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
        xs, ys = spec.x_n, spec.yhat_n

        def bumps(b):
            # ys / (d * d + ys * ys), in place
            d = b[..., None] - xs
            d *= d
            d += ys * ys
            return np.sum(np.divide(ys, d, out=d), axis=-1)

        acc = acc + 2.0 * _reduce_over_zeros(bumps, xx, spec.degree)
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
    coarse 64-point grid on each bump's window x_n -+ 3 yhat_n, plus a
    256-point grid on the hull of the windows (against maxima falling between
    them), localizes the maximum; the tail value 2*exp_rate is always
    strictly smaller when zeros are present.  All grids are evaluated in one
    phi' call, and every window is refined in one lockstep golden section
    (numerics.golden_max), one phi' call on the still-live brackets per
    iteration.  The result is the first window's maximum among the largest,
    each window's exactly as sup_on_window would find it.  It is computed
    once per spec object and kept on it.
    """
    if spec._phase_sup is None:
        object.__setattr__(spec, "_phase_sup", _phase_derivative_sup(spec))
    return spec._phase_sup


def _phase_derivative_sup(spec: HBSpec) -> PhaseSup:
    if spec.degree == 0:
        return PhaseSup(2.0 * spec.exp_rate, None)
    xs, ys = spec.x_n, spec.yhat_n
    lo = np.append(xs - 3.0 * ys, np.min(xs - 3.0 * ys))
    hi = np.append(xs + 3.0 * ys, np.max(xs + 3.0 * ys))
    for a, b in zip(lo, hi):
        if not a < b:
            raise ValueError(f"empty window ({a}, {b})")
    bump_grids = np.linspace(lo[:-1], hi[:-1], 64, axis=-1).ravel()
    grid = np.concatenate((bump_grids, np.linspace(lo[-1], hi[-1], 256)))
    vals, locs = _refine_max(
        lambda t: phase_derivative(spec, t),
        grid,
        phase_derivative(spec, grid),
        1e-14,
        [64] * spec.degree + [256],
    )
    k = int(np.argmax(vals))
    return PhaseSup(float(vals[k]), float(locs[k]))


def phase_limits(profile: PhaseProfile) -> Tuple[float, float]:
    """(phi(-inf), phi(+inf)); infinite for Paley-Wiener specs."""
    spec = profile.spec
    if spec.exp_rate > 0.0:
        return -math.inf, math.inf
    total = math.pi * spec.degree
    return profile.offset - total, profile.offset + total


def solve_phase_level(profile: PhaseProfile, level, start: float, tol: float = 1e-14):
    """The unique x with phi(x) = level, bracketed outward from start.

    level is a scalar, giving a float, or an array of levels, giving the
    array of their solutions.  Raises BracketUnavailableError when a level
    lies outside the phase range (phi(-inf), phi(+inf)), i.e. phi never
    reaches it.  Each bracket grows geometrically from start, in steps of
    2 pi / phi'(start), until it encloses its level (inside the range the
    growth ends, since phi is continuous and reaches every level); one
    monotone_solve call then inverts phi on all of them in lockstep.  Each
    element of an array takes exactly the steps it would take alone.
    """
    levels = np.asarray(level, dtype=float)
    lo_lim, hi_lim = phase_limits(profile)
    outside = ~((lo_lim < levels) & (levels < hi_lim))
    if outside.any():
        raise BracketUnavailableError(
            f"phase level {levels[outside][0]} is outside the phase range "
            f"({lo_lim}, {hi_lim}): total phase variation insufficient"
        )
    side = np.where(levels >= phase(profile, start), 1.0, -1.0)
    step = np.full(levels.shape, 2 * math.pi / phase_derivative(profile.spec, start))
    short = side * (phase(profile, start + side * step) - levels) < 0.0
    while short.any():
        step = np.where(short, 2.0 * step, step)
        short = side * (phase(profile, start + side * step) - levels) < 0.0
    probe = start + side * step
    return monotone_solve(
        lambda t: phase(profile, t),
        levels,
        (np.minimum(start, probe), np.maximum(start, probe)),
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
    plateau edges.  Both ends come from one solve_phase_level call.
    """
    _, b = eval_AB(spec, alpha, xi)
    if abs(b) > tol * abs(complex(eval_E(spec, xi))):
        raise ValueError(f"B_alpha({xi}) = {b} is not zero; alpha does not match xi")
    profile = PhaseProfile(spec)
    phi_xi = phase(profile, xi)
    left, right = solve_phase_level(
        profile, np.array([phi_xi - offset, phi_xi + offset]), xi
    ).tolist()
    return left, right


def level_crossings(
    profile: PhaseProfile,
    target_mod_2pi: float,
    window: Tuple[float, float],
    tol: float = 1e-13,
) -> np.ndarray:
    """All solutions of phi(x) = target (mod 2 pi) inside a finite window.

    With target = 2*beta + pi these are exactly the zeros of A_beta, with
    target = 2*beta the zeros of B_beta.  phi is evaluated once on a grid of
    max(65, 4 m + 1) points over the window, m the number of levels it
    crosses; as phi increases, a binary search of the grid values gives each
    level the grid cell that encloses it, and one monotone_solve call
    (bisection/Newton on the closed-form phase) inverts phi on all the cells
    in lockstep.  Returns a sorted array, possibly empty.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window must be finite and nonempty, got ({lo}, {hi})")
    philo, phihi = phase(profile, np.array([lo, hi])).tolist()
    two_pi = 2 * math.pi
    kmin = math.ceil((philo - target_mod_2pi) / two_pi - 1e-12)
    kmax = math.floor((phihi - target_mod_2pi) / two_pi + 1e-12)
    levels = target_mod_2pi + two_pi * np.arange(kmin, kmax + 1)
    levels = levels[(levels >= philo - 1e-12) & (levels <= phihi + 1e-12)]
    if not levels.size:
        return np.empty(0)
    xs = np.linspace(lo, hi, max(65, 4 * levels.size + 1))
    cell = np.clip(np.searchsorted(phase(profile, xs), levels), 1, xs.size - 1)
    roots = monotone_solve(
        lambda t: phase(profile, t),
        levels,
        (xs[cell - 1], xs[cell]),
        tol=tol,
        dg=lambda t: phase_derivative(profile.spec, t),
    )
    return np.clip(roots, lo, hi)


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

    def certify(self, ambient: HBSpec) -> None:
        raise NotImplementedError

    def poly_coeffs(self, ambient: HBSpec) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


def _certify_own_space(name: str, spec: HBSpec, ambient: HBSpec) -> None:
    """Membership of a function built from spec (a rotation or a kernel) in
    ambient: its own space, or for a pure-exponential spec any ambient space
    of at least its type; MembershipError names the function's class."""
    if same_de_branges_space(spec, ambient):
        return
    if spec.degree == 0 and spec.exp_rate <= ambient.exp_rate:
        # pure exponential of smaller type: bounded, type within budget
        return
    raise MembershipError(
        f"{name} is only certified for its own space or, for "
        "pure-exponential specs, an ambient space of at least its type"
    )


def _as_real_coeffs(c: np.ndarray, noise: np.ndarray, what: str) -> np.ndarray:
    """Real c, less trailing rounding noise: coefficients of at most 1e-13
    of noise, the size of the terms that cancelled in each."""
    scale = float(np.max(np.abs(c))) if c.size else 0.0
    if scale and float(np.max(np.abs(c.imag))) > 1e-12 * scale:
        raise ArithmeticError(f"{what}: coefficients failed to come out real")
    out = np.real(c).astype(float)
    n = out.size
    while n > 1 and abs(out[n - 1]) <= 1e-13 * noise[n - 1]:
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
        e, es = _eval_E_pair(self.spec, z)
        w = 0.5 * (np.exp(1j * self.beta) * e + np.exp(-1j * self.beta) * es)
        return _scalar_if_0d(z, w)

    def certify(self, ambient: HBSpec) -> None:
        _certify_own_space("RotationRealPart", self.spec, ambient)

    def poly_coeffs(self, ambient: HBSpec) -> np.ndarray:
        if not self.spec.is_polynomial:
            raise ValueError("not polynomial-type")
        e = _e_poly_coeffs(self.spec)
        c = 0.5 * (
            np.exp(1j * self.beta) * e
            + np.exp(-1j * self.beta) * _e_poly_coeffs(self.spec, conjugate=True)
        )
        return _as_real_coeffs(c, np.abs(e), "RotationRealPart")

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
    formula exactly.  A node where E(t), E#(t) or that jet is not finite in
    floating point raises OverflowError, not a kernel that evaluates to NaN.
    """

    _DIAGONAL_WINDOW = 1e-4

    def __init__(self, spec: HBSpec, t: float):
        if not math.isfinite(t):
            raise SpecError("kernel node must be finite")
        self.spec = spec
        self.t = float(t)
        # E(t), E#(t) and the numerator jet depend on t alone: once per kernel
        with np.errstate(over="ignore", invalid="ignore"):
            self._et, self._ets = map(complex, _eval_E_pair(spec, self.t))
            self._jet = self._numerator_jet()
        if not all(cmath.isfinite(v) for v in (self._et, self._ets, *self._jet)):
            raise OverflowError(
                f"E, E# or the kernel's Taylor jet at t = {self.t} is not finite "
                "in floating point"
            )

    def diagonal(self) -> float:
        """K_t(t) = (1/2 pi) |E(t)|^2 phi'(t); OverflowError where the value
        is not finite in floating point."""
        try:
            value = abs(self._et) ** 2 * phase_derivative(self.spec, self.t)
        except OverflowError:  # a finite |E(t)| above about 1e154
            value = math.inf
        if not math.isfinite(value):
            raise OverflowError(f"K_t(t) at t = {self.t} is not finite in floating point")
        return value / (2 * math.pi)

    def _numerator_jet(self):
        """(N', N'', N''') of N(z) = E(z) conj(E(t)) - E#(z) conj(E#(t)) at t."""
        out = []
        for conjugate, e in ((False, self._et), (True, self._ets)):
            roots = self.spec.conj_roots if conjugate else self.spec.roots
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
        return _scalar_if_0d(z, self._from_E(zz, *_eval_E_pair(self.spec, zz)))

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
        _certify_own_space("Kernel", self.spec, ambient)

    def poly_coeffs(self, ambient: HBSpec) -> np.ndarray:
        if not self.spec.is_polynomial:
            raise ValueError("not polynomial-type")
        e = _e_poly_coeffs(self.spec)
        num = np.conj(self._et) * e - np.conj(self._ets) * _e_poly_coeffs(
            self.spec, conjugate=True
        )
        # numerator vanishes at t; deflate by (z - t) via Horner division
        q, rem = _deflate(num, self.t)
        if abs(rem) > 1e-10 * (1.0 + float(np.max(np.abs(num)))):
            raise ArithmeticError("kernel numerator did not vanish at its node")
        # the size of the terms that cancel in num, carried through the division
        noise = np.real(_deflate(2.0 * abs(self._et) * np.abs(e), abs(self.t))[0])
        return _as_real_coeffs(q / (-2j * math.pi), noise / (2 * math.pi), "Kernel")

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
