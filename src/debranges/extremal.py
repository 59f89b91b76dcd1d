"""Point-evaluation extremal problems on finite-dimensional slices.

Minimizes ||f/E||_p over the affine slice f(xi) = |E(xi)| (a linear
constraint on real coefficients), which after rescaling to unit norm yields
the extremal data f(xi) = |E(xi)| C and ||f/E||_p = 1.  Polynomial de
Branges spaces (E a degree-N Hermite-Biehler polynomial, candidates of
degree <= N-2) make every norm a convergent integral; truncated
Paley-Wiener problems use a kernel-node basis on an explicit window and are
labeled as truncated.

Problems are posed for p >= 1, where the problem is convex with a unique
solution and damped Newton on the (smoothed, for p < 2) functional
converges from any start; below p = 1 convexity, and with it every result
on the optimum, is lost, so ExtremalProblem rejects such p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .hb_core import (
    HBSpec,
    Kernel,
    _eval_E_pair,
    _scalar_if_0d,
    eval_E,
    phase_bracket,
    phase_derivative_sup,
)
from .numerics import (
    IntegralResult,
    NonConvergenceError,
    QuadratureScheme,
    _graded_kinks,
    _grid,
    _integrate_batch,
    integrate,
    log_gamma,
)

__all__ = [
    "PolynomialBasis",
    "KernelNodeBasis",
    "ExtremalProblem",
    "ExtremalSolution",
    "ComplexZeroError",
    "SeparationReport",
    "solve",
    "symmetrize_real",
    "extract_zeros",
    "orthogonality_residual",
    "separation_report",
    "plateau_interval",
    "mean_type_diagnostic",
    "mean_type_profile",
    "problem_from_dict",
    "problem_to_dict",
]

_EPS_STAGES = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
_POLISH_STEPS = 30
# zeros closer than this, relative to 1 + |z|, are one double zero that
# rounding split in two (about sqrt(eps) apart, times the root finder's
# conditioning); this is 64 sqrt(eps), and simple zeros of an optimum sit
# orders of magnitude wider apart
_SPLIT_GAP = 2.0 ** -20
# Gauss nodes per panel, and round 0's first panel count, of the solver grid
_QUAD_NODES = _QUAD_PANELS = 32


class ComplexZeroError(ArithmeticError):
    """Extracted zeros were not all real; indicates solver non-convergence."""


@dataclass(frozen=True)
class PolynomialBasis:
    """Real polynomials up to max_degree, handled internally as Chebyshev
    polynomials scaled by `scale` (chosen from the spec when omitted)."""

    max_degree: int
    scale: Optional[float] = None

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")


@dataclass(frozen=True)
class KernelNodeBasis:
    """Reproducing kernels K_{t_j} at explicit real nodes (truncation data)."""

    nodes: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(float(t) for t in self.nodes))
        if len(self.nodes) == 0:
            raise ValueError("empty kernel-node basis")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("kernel nodes must be distinct")


@dataclass(frozen=True)
class ExtremalProblem:
    """One point-evaluation extremal problem instance.

    p must be finite and at least 1 (ValueError otherwise): the optimum's
    uniqueness, real simple zeros and zero-pair orthogonality rest on
    convexity.  Polynomial mode: spec must be polynomial-type with at least
    2 zeros and the basis degree is capped at N-2, so f/E and f#/E stay in
    H^p down to p = 1.  Paley-Wiener mode: spec has exp_rate > 0, the basis
    is a kernel-node family, and `window` truncates the norm integral.
    """

    p: float
    spec: HBSpec
    xi: float
    basis: Union[PolynomialBasis, KernelNodeBasis]
    kkt_tol: Optional[float] = None
    window: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"p must be finite and >= 1, got {self.p}")
        if not math.isfinite(self.xi):
            raise ValueError("xi must be finite")
        if isinstance(self.basis, PolynomialBasis):
            if not self.spec.is_polynomial:
                raise ValueError("polynomial basis requires a polynomial-type spec")
            n = self.spec.degree
            if n < 2:
                raise ValueError("polynomial mode needs a spec with >= 2 zeros")
            if self.basis.max_degree > n - 2:
                raise ValueError(
                    f"degree cap is N-2 = {n - 2} (membership down to p = 1); "
                    f"got {self.basis.max_degree}"
                )
        elif isinstance(self.basis, KernelNodeBasis):
            if not self.spec.is_paley_wiener:
                raise ValueError("kernel-node basis is the Paley-Wiener mode")
            if self.window is None:
                raise ValueError(
                    "Paley-Wiener mode requires an explicit truncation window"
                )
        else:
            raise TypeError(f"unknown basis type {type(self.basis).__name__}")
        if self.kkt_tol is None:
            object.__setattr__(self, "kkt_tol", 1e-6 if self.p == 1 else 1e-8)

    @property
    def dimension(self) -> int:
        if isinstance(self.basis, PolynomialBasis):
            return self.basis.max_degree + 1
        return len(self.basis.nodes)

    @property
    def truncated(self) -> bool:
        return isinstance(self.basis, KernelNodeBasis)


@dataclass(frozen=True, eq=False)
class ExtremalSolution:
    """Optimal coefficients, normalized so ||f/E||_p = 1.

    coefficients are monomial for polynomial mode and kernel weights for
    Paley-Wiener mode; `eval` reconstructs f from the solve's basis and its
    coefficients there (a scaled Chebyshev series / kernel sums).
    C_value is |f(xi)/E(xi)| / ||f/E||_p and zeros are the real zeros of
    the returned coefficients; in polynomial mode both, and the residuals,
    read |f/E| from the zeros' product, not from the series.
    norm_converged says whether both norm integrals, of the optimum and of
    its rescaling, met their quadrature target; it is not part of to_dict.
    """

    p: float
    spec: HBSpec
    xi: float
    coefficients: np.ndarray
    C_value: float
    zeros: Tuple[float, ...]
    kkt_residual: float
    orthogonality_residuals: Tuple[float, ...]
    min_zero_gap: float
    norm_residual: float
    norm_converged: bool
    truncated: bool
    basis_kind: str
    _basis: Union[_ChebBasis, _KernelBasis]
    _coef: np.ndarray

    def eval(self, z):
        return _scalar_if_0d(z, self._basis.eval(self._coef, z))

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "xi": self.xi,
            "basis_kind": self.basis_kind,
            "coefficients": [float(c) for c in np.real(self.coefficients)],
            "C_value": self.C_value,
            "zeros": list(self.zeros),
            "kkt_residual": self.kkt_residual,
            "orthogonality_residuals": list(self.orthogonality_residuals),
            "min_zero_gap": self.min_zero_gap,
            "norm_residual": self.norm_residual,
            "truncated": self.truncated,
        }


# ---------------------------------------------------------------------------
# Bases and discretization
# ---------------------------------------------------------------------------


class _ChebBasis:
    """Polynomial mode: Chebyshev series in x / scale on the whole line."""

    kind = "polynomial"
    domain = None

    def __init__(self, problem: ExtremalProblem):
        self.degree = problem.basis.max_degree
        r = max((abs(z.real) + abs(z.imag) for z in problem.spec.zeros), default=1.0)
        self.scale = problem.basis.scale or max(2.0, 1.5 * r)

    def matrix(self, x):
        return _cheb.chebvander(np.asarray(x) / self.scale, self.degree)

    def eval(self, c, z):
        return _cheb.chebval(np.asarray(z) / self.scale, c)

    def split_guesses(self, c) -> List[float]:
        """Near-real roots: real-zero estimates that place quadrature splits."""
        return sorted(
            float(r.real) * self.scale
            for r in _cheb_roots(c, 1e-10)
            if abs(r.imag) <= 1e-3 * (1.0 + abs(r.real))
        )

    def real_zeros(self, c) -> List[float]:
        """Sorted roots; a complex one raises ComplexZeroError."""
        roots = _cheb_roots(c, 1e-12)
        bad = [r for r in roots if abs(r.imag) > 1e-8 * (1.0 + abs(r.real))]
        if bad:
            raise ComplexZeroError(
                f"complex zeros {bad}: a true optimum has only real simple zeros, "
                "so the solver has not converged"
            )
        return sorted(float(r.real) * self.scale for r in roots)

    def monomial(self, c) -> np.ndarray:
        """The reported coefficients: monomial ones in x."""
        mono = _cheb.cheb2poly(c)
        return np.real(mono / self.scale ** np.arange(mono.size))

    def abs_ratio(self, c, zeros, spec: HBSpec, x):
        """|f(x)/E(x)| as |a| prod_k |x - lambda_k| / |E(x)|, lambda_k the
        zeros that real_zeros returns for c and a the leading monomial
        coefficient of the series it roots.  Unlike the series in x / scale,
        the product keeps its digits where f has a zero far outside the
        scale.  Each zero of f is paired with one of E and the pairs'
        squared ratios multiplied, so no partial product leaves the float
        range for |x| < 1e154.  Given fewer zeros than f has (a perturbed
        f with complex zeros), it takes f's roots from c."""
        cc = _cheb_trim(c, 1e-12)
        n = cc.size - 1
        # in t = x / scale, f = c_n 2^(n-1) prod_k (t - lambda_k / scale)
        if len(zeros) == n:
            lam = np.asarray(zeros, dtype=float) / self.scale
        else:
            lam = _cheb.chebroots(cc) if n else np.zeros(0)
        x = np.asarray(x, dtype=float)
        t = x / self.scale
        out, d, e = np.ones(x.shape), np.empty(x.shape), np.empty(x.shape)
        for k, (xn, yn) in enumerate(zip(spec.x_n.tolist(), spec.yhat_n.tolist())):
            np.subtract(x, xn, out=d)
            np.multiply(d, d, out=d)
            d += yn * yn
            if k < n:
                np.subtract(t, lam[k].real, out=e)
                np.multiply(e, e, out=e)
                if lam[k].imag:
                    e += lam[k].imag ** 2
                out *= np.divide(e, d, out=e)
            else:
                out /= d
        np.sqrt(out, out=out)
        out *= abs(cc[-1]) * 2.0 ** max(n - 1, 0) / spec.scale
        return out


class _KernelBasis:
    """Paley-Wiener mode: sums of kernels K_{t_j} on the truncation window."""

    kind = "kernel"

    def __init__(self, problem: ExtremalProblem):
        self.spec = problem.spec
        self.kernels = tuple(Kernel(problem.spec, t) for t in problem.basis.nodes)
        self.domain = problem.window

    def _columns(self, z):
        """Each K_{t_j}(z), from one pair of E(z), E#(z) evaluations."""
        zz = np.asarray(z, dtype=complex)
        e, es = _eval_E_pair(self.spec, zz)
        return (k._from_E(zz, e, es) for k in self.kernels)

    def matrix(self, x):
        return np.column_stack([np.real(col) for col in self._columns(x)])

    def eval(self, c, z):
        """sum_j c_j K_{t_j}(z): the one kernel-sum evaluator."""
        out = np.zeros_like(np.asarray(z), dtype=complex)
        for w, col in zip(c, self._columns(z)):
            out = out + w * col
        return out

    def split_guesses(self, c) -> List[float]:
        return _scan_real_roots(lambda x: np.real(self.eval(c, x)), self.domain, 1024)

    def real_zeros(self, c) -> List[float]:
        return _scan_real_roots(lambda x: np.real(self.eval(c, x)), self.domain)

    def monomial(self, c) -> np.ndarray:
        """The reported coefficients: the kernel weights themselves."""
        return np.real(c)

    def abs_ratio(self, c, zeros, spec: HBSpec, x):
        """|f(x)/E(x)| from the kernel sum; the zeros are not needed."""
        return np.abs(np.real(self.eval(c, x))) / np.abs(eval_E(spec, x))


# ---------------------------------------------------------------------------
# Smoothed Lp functional and damped Newton on the slice
# ---------------------------------------------------------------------------


def _newton_on_slice(A, w, g0, p, eps, tol, u0, max_iter=120):
    """Minimize sum w (g^2 + eps^2)^{p/2} over grid values g = g0 + A u by
    damped Newton; the line search moves along g + t A du.

    Returns (u, value, gradient norm, met): met is False when the stage ran
    out of max_iter before its gradient met tol."""

    def J(g):
        return float(np.sum(w * (g * g + eps * eps) ** (p / 2)))

    u = u0.copy()
    g = g0 + A @ u
    val = J(g)
    for _ in range(max_iter):
        q = g * g + eps * eps
        qp = q ** (p / 2 - 1)
        rho = p * g * qp
        if eps == 0.0:
            # p >= 2 here; the generic kappa would form q^{p/2-2} = inf at
            # exact zeros of g, so use d^2/dg^2 |g|^p = p(p-1)|g|^{p-2}
            kappa = p * (p - 1) * np.abs(g) ** (p - 2)
        else:
            kappa = p * (qp + (p - 2) * g * g * q ** (p / 2 - 2))
        grad_u = A.T @ (w * rho)
        gnorm = float(np.linalg.norm(grad_u))
        if gnorm <= tol * max(1.0, abs(val)):
            return u, val, gnorm, True
        H = A.T @ (A * (w * kappa)[:, None])
        try:
            du = np.linalg.solve(H, -grad_u)
            if float(du @ grad_u) >= 0:
                du = -grad_u
        except np.linalg.LinAlgError:
            du = -grad_u
        t, slope, dg = 1.0, float(du @ grad_u), A @ du
        while t > 1e-14:
            cand = J(g + t * dg)
            if cand <= val + 1e-4 * t * slope:
                break
            t *= 0.5
        u = u + t * du
        g = g0 + A @ u
        val = J(g)
    return u, val, gnorm, False


def _kkt(along, normal) -> float:
    """Relative size of the slice part of the exact gradient."""
    size = float(np.linalg.norm(along))
    return size / max(math.hypot(size, normal), 1e-300)


class _Polish(NamedTuple):
    """What `exact_newton_polish` ended with: the point, its exact KKT
    residual, the steps it kept, and why it stopped: "converged" (a step
    below rounding), "rejected" (the step raised the KKT residual),
    "singular" (singular Hessian, or a zero where F' vanishes), "nonfinite"
    (a non-finite step), "no_zeros" (p = 1 and no real zero to kink at) or
    "cap" (max_steps kept)."""

    u: np.ndarray
    kkt: float
    steps: int
    exit: str


class _SliceSolver:
    """One round's discretization, and QR-preconditioned damped Newton on it.

    The grid has panel edges at splits, the |F|^p kinks (estimated zeros of
    the candidate), and is doubled until the p = 2 Gram trace of the ratio
    basis psi = basis / |E| settles.  Round 0 starts at _QUAD_PANELS.  A
    later round passes the (panels, trace) its predecessor accepted as
    `previous` and starts from them; the trace integrates the smooth psi and
    does not depend on the splits, so such a round builds its grid once.

    The panels are also graded toward the splits where p < 2 or p is not an
    integer.  At integer p >= 2 each side of a kink is analytic and the
    gradient p |g|^(p-1) sign g is Lipschitz, so plain edges keep the rule's
    geometric convergence (numerics._graded_kinks).  p = 1 keeps its grading
    although its kinks |g| have integer exponent: its gradient sign g jumps
    at each of them, and on plain edges the KKT gate failed on 6 of the 10
    criterion-9 p = 1 solves of seed 0.
    """

    def __init__(
        self, problem: ExtremalProblem, basis, splits: Sequence[float] = (),
        previous: Optional[Tuple[int, float]] = None,
    ):
        self.p, self.basis, self.spec = problem.p, basis, problem.spec
        panels, trace = previous or (_QUAD_PANELS, None)
        graded = self.p < 2 or _graded_kinks(self.p)
        for build in range(5):
            if build:
                panels *= 2
            x, w = _grid(basis.domain, panels, _QUAD_NODES, splits, graded)
            psi = basis.matrix(x)
            np.divide(psi, np.abs(eval_E(self.spec, x))[:, None], out=psi)
            wpsi2 = w[:, None] * psi
            tr = float(np.sum(np.multiply(wpsi2, psi, out=wpsi2)))
            del wpsi2
            if trace is not None and abs(tr - trace) <= 1e-13 * abs(tr):
                break
            trace = tr
        self.panels, self.trace, self.w = panels, tr, w
        v = basis.matrix(np.array([problem.xi]))[0]
        self.b = abs(complex(eval_E(self.spec, problem.xi)))
        if float(np.max(np.abs(v))) == 0.0:
            raise ValueError("every basis element vanishes at xi; slice is empty")
        # LAPACK is column-major: numpy hands it an F-ordered input (the
        # kernel basis's psi is C-ordered) as one block copy
        self.R = R = np.linalg.qr(np.multiply(np.sqrt(w)[:, None], psi, order="F"), mode="r")
        diag = np.abs(np.diag(R))
        if np.min(diag) < 1e-13 * np.max(diag):
            raise ValueError("basis is numerically rank-deficient on this grid")
        T = np.linalg.solve(R.T, psi.T).T  # = psi R^{-1}
        v_t = np.linalg.solve(R.T, v)
        self.nv = float(np.linalg.norm(v_t))
        self.y_feas = self.b * v_t / self.nv ** 2
        _, _, vh = np.linalg.svd(v_t[None, :])
        self.Z = vh[1:].T  # orthonormal null space of the constraint
        # grid values of the slice point y_feas + Z u are g0 + A u
        self.A = T @ self.Z
        self.g0 = T @ self.y_feas

    def continuation(self, u, kkt_tol):
        """Damped Newton down the eps ladder from u; returns the point reached.

        p >= 2 is one unsmoothed stage; 1 < p < 2 and the kernel-node basis
        run every rung of _EPS_STAGES.  On the polynomial p = 1 path the rungs
        only have to bring u into the basin of `exact_newton_polish`.  A
        start whose exact KKT residual is already below the first rung's eps
        (the previous round's optimum, warm-started on a regraded grid) goes
        straight to the polish: the first rung would pull it back out of the
        basin.  Otherwise the polish runs after each rung, and the ladder
        hands over to it, returning the best polished point, once
        - the polished KKT residual is below the next rung's eps, or
        - this polish and the best one so far both kept steps (so they work
          inside the basin), but this one is not 10 times below the best
          although eps fell at least 100-fold: the polish sits at the floor
          this grid allows, which only regrading toward the zeros lowers.
        """
        stages = _EPS_STAGES if self.p < 2 else (0.0,)
        handover = self.p == 1.0 and self.basis.kind == "polynomial"
        if handover and self.kkt_residual(u) <= stages[0]:
            return self.exact_newton_polish(u, _POLISH_STEPS).u
        best = None
        for k, eps in enumerate(stages):
            last = k == len(stages) - 1
            u = _newton_on_slice(
                self.A, self.w, self.g0, self.p, eps * self.b,
                kkt_tol if last else 1e-6, u,
            )[0]
            if not handover:
                continue
            pol = self.exact_newton_polish(u, _POLISH_STEPS)
            stalled = best is not None and best.steps and pol.steps and pol.kkt > 0.1 * best.kkt
            if best is None or pol.kkt <= best.kkt:
                best = pol
            if last or best.kkt <= stages[k + 1] or stalled:
                return best.u
        return u

    def coeffs(self, u):
        return np.linalg.solve(self.R, self.y_feas + self.Z @ u)

    def warm_start(self, c):
        y = self.R @ c
        return self.Z.T @ (y - self.y_feas)

    def exact_gradient(self, u):
        """Unsmoothed gradient in y, valid for every p >= 1 (|g|^{p-1}
        bounded), as its parts along the slice, Z^T grad = A^T (w rho), and
        along v_t / nv, where T v_t / nv = g0 nv / b."""
        g = self.g0 + self.A @ u
        w_rho = self.w * (self.p * np.sign(g) * np.abs(g) ** (self.p - 1))
        return self.A.T @ w_rho, float(self.g0 @ w_rho) * self.nv / self.b

    def kkt_residual(self, u):
        return _kkt(*self.exact_gradient(u))

    def exact_newton_polish(self, u, max_steps=8) -> _Polish:
        """Unsmoothed Newton steps for 1 <= p < 2, polynomial basis.

        The smoothed stages leave an O(eps)-bias that residual directions
        through far-out zeros amplify.  Here the gradient uses exact signs;
        the Hessian is the exact kink form sum_l 2 phi(l) phi(l)^T /
        (|F'(l)| |E(l)|) at p = 1 and the grid form with the integrable
        |g|^{p-2} weight for 1 < p < 2.  A step is kept only if it does not
        raise the exact KKT residual.  At p = 1 this is where `continuation`
        hands the eps ladder over (see there).
        """
        p, basis = self.p, self.basis
        grad = self.exact_gradient(u)
        kkt = _kkt(*grad)
        for steps in range(max_steps):
            grad_u = grad[0]
            if p == 1.0:
                c = self.coeffs(u)
                lam = np.asarray(basis.split_guesses(c))
                if not lam.size:
                    return _Polish(u, kkt, steps, "no_zeros")
                phi = basis.matrix(lam)
                e_abs = np.abs(eval_E(self.spec, lam))
                fp = np.abs(basis.eval(_cheb.chebder(c), lam) / basis.scale)
                if np.any(fp <= 0):
                    return _Polish(u, kkt, steps, "singular")
                col = phi / np.sqrt(fp * e_abs)[:, None]
                H_c = 2.0 * col.T @ col
                H_y = np.linalg.solve(
                    self.R.T, np.linalg.solve(self.R.T, H_c.T).T
                )
                H_u = self.Z.T @ H_y @ self.Z
            else:
                g = self.g0 + self.A @ u
                kap = p * (p - 1) * np.maximum(np.abs(g), 1e-300) ** (p - 2)
                H_u = self.A.T @ (self.A * (self.w * kap)[:, None])
            try:
                du = np.linalg.solve(H_u, -grad_u)
            except np.linalg.LinAlgError:
                return _Polish(u, kkt, steps, "singular")
            if not np.all(np.isfinite(du)):
                return _Polish(u, kkt, steps, "nonfinite")
            u_new = u + du
            grad_new = self.exact_gradient(u_new)
            kkt_new = _kkt(*grad_new)
            if kkt_new > kkt:
                return _Polish(u, kkt, steps, "rejected")
            u, grad, kkt = u_new, grad_new, kkt_new
            if float(np.linalg.norm(du)) <= 1e-14 * (1.0 + float(np.linalg.norm(u))):
                return _Polish(u, kkt, steps + 1, "converged")
        return _Polish(u, kkt, max_steps, "cap")


def solve(problem: ExtremalProblem, seed: Optional[int] = None) -> ExtremalSolution:
    """Solve the extremal problem; deterministic given (problem, seed).

    seed randomizes the Newton starting point (used to confirm uniqueness).
    Each round runs one start: zero, the seeded one, or the previous round's
    optimum.  After first convergence the quadrature grid is rebuilt
    with panel edges at the estimated zeros of the candidate (the |F|^p
    kinks), unless p is an even integer and the integrand is smooth; the
    panels are graded toward them where p < 2 or p is not an integer (p = 1
    keeps its grading for its exact-sign polish; see `_SliceSolver`).  Each
    such round starts from the previous round's panel count and Gram trace
    and builds its grid once.
    The optimum is then rooted (a complex zero raises ComplexZeroError; on
    the kernel basis only where the norm has kinks), and its norm and
    C_value = |f(xi)/E(xi)| / ||f/E||_p take |f/E| from basis.abs_ratio:
    on the polynomial basis the product over its real zeros, which keeps
    the digits the Chebyshev series loses to a zero far outside the scale.
    The reported zeros are those of the returned, rescaled coefficients;
    the unit-norm check and the zero-pair residuals integrate the same
    product over them.
    On the polynomial basis, 1 < p < 2 polishes each graded round with
    `exact_newton_polish`; at p = 1 every round, the unsplit one included,
    hands its eps ladder over to that polish inside `continuation`.
    NonConvergenceError is raised where a round's point is not finite or the
    final KKT residual is above tolerance (or NaN).
    """
    p, n_free = problem.p, problem.dimension - 1
    rng = np.random.default_rng(seed)
    kind = _ChebBasis if isinstance(problem.basis, PolynomialBasis) else _KernelBasis
    basis = kind(problem)
    # |F|^p is not smooth at the zeros of F unless p is an even integer, so
    # after the unsplit round each round splits its grid at the previous
    # round's zeros, until the zeros reach a fixed point: if a split lags the
    # true sign change, the grid gradient is wrong on the mismatch interval,
    # which matters most along nearly flat directions (far-out zeros).  The
    # final norm integrals put panel edges at the zeros for the same reason.
    kinked = p != 2 * round(p / 2)
    rounds = 13 if kinked and n_free > 0 else 1
    splits, c_star, grid = np.zeros(0), None, None
    for k in range(rounds):
        solver = _SliceSolver(problem, basis, splits, grid)
        grid = solver.panels, solver.trace
        if c_star is not None:
            u = solver.warm_start(c_star)
        elif seed is None or n_free == 0:
            u = np.zeros(n_free)
        else:
            u = rng.standard_normal(n_free) * float(np.linalg.norm(solver.y_feas))
        u = solver.continuation(u, problem.kkt_tol)
        # a non-finite point must not reach split_guesses' root finder
        if not np.all(np.isfinite(u)):
            raise NonConvergenceError("extremal solver failed to produce a finite point")
        if k > 0 and 1.0 < p < 2.0 and basis.kind == "polynomial":
            u = solver.exact_newton_polish(u).u
        c_star = solver.coeffs(u)
        if k == rounds - 1:
            break
        zeros = np.asarray(basis.split_guesses(c_star))
        if not zeros.size or (
            zeros.size == len(splits)
            and np.max(np.abs(zeros - splits) / (1.0 + np.abs(zeros))) <= 1e-10
        ):
            break
        splits = zeros

    kkt = solver.kkt_residual(u)
    del solver  # the final integrals need only c_star
    if not kkt <= max(10 * problem.kkt_tol, 1e-6):  # a NaN residual fails too
        raise NonConvergenceError(f"KKT residual {kkt} above tolerance")

    scheme = QuadratureScheme(panels=16, max_refinements=8)

    def norm_pth_power(c, zeros) -> IntegralResult:
        """int |f/E|^p for the coefficients c, whose real zeros are `zeros`,
        by basis.abs_ratio; where p is not an even integer the zeros are
        panel edges, toward which integrate grades for non-integer p (plain
        edges for integer p, numerics._graded_kinks)."""

        def ratio_pow(x):
            return basis.abs_ratio(c, zeros, problem.spec, x) ** p

        splits = zeros if kinked else []
        if _graded_kinks(p):
            return integrate(ratio_pow, basis.domain, scheme, singular_points=splits)
        return _integrate_batch(
            lambda x, active: [ratio_pow(x)], 1, basis.domain, scheme, splits, graded=False
        )[0]

    # rooting c_star is also the gate against complex zeros; the kernel
    # sum's |f/E| needs no zeros, and without kinks it skips that scan
    zeros = basis.real_zeros(c_star) if kinked or basis.kind == "polynomial" else []
    norm = norm_pth_power(c_star, zeros)
    norm_p = norm.value ** (1.0 / p)
    c_final = c_star / norm_p
    # C = |f(xi)/E(xi)| / ||f/E||_p, both from the same zeros' product
    C_value = float(basis.abs_ratio(c_star, zeros, problem.spec, problem.xi)) / norm_p
    # the reported zeros, which extract_zeros checks, are those of the
    # returned f: at the rooting's precision floor c_star's differ
    zeros = basis.real_zeros(c_final)
    # residual of ||f/E||_p = 1 after rescaling, re-measured independently
    unit = norm_pth_power(c_final, zeros)
    norm_residual = abs(unit.value ** (1.0 / p) - 1.0)

    return ExtremalSolution(
        p=p,
        spec=problem.spec,
        xi=problem.xi,
        coefficients=basis.monomial(c_final),
        C_value=C_value,
        zeros=tuple(float(z) for z in zeros),
        kkt_residual=kkt,
        orthogonality_residuals=_orthogonality_residuals(
            basis, c_final, p, problem.spec, problem.xi, zeros, zip(zeros, zeros[1:])
        ),
        min_zero_gap=_min_gap(zeros),
        norm_residual=norm_residual,
        norm_converged=norm.converged and unit.converged,
        truncated=problem.truncated,
        basis_kind=basis.kind,
        _basis=basis,
        _coef=c_final,
    )


def _min_gap(zeros: Sequence[float]) -> float:
    if len(zeros) < 2:
        return math.inf
    z = np.sort(np.asarray(zeros))
    return float(np.min(np.diff(z)))


# ---------------------------------------------------------------------------
# Zero extraction
# ---------------------------------------------------------------------------


def _cheb_trim(c: np.ndarray, trim: float) -> np.ndarray:
    """A Chebyshev series without its trailing coefficients of at most
    trim * max |c| (at least its constant term is kept)."""
    cc = np.asarray(c, dtype=float)
    top = float(np.max(np.abs(cc))) if cc.size else 0.0
    n = cc.size
    while n > 1 and abs(cc[n - 1]) <= trim * top:
        n -= 1
    return cc[:n]


def _cheb_roots(c: np.ndarray, trim: float) -> np.ndarray:
    """Roots of a Chebyshev series, trimmed by _cheb_trim: rounding noise in
    its trailing coefficients would inject spurious huge roots."""
    cc = _cheb_trim(c, trim)
    return _cheb.chebroots(cc) if cc.size > 1 else np.zeros(0)


def _scan_real_roots(f, window, n_grid: int = 4096) -> List[float]:
    """Sorted real zeros of the vectorized real f on the window: the nodes of
    an n_grid-point grid where f is exactly 0, and every sign change between
    neighbouring nodes bisected 80 times, all brackets as one array."""
    xs = np.linspace(window[0], window[1], n_grid)
    vals = np.asarray(f(xs), dtype=float)
    exact = xs[:-1][vals[:-1] == 0.0]
    i = np.flatnonzero(vals[:-1] * vals[1:] < 0)
    a, b, fa = xs[i], xs[i + 1], vals[i]
    for _ in range(80 if i.size else 0):
        m = 0.5 * (a + b)
        fm = np.asarray(f(m), dtype=float)
        left = fa * fm <= 0
        a, fa = np.where(left, a, m), np.where(left, fa, fm)
        b = np.where(left, m, b)
    return sorted(float(r) for r in np.concatenate((exact, 0.5 * (a + b))))


def extract_zeros(sol: ExtremalSolution, problem: ExtremalProblem) -> np.ndarray:
    """All zeros of the computed extremal function, asserted real and simple.

    The zeros are sol.zeros: solve roots the returned coefficients once, and
    in polynomial mode a complex pair raises ComplexZeroError there, which at
    a claimed optimum indicates solver non-convergence.  Simplicity is
    asserted through gaps above the scale at which rounding splits a double
    zero in two and a derivative at each root that does not vanish against
    |f| within unit distance of it.
    """
    z = np.asarray(sol.zeros)
    reach = 1.0 + np.maximum(np.abs(z[:-1]), np.abs(z[1:]))
    if np.any(np.diff(z) <= _SPLIT_GAP * reach):
        raise ComplexZeroError("repeated zero detected; zeros must be simple")
    if z.size:
        h = 1e-6 * (1.0 + np.abs(z))
        d1 = (np.real(sol.eval(z + h)) - np.real(sol.eval(z - h))) / (2 * h)
        near = z[:, None] + np.linspace(-1.0, 1.0, 17)
        scale = np.max(np.abs(np.real(sol.eval(near))), axis=1)
        if np.any(np.abs(d1) <= 1e-10 * np.maximum(scale, 1e-300)):
            raise ComplexZeroError("vanishing derivative at a zero; not simple")
    return z


# ---------------------------------------------------------------------------
# Variational identities and diagnostics
# ---------------------------------------------------------------------------


def orthogonality_residual(
    sol: ExtremalSolution,
    problem: ExtremalProblem,
    r_numerator_zeros: Tuple[float, float],
) -> float:
    """Normalized residual of the zero-pair variational identity.

    For zeros lambda_a, lambda_b of the extremal function, the signed
    integral of (x-xi)^2 |f|^p / ((x-lambda_a)(x-lambda_b) |E|^p) vanishes at
    a true optimum; it is returned normalized by the same integral with the
    denominator in absolute value.  Quadrature panels are split at the zeros
    of f (the integrand has |x - lambda|^{p-1} kinks there), and graded
    toward them for non-integer p.
    """
    return _orthogonality_residuals(
        sol._basis, sol._coef, sol.p, sol.spec, sol.xi, sol.zeros, [r_numerator_zeros]
    )[0]


def _orthogonality_residuals(
    basis: Union[_ChebBasis, _KernelBasis], c: np.ndarray, p: float, spec: HBSpec,
    xi: float, zeros: Sequence[float], pairs: Iterable[Tuple[float, float]],
) -> Tuple[float, ...]:
    """orthogonality_residual of each zero pair for f = basis.eval(c), whose
    real zeros are `zeros`, all on one quadrature grid.

    The pair-independent weight (x-xi)^2 |f/E|^p (basis.abs_ratio) is
    evaluated once per block of nodes, and each pair's absolute and signed
    sums are taken from it; panels are split at the zeros of f and at every
    pair's endpoints.  The kinks there, |x - lambda|^{p-1} and |x - lambda|^p, have integer
    exponents at integer p, where each side is analytic and a plain panel
    edge keeps the rule's geometric convergence; the panels are graded toward
    them only for non-integer p (numerics._graded_kinks).
    """
    pairs = [(float(la), float(lb)) for la, lb in pairs]
    if not pairs:
        return ()

    def integrands(x, active):
        # integrand 2i is pair i's absolute integral, 2i + 1 its signed one
        base = (x - xi) ** 2 * basis.abs_ratio(c, zeros, spec, x) ** p
        last = None
        for j in active:
            i, signed = divmod(j, 2)
            if i != last:
                da, db = x - pairs[i][0], x - pairs[i][1]
                # the integrand is bounded at the simple zeros (|x-l|^{p-1}
                # with p >= 1); mask nodes that hit them exactly to dodge 0/0
                ok = (da != 0.0) & (db != 0.0)
                if ok.all():
                    masked, dadb = base, da * db
                else:
                    masked = np.where(ok, base, 0.0)
                    dadb = np.where(ok, da, 1.0) * np.where(ok, db, 1.0)
                last = i
            yield masked / dadb if signed else masked / np.abs(dadb)

    splits = sorted(set(zeros).union(*pairs))
    # the signed integral sits orders below the absolute one; chasing machine
    # precision on it only grinds against the cancellation noise floor, so
    # its convergence is judged against the absolute integral
    scheme = QuadratureScheme(panels=8, target_rel_error=1e-9, max_refinements=6)
    m = 2 * len(pairs)
    res = _integrate_batch(
        integrands, m, basis.domain, scheme, splits,
        partners=[j - 1 if j % 2 else None for j in range(m)],
        graded=_graded_kinks(p),
    )
    out = []
    for den, num in zip(res[0::2], res[1::2]):
        if den.value <= 0:
            raise ArithmeticError("degenerate normalization integral")
        out.append(float(num.value / den.value))
    return tuple(out)


@dataclass(frozen=True)
class SeparationReport:
    """Observed zero gaps against the phase-derivative separation scales."""

    min_gap: float
    delta: float  # pi / (2 ||phi'||_inf), the Lemma scale
    a_zero_gap: float  # 2 pi / ||phi'||_inf, the A_alpha-zero spacing
    gap_over_delta: float
    per_gap_reference: Tuple[Optional[float], ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "min_gap": self.min_gap,
            "delta": self.delta,
            "a_zero_gap": self.a_zero_gap,
            "gap_over_delta": self.gap_over_delta,
            "per_gap_reference": [
                None if r is None else float(r) for r in self.per_gap_reference
            ],
            "passed": self.passed,
        }


def separation_report(sol: ExtremalSolution, problem: ExtremalProblem) -> SeparationReport:
    """Zero-separation diagnostics for a computed extremal function.

    Asserts strictly positive consecutive gaps and reports the reference
    scales delta = pi/(2 ||phi'||_inf) and 2 pi/||phi'||_inf.  The per-gap
    explicit constant B(p,p)^{-1} 3^{1-p} 4^{1-p} (delta/6) 2^{-p/2}
    (mu_{n+1}/mu_n)^{2(1-p)} (with mu = lambda - xi, both zeros on one side
    of xi) is attached as a reference value only.
    """
    sup = phase_derivative_sup(sol.spec).value
    delta = math.pi / (2.0 * sup)
    a_gap = 2.0 * math.pi / sup
    zeros = sorted(sol.zeros)
    p = sol.p
    refs: List[Optional[float]] = []
    if len(zeros) >= 2:
        log_beta = 2 * log_gamma(p) - log_gamma(2 * p)
        for lo, hi in zip(zeros[:-1], zeros[1:]):
            mu0, mu1 = lo - sol.xi, hi - sol.xi
            if mu0 == 0 or mu1 == 0 or (mu0 < 0) != (mu1 < 0):
                refs.append(None)
                continue
            ratio = abs(mu1 / mu0) if mu1 > 0 else abs(mu0 / mu1)
            refs.append(
                math.exp(-log_beta)
                * 3.0 ** (1 - p)
                * 4.0 ** (1 - p)
                * (delta / 6.0)
                * 2.0 ** (-p / 2)
                * ratio ** (2 * (1 - p))
            )
    gap = _min_gap(zeros)
    return SeparationReport(
        min_gap=gap,
        delta=delta,
        a_zero_gap=a_gap,
        gap_over_delta=gap / delta,
        per_gap_reference=tuple(refs),
        passed=gap > 0.0,
    )


def problem_to_dict(problem: ExtremalProblem) -> dict:
    from .hb_core import spec_to_dict

    if isinstance(problem.basis, PolynomialBasis):
        basis = {
            "kind": "polynomial",
            "max_degree": problem.basis.max_degree,
            "scale": problem.basis.scale,
        }
    else:
        basis = {"kind": "kernel_nodes", "nodes": list(problem.basis.nodes)}
    return {
        "p": problem.p,
        "spec": spec_to_dict(problem.spec),
        "xi": problem.xi,
        "basis": basis,
        "kkt_tol": problem.kkt_tol,
        "window": None if problem.window is None else list(problem.window),
    }


def problem_from_dict(d: dict) -> ExtremalProblem:
    """Parse the JSON wire format for extremal problems."""
    from .hb_core import SpecError, spec_from_dict

    if not isinstance(d, dict):
        raise SpecError("extremal problem must be a JSON object")
    try:
        b = d["basis"]
        if b["kind"] == "polynomial":
            basis = PolynomialBasis(int(b["max_degree"]), b.get("scale"))
        elif b["kind"] == "kernel_nodes":
            basis = KernelNodeBasis(tuple(float(t) for t in b["nodes"]))
        else:
            raise SpecError(f"unknown basis kind {b['kind']!r}")
        window = d.get("window")
        return ExtremalProblem(
            p=float(d["p"]),
            spec=spec_from_dict(d["spec"]),
            xi=float(d["xi"]),
            basis=basis,
            kkt_tol=d.get("kkt_tol"),
            window=None if window is None else (float(window[0]), float(window[1])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"malformed extremal problem: {exc}") from exc


def plateau_interval(spec: HBSpec, alpha: float, xi: float) -> Tuple[float, float]:
    """Interval around xi on which |A_alpha/E|^2 >= 1/2 is guaranteed.

    Requires |A_alpha(xi)| = |E(xi)|, i.e. B_alpha(xi) = 0.  The endpoints
    solve phi = phi(xi) -+ pi/2, so each half-width is at least
    pi / (2 ||phi'||_inf) by the mean value theorem.
    """
    return phase_bracket(spec, alpha, xi, math.pi / 2)


def mean_type_profile(
    sol: ExtremalSolution, y_samples: Sequence[float] = (10.0, 100.0, 1000.0)
) -> np.ndarray:
    """log |f(iy)/E(iy)| / y at each sample height."""
    out = []
    for y in y_samples:
        z = complex(0.0, float(y))
        fv = complex(sol.eval(z))
        ev = complex(eval_E(sol.spec, z))
        out.append(math.log(abs(fv / ev)) / y)
    return np.array(out)


def mean_type_diagnostic(
    sol: ExtremalSolution,
    problem: ExtremalProblem,
    y_samples: Sequence[float] = (10.0, 100.0, 1000.0),
    strict: bool = True,
) -> float:
    """max over sampled heights of log |f(iy)/E(iy)| / y.

    For polynomial-type ratios this approaches 0 from below like
    O(log y / y).  The value is a diagnostic, not a proof of mean type;
    strict mode asserts it stays below 1e-6 with |value| decreasing in y,
    which any certified member must satisfy.
    """
    prof = mean_type_profile(sol, y_samples)
    value = float(np.max(prof))
    if strict:
        if value > 1e-6:
            raise ArithmeticError(
                f"mean-type diagnostic {value} is positive: f/E grows along "
                "the imaginary axis, violating membership"
            )
        if not np.all(np.diff(np.abs(prof)) < 0):
            raise ArithmeticError(
                f"mean-type samples {prof} are not shrinking toward zero"
            )
    return value


def symmetrize_real(coefficients: Sequence[complex], sigma: float) -> np.ndarray:
    """Project complex monomial coefficients to the real entire symmetrization.

    g = (e^{-i sigma/2} f + e^{i sigma/2} f#) / 2 has coefficients
    Re(e^{-i sigma/2} c), satisfies g = g#, and |g| <= |f| pointwise on the
    real axis.  It is the reduction behind `solve`'s real coefficients: with
    e^{-i sigma/2} f(xi) = |f(xi)|, g keeps the value at xi and does not
    raise ||f/E||_p, so real entire candidates suffice.
    """
    c = np.asarray(list(coefficients), dtype=complex)
    return np.real(np.exp(-1j * sigma / 2.0) * c)
