"""Embedding-norm bounds, the K(p) constant, and reproducing kernels.

K(p) is the p-norm of cosine over a half period; the embedding norm of
H^p(E) into H^inf(E) is bounded by ||phi'||_inf^{1/p} / (2^{1/p} K(p)), with
a Wendel-inequality relaxation giving a fully explicit p-th power bound.
For p = 2 the point-evaluation constant is exact: sqrt(phi'(xi) / 2 pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .hb_core import (
    HBSpec,
    Kernel,
    PhaseProfile,
    eval_E,
    eval_E_prime,
    phase,
    phase_derivative,
    phase_derivative_sup,
    rotate,
)
from .numerics import (
    NonConvergenceError,
    QuadratureScheme,
    _graded_kinks,
    _integrate_batch,
    integrate,
    log_gamma,
)

__all__ = [
    "K_p_closed",
    "K_p_quadrature",
    "embedding_bound",
    "nonasymptotic_bound_pth_power",
    "asymptotic_check",
    "interval_energy",
    "kernel_eval",
    "kernel_diagonal_oracle",
    "C2_exact",
    "C2_embedding_norm",
    "BoundReport",
    "make_bound_report",
]


def _log_K_pth_power(p: float) -> float:
    # K(p)^p = sqrt(pi) Gamma((p+1)/2) / Gamma((p+2)/2)
    return 0.5 * math.log(math.pi) + log_gamma((p + 1) / 2) - log_gamma((p + 2) / 2)


def K_p_closed(p: float) -> float:
    """K(p) = [sqrt(pi) Gamma((p+1)/2) / Gamma((p+2)/2)]^{1/p}, p > 0."""
    if not p > 0:
        raise ValueError(f"K(p) requires p > 0, got {p}")
    return math.exp(_log_K_pth_power(p) / p)


def K_p_quadrature(p: float, scheme: Optional[QuadratureScheme] = None) -> float:
    """K(p) by direct quadrature of |cos|^p over (-pi/2, pi/2).

    Serves as the independent oracle for the Gamma closed form.  The
    integrand has |x -+ pi/2|^p endpoint kinks for non-even p, so panels are
    graded toward both endpoints.
    """
    if not p > 0:
        raise ValueError(f"K(p) requires p > 0, got {p}")
    res = integrate(
        lambda x: np.abs(np.cos(x)) ** p,
        (-math.pi / 2, math.pi / 2),
        scheme,
        singular_points=(-math.pi / 2, math.pi / 2),
    )
    return float(res.value) ** (1.0 / p)


def embedding_bound(p: float, phase_sup: float) -> float:
    """The bound ||phi'||_inf^{1/p} / (2^{1/p} K(p)) for C(p, E)."""
    if not (p > 0 and phase_sup > 0):
        raise ValueError("p and phase_sup must be positive")
    return (phase_sup / 2.0) ** (1.0 / p) / K_p_closed(p)


def nonasymptotic_bound_pth_power(p: float, phase_sup: float) -> float:
    """Explicit bound for C(p, E)^p: ||phi'||_inf * (1/2) * sqrt((p+1)/(2 pi)).

    Dominates phase_sup / (2 K(p)^p) for every p by Wendel's inequality
    Gamma(x + 1/2) <= x^{1/2} Gamma(x).
    """
    if not (p > 0 and phase_sup > 0):
        raise ValueError("p and phase_sup must be positive")
    return phase_sup * 0.5 * math.sqrt((p + 1) / (2 * math.pi))


def asymptotic_check(p: float) -> float:
    """(1 / K(p)^p) / sqrt(p / (2 pi)); tends to 1 as p grows."""
    if not p >= 1:
        raise ValueError(f"asymptotic check needs p >= 1, got {p}")
    return math.exp(-_log_K_pth_power(p)) / math.sqrt(p / (2 * math.pi))


def interval_energy(
    spec: HBSpec,
    alpha: float,
    p: float,
    pair: Tuple[float, float],
    scheme: Optional[QuadratureScheme] = None,
    identity_tol: float = 1e-8,
) -> float:
    """I(alpha, p) = int_{a_l}^{a_r} |A_alpha/E|^p over consecutive A_alpha zeros.

    Validates by phase count that the endpoints really are consecutive zeros
    of A_alpha (phi jumps by exactly 2 pi across them, landing on the
    2*alpha + pi level), and cross-checks the quadrature against the phase
    identity I = 2^{-p/2} int |1 + cos(phi - 2 alpha)|^{p/2}.  Both
    integrands vanish like |x - a|^p at the ends; the panels are graded
    toward the ends only for non-integer p, where that kink costs the rule
    its geometric convergence (for integer p each end is a plain panel
    edge, as numerics._graded_kinks decides).  Raises NonConvergenceError
    when either integral misses its quadrature target.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    a_l, a_r = float(pair[0]), float(pair[1])
    if not a_l < a_r:
        raise ValueError(f"need a_l < a_r, got ({a_l}, {a_r})")
    profile = PhaseProfile(spec)
    two_pi = 2 * math.pi
    phi_l = phase(profile, a_l)
    phi_r = phase(profile, a_r)
    lvl = (phi_l - (2 * alpha + math.pi)) / two_pi
    if abs(lvl - round(lvl)) > 1e-6:
        raise ValueError(
            f"left endpoint {a_l} is not a zero of A_alpha "
            f"(phase offset {lvl} turns from the level)"
        )
    if abs((phi_r - phi_l) - two_pi) > 1e-6:
        raise ValueError(
            f"endpoints are not consecutive zeros of A_alpha: phase gap "
            f"{phi_r - phi_l} != 2 pi"
        )

    def integrands(x, active):
        # integrand 0 is |A_alpha/E|^p, integrand 1 the phase identity's
        for j in active:
            if j == 0:
                e = eval_E(spec, x)
                yield np.abs(rotate(e, alpha)[0] / np.abs(e)) ** p
            else:
                yield np.abs(1.0 + np.cos(phase(profile, x) - 2 * alpha)) ** (p / 2)

    res, ide = _integrate_batch(
        integrands, 2, (a_l, a_r), scheme, (a_l, a_r), graded=_graded_kinks(p)
    )
    if not (res.converged and ide.converged):
        raise NonConvergenceError(f"interval energy integrals unconverged: {res}, {ide}")
    identity_value = 2.0 ** (-p / 2) * ide.value
    if abs(identity_value - res.value) > identity_tol * max(abs(res.value), 1e-300):
        raise ArithmeticError(
            f"interval energy {res.value} disagrees with its phase identity "
            f"{identity_value}"
        )
    return float(res.value)


def kernel_eval(spec: HBSpec, xi: float, z):
    """K_xi(z), with the removable singularity at z = xi filled in."""
    return Kernel(spec, xi).eval(z)


def kernel_diagonal_oracle(spec: HBSpec, xi: float) -> float:
    """K_xi(xi) by the independent route pi^{-1} Im(conj(E'(xi)) E(xi)).

    Uses the analytic logarithmic derivative of the product form, not the
    bump-sum formula for phi', so it cross-checks the diagonal identity.
    Raises OverflowError where the value is not finite in floating point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = complex(eval_E(spec, xi))
        ep = complex(eval_E_prime(spec, xi))
    value = (ep.conjugate() * e).imag / math.pi
    if not math.isfinite(value):
        raise OverflowError(f"K_xi(xi) at xi = {xi} is not finite in floating point")
    return value


def C2_exact(spec: HBSpec, xi: float) -> float:
    """The exact p = 2 point-evaluation constant sqrt(phi'(xi) / (2 pi))."""
    return math.sqrt(phase_derivative(spec, xi) / (2 * math.pi))


def C2_embedding_norm(spec: HBSpec) -> Tuple[float, bool, Optional[float]]:
    """C(2, E) = sup_xi sqrt(phi'(xi) / 2 pi) with the attainment flag.

    Returns (value, attained, location): an H^2 extremizer for the embedding
    exists iff phi' attains its supremum at a finite point, in which case
    location is that point.
    """
    sup = phase_derivative_sup(spec)
    value = math.sqrt(sup.value / (2 * math.pi))
    return value, sup.location is not None, sup.location


@dataclass(frozen=True)
class BoundReport:
    """Embedding bound bundle for one (p, phase_sup) pair."""

    p: float
    K_p: float
    C_bound: float
    C_bound_nonasymptotic_pth_power: float
    phase_sup: float
    asymptotic_ratio: float

    def __post_init__(self):
        # Wendel chain: the closed-form bound's p-th power never exceeds the
        # explicit non-asymptotic form
        chain = self.phase_sup / (2.0 * math.exp(_log_K_pth_power(self.p)))
        if chain > self.C_bound_nonasymptotic_pth_power * (1 + 1e-12):
            raise ArithmeticError(
                "Wendel chain violated: C_bound^p exceeds the non-asymptotic bound"
            )

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "K_p": self.K_p,
            "C_bound": self.C_bound,
            "C_bound_pth_power": self.phase_sup / (2.0 * math.exp(_log_K_pth_power(self.p))),
            "C_bound_nonasymptotic_pth_power": self.C_bound_nonasymptotic_pth_power,
            "phase_sup": self.phase_sup,
            "asymptotic_ratio": self.asymptotic_ratio,
        }


def make_bound_report(p: float, phase_sup: float) -> BoundReport:
    return BoundReport(
        p=p,
        K_p=K_p_closed(p),
        C_bound=embedding_bound(p, phase_sup),
        C_bound_nonasymptotic_pth_power=nonasymptotic_bound_pth_power(p, phase_sup),
        phase_sup=phase_sup,
        asymptotic_ratio=asymptotic_check(p) if p >= 1 else float("nan"),
    )
