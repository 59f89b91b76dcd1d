"""Self-verification suite.

Each criterion checks one headline identity, inequality, or structural
property at a fixed tolerance, on deterministic seeded instances.  The suite
is shared by the pytest acceptance module and the `selftest` CLI command;
every runner returns a CriterionResult with a one-line summary.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import bounds as B
from . import extremal as X
from .hb_core import (
    Combination,
    HBSpec,
    Kernel,
    PhaseProfile,
    RealPolynomial,
    RotationRealPart,
    eval_AB,
    eval_E,
    hb_bar_check,
    level_crossings,
    phase,
    phase_derivative,
    phase_derivative_sup,
    theta,
    upper_half_plane_grid,
)
from .hormander import (
    BracketUnavailableError,
    locate_extremum,
    verify_sign_free,
    verify_theorem1,
)

__all__ = ["CriterionResult", "CRITERIA", "run_all", "run_criterion"]

S_PI = HBSpec(exp_rate=math.pi)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    details: str
    elapsed: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion-{self.cid} {self.name}: {self.details} [{self.elapsed:.2f}s]"


def random_polynomial_spec(
    rng: np.random.Generator, min_degree: int = 3, max_degree: int = 12
) -> HBSpec:
    """Random polynomial-type spec: zeros uniform in [-3,3] x [-3,-0.1]."""
    n = int(rng.integers(min_degree, max_degree + 1))
    zeros = [
        complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, -0.1)) for _ in range(n)
    ]
    return HBSpec(zeros=zeros)


# ---------------------------------------------------------------------------
# 1-3: K(p), asymptotics, Paley-Wiener anchor
# ---------------------------------------------------------------------------


def crit_01_kp_identity(ctx) -> Tuple[bool, str]:
    worst = 0.0
    for p in (0.5, 1.0, 2.0, 3.0, 7.5, 20.0):
        kq = B.K_p_quadrature(p)
        kc = B.K_p_closed(p)
        worst = max(worst, abs(kq - kc) / kc)
    ok = worst <= 1e-9
    ok &= abs(B.K_p_closed(1.0) - 2.0) <= 1e-12
    ok &= abs(B.K_p_closed(2.0) - math.sqrt(math.pi / 2)) <= 1e-12
    return bool(ok), f"quadrature vs Gamma closed form, worst rel err {worst:.2e}"


def crit_02_asymptotics(ctx) -> Tuple[bool, str]:
    r4 = abs(B.asymptotic_check(1e4) - 1.0)
    r2 = abs(B.asymptotic_check(100.0) - 1.0)
    ok = r4 <= 0.01 and r2 <= 0.1
    return ok, f"|ratio-1| = {r4:.2e} at p=1e4, {r2:.2e} at p=100"


def crit_03_pw_anchor(ctx) -> Tuple[bool, str]:
    two_pi = 2 * math.pi
    ok = True
    worst = 0.0
    for p in (10.0, 100.0, 1000.0):
        lhs = B.embedding_bound(p, two_pi) ** p
        rhs = math.sqrt(math.pi * p / 2) * 1.1
        worst = max(worst, lhs / rhs)
        ok &= lhs <= rhs
    for p in np.linspace(0.5, 50.0, 100):
        chain = B.embedding_bound(float(p), two_pi) ** p
        ok &= chain <= B.nonasymptotic_bound_pth_power(float(p), two_pi) * (1 + 1e-12)
    return bool(ok), f"C(p,S_pi)^p within asymptote (worst quotient {worst:.4f}); Wendel chain holds on the sweep"


# ---------------------------------------------------------------------------
# 4: the classical lower bound on S_pi for 20 certified members
# ---------------------------------------------------------------------------


def _sinc2(shift: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    def f(x):
        u = np.pi * (np.asarray(x, dtype=float) - shift) / 2
        safe = np.where(np.abs(u) < 1e-8, 1.0, u)
        return np.where(np.abs(u) < 1e-8, 1.0 - u * u / 3, (np.sin(safe) / safe) ** 2)

    return f


def _pw_kernel_fn(sigma: float, t: float) -> Callable[[np.ndarray], np.ndarray]:
    k = Kernel(HBSpec(exp_rate=sigma), t)
    return lambda x: np.real(k.eval(np.asarray(x, dtype=float)))


def pw_lower_bound_suite() -> List[dict]:
    """20 certified members of H^inf(S_pi) with verification instructions."""
    cases: List[dict] = []
    for s in (0.0, 0.3, -0.7, 1.2, 2.5, -1.9):
        cases.append(
            dict(
                name=f"cos(pi(x-{s}))",
                f=RotationRealPart(S_PI, math.pi * s),
                mode="theorem1",
                window=None,
                bracket_width=2.0,
            )
        )
    for s in (0.45, -2.2):
        cases.append(
            dict(
                name=f"-cos(pi(x-{s}))",
                f=Combination([(-1.0, RotationRealPart(S_PI, math.pi * s))]),
                mode="sign_free",
                window=None,
                bracket_width=1.0,
            )
        )
    for sigma, t in ((math.pi / 2, 0.0), (math.pi / 2, 1.3), (math.pi / 4, -0.6), (3 * math.pi / 4, 0.2)):
        k = Kernel(HBSpec(exp_rate=sigma), t)
        k.certify(S_PI)
        cases.append(
            dict(
                name=f"K_{t} at type {sigma:.3f}",
                f=k,
                mode="theorem1",
                window=(t - 4.0, t + 4.0),
                bracket_width=2.0,
                norm=sigma / math.pi,
                xi=t,
            )
        )
    for beta in (0.0, 0.9):
        rot = RotationRealPart(HBSpec(exp_rate=math.pi / 2), beta)
        rot.certify(S_PI)
        cases.append(
            dict(
                name=f"half-type cosine beta={beta}",
                f=rot,
                mode="theorem1",
                window=(-4.0, 4.0),
                bracket_width=2.0,
            )
        )
    for t in (0.0, 0.8):
        base = _pw_kernel_fn(math.pi / 2, t)
        cases.append(
            dict(
                name=f"kernel square at {t}",
                f=(lambda b: (lambda x: b(x) ** 2))(base),
                mode="theorem1",
                window=(t - 3.0, t + 3.0),
                bracket_width=2.0,
                xi=t,
            )
        )
    cases.append(
        dict(name="sinc^2", f=_sinc2(), mode="theorem1", window=(-3.0, 3.0),
             bracket_width=2.0, xi=0.0, norm=1.0)
    )
    cases.append(
        dict(name="sinc^2 shifted", f=_sinc2(-1.1), mode="theorem1",
             window=(-4.1, 1.9), bracket_width=2.0, xi=-1.1)
    )
    k1 = _pw_kernel_fn(math.pi / 4, 0.3)
    k2 = _pw_kernel_fn(math.pi / 4, -0.2)
    cases.append(
        dict(name="quarter-kernel product", f=lambda x: k1(x) * k2(x),
             mode="theorem1", window=(-4.0, 4.0), bracket_width=2.0)
    )
    cases.append(
        dict(
            name="negated shifted quarter cosine",
            f=lambda x: -np.cos(math.pi / 4 * (np.asarray(x, dtype=float) - 0.5)),
            mode="sign_free",
            window=(-6.0, 7.0),
            bracket_width=1.0,
        )
    )
    assert len(cases) == 20
    return cases


def crit_04_hormander_classic(ctx) -> Tuple[bool, str]:
    ok = True
    worst = 0.0
    notes = []
    for case in pw_lower_bound_suite():
        verify = verify_theorem1 if case["mode"] == "theorem1" else verify_sign_free
        rep = verify(case["f"], S_PI, tol=1e-9, window=case["window"])
        worst = max(worst, -rep.min_margin_scaled)
        good = rep.passed
        width = rep.bracket[1] - rep.bracket[0]
        good &= abs(width - case["bracket_width"]) <= 1e-6
        good &= abs((rep.bracket[0] + rep.bracket[1]) / 2 - rep.xi) <= 1e-6
        if "xi" in case:
            good &= abs(rep.xi - case["xi"]) <= 1e-6
        if "norm" in case:
            good &= abs(rep.norm - case["norm"]) <= 1e-9
        if not good:
            notes.append(case["name"])
        ok &= good
    detail = f"20 members verified, worst margin -{worst:.2e}"
    if notes:
        detail += f"; FAILED: {notes}"
    return bool(ok), detail


# ---------------------------------------------------------------------------
# 5-6: random polynomial specs
# ---------------------------------------------------------------------------


def _shared_specs(ctx) -> List[HBSpec]:
    if "specs50" not in ctx:
        rng = np.random.default_rng(ctx["seed"] + 5)
        ctx["specs50"] = [random_polynomial_spec(rng) for _ in range(50)]
    return ctx["specs50"]


def _direct_sign_change_root(spec, alpha, x0, halfwidth) -> float:
    a, b = x0 - halfwidth, x0 + halfwidth
    fa = eval_AB(spec, alpha, a)[1]
    fb = eval_AB(spec, alpha, b)[1]
    if fa * fb > 0:
        raise ArithmeticError("no sign change around the phase-level bracket")
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = eval_AB(spec, alpha, m)[1]
        if fa * fm <= 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
        if b - a <= 1e-15 * (1.0 + abs(a) + abs(b)):
            break
    return 0.5 * (a + b)


def crit_05_theorem1_random(ctx) -> Tuple[bool, str]:
    specs = _shared_specs(ctx)
    rng = np.random.default_rng(ctx["seed"] + 55)
    ok = True
    worst = 0.0
    worst_bracket = 0.0
    redraws = 0
    for spec in specs:
        rep = None
        for _ in range(30):
            beta = float(rng.uniform(0.0, math.pi))
            try:
                rep = verify_theorem1(RotationRealPart(spec, beta), spec, tol=1e-9)
                break
            except BracketUnavailableError:
                # the drawn rotation has no interior sign-correct extremal
                # point on this spec; the theorem is vacuous there
                redraws += 1
        if rep is None:
            return False, "could not draw a non-degenerate rotation in 30 tries"
        ok &= rep.passed
        worst = max(worst, -rep.min_margin_scaled)
        # the phase-level bracket must agree with direct sign-change roots;
        # the probe halfwidth stays below the guaranteed B-zero spacing so
        # the interval holds exactly one sign change
        gap = 2 * math.pi / phase_derivative_sup(spec).value
        for b in rep.bracket:
            direct = _direct_sign_change_root(spec, rep.alpha, b, 0.4 * gap)
            worst_bracket = max(worst_bracket, abs(direct - b) / (1.0 + abs(b)))
        ok &= worst_bracket <= 1e-9
    return bool(ok), (
        f"50 specs, worst margin -{worst:.2e}, bracket vs sign-change "
        f"{worst_bracket:.2e}, {redraws} degenerate redraws"
    )


def crit_06_interlacing_phase(ctx) -> Tuple[bool, str]:
    specs = _shared_specs(ctx)
    rng = np.random.default_rng(ctx["seed"] + 6)
    ok = True
    worst_theta = 0.0
    worst_fd = 0.0
    for spec in specs:
        profile = PhaseProfile(spec)
        beta = float(rng.uniform(0.0, math.pi))
        window = (-12.0, 12.0)
        za = level_crossings(profile, 2 * beta + math.pi, window)
        zb = level_crossings(profile, 2 * beta, window)
        for lo, hi in zip(za[:-1], za[1:]):
            inside = [z for z in zb if lo < z < hi]
            ok &= len(inside) == 1
        for lo, hi in zip(zb[:-1], zb[1:]):
            inside = [z for z in za if lo < z < hi]
            ok &= len(inside) == 1
        xs = rng.uniform(-10.0, 10.0, size=20)
        tvals = theta(spec, xs)
        pvals = np.exp(1j * phase(profile, xs))
        worst_theta = max(worst_theta, float(np.max(np.abs(tvals - pvals))))
        h = 1e-5 * np.maximum(1.0, np.abs(xs))
        fd = (phase(profile, xs + h) - phase(profile, xs - h)) / (2 * h)
        pd = phase_derivative(spec, xs)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - pd) / pd)))
    ok &= worst_theta <= 1e-10
    ok &= worst_fd <= 1e-6
    return bool(ok), (
        f"interlacing on 50 specs; |e^(i phi) - Theta| {worst_theta:.2e}; "
        f"phi' vs finite differences {worst_fd:.2e}"
    )


# ---------------------------------------------------------------------------
# 7: kernel diagonal identity
# ---------------------------------------------------------------------------


def crit_07_kernel_identity(ctx) -> Tuple[bool, str]:
    rng = np.random.default_rng(ctx["seed"] + 7)
    worst = 0.0
    for _ in range(100):
        spec = random_polynomial_spec(rng, 1, 8)
        xi = float(rng.uniform(-4.0, 4.0))
        diag = float(np.real(B.kernel_eval(spec, xi, xi)))
        oracle = B.kernel_diagonal_oracle(spec, xi)
        worst = max(worst, abs(diag - oracle) / abs(oracle))
    ok = worst <= 1e-10
    one = HBSpec(zeros=(-1j,))
    two = HBSpec(zeros=(-1j, -1j))
    for z in (0.0, 0.37, -2.0 + 0.5j, 1.5j):
        ok &= abs(B.kernel_eval(one, 0.0, z) - 1 / math.pi) <= 1e-12
        ok &= abs(B.kernel_eval(two, 0.0, z) - 2 / math.pi) <= 1e-12
    return bool(ok), f"diagonal identity on 100 pairs, worst rel err {worst:.2e}; hand cases exact"


# ---------------------------------------------------------------------------
# 8: p = 2 consistency with the reproducing kernel
# ---------------------------------------------------------------------------


def _kernel_in_span_instance(rng) -> Tuple[HBSpec, float]:
    """Spec and xi with B_{-rotation}(xi) = 0, so K_xi drops to degree N-2."""
    while True:
        spec = HBSpec(
            zeros=tuple(
                complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, -0.2))
                for _ in range(int(rng.integers(4, 11)))
            ),
            rotation=float(rng.uniform(0.0, math.pi)),
        )
        profile = PhaseProfile(spec)
        xs = level_crossings(profile, -2.0 * spec.rotation, (-8.0, 8.0))
        if xs.size:
            return spec, float(xs[np.argmin(np.abs(xs))])


def crit_08_p2_consistency(ctx) -> Tuple[bool, str]:
    rng = np.random.default_rng(ctx["seed"] + 8)
    worst = 0.0
    ok = True
    for _ in range(10):
        spec, xi = _kernel_in_span_instance(rng)
        prob = X.ExtremalProblem(
            p=2.0, spec=spec, xi=xi, basis=X.PolynomialBasis(spec.degree - 2)
        )
        sol = X.solve(prob)
        exact = B.C2_exact(spec, xi)
        worst = max(worst, abs(sol.C_value - exact) / exact)
        # a generic xi pushes the kernel out of the span: never exceed
        xi_off = xi + 0.31
        prob_off = X.ExtremalProblem(
            p=2.0, spec=spec, xi=xi_off, basis=X.PolynomialBasis(spec.degree - 2)
        )
        sol_off = X.solve(prob_off)
        ok &= sol_off.C_value <= B.C2_exact(spec, xi_off) * (1 + 1e-10)
    ok &= worst <= 1e-8
    return bool(ok), f"kernel-in-span C matches sqrt(phi'/2pi) to {worst:.2e}; restricted C never exceeds it"


# ---------------------------------------------------------------------------
# 9 + 12: variational orthogonality, perturbation sensitivity, uniqueness
# ---------------------------------------------------------------------------


def _crit9_problems(seed: int) -> List[X.ExtremalProblem]:
    """Criterion 9's problems: ten random specs, one xi each, every p of
    (1, 1.5, 2, 3) at degree N - 2."""
    rng = np.random.default_rng(seed + 9)
    problems = []
    specs = []
    for _ in range(10):
        n = int(rng.integers(4, 11))
        specs.append(
            HBSpec(
                zeros=tuple(
                    complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.0, -0.15))
                    for _ in range(n)
                )
            )
        )
    for spec in specs:
        xi = float(rng.uniform(-1.0, 1.0))
        for p in (1.0, 1.5, 2.0, 3.0):
            problems.append(X.ExtremalProblem(
                p=p, spec=spec, xi=xi, basis=X.PolynomialBasis(spec.degree - 2)
            ))
    return problems


def _crit9_instances(ctx):
    if "crit9" not in ctx:
        ctx["crit9"] = [(prob, X.solve(prob)) for prob in _crit9_problems(ctx["seed"])]
    return ctx["crit9"]


def _perturbed_residual(prob, sol, rng) -> float:
    """Largest zero-pair residual after a 1% coefficient perturbation."""
    c = sol._coef
    best = 0.0
    for _ in range(5):
        pert = c * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, size=c.size))
        zeros = sol._basis.split_guesses(pert)
        if len(zeros) < 2:
            continue
        resids = X._orthogonality_residuals(
            sol._basis, pert, sol.p, sol.spec, sol.xi, zeros, zip(zeros, zeros[1:])
        )
        best = max([best, *map(abs, resids)])
        if best > 1e-3:
            break
    return best


def crit_09_orthogonality(ctx) -> Tuple[bool, str]:
    instances = _crit9_instances(ctx)
    rng = np.random.default_rng(ctx["seed"] + 99)
    ok = True
    worst = {1.0: 0.0, 1.5: 0.0, 2.0: 0.0, 3.0: 0.0}
    pert_ok = True
    pert_checked = 0
    for prob, sol in instances:
        tol = 1e-4 if prob.p == 1.0 else 1e-6
        big = max((abs(r) for r in sol.orthogonality_residuals), default=0.0)
        worst[prob.p] = max(worst[prob.p], big)
        ok &= big <= tol
        if prob.p in (1.5, 2.0) and len(sol.zeros) >= 2 and pert_checked < 6:
            pert_checked += 1
            pert_ok &= _perturbed_residual(prob, sol, rng) > 1e-3
    ok &= pert_ok
    detail = ", ".join(f"p={p}: {v:.2e}" for p, v in worst.items())
    return bool(ok), f"worst residuals {detail}; perturbation sensitivity on {pert_checked} cases: {'ok' if pert_ok else 'FAILED'}"


def crit_12_uniqueness(ctx) -> Tuple[bool, str]:
    instances = _crit9_instances(ctx)
    worst = 0.0
    for prob, _ in instances:
        s1 = X.solve(prob, seed=101)
        s2 = X.solve(prob, seed=909)
        c1 = s1.coefficients / np.linalg.norm(s1.coefficients)
        c2 = s2.coefficients / np.linalg.norm(s2.coefficients)
        worst = max(worst, float(np.linalg.norm(c1 - c2)))
    return worst <= 1e-6, f"random-start coefficient distance at most {worst:.2e}"


# ---------------------------------------------------------------------------
# 10: zero structure and separation scales
# ---------------------------------------------------------------------------


def crit_10_zero_structure(ctx) -> Tuple[bool, str]:
    instances = _crit9_instances(ctx)
    ok = True
    min_gap = math.inf
    for prob, sol in instances:
        zeros = X.extract_zeros(sol, prob)  # raises on complex/repeated
        if zeros.size >= 2:
            min_gap = min(min_gap, float(np.min(np.diff(zeros))))
            ok &= float(np.min(np.diff(zeros))) > 0.0
    # A_alpha-zero gaps and the |A/E|^2 >= 1/2 plateau, over an alpha sweep
    specs = {id(prob.spec): prob.spec for prob, _ in instances}.values()
    worst_gap_slack = math.inf
    worst_half = math.inf
    for spec in specs:
        sup = phase_derivative_sup(spec).value
        profile = PhaseProfile(spec)
        for alpha in np.linspace(0.0, math.pi, 16, endpoint=False):
            za = level_crossings(profile, 2 * alpha + math.pi, (-12.0, 12.0))
            if za.size >= 2:
                worst_gap_slack = min(
                    worst_gap_slack, float(np.min(np.diff(za))) - 2 * math.pi / sup
                )
                ok &= float(np.min(np.diff(za))) >= 2 * math.pi / sup - 1e-9
            zb = level_crossings(profile, 2 * alpha, (-8.0, 8.0))
            if not zb.size:
                continue
            xi = float(zb[np.argmin(np.abs(zb))])
            lo, hi = X.plateau_interval(spec, alpha, xi)
            half = min(xi - lo, hi - xi)
            worst_half = min(worst_half, half - math.pi / (2 * sup))
            ok &= half >= math.pi / (2 * sup) - 1e-9
            xs = np.linspace(lo, hi, 64)
            a, _ = eval_AB(spec, alpha, xs)
            ok &= bool(
                np.all(a ** 2 / np.abs(eval_E(spec, xs)) ** 2 >= 0.5 - 1e-9)
            )
    return bool(ok), (
        f"extremal zeros real+simple (min gap {min_gap:.3f}); A-zero gap slack "
        f">= {worst_gap_slack:.2e}; plateau half-width slack >= {worst_half:.2e}"
    )


# ---------------------------------------------------------------------------
# 11: the Hermite-Biehler-bar sampling of the main lemma
# ---------------------------------------------------------------------------


def crit_11_main_lemma(ctx) -> Tuple[bool, str]:
    rng = np.random.default_rng(ctx["seed"] + 11)
    worst = 0.0
    ok = True
    for _ in range(20):
        spec = random_polynomial_spec(rng, 2, 8)
        kind = rng.integers(0, 3)
        if kind == 0:
            f = RotationRealPart(spec, float(rng.uniform(0, math.pi)))
        elif kind == 1:
            k = Kernel(spec, float(rng.uniform(-2, 2)))
            _, norm = locate_extremum(k, spec)
            f = Combination([(1.0 / (norm * (1 + 1e-9)), k)])
        else:
            poly = RealPolynomial(rng.uniform(-1, 1, size=max(1, spec.degree - 1)))
            _, norm = locate_extremum(poly, spec)
            f = Combination([(1.0 / (norm * (1 + 1e-9)), poly)])
        lam = cmath.exp(1j * float(rng.uniform(0, 2 * math.pi)))
        grid = upper_half_plane_grid((-6.0, 6.0), (0.05, 4.0), 32, 32)

        def g(z, f=f, lam=lam):
            return np.asarray(f.eval(z)) - lam * eval_E(spec, z)

        def g_sharp(z, f=f, lam=lam):
            return np.asarray(f.eval(z)) - np.conj(lam) * eval_E(spec, z, conjugate=True)

        rep = hb_bar_check(g, g_sharp, grid, tol=1e-12)
        worst = max(worst, rep.worst_ratio)
        ok &= rep.passed
    return bool(ok), f"20 (f, E, lambda) triples, worst |g#/g| = {worst:.15f}"


CRITERIA = [
    ("01", "K(p) quadrature vs Gamma identity", crit_01_kp_identity),
    ("02", "1/K(p)^p asymptotics", crit_02_asymptotics),
    ("03", "Paley-Wiener anchor and Wendel chain", crit_03_pw_anchor),
    ("04", "classical lower bound on S_pi (20 members)", crit_04_hormander_classic),
    ("05", "lower bound on 50 random specs", crit_05_theorem1_random),
    ("06", "interlacing and phase consistency", crit_06_interlacing_phase),
    ("07", "reproducing-kernel diagonal identity", crit_07_kernel_identity),
    ("08", "p=2 extremal consistency", crit_08_p2_consistency),
    ("09", "variational orthogonality at optima", crit_09_orthogonality),
    ("10", "zero structure and separation scales", crit_10_zero_structure),
    ("11", "HB-bar sampling of the difference lemma", crit_11_main_lemma),
    ("12", "uniqueness for p >= 1", crit_12_uniqueness),
]


def run_criterion(cid: str, ctx: Dict) -> CriterionResult:
    for c, name, fn in CRITERIA:
        if c == cid:
            t0 = time.perf_counter()
            passed, details = fn(ctx)
            return CriterionResult(cid, name, passed, details, time.perf_counter() - t0)
    raise KeyError(f"unknown criterion {cid}")


def run_all(seed: int = 0, verbose: bool = True) -> List[CriterionResult]:
    ctx: Dict = {"seed": seed}
    out = []
    for cid, _, _ in CRITERIA:
        res = run_criterion(cid, ctx)
        if verbose:
            print(res.line())
        out.append(res)
    return out
