"""Accuracy referee: returned numbers re-measured at 30 to 50 digits.

For a returned polynomial-mode solution f (its scaled Chebyshev
coefficients), C_true = |f(xi)| / |E(xi)| / ||f/E||_p, with the value taken
by Clenshaw's recurrence at xi / scale and the norm by mpmath's quadrature on
the whole line, split at the zeros of f (the reported ones, polished).
C_value must agree with it: the solver's own evaluation and norm integral
are the only things between them.

For a kernel K_t, the extremal point xi that hormander.locate_extremum
returns must agree with the argmax of |K_t/E| found at 50 digits.  Run as a
script, this file prints that comparison over 27 kernels, for this checkout
and optionally a parent checkout:

    PYTHONPATH=src python tests/test_referee.py [PARENT_CHECKOUT]

With --C it prints instead one table of C errors over the seed-1 xi_sweep
and extremal_mix benchmark solves and the criterion-9 problems, the
norm_converged count of the benchmark solves, and, for each p of criterion
9, the worst zero-pair residual as reported and as the returned f has it at
30 digits, and the worst error of a reported one (about 5 minutes a
checkout):

    PYTHONPATH=src python tests/test_referee.py --C [PARENT_CHECKOUT]
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_specs, xi_sweep_spec
from debranges import acceptance as A
from debranges import extremal as X
from debranges.hb_core import HBSpec, Kernel
from debranges.hormander import locate_extremum

mpmath = pytest.importorskip("mpmath")

DIGITS = 30


def _mp_f(sol):
    """The returned f at the working precision: Clenshaw's recurrence on its
    scaled Chebyshev coefficients at x / scale."""
    mp = mpmath.mp
    coef = [mp.mpf(float(c)) for c in sol._coef]
    scale = mp.mpf(sol._basis.scale)

    def f(x):
        t = x / scale
        b1 = b2 = mp.zero
        for c in reversed(coef[1:]):
            b1, b2 = 2 * t * b1 - b2 + c, b1
        return t * b1 - b2 + coef[0]

    return f


def _mp_zeros(sol, f):
    """The reported zeros, each polished into a zero of f at the working
    precision: a float zero is off the true one by the rooting's rounding,
    and a kink or a pair endpoint placed there is off by as much."""
    mp = mpmath.mp
    return [mp.findroot(f, mp.mpf(z)) for z in sol.zeros]


def _mp_abs_E(sol):
    mp = mpmath.mp
    roots = [mp.mpc(complex(r)) for r in sol.spec.roots]
    return lambda x: sol.spec.scale * mp.fprod(abs(x - r) for r in roots)


def referee_C(sol) -> float:
    """C of the returned f, computed at DIGITS digits."""
    mp = mpmath.mp
    with mp.workdps(DIGITS):
        f, abs_E = _mp_f(sol), _mp_abs_E(sol)
        p = mp.mpf(sol.p)

        def ratio_pow(x):
            return abs(f(x) / abs_E(x)) ** p

        points = [-mp.inf, *_mp_zeros(sol, f), mp.inf]
        norm = mp.quad(ratio_pow, points) ** (1 / p)
        xi = mp.mpf(sol.xi)
        return float(abs(f(xi)) / abs_E(xi) / norm)


def referee_residual(sol, pair) -> float:
    """The zero-pair residual of the returned f for the pair (lambda_a,
    lambda_b) of its reported zeros, at DIGITS digits: the signed integral
    of (x - xi)^2 |f/E|^p / ((x - lambda_a)(x - lambda_b)) over the same
    with the denominator in absolute value, both split at f's zeros, and
    every zero polished at that precision."""
    mp = mpmath.mp
    with mp.workdps(DIGITS):
        f, abs_E = _mp_f(sol), _mp_abs_E(sol)
        p, xi = mp.mpf(sol.p), mp.mpf(sol.xi)
        zeros = _mp_zeros(sol, f)
        a, b = (zeros[sol.zeros.index(z)] for z in pair)

        def weight(x):
            return (x - xi) ** 2 * abs(f(x) / abs_E(x)) ** p

        points = [-mp.inf, *zeros, mp.inf]
        num = mp.quad(lambda x: weight(x) / ((x - a) * (x - b)), points)
        den = mp.quad(lambda x: weight(x) / abs((x - a) * (x - b)), points)
        return float(num / den)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_C_value_matches_the_referee(p):
    # the first two criterion-9 problems of seed 0 at p; the second read
    # C errors of 3.4e-13 to 1.4e-12 while C came from the Chebyshev series
    problems = [prob for prob in A._crit9_problems(0) if prob.p == p]
    for prob in problems[:2]:
        sol = X.solve(prob)
        c_true = referee_C(sol)
        assert abs(sol.C_value - c_true) <= 1e-13 * c_true


def test_xi_sweep_norm_integrals_settle_at_the_first_doubling(monkeypatch):
    # the xi_sweep spec at p = 3, xi = 1.273: read through the Chebyshev
    # series, the norm integrals doubled 7 and 8 times against its rounding
    # noise (up to 2.5e-11 a level) and C was 1.5e-11 off
    prob = X.ExtremalProblem(
        p=3.0, spec=xi_sweep_spec(), xi=float(np.linspace(-2.0, 2.0, 12)[9]),
        basis=X.PolynomialBasis(10),
    )
    levels, batch = [], X._integrate_batch

    def spy(integrands, m, *args, **kwargs):
        res = batch(integrands, m, *args, **kwargs)
        if m == 1:
            levels.append(res[0].refinements)
        return res

    monkeypatch.setattr(X, "_integrate_batch", spy)
    sol = X.solve(prob)
    assert len(levels) == 2 and max(levels) <= 2
    assert sol.norm_converged
    c_true = referee_C(sol)
    assert abs(sol.C_value - c_true) <= 1e-13 * c_true


XI_DIGITS = 50


def referee_xi(spec: HBSpec, t: float, xi: float) -> float:
    """The argmax of |K_t/E| next to xi, at XI_DIGITS digits: the root of the
    slope of log|K_t/E| = log|sin((phi(x) - phi(t))/2)| - log|x - t| + const,
    (phi'(x)/2) cot((phi(x) - phi(t))/2) - 1/(x - t), started at xi."""
    mp = mpmath.mp
    with mp.workdps(XI_DIGITS):
        bumps = [(mp.mpf(float(a)), mp.mpf(float(b))) for a, b in zip(spec.x_n, spec.yhat_n)]
        t = mp.mpf(t)

        def phi(x):
            return 2 * mp.fsum(mp.atan((x - a) / b) for a, b in bumps)

        def slope(x):
            dphi = 2 * mp.fsum(b / ((x - a) ** 2 + b * b) for a, b in bumps)
            return dphi / 2 * mp.cot((phi(x) - phi(t)) / 2) - 1 / (x - t)

        return float(mp.findroot(slope, mp.mpf(xi)))


def hb_verify_nodes(seed: int) -> dict:
    """The kernel node of each reference spec's first hb_verify case: per
    degree the benchmark draws a rotation angle, the node and a pick."""
    rng = np.random.default_rng(seed)
    nodes = {}
    for n in reference_specs():
        rng.uniform(0.0, math.pi)
        nodes[n] = float(rng.uniform(-1.0, 1.0))
        rng.uniform()
    return nodes


def off_centre_kernels(count: int = 12):
    """(spec, t) with 4 to 6 zeros clustered about a centre c in (-40, 40),
    and the node within 1 of c."""
    rng = np.random.default_rng(1)
    out = []
    for _ in range(count):
        n = int(rng.integers(4, 7))
        c = rng.uniform(-40.0, 40.0)
        zeros = [complex(c + rng.uniform(-3, 3), rng.uniform(-3, -0.1)) for _ in range(n)]
        out.append((HBSpec(zeros=zeros), float(c + rng.uniform(-1, 1))))
    return out


def xi_cases():
    """The 27 referee kernels as (label, spec, t): the reference specs with
    N <= 65 at the hb_verify nodes of seeds 1-3, then the off-centre ones."""
    specs = reference_specs()
    cases = [
        (f"ref N={n} seed={seed}", specs[n], t)
        for seed in (1, 2, 3)
        for n, t in hb_verify_nodes(seed).items()
        if n <= 65
    ]
    cases += [(f"off-centre {i}", spec, t) for i, (spec, t) in enumerate(off_centre_kernels())]
    return cases


def xi_error(spec: HBSpec, t: float) -> tuple:
    """(xi, |xi - xi_ref| / (1 + |xi|)) for locate_extremum on K_t."""
    xi, _ = locate_extremum(Kernel(spec, t), spec)
    return xi, abs(xi - referee_xi(spec, t, xi)) / (1.0 + abs(xi))


@pytest.mark.parametrize("label", ["ref N=3 seed=1", "ref N=8 seed=1", "off-centre 4", "off-centre 7"])
def test_xi_matches_the_referee(label):
    spec, t = {lab: (spec, t) for lab, spec, t in xi_cases()}[label]
    _, err = xi_error(spec, t)
    assert err <= 1e-13


def bench_solves():
    """(workload, problem, seed, measured) for every xi_sweep and
    extremal_mix problem of benchmark seed 1, cold (seed None) and seeded;
    measured is False on the xi_sweep known-defect points."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from bench.workloads import ExtremalMix, XiSweep

    out = []
    for work in (XiSweep(1), ExtremalMix(1)):
        for pool, measured in ((work.problems, True), (work.defect_problems, False)):
            for prob, start in pool:
                out += [(work.name, prob, seed, measured) for seed in (None, start)]
    return out


def C_report() -> dict:
    """C errors against referee_C on the measured seed-1 bench solves (44
    of xi_sweep, 56 of extremal_mix) and the 40 criterion-9 problems of seed
    0; the norm_converged count over all 104 bench solves; and, per p over
    the criterion-9 problems, the largest |residual| reported (criterion 9's
    figure), the largest referee_residual and the largest distance between
    the two, over every zero pair."""
    errors = {"xi_sweep": [], "extremal_mix": [], "criterion 9": []}
    solves, converged = bench_solves(), 0
    for name, prob, seed, measured in solves:
        sol = X.solve(prob, seed=seed)
        converged += bool(sol.norm_converged)
        if measured:
            c_true = referee_C(sol)
            errors[name].append(abs(sol.C_value - c_true) / c_true)
    residuals = {}
    for prob in A._crit9_problems(0):
        sol = X.solve(prob)
        c_true = referee_C(sol)
        errors["criterion 9"].append(abs(sol.C_value - c_true) / c_true)
        worst = residuals.setdefault(prob.p, [0.0, 0.0, 0.0])
        for i, reported in enumerate(sol.orthogonality_residuals):
            true = referee_residual(sol, sol.zeros[i : i + 2])
            for k, v in enumerate((reported, true, reported - true)):
                worst[k] = max(worst[k], abs(v))
    return {"C": errors, "converged": [converged, len(solves)], "residuals": residuals}


def _run_on(checkout: Path, mode: str):
    """This file's `mode` output with debranges imported from checkout/src."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run(
        [sys.executable, __file__, mode], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def print_C_table(checkouts) -> None:
    """One table, each checkout a column, of C_report's figures."""
    reports = [_run_on(c, "--C-report") for c in checkouts]
    head = ["quantity"] + [c.name for c in checkouts[:-1]] + ["this checkout"]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))

    def row(label, cells):
        print(f"| {label} | " + " | ".join(cells) + " |")

    for name in reports[-1]["C"]:
        size = len(reports[-1]["C"][name])
        for stat, pick in (("worst", np.max), ("median", np.median)):
            row(f"C error, {name} ({size}), {stat}", [f"{pick(r['C'][name]):.1e}" for r in reports])
    row("norm_converged, bench solves", ["{} of {}".format(*r["converged"]) for r in reports])
    labels = ("reported", f"at {DIGITS} digits", "error of a reported one")
    for p in reports[-1]["residuals"]:
        for k, label in enumerate(labels):
            cells = [f"{r['residuals'][p][k]:.2e}" for r in reports]
            row(f"p = {float(p):g} worst residual, {label}", cells)


def main(argv) -> None:
    if argv == ["--errors"]:
        print(json.dumps([xi_error(spec, t) for _, spec, t in xi_cases()]))
        return
    if argv == ["--C-report"]:
        print(json.dumps(C_report()))
        return
    table_C = argv[:1] == ["--C"]
    checkouts = [Path(a).resolve() for a in argv[table_C:]] + [Path(__file__).resolve().parents[1]]
    if table_C:
        print_C_table(checkouts)
        return
    columns = [_run_on(c, "--errors") for c in checkouts]
    head = ["case", "xi"] + [f"error ({c.name})" for c in checkouts[:-1]] + ["error (this checkout)"]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for (label, _, _), *rows in zip(xi_cases(), *columns):
        print(f"| {label} | {rows[-1][0]:.15g} | " + " | ".join(f"{r[1]:.1e}" for r in rows) + " |")
    for name, pick in (("median", np.median), ("worst", np.max)):
        vals = [f"{pick([r[1] for r in col]):.1e}" for col in columns]
        print(f"| {name} | | " + " | ".join(vals) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
