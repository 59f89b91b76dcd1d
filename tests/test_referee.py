"""Accuracy referee: returned numbers re-measured at 30 to 50 digits.

For a returned polynomial-mode solution f (its scaled Chebyshev
coefficients), C_true = |f(xi)| / |E(xi)| / ||f/E||_p, with the value taken
by Clenshaw's recurrence at xi / scale and the norm by mpmath's quadrature on
the whole line, split at the reported zeros of f.  C_value must agree with
it: the solver's own norm integral is the only thing between them.

For a kernel K_t, the extremal point xi that hormander.locate_extremum
returns must agree with the argmax of |K_t/E| found at 50 digits.  Run as a
script, this file prints that comparison over 27 kernels, for this checkout
and optionally a parent checkout:

    PYTHONPATH=src python tests/test_referee.py [PARENT_CHECKOUT]
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_specs
from debranges import acceptance as A
from debranges import extremal as X
from debranges.hb_core import HBSpec, Kernel
from debranges.hormander import locate_extremum

mpmath = pytest.importorskip("mpmath")

DIGITS = 30


def referee_C(sol) -> float:
    """C of the returned f, computed at DIGITS digits."""
    mp = mpmath.mp
    with mp.workdps(DIGITS):
        coef = [mp.mpf(float(c)) for c in sol._coef]
        scale = mp.mpf(sol._basis.scale)
        roots = [mp.mpc(complex(r)) for r in sol.spec.roots]
        p = mp.mpf(sol.p)

        def f(x):
            t = x / scale
            b1 = b2 = mp.zero
            for c in reversed(coef[1:]):
                b1, b2 = 2 * t * b1 - b2 + c, b1
            return t * b1 - b2 + coef[0]

        def abs_E(x):
            return sol.spec.scale * mp.fprod(abs(x - r) for r in roots)

        def ratio_pow(x):
            return abs(f(x) / abs_E(x)) ** p

        points = [-mp.inf, *(mp.mpf(z) for z in sol.zeros), mp.inf]
        norm = mp.quad(ratio_pow, points) ** (1 / p)
        xi = mp.mpf(sol.xi)
        return float(abs(f(xi)) / abs_E(xi) / norm)


@pytest.fixture(scope="module")
def crit9_p3():
    """The first four criterion-9 problems of seed 0 at p = 3, solved (the
    second reads the set's worst C error, 1.4e-12)."""
    problems = [prob for prob in A._crit9_problems(0) if prob.p == 3.0]
    return [X.solve(prob) for prob in problems[:4]]


def test_p3_C_value_matches_the_referee(crit9_p3):
    for sol in crit9_p3:
        c_true = referee_C(sol)
        assert abs(sol.C_value - c_true) <= 1e-10 * c_true


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


def _errors_of(checkout: Path) -> list:
    """xi_error over xi_cases() with debranges imported from checkout/src."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run(
        [sys.executable, __file__, "--errors"], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def main(argv) -> None:
    if argv == ["--errors"]:
        print(json.dumps([xi_error(spec, t) for _, spec, t in xi_cases()]))
        return
    checkouts = [Path(a).resolve() for a in argv] + [Path(__file__).resolve().parents[1]]
    columns = [_errors_of(c) for c in checkouts]
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
