"""Accuracy referee: the returned extremal function re-measured at 30 digits.

For a returned polynomial-mode solution f (its scaled Chebyshev
coefficients), C_true = |f(xi)| / |E(xi)| / ||f/E||_p, with the value taken
by Clenshaw's recurrence at xi / scale and the norm by mpmath's quadrature on
the whole line, split at the reported zeros of f.  C_value must agree with
it: the solver's own norm integral is the only thing between them.
"""

import pytest

from debranges import acceptance as A
from debranges import extremal as X

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
