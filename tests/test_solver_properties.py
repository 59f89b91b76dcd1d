"""Property tests of the extremal solver over random polynomial specs.

For p >= 1 the problem is convex with a unique minimizer, so the cold and
the seeded solves must agree, and the optimum must satisfy the zero-pair
orthogonality identities and have real simple zeros.  |f/E| from the
optimum's real zeros must agree with the Chebyshev series wherever the
series' rounding does not dominate.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import debranges.extremal as X  # noqa: E402
from conftest import xi_sweep_spec  # noqa: E402
from debranges.extremal import (  # noqa: E402
    ExtremalProblem,
    PolynomialBasis,
    extract_zeros,
    solve,
)
from debranges.hb_core import HBSpec, eval_E  # noqa: E402

_zero = st.builds(complex, st.floats(-2.5, 2.5), st.floats(-2.0, -0.15))


def _problems(ps):
    return st.builds(
        lambda zeros, xi, p: ExtremalProblem(
            p=p, spec=HBSpec(zeros=zeros), xi=xi, basis=PolynomialBasis(len(zeros) - 2)
        ),
        st.lists(_zero, min_size=4, max_size=6),
        st.floats(-1.0, 1.0),
        st.sampled_from(ps),
    )


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(_problems([1.0, 1.5, 3.0]))
def test_unique_optimum_with_orthogonal_real_zeros(prob):
    cold = solve(prob)
    seeded = solve(prob, seed=101)
    c1 = cold.coefficients / np.linalg.norm(cold.coefficients)
    c2 = seeded.coefficients / np.linalg.norm(seeded.coefficients)
    assert np.linalg.norm(c1 - c2) <= 1e-6
    # the criterion-9 tolerances: the p = 1 identity sits on the kinks
    tol = 1e-4 if prob.p == 1.0 else 1e-6
    assert max((abs(r) for r in cold.orthogonality_residuals), default=0.0) <= tol
    zeros = extract_zeros(cold, prob)
    assert np.allclose(zeros, cold.zeros, rtol=0.0, atol=1e-12 * (1 + np.abs(zeros)))


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(_problems([1.0, 2.0, 3.0]))
def test_integer_p_residuals_equal_the_graded_grid(prob):
    # at integer p the zero-pair residual integrals put plain panel edges at
    # the zeros; the residuals are those of the grid graded toward them
    sol = solve(prob)
    pairs = list(zip(sol.zeros, sol.zeros[1:]))
    with mock.patch.object(X, "_graded_kinks", lambda p: True):
        graded = X._orthogonality_residuals(
            sol._basis, sol._coef, sol.p, sol.spec, sol.xi, sol.zeros, pairs
        )
    assert len(graded) == len(sol.orthogonality_residuals)
    assert np.allclose(sol.orthogonality_residuals, graded, rtol=0.0, atol=1e-9)


def _xi_sweep_far_zero():
    """The xi_sweep benchmark spec at xi = 1.636, p = 3: its optimum has a
    zero near -52.9, six times the scale."""
    xi = float(np.linspace(-2.0, 2.0, 12)[10])
    return ExtremalProblem(p=3.0, spec=xi_sweep_spec(), xi=xi, basis=PolynomialBasis(10))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(_problems([1.0, 1.5, 2.0, 3.0]))
@example(_xi_sweep_far_zero())
def test_abs_ratio_equals_the_series(prob):
    # near the zeros of E, and on octaves of 50 <= |x| <= 12,800; the series
    # loses digits where |f| is small against its size nearby, so each grid
    # compares only where |f| is at least 1e-3 of its maximum there
    sol = solve(prob)
    reach = float(np.max(np.abs(prob.spec.x_n) + prob.spec.yhat_n))
    grids = [np.linspace(-3 * reach, 3 * reach, 601)]
    grids += [side * np.linspace(lo, 2 * lo, 21) for lo in 50.0 * 2.0 ** np.arange(8) for side in (-1, 1)]
    for x in grids:
        fx = np.abs(np.real(sol.eval(x)))
        series = fx / np.abs(eval_E(prob.spec, x))
        product = sol._basis.abs_ratio(sol._coef, sol.zeros, prob.spec, x)
        keep = fx >= 1e-3 * np.max(fx)
        assert np.allclose(product[keep], series[keep], rtol=1e-9, atol=0.0)
    if prob == _xi_sweep_far_zero():
        assert min(sol.zeros) < -5 * sol._basis.scale
