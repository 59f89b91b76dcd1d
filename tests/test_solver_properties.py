"""Property tests of the extremal solver over random polynomial specs.

For p >= 1 the problem is convex with a unique minimizer, so the cold and
the seeded solves must agree, and the optimum must satisfy the zero-pair
orthogonality identities and have real simple zeros.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from debranges.extremal import (  # noqa: E402
    ExtremalProblem,
    PolynomialBasis,
    extract_zeros,
    solve,
)
from debranges.hb_core import HBSpec  # noqa: E402

_zero = st.builds(complex, st.floats(-2.5, 2.5), st.floats(-2.0, -0.15))
problems = st.builds(
    lambda zeros, xi, p: ExtremalProblem(
        p=p, spec=HBSpec(zeros=zeros), xi=xi, basis=PolynomialBasis(len(zeros) - 2)
    ),
    st.lists(_zero, min_size=4, max_size=6),
    st.floats(-1.0, 1.0),
    st.sampled_from([1.0, 1.5, 3.0]),
)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(problems)
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
