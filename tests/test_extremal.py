import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from numpy.polynomial import chebyshev as _cheb

import debranges.extremal as X
from conftest import make_random_spec
from debranges.bounds import C2_exact, embedding_bound
from debranges.hb_core import HBSpec, eval_E, phase_derivative_sup
from debranges.extremal import (
    ComplexZeroError,
    ExtremalProblem,
    KernelNodeBasis,
    PolynomialBasis,
    extract_zeros,
    mean_type_diagnostic,
    mean_type_profile,
    orthogonality_residual,
    plateau_interval,
    separation_report,
    solve,
    symmetrize_real,
)
from debranges.numerics import integrate

TWO = HBSpec(zeros=(-1j, -1j))
THREE = HBSpec(zeros=(-1j,) * 3)
FOUR = HBSpec(zeros=(-1j,) * 4)
S_PI = HBSpec(exp_rate=math.pi)


class TestProblemSerialization:
    def test_round_trip_polynomial(self):
        prob = ExtremalProblem(p=1.5, spec=FOUR, xi=0.25, basis=PolynomialBasis(2))
        from debranges.extremal import problem_from_dict, problem_to_dict

        again = problem_from_dict(problem_to_dict(prob))
        assert again == prob

    def test_round_trip_kernel_nodes(self):
        prob = ExtremalProblem(
            p=2.0, spec=S_PI, xi=0.0, basis=KernelNodeBasis((-1.0, 0.0, 1.0)),
            window=(-5.0, 5.0),
        )
        from debranges.extremal import problem_from_dict, problem_to_dict

        again = problem_from_dict(problem_to_dict(prob))
        assert again == prob

    def test_malformed(self):
        from debranges.extremal import problem_from_dict
        from debranges.hb_core import SpecError

        with pytest.raises(SpecError):
            problem_from_dict({"p": 2.0})


class TestProblemValidation:
    def test_degree_cap(self):
        with pytest.raises(ValueError):
            ExtremalProblem(p=2.0, spec=THREE, xi=0.0, basis=PolynomialBasis(2))

    def test_polynomial_basis_needs_polynomial_spec(self):
        with pytest.raises(ValueError):
            ExtremalProblem(p=2.0, spec=S_PI, xi=0.0, basis=PolynomialBasis(1))

    def test_kernel_basis_needs_window(self):
        with pytest.raises(ValueError):
            ExtremalProblem(p=2.0, spec=S_PI, xi=0.0, basis=KernelNodeBasis((0.0, 1.0)))

    def test_default_kkt_tols(self):
        a = ExtremalProblem(p=1.0, spec=FOUR, xi=0.0, basis=PolynomialBasis(1))
        b = ExtremalProblem(p=2.0, spec=FOUR, xi=0.0, basis=PolynomialBasis(1))
        assert a.kkt_tol == 1e-6 and b.kkt_tol == 1e-8


class TestSolveP2:
    def test_constants_on_double_zero(self):
        # the kernel of (z+i)^2 at 0 is the constant 2/pi, so the span case
        prob = ExtremalProblem(p=2.0, spec=TWO, xi=0.0, basis=PolynomialBasis(0))
        sol = solve(prob)
        assert abs(sol.C_value - math.sqrt(2 / math.pi)) <= 1e-10
        assert sol.zeros == ()
        assert sol.norm_residual <= 1e-10

    def test_quartic_kernel_in_span(self):
        prob = ExtremalProblem(p=2.0, spec=FOUR, xi=0.0, basis=PolynomialBasis(2))
        sol = solve(prob)
        assert abs(sol.C_value - C2_exact(FOUR, 0.0)) <= 1e-10
        # K_0 = 4 (1 - z^2)/pi: zeros at -1, 1, even by symmetry
        assert np.allclose(sol.zeros, [-1.0, 1.0], atol=1e-10)

    def test_smaller_basis_never_exceeds(self):
        prob = ExtremalProblem(p=2.0, spec=FOUR, xi=0.3, basis=PolynomialBasis(2))
        sol = solve(prob)
        assert sol.C_value <= C2_exact(FOUR, 0.3) * (1 + 1e-10)

    def test_basis_monotonicity(self, rng):
        spec = make_random_spec(rng, 6, 8)
        xi = 0.2
        values = []
        for deg in range(0, spec.degree - 1):
            prob = ExtremalProblem(p=2.0, spec=spec, xi=xi, basis=PolynomialBasis(deg))
            values.append(solve(prob).C_value)
        assert all(a <= b * (1 + 1e-10) for a, b in zip(values[:-1], values[1:]))

    def test_never_exceeds_embedding_bound(self, rng):
        for _ in range(5):
            spec = make_random_spec(rng, 4, 9)
            sup = phase_derivative_sup(spec).value
            for p in (1.0, 2.0, 3.0):
                prob = ExtremalProblem(
                    p=p, spec=spec, xi=0.1, basis=PolynomialBasis(spec.degree - 2)
                )
                sol = solve(prob)
                assert sol.C_value <= embedding_bound(p, sup) * (1 + 1e-9)


class TestSolveP1:
    def test_brute_force_oracle_two_coefficients(self):
        # E = (z+i)^3, xi = 0, basis {1, x}: fix f(0) = |E(0)| = 1 and scan the
        # single free slope on a dense grid as an independent oracle
        prob = ExtremalProblem(p=1.0, spec=THREE, xi=0.0, basis=PolynomialBasis(1))
        sol = solve(prob)

        def norm1(slope):
            res = integrate(
                lambda x: np.abs(1.0 + slope * x) / np.abs(eval_E(THREE, x)),
                None,
                singular_points=[-1.0 / slope] if slope else [],
            )
            return res.value

        slopes = np.linspace(-2.0, 2.0, 401)
        vals = np.array([norm1(s) for s in slopes])
        i = int(np.argmin(vals))
        from debranges.numerics import golden_max

        neg, s_best = golden_max(
            lambda s: -norm1(float(s)), slopes[max(i - 1, 0)], slopes[min(i + 1, 400)]
        )
        best = -neg
        assert 1.0 / sol.C_value <= best + 1e-4
        assert abs(sol.C_value - 1.0 / best) <= 1e-4

    def test_unit_norm_after_rescale(self, rng):
        spec = make_random_spec(rng, 5, 7)
        prob = ExtremalProblem(
            p=1.0, spec=spec, xi=0.0, basis=PolynomialBasis(spec.degree - 2)
        )
        sol = solve(prob)
        assert sol.norm_residual <= 1e-9
        # f(xi) = |E(xi)| C
        f_xi = float(np.real(sol.eval(prob.xi)))
        assert abs(f_xi - abs(eval_E(spec, prob.xi)) * sol.C_value) <= 1e-9 * abs(f_xi)


def _crit9_p1_problem():
    """The p = 1 problem on criterion 9's second spec (degree 10) at
    acceptance seed 0."""
    rng = np.random.default_rng(9)
    specs = []
    for _ in range(10):
        n = int(rng.integers(4, 11))
        specs.append(HBSpec(zeros=tuple(
            complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.0, -0.15)) for _ in range(n)
        )))
    xis = [float(rng.uniform(-1.0, 1.0)) for _ in specs]
    return ExtremalProblem(
        p=1.0, spec=specs[1], xi=xis[1], basis=PolynomialBasis(specs[1].degree - 2)
    )


class TestP1Handover:
    def _solver_after(self, rungs):
        # the degree-10 criterion-9 spec on its unsplit grid, after the
        # given eps rungs from the minimal-norm start
        prob = _crit9_p1_problem()
        solver = X._SliceSolver(X._Discretized(prob, X._ChebBasis(prob)), 1.0)
        u = np.zeros(solver.A.shape[1])
        for eps in rungs:
            u, _, _, met = X._newton_on_slice(
                solver.A, solver.disc.w, solver.g0, 1.0, eps * solver.disc.b, 1e-6, u
            )
            assert met
        return solver, u

    def test_polish_rejects_a_step_outside_its_basin(self):
        # after the coarsest rung the first kink-Newton step raises the KKT
        # residual: the polish keeps nothing and says so
        solver, u = self._solver_after((1e-2,))
        pol = solver.exact_newton_polish(u)
        assert (pol.exit, pol.steps) == ("rejected", 0)
        assert np.array_equal(pol.u, u)
        assert pol.kkt == solver.kkt_residual(u)

    def test_polish_reports_its_cap(self):
        solver, u = self._solver_after((1e-2, 1e-4, 1e-6))
        pol = solver.exact_newton_polish(u, max_steps=2)
        assert (pol.exit, pol.steps) == ("cap", 2)
        assert pol.kkt < 0.1 * solver.kkt_residual(u)
        assert pol.kkt == solver.kkt_residual(pol.u)

    def test_no_newton_stage_runs_out_of_max_iter(self, monkeypatch):
        # before the handover this solve ran every rung of every round, and
        # three of its fine rungs ended at max_iter
        stages = []

        def recording(*args, **kwargs):
            out = newton(*args, **kwargs)
            stages.append(out[3])
            return out

        newton = X._newton_on_slice
        monkeypatch.setattr(X, "_newton_on_slice", recording)
        sol = solve(_crit9_p1_problem())
        assert stages and all(stages)
        assert sol.kkt_residual <= 1e-10
        assert max(map(abs, sol.orthogonality_residuals)) <= 1e-4


class TestUniquenessAndExperimental:
    def test_two_random_starts_agree(self, rng):
        spec = make_random_spec(rng, 5, 7)
        for p in (1.0, 1.5, 3.0):
            prob = ExtremalProblem(
                p=p, spec=spec, xi=0.4, basis=PolynomialBasis(spec.degree - 2)
            )
            s1, s2 = solve(prob, seed=5), solve(prob, seed=55)
            c1 = s1.coefficients / np.linalg.norm(s1.coefficients)
            c2 = s2.coefficients / np.linalg.norm(s2.coefficients)
            assert np.linalg.norm(c1 - c2) <= 1e-6

    def test_experimental_small_p_runs(self):
        prob = ExtremalProblem(p=0.75, spec=FOUR, xi=0.0, basis=PolynomialBasis(1))
        sol = solve(prob, seed=3)
        assert sol.C_value > 0


class TestSymmetrize:
    def test_identity_on_real(self):
        c = np.array([1.0, -2.0, 0.5])
        assert np.allclose(symmetrize_real(c, 0.0), c)

    def test_rotated_imaginary(self):
        c = 1j * np.array([1.0, 3.0])
        out = symmetrize_real(c, math.pi)
        assert np.allclose(out, [1.0, 3.0])

    def test_result_real_entire_and_dominated(self, rng):
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        f = np.polynomial.polynomial.Polynomial(c)
        sigma = float(rng.uniform(0, 2 * math.pi))
        g = np.polynomial.polynomial.Polynomial(symmetrize_real(c, sigma))
        xs = rng.uniform(-3, 3, size=64)
        gv = g(xs)
        assert np.max(np.abs(np.imag(gv))) <= 1e-14 * np.max(1 + np.abs(gv))
        assert np.all(np.abs(gv) <= np.abs(f(xs)) * (1 + 1e-12))


class TestOrthogonality:
    def test_exact_p2_residual(self):
        prob = ExtremalProblem(p=2.0, spec=FOUR, xi=0.0, basis=PolynomialBasis(2))
        sol = solve(prob)
        r = orthogonality_residual(sol, prob, (sol.zeros[0], sol.zeros[1]))
        assert abs(r) <= 1e-8

    def test_perturbation_sensitivity(self, rng):
        spec = make_random_spec(rng, 6, 8)
        prob = ExtremalProblem(
            p=2.0, spec=spec, xi=0.0, basis=PolynomialBasis(spec.degree - 2)
        )
        sol = solve(prob)
        if len(sol.zeros) < 2:
            pytest.skip("needs at least two zeros")
        pert = sol._coef * (1.0 + 0.01 * rng.uniform(-1, 1, size=len(sol._coef)))
        zeros = sol._basis.split_guesses(pert)
        fake = dataclasses.replace(sol, zeros=tuple(zeros), _coef=pert)
        vals = [
            abs(orthogonality_residual(fake, prob, (zeros[i], zeros[i + 1])))
            for i in range(len(zeros) - 1)
        ]
        assert max(vals) > 1e-3

    def test_double_zero_form_positive(self):
        # r = (x-xi)^2/(x-l)^2 makes the integrand nonnegative: certifies that
        # no zero can be double at an optimum
        prob = ExtremalProblem(p=2.0, spec=FOUR, xi=0.0, basis=PolynomialBasis(2))
        sol = solve(prob)
        lam = sol.zeros[0]
        r = orthogonality_residual(sol, prob, (lam, lam))
        assert r > 0.1  # normalized: integrand equals its absolute value


class TestSharedResidualGrid:
    @pytest.mark.parametrize("kind", ["polynomial", "kernel"])
    def test_solve_residuals_equal_pairwise_calls(self, kind):
        if kind == "polynomial":
            spec = make_random_spec(np.random.default_rng(3), 7, 7)
            prob = ExtremalProblem(
                p=1.5, spec=spec, xi=0.2, basis=PolynomialBasis(spec.degree - 2)
            )
        else:
            prob = ExtremalProblem(
                p=2.0, spec=S_PI, xi=0.3,
                basis=KernelNodeBasis(tuple(np.linspace(-4.0, 4.0, 9))),
                window=(-8.0, 8.0),
            )
        sol = solve(prob)
        assert len(sol.zeros) >= 3
        # one grid for every pair gives each pair the value it gets alone
        assert sol.orthogonality_residuals == tuple(
            orthogonality_residual(sol, prob, pair)
            for pair in zip(sol.zeros, sol.zeros[1:])
        )

    def test_p3_norm_integrals_converge(self, monkeypatch):
        # the norm and unit-norm integrals of a p = 3 solve report converged
        spec = make_random_spec(np.random.default_rng(3), 8, 8)
        prob = ExtremalProblem(
            p=3.0, spec=spec, xi=-1.0, basis=PolynomialBasis(spec.degree - 2)
        )
        seen = []

        def recording(*args, **kwargs):
            seen.append(integrate(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(X, "integrate", recording)
        solve(prob)
        assert len(seen) == 2
        assert all(r.converged for r in seen)


class TestZeroExtraction:
    def test_no_zero_constant(self):
        prob = ExtremalProblem(p=2.0, spec=TWO, xi=0.0, basis=PolynomialBasis(0))
        sol = solve(prob)
        assert extract_zeros(sol, prob).size == 0

    def test_even_symmetry(self):
        prob = ExtremalProblem(p=2.0, spec=FOUR, xi=0.0, basis=PolynomialBasis(2))
        sol = solve(prob)
        z = extract_zeros(sol, prob)
        assert np.allclose(z, -z[::-1], atol=1e-9)

    def test_complex_pair_flagged(self):
        prob = ExtremalProblem(p=2.0, spec=FOUR, xi=0.0, basis=PolynomialBasis(2))
        sol = solve(prob)
        # x^2 + 1 in the scaled Chebyshev basis has a complex pair
        L = sol._basis.scale
        bad = np.array([1.0 + L * L / 2.0, 0.0, L * L / 2.0])
        fake = dataclasses.replace(sol, _coef=bad)
        with pytest.raises(ComplexZeroError):
            extract_zeros(fake, prob)

    def test_rounding_split_double_zero_flagged(self):
        # (x/L - 1/2)^2 has a double zero at L/2 that the colleague matrix
        # returns as two real roots about 4e-8 apart
        prob = ExtremalProblem(p=2.0, spec=FOUR, xi=0.0, basis=PolynomialBasis(2))
        sol = solve(prob)
        fake = dataclasses.replace(sol, _coef=_cheb.poly2cheb([0.25, -1.0, 1.0]))
        assert len(fake._basis.real_zeros(fake._coef)) == 2
        with pytest.raises(ComplexZeroError):
            extract_zeros(fake, prob)
        # a simple pair 0.04 apart still passes
        close = dataclasses.replace(sol, _coef=_cheb.poly2cheb([0.2499, -1.0, 1.0]))
        L = sol._basis.scale
        assert np.allclose(extract_zeros(close, prob), [0.49 * L, 0.51 * L], atol=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_far_zero_does_not_mask_simple_zeros(self, p):
        # one zero of the optimum sits near -39 (p = 2) or -53 (p = 3); a
        # derivative threshold scaled by max |f| over the whole zero hull
        # rejected the simple zeros near xi
        rng = np.random.default_rng(0)
        zeros = [complex(rng.uniform(-3, 3), rng.uniform(-3, -0.1)) for _ in range(12)]
        spec = HBSpec(zeros=zeros)
        xi = float(np.linspace(-2.0, 2.0, 12)[10])
        prob = ExtremalProblem(p=p, spec=spec, xi=xi, basis=PolynomialBasis(10))
        sol = solve(prob)
        assert min(sol.zeros) < -30.0
        z = extract_zeros(sol, prob)
        assert np.allclose(z, sol.zeros, rtol=1e-9, atol=0.0)
        assert np.max(np.abs(np.real(sol.eval(z))) / np.abs(eval_E(spec, z))) <= 1e-8

    def test_scan_bisects_every_sign_change(self):
        roots = X._scan_real_roots(np.sin, (-8.0, 8.0))
        assert np.allclose(roots, math.pi * np.arange(-2, 3), rtol=0.0, atol=1e-12)

    def test_scan_keeps_zero_on_a_grid_node(self):
        # nodes at the integers: 2 is a node, -0.5 lies inside a bracket
        roots = X._scan_real_roots(lambda x: (x - 2.0) * (x + 0.5), (-8.0, 8.0), 17)
        assert roots[1] == 2.0
        assert np.allclose(roots, [-0.5, 2.0], rtol=0.0, atol=1e-12)

    def test_scan_root_free_window(self):
        assert X._scan_real_roots(lambda x: 2.0 + np.sin(x), (-8.0, 8.0)) == []


class TestKernelBasis:
    def test_shared_E_values_equal_per_kernel_sum(self):
        prob = ExtremalProblem(
            p=2.0, spec=S_PI, xi=0.3,
            basis=KernelNodeBasis(tuple(np.linspace(-4.0, 4.0, 9))),
            window=(-8.0, 8.0),
        )
        basis = X._KernelBasis(prob)
        c = np.random.default_rng(5).standard_normal(9)
        # nodes (Taylor bridge), points next to them, a grid, and complex points
        x = np.concatenate((prob.basis.nodes, np.add(prob.basis.nodes, 1e-6),
                            np.linspace(-8.0, 8.0, 101)))
        z = np.concatenate((x, x + 0.5j))
        per_kernel = np.zeros_like(z)
        for w, k in zip(c, basis.kernels):
            per_kernel = per_kernel + w * k.eval(z)
        assert np.array_equal(basis.eval(c, z), per_kernel)
        assert np.array_equal(
            basis.matrix(x), np.column_stack([np.real(k.eval(x)) for k in basis.kernels])
        )
        assert basis.eval(c, 0.3) == sum(w * k.eval(0.3) for w, k in zip(c, basis.kernels))


class TestDiscretization:
    @pytest.mark.parametrize("kind", ["polynomial", "kernel"])
    def test_freed_without_cyclic_gc(self, kind):
        # no closure of a _Discretized refers back to it, so its grid
        # arrays go with its last reference, not at the next cyclic GC
        if kind == "polynomial":
            prob = ExtremalProblem(p=2.0, spec=FOUR, xi=0.0, basis=PolynomialBasis(2))
            basis = X._ChebBasis(prob)
        else:
            prob = ExtremalProblem(
                p=2.0, spec=S_PI, xi=0.3, basis=KernelNodeBasis((-1.0, 0.0, 1.0)),
                window=(-5.0, 5.0),
            )
            basis = X._KernelBasis(prob)
        gc.disable()
        try:
            disc = X._Discretized(prob, basis)
            ref = weakref.ref(disc)
            del disc
            assert ref() is None
        finally:
            gc.enable()


class TestSeparation:
    def test_positive_gaps_sweep(self, rng):
        for p in (1.0, 1.5, 3.0):
            spec = make_random_spec(rng, 5, 8)
            prob = ExtremalProblem(
                p=p, spec=spec, xi=0.0, basis=PolynomialBasis(spec.degree - 2)
            )
            sol = solve(prob)
            rep = separation_report(sol, prob)
            assert rep.passed
            assert rep.delta == pytest.approx(
                math.pi / (2 * phase_derivative_sup(spec).value)
            )
            assert rep.a_zero_gap == pytest.approx(4 * rep.delta)

    def test_vacuous_few_zeros(self):
        prob = ExtremalProblem(p=2.0, spec=TWO, xi=0.0, basis=PolynomialBasis(0))
        sol = solve(prob)
        rep = separation_report(sol, prob)
        assert rep.passed and rep.min_gap == math.inf

    def test_truncated_paley_wiener_sinc_spacing(self):
        nodes = tuple(float(t) for t in np.arange(-6, 7))
        prob = ExtremalProblem(
            p=2.0, spec=S_PI, xi=0.0, basis=KernelNodeBasis(nodes), window=(-12.0, 12.0)
        )
        sol = solve(prob)
        assert sol.truncated
        rep = separation_report(sol, prob)
        inner = [z for z in sol.zeros if abs(z) < 5]
        gaps = np.diff(sorted(inner))
        # sinc zeros sit at the nonzero integers: unit spacing except the
        # central gap of 2, and everything clears delta = 1/4
        assert np.all(gaps > rep.delta)
        assert abs(rep.delta - 0.25) <= 1e-12
        off_center = [g for g in gaps if g < 1.5]
        assert np.max(np.abs(np.asarray(off_center) - 1.0)) <= 0.1
        assert sum(1 for g in gaps if g >= 1.5) == 1

    def test_plateau_interval(self):
        lo, hi = plateau_interval(S_PI, 0.0, 0.0)
        assert abs(lo + 0.25) <= 1e-9 and abs(hi - 0.25) <= 1e-9


class TestMeanType:
    def test_polynomial_mode_negative_and_decaying(self, rng):
        spec = make_random_spec(rng, 5, 7)
        prob = ExtremalProblem(
            p=2.0, spec=spec, xi=0.0, basis=PolynomialBasis(spec.degree - 2)
        )
        sol = solve(prob)
        prof = mean_type_profile(sol)
        assert np.all(prof < 0)
        assert np.all(np.diff(np.abs(prof)) < 0)
        assert mean_type_diagnostic(sol, prob) <= 1e-6

    def test_constant_over_double_zero_rate(self):
        prob = ExtremalProblem(p=2.0, spec=TWO, xi=0.0, basis=PolynomialBasis(0))
        sol = solve(prob)
        prof = mean_type_profile(sol, (10.0, 100.0))
        # f = const = C_value (|E(0)| = 1) and |E(iy)| = (y+1)^2 exactly
        expected = [
            (math.log(sol.C_value) - 2 * math.log(y + 1)) / y for y in (10.0, 100.0)
        ]
        assert np.allclose(prof, expected, rtol=1e-10)
