import math

import numpy as np
import pytest

import debranges.bounds as B
from conftest import make_random_spec, reference_specs
from debranges.bounds import (
    C2_embedding_norm,
    C2_exact,
    K_p_closed,
    K_p_quadrature,
    asymptotic_check,
    embedding_bound,
    interval_energy,
    kernel_diagonal_oracle,
    kernel_eval,
    make_bound_report,
    nonasymptotic_bound_pth_power,
)
from debranges.hb_core import (
    HBSpec,
    PhaseProfile,
    eval_AB,
    eval_E,
    level_crossings,
    phase_derivative_sup,
)
from debranges.numerics import NonConvergenceError, QuadratureScheme, _integrate_batch, integrate

S_PI = HBSpec(exp_rate=math.pi)
ONE = HBSpec(zeros=(-1j,))
TWO = HBSpec(zeros=(-1j, -1j))


class TestKp:
    def test_exact_small_values(self):
        assert abs(K_p_closed(1.0) - 2.0) <= 1e-12
        assert abs(K_p_closed(2.0) - math.sqrt(math.pi / 2)) <= 1e-12
        # Wallis: int cos^4 = 3 pi / 8
        assert abs(K_p_closed(4.0) - (3 * math.pi / 8) ** 0.25) <= 1e-12

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, 7.5, 20.0])
    def test_quadrature_oracle(self, p):
        assert abs(K_p_quadrature(p) - K_p_closed(p)) <= 1e-9 * K_p_closed(p)

    def test_domain(self):
        with pytest.raises(ValueError):
            K_p_closed(0.0)
        with pytest.raises(ValueError):
            K_p_quadrature(-1.0)


class TestEmbeddingBounds:
    def test_p2_paley_wiener(self):
        assert abs(embedding_bound(2.0, 2 * math.pi) - math.sqrt(2)) <= 1e-13

    def test_p1_paley_wiener(self):
        assert abs(embedding_bound(1.0, 2 * math.pi) - math.pi / 2) <= 1e-13

    def test_homogeneity(self, rng):
        for _ in range(20):
            p = float(rng.uniform(0.5, 10))
            s = float(rng.uniform(0.1, 20))
            t = float(rng.uniform(0.5, 4))
            lhs = embedding_bound(p, t * s)
            rhs = t ** (1 / p) * embedding_bound(p, s)
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_nonasymptotic_values(self):
        assert abs(nonasymptotic_bound_pth_power(1.0, 2 * math.pi) - math.sqrt(math.pi)) <= 1e-13
        v = nonasymptotic_bound_pth_power(2.0, 2 * math.pi)
        assert abs(v - math.pi * math.sqrt(3 / (2 * math.pi))) <= 1e-13
        assert v >= embedding_bound(2.0, 2 * math.pi) ** 2

    def test_wendel_chain_sweep(self):
        for p in np.linspace(0.5, 50, 100):
            lhs = embedding_bound(float(p), 2 * math.pi) ** p
            assert lhs <= nonasymptotic_bound_pth_power(float(p), 2 * math.pi) * (1 + 1e-12)

    def test_asymptotic_ratio(self):
        assert abs(asymptotic_check(1e4) - 1.0) <= 0.01
        assert abs(asymptotic_check(100.0) - 1.0) <= 0.1
        # monitored: the approach is monotone over the sampled decades
        vals = [asymptotic_check(10.0 ** k) for k in range(1, 5)]
        gaps = [abs(v - 1) for v in vals]
        assert gaps == sorted(gaps, reverse=True)

    def test_report_bundle(self):
        rep = make_bound_report(2.0, 2 * math.pi)
        assert abs(rep.C_bound - math.sqrt(2)) <= 1e-13
        d = rep.to_dict()
        assert d["C_bound_pth_power"] <= d["C_bound_nonasymptotic_pth_power"] * (1 + 1e-12)


class TestIntervalEnergy:
    def test_paley_wiener_p2_exact_half(self):
        # A_0 zeros of S_pi at half-integers; any consecutive pair works
        val = interval_energy(S_PI, 0.0, 2.0, (0.5, 1.5))
        assert abs(val - 0.5) <= 1e-12
        # phi' is constant, so the crux bound is attained with equality
        assert val >= 2 * K_p_closed(2.0) ** 2 / (2 * math.pi) - 1e-12

    def test_paley_wiener_p1(self):
        val = interval_energy(S_PI, 0.0, 1.0, (0.5, 1.5))
        assert abs(val - 2 / math.pi) <= 1e-12

    def test_double_zero_pair(self):
        val = interval_energy(TWO, 0.0, 2.0, (-1.0, 1.0))
        brute = integrate(
            lambda x: ((x * x - 1) / (x * x + 1)) ** 2, (-1.0, 1.0)
        ).value
        assert abs(val - brute) <= 1e-10
        assert val >= math.pi / 4

    def test_crux_bound_alpha_sweep(self, rng):
        for _ in range(4):
            spec = make_random_spec(rng, 3, 8)
            sup = phase_derivative_sup(spec).value
            profile = PhaseProfile(spec)
            for alpha in np.linspace(0, math.pi, 16, endpoint=False):
                roots = level_crossings(profile, 2 * alpha + math.pi, (-10, 10))
                if roots.size < 2:
                    continue
                i = rng.integers(0, roots.size - 1)
                for p in (1.0, 2.0, 3.5):
                    val = interval_energy(spec, float(alpha), p, (roots[i], roots[i + 1]))
                    assert val >= 2 * K_p_closed(p) ** p / sup * (1 - 1e-10)

    @pytest.mark.parametrize("n", [8, 65])
    def test_equals_the_two_evaluation_integral(self, n):
        # A_alpha from the same E as |E|: the integral of |A_alpha/E|^p with
        # A_alpha from eval_AB and |E| from a second eval_E, to the bit, on
        # the grid interval_energy uses: graded toward the ends only for
        # non-integer p
        spec, alpha = reference_specs()[n], 0.7
        roots = level_crossings(PhaseProfile(spec), 2 * alpha + math.pi, (-4.0, 4.0))
        pair = (float(roots[1]), float(roots[2]))
        for p, graded in ((1.0, False), (1.5, True), (2.0, False)):
            ref = _integrate_batch(
                lambda x, active: [
                    np.abs(eval_AB(spec, alpha, x)[0] / np.abs(eval_E(spec, x))) ** p
                ],
                1, pair, None, pair, graded=graded,
            )[0]
            assert interval_energy(spec, alpha, p, pair) == ref.value

    @pytest.mark.parametrize("p, graded", [(1.0, False), (2.0, False), (3.0, False), (1.5, True)])
    def test_integer_p_grid_has_no_graded_panels(self, monkeypatch, p, graded):
        # the first level of an integer-p energy grid is the 16 plain panels
        # between the zeros, 32 nodes each; a non-integer p grades both ends
        sizes = []

        def recording(integrands, *args, **kwargs):
            def counted(x, active):
                sizes.append(x.size)
                return integrands(x, active)

            return _integrate_batch(counted, *args, **kwargs)

        monkeypatch.setattr(B, "_integrate_batch", recording)
        interval_energy(S_PI, 0.0, p, (0.5, 1.5))
        plain = 16 * 32
        assert (sizes[0] > plain) if graded else (sizes[0] == plain)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_unconverged_integral_raises(self, p):
        # one refinement of two 2-node panels cannot meet the 1e-12 target
        scheme = QuadratureScheme(panels=2, nodes_per_panel=2, max_refinements=1)
        with pytest.raises(NonConvergenceError, match="unconverged"):
            interval_energy(S_PI, 0.0, p, (0.5, 1.5), scheme=scheme)

    def test_rejects_non_consecutive(self):
        prof = PhaseProfile(S_PI)
        with pytest.raises(ValueError):
            interval_energy(S_PI, 0.0, 2.0, (0.5, 2.5))
        with pytest.raises(ValueError):
            interval_energy(S_PI, 0.0, 2.0, (0.3, 1.3))


class TestKernel:
    def test_single_zero_closed_form(self):
        for z in (0.0, 1.7, -0.3 + 0.9j):
            assert abs(kernel_eval(ONE, 0.0, z) - 1 / math.pi) <= 1e-13

    def test_double_zero_closed_form(self):
        for z in (0.0, -2.4, 1.1j):
            assert abs(kernel_eval(TWO, 0.0, z) - 2 / math.pi) <= 1e-13

    def test_diagonal_identity_random(self, rng):
        for _ in range(50):
            spec = make_random_spec(rng, 1, 8)
            xi = float(rng.uniform(-4, 4))
            diag = float(np.real(kernel_eval(spec, xi, xi)))
            oracle = kernel_diagonal_oracle(spec, xi)
            assert abs(diag - oracle) <= 1e-10 * abs(oracle)

    @pytest.mark.parametrize("xi", [5.0, 10.0, 40.0])
    def test_diagonal_oracle_overflow_raises(self, xi):
        # E(xi) E'(xi) is past the float range on the 256-zero reference
        # spec: an error, not NaN
        with pytest.raises(OverflowError):
            kernel_diagonal_oracle(reference_specs()[256], xi)

    def test_off_diagonal_limit(self, rng):
        spec = make_random_spec(rng, 2, 6)
        xi = 0.4
        diag = float(np.real(kernel_eval(spec, xi, xi)))
        near = float(np.real(kernel_eval(spec, xi, xi + 1e-3)))
        # first-order continuity of the kernel through the diagonal
        assert abs(near - diag) <= 1e-2 * abs(diag)


class TestC2:
    def test_paley_wiener(self):
        assert abs(C2_exact(S_PI, 0.31) - 1.0) <= 1e-14

    def test_double_zero(self):
        assert abs(C2_exact(TWO, 0.0) - math.sqrt(2 / math.pi)) <= 1e-14

    def test_single_zero(self):
        assert abs(C2_exact(ONE, 0.0) - math.sqrt(1 / math.pi)) <= 1e-14

    def test_kernel_chain(self, rng):
        # C(2,E,xi) = K_xi(xi) / (|E(xi)| ||K_xi/E||_2), the norm by quadrature
        from debranges.hb_core import Kernel, eval_E

        for _ in range(5):
            spec = make_random_spec(rng, 2, 6)
            xi = float(rng.uniform(-2, 2))
            k = Kernel(spec, xi)
            norm2 = integrate(
                lambda x: np.abs(np.real(k.eval(x))) ** 2 / np.abs(eval_E(spec, x)) ** 2,
                None,
            )
            chain = k.diagonal() / (abs(eval_E(spec, xi)) * math.sqrt(norm2.value))
            assert abs(chain - C2_exact(spec, xi)) <= 1e-8 * chain

    def test_embedding_norm_attainment_flag(self):
        value, attained, loc = C2_embedding_norm(S_PI)
        assert abs(value - 1.0) <= 1e-14 and not attained and loc is None
        value, attained, loc = C2_embedding_norm(ONE)
        assert attained and abs(loc) <= 1e-6
        assert abs(value - math.sqrt(1 / math.pi)) <= 1e-12
