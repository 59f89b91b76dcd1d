import cmath
import math
import warnings

import numpy as np
import pytest

from conftest import make_random_spec, reference_specs
from debranges import hb_core, hormander
from debranges.hb_core import (
    Combination,
    HBSpec,
    Kernel,
    RealPolynomial,
    RotationRealPart,
    eval_AB,
    eval_E,
    hb_bar_check,
    solve_phase_level,
    upper_half_plane_grid,
)
from debranges.hormander import (
    BracketUnavailableError,
    MaxAtInfinityError,
    WrongSignError,
    _rotation_candidates,
    bracket_A_zeros,
    bracket_B_zeros,
    local_expansion_check,
    locate_extremum,
    verify_sign_free,
    verify_theorem1,
)

S_PI = HBSpec(exp_rate=math.pi)
ONE = HBSpec(zeros=(-1j,))
TWO = HBSpec(zeros=(-1j, -1j))
THREE = HBSpec(zeros=(-1j,) * 3)
FOUR = HBSpec(zeros=(-1j,) * 4)


def sinc2(x):
    u = np.pi * np.asarray(x, dtype=float) / 2
    safe = np.where(np.abs(u) < 1e-8, 1.0, u)
    return np.where(np.abs(u) < 1e-8, 1.0 - u * u / 3, (np.sin(safe) / safe) ** 2)


class TestLocateExtremum:
    def test_rotation_on_own_spec(self):
        xi, norm = locate_extremum(RotationRealPart(TWO, 0.0), TWO)
        assert abs(xi) <= 1e-12 and norm == 1.0

    def test_constant_on_double_zero(self):
        xi, norm = locate_extremum(RealPolynomial([1.0]), TWO)
        assert abs(xi) <= 1e-9
        assert abs(norm - 1.0) <= 1e-12

    def test_cosine_tie_break_smallest_abs(self):
        xi, norm = locate_extremum(RotationRealPart(S_PI, 0.0), S_PI, window=(-3, 3))
        assert abs(xi) <= 1e-6
        assert abs(norm - 1.0) <= 1e-12

    def test_monic_needs_window_on_pw(self):
        with pytest.raises(ValueError):
            locate_extremum(sinc2, S_PI)

    def test_max_at_infinity_single_zero_rotation(self):
        # B_0 of z+i is constant: |A_0/E| -> 1 only at infinity
        with pytest.raises(MaxAtInfinityError):
            locate_extremum(RotationRealPart(ONE, 0.0), ONE)

    def test_max_at_infinity_when_limit_dominates(self):
        # |x^3 / (x + i)^3| < 1 tends to 1: never attained
        with pytest.raises(MaxAtInfinityError):
            locate_extremum(RealPolynomial([0.0, 0.0, 0.0, 1.0]), THREE)

    def test_equal_degree_member_below_its_limit(self):
        # deg f = deg E, but |f/E| peaks above its limit |a_3| = 2 at +-infinity
        f = Combination([(2.0, RealPolynomial([0.0, 0.0, 0.0, 1.0])), (3.0, RealPolynomial([1.0]))])
        xi, norm = locate_extremum(f, THREE)
        xs = np.linspace(-50, 50, 200001)
        vals = np.abs(np.real(f.eval(xs))) / np.abs(eval_E(THREE, xs))
        assert norm > 2.0
        assert abs(norm - float(np.max(vals))) <= 1e-9

    def test_far_rotation_crossing_signs_alternate(self):
        # 100 zeros near x = +30 put a crossing at x = -1482.7, where E
        # overflows: a sign read off A_beta there came out NaN, i.e. -1
        rng = np.random.default_rng(1)
        for _ in range(21):
            spec = HBSpec(
                zeros=tuple(
                    complex(30 + rng.uniform(-1, 1), rng.uniform(-3, -0.1))
                    for _ in range(100)
                )
            )
            beta = float(rng.uniform(0, math.pi))
        f = RotationRealPart(spec, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cands = sorted(_rotation_candidates(f, spec), key=lambda c: c.x)
        assert cands[0].x < -1000
        signs = [c.sign for c in cands]
        assert all(a == -b for a, b in zip(signs, signs[1:]))
        for c in cands[1:]:
            assert c.sign * float(np.real(f.eval(c.x))) > 0

    def test_kernel_argmax(self, rng):
        spec = make_random_spec(rng, 3, 8)
        k = Kernel(spec, 0.2)
        xi, norm = locate_extremum(k, spec)
        # the argmax dominates a dense grid scan
        xs = np.linspace(-20, 20, 40001)
        vals = np.abs(np.real(k.eval(xs))) / np.abs(eval_E(spec, xs))
        assert norm >= float(np.max(vals)) - 1e-9


class TestWholeLineScan:
    """Windowless extremum search: one scan of x = c + s tan(theta)."""

    @pytest.mark.parametrize(
        "n, t",
        [
            (8, -0.18160172726167745),
            (24, 0.5768574068568086),
            (128, 0.5070262173496132),
            (256, -0.3763370959790291),
        ],
    )
    def test_reference_kernels_verify_without_window(self, n, t):
        # the hb_verify nodes of seed 1; at N = 128 and 256 f and E overflow
        # together far out on the scan, where the kernel's phase form stands
        # in, and at N = 256 the slope's bisected point is lower and dropped
        spec = reference_specs()[n]
        rep = verify_theorem1(Kernel(spec, t), spec)
        assert rep.passed
        assert rep.bracket[0] < rep.xi < rep.bracket[1]

    def test_reference_kernel_n65_finds_the_peak(self):
        # a narrow peak: a grid that steps over it reports 3.35e18 at x = -0.856
        spec = reference_specs()[65]
        k = Kernel(spec, 0.47221112637412643)
        xi, norm = locate_extremum(k, spec)
        assert abs(norm - 1.2345e20) <= 1e-4 * 1.2345e20
        assert abs(xi - 0.4718) <= 1e-3
        xs = np.linspace(-6.0, 6.0, 60001)
        vals = np.abs(np.real(k.eval(xs))) / np.abs(eval_E(spec, xs))
        assert float(np.max(vals)) <= norm * (1.0 + 1e-9)

    def test_polished_point_kept_only_if_not_lower(self):
        # the peak lies 1e-4 from the node, inside Kernel.eval's Taylor
        # bridge; a refined xi that lost height here put the margin at -1.5e-8
        # (tolerance 1e-9)
        spec = reference_specs()[65]
        rep = verify_theorem1(Kernel(spec, 0.9348719049873533), spec)
        assert rep.passed
        assert rep.min_margin_scaled >= -1e-9

    def test_kernel_combination_n256_overflows(self):
        # f and E overflow together on the scan, and only a lone kernel has
        # the phase form; no numpy warning either
        spec = reference_specs()[256]
        f = Combination([(1.0, Kernel(spec, 0.2)), (1.0, Kernel(spec, -0.3))])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError, match="pass a window"):
                locate_extremum(f, spec)


class TestBrackets:
    def test_paley_wiener_unit_bracket(self):
        b_l, b_r = bracket_B_zeros(S_PI, 0.0, 0.0)
        assert abs(b_l + 1.0) <= 1e-12 and abs(b_r - 1.0) <= 1e-12

    def test_cubic_bracket_sqrt3(self):
        alpha = -cmath.phase(eval_E(THREE, 0.0))
        b_l, b_r = bracket_B_zeros(THREE, alpha, 0.0)
        assert abs(b_l + math.sqrt(3)) <= 1e-10
        assert abs(b_r - math.sqrt(3)) <= 1e-10

    def test_single_zero_unavailable(self):
        alpha = -cmath.phase(eval_E(ONE, 0.0))
        with pytest.raises(BracketUnavailableError):
            bracket_B_zeros(ONE, alpha, 0.0)

    def test_requires_b_zero_at_xi(self):
        with pytest.raises(ValueError):
            bracket_B_zeros(S_PI, 0.0, 0.3)

    def test_a_bracket_paley_wiener(self):
        a_l, a_r = bracket_A_zeros(S_PI, 0.0, 0.0)
        assert abs(a_l + 0.5) <= 1e-12 and abs(a_r - 0.5) <= 1e-12

    def test_agrees_with_sign_change_roots(self, rng):
        for _ in range(10):
            spec = make_random_spec(rng, 4, 10)
            rep = None
            for _ in range(20):
                beta = float(rng.uniform(0, math.pi))
                try:
                    rep = verify_theorem1(RotationRealPart(spec, beta), spec)
                    break
                except BracketUnavailableError:
                    continue
            assert rep is not None
            for b in rep.bracket:
                # direct bisection on B_alpha around the phase-level answer
                from debranges.hb_core import phase_derivative_sup

                h = 0.4 * 2 * math.pi / phase_derivative_sup(spec).value
                lo, hi = b - h, b + h
                flo = eval_AB(spec, rep.alpha, lo)[1]
                fhi = eval_AB(spec, rep.alpha, hi)[1]
                assert flo * fhi < 0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    fm = eval_AB(spec, rep.alpha, mid)[1]
                    if flo * fm <= 0:
                        hi, fhi = mid, fm
                    else:
                        lo, flo = mid, fm
                assert abs(0.5 * (lo + hi) - b) <= 1e-9 * (1 + abs(b))


class TestVerifyTheorem1:
    def test_equality_case_rotation(self):
        rep = verify_theorem1(RotationRealPart(FOUR, 0.7), FOUR)
        assert rep.passed
        assert abs(rep.min_margin_scaled) <= 1e-12
        assert rep.local.all_ok

    def test_sinc_squared_on_s_pi(self):
        rep = verify_theorem1(sinc2, S_PI, window=(-3, 3))
        assert rep.passed
        assert abs(rep.bracket[0] + 1) <= 1e-6 and abs(rep.bracket[1] - 1) <= 1e-6
        i = int(np.argmin(np.abs(rep.margin_x - 1.0)))
        # margin at the right endpoint: sinc^2(1) - cos(pi) = (2/pi)^2 + 1
        assert abs(rep.margin[i] - ((2 / math.pi) ** 2 + 1)) <= 1e-3
        # local expansion: Omega''(0) = f''(0) + pi^2 = 5 pi^2 / 6
        assert abs(rep.local.omega_d2 - 5 * math.pi ** 2 / 6) <= 1e-4

    def test_degenerate_degree_two_brackets_unavailable(self):
        # no two-sided B-bracket exists on a degree-2 spec
        with pytest.raises(BracketUnavailableError):
            verify_theorem1(RotationRealPart(TWO, math.pi), TWO)

    def test_constant_on_cubic(self):
        rep = verify_theorem1(RealPolynomial([1.0]), THREE)
        assert rep.passed
        assert abs(rep.xi) <= 1e-9

    def test_negated_cosine_applies_at_shifted_point(self):
        # -cos(pi x) = A_pi: the signed theorem applies at xi = +-1
        neg = Combination([(-1.0, RotationRealPart(S_PI, 0.0))])
        rep = verify_theorem1(neg, S_PI)
        assert rep.passed and abs(abs(rep.xi) - 1.0) <= 1e-9

    def test_wrong_sign_raises(self):
        # -sinc^2 is negative at its only extremal point
        with pytest.raises(WrongSignError):
            verify_theorem1(lambda x: -sinc2(x), S_PI, window=(-3, 3))

    def test_random_rotations_pass(self, rng):
        done = 0
        for _ in range(40):
            spec = make_random_spec(rng, 3, 12)
            beta = float(rng.uniform(0, math.pi))
            try:
                rep = verify_theorem1(RotationRealPart(spec, beta), spec)
            except BracketUnavailableError:
                continue
            assert rep.passed, rep.min_margin_scaled
            assert rep.min_margin_scaled >= -1e-9
            assert rep.bracket[0] < rep.xi < rep.bracket[1]
            done += 1
        assert done >= 20

    def test_local_expansion_reuses_the_bracket(self, monkeypatch):
        spec = reference_specs()[8]
        f = RotationRealPart(spec, 1.1)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_phase_level(*args, **kwargs)

        monkeypatch.setattr(hb_core, "solve_phase_level", counting)
        monkeypatch.setattr(hormander, "solve_phase_level", counting)
        rep = verify_theorem1(f, spec)
        # seven candidate levels in one call and the two bracket ends in
        # another, each level solved once
        assert [np.size(args[1]) for args in calls] == [7, 2]
        monkeypatch.undo()

        def normalized(x):
            return np.real(f.eval(np.asarray(x, dtype=float))) / rep.norm

        ref = local_expansion_check(normalized, spec, rep.xi, rep.alpha, step=None)
        assert rep.local == ref

    @pytest.mark.parametrize("verify", [verify_theorem1, verify_sign_free])
    @pytest.mark.parametrize("member", ["rotation", "kernel"])
    def test_margins_equal_the_two_evaluation_formulas(self, verify, member):
        # raw margin f - norm A_alpha with A_alpha from eval_AB, scaled
        # margin raw / (norm max(1, |E|)) from a second eval_E, to the bit
        spec = reference_specs()[8]
        if member == "rotation":
            f, window = RotationRealPart(spec, 0.4), None
        else:
            f, window = Kernel(spec, 0.3), (-2.7, 3.3)
        rep = verify(f, spec, window=window)

        def raw(x):
            fx = np.real(f.eval(x))
            if verify is verify_sign_free:
                fx = np.abs(fx)
            return fx - rep.norm * eval_AB(spec, rep.alpha, x)[0]

        def scaled(x):
            return raw(x) / (rep.norm * np.maximum(1.0, np.abs(eval_E(spec, x))))

        worst, xi = np.array([rep.worst_x]), np.array([rep.xi])
        assert rep.margin.tolist() == raw(rep.margin_x).tolist()
        assert rep.min_margin_scaled == float(scaled(worst)[0])
        assert rep.min_margin == min(float(np.min(rep.margin)), float(raw(worst)[0]))
        assert rep.equality_gap == abs(float(raw(xi)[0])) / rep.norm

    def test_margin_profile_rows(self):
        rep = verify_theorem1(RotationRealPart(FOUR, 0.7), FOUR)
        rows = rep.margin_rows()
        assert rows.shape == (2048, 2)


class TestVerifySignFree:
    def test_negated_cosine(self):
        neg = Combination([(-1.0, RotationRealPart(S_PI, 0.0))])
        rep = verify_sign_free(neg, S_PI)
        assert rep.passed
        assert abs(rep.bracket[0] + 0.5) <= 1e-9
        assert abs(rep.bracket[1] - 0.5) <= 1e-9

    def test_rotation_any_sign(self, rng):
        for _ in range(10):
            spec = make_random_spec(rng, 3, 10)
            beta = float(rng.uniform(0, math.pi))
            try:
                rep = verify_sign_free(RotationRealPart(spec, beta), spec)
            except BracketUnavailableError:
                continue
            assert rep.passed

    def test_constant_on_double_zero(self):
        rep = verify_sign_free(RealPolynomial([1.0]), TWO)
        assert rep.passed
        assert abs(rep.bracket[0] + 1.0) <= 1e-6
        assert abs(rep.bracket[1] - 1.0) <= 1e-6


class TestLocalExpansion:
    def test_equality_case_degenerate_pass(self):
        f = RotationRealPart(FOUR, 0.2)
        rep = verify_theorem1(f, FOUR)
        loc = rep.local
        assert abs(loc.omega) <= 1e-12
        assert abs(loc.omega_d1) <= 1e-9
        assert loc.gamma_d1 > 0

    def test_constant_on_double_zero_quadratic(self):
        # f = 1, E = (z+i)^2, xi = 0, alpha = pi: Omega = x^2, Gamma = 2x
        loc = local_expansion_check(
            lambda x: np.ones_like(np.asarray(x, dtype=float)), TWO, 0.0, math.pi
        )
        assert abs(loc.omega_d2 - 2.0) <= 1e-6
        assert abs(loc.gamma_d1 - 2.0) <= 1e-8
        assert loc.all_ok

    def test_hb_bar_for_difference(self, rng):
        # f - e^{i alpha} E lies in HB-bar when ||f/E||_inf <= 1
        spec = make_random_spec(rng, 3, 8)
        rep = None
        for _ in range(20):
            beta = float(rng.uniform(0, math.pi))
            try:
                rep = verify_theorem1(RotationRealPart(spec, beta), spec)
                break
            except BracketUnavailableError:
                continue
        assert rep is not None
        f = RotationRealPart(spec, beta)
        lam = cmath.exp(1j * rep.alpha)

        def g(z):
            return np.asarray(f.eval(z)) / rep.norm - lam * eval_E(spec, z)

        def gs(z):
            return np.asarray(f.eval(z)) / rep.norm - np.conj(lam) * eval_E(
                spec, z, conjugate=True
            )

        bar = hb_bar_check(g, gs, upper_half_plane_grid((-6, 6)))
        assert bar.passed
