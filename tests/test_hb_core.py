import cmath
import dataclasses
import math

import numpy as np
import pytest

from conftest import make_random_spec, reference_specs
from debranges import hb_core
from debranges.hb_core import (
    BracketUnavailableError,
    Combination,
    HBSpec,
    Kernel,
    MembershipError,
    PhaseProfile,
    RealPolynomial,
    RotationRealPart,
    SpecError,
    entire_from_dict,
    eval_AB,
    eval_E,
    eval_E_prime,
    hb_bar_check,
    level_crossings,
    phase,
    phase_derivative,
    phase_derivative_sup,
    phase_limits,
    solve_phase_level,
    spec_from_dict,
    spec_to_dict,
    theta,
    upper_half_plane_grid,
)

S_PI = HBSpec(exp_rate=math.pi)
ONE = HBSpec(zeros=(-1j,))
TWO = HBSpec(zeros=(-1j, -1j))


class TestSpecValidation:
    def test_rejects_real_zero(self):
        with pytest.raises(SpecError):
            HBSpec(zeros=(1.0 + 0j,))

    def test_rejects_upper_half_plane_zero(self):
        with pytest.raises(SpecError):
            HBSpec(zeros=(1j,))

    def test_rejects_degenerate_constant(self):
        with pytest.raises(SpecError):
            HBSpec(exp_rate=0.0, zeros=())

    def test_rejects_bad_scale(self):
        with pytest.raises(SpecError):
            HBSpec(zeros=(-1j,), scale=0.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(SpecError):
            HBSpec(exp_rate=-1.0)


class TestZeroData:
    def test_read_only_arrays_of_the_zeros(self):
        spec = HBSpec(zeros=(1 - 2j, -0.5 - 0.25j), rotation=0.3)
        assert spec.roots.tolist() == [1 - 2j, -0.5 - 0.25j]
        assert spec.conj_roots.tolist() == [1 + 2j, -0.5 + 0.25j]
        assert spec.x_n.tolist() == [1.0, -0.5]
        assert spec.yhat_n.tolist() == [2.0, 0.25]
        for arr in (spec.roots, spec.conj_roots, spec.x_n, spec.yhat_n):
            assert not arr.flags.writeable

    def test_not_part_of_equality_hash_or_repr(self):
        a = HBSpec(zeros=(-1j, 2 - 1j))
        b = HBSpec(zeros=(-1j, 2 - 1j))
        assert a == b and hash(a) == hash(b)
        assert "roots" not in repr(a)
        assert HBSpec(exp_rate=1.0).roots.shape == (0,)


class TestEvalE:
    def test_pure_exponential_at_i(self):
        assert abs(eval_E(S_PI, 1j) - math.e ** math.pi) <= 1e-10

    def test_single_zero_at_origin(self):
        assert eval_E(ONE, 0.0) == 1j

    def test_double_zero_at_origin(self):
        assert abs(eval_E(TWO, 0.0) - (-1.0)) <= 1e-15

    def test_conjugate_flag(self):
        # E#(z) = conj(E(conj z))
        z = 0.7 + 0.4j
        lhs = eval_E(ONE, z, conjugate=True)
        rhs = complex(eval_E(ONE, z.conjugate())).conjugate()
        assert abs(lhs - rhs) <= 1e-14

    def test_strict_hb_inequality_random(self, rng):
        for _ in range(20):
            spec = make_random_spec(rng)
            z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 3.0))
            assert abs(eval_E(spec, z, conjugate=True)) < abs(eval_E(spec, z))

    def test_many_zero_log_path_matches_plain(self, rng):
        zeros = [complex(rng.uniform(-2, 2), rng.uniform(-2, -0.1)) for _ in range(70)]
        spec = HBSpec(zeros=zeros)
        plain = HBSpec(zeros=zeros[:60])
        # compare the log-accumulation path against a direct product
        z = 1.3 + 0.2j
        direct = np.prod([z - w for w in zeros])
        assert abs(eval_E(spec, z) - direct) <= 1e-9 * abs(direct)

    def test_plain_path_matches_product_form(self, rng):
        # a large input takes the product over blocks of points; the
        # points x zeros product in one piece is the reference, bit for bit
        zeros = [complex(rng.uniform(-3, 3), rng.uniform(-3, -0.1)) for _ in range(12)]
        spec = HBSpec(zeros=zeros)
        z = rng.uniform(-40, 40, 10_000) + 1j * rng.uniform(-1, 3, 10_000)
        for conjugate, roots in ((False, np.array(zeros)), (True, np.conj(zeros))):
            ref = np.prod(z[:, None] - roots, axis=-1)
            assert np.array_equal(eval_E(spec, z, conjugate=conjugate), ref)
        grid = z.reshape(100, 100)
        assert np.array_equal(eval_E(spec, grid), eval_E(spec, z).reshape(100, 100))
        # a small input takes one block; its values match the blocked ones
        assert np.array_equal(eval_E(spec, z[:50]), eval_E(spec, z)[:50])
        assert type(eval_E(spec, 0.5)) is complex
        assert type(eval_E(spec, np.float64(0.5) + 1j)) is complex


class TestEvalAB:
    def test_paley_wiener_half(self):
        a, b = eval_AB(S_PI, 0.0, 0.5)
        assert abs(a) <= 1e-15 and abs(b + 1.0) <= 1e-15

    def test_double_zero_polynomials(self, rng):
        for x in rng.uniform(-5, 5, size=20):
            a, b = eval_AB(TWO, 0.0, float(x))
            assert abs(a - (x * x - 1)) <= 1e-12 * (1 + x * x)
            assert abs(b - 2 * x) <= 1e-12 * (1 + abs(x))

    def test_rotation_by_pi(self):
        a, b = eval_AB(TWO, math.pi, 0.0)
        assert abs(a - 1.0) <= 1e-15 and abs(b) <= 1e-15

    def test_pythagoras(self, rng):
        spec = make_random_spec(rng)
        for x in rng.uniform(-4, 4, size=10):
            a, b = eval_AB(spec, 0.7, float(x))
            e2 = abs(eval_E(spec, float(x))) ** 2
            assert abs(a * a + b * b - e2) <= 1e-10 * e2


class TestPhase:
    def test_paley_wiener_linear(self):
        prof = PhaseProfile(S_PI)
        assert abs(phase(prof, 0.5) - math.pi) <= 1e-14
        for x in (-2.0, 0.1, 3.7):
            assert abs(phase(prof, x) - 2 * math.pi * x) <= 1e-12

    def test_single_zero_arctan(self):
        prof = PhaseProfile(ONE)
        assert abs(prof.anchor_value - math.pi) <= 1e-15
        for x in (-3.0, 0.4, 2.0):
            assert abs(phase(prof, x) - (math.pi + 2 * math.atan(x))) <= 1e-13
            # cross-check against arg((x-i)/(x+i))
            target = cmath.phase((x - 1j) / (x + 1j)) % (2 * math.pi)
            assert abs(phase(prof, x) % (2 * math.pi) - target) <= 1e-12

    def test_anchoring(self, rng):
        spec = make_random_spec(rng)
        prof = PhaseProfile(spec, anchor_point=0.3)
        assert abs(phase(prof, 0.3) - prof.anchor_value) <= 1e-12

    def test_supplied_anchor_must_match_branch(self):
        with pytest.raises(SpecError):
            PhaseProfile(ONE, anchor_value=0.5)
        # a 2 pi shift of the principal value is a legitimate branch
        prof = PhaseProfile(ONE, anchor_value=math.pi + 2 * math.pi)
        assert abs(phase(prof, 0.0) - 3 * math.pi) <= 1e-12

    def test_strictly_increasing(self, rng):
        spec = make_random_spec(rng)
        prof = PhaseProfile(spec)
        xs = np.sort(rng.uniform(-8, 8, size=100))
        vals = phase(prof, xs)
        assert np.all(np.diff(vals) > 0)

    def test_matches_theta_to_1e10(self, rng):
        for _ in range(10):
            spec = make_random_spec(rng)
            prof = PhaseProfile(spec)
            xs = rng.uniform(-10, 10, size=100)
            assert np.max(np.abs(np.exp(1j * phase(prof, xs)) - theta(spec, xs))) <= 1e-10


class TestPhaseDerivative:
    def test_paley_wiener_constant(self):
        assert phase_derivative(S_PI, 12.3) == 2 * math.pi

    def test_single_zero(self):
        assert abs(phase_derivative(ONE, 0.0) - 2.0) <= 1e-15

    def test_double_zero(self):
        assert abs(phase_derivative(TWO, 0.0) - 4.0) <= 1e-15

    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            spec = make_random_spec(rng)
            prof = PhaseProfile(spec)
            xs = rng.uniform(-6, 6, size=30)
            h = 1e-5 * np.maximum(1.0, np.abs(xs))
            fd = (phase(prof, xs + h) - phase(prof, xs - h)) / (2 * h)
            pd = phase_derivative(spec, xs)
            assert np.max(np.abs(fd - pd) / pd) <= 1e-6

    def test_sup_paley_wiener(self):
        sup = phase_derivative_sup(S_PI)
        assert sup.value == 2 * math.pi and sup.location is None

    def test_sup_single_bump(self):
        sup = phase_derivative_sup(ONE)
        assert abs(sup.value - 2.0) <= 1e-12
        assert abs(sup.location) <= 1e-6

    def test_sup_against_dense_grid(self, rng):
        spec = HBSpec(zeros=(1 - 1j, -1 - 1j))
        sup = phase_derivative_sup(spec)
        xs = np.linspace(-10, 10, 200001)
        brute = float(np.max(phase_derivative(spec, xs)))
        assert sup.value >= brute - 1e-9
        assert sup.value >= phase_derivative(spec, 0.0)

    def test_sup_dominates_everywhere_random(self, rng):
        for _ in range(10):
            spec = make_random_spec(rng)
            sup = phase_derivative_sup(spec)
            xs = rng.uniform(-12, 12, size=4096)
            assert np.all(phase_derivative(spec, xs) <= sup.value * (1 + 1e-12))

    def test_inner_function_rate_is_twice_exp_rate(self):
        # Theta_E carries the exponential factor e^{2 i exp_rate z}: the
        # phase slope far from the zeros tends to 2 * exp_rate
        spec = HBSpec(exp_rate=1.3, zeros=(-1j, 0.5 - 2j))
        assert abs(phase_derivative(spec, 1e8) - 2 * 1.3) <= 1e-7
        # and in the upper half-plane |Theta| decays at exactly that rate
        y = 40.0
        ratio = abs(eval_E(spec, 1j * y, conjugate=True) / eval_E(spec, 1j * y))
        assert abs(-math.log(ratio) / y - 2 * 1.3) <= 1e-1


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _spec_with(rng, n, **kw):
    zeros = [complex(rng.uniform(-3, 3), rng.uniform(-3, -0.1)) for _ in range(n)]
    return HBSpec(zeros=zeros, **kw)


class TestBlockedZeroSums:
    """Inputs larger than one block of _PRODUCT_BLOCK points x zeros entries
    give the bits of one unblocked evaluation."""

    @pytest.mark.parametrize("n", [12, 65, 128, 256])
    def test_blocked_equals_unblocked(self, rng, monkeypatch, n):
        spec = _spec_with(rng, n, exp_rate=0.7, rotation=0.4, scale=1.3)
        x = np.linspace(-4.0, 4.0, 3 * hb_core._PRODUCT_BLOCK // n + 17)
        z = (x + 1j * np.linspace(0.01, 4.0, x.size))[: x.size // 3 * 3].reshape(3, -1)
        assert x.size > hb_core._PRODUCT_BLOCK // n
        prof = PhaseProfile(spec, anchor_point=0.3)

        def evaluate():
            return (
                phase_derivative(spec, x),
                phase(prof, x),
                eval_E(spec, x),
                eval_E(spec, z, conjugate=True),
                eval_E_prime(spec, z),
            )

        blocked = evaluate()
        monkeypatch.setattr(hb_core, "_PRODUCT_BLOCK", 1 << 40)
        for b, w in zip(blocked, evaluate()):
            assert _same_bits(b, w)


class TestRealAxisProduct:
    """A real input of at least _REAL_AXIS_MIN points takes the zeros-major
    product; its values have the bits of the points x zeros complex reduce
    that every complex input takes."""

    @pytest.mark.parametrize("size", [2047, 2048, 2049, 30_000])
    @pytest.mark.parametrize("n", [3, 12, 65, 256])
    def test_real_input_equals_complex_reduce(self, rng, n, size):
        spec = _spec_with(rng, n)
        x = rng.uniform(-6.0, 6.0, size)
        for conjugate in (False, True):
            assert _same_bits(
                eval_E(spec, x, conjugate=conjugate),
                eval_E(spec, x.astype(complex), conjugate=conjugate),
            )

    def test_exponential_rotated_scaled_spec(self, rng):
        spec = _spec_with(rng, 12, exp_rate=0.7, rotation=0.4, scale=1.3)
        x = rng.uniform(-6.0, 6.0, 30_000)
        for conjugate in (False, True):
            real = eval_E(spec, x, conjugate=conjugate)
            assert _same_bits(real, eval_E(spec, x.astype(complex), conjugate=conjugate))
            assert _same_bits(
                eval_E(spec, x.reshape(100, 300), conjugate=conjugate), real.reshape(100, 300)
            )

    def test_switch_point(self, rng, monkeypatch):
        spec = _spec_with(rng, 12)
        sizes = []
        real = hb_core._real_axis_product
        monkeypatch.setattr(
            hb_core, "_real_axis_product", lambda x, r: sizes.append(x.size) or real(x, r)
        )
        x = rng.uniform(-6.0, 6.0, hb_core._REAL_AXIS_MIN)
        for pts in (x, x[:-1], x.astype(complex), x[0]):
            eval_E(spec, pts)
        assert sizes == [hb_core._REAL_AXIS_MIN]

    @pytest.mark.parametrize("size", [50, 30_000])
    def test_conjugate_is_conj_on_real_axis(self, rng, size):
        for spec in (_spec_with(rng, 65), _spec_with(rng, 12, exp_rate=0.7, rotation=0.4)):
            x = rng.uniform(-6.0, 6.0, size)
            assert _same_bits(eval_E(spec, x, conjugate=True), np.conj(eval_E(spec, x)))


class TestOneProductForEAndESharp:
    """RotationRealPart, Kernel and theta take E# = conj E from one product
    on the real axis: the bits of their two-product formulas."""

    @staticmethod
    def _points(rng):
        x = rng.uniform(-6.0, 6.0, 5000)
        return [x, x[:40], x.astype(complex), x[:40] + 1j * rng.uniform(-1, 3, 40), 0.3, 0.3 + 0.2j]

    @staticmethod
    def _pair(spec, z):
        zz = np.asarray(z, dtype=complex)
        return eval_E(spec, zz), eval_E(spec, zz, conjugate=True)

    @pytest.fixture(params=["polynomial", "exponential"])
    def spec(self, rng, request):
        if request.param == "polynomial":
            return _spec_with(rng, 24)
        return _spec_with(rng, 6, exp_rate=0.7, rotation=0.4, scale=1.3)

    def test_rotation_real_part(self, rng, spec):
        f = RotationRealPart(spec, 0.9)
        for z in self._points(rng):
            e, es = self._pair(spec, z)
            ref = 0.5 * (np.exp(0.9j) * e + np.exp(-0.9j) * es)
            assert _same_bits(f.eval(z), ref)

    def test_kernel(self, rng, spec):
        k = Kernel(spec, 0.25)
        assert (k._et, k._ets) == tuple(map(complex, self._pair(spec, 0.25)))
        for z in self._points(rng) + [0.25, np.array([0.25, 0.25 + 1e-6])]:
            ref = k._from_E(np.asarray(z, dtype=complex), *self._pair(spec, z))
            assert _same_bits(k.eval(z), ref)

    def test_theta(self, rng, spec):
        x = rng.uniform(-6.0, 6.0, 5000)
        for pts in (x, x[:40], 0.3):
            e, es = self._pair(spec, pts)
            assert _same_bits(theta(spec, pts), es / e)
        assert type(theta(spec, 0.3)) is complex


class TestPhaseSupMemo:
    """phase_derivative_sup keeps its result on the spec object."""

    @staticmethod
    def _count_phase_derivative(monkeypatch):
        calls = []
        real = hb_core.phase_derivative
        monkeypatch.setattr(
            hb_core, "phase_derivative", lambda s, x: calls.append(s) or real(s, x)
        )
        return calls

    def test_second_call_makes_no_phase_derivative_call(self, monkeypatch):
        spec = reference_specs()[24]
        calls = self._count_phase_derivative(monkeypatch)
        first = phase_derivative_sup(spec)
        assert calls
        calls.clear()
        assert phase_derivative_sup(spec) == first
        assert calls == []

    def test_equal_or_replaced_spec_computes_its_own(self, monkeypatch):
        spec = reference_specs()[24]
        first = phase_derivative_sup(spec)
        calls = self._count_phase_derivative(monkeypatch)
        for other in (HBSpec(zeros=spec.zeros), dataclasses.replace(spec)):
            assert other == spec and other is not spec
            calls.clear()
            assert phase_derivative_sup(other) == first
            assert calls and all(s is other for s in calls)

    def test_not_part_of_equality_hash_or_repr(self):
        a, b = HBSpec(zeros=(-1j, 2 - 1j)), HBSpec(zeros=(-1j, 2 - 1j))
        phase_derivative_sup(a)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


class TestProductAccuracy:
    @pytest.mark.parametrize("n", [65, 128, 256])
    def test_eval_E_matches_mpmath_product(self, n):
        mpmath = pytest.importorskip("mpmath")
        spec = reference_specs()[n]
        pts = np.concatenate(
            [np.linspace(-11.9, 11.9, 60), [0.5 + 2.0j, -1.3 - 0.4j]]
        )
        got = eval_E(spec, pts)
        with mpmath.workdps(40):
            roots = [mpmath.mpc(z.real, z.imag) for z in spec.zeros]
            for x, e in zip(pts.tolist(), got.tolist()):
                ref = mpmath.fprod(mpmath.mpc(x) - r for r in roots)
                assert abs(mpmath.mpc(e) - ref) <= 1e-14 * abs(ref), x


class TestLevelCrossings:
    def test_a_zeros_of_double_zero_spec(self):
        prof = PhaseProfile(TWO)
        roots = level_crossings(prof, math.pi, (-10, 10))
        assert np.allclose(roots, [-1.0, 1.0], atol=1e-10)

    def test_b_zeros_of_double_zero_spec(self):
        prof = PhaseProfile(TWO)
        roots = level_crossings(prof, 0.0, (-10, 10))
        assert roots.size == 1 and abs(roots[0]) <= 1e-10

    def test_constant_b_has_no_zeros(self):
        prof = PhaseProfile(ONE)
        assert level_crossings(prof, 0.0, (-10, 10)).size == 0

    def test_interlacing_random(self, rng):
        for _ in range(10):
            spec = make_random_spec(rng)
            prof = PhaseProfile(spec)
            beta = float(rng.uniform(0, math.pi))
            za = level_crossings(prof, 2 * beta + math.pi, (-12, 12))
            zb = level_crossings(prof, 2 * beta, (-12, 12))
            for lo, hi in zip(za[:-1], za[1:]):
                assert sum(1 for z in zb if lo < z < hi) == 1

    def test_gap_at_least_inverse_sup(self, rng):
        for _ in range(10):
            spec = make_random_spec(rng)
            sup = phase_derivative_sup(spec).value
            prof = PhaseProfile(spec)
            roots = level_crossings(prof, 1.234, (-12, 12))
            if roots.size >= 2:
                assert np.min(np.diff(roots)) >= 2 * math.pi / sup - 1e-9

    def test_infinite_window_rejected(self):
        with pytest.raises(ValueError):
            level_crossings(PhaseProfile(TWO), 0.0, (0.0, math.inf))

    def test_one_window_of_256_zeros_takes_few_phase_calls(self, monkeypatch):
        # one grid scan and one lockstep solve, not a solve per level
        prof = PhaseProfile(reference_specs()[256])
        calls = []

        def counting(profile, x):
            calls.append(np.size(x))
            return phase(profile, x)

        monkeypatch.setattr(hb_core, "phase", counting)
        roots = level_crossings(prof, 1.234, (-12.0, 12.0))
        assert roots.size > 200
        assert len(calls) <= 64


class TestSolvePhaseLevelArrays:
    def test_equals_scalar_calls(self, rng):
        for _ in range(10):
            prof = PhaseProfile(make_random_spec(rng))
            lo, hi = phase_limits(prof)
            levels = lo + (hi - lo) * rng.uniform(0.02, 0.98, 7)
            start = float(rng.uniform(-4.0, 4.0))
            got = solve_phase_level(prof, levels, start)
            want = [solve_phase_level(prof, v, start) for v in levels.tolist()]
            assert got.tolist() == want
            assert isinstance(want[0], float)

    def test_level_outside_the_range_raises(self):
        prof = PhaseProfile(TWO)
        lo, hi = phase_limits(prof)
        with pytest.raises(BracketUnavailableError):
            solve_phase_level(prof, hi + 0.1, 0.0)
        with pytest.raises(BracketUnavailableError):
            solve_phase_level(prof, np.array([0.5 * (lo + hi), hi + 0.1]), 0.0)


class TestWronskianPositivity:
    def test_ab_derivative_inequality(self, rng):
        # A' B - A B' > 0 on the real axis, via central differences
        for _ in range(5):
            spec = make_random_spec(rng)
            beta = float(rng.uniform(0, math.pi))
            xs = rng.uniform(-5, 5, size=50)
            h = 1e-5 * np.maximum(1.0, np.abs(xs))
            a0, b0 = eval_AB(spec, beta, xs)
            ap, bp = eval_AB(spec, beta, xs + h)
            am, bm = eval_AB(spec, beta, xs - h)
            da = (ap - am) / (2 * h)
            db = (bp - bm) / (2 * h)
            scale = np.abs(eval_E(spec, xs)) ** 2
            assert np.all(da * b0 - a0 * db > -1e-8 * scale * h * h)
            assert np.all(da * b0 - a0 * db > 0)


class TestHBBarCheck:
    def test_e_itself(self):
        spec = TWO
        rep = hb_bar_check(
            lambda z: eval_E(spec, z),
            lambda z: eval_E(spec, z, conjugate=True),
            upper_half_plane_grid(),
        )
        assert rep.passed and rep.worst_ratio < 1.0

    def test_degenerate_scalar_multiple_of_real(self):
        # g = A_0 - E = -i B_0: |g#| = |g| identically
        spec = TWO

        def g(z):
            a = 0.5 * (eval_E(spec, z) + eval_E(spec, z, conjugate=True))
            return a - eval_E(spec, z)

        def gs(z):
            a = 0.5 * (eval_E(spec, z) + eval_E(spec, z, conjugate=True))
            return a - eval_E(spec, z, conjugate=True)

        rep = hb_bar_check(g, gs, upper_half_plane_grid())
        assert rep.passed
        assert abs(rep.worst_ratio - 1.0) <= 1e-12

    def test_kernel_member(self):
        spec = HBSpec(zeros=(-0.5 - 1j, 0.5 - 1j, -2j))
        k = Kernel(spec, 0.4)
        from debranges.hormander import locate_extremum

        _, norm = locate_extremum(k, spec)
        lam = cmath.exp(0.77j)
        s = 1.0 / (norm * (1 + 1e-9))

        def g(z):
            return s * np.asarray(k.eval(z)) - lam * eval_E(spec, z)

        def gs(z):
            return s * np.asarray(k.eval(z)) - np.conj(lam) * eval_E(spec, z, conjugate=True)

        rep = hb_bar_check(g, gs, upper_half_plane_grid())
        assert rep.passed

    def test_zero_points_skipped(self):
        rep = hb_bar_check(
            lambda z: z - (1 + 1j),
            lambda z: np.zeros_like(z),
            np.array([1 + 1j, 2 + 1j]),
        )
        assert rep.n_skipped == 1
        assert rep.skipped_points == (1 + 1j,)

    def test_real_axis_points_rejected(self):
        with pytest.raises(ValueError):
            hb_bar_check(lambda z: z, lambda z: z, np.array([1.0 + 0j]))


class TestStructuredEntire:
    def test_rotation_real_part_is_real_on_axis(self, rng):
        spec = make_random_spec(rng)
        f = RotationRealPart(spec, 1.1)
        xs = rng.uniform(-5, 5, size=32)
        vals = f.eval(xs)
        assert np.max(np.abs(vals.imag)) <= 1e-12 * np.max(1 + np.abs(vals))

    def test_rotation_poly_coeffs(self):
        f = RotationRealPart(TWO, 0.0)
        c = f.poly_coeffs(TWO)
        assert np.allclose(c, [-1.0, 0.0, 1.0], atol=1e-14)  # A_0 = x^2 - 1

    def test_kernel_poly_coeffs_constant(self):
        k = Kernel(TWO, 0.0)
        c = k.poly_coeffs(TWO)
        assert c.size == 1 and abs(c[0] - 2 / math.pi) <= 1e-14

    def test_kernel_degree_four_span(self):
        four = HBSpec(zeros=(-1j,) * 4)
        c = Kernel(four, 0.0).poly_coeffs(four)
        # K_0 = 4 (1 - z^2) / pi
        assert np.allclose(c, [4 / math.pi, 0.0, -4 / math.pi], atol=1e-12)

    @pytest.mark.parametrize("n", [40, 64])
    def test_poly_coeffs_keep_the_true_degree(self, n):
        # trimming against the largest coefficient dropped genuine leading
        # ones: 37 of 41 at N = 40, 52 of 65 at N = 64 on these zeros
        spec = HBSpec(zeros=reference_specs()[64].zeros[:n], rotation=0.3, scale=2.0)
        rot = RotationRealPart(spec, 0.7).poly_coeffs(spec)
        assert rot.size == n + 1
        assert abs(rot[-1] - 2.0 * math.cos(0.7 + 0.3)) <= 1e-14
        assert Kernel(spec, 0.2).poly_coeffs(spec).size == n

    def test_membership_degree_cap(self):
        with pytest.raises(MembershipError):
            RealPolynomial([0.0, 0.0, 1.0]).certify(TWO)
        RealPolynomial([1.0, 2.0]).certify(HBSpec(zeros=(-1j,) * 3))

    def test_polynomial_rejected_for_paley_wiener(self):
        with pytest.raises(MembershipError):
            RealPolynomial([1.0]).certify(S_PI)

    def test_lower_type_exponential_members(self):
        RotationRealPart(HBSpec(exp_rate=math.pi / 2), 0.3).certify(S_PI)
        Kernel(HBSpec(exp_rate=math.pi / 2), 0.0).certify(S_PI)
        with pytest.raises(MembershipError):
            RotationRealPart(HBSpec(exp_rate=2 * math.pi), 0.0).certify(S_PI)

    def test_combination_eval_and_coeffs(self):
        f = Combination([(2.0, RealPolynomial([1.0])), (-1.0, RealPolynomial([0.0, 1.0]))])
        assert abs(complex(f.eval(3.0)) - (2.0 - 3.0)) <= 1e-14
        four = HBSpec(zeros=(-1j,) * 4)
        assert np.allclose(f.poly_coeffs(four), [2.0, -1.0])

    def test_kernel_diagonal_identity(self, rng):
        spec = make_random_spec(rng)
        t = 0.37
        k = Kernel(spec, t)
        expected = abs(eval_E(spec, t)) ** 2 * phase_derivative(spec, t) / (2 * math.pi)
        assert abs(k.diagonal() - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("t", [5.0, 10.0, 40.0])
    def test_kernel_diagonal_overflow_raises(self, t):
        # |E(t)|^2 is past the float range on the 256-zero reference spec, and
        # the Taylor jet with it: the constructor raises, without a numpy
        # warning (warnings fail the test), instead of keeping a NaN jet
        spec = reference_specs()[256]
        with pytest.raises(OverflowError):
            Kernel(spec, t)

    def test_kernel_hermitian_real_on_axis(self, rng):
        spec = make_random_spec(rng)
        k = Kernel(spec, -0.8)
        xs = rng.uniform(-4, 4, size=16)
        vals = k.eval(xs)
        assert np.max(np.abs(vals.imag)) <= 1e-10 * np.max(1 + np.abs(vals))

    def test_kernel_taylor_bridge_smooth(self):
        spec = HBSpec(zeros=(-1j, 0.5 - 2j, -1 - 0.3j))
        k = Kernel(spec, 0.8)
        us = np.array([0.9e-4, 0.99e-4, 1.01e-4, 1.1e-4])
        vals = np.real(k.eval(0.8 + us))
        # values across the representation seam interpolate linearly
        mid = 0.5 * (vals[0] + vals[3])
        assert abs(0.5 * (vals[1] + vals[2]) - mid) <= 1e-8 * abs(mid)


class TestSerialization:
    def test_spec_round_trip(self, rng):
        spec = make_random_spec(rng)
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec

    def test_spec_schema_errors(self):
        with pytest.raises(SpecError):
            spec_from_dict({"zeros": [[0.0, 1.0]]})
        with pytest.raises(SpecError):
            spec_from_dict({"bogus": 1})
        with pytest.raises(SpecError):
            spec_from_dict([1, 2, 3])

    def test_entire_round_trip(self):
        node = Combination(
            [
                (0.5, RotationRealPart(TWO, 0.3)),
                (2.0, Kernel(TWO, 0.1)),
                (-1.0, RealPolynomial([1.0, 0.0])),
            ]
        )
        again = entire_from_dict(node.to_dict())
        xs = np.linspace(-2, 2, 7)
        assert np.allclose(np.real(node.eval(xs)), np.real(again.eval(xs)), atol=1e-14)

    def test_entire_unknown_kind(self):
        with pytest.raises(SpecError):
            entire_from_dict({"kind": "mystery"})
