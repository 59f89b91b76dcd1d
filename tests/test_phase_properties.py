"""Property tests of the phase-level machinery over random specs."""

import cmath
import math

import numpy as np
import pytest

from conftest import reference_specs

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from debranges.bounds import interval_energy  # noqa: E402
from debranges.hb_core import (  # noqa: E402
    BracketUnavailableError,
    Combination,
    HBSpec,
    Kernel,
    PhaseProfile,
    RealPolynomial,
    RotationRealPart,
    eval_E,
    hb_bar_check,
    level_crossings,
    phase,
    phase_derivative,
    phase_derivative_sup,
    phase_limits,
    rotate,
    solve_phase_level,
    upper_half_plane_grid,
)
from debranges.hormander import (  # noqa: E402
    MaxAtInfinityError,
    WrongSignError,
    bracket_A_zeros,
    bracket_B_zeros,
    locate_extremum,
    verify_theorem1,
)
from debranges.numerics import integrate, sup_on_window  # noqa: E402

_zero = st.builds(
    complex,
    st.floats(-3.0, 3.0),
    st.floats(-3.0, -0.1),
)
polynomial_specs = st.builds(
    lambda zeros: HBSpec(zeros=zeros), st.lists(_zero, min_size=1, max_size=12)
)
paley_wiener_specs = st.builds(
    lambda rate, zeros: HBSpec(exp_rate=rate, zeros=zeros),
    st.floats(0.2, 4.0),
    st.lists(_zero, max_size=4),
)
specs = st.one_of(polynomial_specs, paley_wiener_specs)
unit = st.floats(0.01, 0.99)
fast = settings(max_examples=100, deadline=None, derandomize=True, database=None)
fifty = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def _level_in_range(profile, u):
    lo, hi = phase_limits(profile)
    if math.isinf(lo):
        lo, hi = phase(profile, -20.0), phase(profile, 20.0)
    return lo + u * (hi - lo)


@fast
@given(specs, unit, st.floats(-5.0, 5.0))
def test_solution_meets_level(spec, u, start):
    profile = PhaseProfile(spec)
    level = _level_in_range(profile, u)
    x = solve_phase_level(profile, level, start)
    # 1e-12 in phi, or in x where phi is steeper than 1
    assert abs(phase(profile, x) - level) <= 1e-12 * max(1.0, phase_derivative(spec, x))


@fast
@given(specs, st.lists(unit, min_size=1, max_size=9), st.floats(-5.0, 5.0))
def test_array_of_levels_equals_scalar_calls(spec, us, start):
    profile = PhaseProfile(spec)
    levels = np.array([_level_in_range(profile, u) for u in us])
    got = solve_phase_level(profile, levels, start)
    assert got.tolist() == [solve_phase_level(profile, v, start) for v in levels.tolist()]


@fast
@given(specs, st.floats(-4.0, 4.0))
def test_brackets_are_the_crossings_next_to_xi(spec, xi):
    profile = PhaseProfile(spec)
    # alpha from E(xi) = e^{-i alpha} |E(xi)| puts xi on a B_alpha zero
    alpha = -cmath.phase(complex(eval_E(spec, xi)))
    lo_lim, hi_lim = phase_limits(profile)
    phi_xi = phase(profile, xi)
    for bracket, offset, target in (
        (bracket_B_zeros, 2 * math.pi, 2 * alpha),
        (bracket_A_zeros, math.pi, 2 * alpha + math.pi),
    ):
        if not (lo_lim < phi_xi - offset and phi_xi + offset < hi_lim):
            with pytest.raises(BracketUnavailableError):
                bracket(spec, alpha, xi)
            continue
        left, right = bracket(spec, alpha, xi)
        crossings = level_crossings(profile, target, (left - 1.0, right + 1.0))
        gap = 1e-9 * (1.0 + abs(xi))
        below = crossings[crossings < xi - gap]
        above = crossings[crossings > xi + gap]
        assert abs(below[-1] - left) <= 1e-9 * (1.0 + abs(left))
        assert abs(above[0] - right) <= 1e-9 * (1.0 + abs(right))


def _per_level_crossings(profile, target, window):
    """level_crossings one level at a time, each bracketed outward from the
    root before it by the scalar solve_phase_level."""
    lo, hi = window
    philo, phihi = phase(profile, lo), phase(profile, hi)
    kmin = math.ceil((philo - target) / (2 * math.pi) - 1e-12)
    kmax = math.floor((phihi - target) / (2 * math.pi) + 1e-12)
    roots, start = [], lo
    for k in range(kmin, kmax + 1):
        level = target + 2 * math.pi * k
        if philo - 1e-12 <= level <= phihi + 1e-12:
            start = solve_phase_level(profile, level, start, 1e-13)
            roots.append(start)
    return np.clip(np.array(roots), lo, hi)


def _assert_matches_per_level(profile, target, window):
    roots = level_crossings(profile, target, window)
    ref = _per_level_crossings(profile, target, window)
    assert roots.shape == ref.shape
    assert np.all(np.abs(roots - ref) <= 2e-13 * (1.0 + np.abs(ref)))
    return roots


@pytest.mark.parametrize("n", [3, 8, 24, 64, 65, 128, 256])
def test_crossings_match_per_level_solves_on_reference_specs(n):
    profile = PhaseProfile(reference_specs()[n])
    for beta in (0.0, 0.4, 1.3, 2.9):
        for target in (2 * beta + math.pi, 2 * beta):
            _assert_matches_per_level(profile, target, (-12.0, 12.0))


@fast
@given(specs, st.floats(0.0, math.pi))
def test_a_and_b_zeros_interlace(spec, beta):
    profile = PhaseProfile(spec)
    za = _assert_matches_per_level(profile, 2 * beta + math.pi, (-12.0, 12.0))
    zb = _assert_matches_per_level(profile, 2 * beta, (-12.0, 12.0))
    for roots, target in ((za, 2 * beta + math.pi), (zb, 2 * beta)):
        # level_crossings solves to 1e-13 (1 + 2|x|) in x
        turns = (phase(profile, roots) - target) / (2 * math.pi)
        off = 2 * math.pi * np.abs(turns - np.round(turns))
        assert np.all(off <= 1e-11 * np.maximum(1.0, phase_derivative(spec, roots)))
    merged = sorted([(x, "a") for x in za] + [(x, "b") for x in zb])
    kinds = [kind for _, kind in merged]
    assert all(k1 != k2 for k1, k2 in zip(kinds, kinds[1:]))
    assert abs(za.size - zb.size) <= 1
    assert np.all(np.diff([x for x, _ in merged]) > 0)


@fifty
@given(specs, st.floats(0.0, math.pi), unit, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_energy_plain_edges_equal_the_graded_grid(spec, alpha, u, p):
    # at integer p the ends of an interval energy are plain panel edges; the
    # value is that of the grid graded toward them, as for non-integer p
    roots = level_crossings(PhaseProfile(spec), 2 * alpha + math.pi, (-12.0, 12.0))
    if roots.size < 2:
        return
    i = int(u * (roots.size - 1))
    pair = (float(roots[i]), float(roots[i + 1]))

    def ratio(x):
        e = eval_E(spec, x)
        return np.abs(rotate(e, alpha)[0] / np.abs(e)) ** p

    graded = integrate(ratio, pair, singular_points=pair).value
    value = interval_energy(spec, alpha, p, pair)
    if p == 1.5:
        assert value == graded
    else:
        assert abs(value - graded) <= 1e-13 * graded


@fifty
@given(specs, st.floats(0.0, math.pi))
def test_theorem1_margin_for_rotations(spec, beta):
    # ||A_beta/E||_inf = 1 is attained where B_beta vanishes, and Theorem 1
    # holds there with a zero margin; without a real zero of B_beta (as for
    # E = z + i, beta = 0) the supremum is only approached at infinity
    try:
        rep = verify_theorem1(RotationRealPart(spec, beta), spec)
    except (BracketUnavailableError, WrongSignError, MaxAtInfinityError):
        return
    assert rep.passed
    assert rep.min_margin_scaled >= -1e-9


@fifty
@given(specs, st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi))
def test_difference_lemma_hb_bar(spec, beta, t):
    # g = A_beta - lam E with |lam| = 1 satisfies |g#| <= |g| in the upper
    # half-plane; g# = A_beta - conj(lam) E# since A_beta is real entire
    lam = cmath.exp(1j * t)
    a = RotationRealPart(spec, beta)

    def g(z):
        return a.eval(z) - lam * eval_E(spec, z)

    def g_sharp(z):
        return a.eval(z) - lam.conjugate() * eval_E(spec, z, conjugate=True)

    assert hb_bar_check(g, g_sharp, upper_half_plane_grid(nx=16, ny=16)).passed


def _reference_sup(spec):
    """The per-window algorithm: sup_on_window on each bump window x_n -+ 3
    yhat_n (64 nodes) and on their hull (256 nodes), first maximum winning."""
    xs = np.array([z.real for z in spec.zeros])
    ys = np.array([-z.imag for z in spec.zeros])
    windows = [((x - 3.0 * y, x + 3.0 * y), 64) for x, y in zip(xs, ys)]
    windows.append(((np.min(xs - 3.0 * ys), np.max(xs + 3.0 * ys)), 256))
    return max(
        (
            sup_on_window(lambda t: phase_derivative(spec, t), w, n, refine_tol=1e-14)
            for w, n in windows
        ),
        key=lambda vx: vx[0],
    )


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    st.integers(1, 128).flatmap(lambda n: st.lists(_zero, min_size=n, max_size=n)),
)
def test_sup_equals_per_window_reference(rate, zeros):
    spec = HBSpec(exp_rate=rate, zeros=zeros)
    sup = phase_derivative_sup(spec)
    value, location = _reference_sup(spec)
    assert sup.value == value
    assert sup.location == location


@st.composite
def _polynomial_members(draw):
    """(spec, f): zeros within 2 of a centre c, f a kernel, a polynomial of
    degree N - 2, or half a rotation plus half a kernel."""
    c = draw(st.one_of(st.just(0.0), st.floats(-40.0, 40.0)))
    n = draw(st.integers(2, 10))
    zeros = draw(
        st.lists(
            st.builds(complex, st.floats(c - 2.0, c + 2.0), st.floats(-1.5, -0.05)),
            min_size=n,
            max_size=n,
        )
    )
    spec = HBSpec(zeros=zeros)
    kernel = Kernel(spec, c + draw(st.floats(-1.0, 1.0)))
    kind = draw(st.sampled_from(("kernel", "polynomial", "combination")))
    if kind == "kernel":
        return spec, kernel
    if kind == "polynomial":
        coeff = st.floats(-1.0, 1.0).filter(lambda v: abs(v) >= 0.01)
        return spec, RealPolynomial(draw(st.lists(coeff, min_size=n - 1, max_size=n - 1)))
    rotation = RotationRealPart(spec, draw(st.floats(0.0, 3.0)))
    return spec, Combination([(0.5, rotation), (0.5, kernel)])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_polynomial_members())
def test_windowless_extremum_dominates_a_dense_scan(member):
    spec, f = member
    _, norm = locate_extremum(f, spec)
    re = [z.real for z in spec.zeros]
    xs = np.linspace(min(re) - 60.0, max(re) + 60.0, 100001)
    dense = np.abs(np.real(f.eval(xs))) / np.abs(eval_E(spec, xs))
    assert float(np.max(dense)) <= norm * (1.0 + 1e-9)
    try:
        rep = verify_theorem1(f, spec)
    except (WrongSignError, BracketUnavailableError):
        return
    assert rep.passed
