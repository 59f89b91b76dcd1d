import math
import tracemalloc

import numpy as np
import pytest

from debranges import numerics as N
from debranges.numerics import (
    BracketError,
    NonConvergenceError,
    QuadratureScheme,
    _gl_rule,
    _graded_edges,
    _mapped_edges,
    _panel_sums,
    golden_max,
    integrate,
    log_gamma,
    monotone_solve,
    sup_on_window,
)


class TestIntegrate:
    def test_rational_square_whole_line(self):
        # int dx / (x^2+1)^2 = pi/2
        res = integrate(lambda x: 1.0 / (x * x + 1.0) ** 2, None)
        assert res.converged
        assert abs(res.value - math.pi / 2) <= 1e-12

    def test_cos_squared(self):
        res = integrate(lambda x: np.cos(x) ** 2, (-math.pi / 2, math.pi / 2))
        assert abs(res.value - math.pi / 2) <= 1e-13

    def test_cauchy_whole_line(self):
        res = integrate(lambda x: 1.0 / (x * x + 1.0), None)
        assert abs(res.value - math.pi) <= 1e-12

    def test_endpoint_kink_with_grading(self):
        # int_0^1 sqrt(x) dx = 2/3; the kink at 0 needs the graded panels
        res = integrate(lambda x: np.sqrt(np.abs(x)), (0.0, 1.0), singular_points=(0.0,))
        assert abs(res.value - 2.0 / 3.0) <= 1e-12

    def test_interior_kink(self):
        # int_{-1}^{1} |x| dx = 1
        res = integrate(lambda x: np.abs(x), (-1.0, 1.0), singular_points=(0.0,))
        assert abs(res.value - 1.0) <= 1e-13

    def test_nonconvergence_flag(self):
        rng = np.random.default_rng(7)
        scheme = QuadratureScheme(panels=2, nodes_per_panel=2, max_refinements=1,
                                  target_rel_error=1e-15)
        res = integrate(lambda x: np.cos(50 * x) ** 2 / (1 + x * x), (-4, 4), scheme)
        assert not res.converged

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, (1.0, 0.0))

    @staticmethod
    def graded_edges_by_scans(a, b, panels, singular):
        """The graded edges built point by point with scans over every edge:
        the reference for the array construction."""
        base = list(np.linspace(a, b, panels + 1))
        pts = sorted({float(s) for s in singular if a <= s <= b})
        edges = sorted(set(base) | set(pts))
        out = set(edges)
        for s in pts:
            floor_step = 8.0 * np.finfo(float).eps * max(1.0, abs(s))
            left = max((e for e in edges if e < s), default=None)
            right = min((e for e in edges if e > s), default=None)
            if left is not None:
                d = s - left
                out.update(
                    s - d * 0.5 ** k for k in range(1, 48) if d * 0.5 ** k >= floor_step
                )
            if right is not None:
                d = right - s
                out.update(
                    s + d * 0.5 ** k for k in range(1, 48) if d * 0.5 ** k >= floor_step
                )
        arr = np.array(sorted(out))
        return arr[np.concatenate(([True], np.diff(arr) > 0.0))]

    def test_graded_edges_equal_the_scans(self, rng):
        for _ in range(60):
            a = float(rng.uniform(-50.0, 0.0))
            b = a + float(rng.uniform(1e-3, 100.0))
            pts = list(rng.uniform(a - 1.0, b + 1.0, int(rng.integers(0, 12))))
            # ends, a panel edge, a repeat, and points closer than the floor
            pts += [a, b, float(np.linspace(a, b, 17)[3])] if rng.uniform() < 0.5 else []
            pts += pts[:1] + [float(np.nextafter(p, math.inf)) for p in pts[:2]]
            panels = int(rng.integers(1, 20))
            got = _graded_edges(a, b, panels, pts)
            assert got.tolist() == self.graded_edges_by_scans(a, b, panels, pts).tolist()
            plain = _graded_edges(a, b, panels, pts, graded=False)
            assert plain.tolist() == sorted(
                set(np.linspace(a, b, panels + 1).tolist())
                | {p for p in pts if a <= p <= b}
            )


def _panel_sums_one_shot(integrands, edges, n_nodes, active, line):
    """The level sums evaluated on whole 262,144-node blocks: the reference
    whose bits the sub-blocked _panel_sums keeps."""
    nodes, weights = _gl_rule(n_nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    block = max(1, 262144 // n_nodes)
    totals = [0.0] * len(active)
    for i in range(0, half.size, block):
        h = half[i : i + block]
        t = mid[i : i + block, None] + h[:, None] * nodes[None, :]
        x = t.ravel()
        if line:
            x, jac = np.tan(x), np.cos(x) ** 2
        for slot, fx in enumerate(integrands(x, active)):
            if line:
                fx = np.asarray(fx) / jac
            fx = np.asarray(fx, dtype=float).reshape(t.shape)
            totals[slot] += float(np.sum(fx * weights[None, :] * h[:, None]))
    return totals


def _kinked_integrands(seen):
    """Five integrands with |x - s|^q kinks and a shared factor; records the
    node count and the integrands asked for at every call."""

    def integrands(x, active):
        seen.append((x.size, list(active)))
        base = 1.0 / (1.0 + x * x)
        for j in active:
            if j == 0:
                yield base
            elif j == 1:
                yield np.abs(x - 0.3) ** 1.5 * base ** 2
            elif j == 2:
                yield np.cos(3.0 * x) * base
            elif j == 3:
                yield np.abs((x + 1.2) * (x - 0.7)) ** 0.5 * base ** 1.5
            else:
                yield np.sign(x - 0.7) * np.abs(x - 0.7) ** 2.5 * base ** 3

    return integrands


class TestPanelSums:
    @pytest.mark.parametrize("domain", [None, (-2.0, 3.0)])
    @pytest.mark.parametrize("active", [[2], [0, 1, 3], [0, 1, 2, 3, 4]])
    @pytest.mark.parametrize("n_nodes", [32, 24])
    def test_sub_blocks_keep_the_one_shot_bits(self, domain, active, n_nodes):
        # a level of 2.4 to 3.3 full 262,144-node blocks, each evaluated on
        # sub-blocks, five integrands in two turns: every sum equals, bit
        # for bit, the one of a whole-block evaluation of all of them
        edges, line = _mapped_edges(domain, 16, (0.3, -1.2, 0.7))
        while (edges.size - 1) * n_nodes < 2.4 * N._SUM_BLOCK:
            edges = N._halve(edges)
        seen, ref_seen = [], []
        got = _panel_sums(_kinked_integrands(seen), edges, n_nodes, active, line)
        ref = _panel_sums_one_shot(_kinked_integrands(ref_seen), edges, n_nodes, active, line)
        assert got == ref
        assert max(size for size, _ in ref_seen) > 2 * N._EVAL_BLOCK
        assert max(size for size, _ in seen) <= N._EVAL_BLOCK
        per_turn = N._STORE // N._SUM_BLOCK
        assert max(len(asked) for _, asked in seen) == min(len(active), per_turn)
        turns = -(-len(active) // per_turn)
        assert len(seen) >= 3 * turns * N._SUM_BLOCK // N._EVAL_BLOCK

    def test_refined_integral_memory_is_bounded(self):
        # a p = 1.5 kink integrand on the line whose last level holds over
        # 300,000 nodes; evaluated on whole blocks its temporaries peaked at
        # about 19 MB, on sub-blocks at about 4 MB
        scheme = QuadratureScheme(panels=16, max_refinements=5, target_rel_error=1e-300)

        def f(x):
            return np.abs((x - 0.3) * (x + 1.2) / (1.0 + x * x) ** 1.5) ** 1.5

        f(np.linspace(0.0, 1.0, 64))
        tracemalloc.start()
        try:
            res = integrate(f, None, scheme, singular_points=(0.3, -1.2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.refinements == 5 and not res.converged
        assert peak <= 8e6


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) <= 1e-14
        assert abs(log_gamma(6.0) - math.log(120.0)) <= 1e-13

    def test_recurrence_randomized(self, rng):
        # log Gamma(x+1) = log x + log Gamma(x)
        for x in rng.uniform(0.5, 50.0, size=200):
            lhs = log_gamma(x + 1.0)
            rhs = math.log(x) + log_gamma(x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.2)


class TestMonotoneSolve:
    def test_arctan(self):
        root = monotone_solve(lambda x: 2 * math.atan(x), math.pi / 2, (0.0, 5.0))
        assert abs(root - 1.0) <= 1e-12

    def test_linear_phase(self):
        # phi(x) = 2 pi x hits pi at exactly 1/2
        root = monotone_solve(lambda x: 2 * math.pi * x, math.pi, (0.0, 2.0),
                              dg=lambda x: 2 * math.pi)
        assert abs(root - 0.5) <= 1e-13

    def test_identity(self):
        assert abs(monotone_solve(lambda x: x, 0.3, (0.0, 1.0)) - 0.3) <= 1e-13

    def test_reevaluation_lands_on_target(self, rng):
        g = lambda x: x ** 3 + 2.0 * x
        for _ in range(50):
            target = float(rng.uniform(-20, 20))
            root = monotone_solve(g, target, (-3.0, 3.0), tol=1e-14)
            assert abs(g(root) - target) <= 1e-10 * (1 + abs(target))

    def test_bracket_violation(self):
        with pytest.raises(BracketError):
            monotone_solve(lambda x: x, 10.0, (0.0, 1.0))

    def test_exhausted_budget_raises(self):
        # three bisection steps leave a width-1e6 bracket far wider than tol
        with pytest.raises(NonConvergenceError):
            monotone_solve(lambda x: x, 0.3, (0.0, 1e6), max_iter=3)

    def test_newton_does_not_cycle(self):
        # a three-zero phase whose plain in-bracket Newton steps ping-pong
        # across the steep bump at -0.58 for all 200 iterations
        xs = (2.162147387677247, -1.3994014085593256, -0.5797872174145859)
        ys = (1.6016554392754765, 1.993517284543199, 0.31892359013144933)

        def g(x):
            return 2 * sum(math.atan((x - a) / b) for a, b in zip(xs, ys))

        def dg(x):
            return 2 * sum(b / ((x - a) ** 2 + b * b) for a, b in zip(xs, ys))

        target = -0.3926990816987237
        root = monotone_solve(g, target, (-2.8865540402936194, 4.283122354426706), dg=dg)
        assert abs(g(root) - target) <= 1e-12

    @staticmethod
    def rtsafe(g, target, lo, hi, dg, tol=1e-13):
        """Numerical Recipes' rtsafe written out on floats: the reference."""
        if g(lo) >= target:
            return lo
        if g(hi) <= target:
            return hi
        x = 0.5 * (lo + hi)
        last_step = step_before = hi - lo
        while hi - lo > tol * (1.0 + abs(lo) + abs(hi)):
            gx = g(x) - target
            if gx == 0.0:
                return x
            lo, hi = (lo, x) if gx > 0.0 else (x, hi)
            x_next = 0.5 * (lo + hi)
            if dg is not None:
                cand = x - gx / dg(x)
                if lo < cand < hi and abs(cand - x) < 0.5 * step_before:
                    if abs(cand - x) <= 0.5 * tol * (1.0 + abs(x)):
                        return cand  # a Newton step within tolerance ends it
                    x_next = cand
            step_before, last_step = last_step, abs(x_next - x)
            x = x_next
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("newton", [False, True])
    def test_scalar_steps_are_rtsafe_on_floats(self, rng, newton):
        seen = set()

        def g(x):
            seen.add(type(x))
            return x ** 3 + 2.0 * x + math.sin(3.0 * x)

        dg = (lambda x: 3.0 * x * x + 2.0 + 3.0 * math.cos(3.0 * x)) if newton else None
        for _ in range(40):
            lo = float(rng.uniform(-3.0, 0.0))
            hi = lo + float(rng.uniform(0.5, 4.0))
            target = g(lo) + float(rng.uniform(0.0, 1.0)) * (g(hi) - g(lo))
            root = monotone_solve(g, target, (lo, hi), dg=dg)
            assert type(root) is float
            assert root == self.rtsafe(g, target, lo, hi, dg)
        assert seen == {float}


class TestMonotoneSolveArrays:
    """Array targets and brackets: the scalar steps, in lockstep."""

    XS = np.array([2.162147387677247, -1.3994014085593256, -0.5797872174145859])
    YS = np.array([1.6016554392754765, 1.993517284543199, 0.31892359013144933])

    def g(self, x):
        return 2 * np.sum(np.arctan((np.asarray(x)[..., None] - self.XS) / self.YS), axis=-1)

    def dg(self, x):
        d = np.asarray(x)[..., None] - self.XS
        return 2 * np.sum(self.YS / (d * d + self.YS * self.YS), axis=-1)

    def problems(self, rng, n=40):
        lo = rng.uniform(-4.0, 0.0, n)
        hi = lo + rng.uniform(0.5, 6.0, n)
        u = rng.uniform(0.0, 1.0, n)
        target = self.g(lo) + u * (self.g(hi) - self.g(lo))
        # targets on a bracket end, and a bracket of width zero
        target[:2], hi[2] = self.g(lo[:2]), lo[2]
        target[2] = self.g(lo[2])
        return target, lo, hi

    @pytest.mark.parametrize("newton", [False, True])
    def test_equals_scalar_calls(self, rng, newton):
        target, lo, hi = self.problems(rng)
        dg = self.dg if newton else None
        calls = []

        def g(x):
            calls.append(np.size(x))
            return self.g(x)

        got = monotone_solve(g, target, (lo, hi), dg=dg)
        want, scalar_calls = [], []
        for t, a, b in zip(target.tolist(), lo.tolist(), hi.tolist()):
            n0 = len(calls)
            want.append(monotone_solve(g, t, (a, b), dg=dg))
            scalar_calls.append(len(calls) - n0)
        assert isinstance(want[0], float)
        assert got.tolist() == want
        # one call for both ends of every bracket, then one per iteration
        assert calls[0] == 2 * target.size
        assert len(calls) - sum(scalar_calls) == max(scalar_calls) - 1

    def test_broadcasts_a_scalar_bracket(self, rng):
        targets = self.g(rng.uniform(-2.8, 4.2, 5))
        got = monotone_solve(self.g, targets, (-2.9, 4.3), dg=self.dg)
        want = [monotone_solve(self.g, t, (-2.9, 4.3), dg=self.dg) for t in targets.tolist()]
        assert got.tolist() == want
        assert monotone_solve(self.g, np.empty(0), (-2.9, 4.3)).shape == (0,)

    def test_exact_hits_and_end_roots(self):
        # midpoints land on 0.5 and 0.25 exactly; 0 and 1 are bracket ends
        targets = np.array([0.5, 0.25, 0.3, 0.0, 1.0])
        got = monotone_solve(lambda x: x, targets, (0.0, 1.0))
        want = [monotone_solve(lambda x: x, t, (0.0, 1.0)) for t in targets.tolist()]
        assert got.tolist() == want == [0.5, 0.25, want[2], 0.0, 1.0]

    def test_errors_as_scalar_calls(self, rng):
        target, lo, hi = self.problems(rng, 6)
        outside = target.copy()
        outside[4] = self.g(hi[4]) + 1.0
        with pytest.raises(BracketError):
            monotone_solve(self.g, outside[4], (lo[4], hi[4]))
        with pytest.raises(BracketError):
            monotone_solve(self.g, outside, (lo, hi))
        swapped = lo.copy()
        swapped[3] = hi[3] + 1.0
        with pytest.raises(BracketError):
            monotone_solve(self.g, target, (swapped, hi))
        # three steps leave most brackets wide; a scalar call on one fails too
        with pytest.raises(NonConvergenceError):
            monotone_solve(self.g, float(target[5]), (lo[5], hi[5]), max_iter=3)
        with pytest.raises(NonConvergenceError):
            monotone_solve(self.g, target, (lo, hi), max_iter=3)


class TestSupOnWindow:
    def test_cos(self):
        v, x = sup_on_window(np.cos, (-2.0, 2.0))
        assert abs(v - 1.0) <= 1e-12
        assert abs(x) <= 1e-5

    def test_ratio_of_polynomials(self):
        # |x^2-1| / (x^2+1) <= 1 with equality exactly at 0 on this window
        h = lambda x: np.abs(x * x - 1) / (x * x + 1)
        v, x = sup_on_window(h, (-5.0, 5.0), coarse=2048)
        assert abs(v - 1.0) <= 1e-10
        assert abs(x) <= 1e-4

    def test_bump(self):
        v, x = sup_on_window(lambda t: 1.0 / (1.0 + t * t), (-1.0, 1.0))
        assert abs(v - 1.0) <= 1e-12

    def test_golden_max_quadratic(self):
        v, x = golden_max(lambda t: -(t - 0.37) ** 2, 0.0, 1.0)
        assert abs(x - 0.37) <= 1e-7


class TestGoldenMaxLockstep:
    # brackets of very different widths stop at different iterations; at
    # tol = 1e-12 the widest one needs more than MAX_ITER
    A = np.array([0.2, -1.0, 2.0, 0.9, -50.0])
    B = np.array([0.3, 1.5, 2.0 + 1e-9, 1.1, 80.0])
    MAX_ITER = 64

    @staticmethod
    def h(t):
        return np.cos(3.0 * t) * np.exp(-0.1 * t * t) + 0.01 * t

    def _scalar(self, a, b, tol):
        calls = []

        def h(t):
            calls.append(t)
            return float(self.h(np.float64(t)))

        v, x = golden_max(h, a, b, tol, max_iter=self.MAX_ITER)
        assert all(type(t) is float for t in calls)
        return v, x, len(calls) - 3  # two initial points and the midpoint

    def test_array_equals_scalar_calls(self):
        for tol in (1e-12, 1e-6):
            scalar = [self._scalar(a, b, tol) for a, b in zip(self.A, self.B)]
            sizes = []

            def h(t):
                sizes.append(t.size)
                return self.h(t)

            v, x = golden_max(h, self.A, self.B, tol, max_iter=self.MAX_ITER)
            assert v.tobytes() == np.array([s[0] for s in scalar]).tobytes()
            assert x.tobytes() == np.array([s[1] for s in scalar]).tobytes()
            iters = [s[2] for s in scalar]
            # one call per iteration, on the brackets still live in it
            assert len(sizes) == max(iters) + 2
            assert sizes[0] == 2 * self.A.size and sizes[-1] == self.A.size
            assert sizes[1:-1] == [sum(n > k for n in iters) for k in range(max(iters))]
            if tol == 1e-12:
                assert len(set(iters)) >= 3
                assert iters[-1] == self.MAX_ITER

    def test_scalar_returns_python_floats(self):
        v, x = golden_max(lambda t: -(t - 0.37) ** 2, 0.0, 1.0)
        assert type(v) is float and type(x) is float
