"""Shared numerical kernels.

Composite Gauss-Legendre quadrature on intervals and on the whole line
(arctangent map), log-gamma, monotone root inversion, and windowed
maximization by coarse scan plus golden-section refinement.  Inversion and
maximization are batched the same way: monotone_solve inverts at many
targets, and golden_max refines many brackets, in lockstep, one call of the
function (and of its derivative) per iteration on the problems still live,
each problem taking the steps it would take alone (sup_on_window is the
one-window case of golden_max).  Everything here is a pure function of its
inputs and safe to call concurrently.

Quadrature puts a panel edge at every declared singular point s, a kink
|x - s|^q of the integrand.  Where q is not an integer the panels are also
graded geometrically toward s, 47 levels deep, since on a panel that holds
such a kink the rule converges only algebraically.  Where q is an integer,
as in the interval energies and zero-pair integrals at integer p, each side
of s is analytic and the plain edge already gives Gauss-Legendre its
geometric convergence; _graded_kinks(p) is the one place that decides.
A refined grid is summed in blocks of whole panels and its integrands are
evaluated on smaller sub-blocks, so the memory a level holds does not grow
with the level, and each level sum keeps the bits of one evaluation per
block (_panel_sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "QuadratureScheme",
    "IntegralResult",
    "NonConvergenceError",
    "BracketError",
    "integrate",
    "log_gamma",
    "monotone_solve",
    "sup_on_window",
    "golden_max",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Geometric grading depth toward declared singular points.  2**-48 of a panel
# width is far below any tolerance used by callers.
_GRADING_DEPTH = 48

# Nodes per np.sum of a panel-doubling level (the unit that fixes each sum's
# bits), about how many nodes the integrands see at once, and how many
# weighted values (8 MB) the integrands of one block may hold (_panel_sums).
_SUM_BLOCK = 1 << 18
_EVAL_BLOCK = 1 << 15
_STORE = 1 << 20


class NonConvergenceError(RuntimeError):
    """Raised when an iterative routine exhausts its refinement budget."""


class BracketError(ValueError):
    """Raised when a root bracket does not enclose the target."""


@dataclass(frozen=True)
class QuadratureScheme:
    """Composite Gauss-Legendre configuration.

    The domain alone picks the map: a finite interval is integrated as is,
    the whole line through x = tan(theta) on (-pi/2, pi/2).
    """

    panels: int = 16
    nodes_per_panel: int = 32
    target_rel_error: float = 1e-12
    max_refinements: int = 12

    def __post_init__(self):
        if self.panels < 1 or self.nodes_per_panel < 1:
            raise ValueError("panels and nodes_per_panel must be positive")
        if not self.target_rel_error > 0:
            raise ValueError("target_rel_error must be positive")


DEFAULT_SCHEME = QuadratureScheme()


@dataclass(frozen=True)
class IntegralResult:
    """Quadrature value with a panel-doubling error estimate."""

    value: float
    error: float
    converged: bool
    refinements: int

    def __float__(self) -> float:
        return self.value


@lru_cache(maxsize=32)
def _gl_rule(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _halve(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(edges.size + mids.size)
    out[0::2] = edges
    out[1::2] = mids
    return out


def _graded_edges(
    a: float, b: float, panels: int, singular: Sequence[float], graded: bool = True
) -> np.ndarray:
    pts = np.unique([float(s) for s in singular if a <= s <= b])
    edges = np.union1d(np.linspace(a, b, panels + 1), pts)
    if not (graded and pts.size):
        return edges
    # geometric grading on both sides of each singular point, limited by the
    # nearest other edge; steps stop above the ulp scale so no zero-width
    # panels appear
    i = np.searchsorted(edges, pts)
    floor_step = 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(pts))
    halvings = np.ldexp(1.0, -np.arange(1, _GRADING_DEPTH))
    levels = [edges]
    for side, has_edge, gap in (
        (-1.0, i > 0, pts - edges[np.maximum(i - 1, 0)]),
        (1.0, i < edges.size - 1, edges[np.minimum(i + 1, edges.size - 1)] - pts),
    ):
        steps = gap[:, None] * halvings[None, :]
        keep = has_edge[:, None] & (steps >= floor_step[:, None])
        levels.append((pts[:, None] + side * steps)[keep])
    return np.unique(np.concatenate(levels))


def _graded_kinks(p: float) -> bool:
    """Whether the |x - s|^q kinks of a p-th power integrand (q in p + Z)
    need graded panels: where p is an integer each side of a kink is
    analytic, so a plain panel edge at s keeps Gauss-Legendre's geometric
    convergence, and grading toward it only multiplies the nodes.

    The extremal solver's round grids follow this rule only at p >= 2, where
    the gradient p |g|^(p-1) sign g is Lipschitz too; below p = 2 they stay
    graded, p = 1 included (see extremal._SliceSolver)."""
    return not float(p).is_integer()


def _mapped_edges(
    domain: Optional[Tuple[float, float]],
    panels: int,
    singular_points: Iterable[float],
    graded: bool = True,
) -> Tuple[np.ndarray, bool]:
    """Panel edges at the singular points, graded toward them if graded, and
    whether they are theta-edges of the x = tan(theta) map (domain None or
    (-inf, inf))."""
    if domain is None or (math.isinf(domain[0]) and math.isinf(domain[1])):
        sing = [math.atan(s) for s in singular_points]
        return _graded_edges(-math.pi / 2, math.pi / 2, panels, sing, graded), True
    a, b = domain
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"invalid domain ({a}, {b})")
    return _graded_edges(a, b, panels, list(singular_points), graded), False


def _grid(domain, panels: int, nodes: int, splits: Iterable[float], graded: bool):
    """x-nodes and weights of the unrefined composite rule that integrate
    uses for int h(x) dx over domain, with panel edges at splits, graded
    toward them if graded (_mapped_edges)."""
    edges, line = _mapped_edges(domain, panels, splits, graded)
    gl_x, gl_w = _gl_rule(nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    t = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    w = (half[:, None] * gl_w[None, :]).ravel()
    if line:
        return np.tan(t), w / np.cos(t) ** 2
    return t, w


def _panel_sums(integrands, edges, n_nodes, active, line):
    """Gauss-Legendre sums of the active integrands over the panels between
    edges; on the line, nodes are theta and the integrands see x = tan(theta).

    Vectorized over panels, in blocks so refined grids stay within memory.
    One np.sum adds an integrand's weighted values over a block of
    _SUM_BLOCK nodes (the whole level, if smaller); those sums fix the
    level's bits.  The integrands are evaluated on sub-blocks of whole
    panels, about _EVAL_BLOCK nodes each, and their weighted values are
    written into one array per integrand for the block, so the integrands'
    temporaries are an eighth of a block's.  The arrays hold at most _STORE
    values: where more integrands are active than fit, they are evaluated
    in turns over the block.  Neither sub-blocks nor turns change a value or
    the order in which it is added.
    """
    nodes, weights = _gl_rule(n_nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    block = max(1, _SUM_BLOCK // n_nodes)
    sub = max(1, _EVAL_BLOCK // n_nodes)
    rows = min(block, half.size)
    turn = max(1, _STORE // (rows * n_nodes))
    weighted = np.empty((min(turn, len(active)), rows, n_nodes))
    totals = [0.0] * len(active)
    for i in range(0, half.size, block):
        end = min(i + block, half.size)
        for first in range(0, len(active), turn):
            group = active[first : first + turn]
            for k in range(i, end, sub):
                h = half[k : min(k + sub, end)]
                t = mid[k : k + h.size, None] + h[:, None] * nodes[None, :]
                x = t.ravel()
                if line:
                    x, jac = np.tan(x), np.cos(x) ** 2
                for out, fx in zip(weighted[:, k - i : k - i + h.size], integrands(x, group)):
                    if line:
                        fx = np.asarray(fx) / jac
                    fx = np.asarray(fx, dtype=float).reshape(t.shape)
                    np.multiply(np.multiply(fx, weights[None, :], out=out), h[:, None], out=out)
            for slot, values in enumerate(weighted[: len(group), : end - i], first):
                totals[slot] += float(np.sum(values))
    return totals


def _settle(sums: List[float], hint: float, tol: float, final: bool):
    """The result at the first halving whose change is within tol of
    max(|value|, hint); the last level, unconverged, once final; else None."""
    for k in range(1, len(sums)):
        err = abs(sums[k] - sums[k - 1])
        if err <= tol * max(abs(sums[k]), hint):
            return IntegralResult(sums[k], err, True, k)
    if not final:
        return None
    err = abs(sums[-1] - sums[-2]) if len(sums) > 1 else math.inf
    return IntegralResult(sums[-1], err, False, len(sums) - 1)


def _integrate_batch(
    integrands: Callable[[np.ndarray, List[int]], Iterable[np.ndarray]],
    m: int,
    domain: Optional[Tuple[float, float]],
    scheme: Optional[QuadratureScheme] = None,
    singular_points: Iterable[float] = (),
    scale_hint: float = 0.0,
    partners: Optional[Sequence[Optional[int]]] = None,
    graded: bool = True,
) -> List[IntegralResult]:
    """Integrate m real integrands on one shared, panel-doubled grid.

    integrands(x, active) yields the values at the nodes x of the integrands
    listed in active, one array at a time and in that order, so work common
    to them is done once per block of nodes.  Each integrand stops at the
    level, and with the value, that integrate would give it alone: its scale
    hint is scale_hint or, where partners[j] is set (an index below j), the
    final value of that integrand.  Only per-level sums are kept.  Panels
    are graded toward the singular points if graded, else only split there
    (see _graded_kinks).
    """
    scheme = scheme or DEFAULT_SCHEME
    partners = partners or [None] * m
    edges, line = _mapped_edges(domain, scheme.panels, singular_points, graded)
    sums: List[List[float]] = [[] for _ in range(m)]
    results: List[Optional[IntegralResult]] = [None] * m
    for level in range(scheme.max_refinements + 1):
        active = [j for j in range(m) if results[j] is None]
        if not active:
            break
        if level:
            edges = _halve(edges)
        totals = _panel_sums(integrands, edges, scheme.nodes_per_panel, active, line)
        for j, total in zip(active, totals):
            sums[j].append(total)
        final = level == scheme.max_refinements
        for j in active:
            ref = partners[j]
            if ref is not None and results[ref] is None:
                continue  # settles once its partner has
            hint = scale_hint if ref is None else results[ref].value
            results[j] = _settle(sums[j], hint, scheme.target_rel_error, final)
    return results


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    domain: Optional[Tuple[float, float]],
    scheme: Optional[QuadratureScheme] = None,
    singular_points: Iterable[float] = (),
    scale_hint: float = 0.0,
) -> IntegralResult:
    """Integrate a real-valued vectorized integrand.

    domain is a finite (a, b) pair, or None / (-inf, inf) for the whole line,
    in which case the arctangent substitution is applied and the integrand
    must decay at least like |x|^(-1-eps).  singular_points mark locations of
    |x - s|^p-type kinks; panels are geometrically graded toward them so the
    composite rule keeps its accuracy for any p.  Where the kink exponent is
    an integer a plain panel edge at s is enough (see _graded_kinks); the
    library's own integer-p integrals take that rule through _integrate_batch.
    The error estimate comes from panel doubling; convergence is judged
    relative to max(|value|, scale_hint).
    """
    return _integrate_batch(
        lambda x, active: [f(x)], 1, domain, scheme, singular_points, scale_hint
    )[0]


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Backed by the C library's lgamma (relative error at the few-ulp level,
    well inside 1e-13); reflection is never needed on this domain.  It exists
    so that the Beta/Gamma closed forms of K(p) and of the separation
    constants reject x <= 0, where lgamma returns log |Gamma| without a sign.
    """
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def monotone_solve(
    g: Callable,
    target,
    bracket: Tuple,
    tol: float = 1e-13,
    dg: Optional[Callable] = None,
    max_iter: int = 200,
):
    """Invert a strictly increasing function on a bracket.

    Requires g(lo) <= target <= g(hi).  Plain bisection, with a Newton step
    attempted first whenever a derivative is supplied; the bracket is always
    maintained, so the hybrid cannot escape.  As in Numerical Recipes'
    rtsafe, a Newton step is taken only if it stays inside the bracket and
    is under half the step before last; otherwise Newton can cycle between
    two points across an inflection.  tol is an x-space tolerance: a problem
    stops once its bracket is within tol (1 + |lo| + |hi|), or, as in rtsafe,
    once an accepted Newton step is within 0.5 tol (1 + |x|); a problem
    stopped by neither after max_iter steps raises NonConvergenceError.

    target and the bracket ends are scalars, or arrays (broadcast together)
    of problems solved in lockstep: every iteration calls g once, and dg
    once, on a 1-D array holding the iterate of each problem not yet
    stopped; the others are frozen.  Each problem takes exactly the steps
    it would take alone, so g and dg must evaluate each point of an array
    as they would that point alone; a BracketError or
    NonConvergenceError of any problem is raised for the call.  A scalar
    problem is the one-problem run, with g and dg called on Python floats,
    and returns a float; arrays return an array of the broadcast shape.
    """
    lo, hi = bracket
    if np.ndim(target) == 0 and np.ndim(lo) == 0 and np.ndim(hi) == 0:
        # one problem: g and dg see the Python floats they would alone
        dg = None if dg is None else _per_point(dg)
        return float(_solve_many(_per_point(g), target, lo, hi, tol, dg, max_iter))
    return _solve_many(g, target, lo, hi, tol, dg, max_iter)


def _per_point(fn: Callable) -> Callable:
    """fn mapped over a 1-D array, one Python float at a time."""
    return lambda x: [fn(float(t)) for t in x]


def _ev(fn, x: np.ndarray) -> np.ndarray:
    """fn at the 1-D array x, as a float array of x's shape."""
    return np.asarray(fn(x), dtype=float).reshape(x.shape)


def _solve_many(g, target, lo, hi, tol, dg, max_iter) -> np.ndarray:
    """monotone_solve's rtsafe steps for every problem, in lockstep.  A root
    found at a bracket end, or hit exactly, collapses its bracket onto that
    point, so the width test freezes it there; as in rtsafe, a problem is
    also frozen, on its new iterate, once an accepted Newton step is within
    0.5 tol (1 + |x|), else Newton converging from one side leaves the far
    end in place and bisections follow.  The state of the problems still
    live (indices live) is compacted as they freeze."""
    shape = np.broadcast(target, lo, hi).shape
    target, lo, hi = (
        np.array(v, dtype=float).reshape(-1) for v in np.broadcast_arrays(target, lo, hi)
    )

    if np.any(lo > hi):
        i = np.flatnonzero(lo > hi)[0]
        raise BracketError(f"empty bracket ({lo[i]}, {hi[i]})")
    out = np.empty(lo.size)
    if not out.size:
        return out.reshape(shape)
    glo, ghi = np.split(_ev(g, np.concatenate((lo, hi))) - np.tile(target, 2), 2)
    slack = 1e-12 * (1.0 + np.abs(target))
    outside = (glo > slack) | (ghi < -slack)
    if outside.any():
        i = np.flatnonzero(outside)[0]
        raise BracketError(
            f"target {target[i]} not enclosed: g(lo)={glo[i] + target[i]}, "
            f"g(hi)={ghi[i] + target[i]}"
        )
    at_lo = glo >= 0.0
    lo, hi = np.where(~at_lo & (ghi <= 0.0), hi, lo), np.where(at_lo, lo, hi)
    live = np.arange(lo.size)
    x = 0.5 * (lo + hi)
    last_step = step_before = hi - lo
    settled = np.zeros(lo.size, dtype=bool)
    for _ in range(max_iter):
        done = settled | (hi - lo <= tol * (1.0 + np.abs(lo) + np.abs(hi)))
        if done.any():
            out[live[done]] = np.where(settled, x, 0.5 * (lo + hi))[done]
            live, target, lo, hi, x, last_step, step_before = (
                v[~done] for v in (live, target, lo, hi, x, last_step, step_before)
            )
            settled = settled[~done]
        if not live.size:
            break
        gx = _ev(g, x) - target
        lo, hi = np.where(gx > 0.0, lo, x), np.where(gx >= 0.0, x, hi)
        x_next = 0.5 * (lo + hi)
        if dg is not None:
            d = _ev(dg, x)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                cand = x - gx / d
            newton = (
                (d > 0.0)
                & np.isfinite(d)
                & (lo < cand)
                & (cand < hi)
                & (np.abs(cand - x) < 0.5 * step_before)
            )
            x_next = np.where(newton, cand, x_next)
            settled = newton & (np.abs(cand - x) <= 0.5 * tol * (1.0 + np.abs(x)))
        step_before, last_step = last_step, np.abs(x_next - x)
        x = x_next
    wide = ~settled & ~(hi - lo <= tol * (1.0 + np.abs(lo) + np.abs(hi)))
    if wide.any():
        i = np.flatnonzero(wide)[0]
        raise NonConvergenceError(
            f"bracket ({lo[i]}, {hi[i]}) still wider than tol={tol} after "
            f"{max_iter} steps"
        )
    out[live] = np.where(settled, x, 0.5 * (lo + hi))
    return out.reshape(shape)


def golden_max(
    h: Callable,
    a,
    b,
    tol: float = 1e-12,
    max_iter: int = 80,
):
    """Golden-section maximization on [a, b]; returns (max value, argmax).

    a and b are scalars, or arrays of brackets refined in lockstep: every
    iteration evaluates h once, on an array holding the new point of each
    bracket still wider than tol * (1 + |lo| + |hi|); the others are frozen.
    Each bracket makes exactly the comparisons and stopping test it would
    make alone, so h must evaluate each point of an array as it would that
    point alone.  Scalar brackets call h on Python floats and return Python
    floats; array brackets call it on 1-D arrays and return two arrays.  A
    single bracket runs the same steps on Python floats, where numpy's cost
    per call would triple its time.
    Iteration count is capped for deterministic runtime; accuracy on a
    unimodal bump is tol * (1 + |x|) in the abscissa.
    """
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return _golden_one(lambda t: float(h(t)), float(a), float(b), tol, max_iter)

    # end_lo, end_hi: every bracket's ends, final once it stops; the state
    # of the brackets still live (indices live) is compacted as they stop
    end_lo, end_hi = (
        np.array(v, dtype=float).reshape(-1) for v in np.broadcast_arrays(a, b)
    )
    if end_lo.size == 1:
        lo, hi = float(end_lo[0]), float(end_hi[0])
        v, x = _golden_one(lambda t: _ev(h, np.array([t]))[0], lo, hi, tol, max_iter)
        return np.array([v]), np.array([x])
    live = np.arange(end_lo.size)
    lo, hi = end_lo.copy(), end_hi.copy()
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = np.split(_ev(h, np.concatenate((x1, x2))), 2)
    for _ in range(max_iter):
        # not "width > target": a NaN width keeps iterating, as alone
        going = ~(hi - lo <= tol * (1.0 + np.abs(lo) + np.abs(hi)))
        if not going.all():
            end_lo[live], end_hi[live] = lo, hi
            live, lo, hi, x1, x2, f1, f2 = (
                v[going] for v in (live, lo, hi, x1, x2, f1, f2)
            )
            if not live.size:
                break
        up = f1 < f2
        lo, hi = np.where(up, x1, lo), np.where(up, hi, x2)
        x_in, f_in = np.where(up, x2, x1), np.where(up, f2, f1)
        x_new = np.where(up, lo + GOLDEN * (hi - lo), hi - GOLDEN * (hi - lo))
        f_new = _ev(h, x_new)
        x1, x2 = np.where(up, x_in, x_new), np.where(up, x_new, x_in)
        f1, f2 = np.where(up, f_in, f_new), np.where(up, f_new, f_in)
    end_lo[live], end_hi[live] = lo, hi
    xm = 0.5 * (end_lo + end_hi)
    return _ev(h, xm), xm


def _golden_one(h, lo: float, hi: float, tol: float, max_iter: int):
    """golden_max on one bracket, with float state and h on floats."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = h(x1), h(x2)
    for _ in range(max_iter):
        if hi - lo <= tol * (1.0 + abs(lo) + abs(hi)):
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = h(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = h(x1)
    xm = 0.5 * (lo + hi)
    return h(xm), xm


def sup_on_window(
    h: Callable[[np.ndarray], np.ndarray],
    window: Tuple[float, float],
    coarse: int = 512,
    refine_tol: float = 1e-12,
) -> Tuple[float, float]:
    """Maximum of a continuous function on a window.

    Coarse grid scan followed by golden-section refinement around the best
    node.  Accuracy is limited by the coarse density: a peak narrower than
    the grid spacing can be missed.  h must accept ndarray input.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"empty window ({lo}, {hi})")
    xs = np.linspace(lo, hi, max(3, int(coarse)))
    v, x = _refine_max(h, xs, np.asarray(h(xs), dtype=float), refine_tol)
    return float(v[0]), float(x[0])


def _refine_max(h, xs: np.ndarray, vals: np.ndarray, tol: float, sizes=None):
    """sup_on_window's refinement for the windows whose scans xs and their
    values vals = h(xs) lie back to back, sizes[k] nodes for window k (one
    window if sizes is None).  All windows are refined in one lockstep
    golden section, each between the neighbours of its first best node; per
    window the better of refinement and node wins.  Returns the arrays of
    per-window maxima and their locations.
    """
    sizes = [xs.size] if sizes is None else sizes
    ends = np.cumsum(sizes)
    starts = ends - sizes
    i = np.array([s + int(np.argmax(vals[s:e])) for s, e in zip(starts, ends)])
    a = xs[np.maximum(i - 1, starts)]
    b = xs[np.minimum(i + 1, ends - 1)]
    vref, xref = golden_max(h, a, b, tol)
    win = vref >= vals[i]
    return np.where(win, vref, vals[i]), np.where(win, xref, xs[i])
