"""The four benchmark workloads: seeded inputs, operations and their checks.

An operation ("op") is one public call into debranges plus its
certification.  ``Workload.ops()`` yields ``(kind, thunk)`` pairs forever,
cycling over inputs drawn from the seed when the workload is built; each call
of ``ops()`` starts the same sequence again with fresh per-run state, so an
untraced and a traced pass see identical inputs.  A thunk returns on
success, raises ``BracketUnavailableError`` when the theorem is vacuous, and
raises ``CheckFailed`` or any other exception on failure.

No measured op fails at the baseline.  The inputs on which a documented
library defect shows are not in the measured cycle: ``known_defect_ops()``
yields them, and the runner runs each once per run, untimed, after the
measured window and reports how each ended.

Every tolerance below is the one the acceptance suite uses.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np

import debranges as D
from debranges import bounds as B
from debranges import cli
from debranges import extremal as X

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "demos" / "specs"

P_VALUES = (1.0, 1.5, 2.0, 3.0)
# both sides of the 64-zero switch in hb_core.eval_E
HB_DEGREES = (3, 256, 8, 128, 24, 65, 64)
HB_DEGREES_TINY = (3, 65)
# a fixed interleaving of criterion 9's degree range, so every run sees the
# same mix of cheap and expensive problems whatever the seed
MIX_DEGREES = (7, 4, 10, 5, 9, 6, 8)
MIX_DEGREES_TINY = (4, 5)


class CheckFailed(Exception):
    """A certification check on a returned value did not hold."""


def attempt(op):
    """Run one op; return its outcome and, unless ok, the failure text."""
    try:
        op()
    except D.BracketUnavailableError:
        return "vacuous", "BracketUnavailableError"
    except CheckFailed as exc:
        return "failed", f"CheckFailed({exc})"
    except Exception as exc:  # every other error is a failed op, by type
        text = re.sub(r"[-+]?\d[\d.eE+-]*", "#", str(exc))[:80]
        return "failed", f"{type(exc).__name__}({text})"
    return "ok", ""


# Specs and extremal points are one fixed reference draw (uniform on the
# boxes of the acceptance suite, from REFERENCE_SEED); the run seed moves the
# rest of the inputs: the random starts of the seeded solves, the rotation
# angles, kernel nodes and energy pairs, and the command order.  A run
# measures 32 to 480 ops, and with fresh or even 2 %-jittered specs per seed
# single solve costs moved enough to spread the median op of an extremal run
# by 27 % and the failed share of an xi sweep between 0 and 28 %.
REFERENCE_SEED = 0


def _zeros(base, n, re_half, im_lo, im_hi):
    return tuple(
        complex(base.uniform(-re_half, re_half), base.uniform(im_lo, im_hi))
        for _ in range(n)
    )


class Workload:
    name: str
    # end-to-end figures come from the first measured_ops ops of a run, a
    # fixed sequence a baseline run completes well inside its window
    measured_ops: int
    # the latency percentile reported as op_tail_ms: the highest with at
    # least 10 of the measured ops beyond it
    tail_percentile: float

    def __init__(self):
        # provenance: the worst certification figures a run met
        self.worst_residual = {}
        self.worst_restart = None

    def ops(self):
        raise NotImplementedError

    def warmup(self):
        """One untimed op that loads every code path the run will use."""
        return next(self.ops())

    def known_defect_ops(self):
        """The ops on which a documented defect shows, as (kind, thunk)."""
        return ()

    def close(self) -> None:
        pass


class _ExtremalCertifier:
    """Per-run state shared by the ops of one extremal workload pass."""

    def __init__(self, workload: Workload):
        self.w = workload
        self.sup = {}
        self.cold = {}

    def _certify(self, prob, sol):
        p = prob.p
        tol = 1e-4 if p == 1.0 else 1e-6
        big = max((abs(r) for r in sol.orthogonality_residuals), default=0.0)
        self.w.worst_residual[p] = max(self.w.worst_residual.get(p, 0.0), big)
        if not big <= tol:
            raise CheckFailed("orthogonality residual above tolerance")
        X.extract_zeros(sol, prob)
        if not X.separation_report(sol, prob).passed:
            raise CheckFailed("zero separation")
        sup = self.sup.get(prob.spec)
        if sup is None:
            sup = self.sup[prob.spec] = D.phase_derivative_sup(prob.spec).value
        if not sol.C_value <= B.embedding_bound(p, sup):
            raise CheckFailed("C above the embedding bound")
        if p == 2.0 and not sol.C_value <= B.C2_exact(prob.spec, prob.xi) * (1 + 1e-10):
            raise CheckFailed("C above C2_exact")

    def cold_op(self, key, prob):
        def op():
            self.cold.pop(key, None)
            sol = X.solve(prob)
            self._certify(prob, sol)
            self.cold[key] = sol

        return op

    def seeded_op(self, key, prob, start_seed):
        def op():
            sol = X.solve(prob, seed=start_seed)
            self._certify(prob, sol)
            ref = self.cold.pop(key, None)
            if ref is None:
                raise CheckFailed("no cold solution to compare the restart with")
            c1 = ref.coefficients / np.linalg.norm(ref.coefficients)
            c2 = sol.coefficients / np.linalg.norm(sol.coefficients)
            dist = float(np.linalg.norm(c1 - c2))
            prev = self.w.worst_restart
            self.w.worst_restart = dist if prev is None else max(prev, dist)
            if not dist <= 1e-6:
                raise CheckFailed("restart distance above 1e-6")

        return op

    def pair(self, key, prob, start_seed):
        tag = f"p{prob.p:g}"
        yield f"{tag}_cold", self.cold_op(key, prob)
        yield f"{tag}_seeded", self.seeded_op(key, prob, start_seed)


class _ExtremalWorkload(Workload):
    problems: list
    # problems on which extract_zeros rejects a simple zero as "vanishing
    # derivative" because another zero lies far out (its threshold scales
    # with max |f| over the whole zero hull, which grows like |x|^(N-2))
    defect_problems: list = []

    def warmup(self):
        # a cheap p = 2 solve: set-up should not depend on the mix's order
        prob = next(prob for prob, _ in self.problems if prob.p == 2.0)
        return "p2_cold", _ExtremalCertifier(self).cold_op(None, prob)

    def ops(self):
        cert = _ExtremalCertifier(self)
        for key, (prob, start) in itertools.cycle(enumerate(self.problems)):
            yield from cert.pair(key, prob, start)

    def known_defect_ops(self):
        cert = _ExtremalCertifier(self)
        for key, (prob, start) in enumerate(self.defect_problems):
            yield from cert.pair(key, prob, start)


class ExtremalMix(_ExtremalWorkload):
    """Independent extremal problems drawn as in acceptance criterion 9."""

    name = "extremal_mix"
    measured_ops = 32  # the first block: four specs, all p, cold and seeded
    tail_percentile = 65.0
    block_specs = 4

    def __init__(self, seed, tiny=False):
        super().__init__()
        base, rng = np.random.default_rng(REFERENCE_SEED), np.random.default_rng(seed)
        self.problems = []
        for n in MIX_DEGREES_TINY if tiny else MIX_DEGREES:
            spec = D.HBSpec(zeros=_zeros(base, n, 2.5, -2.0, -0.15))
            xi = float(base.uniform(-1.0, 1.0))
            for p in P_VALUES:
                prob = X.ExtremalProblem(p=p, spec=spec, xi=xi, basis=X.PolynomialBasis(n - 2))
                self.problems.append((prob, int(rng.integers(2**31))))
        # Solves of one spec at p > 1 take 10-250 ms each and the median op
        # is one of them.  Run back to back, a spec's short solves share one
        # second of machine time, and a slow second moved a run's median by
        # up to 30 %.  So each block of specs runs all its cold solves, then
        # all its seeded ones, each pass in a fixed shuffled order that
        # spreads a spec's solves over the block.
        size = len(P_VALUES) * self.block_specs
        keys = range(len(self.problems))
        self.blocks = [
            [[int(k) for k in base.permutation(block)] for _ in range(2)]
            for block in (keys[i:i + size] for i in range(0, len(keys), size))
        ]

    def ops(self):
        cert = _ExtremalCertifier(self)
        for cold, seeded in itertools.cycle(self.blocks):
            for key in cold:
                prob, _ = self.problems[key]
                yield f"p{prob.p:g}_cold", cert.cold_op(key, prob)
            for key in seeded:
                prob, start = self.problems[key]
                yield f"p{prob.p:g}_seeded", cert.seeded_op(key, prob, start)


def _spread_order(n: int):
    """0..n-1 ordered so that every prefix is spread over the whole range."""
    out, seen = [], set()
    step = 1 << max(0, (n - 1).bit_length())
    while step >= 1:
        for i in range(0, n, step):
            if i not in seen:
                seen.add(i)
                out.append(i)
        step //= 2
    return out


class XiSweep(_ExtremalWorkload):
    """One spec and basis, many (p, xi): the sweep of C(p, E) over xi."""

    name = "xi_sweep"
    measured_ops = 40
    tail_percentile = 75.0

    def __init__(self, seed, tiny=False):
        super().__init__()
        rng = np.random.default_rng(seed)
        # 12 xi and 2 p make a pool that one run covers about once, so every
        # run meets the whole grid: its failed share and its peak memory
        # (the deepest quadrature refinement) are those of the sweep
        n, points = (6, 4) if tiny else (12, 12)
        spec = D.HBSpec(zeros=_zeros(np.random.default_rng(REFERENCE_SEED), n, 3.0, -3.0, -0.1))
        grid = np.linspace(-2.0, 2.0, points)
        basis = X.PolynomialBasis(n - 2)
        # xi = 1.636 (grid point 10) hits the extract_zeros defect at both p
        defect_points = () if tiny else (10,)
        self.problems, self.defect_problems = [], []
        for i in _spread_order(points):
            for p in (2.0, 3.0):
                prob = X.ExtremalProblem(p=p, spec=spec, xi=float(grid[i]), basis=basis)
                pool = self.defect_problems if i in defect_points else self.problems
                pool.append((prob, int(rng.integers(2**31))))


class HBVerify(Workload):
    """Phase machinery and lower-bound verification on specs of 3 to 256 zeros."""

    name = "hb_verify"
    measured_ops = 175  # five cycles of the seven specs
    tail_percentile = 94.0
    cycles = 8

    def __init__(self, seed, tiny=False):
        super().__init__()
        base, rng = np.random.default_rng(REFERENCE_SEED), np.random.default_rng(seed)
        degrees = HB_DEGREES_TINY if tiny else HB_DEGREES
        self.n_degrees = len(degrees)
        self.cases = []
        for _ in range(self.cycles):
            for n in degrees:
                # zeros as in acceptance.random_polynomial_spec
                spec = D.HBSpec(zeros=_zeros(base, n, 3.0, -3.0, -0.1))
                beta = float(rng.uniform(0.0, math.pi))
                node = float(rng.uniform(-1.0, 1.0))
                pick = float(rng.uniform())
                self.cases.append((spec, beta, node, pick))

    def ops(self):
        # one op kind over every spec of a cycle, then the next kind: the ops
        # of a spec are spread over the cycle instead of sharing a fraction
        # of a second of machine time
        n = self.n_degrees
        for start in itertools.cycle(range(0, len(self.cases), n)):
            cycle = self.cases[start:start + n]
            states = [{} for _ in cycle]
            for spec, _, _, _ in cycle:
                yield "sup", self._sup(spec)
            for (spec, beta, _, _), state in zip(cycle, states):
                yield "crossings", self._crossings(spec, beta, state)
            for spec, beta, _, _ in cycle:
                yield "rotation", self._verify(D.verify_theorem1, D.RotationRealPart(spec, beta), spec)
            for spec, beta, _, _ in cycle:
                yield "rotation_sign_free", self._verify(
                    D.verify_sign_free, D.RotationRealPart(spec, beta), spec
                )
            for (spec, beta, _, pick), state in zip(cycle, states):
                yield "energy", self._energy(spec, beta, pick, state)

    def known_defect_ops(self):
        # the automatic window fails for most specs: MaxAtInfinityError
        # after 60 window doublings, or a failed margin or NaN at large N;
        # one spec of each degree
        for spec, _, node, _ in self.cases[: self.n_degrees]:
            yield "kernel_auto", self._verify(D.verify_theorem1, D.Kernel(spec, node), spec)

    @staticmethod
    def _sup(spec):
        def op():
            sup = D.phase_derivative_sup(spec)
            x = sup.location
            diag = float(np.real(B.kernel_eval(spec, x, x)))
            oracle = B.kernel_diagonal_oracle(spec, x)
            err = abs(diag - oracle) / abs(oracle)
            if not err <= 1e-10:
                raise CheckFailed("kernel diagonal identity off by more than 1e-10")

        return op

    @staticmethod
    def _crossings(spec, beta, state):
        def op():
            profile = D.PhaseProfile(spec)
            a = D.level_crossings(profile, 2 * beta + math.pi, (-12.0, 12.0))
            b = D.level_crossings(profile, 2 * beta, (-12.0, 12.0))
            if a.size == 0 or b.size == 0:
                raise CheckFailed("no A or B zeros in the window")
            merged = sorted([(x, 0) for x in a] + [(x, 1) for x in b])
            labels = [lab for _, lab in merged]
            if any(u == v for u, v in zip(labels, labels[1:])):
                raise CheckFailed("A and B zeros do not interlace")
            state["a_zeros"] = a

        return op

    @staticmethod
    def _verify(verify, f, spec):
        def op():
            if not verify(f, spec).passed:
                raise CheckFailed("margin check failed")

        return op

    @staticmethod
    def _energy(spec, beta, pick, state):
        def op():
            a = state.get("a_zeros")
            if a is None or a.size < 2:
                raise CheckFailed("no consecutive A-zero pair from the crossings op")
            k = min(int(pick * (a.size - 1)), a.size - 2)
            for p in (1.0, 2.0):
                val = B.interval_energy(spec, beta, p, (float(a[k]), float(a[k + 1])))
                if not (math.isfinite(val) and val > 0.0):
                    raise CheckFailed("interval energy not finite and positive")

        return op


# the README's command-line examples other than selftest, in README order
_README_COMMANDS = (
    ("phase", ["phase", "--spec", "random_deg6.json", "--csv", "{tmp}/phi.csv"]),
    ("verify-hormander-alpha", ["verify-hormander", "--spec", "cubic.json", "--alpha", "1.5707963267948966"]),
    ("verify-hormander-f", ["verify-hormander", "--spec", "cubic.json", "--f", "member_mixture.json"]),
    ("bounds", ["bounds", "--p", "2", "--spec", "s_pi.json", "--csv", "{tmp}/sweep.csv"]),
    ("extremal", ["extremal", "--spec", "random_deg6.json", "--p", "1.5", "--xi", "0.2", "--csv", "{tmp}/profile.csv"]),
    ("separation", ["separation", "--spec", "random_deg6.json", "--p", "2", "--xi", "0.0"]),
)
# exits 1 with MaxAtInfinityError: _auto_window_candidates rejects every
# member with deg f = deg E
_DEFECT_COMMANDS = ("verify-hormander-f",)

_EXC_NAME = re.compile(r"\((\w+)\)")


class CliDocs(Workload):
    """The documented CLI commands, run in-process through cli.run(argv)."""

    name = "cli_docs"
    measured_ops = 480  # 96 cycles of the five commands that work
    tail_percentile = 97.5

    def __init__(self, seed, tiny=False):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent, prefix=".tmp-")
        tmp = self._tmp.name
        self.commands, self.defect_commands = [], []
        for kind, argv in _README_COMMANDS:
            args = [
                a.replace("{tmp}", tmp) if a.startswith("{tmp}") else
                str(SPECS / a) if a.endswith(".json") else a
                for a in argv
            ]
            pool = self.defect_commands if kind in _DEFECT_COMMANDS else self.commands
            pool.append((kind, args + ["--out", f"{tmp}/{kind}.json"]))
        rng = np.random.default_rng(seed)
        # a seeded order per cycle; every cycle runs each command once
        self.order = [list(rng.permutation(len(self.commands))) for _ in range(64)]

    def warmup(self):
        kind, argv = self.commands[0]
        return kind, self._run(argv)

    def ops(self):
        for perm in itertools.cycle(self.order):
            for i in perm:
                kind, argv = self.commands[i]
                yield kind, self._run(argv)

    def known_defect_ops(self):
        for kind, argv in self.defect_commands:
            yield kind, self._run(argv)

    @staticmethod
    def _run(argv):
        def op():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.run(argv)
            if code != 0:
                m = _EXC_NAME.search(err.getvalue())
                raise CheckFailed(f"exit {code}" + (f" ({m.group(1)})" if m else ""))
            with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
                cli.validate_report(json.load(fh))

        return op

    def close(self):
        self._tmp.cleanup()


WORKLOADS = {w.name: w for w in (ExtremalMix, XiSweep, HBVerify, CliDocs)}
