"""Tests of the benchmark itself: metric coverage and tracer transparency.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import debranges as D  # noqa: E402
from debranges import extremal as X  # noqa: E402
from debranges import numerics  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, lines=False):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip().splitlines()
    result = json.loads(out[-1])
    return (result, out[:-1]) if lines else result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_known_defects_are_reported_but_not_counted():
    result, lines = _run("cli_docs", 0, lines=True)
    assert result["correct"] is True and result["failed"] == 0
    assert "known_defect verify-hormander-f failed CheckFailed(exit 1 (MaxAtInfinityError))" in lines
    result, _ = _run("cli_docs", 1, lines=True)
    assert result["metrics"]["cli.run.nonzero_exit"]["value"] == 1


def test_run_without_sources_fails(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _problem():
    spec = D.HBSpec(zeros=(-1j, 0.5 - 2j, -1 - 0.3j, 1.2 - 0.7j))
    return X.ExtremalProblem(p=1.5, spec=spec, xi=0.1, basis=X.PolynomialBasis(2))


def test_traced_solve_is_bit_identical():
    plain = X.solve(_problem(), seed=5)
    tracer = Tracer()
    tracer.install()
    try:
        traced = X.solve(_problem(), seed=5)
    finally:
        tracer.uninstall()
    assert traced.C_value == plain.C_value
    assert np.array_equal(traced.coefficients, plain.coefficients)
    summary = tracer.summary()
    assert summary["extremal.solve"]["calls"] == 1
    assert summary["numerics.integrate"]["calls"] >= 2
    assert not hasattr(X.solve, "__wrapped__")  # uninstall restored the original


def test_tracer_passes_exceptions_through_unchanged():
    def bad():
        return numerics.monotone_solve(lambda t: t, 5.0, (0.0, 1.0))

    with pytest.raises(numerics.BracketError) as plain:
        bad()
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(numerics.BracketError) as traced:
            bad()
    finally:
        tracer.uninstall()
    assert str(traced.value) == str(plain.value)
    assert tracer.summary()["numerics.monotone_solve"]["failed"] == 1


def test_function_bound_under_several_names_gives_one_span():
    tracer = Tracer()
    tracer.install()
    try:
        from debranges import bounds, extremal

        assert numerics.integrate is extremal.integrate is bounds.integrate is D.integrate
        t0 = time.perf_counter()
        extremal.integrate(np.cos, (0.0, 1.0))
        bounds.integrate(np.sin, (0.0, 1.0))
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert tracer.summary()["numerics.integrate"]["calls"] == 2
    assert tracer.library_self_s() <= wall
