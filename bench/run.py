"""Closed-loop benchmark of debranges: one caller, one process, one op at a time.

    python3 bench/run.py --workload extremal_mix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` measures the end-to-end metrics untraced.
``--trace 1`` runs the same op sequence untraced for half the time and traced
for the other half, and reports the per-layer metrics plus the tracing
overhead.  Human-readable lines come first; the last line of stdout is the
result object.  A detail file with provenance, outcome counts and (traced)
the per-function summary and spans goes to ``bench/out/``.  See
``bench/README.md`` for the workloads and metrics.
"""

import os
import time

T_START = time.perf_counter()

# One BLAS thread unless the caller chose otherwise.  With two threads on a
# two-core shared host, every BLAS call waits for the second core: solves ran
# up to 2.5x slower for the first seconds after the host had been idle, and
# slowed whenever another tenant held that core, which a single-threaded
# speed probe cannot see.  One thread made solves about 10 % slower and
# steady.  Set before numpy is first imported, and inherited by the set-up
# subprocesses.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 3
SETUP_PROBES = 15
PROBE_REF_S = 2e-3
PROBE_EVERY_S = 0.25
PROBE_MAX_BATCH = 8

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "nonfailed_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (traced function, statistic, unit); reported as <module>.<function>.<stat>
PER_LAYER = [
    ("extremal.solve", "calls", "count"),
    ("extremal.solve", "self_s", "s"),
    ("extremal.solve", "failed", "count"),
    ("extremal.orthogonality_residual", "calls", "count"),
    ("extremal.orthogonality_residual", "total_s", "s"),
    ("extremal.extract_zeros", "total_s", "s"),
    ("extremal.separation_report", "total_s", "s"),
    ("numerics.integrate", "calls", "count"),
    ("numerics.integrate", "total_s", "s"),
    ("numerics.integrate", "self_s", "s"),
    ("numerics.integrate", "refinements", "count"),
    ("numerics.integrate", "unconverged", "count"),
    ("numerics.monotone_solve", "calls", "count"),
    ("numerics.monotone_solve", "total_s", "s"),
    ("numerics.golden_max", "calls", "count"),
    ("numerics.golden_max", "total_s", "s"),
    ("hb_core.eval_E", "calls", "count"),
    ("hb_core.eval_E", "self_s", "s"),
    ("hb_core.eval_E", "points", "count"),
    ("hb_core.eval_E", "ns_per_point_zero_le64", "ns"),
    ("hb_core.eval_E", "ns_per_point_zero_gt64", "ns"),
    ("hb_core.phase", "calls", "count"),
    ("hb_core.phase", "self_s", "s"),
    ("hb_core.phase", "points", "count"),
    ("hb_core.phase_derivative", "calls", "count"),
    ("hb_core.phase_derivative", "self_s", "s"),
    ("hb_core.phase_derivative", "points", "count"),
    ("hb_core.phase_derivative_sup", "calls", "count"),
    ("hb_core.phase_derivative_sup", "total_s", "s"),
    ("hb_core.level_crossings", "calls", "count"),
    ("hb_core.level_crossings", "total_s", "s"),
    ("hormander.verify_theorem1", "calls", "count"),
    ("hormander.verify_theorem1", "total_s", "s"),
    ("hormander.verify_theorem1", "self_s", "s"),
    ("hormander.verify_theorem1", "failed", "count"),
    ("hormander.verify_sign_free", "calls", "count"),
    ("hormander.verify_sign_free", "total_s", "s"),
    ("hormander.verify_sign_free", "self_s", "s"),
    ("hormander.verify_sign_free", "failed", "count"),
    ("hormander.bracket_A_zeros", "calls", "count"),
    ("hormander.bracket_A_zeros", "total_s", "s"),
    ("hormander.bracket_B_zeros", "calls", "count"),
    ("hormander.bracket_B_zeros", "total_s", "s"),
    ("hormander.local_expansion_check", "calls", "count"),
    ("hormander.local_expansion_check", "total_s", "s"),
    ("bounds.interval_energy", "calls", "count"),
    ("bounds.interval_energy", "total_s", "s"),
    ("bounds.kernel_eval", "calls", "count"),
    ("bounds.kernel_eval", "total_s", "s"),
    ("cli.run", "calls", "count"),
    ("cli.run", "self_s", "s"),
    ("cli.run", "failed", "count"),
]
TRACE_EXTRA = {
    "bench.trace.untraced_ops_per_s": "1/s",
    "bench.trace.traced_ops_per_s": "1/s",
    "bench.trace.overhead_frac": "ratio",
    "bench.trace.layer_self_s": "s",
    "bench.trace.traced_wall_s": "s",
}


def _layer_metric_name(fn: str, stat: str) -> str:
    # cli.run's failed calls are the ones returning a nonzero exit code
    if fn == "cli.run" and stat == "failed":
        return "cli.run.nonzero_exit"
    return f"{fn}.{stat}".replace("ns_per_point_zero_", "ns_per_point_zero.")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class SpeedProbe:
    """Times a fixed unit of reference work between ops.

    The machines this runs on drift in speed by 10-50 % over minutes (every
    op kind of a run slows or speeds up together), which would swamp the
    changes the benchmark is there to show.  The probe does the kind of work
    debranges spends its time in (vectorised complex products, scalar
    Python loops); timings are scaled to the speed at which it takes
    PROBE_REF_S.  After each op it runs once per PROBE_EVERY_S that op
    time has advanced (up to PROBE_MAX_BATCH times), outside the op timings
    and the measured window, so long and short ops weigh alike.
    """

    def __init__(self):
        import numpy as np

        self.x = np.linspace(-3.0, 3.0, 2048)
        self.z = np.array([complex(0.25 * k - 1.5, -0.2 - 0.15 * k) for k in range(12)])
        self.samples = []

    def run(self) -> None:
        import numpy as np

        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(8):
            acc += float(np.sum(np.abs(np.prod(self.x[:, None] - self.z, axis=-1))))
        y = 0.5
        for _ in range(6000):
            y = math.atan(y) + 1e-3
        self.samples.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """Median probe time over its reference: above 1 on a slower machine."""
        return statistics.median(self.samples) / PROBE_REF_S if self.samples else 1.0


def closed_loop(workload, seconds, tracer=None, probe=None):
    """Run ops back to back until `seconds` of op time have passed.

    Returns one (kind, outcome, failure, latency_s, start_s, peak_rss_kb)
    record per op, start_s counted from the start of the loop with probe
    time left out, and the loop's wall time likewise.
    """
    from workloads import attempt

    records = []
    paused = 0.0
    t_start = now = last_probe = time.perf_counter()
    for op_id, (kind, fn) in enumerate(workload.ops()):
        t0 = time.perf_counter()
        if tracer is None:
            outcome, exc = attempt(fn)
        else:
            tracer.op_id = op_id
            with tracer.span(f"op:{kind}"):
                outcome, exc = attempt(fn)
        now = time.perf_counter()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        records.append((kind, outcome, exc, now - t0, t0 - t_start - paused, rss_kb))
        if now - t_start - paused >= seconds:
            break
        due = int((now - last_probe) / PROBE_EVERY_S)
        if probe is not None and due:
            for _ in range(min(due, PROBE_MAX_BATCH)):
                probe.run()
            last_probe = time.perf_counter()
            paused += last_probe - now
    return records, now - t_start - paused


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  Op costs in one run span up to three decades, so the
    plain sample quantile jumps by the gap between neighbouring ops; this
    estimator moves smoothly."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    grid = np.concatenate(([0.0], t))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf, right=1.0))
    return float(weights @ x)


def known_defects(workload, tracer=None):
    """Run each known-defect op once, untimed; one (kind, outcome, failure)
    per op.  Traced, so the per-layer failure counts show the defects."""
    from workloads import attempt

    rows = []
    for op_id, (kind, fn) in enumerate(workload.known_defect_ops(), start=1 << 20):
        if tracer is None:
            outcome, exc = attempt(fn)
        else:
            tracer.op_id = op_id
            with tracer.span(f"op:{kind}"):
                outcome, exc = attempt(fn)
        rows.append((kind, outcome, exc))
    return rows


def _print_defects(rows):
    for kind, outcome, exc in rows:
        print(f"known_defect {kind} {outcome} {exc or '-'}")


def summarize(records, measured, tail_q):
    """End-to-end figures over the first `measured` ops of a closed-loop pass.

    Every run takes its figures over the same op sequence, so a faster
    machine or commit does not change the mix of cheap and expensive ops
    they are taken over (on extremal_mix a few more ops in the window meant
    a different mix, and moved the latency percentiles by 30 %).  The loop
    still runs for the whole window; a run that completes fewer ops uses
    every op it completed.
    """
    head = records[:measured]
    lat = [r[3] * 1e3 for r in head]
    _, _, _, dur, start, rss_kb = head[-1]
    failed = sum(1 for r in head if r[1] == "failed")
    tail_ms = quantile(lat, tail_q / 100.0)
    by_kind = {}
    for r in head:
        by_kind.setdefault(r[0], []).append(r[3] * 1e3)
    return {
        "measured_ops": len(head),
        "measured_s": start + dur,
        "ops_per_s": sum(1 for r in head if r[1] == "ok") / (start + dur),
        "attempted_per_s": len(head) / (start + dur),
        "op_p50_ms": quantile(lat, 0.5),
        "op_tail_ms": tail_ms,
        "tail_percentile": tail_q,
        "tail_beyond": sum(1 for v in lat if v > tail_ms),
        "median_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "failed_frac": failed / len(head),
        "nonfailed_frac": 1.0 - failed / len(head),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def counts(records):
    ok = sum(1 for r in records if r[1] == "ok")
    failed = sum(1 for r in records if r[1] == "failed")
    return {"attempted": len(records), "ok": ok, "vacuous": len(records) - ok - failed,
            "failed": failed}


def outcome_counts(records):
    counts = Counter((r[0], r[1], r[2]) for r in records)
    return [
        {"kind": k, "outcome": o, "type": t, "count": c}
        for (k, o, t), c in sorted(counts.items())
    ]


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def provenance(workload):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "debranges").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "git_commit": _git_commit(),
        "src_lines": src_lines,
        "worst_orthogonality_residual": {
            f"p={p:g}": v for p, v in sorted(workload.worst_residual.items())
        },
        "worst_restart_distance": workload.worst_restart,
    }


def _setup_in_subprocess(args):
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-only",
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _scaled_setup(raw_s):
    """Set-up time of this process, scaled by the speed probe run right after
    it, as the op timings are."""
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.run()
    return {"raw": raw_s, "scaled": raw_s / probe.slowdown()}


def _emit(metrics, correct, attempted, failed):
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "debranges" / "__init__.py").is_file():
        print(f"bench: no debranges sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # overflow warnings on the N >= 128 specs are part of the known defects;
    # they would only flood stderr
    warnings.simplefilter("ignore", RuntimeWarning)

    from workloads import WORKLOADS, attempt

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    try:
        kind, warm = workload.warmup()
        warm_outcome = attempt(warm)
        setup_main = _scaled_setup(time.perf_counter() - T_START)
        if args.setup_only:
            print(json.dumps(setup_main))
            return 0
        if args.trace:
            return _traced_run(args, workload)
        probe = SpeedProbe()
        records, wall = closed_loop(workload, args.seconds, probe=probe)
        defects = known_defects(workload)
    finally:
        workload.close()

    setups = [setup_main] + [_setup_in_subprocess(args) for _ in range(SETUP_RUNS - 1)]
    setup_s = statistics.median(s["scaled"] for s in setups)
    s = summarize(records, workload.measured_ops, workload.tail_percentile)
    c = counts(records)
    slow = probe.slowdown()
    values = {
        "ops_per_s": s["ops_per_s"] * slow,
        "op_p50_ms": s["op_p50_ms"] / slow,
        "op_tail_ms": s["op_tail_ms"] / slow,
        "nonfailed_frac": s["nonfailed_frac"],
        "setup_s": setup_s,
        "peak_rss_mb": s["peak_rss_mb"],
    }
    metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": 0,
        "counts": c,
        "summary": s,
        "setup_s_samples": setups,
        "speed_probe": {"slowdown": slow, "samples": len(probe.samples)},
        "warmup": {"kind": kind, "outcome": warm_outcome[0]},
        "outcomes": outcome_counts(records),
        "known_defects": [list(r) for r in defects],
        "provenance": provenance(workload),
        "metrics": metrics,
        "ops": [list(r) for r in records],
    }
    _write_detail(args, detail)
    print(f"workload {args.workload} seed {args.seed}: {c['attempted']} ops in {wall:.2f} s "
          f"(closed loop, 1 caller); ok {c['ok']} vacuous {c['vacuous']} failed {c['failed']}")
    print(f"figures over the first {s['measured_ops']} ops ({s['measured_s']:.2f} s): "
          f"failed_frac {s['failed_frac']!r}, attempted_per_s {s['attempted_per_s']!r}; "
          f"op_tail_ms is p{s['tail_percentile']:g}, {s['tail_beyond']} ops beyond it")
    print(f"speed probe: {slow:.4f} x its reference time over {len(probe.samples)} samples; "
          f"raw ops_per_s {s['ops_per_s']!r}, op_p50_ms {s['op_p50_ms']!r}, "
          f"op_tail_ms {s['op_tail_ms']!r}")
    for row in detail["outcomes"]:
        print(f"outcome {row['kind']} {row['outcome']} {row['type'] or '-'} {row['count']}")
    _print_defects(defects)
    print("provenance " + json.dumps(detail["provenance"]))
    _emit(metrics, c["failed"] == 0, c["attempted"], c["failed"])
    return 0


def _traced_run(args, workload):
    from tracer import Tracer

    half = args.seconds / 2.0
    plain_probe, probe = SpeedProbe(), SpeedProbe()
    plain, plain_wall = closed_loop(workload, half, probe=plain_probe)
    tracer = Tracer()
    tracer.install()
    try:
        records, loop_wall = closed_loop(workload, half, tracer, probe)
        t0 = time.perf_counter()
        defects = known_defects(workload, tracer)
        wall = loop_wall + time.perf_counter() - t0
    finally:
        tracer.uninstall()
    # both passes over the same op prefix, so the mix is the same
    same = min(len(plain), len(records))
    s_plain = summarize(plain, same, workload.tail_percentile)
    s = summarize(records, same, workload.tail_percentile)
    summary = tracer.summary()
    layer_self = tracer.library_self_s()
    values = {}
    for fn, stat, unit in PER_LAYER:
        v = summary.get(fn, {}).get(stat, 0)
        values[_layer_metric_name(fn, stat)] = (v if isinstance(v, int) else float(v), unit)
    untraced_rate = s_plain["ops_per_s"] * plain_probe.slowdown()
    traced_rate = s["ops_per_s"] * probe.slowdown()
    extra = {
        "bench.trace.untraced_ops_per_s": untraced_rate,
        "bench.trace.traced_ops_per_s": traced_rate,
        "bench.trace.overhead_frac": untraced_rate / traced_rate - 1.0 if traced_rate > 0 else 0.0,
        "bench.trace.layer_self_s": layer_self,
        "bench.trace.traced_wall_s": wall,
    }
    values.update({k: (v, TRACE_EXTRA[k]) for k, v in extra.items()})
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    all_records = plain + records
    self_ok = layer_self <= wall
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace1"
    tracer.save(OUT / f"{stem}-spans.npz")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": 1,
        "untraced_summary": s_plain,
        "traced_summary": s,
        "self_time_within_wall": self_ok,
        "functions": summary,
        "outcomes": outcome_counts(all_records),
        "known_defects": [list(r) for r in defects],
        "provenance": provenance(workload),
        "metrics": metrics,
    }
    _write_detail(args, detail)
    print(f"workload {args.workload} seed {args.seed}: untraced {len(plain)} ops "
          f"in {plain_wall:.2f} s, traced {len(records)} ops in {loop_wall:.2f} s, "
          f"{len(tracer.start)} spans; overhead over the first {same} ops of each")
    print(f"layer self time {layer_self:.3f} s within traced wall {wall:.3f} s "
          f"(known-defect ops included): {self_ok}")
    for row in detail["outcomes"]:
        print(f"outcome {row['kind']} {row['outcome']} {row['type'] or '-'} {row['count']}")
    _print_defects(defects)
    c = counts(all_records)
    _emit(metrics, self_ok and c["failed"] == 0, c["attempted"], c["failed"])
    return 0


def _write_detail(args, detail):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)


if __name__ == "__main__":
    sys.exit(main())
