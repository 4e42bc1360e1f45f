"""Seeded benchmark of the roelab CLI scenarios.

From the repository root:

    python3 roebench/run.py --workload extract --seed 1 --seconds 15 --trace 0

Set-up generates the workload's inputs from --seed through roelab and
writes them to roebench/work/; one discarded op warms up.  A run then
repeats a fixed list of ops whose length follows from --seconds and the
workload's nominal round cost, so a faster program finishes sooner
instead of doing more work.  A fixed calibration loop of the benchmark's
own numpy and Python work runs before every op and set-up, and the
end-to-end times are scaled by how much slower than on the reference host
it ran (see Calibration).  Every report is checked against numpy
recomputations (checks.py).  Progress goes to stderr; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run measures the op list once untraced and once with span wrappers
installed, writes the spans to roebench/out/, and prints the per-layer
metrics.  See README.md.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
CALIBRATION_TICKS = 3  # calibration runs between two set-ups
CALIBRATION_EVERY_S = 0.15  # one calibration run per this much nominal op time

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics, per op of the traced pass (set-up calls included).
# "<span>.calls" and "<span>.self_s" come straight from the spans.
PER_LAYER = [
    ("spaces.FiniteMetricSpace.calls", "count/op"),
    ("spaces.FiniteMetricSpace.self_s", "s/op"),
    ("serialize.read_operator.self_s", "s/op"),
    ("serialize.load_space.self_s", "s/op"),
    ("serialize.write_operator.self_s", "s/op"),
    ("serialize.report_bytes.self_s", "s/op"),
    ("operators.unitarity_residual.calls", "count/op"),
    ("operators.unitarity_residual.self_s", "s/op"),
    ("operators.spectral_norm.calls", "count/op"),
    ("operators.spectral_norm.self_s", "s/op"),
    ("operators.corner_norm.calls", "count/op"),
    ("operators.corner_norm.self_s", "s/op"),
    ("operators.band_parts.self_s", "s/op"),
    ("operators.random_band_unitary.self_s", "s/op"),
    ("extraction.corner_norm_table.calls", "count/op"),
    ("extraction.corner_norm_table.self_s", "s/op"),
    ("extraction.minimal_radius.self_s", "s/op"),
    ("extraction.radii_scanned", "count/op"),
    ("maps.modulus.calls", "count/op"),
    ("maps.modulus.self_s", "s/op"),
    ("locality.quasi_locality_violation.self_s", "s/op"),
    ("locality.approximability_window.self_s", "s/op"),
    ("covering.covering_unitary.self_s", "s/op"),
    ("covering.outer_roundtrip.self_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("cli.sweep.worker_busy_share", "share"),
    ("trace.overhead_ratio", "ratio"),
]


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_program():
    """Import roelab from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import roelab
    except ImportError as exc:
        sys.exit(f"roebench: cannot import roelab from {SRC}: {exc}")
    if Path(roelab.__file__).resolve().parent != (SRC / "roelab").resolve():
        sys.exit(f"roebench: imported roelab from {roelab.__file__}, not from {SRC}")


def cpu_seconds() -> float:
    """User + system time of every thread of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def tail_percentile(samples: int):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99, 95, 90, 80, 75):
        if samples * (100 - p) / 100 >= 10:
            return p
    return None


class Calibration:
    """A fixed loop of the benchmark's own work, timed before every op and
    every set-up.  It calls nothing in roelab and its inputs do not depend
    on --seed, so a change to the program leaves its time alone, while load
    from other tenants of a shared host slows it and the program alike.
    The end-to-end times are multiplied by the loop's reference time over
    its mean time in the same run: they read in seconds of the reference
    host.

    A workload picks the loop closest to its own work, since host load
    slows dense LAPACK, small-call overhead and the interpreter by
    different amounts: "dense" runs 100 SVDs of 8x8 real matrices, two of
    150x150 complex ones and 30 000 Python dict updates; "corner" runs 600
    SVDs of blocks of 2 to 8 rows and columns cut out of a 26x26 complex
    matrix with np.ix_, as corner norms do."""

    REFERENCE_S = {"dense": 0.0150, "corner": 0.0120}  # mean loop time, reference host

    def __init__(self, kind: str = "dense"):
        import numpy as np

        rng = np.random.default_rng(0)
        self.kind = kind
        self._svd, self._ix = np.linalg.svd, np.ix_
        self._small = [rng.standard_normal((8, 8)) for _ in range(100)]
        self._large = [rng.standard_normal((150, 150)) + 1j * rng.standard_normal((150, 150))
                       for _ in range(2)]
        self._matrix = rng.standard_normal((26, 26)) + 1j * rng.standard_normal((26, 26))
        self._blocks = [tuple(np.sort(rng.choice(26, size=rng.integers(2, 9), replace=False))
                              for _ in range(2)) for _ in range(600)]

    def __call__(self) -> float:
        """Run the loop once; return its wall time in seconds."""
        t0 = time.perf_counter()
        if self.kind == "corner":
            for rows, cols in self._blocks:
                self._svd(self._matrix[self._ix(rows, cols)], compute_uv=False)
        else:
            for m in self._small:
                self._svd(m, compute_uv=False)
            for m in self._large:
                self._svd(m, compute_uv=False)
            counts = {}
            for i in range(30000):
                counts[i % 97] = counts.get(i % 97, 0) + i
        return time.perf_counter() - t0

    def scale(self, samples: list) -> float:
        """Factor from this run's seconds to reference-host seconds."""
        return self.REFERENCE_S[self.kind] / statistics.fmean(samples)


@dataclass
class Pass:
    latencies: list  # wall time per op, in run order
    cpu_s: list  # CPU time per op
    calibration: list  # time of each calibration run
    reports: list  # (op, exit status, printed report)

    @property
    def op_s(self) -> float:
        return sum(self.latencies)


def measure(ops, rounds: int, run_op, calibrate, ticks: int, tracer=None) -> Pass:
    """Run `rounds` rounds of `ops`, with `ticks` calibration runs before each op."""
    done = Pass([], [], [], [])
    gc.collect()
    for _ in range(rounds):
        for op in ops:
            done.calibration.extend(calibrate() for _ in range(ticks))
            if tracer is not None:
                tracer.op = len(done.latencies)
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            status, text = run_op(op)
            done.latencies.append(time.perf_counter() - t0)
            done.cpu_s.append(cpu_seconds() - cpu0)
            done.reports.append((op, status, text))
    return done


def set_up(workload, repeats: int, calibrate):
    """Set up `repeats` times, each followed by one discarded warm-up op.
    Return the last op list, each set-up's measured time, and that time in
    reference seconds, scaled by the calibration runs just before and just
    after it."""
    from workloads import run_op

    ticks = [[calibrate() for _ in range(CALIBRATION_TICKS)]]
    raw = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ops = workload.set_up()
        run_op(ops[0])
        raw.append(time.perf_counter() - t0)
        ticks.append([calibrate() for _ in range(CALIBRATION_TICKS)])
    scaled = [t * calibrate.scale(before + after)
              for t, before, after in zip(raw, ticks, ticks[1:])]
    return ops, raw, scaled


def classify(op, status: int, text: str, cache: dict, checks):
    """None when the report passes every check, else the failing check's name.
    Outcomes are cached per (input, results), since equal results give
    equal outcomes."""
    try:
        results = json.loads(text)["results"]
    except (ValueError, KeyError, TypeError):
        results = None
    if status != 0 or results is None:
        key = (op.input_id, "exit", status, text)
        if key not in cache:
            log(f"{op.input_id}: exit status {status}: {text.strip()[:300]}")
            cache[key] = "op.exit_status"
        return cache[key]
    key = (op.input_id, checks.canonical(results))
    if key not in cache:
        try:
            op.check(results)
            cache[key] = None
        except checks.CheckFailed as exc:
            log(f"{op.input_id}: {exc}")
            cache[key] = exc.name
    return cache[key]


def log(message: str) -> None:
    print(f"roebench: {message}", file=sys.stderr, flush=True)


def end_to_end_metrics(measured: Pass, calibrate, setup_raw: list, setup_scaled: list) -> dict:
    # Host load on a shared machine moves whole runs by a third (README.md);
    # the calibration loop timed before each op moves with it, so times are
    # given in reference-host seconds: measured seconds times the scale factor.
    scale = calibrate.scale(measured.calibration)
    ops = len(measured.latencies)
    values = {
        "ops_per_s": ops / (measured.op_s * scale),
        "cpu_s_per_op": sum(measured.cpu_s) * scale / ops,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    lat = sorted(measured.latencies)
    p = tail_percentile(len(lat))
    tail = f", p{p} {1000 * statistics.quantiles(lat, n=100)[p - 1]:.1f} ms" if p else ""
    log(f"measured: {ops} ops in {measured.op_s:.3f} s ({ops / measured.op_s:.4g} ops/s), "
        f"latency p50 {1000 * statistics.median(lat):.1f} ms{tail}, "
        f"set-up {statistics.median(setup_raw):.3f} s; calibration mean "
        f"{1000 * statistics.fmean(measured.calibration):.2f} ms, scale {scale:.4f}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(tracer, traced: Pass, untraced: Pass, calibrate) -> dict:
    """Per-op layer totals of the traced pass; times in reference seconds,
    scaled by the traced pass's calibration runs."""
    from spans import layer_totals

    pair = ("extraction.corner_norm_table", "extraction.minimal_radius")
    totals = layer_totals(tracer.names, tracer.spans(), nested=[pair])
    ops = len(traced.latencies)
    scale = calibrate.scale(traced.calibration)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    sweep_wall = totals.get("cli.sweep", empty)["total_s"]
    workers = int(os.environ.get("ROELAB_THREADS", "1"))
    special = {
        "extraction.radii_scanned": totals[pair] / ops,
        "cli.sweep.worker_busy_share":
            totals.get("cli.sweep_one", empty)["total_s"] / (sweep_wall * workers)
            if sweep_wall else 0.0,
        "trace.overhead_ratio": traced.op_s * scale / (untraced.op_s * calibrate.scale(
            untraced.calibration)),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            span, field = name.rsplit(".", 1)
            value = totals.get(span, empty)[field] / ops * (scale if field == "self_s" else 1)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Seeded benchmark of the roelab CLI scenarios.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # one BLAS thread; numpy has not loaded yet
        os.environ[var] = "1"
    import_program()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"roebench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    work_dir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        rounds = workload.rounds(args.seconds)

        calibrate = Calibration(workload.calibration)
        ops, setup_raw, setup_scaled = set_up(workload, SETUP_REPEATS, calibrate)
        workload.prepare_checks(ops)
        ticks = max(1, round(workload.nominal_round_s / len(ops) / CALIBRATION_EVERY_S))
        log(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
            f"set-up {', '.join(f'{t:.3f}' for t in setup_raw)} s")

        passes = [measure(ops, rounds, workloads.run_op, calibrate, ticks)]
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            skipped = tracer.install()
            if skipped:
                log(f"trace targets not found, skipped: {', '.join(skipped)}")
            try:
                ops = workload.set_up()
                passes.append(measure(ops, rounds, workloads.run_op, calibrate, ticks,
                                      tracer))
            finally:
                tracer.uninstall()
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.save(out_dir / f"spans-{args.workload}.npz")
            log(f"tracing overhead: {passes[0].op_s:.3f} s of ops untraced, "
                f"{passes[1].op_s:.3f} s traced")

        cache = {}
        outcomes = [classify(op, status, text, cache, checks)
                    for p in passes for op, status, text in p.reports]
        failed = sum(o is not None for o in outcomes)
        unexpected = sorted({o for o in outcomes if o is not None and o not in checks.KNOWN_FAULTS})
        if failed:
            log(f"{failed} of {len(outcomes)} ops failed; "
                f"unexpected failures: {', '.join(unexpected) or 'none'}")
        if args.trace:
            metrics = layer_metrics(tracer, passes[1], passes[0], calibrate)
        else:
            metrics = end_to_end_metrics(passes[0], calibrate, setup_raw, setup_scaled)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"correct": not unexpected, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
