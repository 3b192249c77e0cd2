"""plastinfer benchmark: closed-loop identifications with one client.

    python3 bench/run.py --workload lenh-double --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program under test is ``src/plastinfer``
of that checkout. One operation is one identification (see
``workloads.py``); the next starts when the previous one has been checked.

``--trace 0`` measures the end-to-end metrics with tracing off: after
``WARMUP_OPS`` untimed operations, operations run until ``--seconds`` have
passed (at least one). ``--trace 1`` gives the
per-layer metrics instead: a fixed number of operations, set by the
workload and ``--seconds`` only so that counts repeat exactly for a seed,
runs once untraced and once traced, and the ratio of the two wall times is
the tracing overhead.

Every run first times ``SETUP_PROBES`` fresh processes that import the
package and build the first dataset and target (``setup_probe.py``).

Output: a ``record`` line (machine, versions, source identity, seed), one
line per metric as ``name value unit``, one line per failed operation,
and last the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 2 without a result when the checkout has no ``src/plastinfer``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "plastinfer"
# Known before the program is imported, for argument parsing; the
# self-tests check it against workloads.WORKLOADS.
WORKLOAD_NAMES = ("pp-coverage", "lenh-double", "cli-lh-double")
SETUP_PROBES = 3
# Untimed operations before the timed loop of an end-to-end run.
WARMUP_OPS = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "posterior.calls": "count",
    "posterior.self_s": "s",
    "posterior.offsupport_ratio": "ratio",
    "priors.log_density.calls": "count",
    "priors.log_density.self_s": "s",
    "likelihood.calls": "count",
    "likelihood.self_s": "s",
    "likelihood.us_per_call": "us",
    "models.stress.calls": "count",
    "models.stress.self_s": "s",
    "models.stress_lenh.calls": "count",
    "models.stress_lenh.points": "count",
    "models.stress_lenh.self_s": "s",
    "models.parameter_vector.calls": "count",
    "sampler.steps": "count",
    "sampler.self_s": "s",
    "sampler.us_per_step_self": "us",
    "sampler.acceptance_ratio": "ratio",
    "sampler.summarize.self_s": "s",
    "sampler.ess.self_s": "s",
    "sampler.convergence_trace.self_s": "s",
    "sampler.response_band.self_s": "s",
    "sampler.save_chain.self_s": "s",
    "data.generate.self_s": "s",
    "data.write.self_s": "s",
    "data.read.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "package.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class OpRecord:
    """One attempted operation: its timed seconds and outcome or failure."""

    index: int
    seconds: float
    outcome: object | None
    error: str | None = None
    check_failed: bool = False
    timed: bool = True


def _attempt(workload, failures, index: int, tracer, timed: bool) -> OpRecord:
    """Run and check operation ``index``; only the operation itself is timed."""
    t0 = time.perf_counter()
    try:
        result = workload.operation(index)
    except failures as exc:
        return OpRecord(index, time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}", timed=timed)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    try:
        return OpRecord(index, elapsed, workload.check(index, result), timed=timed)
    except failures as exc:
        return OpRecord(index, elapsed, None, f"{type(exc).__name__}: {exc}", True, timed)
    finally:
        if tracer is not None:
            tracer.active = True


def measure(
    workload, failures, seconds: float, n_ops: int | None = None, tracer=None, warmup: int = 0
) -> list[OpRecord]:
    """Run operations in a closed loop and check each one.

    First ``warmup`` operations run and are checked, but stay out of the
    timings, so that lazy imports and caches have settled. Then runs
    ``n_ops`` operations, or, when it is None, operations until
    ``seconds`` have passed (at least one). An operation's check runs with
    the tracer paused. An operation that ends in one of ``failures`` is
    recorded with its message and the loop goes on.
    """
    records = [_attempt(workload, failures, index, tracer, timed=False) for index in range(warmup)]
    start = time.perf_counter()
    index = warmup
    while index - warmup < n_ops if n_ops is not None else (
        index == warmup or time.perf_counter() - start < seconds
    ):
        records.append(_attempt(workload, failures, index, tracer, timed=True))
        index += 1
    return records


def end_to_end(records: list[OpRecord]) -> dict[str, float]:
    """Throughput, median latency and ESS rate over the timed operations.

    ``fail_ratio`` counts every attempted operation, warm-up included.
    """
    timed = [r for r in records if r.timed]
    total = sum(r.seconds for r in timed)
    ok = [r for r in timed if r.outcome is not None]
    return {
        "ops_per_s": len(ok) / total,
        "op_s_p50": statistics.median(r.seconds for r in ok) if ok else 0.0,
        "ess_per_s": sum(r.outcome.min_ess for r in ok) / total,
        "fail_ratio": sum(r.outcome is None for r in records) / len(records),
    }


def traced_ops(seconds: float, nominal_op_s: float) -> int:
    """Operations per pass of a traced run: two passes fill about ``seconds``."""
    return max(1, int(seconds / (2.0 * nominal_op_s)))


def setup_probes(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh set-up processes, and the import seconds each reports."""
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
    return walls, imports


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded into this process."""
    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line and "/" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources, to identify a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def reference_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes: a gauge of how fast the machine ran."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - start


def run_record(args) -> dict:
    import numpy
    import scipy

    import plastinfer

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "plastinfer": plastinfer.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "reference_loop_s": reference_loop_s(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="plastinfer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no plastinfer source tree at {PACKAGE}", file=sys.stderr)
        return 2
    walls, imports = setup_probes(args.workload, args.seed)

    import workloads  # puts this checkout's src/ first on sys.path
    import tracing

    print("record " + json.dumps(run_record(args)))
    factory, nominal_op_s = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as work:
        workload = factory(args.seed, Path(work))
        if args.trace:
            n_ops = traced_ops(args.seconds, nominal_op_s)
            untraced = measure(workload, workloads.FAILURES, args.seconds, n_ops)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                records = measure(workload, workloads.FAILURES, args.seconds, n_ops, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics()
            metrics["package.import_s"] = statistics.median(imports)
            metrics["trace.overhead_ratio"] = (
                sum(r.seconds for r in records) / sum(r.seconds for r in untraced)
            )
            units = PER_LAYER_UNITS
        else:
            records = measure(workload, workloads.FAILURES, args.seconds, warmup=WARMUP_OPS)
            units = END_TO_END_UNITS

    ok = [r for r in records if r.outcome is not None]
    summary = end_to_end(records)
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(walls),
            "ops_per_s": summary["ops_per_s"],
            "op_s_p50": summary["op_s_p50"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"ess_per_s {summary['ess_per_s']!r} 1/s  (not gated: see bench/README.md)")
    print(f"fail_ratio {summary['fail_ratio']!r}  ({len(records) - len(ok)} of {len(records)} operations)")
    print(f"op_s_p50 sample count {sum(r.timed for r in ok)}; warm-up operations "
          f"{sum(not r.timed for r in records)}; setup probes {SETUP_PROBES}")
    covered = [r.outcome.covered for r in ok if r.outcome.covered is not None]
    if covered:
        print(f"coverage {sum(covered)}/{len(covered)} ellipsoids hold the truth (criterion 6 asks >= 42/50)")
    for r in records:
        if r.error is not None:
            print(f"failed operation {r.index}: {r.error}")
    result = {
        "correct": bool(ok) and not any(r.check_failed for r in records),
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
