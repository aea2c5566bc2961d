"""latcsim benchmark: one command, one workload, one result line.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src/`` directory. With ``--trace 0`` the last stdout line holds the
end-to-end metrics of BENCHMARK.json, measured with no tracing. With
``--trace 1`` it holds the per-layer metrics: set-up runs traced, then
blocks of operations alternate untraced and traced, and the difference
between the two is reported as the tracing overhead. The line before the
result is a JSON record of the machine, the inputs and a sha256 of the
simulated outputs.
See perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("mc-error-vs-k", "latc-sessions", "cli-cold")
# BLAS and OpenMP pools pinned to one thread: a plain single-threaded run
# is the steadiest baseline on a small shared machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# cold set-ups in fresh processes, besides the measuring process's own
SETUP_CHILDREN = {"mc-error-vs-k": 4, "latc-sessions": 2}
CLI_IMPORT_SAMPLES = 9
MAX_LOGGED_FAILURES = 3


def prepare() -> None:
    """Pin thread pools and import latcsim from this checkout's src/.

    Runs before numpy is first imported, which reads the thread settings.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "latcsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no latcsim package in {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import latcsim

    if Path(latcsim.__file__).resolve().parent != SRC / "latcsim":
        raise SystemExit(f"perfbench: imported latcsim from {latcsim.__file__}, not {SRC}")


def make_workload(name: str, seed: int, work_dir: Path | None = None):
    import workloads

    if name == "mc-error-vs-k":
        return workloads.McErrorVsK(seed)
    if name == "latc-sessions":
        return workloads.LatcSessions(seed)
    return workloads.CliCold(seed, work_dir, BENCH_DIR / "child.py", dict(os.environ))


@dataclass
class Loop:
    """Outcome of one closed loop: index and seconds of each successful operation."""

    ops: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    units: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0


def closed_loop(workload, seconds: float, before_op=None) -> Loop:
    """Run operations back to back until `seconds` have passed."""
    loop = Loop()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        if before_op is not None:
            before_op(i)
        loop.attempted += 1
        try:
            units, op_seconds = workload.op(i)
        except Exception:  # a failed operation is counted, and the run goes on
            loop.failed += 1
            if loop.failed <= MAX_LOGGED_FAILURES:
                print(f"perfbench: operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            loop.ops.append(i)
            loop.times.append(op_seconds)
            loop.units += units
        i += 1
    loop.elapsed = time.perf_counter() - start
    return loop


def setup_samples(name: str, seed: int) -> list[float]:
    """Cold set-up times from fresh processes.

    For cli-cold the set-up a user pays is interpreter start plus importing
    latcsim.cli, timed from outside; the other workloads time their own
    set-up inside the child.
    """
    from workloads import CHILD_TIMEOUT_S

    samples = []
    if name == "cli-cold":
        for _ in range(CLI_IMPORT_SAMPLES):
            start = time.perf_counter()
            # output pipes make run() return at the child's exit; without them
            # a wait with a timeout polls in steps of up to 50 ms
            subprocess.run(
                [sys.executable, "-c", "import latcsim.cli"],
                check=True, capture_output=True, timeout=CHILD_TIMEOUT_S,
            )
            samples.append(time.perf_counter() - start)
        return samples
    for _ in range(SETUP_CHILDREN[name]):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), "setup", name, str(seed)],
            check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _median_ms(times: list[float]) -> float:
    return statistics.median(times) * 1e3 if times else 0.0


def _percentile_ms(times: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(times, q)) * 1e3 if times else 0.0


def end_to_end(args, workload) -> tuple[dict, Loop, dict]:
    samples = setup_samples(args.workload, args.seed)
    start = time.perf_counter()
    workload.setup()
    if args.workload != "cli-cold":
        samples.append(time.perf_counter() - start)
    loop = closed_loop(workload, args.seconds)
    metrics = {
        "setup_s": statistics.median(samples),
        "throughput_per_s": loop.units / loop.elapsed,
        "op_p50_ms": _median_ms(loop.times),
        "op_p95_ms": _percentile_ms(loop.times, 95),
        "peak_rss_mb": peak_rss_mb(args.workload),
    }
    return metrics, loop, {"setup_samples_s": samples, "ops": len(loop.times)}


def per_layer(args, workload) -> tuple[dict, Loop, dict]:
    """Traced set-up, then blocks of operations that alternate untraced and
    traced, so host speed drifts hit both halves alike."""
    import spans
    import workloads

    rec = spans.Recorder()
    rec.install()
    workload.setup()
    rec.uninstall()

    def is_traced(i: int) -> bool:
        return (i // workload.PERIOD) % 2 == 1

    cli = isinstance(workload, workloads.CliCold)

    def before_op(i: int) -> None:
        rec.op = i
        if is_traced(i) and not rec.installed:
            rec.install()
        elif not is_traced(i) and rec.installed:
            rec.uninstall()
        if cli:
            workload.traced = is_traced(i)

    loop = closed_loop(workload, args.seconds, before_op)
    if rec.installed:
        rec.uninstall()

    summaries = [rec.summary()]
    if cli:  # a child that failed may have left no summary; its cycle counts as failed
        summaries += [json.loads(p.read_text()) for p in workload.trace_files if p.is_file()]
    summary = spans.merge(summaries)
    metrics = spans.layer_metrics(summary)

    untraced = [t for i, t in zip(loop.ops, loop.times) if not is_traced(i)]
    traced = [t for i, t in zip(loop.ops, loop.times) if is_traced(i)]
    walls = workload.walls if cli else []
    for label, _, _ in workloads.CLI_RUNS:
        mine = [t for i, name, t in walls if name == label and not is_traced(i)]
        metrics[f"cli.{label}.wall_s"] = statistics.median(mine) if mine else 0.0
    base = _median_ms(untraced)
    metrics["trace.overhead_ms"] = _median_ms(traced) - base
    metrics["trace.overhead_frac"] = metrics["trace.overhead_ms"] / base if base else 0.0
    extra = {
        "ops_untraced": len(untraced),
        "ops_traced": len(traced),
        "absent_spans": summary["absent"],
    }
    return metrics, loop, extra


def blas_threads():
    """OpenBLAS's own thread count, asked through numpy's core extension,
    whose symbol lookup reaches the OpenBLAS it links."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as core
    handle = ctypes.CDLL(core.__file__)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, workload) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "src_sha256": source_sha256(),
        "config_sha256": workload.config_sha256,
        "outputs_sha256": workload.digest.hexdigest(),
        "outputs_hashed_ops": workload.hashed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, work_dir)
        measure = per_layer if args.trace else end_to_end
        values, loop, extra = measure(args, workload)
        record = {**environment(args, workload), **extra}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # not empty: another run's directory is still there
            pass

    names = [m["name"] for m in listed]
    if sorted(names) != sorted(values):
        raise SystemExit(f"perfbench: computed metrics {sorted(set(values) ^ set(names))} differ from BENCHMARK.json")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
