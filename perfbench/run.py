"""Run one plapopt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

from the root of a checkout.  The run imports plapopt from ``src/`` of
that checkout, measures set-up in fresh processes, runs one untimed
warm-up op, then repeats whole rounds of the workload's op list until the
ops have taken ``--seconds`` of wall time, checking every output.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (per round) with ``--trace 1``.
Lines before it start with ``#``: the machine header and a run summary.
"""

import os
import sys

# one BLAS/OpenMP thread; this has to happen before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import plapopt from this checkout's src/ and the workload module."""
    package = SRC / "plapopt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no plapopt sources at {package}")
    sys.path.insert(0, str(SRC))
    import plapopt
    if Path(plapopt.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: plapopt imported from "
                         f"{plapopt.__file__}, not from {package}")
    import workloads
    return workloads


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import and build inputs."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def header(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": f"{blas['name']} {blas.get('version', '?')}",
        "scipy_blas": f"{scipy_blas['name']} {scipy_blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


class Run:
    """Counters and check results of one benchmark run."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.correct = True
        self.attempted = self.failed = self.completed = 0
        self.timed = 0.0
        self.op_times: dict[str, list[float]] = {}

    def check(self, op, out):
        try:
            op.check(out)
        except self.workloads.CheckFailed as exc:
            self.correct = False
            print(f"# check failed: {op.name}: {exc}", file=sys.stderr)

    def timed_op(self, op, tracer, round_index: int):
        """Run one op inside the timed region; failures are counted."""
        if tracer is not None:
            tracer.op = f"{round_index}/{op.name}"
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:
            # a failing op is a measured outcome: count it and go on
            self.timed += time.perf_counter() - t0
            self.attempted += 1
            self.failed += 1
            print(f"# op failed: {op.name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return
        elapsed = time.perf_counter() - t0
        self.timed += elapsed
        self.attempted += 1
        self.completed += 1
        self.op_times.setdefault(op.name, []).append(elapsed)
        self.check(op, out)


def run_workload(workloads, args, workdir: Path):
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    run = Run(workloads)
    run.check(workload.warmup, workload.warmup.run())

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    rounds = 0
    try:
        while True:
            for op in workload.ops:
                run.timed_op(op, tracer, rounds)
            rounds += 1
            if run.timed >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    for _ in range(rounds, workload.min_rounds):
        for op in workload.ops:
            # untimed and uncounted: only for the cross-round checks
            try:
                out = op.run()
            except Exception as exc:
                run.correct = False
                print(f"# untimed repeat of {op.name} failed: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            run.check(op, out)
    print("# summary " + json.dumps({
        "rounds": rounds, "timed_s": run.timed,
        "op_s_median": {k: statistics.median(v)
                        for k, v in run.op_times.items()}}))

    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = tracer.metrics(rounds)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": {"value": run.completed / run.timed,
                          "unit": "op/s"},
            "setup_s": {"value": args.setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    return {"correct": run.correct, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, OUT / "probe")
        return 0
    args.setup_s = measure_setup(args.workload, args.seed)
    print("# header " + json.dumps(header(args)), flush=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
