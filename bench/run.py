"""cpbsim benchmark: one workload, one seed, a closed loop for a fixed time.

Run from the root of a checkout:

    python3 bench/run.py --workload ensemble --seed 7 --seconds 35 --trace 0

One client runs whole operations back to back (closed loop) for about
``--seconds`` after a warm-up, driving the program only through ``cpbsim.cli.main(argv)``.
Every operation is validated (see checks.py); a failed check counts the
operation as failed. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics. The last line of stdout is the result object; the full
record (environment, per-operation times, checks) goes to
``bench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: BLAS/OpenMP threads for every process of a run: a fixed single thread,
#: never more than nproc, and the plain single-threaded baseline.
PIN_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_SAMPLES = 7

COUNT_UNITS = ("count", "B", "flop")

#: Operations per run at the least: two samples, and with tracing one
#: untraced and one traced operation.
MIN_OPS = 2

SETUP_SNIPPET = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
import cpbsim
from cpbsim import config
config.config_from_mapping(json.loads(sys.argv[2]))
print(time.monotonic())
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="tiny problem sizes and one set-up sample (self-test only)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(mapping: dict, samples: int) -> list:
    """Seconds from launching a fresh interpreter until cpbsim is imported
    and the workload's config is built (CLOCK_MONOTONIC is system-wide)."""
    times = []
    for _ in range(samples):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), json.dumps(mapping)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": PIN_THREADS,
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
            check=False,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Runner:
    """Runs and validates operations of one workload inside ``workdir``."""

    def __init__(self, workload, seed: int, tiny: bool, workdir: Path) -> None:
        import checks
        from cpbsim import cli

        self.cli = cli
        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.mapping = workload.mapping(tiny)
        self.reference = None if tiny else checks.load_reference(workload.name)
        self.workdir = workdir
        self.config_path = workdir / ("config-tiny.json" if tiny else "config.json")
        self.config_path.write_text(json.dumps(self.mapping), encoding="utf-8")

    def op(self, tracer=None, op_id=None) -> dict:
        """One operation; returns its wall time, checks and output sizes."""
        opdir = Path(tempfile.mkdtemp(prefix="op-", dir=self.workdir))
        try:
            argvs = self.workload.argvs(str(self.config_path), self.seed, opdir)
            codes, error = [], None
            if tracer is not None:
                tracer.op = op_id
                first_span = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    for argv in argvs:
                        codes.append(self.cli.main(argv))
                else:
                    with tracing.installed(tracer):
                        t0 = time.perf_counter()
                        for argv in argvs:
                            codes.append(self.cli.main(argv))
            except (Exception, SystemExit) as exc:  # an operation may fail; the run goes on
                error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
                traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - t0
            result = {"wall_s": wall, "traced": tracer is not None}
            if error is not None:
                result["problems"] = [error]
                return result
            dirs = {cmd: opdir / cmd for cmd in self.workload.commands}
            sums, problems = self.checks.validate(
                self.workload, dirs, codes, self.mapping, self.seed, self.reference
            )
            files = [p for d in dirs.values() if d.is_dir() for p in d.iterdir()]
            result.update(
                problems=problems,
                sha256=sums,
                files_written=len(files),
                bytes_written=sum(p.stat().st_size for p in files),
            )
            if tracer is not None:
                result["first_span"] = first_span
                result["last_span"] = len(tracer.spans)
            return result
        finally:
            shutil.rmtree(opdir, ignore_errors=True)


def closed_loop(runner: Runner, seconds: float, traced: bool):
    """Whole operations back to back while the next one is expected to end
    within ``seconds``; at least two run. With tracing, operations alternate
    untraced/traced."""
    tracer = tracing.Tracer() if traced else None
    ops = []
    start = time.perf_counter()
    while True:
        use_tracer = traced and len(ops) % 2 == 1
        ops.append(runner.op(tracer if use_tracer else None, op_id=len(ops)))
        elapsed = time.perf_counter() - start
        if len(ops) >= MIN_OPS and elapsed * (len(ops) + 1) / len(ops) > seconds:
            break
    return ops, tracer, start


def end_to_end(ops: list, setup_times: list) -> dict:
    """wall_s is the mean time per operation. A shared host's load shifts
    between levels for seconds to minutes at a time; the mean follows the
    share of the run spent at each level smoothly, while the median jumps
    from one level to the next, so the mean repeats more closely between
    runs (see README.md, "Run-to-run spread")."""
    ok = [o for o in ops if not o["problems"]]
    walls = [o["wall_s"] for o in (ok or ops)]
    return {
        "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "ops_ok_ratio": {"value": len(ok) / len(ops), "unit": "ratio"},
    }


def per_layer(ops: list, tracer, n_charges: int):
    """Median per-operation layer metrics over the traced operations, plus
    the run-level checks on the spans; returns (metrics, problems, detail)."""
    problems, profiles = [], []
    for o in ops:
        if not o["traced"] or "first_span" not in o:
            continue
        prof = tracing.OpProfile(tracer.spans[o["first_span"] : o["last_span"]], o["first_span"])
        o["untraced_s"] = prof.check_closure(o["wall_s"])
        o["self_sum_s"] = prof.self_sum
        problems += [f"op {len(profiles)}: {p}" for p in prof.problems]
        profiles.append((o, prof))
    if not profiles:
        return {}, ["no traced operation completed"], {}
    signature = profiles[0][1].count_signature()
    for _o, prof in profiles[1:]:
        if prof.count_signature() != signature:
            problems.append("call/work counts differ between traced operations")
    per_op = [
        tracing.layer_metrics(prof, n_charges, o["bytes_written"], o["files_written"])
        for o, prof in profiles
    ]
    # counts repeat exactly between operations (checked above); times vary
    metrics = {
        name: {
            "value": value if unit in COUNT_UNITS else statistics.median(m[name][0] for m in per_op),
            "unit": unit,
        }
        for name, (value, unit) in per_op[0].items()
    }
    traced_walls = [o["wall_s"] for o in ops if o["traced"]]
    plain_walls = [o["wall_s"] for o in ops if not o["traced"]]
    metrics["trace.overhead_s"] = {
        "value": statistics.fmean(traced_walls) - statistics.fmean(plain_walls),
        "unit": "s",
    }
    return metrics, problems, {"counts_per_op": signature, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cpbsim" / "cli.py").is_file():
        print(f"bench: no cpbsim sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(PIN_THREADS)
    sys.path.insert(0, str(SRC))

    # numpy (through cpbsim and checks) is imported only once the thread pin
    # is in place; the modules imported at the top do not import it
    import cpbsim
    from cpbsim.config import config_from_mapping

    if Path(cpbsim.__file__).resolve().parent != (SRC / "cpbsim").resolve():
        print(f"bench: imported cpbsim from {cpbsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    print(json.dumps({"environment": env}))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{workload.name}-", dir=OUT_DIR))
    try:
        runner = Runner(workload, args.seed, args.tiny, workdir)
        n_charges = config_from_mapping(runner.mapping).device.n_charges
        setup_times = []
        if not args.trace:
            samples = 1 if args.tiny else SETUP_SAMPLES
            setup_times = measure_setup({**runner.mapping, "seed": args.seed}, samples)
        warm = Runner(workload, args.seed, True, workdir).op()
        if warm["problems"]:
            print(f"bench: warm-up operation failed: {warm['problems']}", file=sys.stderr)
        ops, tracer, t0 = closed_loop(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in ops if o["problems"])
    run_problems = []
    first_sums = next((o["sha256"] for o in ops if "sha256" in o and not o["problems"]), None)
    if any("sha256" in o and not o["problems"] and o["sha256"] != first_sums for o in ops):
        run_problems.append("payload bytes differ between operations of one seed")
    detail = {}
    if args.trace:
        metrics, trace_problems, detail = per_layer(ops, tracer, n_charges)
        run_problems += trace_problems
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path, t0)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(ops, setup_times)
    correct = failed == 0 and not run_problems and not warm["problems"]

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": env,
        "loop": "closed, 1 client",
        "config": runner.mapping,
        "setup_s_samples": setup_times,
        "ops": [{k: v for k, v in o.items() if k not in ("first_span", "last_span")} for o in ops],
        "ops_failed_ratio": failed / len(ops),
        "wall_s_samples": len([o for o in ops if not o["problems"]]),
        "run_problems": run_problems,
        "metrics": metrics,
        **detail,
    }
    record_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for o in ops:
        for p in o["problems"]:
            print(f"bench: failed operation: {p}", file=sys.stderr)
    for p in run_problems:
        print(f"bench: {p}", file=sys.stderr)
    print(
        json.dumps(
            {
                "ops": len(ops),
                "ops_failed_ratio": record["ops_failed_ratio"],
                "wall_s_per_op": [round(o["wall_s"], 6) for o in ops],
                "record": str(record_path.relative_to(ROOT)),
            }
        )
    )
    print(
        json.dumps(
            {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
