"""Benchmark of softlogic: train, eval and extract, timed end to end.

    python3 perfbench/run.py --workload gate4-cv --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src`` directory, never from an installed copy.  One run sets
up its workload from the seed, then runs whole rounds of ops (train, eval,
extract) until ``--seconds`` have passed, checks every op's output against
``checks.py`` and prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics, with tracing off;
* ``--trace 1``: the per-layer metrics of ``layers.py``, from spans
  recorded around the package's public functions.

Without ``--workload`` it runs every workload once, each in a fresh
interpreter, and prints a table.  Files go to ``perfbench/runs/``.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
WORKLOAD_NAMES = ("gate4-cv", "krkp-cli")
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload and exit (one set-up sample)")
    return parser.parse_args(argv)


def import_package():
    """Import softlogic from the checkout's src; exit 2 if it comes from
    anywhere else."""
    sys.path.insert(0, str(SRC))
    import softlogic
    import softlogic.cli  # noqa: F401  (not imported by the package itself)

    if Path(softlogic.__file__).resolve().parent != SRC / "softlogic":
        print(f"softlogic imported from {softlogic.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return softlogic


def setup_samples(args) -> list[float]:
    """Wall time of complete set-ups, each in a fresh interpreter: start,
    imports, inputs generated, files written, models built."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-only"], check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return samples


def run_rounds(workload, seconds, tracer):
    """Whole rounds of ops until ``seconds`` have passed.  Returns per-op
    (kind, seconds, rows) of the ops that ran, the count of ops that
    raised, and the checks that failed."""
    ops, failed, failures = [], 0, []
    deadline = time.perf_counter() + seconds
    while True:
        for op in workload.round():
            span = tracer.op_span(op.kind) if tracer else contextlib.nullcontext()
            try:
                with span:
                    c0, t0 = time.process_time(), time.perf_counter()
                    result = op.run()
                    elapsed = time.perf_counter() - t0
                    cpu = time.process_time() - c0
            except Exception:  # an op that raises is a failed op, not a crash
                traceback.print_exc()
                failed += 1
                continue
            ops.append((op.kind, elapsed, op.rows(result), cpu))
            try:
                op.check(result)
            except AssertionError as exc:
                failures.append(f"{op.kind}: {exc}")
        if time.perf_counter() >= deadline:
            return ops, failed, failures


def end_to_end(ops, setup) -> dict:
    def rate(kind):
        seconds = sum(op[1] for op in ops if op[0] == kind)
        return sum(op[2] for op in ops if op[0] == kind) / seconds if seconds else 0.0

    extract_times = [op[1] for op in ops if op[0] == "extract"] or [0.0]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "train_rows_per_s": {"value": rate("train"), "unit": "rows/s"},
        "eval_rows_per_s": {"value": rate("eval"), "unit": "rows/s"},
        "extract_s_p50": {"value": statistics.median(extract_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def run_one(args) -> int:
    setup = [] if args.trace or args.setup_only else setup_samples(args)
    t_import = time.perf_counter()
    sl = import_package()
    import_s = time.perf_counter() - t_import
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install(sl)
    workdir = RUNS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        workload = workloads.WORKLOADS[args.workload](sl, args.seed, workdir)
        if args.setup_only:
            return 0
        ops, failed, failures = run_rounds(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    stem = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = end_to_end(ops, setup)
    else:
        import layers

        tracer.save(stem)
        metrics = layers.per_layer(tracer, import_s)
    result = {"correct": not failures, "attempted": len(ops) + failed, "failed": failed,
              "metrics": metrics}
    stem.with_suffix(".result.json").write_text(json.dumps(
        {**result, "ops": ops, "setup_samples": setup, "seconds": args.seconds,
         "failures": failures}, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload once, each in a fresh interpreter, as a table."""
    print(f"{'workload':10} {'metric':18} {'value':>14} unit")
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name:10} failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name:10} {'ops attempted':18} {result['attempted']:>14}")
        print(f"{name:10} {'ops failed':18} {result['failed']:>14}")
        print(f"{name:10} {'outputs correct':18} {str(result['correct']):>14}")
        for metric, entry in result["metrics"].items():
            print(f"{name:10} {metric:18} {entry['value']:>14.6g} {entry['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "softlogic" / "__init__.py").is_file():
        print(f"no softlogic package under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
