"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload scale-hist --seed 1 --seconds 30 --trace 0

The process is single-threaded: BLAS threads and the library's evaluation
pool (ORBITPOOL_THREADS) are pinned to one before numpy loads.  The run
sets the workload up several times (inputs, filter bank, one warm-up item)
and reports the median set-up time; then it runs whole rounds of the
workload's items until ``--seconds`` have passed, give or take half a
round; then it checks the outputs.  With ``--trace 1`` the library's
functions are wrapped for the whole run and the per-layer figures are
printed instead of the end-to-end ones.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 when every check passed, 1 when one failed, and 2
when the library cannot be found next to this directory.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ORBITPOOL_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 3
SRC = Path(__file__).resolve().parent.parent / "src"


def _import_library():
    if not (SRC / "orbitpool" / "__init__.py").is_file():
        print(f"run.py: no orbitpool package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import orbitpool

    if Path(orbitpool.__file__).resolve().parent != SRC / "orbitpool":
        print(f"run.py: imported orbitpool from {orbitpool.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def run_rounds(workload, inputs, seconds):
    """Whole rounds until ``seconds`` pass; stop at the round end nearest to it."""
    rounds, times, failed = [], [], 0
    cpu0, start = time.process_time(), time.perf_counter()
    while True:
        results = []
        for item in inputs.items:
            t0 = time.perf_counter()
            try:
                results.append((item, workload.run_item(inputs, item)))
            except Exception:
                failed += 1
                traceback.print_exc()
            times.append(time.perf_counter() - t0)
        rounds.append(results)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    return rounds, times, failed, time.process_time() - cpu0, elapsed


def main(argv=None):
    _import_library()
    import tracing  # these import orbitpool, so only once the path is set
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    if tracer:
        tracer.phase = tracing.TIMED
    rounds, times, failed, cpu_s, wall_s = run_rounds(workload, inputs, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    map_single, map_pooled, failures = workload.score(inputs, rounds[0])
    for n, later in enumerate(rounds[1:], start=2):
        if workload.score(inputs, later)[:2] != (map_single, map_pooled):
            failures.append(f"round {n} does not repeat round 1's mean AP")
    failures += workload.check(inputs, args.seed)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    attempted = len(times)
    if tracer:
        metrics = tracing.layer_metrics(tracer, attempted, SETUP_REPEATS, cpu_s, wall_s)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": ((attempted - failed) / wall_s, "1/s"),
            "item_p50_s": (statistics.median(times), "s"),
            "map_single": (map_single, "ratio"),
            "map_pooled": (map_pooled, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(
        f"{args.workload}: {len(rounds)} rounds of {len(inputs.items)} items, "
        f"{wall_s:.2f} s timed, {len(failures)} check failures"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
