"""Tracing overhead: the same items traced and untraced, in one process.

    python3 perfbench/overhead.py --workload scale-hist --groups 30

Each group runs one item of the seed-1 inputs four times, in ABBA order:
untraced, traced, traced, untraced, so that a slow spell of the machine
falls on both sides alike.  A group's overhead is its traced time over
its untraced time, minus one.  The script prints the median and the
quartiles over the groups.
"""

import argparse
import statistics
import sys
import time

import run  # pins BLAS and the evaluation pool to one thread before numpy loads


def timed(workload, inputs, item):
    t0 = time.perf_counter()
    workload.run_item(inputs, item)
    return time.perf_counter() - t0


def main(argv=None):
    run._import_library()
    import tracing
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--groups", type=int, default=30)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(1)
    tracer = tracing.Tracer()
    tracer.phase = tracing.TIMED

    overheads = []
    for g in range(args.groups):
        item = inputs.items[g % len(inputs.items)]
        plain = timed(workload, inputs, item)
        tracer.install()
        traced = timed(workload, inputs, item) + timed(workload, inputs, item)
        tracer.uninstall()
        plain += timed(workload, inputs, item)
        overheads.append(traced / plain - 1.0)

    q1, med, q3 = statistics.quantiles(overheads, n=4)
    print(f"{args.workload}: tracing overhead {med:+.1%} (quartiles {q1:+.1%} to {q3:+.1%}, "
          f"{args.groups} groups)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
