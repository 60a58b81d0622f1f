"""Run workloads repeatedly and report how steady each metric is.

    python3 perfbench/steady.py                       # 10 seeds, every workload
    python3 perfbench/steady.py --runs 1              # every workload once
    python3 perfbench/steady.py --workloads scale-hist --runs 5 --traced

Each run is a fresh ``run.py`` process with its own seed (1, 2, ...,
runs); workloads take turns so that slow spells on a shared
machine fall on all of them.  For every end-to-end metric the report gives
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  ``--traced`` adds one ``--trace 1`` run after each plain
run and reports the per-layer medians; ``overhead.py`` measures what the
tracing costs.

The raw results go to ``perfbench/results/steady-<time>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    took = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    result["process_s"] = took
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: (m["bound"], m["unit"]) for m in spec["end_to_end"]}

    runs = {w: {"plain": [], "traced": []} for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            for kind, trace in (("plain", 0), ("traced", 1))[: 1 + args.traced]:
                r = run_once(w, seed, spec["run_seconds"], trace)
                r["seed"] = seed
                runs[w][kind].append(r)
                print(f"{w} seed {seed} trace {trace}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} {r['process_s']:.1f} s",
                      flush=True)

    for w in workloads:
        plain = runs[w]["plain"]
        shares = sorted({r["failed"] / r["attempted"] for r in plain})
        print(f"\n{w}: {len(plain)} runs, all correct: {all(r['correct'] for r in plain)}, "
              f"failed shares: {shares}, longest process: {max(r['process_s'] for r in plain):.1f} s")
        print(f"  {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, (bound, unit) in bounds.items():
            values = [r["metrics"][name]["value"] for r in plain]
            if len(values) < 2:
                print(f"  {name:<14} {unit:<6} {values[0]:>12.6g}")
                continue
            q1, med, q3, rel = spread(values)
            verdict = "ok" if rel <= bound / 3 else ("wide" if rel <= bound else "TOO WIDE")
            print(f"  {name:<14} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.2%} {bound:>6} {verdict}")
        traced = runs[w]["traced"]
        if traced:
            print("  per-layer medians of the traced runs:")
            for name, m in traced[0]["metrics"].items():
                med = statistics.median(r["metrics"][name]["value"] for r in traced)
                print(f"    {name:<40} {med:>12.6g} {m['unit']}")

    out = HERE / "results" / time.strftime("steady-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0 if all(r["correct"] for w in runs.values() for k in w.values() for r in k) else 1


if __name__ == "__main__":
    sys.exit(main())
