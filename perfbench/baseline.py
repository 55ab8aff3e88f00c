"""Repeat ``run.py`` over seeds and summarise it as the committed baseline.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 10 --seconds 36 --out perfbench/baseline.json

For each workload this makes one untraced run per seed 0 .. seeds-1 and
reports every end-to-end metric's median, quartiles (``statistics.quantiles``
with n=4) and spread, (q3 - q1) / median, the way the benchmark's acceptance
check computes it.  It then makes ``--traced`` traced runs at seed 0, keeps
the first one's per-layer numbers, checks that every count repeats, and
reports the tracing overhead: ``traced.cpu_s`` minus the CPU time of the
first (same-seed, same-operation) untraced pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def run(workload, seed, seconds, trace):
    """``(result, env, detail)`` of one run, from its output lines."""
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1] if " " in line}
    return json.loads(lines[-1]), json.loads(tagged["env"]), json.loads(tagged["detail"])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values), "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=["table5-sweep", "q-extrapolation", "large-n-roundtrip"])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--traced", type=int, default=2)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    report = {
        "about": (
            f"perfbench/baseline.py --seeds {args.seeds} --seconds {args.seconds} "
            f"--traced {args.traced}. end_to_end: one untraced run per seed 0-{args.seeds - 1}; "
            "median, quartiles (statistics.quantiles n=4) and spread = (q3 - q1) / median. "
            "per_layer: the first traced run at seed 0; counts_repeat compares the count "
            "metrics of all traced runs at seed 0. tracing_overhead_s: traced.cpu_s minus "
            "the CPU time of the first pass of the seed-0 untraced run. Times are CPU seconds."
        ),
        "machine": None,
        "end_to_end": {},
        "per_layer": {},
        "counts_repeat": {},
        "tracing_overhead_s": {},
    }
    for workload in args.workloads:
        results, first_pass = [], None
        for seed in range(args.seeds):
            result, env, detail = run(workload, seed, args.seconds, 0)
            results.append(result)
            if seed == 0:
                first_pass = detail["whole_passes_cpu_s"][0]
                report["machine"] = {k: v for k, v in env.items() if k not in ("workload", "seed")}
            print(workload, seed, f"scale {detail['scale']:.4f}", json.dumps(result), flush=True)
        entry = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
        }
        for name, m in results[0]["metrics"].items():
            entry[name] = {"unit": m["unit"],
                           **summary([r["metrics"][name]["value"] for r in results])}
            print(f"  {name}: spread {entry[name]['spread']:.4f}", flush=True)
        report["end_to_end"][workload] = entry

        traced = [run(workload, 0, args.seconds, 1)[0] for _ in range(args.traced)]
        if traced:
            report["per_layer"][workload] = {k: m["value"] for k, m in traced[0]["metrics"].items()}
            counts = [{k: m["value"] for k, m in t["metrics"].items() if m["unit"] != "s"}
                      for t in traced]
            report["counts_repeat"][workload] = all(c == counts[0] for c in counts)
            cpu = [t["metrics"]["traced.cpu_s"]["value"] for t in traced]
            report["tracing_overhead_s"][workload] = {
                "traced_cpu_s": cpu,
                "untraced_first_pass_s": first_pass,
                "overhead_s": [c - first_pass for c in cpu],
            }

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
