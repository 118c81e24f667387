"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0]
                               [--out perfbench/BENCH_name.json]

Reads BENCHMARK.json at the checkout root for the command, the run length,
the workloads and the bounds.  For each workload and metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median, next to the
metric's bound.  With ``--out`` it writes all of that, with every run's
values and environment, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    env = None
    for seed in seeds:
        for w in workloads:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{w} seed {seed}: exit code {done.returncode}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), env)
            result["wall_s"] = wall
            result["seed"] = seed
            runs[w].append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                              for m in metrics[:6])
            print(f"{w:<18} seed {seed:<4} wall {wall:6.1f}s correct={result['correct']} "
                  f"{values}", flush=True)

    summary = {}
    print(f"\n{'workload':<18} {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        rows = {}
        for m in metrics:
            s = summarise([r["metrics"][m["name"]]["value"] for r in runs[w]])
            s["unit"] = m["unit"]
            rows[m["name"]] = s
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{w:<18} {m['name']:<26} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {spread:>8} {m.get('bound', '-'):>6}")
        summary[w] = {
            "metrics": rows,
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "all_correct": all(r["correct"] for r in runs[w]),
            "wall_s": [r["wall_s"] for r in runs[w]],
        }

    if args.out:
        env = dict(env or {}, workload=None, seed=None)
        doc = {
            "env": env,
            "command": bench["command"],
            "run_seconds": bench["run_seconds"],
            "trace": args.trace,
            "seeds": seeds,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
