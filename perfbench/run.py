"""Benchmark runner for regionsim: one workload per process.

    python3 perfbench/run.py --workload default-res --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports the simulator from that
checkout's ``src/`` and drives it only through the calls the CLI makes,
``sim.run(config, seed)`` then ``sim.emit_outputs(report, dir)``.  It is
closed-loop and single-threaded: one caller, and each run starts when the
previous one ends.

It samples the runs of the workload's run list round-robin until
``--seconds`` is used up (every run at least once), takes a pass over the run
list to last the sum of each run's median time, checks every run's outputs,
and prints as its last stdout line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the sampling leaves
room for one more pass with the program's module functions wrapped, and the
metrics are the per-module ones.
"""

import os

# the runner's own numerics stay single-threaded on a shared host
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 7

if not (SRC / "regionsim" / "__init__.py").is_file():
    sys.exit(f"run.py: no regionsim source under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from regionsim import sim  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from outcheck import check_report, compare_stats, digest_outputs, run_stats  # noqa: E402
from tracing import Tracer, module_metrics, span_seconds  # noqa: E402
from workloads import WORKLOADS, warmup_list  # noqa: E402

END_TO_END_UNITS = {
    "pass_s": "s",
    "sim_pkts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "scenario.deploy_s": "s",
    "graph.build_s": "s",
    "graph.arcs": "count",
    "flood.run_s": "s",
    "flood.tx": "count",
    "flood.rx": "count",
    "flood.accept_ratio": "ratio",
    "flood.naive_s": "s",
    "flood.naive_calls": "count",
    "flood.cells_s": "s",
    "regions.dual_s": "s",
    "regions.dual_arcs": "count",
    "routing.tables_s": "s",
    "routing.route_s": "s",
    "routing.route_calls": "count",
    "routing.hops_mean": "hops",
    "routing.established_ratio": "ratio",
    "energy.charges": "count",
    "energy.accruals": "count",
    "energy.balance_reads": "count",
    "sim.run_s": "s",
    "sim.self_s": "s",
    "sim.self_share": "ratio",
    "sim.emit_s": "s",
    "sim.out_bytes": "bytes",
    "sim.packets": "count",
    "sim.delivery_ratio": "ratio",
    "sim.deaths": "count",
    "trace.overhead": "ratio",
}


@dataclass
class RunOutcome:
    stats: dict | None  # None when the run raised
    digest: str | None
    out_bytes: int
    problems: list[str]


@dataclass
class Sample:
    seconds: float  # wall time inside sim.run and sim.emit_outputs
    outcome: RunOutcome
    ref_seconds: float | None = None  # `seconds` at the reference host speed


def run_sample(config, seed, tracer: Tracer, run_id: int, run_dir: Path) -> Sample:
    """One timed run and its output check; the outputs are deleted afterwards."""
    gc.collect()  # every run starts from a collected heap, as in a fresh process
    first = len(tracer.spans)
    tracer.run_id = run_id
    try:
        with tracer.span("sim.run"):
            report = sim.run(config, seed)
        with tracer.span("sim.emit"):
            paths = sim.emit_outputs(report, run_dir)
        digest, size = digest_outputs(paths, run_dir)
        outcome = RunOutcome(run_stats(report), digest, size,
                             check_report(report, config.battery_j))
    except Exception as exc:
        traceback.print_exc()
        outcome = RunOutcome(None, None, 0, [f"run: raised {exc!r}"])
    finally:
        tracer.run_id = None
        shutil.rmtree(run_dir, ignore_errors=True)
    spans = tracer.spans[first:]
    return Sample(span_seconds(spans, "sim.run") + span_seconds(spans, "sim.emit"), outcome)


def run_pass(runs, tracer: Tracer, run_ids) -> list[Sample]:
    """One sample of every run of the run list, in order."""
    with tempfile.TemporaryDirectory(prefix="pass-", dir=OUT) as tmp:
        return [run_sample(config, seed, tracer, next(run_ids), Path(tmp) / f"run{i}")
                for i, (config, seed) in enumerate(runs)]


def pass_seconds(samples: list[list[Sample]], attr: str = "seconds") -> float:
    """A pass's time: the sum over the run list of each run's median time."""
    return sum(statistics.median(getattr(s, attr) for s in entry) for entry in samples)


def measure(runs, seconds: float, tracer: Tracer, run_ids, probe, reserve: float = 0.0):
    """Samples of each run of the run list, taken round-robin, and set-up
    probes spread evenly over the same `seconds`.

    A sample starts only if its run's median wall time so far, plus
    `reserve` times the current pass estimate, still fits in `seconds`; the
    first round always runs.  The host's speed is calibrated between any two
    timed items, and each item is also scaled to the reference host speed.
    Returns one list of samples per run, and the SETUP_PROBES results of
    `probe()` as (wall, reference-speed) pairs.
    """
    samples: list[list[Sample]] = [[] for _ in runs]
    setups: list[tuple[float, float]] = []
    t_start = time.perf_counter()
    host = HostSpeed()

    def probe_scaled():
        wall = probe()
        return wall, host.scale(wall)

    with tempfile.TemporaryDirectory(prefix="samples-", dir=OUT) as tmp:
        for n in itertools.count():
            elapsed = time.perf_counter() - t_start
            if len(setups) < SETUP_PROBES and elapsed >= len(setups) * seconds / SETUP_PROBES:
                setups.append(probe_scaled())
            i = n % len(runs)
            if samples[i]:
                need = statistics.median(s.seconds for s in samples[i])
                need += reserve * pass_seconds(samples)
                if time.perf_counter() - t_start + need > seconds:
                    break
            config, seed = runs[i]
            sample = run_sample(config, seed, tracer, next(run_ids), Path(tmp) / f"run{n}")
            sample.ref_seconds = host.scale(sample.seconds)
            samples[i].append(sample)
    setups += [probe_scaled() for _ in range(SETUP_PROBES - len(setups))]
    return samples, setups


def cross_check(samples: list[list[Sample]], expected: list[dict] | None) -> None:
    """Every sample of a run must repeat its first sample's outputs and
    statistics, and match the recorded reference when there is one."""
    for i, entry in enumerate(samples):
        base = entry[0].outcome
        for sample in entry:
            o = sample.outcome
            if o.stats is None:
                continue
            if o is not base:
                if o.digest != base.digest:
                    o.problems.append("digest: outputs differ from the first sample")
                if base.stats is not None:
                    o.problems += [f"{k}: {v!r} != {base.stats[k]!r} of the first sample"
                                   for k, v in o.stats.items() if v != base.stats[k]]
            if expected is not None:
                o.problems += [f"reference {x}" for x in compare_stats(o.stats, expected[i])]


def warm_up(workload) -> None:
    with tempfile.TemporaryDirectory(prefix="warmup-", dir=OUT) as tmp:
        for i, (config, seed) in enumerate(warmup_list(workload)):
            sim.emit_outputs(sim.run(config, seed), Path(tmp) / f"run{i}")


def probe_setup(args) -> float:
    """Seconds from spawning a fresh runner process until it is ready to time
    its first run; the child prints the wall clock at that point."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - t0


def environment(args) -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        sha = lines[1] if git.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    for p in sorted((SRC / "regionsim").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def record_reference(workload: str, seed: int, samples: list[list[Sample]]) -> None:
    ref = load_reference()
    ref.setdefault(workload, {})[str(seed)] = [entry[0].outcome.stats for entry in samples]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def per_layer(traced: list[Sample], tracer: Tracer, untraced_s: float) -> dict[str, float]:
    values = module_metrics(tracer.spans, tracer.counts)
    stats = [s.outcome.stats for s in traced if s.outcome.stats]
    generated = sum(s["generated"] for s in stats)
    values["sim.out_bytes"] = sum(s.outcome.out_bytes for s in traced)
    values["sim.packets"] = generated
    values["sim.delivery_ratio"] = (
        sum(s["delivered"] for s in stats) / generated if generated else 0.0
    )
    values["sim.deaths"] = sum(s["deaths"] for s in stats)
    values["trace.overhead"] = sum(s.seconds for s in traced) / untraced_s - 1.0
    return values


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="prepare as for a measurement, print the wall clock, exit")
    ap.add_argument("--record-reference", action="store_true",
                    help="store this seed's simulated statistics in reference.json")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    runs = workload.run_list(args.seed)
    OUT.mkdir(exist_ok=True)
    warm_up(workload)
    tracer = Tracer()
    run_ids = itertools.count()
    if args.probe_setup:
        print(repr(time.time()))
        return 0

    # with --trace 1, leave room for the traced pass (about 1.4 untraced ones)
    samples, setups = measure(runs, args.seconds, tracer, run_ids,
                              probe=lambda: probe_setup(args), reserve=1.5 * args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = pass_seconds(samples, "ref_seconds")
    pass_wall_s = pass_seconds(samples)
    run_times = [[s.seconds for s in entry] for entry in samples]
    run_ref_times = [[s.ref_seconds for s in entry] for entry in samples]

    traced = None
    if args.trace:
        traced_tracer = Tracer()
        with traced_tracer.patched():
            traced = run_pass(runs, traced_tracer, run_ids)
        traced_tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        samples = [entry + [t] for entry, t in zip(samples, traced)]

    expected = None
    if not args.record_reference:
        expected = load_reference().get(args.workload, {}).get(str(args.seed))
    cross_check(samples, expected)
    outcomes = [s.outcome for entry in samples for s in entry]
    failed = sum(1 for o in outcomes if o.problems)
    if args.record_reference and not failed:
        record_reference(args.workload, args.seed, samples)
    for o in outcomes:
        for problem in o.problems:
            print(f"check failed: {problem}", file=sys.stderr)

    if traced is None:
        packets = sum(entry[0].outcome.stats["generated"]
                      for entry in samples if entry[0].outcome.stats)
        values = {
            "pass_s": pass_s,
            "sim_pkts_per_s": packets / pass_s,
            "setup_s": statistics.median(ref for _, ref in setups),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1.0 - failed / len(outcomes),
        }
        units = END_TO_END_UNITS
    else:
        values = per_layer(traced, traced_tracer, pass_wall_s)
        units = PER_LAYER_UNITS
        for name in units:
            print(f"  {name:<28} {values[name]:>16.6g} {units[name]}")

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "env": environment(args),
        "runs_per_pass": len(runs),
        "pass_s": pass_s,
        "pass_wall_s": pass_wall_s,
        "run_s_samples": run_times,
        "run_ref_s_samples": run_ref_times,
        "setup_wall_s_samples": [wall for wall, _ in setups],
        "setup_ref_s_samples": [ref for _, ref in setups],
        "traced_pass_s": sum(s.seconds for s in traced) if traced else None,
        "fail_ratio": failed / len(outcomes),
        "problems": [x for o in outcomes for x in o.problems],
        "result": result,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")
    print("env " + json.dumps(detail["env"], sort_keys=True))
    for i, (times, ref) in enumerate(zip(run_times, run_ref_times)):
        print(f"run {i}: {len(times)} samples, median {statistics.median(times):.4f} s "
              f"wall, {statistics.median(ref):.4f} s at the reference host speed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
