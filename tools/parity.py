"""Output-parity digests: one per run, to compare two checkouts.

Runs the run lists of ``perfbench.workloads.WORKLOADS`` at the given seeds,
the five protocols on a small field whose sensors die (``DYING``) at each
of ``DYING_BATTERIES_J`` and the same seeds, and mte on that field with
batteries that outlast the first projections (``SWITCH``), writes each run's
``sim.emit_outputs`` files and prints one
``perfbench.outcheck.digest_outputs`` digest per run as JSON, one run per
line.  The dying field reaches what the benchmark fields never do: deaths at
init, by the region flood's charges or by drain, and the mode switches and
due settles around them.  On the switch field the epoch step sums groups in
closed form first and hands them to the per-charge path once their nodes
project deaths inside the run.  Each line also carries ``repr_digest``, a hash of
the full-precision ``repr`` of the report's deaths, ledger snapshots, session
counters and interval rows, which catches differences below the files' nine
decimals.  Two checkouts produce the same outputs on these runs exactly when
their printouts are equal:

    python3 tools/parity.py --seeds 1 2 > new.json
    python3 tools/parity.py --repo ../old-checkout --seeds 1 2 > old.json
    diff old.json new.json

``--repo`` names the checkout whose ``src/regionsim`` and ``perfbench`` are
imported (default: the one holding this script).
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

# the 18-sensor field of tests/test_relations.py: with 60 J batteries every
# sensor dies within the run, and with 0.5 J ones some die at init
DYING = dict(area_width=80.0, area_height=80.0, region_size=40.0, node_count=18,
             radio_range=50.0, sensing_range=30.0, sink_x=60.0, sink_y=30.0, sessions=4)
DYING_BATTERIES_J = (60.0, 0.5)
# the same field with 8 mte sessions at 4 packets a second and 300 s between
# reports: 40 J put the charged nodes' first projections past the 1200 s run,
# and their packets bring them inside it (tests/test_sim.py's SWITCH)
SWITCH = dict(DYING, sessions=8, protocol="mte", battery_j=40.0, packet_rate_hz=4.0,
              report_interval_s=300.0, sim_duration_s=1200.0)


def repr_digest(report) -> str:
    """sha256 of the full-precision state a run reports."""
    sessions = [(s.generated, s.delivered, s.energy_j) for s in report.sessions]
    state = (report.deaths, report.ledger_snapshots, sessions, report.intervals)
    return hashlib.sha256(repr(state).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)

    repo = args.repo.resolve()
    sys.path[:0] = [str(repo / "src"), str(repo)]
    from perfbench.outcheck import digest_outputs
    from perfbench.workloads import WORKLOADS
    from regionsim import sim
    from regionsim.routing import PROTOCOLS
    from regionsim.scenario import ScenarioConfig

    runs = [
        (f"{name}/{seed}/{i}", config, run_seed)
        for name, workload in WORKLOADS.items()
        for seed in args.seeds
        for i, (config, run_seed) in enumerate(workload.run_list(seed))
    ]
    runs += [
        (f"dying-{battery:g}j/{seed}/{protocol}",
         ScenarioConfig(**DYING, battery_j=battery, protocol=protocol), seed)
        for battery in DYING_BATTERIES_J
        for seed in args.seeds
        for protocol in PROTOCOLS
    ]
    runs += [(f"switch-40j/{seed}/mte", ScenarioConfig(**SWITCH), seed) for seed in args.seeds]
    rows = []
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        for k, (name, config, run_seed) in enumerate(runs):
            out = Path(tmp) / str(k)
            report = sim.run(config, run_seed)
            paths = sim.emit_outputs(report, out)
            digest, size = digest_outputs(paths, out)
            rows.append({
                "run": name,
                "protocol": config.protocol,
                "run_seed": run_seed,
                "digest": digest,
                "bytes": size,
                "repr_digest": repr_digest(report),
            })
    print("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
