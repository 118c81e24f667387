"""Output-parity digests: one per benchmark run, to compare two checkouts.

Runs the run lists of ``perfbench.workloads.WORKLOADS`` at the given seeds,
writes each run's ``sim.emit_outputs`` files and prints one
``perfbench.outcheck.digest_outputs`` digest per run as JSON, one run per
line.  Each line also carries ``repr_digest``, a hash of the full-precision
``repr`` of the report's deaths, ledger snapshots, session counters and
interval rows, which catches differences below the files' nine decimals.  Two
checkouts produce the same outputs on these runs exactly when their printouts
are equal:

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

    rows = []
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        for name, workload in WORKLOADS.items():
            for seed in args.seeds:
                for i, (config, run_seed) in enumerate(workload.run_list(seed)):
                    out = Path(tmp) / f"{name}-{seed}-{i}"
                    report = sim.run(config, run_seed)
                    paths = sim.emit_outputs(report, out)
                    digest, size = digest_outputs(paths, out)
                    rows.append({
                        "run": f"{name}/{seed}/{i}",
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
