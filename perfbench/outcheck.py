"""The output check run after every run of the benchmark.

Each function returns a list of problems; every problem starts with the name
of the field that differs.  An empty list means the run passed.
"""

import hashlib
from pathlib import Path

CONSERVATION_TOL_J = 1e-9
ENERGY_REL_TOL = 1e-9

EXACT_FIELDS = (
    "generated", "delivered", "deaths", "sessions_established",
    "flood_tx", "flood_rx", "flood_discard",
)
ENERGY_FIELDS = ("total_energy_j", "tx_j", "rx_j", "sense_j", "sleep_j")


def run_stats(report) -> dict:
    """The simulated statistics of a run that the reference pins down."""
    flood = report.flood
    stats = {
        "generated": report.generated,
        "delivered": report.delivered,
        "deaths": len(report.deaths),
        "sessions_established": report.sessions_established,
        "flood_tx": flood.tx if flood else 0,
        "flood_rx": flood.rx if flood else 0,
        "flood_discard": flood.discard if flood else 0,
        "total_energy_j": report.total_energy_j,
    }
    for m in ("tx", "rx", "sense", "sleep"):
        stats[f"{m}_j"] = report.totals_by_mode[m]
    return stats


def check_report(report, battery_j: float) -> list[str]:
    """Conservation on the final ledger snapshot and the count invariants."""
    problems = []
    _, rows = report.ledger_snapshots[-1]
    for node, tx, rx, sense, sleep, remaining in rows:
        residual = tx + rx + sense + sleep + remaining - battery_j
        if abs(residual) > CONSERVATION_TOL_J:
            problems.append(f"conservation: node {node} off by {residual:.3e} J")
    if report.delivered > report.generated:
        problems.append(
            f"delivered: {report.delivered} > generated {report.generated}"
        )
    if report.sessions_established > report.sessions_requested:
        problems.append(
            f"sessions_established: {report.sessions_established} > "
            f"requested {report.sessions_requested}"
        )
    return problems


def compare_stats(stats: dict, expected: dict) -> list[str]:
    """Counts must match exactly, energies within ENERGY_REL_TOL relative."""
    problems = []
    for k in EXACT_FIELDS:
        if stats[k] != expected[k]:
            problems.append(f"{k}: {stats[k]} != {expected[k]}")
    for k in ENERGY_FIELDS:
        a, b = stats[k], expected[k]
        if abs(a - b) > ENERGY_REL_TOL * max(abs(a), abs(b)):
            problems.append(f"{k}: {a!r} != {b!r}")
    return problems


def digest_outputs(paths: list[Path], root: Path) -> tuple[str, int]:
    """SHA-256 over the written files' relative names and bytes, and their size."""
    h = hashlib.sha256()
    size = 0
    for p in paths:
        data = p.read_bytes()
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(data)
        size += len(data)
    return h.hexdigest(), size
