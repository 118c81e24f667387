"""Radio/sensing energy accounting: discrete power levels, per-node ledgers,
coverage sizing and scale diagnostics."""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .graph import NodeId

LEDGER_MODES = ("tx", "rx", "sense", "sleep")  # slot names, in row order
_SLOTS = range(len(LEDGER_MODES))
TX, RX, SENSE, SLEEP = _SLOTS  # ledger slots: indices into a row

# battery considered empty below this many joules (float accrual slack)
DEATH_EPSILON_J = 1e-9


@dataclass(frozen=True)
class EnergyParams:
    """Radio and duty-mode power figures.

    Transmit draw interpolates linearly in radiated milliwatts between the
    electronics floor at the lowest level and the communication maximum at the
    highest, so backing off radiated power never drives total draw to zero.
    """

    p_comm_max_mw: float = 160.0
    p_sense_mw: float = 12.0
    p_sleep_mw: float = 0.5
    p_rx_mw: float = 120.0
    draw_floor_mw: float = 60.0
    bandwidth_bps: float = 50_000.0
    level_min_dbm: float = -20.0
    level_max_dbm: float = 12.0
    level_count: int = 10

    def __post_init__(self):
        for name in ("p_comm_max_mw", "p_sense_mw", "p_sleep_mw", "p_rx_mw",
                     "draw_floor_mw", "bandwidth_bps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.level_count != 10:
            raise ValueError("exactly 10 power levels are supported")
        if self.level_max_dbm <= self.level_min_dbm:
            raise ValueError("power levels must increase in dBm")
        if self.draw_floor_mw >= self.p_comm_max_mw:
            raise ValueError("draw floor must sit below the communication maximum")

    @cached_property
    def drain_w(self) -> dict[int, float]:
        """Drain power of each duty slot (SENSE, SLEEP), in watts."""
        return {SENSE: self.p_sense_mw / 1000.0, SLEEP: self.p_sleep_mw / 1000.0}

    @cached_property
    def level_dbms(self) -> tuple[float, ...]:
        step = (self.level_max_dbm - self.level_min_dbm) / (self.level_count - 1)
        return tuple(self.level_min_dbm + i * step for i in range(self.level_count))

    @cached_property
    def level_mws(self) -> tuple[float, ...]:
        """Radiated power of each level, in milliwatts."""
        return tuple(10.0 ** (dbm / 10.0) for dbm in self.level_dbms)

    def level_mw(self, level: int) -> float:
        """Radiated power of a level, in milliwatts."""
        self._check_level(level)
        return self.level_mws[level]

    def draw_mw(self, level: int) -> float:
        """Total radio draw at a level: linear in radiated mW between endpoints."""
        self._check_level(level)
        lo = self.level_mw(0)
        hi = self.level_mw(self.level_count - 1)
        frac = (self.level_mw(level) - lo) / (hi - lo)
        return self.draw_floor_mw + frac * (self.p_comm_max_mw - self.draw_floor_mw)

    def _check_level(self, level: int) -> None:
        if not isinstance(level, int) or not 0 <= level < self.level_count:
            raise ValueError(f"invalid power level {level!r}")


def spent(tx, rx, sense, sleep):
    """A ledger row's total, summed left to right; floats or arrays."""
    return ((tx + rx) + sense) + sleep


def tx_energy(bits: float, level: int, params: EnergyParams) -> float:
    """Joules to transmit ``bits`` at a power level."""
    if bits <= 0:
        raise ValueError("bits must be > 0")
    return params.draw_mw(level) / 1000.0 * (bits / params.bandwidth_bps)


def rx_energy(bits: float, params: EnergyParams) -> float:
    """Joules to receive ``bits``."""
    if bits <= 0:
        raise ValueError("bits must be > 0")
    return params.p_rx_mw / 1000.0 * (bits / params.bandwidth_bps)


class EnergyLedger:
    """Per-node cumulative joules by mode against a shared battery budget.

    Each node's spends are stored as one flat list ``[tx, rx, sense, sleep]``
    in ``rows``, and every method takes a ledger slot (``TX``, ``RX``,
    ``SENSE``, ``SLEEP``), an index into that list.  The spent total is
    ``spent`` of the row and ``remaining`` is the budget minus that total,
    so the conservation identity holds exactly and an engine that reads
    ``rows`` directly gets the same bits as these methods.  Nodes at or
    below ``DEATH_EPSILON_J`` are dead; callers stop routing through them.
    """

    def __init__(self, node_ids: Iterable[NodeId], budget_j: float):
        if not 0 < budget_j < math.inf:  # NaN fails every comparison
            raise ValueError("budget must be > 0")
        self.budget_j = float(budget_j)
        self.rows: dict[NodeId, list[float]] = {
            v: [0.0, 0.0, 0.0, 0.0] for v in sorted(set(node_ids))
        }

    def _entry(self, node: NodeId) -> list[float]:
        try:
            return self.rows[node]
        except KeyError:
            raise ValueError(f"no ledger entry for node {node!r}") from None

    def check_charge(self, node: NodeId, slot: int, joules: float) -> None:
        """Validate a charge without applying it."""
        if slot not in _SLOTS:
            raise ValueError(f"unknown ledger slot {slot!r}")
        if not 0 <= joules < math.inf:
            raise ValueError("charge must be >= 0")
        self._entry(node)

    def charge(self, node: NodeId, slot: int, joules: float) -> None:
        self.check_charge(node, slot, joules)
        self.rows[node][slot] += joules

    def accrue(self, node: NodeId, slot: int, duration_s: float, params: EnergyParams) -> None:
        """Add duty-mode energy for a time span: ``params.drain_w[slot]``
        watts, for slot SENSE or SLEEP."""
        watts = params.drain_w.get(slot)
        if watts is None:
            raise ValueError(f"accrual slot must be SENSE or SLEEP, got {slot!r}")
        if not 0 <= duration_s < math.inf:
            raise ValueError("duration must be >= 0")
        self._entry(node)[slot] += watts * duration_s

    def spent_by_mode(self, node: NodeId) -> dict[str, float]:
        return dict(zip(LEDGER_MODES, self._entry(node)))

    def total_spent(self, node: NodeId) -> float:
        return spent(*self._entry(node))

    def remaining(self, node: NodeId) -> float:
        return self.budget_j - self.total_spent(node)

    def is_alive(self, node: NodeId) -> bool:
        return self.remaining(node) > DEATH_EPSILON_J

    def snapshot(self) -> list[tuple]:
        """Rows (node_id, tx_J, rx_J, sense_J, sleep_J, remaining_J), id-sorted."""
        return [(v, *e, self.remaining(v)) for v, e in self.rows.items()]


def min_sensor_count(area_m2: float, sensing_range_m: float) -> int:
    """Minimum sensor count to cover a square area of the given size.

    Evaluates ceil(2*pi*A / (3*pi*R^2)) with R the sensing range, which must
    be smaller than the area's side length.
    """
    if area_m2 <= 0:
        raise ValueError("area must be > 0")
    if sensing_range_m <= 0:
        raise ValueError("sensing range must be > 0")
    if sensing_range_m >= math.sqrt(area_m2):
        raise ValueError("sensing range must be smaller than the area dimensions")
    return math.ceil((2.0 * math.pi * area_m2) / (3.0 * math.pi * sensing_range_m**2))


def energy_savings(candidate_total_j: float, baseline_total_j: float) -> float:
    """Percent energy saved by the candidate relative to the baseline."""
    if baseline_total_j <= 0:
        raise ValueError("baseline energy must be > 0")
    return 100.0 * (1.0 - candidate_total_j / baseline_total_j)


@dataclass(frozen=True)
class ScalingDiagnostics:
    """Network-scale checks: lifetime at most linear in node count, mean
    per-node energy roughly invariant."""

    lifetime_linear_ok: bool
    energy_constant_ok: bool
    lifetime_fit: tuple[float, float]  # (slope, intercept)
    lifetime_max_rel_residual: float
    energy_cv: float
    tolerance: float
    points: tuple[tuple[int, float, float], ...]

    @property
    def ok(self) -> bool:
        return self.lifetime_linear_ok and self.energy_constant_ok


def scaling_diagnostics(
    points: Sequence[tuple[int, float, float]], tolerance: float = 0.15
) -> ScalingDiagnostics:
    """Check (node_count, lifetime_s, mean_node_energy_j) batch points.

    Lifetime must fit a line with max relative residual within tolerance;
    mean per-node energy must have coefficient of variation within tolerance.
    Needs at least 3 points.
    """
    import numpy as np

    pts = tuple(sorted(points))
    if len(pts) < 3:
        raise ValueError("need at least 3 batch points")
    counts = np.array([p[0] for p in pts], dtype=float)
    lifetimes = np.array([p[1] for p in pts], dtype=float)
    energies = np.array([p[2] for p in pts], dtype=float)

    slope, intercept = np.polyfit(counts, lifetimes, 1)
    fitted = slope * counts + intercept
    scale = float(np.mean(np.abs(lifetimes))) or 1.0
    max_rel_resid = float(np.max(np.abs(lifetimes - fitted)) / scale)

    mean_e = float(np.mean(energies))
    cv = float(np.std(energies) / mean_e) if mean_e > 0 else 0.0

    return ScalingDiagnostics(
        lifetime_linear_ok=max_rel_resid <= tolerance,
        energy_constant_ok=cv <= tolerance,
        lifetime_fit=(float(slope), float(intercept)),
        lifetime_max_rel_residual=max_rel_resid,
        energy_cv=cv,
        tolerance=tolerance,
        points=pts,
    )
