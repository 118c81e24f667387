"""Scenario files, validation and seeded deployment.

Scenario files are INI text with sections [area], [nodes], [energy] and
[traffic]; every key is optional and unknown keys are rejected.  An empty
file gives the default desk-scale scenario: 140 sensors over a 160 m x 160 m
field cut into 40 m regions, sink at (140, 60), 15 sessions for 140 minutes
after a 30 s initialization phase, averaged over 10 runs.
"""

import configparser
import math
import random
from dataclasses import dataclass, field, fields
from pathlib import Path

from .energy import EnergyParams
from .graph import NodeId, NodePos
from .routing import PROTOCOLS


class ScenarioError(ValueError):
    """Invalid scenario file or configuration value."""


@dataclass(frozen=True)
class ScenarioConfig:
    area_width: float = 160.0
    area_height: float = 160.0
    region_size: float = 40.0
    node_count: int = 140
    radio_range: float = 180.0
    sensing_range: float = 40.0
    sink_x: float = 140.0
    sink_y: float = 60.0
    battery_j: float = 100.0
    sessions: int = 15
    packet_bits: int = 1024
    packet_rate_hz: float = 1.0
    sim_duration_s: float = 8400.0
    init_phase_s: float = 30.0
    report_interval_s: float = 1200.0
    path_loss_exponent: float = 2.0
    protocol: str = "res"
    seed: int = 1
    run_count: int = 10
    flood_trace: bool = False
    energy: EnergyParams = field(default_factory=EnergyParams)

    def __post_init__(self):
        self.validate()

    @property
    def region_cols(self) -> int:
        return round(self.area_width / self.region_size)

    @property
    def region_rows(self) -> int:
        return round(self.area_height / self.region_size)

    @property
    def region_count(self) -> int:
        return self.region_cols * self.region_rows

    def validate(self) -> None:
        def fail(msg):
            raise ScenarioError(msg)

        # NaN passes every comparison below and infinity hangs the event loop
        for name, value in scenario_to_dict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                fail(f"{name} must be finite, got {value}")
        if self.area_width <= 0 or self.area_height <= 0:
            fail("area dimensions must be > 0")
        if self.region_size <= 0:
            fail("region_size must be > 0")
        for dim, name in ((self.area_width, "width"), (self.area_height, "height")):
            ratio = dim / self.region_size
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                fail(f"region_size {self.region_size} does not divide area {name} {dim}")
        if self.node_count < self.region_count:
            fail(
                f"node_count {self.node_count} is below the region count "
                f"{self.region_count} (one boundary node per region)"
            )
        if self.radio_range <= 0:
            fail("radio_range must be > 0")
        if self.sensing_range <= 0:
            fail("sensing_range must be > 0")
        if not (0 <= self.sink_x <= self.area_width and 0 <= self.sink_y <= self.area_height):
            fail(f"sink ({self.sink_x}, {self.sink_y}) lies outside the area")
        if self.battery_j <= 0:
            fail("battery_j must be > 0")
        if self.sessions < 0:
            fail("sessions must be >= 0")
        if self.sessions > self.node_count:
            fail("more sessions than nodes")
        if self.packet_bits <= 0:
            fail("packet_bits must be > 0")
        if self.packet_rate_hz <= 0:
            fail("packet_rate_hz must be > 0")
        if self.sim_duration_s <= 0:
            fail("sim_duration_s must be > 0")
        if not 0 <= self.init_phase_s < self.sim_duration_s:
            fail("init_phase_s must fit inside the simulation duration")
        if self.report_interval_s <= 0:
            fail("report_interval_s must be > 0")
        if not 2.0 <= self.path_loss_exponent <= 4.0:
            fail("path_loss_exponent must be in [2, 4]")
        if self.protocol not in PROTOCOLS:
            fail(f"protocol must be one of {', '.join(PROTOCOLS)}")
        if self.run_count < 1:
            fail("run_count must be >= 1")


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# scenario-file key -> dataclass field; every other key names its own field
_RENAMED = {"width": "area_width", "height": "area_height", "count": "node_count"}
_SECTIONS: dict[str, dict[str, str]] = {
    section: {key: _RENAMED.get(key, key) for key in keys.split()}
    for section, keys in {
        "area": "width height region_size",
        "nodes": "count radio_range sensing_range sink_x sink_y battery_j",
        "energy": "p_comm_max_mw p_sense_mw p_sleep_mw p_rx_mw draw_floor_mw "
        "bandwidth_bps level_min_dbm level_max_dbm level_count path_loss_exponent",
        "traffic": "sessions packet_bits packet_rate_hz sim_duration_s init_phase_s "
        "report_interval_s protocol seed run_count flood_trace",
    }.items()
}

_ENERGY_FIELDS = {f.name for f in fields(EnergyParams)}
# a value parses by its field's type
_PARSERS = {
    f.name: _bool if f.type is bool else f.type
    for f in (*fields(ScenarioConfig), *fields(EnergyParams))
}


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file; defaults fill anything omitted."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from exc

    config_kwargs: dict = {}
    energy_kwargs: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(f"unknown section [{section}] in {path}")
        for key, raw in parser.items(section):
            name = _SECTIONS[section].get(key)
            if name is None:
                raise ScenarioError(f"unknown field '{key}' in section [{section}]")
            try:
                value = _PARSERS[name](raw)
            except (TypeError, ValueError) as exc:
                raise ScenarioError(
                    f"field '{key}' in [{section}]: cannot parse {raw!r}"
                ) from exc
            if name in _ENERGY_FIELDS:
                energy_kwargs[name] = value
            else:
                config_kwargs[name] = value
    try:
        if energy_kwargs:
            config_kwargs["energy"] = EnergyParams(**energy_kwargs)
        return ScenarioConfig(**config_kwargs)
    except (ScenarioError, ValueError) as exc:
        raise ScenarioError(str(exc)) from exc


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Flat, sorted snapshot of the config for reports."""
    out = {}
    for f in fields(config):
        if f.name == "energy":
            for ef in fields(EnergyParams):
                out[f"energy.{ef.name}"] = getattr(config.energy, ef.name)
        else:
            out[f.name] = getattr(config, f.name)
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class Deployment:
    """Seeded node placement: sensors by id, region seeds, and the sink."""

    nodes: dict[NodeId, NodePos]
    seeds: tuple[NodeId, ...]
    sink_id: NodeId

    @property
    def sensor_ids(self) -> tuple[NodeId, ...]:
        return tuple(v for v in sorted(self.nodes) if v != self.sink_id)


def deploy(config: ScenarioConfig, seed: int) -> Deployment:
    """Place sensors uniformly at random per region, round-robin over regions.

    Region counts differ by at most one.  The node nearest each region's
    center (smallest id on ties) becomes that region's boundary node.  The
    sink is an extra node pinned at the configured position.
    """
    rng = random.Random(f"{seed}:deploy")
    cols, rows = config.region_cols, config.region_rows
    size = config.region_size
    count = config.node_count
    if count < cols * rows:
        raise ScenarioError("node_count below region count")

    positions: dict[int, tuple[float, float, int]] = {}
    for i in range(count):
        region = i % (cols * rows)
        col, row = region % cols, region // cols
        x = (col + rng.random()) * size
        y = (row + rng.random()) * size
        positions[i] = (x, y, region)

    # boundary node per region: nearest the region center, smallest id on ties
    boundary: dict[int, tuple[float, int]] = {}
    for i, (x, y, region) in positions.items():
        col, row = region % cols, region // cols
        cx, cy = (col + 0.5) * size, (row + 0.5) * size
        d = math.hypot(x - cx, y - cy)
        if region not in boundary or d < boundary[region][0]:
            boundary[region] = (d, i)
    seeds = tuple(sorted(i for _, i in boundary.values()))
    seed_set = set(seeds)

    nodes: dict[NodeId, NodePos] = {}
    for i, (x, y, region) in positions.items():
        nodes[i] = NodePos(
            id=i,
            x=x,
            y=y,
            radio_range=config.radio_range,
            is_boundary_node=i in seed_set,
            region_id=region,
        )
    sink_id = count
    # a sink on the right or top edge belongs to the last column or row
    sink_col = min(int(config.sink_x // size), cols - 1)
    sink_row = min(int(config.sink_y // size), rows - 1)
    sink_region = sink_row * cols + sink_col
    nodes[sink_id] = NodePos(
        id=sink_id,
        x=config.sink_x,
        y=config.sink_y,
        radio_range=config.radio_range,
        is_boundary_node=False,
        region_id=sink_region,
    )
    return Deployment(nodes=nodes, seeds=seeds, sink_id=sink_id)
