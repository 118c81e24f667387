"""Scenario parsing/validation and seeded deployment."""

from collections import Counter
from pathlib import Path

import pytest

from regionsim.scenario import (
    _SECTIONS,
    ScenarioConfig,
    ScenarioError,
    deploy,
    load_scenario,
    scenario_to_dict,
)


def write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


# -- config --------------------------------------------------------------------


def test_empty_file_gives_defaults(tmp_path):
    config = load_scenario(write(tmp_path, ""))
    assert config == ScenarioConfig()
    assert config.area_width == 160.0
    assert config.region_size == 40.0
    assert config.node_count == 140
    assert (config.sink_x, config.sink_y) == (140.0, 60.0)
    assert config.sessions == 15
    assert config.sim_duration_s == 8400.0
    assert config.init_phase_s == 30.0
    assert config.run_count == 10


def test_sections_override_defaults(tmp_path):
    config = load_scenario(
        write(
            tmp_path,
            "[area]\nwidth = 80\nheight = 80\n"
            "[nodes]\ncount = 16\nsink_x = 60\nsink_y = 30\n"
            "[energy]\np_rx_mw = 90\n"
            "[traffic]\nsessions = 2\nprotocol = dt\n",
        )
    )
    assert config.area_width == 80.0
    assert config.node_count == 16
    assert config.energy.p_rx_mw == 90.0
    assert config.sessions == 2
    assert config.protocol == "dt"


def test_indivisible_region_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="does not divide"):
        load_scenario(write(tmp_path, "[area]\nregion_size = 50\n"))


def test_unknown_field_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="unknown field 'bogus'"):
        load_scenario(write(tmp_path, "[area]\nbogus = 1\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ScenarioError, match=r"unknown section \[radio\]"):
        load_scenario(write(tmp_path, "[radio]\nx = 1\n"))


def test_unparseable_value_names_field(tmp_path):
    with pytest.raises(ScenarioError, match="'count'"):
        load_scenario(write(tmp_path, "[nodes]\ncount = many\n"))


@pytest.mark.parametrize("text, value", [
    *((t, True) for t in ("1", "true", "YES", "On")),
    *((t, False) for t in ("0", "False", "no", "OFF")),
])
def test_flag_spellings(tmp_path, text, value):
    config = load_scenario(write(tmp_path, f"[traffic]\nflood_trace = {text}\n"))
    assert config.flood_trace is value


def test_unparseable_flag_names_field(tmp_path):
    with pytest.raises(ScenarioError, match="'flood_trace'"):
        load_scenario(write(tmp_path, "[traffic]\nflood_trace = maybe\n"))


def test_readme_scenario_example_is_the_default(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Scenario files"):]
    block = section[section.index("```ini\n") + 7:section.index("```\n", 7)]
    keys = [line.split(" = ")[0] for line in block.splitlines() if " = " in line and line[0] != ";"]
    assert sorted(keys) == sorted(k for section in _SECTIONS.values() for k in section)
    config = load_scenario(write(tmp_path, block))
    assert config == ScenarioConfig()
    # each value parsed to its field's own type, not just an equal number
    loaded, default = scenario_to_dict(config), scenario_to_dict(ScenarioConfig())
    assert {k: type(v) for k, v in loaded.items()} == {k: type(v) for k, v in default.items()}


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "absent.ini")


def test_node_count_below_regions_rejected():
    with pytest.raises(ScenarioError, match="below the region count"):
        ScenarioConfig(node_count=15)


def test_node_count_35_accepted():
    config = ScenarioConfig(node_count=35)
    assert config.region_count == 16


def test_bad_protocol_rejected():
    with pytest.raises(ScenarioError, match="protocol"):
        ScenarioConfig(protocol="flood")


def test_sink_outside_area_rejected():
    with pytest.raises(ScenarioError, match="outside the area"):
        ScenarioConfig(sink_x=500.0)


NON_FINITE_FIELDS = [
    ("area", "width", "area_width"),
    ("area", "region_size", "region_size"),
    ("nodes", "radio_range", "radio_range"),
    ("nodes", "sink_x", "sink_x"),
    ("nodes", "battery_j", "battery_j"),
    ("energy", "p_rx_mw", "energy.p_rx_mw"),
    ("energy", "level_max_dbm", "energy.level_max_dbm"),
    ("traffic", "packet_rate_hz", "packet_rate_hz"),
    ("traffic", "sim_duration_s", "sim_duration_s"),
    ("traffic", "report_interval_s", "report_interval_s"),
]


@pytest.mark.parametrize(
    "section, key, name, value",
    [(*f, v) for f in NON_FINITE_FIELDS for v in ("nan", "inf")]
    + [("energy", "level_min_dbm", "energy.level_min_dbm", "-inf")],
)
def test_non_finite_value_rejected(tmp_path, section, key, name, value):
    path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ScenarioError, match=f"{name} must be finite"):
        load_scenario(path)


def test_non_finite_value_rejected_without_a_file():
    for name in ("init_phase_s", "sensing_range", "path_loss_exponent"):
        with pytest.raises(ScenarioError, match=f"{name} must be finite"):
            ScenarioConfig(**{name: float("nan")})


def test_config_snapshot_is_flat_and_sorted():
    snap = scenario_to_dict(ScenarioConfig())
    keys = list(snap)
    assert keys == sorted(keys)
    assert snap["energy.p_rx_mw"] == 120.0
    assert snap["node_count"] == 140


# -- deployment ------------------------------------------------------------------


def test_one_boundary_node_per_region():
    config = ScenarioConfig(node_count=16)
    d = deploy(config, seed=4)
    regions = [d.nodes[s].region_id for s in d.seeds]
    assert sorted(regions) == list(range(16))
    assert len(d.seeds) == 16
    assert all(d.nodes[s].is_boundary_node for s in d.seeds)


def test_deploy_deterministic():
    config = ScenarioConfig()
    a, b = deploy(config, seed=12), deploy(config, seed=12)
    assert a == b
    c = deploy(config, seed=13)
    assert a != c


def test_deploy_round_robin_counts():
    config = ScenarioConfig(node_count=140)
    d = deploy(config, seed=1)
    counts = Counter(d.nodes[v].region_id for v in d.sensor_ids)
    assert set(counts.values()) == {8, 9}
    assert sum(counts.values()) == 140
    assert sorted(counts) == list(range(16))


def test_positions_stay_inside_their_region():
    config = ScenarioConfig(node_count=64)
    d = deploy(config, seed=9)
    for v in d.sensor_ids:
        n = d.nodes[v]
        col, row = n.region_id % 4, n.region_id // 4
        assert col * 40 <= n.x <= (col + 1) * 40
        assert row * 40 <= n.y <= (row + 1) * 40


def test_sink_is_extra_pinned_node():
    config = ScenarioConfig(node_count=35)
    d = deploy(config, seed=2)
    sink = d.nodes[d.sink_id]
    assert d.sink_id == 35
    assert (sink.x, sink.y) == (140.0, 60.0)
    assert not sink.is_boundary_node
    assert d.sink_id not in d.seeds
    assert len(d.sensor_ids) == 35


@pytest.mark.parametrize(
    "sink, region",
    [((160.0, 60.0), 7), ((60.0, 160.0), 13), ((160.0, 160.0), 15), ((0.0, 0.0), 0)],
)
def test_sink_region_clamps_column_and_row(sink, region):
    config = ScenarioConfig(node_count=35, sink_x=sink[0], sink_y=sink[1])
    d = deploy(config, seed=2)
    assert d.nodes[d.sink_id].region_id == region
