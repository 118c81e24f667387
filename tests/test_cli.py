"""CLI: subcommands, outputs, and exit-code categories."""

import filecmp

import pytest

from regionsim import cli
from regionsim.cli import main
from regionsim.graph import build_unit_disk_digraph
from regionsim.routing import CycleError, RoutingError
from regionsim.scenario import deploy, load_scenario
from regionsim.sim import _Run

TINY = """
[area]
width = 80
height = 80
region_size = 40

[nodes]
count = 16
radio_range = 120
sensing_range = 30
sink_x = 60
sink_y = 30
battery_j = 60

[traffic]
sessions = 2
sim_duration_s = 240
init_phase_s = 30
report_interval_s = 60
seed = 5
run_count = 2
"""


def scenario(tmp_path):
    p = tmp_path / "tiny.ini"
    p.write_text(TINY)
    return str(p)


def test_run_subcommand(tmp_path, capsys):
    code = main(["run", "--scenario", scenario(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "run complete" in out
    assert (tmp_path / "o" / "summary.csv").exists()


def test_run_protocol_and_seed_override(tmp_path, capsys):
    code = main(
        ["run", "--scenario", scenario(tmp_path), "--out", str(tmp_path / "o"),
         "--protocol", "dt", "--seed", "9"]
    )
    assert code == 0
    assert "protocol=dt seed=9" in capsys.readouterr().out


def test_batch_subcommand(tmp_path, capsys):
    code = main(
        ["batch", "--scenario", scenario(tmp_path), "--out", str(tmp_path / "b")]
    )
    assert code == 0
    assert (tmp_path / "b" / "batch_summary.csv").exists()
    assert (tmp_path / "b" / "run_5").is_dir()
    assert (tmp_path / "b" / "run_6").is_dir()


def test_compare_subcommand(tmp_path, capsys):
    code = main(
        ["compare", "--scenario", scenario(tmp_path), "--out", str(tmp_path / "c"),
         "--protocols", "res,dt"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "res saves" in out
    lines = (tmp_path / "c" / "comparison.csv").read_text().splitlines()
    assert lines[0] == "protocol,total_energy_j"
    assert len(lines) == 3


@pytest.mark.parametrize("make_out", [False, True])
def test_compare_empty_protocol_list_is_rejected(tmp_path, capsys, make_out):
    out = tmp_path / "c"
    if make_out:
        out.mkdir()
    code = main(
        ["compare", "--scenario", scenario(tmp_path), "--out", str(out),
         "--protocols", " , "]
    )
    assert code == 2
    assert "no protocols given" in capsys.readouterr().err
    assert not (out / "comparison.csv").exists()


def test_compare_repeated_protocol_runs_once(tmp_path, capsys):
    code = main(
        ["compare", "--scenario", scenario(tmp_path), "--out", str(tmp_path / "c"),
         "--protocols", "dt,mte,dt"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("  dt ") == 1
    lines = (tmp_path / "c" / "comparison.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["protocol", "dt", "mte"]


def test_check_lemmas_subcommand(capsys):
    # exact: hop cells searched on a euclidean graph, or euclidean cells on a
    # hop graph, change the tie counts
    code = main(["check-lemmas", "--sizes", "10,20", "--seed", "1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "size 10: containment PASS (200 nodes, 61 ties)",
        "size 10: stretch bound PASS (172 pairs, worst ratio/bound 1.0000)",
        "size 10: flood oracle PASS (200 nodes, savings 0.000..0.700)",
        "size 20: containment PASS (400 nodes, 178 ties)",
        "size 20: stretch bound PASS (164 pairs, worst ratio/bound 1.0000)",
        "size 20: flood oracle PASS (400 nodes, savings 0.000..0.640)",
    ]


def test_scenario_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[area]\nregion_size = 50\n")
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "scenario error" in capsys.readouterr().err


def test_missing_scenario_exit_code(tmp_path, capsys):
    code = main(
        ["run", "--scenario", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_batch_runs_zero_is_rejected(tmp_path, capsys):
    code = main(
        ["batch", "--scenario", scenario(tmp_path), "--out", str(tmp_path / "b"),
         "--runs", "0"]
    )
    assert code == 2
    assert "run_count must be >= 1" in capsys.readouterr().err


def test_identical_invocations_byte_identical(tmp_path):
    s = scenario(tmp_path)
    assert main(["run", "--scenario", s, "--out", str(tmp_path / "x")]) == 0
    assert main(["run", "--scenario", s, "--out", str(tmp_path / "y")]) == 0
    for name in ("summary.csv", "sessions.csv", "energy.csv", "report.txt"):
        assert filecmp.cmp(tmp_path / "x" / name, tmp_path / "y" / name, shallow=False)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--graphs", "0"], "--graphs must be >= 1"),
        (["--graphs", "-3"], "--graphs must be >= 1"),
        (["--sizes", "0"], "--sizes must all be >= 1"),
        (["--sizes", "abc"], "--sizes must list integers"),
    ],
)
def test_check_lemmas_rejects_empty_or_invalid_suites(args, message, capsys):
    code = main(["check-lemmas", "--seed", "3", *args])
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "PASS" not in captured.out


def test_percent_in_scenario_value_is_a_scenario_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[traffic]\nprotocol = res%\n")
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "scenario error: protocol must be one of" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [
    (RoutingError("no route"), 3),
    (RuntimeError("internal"), 1),
])
def test_run_failure_exit_codes(tmp_path, capsys, monkeypatch, error, code):
    def fail(config):
        raise error

    monkeypatch.setattr(cli, "run", fail)
    assert main(["run", "--scenario", scenario(tmp_path), "--out", str(tmp_path / "o")]) == code
    assert str(error) in capsys.readouterr().err


def test_routing_error_inside_a_run_exits_3_naming_the_seed(tmp_path, capsys, monkeypatch):
    def corrupt_tables(self):
        raise CycleError("loop")

    monkeypatch.setattr(_Run, "_setup_protocol", corrupt_tables)
    assert main(["run", "--scenario", scenario(tmp_path), "--out", str(tmp_path / "o")]) == 3
    assert "routing error: run aborted (seed=5): loop" in capsys.readouterr().err


def test_out_naming_an_existing_file_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", "--scenario", scenario(tmp_path), "--out", str(out)]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_compare_with_runs_writes_a_batch_summary_per_protocol(tmp_path, capsys):
    out = tmp_path / "c"
    code = main(
        ["compare", "--scenario", scenario(tmp_path), "--out", str(out),
         "--protocols", "res,dt", "--runs", "2"]
    )
    assert code == 0
    for tag in ("res", "dt"):
        lines = (out / tag / "batch_summary.csv").read_text().splitlines()
        assert lines[0] == "metric,mean,std"
        assert (out / tag / "run_5").is_dir() and (out / tag / "run_6").is_dir()


def test_res_runs_when_the_flood_never_reaches_the_sink(tmp_path, capsys):
    # the default field with a 3 m radio: the sink hears no sensor
    p = tmp_path / "unreached.ini"
    p.write_text("[nodes]\nradio_range = 3\n\n[traffic]\nsim_duration_s = 600\n")
    config = load_scenario(str(p))
    field = deploy(config, config.seed)
    g = build_unit_disk_digraph([field.nodes[v] for v in sorted(field.nodes)])
    assert g.out_neighbors(field.sink_id) == () and g.in_neighbors(field.sink_id) == ()
    statuses = {}
    for protocol in ("res", "dt"):
        out = tmp_path / protocol
        assert main(["run", "--scenario", str(p), "--protocol", protocol,
                     "--out", str(out)]) == 0
        rows = (out / "sessions.csv").read_text().splitlines()[1:]
        statuses[protocol] = [row.split(",")[4] for row in rows]
    assert statuses["res"] == statuses["dt"] == ["no_route"] * config.sessions
