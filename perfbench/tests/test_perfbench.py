"""Tests of the benchmark itself: tiny smoke runs of every workload through
the check and the traced pass, span self-time arithmetic, and restoring the
program's own functions after tracing.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import regionsim.flood
import regionsim.sim
import hostspeed
import run
import tracing
from outcheck import check_report, compare_stats, run_stats
from regionsim.energy import EnergyLedger
from tracing import Span, Tracer, module_metrics, self_times
from workloads import WORKLOADS, warmup_list

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _scratch_out(monkeypatch, tmp_path):
    """Keep every file the runner writes inside the test's temp dir."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference.json")


def _targets():
    return [(o, a) for o, a, *_ in tracing.SPANNED + tracing.COUNTED]


def _tiny(name):
    """The workload with its scenarios shrunk to the warm-up size."""
    w = WORKLOADS[name]
    return replace(w, configs=tuple(c for c, _ in warmup_list(w)), deployments=2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_of_each_workload(name, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, name, _tiny(name))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    for trace in (0, 1):
        assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    # with no time to spend, one untraced round and the traced pass
    assert result["attempted"] == 2 * len(_tiny(name).run_list(3))


def test_traced_pass_repeats_untraced_outputs():
    runs = _tiny("default-res").run_list(5)
    ids = itertools.count()
    plain = run.run_pass(runs, Tracer(), ids)
    tracer = Tracer()
    with tracer.patched():
        traced = run.run_pass(runs, tracer, ids)
    run.cross_check([[p, t] for p, t in zip(plain, traced)], None)
    assert [t.outcome.problems for t in traced] == [[] for _ in runs]
    assert [t.outcome.digest for t in traced] == [p.outcome.digest for p in plain]
    values = run.per_layer(traced, tracer, sum(p.seconds for p in plain))
    assert set(values) == set(run.PER_LAYER_UNITS)
    assert values["flood.naive_calls"] == 2 * len(runs)  # direct call + message_savings
    assert values["routing.route_calls"] == sum(c.sessions for c, _ in runs)
    assert values["energy.charges"] > 0 and values["energy.balance_reads"] > 0
    assert 0 < values["sim.self_s"] < values["sim.run_s"]

    wrong = [dict(p.outcome.stats, deaths=p.outcome.stats["deaths"] + 1) for p in plain]
    run.cross_check([[p] for p in plain], wrong)
    assert all(len(p.outcome.problems) == 1
               and p.outcome.problems[0].startswith("reference deaths:") for p in plain)


def test_measure_samples_every_run_round_robin(monkeypatch):
    # a host that always runs at the reference speed leaves every time as it is
    monkeypatch.setattr(run, "HostSpeed",
                        lambda: hostspeed.HostSpeed(lambda: hostspeed.REFERENCE_S))
    runs = _tiny("default-baselines").run_list(2)
    probes = itertools.count()
    samples, setups = run.measure(runs, 0.0, Tracer(), itertools.count(), probes.__next__)
    assert [len(entry) for entry in samples] == [1] * len(runs)
    assert all(s.ref_seconds == pytest.approx(s.seconds) for entry in samples for s in entry)
    assert [wall for wall, _ in setups] == list(range(run.SETUP_PROBES))
    assert [ref for _, ref in setups] == pytest.approx(list(range(run.SETUP_PROBES)))
    pass_s = sum(entry[0].seconds for entry in samples)
    # ten passes' worth of time: at least two rounds even if the host slows down
    samples, _ = run.measure(runs, 10 * pass_s, Tracer(), itertools.count(), lambda: 0.0)
    counts = [len(entry) for entry in samples]
    assert min(counts) >= 2 and max(counts) - min(counts) <= 1
    assert counts == sorted(counts, reverse=True)  # cut short in round order
    run.cross_check(samples, None)
    assert all(not s.outcome.problems for entry in samples for s in entry)


def test_untraced_pass_runs_the_unwrapped_functions():
    originals = {(o, a): o.__dict__[a] for o, a in _targets()}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            for (o, a), fn in originals.items():
                assert o.__dict__[a] is not fn
            raise RuntimeError("restore even when the pass fails")
    for (o, a), fn in originals.items():
        assert o.__dict__[a] is fn
    assert regionsim.sim.run_flood is regionsim.flood.run_flood
    assert EnergyLedger.charge.__qualname__ == "EnergyLedger.charge"

    plain = Tracer()
    run.run_pass(_tiny("default-baselines").run_list(1), plain, itertools.count())
    assert not plain.counts
    assert {s.name for s in plain.spans} == {"sim.run", "sim.emit"}


def test_host_speed_scales_by_the_calibrations_around_a_run():
    calibrations = iter([0.05, 0.1, 0.05])
    host = hostspeed.HostSpeed(lambda: next(calibrations))
    assert host.scale(3.0) == pytest.approx(3.0 * 0.05 / 0.075)  # host ran slower
    assert host.scale(3.0) == pytest.approx(3.0 * 0.05 / 0.075)
    assert 0 < hostspeed.calibrate() < 10


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("sim.run", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: covered time is counted once
        Span("c", 8.0, 12.0, 0, 0),  # runs past its parent: clipped at 10
        Span("a.child", 1.5, 2.5, 1, 0),
        Span("sim.run", 20.0, 21.0, None, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0, 1.0])
    m = module_metrics(spans, Counter())
    assert m["sim.run_s"] == pytest.approx(11.0)
    assert m["sim.self_s"] == pytest.approx(5.0)
    assert m["sim.self_share"] == pytest.approx(5.0 / 11.0)


def test_check_names_the_field_that_differs():
    config, seed = warmup_list(WORKLOADS["default-res"])[0]
    report = regionsim.sim.run(config, seed)
    assert check_report(report, config.battery_j) == []
    stats = run_stats(report)
    assert compare_stats(stats, stats) == []
    near = dict(stats, total_energy_j=stats["total_energy_j"] * (1 + 1e-12))
    assert compare_stats(near, stats) == []
    off = dict(stats, deaths=stats["deaths"] + 1, sense_j=stats["sense_j"] * 1.001)
    assert [p.split(":")[0] for p in compare_stats(off, stats)] == ["deaths", "sense_j"]

    report.delivered = report.generated + 1
    t, rows = report.ledger_snapshots[-1]
    report.ledger_snapshots[-1] = (t, [(rows[0][0], *rows[0][1:5], rows[0][5] + 1e-6)])
    problems = check_report(report, config.battery_j)
    assert [p.split(":")[0] for p in problems] == ["conservation", "delivered"]


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
