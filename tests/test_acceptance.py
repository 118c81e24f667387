"""Acceptance suite: one test per criterion, each printing a PASS/WARN line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the documented figures.
"""

import filecmp
import time
import warnings

import pytest

from regionsim.checks import (
    multi_source_bfs,
    random_suite,
    run_containment_suite,
    run_stretch_suite,
)
from regionsim.cli import main as cli_main
from regionsim.energy import energy_savings, min_sensor_count, scaling_diagnostics
from regionsim.flood import message_savings, naive_flood_count, run_flood
from regionsim.graph import Digraph
from regionsim.regions import (
    boundary_route,
    build_boundary_dual_graph,
    compute_boundary_cells,
    worst_case_construction,
)
from regionsim.sim import coverage_series

from conftest import ACCEPT_SUITE_SEED, SCALE_NODE_COUNTS


def test_criterion_flood_oracle_equivalence():
    """Flood labels equal multi-source BFS on 200 random graphs, under 10 s."""
    t0 = time.time()
    mismatches = 0
    nodes_checked = 0
    for item in random_suite(200, seed=ACCEPT_SUITE_SEED):
        result = run_flood(item.g, item.seeds)
        oracle = multi_source_bfs(item.g, item.seeds)
        for v in item.g.vertices:
            nodes_checked += 1
            st = result.states[v]
            want_dist, want_regions = oracle[v]
            if st.distance != want_dist or frozenset(st.regions) != want_regions:
                mismatches += 1
    elapsed = time.time() - t0
    assert mismatches == 0
    assert elapsed < 10.0, f"suite took {elapsed:.1f}s"
    print(f"\nACCEPT flood-oracle-equivalence: PASS "
          f"({nodes_checked} nodes on 200 graphs, {elapsed:.2f}s)")


def test_criterion_cell_containment(suite200):
    """Path-to-seed containment holds for every node; ties logged only."""
    report = run_containment_suite(suite200)
    assert report.ok, f"containment failures: {report.failures[:5]}"
    assert report.graphs == 200
    print(f"\nACCEPT cell-containment: PASS ({report.nodes_checked} nodes, "
          f"{report.tie_nodes} tie nodes logged, not asserted)")


def test_criterion_stretch_bound(suite200):
    """Boundary routes never exceed the direct path's arc count; the
    tightness construction matches its closed form and approaches the bound."""
    stretch = run_stretch_suite(suite200, max_pairs=500)
    assert stretch.ok, f"violations: {stretch.violations[:5]}"
    assert stretch.pairs_checked == 500

    rows = []
    for e in (2, 4, 8):
        last = 0.0
        for eps in (0.1, 0.01, 0.001):
            g, seeds, s, t = worst_case_construction(e, 1.0, eps)
            cells = compute_boundary_cells(g, seeds)
            dual = build_boundary_dual_graph(g, cells)
            result = boundary_route(g, cells, dual, s, t)
            lp = 2 * 1.0 + (e - 2) * eps
            lstar = lp + 2 * (e - 1) * (1.0 - eps)
            assert result.ratio == pytest.approx(lstar / lp, rel=1e-9)
            assert result.ratio > last, "ratio must increase as eps shrinks"
            assert result.ratio < e
            last = result.ratio
            rows.append((e, eps, result.ratio))
    print("\nACCEPT stretch-bound: PASS (500 sampled seed-pair routes; "
          "tightness ratios to 1e-9:")
    for e, eps, ratio in rows:
        print(f"  e={e} eps={eps:<6} ratio={ratio:.9f}")


def test_criterion_flood_message_suppression():
    """Two seeds on a 50-node path transmit strictly fewer messages than
    per-seed unrestricted flooding."""
    arcs = {}
    for i in range(49):
        arcs[(i, i + 1)] = 1.0
        arcs[(i + 1, i)] = 1.0
    g = Digraph(range(50), arcs)
    result = run_flood(g, [0, 49])
    naive = naive_flood_count(g, [0, 49])
    assert result.totals.tx < naive
    saved = message_savings(result.totals, naive)
    print(f"\nACCEPT flood-suppression: PASS (protocol tx={result.totals.tx} "
          f"< naive {naive}; {100 * saved:.1f}% suppressed)")


def test_criterion_energy_conservation(res_scale_batches, dt_batch_140, mte_batch_140):
    """budget = remaining + spent per node to 1e-9 J; report total equals the
    ledger sum exactly, for every run of every batch."""
    runs = [r for b in res_scale_batches.values() for r in b.runs]
    runs += dt_batch_140.runs + mte_batch_140.runs
    for report in runs:
        budget = report.config["battery_j"]
        total = 0.0
        for _, snapshot in report.ledger_snapshots:
            for _, tx, rx, sense, sleep, remaining in snapshot:
                assert abs(budget - (remaining + tx + rx + sense + sleep)) < 1e-9
        for _, tx, rx, sense, sleep, _ in report.ledger_snapshots[-1][1]:
            total += tx + rx + sense + sleep
        assert total == report.total_energy_j
    print(f"\nACCEPT energy-conservation: PASS ({len(runs)} runs, "
          "per-node identity within 1e-9 J, totals exact)")


def test_criterion_directional_energy(
    res_batch_140, dt_batch_140, mte_batch_140, single_runs_all_protocols
):
    """Region search beats direct transmission and minimum-transmission-energy
    on batch-mean total energy; offline-optimal lower-bounds every protocol
    per session on the same instance."""
    res_mean = res_batch_140.metrics["total_energy_j"][0]
    dt_mean = dt_batch_140.metrics["total_energy_j"][0]
    mte_mean = mte_batch_140.metrics["total_energy_j"][0]
    assert res_mean < dt_mean
    assert res_mean < mte_mean

    or_sessions = single_runs_all_protocols["or"].sessions
    compared = 0
    for i, s_or in enumerate(or_sessions):
        if s_or.status != "ok":
            continue
        for proto in ("res", "dt", "mte", "merr"):
            s_p = single_runs_all_protocols[proto].sessions[i]
            assert s_p.source == s_or.source
            if s_p.status != "ok":
                continue
            assert s_or.packet_energy_j <= s_p.packet_energy_j + 1e-12
            compared += 1
    assert compared > 0

    saved_dt = energy_savings(res_mean, dt_mean)
    saved_mte = energy_savings(res_mean, mte_mean)
    print(f"\nACCEPT directional-energy: PASS")
    print(f"  batch means (10 seeds, 140 nodes): res={res_mean:.1f} J, "
          f"dt={dt_mean:.1f} J, mte={mte_mean:.1f} J")
    print(f"  documented savings: {saved_dt:.1f}% vs dt, {saved_mte:.1f}% vs mte "
          "(ordering asserted; exact percentage is scenario-dependent)")
    print(f"  offline-optimal per-session lower bound held on {compared} comparisons")


def test_criterion_coverage_stability(res_batch_140):
    """Every run's coverage stays within 5 percentage points of its initial
    value across the 140 simulated minutes."""
    worst = 0.0
    for report in res_batch_140.runs:
        series = coverage_series(report)
        first = series[0][1]
        for _, cov in series:
            worst = max(worst, abs(cov - first))
            assert abs(cov - first) <= 5.0
    finals = [coverage_series(r)[-1][1] for r in res_batch_140.runs]
    print(f"\nACCEPT coverage-stability: PASS (max excursion {worst:.2f} pp; "
          f"final coverage {min(finals):.2f}..{max(finals):.2f}%)")


def test_criterion_min_sensor_count():
    """The coverage formula evaluates verbatim and behaves monotonically."""
    assert min_sensor_count(160 * 160, 40) == 11
    assert min_sensor_count(2 * 160 * 160, 40) >= min_sensor_count(160 * 160, 40)
    assert min_sensor_count(160 * 160, 20) >= min_sensor_count(160 * 160, 40)
    r = 12.0
    assert min_sensor_count(1.5 * r * r, r) == 1
    print("\nACCEPT min-sensor-count: PASS (N(25600 m^2, 40 m) = 11; "
          "monotonicity and linearity property tests in test_energy.py)")


def test_criterion_scale_diagnostics(res_scale_batches):
    """Lifetime-linearity and per-node-energy-constancy at 15% tolerance.

    Warning-level criterion: failures are reported, not asserted.
    """
    points = []
    for n in SCALE_NODE_COUNTS:
        batch = res_scale_batches[n]
        lifetime = batch.metrics["lifetime_s"][0]
        s_i = batch.metrics["total_energy_j"][0] / n
        points.append((n, lifetime, s_i))
    diag = scaling_diagnostics(points, tolerance=0.15)
    status_life = "PASS" if diag.lifetime_linear_ok else "WARN"
    status_si = "PASS" if diag.energy_constant_ok else "WARN"
    print(f"\nACCEPT scale-diagnostics (warning-level): "
          f"lifetime-linear {status_life} "
          f"(max rel residual {diag.lifetime_max_rel_residual:.3f}), "
          f"constant-per-node-energy {status_si} (cv {diag.energy_cv:.3f})")
    for n, lifetime, s_i in points:
        print(f"  n={n:<4} lifetime={lifetime:8.1f}s mean_node_energy={s_i:6.2f}J")
    if not diag.ok:
        warnings.warn(
            "scale diagnostics outside tolerance: "
            f"lifetime residual {diag.lifetime_max_rel_residual:.3f}, "
            f"energy cv {diag.energy_cv:.3f} (warning-level criterion)"
        )


def test_criterion_determinism(tmp_path):
    """Two CLI invocations with identical scenario and seed produce
    byte-identical CSV outputs."""
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(
        "[area]\nwidth = 160\nheight = 160\nregion_size = 40\n"
        "[nodes]\ncount = 40\n"
        "[traffic]\nsessions = 5\nsim_duration_s = 600\nreport_interval_s = 120\n"
        "seed = 42\n"
    )
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "b")]) == 0
    names = ["summary.csv", "sessions.csv", "energy.csv", "report.txt"]
    for name in names:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
    print(f"\nACCEPT determinism: PASS ({', '.join(names)} byte-identical)")
