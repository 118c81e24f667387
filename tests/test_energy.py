"""Energy model: radio draw, accrual, ledger conservation, coverage sizing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regionsim.energy import (
    LEDGER_MODES,
    RX,
    SENSE,
    SLEEP,
    TX,
    EnergyLedger,
    EnergyParams,
    energy_savings,
    min_sensor_count,
    rx_energy,
    scaling_diagnostics,
    spent,
    tx_energy,
)

PARAMS = EnergyParams()


# -- power levels ----------------------------------------------------------------


def test_ten_levels_span_dbm_range():
    dbms = PARAMS.level_dbms
    assert len(dbms) == 10
    assert dbms[0] == pytest.approx(-20.0)
    assert dbms[-1] == pytest.approx(12.0)
    assert all(a < b for a, b in zip(dbms, dbms[1:]))


def test_draw_is_monotone_between_endpoints():
    draws = [PARAMS.draw_mw(l) for l in range(10)]
    assert draws[0] == pytest.approx(60.0)
    assert draws[-1] == pytest.approx(160.0)
    assert all(a < b for a, b in zip(draws, draws[1:]))


def test_tx_energy_max_level():
    # 1000 bits at 160 mW over 50 kbps: 0.160 W * 0.02 s = 3.2 mJ
    assert tx_energy(1000, 9, PARAMS) == pytest.approx(3.2e-3)


def test_tx_energy_min_to_max_ratio():
    e_min = tx_energy(1000, 0, PARAMS)
    e_max = tx_energy(1000, 9, PARAMS)
    assert e_min < e_max
    assert e_min / e_max == pytest.approx(60.0 / 160.0)


def test_tx_energy_linear_in_bits():
    assert tx_energy(2000, 4, PARAMS) == pytest.approx(2 * tx_energy(1000, 4, PARAMS))


def test_tx_energy_rejects_bad_input():
    with pytest.raises(ValueError, match="bits"):
        tx_energy(0, 3, PARAMS)
    with pytest.raises(ValueError, match="level"):
        tx_energy(100, 10, PARAMS)
    with pytest.raises(ValueError, match="level"):
        tx_energy(100, -1, PARAMS)


def test_rx_energy():
    # 1000 bits at 120 mW: 0.120 * 0.02 = 2.4 mJ
    assert rx_energy(1000, PARAMS) == pytest.approx(2.4e-3)
    assert rx_energy(1000, PARAMS) < tx_energy(1000, 9, PARAMS)
    with pytest.raises(ValueError):
        rx_energy(0, PARAMS)


def test_params_validation():
    with pytest.raises(ValueError, match="10 power levels"):
        EnergyParams(level_count=8)
    with pytest.raises(ValueError, match="increase"):
        EnergyParams(level_min_dbm=12, level_max_dbm=-20)
    with pytest.raises(ValueError, match="must be > 0"):
        EnergyParams(p_sense_mw=0)


# -- ledger ------------------------------------------------------------------------


def test_mode_accrual_sleep():
    ledger = EnergyLedger([0], budget_j=10.0)
    ledger.accrue(0, SLEEP, 60.0, PARAMS)
    assert ledger.spent_by_mode(0)["sleep"] == pytest.approx(0.0005 * 60)


def test_mode_accrual_sense():
    ledger = EnergyLedger([0], budget_j=10.0)
    ledger.accrue(0, SENSE, 10.0, PARAMS)
    assert ledger.spent_by_mode(0)["sense"] == pytest.approx(0.12)


def test_mode_accrual_zero_duration_noop():
    ledger = EnergyLedger([0], budget_j=10.0)
    ledger.accrue(0, SENSE, 0.0, PARAMS)
    assert ledger.total_spent(0) == 0.0


def test_mode_accrual_rejections():
    ledger = EnergyLedger([0], budget_j=10.0)
    with pytest.raises(ValueError, match="duration"):
        ledger.accrue(0, SENSE, -1.0, PARAMS)
    for slot in (TX, RX, 4, None):
        with pytest.raises(ValueError, match="SENSE or SLEEP"):
            ledger.accrue(0, slot, 1.0, PARAMS)
    with pytest.raises(ValueError, match="no ledger entry"):
        ledger.accrue(9, SENSE, 1.0, PARAMS)
    assert ledger.rows[0] == [0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("slot, mw", [(SENSE, "p_sense_mw"), (SLEEP, "p_sleep_mw")])
@pytest.mark.parametrize("params", [PARAMS, EnergyParams(p_sense_mw=13.7, p_sleep_mw=0.31)])
def test_accrue_adds_the_drain_watts_times_the_span(slot, mw, params):
    # bit for bit: the watts are the milliwatts over 1000.0, then times the span
    for duration in (0.1, 7.0, 1234.567):
        ledger = EnergyLedger([0], budget_j=10.0)
        ledger.rows[0][slot] = 0.3
        ledger.accrue(0, slot, duration, params)
        assert params.drain_w[slot] == getattr(params, mw) / 1000.0
        assert ledger.rows[0][slot] == 0.3 + getattr(params, mw) / 1000.0 * duration
    assert sorted(params.drain_w) == [SENSE, SLEEP]


def test_ledger_conservation_identity():
    ledger = EnergyLedger([0, 1], budget_j=5.0)
    ledger.charge(0, TX, 1.25)
    ledger.charge(0, RX, 0.5)
    ledger.accrue(0, SENSE, 100.0, PARAMS)
    ledger.accrue(0, SLEEP, 100.0, PARAMS)
    total = sum(ledger.spent_by_mode(0).values())
    assert abs(ledger.budget_j - (ledger.remaining(0) + total)) < 1e-12
    assert ledger.remaining(1) == 5.0


def test_ledger_death_threshold():
    ledger = EnergyLedger([0], budget_j=1.0)
    assert ledger.is_alive(0)
    ledger.charge(0, TX, 1.0)
    assert not ledger.is_alive(0)


def test_charge_rejections_match_check_charge():
    ledger = EnergyLedger([0], budget_j=1.0)
    for node, slot, joules, match in (
        (0, 4, 0.1, "unknown ledger slot"),
        (0, -1, 0.1, "unknown ledger slot"),
        (0, TX, -0.1, ">= 0"),
        # a NaN balance never reaches DEATH_EPSILON_J, so its node never dies
        (0, TX, math.nan, ">= 0"),
        (0, RX, math.inf, ">= 0"),
        (0, TX, -math.inf, ">= 0"),
        (9, TX, 0.1, "no ledger entry"),
    ):
        with pytest.raises(ValueError, match=match):
            ledger.check_charge(node, slot, joules)
        with pytest.raises(ValueError, match=match):
            ledger.charge(node, slot, joules)
    for duration in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration must be >= 0"):
            ledger.accrue(0, SENSE, duration, PARAMS)
    assert ledger.check_charge(0, RX, 0.1) is None
    assert ledger.total_spent(0) == 0.0
    assert ledger.rows[0] == [0.0, 0.0, 0.0, 0.0]
    for budget in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="budget must be > 0"):
            EnergyLedger([0], budget_j=budget)


@pytest.mark.parametrize("mode", [*LEDGER_MODES, "dead"])
def test_ledger_rejects_string_modes(mode):
    ledger = EnergyLedger([0], budget_j=1.0)
    for call in (ledger.check_charge, ledger.charge):
        with pytest.raises(ValueError, match="unknown ledger slot"):
            call(0, mode, 0.1)
    with pytest.raises(ValueError, match="SENSE or SLEEP"):
        ledger.accrue(0, mode, 1.0, PARAMS)
    assert ledger.rows[0] == [0.0, 0.0, 0.0, 0.0]


def test_ledger_rows_are_flat_mode_lists():
    assert (TX, RX, SENSE, SLEEP) == (0, 1, 2, 3)
    assert LEDGER_MODES == ("tx", "rx", "sense", "sleep")
    ledger = EnergyLedger([0], budget_j=1.0)
    ledger.charge(0, RX, 0.25)
    ledger.accrue(0, SLEEP, 100.0, PARAMS)
    assert ledger.rows[0] == [0.0, 0.25, 0.0, 0.05]
    assert ledger.remaining(0) == 1.0 - (((0.0 + 0.25) + 0.0) + 0.05)
    assert ledger.total_spent(0) == spent(*ledger.rows[0])


def test_spent_sums_left_to_right_on_floats_and_arrays():
    # an order where the left fold differs from the other groupings
    row = (1e16, 1.0, -1e16, 1.0)
    assert spent(*row) == ((1e16 + 1.0) + -1e16) + 1.0 == 1.0
    arrays = [np.array([x, 0.5]) for x in row]
    assert spent(*arrays).tolist() == [1.0, 2.0]


def test_ledger_snapshot_schema():
    ledger = EnergyLedger([3, 1], budget_j=2.0)
    rows = ledger.snapshot()
    assert [r[0] for r in rows] == [1, 3]
    assert all(len(r) == 6 for r in rows)


# -- coverage sizing ------------------------------------------------------------------


def test_min_sensor_count_reference_case():
    assert min_sensor_count(160 * 160, 40) == 11


def test_min_sensor_count_exactly_one():
    r = 10.0
    assert min_sensor_count(1.5 * r * r, r) == 1


def test_min_sensor_count_rejects_large_range():
    with pytest.raises(ValueError, match="smaller than the area"):
        min_sensor_count(100.0, 10.0)
    with pytest.raises(ValueError, match="area"):
        min_sensor_count(0, 5.0)


@given(st.floats(min_value=200.0, max_value=1e6), st.floats(min_value=1.0, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_min_sensor_count_doubles_with_area(area, r):
    base = (2 * math.pi * area) / (3 * math.pi * r * r)
    doubled = (2 * math.pi * (2 * area)) / (3 * math.pi * r * r)
    assert doubled == pytest.approx(2 * base)  # pre-ceiling linearity in A
    assert min_sensor_count(2 * area, r) >= min_sensor_count(area, r)


@given(
    st.floats(min_value=1e4, max_value=1e6),
    st.floats(min_value=1.0, max_value=40.0),
    st.floats(min_value=1.0, max_value=40.0),
)
@settings(max_examples=60, deadline=None)
def test_min_sensor_count_monotone_in_range(area, r1, r2):
    lo, hi = sorted((r1, r2))
    assert min_sensor_count(area, lo) >= min_sensor_count(area, hi)


# -- savings and diagnostics ------------------------------------------------------------


def test_energy_savings_definition():
    assert energy_savings(38.0, 100.0) == pytest.approx(62.0)
    assert energy_savings(100.0, 100.0) == pytest.approx(0.0)
    with pytest.raises(ValueError, match="baseline"):
        energy_savings(1.0, 0.0)


def test_scaling_diagnostics_constant_points_pass():
    points = [(35, 5000.0, 40.0), (70, 5000.0, 40.0), (105, 5000.0, 40.0)]
    diag = scaling_diagnostics(points)
    assert diag.ok
    assert diag.energy_cv == pytest.approx(0.0)
    assert diag.lifetime_max_rel_residual == pytest.approx(0.0)


def test_scaling_diagnostics_energy_growth_fails():
    points = [(35, 5000.0, 10.0), (70, 5000.0, 20.0), (105, 5000.0, 30.0), (140, 5000.0, 40.0)]
    diag = scaling_diagnostics(points)
    assert not diag.energy_constant_ok
    assert diag.energy_cv > 0.15


def test_scaling_diagnostics_superlinear_lifetime_fails():
    points = [(35, 100.0, 40.0), (70, 200.0, 40.0), (105, 400.0, 40.0), (140, 1600.0, 40.0)]
    diag = scaling_diagnostics(points)
    assert not diag.lifetime_linear_ok


def test_scaling_diagnostics_needs_three_points():
    with pytest.raises(ValueError, match="3 batch points"):
        scaling_diagnostics([(35, 1.0, 1.0), (70, 1.0, 1.0)])
