"""Modified Bessel evaluation against the frozen high-precision table.

The table in data/bessel_oracle.json was generated by an independent
ascending-series implementation in 60+ digit arithmetic (scripts/
make_bessel_tables.py), so these tests never compare the code to itself.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import k0e, k1e

from eikolab import specfun
from eikolab.errors import DomainError
from eikolab.specfun import (
    EULER_GAMMA,
    bessel_eval,
    bessel_k0,
    bessel_k0_scaled,
    bessel_k1,
    bessel_k1_scaled,
    log_k0_ratio,
)


def table_rows(table):
    for row in table["grid"] + table["probes"]:
        yield float(row["z"]), float(row["k0"]), float(row["k1"])


def table_columns(table, z_max):
    rows = np.array([row for row in table_rows(table) if row[0] <= z_max])
    return rows[:, 0], rows[:, 1], rows[:, 2]


def test_against_frozen_table(bessel_table):
    # abs=0: pytest.approx's default abs=1e-12 would pass every K < 1e-12
    for z, k0_ref, k1_ref in table_rows(bessel_table):
        if z >= 746.0:
            continue  # underflow regime checked separately
        assert bessel_k0(z) == pytest.approx(k0_ref, rel=1e-14, abs=0), z
        assert bessel_k1(z) == pytest.approx(k1_ref, rel=1e-14, abs=0), z
    # the whole table at once through the array path
    z, k0_ref, k1_ref = table_columns(bessel_table, 745.0)
    damp = np.exp(-z)
    assert bessel_k0_scaled(z) * damp == pytest.approx(k0_ref, rel=1e-14, abs=0)
    assert bessel_k1_scaled(z) * damp == pytest.approx(k1_ref, rel=1e-14, abs=0)


def test_scaled_variants_against_table(bessel_table):
    # scaled values stay O(1) where the bare ones underflow
    for z, k0_ref, k1_ref in table_rows(bessel_table):
        if z > 300.0:
            continue  # e^z overflows the reference product in doubles
        assert bessel_k0_scaled(z) == pytest.approx(
            math.exp(z) * k0_ref, rel=1e-12
        ), z
        assert bessel_k1_scaled(z) == pytest.approx(
            math.exp(z) * k1_ref, rel=1e-12
        ), z
    z, k0_ref, k1_ref = table_columns(bessel_table, 300.0)
    s0, s1 = bessel_k0_scaled(z), bessel_k1_scaled(z)
    assert isinstance(s0, np.ndarray) and s0.shape == z.shape
    assert s0 == pytest.approx(np.exp(z) * k0_ref, rel=1e-12)
    assert s1 == pytest.approx(np.exp(z) * k1_ref, rel=1e-12)
    assert log_k0_ratio(z) == pytest.approx(-k1_ref / k0_ref, rel=1e-12)
    # a float in gives a float out, whatever scalar type it came as
    for one in (3.0, 3, np.float64(3.0), np.array(3.0)):
        for f in (bessel_k0_scaled, bessel_k1_scaled, log_k0_ratio):
            out = f(one)
            assert type(out) is float and out == f(np.array([3.0]))[0]


def test_array_path_equals_float_path(bessel_table):
    # both paths run the same compiled ufuncs, so they agree bitwise
    z, _, _ = table_columns(bessel_table, math.inf)
    for f in (bessel_k0_scaled, bessel_k1_scaled, log_k0_ratio):
        arr = f(z)
        one = np.array([f(float(v)) for v in z])
        assert np.array_equal(arr.view(np.int64), one.view(np.int64)), f.__name__


def test_each_scaled_evaluator_runs_only_its_own_ufunc(bessel_table, monkeypatch):
    # bessel_k0_scaled is k0e and bessel_k1_scaled is k1e, bitwise, and
    # neither evaluates the other's ufunc
    z, _, _ = table_columns(bessel_table, math.inf)
    calls = []
    for name in ("k0e", "k1e"):
        ufunc = getattr(specfun, name)
        monkeypatch.setattr(specfun, name,
                            lambda x, ufunc=ufunc, name=name: calls.append(name) or ufunc(x))
    for f, name, ufunc in ((bessel_k0_scaled, "k0e", k0e), (bessel_k1_scaled, "k1e", k1e)):
        calls.clear()
        assert np.array_equal(f(z).view(np.int64), ufunc(z).view(np.int64))
        assert f(2.5) == float(ufunc(2.5))
        assert calls == [name, name]


def test_underflow_flag():
    # the flag keys on K0 rounding to 0, which the product of e^{-z} with the
    # O(1/sqrt(z)) scaled factor does before e^{-z} itself underflows (z = 746)
    ev = bessel_eval(746.0)
    assert ev.underflow and ev.k0 == 0.0 and ev.k1 == 0.0
    ev = bessel_eval(745.0)
    assert ev.underflow and ev.k0 == 0.0
    ev = bessel_eval(740.0)
    assert not ev.underflow and ev.k0 > 0.0
    # the flag is set exactly where K0 reads 0, on both sides of the edge
    for z in np.linspace(740.0, 746.0, 601):
        ev = bessel_eval(float(z))
        assert ev.underflow == (ev.k0 == 0.0), z
    # scaled evaluation survives far beyond the bare underflow point
    assert bessel_k0_scaled(5000.0) == pytest.approx(
        math.sqrt(math.pi / 10000.0), rel=1e-3
    )


def test_small_z_log_asymptote():
    # K0 ~ -log(z/2) - gamma, K1 ~ 1/z as z -> 0
    z = 1e-8
    assert bessel_k0(z) == pytest.approx(-math.log(z / 2) - EULER_GAMMA, rel=1e-9)
    assert bessel_k1(z) == pytest.approx(1.0 / z, rel=1e-9)


def test_domain_rejection():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            bessel_k0(bad)
        # one bad element rejects a whole array
        for f in (bessel_k0_scaled, bessel_k1_scaled, log_k0_ratio):
            with pytest.raises(DomainError):
                f(np.array([1.0, bad, 20.0]))


@given(st.floats(min_value=1e-3, max_value=700.0))
def test_positivity_and_order_inequality(z):
    # 0 < K0(z) < K1(z) for all z > 0
    k0, k1 = bessel_k0(z), bessel_k1(z)
    assert 0.0 < k0 < k1


@given(st.floats(min_value=1e-3, max_value=695.0))
def test_wronskian_like_monotonicity(z):
    # K0 is strictly decreasing; check against a slightly larger argument
    z2 = z * (1.0 + 1e-6)
    assert bessel_k0(z2) < bessel_k0(z)


@given(st.floats(min_value=1e-3, max_value=1e4))
def test_log_derivative_bounds(z):
    # -K1/K0 < -1 always, and -> -1 - 1/(2z) for large z
    r = log_k0_ratio(z)
    assert r < -1.0
    assert r > -1.0 - 1.0 / math.sqrt(z) - 10.0 / z


@given(st.floats(min_value=16.5, max_value=5000.0))
def test_scaled_large_z_expansion(z):
    # e^z K0 = sqrt(pi/2z)(1 - 1/8z + O(z^-2))
    lead = math.sqrt(math.pi / (2.0 * z))
    assert bessel_k0_scaled(z) == pytest.approx(lead * (1.0 - 0.125 / z), rel=1e-3)


def test_recurrence_identity(bessel_table):
    # K2 = K0 + 2 K1 / z, with K2 from the central difference of the pair:
    # K0' = -K1 and K1' = -(K0 + K2)/2 give K2 = -2 K1'(z) - K0.
    # Use the differentiated table relation instead: K1/K0 ratio consistency.
    for z, k0_ref, k1_ref in table_rows(bessel_table):
        if not 1e-3 <= z <= 50.0:
            continue
        assert log_k0_ratio(z) == pytest.approx(-k1_ref / k0_ref, rel=1e-12)


def test_benchmark_oracle_grid_is_the_test_grid(bessel_table):
    # the benchmark's Bessel gate and criterion 1 must check one oracle
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "bessel_oracle.json"
    assert json.loads(bench.read_text())["grid"] == bessel_table["grid"]
