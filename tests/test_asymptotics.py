"""Frequency/wavenumber predictions and the sweep comparison table."""
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eikolab.asymptotics import (
    BRANCH_CLOSED_FORM,
    BRANCH_TRUNCATED,
    LAW_PREFACTOR,
    compare_prediction_to_runs,
    predict_k_for_family,
    predict_lambda,
)
from eikolab.errors import (
    ConventionError,
    DomainError,
    OutOfRegimeError,
    StatisticsError,
)
from eikolab.specfun import EULER_GAMMA


def test_lambda_at_unit_mass():
    # 2 e^{-gamma} e^{-1} = 0.4130986...; quoted elsewhere as 0.41315 (a
    # last-digit slip: the formula is authoritative)
    lam = predict_lambda(-1.0)
    assert lam == pytest.approx(2.0 * math.exp(-EULER_GAMMA - 1.0), rel=1e-15)
    assert lam == pytest.approx(0.41310, abs=5e-5)


def test_lambda_convention_guard():
    with pytest.raises(ConventionError):
        predict_lambda(1.0)
    with pytest.raises(ConventionError):
        predict_lambda(0.0)


def test_lambda_graceful_underflow():
    assert predict_lambda(-1e-12) == 0.0


def test_spec_example_small_rate():
    # eps = 0.05 folded into A = 1.5 at p = 0.8: Lambda ~ 1.23e-4
    fam = predict_k_for_family(0.05 * 1.5, 0.8)
    assert predict_lambda(-fam.a_sim) == pytest.approx(1.23e-4, rel=5e-3)


def test_family_branches():
    closed = predict_k_for_family(1.5, 1.5)
    assert closed.branch == BRANCH_CLOSED_FORM
    assert closed.a_sim == pytest.approx(1.5, rel=1e-12)
    trunc = predict_k_for_family(1.5, 0.8)
    assert trunc.branch == BRANCH_TRUNCATED
    assert trunc.a_sim == pytest.approx(1.5 * 2.5 * (10.0**0.2 - 1.0), rel=1e-9)
    assert trunc.k_shape == pytest.approx(math.exp(-1.0 / trunc.a_sim), rel=1e-12)


def test_family_prefactor_and_guards():
    # the bare shape: no prefactor is applied, C is fitted by compare alone
    base = predict_k_for_family(1.0, 2.0)
    assert base.k_shape == math.exp(-1.0 / base.a_sim)
    with pytest.raises(OutOfRegimeError):
        predict_k_for_family(1.0, 0.5)
    with pytest.raises(ConventionError):
        predict_k_for_family(0.0, 0.8)


@given(
    st.floats(min_value=0.005, max_value=0.1),
    st.integers(min_value=1, max_value=10),
)
def test_rate_is_beyond_all_orders(a, n):
    # halving the mass shrinks the rate faster than any fixed power would
    big = predict_lambda(-a)
    small = predict_lambda(-a / 2.0)
    assert small <= big * 0.5**n


@given(st.floats(min_value=0.05, max_value=5.0))
def test_rate_monotone_in_mass(a):
    assert predict_lambda(-a) < predict_lambda(-(a * 1.01))
    assert predict_lambda(-a) < LAW_PREFACTOR


# ------------------------------------------------------------- comparison


def _report(k, converged=True):
    return SimpleNamespace(k_measured=k, converged=converged)


def test_compare_fits_exact_prefactor():
    c = 0.8
    sweep = []
    for p in (1.2, 1.5, 2.0, 2.5):
        fam = predict_k_for_family(1.5, p)
        sweep.append(({"A": 1.5, "p": p}, _report(c * fam.k_shape)))
    table = compare_prediction_to_runs(sweep)
    assert table.c_fitted == pytest.approx(c, rel=1e-12)
    assert table.rms_log_residual < 1e-12
    assert table.n_used == 4 and table.n_excluded == 0
    assert all(row.branch == BRANCH_CLOSED_FORM for row in table.rows)


def test_compare_handles_non_steady_rows():
    sweep = [
        ({"A": 1.5, "p": 1.2}, _report(0.1)),
        ({"A": 1.5, "p": 1.5}, _report(0.05)),
        ({"A": 1.5, "p": 2.0}, _report(-1.0, converged=False)),
        ({"A": 1.5, "p": 2.5}, _report(0.01)),
    ]
    table = compare_prediction_to_runs(sweep)
    assert table.n_used == 3 and table.n_excluded == 1
    bad = [row for row in table.rows if not row.steady]
    assert len(bad) == 1 and math.isnan(bad[0].log_residual)


def test_compare_accepts_direct_a_sim():
    sweep = [
        ({"a_sim": 0.6}, _report(math.exp(-1.0 / 0.6))),
        ({"a_sim": 0.9}, _report(math.exp(-1.0 / 0.9))),
        ({"a_sim": 1.2}, _report(math.exp(-1.0 / 1.2))),
    ]
    table = compare_prediction_to_runs(sweep)
    assert table.c_fitted == pytest.approx(1.0, rel=1e-12)
    assert all(row.branch == "given" for row in table.rows)


def test_compare_guards():
    with pytest.raises(StatisticsError):
        compare_prediction_to_runs([({"a_sim": 1.0}, _report(0.1))])
    sweep = [
        ({"a_sim": 0.6}, _report(0.1)),
        ({"a_sim": 0.9}, _report(0.0)),
        ({"a_sim": 1.2}, _report(0.2)),
    ]
    with pytest.raises(DomainError):
        compare_prediction_to_runs(sweep)
    all_dead = [
        ({"a_sim": 0.6}, _report(0.1, converged=False)),
        ({"a_sim": 0.9}, _report(0.1, converged=False)),
        ({"a_sim": 1.2}, _report(0.1, converged=False)),
    ]
    with pytest.raises(StatisticsError):
        compare_prediction_to_runs(all_dead)


def test_compare_lists_subcritical_runs_as_excluded():
    # p <= 1/2 controls carry a NaN a_sim: listed, never fitted, not counted
    control = ({"p": 0.3, "a_sim": math.nan}, _report(0.7))
    sweep = [
        ({"p": 0.8, "a_sim": 0.6}, _report(math.exp(-1.0 / 0.6))),
        control,
        ({"p": 1.5, "a_sim": 0.9}, _report(math.exp(-1.0 / 0.9))),
    ]
    with pytest.raises(StatisticsError):
        compare_prediction_to_runs(sweep)
    sweep.append(({"p": 2.0, "a_sim": 1.2}, _report(math.exp(-1.0 / 1.2))))
    table = compare_prediction_to_runs(sweep)
    assert table.c_fitted == pytest.approx(1.0, rel=1e-12)
    assert (table.n_used, table.n_excluded) == (3, 1)
    row = table.rows[1]
    assert (row.p, row.branch, row.steady, row.used) == (0.3, "subcritical", True, False)
    assert math.isnan(row.k_shape) and math.isnan(row.log_residual)
    # a negative mass above the threshold is still a sign error
    sweep[0] = ({"p": 0.8, "a_sim": -0.6}, _report(0.2))
    with pytest.raises(ConventionError):
        compare_prediction_to_runs(sweep)
