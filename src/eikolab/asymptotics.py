"""First-order matched-asymptotics predictions for the pattern wavenumber.

The far-field decay rate obeys lam = 2 e^{-gamma} exp(1/a) where a < 0 is the
signed matching constant; callers holding the positive defect mass a_sim pass
a = -a_sim.  The frequency follows by squaring, b*omega = lam^2, and the
selected wavenumber is lam/b.  branch_mass is the one rule that turns a defect
A/(1+r^2)^p into a_sim: profiles.core_mass's closed form, infinite for p > 1
and truncated at the fixed radius R_CUT = 3 for p <= 1, where the infinite
mass diverges.  The overall prefactor C multiplying k is never derived, only
fitted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ConventionError,
    DomainError,
    OutOfRegimeError,
    StatisticsError,
)
from .profiles import R_CUT, SUBCRITICAL_P, InhomogeneitySpec, core_mass
from .specfun import EULER_GAMMA

BRANCH_CLOSED_FORM = "closed_form"
BRANCH_TRUNCATED = "truncated"
BRANCH_SUBCRITICAL = "subcritical"  # p <= SUBCRITICAL_P: no law to compare with

# 2 e^{-gamma}: the K0 small-argument constant that sets the law's prefactor
LAW_PREFACTOR = 2.0 * math.exp(-EULER_GAMMA)


def predict_lambda(a_signed: float) -> float:
    """Far-field decay rate 2 e^{-gamma} exp(1/a) for a signed constant a < 0.

    Underflows gracefully to 0 as a -> 0^- (the rate is small beyond all
    orders there).
    """
    if not a_signed < 0.0:
        raise ConventionError(
            f"a_signed must be negative (theorem convention), got {a_signed}; "
            "a positive simulation-convention mass a_sim should be negated"
        )
    return LAW_PREFACTOR * math.exp(1.0 / a_signed)


def branch_mass(amplitude: float, p: float) -> tuple[float, str]:
    """(mass, branch) of the unit-strength defect amplitude/(1+r^2)^p.

    The infinite mass amplitude/(2p-2) for p > 1; otherwise the mass
    truncated at R_CUT, since the infinite one diverges.
    """
    spec = InhomogeneitySpec(amplitude, p, 1.0)
    if p > 1.0:
        return core_mass(spec), BRANCH_CLOSED_FORM
    return core_mass(spec, R_CUT), BRANCH_TRUNCATED


@dataclass(frozen=True)
class FamilyPrediction:
    """Wavenumber shape for one member of the algebraic defect family."""

    a_sim: float
    branch: str
    k_shape: float


def predict_k_for_family(amplitude: float, decay_exponent: float) -> FamilyPrediction:
    """The shape k ~ exp(-1/a_sim) for the family A/(1+r^2)^p.

    amplitude is the effective strength (fold eps and b in before calling).
    a_sim is branch_mass's, and the branch taken is recorded.
    """
    p = decay_exponent
    if not p > SUBCRITICAL_P:
        raise OutOfRegimeError(
            f"defect exponent p = {p} <= 1/2 produces no target pattern"
        )
    if not amplitude > 0.0:
        raise ConventionError(
            f"amplitude must be positive for a positive mass, got {amplitude}"
        )
    a_sim, branch = branch_mass(amplitude, p)
    return FamilyPrediction(a_sim=a_sim, branch=branch, k_shape=math.exp(-1.0 / a_sim))


# ------------------------------------------------------- sweep comparison


@dataclass(frozen=True)
class ComparisonRow:
    p: float
    a_sim: float
    k_measured: float
    k_shape: float
    log_residual: float
    steady: bool
    branch: str

    @property
    def used(self) -> bool:
        """Whether the row entered the prefactor fit."""
        return self.steady and self.branch != BRANCH_SUBCRITICAL


@dataclass(frozen=True)
class ComparisonTable:
    """Per-run prediction vs measurement with a single fitted prefactor."""

    rows: tuple[ComparisonRow, ...]
    c_fitted: float
    rms_log_residual: float
    n_used: int
    n_excluded: int


def _resolve_run(params: Mapping, p: float):
    """(a_sim, branch) for one sweep entry of defect exponent p."""
    if "a_sim" in params:
        return float(params["a_sim"]), "given"
    if "A" not in params:
        raise ConfigError(f"run with p = {p} gives neither 'A' nor 'a_sim'")
    eff = float(params["A"]) * float(params.get("eps", 1.0)) * float(params.get("b", 1.0))
    fam = predict_k_for_family(eff, p)
    return fam.a_sim, fam.branch


def compare_prediction_to_runs(sweep: Sequence[tuple[Mapping, object]]) -> ComparisonTable:
    """Fit the one free prefactor C over steady runs and report log residuals.

    Runs with p <= SUBCRITICAL_P are outside the theorem: they stay in the
    table on the subcritical branch with nan k_shape and residual, and do not
    count towards the 3 runs needed.  Non-steady runs stay in the table
    flagged steady=False with nan residual.  Neither enters the fit.
    """
    rows = []
    for params, report in sweep:
        steady = bool(getattr(report, "converged", True))
        k_measured = float(report.k_measured)
        p = float(params.get("p", math.nan))
        if p <= SUBCRITICAL_P:
            a_sim = float(params.get("a_sim", math.nan))
            rows.append(ComparisonRow(p, a_sim, k_measured, math.nan, math.nan, steady,
                                      BRANCH_SUBCRITICAL))
            continue
        a_sim, branch = _resolve_run(params, p)
        if not a_sim > 0.0:
            raise ConventionError(f"run has non-positive a_sim = {a_sim}")
        if steady and not k_measured > 0.0:
            raise DomainError(
                f"steady run reports non-positive k_measured = {k_measured}"
            )
        rows.append(ComparisonRow(p, a_sim, k_measured, math.exp(-1.0 / a_sim), math.nan,
                                  steady, branch))
    n_comparable = sum(r.branch != BRANCH_SUBCRITICAL for r in rows)
    if n_comparable < 3:
        raise StatisticsError(
            f"need at least 3 runs with p > {SUBCRITICAL_P} to compare, got {n_comparable}")

    used = [math.log(r.k_measured) - math.log(r.k_shape) for r in rows if r.used]
    if not used:
        raise StatisticsError("no steady runs available to fit the prefactor")
    log_c = float(np.mean(used))
    sq = 0.0
    for i, r in enumerate(rows):
        if r.used:
            res = math.log(r.k_measured) - math.log(r.k_shape) - log_c
            sq += res * res
            rows[i] = replace(r, log_residual=res)
    return ComparisonTable(
        rows=tuple(rows),
        c_fitted=math.exp(log_c),
        rms_log_residual=math.sqrt(sq / len(used)),
        n_used=len(used),
        n_excluded=len(rows) - len(used),
    )
