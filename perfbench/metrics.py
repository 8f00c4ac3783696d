"""Metric definitions and the per-layer metrics computed from one traced pass.

END_TO_END and PER_LAYER mirror BENCHMARK.json (name, unit, better).  Each
per-layer entry also names the end-to-end metric it should move and the
workload where that shows, written down before any optimisation is measured.
QUALITY lists the correctness figures each pass reports.  They gate
`correct` and are printed with the end-to-end table, but they are not
end-to-end metrics of BENCHMARK.json: some are zero on a correct run, which
leaves no relative bound to check, and some exist on one workload only.
"""
from __future__ import annotations

import numpy as np

from tracer import Spans

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

QUALITY = [
    ("failed_frac", "1", "lower", "all"),
    ("ref_dev", "1", "lower", "mass_sweep, single_n512"),
    ("omega_k2_gap", "1", "lower", "mass_sweep, single_n512"),
    ("law_pearson", "1", "higher", "mass_sweep"),
    ("oracle_err_max", "1", "lower", "radial_stack"),
]

SPECTRAL = "wall_s on mass_sweep and single_n512; none on radial_stack"
RADIAL = "wall_s on radial_stack only"

# (name, unit, better, what it should move)
PER_LAYER = [
    ("cli.member_s", "s", "lower", "wall_s on mass_sweep"),
    ("cli.pool_idle_s", "s", "lower", "wall_s on mass_sweep; 0 on single_n512"),
    ("cli.io_s", "s", "lower", "wall_s on single_n512"),
    ("spectral.make_plan.calls", "count", "lower",
     "wall_s on mass_sweep (nine plans) and on single_n512"),
    ("spectral.make_plan_s", "s", "lower",
     "wall_s on mass_sweep (nine plans) and on single_n512"),
    ("spectral.steps", "count", "lower", SPECTRAL),
    ("spectral.step_s", "s", "lower", SPECTRAL),
    ("spectral.step_ms", "ms", "lower", SPECTRAL + " (N=256 / N=512)"),
    ("spectral.step_self_s", "s", "lower", SPECTRAL),
    ("spectral.nonlinear_hat.calls", "count", "lower", SPECTRAL),
    ("spectral.nonlinear_hat_s", "s", "lower", SPECTRAL),
    ("spectral.fft.calls", "count", "lower", SPECTRAL),
    ("spectral.fft_s", "s", "lower", SPECTRAL),
    ("spectral.fft_in_step_s", "s", "lower", SPECTRAL),
    ("spectral.fft.gflop_per_s", "GFLOP/s", "higher", SPECTRAL + " (flops computed from N)"),
    ("spectral.steady_checks", "count", "lower", "wall_s on mass_sweep"),
    ("spectral.steady_check_s", "s", "lower", "wall_s on mass_sweep"),
    ("spectral.run_to_steady_s.weak", "s", "lower", "wall_s on mass_sweep (a = 0.45)"),
    ("spectral.run_to_steady_s.medium", "s", "lower", "wall_s on mass_sweep (a = 1.05)"),
    ("spectral.run_to_steady_s.strong", "s", "lower", "wall_s on mass_sweep (a = 2.85)"),
    ("spectral.runtime_warnings", "count", "lower", "none: a count per workload"),
    ("measure.build_report_s", "s", "lower", "wall_s on single_n512 more than on mass_sweep"),
    ("measure.measure_wavenumber.calls", "count", "lower",
     "wall_s on single_n512 more than on mass_sweep"),
    ("radial.fd_derivative.calls", "count", "lower", RADIAL),
    ("radial.fd_derivative_s", "s", "lower", RADIAL),
    ("radial.fd_weights.calls", "count", "lower", RADIAL),
    ("radial.inverse_L_s", "s", "lower", RADIAL),
    ("radial.corrector_s", "s", "lower", RADIAL),
    ("radial.far_field_s", "s", "lower", RADIAL),
    ("radial.far_field.iterations", "count", "lower", RADIAL),
    ("radial.correction_residual_s", "s", "lower", RADIAL),
    ("radial.shoot_s", "s", "lower", RADIAL),
    ("radial.shoot.bisections", "count", "lower", RADIAL),
    ("radial.hopf_cole_s", "s", "lower", RADIAL),
    ("specfun.calls", "count", "lower", "wall_s on radial_stack; 0 on the spectral workloads"),
    ("specfun_s", "s", "lower", "wall_s on radial_stack; 0 on the spectral workloads"),
    ("profiles_s", "s", "lower", "none: expected under 1% of wall_s on every workload"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
]

# a_sim of ROADMAP's weak, medium and strong masses in the figure-1 preset
MASS_CLASSES = {"weak": 0.45, "medium": 1.05, "strong": 2.85}

SPECFUN = ("specfun.bessel_eval", "specfun.bessel_k0", "specfun.bessel_k1",
           "specfun.bessel_k0_scaled", "specfun.bessel_k1_scaled",
           "specfun.log_k0_ratio")
PROFILES = ("profiles.evaluate_g", "profiles.smooth_cutoff",
            "profiles.cutoff_derivatives", "profiles.split_defect",
            "profiles.core_mass")
IO = ("cli.write_csv", "cli.write_json", "cli._sha256",
      "spectral.write_field_snapshot", "spectral.read_field_snapshot")
FFT = ("fft.rfft2", "fft.irfft2")


def layer_metrics(sp: Spans, jobs: int, runtime_warnings: int) -> dict[str, float]:
    """Every PER_LAYER value except trace.overhead_s, from one traced pass."""

    def total(sel):
        return float(np.sum(sp.dur[sel]))

    def count(sel):
        return float(np.count_nonzero(sel))

    member = sp.mask("cli._run_member")
    sweep = sp.mask("cli._run_members")
    step = sp.mask("spectral._step_hat")
    nonlinear = sp.mask("spectral._nonlinear_hat")
    fft = sp.mask(*FFT)
    plan = sp.mask("spectral.make_plan")
    check = sp.mask("spectral.full_rhs_hat")
    steady = sp.mask("spectral.run_to_steady")
    specfun = sp.outermost(sp.mask(*SPECFUN))
    profiles = sp.outermost(sp.mask(*PROFILES))
    io = sp.outermost(sp.mask(*IO))

    out = {
        "cli.member_s": total(member),
        "cli.pool_idle_s": jobs * total(sweep) - total(member) if sweep.any() else 0.0,
        "cli.io_s": total(io),
        "spectral.make_plan.calls": count(plan),
        "spectral.make_plan_s": total(plan),
        "spectral.steps": count(step),
        "spectral.step_s": total(step),
        "spectral.step_ms": 1e3 * float(np.median(sp.dur[step])) if step.any() else 0.0,
        "spectral.step_self_s": float(np.sum(sp.self_time[step])),
        "spectral.nonlinear_hat.calls": count(nonlinear),
        "spectral.nonlinear_hat_s": total(nonlinear),
        "spectral.fft.calls": count(fft),
        "spectral.fft_s": total(fft),
        "spectral.fft_in_step_s": total(sp.under(fft, step)),
        "spectral.fft.gflop_per_s": (
            float(np.sum(sp.note[fft])) / total(fft) / 1e9 if fft.any() else 0.0
        ),
        "spectral.steady_checks": count(check),
        # everything run_to_steady does besides stepping, planning and the
        # report: phi_t evaluations, residual reductions, defect sampling
        "spectral.steady_check_s": (
            total(check) + float(np.sum(sp.self_time[steady]))
            + total(fft & np.isin(sp.up, np.flatnonzero(steady)))
        ),
        "spectral.runtime_warnings": float(runtime_warnings),
        "measure.build_report_s": total(sp.mask("measure.build_report")),
        "measure.measure_wavenumber.calls": count(sp.mask("measure.measure_wavenumber")),
        "radial.fd_derivative.calls": count(sp.mask("radial.fd_derivative")),
        "radial.fd_derivative_s": total(sp.outermost(sp.mask("radial.fd_derivative"))),
        "radial.fd_weights.calls": count(sp.mask("radial.fd_weights")),
        "radial.inverse_L_s": total(sp.outermost(sp.mask("radial.apply_inverse_L_lambda"))),
        "radial.corrector_s": total(sp.mask("radial.solve_corrector_K")),
        "radial.far_field_s": total(sp.mask("radial.solve_far_field_correction")),
        "radial.far_field.iterations": float(
            np.sum(sp.note[sp.mask("radial.solve_far_field_correction")])),
        "radial.correction_residual_s": total(sp.mask("radial.correction_residual")),
        "radial.shoot_s": total(sp.mask("radial.shoot_spiral_amplitude")),
        "radial.shoot.bisections": float(
            np.sum(sp.note[sp.mask("radial.shoot_spiral_amplitude")])),
        "radial.hopf_cole_s": total(sp.mask("radial.hopf_cole_residual")),
        "specfun.calls": count(specfun),
        "specfun_s": total(specfun),
        "profiles_s": total(profiles),
    }

    rows = np.flatnonzero(steady)
    masses = sp.ancestor_note(rows, member)
    for label, a in MASS_CLASSES.items():
        hit = np.isclose(masses, a, rtol=0.0, atol=1e-9)
        out[f"spectral.run_to_steady_s.{label}"] = float(np.sum(sp.dur[rows[hit]]))
    return out

