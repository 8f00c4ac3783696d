"""The benchmark's workloads: inputs from a seed, the timed call, the checks.

Each workload is built from `--seed` (the set-up the benchmark times), runs
`execute` once per pass inside the timed region, and is judged by `evaluate`
outside it.  `execute` reaches eikolab only through module attributes
(`cli.main`, `radial.solve_corrector_K`, ...) so that the tracer's wrappers,
installed by attribute, see every call.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from eikolab import cli, profiles, radial, specfun

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
BESSEL_ORACLE = HERE / "data" / "bessel_oracle.json"

# a locked state reproduces the stored k and Omega to this relative deviation.
# Tightening steady_tol from 1e-5 to 1e-7 moves k by 3.4e-5 at a = 1.05 and
# by 4.6e-7 at a = 2.85 (N=256), so a different path to the same locked state
# (warm start, stacked members) stays well inside, and a wrong answer does not.
REF_TOL = 1e-3
OMEGA_K2_BOUND = 0.15  # the paper's |Omega - k^2| / Omega bound at b = 1
PEARSON_MIN = 0.99


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def tree_digest(out: Path) -> str:
    """sha256 over every output file except the time-stamped manifest."""
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            h.update(str(p.relative_to(out)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def rel_dev(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def omega_k2_gap(report: dict) -> float:
    return abs(report["omega_drift"] - report["k_measured"] ** 2) / report["omega_drift"]


# ------------------------------------------------------------------ spectral


def balanced_order(rng: np.random.Generator, cost: list[float], jobs: int) -> list[int]:
    """A seed-drawn member order that the `jobs`-thread pool packs evenly.

    `ThreadPoolExecutor.map` hands members to whichever thread is free, so the
    sweep's wall time depends on the order: uniformly random orders of the
    figure-1 preset spread it by about 12% (interquartile, computed from the
    step counts).  Orders are drawn until the greedy schedule finishes within
    1% of the lower bound max(longest member, total / jobs); about one order
    in sixteen qualifies, so every seed still gets its own order.
    """
    bound = max(max(cost), sum(cost) / jobs)
    while True:
        order = [int(i) for i in rng.permutation(len(cost))]
        load = [0.0] * jobs
        for i in order:
            load[load.index(min(load))] += cost[i]
        if max(load) <= 1.01 * bound:
            return order


class MassSweep:
    """`eikolab figure1` at N=256 over the nine preset masses, two threads."""

    name = "mass_sweep"
    # a member costs its steps plus about 20 steps' worth of plan and report
    member_overhead_steps = 20

    def __init__(self, seed: int, reference: dict | None):
        self.jobs = min(2, len(os.sched_getaffinity(0)))
        presets = list(cli.FIG1_A_VALUES)
        self.reference = None if reference is None else reference[self.name]
        if self.reference is None:
            order = list(range(len(presets)))
        else:
            cost = [self.reference[repr(a)]["steps"] + self.member_overhead_steps
                    for a in presets]
            order = balanced_order(np.random.default_rng(seed), cost, self.jobs)
        self.a_values = [presets[i] for i in order]
        self.argv = [
            "figure1", "--N", "256", "--L", "100", "--dt", "0.5", "--A", "1",
            "--p", "0.8", "--jobs", str(self.jobs),
            "--a-values", ",".join(repr(a) for a in self.a_values),
        ]

    def prepare(self):
        pass

    def execute(self, out: Path):
        return cli.main(self.argv + ["--out", str(out)])

    def members(self, out: Path) -> dict[str, dict]:
        runs = json.loads((out / "runs.json").read_text())
        return {repr(e["params"]["a_sim"]): e["report"] for e in runs}

    def evaluate(self, code, out: Path):
        members = self.members(out)
        fit = json.loads((out / "fig1b_fit.json").read_text())
        pearson = abs(fit.get("transform_fit", {}).get("pearson_r", 0.0))
        gap = max(omega_k2_gap(r) for r in members.values())
        ref_dev = max(
            max(rel_dev(r["k_measured"], self.reference[a]["k"]),
                rel_dev(r["omega_drift"], self.reference[a]["omega"]))
            for a, r in members.items()
        )
        checks = [Check("exit_code", code == cli.EXIT_OK, f"exit code {code}")]
        checks += [Check(f"locked a={float(a):g}", r["converged"], f"{r['steps']} steps")
                   for a, r in members.items()]
        checks += [
            Check("members", sorted(members) == sorted(self.reference),
                  f"{len(members)} of {len(self.reference)} preset members"),
            Check("law_pearson", pearson > PEARSON_MIN, f"|pearson| {pearson:.6f}"),
            Check("omega_k2_gap", gap <= OMEGA_K2_BOUND, f"worst {gap:.4f}"),
            Check("ref_dev", ref_dev <= REF_TOL, f"worst {ref_dev:.3e}"),
        ]
        quality = {"ref_dev": ref_dev, "omega_k2_gap": gap, "law_pearson": pearson}
        return checks, quality, tree_digest(out)


class SingleN512:
    """`eikolab simulate` at N=512, eps=1, field saved, then `eikolab measure`."""

    name = "single_n512"
    jobs = 1

    def __init__(self, seed: int, reference: dict | None):
        # one fixed member; the seed has nothing to vary without changing the
        # amount of work, so every seed runs the same inputs
        self.reference = None if reference is None else reference[self.name]
        self.sim_argv = ["simulate", "--N", "512", "--L", "100", "--A", "1",
                         "--p", "0.8", "--eps", "1.0", "--save-field"]

    def prepare(self):
        pass

    def execute(self, out: Path):
        sim = cli.main(self.sim_argv + ["--out", str(out)])
        meas = cli.main(["measure", "--field", str(out / "field"),
                         "--out", str(out / "measure.json")])
        return sim, meas

    def members(self, out: Path) -> dict[str, dict]:
        return {"member": json.loads((out / "report.json").read_text())}

    def evaluate(self, codes, out: Path):
        report = self.members(out)["member"]
        k_field = json.loads((out / "measure.json").read_text())["k_measured"]
        gap = omega_k2_gap(report)
        ref = self.reference["member"]
        ref_dev = max(rel_dev(report["k_measured"], ref["k"]),
                      rel_dev(report["omega_drift"], ref["omega"]))
        field_dev = rel_dev(k_field, report["k_measured"])
        checks = [
            Check("exit_codes", codes == (cli.EXIT_OK, cli.EXIT_OK), f"exit codes {codes}"),
            Check("locked", report["converged"], f"{report['steps']} steps"),
            Check("snapshot_k", field_dev <= 1e-12, f"relative deviation {field_dev:.2e}"),
            Check("omega_k2_gap", gap <= OMEGA_K2_BOUND, f"{gap:.4f}"),
            Check("ref_dev", ref_dev <= REF_TOL, f"{ref_dev:.3e}"),
        ]
        quality = {"ref_dev": ref_dev, "omega_k2_gap": gap}
        return checks, quality, tree_digest(out)


# -------------------------------------------------------------------- radial


class RadialStack:
    """The radial asymptotics stack with no 2D stepping (criteria 1, 7, 8 and more)."""

    name = "radial_stack"
    jobs = 1

    # far-field Newton correction and its inward-integrated oracle
    LAM, B, EPS = 0.5, 1.0, 0.05
    SHOOT_SLOPE = 0.5831894958602174  # frozen from a converged 52-bisection run

    def __init__(self, seed: int, reference: dict | None):
        rng = np.random.default_rng(seed)
        table = json.loads(BESSEL_ORACLE.read_text())["grid"]
        self.bessel_z = [float(row["z"]) for row in table]
        self.bessel_ref = np.array([[float(row["k0"]), float(row["k1"])] for row in table])

        self.corrector_grid = radial.RadialGrid.uniform(220.0, 8801)

        self.rt_grid = radial.RadialGrid(np.linspace(0.0, 20.0, 4001))
        rr = self.rt_grid.nodes
        self.round_trips = []
        for _ in range(20):
            c = rng.uniform(-1.0, 1.0, 4)
            f = c[0] + c[1] * np.cos(0.3 * rr) + c[2] / (1.0 + rr) + c[3] * np.exp(-0.1 * rr)
            self.round_trips.append((radial.RadialProfile(self.rt_grid, f),
                                     float(rng.uniform(0.05, 2.0))))

        self.ansatz = radial.FarFieldAnsatz(decay_rate=self.LAM, b=self.B)
        self.defect = profiles.InhomogeneitySpec(1.5, 0.8)
        self.far_grid = radial.RadialGrid(np.linspace(1.0, 80.0, 8001))

        hc_grid = radial.RadialGrid(np.linspace(2.0 / self.LAM, 8.0 / self.LAM, 2001))
        self.hc_phi = radial.RadialProfile(
            hc_grid,
            np.array([-math.log(specfun.bessel_k0(self.LAM * r)) / self.B
                      for r in hc_grid.nodes]),
        )
        self.far_oracle = None

    def g(self, s):
        return profiles.evaluate_g(self.defect, s)

    @staticmethod
    def tail(s):
        """Pure 1/r^2 source switched on at r = 1: exact K = -(log r)^2 / 2."""
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        far = s >= 1.0
        out[far] = s[far] ** -2.0
        return out

    def prepare(self):
        """Inward integration of Psi'' + Psi'/r = (Lambda^2 - b eps g) Psi.

        The decaying branch grows inward, so contamination dies off; the
        oracle gradient is -(log Psi)'/b on z = Lambda r in [2, 8].
        """
        lam, b, eps = self.LAM, self.B, self.EPS

        def rhs(r, y):
            psi, dpsi = y
            return (dpsi, (lam * lam - b * eps * self.g(r)) * psi - dpsi / r)

        r_hi, r_lo = 60.0, 4.0
        y0 = (1.0, lam * specfun.log_k0_ratio(lam * r_hi))  # K0-normalized launch
        sol = solve_ivp(rhs, (r_hi, r_lo), y0, method="DOP853",
                        rtol=1e-11, atol=1e-12, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"far-field oracle integration failed: {sol.message}")
        self.probe = np.linspace(4.0, 16.0, 60)
        psi, dpsi = sol.sol(self.probe)
        self.far_oracle = -(dpsi / psi) / b

    def execute(self, out: Path):
        res = {}
        evals = [specfun.bessel_eval(z) for z in self.bessel_z]
        res["bessel"] = np.array([[e.k0, e.k1] for e in evals])

        res["corrector"] = radial.solve_corrector_K(
            self.tail, b=1.0, grid=self.corrector_grid).values

        rr = self.rt_grid.nodes
        resid = []
        for f, lam in self.round_trips:
            u = radial.apply_inverse_L_lambda(f, lam)
            du = radial.fd_derivative(rr, u.values, 1)
            resid.append(du[1:] + u.values[1:] / rr[1:] + lam * u.values[1:] - f.values[1:])
        res["round_trip"] = np.array(resid)

        res["far_field"] = radial.solve_far_field_correction(
            self.ansatz, g=self.g, eps=self.EPS, grid=self.far_grid)
        res["shoot"] = radial.shoot_spiral_amplitude(20.0, 1e-8)
        res["hopf_cole"] = radial.hopf_cole_residual(
            self.hc_phi, None, 0.0, omega=self.LAM ** 2 / self.B, b=self.B)
        return res

    def evaluate(self, res, out: Path):
        errors = {}  # oracle -> (error, acceptance tolerance)
        errors["bessel"] = (float(np.max(np.abs(res["bessel"] / self.bessel_ref - 1.0))), 1e-9)

        r = self.corrector_grid.nodes
        window = (r >= 50.0) & (r <= 200.0)
        expected = -0.5 * np.log(r[window]) ** 2
        errors["corrector"] = (
            float(np.max(np.abs(res["corrector"][window] - expected) / np.abs(expected))), 0.05)

        errors["round_trip"] = (float(np.max(np.abs(res["round_trip"][:, 10:-10]))), 1e-5)

        ff = res["far_field"]
        newton = (radial.far_field_phi0_grad(self.ansatz, self.probe)
                  + ff.psi.interpolator()(self.probe))
        errors["far_field"] = (float(np.max(np.abs(newton - self.far_oracle))), 1e-6)

        shoot = res["shoot"]
        errors["shoot_slope"] = (abs(shoot.slope_origin - self.SHOOT_SLOPE), 1e-9)
        rho = shoot.profile.interpolator()
        rt = np.linspace(10.0, 20.0, 201)
        law = rt ** 2 * (1.0 - np.asarray(rho(rt)) ** 2)  # r^2 (1 - rho^2) in [0.8, 1.2]
        errors["shoot_tail_law"] = (float(np.max(np.abs(law - 1.0))), 0.2)

        errors["hopf_cole"] = (float(res["hopf_cole"]), 1e-6)

        checks = [Check(name, err <= tol, f"{err:.3e} (tolerance {tol:g})")
                  for name, (err, tol) in errors.items()]
        checks.append(Check("far_field_converged", bool(ff.converged),
                            f"{ff.iterations} iterations"))
        quality = {"oracle_err_max": max(err / tol for err, tol in errors.values())}

        h = hashlib.sha256()
        for key in ("bessel", "corrector", "round_trip"):
            h.update(np.ascontiguousarray(res[key]).tobytes())
        h.update(ff.psi.values.tobytes())
        h.update(shoot.profile.values.tobytes())
        h.update(np.array([shoot.slope_origin, res["hopf_cole"]]).tobytes())
        return checks, quality, h.hexdigest()


WORKLOADS = {w.name: w for w in (MassSweep, SingleN512, RadialStack)}

