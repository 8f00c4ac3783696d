"""Command line front end: runs, sweeps, predictions, figure pipelines.

simulate, sweep, shoot, corrector, profile and figure1-3 write into an output
directory and finish by emitting a manifest (config snapshot, version,
timestamps, sha256 of every output file, convention flags, library versions,
CPU count and BLAS thread settings); measure, predict, compare and special
write their tables or JSON alone.  All numeric CSV fields use 17 significant
digits so two invocations with the same config produce byte-identical data
files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 partial
results (some sweep members unsteady).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import scipy

from . import __version__
from .asymptotics import branch_mass, compare_prediction_to_runs, predict_k_for_family
from .asymptotics import predict_lambda
from .errors import BlowUpError, ConfigError, NumericalError, StatisticsError
from .measure import ANNULUS_FRACTIONS, default_annulus, fit_k_law, fit_log_k_vs_inv_a
from .measure import measure_wavenumber, radial_gradient, radial_gradient_profile
from .profiles import CutoffSpec, InhomogeneitySpec, core_mass, evaluate_g
from .profiles import R_CUT, SUBCRITICAL_P, smooth_cutoff, split_defect
from .radial import RadialGrid, shoot_spiral_amplitude, solve_corrector_K, validate_shooting
from .specfun import bessel_eval
from .spectral import (
    GridSpec2D,
    SimulationConfig,
    read_field_snapshot,
    run_to_steady,
    write_field_snapshot,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4

PLATEAU_GROWTH_LIMIT = 0.20

# recorded in every manifest so downstream tooling never has to guess signs
CONVENTIONS = {
    "equation": "phi_t = lap(phi) - b|grad phi|^2 - eps*g",
    "mass_sign": "a_sim = +b*eps*integral(g r dr), a_signed = -a_sim",
    "wavenumber_law": "k = (2/b) exp(-euler_gamma) exp(-1/a_sim)",
    "frequency_route": "omega = lambda^2 / b",
    "annulus_fractions": list(ANNULUS_FRACTIONS),
    "dealias": "two_thirds",
    "transform": "y = 1/(log k - 1)",
    "truncation_radius": R_CUT,
}


def _fmt(x) -> str:
    """One CSV cell: 17 significant digits for floats, plain ints, 0/1 bools."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def write_csv(path: Path, header: Sequence[str], rows) -> Path:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    _out_dir(path.parent)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path: Path | None, payload) -> Path | None:
    """Sorted, indented JSON to `path` (its directory made), or to stdout when `path` is None."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _out_dir(path.parent)
        path.write_text(text)
    return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Library versions, CPUs and the BLAS thread settings a run saw."""
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "cpus": {"count": os.cpu_count(),
                 "affinity": None if affinity is None else len(affinity)},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class RunManifest:
    """Config snapshot plus a hashed inventory of everything written."""

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        self.started_at = _utcnow()
        self.failures: list[str] = []

    def flag_failure(self, message: str):
        self.failures.append(message)

    def finalize(self, out_dir: Path) -> Path:
        files = {}
        for p in sorted(out_dir.rglob("*")):
            if p.is_file() and p.name != "manifest.json":
                files[str(p.relative_to(out_dir))] = _sha256(p)
        payload = {
            "command": self.command,
            "version": __version__,
            "config": self.config,
            "conventions": CONVENTIONS,
            "started_at": self.started_at,
            "finished_at": _utcnow(),
            "files": files,
            "failures": self.failures,
            "environment": _environment(),
        }
        return write_json(out_dir / "manifest.json", payload)


# -------------------------------------------------------------- config merge


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    if p.suffix == ".json":
        parse = json.loads
    elif p.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # 3.10
            try:
                import tomli as tomllib
            except ImportError as exc:
                raise ConfigError(
                    "TOML config needs the tomli package on this interpreter"
                ) from exc
        parse = tomllib.loads
    else:
        raise ConfigError(f"config file must be .json or .toml, got {p.suffix}")
    try:  # JSON and TOML decode errors are both ValueErrors
        data = parse(p.read_text())
    except ValueError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a flat key/value table")
    return data


def _merge_config(args, defaults: dict) -> dict:
    """defaults < config file < explicitly passed CLI flags."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            _check_file_value(key, val, _flag_type(defaults[key]))
        cfg.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None and val is not False:
            cfg[key] = val
    return cfg


def _flag_type(default):
    """A config key's flag type: its default's (int, float or bool), None (text) else."""
    return type(default) if isinstance(default, (int, float)) else None


# the values a config file may give a key of each flag type; a text key may
# also hold a list (of numbers, for the *_values and p_grid keys)
_FILE_TYPES = {int: (int,), float: (int, float), bool: (bool,), None: (str, list)}


def _check_file_value(key: str, val, kind):
    """ConfigError unless `val` has the flag type `kind` the command line gives `key`."""
    # bool is an int subclass: true/false may only set a switch
    if not isinstance(val, _FILE_TYPES[kind]) or (isinstance(val, bool) and kind is not bool):
        name = "text" if kind is None else kind.__name__
        raise ConfigError(f"config key {key!r} must be {name}, got {val!r}")


def _floats(text) -> list[float]:
    """A non-empty list of numbers, or their comma-separated text; ConfigError if not."""
    tokens = text if isinstance(text, (list, tuple)) else [
        tok for tok in str(text).split(",") if tok.strip()]
    try:
        values = [float(v) for v in tokens]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not a list of numbers: {text!r}") from exc
    if not values:
        raise ConfigError(f"no numbers in {text!r}")
    return values


def _out_dir(path) -> Path:
    """path as a directory, made with its parents; ConfigError where it or a
    parent is a file, or cannot be made."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {out}: {exc.strerror}") from exc
    return out


_SIM_DEFAULTS = {
    "N": 256, "L": 100.0, "dt": 0.5, "b": 1.0, "A": 1.0, "p": 0.8, "eps": 0.5,
    "t_max": 5000.0, "steady_tol": 1e-5, "save_field": False, "dry_run": False,
}
_SWEEP_DEFAULTS = {**_SIM_DEFAULTS, "jobs": 1}

# Each table is the exact set of config keys (and flags) its command accepts.
_DEFAULTS = {
    "simulate": {**_SIM_DEFAULTS, "out": "sim_out", "save_field": True},
    "sweep": {**_SWEEP_DEFAULTS, "out": "sweep_out", "a_values": None,
              "eps_values": None, "p_values": None},
    "figure1": {**_SWEEP_DEFAULTS, "out": "fig1", "N": 512, "a_values": None},
    "figure2": {**_SWEEP_DEFAULTS, "out": "fig2", "N": 512, "A": 1.5, "eps": 1.0,
                "p_grid": None},
    "figure3": {"out": "fig3", "rmax": 20.0, "tol": 1e-8, "dry_run": False},
}
# figure1 sets eps through the target a; figure2 sweeps p
del _DEFAULTS["figure1"]["eps"], _DEFAULTS["figure2"]["p"]


# ----------------------------------------------------------- run primitives


def _eps_for_target_a(a_sim: float, amplitude: float, p: float, b: float) -> float:
    """Solve eps from a_sim = eps * b * mass (linear)."""
    mass, _ = branch_mass(amplitude, p)
    if not mass > 0.0:
        raise ConfigError(f"defect mass is not positive (A={amplitude}, p={p})")
    return a_sim / (b * mass)


def _sim_config(cfg, eps: float, p: float) -> SimulationConfig:
    grid = GridSpec2D(int(cfg["N"]), float(cfg["L"]))
    defect = InhomogeneitySpec(float(cfg["A"]), float(p), float(eps))
    return SimulationConfig(
        grid=grid,
        dt=float(cfg["dt"]),
        b=float(cfg["b"]),
        defect=defect,
        t_max=float(cfg["t_max"]),
        steady_tol=float(cfg["steady_tol"]),
    )


def _run_member(cfg, eps: float, p: float, a_sim: float, member_dir: Path,
                save_field: bool):
    """One steady run plus its per-run artifacts; returns the runs.json entry."""
    member_dir.mkdir(parents=True, exist_ok=True)
    sim = _sim_config(cfg, eps, p)
    phi, report = run_to_steady(sim)
    write_json(member_dir / "report.json", report.as_dict())
    prof = report.radial_profile
    write_csv(
        member_dir / "profile.csv",
        ["r", "dphidr", "count", "interpolated"],
        zip(
            prof.grid.nodes,
            prof.values,
            np.asarray(prof.bin_counts),
            np.asarray(prof.interpolated, dtype=bool),
        ),
    )
    if save_field:
        write_field_snapshot(sim.grid, phi, member_dir / "field")
    params = {
        "A": float(cfg["A"]),
        "p": float(p),
        "eps": float(eps),
        "b": float(cfg["b"]),
        "a_sim": float(a_sim),
        "N": int(cfg["N"]),
        "L": float(cfg["L"]),
        "dt": float(cfg["dt"]),
    }
    return {"params": params, "report": report.as_dict(include_profile=False),
            "dir": member_dir.name}, report


def _run_members(cfg, members, out_dir: Path, save_field: bool, jobs: int):
    """members: list of (eps, p, a_sim, name). Order-preserving, jobs-bounded."""
    def work(m):
        eps, p, a_sim, name = m
        return _run_member(cfg, eps, p, a_sim, out_dir / name, save_field)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(work, members))
    return [work(m) for m in members]


def _member_a_sim(cfg, eps: float, p: float) -> float:
    """a_sim = eps * b * branch mass of a member; NaN for a subcritical p."""
    if p <= SUBCRITICAL_P:
        return math.nan
    mass, _ = branch_mass(float(cfg["A"]), p)
    return eps * float(cfg["b"]) * mass


def _sweep_members(cfg, axis: str, values) -> list:
    """Members (eps, p, a_sim, dir name) along `axis` ("a", "eps" or "p").

    The other two parameters come from cfg; a subcritical p gets a NaN a_sim
    on the eps and p axes.  Every member's SimulationConfig is built here, so
    a bad member raises ConfigError before any directory or run, as in a dry
    run.
    """
    b, amp = float(cfg["b"]), float(cfg["A"])
    if axis == "a":
        _sim_config(cfg, 0.0, float(cfg["p"]))  # refuses b <= 0 before eps divides by it
    members = []
    for i, v in enumerate(_floats(values)):
        if axis == "a":
            p = float(cfg["p"])
            eps, a = _eps_for_target_a(v, amp, p, b), v
        else:
            eps, p = (v, float(cfg["p"])) if axis == "eps" else (float(cfg["eps"]), v)
            a = _member_a_sim(cfg, eps, p)
        _sim_config(cfg, eps, p)
        members.append((eps, p, a, f"run_{i:02d}_{axis}{v:g}"))
    return members


def _sweep(command: str, cfg, members, write_tables=None, plan: bool = False) -> int:
    """The run engine behind simulate, sweep, figure1 and figure2.

    Runs `members` (as _sweep_members builds them; simulate's one member has
    the dir name "", so it runs in the output directory itself), writes
    runs.json and flags every unsteady member in the manifest, where any one
    fails the run (exit 4).  `write_tables(cfg, out, members, results)`, if
    given, then writes the command's own files.  A dry run writes the
    manifest, and plan.json when `plan` is set.
    """
    jobs = int(cfg.get("jobs", 1))
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    out = _out_dir(cfg["out"])
    manifest = RunManifest(command, cfg)
    if cfg["dry_run"]:
        if plan:
            write_json(out / "plan.json", [
                {"eps": e, "p": p, "a_sim": a, "dir": name} for e, p, a, name in members
            ])
        manifest.finalize(out)
        return EXIT_OK

    results = _run_members(cfg, members, out, bool(cfg["save_field"]), jobs)
    write_json(out / "runs.json", [entry for entry, _ in results])
    for (*_, name), (_entry, report) in zip(members, results):
        if not report.converged:
            manifest.flag_failure(f"{name or 'run'} unsteady at t_max")
    if write_tables is not None:
        write_tables(cfg, out, members, results)
    manifest.finalize(out)
    return EXIT_PARTIAL if manifest.failures else EXIT_OK


def _transform_y(k: float) -> float:
    if 0.0 < k < 1.0:
        return 1.0 / (math.log(k) - 1.0)
    return math.nan


def _profile_growth(profile, l: float) -> float:
    """Relative gradient growth from just outside the core to mid-annulus.

    Where b eps g is small against Omega by twice the mass truncation radius
    (r = 2 R_CUT = 6), the gradient is flat-to-falling from there.  A heavy
    tail keeps it climbing slowly towards its far value: the p = 0.3 control
    locks, and its growth (> 20%) is the plane profile's own (+24.98%), a
    slow approach to kappa/b, not a failure to lock.
    """
    f = profile.interpolator()
    v_in = float(f(2.0 * R_CUT))
    v_out = float(f(0.40 * l))
    if v_in == 0.0:
        return math.inf
    return (v_out - v_in) / abs(v_in)


# ---------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    cfg = _merge_config(args, _DEFAULTS["simulate"])
    eps, p = float(cfg["eps"]), float(cfg["p"])
    _sim_config(cfg, eps, p)  # a dry run refuses what the run would
    return _sweep("simulate", cfg, [(eps, p, _member_a_sim(cfg, eps, p), "")])


def cmd_sweep(args) -> int:
    cfg = _merge_config(args, _DEFAULTS["sweep"])
    chosen = [k for k in ("a_values", "eps_values", "p_values") if cfg[k]]
    if len(chosen) != 1:
        raise ConfigError("pass exactly one of --a-values, --eps-values, --p-values")
    members = _sweep_members(cfg, chosen[0].removesuffix("_values"), cfg[chosen[0]])
    return _sweep("sweep", cfg, members, _write_sweep_table, plan=True)


def _write_sweep_table(cfg, out: Path, members, results):
    write_csv(out / "sweep.csv", ["a", "p", "k", "omega", "y_transform"], [
        (a_sim, p, report.k_measured, report.omega_drift,
         _transform_y(report.k_measured))
        for (_eps, p, a_sim, _name), (_entry, report) in zip(members, results)
    ])


def cmd_measure(args) -> int:
    grid, phi = read_field_snapshot(args.field)
    annulus = default_annulus(grid)
    if args.annulus:
        vals = _floats(args.annulus)
        if len(vals) != 2:
            raise ConfigError("--annulus takes r_in,r_out")
        annulus = (vals[0], vals[1])
    radial = radial_gradient(grid, phi)
    k = measure_wavenumber(grid, radial, annulus)
    prof = radial_gradient_profile(grid, radial, n_bins=args.n_bins)
    payload = {
        "k_measured": k,
        "annulus": list(annulus),
        "y_transform": _transform_y(k),
        "radial_profile": {
            "r": prof.grid.nodes.tolist(),
            "dphidr": prof.values.tolist(),
        },
    }
    write_json(Path(args.out) if args.out else None, payload)
    return EXIT_OK


def cmd_predict(args) -> int:
    amp, b, eps = float(args.A), float(args.b), float(args.eps)
    for name, value in (("b", b), ("eps", eps)):  # before their product hides them
        if not value > 0.0:
            raise ConfigError(f"{name} must be > 0, got {value}")
        if math.isinf(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    strength = amp * eps * b
    if math.isinf(strength) and math.isfinite(amp):
        raise ConfigError(f"A eps b overflows: {amp} * {eps} * {b}")
    fam = predict_k_for_family(strength, float(args.p))
    lam = predict_lambda(-fam.a_sim)
    payload = {
        "a_signed": -fam.a_sim,
        "a_sim": fam.a_sim,
        "lambda": lam,
        "omega": lam**2 / b,
        "k_shape": fam.k_shape,
        "branch": fam.branch,
    }
    write_json(Path(args.out) if args.out else None, payload)
    return EXIT_OK


def _load_runs(path: str) -> tuple:
    """(the runs.json file at or in path, its runs)."""
    p = Path(path)
    if p.is_dir():
        p = p / "runs.json"
    if not p.is_file():
        raise ConfigError(f"no runs.json found at {path}")
    try:
        entries = json.loads(p.read_text())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {p}: {exc}") from exc
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("params"), dict)
            and isinstance(e.get("report"), dict) and "k_measured" in e["report"]
            for e in entries):
        raise ConfigError(f"{p} must be a list of runs, each with a 'params' "
                          "object and a 'report' object holding k_measured")
    for e in entries:
        values = [(k, e["params"][k]) for k in ("A", "eps", "b", "p", "a_sim")
                  if k in e["params"]]
        for key, val in values + [("k_measured", e["report"]["k_measured"])]:
            # bool is an int subclass, and float() would take it silently
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ConfigError(f"{p}: run value {key!r} must be a number, got {val!r}")
        # compare takes a run as steady by bool(converged): "false" would pass
        if not isinstance(e["report"].get("converged", True), bool):
            raise ConfigError(f"{p}: run value 'converged' must be true or false, "
                              f"got {e['report']['converged']!r}")
    return p, [(e["params"], SimpleNamespace(**e["report"])) for e in entries]


def cmd_compare(args) -> int:
    runs, sweep = _load_runs(args.runs)
    table = compare_prediction_to_runs(sweep)
    out = Path(args.out or runs.parent)
    write_csv(
        out / "compare.csv",
        ["p", "a_sim", "k_measured", "k_shape", "log_residual", "steady", "branch"],
        [
            (r.p, r.a_sim, r.k_measured, r.k_shape, r.log_residual, r.steady, r.branch)
            for r in table.rows
        ],
    )
    steady_pts = [(r.a_sim, r.k_measured) for r in table.rows if r.used]
    summary = {
        "c_fitted": table.c_fitted,
        "rms_log_residual": table.rms_log_residual,
        "n_used": table.n_used,
        "n_excluded": table.n_excluded,
    }
    if len(steady_pts) >= 4:
        summary["log_k_vs_inv_a"] = asdict(fit_log_k_vs_inv_a(steady_pts))
    write_json(out / "compare_summary.json", summary)
    return EXIT_OK


def _shoot(command: str, cfg, manifest_config: dict, names, **summary) -> int:
    """The body of shoot and figure3: check cfg's rmax and tol, make its out
    directory, then (unless cfg is a dry run) solve the amplitude BVP and
    write its profile, tail diagnostic and summary under `names`."""
    rmax, tol = float(cfg["rmax"]), float(cfg["tol"])
    validate_shooting(rmax, tol)
    out = _out_dir(cfg["out"])
    manifest = RunManifest(command, manifest_config)
    if not cfg.get("dry_run"):
        sol = shoot_spiral_amplitude(r_max=rmax, tol=tol)
        r = sol.profile.grid.nodes
        rho = sol.profile.values
        profile_csv, tail_csv, summary_json = names
        write_csv(out / profile_csv, ["r", "rho"], zip(r, rho))
        sel = r > 0
        write_csv(out / tail_csv, ["r", "r2_one_minus_rho_sq"],
                  zip(r[sel], r[sel] ** 2 * (1.0 - rho[sel] ** 2)))
        write_json(out / summary_json, {"slope_origin": sol.slope_origin,
                                        "tail_residual": sol.tail_residual, **summary})
    manifest.finalize(out)
    return EXIT_OK


def cmd_shoot(args) -> int:
    config = {"rmax": float(args.rmax), "tol": float(args.tol)}
    return _shoot("shoot", {**config, "out": args.out}, config,
                  ("amplitude_profile.csv", "tail_diagnostic.csv", "shoot.json"),
                  r_max=config["rmax"])


def _split_command(args, cutoff: CutoffSpec | None = None):
    """(spec, grid, split, manifest config, mass summary) of corrector and
    profile, all built before either makes its output directory, so a refused
    input leaves none."""
    spec = InhomogeneitySpec(float(args.A), float(args.p), float(args.eps))
    grid = RadialGrid.uniform(float(args.rmax), int(args.n))
    split = split_defect(spec, grid, cutoff=cutoff, b=float(args.b))
    config = {"A": float(args.A), "p": float(args.p), "eps": float(args.eps),
              "b": float(args.b), "rmax": float(args.rmax), "n": int(args.n)}
    summary = {"a_signed": split.a_signed, "a_sim": split.a_sim,
               "core_mass_integral": split.core_mass_integral}
    return spec, grid, split, config, summary


def cmd_corrector(args) -> int:
    _spec, grid, split, config, summary = _split_command(args)
    corr = solve_corrector_K(split.g_far, b=float(args.b))
    out = _out_dir(args.out)
    manifest = RunManifest("corrector", config)
    write_csv(
        out / "corrector.csv",
        ["r", "g_far", "K"],
        zip(grid.nodes, split.g_far.values, corr.values),
    )
    write_json(out / "corrector.json", {**summary, "K_at_rmax": float(corr.values[-1])})
    manifest.finalize(out)
    return EXIT_OK


def cmd_profile(args) -> int:
    cutoff = CutoffSpec(args.cutoff, m=float(args.m)) if args.cutoff == "chi_m" \
        else CutoffSpec("chi")
    spec, grid, split, config, summary = _split_command(args, cutoff)
    out = _out_dir(args.out)
    manifest = RunManifest("profile", {
        **config, "cutoff": args.cutoff, "m": float(args.m) if args.m else None,
    })
    write_csv(
        out / "defect_profile.csv",
        ["r", "g", "chi", "g_core", "g_far"],
        zip(grid.nodes, evaluate_g(spec, grid.nodes), smooth_cutoff(cutoff, grid.nodes),
            split.g_core.values, split.g_far.values),
    )
    write_json(out / "defect_profile.json", {**summary, "truncated_at": split.truncated_at})
    manifest.finalize(out)
    return EXIT_OK


def cmd_special(args) -> int:
    if args.z:
        zs = _floats(args.z)
    else:
        z_min, z_max, n = float(args.z_min), float(args.z_max), int(args.n)
        if not (0.0 < z_min < math.inf and 0.0 < z_max < math.inf):
            raise ConfigError(f"z_min and z_max must be finite and > 0, got {z_min}, {z_max}")
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        zs = np.geomspace(z_min, z_max, n).tolist()
    rows = []
    for z in zs:
        ev = bessel_eval(z)
        rows.append((ev.z, ev.k0, ev.k1, ev.underflow))
    if args.out:
        write_csv(Path(args.out), ["z", "k0", "k1", "underflow"], rows)
    else:
        for row in rows:
            print(",".join(_fmt(c) for c in row))
    return EXIT_OK


FIG1_A_VALUES = [0.15 * m for m in range(3, 20, 2)]


def cmd_figure1(args) -> int:
    cfg = _merge_config(args, _DEFAULTS["figure1"])
    cfg["a_values"] = _floats(FIG1_A_VALUES if cfg["a_values"] is None else cfg["a_values"])
    members = _sweep_members(cfg, "a", cfg["a_values"])  # refuses b <= 0 and a < 0
    for a in cfg["a_values"]:  # a zero-strength member makes no pattern to fit
        if not a > 0.0:
            raise ConfigError(f"a must be > 0, got {a}")
    return _sweep("figure1", cfg, members, _write_figure1)


def _write_figure1(cfg, out: Path, members, results):
    profile_rows = []
    point_rows = []
    steady_pts = []
    for (eps, _p, a, _name), (_entry, report) in zip(members, results):
        prof = report.radial_profile
        for r, v in zip(prof.grid.nodes, prof.values):
            profile_rows.append((a, r, v))
        point_rows.append((a, eps, report.k_measured, report.omega_drift,
                           _transform_y(report.k_measured)))
        if report.converged:
            steady_pts.append((a, report.k_measured))
    write_csv(out / "fig1a_profiles.csv", ["a", "r", "dphidr"], profile_rows)
    write_csv(out / "fig1b_points.csv", ["a", "eps", "k", "omega", "y_transform"],
              point_rows)

    fits = {}
    if len(steady_pts) >= 4:
        fits = {"transform_fit": asdict(fit_k_law(steady_pts)),
                "log_k_vs_inv_a": asdict(fit_log_k_vs_inv_a(steady_pts))}
    write_json(out / "fig1b_fit.json", fits)


FIG2_P_GRID = [0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0]
FIG2_PROFILE_PS = (0.3, 0.8, 1.5)


def cmd_figure2(args) -> int:
    cfg = _merge_config(args, _DEFAULTS["figure2"])
    cfg["p_grid"] = _floats(FIG2_P_GRID if cfg["p_grid"] is None else cfg["p_grid"])
    return _sweep("figure2", cfg, _sweep_members(cfg, "p", cfg["p_grid"]), _write_figure2)


def _write_figure2(cfg, out: Path, members, results):
    eff = float(cfg["A"]) * float(cfg["eps"]) * float(cfg["b"])
    k_rows = []
    profile_rows = []
    for (_eps, p, a, _name), (_entry, report) in zip(members, results):
        k_solid = (
            predict_k_for_family(eff, p).k_shape
            if p > 1.0 else math.nan
        )
        k_dashed = (
            math.exp(-1.0 / (eff * core_mass(InhomogeneitySpec(1.0, p, 1.0), R_CUT)))
            if p > SUBCRITICAL_P else math.nan
        )
        growth = _profile_growth(report.radial_profile, float(cfg["L"]))
        plateau = growth <= PLATEAU_GROWTH_LIMIT
        k_rows.append((p, a, report.k_measured, k_solid, k_dashed,
                       report.converged, plateau, growth))
        if any(abs(p - q) < 1e-9 for q in FIG2_PROFILE_PS):
            prof = report.radial_profile
            for r, v in zip(prof.grid.nodes, prof.values):
                profile_rows.append((p, r, v))
    write_csv(
        out / "fig2a_k_vs_p.csv",
        ["p", "a_sim", "k_measured", "k_solid", "k_dashed", "converged",
         "plateau", "gradient_growth"],
        k_rows,
    )
    write_csv(out / "fig2b_profiles.csv", ["p", "r", "dphidr"], profile_rows)

    summary = {"plateau": {f"{row[0]:g}": bool(row[6]) for row in k_rows}}
    try:
        table = compare_prediction_to_runs(
            [(entry["params"], report) for entry, report in results])
    except StatisticsError:  # fewer than 3 runs with p > SUBCRITICAL_P, or none steady
        pass
    else:
        summary["c_fitted"] = table.c_fitted
        summary["rms_log_residual"] = table.rms_log_residual
        steady_pts = [(r.a_sim, r.k_measured) for r in table.rows if r.used]
        if len(steady_pts) >= 4:
            fit = fit_log_k_vs_inv_a(steady_pts)
            summary["log_k_vs_inv_a_pearson"] = fit.pearson_r
    write_json(out / "fig2_summary.json", summary)


def cmd_figure3(args) -> int:
    cfg = _merge_config(args, _DEFAULTS["figure3"])
    return _shoot("figure3", cfg, cfg, ("fig3_profile.csv", "fig3_tail.csv", "fig3.json"))


# ------------------------------------------------------------------ parser


def _add_config_command(sub, name: str, help_text: str, func):
    sp = sub.add_parser(name, help=help_text)
    sp.add_argument("--config", help="JSON or TOML file with flat config keys")
    for key, default in _DEFAULTS[name].items():
        kind = _flag_type(default)
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            sp.add_argument(flag, dest=key, action="store_true", default=False)
        else:
            sp.add_argument(flag, dest=key, type=kind)
    sp.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eikolab",
        description="Target-pattern laboratory for the viscous eikonal equation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_config_command(sub, "simulate", "one steady run", cmd_simulate)
    _add_config_command(sub, "sweep", "family sweep over a, eps, or p", cmd_sweep)

    sp = sub.add_parser("measure", help="observables from a stored snapshot")
    sp.add_argument("--field", required=True)
    sp.add_argument("--annulus")
    sp.add_argument("--n-bins", dest="n_bins", type=int, default=64)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("predict", help="asymptotic k/omega for a defect family")
    sp.add_argument("--A", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("compare", help="prediction vs stored sweep runs")
    sp.add_argument("--runs", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("shoot", help="amplitude BVP by one collocation solve")
    sp.add_argument("--rmax", type=float, default=20.0)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--out", default="shoot_out")
    sp.set_defaults(func=cmd_shoot)

    sp = sub.add_parser("corrector", help="slow-tail corrector K")
    sp.add_argument("--A", type=float, default=1.0)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--rmax", type=float, default=200.0)
    sp.add_argument("--n", type=int, default=4001)
    sp.add_argument("--out", default="corrector_out")
    sp.set_defaults(func=cmd_corrector)

    sp = sub.add_parser("profile", help="defect and cut-off profiles")
    sp.add_argument("--A", type=float, default=1.0)
    sp.add_argument("--p", type=float, default=0.8)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--cutoff", choices=["chi", "chi_m"], default="chi")
    sp.add_argument("--m", type=float, default=8.0)
    sp.add_argument("--rmax", type=float, default=20.0)
    sp.add_argument("--n", type=int, default=2001)
    sp.add_argument("--out", default="profile_out")
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("special", help="modified Bessel K0/K1 values")
    sp.add_argument("--z")
    sp.add_argument("--z-min", dest="z_min", type=float, default=1e-3)
    sp.add_argument("--z-max", dest="z_max", type=float, default=50.0)
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_special)

    _add_config_command(sub, "figure1", "wavenumber-vs-a sweep reproduction",
                        cmd_figure1)
    _add_config_command(sub, "figure2", "wavenumber-vs-p sweep reproduction",
                        cmd_figure2)

    _add_config_command(sub, "figure3", "amplitude BVP reproduction", cmd_figure3)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if isinstance(exc, BlowUpError):
            print(f"  at step {exc.step_index}, t = {exc.t}, "
                  f"last residual {exc.residual}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
