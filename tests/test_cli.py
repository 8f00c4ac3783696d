"""Command-line surface: config handling, artifacts, manifests, exit codes."""
import csv
import hashlib
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eikolab import spectral
from eikolab.asymptotics import predict_k_for_family
from eikolab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARTIAL,
    FIG1_A_VALUES,
    main,
)
from eikolab.profiles import InhomogeneitySpec
from eikolab.specfun import bessel_eval
from eikolab.spectral import GridSpec2D, SimulationConfig, run_to_steady, write_field_snapshot


def verify_manifest(out_dir):
    """Files whose bytes no longer hash to their manifest entry (empty = intact)."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return [rel for rel, digest in manifest["files"].items()
            if not (out_dir / rel).is_file()
            or hashlib.sha256((out_dir / rel).read_bytes()).hexdigest() != digest]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_fig1_default_grid():
    assert FIG1_A_VALUES == pytest.approx([0.15 * m for m in (3, 5, 7, 9, 11, 13, 15, 17, 19)])


def test_special_explicit_values(tmp_path):
    out = tmp_path / "bessel.csv"
    assert main(["special", "--z", "0.5,5.0,20.0", "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 3
    for row in rows:
        ev = bessel_eval(float(row["z"]))
        # 17 significant digits round-trip doubles exactly
        assert float(row["k0"]) == ev.k0
        assert float(row["k1"]) == ev.k1


@pytest.mark.parametrize("argv", [["--z-min", "0"], ["--z-max", "0"], ["--n", "-1"],
                                  ["--z", ","]],
                         ids=["z_min", "z_max", "n", "z-empty"])
def test_special_bad_grid_is_a_config_error(tmp_path, capsys, argv):
    out = tmp_path / "k.csv"
    assert main(["special", *argv, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_special_default_grid(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["special", "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 200
    assert float(rows[0]["z"]) == pytest.approx(1e-3)
    assert float(rows[-1]["z"]) == pytest.approx(50.0)


def test_predict_payload(tmp_path):
    out = tmp_path / "pred.json"
    assert main(["predict", "--A", "1.5", "--p", "0.8", "--eps", "0.05",
                 "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    fam = predict_k_for_family(1.5 * 0.05, 0.8)
    assert payload["a_sim"] == pytest.approx(fam.a_sim, rel=1e-12)
    assert payload["a_signed"] == -payload["a_sim"]
    assert payload["branch"] == "truncated"
    assert payload["k_shape"] == pytest.approx(fam.k_shape, rel=1e-12)
    assert payload["lambda"] == pytest.approx(1.23e-4, rel=5e-3)
    assert payload["omega"] == pytest.approx(payload["lambda"] ** 2, rel=1e-12)
    # b enters the mass with eps and divides the squared rate
    assert main(["predict", "--A", "1.5", "--p", "0.8", "--eps", "0.05", "--b", "2",
                 "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["a_sim"] == pytest.approx(predict_k_for_family(1.5 * 0.05 * 2, 0.8).a_sim,
                                             rel=1e-12)
    assert payload["omega"] == payload["lambda"] ** 2 / 2


def test_predict_stdout(capsys):
    assert main(["predict", "--A", "1.5", "--p", "1.5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["branch"] == "closed_form"


def test_predict_out_of_regime_exit_code(capsys):
    assert main(["predict", "--A", "1.0", "--p", "0.4"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_corrector_and_manifest_verification(tmp_path):
    out = tmp_path / "corr"
    assert main(["corrector", "--A", "1.0", "--p", "1.0", "--rmax", "50",
                 "--n", "1001", "--out", str(out)]) == EXIT_OK
    assert verify_manifest(out) == []
    meta = json.loads((out / "corrector.json").read_text())
    assert meta["a_sim"] == -meta["a_signed"]
    # tampering and deletion are both reported
    with open(out / "corrector.csv", "a") as fh:
        fh.write("tampered\n")
    problems = verify_manifest(out)
    assert any("corrector.csv" in p for p in problems)
    (out / "corrector.json").unlink()
    problems = verify_manifest(out)
    assert any("corrector.json" in p for p in problems)


def test_profile_split_columns(tmp_path):
    out = tmp_path / "prof"
    assert main(["profile", "--A", "1.5", "--p", "0.8", "--rmax", "20",
                 "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "defect_profile.csv")
    for row in rows[:: len(rows) // 7]:
        g = float(row["g"])
        assert float(row["g_core"]) + float(row["g_far"]) == pytest.approx(g, abs=1e-12)
    meta = json.loads((out / "defect_profile.json").read_text())
    assert meta["core_mass_integral"] > 0


def test_profile_chi_m_cutoff(tmp_path):
    out = tmp_path / "profm"
    assert main(["profile", "--cutoff", "chi_m", "--m", "6", "--rmax", "20",
                 "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "defect_profile.csv")
    tail = [r for r in rows if float(r["r"]) > 12.5]
    assert all(float(r["chi"]) == 0.0 for r in tail)  # falls back to 0 past 2m


@pytest.mark.parametrize("argv", [
    ["corrector", "--A", "-1"],
    ["corrector", "--n", "100"],
    ["profile", "--p", "0"],
    ["profile", "--cutoff", "chi_m", "--m", "1"],
    ["profile", "--rmax", "1.5"],
], ids=["corrector-A", "corrector-n", "profile-p", "profile-m", "profile-rmax"])
def test_split_refusal_leaves_no_output(tmp_path, capsys, argv):
    # corrector and profile build the defect split before their output directory
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_shoot_artifacts(tmp_path):
    out = tmp_path / "shoot"
    assert main(["shoot", "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "shoot.json").read_text())
    assert meta["slope_origin"] == pytest.approx(0.58319, abs=1e-4)
    assert verify_manifest(out) == []
    tail = read_csv(out / "tail_diagnostic.csv")
    last = tail[-1]
    assert float(last["r2_one_minus_rho_sq"]) == pytest.approx(1.0, abs=0.3)


def test_figure3_is_a_preset_of_shoot(tmp_path):
    # one command body: the same profile and tail bytes under each command's
    # file names, and fig3.json is shoot.json without r_max
    shoot, fig3 = tmp_path / "shoot", tmp_path / "fig3"
    assert main(["shoot", "--out", str(shoot)]) == EXIT_OK
    assert main(["figure3", "--out", str(fig3)]) == EXIT_OK
    for ours, theirs in (("amplitude_profile.csv", "fig3_profile.csv"),
                         ("tail_diagnostic.csv", "fig3_tail.csv")):
        assert (shoot / ours).read_bytes() == (fig3 / theirs).read_bytes()
    summary = json.loads((shoot / "shoot.json").read_text())
    assert summary.pop("r_max") == 20.0
    assert summary == json.loads((fig3 / "fig3.json").read_text())


def test_shoot_infinite_rmax_exits_2(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["shoot", "--rmax", "inf", "--out", str(tmp_path / "s")]) == EXIT_CONFIG
    assert "r_max must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["shoot", "figure3"])
def test_shooting_refusal_leaves_no_output(tmp_path, capsys, command):
    # below the window's floor, and so far above its ceiling that the
    # far-field series overflowed once the output directory was made
    for rmax in ("5", "1e308"):
        out = tmp_path / rmax
        assert main([command, "--rmax", rmax, "--out", str(out)]) == EXIT_CONFIG
        assert "r_max must be finite and >= 20 and <= 1e4" in capsys.readouterr().err
        assert not out.exists()


def test_shoot_integrator_failure_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("eikolab.radial.solve_bvp", lambda *args, **kwargs: SimpleNamespace(
        success=False, message="The maximum number of mesh nodes is exceeded."))
    assert main(["shoot", "--out", str(tmp_path / "s")]) == EXIT_NUMERICAL
    assert "maximum number of mesh nodes" in capsys.readouterr().err


def test_config_file_merge_and_cli_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 128, "L": 60.0, "dt": 0.25}))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--N", "64", "--dry-run",
                 "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["N"] == 64  # CLI beats file
    assert manifest["config"]["L"] == 60.0  # file beats default
    assert manifest["config"]["dt"] == 0.25
    assert manifest["command"] == "simulate"
    env = manifest["environment"]
    assert set(env) == {"versions", "cpus", "thread_env"}
    assert set(env["versions"]) == {"numpy", "scipy"}
    assert set(env["cpus"]) == {"count", "affinity"}
    assert set(env["thread_env"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS"}
    # dry run produced no artifacts beyond the manifest
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_config_file_toml(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text('N = 64\nL = 50.0\neps = 0.75\n')
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--dry-run",
                 "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["N"] == 64
    assert manifest["config"]["eps"] == 0.75


def test_bad_config_file_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("N: 64\n")
    assert main(["simulate", "--config", str(cfg), "--dry-run",
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_check_interval_is_gone(tmp_path, capsys):
    # every run checks after every step: neither the flag nor the key exists
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--check-interval", "5", "--dry-run", "--out", str(tmp_path / "x")])
    assert info.value.code == EXIT_CONFIG
    cfg = tmp_path / "run.json"
    cfg.write_text('{"check_interval": 5}')
    assert main(["simulate", "--config", str(cfg), "--dry-run",
                 "--out", str(tmp_path / "y")]) == EXIT_CONFIG
    assert "unknown config keys: ['check_interval']" in capsys.readouterr().err


@pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
@pytest.mark.parametrize("name, text", [
    ("run.json", '{"N": 64,'),
    ("run.toml", "N = = 64\n"),
    ("run.json", '{"N": "abc"}'),
], ids=["bad-json", "bad-toml", "wrong-type"])
def test_malformed_config_file_exits_2(tmp_path, capsys, name, text, dry_run):
    # rejected while merging, so a dry run refuses what the run would
    cfg = tmp_path / name
    cfg.write_text(text)
    argv = ["simulate", "--config", str(cfg), "--t-max", "1", "--out", str(tmp_path / "x")]
    assert main(argv + ["--dry-run"] * dry_run) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["sweep", "--eps-values", "1", "--p", "0.8"],
    ["figure1"],
    ["figure2"],
], ids=["simulate-default", "sweep", "figure1", "figure2"])
def test_manifest_records_the_radius_in_effect(tmp_path, argv):
    # the mass of a p <= 1 defect is truncated at the fixed radius R_CUT
    out = tmp_path / "m"
    assert main(argv + ["--dry-run", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["conventions"]["truncation_radius"] == 3.0
    assert "r_cut" not in manifest["config"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--eps-values", "1", "--r-cut", "5", "--dry-run"],
    ["figure1", "--r-cut", "5", "--dry-run"],
    ["figure2", "--r-cut", "5", "--dry-run"],
    ["predict", "--A", "1", "--p", "0.8", "--R", "5"],
    ["compare", "--runs", "runs.json", "--R", "5"],
], ids=["sweep", "figure1", "figure2", "predict", "compare"])
def test_truncation_radius_flags_are_gone(tmp_path, argv):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path / "x")])
    assert info.value.code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["sweep", "figure1", "figure2"])
def test_r_cut_config_key_is_gone(tmp_path, capsys, command):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"r_cut": 5}')
    assert main([command, "--config", str(cfg), "--dry-run",
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "unknown config keys: ['r_cut']" in capsys.readouterr().err


@pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "-1"],
    ["simulate", "--N", "100"],
    ["figure1", "--dt", "0"],
    ["figure1", "--N", "100"],
    ["sweep", "--N", "64", "--L", "50", "--p-values", "0.8,-1"],
    ["simulate", "--t-max", "inf"],
    ["simulate", "--dt", "1e-320"],
    ["simulate", "--L", "inf"],
    ["simulate", "--eps", "inf"],
    ["simulate", "--b", "inf"],
    ["figure1", "--a-values", "inf"],
    ["sweep", "--p-values", "inf"],
    ["figure1", "--N", "64", "--L", "50", "--a-values", "0,0.75,0.9,1.05,1.2"],
    ["sweep", "--N", "64", "--L", "50", "--a-values", ","],
    ["figure1", "--N", "64", "--L", "50", "--a-values", ","],
    ["figure2", "--N", "64", "--L", "50", "--p-grid", ","],
    ["figure1", "--N", "64", "--L", "50", "--a-values", ""],
    ["figure2", "--N", "64", "--L", "50", "--p-grid", ""],
], ids=["simulate-p", "simulate-N", "figure1-dt", "figure1-N", "sweep-p",
        "simulate-t_max-inf", "simulate-t_max-over-dt-inf", "simulate-L-inf",
        "simulate-eps-inf", "simulate-b-inf", "figure1-a-inf", "sweep-p-inf",
        "figure1-a-zero", "sweep-a-empty", "figure1-a-empty", "figure2-p-empty",
        "figure1-a-blank", "figure2-p-blank"])
def test_a_bad_member_is_refused_before_any_run(tmp_path, capsys, argv, dry_run):
    # every member's SimulationConfig is built before any directory or run,
    # so a dry run refuses what the run would and no member directory is left;
    # a non-finite input is refused like a negative one, and so is figure1's
    # zero a, whose member makes no pattern to fit, and an empty member list
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)] + ["--dry-run"] * dry_run) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


_SMALL = ["--N", "64", "--L", "50", "--t-max", "5"]


@pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
@pytest.mark.parametrize("b", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["sweep", "--a-values", "0.9"],
    ["figure1"],
], ids=["simulate", "sweep", "figure1"])
def test_nonpositive_b_is_refused_before_any_run(tmp_path, capsys, argv, b, dry_run):
    # figure1 and the a axis of sweep solve eps = a / (b mass), so b is
    # refused before that division
    out = tmp_path / "out"
    code = main(argv + _SMALL + ["--b", b, "--out", str(out)] + ["--dry-run"] * dry_run)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: b must be > 0, got {float(b)}")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--b", "0"), ("--b", "-1"), ("--b", "nan"),
                                        ("--eps", "0"), ("--eps", "-1")])
def test_predict_names_the_input_it_refuses(capsys, flag, value):
    # b and eps are checked by name before their product with A is formed
    assert main(["predict", "--A", "1", "--p", "0.8", flag, value]) == EXIT_CONFIG
    name = flag.removeprefix("--")
    assert capsys.readouterr().err.startswith(
        f"config error: {name} must be > 0, got {float(value)}")


@pytest.mark.parametrize("argv, message", [
    (["--eps", "inf"], "eps must be finite, got inf"),
    (["--b", "inf"], "b must be finite, got inf"),
    (["--eps", "1e300", "--b", "1e300"], "A eps b overflows: 1.0 * 1e+300 * 1e+300"),
], ids=["eps-inf", "b-inf", "product-overflows"])
def test_predict_names_an_infinite_input(capsys, argv, message):
    # a finite A is never blamed for an infinite eps, b or A eps b
    assert main(["predict", "--A", "1", "--p", "0.8", *argv]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["sweep", "--eps-values", "1"],
    ["figure1"],
    ["figure2"],
], ids=["sweep", "figure1", "figure2"])
def test_jobs_below_one_is_refused_before_any_run(tmp_path, capsys, argv, jobs, dry_run):
    out = tmp_path / "out"
    code = main(argv + _SMALL + ["--jobs", jobs, "--out", str(out)] + ["--dry-run"] * dry_run)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: jobs must be >= 1, got {jobs}")
    assert not out.exists()


def test_sweep_requires_exactly_one_axis(tmp_path, capsys):
    code = main(["sweep", "--a-values", "0.9", "--p-values", "0.8",
                 "--out", str(tmp_path / "s")])
    assert code == EXIT_CONFIG
    code = main(["sweep", "--out", str(tmp_path / "s2")])
    assert code == EXIT_CONFIG


def test_grid_validation_exit_code(tmp_path, capsys):
    assert main(["simulate", "--N", "48", "--t-max", "1",
                 "--out", str(tmp_path / "g")]) == EXIT_CONFIG


def test_malformed_outside_input_exits_2(tmp_path, capsys):
    grid = GridSpec2D(64, 50.0)
    snap = tmp_path / "field"
    write_field_snapshot(grid, np.zeros((33, 33)), snap)
    assert main(["measure", "--field", str(snap)]) == EXIT_OK
    capsys.readouterr()

    short = tmp_path / "short"  # one value short of n^2
    write_field_snapshot(grid, np.zeros((33, 33)), short)
    short.with_suffix(".bin").write_bytes(short.with_suffix(".bin").read_bytes()[:-8])
    header = json.loads(snap.with_suffix(".json").read_text())
    edited = []
    # another dealiasing rule, and cell counts that are no integer
    for name, change in (("other_rule", {"dealias": "none"}), ("n_inf", {"n": math.inf}),
                         ("n_frac", {"n": 64.7}), ("n_bool", {"n": True})):
        write_field_snapshot(grid, np.zeros((33, 33)), tmp_path / name)
        (tmp_path / f"{name}.json").write_text(json.dumps({**header, **change}))
        edited.append(["measure", "--field", str(tmp_path / name)])
    for argv in (
        ["measure", "--field", str(tmp_path / "missing")],
        ["measure", "--field", str(short)],
        *edited,
        ["sweep", "--a-values", "1,x", "--dry-run", "--out", str(tmp_path / "s")],
    ):
        assert main(argv) == EXIT_CONFIG, argv
        assert capsys.readouterr().err.startswith("config error:"), argv
    # argparse rejects a non-integer bin count with its usage error, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--field", str(snap), "--n-bins", "abc"])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("part", ["odd", "asymmetric"])
def test_measure_rejects_an_asymmetric_snapshot(tmp_path, capsys, part):
    # measurement runs on the quadrant: the reader refuses a snapshot that is
    # not even in x and y and x <-> y symmetric.  The writer mirrors a
    # quadrant, so the file's values are written over by hand
    grid = GridSpec2D(64, 50.0)
    c = np.cos(2.0 * np.pi * grid.axes() / 50.0)
    s = np.sin(2.0 * np.pi * grid.axes() / 50.0)
    symmetric = np.add.outer(c, c)
    extra = {"odd": np.outer(s, c), "asymmetric": np.outer(c, np.ones_like(c))}
    snap = tmp_path / "field"
    write_field_snapshot(grid, np.zeros((33, 33)), snap)
    (symmetric + 1e-6 * extra[part]).astype("<f8").tofile(snap.with_suffix(".bin"))
    assert main(["measure", "--field", str(snap)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: field is not even in x and y and x <-> y symmetric: "
        f"its {part} part reaches")


def test_measure_rejects_a_nan_snapshot_by_name(tmp_path, capsys):
    # NaN passes the evenness check (NaN > bound is False): the reader
    # refuses it itself and names the snapshot
    grid = GridSpec2D(64, 50.0)
    c = np.cos(2.0 * np.pi * grid.axes() / 50.0)
    field = np.add.outer(c, c)
    field[5, 7] = np.nan
    snap = tmp_path / "field"
    write_field_snapshot(grid, np.zeros((33, 33)), snap)
    field.astype("<f8").tofile(snap.with_suffix(".bin"))
    assert main(["measure", "--field", str(snap)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: field is not finite in 1 of 4096 cells")
    assert str(snap) in err


MASS_P08 = 2.5 * (10.0**0.2 - 1.0)  # truncated mass of the unit-amplitude p=0.8 defect


def _close(x):
    return pytest.approx(x, rel=1e-9, nan_ok=True)


@pytest.mark.parametrize("axis_args, expected", [
    # a_sim is kept as given and eps solved from a_sim = eps * b * mass
    (["--a-values", "0.9,1.5", "--p", "0.8"],
     [(_close(0.9 / MASS_P08), 0.8, 0.9, "run_00_a0.9"),
      (_close(1.5 / MASS_P08), 0.8, 1.5, "run_01_a1.5")]),
    # p > 1 takes the closed-form mass A/(2p - 2): eps = a (2p - 2) / A
    (["--a-values", "0.6,0.9", "--p", "1.5", "--A", "1.5"],
     [(_close(0.6 * 1.0 / 1.5), 1.5, 0.6, "run_00_a0.6"),
      (_close(0.9 * 1.0 / 1.5), 1.5, 0.9, "run_01_a0.9")]),
    (["--eps-values", "0.8,1.2", "--p", "0.8"],
     [(0.8, 0.8, _close(0.8 * MASS_P08), "run_00_eps0.8"),
      (1.2, 0.8, _close(1.2 * MASS_P08), "run_01_eps1.2")]),
    # a subcritical member has no mass on the eps axis either
    (["--eps-values", "1.0", "--p", "0.3"],
     [(1.0, 0.3, _close(math.nan), "run_00_eps1")]),
    # subcritical p has no mass; p > 1 takes the closed-form mass A/(2p - 2)
    (["--p-values", "0.3,0.8,1.5", "--A", "1.5", "--eps", "0.5"],
     [(0.5, 0.3, _close(math.nan), "run_00_p0.3"),
      (0.5, 0.8, _close(0.5 * 1.5 * MASS_P08), "run_01_p0.8"),
      (0.5, 1.5, _close(0.5 * 1.5 / 1.0), "run_02_p1.5")]),
], ids=["a", "a-closed-form", "eps", "eps-subcritical", "p"])
def test_sweep_dry_run_solves_eps_for_target_a(tmp_path, axis_args, expected):
    out = tmp_path / "plan"
    assert main(["sweep", *axis_args, "--dry-run", "--out", str(out)]) == EXIT_OK
    plan = json.loads((out / "plan.json").read_text())
    assert [(m["eps"], m["p"], m["a_sim"], m["dir"]) for m in plan] == expected


def test_blow_up_exit_code(tmp_path, capsys):
    code = main(["simulate", "--N", "64", "--L", "50", "--A", "1e300",
                 "--t-max", "10", "--out", str(tmp_path / "boom")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err
    # the start's residual is taken before step 1, also from rest
    assert "at step 1, t = 0.5, last residual 4.87757" in err


@pytest.mark.parametrize("p,a_sim", [(1.5, 1.0), (0.3, math.nan)])
def test_simulate_records_the_sweep_a_sim(tmp_path, p, a_sim):
    # the closed-form mass eps A / (2p - 2) for p > 1, NaN for p <= 1/2,
    # as a sweep member with the same A, p and eps records
    out = tmp_path / "sim"
    main(["simulate", "--N", "64", "--L", "50", "--A", "1", "--p", str(p),
          "--eps", "1.0", "--t-max", "1", "--out", str(out)])
    runs = json.loads((out / "runs.json").read_text())
    assert runs[0]["params"]["a_sim"] == _close(a_sim)


def test_blow_up_leaks_no_floating_point_warnings(tmp_path):
    # BlowUpError is the only signal: no overflow / invalid-value warnings
    # from the step loop, nor any other warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--N", "64", "--L", "50", "--A", "1e300",
                     "--out", str(tmp_path / "boom")])
    assert code == EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []


def test_unconverged_run_partial_exit(tmp_path):
    code = main(["simulate", "--N", "64", "--L", "50", "--p", "1.5",
                 "--t-max", "2", "--steady-tol", "1e-12",
                 "--out", str(tmp_path / "part")])
    assert code == EXIT_PARTIAL
    manifest = json.loads((tmp_path / "part" / "manifest.json").read_text())
    assert manifest["failures"] == ["run unsteady at t_max"]


def test_simulate_is_a_one_member_sweep(tmp_path):
    # simulate runs through the sweep engine, in its output directory itself
    flags = ["--N", "64", "--L", "50", "--p", "1.5"]
    sim, sweep = tmp_path / "sim", tmp_path / "sweep"
    assert main(["simulate", "--eps", "1"] + flags + ["--out", str(sim)]) == EXIT_OK
    assert main(["sweep", "--eps-values", "1"] + flags + ["--out", str(sweep)]) == EXIT_OK
    for name in ("report.json", "profile.csv"):
        assert (sim / name).read_bytes() == (sweep / "run_00_eps1" / name).read_bytes()
    assert json.loads((sim / "runs.json").read_text())[0]["dir"] == "sim"


def test_only_the_snapshot_holds_the_full_grid(tmp_path, monkeypatch):
    # a run and its report stay on the quadrant: the one mirror onto the
    # n x n grid is the one that writes a saved field
    shapes = []
    mirror = spectral._mirror

    def counted(q):
        shapes.append(q.shape)
        return mirror(q)

    monkeypatch.setattr(spectral, "_mirror", counted)
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0, t_max=2000.0,
                           defect=InhomogeneitySpec(1.5, 1.5, strength=1.0))
    assert run_to_steady(cfg)[1].converged
    assert shapes == []
    out = tmp_path / "sim"
    assert main(["simulate", "--N", "64", "--L", "50", "--p", "1.5", "--eps", "1.0",
                 "--t-max", "2000", "--save-field", "--out", str(out)]) == EXIT_OK
    assert shapes == [(33, 33)] and (out / "field.bin").stat().st_size == 8 * 64 * 64


@pytest.mark.slow
def test_simulate_measure_round_trip(tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--N", "64", "--L", "50", "--p", "1.5", "--eps", "1.0",
                 "--t-max", "2000", "--save-field", "--out", str(out)])
    assert code == EXIT_OK
    assert verify_manifest(out) == []
    runs = json.loads((out / "runs.json").read_text())
    k_run = runs[0]["report"]["k_measured"]
    # the warm start's residual is read from the run directory alone
    record = runs[0]["report"]
    assert record["start"] == "hopf_cole"
    assert record["start_residual"] > record["steady_residual"]
    report = json.loads((out / "report.json").read_text())
    assert report["start_residual"] == record["start_residual"]
    # and the iterations of the eigen solve that seeded it, a count
    assert report["eigen_iterations"] == record["eigen_iterations"] > 0
    m_out = tmp_path / "meas.json"
    assert main(["measure", "--field", str(out / "field"),
                 "--out", str(m_out)]) == EXIT_OK
    measured = json.loads(m_out.read_text())
    # one measurement path: the report and the snapshot give the same k
    assert measured["k_measured"] == k_run
    # the snapshot is even in x and y, bit for bit, and x <-> y symmetric to rounding
    values = np.fromfile(out / "field.bin", dtype="<f8").reshape(64, 64)
    assert np.array_equal(values[1:], values[:0:-1])
    assert np.array_equal(values[:, 1:], values[:, :0:-1])
    assert np.max(np.abs(values - values.T)) <= 1e-12 * np.max(np.abs(values))
    assert main(["measure", "--field", str(out / "field"),
                 "--annulus", "1,2,3"]) == EXIT_CONFIG


@pytest.mark.slow
def test_sweep_determinism(tmp_path):
    args = ["sweep", "--eps-values", "0.8,1.2", "--p", "1.5", "--N", "64",
            "--L", "50", "--t-max", "2000"]
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "runs.json").read_bytes() == (out2 / "runs.json").read_bytes()
    assert verify_manifest(out1) == []
    rows = read_csv(out1 / "sweep.csv")
    assert len(rows) == 2
    assert float(rows[1]["k"]) != float(rows[0]["k"])


def test_figure1_does_not_depend_on_the_thread_count(tmp_path):
    # the pool's threads share no numerical state: one job and two jobs
    # write the same bytes
    args = ["figure1", "--N", "64", "--L", "50", "--A", "1", "--p", "0.8"]
    outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2)}
    for jobs, out in outs.items():
        assert main(args + ["--jobs", str(jobs), "--out", str(out)]) == EXIT_OK
    one, two = outs[1], outs[2]
    members = sorted(p.relative_to(one) for p in one.glob("run_*/report.json"))
    assert len(members) == 9
    for rel in [Path("runs.json"), Path("fig1b_points.csv")] + members:
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel


def _synthetic_runs(runs_dir, c):
    """runs.json in runs_dir: four steady runs with k = c k_shape."""
    entries = []
    for p in (1.2, 1.5, 2.0, 2.5):
        fam = predict_k_for_family(1.5, p)
        entries.append({
            "params": {"A": 1.5, "p": p, "eps": 1.0, "b": 1.0},
            "report": {"k_measured": c * fam.k_shape, "converged": True},
            "dir": f"run_p{p}",
        })
    runs_dir.mkdir()
    (runs_dir / "runs.json").write_text(json.dumps(entries))
    return runs_dir / "runs.json"


def test_compare_on_synthetic_runs(tmp_path):
    c = 0.9
    runs_dir = tmp_path / "runs"
    _synthetic_runs(runs_dir, c)
    assert main(["compare", "--runs", str(runs_dir)]) == EXIT_OK
    summary = json.loads((runs_dir / "compare_summary.json").read_text())
    assert summary["c_fitted"] == pytest.approx(c, rel=1e-12)
    assert summary["rms_log_residual"] < 1e-12
    assert summary["log_k_vs_inv_a"]["pearson_r"] == pytest.approx(1.0, abs=1e-12)
    rows = read_csv(runs_dir / "compare.csv")
    assert len(rows) == 4


def test_compare_on_a_runs_file_writes_next_to_it(tmp_path):
    # --runs may name runs.json itself: without --out the tables go beside
    # it, the same bytes as from its directory
    runs = _synthetic_runs(tmp_path / "runs", 0.9)
    assert main(["compare", "--runs", str(tmp_path / "runs"), "--out",
                 str(tmp_path / "by_dir")]) == EXIT_OK
    assert main(["compare", "--runs", str(runs)]) == EXIT_OK
    for name in ("compare.csv", "compare_summary.json"):
        assert (runs.parent / name).read_bytes() == (tmp_path / "by_dir" / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["predict", "--A", "1.5", "--p", "0.8", "--eps", "0.05"],
    ["special", "--z", "0.5,5"],
], ids=["write_json", "write_csv"])
def test_a_file_out_makes_its_directory(tmp_path, argv):
    # as the commands that write a directory make theirs
    out = tmp_path / "nodir" / "deeper" / "x"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert out.is_file()


@pytest.mark.parametrize("argv,out", [
    (["simulate", "--N", "64", "--L", "50"], "afile"),
    (["special", "--z", "1"], "afile/x"),
    (["predict", "--A", "1", "--p", "0.8"], "afile/x.json"),
], ids=["simulate", "special", "predict"])
def test_an_out_on_a_file_is_a_config_error(tmp_path, capsys, argv, out):
    # an --out that is a plain file, or lies under one, cannot be made a
    # directory: a config error, not a traceback
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert main([*argv, "--out", str(tmp_path / out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: cannot make the output directory {afile}")
    assert afile.read_text() == "kept\n"


def test_measure_json_records_the_annulus_in_radii(tmp_path):
    # as report.json does: [0.35 L, 0.45 L] by default, else --annulus
    grid = GridSpec2D(64, 50.0)
    snap = tmp_path / "field"
    write_field_snapshot(grid, np.sqrt(1.0 + spectral.geometry(grid).radius ** 2), snap)
    for extra, annulus in (([], [17.5, 22.5]), (["--annulus", "10,20"], [10.0, 20.0])):
        out = tmp_path / f"m{len(extra)}.json"
        assert main(["measure", "--field", str(snap), "--out", str(out), *extra]) == EXIT_OK
        assert json.loads(out.read_text())["annulus"] == pytest.approx(annulus, rel=1e-15)


def test_compare_missing_runs_exit_code(tmp_path, capsys):
    assert main(["compare", "--runs", str(tmp_path / "nope")]) == EXIT_CONFIG


def _runs_with(params=None, report=None):
    """Three well-formed runs, the first one's params and report updated."""
    runs = [{"params": {"A": 1.5, "p": p, "eps": 1.0, "b": 1.0},
             "report": {"k_measured": 0.1}} for p in (1.2, 1.5, 2.0)]
    runs[0]["params"].update(params or {})
    runs[0]["report"].update(report or {})
    return runs


@pytest.mark.parametrize("runs", [
    [{"params": {"p": p}, "report": {"k_measured": 0.1}} for p in (1.2, 1.5, 2.0)],
    [{"report": {"k_measured": 0.1}}],
    {"params": {"A": 1.5, "p": 1.5}, "report": {"k_measured": 0.1}},
    _runs_with(params={"A": "x"}),
    _runs_with(report={"k_measured": "bad"}),
    _runs_with(params={"p": [0.8]}),
    _runs_with(report={"converged": "false"}),
], ids=["no-mass", "no-params", "not-a-list", "text-A", "text-k", "list-p", "text-converged"])
def test_compare_malformed_runs_exits_2(tmp_path, capsys, runs):
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    assert main(["compare", "--runs", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.slow
def test_figure1_small_grid(tmp_path):
    out = tmp_path / "fig1"
    code = main(["figure1", "--a-values", "0.9,1.2,1.5,1.8", "--N", "128",
                 "--jobs", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert verify_manifest(out) == []
    fit = json.loads((out / "fig1b_fit.json").read_text())
    assert fit["transform_fit"]["pearson_r"] < -0.95
    assert 0.5 < fit["log_k_vs_inv_a"]["slope"] < 1.5
    points = read_csv(out / "fig1b_points.csv")
    assert len(points) == 4
    ks = [float(r["k"]) for r in points]
    assert all(k2 > k1 for k1, k2 in zip(ks, ks[1:]))  # k grows with a
    profiles = read_csv(out / "fig1a_profiles.csv")
    assert {r["a"] for r in profiles} == {r["a"] for r in points}


@pytest.mark.slow
def test_figure2_small_grid(tmp_path):
    out = tmp_path / "fig2"
    code = main(["figure2", "--p-grid", "0.3,0.8,1.5", "--N", "64", "--L", "50",
                 "--t-max", "1500", "--jobs", "2", "--out", str(out)])
    assert code == EXIT_OK  # a p = 0.3 timeout would be expected, not a failure
    assert verify_manifest(out) == []
    summary = json.loads((out / "fig2_summary.json").read_text())
    # the subcritical growth verdict needs the full-size domain; here the
    # keys and types are what the small box can check
    assert set(summary["plateau"]) == {"0.3", "0.8", "1.5"}
    assert all(isinstance(v, bool) for v in summary["plateau"].values())
    assert summary["plateau"]["0.8"] is True
    rows = read_csv(out / "fig2a_k_vs_p.csv")
    ks = [float(r["k_measured"]) for r in rows]
    assert ks[0] > ks[1] > ks[2]  # selected wavenumber falls as the tail steepens
    prof_ps = {r["p"] for r in read_csv(out / "fig2b_profiles.csv")}
    assert len(prof_ps) == 3


def test_compare_reads_figure2_output(tmp_path):
    # figure2 records its p = 0.3 control with a NaN a_sim; compare lists it
    # as excluded and fits the rest, as figure2's own summary does
    out = tmp_path / "f2"
    assert main(["figure2", "--p-grid", "0.3,0.8,1.5,2.0", "--N", "64", "--L", "50",
                 "--t-max", "1500", "--out", str(out)]) == EXIT_OK
    assert main(["compare", "--runs", str(out)]) == EXIT_OK
    rows = read_csv(out / "compare.csv")
    assert (rows[0]["branch"], rows[0]["log_residual"]) == ("subcritical", "nan")
    summary = json.loads((out / "compare_summary.json").read_text())
    assert (summary["n_used"], summary["n_excluded"]) == (3, 1)
    fig2 = json.loads((out / "fig2_summary.json").read_text())
    assert summary["c_fitted"] == fig2["c_fitted"]


def test_compare_rejects_a_negative_mass(tmp_path, capsys):
    entries = [{"params": {"p": p, "a_sim": a}, "report": {"k_measured": 0.2}}
               for p, a in ((0.8, -0.6), (1.5, 0.9), (2.0, 1.2))]
    (tmp_path / "runs.json").write_text(json.dumps(entries))
    assert main(["compare", "--runs", str(tmp_path)]) == EXIT_CONFIG
    assert "non-positive a_sim" in capsys.readouterr().err


def test_sweep_builds_each_plan_once(tmp_path):
    # the plan cache serves every member: one build per distinct (grid, dt)
    spectral.make_plan.cache_clear()
    out = tmp_path / "fig1"
    assert main(["figure1", "--a-values", "0.9,1.5", "--N", "64", "--L", "50",
                 "--jobs", "1", "--out", str(out)]) == EXIT_OK
    runs = json.loads((out / "runs.json").read_text())
    dts = {dt for entry in runs for dt, _ in entry["report"]["dt_steps"]}
    assert len(runs) == 2 and len(dts) > 1
    assert spectral.make_plan.cache_info().misses == len(dts)


def test_figure1_subcritical_members_do_not_fail(tmp_path):
    # p <= 1/2 members start from their eigenstate and lock like any other
    out = tmp_path / "fig1sub"
    code = main(["figure1", "--p", "0.5", "--a-values", "0.75,0.9", "--N", "64",
                 "--L", "50", "--t-max", "20", "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == []
    runs = json.loads((out / "runs.json").read_text())
    assert [(r["report"]["start"], r["report"]["converged"]) for r in runs] == [
        ("hopf_cole", True)] * 2
    assert len(read_csv(out / "fig1b_points.csv")) == 2
    # and one that does not lock fails the sweep, as at every p
    out = tmp_path / "fig1stuck"
    code = main(["figure1", "--p", "0.5", "--a-values", "0.75", "--N", "64", "--L", "50",
                 "--t-max", "1", "--steady-tol", "1e-14", "--out", str(out)])
    assert code == EXIT_PARTIAL
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == ["run_00_a0.75 unsteady at t_max"]


def test_figure_dry_runs(tmp_path):
    for cmd in ("figure1", "figure2", "figure3"):
        out = tmp_path / cmd
        assert main([cmd, "--dry-run", "--out", str(out)]) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json"]


def test_figure3_dry_run_rejects_what_the_run_rejects(tmp_path):
    for extra in ([], ["--dry-run"]):
        out = tmp_path / f"fig3{len(extra)}"
        assert main(["figure3", "--rmax", "5", "--out", str(out), *extra]) == EXIT_CONFIG


def test_figure3_outputs(tmp_path):
    out = tmp_path / "fig3"
    assert main(["figure3", "--out", str(out)]) == EXIT_OK
    assert verify_manifest(out) == []
    meta = json.loads((out / "fig3.json").read_text())
    assert meta["slope_origin"] == pytest.approx(0.58319, abs=1e-4)
