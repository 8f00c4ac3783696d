"""eikolab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload mass_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 1

Run it from the repository root: the program is imported from ./src as it is
in the checkout.  Each workload is one process driving a closed loop with one
request in flight: a pass (one workload call) starts when the previous one
has been checked, and passes repeat while the next one fits in --seconds (at
least one pass).  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  A traced run makes each traced pass
right after an untraced one, checks that both wrote bitwise equal outputs,
and reports the difference of their wall times as the tracing overhead.
Scratch output, per-run results and spans go to .bench_work/ in the
repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("mass_sweep", "single_n512", "radial_stack")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def build_workload(name: str, seed: int):
    """Import eikolab and build the workload's inputs: what setup_s times."""
    import workloads

    return workloads.WORKLOADS[name](seed, workloads.load_reference())


def setup_probe(args) -> int:
    t0 = time.perf_counter()
    build_workload(args.workload, args.seed)
    print(repr(time.perf_counter() - t0))
    return 0


def measure_setup(args) -> float:
    """Median set-up time over fresh interpreters (imports are cached per process)."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    commit, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True, timeout=30).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, check=True, capture_output=True, text=True,
                                    timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            commit, dirty = None, None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "fft": "numpy.fft (pocketfft, one thread per call)",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "machine": platform.machine(),
        "commit": commit,
        "dirty": dirty,
    }


@dataclass
class Pass:
    wall: float
    checks: list
    quality: dict
    digest: str | None
    runtime_warnings: int
    spans: object = None


def run_pass(wl, out: Path, tracer=None) -> Pass:
    from workloads import Check

    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            t0 = time.perf_counter()
            raw = wl.execute(out)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
    n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    try:
        checks, quality, digest = wl.evaluate(raw, out)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        checks, quality, digest = [Check("outputs", False, repr(exc))], {}, None
    spans = tracer.spans() if tracer is not None else None
    return Pass(wall, checks, quality, digest, n_warn, spans)


def worst_quality(passes: list[Pass], n_checks: int, n_failed: int) -> dict:
    out = {"failed_frac": n_failed / n_checks}
    for key, pick in (("ref_dev", max), ("omega_k2_gap", max),
                      ("law_pearson", min), ("oracle_err_max", max)):
        vals = [p.quality[key] for p in passes if key in p.quality]
        if vals:
            out[key] = pick(vals)
    return out


def run_workload(args) -> int:
    from workloads import Check

    t_setup = time.perf_counter()
    wl = build_workload(args.workload, args.seed)
    wl.prepare()
    setup_s = measure_setup(args) if not args.trace else None
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"set-up and oracles took {time.perf_counter() - t_setup:.2f} s", flush=True)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    out = WORK / f"{args.workload}-{os.getpid()}"
    plain: list[Pass] = []
    traced: list[Pass] = []
    t_start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        plain.append(run_pass(wl, out))
        if tracer is not None:
            traced.append(run_pass(wl, out, tracer))
        now = time.perf_counter()
        if now - t_start + (now - t_iter) > args.seconds:
            break
    shutil.rmtree(out, ignore_errors=True)

    checks = [c for p in plain + traced for c in p.checks]
    ref_digest = plain[0].digest
    checks += [Check("deterministic", p.digest == ref_digest, f"pass {i} digest")
               for i, p in enumerate(plain[1:], 1)]
    checks += [Check("traced_bitwise", p.digest == ref_digest, f"traced pass {i} digest")
               for i, p in enumerate(traced)]
    failed = [c for c in checks if not c.ok]
    quality = worst_quality(plain + traced, len(checks), len(failed))

    if args.trace:
        metrics = trace_metrics(wl, plain, traced, args)
    else:
        from metrics import END_TO_END

        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}

    env = environment()
    report(args, plain, metrics, quality, failed, env)
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
              "metrics": metrics}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, quality=quality, environment=env,
                  walls=[p.wall for p in plain], traced_walls=[p.wall for p in traced],
                  checks=[vars(c) for c in checks])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def trace_metrics(wl, plain: list[Pass], traced: list[Pass], args) -> dict:
    from metrics import PER_LAYER, layer_metrics

    per_pass = [layer_metrics(p.spans, wl.jobs, p.runtime_warnings) for p in traced]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in plain))
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    traced[-1].spans.save(WORK / "spans" / f"{args.workload}.npz")  # latest run only
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in PER_LAYER}


def report(args, plain, metrics, quality, failed, env):
    from metrics import PER_LAYER, QUALITY

    moves = {name: f"  -> {what}" for name, _, _, what in PER_LAYER}
    print(f"perfbench {args.workload}: {len(plain)} untraced pass(es), "
          f"walls {', '.join(f'{p.wall:.3f}' for p in plain)} s")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}{moves.get(name, '')}")
    for name, unit, better, _ in QUALITY:
        if name in quality:
            print(f"  {name:36s} {quality[name]:14.6g} {unit} ({better} is better)")
    for c in failed:
        print(f"  FAILED {c.name}: {c.detail}")
    print("  environment: " + json.dumps(env, sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own process; prints their tables and one summary line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eikolab" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'eikolab'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
