"""Benchmark of the uqfv solvers: one workload, one seed, one process.

    python3 bench/run.py --workload sod_ipm --seed 0 --seconds 28 --trace 0

Run from the repository root. The timed body of the workload repeats until
the next repetition would overrun ``--seconds`` (at least once). With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` untraced and
traced repetitions alternate and the line holds the per-layer metrics. The
lines before it name every metric with its unit, and a ``report`` line holds
the per-run records and the environment. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from harness import Checks, Tracer, median, reference_kernel_seconds, totals, valid_metric_name

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "UQFV_THREADS",
)

# every end-to-end figure, with its unit; those a workload does not run are null
E2E_UNITS = {
    "wall_s": "s",
    "wall_norm": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "fail_ratio": "ratio",
    "err_mean_rho": "ratio",
    "err_var_rho": "ratio",
    "me_hsg_s": "s",
    "me_fhsg_s": "s",
    "hsg_s": "s",
    "me_ipm_s": "s",
    "ipm_s": "s",
    "me_ipm_speedup": "ratio",
    "exact_ref_s": "s",
    "collocation_s": "s",
}
SETUP_REPS = 5
# run in a fresh interpreter: the import cost a user pays once per process
IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy, uqfv
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def environment(workload, seed: int, seen_env: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": seen_env,
        "threads": workload.threads,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds() -> float:
    """Seconds to import numpy and uqfv, measured by a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.split()[-1])


class Rep(NamedTuple):
    """One repetition of the timed body."""

    traced: bool
    wall_s: float
    records: dict
    layers: dict | None  # per-layer metrics of a traced repetition


class ReferenceClock:
    """Reference-kernel samples taken between solver runs, off the body's clock.

    ``wall_norm`` divides the median wall time of the repetitions by the
    median sample, which cancels the drift of a shared host's speed between
    runs.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0

    def sample(self):
        t0 = perf_counter()
        self.samples.append(reference_kernel_seconds())
        self.paused += perf_counter() - t0


def repeat(seconds: float, once) -> int:
    """Call ``once(i)`` until the next call would end after ``seconds``; at least once."""
    start = perf_counter()
    durations = []
    while True:
        t0 = perf_counter()
        once(len(durations))
        durations.append(perf_counter() - t0)
        if perf_counter() - start + median(durations) > seconds:
            return len(durations)


def measure(workload, inputs, seconds: float, traced: bool, out_dir: Path):
    """Set up, then repeat the timed body; returns (metrics, report, checks)."""
    import layers
    import workloads

    api = layers.library_api()
    tracer = Tracer()
    hooks = layers.hooks(api)
    checks = Checks()

    def tracing(on: bool):
        return tracer.installed(hooks) if on else nullcontext()

    # set-up: imports in a fresh interpreter, then bases, projections, duals
    import_times, setup_times, setup_layers = [], [], []
    for _ in range(SETUP_REPS):
        import_times.append(import_seconds())
        with tracing(traced):
            t0 = perf_counter()
            prepared = workload.setup(inputs, api)
            setup_times.append(perf_counter() - t0)
        if traced:
            setup_layers.append(layers.setup_metrics(totals(tracer.take())))
    data = workload.check_data(inputs, prepared)

    clock = ReferenceClock()
    clock.sample()
    reps: list[Rep] = []

    def body(trace_this: bool):
        rep_dir = out_dir / str(len(reps))
        rep_dir.mkdir()
        paused = clock.paused
        with tracing(trace_this):
            t0 = perf_counter()
            records = workload.body(prepared, data, api, rep_dir, checks, clock.sample)
            wall = perf_counter() - t0 - (clock.paused - paused)
        metrics = layers.body_metrics(totals(tracer.take()), wall) if trace_this else None
        for rec in records.values():
            rec.sha256 = workloads.file_sha256(rec.csv_path)
        if not reps:
            workload.check(records, prepared, data, checks)
        else:
            first = reps[0].records
            for key, rec in records.items():
                if key in first:
                    checks.check(
                        f"{key} steps, Newton iterations and stats.csv repeat",
                        rec.signature() == first[key].signature(),
                        f"{rec.signature()} != {first[key].signature()}",
                    )
        for rec in records.values():
            rec.result = rec.stats = None
        reps.append(Rep(trace_this, wall, records, metrics))

    def pair(i: int):
        # alternate which side runs first; the first repetition is untraced
        for trace_this in ((False, True) if i % 2 == 0 else (True, False)):
            body(trace_this)

    if traced:
        repeat(seconds, pair)
    else:
        repeat(seconds, lambda i: body(False))

    untraced = [r for r in reps if not r.traced]
    walls = [r.wall_s for r in untraced]
    per_method = {}
    for rep in untraced:
        for key, rec in rep.records.items():
            per_method.setdefault(key, []).append(rec.seconds)
    first = untraced[0].records
    errors = [r for r in first.values() if r.err_mean_rho is not None]

    e2e = dict.fromkeys(E2E_UNITS)
    e2e.update(
        wall_s=median(walls),
        wall_norm=median(walls) / median(clock.samples),
        setup_s=median([a + b for a, b in zip(import_times, setup_times)]),
        peak_rss_mb=peak_rss_mb(),
        # a missing solution counts as a relative error of 1
        err_mean_rho=max((r.err_mean_rho for r in errors), default=1.0),
        err_var_rho=max((r.err_var_rho for r in errors), default=1.0),
    )
    for key, values in per_method.items():
        e2e[f"{key}_s"] = median(values)
    if e2e["ipm_s"] is not None and e2e["me_ipm_s"] is not None:
        e2e["me_ipm_speedup"] = e2e["ipm_s"] / e2e["me_ipm_s"]

    report = {
        "reps": len(untraced),
        "setup_reps": SETUP_REPS,
        "import_s": import_times,
        "reference_kernel_s": clock.samples,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "runs": {
            key: {
                "seconds": per_method[key],
                "steps": rec.steps,
                "newton_iterations": rec.newton_iterations,
                "stats_csv_sha256": rec.sha256,
                "err_mean_rho": rec.err_mean_rho,
                "err_var_rho": rec.err_var_rho,
            }
            for key, rec in first.items()
        },
    }
    if not traced:
        return e2e, report, checks

    traced_reps = [r for r in reps if r.traced]
    layer_reps = [r.layers for r in traced_reps]
    per_layer = {
        name: median([m[name] for m in layer_reps]) for name in layer_reps[0]
    }
    per_layer.update(
        {name: median([m[name] for m in setup_layers]) for name in setup_layers[0]}
    )
    per_layer["trace.overhead"] = median([r.wall_s for r in traced_reps]) / median(walls) - 1.0
    for name in layers.REPEATING:
        values = {m[name] for m in layer_reps}
        checks.check(f"{name} repeats across traced runs", len(values) == 1, str(sorted(values)))
    untraced_steps = sum(r.steps or 0 for r in first.values())
    untraced_newton = sum(r.newton_iterations or 0 for r in first.values())
    checks.check(
        "traced and untraced runs take the same steps",
        layer_reps[0]["steps"] == untraced_steps,
        f"{layer_reps[0]['steps']} != {untraced_steps}",
    )
    checks.check(
        "traced and untraced runs take the same Newton iterations",
        layer_reps[0]["ipm.newton_iterations"] == untraced_newton,
        f"{layer_reps[0]['ipm.newton_iterations']} != {untraced_newton}",
    )
    report["traced_reps"] = len(traced_reps)
    report["traced_wall_s"] = [r.wall_s for r in traced_reps]
    report["untraced_wall_s"] = walls
    return per_layer, report, checks


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uqfv" / "__init__.py").is_file():
        print(f"no uqfv package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seen_env = {name: os.environ.get(name) for name in THREAD_VARS}

    sys.path.insert(0, str(SRC))
    import uqfv
    import workloads

    if Path(uqfv.__file__).resolve().parent != SRC / "uqfv":
        print(f"imported uqfv from {uqfv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    inputs = workloads.draw_inputs(args.seed)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        values, report, checks = measure(
            workload, inputs, args.seconds, bool(args.trace), Path(tmp)
        )

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) - set(values) or not all(map(valid_metric_name, units)):
        raise RuntimeError(f"BENCHMARK.json names metrics this harness cannot emit: {sorted(units)}")
    report["end_to_end"]["fail_ratio"]["value"] = checks.fail_ratio
    report.update(
        workload=workload.name,
        inputs={"seed": inputs.seed, "x0": inputs.x0, "sigma": inputs.sigma},
        environment=environment(workload, args.seed, seen_env),
        attempted=checks.attempted,
        failures=checks.failures,
    )
    shown = report["end_to_end"] if not args.trace else {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    for name, metric in shown.items():
        value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{workload.name:<10} {name:<30} {value:>14} {metric['unit']}")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
