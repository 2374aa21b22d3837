"""SHA-256 of ``stats.csv``, step count and Newton count for the golden configs.

    python3 tools/stats_hashes.py            # every config
    python3 tools/stats_hashes.py me_hsg ipm # a subset, by name
    python3 tools/stats_hashes.py --write    # every config, into tests/golden.json

Each config runs through ``uqfv.runner.run`` (the path ``uqfv run`` takes)
into a temporary directory, with the ``src/`` tree of the checkout this
script sits in. Sod runs use 400 cells up to t = 0.14; ``riemann_2d`` runs
48 x 48 cells up to t = 0.1. One line per config: name, the hash of its
``stats.csv``, steps, Newton iterations, and for a config with a reference
(``me_hsg_exact_sod``) the density's errE and errVar to 17 digits.

The ``half_plane_*`` records vary in y, which no config's initial data does:
the ``riemann_2d`` Sod states, L where x < 0.5 and y < 0.5 + 0.05 xi and R
elsewhere, on 32 x 32 cells up to t = 0.1. No preset describes them, so
they are built through the library API. Their lines add ``y_steps``, the
number of steps whose update has a non-empty y-piece beside the x-window.

The last line gives the line count of ``src/uqfv/*.py``, as ``wc -l`` totals it.
Comparing two checkouts' output shows whether a change kept the outputs
bit for bit, and how much it grew or shrank the package.

``--write`` also stores each config's record, with the numpy version, its
BLAS build and the machine, in ``tests/golden.json``, which
``tests/test_golden.py`` checks. A change that moves the outputs rewrites
the file and says why.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = SRC.parent / "tests" / "golden.json"
sys.path.insert(0, str(SRC))

from uqfv import ipm, sg  # noqa: E402
from uqfv.config import parse_config  # noqa: E402
from uqfv.ipm import initial_duals_from_states, run_ipm  # noqa: E402
from uqfv.problems import (  # noqa: E402
    initial_node_states,
    make_basis,
    make_gas,
    make_grid,
    make_initial,
    project_initial_data,
)
from uqfv.runner import run  # noqa: E402
from uqfv.sg import run_sg  # noqa: E402
from uqfv.stats import field_statistics, write_csv  # noqa: E402

SOD = "[problem]\npreset = sod_1d\n[grid]\nnx = 400\n"
RIEMANN_2D = "[problem]\npreset = riemann_2d\n[grid]\nnx = 48\nny = 48\n"
# the criterion-8 filter of the acceptance suite
FILTER = "[filter]\nkind = exponential\nstrength = 2.0\norder = 10\ndt_scaled = false\n"


def _method(name: str, n_elements: int, degree: int, t_end: float = 0.14) -> str:
    return (
        f"[basis]\nn_elements = {n_elements}\ndegree = {degree}\n"
        f"[method]\nname = {name}\nt_end = {t_end}\n"
    )


CONFIGS = {
    "me_hsg": SOD + _method("me_hsg", 3, 4),
    "me_hsg_exact_sod": SOD + _method("me_hsg", 3, 4) + "[output]\nreference = exact_sod\n",
    "me_fhsg": SOD + _method("me_fhsg", 3, 4) + FILTER,
    "hsg": SOD + _method("hsg", 1, 14),
    "me_ipm": SOD + _method("me_ipm", 3, 4),
    "ipm": SOD + _method("ipm", 1, 14),
    "collocation": SOD + "[method]\nname = collocation\nt_end = 0.14\n",
    "riemann_2d_me_hsg": RIEMANN_2D + _method("me_hsg", 3, 4, t_end=0.1),
    "riemann_2d_me_ipm": RIEMANN_2D + _method("me_ipm", 3, 4, t_end=0.1),
}
# the half-plane runs: their grid, basis and method come from these configs
HALF_PLANE = {
    f"half_plane_2d_{method}": "[problem]\npreset = riemann_2d\n[grid]\nnx = 32\nny = 32\n"
    + _method(method, 3, 4, t_end=0.1)
    for method in ("me_hsg", "me_ipm")
}
NAMES = [*CONFIGS, *HALF_PLANE]


def platform_record() -> dict:
    """What the hashes depend on besides the source: numpy, its BLAS and the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "machine": platform.machine(),
    }


def config_record(name: str, out_dir: Path) -> dict:
    """Run one config into ``out_dir``: its stats.csv hash, steps, Newton count, errors."""
    if name in HALF_PLANE:
        return half_plane_record(name, out_dir)
    report = run(parse_config(CONFIGS[name]), out_dir)
    return {
        "sha256": hashlib.sha256(report.output_files["stats_csv"].read_bytes()).hexdigest(),
        "steps": report.stats.steps,
        "newton": report.stats.newton_iterations,
        "errors": {k: float(v) for k, v in (report.errors or {}).items()},
    }


def half_plane_record(name: str, out_dir: Path) -> dict:
    """A half-plane run's record, with ``y_steps``; ME-IPM solves on 2 threads."""
    config = parse_config(HALF_PLANE[name])
    problem, method = config.problem, config.method
    sod = make_initial(problem)  # L where x < x0 + sigma xi
    left, right = sod(0.0, 0.0, 0.0), sod(1.0, 0.0, 0.0)

    def initial(x, y, xi):
        x, y, xi = np.broadcast_arrays(x, y, xi)
        inside = (x < 0.5) & (y < problem.x0 + problem.sigma * xi)
        return np.where(inside[..., None], left, right)

    gas, grid, basis = make_gas(problem), make_grid(config.grid, problem), make_basis(config.basis)
    field = project_initial_data(initial, grid, basis)
    module = ipm if method.name == "me_ipm" else sg
    divergence, y_steps = module.moment_flux_divergence, []

    def counting(*args, **kwargs):
        speeds, pieces = divergence(*args, **kwargs)
        y_steps.append(any(len(cells) == 2 and total.size for cells, total in pieces))
        return speeds, pieces

    module.moment_flux_divergence = counting
    try:
        if module is ipm:
            duals = initial_duals_from_states(initial_node_states(initial, grid, basis), basis, gas)
            result = run_ipm(field, gas, method.t_end, method.cfl, initial_duals=duals, threads=2)
        else:
            result = run_sg(field, gas, method.t_end, method.cfl)
    finally:
        module.moment_flux_divergence = divergence
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(field_statistics(result.field), out_dir / "stats.csv")
    return {
        "sha256": hashlib.sha256((out_dir / "stats.csv").read_bytes()).hexdigest(),
        "steps": result.stats.steps,
        "newton": result.stats.newton_iterations,
        "errors": {},
        "y_steps": sum(y_steps),
    }


def main(args: list[str]) -> int:
    names = [a for a in args if a != "--write"]
    write = len(names) < len(args)
    unknown = sorted(set(names) - set(NAMES))
    if unknown or (write and names):
        print(
            f"usage: stats_hashes.py [--write | config...]; known configs: {sorted(NAMES)}",
            file=sys.stderr,
        )
        return 2
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or NAMES:
            record = records[name] = config_record(name, Path(tmp) / name)
            line = f"{name:18s} {record['sha256']} steps={record['steps']} newton={record['newton']}"
            line += "".join(f" {k}={v:.17g}" for k, v in record["errors"].items())
            line += f" y_steps={record['y_steps']}" if "y_steps" in record else ""
            print(line, flush=True)
    if write:
        golden = {"platform": platform_record(), "configs": records}
        GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    lines = sum(path.read_bytes().count(b"\n") for path in (SRC / "uqfv").glob("*.py"))
    print(f"src/uqfv {lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
