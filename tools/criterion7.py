"""Criterion 7 in isolated runs: ME-IPM 3x4 against IPM 1x14 on Sod at 400 cells.

    python3 tools/criterion7.py        # 10 pairs
    python3 tools/criterion7.py 20     # 20 pairs

Each pair runs in a fresh interpreter, with the ``src/`` tree of the checkout
this script sits in; even pairs run ME-IPM first, odd pairs IPM first. A run
is timed as ``test_criterion_7_me_ipm_speedup`` times it: ``run_ipm`` to
t = 0.14, warm-started from the projected entropy gradient of the initial
node states, after one short warm-up run of each shape in the same process.
That first timed run of each shape is the cold one, as in the test; the
process then times both shapes again, in the same order, for the warm one.
One line per pair gives the cold times, both Newton counts and the cold and
warm ratios ME-IPM / IPM, and a second line each shape's microseconds per
Newton iteration (seconds / Newton count), cold and warm. A time ratio is
then the work ratio (the Newton counts' ratio, the same in every run) times
the ratio of the per-iteration costs. The last lines give the median and
quartiles of the times, of both ratios and of the per-iteration costs. The
acceptance bound on the ratio is 0.5.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SHAPES = {"me_ipm": (3, 4), "ipm": (1, 14)}
NX, T_END = 400, 0.14
US_KEYS = [(phase, name) for name in SHAPES for phase in ("cold", "warm")]


def _sod(x, xi):
    x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
    return np.where((x < 0.5 + 0.05 * xi)[..., None], [1.0, 0.0, 2.5], [0.125, 0.0, 0.25])


def _run(name: str, nx: int, max_steps: int | None = None) -> tuple[float, int]:
    """Seconds and Newton iterations of one ``run_ipm`` call."""
    from uqfv import GasModel, build_basis, build_partition, grid_1d, project_initial_data, run_ipm
    from uqfv.ipm import initial_duals_from_states
    from uqfv.problems import initial_node_states

    gas = GasModel(1.4)
    n_elements, degree = SHAPES[name]
    basis = build_basis(build_partition(-1.0, 1.0, n_elements), degree)
    grid = grid_1d(nx, 0.0, 1.0)
    field = project_initial_data(_sod, grid, basis)
    duals0 = initial_duals_from_states(initial_node_states(_sod, grid, basis), basis, gas)
    start = time.perf_counter()
    result = run_ipm(field, gas, T_END, cfl=0.9, initial_duals=duals0, max_steps=max_steps)
    return time.perf_counter() - start, result.stats.newton_iterations


def _pair(order: list[str]) -> None:
    """Child process: warm up both shapes, then time each in ``order``, twice."""
    sys.path.insert(0, str(SRC))
    for name in order:
        _run(name, 20, max_steps=3)
    for phase in ("cold", "warm"):
        for name in order:
            seconds, newton = _run(name, NX)
            print(phase, name, seconds, newton, flush=True)


def _quartiles(values) -> str:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return f"median {q2:.3f} (quartiles {q1:.3f}-{q3:.3f})"


def main(pairs: int) -> int:
    rows = []
    for i in range(pairs):
        order = ["me_ipm", "ipm"] if i % 2 == 0 else ["ipm", "me_ipm"]
        out = subprocess.run(
            [sys.executable, __file__, "--pair", *order],
            check=True, capture_output=True, text=True,
        ).stdout
        runs = {
            (phase, name): (float(s), int(n))
            for phase, name, s, n in map(str.split, out.splitlines())
        }
        (me, me_newton), (cl, cl_newton) = runs["cold", "me_ipm"], runs["cold", "ipm"]
        warm = runs["warm", "me_ipm"][0] / runs["warm", "ipm"][0]
        us = [1e6 * runs[key][0] / runs[key][1] for key in US_KEYS]
        rows.append((me, cl, me / cl, warm, *us))
        print(
            f"pair {i:2d} ({order[0]} first): ME-IPM {me:.3f} s ({me_newton} Newton), "
            f"IPM {cl:.3f} s ({cl_newton} Newton), ratio {me / cl:.3f}, warm {warm:.3f}\n"
            f"         us per Newton iteration: ME-IPM {us[0]:.2f} cold, {us[1]:.2f} warm; "
            f"IPM {us[2]:.2f} cold, {us[3]:.2f} warm; work ratio {me_newton / cl_newton:.3f}",
            flush=True,
        )
    me, cl, ratio, warm, *us = map(list, zip(*rows))
    print(f"ME-IPM s:   {_quartiles(me)}")
    print(f"IPM s:      {_quartiles(cl)}")
    print(f"ratio:      {_quartiles(ratio)}, max {max(ratio):.3f}, bound 0.5")
    print(f"warm ratio: {_quartiles(warm)}, max {max(warm):.3f}")
    for (phase, name), values in zip(US_KEYS, us):
        print(f"{name} {phase} us per Newton iteration: {_quartiles(values)}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--pair"]:
        _pair(sys.argv[2:])
    else:
        sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 10))
