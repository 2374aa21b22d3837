"""Criterion 7 in isolated runs: ME-IPM 3x4 against IPM 1x14 on Sod at 400 cells.

    python3 tools/criterion7.py           # 10 pairs
    python3 tools/criterion7.py 20        # 20 pairs
    python3 tools/criterion7.py --2d 4    # 4 pairs on the 2D half-plane data

With ``--2d`` both shapes run on the half-plane data of
``tools/stats_hashes.py`` instead: the ``riemann_2d`` Sod states, L where
x < 0.5 and y < 0.5 + 0.05 xi and R elsewhere, on 32 x 32 cells up to
t = 0.1, with the dual solves on 2 threads. ME-IPM's Newton count there is
the one ``tests/golden.json`` records for ``half_plane_2d_me_ipm``.

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
# cells per axis, end time and dual-solve threads (None: the usable CPUs)
CASES = {"1d": (400, 0.14, None), "2d": (32, 0.1, 2)}
US_KEYS = [(phase, name) for name in SHAPES for phase in ("cold", "warm")]


def _sod(x, xi):
    x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
    return np.where((x < 0.5 + 0.05 * xi)[..., None], [1.0, 0.0, 2.5], [0.125, 0.0, 0.25])


def _half_plane(x, y, xi):
    x, y, xi = np.broadcast_arrays(*(np.asarray(c, float) for c in (x, y, xi)))
    inside = (x < 0.5) & (y < 0.5 + 0.05 * xi)
    return np.where(inside[..., None], [1.0, 0.0, 0.0, 2.5], [0.125, 0.0, 0.0, 0.25])


def _run(name: str, case: str, n: int, max_steps: int | None = None) -> tuple[float, int]:
    """Seconds and Newton iterations of one ``run_ipm`` call on ``n`` cells per axis."""
    from uqfv import GasModel, build_basis, build_partition, grid_1d, grid_2d
    from uqfv import project_initial_data, run_ipm
    from uqfv.ipm import initial_duals_from_states
    from uqfv.problems import initial_node_states

    _, t_end, threads = CASES[case]
    gas = GasModel(1.4)
    n_elements, degree = SHAPES[name]
    basis = build_basis(build_partition(-1.0, 1.0, n_elements), degree)
    grid, initial = (grid_2d(n, n), _half_plane) if case == "2d" else (grid_1d(n, 0.0, 1.0), _sod)
    field = project_initial_data(initial, grid, basis)
    duals0 = initial_duals_from_states(initial_node_states(initial, grid, basis), basis, gas)
    start = time.perf_counter()
    result = run_ipm(
        field, gas, t_end, cfl=0.9, initial_duals=duals0, threads=threads, max_steps=max_steps
    )
    return time.perf_counter() - start, result.stats.newton_iterations


def _pair(case: str, order: list[str]) -> None:
    """Child process: warm up both shapes, then time each in ``order``, twice."""
    sys.path.insert(0, str(SRC))
    for name in order:
        _run(name, case, 8 if case == "2d" else 20, max_steps=3)
    for phase in ("cold", "warm"):
        for name in order:
            seconds, newton = _run(name, case, CASES[case][0])
            print(phase, name, seconds, newton, flush=True)


def _quartiles(values) -> str:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return f"median {q2:.3f} (quartiles {q1:.3f}-{q3:.3f})"


def main(pairs: int, case: str) -> int:
    rows = []
    for i in range(pairs):
        order = ["me_ipm", "ipm"] if i % 2 == 0 else ["ipm", "me_ipm"]
        out = subprocess.run(
            [sys.executable, __file__, "--pair", case, *order],
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
        _pair(sys.argv[2], sys.argv[3:])
    else:
        args = [a for a in sys.argv[1:] if a != "--2d"]
        case = "2d" if len(args) < len(sys.argv) - 1 else "1d"
        sys.exit(main(int(args[0]) if args else 10, case))
