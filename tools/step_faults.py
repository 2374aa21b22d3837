"""Wall time, minor page faults, system time and peak RSS of warm solver runs.

    python3 tools/step_faults.py                   # every shape, 3 warm runs each
    python3 tools/step_faults.py me_hsg hsg        # a subset, by name
    python3 tools/step_faults.py --runs 5 me_ipm   # 5 warm runs
    python3 tools/step_faults.py collocation       # the collocation reference
    python3 tools/step_faults.py exact_sod exact_sod_after_collocation

The shapes are the golden SG, IPM, collocation and ``riemann_2d`` configs
of ``tools/stats_hashes.py`` (Sod at 400 cells to t = 0.14, the 2D problem
at 48 x 48 to t = 0.1); ``collocation`` runs ``collocation_reference`` on its
100 Gauss nodes, so it shows what the collocation block size costs per run.
``exact_sod`` runs the exact reference of ``me_hsg_exact_sod``
(``sod_reference_on_grid``, 100 nodes, 5 sub-cells), so it shows what the
size of its blocks of Gauss pieces costs per run.
``exact_sod_after_collocation`` times the same call, but runs
``collocation_reference`` once, untimed, before each timed call (and before
the warm-up), as the bench's ``references`` workload does: the allocator
state that collocation leaves behind decides whether the exact reference's
temporaries are reused or faulted in afresh.
Each shape runs in a fresh interpreter with the ``src/`` tree of the
checkout this script sits in: one warm-up run, then the warm runs, each
timed by ``getrusage(RUSAGE_SELF)`` and ``perf_counter`` around the
``run_sg``, ``run_ipm``, ``collocation_reference`` or
``sod_reference_on_grid`` call alone (the inputs are built once, before the
warm-up). One line per warm run gives its wall time, minor faults, system
time and peak RSS; the faults show whether a step's temporaries are faulted
in afresh each step, which the wall time alone does not tell apart from
work. The peak RSS is ``ru_maxrss``, the process's high-water mark at the
end of that run, so it shows what the largest run held, the warm-up
included (``riemann_2d_me_ipm`` shows the held memory of its 2-thread dual
solve).
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

from stats_hashes import CONFIGS  # noqa: E402  (puts src/ on the path)

# the exact reference, alone and after a collocation run
EXACT = ("exact_sod", "exact_sod_after_collocation")
SHAPES = [name for name in CONFIGS if name != "me_hsg_exact_sod"] + list(EXACT)


def _runner(name: str):
    """A callable that runs the shape's solver once, from inputs built here."""
    from uqfv.config import parse_config
    from uqfv.ipm import initial_duals_from_states, run_ipm
    from uqfv.problems import (
        initial_node_states,
        make_basis,
        make_gas,
        make_grid,
        make_initial,
        project_initial_data,
    )
    from uqfv.riemann import collocation_reference
    from uqfv.runner import _reference_statistics
    from uqfv.sg import run_sg

    config = parse_config(CONFIGS["me_hsg_exact_sod" if name in EXACT else name])
    gas, grid = make_gas(config.problem), make_grid(config.grid, config.problem)
    initial, method = make_initial(config.problem), config.method
    if name in EXACT:
        output = config.output
        return lambda: _reference_statistics(
            output.reference, output.reference_nodes, config, grid, gas, initial
        )
    if method.name == "collocation":
        return lambda: collocation_reference(
            initial, grid, gas, method.t_end, cfl=method.cfl, n_nodes=method.nodes
        )
    basis = make_basis(config.basis)
    field = project_initial_data(initial, grid, basis)
    if method.name in ("ipm", "me_ipm"):
        duals = initial_duals_from_states(initial_node_states(initial, grid, basis), basis, gas)
        return lambda: run_ipm(
            field, gas, method.t_end, cfl=method.cfl, newton=config.newton, initial_duals=duals
        )
    return lambda: run_sg(
        field, gas, method.t_end, cfl=method.cfl,
        filter_config=config.filter, limiter_config=config.limiter,
    )


def _measure(name: str, runs: int) -> None:
    """Child process: one warm-up run, then ``runs`` measured runs of one shape."""
    once = _runner(name)
    first = _runner("collocation") if name == EXACT[1] else lambda: None
    first()
    once()
    for i in range(runs):
        first()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        once()
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        print(
            f"{name:27s} run {i}: wall {wall:.3f} s, "
            f"minor faults {after.ru_minflt - before.ru_minflt}, "
            f"sys {after.ru_stime - before.ru_stime:.3f} s, "
            f"peak RSS {after.ru_maxrss / 1024:.1f} MiB",
            flush=True,
        )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shapes", nargs="*", help=f"any of {SHAPES} (default: all)")
    parser.add_argument("--runs", type=int, default=3, help="warm runs per shape")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    unknown = sorted(set(args.shapes) - set(SHAPES))
    if unknown:
        parser.error(f"unknown shape(s) {unknown}; known: {SHAPES}")
    if args.child:
        _measure(args.shapes[0], args.runs)
        return 0
    for name in args.shapes or SHAPES:
        subprocess.run(
            [sys.executable, __file__, "--child", "--runs", str(args.runs), name], check=True
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
