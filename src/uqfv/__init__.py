"""Intrusive uncertainty quantification for the uncertain compressible Euler equations.

Multi-element stochastic Galerkin with a hyperbolicity-preserving limiter and
moment filters, a multi-element entropy-closure (dual variable) moment
method, exact-Riemann and collocation references, statistics, and a CLI.

The names below are the ones the runner, the CLI, the README, the benchmark
and the tools use; everything else is imported from its module.
"""

from .basis import build_basis, build_partition
from .config import ConfigError, RunConfig, parse_config
from .euler import GasModel, entropy_gradient_inverse, is_admissible
from .fv import RunStats, grid_1d, grid_2d
from .ipm import NewtonConfig, run_ipm, solve_duals
from .problems import make_initial, project_initial_data
from .riemann import collocation_reference, sod_reference_on_grid
from .runner import run
from .sg import FilterConfig, run_sg
from .stats import FieldStatistics, field_statistics, relative_errors, write_csv

__version__ = "0.1.0"
