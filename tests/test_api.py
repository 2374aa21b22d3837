"""The public API: module export lists, the package's names, and removed names.

The package exports what the runner, the CLI, the README, ``bench/`` and
``tools/`` use; everything else is imported from its module.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import uqfv

ROOT = Path(__file__).resolve().parents[1]

MODULES = (
    "basis", "cli", "config", "euler", "fv", "ipm",
    "problems", "riemann", "runner", "sg", "stats",
)

PUBLIC = {
    "ConfigError", "FieldStatistics", "FilterConfig", "GasModel", "NewtonConfig",
    "RunConfig", "RunStats", "build_basis", "build_partition", "collocation_reference",
    "entropy_gradient_inverse", "field_statistics", "grid_1d", "grid_2d", "is_admissible",
    "make_initial", "parse_config", "project_initial_data", "relative_errors", "run",
    "run_ipm", "run_sg", "solve_duals", "sod_reference_on_grid", "write_csv",
}

# test-only duplicates, test-only entropy maps and Euler kernels, test-only
# options, the Lax-Friedrichs flux and uncalled methods, deleted or moved to
# tests/oracles.py; the first-False locator that ``euler._require`` replaced,
# the count of a variance clamp that never fired, and the sound speed that
# now overwrites its pressure (``_sound_speed_in_place``);
# a dotted name is an attribute of a class in the module
REMOVED = {
    "basis": ("QuadratureRule.integrate", "QuadratureRule.ref_nodes",
              "ElementPartition.element_of", "GpcBasis.eval_at"),
    "euler": ("sound_speed", "dual_state_jacobian", "legendre_dual", "_flux_unchecked",
              "entropy", "_entropy_unchecked", "entropy_hessian", "pressure",
              "_pressure_unchecked", "physical_flux", "max_wave_speed", "_first_false",
              "_sound_speed_unchecked"),
    "fv": ("hll_flux", "lax_friedrichs_flux", "_lf_unchecked", "extend_moments",
           "_dirichlet_moments", "MomentField.cell_means", "MomentField.copy",
           "MomentField.n_components", "global_wave_speeds"),
    "ipm": ("dual_residual", "dual_hessian", "ipm_update"),
    "sg": ("limiter_theta", "filter_gain", "sg_update"),
    "stats": ("_window_mask", "FieldStatistics.clamped"),
}


def test_every_module_export_exists():
    missing = []
    for name in MODULES:
        module = importlib.import_module(f"uqfv.{name}")
        exports = getattr(module, "__all__", ())
        missing += [(name, n) for n in exports if not hasattr(module, n)]
    assert missing == []


def test_package_exports_the_pinned_set():
    exported = {
        name
        for name, value in vars(uqfv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


def _names_taken_from_uqfv(source: str) -> set:
    """Names a Python source imports from ``uqfv`` or reads as ``uqfv.<name>``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "uqfv":
            names |= {alias.name for alias in node.names}
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "uqfv"
        ):
            names.add(node.attr)
    return names


def test_bench_tools_and_readme_use_only_exported_names():
    scripts = [p for d in ("bench", "tools") for p in sorted((ROOT / d).glob("*.py"))]
    sources = [p.read_text() for p in scripts]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    used = set().union(*map(_names_taken_from_uqfv, sources))
    # submodules and the package's own file are not names it exports
    used -= set(MODULES) | {"__file__"}
    assert used <= PUBLIC, sorted(used - PUBLIC)


def _has(owner, dotted: str) -> bool:
    head, _, rest = dotted.partition(".")
    # a dataclass field without a default is no class attribute
    if head in getattr(owner, "__dataclass_fields__", ()):
        return True
    if not hasattr(owner, head):
        return False
    return not rest or _has(getattr(owner, head), rest)


def test_removed_names_are_gone():
    present = [
        (module, name)
        for module, names in REMOVED.items()
        for name in names
        if _has(uqfv, name) or _has(importlib.import_module(f"uqfv.{module}"), name)
    ]
    assert present == []
