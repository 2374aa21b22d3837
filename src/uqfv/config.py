"""Run configuration: flat INI-style files with strict validation.

Sections: [problem], [grid], [basis], [method], [filter], [limiter],
[newton], [output]. Unknown sections or keys are errors, as are
method/section mismatches (a filter section is required for the filtered
methods and rejected otherwise).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .ipm import NewtonConfig
from .sg import FilterConfig, LimiterConfig

__all__ = [
    "ConfigError",
    "ProblemSpec",
    "GridSpec",
    "BasisSpec",
    "MethodSpec",
    "OutputSpec",
    "RunConfig",
    "parse_config",
]

METHODS = ("hsg", "fhsg", "ipm", "me_hsg", "me_fhsg", "me_ipm", "collocation")
_SG_METHODS = ("hsg", "fhsg", "me_hsg", "me_fhsg")
_FILTERED = ("fhsg", "me_fhsg")
_IPM_METHODS = ("ipm", "me_ipm")
PRESETS = ("sod_1d", "custom_1d", "riemann_2d")

# Sod shock tube parameters: domain [0,1], T=0.14, interface x0 + sigma*xi,
# end states (rho, rho v, rho e)
SOD_GAMMA = 1.4
SOD_X0 = 0.5
SOD_SIGMA = 0.05
SOD_T_END = 0.14
SOD_LEFT = (1.0, 0.0, 2.5)
SOD_RIGHT = (0.125, 0.0, 0.25)


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class ProblemSpec:
    preset: str
    gamma: float
    x0: float
    sigma: float
    rho_l: float
    e_l: float
    rho_r: float
    e_r: float
    rho0: float = 1.0
    amplitude: float = 0.1
    xi_coupling: float = 0.5
    velocity: float = 0.0
    pressure: float = 1.0


@dataclass(frozen=True)
class GridSpec:
    nx: int
    x_min: float
    x_max: float
    bc: str
    ny: int | None = None
    y_min: float | None = None
    y_max: float | None = None
    bc_y: str = "transmissive"


@dataclass(frozen=True)
class BasisSpec:
    n_elements: int
    degree: int
    quadrature: str = "gauss-legendre"
    quad_points: int | None = None
    cc_level: int | None = None


@dataclass(frozen=True)
class MethodSpec:
    name: str
    t_end: float
    cfl: float = 0.9
    nodes: int = 100


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    stats_csv: str = "stats.csv"
    report: str = "report.txt"
    errors_csv: str = "errors.csv"
    reference: str = "none"
    reference_nodes: int = 100
    reference_subcells: int = 5


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    grid: GridSpec
    basis: BasisSpec
    method: MethodSpec
    filter: FilterConfig | None
    limiter: LimiterConfig
    newton: NewtonConfig
    output: OutputSpec


class _Section:
    """Typed view of one config section with unknown-key detection."""

    def __init__(self, name: str, raw: dict, known: dict):
        self.name = name
        unknown = set(raw) - set(known)
        if unknown:
            raise ConfigError(
                f"[{name}] has unknown key(s): {', '.join(sorted(unknown))}"
            )
        self.raw = raw
        self.known = known

    def get(self, key, default=None):
        kind = self.known[key]
        if key not in self.raw:
            return default
        text = self.raw[key]
        try:
            if kind is bool:
                low = text.strip().lower()
                if low in ("true", "yes", "1", "on"):
                    return True
                if low in ("false", "no", "0", "off"):
                    return False
                raise ValueError(f"not a boolean: {text!r}")
            return kind(text)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key}: {exc}") from exc

    def require(self, key):
        if key not in self.raw:
            raise ConfigError(f"[{self.name}] missing required key {key!r}")
        return self.get(key)


_SECTION_KEYS = {
    "problem": {
        "preset": str,
        "gamma": float,
        "x0": float,
        "sigma": float,
        "rho_l": float,
        "e_l": float,
        "rho_r": float,
        "e_r": float,
        "rho0": float,
        "amplitude": float,
        "xi_coupling": float,
        "velocity": float,
        "pressure": float,
    },
    "grid": {
        "nx": int,
        "x_min": float,
        "x_max": float,
        "bc": str,
        "ny": int,
        "y_min": float,
        "y_max": float,
        "bc_y": str,
    },
    "basis": {
        "n_elements": int,
        "degree": int,
        "quadrature": str,
        "quad_points": int,
        "cc_level": int,
    },
    "method": {"name": str, "t_end": float, "cfl": float, "nodes": int},
    "filter": {"kind": str, "strength": float, "order": int, "dt_scaled": bool},
    "limiter": {"enabled": bool, "epsilon": float},
    "newton": {"tol": float, "max_iter": int, "max_halvings": int},
    "output": {
        "directory": str,
        "stats_csv": str,
        "report": str,
        "errors_csv": str,
        "reference": str,
        "reference_nodes": int,
        "reference_subcells": int,
    },
}


def parse_config(source) -> RunConfig:
    """Parse and validate a configuration from a path or literal text."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source):
            path = Path(source)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            parser.read(path)
        else:
            parser.read_string(source)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    sections = {}
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        sections[name] = _Section(name, dict(parser.items(name)), _SECTION_KEYS[name])

    def sect(name):
        return sections.get(name) or _Section(name, {}, _SECTION_KEYS[name])

    problem = _parse_problem(sect("problem"))
    grid = _parse_grid(sect("grid"), problem)
    method = _parse_method(sect("method"), problem)
    basis = _parse_basis(sect("basis"), method)
    output = _parse_output(sect("output"), problem)

    if method.name in _FILTERED:
        if "filter" not in sections:
            raise ConfigError(f"method {method.name} requires a [filter] section")
        filt = _parse_filter(sections["filter"])
    else:
        if "filter" in sections:
            raise ConfigError(f"[filter] is only valid for methods {_FILTERED}")
        filt = None
    if "limiter" in sections and method.name not in _SG_METHODS:
        raise ConfigError("[limiter] is only valid for the stochastic Galerkin methods")
    limiter = _parse_limiter(sect("limiter"))
    if "newton" in sections and method.name not in _IPM_METHODS:
        raise ConfigError("[newton] is only valid for the entropy-closure methods")
    newton = _parse_newton(sect("newton"))

    return RunConfig(
        problem=problem,
        grid=grid,
        basis=basis,
        method=method,
        filter=filt,
        limiter=limiter,
        newton=newton,
        output=output,
    )


def _parse_problem(s: _Section) -> ProblemSpec:
    preset = s.require("preset")
    if preset not in PRESETS:
        raise ConfigError(f"unknown problem preset {preset!r}; options: {PRESETS}")
    spec = ProblemSpec(
        preset=preset,
        gamma=s.get("gamma", SOD_GAMMA),
        x0=s.get("x0", SOD_X0),
        sigma=s.get("sigma", SOD_SIGMA),
        rho_l=s.get("rho_l", SOD_LEFT[0]),
        e_l=s.get("e_l", SOD_LEFT[2]),
        rho_r=s.get("rho_r", SOD_RIGHT[0]),
        e_r=s.get("e_r", SOD_RIGHT[2]),
        rho0=s.get("rho0", 1.0),
        amplitude=s.get("amplitude", 0.1),
        xi_coupling=s.get("xi_coupling", 0.5),
        velocity=s.get("velocity", 0.0),
        pressure=s.get("pressure", 1.0),
    )
    if not spec.gamma > 1.0:
        raise ConfigError(f"[problem] gamma must exceed 1, got {spec.gamma}")
    if spec.sigma < 0.0:
        raise ConfigError(f"[problem] sigma must be >= 0, got {spec.sigma}")
    return spec


def _parse_grid(s: _Section, problem: ProblemSpec) -> GridSpec:
    nx = s.require("nx")
    if nx < 1:
        raise ConfigError(f"[grid] nx must be positive, got {nx}")
    bc = s.get("bc", "transmissive")
    if bc not in ("transmissive", "periodic", "dirichlet"):
        raise ConfigError(f"[grid] unknown bc {bc!r}")
    if bc == "dirichlet" and problem.preset == "custom_1d":
        raise ConfigError("[grid] dirichlet boundaries are not defined for custom_1d")
    two_d = problem.preset == "riemann_2d"
    ny = s.get("ny")
    if two_d:
        if ny is None or ny < 1:
            raise ConfigError("[grid] riemann_2d requires a positive ny")
    elif ny is not None or "y_min" in s.raw or "y_max" in s.raw:
        raise ConfigError("[grid] y settings are only valid for riemann_2d")
    bc_y = s.get("bc_y", "transmissive")
    if bc_y not in ("transmissive", "periodic"):
        raise ConfigError(f"[grid] bc_y must be transmissive or periodic, got {bc_y!r}")
    return GridSpec(
        nx=nx,
        x_min=s.get("x_min", 0.0),
        x_max=s.get("x_max", 1.0),
        bc=bc,
        ny=ny,
        y_min=s.get("y_min", 0.0 if two_d else None),
        y_max=s.get("y_max", 1.0 if two_d else None),
        bc_y=bc_y,
    )


def _parse_basis(s: _Section, method: MethodSpec) -> BasisSpec:
    if method.name == "collocation":
        degree = s.get("degree", 0)
        n_elements = s.get("n_elements", 1)
    else:
        degree = s.require("degree")
        n_elements = s.get("n_elements", 1)
    if degree < 0:
        raise ConfigError(f"[basis] degree must be >= 0, got {degree}")
    if n_elements < 1:
        raise ConfigError(f"[basis] n_elements must be >= 1, got {n_elements}")
    if method.name in ("hsg", "fhsg", "ipm") and n_elements != 1:
        raise ConfigError(
            f"method {method.name} is single-element; use me_{method.name} for {n_elements} elements"
        )
    quadrature = s.get("quadrature", "gauss-legendre")
    if quadrature in ("gauss", "gauss-legendre"):
        quadrature = "gauss-legendre"
        if "cc_level" in s.raw:
            raise ConfigError("[basis] cc_level is only valid for clenshaw-curtis")
        qp = s.get("quad_points")
        if qp is not None and qp < 1:
            raise ConfigError(f"[basis] quad_points must be >= 1, got {qp}")
        return BasisSpec(n_elements, degree, quadrature, qp, None)
    if quadrature in ("cc", "clenshaw-curtis"):
        if "quad_points" in s.raw:
            raise ConfigError("[basis] quad_points is only valid for gauss-legendre")
        level = s.get("cc_level")
        if level is not None and level < 0:
            raise ConfigError(f"[basis] cc_level must be >= 0, got {level}")
        return BasisSpec(n_elements, degree, "clenshaw-curtis", None, level)
    raise ConfigError(f"[basis] unknown quadrature {quadrature!r}")


def _parse_method(s: _Section, problem: ProblemSpec) -> MethodSpec:
    name = s.require("name")
    if name not in METHODS:
        raise ConfigError(f"unknown method {name!r}; options: {METHODS}")
    default_t = SOD_T_END if problem.preset == "sod_1d" else None
    t_end = s.get("t_end", default_t)
    if t_end is None:
        raise ConfigError("[method] t_end is required for this problem")
    if t_end < 0.0:
        raise ConfigError(f"[method] t_end must be >= 0, got {t_end}")
    cfl = s.get("cfl", 0.9)
    if not 0.0 < cfl <= 1.0:
        raise ConfigError(f"[method] cfl must lie in (0, 1], got {cfl}")
    nodes = s.get("nodes", 100)
    if nodes < 1:
        raise ConfigError(f"[method] nodes must be >= 1, got {nodes}")
    return MethodSpec(name=name, t_end=t_end, cfl=cfl, nodes=nodes)


def _parse_filter(s: _Section) -> FilterConfig:
    try:
        return FilterConfig(
            kind=s.get("kind", "exponential"),
            strength=s.get("strength", 0.0),
            order=s.get("order", 1),
            dt_scaled=s.get("dt_scaled", True),
        )
    except ValueError as exc:
        raise ConfigError(f"[filter] {exc}") from exc


def _parse_limiter(s: _Section) -> LimiterConfig:
    try:
        return LimiterConfig(
            epsilon=s.get("epsilon", 1e-10), enabled=s.get("enabled", True)
        )
    except ValueError as exc:
        raise ConfigError(f"[limiter] {exc}") from exc


def _parse_newton(s: _Section) -> NewtonConfig:
    try:
        return NewtonConfig(
            tol=s.get("tol", 1e-7),
            max_iter=s.get("max_iter", 100),
            max_halvings=s.get("max_halvings", 50),
        )
    except ValueError as exc:
        raise ConfigError(f"[newton] {exc}") from exc


def _parse_output(s: _Section, problem: ProblemSpec) -> OutputSpec:
    reference = s.get("reference", "none")
    if reference not in ("none", "exact_sod", "collocation"):
        raise ConfigError(f"[output] unknown reference {reference!r}")
    if reference == "exact_sod" and problem.preset != "sod_1d":
        raise ConfigError("[output] reference exact_sod requires the sod_1d preset")
    nodes = s.get("reference_nodes", 100)
    if nodes < 1:
        raise ConfigError(f"[output] reference_nodes must be >= 1, got {nodes}")
    subcells = s.get("reference_subcells", 5)
    if subcells < 1:
        raise ConfigError(f"[output] reference_subcells must be >= 1, got {subcells}")
    return OutputSpec(
        directory=s.get("directory", "out"),
        stats_csv=s.get("stats_csv", "stats.csv"),
        report=s.get("report", "report.txt"),
        errors_csv=s.get("errors_csv", "errors.csv"),
        reference=reference,
        reference_nodes=nodes,
        reference_subcells=subcells,
    )
