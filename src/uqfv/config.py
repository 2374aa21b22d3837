"""Run configuration: flat INI-style files with strict validation.

Sections: [problem], [grid], [basis], [method], [filter], [limiter],
[newton], [output]. Each section builds one class, whose fields are the
section's keys, types and defaults. Unknown sections or keys are errors, as
are method/section mismatches (a filter section is required for the filtered
methods and rejected otherwise). Values that the gas, the grid or the basis
check are checked by building those objects, as the runner does.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, fields, replace
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
_QUADRATURE_ALIASES = {"gauss": "gauss-legendre", "cc": "clenshaw-curtis"}

# end time of the sod_1d preset; the other problems require t_end
SOD_T_END = 0.14


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class ProblemSpec:
    """Defaults are the Sod shock tube: interface x0 + sigma*xi, gas at rest
    with (rho, rho e) = (rho_l, e_l) on the left and (rho_r, e_r) on the right.
    rho0 to pressure describe the custom_1d density bump."""

    preset: str
    gamma: float = 1.4
    x0: float = 0.5
    sigma: float = 0.05
    rho_l: float = 1.0
    e_l: float = 2.5
    rho_r: float = 0.125
    e_r: float = 0.25
    rho0: float = 1.0
    amplitude: float = 0.1
    xi_coupling: float = 0.5
    velocity: float = 0.0
    pressure: float = 1.0


@dataclass(frozen=True)
class GridSpec:
    nx: int
    x_min: float = 0.0
    x_max: float = 1.0
    bc: str = "transmissive"
    ny: int | None = None
    y_min: float | None = None
    y_max: float | None = None
    bc_y: str = "transmissive"


@dataclass(frozen=True)
class BasisSpec:
    degree: int
    n_elements: int = 1
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


def _annotation(field) -> str:
    """A field's annotation (a string here) without its optional marker."""
    return field.type.removesuffix(" | None")


_TYPES = {"str": str, "float": float, "int": int, "bool": bool}
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES
# each RunConfig field names a section and the class that section builds
_SECTION_CLASSES = {f.name: globals()[_annotation(f)] for f in fields(RunConfig)}


class _Section:
    """One config section, typed by the fields of its class; unknown keys are errors."""

    def __init__(self, name: str, raw: dict):
        self.name = name
        self.cls = _SECTION_CLASSES[name]
        self.kinds = {f.name: _TYPES[_annotation(f)] for f in fields(self.cls)}
        unknown = set(raw) - set(self.kinds)
        if unknown:
            raise ConfigError(
                f"[{name}] has unknown key(s): {', '.join(sorted(unknown))}"
            )
        self.raw = raw

    def require(self, key):
        """The typed value of a key the section must have."""
        if key not in self.raw:
            raise ConfigError(f"[{self.name}] missing required key {key!r}")
        text = self.raw[key]
        try:
            if self.kinds[key] is bool:
                word = text.strip().lower()
                if word not in _BOOLEANS:
                    raise ValueError(f"not a boolean: {text!r}")
                return _BOOLEANS[word]
            return self.kinds[key](text)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key}: {exc}") from exc

    def build(self, **context_defaults):
        """The section's class. A key not given takes its context default if
        one is passed, else the class default; a key with neither is required."""
        values = dict(context_defaults)
        for f in fields(self.cls):
            if f.name in self.raw or (f.default is MISSING and f.name not in values):
                values[f.name] = self.require(f.name)
        return _built(self.name, self.cls, **values)


def _built(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError raised as the section's ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


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
        if name not in _SECTION_CLASSES:
            raise ConfigError(f"unknown section [{name}]")
        sections[name] = _Section(name, dict(parser.items(name)))

    def sect(name):
        return sections.get(name) or _Section(name, {})

    problem = _parse_problem(sect("problem"))
    grid = _parse_grid(sect("grid"), problem)
    method = _parse_method(sect("method"), problem)
    basis = _parse_basis(sect("basis"), method)
    output = _parse_output(sect("output"), problem)

    if method.name in _FILTERED:
        if "filter" not in sections:
            raise ConfigError(f"method {method.name} requires a [filter] section")
        filt = sections["filter"].build()
    else:
        if "filter" in sections:
            raise ConfigError(f"[filter] is only valid for methods {_FILTERED}")
        filt = None
    if "limiter" in sections and method.name not in _SG_METHODS:
        raise ConfigError("[limiter] is only valid for the stochastic Galerkin methods")
    limiter = sect("limiter").build()
    if "newton" in sections and method.name not in _IPM_METHODS:
        raise ConfigError("[newton] is only valid for the entropy-closure methods")
    newton = sect("newton").build()

    from .problems import make_basis, make_gas, make_grid  # problems imports this module

    _built("problem", make_gas, problem)
    _built("grid", make_grid, grid, problem)
    _built("basis", make_basis, basis)
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
    spec = s.build()
    if spec.preset not in PRESETS:
        raise ConfigError(f"unknown problem preset {spec.preset!r}; options: {PRESETS}")
    if spec.sigma < 0.0:
        raise ConfigError(f"[problem] sigma must be >= 0, got {spec.sigma}")
    # the initial states must be admissible at every x and xi in [-1, 1]
    if spec.preset == "custom_1d":
        lowest = spec.rho0 - abs(spec.amplitude) * (1.0 + abs(spec.xi_coupling))
        positive = {"rho0 - |amplitude| (1 + |xi_coupling|)": lowest, "pressure": spec.pressure}
    else:
        positive = {key: getattr(spec, key) for key in ("rho_l", "rho_r", "e_l", "e_r")}
    for name, value in positive.items():
        if not value > 0.0:
            raise ConfigError(f"[problem] {name} must be positive, got {value}")
    return spec


def _parse_grid(s: _Section, problem: ProblemSpec) -> GridSpec:
    two_d = problem.preset == "riemann_2d"
    grid = s.build(y_min=0.0, y_max=1.0) if two_d else s.build()
    if grid.bc == "dirichlet" and problem.preset == "custom_1d":
        raise ConfigError("[grid] dirichlet boundaries are not defined for custom_1d")
    if two_d and grid.ny is None:
        raise ConfigError("[grid] riemann_2d requires ny")
    if not two_d and {"ny", "y_min", "y_max", "bc_y"} & set(s.raw):
        raise ConfigError("[grid] y settings are only valid for riemann_2d")
    return grid


def _parse_basis(s: _Section, method: MethodSpec) -> BasisSpec:
    spec = s.build(degree=0) if method.name == "collocation" else s.build()
    if method.name in ("hsg", "fhsg", "ipm") and spec.n_elements != 1:
        raise ConfigError(
            f"method {method.name} is single-element; use me_{method.name} for {spec.n_elements} elements"
        )
    quadrature = _QUADRATURE_ALIASES.get(spec.quadrature, spec.quadrature)
    if spec.cc_level is not None and quadrature != "clenshaw-curtis":
        raise ConfigError("[basis] cc_level is only valid for clenshaw-curtis")
    if spec.quad_points is not None and quadrature != "gauss-legendre":
        raise ConfigError("[basis] quad_points is only valid for gauss-legendre")
    return replace(spec, quadrature=quadrature)


def _parse_method(s: _Section, problem: ProblemSpec) -> MethodSpec:
    spec = s.build(t_end=SOD_T_END if problem.preset == "sod_1d" else None)
    if spec.name not in METHODS:
        raise ConfigError(f"unknown method {spec.name!r}; options: {METHODS}")
    if spec.t_end is None:
        raise ConfigError("[method] t_end is required for this problem")
    if spec.t_end < 0.0:
        raise ConfigError(f"[method] t_end must be >= 0, got {spec.t_end}")
    if not 0.0 < spec.cfl <= 1.0:
        raise ConfigError(f"[method] cfl must lie in (0, 1], got {spec.cfl}")
    if spec.nodes < 1:
        raise ConfigError(f"[method] nodes must be >= 1, got {spec.nodes}")
    return spec


def _parse_output(s: _Section, problem: ProblemSpec) -> OutputSpec:
    spec = s.build()
    if spec.reference not in ("none", "exact_sod", "collocation"):
        raise ConfigError(f"[output] unknown reference {spec.reference!r}")
    if spec.reference == "exact_sod" and problem.preset != "sod_1d":
        raise ConfigError("[output] reference exact_sod requires the sod_1d preset")
    # errors are relative to the reference's variance, which vanishes when one
    # of these is 0 and the data carry no uncertainty
    spreads = ("amplitude", "xi_coupling") if problem.preset == "custom_1d" else ("sigma",)
    for key in spreads:
        if spec.reference != "none" and getattr(problem, key) == 0.0:
            raise ConfigError(f"[output] reference {spec.reference} needs uncertain data, got {key} = 0")
    if spec.reference_nodes < 1:
        raise ConfigError(f"[output] reference_nodes must be >= 1, got {spec.reference_nodes}")
    if spec.reference_subcells < 1:
        raise ConfigError(
            f"[output] reference_subcells must be >= 1, got {spec.reference_subcells}"
        )
    return spec
