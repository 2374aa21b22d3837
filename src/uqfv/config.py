"""Run configuration: flat INI-style files with strict validation.

Sections: [problem], [grid], [basis], [method], [filter], [limiter],
[newton], [output]. Each section builds one class, whose fields are the
section's keys, types and defaults, and which checks its own values.
``METHODS`` says which solver each method runs, whether it filters and
whether it is single-element. ``READERS`` says which runs read each section
and key: setting one the run does not read is an error, as is an unknown
section or key. ``parse_config`` adds the rules that join two sections, and
checks the values the gas, the grid and the basis check by building those
objects, as the runner does.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import NamedTuple

from .ipm import NewtonConfig
from .problems import make_basis, make_gas, make_grid
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


class Method(NamedTuple):
    solver: str  # "sg", "ipm" or "collocation"
    filtered: bool = False
    single_element: bool = False


METHODS = {
    "hsg": Method("sg", single_element=True),
    "fhsg": Method("sg", filtered=True, single_element=True),
    "ipm": Method("ipm", single_element=True),
    "me_hsg": Method("sg"),
    "me_fhsg": Method("sg", filtered=True),
    "me_ipm": Method("ipm"),
    "collocation": Method("collocation"),
}
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
    rho0 to pressure describe the custom_1d density bump. The initial states
    must be admissible at every x and xi in [-1, 1]."""

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

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown problem preset {self.preset!r}; options: {PRESETS}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.preset == "custom_1d":
            lowest = self.rho0 - abs(self.amplitude) * (1.0 + abs(self.xi_coupling))
            positive = {"rho0 - |amplitude| (1 + |xi_coupling|)": lowest, "pressure": self.pressure}
        else:
            positive = {key: getattr(self, key) for key in ("rho_l", "rho_r", "e_l", "e_r")}
        for name, value in positive.items():
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")


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

    def __post_init__(self):
        quadrature = _QUADRATURE_ALIASES.get(self.quadrature, self.quadrature)
        object.__setattr__(self, "quadrature", quadrature)


@dataclass(frozen=True)
class MethodSpec:
    name: str
    t_end: float
    cfl: float = 0.9
    nodes: int = 100

    def __post_init__(self):
        if self.name not in METHODS:
            raise ValueError(f"unknown method {self.name!r}; options: {tuple(METHODS)}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")

    @property
    def traits(self) -> Method:
        return METHODS[self.name]


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    stats_csv: str = "stats.csv"
    report: str = "report.txt"
    errors_csv: str = "errors.csv"
    reference: str = "none"
    reference_nodes: int = 100
    reference_subcells: int = 5

    def __post_init__(self):
        if self.reference not in ("none", "exact_sod", "collocation"):
            raise ValueError(f"unknown reference {self.reference!r}")
        for key in ("reference_nodes", "reference_subcells"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")


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


# (section, keys): the runs that read the space-separated keys ("" for the
# whole section), and the test of a RunConfig that tells whether it is one.
READERS = {
    ("filter", ""): ("the filtered methods", lambda c: c.method.traits.filtered),
    ("limiter", ""): ("the stochastic Galerkin methods", lambda c: c.method.traits.solver == "sg"),
    ("newton", ""): ("the entropy-closure methods", lambda c: c.method.traits.solver == "ipm"),
    ("basis", ""): ("every method except collocation", lambda c: c.method.name != "collocation"),
    ("method", "nodes"): ("collocation", lambda c: c.method.name == "collocation"),
    ("grid", "ny y_min y_max bc_y"): ("riemann_2d", lambda c: c.problem.preset == "riemann_2d"),
    ("problem", "x0 sigma rho_l e_l rho_r e_r"):
        ("sod_1d and riemann_2d", lambda c: c.problem.preset != "custom_1d"),
    ("problem", "rho0 amplitude xi_coupling velocity pressure"):
        ("custom_1d", lambda c: c.problem.preset == "custom_1d"),
    ("basis", "cc_level"): ("clenshaw-curtis", lambda c: c.basis.quadrature == "clenshaw-curtis"),
    ("basis", "quad_points"): ("gauss-legendre", lambda c: c.basis.quadrature == "gauss-legendre"),
    ("filter", "order dt_scaled"): ("the exponential filter", lambda c: c.filter.kind == "exponential"),
    ("output", "reference_nodes errors_csv"):
        ("a run with a reference", lambda c: c.output.reference != "none"),
    ("output", "reference_subcells"): ("exact_sod", lambda c: c.output.reference == "exact_sod"),
}

_TYPES = {"str": str, "float": float, "int": int, "bool": bool}
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES
# each RunConfig field names a section and the class that section builds (its
# annotation, a string here, without the optional marker)
_SECTION_CLASSES = {f.name: globals()[f.type.removesuffix(" | None")] for f in fields(RunConfig)}


def _build(name: str, raw: dict, **context_defaults):
    """Section ``name``'s class from its raw keys; unknown keys are errors. A
    key not given takes its context default if one is passed, else the class
    default; a key with neither is required."""
    cls = _SECTION_CLASSES[name]
    kinds = {f.name: _TYPES[f.type.removesuffix(" | None")] for f in fields(cls)}
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ConfigError(f"[{name}] has unknown key(s): {', '.join(sorted(unknown))}")
    values = dict(context_defaults)
    for f in fields(cls):
        if f.name in raw:
            values[f.name] = _typed(name, f.name, raw[f.name], kinds[f.name])
        elif f.default is MISSING and f.name not in values:
            raise ConfigError(f"[{name}] missing required key {f.name!r}")
    return _built(name, cls, **values)


def _typed(section: str, key: str, text: str, kind: type):
    """A key's text as a value of its field's type."""
    try:
        if kind is bool:
            word = text.strip().lower()
            if word not in _BOOLEANS:
                raise ValueError(f"not a boolean: {text!r}")
            return _BOOLEANS[word]
        value = kind(text)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        return value
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _built(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError raised as the section's ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def parse_config(source) -> RunConfig:
    """Parse and validate a configuration from a path or literal text."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
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
        sections[name] = dict(parser.items(name))

    def build(name, **context_defaults):
        return _build(name, sections.get(name, {}), **context_defaults)

    problem = build("problem")
    preset = problem.preset
    method = build("method", **({"t_end": SOD_T_END} if preset == "sod_1d" else {}))
    config = RunConfig(
        problem=problem,
        grid=build("grid", **({"y_min": 0.0, "y_max": 1.0} if preset == "riemann_2d" else {})),
        basis=build("basis", **({"degree": 0} if method.name == "collocation" else {})),
        method=method,
        filter=build("filter") if "filter" in sections else None,
        limiter=build("limiter"),
        newton=build("newton"),
        output=build("output"),
    )
    for (name, keys), (runs, reads) in READERS.items():
        if name in sections and not reads(config):
            given = [key for key in keys.split() if key in sections[name]]
            if given or not keys:
                raise ConfigError(" ".join([f"[{name}]", *given[:1], "is only read by", runs]))

    # the rules that join two sections
    traits = method.traits
    if traits.filtered and config.filter is None:
        raise ConfigError(f"method {method.name} requires a [filter] section")
    if traits.filtered and not config.filter.strength > 0.0:
        strength = config.filter.strength
        raise ConfigError(f"[filter] strength must be > 0 for the filtered methods, got {strength}")
    if traits.single_element and config.basis.n_elements != 1:
        raise ConfigError(f"method {method.name} is single-element; use me_{method.name} "
                          f"for {config.basis.n_elements} elements")
    if preset == "riemann_2d" and config.grid.ny is None:
        raise ConfigError("[grid] riemann_2d requires ny")
    if preset == "custom_1d" and config.grid.bc == "dirichlet":
        raise ConfigError("[grid] dirichlet boundaries are not defined for custom_1d")
    reference = config.output.reference
    if reference == "exact_sod" and preset != "sod_1d":
        raise ConfigError("[output] reference exact_sod requires the sod_1d preset")
    # errors are relative to the reference's variance, which vanishes when one
    # of these is 0 and the data carry no uncertainty
    spreads = ("amplitude", "xi_coupling") if preset == "custom_1d" else ("sigma",)
    for key in spreads:
        if reference != "none" and getattr(problem, key) == 0.0:
            raise ConfigError(f"[output] reference {reference} needs uncertain data, got {key} = 0")

    _built("problem", make_gas, problem)
    _built("grid", make_grid, config.grid, problem)
    _built("basis", make_basis, config.basis)
    return config
