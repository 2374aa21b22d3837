import numpy as np
import pytest

from uqfv.basis import build_basis, build_partition
from uqfv.config import (
    SOD_T_END,
    BasisSpec,
    ConfigError,
    GridSpec,
    MethodSpec,
    OutputSpec,
    ProblemSpec,
    RunConfig,
    parse_config,
)
from uqfv.fv import grid_1d
from uqfv.ipm import NewtonConfig
from uqfv.problems import make_initial, project_initial_data
from uqfv.sg import LimiterConfig

MINIMAL_SOD = """
[problem]
preset = sod_1d
[grid]
nx = 50
[basis]
degree = 4
n_elements = 3
[method]
name = me_hsg
"""


def test_sod_preset_table_values():
    cfg = parse_config(MINIMAL_SOD)
    assert cfg.problem.gamma == 1.4
    assert cfg.problem.x0 == 0.5
    assert cfg.problem.sigma == 0.05
    assert cfg.problem.rho_l == 1.0
    assert cfg.problem.e_l == 2.5
    assert cfg.problem.rho_r == 0.125
    assert cfg.problem.e_r == 0.25
    assert cfg.method.t_end == 0.14
    assert cfg.grid.x_min == 0.0 and cfg.grid.x_max == 1.0
    assert cfg.method.cfl == 0.9
    assert cfg.limiter.epsilon == 1e-10 and cfg.limiter.enabled
    assert cfg.newton.tol == 1e-7
    assert cfg.filter is None


def test_sections_default_to_their_class_defaults():
    # every key MINIMAL_SOD leaves out takes its class's default
    assert parse_config(MINIMAL_SOD) == RunConfig(
        ProblemSpec("sod_1d"),
        GridSpec(50),
        BasisSpec(4, n_elements=3),
        MethodSpec("me_hsg", SOD_T_END),
        None,
        LimiterConfig(),
        NewtonConfig(),
        OutputSpec(),
    )


def test_value_errors_carry_one_section_prefix():
    text = MINIMAL_SOD + "\n[limiter]\nepsilon = abc\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == "[limiter] epsilon: could not convert string to float: 'abc'"
    text = MINIMAL_SOD + "\n[limiter]\nenabled = maybe\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == "[limiter] enabled: not a boolean: 'maybe'"


def test_newton_limits_rejected():
    ipm = MINIMAL_SOD.replace("me_hsg", "me_ipm")
    for line, message in [
        ("max_iter = 0", "[newton] newton max_iter must be >= 1, got 0"),
        ("max_halvings = -3", "[newton] newton max_halvings must be >= 0, got -3"),
    ]:
        with pytest.raises(ConfigError) as info:
            parse_config(ipm + f"\n[newton]\n{line}\n")
        assert str(info.value) == message
    cfg = parse_config(ipm + "\n[newton]\nmax_iter = 1\nmax_halvings = 0\n")
    assert cfg.newton == NewtonConfig(max_iter=1, max_halvings=0)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL_SOD + "\n[limiter]\nepsilonn = 1e-10\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL_SOD.replace("name = me_hsg", "name = me_hsg\nseed = 3"))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL_SOD + "\n[plotting]\nstyle = fancy\n")


def test_missing_filter_for_filtered_method():
    text = MINIMAL_SOD.replace("me_hsg", "me_fhsg")
    with pytest.raises(ConfigError, match="filter"):
        parse_config(text)


def test_filter_rejected_for_plain_method():
    text = MINIMAL_SOD + "\n[filter]\nkind = exponential\nstrength = 2\norder = 10\n"
    with pytest.raises(ConfigError, match="filter"):
        parse_config(text)


def test_cfl_out_of_range():
    text = MINIMAL_SOD + "\n"
    text = text.replace("name = me_hsg", "name = me_hsg\ncfl = 1.5")
    with pytest.raises(ConfigError, match="cfl"):
        parse_config(text)


def test_single_element_method_requires_one_element():
    text = MINIMAL_SOD.replace("name = me_hsg", "name = hsg")
    with pytest.raises(ConfigError, match="single-element"):
        parse_config(text)


def test_newton_section_only_for_ipm():
    text = MINIMAL_SOD + "\n[newton]\ntol = 1e-9\n"
    with pytest.raises(ConfigError, match="newton"):
        parse_config(text)


def test_t_end_required_for_custom():
    text = """
[problem]
preset = custom_1d
[grid]
nx = 20
[basis]
degree = 2
[method]
name = me_hsg
"""
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(text)


def test_exact_sod_reference_requires_sod_preset():
    text = """
[problem]
preset = custom_1d
[grid]
nx = 20
[basis]
degree = 2
[method]
name = me_hsg
t_end = 0.1
[output]
reference = exact_sod
"""
    with pytest.raises(ConfigError, match="exact_sod"):
        parse_config(text)


def test_dirichlet_rejected_for_custom():
    # custom_1d defines no boundary states; the parser rejects it before a run
    text = """
[problem]
preset = custom_1d
[grid]
nx = 20
bc = dirichlet
[basis]
degree = 2
[method]
name = me_hsg
t_end = 0.1
"""
    with pytest.raises(ConfigError, match="dirichlet boundaries are not defined for custom_1d"):
        parse_config(text)


def test_quadrature_key_mismatch():
    text = MINIMAL_SOD.replace("degree = 4", "degree = 4\ncc_level = 3")
    with pytest.raises(ConfigError, match="cc_level"):
        parse_config(text)
    text = MINIMAL_SOD.replace(
        "degree = 4", "degree = 4\nquadrature = clenshaw-curtis\nquad_points = 9"
    )
    with pytest.raises(ConfigError, match="quad_points"):
        parse_config(text)


def test_clenshaw_curtis_config_accepted():
    text = MINIMAL_SOD.replace(
        "degree = 4", "degree = 4\nquadrature = clenshaw-curtis\ncc_level = 3"
    )
    cfg = parse_config(text)
    assert cfg.basis.quadrature == "clenshaw-curtis"
    assert cfg.basis.cc_level == 3


def test_y_settings_rejected_for_1d():
    for line in ("ny = 10", "bc_y = periodic"):
        text = MINIMAL_SOD.replace("nx = 50", f"nx = 50\n{line}")
        with pytest.raises(ConfigError, match="riemann_2d"):
            parse_config(text)


def test_empty_extents_rejected():
    for lo, hi in [("1", "0"), ("0.5", "0.5")]:
        text = MINIMAL_SOD.replace("nx = 50", f"nx = 50\nx_min = {lo}\nx_max = {hi}")
        with pytest.raises(ConfigError, match=r"x_min must be less than x_max"):
            parse_config(text)
    text = """
[problem]
preset = riemann_2d
[grid]
nx = 8
ny = 8
y_min = 2
[basis]
degree = 2
[method]
name = hsg
t_end = 0.1
"""
    with pytest.raises(ConfigError, match=r"y_min must be less than y_max, got \(2.0, 1.0\)"):
        parse_config(text)


@pytest.mark.parametrize(
    "preset, line, message",
    [
        ("sod_1d", "rho_l = -1.0", "rho_l must be positive, got -1.0"),
        ("sod_1d", "rho_r = 0", "rho_r must be positive, got 0.0"),
        ("sod_1d", "e_l = nan", "e_l must be positive, got nan"),
        ("riemann_2d", "e_r = -0.25", "e_r must be positive, got -0.25"),
        ("custom_1d", "pressure = 0", "pressure must be positive, got 0.0"),
        # rho0 - |amplitude| (1 + |xi_coupling|) = 0.05 - 0.1 * 1.5
        ("custom_1d", "rho0 = 0.05", r"\(1 \+ \|xi_coupling\|\) must be positive, got -0.1"),
        ("custom_1d", "amplitude = -0.8", r"\(1 \+ \|xi_coupling\|\) must be positive, got -0.2"),
        ("custom_1d", "xi_coupling = -9", r"\(1 \+ \|xi_coupling\|\) must be positive, got 0.0"),
    ],
)
def test_inadmissible_problem_data_rejected(preset, line, message):
    # every initial state, at every x and xi in [-1, 1], must be admissible
    text = MINIMAL_SOD.replace("sod_1d", f"{preset}\n{line}")
    text = text.replace("nx = 50", "nx = 50\nny = 4" if preset == "riemann_2d" else "nx = 50")
    text += "" if preset == "sod_1d" else "t_end = 0.1\n"
    with pytest.raises(ConfigError, match=r"^\[problem\] .*" + message):
        parse_config(text)


RIEMANN_2D = """
[problem]
preset = riemann_2d
[grid]
nx = 8
ny = 8
[basis]
degree = 2
[method]
name = hsg
t_end = 0.1
"""
ME_IPM = MINIMAL_SOD.replace("me_hsg", "me_ipm")


@pytest.mark.parametrize(
    "text, message",
    [
        # checks the parser makes itself
        (
            "[problem\npreset = sod_1d\n",
            "config parse error: File contains no section headers.\n"
            "file: '<string>', line: 1\n'[problem\\n'",
        ),
        (MINIMAL_SOD.replace("preset = sod_1d", ""), "[problem] missing required key 'preset'"),
        (
            ME_IPM + "[limiter]\nenabled = false\n",
            "[limiter] is only valid for the stochastic Galerkin methods",
        ),
        (
            MINIMAL_SOD.replace("sod_1d", "sod_3d"),
            "unknown problem preset 'sod_3d'; options: ('sod_1d', 'custom_1d', 'riemann_2d')",
        ),
        (
            MINIMAL_SOD.replace("sod_1d", "sod_1d\nsigma = -0.1"),
            "[problem] sigma must be >= 0, got -0.1",
        ),
        (
            MINIMAL_SOD.replace("me_hsg", "me_foo"),
            "unknown method 'me_foo'; options: "
            "('hsg', 'fhsg', 'ipm', 'me_hsg', 'me_fhsg', 'me_ipm', 'collocation')",
        ),
        (MINIMAL_SOD.replace("me_hsg", "me_hsg\nnodes = 0"), "[method] nodes must be >= 1, got 0"),
        (MINIMAL_SOD + "[output]\nreference = foo\n", "[output] unknown reference 'foo'"),
        (
            MINIMAL_SOD + "[output]\nreference_nodes = 0\n",
            "[output] reference_nodes must be >= 1, got 0",
        ),
        (
            MINIMAL_SOD + "[output]\nreference_subcells = 0\n",
            "[output] reference_subcells must be >= 1, got 0",
        ),
        (ME_IPM + "[newton]\ntol = 0\n", "[newton] newton tolerance must be positive, got 0.0"),
        (RIEMANN_2D.replace("ny = 8\n", ""), "[grid] riemann_2d requires ny"),
        # checks the parser leaves to the objects it builds
        (
            MINIMAL_SOD.replace("sod_1d", "sod_1d\ngamma = 1"),
            "[problem] gamma must exceed 1, got 1.0",
        ),
        (MINIMAL_SOD.replace("nx = 50", "nx = 0"), "[grid] nx must be positive, got 0"),
        (RIEMANN_2D.replace("ny = 8", "ny = 0"), "[grid] ny must be positive, got 0"),
        (
            MINIMAL_SOD.replace("nx = 50", "nx = 50\nbc = foo"),
            "[grid] unknown boundary condition: 'foo'",
        ),
        (
            RIEMANN_2D.replace("ny = 8", "ny = 8\nbc_y = dirichlet"),
            "[grid] unknown boundary condition: 'dirichlet'",
        ),
        (MINIMAL_SOD.replace("degree = 4", "degree = -1"), "[basis] degree must be >= 0, got -1"),
        (
            MINIMAL_SOD.replace("n_elements = 3", "n_elements = 0"),
            "[basis] n_elements must be >= 1, got 0",
        ),
        (
            MINIMAL_SOD.replace("degree = 4", "degree = 4\nquad_points = 0"),
            "[basis] gauss rule needs at least one node, got 0",
        ),
        (
            MINIMAL_SOD.replace("degree = 4", "degree = 4\nquadrature = cc\ncc_level = -1"),
            "[basis] clenshaw-curtis level must be >= 0, got -1",
        ),
        (
            MINIMAL_SOD.replace("degree = 4", "degree = 4\nquadrature = foo"),
            "[basis] unknown quadrature kind: 'foo'",
        ),
    ],
    ids=[
        "unparsable", "missing-key", "limiter-with-ipm", "unknown-preset", "negative-sigma",
        "unknown-method", "no-nodes", "unknown-reference", "no-reference-nodes",
        "no-reference-subcells", "newton-tol", "riemann-2d-without-ny",
        "gamma", "nx", "ny", "bc", "bc-y", "degree", "n-elements", "quad-points", "cc-level",
        "quadrature",
    ],
)
def test_rejections(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_make_initial_rejects_unknown_preset():
    with pytest.raises(ValueError, match=r"^unknown preset 'sod_3d'$"):
        make_initial(ProblemSpec("sod_3d"))


def test_custom_density_bump_just_positive_accepted():
    # the lowest density 1 - 0.6 (1 + 0.5) = 0.1 keeps the data admissible
    text = MINIMAL_SOD.replace("sod_1d", "custom_1d\namplitude = -0.6") + "t_end = 0.1\n"
    problem = parse_config(text).problem
    grid = grid_1d(50, 0.0, 1.0)
    basis = build_basis(build_partition(-1.0, 1.0, 3), 4)
    field = project_initial_data(make_initial(problem), grid, basis)
    assert np.all(field.coeffs[..., 0, 0] > 0.0)


def test_negative_t_end_rejected():
    text = MINIMAL_SOD.replace("name = me_hsg", "name = me_hsg\nt_end = -1.0")
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(text)


def test_missing_file_errors():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/definitely/not/here.ini")


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL_SOD)
    cfg = parse_config(path)
    assert cfg.method.name == "me_hsg"
    assert cfg.grid.nx == 50


SOD_L = np.array([1.0, 0.0, 2.5])
SOD_R = np.array([0.125, 0.0, 0.25])


def test_project_initial_data_sod_cells():
    cfg = parse_config(MINIMAL_SOD)
    initial = make_initial(cfg.problem)
    basis = build_basis(build_partition(-1, 1, 3), 4)
    grid = grid_1d(50, 0.0, 1.0)
    field = project_initial_data(initial, grid, basis)
    x = grid.cell_centers(0)
    fully_left = x < 0.45
    fully_right = x > 0.55
    for i in np.flatnonzero(fully_left):
        np.testing.assert_allclose(field.coeffs[i, :, 0, :], np.tile(SOD_L, (3, 1)), atol=1e-14)
        np.testing.assert_allclose(field.coeffs[i, :, 1:, :], 0.0, atol=1e-14)
    for i in np.flatnonzero(fully_right):
        np.testing.assert_allclose(field.coeffs[i, :, 0, :], np.tile(SOD_R, (3, 1)), atol=1e-14)
    # a cell straddling x0 sees both states across the random interface
    mid = np.argmin(np.abs(x - 0.5))
    mean_rho = field.coeffs[mid, :, 0, 0] @ basis.element_weights
    assert 0.125 < mean_rho < 1.0


def test_filter_kind_defaults_to_exponential():
    text = MINIMAL_SOD.replace("me_hsg", "me_fhsg") + "\n[filter]\nstrength = 2.0\norder = 10\n"
    cfg = parse_config(text)
    assert cfg.filter.kind == "exponential"
    assert cfg.filter.strength == 2.0
    assert cfg.filter.dt_scaled is True
