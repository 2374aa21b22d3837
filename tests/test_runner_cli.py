import numpy as np
import pytest

from uqfv.cli import main
from uqfv.config import parse_config
from uqfv.euler import GasModel
from uqfv.fv import grid_1d
from uqfv.problems import make_initial
from uqfv.riemann import collocation_reference
from uqfv.runner import run
from uqfv.stats import relative_errors

SOD_SMALL = """
[problem]
preset = sod_1d
[grid]
nx = 60
[basis]
degree = 3
n_elements = 2
[method]
name = me_hsg
t_end = 0.05
[output]
reference = exact_sod
reference_nodes = 40
"""

CUSTOM_PERIODIC = """
[problem]
preset = custom_1d
[grid]
nx = 30
bc = periodic
[basis]
degree = 2
n_elements = 2
[method]
name = me_hsg
t_end = 0.02
"""


def test_run_me_hsg_with_exact_reference(tmp_path):
    cfg = parse_config(SOD_SMALL)
    report = run(cfg, output_dir=tmp_path)
    assert report.stats.steps > 0
    assert report.errors is not None
    assert 0.0 < report.errors["errE_rho"] < 0.5
    assert (tmp_path / "stats.csv").exists()
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "errors.csv").exists()
    text = (tmp_path / "report.txt").read_text()
    assert "method: me_hsg" in text
    assert "wall_s:" in text
    header = (tmp_path / "errors.csv").read_text().splitlines()[0]
    assert header == "method,K,N_Xi,cells,errE_rho,errVar_rho,wall_s,dual_solve_s"


def test_run_determinism_bit_identical_csv(tmp_path):
    cfg = parse_config(CUSTOM_PERIODIC)
    run(cfg, output_dir=tmp_path / "a")
    run(cfg, output_dir=tmp_path / "b")
    assert (tmp_path / "a" / "stats.csv").read_bytes() == (
        tmp_path / "b" / "stats.csv"
    ).read_bytes()


def test_run_with_collocation_reference(tmp_path):
    text = CUSTOM_PERIODIC + "[output]\nreference = collocation\nreference_nodes = 20\n"
    cfg = parse_config(text)
    report = run(cfg, output_dir=tmp_path)
    reference = collocation_reference(
        make_initial(cfg.problem), grid_1d(30, 0.0, 1.0, bc="periodic"), GasModel(1.4),
        0.02, n_nodes=20,
    )
    err_e, err_v = relative_errors(report.statistics, reference)
    row = (tmp_path / "errors.csv").read_text().splitlines()[1].split(",")
    assert row[:4] == ["me_hsg", "2", "2", "30"]
    assert [float(value) for value in row[4:6]] == [err_e[0], err_v[0]]


def test_run_sod_with_dirichlet_boundaries(tmp_path):
    # the waves stay clear of the walls up to t = 0.05, so the Sod states as
    # Dirichlet data give the transmissive run to round-off
    text = SOD_SMALL.replace("nx = 60", "nx = 60\nbc = dirichlet")
    dirichlet = run(parse_config(text), tmp_path / "d")
    transmissive = run(parse_config(SOD_SMALL), tmp_path / "t")
    assert [bc[0] for bc in dirichlet.statistics.grid.bcs[0]] == ["dirichlet", "dirichlet"]
    np.testing.assert_allclose(
        dirichlet.statistics.mean, transmissive.statistics.mean, rtol=0.0, atol=1e-12
    )
    np.testing.assert_allclose(
        dirichlet.statistics.variance, transmissive.statistics.variance, rtol=0.0, atol=1e-12
    )


def test_run_ipm_method_writes_dual_stats(tmp_path):
    text = SOD_SMALL.replace("name = me_hsg", "name = me_ipm").replace(
        "[output]", "[newton]\ntol = 1e-7\n[output]"
    )
    cfg = parse_config(text)
    report = run(cfg, output_dir=tmp_path)
    assert report.stats.newton_iterations > 0
    assert report.stats.newton_max_residual <= 1e-7
    assert report.stats.dual_solve_s > 0.0
    assert "newton_iterations:" in (tmp_path / "report.txt").read_text()


def test_run_collocation_method(tmp_path):
    text = """
[problem]
preset = sod_1d
[grid]
nx = 40
[method]
name = collocation
t_end = 0.05
nodes = 12
[output]
reference = exact_sod
reference_nodes = 30
"""
    cfg = parse_config(text)
    report = run(cfg, output_dir=tmp_path)
    assert report.errors["errE_rho"] < 0.2
    data = np.genfromtxt(tmp_path / "stats.csv", delimiter=",", skip_header=1)
    assert data.shape == (40, 7)
    # the steps of the node solve that took the most, as the report states
    assert report.stats.steps > 0
    assert f"\nsteps: {report.stats.steps}\n" in (tmp_path / "report.txt").read_text()


def test_run_riemann_2d_small(tmp_path):
    text = """
[problem]
preset = riemann_2d
[grid]
nx = 24
ny = 4
[basis]
degree = 2
n_elements = 2
[method]
name = me_hsg
t_end = 0.02
"""
    cfg = parse_config(text)
    report = run(cfg, output_dir=tmp_path)
    assert report.statistics.mean.shape == (24, 4, 4)
    # x-Riemann data stays y-uniform with zero transverse momentum
    np.testing.assert_allclose(report.statistics.mean[..., 2], 0.0, atol=1e-12)
    for j in range(1, 4):
        np.testing.assert_allclose(
            report.statistics.mean[:, j], report.statistics.mean[:, 0], atol=1e-12
        )
    data = np.genfromtxt(tmp_path / "stats.csv", delimiter=",", skip_header=1)
    assert data.shape == (24 * 4, 10)


def test_run_me_ipm_threads_bit_identical(tmp_path, monkeypatch):
    # 60 dual problems in 4 chunks, solved on 1 and on 4 workers, as the
    # count of usable CPUs decides
    import uqfv.ipm as ipm_mod

    monkeypatch.setattr(ipm_mod, "_CHUNK", 16)
    text = CUSTOM_PERIODIC.replace("name = me_hsg", "name = me_ipm")
    cfg = parse_config(text)
    for cpus in (1, 4):
        monkeypatch.setattr(ipm_mod, "_usable_cpus", lambda cpus=cpus: cpus)
        run(cfg, output_dir=tmp_path / f"cpus{cpus}")
    assert (tmp_path / "cpus1" / "stats.csv").read_bytes() == (
        tmp_path / "cpus4" / "stats.csv"
    ).read_bytes()


def test_cli_run_success(tmp_path, capsys):
    config_path = tmp_path / "run.ini"
    config_path.write_text(CUSTOM_PERIODIC)
    code = main(["run", "--config", str(config_path), "--output", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "method: me_hsg" in out
    assert (tmp_path / "out" / "stats.csv").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    config_path = tmp_path / "bad.ini"
    config_path.write_text(SOD_SMALL + "\n[limiter]\ntypo_key = 1\n")
    code = main(["run", "--config", str(config_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            SOD_SMALL.replace("nx = 60", "nx = 60\nx_min = 1\nx_max = 0"),
            "[grid] x_min must be less than x_max, got (1.0, 0.0)",
        ),
        (
            SOD_SMALL.replace("me_hsg", "me_ipm") + "[newton]\nmax_halvings = -3\n",
            "[newton] newton max_halvings must be >= 0, got -3",
        ),
        (
            SOD_SMALL.replace("sod_1d", "sod_1d\nrho_l = -1.0").replace("me_hsg", "me_ipm"),
            "[problem] rho_l must be positive, got -1.0",
        ),
        (
            CUSTOM_PERIODIC.replace("custom_1d", "custom_1d\nrho0 = 0.05"),
            "[problem] rho0 - |amplitude| (1 + |xi_coupling|) must be positive, got -0.1",
        ),
        (
            SOD_SMALL.replace("sod_1d", "sod_1d\nsigma = 0"),
            "[output] reference exact_sod needs uncertain data, got sigma = 0",
        ),
        (
            CUSTOM_PERIODIC.replace("custom_1d", "custom_1d\namplitude = 0.0")
            + "[output]\nreference = collocation\n",
            "[output] reference collocation needs uncertain data, got amplitude = 0",
        ),
        (
            CUSTOM_PERIODIC.replace("custom_1d", "custom_1d\nxi_coupling = 0")
            + "[output]\nreference = collocation\n",
            "[output] reference collocation needs uncertain data, got xi_coupling = 0",
        ),
    ],
    ids=[
        "empty-extent", "negative-halvings", "negative-density", "custom-density-dip",
        "certain-sod-reference", "certain-custom-amplitude", "certain-custom-coupling",
    ],
)
def test_cli_rejects_before_running(tmp_path, capsys, text, message):
    # the parser refuses these, so the CLI exits 2 and creates no output
    config_path = tmp_path / "bad.ini"
    config_path.write_text(text)
    code = main(["run", "--config", str(config_path), "--output", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_quadrature_too_small_for_degree(tmp_path, capsys):
    # 3 Gauss nodes cannot make a degree-4 basis orthonormal; the parser
    # builds the basis, so the CLI exits 2 and creates no output
    config_path = tmp_path / "run.ini"
    config_path.write_text(SOD_SMALL.replace("degree = 3", "degree = 4\nquad_points = 3"))
    code = main(["run", "--config", str(config_path), "--output", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: [basis] degree 4 basis is not discretely orthonormal" in err
    assert "gauss-legendre rule with 3 nodes" in err
    assert not (tmp_path / "out").exists()


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    # a valid config whose run fails: one Newton iteration cannot reach the tolerance
    config_path = tmp_path / "run.ini"
    config_path.write_text(SOD_SMALL.replace("me_hsg", "me_ipm") + "[newton]\nmax_iter = 1\n")
    code = main(["run", "--config", str(config_path), "--output", str(tmp_path / "out")])
    assert code == 1
    assert "error: step 0: dual solve at (cells..., element)" in capsys.readouterr().err


def test_cli_missing_config_exit_code(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.ini")])
    assert code == 2


def test_cli_has_no_threads_option(tmp_path, capsys):
    config_path = tmp_path / "run.ini"
    config_path.write_text(CUSTOM_PERIODIC)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config_path), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_cli_batch_combined_errors(tmp_path, capsys):
    a = tmp_path / "a.ini"
    a.write_text(SOD_SMALL)
    b = tmp_path / "b.ini"
    b.write_text(SOD_SMALL.replace("degree = 3", "degree = 4"))
    out = tmp_path / "batch"
    code = main(["batch", "--configs", str(a), str(b), "--output", str(out)])
    assert code == 0
    assert "batch: 2 run(s)" in capsys.readouterr().out
    assert (out / "00_a" / "stats.csv").exists()
    assert (out / "01_b" / "stats.csv").exists()
    lines = (out / "errors.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("me_hsg,3,2,60,")
    assert lines[2].startswith("me_hsg,4,2,60,")
