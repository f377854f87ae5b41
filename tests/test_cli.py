import pytest

from ddrplate.cli import main
from ddrplate.harness import parse_dat
from ddrplate.mesh import save_mesh, triangular_mesh


def test_cli_single_run(tmp_path, capsys):
    code = main(["--mesh-family", "tri", "--refinements", "1", "--degree", "0",
                 "--thickness", "0.1", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "E_h" in out
    assert (tmp_path / "data_rates.dat").exists()


def test_cli_convergence_table(tmp_path, capsys):
    code = main(["--refinements", "2", "--degree", "0", "--out", str(tmp_path),
                 "--format", "csv"])
    assert code == 0
    assert not (tmp_path / "data_rates.dat").exists()
    records = parse_dat((tmp_path / "data_rates.csv").read_text())
    assert len(records) == 2
    assert records[1].rate is not None
    assert "MeshSize" in capsys.readouterr().out


def test_cli_typed_errors(tmp_path, capsys):
    code = main(["--degree", "9"])
    assert code == 1
    assert "ConfigError" in capsys.readouterr().err
    code = main(["--mesh-dir", str(tmp_path / "void"), "--refinements", "2"])
    assert code == 1
    assert "ParseError" in capsys.readouterr().err
    # a cell entry that is not a vertex index
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "m.json").write_text(
        '{"vertices": [[0, 0], [1, 0], [0, 1]], "cells": [[0, 1, "x"]]}')
    code = main(["--mesh-dir", str(bad), "--refinements", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "ParseError" in err and "Traceback" not in err
    # a directory holding fewer meshes than requested is refused, as the
    # bundled families are
    for i, n in enumerate((4, 8)):
        save_mesh(triangular_mesh(n), str(tmp_path / f"m{i}.json"))
    code = main(["--mesh-dir", str(tmp_path), "--refinements", "4"])
    assert code == 1
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--thickness", "2.0"],
    ["--refinements", "1", "--poisson", "0.6"],
    ["--refinements", "1", "--young", "-1"],
    ["--refinements", "1", "--kappa0", "0"],
    ["--refinements", "1", "--thickness", "1e-300"],
], ids=["thickness", "poisson", "young", "kappa0", "thickness_underflow"])
def test_cli_thickness_out_of_range(args, capsys):
    code = main(args)
    assert code == 1
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--refinements", "8"],
    ["--refinements", "40"],
    ["--refinements", "1", "--quad-boost", "17"],
], ids=["refinements", "refinements_huge", "quad_boost"])
def test_cli_oversized_run_is_a_config_error(args, capsys, monkeypatch):
    """Past the bounds the run stops with exit code 1 before any mesh is built."""
    def no_mesh(n):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr("ddrplate.harness.triangular_mesh", no_mesh)
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "ConfigError" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["--refinements", "1", "--young", "1e-200", "--kappa0", "1e-200"],
    ["--degree", "0", "--young", "1e-320"],
    ["--degree", "1", "--young", "1e-320"],
], ids=["kappa_underflow", "k0_subnormal", "k1_subnormal"])
def test_cli_material_below_the_normal_doubles_is_a_config_error(args, capsys):
    """Material data whose derived coefficients are not normal doubles: at
    kappa = 0 the manufactured solution divided by zero, at a subnormal E
    the k = 0 run printed an error of 1 and exited 0, and the k = 1 run
    warned before its SolverFailure. Each run now stops with one
    ConfigError line before any mesh is solved."""
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ConfigError:")
    assert "normal" in lines[0]
    assert "Traceback" not in captured.err and "Warning" not in captured.err


@pytest.mark.parametrize("refinements", ["1", "2"])
def test_cli_unwritable_output_path(tmp_path, capsys, refinements):
    """An output path below a regular file is a ConfigError naming the
    path, raised before any solve, not an OSError traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "sub"
    code = main(["--refinements", refinements, "--degree", "0", "--out", str(target)])
    assert code == 1
    captured = capsys.readouterr()
    assert "ConfigError" in captured.err and str(target) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("refinements, kappa0", [(1, "1e-160"), (1, "1e-300"), (2, "1e-290")])
def test_cli_large_displacements_have_a_finite_error(refinements, kappa0, capsys):
    """A tiny shear correction factor makes the exact displacement huge (up
    to about 1e154 at 1e-160, 1e294 at 1e-300), so its energy norm would
    overflow: the norms are taken on vectors scaled by a power of two, and
    the run prints the error of the unscaled problem on tri_n4, with no NaN
    and no overflow warning."""
    code = main(["--refinements", str(refinements), "--kappa0", kappa0])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "nan" not in captured.out and "inf" not in captured.out
    assert "3.606788e-01" in captured.out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["--degree", "0", "--young", "1e306"],
    ["--degree", "0", "--young", "1e300", "--thickness", "1e-5"],
    ["--degree", "2", "--young", "1e305"],
], ids=["row_sums", "shear_factor", "k2"])
def test_cli_overflowing_plate_matrix_is_a_solver_failure(args, capsys):
    """Material data near the top of the double range: at E = 1e306 every
    entry of K is finite but its row sums overflow, so ||K|| is infinite and
    the backward-error gate passed vacuously; with kappa/t^2 = inf, or at
    k = 2 and E = 1e305, K itself overflows, and numpy warned before SuperLU
    found it singular. Each run now stops with one SolverFailure line."""
    code = main(["--refinements", "1", *args])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("SolverFailure:")
    assert "overflows" in lines[0]
    assert "Traceback" not in captured.err and "Warning" not in captured.err
