import json

import numpy as np
import pytest

from ddrplate.errors import ConfigError, DegenerateRate, ParseError
from ddrplate.harness import (ConvergenceRecord, RunConfig, compute_rates,
                              format_csv, format_dat, mesh_sequence,
                              parse_dat, run_convergence, run_single)


def rec(h, err, dofs=10, t=0.0):
    return ConvergenceRecord(h, dofs, err, None, t)


def test_compute_rates_log_ratio():
    records = compute_rates([rec(0.2, 1e-2), rec(0.1, 2.5e-3)])
    assert records[0].rate is None
    assert records[1].rate == pytest.approx(2.0, abs=1e-12)


def test_compute_rates_flat_and_increasing():
    records = compute_rates([rec(0.2, 1e-2), rec(0.1, 1e-2)])
    assert records[1].rate == pytest.approx(0.0, abs=1e-12)
    records = compute_rates([rec(0.2, 1e-2), rec(0.1, 2e-2)])
    assert records[1].rate < 0.0          # round-off regime, not an error


def test_compute_rates_rejects_equal_h():
    with pytest.raises(DegenerateRate):
        compute_rates([rec(0.1, 1e-2), rec(0.1, 5e-3)])


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(degree=7)
    with pytest.raises(ConfigError):
        RunConfig(thickness=1.5)
    with pytest.raises(ConfigError):
        RunConfig(solution="nope")
    with pytest.raises(ConfigError):
        RunConfig(mesh_family="weird")
    with pytest.raises(ConfigError):
        RunConfig(refinements=0)
    with pytest.raises(ConfigError):
        RunConfig(fmt="yaml")


def test_run_convergence_needs_two_meshes():
    with pytest.raises(ConfigError):
        run_convergence(RunConfig(refinements=1))


def test_missing_mesh_dir(tmp_path):
    with pytest.raises(ParseError) as err:
        mesh_sequence(RunConfig(mesh_dir=str(tmp_path / "nowhere")))
    assert "nowhere" in str(err.value)


def test_mesh_families_resolve():
    for family, h0 in (("tri", np.sqrt(2) / 4), ("hexa", None), ("locref", None)):
        seq = mesh_sequence(RunConfig(mesh_family=family, refinements=2))
        assert len(seq) == 2
        assert seq[0][1].h > seq[1][1].h
        if h0 is not None:
            assert seq[0][1].h == pytest.approx(h0, rel=1e-12)
    with pytest.raises(ConfigError):
        mesh_sequence(RunConfig(mesh_family="hexa", refinements=9))


def test_run_single_coarse():
    res = run_single(RunConfig(refinements=1, degree=0, thickness=1e-1))
    assert np.isfinite(res.error)
    assert res.error < 1.0
    assert res.solver_residual <= 1e-10
    assert res.dofs > 0


def test_format_round_trip():
    records = compute_rates([rec(0.25, 2e-2, 11, 0.5), rec(0.125, 5e-3, 40, 1.0)])
    for text in (format_dat(records), format_csv(records)):
        back = parse_dat(text)
        assert len(back) == 2
        assert back[0].h == records[0].h
        assert back[0].rate is None
        assert back[1].error == records[1].error
        assert back[1].rate == records[1].rate
        assert back[1].dofs == records[1].dofs


def test_convergence_outputs_are_bitwise_reproducible(tmp_path):
    cfg = dict(mesh_family="tri", refinements=2, degree=0, thickness=0.1,
               solution="polynomial", fmt="both")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_convergence(RunConfig(out_dir=str(out1), **cfg))
    run_convergence(RunConfig(out_dir=str(out2), **cfg))
    for name in ("data_rates.dat", "data_rates.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "run_metadata.json").exists()


def test_metadata_records_the_solver_per_mesh(tmp_path):
    records = run_convergence(RunConfig(mesh_family="tri", refinements=2, degree=0,
                                        thickness=1e-3, out_dir=str(tmp_path)))
    meta = json.loads((tmp_path / "run_metadata.json").read_text())
    assert len(meta["solver"]) == len(meta["stages"]) == len(records)
    for n, rec, solver, stages in zip((4, 8), records, meta["solver"], meta["stages"]):
        assert set(solver) == {"n_free", "kff_nnz", "factor_nnz", "refinement_steps",
                               "residual", "backward_errors", "local_cond", "ordering"}
        assert solver["ordering"] == {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                                      "options": {"SymmetricMode": True}}
        assert set(stages) == {"discretization_s", "plate_system_s", "solve_s", "cells",
                               "edges", "dofs"}
        assert all(stages[s] > 0.0 for s in ("discretization_s", "plate_system_s", "solve_s"))
        assert stages["discretization_s"] + stages["plate_system_s"] + stages["solve_s"] \
            == pytest.approx(rec.time, rel=1e-12)
        assert (stages["cells"], stages["edges"]) == (2 * n * n, 3 * n * n + 2 * n)
        assert solver["n_free"] < stages["dofs"]
        assert solver["n_free"] == rec.dofs
        assert rec.dofs <= solver["kff_nnz"] <= solver["factor_nnz"]
        assert 0 <= solver["refinement_steps"] <= 8
        assert solver["residual"] <= 1e-10
        assert len(solver["backward_errors"]) == solver["refinement_steps"] + 1
        assert solver["backward_errors"][-1] == solver["residual"]
        assert 1.0 <= solver["local_cond"] < float("inf")


def test_convergence_from_mesh_dir(tmp_path):
    from ddrplate.mesh import save_mesh, triangular_mesh
    for i, n in enumerate((4, 8)):
        save_mesh(triangular_mesh(n), str(tmp_path / f"m{i}.json"))
    cfg = RunConfig(mesh_dir=str(tmp_path), refinements=2, degree=0,
                    thickness=0.1)
    records = run_convergence(cfg)
    assert len(records) == 2
    assert records[1].rate is not None and records[1].rate > 0.8


def test_polynomial_family_rates_match_orders():
    """Three triangular refinements: first order at k = 0, second at k = 1."""
    r0 = run_convergence(RunConfig(refinements=3, degree=0, thickness=0.1))
    assert r0[-1].rate >= 0.8
    r1 = run_convergence(RunConfig(refinements=3, degree=1, thickness=0.1))
    assert r1[-1].rate >= 1.7


def test_hexagonal_family_runs():
    records = run_convergence(RunConfig(mesh_family="hexa", refinements=2,
                                        degree=0, thickness=1e-3))
    assert records[0].h > records[1].h
    assert records[1].error < records[0].error
