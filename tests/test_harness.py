import json
from types import SimpleNamespace

import numpy as np
import pytest

import ddrplate.harness as harness
from ddrplate.errors import ConfigError, DegenerateRate, ParseError
from ddrplate.harness import (ConvergenceRecord, RunConfig, compute_rates,
                              format_csv, format_dat, mesh_sequence,
                              parse_dat, run_convergence, run_single,
                              write_outputs)
from ddrplate.mesh import triangular_mesh
from ddrplate.spaces import Discretization
from ddrplate.system import PlateSystem


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


def test_config_bounds_the_generated_meshes_and_the_quadrature_boost(monkeypatch):
    """The tri family stops at 7 refinements (finest mesh tri_n256) and the
    boost at 16; one past either bound is refused before any mesh is built.
    Bundled families and mesh directories are bounded by their files."""
    def no_mesh(n):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr("ddrplate.harness.triangular_mesh", no_mesh)
    RunConfig(refinements=7)
    RunConfig(quad_boost=16)
    RunConfig(mesh_family="hexa", refinements=8)
    RunConfig(mesh_dir="meshes", refinements=8)
    for bad in (dict(refinements=8), dict(refinements=40), dict(quad_boost=17),
                dict(quad_boost=-1)):
        with pytest.raises(ConfigError):
            RunConfig(**bad)


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
    # the nested-dissection ordering per mesh: tree depth, the DOFs of the
    # top separator and the number of tree nodes, the Cholesky's supernodes
    orderings = ((1, 25, 3), (3, 53, 15))
    for n, rec, solver, stages, (depth, top, supernodes) in zip(
            (4, 8), records, meta["solver"], meta["stages"], orderings):
        assert set(solver) == {"n_free", "n_factored", "kff_nnz", "factor_nnz",
                               "refinement_steps", "residual", "backward_errors",
                               "local_cond", "condense_s", "factor_s", "ordering"}
        assert solver["ordering"] == {"method": "nested dissection", "depth": depth,
                                      "top_separator": top, "supernodes": supernodes}
        assert set(stages) == {"discretization_s", "plate_system_s", "solve_s", "local_s",
                               "ordering_s", "analysis_s", "cells", "edges", "dofs",
                               "peak_rss_mb", "discretization_mb", "plate_system_mb"}
        assert all(stages[s] > 0.0 for s in ("discretization_s", "plate_system_s", "solve_s"))
        # PlateSystem's own stages: the local tables and cell blocks, the
        # ordering, and the analysis of the factorization
        own = [stages[s] for s in ("local_s", "ordering_s", "analysis_s")]
        assert min(own) >= 0.0 and sum(own) <= stages["plate_system_s"]
        assert stages["discretization_s"] + stages["plate_system_s"] + stages["solve_s"] \
            == pytest.approx(rec.time, rel=1e-12)
        assert (stages["cells"], stages["edges"]) == (2 * n * n, 3 * n * n + 2 * n)
        assert solver["n_free"] < stages["dofs"]
        assert solver["n_free"] == rec.dofs
        assert solver["n_factored"] == solver["n_free"]      # k = 0: no interior DOFs
        # L holds at least the lower triangle of the factored matrix
        assert rec.dofs <= solver["kff_nnz"]
        assert (solver["kff_nnz"] + solver["n_factored"]) // 2 <= solver["factor_nnz"]
        assert 0 <= solver["refinement_steps"] <= 8
        assert solver["residual"] <= 1e-10
        assert len(solver["backward_errors"]) == solver["refinement_steps"] + 1
        assert solver["backward_errors"][-1] == solver["residual"]
        assert 1.0 <= solver["local_cond"] < float("inf")
        assert 0.0 <= solver["factor_s"] <= stages["solve_s"]
        assert 0.0 <= solver["condense_s"] <= stages["solve_s"] - solver["factor_s"]


def test_metadata_records_the_peak_rss(tmp_path):
    """Each mesh's stages hold the process's peak resident set so far, in
    MiB: positive, nondecreasing from mesh to mesh, and no larger than the
    peak read after the run. The data files do not carry it."""
    run_convergence(RunConfig(mesh_family="tri", refinements=2, degree=1,
                              out_dir=str(tmp_path)))
    after = harness._peak_rss_mb()
    peaks = [stages["peak_rss_mb"] for stages in
             json.loads((tmp_path / "run_metadata.json").read_text())["stages"]]
    assert 0.0 < peaks[0] <= peaks[1] <= after
    for name in ("data_rates.dat", "data_rates.csv"):
        assert "rss" not in (tmp_path / name).read_text().lower()


def test_metadata_records_the_arrays_each_object_keeps(tmp_path):
    """Each mesh's stages hold the MiB of arrays that the ``Discretization``
    keeps beyond its mesh and the ``PlateSystem`` beyond its
    ``Discretization``: both positive, and the first below what the data
    tables at the fan rule would take if the element contexts kept them."""
    run_convergence(RunConfig(mesh_family="tri", refinements=2, degree=3,
                              out_dir=str(tmp_path)))
    stages = json.loads((tmp_path / "run_metadata.json").read_text())["stages"]
    for n, stage in zip((4, 8), stages):
        assert stage["discretization_mb"] > 0.0 and stage["plate_system_mb"] > 0.0
        disc = Discretization(triangular_mesh(n), 3)
        tables = sum(t.nbytes for ctx in disc.elem_ctxs
                     for t in (ctx.phi, ctx.roly_vals, ctx.croly_vals))
        assert stage["discretization_mb"] == harness._kept_mb(disc, disc.mesh)
        assert stage["discretization_mb"] < tables / 2 ** 20


def test_plate_system_keeps_its_cell_blocks_and_the_condensed_pattern_only():
    """At tri n=8, k = 3 the ``PlateSystem`` keeps 7.7 MiB of arrays beyond
    its ``Discretization``: the cell blocks, their entries' positions in the
    factor, the symbolic analysis, G and the displacement reconstructions.
    With the condensed matrix's CSC layout and the entry maps into the
    factor it kept 8.6 MiB; summing the blocks into forms on the full
    pattern, with its index arrays and slot maps, kept 13.3 MiB."""
    disc = Discretization(triangular_mesh(8), 3)
    plate = PlateSystem(disc)
    assert harness._kept_mb(plate, disc) <= 8.2
    blocks = sum(a.nbytes for b in plate._blocks for a in (b.s0, b.s1, b.shear))
    assert blocks > 0.5 * harness._kept_mb(plate, disc) * 2 ** 20


def test_kept_arrays_count_each_base_once():
    """Views count as the array they view, once; the arrays of the object
    given, and views of them, do not count."""
    given = SimpleNamespace(a=np.zeros(2 ** 17))
    own = np.zeros(2 ** 18)
    obj = SimpleNamespace(given=given, view=given.a[1:], own=own,
                          more=[{"x": own[::2]}, (own.T,)])
    obj.more.append(obj)
    assert harness._kept_mb(obj, given) == 2.0
    assert harness._kept_mb(given, obj) == 0.0


@pytest.mark.parametrize("platform, maxrss, mib", [("linux", 3 * 2 ** 10, 3.0),
                                                    ("darwin", 3 * 2 ** 20, 3.0)])
def test_peak_rss_units(platform, maxrss, mib, monkeypatch):
    """ru_maxrss counts KiB on Linux and bytes on macOS; without the
    resource module the peak is None."""
    class Usage:
        ru_maxrss = maxrss

    class Resource:
        RUSAGE_SELF = 0

        @staticmethod
        def getrusage(who):
            return Usage

    monkeypatch.setattr(harness.sys, "platform", platform)
    monkeypatch.setattr(harness, "resource", Resource)
    assert harness._peak_rss_mb() == mib
    monkeypatch.setattr(harness, "resource", None)
    assert harness._peak_rss_mb() is None


def test_metadata_records_the_factored_size(tmp_path):
    """At k >= 1 the element-interior DOFs are eliminated before the
    factorization: fewer DOFs are factored than are free."""
    run_convergence(RunConfig(mesh_family="tri", refinements=2, degree=1,
                              thickness=1e-3, out_dir=str(tmp_path)))
    meta = json.loads((tmp_path / "run_metadata.json").read_text())
    for n, solver in zip((4, 8), meta["solver"]):
        # per cell dim Roly^0 + dim cRoly^1 + dim P^0 = 2 + 1 + 1 interior DOFs
        assert solver["n_factored"] == solver["n_free"] - 4 * 2 * n * n
        assert solver["n_factored"] <= solver["kff_nnz"]
        assert (solver["kff_nnz"] + solver["n_factored"]) // 2 <= solver["factor_nnz"]


def test_unwritable_output_file_is_a_config_error(tmp_path):
    (tmp_path / "data_rates.dat").mkdir()          # a directory where a file goes
    config = RunConfig(refinements=2, out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="data_rates.dat"):
        write_outputs(config, compute_rates([rec(0.25, 2e-2), rec(0.125, 5e-3)]))


def test_convergence_from_mesh_dir(tmp_path):
    from ddrplate.mesh import save_mesh, triangular_mesh
    for i, n in enumerate((4, 8)):
        save_mesh(triangular_mesh(n), str(tmp_path / f"m{i}.json"))
    cfg = RunConfig(mesh_dir=str(tmp_path), refinements=2, degree=0,
                    thickness=0.1)
    records = run_convergence(cfg)
    assert len(records) == 2
    assert records[1].rate is not None and records[1].rate > 0.8


def test_convergence_on_meshes_that_do_not_tile_the_unit_square(tmp_path):
    """The cells of the triangulations below y = 1/2: the polynomial
    solution's traces do not vanish on y = 1/2, so the solve imposes its
    interpolated traces there and the rates are the full k + 1 = 2."""
    from ddrplate.mesh import build_mesh, save_mesh, triangular_mesh
    for i, n in enumerate((8, 16, 32)):
        mesh = triangular_mesh(n)
        below = np.flatnonzero(mesh.cell_center[:, 1] < 0.5)
        loops = np.stack([mesh.cell_vertices[mesh.cell_offsets[c]:mesh.cell_offsets[c + 1]]
                          for c in below])
        used, loops = np.unique(loops, return_inverse=True)
        save_mesh(build_mesh(mesh.vertex_coords[used], loops.reshape(-1, 3).tolist()),
                  str(tmp_path / f"half_{i}.json"))
    records = run_convergence(RunConfig(mesh_dir=str(tmp_path), refinements=3, degree=1,
                                        thickness=1e-3))
    assert records[-1].rate >= 1.8


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
