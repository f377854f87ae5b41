"""The benchmark's per-layer trace (``perfbench/tracing.py``) against the
library: every name it wraps resolves, and the local build runs per cell
group, so its numpy kernel calls do not grow with the cell count."""

import importlib.util
from pathlib import Path

import pytest

import ddrplate.spaces as spaces
import ddrplate.system as system
from conftest import ASSETS
from ddrplate.harness import solve_case
from ddrplate.mesh import load_mesh, triangular_mesh
from ddrplate.solutions import polynomial_solution

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_build(tracing, mesh, k):
    """Per-layer metrics of a build, both interpolations and a load vector."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        disc = spaces.Discretization(mesh, k)
        plate = system.PlateSystem(disc)
        sol = polynomial_solution(system.MaterialParams())
        spaces.interpolate_theta(disc, sol.theta)
        spaces.interpolate_u(disc, sol.u)
        plate.load_vector(sol.f)
    finally:
        tracer.uninstall()
    return tracer.metrics([], 0.0)


def test_kernel_calls_do_not_grow_with_the_cell_count(tracing):
    coarse = _traced_build(tracing, triangular_mesh(4), 1)
    fine = _traced_build(tracing, triangular_mesh(8), 1)
    for name in ("kernels.einsum_calls", "kernels.linalg_calls"):
        assert coarse[name] == fine[name]
    for name in ("operators.local_pack_calls", "hho.local_pack_calls",
                 "polyspace.element_contexts"):
        assert coarse[name] == fine[name] == 1


def test_one_pack_per_vertex_count(tracing):
    metrics = _traced_build(tracing, load_mesh(str(ASSETS / "hexa_01.json")), 1)
    for name in ("operators.local_pack_calls", "hho.local_pack_calls",
                 "polyspace.element_contexts"):
        assert metrics[name] == 3


def test_solve_layers_are_measured(tracing):
    """Two solves on one build: the matrix is combined once per solve, both
    hand the factorization the same K_ff pattern, and every triangular solve
    of the factor (one per solve and per refinement step) is counted."""
    plate = system.PlateSystem(spaces.Discretization(triangular_mesh(8), 1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = [solve_case(plate, system.MaterialParams(t=t), "polynomial")[1]
                   for t in (1e-1, 1e-3)]
    finally:
        tracer.uninstall()
    metrics = tracer.metrics([rep.residual for rep in reports], 0.0)
    assert tracer.calls["system.matrix_s"] == len(reports)
    assert len(tracer.kff_nnz) == len(reports)
    assert tracer.kff_nnz[0] == tracer.kff_nnz[1] > 0
    assert metrics["system.lu_solves"] == len(reports) + sum(
        rep.refinement_steps for rep in reports)
