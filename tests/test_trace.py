"""The benchmark's per-layer trace (``perfbench/tracing.py``) against the
library: every name it wraps resolves, the local build runs per cell
chunk (at most eight per vertex count), so its numpy kernel calls do not
grow with the cell count past eight chunks, and no span runs in a worker
thread of the chunked build."""

import functools
import importlib.util
import os
import threading
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


def test_kernel_calls_stop_growing_at_eight_chunks(tracing, monkeypatch):
    """Past 8 x 128 cells a vertex-count group stays at eight chunks, so
    1152 and 2048 triangles make the same kernel calls. On one CPU, so that
    no counter is bumped from two threads at once."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    mid = _traced_build(tracing, triangular_mesh(24), 0)
    fine = _traced_build(tracing, triangular_mesh(32), 0)
    for name in ("kernels.einsum_calls", "kernels.linalg_calls"):
        assert mid[name] == fine[name]
    for name in ("operators.local_pack_calls", "hho.local_pack_calls",
                 "polyspace.element_contexts"):
        assert mid[name] == fine[name] == 8


def test_one_pack_per_vertex_count(tracing, monkeypatch):
    # one CPU: the counters are not bumped from two threads at once
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    metrics = _traced_build(tracing, load_mesh(str(ASSETS / "hexa_01.json")), 1)
    for name in ("operators.local_pack_calls", "hho.local_pack_calls",
                 "polyspace.element_contexts"):
        assert metrics[name] == 3


def test_solve_layers_are_measured(tracing):
    """Two solves on one build: neither assembles the full matrix (the
    condensed data comes from the cell blocks), every solve is timed, and
    both factor the same K_ff pattern, whose size and factor the solve
    reports carry. The tracer's factor metrics wrap SuperLU by name, which
    no solve calls since the Cholesky factorization replaced it, so they
    are not checked here."""
    plate = system.PlateSystem(spaces.Discretization(triangular_mesh(8), 1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = [solve_case(plate, system.MaterialParams(t=t), "polynomial")[1]
                   for t in (1e-1, 1e-3)]
    finally:
        tracer.uninstall()
    assert tracer.calls["system.matrix_s"] == 0
    assert tracer.calls["system.solve_self_s"] == len(reports)
    assert reports[0].kff_nnz == reports[1].kff_nnz > 0
    assert reports[0].factor_nnz == reports[1].factor_nnz > 0


def test_no_span_runs_in_a_worker_thread(tracing, monkeypatch):
    """A traced build and solve of 288 triangles in two chunks on two CPUs:
    the pack builders (counters) run on the calling thread and in workers,
    every span on the calling thread alone, since the tracer keeps one span
    stack."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads = {"span": set(), "counter": set()}

    def seen(kind, wrapped):
        @functools.wraps(wrapped)
        def wrapper(*args, **kwargs):
            threads[kind].add(threading.current_thread())
            return wrapped(*args, **kwargs)
        return wrapper

    class ThreadTracer(tracing.Tracer):
        def span(self, name, fn):
            return seen("span", super().span(name, fn))

        def counter(self, name, fn):
            return seen("counter", super().counter(name, fn))

    tracer = ThreadTracer()
    tracer.install()
    try:
        disc = spaces.Discretization(triangular_mesh(12), 1)
        plate = system.PlateSystem(disc)
        solve_case(plate, system.MaterialParams(t=1e-3), "polynomial")
    finally:
        tracer.uninstall()
    assert len(disc.elem_ctxs) == 2
    main = threading.current_thread()
    assert threads["span"] == {main}
    assert main in threads["counter"] and len(threads["counter"]) > 1
