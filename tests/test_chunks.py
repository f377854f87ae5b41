"""Cell chunks and the threaded local build: splitting the vertex-count
groups into chunks and building their tables on several CPUs changes no bit
of the assembled matrix, the ordering, the factor or a solve, and a
failure inside a worker thread reaches the caller as the serial build would
raise it."""

import os
import sys
import threading
import time

import numpy as np
import pytest

import ddrplate.hho as hho
import ddrplate.operators as operators
import ddrplate.spaces as spaces
import ddrplate.system
from conftest import ASSETS
from ddrplate.errors import SingularLocalSystem
from ddrplate.harness import solve_case
from ddrplate.mesh import load_mesh, triangular_mesh
from ddrplate.operators import build_packs
from ddrplate.cholesky import Cholesky
from ddrplate.polyspace import dim_P
from ddrplate.solutions import get_solution
from ddrplate.system import MaterialParams, PlateSystem


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [0, 1, 127, 128, 255, 256, 1000, 1152, 5000])
def test_cell_chunks_are_contiguous_near_equal_and_large(n):
    ids = np.arange(7, 7 + n)
    chunks = spaces.cell_chunks(ids)
    sizes = [len(c) for c in chunks]
    assert len(chunks) == max(1, min(spaces._CHUNKS, n // spaces._CHUNK_CELLS))
    assert _same_bits(np.concatenate(chunks), ids)
    assert max(sizes) - min(sizes) <= 1
    assert len(chunks) == 1 or min(sizes) >= spaces._CHUNK_CELLS


def _build(mesh, k, solution, monkeypatch):
    """The discretization, the system, the Cholesky factor of a solve at
    t = 1e-3, its solution and interpolates, and the load."""
    disc = spaces.Discretization(mesh, k)
    plate = PlateSystem(disc)
    material = MaterialParams(t=1e-3)
    factors = []
    monkeypatch.setattr(ddrplate.system, "Cholesky",
                        lambda sn, F: factors.append(Cholesky(sn, F)) or factors[-1])
    _, _, (theta, u, theta_i, u_i) = solve_case(plate, material, solution)
    load = plate.load_vector(get_solution(solution, material).f)
    (chol,) = factors
    return disc, plate, chol.factor, theta.values, u.values, theta_i.values, u_i.values, load


@pytest.mark.parametrize("name,k,solution", [
    ("tri_n8", 0, "polynomial"), ("tri_n8", 1, "polynomial"),
    ("tri_n8", 2, "polynomial"), ("tri_n8", 3, "polynomial"),
    ("hexa_02", 1, "analytical"), ("locref_02", 0, "polynomial")])
def test_chunked_threaded_build_equals_the_serial_unchunked_one(name, k, solution,
                                                                monkeypatch):
    """The same build in chunks of 16 cells on three CPUs, and in one chunk
    per vertex count on one CPU: every output matches bit for bit, the
    full matrix, the Cholesky factor of a solve (whose fronts are summed
    from the chunks' cell blocks), the interpolates and the load (read from
    the per-chunk data tables) too."""
    mesh = triangular_mesh(8) if name == "tri_n8" else load_mesh(str(ASSETS / f"{name}.json"))
    with monkeypatch.context() as m:
        m.setattr(spaces, "_CHUNKS", 1)
        _cpus(m, 1)
        ref_disc, *ref = _build(mesh, k, solution, m)
    with monkeypatch.context() as m:
        m.setattr(spaces, "_CHUNK_CELLS", 16)
        _cpus(m, 3)
        disc, *got = _build(mesh, k, solution, m)
    assert len(disc.elem_ctxs) > len(ref_disc.elem_ctxs)
    (ref_plate, *ref_x), (plate, *x) = ref, got
    material = MaterialParams(t=1e-3)
    matrices = [P.full_matrix(material) for P in (ref_plate, plate)]
    for a, b in zip(*[[A.data, A.indices, A.indptr] for A in matrices]):
        assert _same_bits(a, b)
    for a, b in zip([ref_plate.factored] + ref_x, [plate.factored] + x):
        assert _same_bits(a, b)
    assert plate.local_cond == ref_plate.local_cond


@pytest.mark.parametrize("name,k", [("tri_n8", 0), ("tri_n8", 3), ("hexa_02", 1),
                                    ("locref_02", 0)])
def test_per_chunk_build_equals_the_all_chunk_builders(name, k, monkeypatch):
    """``PlateSystem`` builds each chunk's tables and blocks in one function
    and drops the tables; the builders of every chunk's tables at once
    (``build_packs``, ``build_hho_packs``, ``build_global_gradient``,
    ``build_jump_penalisation`` on the restrictions of all chunks) and
    ``_cell_blocks`` give the same G, P_U, worst condition number, cell
    blocks and jump stacks bit for bit, in chunks of 16 cells on two CPUs."""
    monkeypatch.setattr(spaces, "_CHUNK_CELLS", 16)
    _cpus(monkeypatch, 2)
    mesh = triangular_mesh(8) if name == "tri_n8" else load_mesh(str(ASSETS / f"{name}.json"))
    disc = spaces.Discretization(mesh, k)
    plate = PlateSystem(disc)
    packs = build_packs(disc)
    hho_packs = hho.build_hho_packs(disc, packs)
    G, rows = operators.build_global_gradient(disc, packs)
    for a, b in [(G.data, plate.G.data), (G.indices, plate.G.indices), (G.indptr, plate.G.indptr)]:
        assert _same_bits(a, b)
    assert plate.local_cond == max(p.cond for p in packs + hho_packs)
    assert len(plate._blocks) == len(packs) > 1
    for b, p, h, (_, _, g) in zip(plate._blocks, packs, hho_packs, rows):
        for kept, built in zip((b.s0, b.s1, b.shear), ddrplate.system._cell_blocks(p, h, g, k)):
            assert _same_bits(kept, built + 0.0)
    for a, p in zip(plate.PU, packs):
        assert _same_bits(a, p.PU)
    jump = (hho.build_jump_penalisation(disc, [hho.jump_restriction(*t) for t in
                                               zip(disc.elem_ctxs, packs, hho_packs)])
            if k == 0 else [])
    assert len(jump) == len(plate._jump)
    for (idx, J, h), (kidx, kJ, kh, _) in zip(jump, plate._jump):
        assert _same_bits(idx, kidx) and _same_bits(J, kJ) and _same_bits(h, kh)


def test_singular_cell_in_a_worker_chunk_reaches_the_caller(monkeypatch):
    """A singular rotation-potential system on one cell of the second chunk
    of 288 triangles: the worker thread that builds that chunk fails, and
    the caller gets the same typed error naming the cell, with no thread
    left running."""
    _cpus(monkeypatch, 2)
    disc = spaces.Discretization(triangular_mesh(12), 1)
    assert len(disc.elem_ctxs) == 2
    ctx = disc.elem_ctxs[1]
    ctx.croly.coef[5, :, :dim_P(ctx.k - 1)] = 0.0
    bad = int(ctx.ids[5])
    ran_on = {}
    original = operators.build_local_pack

    def spy(c):
        ran_on[id(c)] = threading.current_thread()
        return original(c)

    monkeypatch.setattr(operators, "build_local_pack", spy)
    before = set(threading.enumerate())
    with pytest.raises(SingularLocalSystem, match=f"element {bad}: rotation potential"):
        build_packs(disc)
    assert ran_on[id(disc.elem_ctxs[0])] is threading.current_thread()
    worker = ran_on[id(ctx)]
    assert worker is not threading.current_thread()
    assert not worker.is_alive()
    assert set(threading.enumerate()) == before


def test_an_earlier_chunk_failing_later_is_the_error_raised(monkeypatch):
    """Chunk 0 of 288 triangles fails in its HHO strain reconstruction on
    the calling thread, 0.2 s after chunk 1 has failed in its DDR pack on
    the worker thread. Each chunk's tables are built by one function, DDR
    pack then HHO pack, so the caller gets chunk 0's error, as a serial
    build would raise it, with no thread left running."""
    _cpus(monkeypatch, 2)
    disc = spaces.Discretization(triangular_mesh(12), 1)
    first, second = disc.elem_ctxs
    second.croly.coef[5, :, :dim_P(second.k - 1)] = 0.0
    bad = int(first.ids[3])
    failed = []
    build, check = ddrplate.system.build_local_pack, hho._check_cond

    def spy_build(ctx):
        try:
            return build(ctx)
        except SingularLocalSystem:
            failed.append((ctx, threading.current_thread()))
            raise

    def spy_check(ctx, mats, what):
        if ctx is first:
            time.sleep(0.2)
            mats = mats.copy()
            mats[3, :, 0] = 0.0
            failed.append((ctx, threading.current_thread()))
        return check(ctx, mats, what)

    monkeypatch.setattr(ddrplate.system, "build_local_pack", spy_build)
    monkeypatch.setattr(hho, "_check_cond", spy_check)
    before = set(threading.enumerate())
    with pytest.raises(SingularLocalSystem, match=f"element {bad}: strain reconstruction"):
        PlateSystem(disc)
    (ctx1, worker), (ctx0, caller) = failed
    assert (ctx1, ctx0) == (second, first)
    assert caller is threading.current_thread() and worker is not caller
    assert not worker.is_alive()
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("slow", [1, 2])
def test_the_first_failing_item_is_raised(slow, monkeypatch):
    """Items 1 and 2 fail on two worker threads, item ``slow`` 0.1 s after
    the other, while the calling thread computes item 0: the caller gets
    item 1's error either way, as a serial map would raise it, and no thread
    starts an item after the failed one."""
    _cpus(monkeypatch, 3)
    done = []

    def fn(i):
        time.sleep({0: 0.3, slow: 0.2}.get(i, 0.1))
        if i in (1, 2):
            raise ValueError(f"item {i}")
        done.append(i)

    with pytest.raises(ValueError, match="item 1"):
        spaces.map_chunks(fn, range(8))
    assert done == [0]


def test_map_chunks_under_frequent_thread_switches(monkeypatch):
    """Eight threads on 400 items with the switch interval cut to 1 us:
    every result lands in its own slot, and of several failing items the
    first one's error is raised, every time."""
    _cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert spaces.map_chunks(lambda i, j: i * j, range(400), range(400)) == [
                i * i for i in range(400)]

            def fn(i):
                if i % 97 == 60:
                    raise ValueError(f"item {i}")
                return sum(range(i))

            with pytest.raises(ValueError, match="item 60$"):
                spaces.map_chunks(fn, range(400))
    finally:
        sys.setswitchinterval(interval)
