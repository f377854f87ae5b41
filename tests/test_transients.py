"""The build and the solve hold no full-size temporary they do not need:
``sum_blocks`` adds the stacks one by one and equals the former
flatten-and-bincount sum bit for bit, the build's transient peak stays
near what it keeps plus one chunk's local tables per CPU, a solve hands
its stacks to the fronts of the factorization one chunk at a time, and no
full matrix is alive while the Cholesky factorization runs."""

import tracemalloc
import weakref

import numpy as np
import pytest

import ddrplate.spaces as spaces
import ddrplate.system
from conftest import ASSETS
from ddrplate.harness import _base_arrays, solve_case
from ddrplate.hho import build_hho_packs
from ddrplate.operators import build_global_gradient, build_packs
from ddrplate.mesh import load_mesh, triangular_mesh
from ddrplate.spaces import Discretization, sum_blocks
from ddrplate.system import MaterialParams, PlateSystem


def _bincount_sum_blocks(slots, blocks, n_entries):
    """The former ``sum_blocks``, kept as the oracle: every stack flattened,
    concatenated, and one ``np.bincount``."""
    slots_flat = np.concatenate([np.ravel(s) for s in slots] + [np.zeros(0, np.intp)])
    vals = np.concatenate([np.ravel(b) for b in blocks] + [np.zeros(0)])
    return np.bincount(slots_flat.astype(np.intp), vals, n_entries)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _sum_calls(name, k, monkeypatch, rng):
    """The ``sum_blocks`` calls of a build in chunks of 16 cells: the three
    of ``full_matrix`` and those of a solve, the one into the fronts of the
    factorization first (every stack its generator hands over, kept), and
    the full matrix's data; for "random", stacks of mixed block shapes (one
    of them empty), with no data."""
    if name == "random":
        shapes = [(5, 2, 3), (4, 1, 1), (6, 3, 2), (0, 2, 2)]
        stacks = ([rng.integers(0, 17, s).astype(np.int32) for s in shapes],
                  [rng.standard_normal(s) for s in shapes], 17)
        return [stacks], None
    monkeypatch.setattr(spaces, "_CHUNK_CELLS", 16)
    mesh = triangular_mesh(8) if name == "tri_n8" else load_mesh(str(ASSETS / f"{name}.json"))
    plate = PlateSystem(Discretization(mesh, k))
    calls = []

    def spy(slots, blocks, n_entries):
        # the stacks a generator hands over, all kept
        calls.append((list(slots), list(blocks), n_entries))
        return sum_blocks(calls[-1][0], calls[-1][1], n_entries)

    monkeypatch.setattr(ddrplate.system, "sum_blocks", spy)
    material = MaterialParams(t=1e-3)
    data = plate.full_matrix(material).data
    # at k = 0 the s0 call carries the jump stacks too
    cell_stacks = len(plate._blocks)
    assert [len(slots) for slots, _, _ in calls] == [cell_stacks + len(plate._jump)] + [
        cell_stacks] * 2
    assert bool(plate._jump) == (k == 0) and cell_stacks > 1
    # the three sums combined as full_matrix combines them give its data
    s0, s1, s2 = (sum_blocks(*call) for call in calls)
    combined = material.beta0 * s0 + material.beta1 * s1
    combined += material.shear_over_t2 * s2
    assert _same_bits(combined, data)
    # a solve sums the fronts in one call, the cell chunks then the jump
    # stacks in edge chunks
    plate.solve(material, plate.load_vector(lambda x: np.ones(len(x))))
    fronts = calls[3]
    assert len(fronts[0]) == cell_stacks + sum(len(spaces.cell_chunks(idx))
                                               for idx, *_ in plate._jump)
    assert fronts[2] == plate._supernodes.offset[-1] + 1
    assert all(n != fronts[2] for _, _, n in calls[4:])
    return calls, data


@pytest.mark.parametrize("name,k", [("tri_n8", 3), ("tri_n8", 0), ("hexa_03", 1),
                                    ("locref_03", 0), ("random", None)])
def test_sum_blocks_equals_the_bincount_oracle(name, k, monkeypatch, rng):
    """Every sum of a build in chunks of 16 cells (cells of one vertex count
    on tri_n8, of several on hexa_03 and locref_03, and at k = 0 the jump
    stacks after the cell ones): the three forms of the full matrix, the
    fronts of a solve's factorization and its right-hand sides, and random
    stacks of mixed block shapes: the stacks added in the order given are
    the oracle's sum bit for bit, and zero stacks give zero data."""
    calls, data = _sum_calls(name, k, monkeypatch, rng)
    for slots, blocks, n_entries in calls:
        assert _same_bits(sum_blocks(slots, blocks, n_entries),
                          _bincount_sum_blocks(slots, blocks, n_entries))
    if data is None:
        assert _same_bits(sum_blocks([], [], 4), np.zeros(4))


def test_build_peak_stays_near_what_it_keeps(monkeypatch):
    """The traced peak of a build at tri n=12, k = 3 in 18 chunks of 16
    cells is at most what the build keeps (its cell blocks, most of it) plus
    2.5 times the local tables of one chunk per CPU that builds them: each
    CPU builds a chunk's tables, reduces them to its kept blocks and drops
    them before it starts the next. Measured 2.77 MB over the 18.29 MB kept
    on one to three CPUs, 2.26 times one chunk's 1.23 MB of tables (the peak
    comes after the tables, in G's assembly); building every chunk's tables
    before any block, as before, added 19.8 MB, 16.1 times them."""
    monkeypatch.setattr(spaces, "_CHUNKS", 32)
    monkeypatch.setattr(spaces, "_CHUNK_CELLS", 16)
    disc = Discretization(triangular_mesh(12), 3)
    assert len(disc.elem_ctxs) == 18
    tracemalloc.start()
    try:
        plate = PlateSystem(disc)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = sum(b.s0.nbytes + b.s1.nbytes + b.shear.nbytes for b in plate._blocks)
    assert 0.5 * kept < blocks < kept
    packs = build_packs(disc)
    _, rows = build_global_gradient(disc, packs)
    chunk = max(sum(_base_arrays(tables).values())
                for tables in zip(packs, build_hho_packs(disc, packs), rows))
    cpus = min(spaces._cpu_count(), len(disc.elem_ctxs))
    assert peak <= kept + 2.5 * cpus * chunk


@pytest.mark.parametrize("k", [0, 3])
def test_one_chunk_stack_is_alive_beside_the_fronts(k, monkeypatch):
    """A solve hands its stacks to the fronts one chunk at a time, on tri
    n=16 in 8 chunks of 64 cells (at k = 0 the jump stacks follow in edge
    chunks): when a stack arrives, every earlier one is gone, and the
    traced memory beyond what the solve held before the sum is at most the
    fronts, the interior blocks kept so far (K_II, K_IB and K_II^{-1} [K_IB
    | r_I] per chunk), the free row sums of the jump stacks so far (one per
    block row) and this stack, plus 2 KB per earlier stack for the Python
    objects that hold them and 4 KB (measured at most 2.6 KB). One stack
    more would add 41 KB at k = 0 and 0.66 MB at k = 3."""
    monkeypatch.setattr(spaces, "_CHUNK_CELLS", 16)
    plate = PlateSystem(Discretization(triangular_mesh(16), k))
    assert len(plate._blocks) == 8
    n_fronts = int(plate._supernodes.offset[-1]) + 1
    sum_blocks = ddrplate.system.sum_blocks
    # the bytes a chunk's interior blocks keep, in the order of the stacks
    interior = np.cumsum([8 * b.dofs.shape[0] * b.inner.size
                          * (b.inner.size + 2 * b.outer.size + 1) for b in plate._blocks])
    excess = []

    def spy(slots, blocks, n_entries):
        if n_entries != n_fronts:
            return sum_blocks(slots, blocks, n_entries)
        before = tracemalloc.get_traced_memory()[0]

        def watched():
            alive, row_sums = [], 0
            for i, stack in enumerate(blocks):
                assert all(ref() is None for ref in alive)
                alive.append(weakref.ref(stack))
                if i >= len(interior):
                    row_sums += 8 * stack.shape[0] * stack.shape[1]
                held = (8 * n_entries + interior[min(i, len(interior) - 1)] + row_sums
                        + stack.nbytes)
                excess.append(tracemalloc.get_traced_memory()[0] - before - held - 2_000 * i)
                yield stack
                del stack

        return sum_blocks(slots, watched(), n_entries)

    monkeypatch.setattr(ddrplate.system, "sum_blocks", spy)
    tracemalloc.start()
    try:
        _, report, _ = solve_case(plate, MaterialParams(t=1e-3), "polynomial")
    finally:
        tracemalloc.stop()
    assert report.residual <= 1e-10
    assert len(excess) == len(plate._blocks) + sum(len(spaces.cell_chunks(idx))
                                                   for idx, *_ in plate._jump)
    assert max(excess) <= 4_000


def test_no_matrix_is_alive_while_the_cholesky_factors(monkeypatch):
    """A solve never forms K on all DOFs: it sums the fronts of the
    factorization and takes the interior blocks from the kept cell blocks,
    so ``full_matrix`` is not called, and no array that the solve made and
    still holds when the Cholesky factorization starts, but the fronts it
    factors in place, is as large as the data of the full K."""
    plate = PlateSystem(Discretization(triangular_mesh(8), 2))
    full_bytes = plate.full_matrix(MaterialParams()).data.nbytes
    largest = []

    def no_full(self, material):
        raise AssertionError("a solve formed the full matrix")

    cholesky = ddrplate.system.Cholesky

    def spy_cholesky(sn, fronts):
        sizes = [t.size for t in tracemalloc.take_snapshot().traces]
        sizes.remove(fronts.base.nbytes)        # the fronts, a view of the one sum
        largest.append(max(sizes))
        return cholesky(sn, fronts)

    monkeypatch.setattr(PlateSystem, "full_matrix", no_full)
    monkeypatch.setattr(ddrplate.system, "Cholesky", spy_cholesky)
    for t in (1e-1, 1e-3):
        tracemalloc.start()
        try:
            _, report, _ = solve_case(plate, MaterialParams(t=t), "polynomial")
        finally:
            tracemalloc.stop()
        assert report.residual <= 1e-10
    assert len(largest) == 2 and max(largest) < 0.5 * full_bytes
