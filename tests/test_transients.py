"""The build and the solve hold no full-size temporary they do not need:
``sum_blocks`` adds the stacks one by one and equals the former
flatten-and-bincount sum bit for bit, the build's transient peak stays
near what it keeps, and no full matrix is alive while the Cholesky
factorization runs."""

import tracemalloc

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


def _condensed_calls(name, k, monkeypatch, rng):
    """The ``sum_blocks`` calls that sum the condensed data of a build in
    chunks of 16 cells, and that data; for "random", stacks of mixed block
    shapes (one of them empty), with no data."""
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
        calls.append((list(slots), list(blocks), n_entries))
        return sum_blocks(calls[-1][0], calls[-1][1], n_entries)

    monkeypatch.setattr(ddrplate.system, "sum_blocks", spy)
    material = MaterialParams(t=1e-3)
    data = plate.condensed_matrix(material).data
    assert len(calls) == 3
    # at k = 0 the s0 call carries the jump stacks too
    cell_stacks = len(plate._blocks)
    assert [len(slots) for slots, _, _ in calls] == [cell_stacks + len(plate._jump)] + [
        cell_stacks] * 2
    assert bool(plate._jump) == (k == 0) and cell_stacks > 1
    # the three sums combined as a solve combines them give the data
    s0, s1, s2 = (sum_blocks(*call) for call in calls)
    combined = material.beta0 * s0 + material.beta1 * s1 + material.shear_over_t2 * s2
    assert _same_bits(combined[:-1], data)
    return calls, data


@pytest.mark.parametrize("name,k", [("tri_n8", 3), ("tri_n8", 0), ("hexa_03", 1),
                                    ("locref_03", 0), ("random", None)])
def test_sum_blocks_equals_the_bincount_oracle(name, k, monkeypatch, rng):
    """Every sum of the condensed data of a build in chunks of 16 cells
    (cells of one vertex count on tri_n8, of several on hexa_03 and
    locref_03, and at k = 0 the jump stacks after the cell ones), and random
    stacks of mixed block shapes: the stacks added in the order given are
    the oracle's sum bit for bit, and zero stacks give zero data."""
    calls, data = _condensed_calls(name, k, monkeypatch, rng)
    for slots, blocks, n_entries in calls:
        assert _same_bits(sum_blocks(slots, blocks, n_entries),
                          _bincount_sum_blocks(slots, blocks, n_entries))
    if data is None:
        assert _same_bits(sum_blocks([], [], 4), np.zeros(4))


def test_build_peak_stays_near_what_it_keeps():
    """The traced peak of a build at tri n=12, k = 3 is at most what the
    build keeps (its cell blocks, most of it) plus 1.1 times the local
    tables it builds them from, which hold the last chunk's temporaries
    too: measured 42.6 against 42.3 MB kept and tables, with 2.3 MB to the
    bound, while one sum on the full pattern would add 6.9 MB."""
    disc = Discretization(triangular_mesh(12), 3)
    tracemalloc.start()
    try:
        plate = PlateSystem(disc)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = sum(b.s0.nbytes + b.s1.nbytes + b.shear.nbytes for b in plate._blocks)
    assert 0.5 * kept < blocks < kept
    packs = build_packs(disc)
    tables = [packs, build_hho_packs(disc, packs), build_global_gradient(disc, packs)]
    assert peak <= kept + 1.1 * sum(_base_arrays(tables).values())


def test_no_matrix_is_alive_while_the_cholesky_factors(monkeypatch):
    """A solve never forms K on all DOFs: it takes the condensed data and
    the interior blocks from the kept cell blocks, so ``full_matrix`` is
    not called, and no array that the solve made and still holds when the
    Cholesky factorization starts is as large as the data of the full K."""
    plate = PlateSystem(Discretization(triangular_mesh(8), 2))
    full_bytes = plate.full_matrix(MaterialParams()).data.nbytes
    largest = []

    def no_full(self, material):
        raise AssertionError("a solve formed the full matrix")

    cholesky = ddrplate.system.Cholesky

    def spy_cholesky(sn, A):
        largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
        return cholesky(sn, A)

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
