"""The build and the solve hold no full-size temporary they do not need:
``sum_blocks`` adds the stacks one by one and equals the former
flatten-permute-bincount sum bit for bit, the build's transient peak stays
near what it keeps, and no full matrix is alive while SuperLU factors."""

import tracemalloc
import weakref

import numpy as np
import pytest

import ddrplate.spaces as spaces
import ddrplate.system
from conftest import ASSETS
from ddrplate.harness import solve_case
from ddrplate.mesh import load_mesh, triangular_mesh
from ddrplate.spaces import Discretization, sum_blocks
from ddrplate.system import MaterialParams, PlateSystem


def _bincount_sum_blocks(slots, blocks, n_entries, keys=None):
    """The former ``sum_blocks``, kept as the oracle: every stack flattened,
    the entries permuted to stable key order, and one ``np.bincount``."""
    slots_flat = np.concatenate([np.ravel(s) for s in slots] + [np.zeros(0, np.intp)])
    vals = np.concatenate([np.ravel(b) for b in blocks] + [np.zeros(0)])
    if keys is not None:
        key = np.concatenate([np.asarray(k) for k in keys] + [np.zeros(0, int)])
        size = np.concatenate([np.full(len(k), int(np.prod(s.shape[1:])))
                               for k, s in zip(keys, slots)] + [np.zeros(0, int)])
        start = np.cumsum(size) - size
        order = np.argsort(key, kind="stable")
        size = size[order]
        perm = (np.repeat(start[order] - (np.cumsum(size) - size), size)
                + np.arange(size.sum()))
        slots_flat, vals = slots_flat[perm], vals[perm]
    return np.bincount(slots_flat.astype(np.intp), vals, n_entries)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,k", [("tri_n8", 3), ("tri_n8", 0), ("hexa_03", 1),
                                    ("locref_03", 0)])
def test_sum_blocks_equals_the_bincount_oracle(name, k, monkeypatch):
    """Every stream of a build in chunks of 16 cells: the cell stacks in key
    order (tri), cell ids interleaved across vertex counts (hexa_03,
    locref_03), and the k = 0 jump stacks, whose edge keys interleave."""
    monkeypatch.setattr(spaces, "_CHUNK_CELLS", 16)
    mesh = triangular_mesh(8) if name == "tri_n8" else load_mesh(str(ASSETS / f"{name}.json"))
    calls = []

    def spy(slots, blocks, n_entries, keys=None):
        calls.append((list(slots), list(blocks), n_entries, keys))
        return sum_blocks(slots, blocks, n_entries, keys)

    monkeypatch.setattr(ddrplate.system, "sum_blocks", spy)
    plate = PlateSystem(Discretization(mesh, k))
    assert len(calls) == 3
    # at k = 0 the s0 call carries the jump stacks too
    cell_stacks = min(len(slots) for slots, _, _, _ in calls)
    assert (max(len(slots) for slots, _, _, _ in calls) > cell_stacks) == (k == 0)
    for slots, blocks, n_entries, keys in calls:
        got = sum_blocks(slots, blocks, n_entries, keys)
        assert _same_bits(got, _bincount_sum_blocks(slots, blocks, n_entries, keys))
        assert any(_same_bits(got, s) for s in plate.streams)
        runs = len(list(spaces._key_runs(list(keys))))
        if name == "tri_n8" and len(slots) == cell_stacks:
            assert runs == len(slots)       # one run per stack
        else:
            assert runs > len(slots)        # keys interleaved across stacks


def test_sum_blocks_runs_in_any_key_order(rng):
    """Random keys with ties, stacks of mixed block shapes and a run that is
    not contiguous in its stack: the same bits as the oracle, with keys and
    without, and zero stacks give zero data."""
    shapes = [(5, 2, 3), (4, 1, 1), (6, 3, 2), (0, 2, 2)]
    slots = [rng.integers(0, 17, s).astype(np.int32) for s in shapes]
    blocks = [rng.standard_normal(s) for s in shapes]
    keys = [rng.integers(0, 6, s[0]) for s in shapes]
    keys[0] = np.array([9, 0, 1, 9, 2])              # stack 0 runs 1, 2, 4 then 0, 3
    for kk in (None, keys):
        assert _same_bits(sum_blocks(slots, blocks, 17, kk),
                          _bincount_sum_blocks(slots, blocks, 17, kk))
    assert any(isinstance(at, np.ndarray) for _, at in spaces._key_runs(keys))
    assert _same_bits(sum_blocks([], [], 4), np.zeros(4))
    assert _same_bits(sum_blocks([], [], 4, []), np.zeros(4))


def test_build_peak_stays_near_what_it_keeps():
    """The traced peak of a build at tri n=12, k = 3 is at most 1.6 times
    the memory the build keeps (2.6 times when every stack was copied whole
    and the local tables lived to the end of the build; 1.4 measured)."""
    disc = Discretization(triangular_mesh(12), 3)
    tracemalloc.start()
    try:
        plate = PlateSystem(disc)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plate.streams[2].nbytes < kept
    assert peak <= 1.6 * kept


def test_no_matrix_is_alive_while_superlu_factors(monkeypatch):
    """Each solve combines the matrix once, takes what it needs from it and
    drops it before the factorization: the data of every K that
    ``full_matrix`` returned is freed by the time ``splu`` runs."""
    plate = PlateSystem(Discretization(triangular_mesh(8), 2))
    refs, alive = [], []
    full, splu = PlateSystem.full_matrix, ddrplate.system.splu

    def spy_full(self, material):
        K = full(self, material)
        refs.append(weakref.ref(K.data))
        return K

    def spy_splu(A, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return splu(A, **kwargs)

    monkeypatch.setattr(PlateSystem, "full_matrix", spy_full)
    monkeypatch.setattr(ddrplate.system, "splu", spy_splu)
    for t in (1e-1, 1e-3):
        _, report, _ = solve_case(plate, MaterialParams(t=t), "polynomial")
        assert report.residual <= 1e-10
    assert alive == [[False], [False, False]]
