"""Discrete spaces for rotations and transverse displacements.

Rotation space (degree k): per element a Roly^{k-1}(T) block and a cRoly^k(T)
block; per edge a full vector polynomial of degree k stored in the local
frame as [tangential coefficients (k+1), normal coefficients (k+1)] against
the orthonormal edge family.

Displacement space: per element a P^{k-1}(T) block; the skeleton trace is the
continuous piecewise P^{k+1} function determined by one value per vertex and
k moments per edge (coefficients 0..k-1 against the orthonormal edge family).

Global ordering: all element blocks (by element id), then all edge blocks (by
edge id), then the vertex block -- deterministic, so assembled matrices are
reproducible bit for bit. The cells are grouped by vertex count, and each
group is split into contiguous chunks of cell ids (``cell_chunks``), one
``ElementContext`` per chunk; local layouts, interpolation and assembly work
on whole chunks, and ``map_chunks`` builds the local tables of the chunks on
every CPU the process may run on. Every global matrix is summed from stacks
of dense local blocks on the pattern of their union (``block_pattern``,
``sum_blocks``, and ``assemble`` on top of them), stack by stack in the
order given: the cell chunks in ``elem_ctxs`` order (vertex counts
increasing, cell ids increasing inside each), then any edge stacks (at
k = 0 the jump stacks, as ``build_jump_penalisation`` returns them). The
chunks split each group into consecutive id ranges, so neither the chunks
nor the CPU count change a bit of it. Where the contributions of several
cells to a shared DOF meet in a matrix, they meet in these sums: the
condensed matrix of a solve, its Schur complements and its right-hand side,
and the full matrix. The one exception, the k = 0 jump operator, has at
most two addends per entry, which give the same bits in either order.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .mesh import PolygonalMesh, cell_groups
from .polyspace import (ElementContext, EdgeContext, build_edge_context,
                        dim_P, dim_croly, dim_roly, mass, scaled_monomials)


class ThetaSpace:
    def __init__(self, mesh: PolygonalMesh, k: int):
        self.mesh = mesh
        self.k = k
        self.n_roly = dim_roly(k - 1)
        self.n_croly = dim_croly(k)
        self.elem_dim = self.n_roly + self.n_croly
        self.edge_dim = 2 * (k + 1)
        self.dim = mesh.n_elements * self.elem_dim + mesh.n_edges * self.edge_dim

    def elem_offset(self, i):
        return i * self.elem_dim

    def edge_offset(self, e):
        return self.mesh.n_elements * self.elem_dim + e * self.edge_dim

    def edge_tangential_slots(self, e) -> np.ndarray:
        """Tangential slots of edge e, or of each edge in an array: (..., k+1)."""
        return self.edge_offset(np.asarray(e))[..., None] + np.arange(self.k + 1)

    def edge_normal_slots(self, e) -> np.ndarray:
        return self.edge_tangential_slots(e) + self.k + 1

    def local_dofs(self, ctx: ElementContext) -> np.ndarray:
        """Global indices (n_cells, n_theta) in the local layout
        [R, cR, (edge t, edge n) ...]."""
        elem = self.elem_offset(ctx.ids)[:, None] + np.arange(self.elem_dim)
        edges = self.edge_offset(ctx.edge_ids)[..., None] + np.arange(self.edge_dim)
        return np.concatenate([elem, edges.reshape(ctx.n_cells, -1)], axis=1)


class USpace:
    def __init__(self, mesh: PolygonalMesh, k: int):
        self.mesh = mesh
        self.k = k
        self.elem_dim = dim_P(k - 1)
        self.edge_dim = k
        self.dim = (mesh.n_elements * self.elem_dim + mesh.n_edges * self.edge_dim
                    + mesh.n_vertices)

    def elem_offset(self, i):
        return i * self.elem_dim

    def edge_offset(self, e):
        return self.mesh.n_elements * self.elem_dim + e * self.edge_dim

    def vertex_offset(self, v):
        return (self.mesh.n_elements * self.elem_dim
                + self.mesh.n_edges * self.edge_dim + v)

    def local_dofs(self, ctx: ElementContext) -> np.ndarray:
        """Global indices (n_cells, n_u) in the local layout
        [cell, edge moments..., vertex values...]."""
        elem = self.elem_offset(ctx.ids)[:, None] + np.arange(self.elem_dim)
        edges = self.edge_offset(ctx.edge_ids)[..., None] + np.arange(self.edge_dim)
        return np.concatenate([elem, edges.reshape(ctx.n_cells, -1),
                               self.vertex_offset(ctx.vertices)], axis=1)


_LOW32 = 0xFFFFFFFF


def block_pattern(index, shape: tuple[int, int]):
    """CSR pattern of the union of stacks of dense blocks, and the position
    in it of every block entry.

    ``index`` lists ``(rows, cols)`` stacks: (n, n_r) and (n, n_c) global
    indices. Every block entry has a place in the pattern, so the pattern
    depends on the index alone, never on values or their round-off. Rows
    that lie in the same set of blocks have the same columns, so the columns
    are merged once per such set (per cell, edge or vertex on a mesh), not
    once per entry. Returns ``indptr``, ``indices`` (sorted, no duplicates)
    and, per stack, the (n, n_r, n_c) positions of its entries."""
    offsets = np.cumsum([0] + [len(r) for r, _ in index])      # global block ids
    # (row, block) incidences, sorted; a 64-bit key holds a pair of 32-bit ids
    block = _flat([np.repeat(np.arange(lo, hi), r.shape[1])
                   for (r, _), lo, hi in zip(index, offsets[:-1], offsets[1:])], np.int64)
    pairs = np.sort((_flat([r for r, _ in index], np.int64) << 32) | block)
    pairs = pairs[_starts(pairs)]                # np.unique takes 20x longer here
    row, block = pairs >> 32, pairs & _LOW32
    count = np.bincount(row, minlength=shape[0])
    table = np.full((shape[0], max(count.max(initial=0), 1)), -1)
    table[row, np.arange(len(row)) - (np.cumsum(count) - count)[row]] = block
    # number the distinct block sets of the rows
    order = np.lexsort(table.T[::-1])
    table = table[order]
    new = _starts(table)
    row_set = np.empty(shape[0], dtype=np.int64)
    row_set[order] = np.cumsum(new) - 1
    sets = table[new]
    set_of, pos = np.nonzero(sets >= 0)
    block = sets[set_of, pos]
    set_block = (set_of << 32) | block                         # sorted
    # merge the columns of every set's blocks
    parts, members = [], []
    for (r, c), lo, hi in zip(index, offsets[:-1], offsets[1:]):
        mine = np.flatnonzero((block >= lo) & (block < hi))
        members.append(mine)
        parts.append((set_of[mine, None] << 32) | c[block[mine] - lo])
    key = _flat(parts, np.int64)
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = _starts(key)
    rank = np.empty(len(key), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    merged = key[new]
    set_start = np.searchsorted(merged, np.arange(len(sets) + 1, dtype=np.int64) << 32)
    # row r holds the merged columns of its set
    length = np.diff(set_start)[row_set]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(length, out=indptr[1:])
    source = np.repeat(set_start[row_set] - indptr[:-1], length) + np.arange(indptr[-1])
    idx_dtype = np.int32 if max(indptr[-1], *shape) < 2 ** 31 else np.int64
    indices = (merged[source] & _LOW32).astype(idx_dtype)
    # entry (b, i, j): the row's start plus the rank of column j in the set
    indptr = indptr.astype(idx_dtype)
    slots, at = [], 0
    for (r, c), mine, lo in zip(index, members, offsets[:-1]):
        size = len(mine) * c.shape[1]
        local = (rank[at:at + size].reshape(len(mine), c.shape[1])
                 - set_start[set_of[mine], None]).astype(idx_dtype)
        at += size
        pair = np.searchsorted(set_block[mine],
                               (row_set[r] << 32) | (lo + np.arange(len(r)))[:, None])
        slots.append(indptr[r][..., None] + local[pair])
    return indptr, indices, slots


def sum_blocks(slots, blocks, n_entries: int) -> np.ndarray:
    """Pattern data of stacks of dense blocks, given the pattern positions of
    their entries (``block_pattern``), one stack per ``slots`` stack.

    The stacks are added in the order given, one ``np.add.at`` each, which
    adds a stack's blocks in order and each block in row-major order, as
    ``np.bincount`` would on the concatenated stacks; no stack is copied
    whole. Stacks that split a sequence of blocks into consecutive parts
    therefore give the same data bit for bit however they split it."""
    out = np.zeros(n_entries)
    for s, b in zip(slots, blocks):
        np.add.at(out, np.ravel(s), np.ravel(b))
    return out


def _starts(a: np.ndarray) -> np.ndarray:
    """Mask of the rows of sorted ``a`` that differ from the row before."""
    new = np.ones(len(a), dtype=bool)
    differ = a[1:] != a[:-1]
    new[1:] = differ if differ.ndim == 1 else differ.any(axis=1)
    return new


def _flat(parts, dtype) -> np.ndarray:
    """The raveled arrays end to end, as ``dtype`` at least; a single
    contiguous one of that type is not copied."""
    if len(parts) == 1:
        return np.ravel(parts[0]).astype(dtype, copy=False)
    return np.concatenate([np.ravel(p) for p in parts] + [np.zeros(0, dtype)])


def assemble(blocks, shape: tuple[int, int]) -> sps.csr_matrix:
    """Sum stacks of dense blocks into a sparse matrix: ``blocks`` yields
    ``(rows, cols, vals)`` stacks, placed by ``block_pattern`` and summed in
    the order given by ``sum_blocks``."""
    blocks = list(blocks)
    indptr, indices, slots = block_pattern([(r, c) for r, c, _ in blocks], shape)
    data = sum_blocks(slots, [v for _, _, v in blocks], len(indices))
    return sps.csr_matrix((data, indices, indptr), shape=shape)


@dataclass
class ThetaVector:
    space: ThetaSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.dim,):
            raise ValueError("coefficient vector length does not match the space")


@dataclass
class UVector:
    space: USpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.dim,):
            raise ValueError("coefficient vector length does not match the space")


_CHUNKS = 8           # chunks per vertex-count group, at most
_CHUNK_CELLS = 128    # cells per chunk, at least (a smaller group is one chunk)


def cell_chunks(ids: np.ndarray) -> list[np.ndarray]:
    """The cell ids of one vertex-count group in at most ``_CHUNKS``
    contiguous, near-equal chunks of at least ``_CHUNK_CELLS`` cells."""
    return np.array_split(ids, max(1, min(_CHUNKS, len(ids) // _CHUNK_CELLS)))


def _cpu_count() -> int:
    """The CPUs this process may run on (``taskset`` restricts them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:            # no affinity call on this platform
        return os.cpu_count() or 1


def map_chunks(fn, *stacks) -> list:
    """``[fn(*items) for items in zip(*stacks)]`` on the CPUs this process
    may run on: with n of them, the calling thread computes items 0, n,
    2n, ... and worker thread w the items w, w + n, ... Every item is
    computed as it would be alone, so the results do not depend on n. If
    items fail, the error of the first one is raised, as a serial map would
    raise it, once every worker has stopped."""
    items = list(zip(*stacks))
    n = max(1, min(_cpu_count(), len(items)))
    out = [None] * len(items)
    lock = threading.Lock()
    failed = [len(items), None]       # the first failing item and its error

    def share(start):
        for i in range(start, len(items), n):
            if failed[0] < i:         # a serial map would have stopped before i
                return
            try:
                out[i] = fn(*items[i])
            except BaseException as exc:      # raised again by the caller
                with lock:
                    if i < failed[0]:
                        failed[:] = i, exc
                return

    workers = [threading.Thread(target=share, args=(w,), daemon=True) for w in range(1, n)]
    for worker in workers:
        worker.start()
    try:
        share(0)
    finally:
        for worker in workers:
            worker.join()
    if failed[1] is not None:
        raise failed[1]
    return out


class Discretization:
    """Mesh + degree bundle: spaces, one stacked context per cell chunk
    (``elem_ctxs``: the chunks of each vertex count in cell-id order, by
    increasing count; see ``cell_chunks``) and one for all edges."""

    def __init__(self, mesh: PolygonalMesh, k: int, quad_boost: int = 0):
        if k < 0:
            raise ValueError("degree k must be >= 0")
        self.mesh = mesh
        self.k = k
        self.edge_ctx: EdgeContext = build_edge_context(mesh, k, 2 * k + 4 + quad_boost)
        self.elem_ctxs: list[ElementContext] = [
            ElementContext(mesh, chunk, k, self.edge_ctx, quad_boost)
            for ids, _ in cell_groups(mesh.cell_offsets) for chunk in cell_chunks(ids)]
        self.theta_space = ThetaSpace(mesh, k)
        self.u_space = USpace(mesh, k)


def at_points(fn, points: np.ndarray) -> np.ndarray:
    """A field evaluated once on stacked points (..., 2), reshaped to match."""
    vals = np.asarray(fn(points.reshape(-1, 2)), dtype=float)
    return vals.reshape(points.shape[:-1] + vals.shape[1:])


def interpolate_theta(disc: Discretization, eta, tangential_only: bool = False) -> ThetaVector:
    """DDR interpolate of a vector field: Roly/cRoly projections inside
    elements, componentwise L2 projections on edges. With tangential_only the
    edge normal components are dropped (the modified interpolator used in the
    commutation identity)."""
    sp = disc.theta_space
    k = disc.k
    out = np.zeros(sp.dim)
    for ctx in disc.elem_ctxs:
        if not sp.elem_dim:
            continue
        # the two components count as extra quadrature points
        vals = at_points(eta, ctx.qpoints).reshape(ctx.n_cells, -1, 1)
        # both tables from one monomial table, dropped once copied
        basis = np.empty(ctx.qweights.shape + (2, sp.elem_dim))
        roly, croly = ctx.rotation_tables()
        basis[..., :sp.n_roly] = np.swapaxes(roly, -1, -2)
        basis[..., sp.n_roly:] = np.swapaxes(croly, -1, -2)
        del roly, croly
        basis = basis.reshape(ctx.n_cells, -1, sp.elem_dim)
        elem = sp.elem_offset(ctx.ids)[:, None] + np.arange(sp.elem_dim)
        out[elem] = mass(np.repeat(ctx.qweights, 2, axis=1), vals, basis)[:, 0]
    ec, mesh = disc.edge_ctx, disc.mesh
    vals = at_points(eta, ec.points)
    edges = np.arange(mesh.n_edges)
    frames = [(mesh.edge_tangent, sp.edge_tangential_slots(edges))]
    if not tangential_only:
        frames.append((mesh.edge_normal, sp.edge_normal_slots(edges)))
    for direction, slots in frames:
        comp = (vals @ direction[:, :, None])[..., 0]
        out[slots] = mass(ec.weights, comp[..., None], ec.psi[:, :, :k + 1])[:, 0]
    return ThetaVector(sp, out)


def interpolate_u(disc: Discretization, v) -> UVector:
    """DDR interpolate of a C0 scalar field: P^{k-1} projections inside
    elements, k moments per edge, nodal values at vertices."""
    sp = disc.u_space
    out = np.zeros(sp.dim)
    if sp.elem_dim:
        for ctx in disc.elem_ctxs:
            vals = at_points(v, ctx.qpoints)
            elem = sp.elem_offset(ctx.ids)[:, None] + np.arange(sp.elem_dim)
            # the P^{k-1} members only, on the monomials of degree <= k - 1
            phi = ctx.scal.head(sp.elem_dim, sp.k - 1).values(
                scaled_monomials(ctx.qpoints, ctx.center, ctx.diameter, sp.k - 1))
            out[elem] = mass(ctx.qweights, vals[..., None], phi)[:, 0]
    if sp.edge_dim:
        ec = disc.edge_ctx
        vals = at_points(v, ec.points)
        slots = sp.edge_offset(np.arange(disc.mesh.n_edges))[:, None] + np.arange(sp.edge_dim)
        out[slots] = mass(ec.weights, vals[..., None], ec.psi[:, :, :sp.edge_dim])[:, 0]
    out[sp.vertex_offset(0):] = np.asarray(v(disc.mesh.vertex_coords), dtype=float)
    return UVector(sp, out)


def boundary_dof_sets(disc: Discretization) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet DOF indices: all DOFs of boundary edges for the rotation
    space; boundary vertex values and boundary edge moments for the
    displacement space."""
    sp_t, sp_u = disc.theta_space, disc.u_space
    mesh = disc.mesh
    bnd = np.asarray(mesh.boundary_edges, dtype=int)
    th = sp_t.edge_offset(bnd)[:, None] + np.arange(sp_t.edge_dim)
    uu = sp_u.edge_offset(bnd)[:, None] + np.arange(sp_u.edge_dim)
    verts = sp_u.vertex_offset(np.asarray(mesh.boundary_vertices, dtype=int))
    return np.sort(th.ravel()), np.sort(np.concatenate([uu.ravel(), verts]))
