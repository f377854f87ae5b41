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
on whole chunks, and ``map_chunks`` maps a function over the chunks on every
CPU the process may run on, one chunk at a time per CPU. Every global
matrix is summed from stacks of dense local blocks, stack by stack in the
order given, one ``np.add.at`` per stack: on all DOFs by ``sum_blocks``, on
the pattern of their union, the sorted keys of the blocks' entries
(``block_pattern``, and ``assemble`` on top of it); in a solve by its own
loop over the chunks, straight into the fronts of its Cholesky
factorization, at the positions its analysis gives (``cholesky.analyse``).
The stacks come in one order: the cell chunks in ``elem_ctxs`` order
(vertex counts increasing, cell ids increasing inside each), then any edge
stacks (at k = 0 the jump stacks, as ``build_jump_penalisation`` returns
them, which a solve splits into consecutive edge chunks). The chunks split
each group into consecutive id ranges, so neither the chunks nor the CPU
count change a bit of it. Where the contributions of several cells to a
shared DOF meet in a matrix, they meet in these sums: the fronts of a solve
(each cell's Schur-complemented block), its right-hand side, and the full
matrix. The k = 0 jump operator is summed apart, keyed by (edge, DOF): at
most two addends per entry (the edge's two cells, or its one cell and its
own unknowns on the boundary), which give the same bits in either order.
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


def block_pattern(index, shape: tuple[int, int]):
    """CSR pattern of the union of stacks of dense blocks, and the position
    in it of every block entry.

    ``index`` lists ``(rows, cols)`` stacks: (n, n_r) and (n, n_c) global
    indices. Every block entry has a place in the pattern, so the pattern
    depends on the index alone, never on values or their round-off: the
    entries' (row, column) keys, sorted without duplicates. Returns
    ``indptr``, ``indices`` (sorted, no duplicates) and, per stack, the
    (n, n_r, n_c) positions of its entries."""
    shapes = [r.shape + c.shape[1:] for r, c in index]
    merged, slot = np.unique(np.concatenate(
        [((r.astype(np.int64)[:, :, None] << 32) | c[:, None, :]).ravel() for r, c in index]
        + [np.zeros(0, np.int64)]), return_inverse=True)
    idx_dtype = np.int32 if max(len(merged), *shape) < 2 ** 31 else np.int64
    indptr = np.searchsorted(merged >> 32, np.arange(shape[0] + 1)).astype(idx_dtype)
    indices = (merged & 0xFFFFFFFF).astype(idx_dtype)
    slot = slot.astype(idx_dtype)
    ends = np.cumsum([0] + [np.prod(s) for s in shapes])
    return indptr, indices, [slot[lo:hi].reshape(s)
                             for s, lo, hi in zip(shapes, ends[:-1], ends[1:])]


def sum_blocks(slots, blocks, n_entries: int) -> np.ndarray:
    """Pattern data of stacks of dense blocks, given the pattern positions of
    their entries (from ``block_pattern``, or the fronts of a Cholesky
    factorization), one stack per ``slots`` stack.

    The stacks are added in the order given, one ``np.add.at`` each, which
    adds a stack's blocks in order and each block in row-major order, as
    ``np.bincount`` would on the concatenated stacks; no stack is copied
    whole. Stacks that split a sequence of blocks into consecutive parts
    therefore give the same data bit for bit however they split it."""
    out = np.zeros(n_entries)
    for at, b in zip(slots, blocks, strict=True):
        np.add.at(out, np.ravel(at), np.ravel(b))
    return out


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
