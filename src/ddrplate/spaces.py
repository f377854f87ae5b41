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
reproducible bit for bit. All global matrices are summed from dense local
blocks by ``assemble``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .mesh import Element, PolygonalMesh
from .polyspace import (ElementContext, EdgeContext, build_edge_context,
                        dim_P, dim_croly, dim_roly)


class ThetaSpace:
    def __init__(self, mesh: PolygonalMesh, k: int):
        self.mesh = mesh
        self.k = k
        self.n_roly = dim_roly(k - 1)
        self.n_croly = dim_croly(k)
        self.elem_dim = self.n_roly + self.n_croly
        self.edge_dim = 2 * (k + 1)
        self.dim = mesh.n_elements * self.elem_dim + mesh.n_edges * self.edge_dim

    def elem_offset(self, i: int) -> int:
        return i * self.elem_dim

    def edge_offset(self, e: int) -> int:
        return self.mesh.n_elements * self.elem_dim + e * self.edge_dim

    def edge_tangential_slots(self, e: int) -> np.ndarray:
        off = self.edge_offset(e)
        return np.arange(off, off + self.k + 1)

    def edge_normal_slots(self, e: int) -> np.ndarray:
        off = self.edge_offset(e) + self.k + 1
        return np.arange(off, off + self.k + 1)

    def local_dofs(self, element: Element) -> np.ndarray:
        """Global indices in the local layout [R, cR, (edge t, edge n) ...]."""
        idx = [np.arange(self.elem_offset(element.id),
                         self.elem_offset(element.id) + self.elem_dim)]
        for e in element.edges:
            off = self.edge_offset(e)
            idx.append(np.arange(off, off + self.edge_dim))
        return np.concatenate(idx).astype(int)


class USpace:
    def __init__(self, mesh: PolygonalMesh, k: int):
        self.mesh = mesh
        self.k = k
        self.elem_dim = dim_P(k - 1)
        self.edge_dim = k
        self.dim = (mesh.n_elements * self.elem_dim + mesh.n_edges * self.edge_dim
                    + mesh.n_vertices)

    def elem_offset(self, i: int) -> int:
        return i * self.elem_dim

    def edge_offset(self, e: int) -> int:
        return self.mesh.n_elements * self.elem_dim + e * self.edge_dim

    def vertex_offset(self, v: int) -> int:
        return (self.mesh.n_elements * self.elem_dim
                + self.mesh.n_edges * self.edge_dim + v)

    def local_dofs(self, element: Element) -> np.ndarray:
        """Global indices in the local layout [cell, edge moments..., vertex values...]."""
        idx = [np.arange(self.elem_offset(element.id),
                         self.elem_offset(element.id) + self.elem_dim)]
        for e in element.edges:
            off = self.edge_offset(e)
            idx.append(np.arange(off, off + self.edge_dim))
        idx.append(np.array([self.vertex_offset(v) for v in element.vertices], dtype=int))
        return np.concatenate(idx).astype(int)


def assemble(blocks, shape: tuple[int, int]) -> sps.csr_matrix:
    """Sum dense blocks into a sparse matrix.

    ``blocks`` yields ``(row_idx, col_idx, dense_block)`` triples. Entries
    are summed in the order given, so the same blocks in the same order give
    the same matrix bit for bit."""
    r_idx, c_idx, vals = [], [], []
    for r, c, block in blocks:
        r_idx.append(r)
        c_idx.append(c)
        vals.append(np.asarray(block).ravel())
    if not vals:
        return sps.csr_matrix(shape)
    # row-major order of each block, as np.meshgrid(..., indexing="ij"): entry
    # e of a block sits in its row e // n_c and column e % n_c; the index
    # arithmetic runs once over all blocks
    n_r = np.array([len(r) for r in r_idx])
    n_c = np.array([len(c) for c in c_idx])
    size = n_r * n_c
    pos = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    rows = np.repeat(np.concatenate(r_idx), np.repeat(n_c, n_r))
    cols = np.concatenate(c_idx)[np.repeat(np.cumsum(n_c) - n_c, size)
                                 + pos % np.repeat(n_c, size)]
    data = (np.concatenate(vals), (rows, cols))
    return sps.coo_matrix(data, shape=shape).tocsr()


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


class Discretization:
    """Mesh + degree bundle: spaces and per-entity bases/quadrature."""

    def __init__(self, mesh: PolygonalMesh, k: int, quad_boost: int = 0):
        if k < 0:
            raise ValueError("degree k must be >= 0")
        self.mesh = mesh
        self.k = k
        self.edge_ctxs: list[EdgeContext] = [
            build_edge_context(mesh, e, k, 2 * k + 4 + quad_boost) for e in mesh.edges]
        self.elem_ctxs: list[ElementContext] = [
            ElementContext(mesh, el, k, self.edge_ctxs, quad_boost)
            for el in mesh.elements]
        self.theta_space = ThetaSpace(mesh, k)
        self.u_space = USpace(mesh, k)


def interpolate_theta(disc: Discretization, eta, tangential_only: bool = False) -> ThetaVector:
    """DDR interpolate of a vector field: Roly/cRoly projections inside
    elements, componentwise L2 projections on edges. With tangential_only the
    edge normal components are dropped (the modified interpolator used in the
    commutation identity)."""
    sp = disc.theta_space
    k = disc.k
    out = np.zeros(sp.dim)
    for ctx in disc.elem_ctxs:
        vals = np.asarray(eta(ctx.qpoints), dtype=float)
        off = sp.elem_offset(ctx.element.id)
        if sp.n_roly:
            out[off:off + sp.n_roly] = np.einsum(
                "q,qc,qnc->n", ctx.qweights, vals, ctx.roly_vals)
        if sp.n_croly:
            out[off + sp.n_roly:off + sp.elem_dim] = np.einsum(
                "q,qc,qnc->n", ctx.qweights, vals,
                ctx.croly_vals[:, :sp.n_croly, :])
    for ctx in disc.edge_ctxs:
        vals = np.asarray(eta(ctx.points), dtype=float)
        tang = vals @ ctx.edge.tangent
        out[sp.edge_tangential_slots(ctx.edge.id)] = ctx.weights @ (
            tang[:, None] * ctx.psi[:, :k + 1])
        if not tangential_only:
            norm = vals @ ctx.edge.normal
            out[sp.edge_normal_slots(ctx.edge.id)] = ctx.weights @ (
                norm[:, None] * ctx.psi[:, :k + 1])
    return ThetaVector(sp, out)


def interpolate_theta_tangential(disc: Discretization, eta) -> ThetaVector:
    return interpolate_theta(disc, eta, tangential_only=True)


def interpolate_u(disc: Discretization, v) -> UVector:
    """DDR interpolate of a C0 scalar field: P^{k-1} projections inside
    elements, k moments per edge, nodal values at vertices."""
    sp = disc.u_space
    out = np.zeros(sp.dim)
    for ctx in disc.elem_ctxs:
        if sp.elem_dim:
            vals = np.asarray(v(ctx.qpoints), dtype=float)
            off = sp.elem_offset(ctx.element.id)
            out[off:off + sp.elem_dim] = ctx.integrate(
                vals[:, None] * ctx.phi[:, :sp.elem_dim])
    if sp.edge_dim:
        for ctx in disc.edge_ctxs:
            vals = np.asarray(v(ctx.points), dtype=float)
            off = sp.edge_offset(ctx.edge.id)
            out[off:off + sp.edge_dim] = ctx.weights @ (
                vals[:, None] * ctx.psi[:, :sp.edge_dim])
    out[sp.vertex_offset(0):] = np.asarray(v(disc.mesh.vertex_coords), dtype=float)
    return UVector(sp, out)


def boundary_dof_sets(disc: Discretization) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet DOF indices: all DOFs of boundary edges for the rotation
    space; boundary vertex values and boundary edge moments for the
    displacement space."""
    sp_t, sp_u = disc.theta_space, disc.u_space
    mesh = disc.mesh
    th = [np.arange(sp_t.edge_offset(e), sp_t.edge_offset(e) + sp_t.edge_dim)
          for e in mesh.boundary_edges]
    uu = [np.arange(sp_u.edge_offset(e), sp_u.edge_offset(e) + sp_u.edge_dim)
          for e in mesh.boundary_edges]
    uu.append(np.array([sp_u.vertex_offset(v) for v in mesh.boundary_vertices],
                       dtype=int))
    th_idx = np.sort(np.concatenate(th)) if th else np.array([], dtype=int)
    uu_idx = np.sort(np.concatenate(uu)) if uu else np.array([], dtype=int)
    return th_idx.astype(int), uu_idx.astype(int)
