"""Global assembly, boundary conditions, solve, norms and errors.

The expensive, material-independent pieces (symmetric-gradient and
divergence stiffness, stabilisation + jump, the shear form built from the DDR
L2 product and the global gradient) are kept once per (mesh, degree) as the
cell blocks they are summed from, and recombined with scalar material
factors per solve, so thickness and material sweeps reuse all local
constructions and every solve factors the same pattern. A solve sums only
the condensed matrix from the blocks, eliminates the element-interior DOFs
cell by cell (static condensation) and factors the Schur complement on the
remaining free DOFs, which are numbered once per mesh and degree by a
nested dissection of the mesh, by a supernodal Cholesky factorization whose
supernodes are the nodes of the separator tree (``cholesky``); no matrix on
all DOFs is formed.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
# no solve calls SuperLU since the Cholesky factorization replaced it; the
# benchmark's tracer (perfbench/tracing.py) still wraps this name
from scipy.sparse.linalg import splu

from .cholesky import _BLOCK, Cholesky, analyse
from .errors import SolverFailure, ZeroNormError
from .hho import _t, build_hho_packs, build_jump_penalisation, jump_form
from .operators import build_global_gradient, build_packs
from .polyspace import dim_P, mass
from .spaces import (Discretization, ThetaVector, UVector, at_points,
                     block_pattern, boundary_dof_sets, sum_blocks)

_GS_METRIC = np.array([1.0, 2.0, 1.0])   # contraction weights for [11, 12, 22]
_RESIDUAL_TOL = 1e-10                      # solver backward-error gate


@dataclass(frozen=True)
class MaterialParams:
    """Plate material: Young modulus, Poisson ratio, thickness and shear
    correction factor, with the derived bending/shear coefficients."""
    E: float = 1.0
    nu: float = 0.3
    t: float = 0.1
    kappa0: float = 5.0 / 6.0

    def __post_init__(self):
        if not 0.0 < self.E < np.inf:
            raise ValueError("Young modulus must be positive and finite")
        if not 0.0 <= self.nu < 0.5:
            raise ValueError("Poisson ratio must lie in [0, 1/2)")
        if not (0.0 < self.t < 1.0 and self.t ** 2 > 0.0):
            raise ValueError("thickness must lie in (0, 1), with t^2 > 0 in floating point")
        if not 0.0 < self.kappa0 < np.inf:
            raise ValueError("shear correction factor must be positive and finite")
        # the derived coefficients must be normal doubles: below the smallest
        # one they lose digits or vanish, and kappa = kappa0 E / (2 (1 + nu))
        # can overflow. kappa/t^2 >= kappa, as t < 1; an infinite one is left
        # to the solve, which reports it as an overflowing plate matrix
        tiny = np.finfo(float).tiny
        if not (self.beta0 >= tiny and tiny <= self.kappa < np.inf):
            raise ValueError(f"beta0 = {self.beta0:.3e} and kappa = {self.kappa:.3e} must be "
                             "normal doubles: rescale the material data")

    @property
    def beta0(self) -> float:
        return self.E / (12.0 * (1.0 + self.nu))

    @property
    def beta1(self) -> float:
        return self.E * self.nu / (12.0 * (1.0 - self.nu ** 2))

    @property
    def kappa(self) -> float:
        return self.kappa0 * self.E / (2.0 * (1.0 + self.nu))

    @property
    def mu(self) -> float:
        return min(self.kappa, self.beta0)

    @property
    def shear_over_t2(self) -> float:
        return self.kappa / self.t ** 2


@dataclass
class SolveReport:
    residual: float
    n_free: int
    refinement_steps: int = 0     # corrections applied after the first solve
    factor_nnz: int = 0           # entries of the Cholesky factor L (every node
                                  # block on and below the diagonal)
    local_cond: float = 0.0       # worst cond of the local P_T, P_U and P1 solves
    factor_s: float = 0.0         # wall time of the Cholesky factorization
    kff_nnz: int = 0              # stored entries of the factored matrix
    n_factored: int = 0           # size of the factored matrix: the free DOFs
                                  # less the element-interior ones
    # backward error after the first solve and after each correction
    backward_errors: list[float] = field(default_factory=list)
    # the nested-dissection order of the factored DOFs: method, tree depth,
    # DOFs of the top separator and tree nodes (the supernodes)
    ordering: dict = field(default_factory=dict)


def _interior_solve(kii: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked K_II^{-1} rhs of the element-interior blocks."""
    try:
        return np.linalg.solve(kii, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"element-interior solve failed: {exc}") from exc


def _sym(block: np.ndarray) -> np.ndarray:
    """The symmetric part of stacked square blocks, mirror entries equal bit
    for bit."""
    return 0.5 * (block + _t(block))


def _cell_blocks(p, h, g: np.ndarray, k: int):
    """The symmetrised s0 (symmetric gradient and stabilisation) and s1
    (divergence) blocks on the rotation DOFs of one chunk of cells, from its
    DDR pack ``p``, HHO pack ``h`` and local gradient ``g``, and its shear
    block [I, -G]^T M [I, -G] on [rotation DOFs, displacement DOFs]. M G and
    G^T M G come from the cell blocks, so no product drops an entry that
    cancels to 0.0."""
    np_k = dim_P(k)
    gs = [h.GS[:, b * np_k:(b + 1) * np_k] for b in range(3)]
    s0 = _sym(sum(_GS_METRIC[b] * _t(gs[b]) @ gs[b] for b in range(3)) + h.sT)
    s1 = _sym(_t(h.DD) @ h.DD)
    mg = p.M_theta @ g
    nt = mg.shape[1]
    shear = np.empty((len(mg), nt + g.shape[2], nt + g.shape[2]))
    shear[:, :nt, :nt] = p.M_theta      # build_local_pack symmetrises it
    shear[:, :nt, nt:] = -mg
    shear[:, nt:, :nt] = -_t(mg)
    shear[:, nt:, nt:] = _sym(_t(g) @ mg)
    return s0, s1, shear


def _cell_axis_fastest(blocks: np.ndarray) -> np.ndarray:
    """A copy of stacked blocks with the cell axis fastest in memory. numpy's
    matmul hands no such stack of two or more cells to BLAS: the stacked
    products of a solve with K_IB sum in numpy's own fixed order, whatever
    the BLAS build."""
    return np.moveaxis(np.moveaxis(blocks, 0, -1).copy(), -1, 0)


def _norm(v: np.ndarray) -> float:
    """2-norm of v, taken on v / max|v| so that no square overflows; NaN
    stays NaN."""
    s = float(np.max(np.abs(v), initial=0.0))
    return s * float(np.linalg.norm(v / s)) if 0.0 < s < np.inf else s


def _exponent(*vectors: np.ndarray) -> int:
    """The binary exponent e of the largest |entry| of the vectors, 0 when
    they are all zero or one is not finite: over 2^e, an exact scaling, that
    entry lies in [1/2, 1)."""
    return int(np.frexp(max(float(np.max(np.abs(v), initial=0.0)) for v in vectors))[1])


def _nested_dissection(indptr: np.ndarray, indices: np.ndarray, xy: np.ndarray,
                       weight: np.ndarray, cells: tuple[np.ndarray, np.ndarray, np.ndarray]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Separator tree of a mesh-entity graph (George, SIAM J. Numer. Anal.
    10, 1973): symmetric CSR pattern ``indptr``, ``indices``, the entities
    at the points ``xy`` with ``weight`` unknowns each, and ``cells`` the
    (entity, cell) incidence pairs and the cell centres.

    Level by level, every part holding more than ``cholesky._BLOCK``
    unknowns is bisected at the median coordinate along the longer side of
    its bounding box, the entities on the median staying on one side; a
    leaf is thus at most one pivot block of the factorization, whatever the
    degree. Two separators are tried: sides by entity coordinate, and sides
    by cell centre, where the entities of cells on both sides start the
    separator. Then the entities of one side with a neighbour on the other,
    from the side where they weigh less, complete it. The lighter of the
    two separators is kept, and the rest of each side is a child part.
    Returns the node of each entity, and the parent (-1 at the root) and
    depth of each node, the nodes numbered in postorder: ordering the
    entities by node eliminates every subtree before its separator, so an
    entry couples a node with an ancestor or itself."""
    n = len(xy)
    rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    upper = rows < indices                   # each graph edge once
    rows, cols = rows[upper], indices[upper]
    inc_entity, inc_cell, centres = cells
    centres = centres.ravel()
    node = np.zeros(n, dtype=np.int32)       # the part, then the node, of each entity
    parents, first = [np.array([-1])], [0, 1]     # first node id of each level
    codes = [np.array([1])]                  # 2 code(parent) + 0 (left) or 1 (right)
    active = np.arange(n)                    # the entities of parts still to split
    while active.size:
        # the parts of this level are the nodes first[-2] .. first[-1] - 1
        inv = node[active] - first[-2]
        n_parts = first[-1] - first[-2]
        size = np.bincount(inv, minlength=n_parts)
        unknowns = np.bincount(inv, weight[active], n_parts)
        lo, hi = np.full((2, n_parts), np.inf), np.full((2, n_parts), -np.inf)
        for d in range(2):                   # the bounding box of each part
            np.minimum.at(lo[d], inv, xy[active, d])
            np.maximum.at(hi[d], inv, xy[active, d])
        axis = np.argmax(hi - lo, axis=0)
        c = xy[active, axis[inv]]
        # by part, then by coordinate: the coordinate scaled into [0, 1/2]
        ext, lo = (hi - lo)[axis, np.arange(n_parts)], lo[axis, np.arange(n_parts)]
        order = np.argsort(inv + 0.5 * (c - lo[inv]) / np.maximum(ext, 1e-300)[inv])
        median = c[order[np.cumsum(size) - size + (size - 1) // 2]]
        left = c <= median[inv]
        top = (np.bincount(inv, left, n_parts) == size)[inv]   # the median is the largest
        left[top] = c[top] < median[inv][top]
        n_left = np.bincount(inv, left, n_parts)
        split = np.zeros(n, dtype=bool)
        split[active] = ((unknowns > _BLOCK) & (n_left > 0) & (n_left < size))[inv]
        part = np.zeros(n, dtype=np.int32)   # index of an active entity's part
        part[active] = inv
        keep = split[inc_entity]
        inc_entity, inc_cell = inc_entity[keep], inc_cell[keep]
        # sides 1 (left) and 2 (right), 0 for none: by the entity's coordinate,
        # and by the centres of its cells, 0 for an entity of cells on both
        by_coord = np.zeros(n, dtype=np.int8)
        by_coord[active] = 2 - left
        by_coord[~split] = 0
        by_cell = np.zeros(n, dtype=np.int8)
        at = part[inc_entity]
        right = centres[2 * inc_cell + axis[at]] > median[at]
        by_cell[inc_entity[~right]] = 1
        by_cell[inc_entity[right]] |= 2
        by_cell[by_cell == 3] = 0
        # both side codes of each edge's ends at once. The separators cut
        # every edge between parts, so the edges whose ends are both in
        # parts being split lie inside one part; the others are dropped
        both = by_coord | by_cell << 2
        a, b = both[rows], both[cols]
        keep = (a > 0) & (b > 0)
        rows, cols, ends = rows[keep], cols[keep], a[keep] | b[keep]
        costs = []                           # each candidate's separator is cut in place
        for side, cross in ((by_coord, (ends & 3) == 3), (by_cell, ends >> 2 == 3)):
            # the entities of one side with a neighbour across, from the
            # side where they weigh less
            across = np.zeros(n, dtype=bool)
            across[rows[cross]] = across[cols[cross]] = True
            across = np.flatnonzero(across)
            cost = np.bincount(3 * part[across] + side[across], weight[across], 3 * n_parts)
            lighter = 1 + (cost[2::3] < cost[1::3])
            side[across[side[across] == lighter[part[across]]]] = 0
            # the separator's weight, where it leaves entities on both sides
            count = np.bincount(3 * inv + side[active], minlength=3 * n_parts)
            cut = np.bincount(inv, weight[active] * (side[active] == 0), n_parts)
            costs.append(np.where((count[1::3] > 0) & (count[2::3] > 0), cut, np.inf))
        side = np.where(split & (costs[1] < costs[0])[part], by_cell, by_coord)
        # the rest of each side is a child part, left before right
        moved = active[side[active] > 0]
        key = 2 * part[moved] + side[moved] - 1
        kids = np.bincount(key, minlength=2 * n_parts) > 0
        kid = np.flatnonzero(kids)
        parents.append(first[-2] + kid // 2)
        codes.append(2 * codes[-1][kid // 2] + kid % 2)
        node[moved] = first[-1] + (np.cumsum(kids) - 1)[key]
        first.append(first[-1] + np.count_nonzero(kids))
        active = moved
    parent = np.concatenate(parents)
    # postorder: sort the nodes by the last leaf of their subtree in the full
    # binary tree of the same depth, deeper first
    depth = np.repeat(np.arange(len(first) - 1), np.diff(first))
    code = np.concatenate(codes)
    rank = np.empty_like(code)
    rank[np.lexsort((-depth, ((code + 1) << (depth.max() - depth)) - 1))] = np.arange(len(code))
    parent[1:] = rank[parent[1:]]
    out, out_depth = np.empty_like(parent), np.empty_like(depth)
    out[rank], out_depth[rank] = parent, depth
    return rank[node], out, out_depth


@dataclass
class CellBlocks:
    """The kept blocks of one cell chunk, each array with a leading cell
    axis. The local DOFs are the rotation DOFs, then the displacement DOFs,
    in the local layouts; I are the element-interior ones and B the others."""
    dofs: np.ndarray      # (n, m) global DOFs
    s0: np.ndarray        # (n, nt, nt) symmetric gradient and stabilisation
    s1: np.ndarray        # (n, nt, nt) divergence
    shear: np.ndarray     # (n, m, m) [I, -G]^T M [I, -G]
    inner: np.ndarray     # local positions of I: the rotation ones first
    outer: np.ndarray     # local positions of B: the rotation ones first
    rows: np.ndarray      # (n, nB) condensed index of each B DOF, n_c if Dirichlet
    at: np.ndarray        # (n, nB, nB) position of each B x B entry in the
                          # condensed data, one past the last if Dirichlet


class PlateSystem:
    """Material-independent discrete operators for one mesh and degree.

    The plate matrix is ``beta0 * s0 + beta1 * s1 + (kappa/t^2) * s2``, and
    it is kept as the symmetrised cell blocks it is summed from, one
    ``CellBlocks`` per chunk of ``disc.elem_ctxs``: s0 (symmetric-gradient
    form and stabilisation) and s1 (divergence form) on the rotation DOFs,
    s2 (the shear form [I, -G]^T M [I, -G]) on all the cell's DOFs, and at
    k = 0 the jump's edge stacks, which join s0. The ``factored`` DOFs (the
    free ones less the element interiors, which couple only inside their own
    cell) are listed in a nested-dissection order of the mesh edges and
    vertices that hold them, with its ``separator_tree`` and the
    ``ordering`` record every solve reports. The condensed matrix on them
    has one CSC pattern in that order, and each block keeps the positions
    of its B x B entries in it; the symbolic analysis of its Cholesky
    factorization on the separator tree is done once too. A solve sums the
    condensed data from the blocks, eliminates the interiors cell by cell
    and factors only the Schur complement; no matrix on all DOFs is formed
    (``full_matrix`` assembles one on demand)."""

    def __init__(self, disc: Discretization):
        self.disc = disc
        packs = build_packs(disc)
        hho = build_hho_packs(disc, packs)
        # the displacement reconstructions are all the load vector needs
        self.PU = [pack.PU for pack in packs]
        # worst condition number of the local P_T, P_U and strain-reconstruction systems
        self.local_cond = max(pack.cond for pack in packs + hho)
        self.n_theta, self.n_u = disc.theta_space.dim, disc.u_space.dim
        n = self.n_theta + self.n_u

        self.G, cell_G = build_global_gradient(disc, packs)
        blocks = [(np.concatenate([t_dofs, self.n_theta + u_dofs], axis=1),)
                  + _cell_blocks(p, h, g, disc.k)
                  for p, h, (t_dofs, u_dofs, g) in zip(packs, hho, cell_G)]
        # k = 0: the jump operator's edge stacks, whose form joins s0
        jump = build_jump_penalisation(disc, packs, hho) if disc.k == 0 else []
        del packs, hho, cell_G                  # every block is built
        # the sums of a solve start from 0.0, which turns a -0.0 addend into
        # 0.0: so do the kept cell blocks, and an entry with one addend
        # (every entry of an interior row) is its block entry bit for bit
        for block in [b for _, *bs in blocks for b in bs]:
            block += 0.0

        th_d, u_d = boundary_dof_sets(disc)
        dir_mask = np.zeros(n, dtype=bool)
        dir_mask[th_d] = True
        dir_mask[self.n_theta + u_d] = True
        self.dirichlet_mask = dir_mask
        is_free = ~dir_mask
        self.free = np.flatnonzero(is_free)
        # the element-interior DOFs (the Roly^{k-1} and cRoly^k slots of the
        # rotation, the P^{k-1} slots of the displacement) couple only inside
        # their own cell: a solve eliminates them cell by cell and factors
        # the Schur complement on the other free DOFs, the factored ones
        mesh = disc.mesh
        n_el, te, ue = mesh.n_elements, disc.theta_space.elem_dim, disc.u_space.elem_dim
        factored = is_free.copy()
        factored[:n_el * te] = False
        factored[self.n_theta:self.n_theta + n_el * ue] = False
        fac = np.flatnonzero(factored)
        n_c = fac.size
        # the pattern of the B x B entries of the blocks, on the factored
        # DOFs in their original order and then the Dirichlet ones, whose
        # rows and columns are dropped below
        compact = np.full(n, -1)
        compact[fac] = np.arange(n_c)
        compact[dir_mask] = n_c + np.arange(n - self.free.size)
        n_b = n_c + n - self.free.size
        split = []
        for dofs, s0, _, _ in blocks:
            nt = s0.shape[1]
            inner = np.r_[:te, nt:nt + ue]
            split.append((inner, np.setdiff1d(np.arange(dofs.shape[1]), inner)))
        index = ([compact[dofs[:, outer]] for (dofs, *_), (_, outer) in zip(blocks, split)]
                 + [compact[idx] for idx, _, _ in jump])
        indptr, indices, slots = block_pattern([(i, i) for i in index], (n_b, n_b))
        del index
        # nested-dissection order of the factored DOFs, on the graph of the
        # mesh entities that hold them: the DOFs of one edge or one vertex
        # share their pattern row, so one representative DOF per entity
        # gives the graph, and the DOFs of an entity stay together
        ne = mesh.n_edges
        entity = np.concatenate([
            np.full(n_el * te, -1), np.repeat(np.arange(ne), disc.theta_space.edge_dim),
            np.full(n_el * ue, -1), np.repeat(np.arange(ne), disc.u_space.edge_dim),
            ne + np.arange(mesh.n_vertices)])[factored]
        ents, rep, which = np.unique(entity, return_index=True, return_inverse=True)
        graph = sps.csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr),
                               shape=(n_b, n_b))[rep][:, rep]
        xy = np.concatenate([mesh.vertex_coords[mesh.edge_vertices].mean(axis=1),
                             mesh.vertex_coords])[ents]
        cell_of = np.repeat(np.arange(n_el), np.diff(mesh.cell_offsets))
        local = np.full(ne + mesh.n_vertices, -1)
        local[ents] = np.arange(ents.size)
        incidence = local[np.r_[mesh.cell_edges, ne + mesh.cell_vertices]]
        on = incidence >= 0
        size = np.bincount(which)
        node, parent, depth = _nested_dissection(
            graph.indptr, graph.indices, xy, size,
            (incidence[on], np.r_[cell_of, cell_of][on], mesh.cell_center))
        # inside a node the entities run along the longer side of its
        # bounding box, so that those a subtree touches are mostly
        # consecutive and the factorization moves its updates in long runs
        n_nodes = len(parent)
        lo, hi = np.full((2, n_nodes), np.inf), np.full((2, n_nodes), -np.inf)
        for d in range(2):
            np.minimum.at(lo[d], node, xy[:, d])
            np.maximum.at(hi[d], node, xy[:, d])
        along = xy[np.arange(len(xy)), np.argmax(hi - lo, axis=0)[node]]
        entity_order = np.lexsort((np.arange(len(xy)), along, node))
        position = np.empty_like(entity_order)
        position[entity_order] = np.arange(len(xy))
        order = np.argsort(position[which], kind="stable")
        self.factored = fac[order]
        # the separator-tree node of each factored DOF, nondecreasing, and the
        # parent of each node (the root, last, has -1)
        self.separator_tree = node[which[order]], parent
        self.ordering = {
            "method": "nested dissection", "depth": int(depth.max()),
            "top_separator": int(np.count_nonzero(self.separator_tree[0] == len(parent) - 1)),
            "supernodes": len(parent)}

        # the condensed pattern in the new numbering, with each entry's
        # position (plus one, so none is zero) as its data, in a CSC layout
        # that sorts the row indices inside each column; the entries of a
        # Dirichlet row or column go to one discarded slot past the last
        moved = sps.csr_matrix((np.arange(1, len(indices) + 1), indices, indptr),
                               shape=(n_b, n_b))[order][:, order].tocsc()
        self._indptr, self._indices = moved.indptr, moved.indices
        new_at = np.full(len(indices), moved.nnz, dtype=self._indices.dtype)
        new_at[moved.data - 1] = np.arange(moved.nnz)
        del indptr, indices, moved
        # the fronts of the Cholesky factorization, from the entity graph
        # in the order of the factored DOFs
        graph = graph[entity_order][:, entity_order]
        graph.sort_indices()
        self._supernodes = analyse(graph.indptr, graph.indices, node[entity_order],
                                   size[entity_order], parent, depth)
        del graph
        rank = np.full(n, n_c)
        rank[self.factored] = np.arange(n_c)
        self._blocks = [CellBlocks(dofs, s0, s1, shear, inner, outer, rank[dofs[:, outer]],
                                   new_at[at])
                        for (dofs, s0, s1, shear), (inner, outer), at
                        in zip(blocks, split, slots)]
        # the k = 0 jump, per stack: the global rotation DOFs, J_E and h_E
        # (the form's blocks are jump_form(J_E, h_E), formed where summed),
        # and the positions of the blocks' entries in the condensed data
        self._jump = [(idx, J, h, new_at[at])
                      for (idx, J, h), at in zip(jump, slots[len(blocks):])]

    # -- bilinear forms -----------------------------------------------------

    def full_matrix(self, material: MaterialParams) -> sps.csr_matrix:
        """Global matrix of a_h + b_h: bending (beta0, beta1) plus the shear
        coupling kappa/t^2 between rotations and displacement gradients.
        Assembled on demand from the kept blocks (no solve forms it): each
        form summed on the pattern of all the blocks, the cell chunks then
        the k = 0 jump stacks, and combined as ``(beta0 s0 + beta1 s1) +
        (kappa/t^2) s2``, so it is symmetric bit for bit."""
        return self._assemble(material)

    def _assemble(self, material: MaterialParams, touching: np.ndarray | None = None
                  ) -> sps.csr_matrix:
        """``full_matrix``, or with a DOF mask ``touching`` only the blocks of
        the cells and k = 0 edges that hold one of those DOFs. Every block
        that adds to a column of such a DOF is there, in the same order, so
        that column equals the one of ``full_matrix`` bit for bit."""
        n = self.n_theta + self.n_u
        blocks = [(b.dofs, b.s0, b.s1, b.shear) for b in self._blocks]
        jump = [(idx, J, h) for idx, J, h, _ in self._jump]
        if touching is not None:
            blocks = [tuple(a[touching[blk[0]].any(axis=1)] for a in blk) for blk in blocks]
            jump = [tuple(a[touching[blk[0]].any(axis=1)] for a in blk) for blk in jump]
        indptr, indices, slots = block_pattern(
            [(dofs, dofs) for dofs, *_ in blocks + jump], (n, n))
        cells = slots[:len(blocks)]
        rot = [at[:, :s0.shape[1], :s0.shape[1]] for at, (_, s0, _, _) in zip(cells, blocks)]
        data = sum_blocks(rot + slots[len(blocks):],
                          [s0 for _, s0, _, _ in blocks]
                          + [jump_form(J, h) for _, J, h in jump], len(indices))
        data *= material.beta0
        for scale, stacks, vals in ((material.beta1, rot, [s1 for _, _, s1, _ in blocks]),
                                    (material.shear_over_t2, cells, [s2 for *_, s2 in blocks])):
            term = sum_blocks(stacks, vals, len(indices))
            term *= scale
            data += term
        return sps.csr_matrix((data, indices, indptr), shape=(n, n))

    def condensed_matrix(self, material: MaterialParams) -> sps.csc_matrix:
        """K on the factored DOFs, in their nested-dissection order, before
        the interiors are eliminated: s0, s1 and s2 summed from the B x B
        entries of the blocks (the cell chunks, then the k = 0 jump stacks)
        and combined as in ``full_matrix``. Each entry has the same addends
        in the same order as there, so it equals the factored slice of
        ``full_matrix`` bit for bit."""
        blocks, jump = self._blocks, self._jump
        nnz = len(self._indices)
        te = self.disc.theta_space.elem_dim      # the interior rotation DOFs lead
        rot = [b.at[:, :b.s0.shape[1] - te, :b.s0.shape[1] - te] for b in blocks]
        data = sum_blocks(rot + [at for *_, at in jump],
                          [b.s0[:, te:, te:] for b in blocks]
                          + [jump_form(J, h) for _, J, h, _ in jump], nnz + 1)
        data *= material.beta0
        for scale, stacks, vals in (
                (material.beta1, rot, (b.s1[:, te:, te:] for b in blocks)),
                (material.shear_over_t2, [b.at for b in blocks],
                 (b.shear[:, b.outer[:, None], b.outer] for b in blocks))):
            term = sum_blocks(stacks, vals, nnz + 1)
            term *= scale
            data += term
        n_c = self.factored.size
        return sps.csc_matrix((data[:-1], self._indices, self._indptr), shape=(n_c, n_c))

    def _matvec(self, scales: tuple[float, float, float], x: np.ndarray) -> np.ndarray:
        """K x for K = beta0 s0 + beta1 s1 + (kappa/t^2) s2, ``scales`` the
        three factors: stacked products with the kept blocks, scattered by
        one ``np.bincount``."""
        beta0, beta1, c = scales
        at, vals = [], []
        for b in self._blocks:
            nt = b.s0.shape[1]
            xt = x[b.dofs][..., None]
            y = c * (b.shear @ xt)
            y[:, :nt] += beta0 * (b.s0 @ xt[:, :nt]) + beta1 * (b.s1 @ xt[:, :nt])
            at.append(b.dofs.ravel())
            vals.append(y.ravel())
        for idx, J, h, _ in self._jump:
            at.append(idx.ravel())
            vals.append((beta0 / h[:, None, None] * (_t(J) @ (J @ x[idx][..., None]))).ravel())
        return np.bincount(np.concatenate(at), np.concatenate(vals), len(x))

    def _interior_rows(self, b: CellBlocks, scales: tuple[float, float, float]):
        """K_II and K_IB of one chunk, combined from its blocks as
        ``condensed_matrix`` combines the sums. Only their own cell adds to
        the interior rows, so they equal the slices of ``full_matrix`` bit
        for bit."""
        beta0, beta1, c = scales
        te = self.disc.theta_space.elem_dim
        rows = np.zeros((len(b.dofs), len(b.inner), b.dofs.shape[1]))
        rows[:, :te, :b.s0.shape[1]] = beta0 * b.s0[:, :te] + beta1 * b.s1[:, :te]
        rows += c * b.shear[:, b.inner]
        return _cell_axis_fastest(rows[:, :, b.inner]), _cell_axis_fastest(rows[:, :, b.outer])

    def load_vector(self, f) -> np.ndarray:
        """l_h(v) = sum_T int_T f * (displacement reconstruction of v)."""
        sp_u = self.disc.u_space
        np_k1 = dim_P(self.disc.k + 1)
        idx, vals = [], []
        for ctx, PU in zip(self.disc.elem_ctxs, self.PU):
            fv = at_points(f, ctx.qpoints)
            coef = mass(ctx.qweights, fv[..., None], ctx.phi[:, :, :np_k1])
            idx.append(sp_u.local_dofs(ctx).ravel())
            vals.append((coef @ PU)[:, 0].ravel())
        out = np.zeros(self.n_theta + self.n_u)
        out[self.n_theta:] = np.bincount(np.concatenate(idx), np.concatenate(vals),
                                         self.n_u)
        return out

    # -- solve ---------------------------------------------------------------

    def solve(self, material: MaterialParams, load: np.ndarray,
              dirichlet_values: np.ndarray | None = None
              ) -> tuple[ThetaVector, UVector, SolveReport]:
        """Eliminate Dirichlet DOFs (their entries of ``dirichlet_values``,
        such as the interpolated exact traces, or zero without it), condense
        the element interiors, factor the Schur complement, back-substitute,
        and verify the backward error on the full reduced system K_ff. A K
        whose norm overflows is a ``SolverFailure`` before any elimination."""
        n = self.n_theta + self.n_u
        x = np.zeros(n)
        if dirichlet_values is not None:
            x[self.dirichlet_mask] = dirichlet_values[self.dirichlet_mask]
        free = self.free
        report = SolveReport(residual=0.0, n_free=free.size, local_cond=self.local_cond)
        if free.size:
            scales = (material.beta0, material.beta1, material.shear_over_t2)
            n_c = report.n_factored = self.factored.size
            # all the solve takes from K, all from the kept blocks: the
            # Dirichlet lift (none where x_D = 0; otherwise the columns of
            # full_matrix, bit for bit, from the cells on Dirichlet DOFs), the
            # condensed data, the interior blocks K_II and K_IB per chunk, and
            # ||K||, the largest row sum of |K| over the free rows and
            # columns. On a factored row that is the condensed data's (which
            # is symmetric: its column sums) plus the interior columns'; on an
            # interior row, its own cell's. Material data near the top of the
            # double range can overflow K or ||K||: the check below reports
            # it, with no warning on the way
            with np.errstate(over="ignore", invalid="ignore"):
                if x.any():
                    rhs = load - self._assemble(material, self.dirichlet_mask) @ x
                else:
                    rhs = load.copy()
                rhs[self.dirichlet_mask] = 0.0
                Ks = self.condensed_matrix(material)
                sums = np.zeros(n_c + 1)         # the last entry stands for Dirichlet DOFs
                if n_c:
                    sums[:-1] = np.add.reduceat(np.abs(Ks.data), Ks.indptr[:-1])
                condensing, tops = [], []
                for b in self._blocks:
                    if not b.inner.size:         # k = 0: no interior DOFs
                        break
                    kii, kib = self._interior_rows(b, scales)
                    condensing.append((b, kii, kib))
                    a = np.abs(kib)
                    sums += np.bincount(b.rows.ravel(), a.sum(axis=1).ravel(), n_c + 1)
                    a = np.where((b.rows < n_c)[:, None], a, 0.0)    # the free columns
                    tops.append(np.max(np.abs(kii).sum(axis=2) + a.sum(axis=2)))
                knorm = float(np.max(np.r_[sums[:-1], tops], initial=0.0))
            if not np.isfinite(knorm):
                raise SolverFailure(f"the plate matrix overflows: ||K|| = {knorm}")
            # relative residual = normwise backward error on the full K_ff,
            # ||r|| / (||K|| ||x|| + ||b||); the naive ||r||/||b|| is floored at
            # eps*||K||*||x||/||b|| by cancellation in K@x when kappa/t^2 is
            # large, which says nothing about the factorization quality. It
            # does not change when K and b are scaled together, so r and b are
            # taken over ||K||, and every norm on a scaled vector
            rhs_norm = _norm(rhs / knorm)
            # eliminate the interior DOFs: per chunk one stacked solve
            # K_II^{-1} [K_IB | r_I], and the Schur blocks K_BI K_II^{-1} K_IB
            # subtracted from the condensed matrix, summed chunk by chunk
            interior, ys = [], []
            for b, kii, kib in condensing:
                X = _interior_solve(kii, np.concatenate(
                    [kib, rhs[b.dofs[:, b.inner]][..., None]], axis=2))
                interior.append((b, kii, kib, X[..., :-1]))
                ys.append(X[..., -1])
            del condensing
            if interior:
                # each cell's Schur block symmetrised, so that the condensed
                # matrix is symmetric bit for bit and its lower triangle,
                # which the factorization reads, is all of it
                Ks.data -= sum_blocks([b.at for b, _, _, _ in interior],
                                      (_sym(_t(kib) @ xb) for _, _, kib, xb in interior),
                                      Ks.nnz + 1)[:-1]
            chol = None
            if n_c:
                # no symmetric scaling D K D: it would only rescale the
                # factor, D L, and a pivot that is not positive fails alike
                started = time.perf_counter()
                chol = Cholesky(self._supernodes, Ks)
                report.factor_s = time.perf_counter() - started
                report.factor_nnz, report.kff_nnz = chol.nnz, int(Ks.nnz)
                report.ordering = copy.deepcopy(self.ordering)
            del Ks

            def free_solve(r, ys=None):
                """K_ff^{-1} r on the free DOFs, zero on the others; ``ys``
                holds K_II^{-1} r_I per chunk when it is known. The condensed
                system gives x_B, then x_I = K_II^{-1} (r_I - K_IB x_B)."""
                if ys is None:
                    ys = [_interior_solve(kii, r[b.dofs[:, b.inner]][..., None])[..., 0]
                          for b, kii, _, _ in interior]
                rc = r[self.factored]
                if ys:
                    rc -= sum_blocks([b.rows for b, _, _, _ in interior],
                                     (y[:, None] @ kib for (_, _, kib, _), y in zip(interior, ys)),
                                     n_c + 1)[:-1]
                xc = np.zeros(n_c + 1)          # the last entry stands for Dirichlet DOFs
                if chol is not None:
                    xc[:-1] = chol.solve(rc)
                out = np.zeros(n)
                out[self.factored] = xc[:-1]
                for (b, _, _, xb), y in zip(interior, ys):
                    out[b.dofs[:, b.inner]] = y - (xb @ xc[b.rows, None])[..., 0]
                return out

            x += free_solve(rhs, ys)

            def residual():
                r = load - self._matvec(scales, x)
                r[self.dirichlet_mask] = 0.0
                den = _norm(x[free]) + rhs_norm
                return r, _norm(r / knorm) / max(den, 1e-300)

            r, error = residual()
            errors = report.backward_errors
            errors.append(error)
            while not errors[-1] <= 0.01 * _RESIDUAL_TOL and report.refinement_steps < 8:
                x += free_solve(r)
                r, error = residual()
                report.refinement_steps += 1
                errors.append(error)
            if not np.all(np.isfinite(x[free])):
                raise SolverFailure("solver produced non-finite values")
            report.residual = errors[-1]
            if not report.residual <= _RESIDUAL_TOL:          # NaN fails too
                raise SolverFailure(
                    f"solver residual {report.residual:.3e} above {_RESIDUAL_TOL:.1e}")
        theta = ThetaVector(self.disc.theta_space, x[:self.n_theta])
        u = UVector(self.disc.u_space, x[self.n_theta:])
        return theta, u, report

    # -- norms and errors ----------------------------------------------------

    def energy_norm(self, material: MaterialParams, theta: np.ndarray,
                    u: np.ndarray) -> float:
        """Energy norm of (theta, u), taken on the vectors over 2^e (see
        ``_exponent``) and scaled back, so that no square overflows."""
        theta, u = np.asarray(theta, dtype=float), np.asarray(u, dtype=float)
        e = _exponent(theta, u)
        sq = self._energy_squares(material, np.ldexp(theta, -e)[:, None],
                                  np.ldexp(u, -e)[:, None])
        return float(np.ldexp(np.sqrt(max(sq[0], 0.0)), e))

    def relative_error(self, material: MaterialParams,
                       theta: ThetaVector, u: UVector,
                       theta_ref: ThetaVector, u_ref: UVector) -> float:
        """Energy norm of the error over that of the reference, both taken
        on the vectors over 2^e, e the exponent of the reference's largest
        entry: the ratio is the same bit for bit, and no square overflows
        unless the error is some 1e150 times the reference. A zero or
        non-finite norm is a ``ZeroNormError``."""
        e = _exponent(theta_ref.values, u_ref.values)
        with np.errstate(over="ignore", invalid="ignore"):
            sq = self._energy_squares(
                material,
                np.ldexp(np.stack([theta_ref.values, theta.values - theta_ref.values], axis=1), -e),
                np.ldexp(np.stack([u_ref.values, u.values - u_ref.values], axis=1), -e))
            den, num = np.sqrt(np.maximum(sq, 0.0))
        if not (1e-300 <= den < np.inf and np.isfinite(num)):
            raise ZeroNormError(f"relative energy error undefined: exact-solution interpolate "
                                f"norm {np.ldexp(den, e):.3e}, error norm {np.ldexp(num, e):.3e}")
        return float(num / den)

    def _energy_squares(self, material: MaterialParams, eta: np.ndarray,
                        v: np.ndarray) -> np.ndarray:
        """Squared energy norms of the columns of eta (n_theta, j) and v
        (n_u, j): the bending form plus mu M on eta, and the shear strain
        eta - G v and the gradient G v in the DDR L2 product M (the rotation
        block of s2), cell by cell."""
        g = self.G @ v
        z = np.hstack([eta - g, g])   # the shear strain, formed before the product
        beta0, beta1, mu = material.beta0, material.beta1, material.mu
        j = eta.shape[1]

        def form(A, w):
            # w^T A w per column, for stacked blocks A and stacked vectors w
            return (w * (A @ w)).sum(axis=(0, 1))

        bend, shear = np.zeros(j), np.zeros(2 * j)
        for b in self._blocks:
            nt = b.s0.shape[1]
            dofs, M = b.dofs[:, :nt], b.shear[:, :nt, :nt]
            bend += form(beta0 * b.s0 + beta1 * b.s1 + mu * M, eta[dofs])
            shear += form(M, z[dofs])
        for idx, J, h, _ in self._jump:
            bend += beta0 * ((J @ eta[idx]) ** 2 / h[:, None, None]).sum(axis=(0, 1))
        return bend + material.shear_over_t2 * shear[:j] + mu * shear[j:]
