"""Global assembly, boundary conditions, solve, norms and errors.

The expensive, material-independent pieces (symmetric-gradient and
divergence stiffness, stabilisation + jump, the shear form built from the DDR
L2 product and the global gradient) are kept once per (mesh, degree) as the
cell blocks they are summed from, and recombined with scalar material
factors per solve, so thickness and material sweeps reuse all local
constructions and every solve factors the same pattern. Each chunk's local
tables are built and reduced to its kept blocks by one function, on one
CPU, and dropped there. A solve forms each cell's matrix from its blocks
once, eliminates the element-interior DOFs cell by cell (static
condensation) and factors the Schur complement on the remaining free DOFs,
which are numbered once per mesh and degree by a nested dissection of the
mesh, by a supernodal Cholesky factorization whose supernodes are the nodes
of the separator tree (``cholesky``). Each chunk's Schur-complemented
blocks are summed straight into the fronts of that factorization before the
next chunk's are formed, at positions found from the graph entry of the two
mesh entities of each block entry; no other matrix is formed.
"""

from __future__ import annotations

import copy
import functools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
# no solve calls SuperLU since the Cholesky factorization replaced it; the
# benchmark's tracer (perfbench/tracing.py) still wraps this name
from scipy.sparse.linalg import splu

from .cholesky import _BLOCK, Cholesky, analyse
from .errors import SolverFailure, ZeroNormError
from .hho import _t, build_hho_pack, build_jump_penalisation, jump_form, jump_restriction
from .operators import assemble_gradient, build_local_pack, gradient_rows
from .polyspace import dim_P, mass
from .spaces import (Discretization, ThetaVector, UVector, at_points, block_pattern,
                     boundary_dof_sets, cell_chunks, map_chunks, sum_blocks)

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
    condense_s: float = 0.0       # wall time from the first cell matrix K_T
                                  # to the assembled fronts
    factor_s: float = 0.0         # wall time of the Cholesky factorization
    kff_nnz: int = 0              # entries of the factored matrix's pattern,
                                  # both triangles
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


def _local_blocks(disc: Discretization, ctx) -> tuple:
    """The local tables of one cell chunk, reduced to what the build keeps:
    its global DOFs and cell blocks (``_cell_blocks``), its displacement
    reconstructions P_U, the worst condition number of its local systems,
    its element block of G (``gradient_rows``) and at k = 0 its
    ``jump_restriction``. The tables are dropped when it returns, on the
    thread that built them, so each CPU holds one chunk's tables at most."""
    pack = build_local_pack(ctx)
    hho = build_hho_pack(ctx, pack)
    gradient, (t_dofs, u_dofs, g) = gradient_rows(disc, ctx, pack)
    blocks = _cell_blocks(pack, hho, g, disc.k)
    # the sums of a solve start from 0.0, which turns a -0.0 addend into
    # 0.0: so do the kept cell blocks, and an entry with one addend
    # (every entry of an interior row) is its block entry bit for bit
    for block in blocks:
        block += 0.0
    return ((np.concatenate([t_dofs, disc.theta_space.dim + u_dofs], axis=1),) + blocks,
            pack.PU, max(pack.cond, hho.cond), gradient,
            jump_restriction(ctx, pack, hho) if disc.k == 0 else None)


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


def _free_row_sums(dofs: np.ndarray, blocks: np.ndarray, dirichlet: np.ndarray) -> np.ndarray:
    """The row sums of |K| for the stacked blocks K on the DOFs ``dofs``,
    over their columns that are not ``dirichlet``, per block row."""
    free = (~dirichlet[dofs]).astype(float)
    return np.einsum("ijk,ik->ij", np.abs(blocks), free)


def _matrix_norm(sums: np.ndarray, free: np.ndarray) -> float:
    """||K|| from the free row sums of |K| so far: their largest; a
    ``SolverFailure`` if it overflows."""
    knorm = float(np.max(sums[free], initial=0.0))
    if not np.isfinite(knorm):
        raise SolverFailure(f"the plate matrix overflows: ||K|| = {knorm}")
    return knorm


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


def _entity_groups(entity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the entities (n, m) of the DOFs of a stack of blocks: one
    position of each group of positions that hold the same entity in every
    block, and the group of each position."""
    rep = np.arange(entity.shape[1])
    if len(entity):
        _, first, inverse = np.unique(entity[0], return_index=True, return_inverse=True)
        same = np.all(entity[:, first[inverse]] == entity, axis=0)
        rep[same] = first[inverse][same]
    return np.unique(rep, return_inverse=True)


def _entity_slots(dofs: np.ndarray, entity: np.ndarray, rank: np.ndarray,
                  within: np.ndarray, stride: np.ndarray, keys: np.ndarray,
                  edge: np.ndarray) -> np.ndarray:
    """The positions in the Cholesky factor's array of the entries of a
    stack of blocks on the DOFs ``dofs`` (n, m), C-contiguous (n, m, m) in
    the type of ``edge``. Per DOF, ``entity``: its entity's index in the
    graph (-1 if Dirichlet), ``rank``: its index in the factored order, past
    the last if Dirichlet, ``within``: its rank in its entity, ``stride``:
    the pivots of its entity's tree node; ``keys``: the graph's entries
    (a << 32) | b, sorted, and ``edge``: the factor position of the first
    entry of their blocks (``cholesky.analyse``), then the discarded slot.
    An entry's position is its column's and its row's graph entry, looked
    up once per pair of entities, plus the row's rank times the column's
    stride and the column's rank. The entries above the diagonal and those
    of a Dirichlet row go to the discarded slot, and so do those of a
    Dirichlet column, which ranks after every row."""
    n, m = dofs.shape
    ent = entity[dofs]
    rep, group = _entity_groups(ent)
    pairs = ent[:, rep].astype(np.int64)
    first = edge[np.searchsorted(keys, (pairs[:, None, :] << 32) | pairs[:, :, None])]
    at = np.take(first.reshape(n, len(rep) ** 2), (group[:, None] * len(rep) + group).ravel(),
                 axis=1).reshape(n, m, m)
    at += within[dofs][:, :, None] * stride[dofs][:, None, :]
    at += within[dofs][:, None, :]
    rank = rank[dofs]
    at[(rank[:, :, None] < rank[:, None, :]) | (ent < 0)[:, :, None]] = edge[-1]
    return at


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
    rows: np.ndarray      # (n, nB) factored index of each B DOF, n_c if Dirichlet
    at: np.ndarray        # (n, nB, nB) position of each B x B entry in the
                          # factor, one past the last above the diagonal or
                          # if Dirichlet


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
    ``ordering`` record every solve reports. The symbolic analysis of the
    Cholesky factorization on the separator tree is done once too, and each
    block keeps the positions of its B x B entries in the factor. Each
    chunk's blocks come from its local tables (``_local_blocks``), which no
    other chunk waits for, and ``stages`` holds the wall times of the
    build's stages. A solve forms each cell's matrix from its blocks,
    eliminates the interiors cell by cell and sums the Schur-complemented
    blocks straight into the factorization's fronts, one chunk at a time;
    no matrix on all DOFs is formed (``full_matrix`` assembles one on
    demand)."""

    def __init__(self, disc: Discretization):
        self.disc = disc
        self.n_theta, self.n_u = disc.theta_space.dim, disc.u_space.dim
        n = self.n_theta + self.n_u
        # the wall times of the build's stages: the local tables and cell
        # blocks, the ordering, and the analysis of the factorization
        self.stages = {}
        started = time.perf_counter()
        # each chunk's local tables become its kept blocks on one CPU
        blocks, self.PU, cond, gradient, rests = zip(
            *map_chunks(functools.partial(_local_blocks, disc), disc.elem_ctxs))
        self.stages["local_s"] = time.perf_counter() - started
        # worst condition number of the local P_T, P_U and strain-reconstruction systems
        self.local_cond = max(cond)
        self.G = assemble_gradient(disc, gradient)
        # k = 0: the jump operator's edge stacks, whose form joins s0
        jump = build_jump_penalisation(disc, rests) if disc.k == 0 else []
        del gradient, rests

        started = time.perf_counter()
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
        split = []
        for dofs, s0, _, _ in blocks:
            nt = s0.shape[1]
            inner = np.r_[:te, nt:nt + ue]
            split.append((inner, np.setdiff1d(np.arange(dofs.shape[1]), inner)))
        # the B DOFs of every block: the cells' outer ones, and at k = 0 the
        # jump stacks'
        index = ([dofs[:, outer] for (dofs, *_), (_, outer) in zip(blocks, split)]
                 + [idx for idx, _, _ in jump])
        # the mesh entity of each DOF that is not an element interior: edge e,
        # or ne + v for vertex v. An entity's DOFs are all factored or all
        # Dirichlet, and every block holds all of them or none
        ne = mesh.n_edges
        entity = np.concatenate([
            np.full(n_el * te, -1), np.repeat(np.arange(ne), disc.theta_space.edge_dim),
            np.full(n_el * ue, -1), np.repeat(np.arange(ne), disc.u_space.edge_dim),
            ne + np.arange(mesh.n_vertices)])
        ents, which = np.unique(entity[fac], return_inverse=True)
        local = np.full(ne + mesh.n_vertices, -1)
        local[ents] = np.arange(ents.size)
        # the graph of the entities that hold the factored DOFs: two are
        # neighbours when a block holds both, S^T S for the incidence S of
        # blocks and entities
        held = [local[entity[i]] for i in index]
        width = np.concatenate([np.full(len(h), h.shape[1]) for h in held])
        held = np.concatenate([h.ravel() for h in held])
        on = held >= 0
        incidence = sps.csr_matrix(
            (np.ones(np.count_nonzero(on), dtype=bool),
             (np.repeat(np.arange(len(width)), width)[on], held[on])),
            shape=(len(width), ents.size))
        graph = (incidence.T @ incidence).tocsr()
        del width, held, on, incidence
        # nested-dissection order of the factored DOFs, on the entity graph:
        # the DOFs of an entity stay together
        xy = np.concatenate([mesh.vertex_coords[mesh.edge_vertices].mean(axis=1),
                             mesh.vertex_coords])[ents]
        cell_of = np.repeat(np.arange(n_el), np.diff(mesh.cell_offsets))
        incidence = local[np.r_[mesh.cell_edges, ne + mesh.cell_vertices]]
        on = incidence >= 0
        size = np.bincount(which, minlength=ents.size)
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
        self.stages["ordering_s"] = time.perf_counter() - started

        started = time.perf_counter()
        # the fronts of the Cholesky factorization, from the entity graph in
        # the new order, and the factor position of each graph entry's block
        graph = graph[entity_order][:, entity_order]
        graph.sort_indices()
        size = size[entity_order]
        self._supernodes, edge_at = analyse(graph.indptr, graph.indices, node[entity_order],
                                            size, parent, depth)
        # each block entry's position in the factor: the graph entry of its
        # column's and its row's entities, then the rank of each DOF in its
        # entity (the row's times the pivots of the column's tree node, plus
        # the column's); the entries above the diagonal and those of a
        # Dirichlet row or column go to one discarded slot past the last
        rank = np.full(n, n_c)
        rank[self.factored] = np.arange(n_c)
        within, stride = np.zeros((2, n), dtype=edge_at.dtype)
        within[self.factored] = np.arange(n_c) - np.repeat(np.cumsum(size) - size, size)
        stride[self.factored] = np.diff(self._supernodes.start)[self.separator_tree[0]]
        # the graph index of each DOF's entity, -1 if Dirichlet (the last
        # entry stands for the interiors' entity -1)
        in_graph = np.full(ne + mesh.n_vertices + 1, -1)
        in_graph[ents[entity_order]] = np.arange(ents.size)
        in_graph = in_graph[entity]
        keys = (np.repeat(np.arange(ents.size), np.diff(graph.indptr)) << 32) | graph.indices
        edge_at = np.append(edge_at, self._supernodes.offset[-1]).astype(edge_at.dtype)
        del graph
        at = [_entity_slots(i, in_graph, rank, within, stride, keys, edge_at) for i in index]
        del index
        self._blocks = [CellBlocks(dofs, s0, s1, shear, inner, outer, rank[dofs[:, outer]], a)
                        for (dofs, s0, s1, shear), (inner, outer), a in zip(blocks, split, at)]
        # the k = 0 jump, per stack: the global rotation DOFs, J_E and h_E
        # (the form's blocks are jump_form(J_E, h_E), formed where summed),
        # and the positions of the blocks' entries in the factor
        self._jump = [(idx, J, h, a) for (idx, J, h), a in zip(jump, at[len(blocks):])]
        self.stages["analysis_s"] = time.perf_counter() - started

    # -- bilinear forms -----------------------------------------------------

    def full_matrix(self, material: MaterialParams) -> sps.csr_matrix:
        """Global matrix of a_h + b_h: bending (beta0, beta1) plus the shear
        coupling kappa/t^2 between rotations and displacement gradients.
        Assembled on demand from the kept blocks (no solve forms it): each
        form summed on the pattern of all the blocks, the cell chunks then
        the k = 0 jump stacks, and combined as ``(beta0 s0 + beta1 s1) +
        (kappa/t^2) s2``, so it is symmetric bit for bit."""
        n = self.n_theta + self.n_u
        blocks, jump = self._blocks, self._jump
        indptr, indices, slots = block_pattern(
            [(b.dofs, b.dofs) for b in blocks] + [(idx, idx) for idx, *_ in jump], (n, n))
        cells = slots[:len(blocks)]
        rot = [at[:, :b.s0.shape[1], :b.s0.shape[1]] for at, b in zip(cells, blocks)]
        data = sum_blocks(rot + slots[len(blocks):],
                          [b.s0 for b in blocks] + [jump_form(J, h) for _, J, h, _ in jump],
                          len(indices))
        data *= material.beta0
        for scale, stacks, vals in ((material.beta1, rot, [b.s1 for b in blocks]),
                                    (material.shear_over_t2, cells, [b.shear for b in blocks])):
            term = sum_blocks(stacks, vals, len(indices))
            term *= scale
            data += term
        return sps.csr_matrix((data, indices, indptr), shape=(n, n))

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

    def _cell_parts(self, scales: tuple[float, float, float], rhs: np.ndarray,
                    sums: np.ndarray, interior: list):
        """The stacks a solve sums into the fronts of its factorization, one
        chunk at a time, each formed only once the previous one is summed.
        Per cell chunk, from its cell matrices K_T = beta0 s0 + beta1 s1 +
        (kappa/t^2) s2, formed once and symmetric bit for bit: each cell's
        K_BB less its Schur block K_BI K_II^{-1} K_IB, symmetrised (K_BB =
        K_T at k = 0, where no DOF is interior), from one stacked solve
        K_II^{-1} [K_IB | r_I] with the interior rows of ``rhs``. Only its own
        cell adds to an interior row, so K_II and K_IB equal the slices of
        ``full_matrix`` bit for bit; ``interior`` gets (block, K_II, K_IB,
        K_II^{-1} K_IB, K_II^{-1} r_I) per chunk. Then the k = 0 jump stacks
        beta0 J_E^T J_E / h_E, in edge chunks split as ``cell_chunks`` splits
        a group of cells. ``sums`` gets, per DOF, the row sums of |K_T| and
        of the jump stacks over the free columns; a chunk whose sums overflow
        is a ``SolverFailure`` before its interior solve."""
        beta0, beta1, c = scales
        mask = self.dirichlet_mask
        for b in self._blocks:
            nt = b.s0.shape[1]
            K = c * b.shear
            K[:, :nt, :nt] += beta0 * b.s0 + beta1 * b.s1
            sums += np.bincount(b.dofs.ravel(), _free_row_sums(b.dofs, K, mask).ravel(),
                                len(mask))
            _matrix_norm(sums, self.free)
            if b.inner.size:
                rows = K[:, b.inner]
                kii = _cell_axis_fastest(rows[:, :, b.inner])
                kib = _cell_axis_fastest(rows[:, :, b.outer])
                X = _interior_solve(kii, np.concatenate(
                    [kib, rhs[b.dofs[:, b.inner]][..., None]], axis=2))
                interior.append((b, kii, kib, X[..., :-1], X[..., -1]))
                K = K[:, b.outer[:, None], b.outer]
                del rows
                K -= _sym(_t(kib) @ X[..., :-1])
            yield K
            del K
        for idx, J, h, _ in self._jump:
            vals = []
            for i, j, e in zip(cell_chunks(idx), cell_chunks(J), cell_chunks(h)):
                K = beta0 * jump_form(j, e)
                vals.append(_free_row_sums(i, K, mask))
                yield K
                del K
            sums += np.bincount(idx.ravel(), np.concatenate(vals).ravel(), len(mask))

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
            sn = self._supernodes
            # all the solve takes from K, all from the kept blocks: the
            # Dirichlet lift K x_D (none where x_D = 0; otherwise stacked
            # products with the blocks, as the residuals are), per chunk the
            # blocks K_BB, K_II and K_IB of its cell matrices K_T, formed once
            # (at k = 0 the jump stacks join them), and ||K||: the largest
            # free row sum of sum_T |K_T|, which bounds |K_ff| entry by entry.
            # Material data near the top of the double range can overflow K
            # or ||K||: the solve reports it, with no warning on the way
            with np.errstate(over="ignore", invalid="ignore"):
                if x.any():
                    rhs = load - self._matvec(scales, x)
                else:
                    rhs = load.copy()
                rhs[self.dirichlet_mask] = 0.0
                started = time.perf_counter()
                # eliminate the interior DOFs chunk by chunk and sum each
                # cell's Schur-complemented block, symmetric bit for bit so
                # that the lower triangle the factorization reads is the whole
                # matrix, then the jump stacks, straight into the fronts of
                # the factorization: one chunk's stack at a time beside them
                sums, interior = np.zeros(n), []
                fronts = sum_blocks([b.at for b in self._blocks]
                                    + [a for *_, at in self._jump for a in cell_chunks(at)],
                                    self._cell_parts(scales, rhs, sums, interior),
                                    int(sn.offset[-1]) + 1)
            knorm = _matrix_norm(sums, free)
            report.condense_s = time.perf_counter() - started
            # relative residual = normwise backward error on the full K_ff,
            # ||r|| / (||K|| ||x|| + ||b||); the naive ||r||/||b|| is floored at
            # eps*||K||*||x||/||b|| by cancellation in K@x when kappa/t^2 is
            # large, which says nothing about the factorization quality. It
            # does not change when K and b are scaled together, so r and b are
            # taken over ||K||, and every norm on a scaled vector
            rhs_norm = _norm(rhs / knorm)
            chol = None
            if n_c:
                # no symmetric scaling D K D: it would only rescale the
                # factor, D L, and a pivot that is not positive fails alike
                started = time.perf_counter()
                chol = Cholesky(sn, fronts[:-1])
                report.factor_s = time.perf_counter() - started
                report.factor_nnz, report.kff_nnz = chol.nnz, sn.nnz
                report.ordering = copy.deepcopy(self.ordering)
            del fronts

            def free_solve(r, ys=None):
                """K_ff^{-1} r on the free DOFs, zero on the others; ``ys``
                holds K_II^{-1} r_I per chunk when it is known. The condensed
                system gives x_B, then x_I = K_II^{-1} (r_I - K_IB x_B)."""
                if ys is None:
                    ys = [_interior_solve(kii, r[b.dofs[:, b.inner]][..., None])[..., 0]
                          for b, kii, *_ in interior]
                rc = r[self.factored]
                if ys:
                    rc -= sum_blocks([b.rows for b, *_ in interior],
                                     (y[:, None] @ kib for (_, _, kib, *_), y in zip(interior, ys)),
                                     n_c + 1)[:-1]
                xc = np.zeros(n_c + 1)          # the last entry stands for Dirichlet DOFs
                if chol is not None:
                    xc[:-1] = chol.solve(rc)
                out = np.zeros(n)
                out[self.factored] = xc[:-1]
                for (b, _, _, xb, _), y in zip(interior, ys):
                    out[b.dofs[:, b.inner]] = y - (xb @ xc[b.rows, None])[..., 0]
                return out

            x += free_solve(rhs, [y for *_, y in interior])

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
