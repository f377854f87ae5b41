"""Global assembly, boundary conditions, solve, norms and errors.

The expensive, material-independent pieces (symmetric-gradient and
divergence stiffness, stabilisation + jump, the shear form built from the DDR
L2 product and the global gradient) are summed once per (mesh, degree) into
coefficient streams on one sparse pattern and recombined with scalar
material factors afterwards, so thickness and material sweeps reuse all
local constructions and every solve factors the same pattern. A solve
eliminates the element-interior DOFs cell by cell (static condensation) and
factors only the Schur complement on the remaining free DOFs, which are
numbered once per mesh and degree by a nested dissection of the mesh.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from .errors import SolverFailure, ZeroNormError
from .hho import _t, build_hho_packs, build_jump_penalisation
from .operators import build_global_gradient, build_packs
from .polyspace import dim_P, mass
from .spaces import (Discretization, ThetaVector, UVector, at_points,
                     block_pattern, boundary_dof_sets, sum_blocks)

_GS_METRIC = np.array([1.0, 2.0, 1.0])   # contraction weights for [11, 12, 22]
_RESIDUAL_TOL = 1e-10                      # solver backward-error gate
# the condensed matrix is symmetric positive definite and already in
# nested-dissection order: SuperLU keeps that order for rows and columns
# alike and takes diagonal pivots
_SPLU_OPTIONS = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
                 "options": {"SymmetricMode": True}}
_ND_LEAF = 8                               # mesh entities per separator-tree leaf


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
    factor_nnz: int = 0           # nonzeros of L + U (SuperLU's count)
    local_cond: float = 0.0       # worst cond of the local P_T, P_U and P1 solves
    kff_nnz: int = 0              # stored entries of the factored matrix
    n_factored: int = 0           # size of the factored matrix: the free DOFs
                                  # less the element-interior ones
    # backward error after the first solve and after each correction
    backward_errors: list[float] = field(default_factory=list)
    # the SuperLU options used and the nested-dissection pre-permutation
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

    Level by level, every part of more than ``_ND_LEAF`` entities is
    bisected at the median coordinate along the longer side of its bounding
    box, the entities on the median staying on one side. Two separators are
    tried: sides by entity coordinate, and sides by cell centre, where the
    entities of cells on both sides start the separator. Then the entities
    of one side with a neighbour on the other, from the side where they
    weigh less, complete it. The lighter of the two separators is kept, and the rest of
    each side is a child part. Returns the node of each entity, and the
    parent (-1 at the root) and depth of each node, the nodes numbered in
    postorder: ordering the entities by node eliminates every subtree before
    its separator, so an entry couples a node with an ancestor or itself."""
    n = len(xy)
    rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    upper = rows < indices                   # each graph edge once
    rows, cols = rows[upper], indices[upper]
    inc_entity, inc_cell, centres = cells
    centres = centres.ravel()
    node = np.zeros(n, dtype=np.int32)       # the part, then the node, of each entity
    parents, first = [np.array([-1])], [0, 1]     # first node id of each level
    active = np.arange(n)                    # the entities of parts still to split
    while active.size:
        # the parts of this level are the nodes first[-2] .. first[-1] - 1
        inv = node[active] - first[-2]
        n_parts = first[-1] - first[-2]
        size = np.bincount(inv, minlength=n_parts)
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
        split[active] = ((size > _ND_LEAF) & (n_left > 0) & (n_left < size))[inv]
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
        parents.append(first[-2] + np.flatnonzero(kids) // 2)
        node[moved] = first[-1] + (np.cumsum(kids) - 1)[key]
        first.append(first[-1] + np.count_nonzero(kids))
        active = moved
    parent = np.concatenate(parents)
    # postorder: sort the nodes by the last leaf of their subtree, deeper first
    depth = np.repeat(np.arange(len(first) - 1), np.diff(first))
    count = (np.bincount(parent[1:], minlength=len(parent)) == 0).astype(np.intp)
    for begin, end in zip(first[-2:0:-1], first[-1:1:-1]):      # leaves per subtree
        np.add.at(count, parent[begin:end], count[begin:end])
    start = np.zeros_like(count)                                 # first leaf per subtree
    for begin, end in zip(first[1:-1], first[2:]):
        p, size = parent[begin:end], count[begin:end]
        after = np.r_[False, p[1:] == p[:-1]]        # the right child of a pair
        start[begin:end] = start[p] + np.where(after, np.r_[0, size[:-1]], 0)
    rank = np.empty_like(count)
    rank[np.lexsort((-depth, start + count))] = np.arange(len(count))
    parent[1:] = rank[parent[1:]]
    out, out_depth = np.empty_like(parent), np.empty_like(depth)
    out[rank], out_depth[rank] = parent, depth
    return rank[node], out, out_depth


class PlateSystem:
    """Material-independent discrete operators for one mesh and degree.

    The plate matrix is ``beta0 * s0 + beta1 * s1 + (kappa/t^2) * s2`` on one
    CSR pattern (``indptr``, ``indices``) fixed by the mesh and degree.
    ``streams`` holds the data of s0 (symmetric-gradient form, stabilisation
    and, at k = 0, the jump), s1 (divergence form) and s2 (the shear form
    [I, -G]^T M [I, -G]), all summed from symmetrised cell blocks, so each is
    symmetric bit for bit. The ``factored`` DOFs (the free ones less the
    element interiors) are listed in a nested-dissection order of the mesh
    edges and vertices that hold them, with its ``separator_tree`` and the
    ``ordering`` record every solve reports. The maps a solve needs onto the
    pattern are built here too: the positions of each cell's interior blocks
    K_II and K_IB, the condensed matrix on the factored DOFs, in that order,
    in CSC layout, and where each Schur-block entry lands in it. A solve
    only combines, gathers and eliminates data."""

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
        # cell blocks on [rotation DOFs, displacement DOFs]: the bending forms
        # live on the leading rotation block, the shear form [I, -G]^T M [I, -G]
        # on the whole block
        index, n_rot = [], []
        for t_dofs, u_dofs, _ in cell_G:
            dofs = np.concatenate([t_dofs, self.n_theta + u_dofs], axis=1)
            index.append((dofs, dofs))
            n_rot.append(t_dofs.shape[1])
        bending0, bending1, shear = (list(b) for b in zip(*[
            _cell_blocks(p, h, g, disc.k) for p, h, (_, _, g) in zip(packs, hho, cell_G)]))
        # k = 0: the jump joins the bending stream and widens the pattern
        jump = build_jump_penalisation(disc, packs, hho) if disc.k == 0 else []
        del packs, hho, cell_G                  # every block is built
        self.indptr, self.indices, slots = block_pattern(
            index + [(dofs, dofs) for dofs, _, _ in jump], (n, n))
        nnz = len(self.indices)
        cells = slots[:len(index)]
        rot = [s[:, :nt, :nt] for s, nt in zip(cells, n_rot)]
        # each stack is released as soon as it is summed. Every block is
        # symmetric, and the blocks of an entry and of its mirror are summed
        # in the same order: each stream is symmetric bit for bit, and so is
        # every matrix combined from them
        s2 = sum_blocks(cells, shear, nnz)
        del shear
        s1 = sum_blocks(rot, bending1, nnz)
        del bending1
        bending0 += [_sym(v) for _, _, v in jump]
        del jump
        s0 = sum_blocks(rot + slots[len(index):], bending0, nnz)
        del bending0, rot, slots
        self.streams = [s0, s1, s2]

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
        rep = np.flatnonzero(factored)[rep]
        graph = sps.csr_matrix((np.ones(nnz, dtype=bool), self.indices, self.indptr),
                               shape=(n, n))[rep][:, rep]
        xy = np.concatenate([mesh.vertex_coords[mesh.edge_vertices].mean(axis=1),
                             mesh.vertex_coords])[ents]
        cell_of = np.repeat(np.arange(n_el), np.diff(mesh.cell_offsets))
        local = np.full(ne + mesh.n_vertices, -1)
        local[ents] = np.arange(ents.size)
        incidence = local[np.r_[mesh.cell_edges, ne + mesh.cell_vertices]]
        on = incidence >= 0
        node, parent, depth = _nested_dissection(
            graph.indptr, graph.indices, xy, np.bincount(which),
            (incidence[on], np.r_[cell_of, cell_of][on], mesh.cell_center))
        order = np.lexsort((which, node[which]))
        self.factored = np.flatnonzero(factored)[order]
        n_c = self.factored.size
        # the separator-tree node of each factored DOF, nondecreasing, and the
        # parent of each node (the root, last, has -1)
        self.separator_tree = node[which[order]], parent
        self.ordering = copy.deepcopy(_SPLU_OPTIONS)
        self.ordering["prepermutation"] = {
            "method": "nested dissection", "depth": int(depth.max()),
            "top_separator": int(np.count_nonzero(self.separator_tree[0] == len(parent) - 1))}

        # the condensed matrix sits on the entries with a factored row and
        # column, in the new numbering: the pattern sliced to the factored
        # DOFs, with each entry's position (plus one, so none is zero) as
        # its data, and a CSC layout that sorts the row indices inside each
        # column, as SuperLU takes them
        rank = np.full(n, n_c)
        rank[self.factored] = np.arange(n_c)
        ff = sps.csr_matrix((np.arange(1, nnz + 1), self.indices, self.indptr),
                            shape=(n, n))[self.factored][:, self.factored].tocsc()
        self._ff_indptr, self._ff_indices = ff.indptr, ff.indices
        self._ff_gather = (ff.data - 1).astype(self.indices.dtype)
        del ff
        # per cell chunk: the interior DOFs I, the positions of K_II and K_IB
        # in the pattern, and the condensed index of each other DOF B, with
        # one past the last for a Dirichlet one. The B x B entries of the
        # Schur blocks K_BI K_II^{-1} K_IB are summed into the condensed data
        # (those of a Dirichlet row or column into one discarded slot)
        data_at = np.full(nnz, self._ff_gather.size, dtype=self.indices.dtype)
        data_at[self._ff_gather] = np.arange(self._ff_gather.size)
        self._cells, self._schur_at = [], []
        for s, (dofs, _), nt in zip(cells, index, n_rot):
            inner = np.r_[:te, nt:nt + ue]
            if not inner.size:            # k = 0: no interior DOFs
                break
            outer = np.setdiff1d(np.arange(dofs.shape[1]), inner)
            self._cells.append((dofs[:, inner], s[:, inner[:, None], inner],
                                s[:, inner[:, None], outer], rank[dofs[:, outer]]))
            self._schur_at.append(data_at[s[:, outer[:, None], outer]].ravel())

    # -- bilinear forms -----------------------------------------------------

    def full_matrix(self, material: MaterialParams) -> sps.csr_matrix:
        """Global matrix of a_h + b_h: bending (beta0, beta1) plus the shear
        coupling kappa/t^2 between rotations and displacement gradients."""
        s0, s1, s2 = self.streams
        data = material.beta0 * s0
        data += material.beta1 * s1
        data += material.shear_over_t2 * s2
        n = self.n_theta + self.n_u
        return sps.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))

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
        the interpolated exact traces for non-homogeneous runs, or zero for
        the clamped case), condense the element interiors, factor the Schur
        complement, back-substitute, and verify the backward error on the
        full reduced system K_ff. A K whose norm overflows is a
        ``SolverFailure`` before any elimination."""
        n = self.n_theta + self.n_u
        x = np.zeros(n)
        if dirichlet_values is not None:
            x[self.dirichlet_mask] = dirichlet_values[self.dirichlet_mask]
        free = self.free
        report = SolveReport(residual=0.0, n_free=free.size, local_cond=self.local_cond)
        if free.size:
            # all the solve takes from K: the Dirichlet lift, the condensed
            # data, the interior blocks K_II and K_IB per chunk, and ||K||, the
            # largest row sum of |K| over the free rows and columns (|K| in
            # place). Neither K nor |K| is held while SuperLU factors. Material
            # data near the top of the double range can overflow K or ||K||:
            # the check below reports it, with no warning on the way
            with np.errstate(over="ignore", invalid="ignore"):
                K = self.full_matrix(material)
                rhs = load - K @ x
                rhs[self.dirichlet_mask] = 0.0
                kc = K.data[self._ff_gather]
                blocks = [(K.data[ii], K.data[ib]) for _, ii, ib, _ in self._cells]
                np.abs(K.data, out=K.data)
                knorm = float(np.max((K @ (~self.dirichlet_mask).astype(float))[free]))
            del K
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
            for (dofs, _, _, _), (kii, kib) in zip(self._cells, blocks):
                X = _interior_solve(kii, np.concatenate([kib, rhs[dofs][..., None]], axis=2))
                interior.append((kii, kib, X[..., :-1]))
                ys.append(X[..., -1])
            if interior:
                schur = np.zeros(kc.size + 1)
                for (_, kib, xb), at in zip(interior, self._schur_at):
                    np.add.at(schur, at, (_t(kib) @ xb).ravel())
                kc -= schur[:-1]
                del schur                   # before the factorization
            n_c = report.n_factored = self.factored.size
            lu = None
            if n_c:
                # no symmetric scaling D K D: in a fixed order with diagonal
                # pivots it would only rescale the factors, D L D^-1 and D U D
                Ks = sps.csc_matrix((kc, self._ff_indices, self._ff_indptr), shape=(n_c, n_c))
                try:
                    lu = splu(Ks, **_SPLU_OPTIONS)
                except Exception as exc:
                    raise SolverFailure(f"sparse factorization failed: {exc}") from exc
                report.factor_nnz, report.kff_nnz = int(lu.nnz), int(Ks.nnz)
                report.ordering = copy.deepcopy(self.ordering)

            def free_solve(r, ys=None):
                """K_ff^{-1} r on the free DOFs, zero on the others; ``ys``
                holds K_II^{-1} r_I per chunk when it is known. The condensed
                system gives x_B, then x_I = K_II^{-1} (r_I - K_IB x_B)."""
                if ys is None:
                    ys = [_interior_solve(kii, r[dofs][..., None])[..., 0]
                          for (dofs, _, _, _), (kii, _, _) in zip(self._cells, interior)]
                rc = r[self.factored]
                if ys:
                    coupling = np.zeros(n_c + 1)
                    for (_, _, _, rows), (_, kib, _), y in zip(self._cells, interior, ys):
                        np.add.at(coupling, rows.ravel(), (y[:, None] @ kib).ravel())
                    rc -= coupling[:-1]
                xc = np.zeros(n_c + 1)          # the last entry stands for Dirichlet DOFs
                if lu is not None:
                    xc[:-1] = lu.solve(rc)
                out = np.zeros(n)
                out[self.factored] = xc[:-1]
                for (dofs, _, _, rows), (_, _, xb), y in zip(self._cells, interior, ys):
                    out[dofs] = y - (xb @ xc[rows, None])[..., 0]
                return out

            x += free_solve(rhs, ys)
            # K x = beta0 S0 x + beta1 S1 x + (kappa/t^2) S2 x on the streams
            # themselves, so no second matrix is formed next to the factor
            streams = [sps.csr_matrix((s, self.indices, self.indptr), shape=(n, n))
                       for s in self.streams]
            scales = (material.beta0, material.beta1, material.shear_over_t2)

            def residual():
                r = load - sum(c * (S @ x) for c, S in zip(scales, streams))
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
        """Squared energy norms of the columns of eta (n_theta, j) and v (n_u, j)."""
        g = self.G @ v
        d = eta - g                  # the shear strain, formed before the product
        end = self.indptr[self.n_theta]
        s0, s1, s2 = (s[:end] for s in self.streams)

        def form(data, z):
            # z^T A z per column, for the rotation block A of a stream: its
            # rows applied to z padded with zero displacements
            rows = sps.csr_matrix((data, self.indices[:end], self.indptr[:self.n_theta + 1]),
                                  shape=(self.n_theta, self.n_theta + self.n_u))
            return (z * (rows @ np.vstack([z, np.zeros((self.n_u, z.shape[1]))]))).sum(axis=0)

        j = eta.shape[1]
        shear = form(s2, np.hstack([d, g]))
        return (form(material.beta0 * s0 + material.beta1 * s1 + material.mu * s2, eta)
                + material.shear_over_t2 * shear[:j] + material.mu * shear[j:])
