"""HHO machinery on the discrete rotation space.

The discrete rotation vector is embedded into the hybrid space (element
polynomial, edge polynomials) through its rotation potential, after which the
standard elasticity constructions apply: a full/symmetric tensor gradient and
divergence, a degree k+1 strain reconstruction fixed by skew-symmetry and
average closures, and a least-squares edge stabilisation built from
difference operators. For k = 0 an extra jump penalisation couples the
per-element reconstructions across edges.

Every element moment is read from the DDR pack (derivative masses D, element
moments, cross masses) or from the monomial Gram matrix of the cell, and
nothing here evaluates a basis function. The strain reconstruction is
algebra on the symmetric gradient GS and D, exact because grad P^{k+1} lies
in P^k. Like the DDR packs, every table is built for a whole cell chunk at
once and stacked along a leading cell axis.

Tensor coefficient layout: row blocks (1,1), (1,2), (2,1), (2,2), each a set
of scalar coefficients; the symmetric gradient is stored as [(1,1), sym(1,2),
(2,2)] with contraction metric (1, 2, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import LocalOperatorPack, _check_cond, _edge_restriction, _theta_slices, _vp_k
from .polyspace import ElementContext, dim_P
from .spaces import Discretization, map_chunks


def _t(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


@dataclass
class HHOLocalPack:
    """HHO tables of one cell chunk; every array has a leading cell axis."""
    GS: np.ndarray    # (3 np_k, n_theta) symmetric gradient [11, 12, 22]
    DD: np.ndarray    # (np_k, n_theta) divergence
    P1: np.ndarray    # (2 np_{k+1}, n_theta) strain reconstruction
    sT: np.ndarray    # (n_theta, n_theta) stabilisation bilinear form
    cond: float       # largest condition number of the reconstruction systems


def build_tensor_gradient(ctx: ElementContext, pack: LocalOperatorPack):
    """Full tensor gradient, its symmetric part and the divergence."""
    k = ctx.k
    np_k = dim_P(k)
    _, _, sl_t, sl_n, n_theta = _theta_slices(ctx)

    G = np.zeros((ctx.n_cells, 4, np_k, n_theta))
    pt_blocks = [pack.PT[:, :np_k], pack.PT[:, np_k:]]
    for b in range(2):
        vb = pack.D[:, b, :np_k]
        for a in range(2):
            G[:, 2 * a + b] -= vb @ pt_blocks[a]
    for j in range(ctx.n_vertices):
        cs = pack.scalar_cross[:, j, :np_k, :k + 1]
        t, n = ctx.tangent[:, j], ctx.normal[:, j]
        n_out = ctx.n_out[:, j]
        for a in range(2):
            for b in range(2):
                G[:, 2 * a + b, :, sl_t[j]] += (n_out[:, b] * t[:, a])[:, None, None] * cs
                G[:, 2 * a + b, :, sl_n[j]] += (n_out[:, b] * n[:, a])[:, None, None] * cs
    G = G.reshape(ctx.n_cells, 4 * np_k, n_theta)

    g11, g12 = G[:, :np_k], G[:, np_k:2 * np_k]
    g21, g22 = G[:, 2 * np_k:3 * np_k], G[:, 3 * np_k:]
    GS = np.concatenate([g11, 0.5 * (g12 + g21), g22], axis=1)
    DD = g11 + g22
    return G, GS, DD


def build_reconstruction(ctx: ElementContext, pack: LocalOperatorPack,
                         GS: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degree k+1 strain reconstruction: (eps(p), eps(v))_T = (GS eta, eps(v))_T
    for v in vP^{k+1}, plus the skew-average closure and the translation
    closure (element average for k >= 1, boundary average for k = 0). Both
    sides are exact in the derivative masses D, since grad P^{k+1} lies in P^k.

    The system is consistent and the three closure rows C remove exactly the
    rigid-motion kernel of the stiffness K, so K + C^T C is SPD and one square
    solve of (K + C^T C) P1 = rhs + C^T c gives its solution. Each closure row
    is scaled to the magnitude of K, which keeps the condition number
    independent of the mesh size. Returns P1 and the condition numbers."""
    k = ctx.k
    n_cells = ctx.n_cells
    np_k, np_k1 = dim_P(k), dim_P(k + 1)
    _, _, sl_t, sl_n, n_theta = _theta_slices(ctx)
    D = pack.D
    DDt = D[:, :, None] @ _t(D)[:, None]          # [a, b] = D_a D_b^T
    stiff = DDt[:, 0, 0] + DDt[:, 1, 1]            # int_T grad phi_j . grad phi_m

    # stiffness of the symmetric gradient on vP^{k+1}; block (b, a)
    K = 0.5 * np.concatenate([
        np.concatenate([stiff + DDt[:, 0, 0], DDt[:, 1, 0]], axis=2),
        np.concatenate([DDt[:, 0, 1], stiff + DDt[:, 1, 1]], axis=2)], axis=1)
    # symmetric gradient tested against eps(phi_j e_b): sum_d D_d GS_bd
    gs = [GS[:, :np_k], GS[:, np_k:2 * np_k], GS[:, 2 * np_k:]]
    D0, D1 = D[:, 0], D[:, 1]
    rhs = np.concatenate([D0 @ gs[0] + D1 @ gs[1], D0 @ gs[1] + D1 @ gs[2]], axis=1)

    # closure rows C and their right-hand sides c: the skew closure first
    C = np.zeros((n_cells, 3, 2 * np_k1))
    c = np.zeros((n_cells, 3, n_theta))
    # skew closure: int (d2 p1 - d1 p2)/2 fixed by the edge unknowns; the
    # first row of the monomial Gram holds the moments int_T m_alpha
    phi_int = (ctx.scal.coef @ ctx.gram[:, 0, :np_k1, None])[..., 0]
    g_int = (D @ phi_int[:, None, :np_k, None])[..., 0]     # (n_cells, 2, np_k1)
    C[:, 0] = 0.5 * np.concatenate([g_int[:, 1], -g_int[:, 0]], axis=1)
    root_h = np.sqrt(ctx.length)
    for j in range(ctx.n_vertices):
        # int_E psi_c = sqrt(h_E) delta_c0
        c[:, 0, sl_t[j].start] = -0.5 * ctx.omega[:, j] * root_h[:, j]

    # translation closure
    if k >= 1:
        for a in range(2):
            C[:, 1 + a, a * np_k1:(a + 1) * np_k1] = phi_int
            c[:, 1 + a] = (phi_int[:, None, :np_k] @ pack.PT[:, a * np_k:(a + 1) * np_k])[:, 0]
    else:
        # boundary averages: int_E phi_m = sqrt(h_E) (phi_m, psi_0)_E
        bnd_int = np.zeros((n_cells, np_k1))
        for j in range(ctx.n_vertices):
            bnd_int += root_h[:, j, None] * pack.scalar_cross[:, j, :np_k1, 0]
            c[:, 1:, sl_t[j].start] = root_h[:, j, None] * ctx.tangent[:, j]
            c[:, 1:, sl_n[j].start] = root_h[:, j, None] * ctx.normal[:, j]
        for a in range(2):
            C[:, 1 + a, a * np_k1:(a + 1) * np_k1] = bnd_int

    # w_i = sqrt(max|K|) / max|C_i|, floored so that a zeroed cell gives no 0/0
    tiny = np.finfo(float).tiny
    w = (np.sqrt(np.maximum(np.abs(K).max(axis=(1, 2)), tiny))[:, None]
         / np.maximum(np.abs(C).max(axis=2), tiny))[..., None]
    C, c = w * C, w * c
    A = K + _t(C) @ C
    cond = _check_cond(ctx, A, "strain reconstruction")
    return np.linalg.solve(A, rhs + _t(C) @ c), cond


def local_theta_interpolation(ctx: ElementContext, pack: LocalOperatorPack) -> np.ndarray:
    """Interpolation of a vP^{k+1}(T) field (component-major coefficients)
    onto the local rotation DOFs."""
    k = ctx.k
    np_k1 = dim_P(k + 1)
    _, _, sl_t, sl_n, n_theta = _theta_slices(ctx)
    J = np.zeros((ctx.n_cells, n_theta, 2 * np_k1))
    J[:, :pack.moments.shape[1]] = pack.moments
    rest = _edge_restriction(ctx, pack.scalar_cross, k + 1, np_k1)
    for j in range(ctx.n_vertices):
        J[:, sl_t[j]], J[:, sl_n[j]] = rest[:, j, :k + 1], rest[:, j, k + 1:]
    return J


def build_stabilisation(ctx: ElementContext, pack: LocalOperatorPack,
                        P1: np.ndarray) -> np.ndarray:
    """s_T from the difference operators: delta_T re-interpolates the defect
    of the reconstruction against the potential, delta_TE the defect against
    the edge unknowns; weight h_T^{-1} per edge."""
    k = ctx.k
    np_k1 = dim_P(k + 1)
    _, _, sl_t, sl_n, n_theta = _theta_slices(ctx)
    vp_k = _vp_k(k)
    defect = P1.copy()                              # vP^{k+1} coefficients
    defect[:, vp_k] -= pack.PT
    J = local_theta_interpolation(ctx, pack)
    delta_T = pack.PT @ (J @ defect)
    # the edge rows of J are the restriction of vP^{k+1} to each local edge
    rest_k1 = J[:, pack.moments.shape[1]:].reshape(
        ctx.n_cells, ctx.n_vertices, 2 * (k + 1), 2 * np_k1)
    delta_TE = rest_k1 @ P1[:, None]
    for j in range(ctx.n_vertices):
        delta_TE[:, j, :k + 1, sl_t[j]] -= np.eye(k + 1)
        delta_TE[:, j, k + 1:, sl_n[j]] -= np.eye(k + 1)
    diffs = delta_TE - rest_k1[..., vp_k] @ delta_T[:, None]
    sT = np.zeros((ctx.n_cells, n_theta, n_theta))
    for j in range(ctx.n_vertices):
        sT += (_t(diffs[:, j]) @ diffs[:, j]) / ctx.diameter[:, None, None]
    return 0.5 * (sT + _t(sT))


def build_hho_pack(ctx: ElementContext, pack: LocalOperatorPack) -> HHOLocalPack:
    _, GS, DD = build_tensor_gradient(ctx, pack)
    P1, cond = build_reconstruction(ctx, pack, GS)
    sT = build_stabilisation(ctx, pack, P1)
    return HHOLocalPack(GS, DD, P1, sT, float(cond.max()))


def build_hho_packs(disc: Discretization, packs: list[LocalOperatorPack]) -> list[HHOLocalPack]:
    """One stacked HHO pack per cell chunk of ``disc.elem_ctxs``, built on
    every CPU the process may run on."""
    return map_chunks(build_hho_pack, disc.elem_ctxs, packs)


def build_jump_penalisation(disc: Discretization, packs: list[LocalOperatorPack],
                            hho_packs: list[HHOLocalPack]) -> list:
    """k = 0 jump bilinear form: h_E^{-1} integrals of the jumps of the p^1
    reconstructions over edges (the trace itself on boundary edges).

    Returns ``assemble`` stacks of edge blocks on the rotation DOFs of the
    edge's (one or two) cells, lower cell id first and each DOF once: per
    vertex count of the first cell, its boundary edges, then its interior
    edges by the vertex count of the second cell, each stack in edge-id
    order. They are summed in that order."""
    if disc.k != 0:
        raise ValueError("jump penalisation is defined for k = 0 only")
    np_1 = dim_P(1)
    # per chunk: restriction of the p^1 reconstruction to each local edge
    mats = [_edge_restriction(ctx, pack.scalar_cross, disc.k + 2, np_1) @ hp.P1[:, None]
            for ctx, pack, hp in zip(disc.elem_ctxs, packs, hho_packs)]
    dofs = [disc.theta_space.local_dofs(ctx) for ctx in disc.elem_ctxs]
    # the chunks of one vertex count follow each other: stacked per vertex
    # count again, the edges are stacked per pair of counts, not of chunks
    sizes = np.array([ctx.n_cells for ctx in disc.elem_ctxs])
    bounds = np.r_[0, np.flatnonzero(np.diff([ctx.n_vertices for ctx in disc.elem_ctxs])) + 1,
                   len(sizes)]
    mats, dofs = ([np.concatenate(stacks[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
                  for stacks in (mats, dofs))
    # one (edge, cell, local edge) incidence per row, by edge and then cell id
    mesh = disc.mesh
    order = np.argsort(mesh.cell_edges, kind="stable")     # the flat rows are by cell
    cell_of = np.repeat(np.arange(mesh.n_elements), np.diff(mesh.cell_offsets))[order]
    local = order - mesh.cell_offsets[cell_of]
    edge_of = mesh.cell_edges[order]
    chunk, pos = disc.locate(cell_of)
    before = np.cumsum(sizes) - sizes                      # cells of the earlier chunks
    group = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))[chunk]
    pos += before[chunk] - before[bounds[:-1]][group]
    first = np.flatnonzero(np.r_[True, edge_of[1:] != edge_of[:-1]])
    two = np.r_[first[1:], len(edge_of)] - first == 2
    lengths = mesh.edge_length

    blocks = []
    for g0 in range(len(mats)):
        for g1 in [None] + list(range(len(mats))):
            if g1 is None:
                sel = first[(group[first] == g0) & ~two]
                side = [(g0, sel, 1.0)]
            else:
                sel = first[(group[first] == g0) & two]
                sel = sel[group[sel + 1] == g1]
                side = [(g0, sel, 1.0), (g1, sel + 1, -1.0)]
            if not len(sel):
                continue
            big = np.concatenate([sgn * mats[g][pos[rows], local[rows]]
                                  for g, rows, sgn in side], axis=2)
            idx = np.concatenate([dofs[g][pos[rows]] for g, rows, _ in side], axis=1)
            if g1 is not None:
                # the edge's own DOFs belong to both cells: the second cell's
                # columns of them are added to the first's and dropped
                n_a = dofs[g0].shape[1]
                same = idx[:, n_a:, None] == idx[:, None, :n_a]
                big[..., :n_a] += big[..., n_a:] @ same
                keep = np.c_[np.ones((len(sel), n_a), dtype=bool), ~same.any(axis=2)]
                big = _t(_t(big)[keep].reshape(len(sel), -1, big.shape[1]))
                idx = idx[keep].reshape(len(sel), -1)
            blocks.append((idx, idx, (_t(big) @ big) / lengths[edge_of[sel]][:, None, None]))
    return blocks
