"""Element-local DDR operators on the discrete rotation/displacement spaces.

All operators are dense matrices acting on local DOF vectors and producing
coefficients against the orthonormal element bases. They are built for a
whole chunk of cells with the same vertex count at once and stored as
stacks with a leading cell axis, in the order of ``ElementContext.ids``.
Vector-valued coefficient layout is component-major: [all x-component
coefficients, all y-component].

Sign conventions (see mesh.py): omega_TE * n_E is the outward normal and
omega_TE = +1 when t_E runs counterclockwise around the element, so
omega_TE * t_E is always the counterclockwise tangent. The boundary terms of
the scalar rotor and of the rotation potential are written accordingly:

    int_T R_T eta q  = int_T eta_R . rot q + sum_E omega_TE int_E (eta_E.t_E) q
    int_T P_T eta . (tau + rot q)
        = int_T eta_cR . tau + int_T R_T eta q - sum_E omega_TE int_E (eta_E.t_E) q

which with these orientations reproduce the usual integration-by-parts
identity int_T rot(eta) q = int_T eta . rot q + oint_{ccw} (eta.t) q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .errors import SingularLocalSystem
from .polyspace import (ElementContext, derivative_map, dim_P, dim_croly, dim_roly,
                        failing_cell, mass, scaled_monomials)
from .spaces import Discretization, assemble, map_chunks

_COND_LIMIT = 1e12


@dataclass
class LocalOperatorPack:
    """Local operators of one cell chunk; every array has a leading cell axis."""
    n_theta: int
    n_u: int
    # displacement side
    trace: np.ndarray                # (nv, k+2, n_u) per cell: skeleton trace per local edge
    GT: np.ndarray                   # (2 np_k, n_u)
    PU: np.ndarray                   # (np_{k+1}, n_u)
    # rotation side
    RT: np.ndarray                   # (np_k, n_theta)
    PT: np.ndarray                   # (2 np_k, n_theta)
    M_theta: np.ndarray              # (n_theta, n_theta) local L2 product
    # element moments, each integrated once
    D: np.ndarray                    # (2, np_{k+1}, np_k): int_T d_d phi_j phi_m
    moments: np.ndarray              # (n_roly + n_croly, 2 np_{k+1}): Roly^{k-1}/cRoly^k
                                     # moments of component-major vP^{k+1}
    # element-basis x edge-basis cross masses per local edge: (nv, dim_P(k+1), k+2)
    scalar_cross: np.ndarray
    cond: float                      # largest condition number of the P_U and P_T systems


def _vp_k(k: int) -> np.ndarray:
    """Positions of the vP^k coefficients among the component-major vP^{k+1} ones."""
    np_k, np_k1 = dim_P(k), dim_P(k + 1)
    return np.r_[0:np_k, np_k1:np_k1 + np_k]


def _edge_restriction(ctx: ElementContext, cross: np.ndarray,
                      n_members: int, n_coef: int) -> np.ndarray:
    """Frame coefficients [tangential, normal] on every local edge of a
    vector polynomial given by component-major coefficients over n_coef
    scalars: (n_cells, nv, 2 n_members, 2 n_coef)."""
    cs = np.swapaxes(cross[:, :, :n_coef, :n_members], -1, -2)
    t = ctx.tangent[..., None, None]
    n = ctx.normal[..., None, None]
    top = np.concatenate([t[:, :, 0] * cs, t[:, :, 1] * cs], axis=-1)
    bot = np.concatenate([n[:, :, 0] * cs, n[:, :, 1] * cs], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def _theta_slices(ctx: ElementContext):
    k = ctx.k
    n_roly, n_croly = dim_roly(k - 1), dim_croly(k)
    elem_dim = n_roly + n_croly
    sl_R = slice(0, n_roly)
    sl_cR = slice(n_roly, elem_dim)
    tang, norm = [], []
    for j in range(ctx.n_vertices):
        base = elem_dim + j * 2 * (k + 1)
        tang.append(slice(base, base + k + 1))
        norm.append(slice(base + k + 1, base + 2 * (k + 1)))
    n_theta = elem_dim + ctx.n_vertices * 2 * (k + 1)
    return sl_R, sl_cR, tang, norm, n_theta


def _u_layout(ctx: ElementContext):
    k = ctx.k
    nc = dim_P(k - 1)
    nv = ctx.n_vertices
    moments = [slice(nc + j * k, nc + (j + 1) * k) for j in range(nv)]
    vertex0 = nc + nv * k
    return nc, moments, vertex0, vertex0 + nv


def _check_cond(ctx: ElementContext, mats: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(mats)
    bad = ~(cond <= _COND_LIMIT)
    if bad.any():
        raise SingularLocalSystem(f"{failing_cell(bad, ctx.ids)}{what} ill-conditioned")
    return cond


def _vector_moments(coef: np.ndarray, g_phi: np.ndarray, n_phi: int) -> np.ndarray:
    """Moments of a vector family (component-major monomial coefficients
    (n_cells, 2, n, N)) against component-major vP^l, l the degree of the
    first n_phi scalar members, from g_phi = int_T m_alpha phi_m:
    (n_cells, n, 2 n_phi)."""
    m = coef @ g_phi[:, None, :coef.shape[-1], :n_phi]
    return np.swapaxes(m, 1, 2).reshape(coef.shape[0], coef.shape[2], 2 * n_phi)


def build_local_pack(ctx: ElementContext) -> LocalOperatorPack:
    k = ctx.k
    n_cells, nv = ctx.n_cells, ctx.n_vertices
    np_k, np_k1 = dim_P(k), dim_P(k + 1)

    sl_R, sl_cR, sl_t, sl_n, n_theta = _theta_slices(ctx)
    nc, sl_m, vertex0, n_u = _u_layout(ctx)
    n_roly, n_croly = dim_roly(k - 1), dim_croly(k)

    # --- element moments, exact from the monomial Gram: g_phi = int_T m_alpha phi_m.
    # grad phi_j lies in P^k for j < np_{k+1}, so D holds its exact
    # coefficients, and Roly^{k-1}, cRoly^k lie in vP^k
    T = ctx.scal.coef
    h = ctx.diameter[:, None, None]
    g_phi = ctx.gram[..., :np_k1] @ np.swapaxes(T, -1, -2)
    D = (T[:, None] @ derivative_map(k + 1)) @ g_phi[:, None, :np_k, :np_k] / h[:, None]
    croly = ctx.croly.coef
    moments = np.concatenate([_vector_moments(ctx.roly.coef, g_phi, np_k1),
                              _vector_moments(croly[:, :, :n_croly], g_phi, np_k1)], axis=1)
    proj = moments[:, :, _vp_k(k)]                       # the same moments of vP^k
    rot = np.concatenate([D[:, 1], -D[:, 0]], axis=2)    # int_T rot phi_j . phi_m e_a

    # --- edge trace matrices and cross masses, from the monomial ones
    ec = ctx.edge_ctx
    e_pts, e_w, e_psi = (a[ctx.edge_ids] for a in (ec.points, ec.weights, ec.psi))
    e_tr = ec.trace[ctx.edge_ids]
    cells = np.arange(n_cells)
    trace = np.zeros((n_cells, nv, k + 2, n_u))
    for j in range(nv):
        trace[:, j, :, sl_m[j]] = e_tr[:, j, :, :k]
        for end in range(2):
            trace[cells, j, :, vertex0 + ctx.local_vertices[:, j, end]] = e_tr[:, j, :, k + end]
    mono = scaled_monomials(e_pts.reshape(n_cells, -1, 2), ctx.center, ctx.diameter, k + 2)
    m_cross = mass(e_w, mono.reshape(e_pts.shape[:3] + (-1,)), e_psi)
    cross = T[:, None] @ m_cross[:, :, :np_k1]

    # --- transverse displacement gradient G_T
    GT = np.zeros((n_cells, 2 * np_k, n_u))
    ct = cross[:, :, :np_k] @ trace
    for a in range(2):
        GT[:, a * np_k:(a + 1) * np_k, :nc] = -D[:, a, :np_k, :nc]
        for j in range(nv):
            GT[:, a * np_k:(a + 1) * np_k, :] += ctx.n_out[:, j, a, None, None] * ct[:, j]

    # --- scalar rotor R_T
    RT = np.zeros((n_cells, np_k, n_theta))
    RT[:, :, sl_R] = rot[:, :np_k] @ np.swapaxes(proj[:, :n_roly], -1, -2)
    omega = ctx.omega[:, :, None, None]
    for j in range(nv):
        RT[:, :, sl_t[j]] += omega[:, j] * cross[:, j, :np_k, :k + 1]

    # --- rotation potential P_T: square system over cRoly^k + rot P^{k+1};
    # the rot rows scale like 1/h_T, so both sides of them are taken times
    # h_T, which keeps the condition number of A independent of the mesh size
    A = np.concatenate([proj[:, n_roly:], h * rot[:, 1:]], axis=1)
    B = np.zeros((n_cells, 2 * np_k, n_theta))
    B[:, :n_croly, sl_cR] = np.eye(n_croly)
    B[:, n_croly:n_croly + np_k - 1] += RT[:, 1:np_k]
    for j in range(nv):
        B[:, n_croly:, sl_t[j]] -= omega[:, j] * cross[:, j, 1:np_k1, :k + 1]
    B[:, n_croly:] *= h
    cond_t = _check_cond(ctx, A, "rotation potential system")
    PT = np.linalg.solve(A, B)

    # --- displacement reconstruction P_U (tested against cRoly^{k+2})
    dmap = derivative_map(k + 2)
    div = (croly[:, 0] @ dmap[0] + croly[:, 1] @ dmap[1]) / h
    lhs = div @ g_phi[:, :np_k1, :np_k1]
    rhs = -(_vector_moments(croly, g_phi, np_k) @ GT)
    n_out = ctx.n_out[..., None, None]
    cr_n = (n_out[:, :, 0] * croly[:, None, 0] + n_out[:, :, 1] * croly[:, None, 1]) @ m_cross
    for j in range(nv):
        rhs += cr_n[:, j] @ trace[:, j]
    cond_u = _check_cond(ctx, lhs, "div cRoly^{k+2} -> P^{k+1} map")
    PU = np.linalg.solve(lhs, rhs)

    # --- local DDR L2 product on the rotation space: tangential trace of
    # P_T eta on each edge, in the edge family, against the edge unknown
    w1 = _edge_restriction(ctx, cross, k + 1, np_k)[:, :, :k + 1] @ PT[:, None]
    S = np.zeros((n_cells, n_theta, n_theta))
    for j in range(nv):
        w1[:, j, :, sl_t[j]] -= np.eye(k + 1)
        S += ctx.length[:, j, None, None] * (np.swapaxes(w1[:, j], -1, -2) @ w1[:, j])
    M = np.swapaxes(PT, -1, -2) @ PT + S

    return LocalOperatorPack(
        n_theta=n_theta, n_u=n_u, trace=trace, GT=GT, PU=PU, RT=RT, PT=PT,
        M_theta=0.5 * (M + np.swapaxes(M, -1, -2)), D=D, moments=moments,
        scalar_cross=cross, cond=float(max(cond_u.max(), cond_t.max())))


def build_packs(disc: Discretization) -> list[LocalOperatorPack]:
    """One stacked pack per cell chunk of ``disc.elem_ctxs``, built on every
    CPU the process may run on."""
    return map_chunks(build_local_pack, disc.elem_ctxs)


def build_global_gradient(disc: Discretization, packs: list[LocalOperatorPack]
                          ) -> tuple[sps.csr_matrix, list[tuple]]:
    """Global discrete gradient: rotation-space coefficients of the gradient
    of a displacement vector. Element blocks are the Roly/cRoly projections
    of G_T; edge blocks are the tangential derivative of the skeleton trace,
    exact from the trace coefficients.

    Also returns, per cell chunk, the rows of G on each cell's rotation DOFs
    as an ``assemble`` stack (rotation DOFs, displacement DOFs, dense blocks
    in the local layouts). Those rows read only the cell's displacement DOFs
    and the normal edge slots are zero rows, so local L2 products times these
    blocks sum to M G and G^T M G exactly."""
    sp_t, sp_u = disc.theta_space, disc.u_space
    k = disc.k
    vp_k = _vp_k(k)
    ec = disc.edge_ctx
    edge = (ec.dmat @ ec.trace)[:, :k + 1]
    blocks, cells = [], []
    for ctx, pack in zip(disc.elem_ctxs, packs):
        u_dofs = sp_u.local_dofs(ctx)
        block = pack.moments[:, :, vp_k] @ pack.GT
        blocks.append((sp_t.elem_offset(ctx.ids)[:, None] + np.arange(sp_t.elem_dim),
                       u_dofs, block))
        rows = np.zeros((ctx.n_cells, pack.n_theta, pack.n_u))
        rows[:, :sp_t.elem_dim] = block
        vertex0 = sp_u.elem_dim + ctx.n_vertices * k
        for j in range(ctx.n_vertices):
            t0 = sp_t.elem_dim + j * sp_t.edge_dim
            m0 = sp_u.elem_dim + j * k
            cols = np.concatenate([np.broadcast_to(np.arange(m0, m0 + k), (ctx.n_cells, k)),
                                   vertex0 + ctx.local_vertices[:, j]], axis=1)
            rows[np.arange(ctx.n_cells)[:, None, None],
                 np.arange(t0, t0 + k + 1)[None, :, None],
                 cols[:, None, :]] = edge[ctx.edge_ids[:, j]]
        cells.append((sp_t.local_dofs(ctx), u_dofs, rows))
    edges = np.arange(disc.mesh.n_edges)
    u_cols = np.concatenate([sp_u.edge_offset(edges)[:, None] + np.arange(k),
                             sp_u.vertex_offset(disc.mesh.edge_vertices)], axis=1)
    blocks.append((sp_t.edge_tangential_slots(edges), u_cols, edge))
    return assemble(blocks, (sp_t.dim, sp_u.dim)), cells


def assemble_theta_product(disc: Discretization, packs: list[LocalOperatorPack]) -> sps.csr_matrix:
    """Global DDR L2 product matrix on the rotation space."""
    sp_t = disc.theta_space
    idx = [sp_t.local_dofs(ctx) for ctx in disc.elem_ctxs]
    return assemble([(i, i, pack.M_theta) for i, pack in zip(idx, packs)],
                    (sp_t.dim, sp_t.dim))
