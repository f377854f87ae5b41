"""Element-local DDR operators on the discrete rotation/displacement spaces.

All operators are dense matrices acting on local DOF vectors and producing
coefficients against the orthonormal element bases. Vector-valued coefficient
layout is component-major: [all x-component coefficients, all y-component].

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
from .polyspace import ElementContext, dim_P, dim_croly, dim_roly
from .spaces import Discretization, assemble

_COND_LIMIT = 1e12


@dataclass
class LocalOperatorPack:
    n_theta: int
    n_u: int
    # displacement side
    trace: list[np.ndarray]          # per local edge: (k+2, n_u)
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
    # element-basis x edge-basis cross masses, per local edge: (dim_P(k+2), k+2)
    scalar_cross: list[np.ndarray]


def _vp_k(k: int) -> np.ndarray:
    """Positions of the vP^k coefficients among the component-major vP^{k+1} ones."""
    np_k, np_k1 = dim_P(k), dim_P(k + 1)
    return np.r_[0:np_k, np_k1:np_k1 + np_k]


def _edge_restriction(ctx: ElementContext, cross: list[np.ndarray], j: int,
                      n_members: int, n_coef: int) -> np.ndarray:
    """Frame coefficients [tangential, normal] on edge j of a vector
    polynomial given by component-major coefficients over n_coef scalars."""
    cs = cross[j][:n_coef, :n_members]
    t = ctx.edges[j].ctx.edge.tangent
    n = ctx.edges[j].ctx.edge.normal
    top = np.concatenate([t[0] * cs.T, t[1] * cs.T], axis=1)
    bot = np.concatenate([n[0] * cs.T, n[1] * cs.T], axis=1)
    return np.vstack([top, bot])


def _theta_slices(ctx: ElementContext):
    k = ctx.k
    n_roly, n_croly = dim_roly(k - 1), dim_croly(k)
    elem_dim = n_roly + n_croly
    sl_R = slice(0, n_roly)
    sl_cR = slice(n_roly, elem_dim)
    tang, norm = [], []
    for j in range(len(ctx.edges)):
        base = elem_dim + j * 2 * (k + 1)
        tang.append(slice(base, base + k + 1))
        norm.append(slice(base + k + 1, base + 2 * (k + 1)))
    n_theta = elem_dim + len(ctx.edges) * 2 * (k + 1)
    return sl_R, sl_cR, tang, norm, n_theta


def _u_layout(ctx: ElementContext):
    k = ctx.k
    nc = dim_P(k - 1)
    n_edges = len(ctx.edges)
    moments = [slice(nc + j * k, nc + (j + 1) * k) for j in range(n_edges)]
    vertex0 = nc + n_edges * k
    n_u = vertex0 + len(ctx.element.vertices)
    return nc, moments, vertex0, n_u


def build_local_pack(ctx: ElementContext) -> LocalOperatorPack:
    k = ctx.k
    w = ctx.qweights
    np_k, np_k1 = dim_P(k), dim_P(k + 1)
    phi = ctx.phi

    sl_R, sl_cR, sl_t, sl_n, n_theta = _theta_slices(ctx)
    nc, sl_m, vertex0, n_u = _u_layout(ctx)
    n_roly, n_croly = dim_roly(k - 1), dim_croly(k)

    # --- element moments; grad phi_j lies in P^k for j < np_{k+1}, so D holds
    # its exact coefficients, and Roly^{k-1}, cRoly^k lie in vP^k
    grad = ctx.scal.eval_grad(ctx.qpoints)[:, :np_k1]
    D = np.einsum("q,qjd,qm->djm", w, grad, phi[:, :np_k])
    elem_vals = np.concatenate([ctx.roly_vals, ctx.croly_vals[:, :n_croly]], axis=1)
    moments = np.einsum("q,qra,qm->ram", w, elem_vals, phi[:, :np_k1]
                        ).reshape(n_roly + n_croly, 2 * np_k1)
    proj = moments[:, _vp_k(k)]                    # the same moments of vP^k
    rot = np.concatenate([D[1], -D[0]], axis=1)    # int_T rot phi_j . phi_m e_a

    # --- edge trace matrices and scalar cross masses
    trace: list[np.ndarray] = []
    cross: list[np.ndarray] = []
    for j, led in enumerate(ctx.edges):
        ec = led.ctx
        tr = np.zeros((k + 2, n_u))
        tr[:, sl_m[j]] = ec.trace[:, :k]
        tr[:, vertex0 + led.local_vertices[0]] = ec.trace[:, k]
        tr[:, vertex0 + led.local_vertices[1]] = ec.trace[:, k + 1]
        trace.append(tr)
        cross.append(np.einsum("q,qm,qc->mc", ec.weights, ctx.scal.eval(ec.points),
                               ec.psi))

    # --- transverse displacement gradient G_T
    GT = np.zeros((2 * np_k, n_u))
    for a in range(2):
        GT[a * np_k:(a + 1) * np_k, :nc] = -D[a][:np_k, :nc]
        for j, led in enumerate(ctx.edges):
            GT[a * np_k:(a + 1) * np_k, :] += led.n_out[a] * (
                cross[j][:np_k] @ trace[j])

    # --- displacement reconstruction P_U (tested against cRoly^{k+2})
    div_cr = ctx.croly.eval_div(ctx.qpoints)
    lhs = np.einsum("q,qj,qi->ji", w, div_cr, phi[:, :np_k1])
    rhs = np.zeros((np_k1, n_u))
    cr_on_vpk = np.einsum("q,qja,qi->jai", w, ctx.croly_vals, phi[:, :np_k]
                          ).reshape(np_k1, 2 * np_k)
    rhs -= cr_on_vpk @ GT
    for j, led in enumerate(ctx.edges):
        cr_edge = ctx.croly.eval(led.ctx.points)
        cr_n = np.einsum("q,qja,a,qc->jc", led.ctx.weights, cr_edge,
                         led.n_out, led.ctx.psi)
        rhs += cr_n @ trace[j]
    if np.linalg.cond(lhs) > _COND_LIMIT:
        raise SingularLocalSystem(
            f"element {ctx.element.id}: div cRoly^{{k+2}} -> P^{{k+1}} map ill-conditioned")
    PU = np.linalg.solve(lhs, rhs)

    # --- scalar rotor R_T
    RT = np.zeros((np_k, n_theta))
    RT[:, sl_R] = rot[:np_k] @ proj[:n_roly].T
    for j, led in enumerate(ctx.edges):
        RT[:, sl_t[j]] += led.omega * cross[j][:np_k, :k + 1]

    # --- rotation potential P_T: square system over cRoly^k + rot P^{k+1}
    A = np.vstack([proj[n_roly:], rot[1:]])
    B = np.zeros((2 * np_k, n_theta))
    B[:n_croly, sl_cR] = np.eye(n_croly)
    B[n_croly:n_croly + np_k - 1] += RT[1:np_k]
    for j, led in enumerate(ctx.edges):
        B[n_croly:, sl_t[j]] -= led.omega * cross[j][1:np_k1, :k + 1]
    if np.linalg.cond(A) > _COND_LIMIT:
        raise SingularLocalSystem(
            f"element {ctx.element.id}: rotation potential system ill-conditioned")
    PT = np.linalg.solve(A, B)

    # --- local DDR L2 product on the rotation space
    S = np.zeros((n_theta, n_theta))
    for j, led in enumerate(ctx.edges):
        # tangential trace of P_T eta on the edge, in the edge family
        w1 = _edge_restriction(ctx, cross, j, k + 1, np_k)[:k + 1] @ PT
        w1[:, sl_t[j]] -= np.eye(k + 1)
        S += led.ctx.edge.length * (w1.T @ w1)
    M = PT.T @ PT + S

    return LocalOperatorPack(
        n_theta=n_theta, n_u=n_u, trace=trace, GT=GT, PU=PU, RT=RT, PT=PT,
        M_theta=0.5 * (M + M.T), D=D, moments=moments, scalar_cross=cross)


def build_packs(disc: Discretization) -> list[LocalOperatorPack]:
    return [build_local_pack(ctx) for ctx in disc.elem_ctxs]


def build_global_gradient(disc: Discretization, packs: list[LocalOperatorPack]
                          ) -> tuple[sps.csr_matrix, list[tuple]]:
    """Global discrete gradient: rotation-space coefficients of the gradient
    of a displacement vector. Element blocks are the Roly/cRoly projections
    of G_T; edge blocks are the tangential derivative of the skeleton trace,
    exact from the trace coefficients.

    Also returns, per cell, the rows of G on the cell's rotation DOFs as an
    ``assemble`` triple (rotation DOFs, displacement DOFs, dense block in the
    local layouts). Those rows read only the cell's displacement DOFs and the
    normal edge slots are zero rows, so local L2 products times these blocks
    sum to M G and G^T M G exactly."""
    sp_t, sp_u = disc.theta_space, disc.u_space
    k = disc.k
    vp_k = _vp_k(k)
    edge = [(ec.dmat @ ec.trace)[:k + 1] for ec in disc.edge_ctxs]
    blocks, cells = [], []
    for ctx, pack in zip(disc.elem_ctxs, packs):
        el = ctx.element
        off = sp_t.elem_offset(el.id)
        u_dofs = sp_u.local_dofs(el)
        block = pack.moments[:, vp_k] @ pack.GT
        blocks.append((np.arange(off, off + sp_t.elem_dim), u_dofs, block))
        rows = np.zeros((pack.n_theta, pack.n_u))
        rows[:sp_t.elem_dim] = block
        vertex0 = sp_u.elem_dim + len(ctx.edges) * k
        for j, led in enumerate(ctx.edges):
            t0 = sp_t.elem_dim + j * sp_t.edge_dim
            m0 = sp_u.elem_dim + j * k
            a, b = led.local_vertices
            rows[t0:t0 + k + 1, [*range(m0, m0 + k), vertex0 + a, vertex0 + b]] = \
                edge[led.ctx.edge.id]
        cells.append((sp_t.local_dofs(el), u_dofs, rows))
    for ec, block in zip(disc.edge_ctxs, edge):
        e = ec.edge
        u_cols = np.concatenate([
            np.arange(sp_u.edge_offset(e.id), sp_u.edge_offset(e.id) + k),
            [sp_u.vertex_offset(e.vertices[0]), sp_u.vertex_offset(e.vertices[1])],
        ]).astype(int)
        blocks.append((sp_t.edge_tangential_slots(e.id), u_cols, block))
    return assemble(blocks, (sp_t.dim, sp_u.dim)), cells


def assemble_theta_product(disc: Discretization, packs: list[LocalOperatorPack]) -> sps.csr_matrix:
    """Global DDR L2 product matrix on the rotation space."""
    sp_t = disc.theta_space
    idx = [sp_t.local_dofs(ctx.element) for ctx in disc.elem_ctxs]
    return assemble(((i, i, pack.M_theta) for i, pack in zip(idx, packs)),
                    (sp_t.dim, sp_t.dim))
