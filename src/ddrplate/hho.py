"""HHO machinery on the discrete rotation space.

The discrete rotation vector is embedded into the hybrid space (element
polynomial, edge polynomials) through its rotation potential, after which the
standard elasticity constructions apply: a full/symmetric tensor gradient and
divergence, a degree k+1 strain reconstruction fixed by skew-symmetry and
average closures, and a least-squares edge stabilisation built from
difference operators. For k = 0 an extra jump penalisation couples the
per-element reconstructions across edges.

Every element moment is read from the DDR pack (derivative masses D, element
moments, cross masses), and nothing here evaluates a basis function. The
strain reconstruction is algebra on the symmetric gradient GS and D, exact
because grad P^{k+1} lies in P^k.

Tensor coefficient layout: row blocks (1,1), (1,2), (2,1), (2,2), each a set
of scalar coefficients; the symmetric gradient is stored as [(1,1), sym(1,2),
(2,2)] with contraction metric (1, 2, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .errors import SingularLocalSystem
from .operators import LocalOperatorPack, _edge_restriction, _theta_slices, _vp_k
from .polyspace import ElementContext, dim_P
from .spaces import Discretization, assemble

_TINY = 1e-300


@dataclass
class HHOLocalPack:
    GS: np.ndarray    # (3 np_k, n_theta) symmetric gradient [11, 12, 22]
    DD: np.ndarray    # (np_k, n_theta) divergence
    P1: np.ndarray    # (2 np_{k+1}, n_theta) strain reconstruction
    sT: np.ndarray    # (n_theta, n_theta) stabilisation bilinear form


def build_tensor_gradient(ctx: ElementContext, pack: LocalOperatorPack):
    """Full tensor gradient, its symmetric part and the divergence."""
    k = ctx.k
    np_k = dim_P(k)
    _, _, sl_t, sl_n, n_theta = _theta_slices(ctx)

    G = np.zeros((4, np_k, n_theta))
    pt_blocks = [pack.PT[:np_k], pack.PT[np_k:]]
    for b in range(2):
        vb = pack.D[b][:np_k]
        for a in range(2):
            G[2 * a + b] -= vb @ pt_blocks[a]
    for j, led in enumerate(ctx.edges):
        cs = pack.scalar_cross[j][:np_k, :k + 1]
        t, n = led.ctx.edge.tangent, led.ctx.edge.normal
        for a in range(2):
            for b in range(2):
                G[2 * a + b][:, sl_t[j]] += led.n_out[b] * t[a] * cs
                G[2 * a + b][:, sl_n[j]] += led.n_out[b] * n[a] * cs
    G = G.reshape(4 * np_k, n_theta)

    g11, g12 = G[:np_k], G[np_k:2 * np_k]
    g21, g22 = G[2 * np_k:3 * np_k], G[3 * np_k:]
    GS = np.vstack([g11, 0.5 * (g12 + g21), g22])
    DD = g11 + g22
    return G, GS, DD


def build_reconstruction(ctx: ElementContext, pack: LocalOperatorPack,
                         GS: np.ndarray) -> np.ndarray:
    """Degree k+1 strain reconstruction: (eps(p), eps(v))_T = (GS eta, eps(v))_T
    for v in vP^{k+1}, plus the skew-average closure and the translation
    closure (element average for k >= 1, boundary average for k = 0). Both
    sides are exact in the derivative masses D, since grad P^{k+1} lies in P^k."""
    k = ctx.k
    np_k, np_k1 = dim_P(k), dim_P(k + 1)
    _, _, sl_t, sl_n, n_theta = _theta_slices(ctx)
    D = pack.D
    DDt = np.einsum("ajm,bim->abji", D, D)         # D_a D_b^T
    stiff = DDt[0, 0] + DDt[1, 1]                  # int_T grad phi_j . grad phi_m

    # stiffness of the symmetric gradient on vP^{k+1}; block (b, a)
    K = 0.5 * np.block([[stiff + DDt[0, 0], DDt[1, 0]],
                        [DDt[0, 1], stiff + DDt[1, 1]]])
    # symmetric gradient tested against eps(phi_j e_b): sum_d D_d GS_bd
    gs = [GS[:np_k], GS[np_k:2 * np_k], GS[2 * np_k:]]
    rhs = np.vstack([D[0] @ gs[0] + D[1] @ gs[1], D[0] @ gs[1] + D[1] @ gs[2]])

    # skew closure: int (d2 p1 - d1 p2)/2 fixed by the edge unknowns
    phi_int = ctx.integrate(ctx.phi[:, :np_k1])
    g_int = D @ phi_int[:np_k]                     # (2, np_k1): int_T d_a phi_j
    skew_row = 0.5 * np.concatenate([g_int[1], -g_int[0]])
    skew_rhs = np.zeros(n_theta)
    for j, led in enumerate(ctx.edges):
        # int_E psi_c = sqrt(h_E) delta_c0
        skew_rhs[sl_t[j].start] = -0.5 * led.omega * np.sqrt(led.ctx.edge.length)

    # translation closure
    clos = np.zeros((2, 2 * np_k1))
    clos_rhs = np.zeros((2, n_theta))
    if k >= 1:
        for a in range(2):
            clos[a, a * np_k1:(a + 1) * np_k1] = phi_int
            clos_rhs[a] = phi_int[:np_k] @ pack.PT[a * np_k:(a + 1) * np_k]
    else:
        # boundary averages: int_E phi_m = sqrt(h_E) (phi_m, psi_0)_E
        bnd_int = np.zeros(np_k1)
        for j, led in enumerate(ctx.edges):
            root_h = np.sqrt(led.ctx.edge.length)
            bnd_int += root_h * pack.scalar_cross[j][:np_k1, 0]
            clos_rhs[:, sl_t[j].start] = root_h * led.ctx.edge.tangent
            clos_rhs[:, sl_n[j].start] = root_h * led.ctx.edge.normal
        for a in range(2):
            clos[a, a * np_k1:(a + 1) * np_k1] = bnd_int

    lhs = np.vstack([K, skew_row[None, :], clos])
    rhs_full = np.vstack([rhs, skew_rhs[None, :], clos_rhs])
    scale = np.maximum(np.abs(lhs).max(axis=1), _TINY)
    sol, _, rank, _ = np.linalg.lstsq(lhs / scale[:, None],
                                      rhs_full / scale[:, None], rcond=None)
    if rank < 2 * np_k1:
        raise SingularLocalSystem(
            f"element {ctx.element.id}: strain reconstruction rank deficient")
    return sol


def local_theta_interpolation(ctx: ElementContext, pack: LocalOperatorPack) -> np.ndarray:
    """Interpolation of a vP^{k+1}(T) field (component-major coefficients)
    onto the local rotation DOFs."""
    k = ctx.k
    np_k1 = dim_P(k + 1)
    _, _, sl_t, sl_n, n_theta = _theta_slices(ctx)
    J = np.zeros((n_theta, 2 * np_k1))
    J[:len(pack.moments)] = pack.moments
    for j in range(len(ctx.edges)):
        rest = _edge_restriction(ctx, pack.scalar_cross, j, k + 1, np_k1)
        J[sl_t[j]], J[sl_n[j]] = rest[:k + 1], rest[k + 1:]
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
    defect[vp_k] -= pack.PT
    delta_T = pack.PT @ (local_theta_interpolation(ctx, pack) @ defect)
    sT = np.zeros((n_theta, n_theta))
    for j in range(len(ctx.edges)):
        rest_k1 = _edge_restriction(ctx, pack.scalar_cross, j, k + 1, np_k1)
        delta_TE = rest_k1 @ P1
        delta_TE[:k + 1, sl_t[j]] -= np.eye(k + 1)
        delta_TE[k + 1:, sl_n[j]] -= np.eye(k + 1)
        diff = delta_TE - rest_k1[:, vp_k] @ delta_T
        sT += (diff.T @ diff) / ctx.element.diameter
    return 0.5 * (sT + sT.T)


def build_hho_pack(ctx: ElementContext, pack: LocalOperatorPack) -> HHOLocalPack:
    _, GS, DD = build_tensor_gradient(ctx, pack)
    P1 = build_reconstruction(ctx, pack, GS)
    sT = build_stabilisation(ctx, pack, P1)
    return HHOLocalPack(GS, DD, P1, sT)


def build_hho_packs(disc: Discretization, packs: list[LocalOperatorPack]) -> list[HHOLocalPack]:
    return [build_hho_pack(ctx, pack) for ctx, pack in zip(disc.elem_ctxs, packs)]


def build_jump_penalisation(disc: Discretization, packs: list[LocalOperatorPack],
                            hho_packs: list[HHOLocalPack]) -> sps.csr_matrix:
    """k = 0 jump bilinear form: h_E^{-1} integrals of the jumps of the p^1
    reconstructions over edges (the trace itself on boundary edges)."""
    if disc.k != 0:
        raise ValueError("jump penalisation is defined for k = 0 only")
    sp_t = disc.theta_space
    np_1 = dim_P(1)

    def blocks():
        for eid, edge in enumerate(disc.mesh.edges):
            mats, dofs = [], []
            for t_id in sorted(edge.elements):
                ctx = disc.elem_ctxs[t_id]
                j = ctx.element.edges.index(eid)
                rest = _edge_restriction(ctx, packs[t_id].scalar_cross, j,
                                         disc.k + 2, np_1)
                mats.append(rest @ hho_packs[t_id].P1)
                dofs.append(sp_t.local_dofs(ctx.element))
            if len(mats) == 2:
                big = np.concatenate([mats[0], -mats[1]], axis=1)
                idx = np.concatenate([dofs[0], dofs[1]])
            else:
                big, idx = mats[0], dofs[0]
            yield idx, idx, (big.T @ big) / edge.length

    return assemble(blocks(), (sp_t.dim, sp_t.dim))
