"""Global assembly, boundary conditions, solve, norms and errors.

The expensive, material-independent pieces (symmetric-gradient and
divergence stiffness, stabilisation + jump matrix, DDR L2 product, global
gradient) are assembled once per (mesh, degree) and recombined with scalar
material factors afterwards, so thickness and material sweeps reuse all
local constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from .errors import SolverFailure, ZeroNormError
from .hho import build_hho_packs, build_jump_penalisation
from .operators import assemble_theta_product, build_global_gradient, build_packs
from .polyspace import dim_P, mass
from .spaces import (Discretization, ThetaVector, UVector, assemble,
                     at_points, boundary_dof_sets)

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
    symmetric_defect: float
    refinement_steps: int = 0     # corrections applied after the first solve
    factor_nnz: int = 0           # nonzeros of L + U (SuperLU's count)
    local_cond: float = 0.0       # worst condition number of the local solves


class PlateSystem:
    """Material-independent discrete operators for one mesh and degree."""

    def __init__(self, disc: Discretization):
        self.disc = disc
        packs = build_packs(disc)
        hho = build_hho_packs(disc, packs)
        # the displacement reconstructions are all the load vector needs
        self.PU = [pack.PU for pack in packs]
        # worst condition number of the local P_U and P_T systems
        self.local_cond = max(pack.cond for pack in packs)
        self.n_theta, self.n_u = disc.theta_space.dim, disc.u_space.dim

        self.G, cell_G = build_global_gradient(disc, packs)
        np_k = dim_P(disc.k)
        keys = [ctx.ids for ctx in disc.elem_ctxs]
        idx = [t_dofs for t_dofs, _, _ in cell_G]
        h_gs = (sum(_GS_METRIC[b] * np.swapaxes(p.GS[:, b * np_k:(b + 1) * np_k], -1, -2)
                    @ p.GS[:, b * np_k:(b + 1) * np_k] for b in range(3)) for p in hho)
        shape = (self.n_theta, self.n_theta)
        self.H_gs = assemble(zip(idx, idx, h_gs), shape, keys)
        self.H_sj = assemble(zip(idx, idx, (p.sT for p in hho)), shape, keys)
        self.H_d = assemble(zip(idx, idx, (np.swapaxes(p.DD, -1, -2) @ p.DD for p in hho)),
                            shape, keys)
        if disc.k == 0:
            self.H_sj = _structural_sum(
                [self.H_sj, build_jump_penalisation(disc, packs, hho)])
        self.M_theta = assemble_theta_product(disc, packs)
        # M G and G^T M G from the cell blocks: a sparse product would drop
        # the entries that cancel to 0.0 and let round-off pick the pattern
        MG = [(t_dofs, u_dofs, p.M_theta @ g)
              for (t_dofs, u_dofs, g), p in zip(cell_G, packs)]
        self.MG = assemble(MG, (self.n_theta, self.n_u), keys)
        self.GMG = assemble([(u_dofs, u_dofs, np.swapaxes(g, -1, -2) @ mg)
                             for (_, u_dofs, g), (_, _, mg) in zip(cell_G, MG)],
                            (self.n_u, self.n_u), keys)

        th_d, u_d = boundary_dof_sets(disc)
        dir_mask = np.zeros(self.n_theta + self.n_u, dtype=bool)
        dir_mask[th_d] = True
        dir_mask[self.n_theta + u_d] = True
        self.dirichlet_mask = dir_mask
        self.free = np.where(~dir_mask)[0]

    # -- bilinear forms -----------------------------------------------------

    def full_matrix(self, material: MaterialParams) -> sps.csr_matrix:
        """Global matrix of a_h + b_h: bending (beta0, beta1) plus the shear
        coupling kappa/t^2 between rotations and displacement gradients."""
        c = material.shear_over_t2
        a = _structural_sum([material.beta0 * self.H_gs, material.beta0 * self.H_sj,
                             material.beta1 * self.H_d, c * self.M_theta])
        return sps.bmat([[a, -c * self.MG],
                         [-c * self.MG.T, c * self.GMG]], format="csr")

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
        the clamped case), solve the reduced symmetric system and verify the
        residual."""
        K = self.full_matrix(material)
        sym_defect = _symmetric_defect(K)
        n = self.n_theta + self.n_u
        x = np.zeros(n)
        if dirichlet_values is not None:
            x[self.dirichlet_mask] = dirichlet_values[self.dirichlet_mask]
        free = self.free
        report = SolveReport(residual=0.0, n_free=free.size,
                             symmetric_defect=sym_defect, local_cond=self.local_cond)
        if free.size:
            Kf = K[free]
            Kff = Kf[:, free].tocsc()
            rhs = load[free] - Kf @ x
            # symmetric Jacobi equilibration tames the kappa/t^2 block scaling
            # of very thin plates; iterative refinement then recovers a
            # machine-accurate residual from the equilibrated factorization.
            # The entries are scaled on Kff's own pattern, so no product drops
            # an entry that underflows or cancels.
            d = np.sqrt(np.abs(Kff.diagonal()))
            d[d <= 0] = 1.0
            dinv = 1.0 / d
            Ks = Kff.copy()
            Ks.data *= dinv[Ks.indices] * np.repeat(dinv, np.diff(Ks.indptr))
            # K_ff is symmetric positive definite: a minimum-degree ordering of
            # A^T + A applied to rows and columns alike, with diagonal pivots
            try:
                lu = splu(Ks, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True})
            except Exception as exc:
                raise SolverFailure(f"sparse factorization failed: {exc}") from exc
            report.factor_nnz = int(lu.nnz)

            def prec_solve(r):
                return dinv * lu.solve(dinv * r)

            xf = prec_solve(rhs)
            # relative residual = normwise backward error; the naive
            # ||r||/||b|| is floored at eps*||K||*||x||/||b|| by cancellation
            # in K@x when kappa/t^2 is large, which says nothing about the
            # factorization quality
            knorm = _inf_norm(Kff)

            def backward_error(vec):
                r = rhs - Kff @ vec
                den = knorm * np.linalg.norm(vec) + np.linalg.norm(rhs)
                return float(np.linalg.norm(r) / max(den, 1e-300))

            for _ in range(8):
                if backward_error(xf) <= 0.01 * _RESIDUAL_TOL:
                    break
                xf = xf + prec_solve(rhs - Kff @ xf)
                report.refinement_steps += 1
            if not np.all(np.isfinite(xf)):
                raise SolverFailure("solver produced non-finite values")
            x[free] = xf
            report.residual = backward_error(xf)
            if report.residual > _RESIDUAL_TOL:
                raise SolverFailure(
                    f"solver residual {report.residual:.3e} above {_RESIDUAL_TOL:.1e}")
        theta = ThetaVector(self.disc.theta_space, x[:self.n_theta])
        u = UVector(self.disc.u_space, x[self.n_theta:])
        return theta, u, report

    # -- norms and errors ----------------------------------------------------

    def energy_norm(self, material: MaterialParams, theta: np.ndarray,
                    u: np.ndarray) -> float:
        eta = np.asarray(theta, dtype=float)
        v = np.asarray(u, dtype=float)
        g = self.G @ v
        d = eta - g
        val = (material.beta0 * (eta @ (self.H_gs @ eta) + eta @ (self.H_sj @ eta))
               + material.beta1 * (eta @ (self.H_d @ eta))
               + material.shear_over_t2 * (d @ (self.M_theta @ d))
               + material.mu * (eta @ (self.M_theta @ eta) + g @ (self.M_theta @ g)))
        return float(np.sqrt(max(val, 0.0)))

    def relative_error(self, material: MaterialParams,
                       theta: ThetaVector, u: UVector,
                       theta_ref: ThetaVector, u_ref: UVector) -> float:
        den = self.energy_norm(material, theta_ref.values, u_ref.values)
        if den < 1e-300:
            raise ZeroNormError("exact-solution interpolate has zero energy norm")
        num = self.energy_norm(material, theta.values - theta_ref.values,
                               u.values - u_ref.values)
        return num / den


def _structural_sum(terms: list[sps.csr_matrix]) -> sps.csr_matrix:
    """Sum of CSR matrices on the union of their stored patterns; unlike
    ``+``, it keeps the entries that cancel to 0.0, so the pattern does not
    depend on round-off."""
    first = terms[0]
    shape = first.shape
    if all(np.array_equal(t.indptr, first.indptr)
           and np.array_equal(t.indices, first.indices) for t in terms[1:]):
        # one shared pattern (the cell-assembled matrices at k >= 1)
        return sps.csr_matrix((sum(t.data for t in terms), first.indices.copy(),
                               first.indptr.copy()), shape=shape)
    coo = [sps.coo_matrix(t) for t in terms]
    data = (np.concatenate([m.data for m in coo]),
            (np.concatenate([m.row for m in coo]), np.concatenate([m.col for m in coo])))
    return sps.coo_matrix(data, shape=shape).tocsr()


def _inf_norm(K: sps.spmatrix) -> float:
    return float(np.max(np.abs(K).sum(axis=1)))


def _symmetric_defect(K: sps.csr_matrix) -> float:
    d = K - K.T
    denom = max(abs(K).max(), 1e-300)
    return float(abs(d).max() / denom)


def dirichlet_values_from_interpolates(theta_i: ThetaVector, u_i: UVector) -> np.ndarray:
    """Full DOF vector of the interpolates; ``solve`` reads its Dirichlet
    entries."""
    return np.concatenate([theta_i.values, u_i.values])
