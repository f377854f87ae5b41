"""Global assembly, boundary conditions, solve, norms and errors.

The expensive, material-independent pieces (symmetric-gradient and
divergence stiffness, stabilisation + jump, the shear form built from the DDR
L2 product and the global gradient) are summed once per (mesh, degree) into
coefficient streams on one sparse pattern and recombined with scalar
material factors afterwards, so thickness and material sweeps reuse all
local constructions and every solve factors the same pattern. A solve
eliminates the element-interior DOFs cell by cell (static condensation) and
factors only the Schur complement on the remaining free DOFs.
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
from .spaces import (Discretization, ThetaVector, UVector, _flat, at_points,
                     block_pattern, boundary_dof_sets, sum_blocks)

_GS_METRIC = np.array([1.0, 2.0, 1.0])   # contraction weights for [11, 12, 22]
_RESIDUAL_TOL = 1e-10                      # solver backward-error gate
# K_ff is symmetric positive definite: a minimum-degree ordering of A^T + A
# applied to rows and columns alike, with diagonal pivots
_SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                 "options": {"SymmetricMode": True}}


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
    local_cond: float = 0.0       # worst cond of the local P_T, P_U and P1 solves
    kff_nnz: int = 0              # stored entries of the factored matrix
    n_factored: int = 0           # size of the factored matrix: the free DOFs
                                  # less the element-interior ones
    # backward error after the first solve and after each correction
    backward_errors: list[float] = field(default_factory=list)
    ordering: dict = field(default_factory=dict)   # the SuperLU options used


def _interior_solve(kii: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked K_II^{-1} rhs of the element-interior blocks."""
    try:
        return np.linalg.solve(kii, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"element-interior solve failed: {exc}") from exc


class PlateSystem:
    """Material-independent discrete operators for one mesh and degree.

    The plate matrix is ``beta0 * s0 + beta1 * s1 + (kappa/t^2) * s2`` on one
    CSR pattern (``indptr``, ``indices``) fixed by the mesh and degree.
    ``streams`` holds the data of s0 (symmetric-gradient form, stabilisation
    and, at k = 0, the jump), s1 (divergence form) and s2 (the shear form
    [I, -G]^T M [I, -G]), all summed from cell blocks. The maps a solve needs
    onto that pattern are built here too: the positions of each cell's
    interior blocks K_II and K_IB, the condensed matrix on the ``factored``
    DOFs (the free ones less the element interiors) in CSC order with its
    diagonal, where each Schur-block entry lands in it, and the mirror of
    each entry. A solve only combines, gathers and eliminates data."""

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
        # on the whole block. M G and G^T M G come from the cell blocks, so no
        # product drops an entry that cancels to 0.0
        np_k = dim_P(disc.k)
        index, keys, n_rot, bending, shear = [], [], [], ([], []), []
        for ctx, p, h, (t_dofs, u_dofs, g) in zip(disc.elem_ctxs, packs, hho, cell_G):
            dofs = np.concatenate([t_dofs, self.n_theta + u_dofs], axis=1)
            index.append((dofs, dofs))
            keys.append(ctx.ids)
            nt = t_dofs.shape[1]
            n_rot.append(nt)
            gs = [h.GS[:, b * np_k:(b + 1) * np_k] for b in range(3)]
            bending[0].append(sum(_GS_METRIC[b] * _t(gs[b]) @ gs[b] for b in range(3)) + h.sT)
            bending[1].append(_t(h.DD) @ h.DD)
            mg = p.M_theta @ g
            block = np.empty(dofs.shape + dofs.shape[1:])
            block[:, :nt, :nt] = p.M_theta
            block[:, :nt, nt:] = -mg
            block[:, nt:, :nt] = -_t(mg)
            block[:, nt:, nt:] = _t(g) @ mg
            shear.append(block)
        # k = 0: the jump joins the bending stream and widens the pattern
        jump, edge_ids = build_jump_penalisation(disc, packs, hho) if disc.k == 0 else ([], [])
        self.indptr, self.indices, slots = block_pattern(
            index + [(dofs, dofs) for dofs, _, _ in jump], (n, n))
        nnz = len(self.indices)
        cells = slots[:len(index)]
        rot = [s[:, :nt, :nt] for s, nt in zip(cells, n_rot)]
        self.streams = [
            sum_blocks(rot + slots[len(index):], bending[0] + [v for _, _, v in jump], nnz,
                       keys + [disc.mesh.n_elements + e for e in edge_ids]),
            sum_blocks(rot, bending[1], nnz, keys),
            sum_blocks(cells, shear, nnz, keys)]
        # every block is symmetric: an entry's mirror lies in the same block
        transpose = np.empty(nnz, dtype=self.indices.dtype)
        for s in slots:
            transpose[s] = np.swapaxes(s, 1, 2)
        del bending, shear, jump, slots, rot     # before the maps are built

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
        n_el, te, ue = disc.mesh.n_elements, disc.theta_space.elem_dim, disc.u_space.elem_dim
        factored = is_free.copy()
        factored[:n_el * te] = False
        factored[self.n_theta:self.n_theta + n_el * ue] = False
        self.factored = np.flatnonzero(factored)

        # the condensed matrix sits on the entries with a factored row and
        # column. Its CSC layout equals its CSR one (the pattern is
        # symmetric), each entry replaced by its mirror
        kept = np.flatnonzero(np.repeat(factored, np.diff(self.indptr)) & factored[self.indices])
        rank = np.cumsum(factored) - 1
        self._ff_indices = rank[self.indices[kept]].astype(self.indices.dtype)
        count = np.diff(np.searchsorted(kept, self.indptr))[factored]
        self._ff_indptr = np.zeros(self.factored.size + 1, dtype=self.indptr.dtype)
        np.cumsum(count, out=self._ff_indptr[1:])
        self._ff_gather = transpose[kept]
        self._ff_diag = np.flatnonzero(
            self._ff_indices == np.repeat(np.arange(self.factored.size), count))
        # per cell group: the interior DOFs I, the positions of K_II and K_IB
        # in the pattern, and the condensed index of each other DOF B, with
        # one past the last for a Dirichlet one. The B x B entries of the
        # Schur blocks K_BI K_II^{-1} K_IB are summed into the condensed data
        # (those of a Dirichlet row or column into one discarded slot)
        data_at = np.full(nnz, kept.size, dtype=self.indices.dtype)
        data_at[self._ff_gather] = np.arange(kept.size)
        rank[~factored] = self.factored.size
        self._cells, schur_at = [], []
        for s, (dofs, _), nt in zip(cells, index, n_rot):
            inner = np.r_[:te, nt:nt + ue]
            if not inner.size:            # k = 0: no interior DOFs
                break
            outer = np.setdiff1d(np.arange(dofs.shape[1]), inner)
            self._cells.append((dofs[:, inner], s[:, inner[:, None], inner],
                                s[:, inner[:, None], outer], rank[dofs[:, outer]]))
            schur_at.append(data_at[s[:, outer[:, None], outer]])
        self._schur_at = _flat(schur_at, self.indices.dtype)
        self._schur_rows = _flat([rows for _, _, _, rows in self._cells], np.intp)
        del index, cells, schur_at, data_at
        # the entries above the diagonal and their mirrors, for the symmetric defect
        upper = np.flatnonzero(self.indices > np.repeat(np.arange(n), np.diff(self.indptr)))
        self._upper = upper.astype(self.indices.dtype)
        self._lower = transpose[upper]

    # -- bilinear forms -----------------------------------------------------

    def full_matrix(self, material: MaterialParams) -> sps.csr_matrix:
        """Global matrix of a_h + b_h: bending (beta0, beta1) plus the shear
        coupling kappa/t^2 between rotations and displacement gradients."""
        s0, s1, s2 = self.streams
        data = material.beta0 * s0
        term = np.multiply(material.beta1, s1)
        data += term
        data += np.multiply(material.shear_over_t2, s2, out=term)
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
        full reduced system K_ff."""
        K = self.full_matrix(material)
        data = K.data
        defect = data[self._upper]
        defect -= data[self._lower]
        sym_defect = float(np.abs(defect, out=defect).max(initial=0.0)
                           / max(data.max(), -data.min(), 1e-300))
        del defect
        n = self.n_theta + self.n_u
        x = np.zeros(n)
        if dirichlet_values is not None:
            x[self.dirichlet_mask] = dirichlet_values[self.dirichlet_mask]
        free = self.free
        report = SolveReport(residual=0.0, n_free=free.size,
                             symmetric_defect=sym_defect, local_cond=self.local_cond)
        if free.size:
            rhs = load - K @ x
            rhs[self.dirichlet_mask] = 0.0
            # eliminate the interior DOFs: per group one stacked solve
            # K_II^{-1} [K_IB | r_I], and the Schur blocks K_BI K_II^{-1} K_IB
            # subtracted from the condensed matrix by one bincount
            kc = data[self._ff_gather]
            interior, ys = [], []
            for dofs, ii, ib, _ in self._cells:
                kii, kib = data[ii], data[ib]
                X = _interior_solve(kii, np.concatenate([kib, rhs[dofs][..., None]], axis=2))
                interior.append((kii, kib, X[..., :-1]))
                ys.append(X[..., -1])
            if interior:
                schur = _flat([_t(kib) @ xb for _, kib, xb in interior], float)
                kc -= np.bincount(self._schur_at, schur, kc.size + 1)[:-1]
                del schur                   # before the factorization
            n_c = report.n_factored = self.factored.size
            lu = None
            if n_c:
                # symmetric Jacobi equilibration tames the kappa/t^2 block
                # scaling of very thin plates; iterative refinement then
                # recovers a machine-accurate residual from the equilibrated
                # factorization. The entries are scaled on the condensed
                # pattern, so no product drops an entry that underflows or
                # cancels.
                d = np.sqrt(np.abs(kc[self._ff_diag]))
                d[d <= 0] = 1.0
                dinv = 1.0 / d
                scale = dinv[self._ff_indices]
                scale *= np.repeat(dinv, np.diff(self._ff_indptr))
                kc *= scale
                del scale
                Ks = sps.csc_matrix((kc, self._ff_indices, self._ff_indptr), shape=(n_c, n_c))
                try:
                    lu = splu(Ks, **_SPLU_OPTIONS)
                except Exception as exc:
                    raise SolverFailure(f"sparse factorization failed: {exc}") from exc
                report.factor_nnz, report.kff_nnz = int(lu.nnz), int(Ks.nnz)
                report.ordering = copy.deepcopy(_SPLU_OPTIONS)

            def free_solve(r, ys=None):
                """K_ff^{-1} r on the free DOFs, zero on the others; ``ys``
                holds K_II^{-1} r_I per group when it is known. The condensed
                system gives x_B, then x_I = K_II^{-1} (r_I - K_IB x_B)."""
                if ys is None:
                    ys = [_interior_solve(kii, r[dofs][..., None])[..., 0]
                          for (dofs, _, _, _), (kii, _, _) in zip(self._cells, interior)]
                rc = r[self.factored]
                if ys:
                    coupling = _flat([(y[:, None] @ kib)[:, 0]
                                      for (_, kib, _), y in zip(interior, ys)], float)
                    rc -= np.bincount(self._schur_rows, coupling, n_c + 1)[:-1]
                xc = np.zeros(n_c + 1)          # the last entry stands for Dirichlet DOFs
                if lu is not None:
                    xc[:-1] = dinv * lu.solve(dinv * rc)
                out = np.zeros(n)
                out[self.factored] = xc[:-1]
                for (dofs, _, _, rows), (_, _, xb), y in zip(self._cells, interior, ys):
                    out[dofs] = y - (xb @ xc[rows, None])[..., 0]
                return out

            x += free_solve(rhs, ys)
            # relative residual = normwise backward error on the full K_ff;
            # the naive ||r||/||b|| is floored at eps*||K||*||x||/||b|| by
            # cancellation in K@x when kappa/t^2 is large, which says nothing
            # about the factorization quality
            abs_k = sps.csr_matrix((np.abs(data), K.indices, K.indptr), shape=K.shape)
            knorm = float(np.max((abs_k @ (~self.dirichlet_mask).astype(float))[free]))
            del abs_k
            rhs_norm = np.linalg.norm(rhs)

            def residual():
                r = load - K @ x
                r[self.dirichlet_mask] = 0.0
                den = knorm * np.linalg.norm(x[free]) + rhs_norm
                return r, float(np.linalg.norm(r) / max(den, 1e-300))

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
            if report.residual > _RESIDUAL_TOL:
                raise SolverFailure(
                    f"solver residual {report.residual:.3e} above {_RESIDUAL_TOL:.1e}")
        theta = ThetaVector(self.disc.theta_space, x[:self.n_theta])
        u = UVector(self.disc.u_space, x[self.n_theta:])
        return theta, u, report

    # -- norms and errors ----------------------------------------------------

    def energy_norm(self, material: MaterialParams, theta: np.ndarray,
                    u: np.ndarray) -> float:
        sq = self._energy_squares(material, np.asarray(theta, dtype=float)[:, None],
                                  np.asarray(u, dtype=float)[:, None])
        return float(np.sqrt(max(sq[0], 0.0)))

    def relative_error(self, material: MaterialParams,
                       theta: ThetaVector, u: UVector,
                       theta_ref: ThetaVector, u_ref: UVector) -> float:
        sq = self._energy_squares(
            material, np.stack([theta_ref.values, theta.values - theta_ref.values], axis=1),
            np.stack([u_ref.values, u.values - u_ref.values], axis=1))
        den, num = np.sqrt(np.maximum(sq, 0.0))
        if den < 1e-300:
            raise ZeroNormError("exact-solution interpolate has zero energy norm")
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
