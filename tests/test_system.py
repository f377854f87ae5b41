import dataclasses
from importlib import resources

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.linalg import splu, spsolve

from conftest import (fronts_matrix, locate, lower_factor, node_blocks, shear_blocks,
                      watch_fronts)
import ddrplate.system
from ddrplate.cholesky import _BLOCK, Cholesky
from ddrplate.errors import SolverFailure, ZeroNormError
from ddrplate.harness import solve_case
from ddrplate.hho import jump_form
from ddrplate.mesh import build_mesh, load_mesh, triangular_mesh
from ddrplate.operators import assemble_theta_product, build_global_gradient, build_packs
from ddrplate.polyspace import dim_croly, dim_P, dim_roly
from ddrplate.spaces import (Discretization, ThetaVector, UVector, assemble, cell_chunks,
                             interpolate_theta, interpolate_u, sum_blocks)
from ddrplate.system import MaterialParams, PlateSystem


def test_material_derived_quantities():
    m = MaterialParams(E=1.0, nu=0.3, t=0.1, kappa0=5.0 / 6.0)
    assert m.beta0 == pytest.approx(1.0 / 15.6)
    assert m.beta1 == pytest.approx(0.3 / (12 * 0.91))
    assert m.kappa == pytest.approx(5.0 / 12.0 / 1.3)
    assert m.mu == pytest.approx(min(m.kappa, m.beta0))
    assert m.beta0 > 0 and m.beta1 >= 0 and m.kappa > 0


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialParams(nu=0.5)
    with pytest.raises(ValueError):
        MaterialParams(t=0.0)
    with pytest.raises(ValueError):
        MaterialParams(E=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            MaterialParams(E=bad)
        with pytest.raises(ValueError):
            MaterialParams(kappa0=bad)
    with pytest.raises(ValueError):
        MaterialParams(t=1e-300)     # t^2 underflows to 0
    # the derived coefficients must be normal doubles
    tiny = np.finfo(float).tiny
    for bad in (dict(E=1e-200, kappa0=1e-200),      # kappa underflows to 0
                dict(E=1e-320),                     # subnormal beta0, kappa
                dict(E=1e-308),                     # normal E, subnormal beta0
                dict(E=1e300, kappa0=1e10)):        # kappa overflows
        with pytest.raises(ValueError, match="normal doubles"):
            MaterialParams(**bad)
    m = MaterialParams(E=20.0 * tiny)
    assert tiny <= m.beta0 <= m.kappa <= m.shear_over_t2
    # an infinite kappa/t^2 is the solve's overflowing plate matrix
    assert MaterialParams(E=1e300, t=1e-5).shear_over_t2 == np.inf
    assert MaterialParams(nu=0.0).beta1 == 0.0


def stream(system, i):
    """Form i of the plate matrix (s0: beta0, s1: beta1, s2: kappa/t^2)
    assembled from the kept cell blocks (and, for s0 at k = 0, the jump
    stacks) as a full matrix."""
    n = system.n_theta + system.n_u
    if i == 2:
        stacks = [(b.dofs, b.dofs, shear_blocks(b.M, b.g)) for b in system._blocks]
    else:
        rot = [b.dofs[:, :b.s0.shape[1]] for b in system._blocks]
        stacks = [(d, d, b.s1 if i else b.s0) for d, b in zip(rot, system._blocks)]
        if i == 0:
            stacks += [(idx, idx, jump_form(J, h)) for idx, J, h, _ in system._jump]
    return assemble(stacks, (n, n))


def bending_matrix(system, material):
    """Bending form a_h from the assembled material-independent pieces."""
    a = material.beta0 * stream(system, 0) + material.beta1 * stream(system, 1)
    return a[:system.n_theta, :system.n_theta].tocsr()


def shear_matrix(system, material):
    """Shear form b_h on (rotation, displacement) pairs."""
    return (material.shear_over_t2 * stream(system, 2)).tocsr()


@pytest.fixture(scope="module")
def small_system():
    disc = Discretization(triangular_mesh(2), 1)
    return PlateSystem(disc)


@pytest.fixture(scope="module")
def k0_system():
    disc = Discretization(triangular_mesh(2), 0)
    return PlateSystem(disc)


def test_rigid_motion_annihilates_ah(small_system):
    system = small_system
    disc = system.disc
    mat = MaterialParams()
    a = bending_matrix(system, mat)
    iv = interpolate_theta(
        disc, lambda x: np.stack([1.0 - 2.0 * x[:, 1], -0.5 + 2.0 * x[:, 0]], -1)).values
    val = iv @ (a @ iv)
    assert abs(val) < 1e-11 * (iv @ iv)


def test_ah_symmetry_and_nu_zero(small_system):
    system = small_system
    mat = MaterialParams(nu=0.3)
    a = bending_matrix(system, mat)
    assert abs(a - a.T).max() <= 1e-12 * abs(a).max()
    m0 = MaterialParams(nu=0.0)
    a0 = bending_matrix(system, m0)
    ref = (m0.beta0 * stream(system, 0))[:system.n_theta, :system.n_theta].tocsr()
    assert abs(a0 - ref).max() == 0.0


def test_full_matrix_is_ah_plus_bh(small_system, k0_system):
    for system in (small_system, k0_system):
        mat = MaterialParams(nu=0.25, t=1e-2)
        a = bending_matrix(system, mat)
        pad = sps.block_diag([a, sps.csr_matrix((system.n_u, system.n_u))])
        ref = (pad + shear_matrix(system, mat)).tocsr()
        K = system.full_matrix(mat)
        assert abs(K - ref).max() <= 1e-14 * abs(ref).max()


def test_bh_kernel_and_scaling(small_system, rng):
    system = small_system
    mat = MaterialParams(t=0.2)
    b = shear_matrix(system, mat)
    w = rng.standard_normal(system.n_u)
    G, _ = build_global_gradient(system.disc, build_packs(system.disc))
    vec = np.concatenate([G @ w, w])
    out = b @ vec
    scale = abs(b).max() * np.abs(vec).max()
    assert np.abs(out).max() < 1e-11 * scale
    b_half = shear_matrix(system, MaterialParams(t=0.1))
    assert abs(b_half - 4.0 * b).max() <= 1e-12 * abs(b_half).max()


def test_bh_ignores_normal_dofs(small_system, rng):
    system = small_system
    sp = system.disc.theta_space
    mat = MaterialParams()
    vec = np.zeros(system.n_theta + system.n_u)
    for e in range(system.disc.mesh.n_edges):
        vec[sp.edge_normal_slots(e)] = rng.standard_normal(system.disc.k + 1)
    out = shear_matrix(system, mat) @ vec
    scale = abs(shear_matrix(system, mat)).max() * np.abs(vec).max()
    assert np.abs(out).max() <= 1e-12 * scale


def test_bh_is_psd(small_system, rng):
    system = small_system
    b = shear_matrix(system, MaterialParams())
    for _ in range(50):
        v = rng.standard_normal(system.n_theta + system.n_u)
        assert v @ (b @ v) >= -1e-10 * (v @ v)


def test_load_vector_basics(small_system):
    system = small_system
    zero = system.load_vector(lambda x: np.zeros(len(x)))
    assert np.abs(zero).max() == 0.0
    ones = system.load_vector(lambda x: np.ones(len(x)))
    iu = interpolate_u(system.disc, lambda x: np.ones(len(x))).values
    val = ones[system.n_theta:] @ iu
    assert val == pytest.approx(1.0, abs=1e-10)     # P_U(I 1) = 1, f = 1: area


def test_load_vector_against_boosted_quadrature(rng):
    mesh = triangular_mesh(2)
    base = PlateSystem(Discretization(mesh, 1))
    fine = PlateSystem(Discretization(mesh, 1, quad_boost=4))

    def f(x):
        return 0.3 - 1.2 * x[:, 0] + 0.7 * x[:, 1]     # degree <= k

    l1 = base.load_vector(f)
    l2 = fine.load_vector(f)
    assert np.abs(l1 - l2).max() < 1e-11 * (np.abs(l1).max() + 1)


def test_zero_load_gives_zero_solution(k0_system):
    system = k0_system
    theta, u, rep = system.solve(MaterialParams(), np.zeros(system.n_theta + system.n_u))
    assert np.abs(theta.values).max() == 0.0
    assert np.abs(u.values).max() == 0.0
    K = system.full_matrix(MaterialParams())
    assert (K != K.T).nnz == 0


def test_fully_clamped_single_cell_has_no_free_dofs():
    square = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                        [[0, 1, 2, 3]])
    system = PlateSystem(Discretization(square, 0))
    assert system.free.size == 0
    theta, u, rep = system.solve(MaterialParams(),
                                 np.zeros(system.n_theta + system.n_u))
    assert np.abs(theta.values).max() == 0.0


@pytest.mark.parametrize("k", [1, 3])
def test_clamped_single_cell_solves_its_interior_alone(k, monkeypatch):
    """At k >= 1 a clamped cell keeps only its interior DOFs free: they are
    all eliminated, nothing is left to factor, and the solution is that of
    K_ff."""
    square = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                        [[0, 1, 2, 3]])
    system = PlateSystem(Discretization(square, k))
    monkeypatch.setattr(ddrplate.system, "Cholesky", None)   # never called
    load = system.load_vector(lambda x: np.ones(len(x)))
    theta, u, rep = system.solve(MaterialParams(), load)
    assert system.factored.size == rep.n_factored == rep.factor_nnz == 0
    assert rep.n_free == system.free.size > 0
    assert rep.residual <= 1e-10
    free = system.free
    K = system.full_matrix(MaterialParams())
    ref = spsolve(K[free][:, free].tocsc(), load[free])
    x = np.concatenate([theta.values, u.values])
    assert np.linalg.norm(x[free] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_galerkin_residual_and_coercivity(k0_system, rng, monkeypatch):
    system = k0_system
    mat = MaterialParams(t=1e-2)
    load = system.load_vector(lambda x: np.sin(np.pi * x[:, 0]) * x[:, 1])
    theta, u, rep = system.solve(mat, load)
    assert rep.residual <= 1e-10
    assert rep.n_free == system.free.size
    # L holds at least the lower triangle of the factored matrix
    assert rep.factor_nnz >= (rep.kff_nnz + rep.n_factored) // 2
    assert 0 <= rep.refinement_steps <= 8
    K = system.full_matrix(mat)
    # the factored matrix's pattern is that of the factored slice of K
    assert rep.kff_nnz == K[system.factored][:, system.factored].nnz
    # one backward error per solve with the factor, the last one reported
    assert len(rep.backward_errors) == rep.refinement_steps + 1
    assert rep.backward_errors[-1] == rep.residual
    assert all(e > 1e-12 for e in rep.backward_errors[:-1])
    x = np.concatenate([theta.values, u.values])
    res = (K @ x - load)[system.free]
    assert np.linalg.norm(res) <= 1e-10 * max(np.linalg.norm(load), 1.0) * \
        max(abs(K).max(), 1.0)
    for _ in range(20):
        v = np.zeros(system.n_theta + system.n_u)
        v[system.free] = rng.standard_normal(system.free.size)
        assert v @ (K @ v) > 0.0


def test_energy_norm_properties(small_system, rng):
    system = small_system
    mat = MaterialParams()
    assert system.energy_norm(mat, np.zeros(system.n_theta), np.zeros(system.n_u)) == 0.0
    th = np.zeros(system.n_theta)
    uu = np.zeros(system.n_u)
    th[system.free[system.free < system.n_theta]] = rng.standard_normal(
        (system.free < system.n_theta).sum())
    ufree = system.free[system.free >= system.n_theta] - system.n_theta
    uu[ufree] = rng.standard_normal(ufree.size)
    n1 = system.energy_norm(mat, th, uu)
    n2 = system.energy_norm(mat, 2.0 * th, 2.0 * uu)
    assert n1 > 0
    assert n2 == pytest.approx(2.0 * n1, rel=1e-12)


def test_energy_norm_positive_on_constrained_space(small_system, rng):
    system = small_system
    mat = MaterialParams(t=1e-3)
    for _ in range(100):
        v = np.zeros(system.n_theta + system.n_u)
        v[system.free] = rng.standard_normal(system.free.size)
        if np.abs(v).max() == 0:
            continue
        assert system.energy_norm(mat, v[:system.n_theta], v[system.n_theta:]) > 0


def test_relative_error_basics(small_system, rng):
    system = small_system
    mat = MaterialParams()
    sp_t, sp_u = system.disc.theta_space, system.disc.u_space
    ref_t = ThetaVector(sp_t, rng.standard_normal(sp_t.dim))
    ref_u = UVector(sp_u, rng.standard_normal(sp_u.dim))
    assert system.relative_error(mat, ref_t, ref_u, ref_t, ref_u) == 0.0
    # joint scaling leaves the ratio unchanged
    th = ThetaVector(sp_t, rng.standard_normal(sp_t.dim))
    uu = UVector(sp_u, rng.standard_normal(sp_u.dim))
    e1 = system.relative_error(mat, th, uu, ref_t, ref_u)
    th10 = ThetaVector(sp_t, 10.0 * th.values)
    uu10 = UVector(sp_u, 10.0 * uu.values)
    ref_t10 = ThetaVector(sp_t, 10.0 * ref_t.values)
    ref_u10 = UVector(sp_u, 10.0 * ref_u.values)
    e2 = system.relative_error(mat, th10, uu10, ref_t10, ref_u10)
    assert e2 == pytest.approx(e1, rel=1e-12)
    zero_t = ThetaVector(sp_t, np.zeros(sp_t.dim))
    zero_u = UVector(sp_u, np.zeros(sp_u.dim))
    with pytest.raises(ZeroNormError):
        system.relative_error(mat, th, uu, zero_t, zero_u)


@pytest.mark.parametrize("power", [600, -600])
def test_energy_norms_of_scaled_vectors_are_scaled_bit_for_bit(small_system, rng, power):
    """Vectors scaled by 2^600 (their squares overflow) or 2^-600 (they
    underflow) give the unscaled relative error bit for bit, and an energy
    norm scaled by the same power of two; a reference with an infinite
    entry is still a ZeroNormError."""
    system = small_system
    mat = MaterialParams(t=1e-3)
    sp_t, sp_u = system.disc.theta_space, system.disc.u_space
    vecs = [rng.standard_normal(sp.dim) for sp in (sp_t, sp_u, sp_t, sp_u)]

    def error(scale):
        th, uu, ref_t, ref_u = (v * scale for v in vecs)
        return system.relative_error(mat, ThetaVector(sp_t, th), UVector(sp_u, uu),
                                     ThetaVector(sp_t, ref_t), UVector(sp_u, ref_u))

    assert error(2.0 ** power) == error(1.0) > 0.0
    norm = system.energy_norm(mat, vecs[0], vecs[1])
    assert system.energy_norm(mat, vecs[0] * 2.0 ** power, vecs[1] * 2.0 ** power) \
        == norm * 2.0 ** power
    vecs[2][0] = np.inf
    with pytest.raises(ZeroNormError):
        error(1.0)


def test_dirichlet_lift_keeps_interpolated_traces(k0_system, monkeypatch):
    """The solve keeps the interpolated traces on the Dirichlet DOFs, and
    its lift K x_D, stacked products with the kept blocks, is
    ``full_matrix @ x_D`` to round-off: tri n = 2 at k = 0 and hexa_02 at
    k = 1."""
    def theta_fn(x):
        return np.stack([x[:, 0], x[:, 1] ** 2], -1)

    products = []
    matvec = PlateSystem._matvec
    monkeypatch.setattr(PlateSystem, "_matvec",
                        lambda self, scales, x: products.append((x.copy(), matvec(self, scales, x)))
                        or products[-1][1])
    material = MaterialParams()
    for system in (k0_system, PlateSystem(Discretization(_order_mesh("hexa"), 1))):
        disc = system.disc
        ti = interpolate_theta(disc, theta_fn)
        ui = interpolate_u(disc, lambda x: x[:, 0] + x[:, 1])
        full = np.concatenate([ti.values, ui.values])
        load = system.load_vector(lambda x: np.ones(len(x)))
        products.clear()
        theta, u, rep = system.solve(material, load, full)
        got = np.concatenate([theta.values, u.values])
        assert np.abs((got - full)[system.dirichlet_mask]).max() == 0.0
        assert rep.residual <= 1e-10
        x_d, lift = products[0]                 # the first product is the lift
        assert np.array_equal(x_d, np.where(system.dirichlet_mask, full, 0.0))
        ref = system.full_matrix(material) @ x_d
        assert np.linalg.norm(lift - ref) <= 1e-14 * np.linalg.norm(ref)


def test_high_degree_solution_accuracy():
    """Degree 3 on one coarse triangular mesh: the discrete solution tracks
    the interpolate of the exact solution closely (fourth-order scheme)."""
    from ddrplate.harness import solve_case
    err2, rep, _ = solve_case(PlateSystem(Discretization(triangular_mesh(2), 3)),
                              MaterialParams(t=0.1), "polynomial")
    assert rep.residual <= 1e-10
    assert err2 < 0.5
    err4, _, _ = solve_case(PlateSystem(Discretization(triangular_mesh(4), 3)),
                            MaterialParams(t=0.1), "polynomial")
    assert err4 < 0.2 * err2       # measured: 3.1e-1 -> 2.0e-2


def _zero_dof(system, dof, monkeypatch):
    """Zero the row and column of ``dof`` in every kept block (copies, so
    the module's shared systems stay as built)."""
    def zeroed(rows, cols, block):
        return np.where((rows == dof)[:, :, None] | (cols == dof)[:, None, :], 0.0, block)

    blocks = []
    for b in system._blocks:
        t, u = np.split(b.dofs, [b.s0.shape[1]], axis=1)
        blocks.append(dataclasses.replace(b, s0=zeroed(t, t, b.s0), s1=zeroed(t, t, b.s1),
                                          M=zeroed(t, t, b.M), g=zeroed(t, u, b.g)))
    jump = [(idx, np.where((idx == dof)[:, None], 0.0, J), h, at)
            for idx, J, h, at in system._jump]
    monkeypatch.setattr(system, "_blocks", blocks)
    monkeypatch.setattr(system, "_jump", jump)


def test_singular_matrix_raises_solver_failure(k0_system, monkeypatch):
    """A free DOF whose row and column are zero makes K_ff singular: the
    factorization error surfaces as the typed SolverFailure."""
    system = k0_system
    _zero_dof(system, system.free[0], monkeypatch)
    load = system.load_vector(lambda x: np.ones(len(x)))
    with pytest.raises(SolverFailure, match="factorization"):
        system.solve(MaterialParams(), load)


@pytest.mark.parametrize("k", [1, 3])
def test_refinement_corrects_through_the_condensed_factor(k, monkeypatch):
    """With the condensed matrix factored 10% too large, each refinement
    step is exact on the interior DOFs and off by the factor's error on the
    others, so the backward error contracts by 0.1 / 1.1 per step (a
    correction that dropped the interior residual would stall)."""
    system = PlateSystem(Discretization(triangular_mesh(4), k))
    monkeypatch.setattr(ddrplate.system, "Cholesky", lambda sn, F: Cholesky(sn, 1.1 * F))
    load = system.load_vector(lambda x: np.sin(np.pi * x[:, 0]) * x[:, 1])
    _, _, rep = system.solve(MaterialParams(t=1e-1), load)
    errors = np.array(rep.backward_errors)
    assert rep.refinement_steps >= 3
    assert np.all(errors[1:] <= (0.1 / 1.1 + 1e-3) * errors[:-1])
    assert errors[-1] <= 1e-12


@pytest.mark.parametrize("young", [1e160, 1e250])
def test_backward_error_is_scale_free(young):
    """The normwise backward error does not change when K and b are scaled
    together, and it is taken on scaled vectors: at E = 1e160 the square of
    ||b|| overflowed (the error read 0.0), at E = 1e250 that of ||r|| too
    (NaN, after eight futile refinement steps)."""
    system = PlateSystem(Discretization(triangular_mesh(4), 0))
    ref, _, _ = solve_case(system, MaterialParams(), "polynomial")
    error, report, _ = solve_case(system, MaterialParams(E=young), "polynomial")
    assert np.isfinite(report.residual) and report.residual <= 1e-10
    assert report.refinement_steps == 0
    assert error == pytest.approx(ref, rel=1e-13)


def test_nan_backward_error_raises_solver_failure(k0_system, monkeypatch):
    monkeypatch.setattr(ddrplate.system, "_norm", lambda v: float("nan"))
    load = k0_system.load_vector(lambda x: np.ones(len(x)))
    with pytest.raises(SolverFailure, match="nan"):
        k0_system.solve(MaterialParams(), load)


def test_singular_interior_block_raises_solver_failure(small_system, monkeypatch):
    """An element-interior DOF whose row and column are zero makes its
    cell's K_II singular: the elimination fails with the typed
    SolverFailure before anything is factored."""
    system = small_system
    _zero_dof(system, 0, monkeypatch)              # DOF 0: cell 0's first rotation slot
    assert not system.full_matrix(MaterialParams())[0].count_nonzero()
    load = system.load_vector(lambda x: np.ones(len(x)))
    with pytest.raises(SolverFailure, match="element-interior"):
        system.solve(MaterialParams(), load)


_THICKNESSES = (1e-1, 1e-3, 1e-5)
_FACTOR_CASES = [("tri", k) for k in range(4)] + [("hexa", 1)]


@pytest.fixture(scope="module")
def factorizations():
    """Per case (tri n = 8 at k = 0..3, hexa_02 at k = 1): the system and,
    per thickness, the matrix whose lower triangle the solve sums into the
    fronts of the Cholesky factorization (read by the oracle before the
    factorization overwrites it), its factor and the solve report."""
    hexa = load_mesh(str(resources.files("ddrplate") / "assets" / "meshes"
                         / "hexa_02.json"))
    meshes = {"tri": triangular_mesh(8), "hexa": hexa}
    captured = []

    def recording_cholesky(sn, fronts):
        A = fronts_matrix(sn, fronts)
        chol = Cholesky(sn, fronts)
        captured.append((A, chol))
        return chol

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ddrplate.system, "Cholesky", recording_cholesky)
        for family, k in _FACTOR_CASES:
            system = PlateSystem(Discretization(meshes[family], k))
            load = system.load_vector(lambda x: np.sin(np.pi * x[:, 0]) * x[:, 1])
            runs = []
            for t in _THICKNESSES:
                captured.clear()
                theta, u, rep = system.solve(MaterialParams(t=t), load)
                assert rep.residual <= 1e-10
                runs.append(captured[0] + (rep, np.concatenate([theta.values, u.values])))
            out[family, k] = system, load, runs
    return out


def _interior_dofs(system):
    """The element-interior DOFs: the Roly^{k-1} and cRoly^k rotation slots
    and the P^{k-1} displacement slots of every cell."""
    disc = system.disc
    n_el = disc.mesh.n_elements
    return np.concatenate([np.arange(n_el * disc.theta_space.elem_dim),
                           system.n_theta + np.arange(n_el * disc.u_space.elem_dim)])


def _factored_dofs(system):
    return np.setdiff1d(system.free, _interior_dofs(system))


def _structural_pattern(system):
    """Pattern of K on the factored DOFs (the free ones less the element
    interiors) from the mesh alone: each cell couples all its
    rotation and displacement DOFs, and at k = 0 the jump penalisation
    couples the rotation DOFs of the two cells of each interior edge."""
    disc = system.disc
    n = system.n_theta + system.n_u
    blocks = []
    for ctx in disc.elem_ctxs:
        dofs = np.concatenate([disc.theta_space.local_dofs(ctx),
                               system.n_theta + disc.u_space.local_dofs(ctx)], axis=1)
        blocks.append((dofs, dofs, np.ones((ctx.n_cells, dofs.shape[1], dofs.shape[1]))))
    if disc.k == 0:
        theta = [disc.theta_space.local_dofs(ctx) for ctx in disc.elem_ctxs]
        for eid in disc.mesh.interior_edges:
            group, pos = locate(disc, np.array(disc.mesh.edges[eid].elements))
            dofs = np.concatenate([theta[g][p] for g, p in zip(group, pos)])[None]
            blocks.append((dofs, dofs, np.ones((1, dofs.shape[1], dofs.shape[1]))))
    pattern = assemble(blocks, (n, n))
    factored = system.factored            # in the nested-dissection order
    return pattern[factored][:, factored].tocsc()


@pytest.mark.parametrize("case", _FACTOR_CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
def test_factored_pattern_is_the_structural_one(factorizations, case):
    """At every thickness the factored matrix's pattern, which ``kff_nnz``
    counts, is the structural one, and the solve sums no nonzero entry
    outside it: the fronts are laid out from the mesh before any value, so
    round-off cannot change the ordering."""
    system, _, runs = factorizations[case]
    pattern = _structural_pattern(system)
    mask = pattern.copy()
    mask.data[:] = 1.0
    for A, _, rep, _ in runs:
        assert rep.kff_nnz == pattern.nnz
        assert (A - A.multiply(mask)).count_nonzero() == 0


_GATHER_CASES = [("tri", 0), ("tri", 3), ("hexa", 1)]


@pytest.mark.parametrize("case", _FACTOR_CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
def test_factored_size_excludes_the_element_interiors(factorizations, case):
    """The factored matrix is square on the free DOFs less the
    dim Roly^{k-1} + dim cRoly^k + dim P^{k-1} interior DOFs of every cell."""
    system, _, runs = factorizations[case]
    k, n_el = system.disc.k, system.disc.mesh.n_elements
    size = system.free.size - n_el * (dim_roly(k - 1) + dim_croly(k) + dim_P(k - 1))
    # the factored DOFs, each once, renumbered by the nested-dissection order
    assert np.array_equal(np.sort(system.factored), _factored_dofs(system))
    for A, _, rep, _ in runs:
        assert A.shape == (size, size)
        assert rep.n_factored == size
        assert rep.n_free == system.free.size
    assert (size == system.free.size) == (k == 0)


@pytest.mark.parametrize("case", _FACTOR_CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
def test_solution_matches_a_direct_solve_of_the_full_system(factorizations, case):
    """Eliminating the interiors and back-substituting gives the solution of
    K_ff sliced from ``full_matrix`` and solved by ``spsolve``."""
    system, load, runs = factorizations[case]
    free = system.free
    K = system.full_matrix(MaterialParams(t=1e-1))
    ref = spsolve(K[free][:, free].tocsc(), load[free])
    x = runs[_THICKNESSES.index(1e-1)][3]
    assert np.linalg.norm(x[free] - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.abs(x[system.dirichlet_mask]).max(initial=0.0) == 0.0


@pytest.mark.parametrize("case", _GATHER_CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
@pytest.mark.parametrize("t", [1e-1, 1e-5])
def test_factored_matrix_is_the_sliced_full_matrix(factorizations, case, t):
    """The solve factors the Schur complement K_BB - K_BI K_II^{-1}
    K_IB of K_ff sliced from ``full_matrix``, unscaled, where I are the
    element-interior DOFs and B the other free ones. At k = 0 there is no
    interior and it equals K_ff to 1e-15 of its largest entry: the solve
    sums each cell's K_T, ``full_matrix`` each form, so only the order of
    the addends differs (measured 2e-16). Otherwise it matches the Schur
    complement from sparse products to 1e-13 (measured at most 1e-14 on
    these cases and the jittered k = 3 mesh, where the K_II blocks at
    t = 1e-5 have condition numbers up to about 1e12)."""
    system, _, runs = factorizations[case]
    A, _, _, _ = runs[_THICKNESSES.index(t)]
    K = system.full_matrix(MaterialParams(t=t))
    inner = np.intersect1d(system.free, _interior_dofs(system))
    outer = system.factored               # in the nested-dissection order
    schur = K[outer][:, outer].tocsc()
    if inner.size:
        K_II = K[inner][:, inner].tocsc()
        schur = schur - K[outer][:, inner] @ spsolve(K_II, K[inner][:, outer].tocsc())
    ref = schur.tocsc()
    assert A.format == "csc" and A.shape == ref.shape
    assert abs(A - ref).max() <= (1e-13 if inner.size else 1e-15) * abs(ref).max()


@pytest.mark.parametrize("case", _GATHER_CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
def test_thicknesses_share_the_factored_pattern(factorizations, case):
    """Every thickness factors on the supernodes analysed once per mesh and
    degree, and reports the same pattern and factor sizes."""
    system, _, runs = factorizations[case]
    (_, thick, thick_rep, _), (_, thin, thin_rep, _) = runs[0], runs[_THICKNESSES.index(1e-5)]
    assert thick.sn is thin.sn is system._supernodes
    assert (thick_rep.kff_nnz, thick_rep.factor_nnz) == (thin_rep.kff_nnz, thin_rep.factor_nnz)


@pytest.mark.parametrize("case", _FACTOR_CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
def test_local_block_products_match_sparse_products(factorizations, case):
    """The shear form is [I, -g]^T M [I, -g] summed from cell blocks: its
    rotation block is the DDR L2 product, and its coupling blocks match the
    sparse products -M G and G^T M G of the global gradient."""
    system, _, _ = factorizations[case]
    nt = system.n_theta
    s2 = stream(system, 2)
    M = s2[:nt, :nt]
    packs = build_packs(system.disc)
    M_ref = assemble_theta_product(system.disc, packs)
    assert abs(M - M_ref).max() <= 1e-14 * abs(M_ref).max()
    G, _ = build_global_gradient(system.disc, packs)
    MG = M @ G
    GMG = G.T @ MG
    assert abs(-s2[:nt, nt:] - MG).max() <= 1e-14 * abs(MG).max()
    assert abs(s2[nt:, :nt] + MG.T).max() <= 1e-14 * abs(MG).max()
    assert abs(s2[nt:, nt:] - GMG).max() <= 1e-14 * abs(GMG).max()


@pytest.mark.parametrize("k", range(4))
def test_factorization_uses_diagonal_pivots_of_an_spd_matrix(factorizations, k):
    """K_ff is symmetric positive definite for t >= 1e-5, so its Schur
    complement is too, and the Cholesky factorization in the fixed
    nested-dissection order finds every pivot positive: L has a positive
    diagonal and stores one entry per node block entry on or below it."""
    _, _, runs = factorizations["tri", k]
    for A, chol, rep, _ in runs:
        L = lower_factor(chol)
        assert L.diagonal().min() > 0.0
        assert L.nnz <= rep.factor_nnz == chol.nnz
        assert np.count_nonzero(sps.tril(A).toarray()) <= L.nnz


_CHOLESKY_CASES = [("tri", k) for k in range(4)] + [("hexa", 1), ("locref", 0)]


@pytest.mark.parametrize("case", _CHOLESKY_CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
def test_factor_reproduces_the_condensed_matrix(case, monkeypatch):
    """L L^T equals the matrix the solve factors (the condensed matrix
    after the Schur update, as the solve sums it into the fronts) to 1e-13
    of its largest entry, on tri n = 8 at k = 0..3, hexa_02 at k = 1 and
    locref_02 at k = 0."""
    family, k = case
    system = PlateSystem(Discretization(_order_mesh(family), k))
    captured = []
    monkeypatch.setattr(ddrplate.system, "Cholesky", lambda sn, F: captured.append(
        (fronts_matrix(sn, F), Cholesky(sn, F))) or captured[-1][1])
    system.solve(MaterialParams(t=1e-3), system.load_vector(lambda x: np.ones(len(x))))
    (A, chol), = captured
    L = lower_factor(chol)
    assert abs(L @ L.T - A).max() <= 1e-13 * abs(A).max()


def test_negative_pivot_raises_solver_failure(k0_system, monkeypatch):
    """A condensed matrix with one diagonal entry negated is not positive
    definite: its factorization ends as the typed SolverFailure."""
    def negated(sn, fronts):
        A = fronts_matrix(sn, fronts)
        A.data[A.indptr[7] + np.flatnonzero(A.indices[A.indptr[7]:A.indptr[8]] == 7)] *= -1.0
        return Cholesky(sn, node_blocks(sn, A))

    monkeypatch.setattr(ddrplate.system, "Cholesky", negated)
    load = k0_system.load_vector(lambda x: np.ones(len(x)))
    with pytest.raises(SolverFailure, match="not positive definite"):
        k0_system.solve(MaterialParams(), load)


@pytest.mark.parametrize("case", _GATHER_CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
def test_symmetric_scaling_only_rescales_the_factorization(factorizations, case, rng):
    """In the fixed nested-dissection order, the Cholesky factor of D A D
    for a positive diagonal D is D L, L the factor of A, to round-off, and
    D-mapped solutions agree (van der Sluis, Numer. Math. 14, 1969). So the
    solve factors A unscaled; a change that made the order or the pivots
    depend on the values fails here."""
    system, _, runs = factorizations[case]
    A, chol, _, _ = runs[_THICKNESSES.index(1e-1)]
    d = 10.0 ** rng.uniform(-2.0, 2.0, A.shape[0])
    scaled = A.copy()
    scaled.data *= d[scaled.indices] * np.repeat(d, np.diff(scaled.indptr))
    chol_scaled = Cholesky(system._supernodes, node_blocks(system._supernodes, scaled))
    L, L_scaled = lower_factor(chol), lower_factor(chol_scaled)
    assert L.nnz == L_scaled.nnz
    assert abs(sps.diags(1.0 / d) @ L_scaled - L).max() <= 1e-12 * abs(L).max()
    b = rng.standard_normal(A.shape[0])
    x = chol.solve(b)
    assert np.linalg.norm(d * chol_scaled.solve(d * b) - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("k", range(4))
def test_worst_local_conditioning_is_reported(factorizations, k):
    """The largest condition number of the local rotation-potential (P_T),
    displacement-reconstruction (P_U) and strain-reconstruction (P1) systems
    is kept on the system and carried by every solve report."""
    system, _, _ = factorizations["tri", k]
    assert 1.0 <= system.local_cond < np.inf
    _, _, rep = system.solve(MaterialParams(), np.zeros(system.n_theta + system.n_u))
    assert rep.local_cond == system.local_cond


@pytest.mark.parametrize("k", range(4))
def test_local_conditioning_does_not_grow_under_refinement(k):
    """The worst condition number over the P_T, P_U and P1 systems stays put
    as the mesh is refined: the rot rows of the rotation-potential system are
    scaled by h_T, and the closure rows of the strain reconstruction by the
    magnitude of its stiffness (measured: 5.31 / 84.7 / 557 / 1683 at
    k = 0 / 1 / 2 / 3 for every n; with unscaled closure rows it grows about
    16x per halving of h)."""
    sizes = (4, 8, 16, 32) if k < 2 else (4, 8, 16)
    conds = [PlateSystem(Discretization(triangular_mesh(n), k)).local_cond for n in sizes]
    assert max(conds) < 1.5 * min(conds)


# -- nested-dissection ordering ---------------------------------------------


def _asset(name):
    return load_mesh(str(resources.files("ddrplate") / "assets" / "meshes" / f"{name}.json"))


def _jittered(mesh, seed=0, amount=0.2):
    """The mesh with its interior vertices moved by up to ``amount`` times
    the mesh size, seeded, so that no coordinate ties remain."""
    move = amount * mesh.h * (np.random.default_rng(seed).random(mesh.vertex_coords.shape) - 0.5)
    move[mesh.boundary_vertices] = 0.0
    loops = np.split(mesh.cell_vertices, mesh.cell_offsets[1:-1])
    return build_mesh(mesh.vertex_coords + move, [loop.tolist() for loop in loops])


_ORDER_CASES = ([("tri", k) for k in range(4)]
                + [("hexa", 1), ("hexa", 0), ("locref", 0), ("locref", 2), ("jitter", 0),
                   ("jitter", 1)])


def _order_mesh(family):
    return {"tri": lambda: triangular_mesh(8), "hexa": lambda: _asset("hexa_02"),
            "locref": lambda: _asset("locref_02"),
            "jitter": lambda: _jittered(triangular_mesh(8))}[family]()


@pytest.mark.parametrize("case", _ORDER_CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
def test_condensed_entries_couple_ancestors_in_the_separator_tree(case):
    """The factored DOFs are ordered by a nested-dissection separator tree,
    numbered in postorder: every stored entry of the condensed pattern
    couples two DOFs whose nodes are an ancestor and a descendant (or the
    same node), so no entry joins two subtrees that a separator parts. At
    k = 0 this covers the jump's couplings across edges."""
    family, k = case
    system = PlateSystem(Discretization(_order_mesh(family), k))
    node, parent = system.separator_tree
    assert node.shape == system.factored.shape
    assert np.all(np.diff(node) >= 0)                       # the DOFs by node
    root = len(parent) - 1
    assert parent[root] == -1
    assert np.all(parent[:root] > np.arange(root))          # postorder
    pattern = _structural_pattern(system).tocoo()
    low = np.minimum(node[pattern.row], node[pattern.col])
    high = np.maximum(node[pattern.row], node[pattern.col])
    climbing = low < high
    while climbing.any():
        low[climbing] = parent[low[climbing]]
        climbing = (low >= 0) & (low < high)
    assert np.array_equal(low, high)
    ordering = system.ordering
    assert ordering["method"] == "nested dissection"
    assert ordering["top_separator"] == np.count_nonzero(node == root) > 0
    assert ordering["supernodes"] == len(parent)
    assert np.all(np.bincount(node, minlength=len(parent)) > 0)   # no empty node
    depth = np.zeros(len(parent), dtype=int)
    for i in range(root - 1, -1, -1):                       # parents come later
        depth[i] = depth[parent[i]] + 1
    assert ordering["depth"] == depth.max()


@pytest.mark.parametrize("case", [("tri", k) for k in range(4)] + [("hexa", 1), ("locref", 0)],
                         ids=lambda c: f"{c[0]}-k{c[1]}")
def test_separator_tree_leaves_hold_at_most_one_pivot_block(case):
    """The dissection splits a part while it holds more than ``_BLOCK``
    factored DOFs: every leaf holds at most that many, so it is one pivot
    block of the factorization, and every node with children stands for a
    part (its subtree) that held more."""
    family, k = case
    system = PlateSystem(Discretization(_order_mesh(family), k))
    node, parent = system.separator_tree
    held = np.bincount(node, minlength=len(parent))
    for i in range(len(parent) - 1):                        # children come first
        held[parent[i]] += held[i]
    inner = np.zeros(len(parent), dtype=bool)
    inner[parent[:-1]] = True
    assert inner.any()
    assert np.all(held[~inner] <= _BLOCK)
    assert np.all(held[inner] > _BLOCK)


def test_ordering_is_deterministic():
    """Two builds of one mesh give the same permutation and tree."""
    mesh = _jittered(triangular_mesh(8), seed=3)
    first, second = (PlateSystem(Discretization(mesh, 1)) for _ in range(2))
    assert np.array_equal(first.factored, second.factored)
    for a, b in zip(first.separator_tree, second.separator_tree):
        assert np.array_equal(a, b)
    assert first.ordering == second.ordering


@pytest.mark.parametrize("case", [("tri32", 0), ("tri16", 3), ("hexa_03", 1), ("locref_03", 0)],
                         ids=lambda c: f"{c[0]}-k{c[1]}")
def test_nested_dissection_fill_stays_near_minimum_degree(case, monkeypatch):
    """The nonzero entries of the Cholesky factor L of the condensed matrix
    in nested-dissection order are at most 1.10 times those of the L of
    SuperLU's minimum-degree ordering of A^T + A on the same matrix, the
    oracle (measured: 1.09 / 1.02 / 1.03 / 1.00). The factor stores every
    entry of its dense node blocks, zeros included: ``factor_nnz``. The
    oracle sees the matrix on its structural pattern, that of the factored
    slice of ``full_matrix``, entries that cancel to 0.0 included."""
    name, k = case
    mesh = triangular_mesh(int(name[3:])) if name.startswith("tri") else _asset(name)
    system = PlateSystem(Discretization(mesh, k))
    captured = []
    monkeypatch.setattr(ddrplate.system, "Cholesky", lambda sn, F: captured.append(
        (fronts_matrix(sn, F), Cholesky(sn, F))) or captured[-1][1])
    material = MaterialParams(t=1e-3)
    _, _, rep = system.solve(material, system.load_vector(lambda x: np.ones(len(x))))
    (values, chol), = captured
    pattern = system.full_matrix(material)[system.factored][:, system.factored].tocoo()
    A = sps.csc_matrix((np.asarray(values[pattern.row, pattern.col]).ravel(),
                        (pattern.row, pattern.col)), shape=values.shape)
    assert A.nnz == rep.kff_nnz
    mmd = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               options={"SymmetricMode": True})
    assert rep.factor_nnz == chol.nnz
    assert np.count_nonzero(chol.factor) <= 1.10 * np.count_nonzero(mmd.L.data)


@pytest.mark.parametrize("case", [("tri", 0), ("tri", 3), ("hexa", 0), ("hexa", 2), ("locref", 0)],
                         ids=lambda c: f"{c[0]}-k{c[1]}")
def test_cell_blocks_and_condensed_data_are_bitwise_symmetric(case, monkeypatch):
    """Every kept square cell block is symmetrised once, and so is each
    shear block [I, -g]^T M [I, -g] where it is formed, and the k = 0 jump
    lists each DOF once, so every block is symmetric bit for bit, and so are
    the forms summed from them and the full matrix. Without the
    symmetrisation the g^T M g blocks of tri k = 3 differ from their
    transposes by round-off. A solve sums the fronts of its factorization
    stack by stack, one chunk at a time: each cell's K_BB less its
    symmetrised Schur block, then the jump stacks in edge chunks. Every
    block of them is symmetric bit for bit, so the lower triangle that the
    fronts keep is the whole matrix, and the fronts handed to the
    factorization are their ``sum_blocks`` bit for bit."""
    family, k = case
    system = PlateSystem(Discretization(_order_mesh(family), k))
    for b in system._blocks:
        for block in (b.s0, b.s1, b.M, ddrplate.system._shear(b)):
            assert np.array_equal(block, np.swapaxes(block, 1, 2))
    for _, J, h, _ in system._jump:
        vals = jump_form(J, h)
        assert np.array_equal(vals, np.swapaxes(vals, 1, 2))
    assert bool(system._jump) == (k == 0)
    for i in range(3):
        s = stream(system, i)
        assert (s != s.T).nnz == 0
    material = MaterialParams(t=1e-5)
    K = system.full_matrix(material)
    assert (K != K.T).nnz == 0
    stacks, factored = [], []
    watch_fronts(monkeypatch, system, lambda at, block: stacks.append((at, block.copy())))
    monkeypatch.setattr(ddrplate.system, "Cholesky",
                        lambda sn, F: factored.append(F.copy()) or Cholesky(sn, F))
    system.solve(material, system.load_vector(lambda x: np.ones(len(x))))
    assert len(factored) == 1
    assert len(stacks) == len(system._blocks) + sum(len(cell_chunks(idx))
                                                    for idx, *_ in system._jump)
    for _, block in stacks:
        assert np.array_equal(block, np.swapaxes(block, 1, 2))
    out = sum_blocks(*zip(*stacks), system._supernodes.offset[-1] + 1)
    assert out[:-1].tobytes() == factored[0].tobytes()


_SLICE_CASES = [("tri", k) for k in range(4)] + [("hexa", 1), ("locref", 0), ("jitter", 3)]


@pytest.mark.parametrize("case", _SLICE_CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
@pytest.mark.parametrize("t", [1e-1, 1e-5])
def test_condensed_data_is_the_factored_slice_of_the_full_matrix(case, t, monkeypatch):
    """The matrix a solve factors, summed into the fronts from the kept
    blocks, is the Schur complement of the slice of ``full_matrix`` on the
    free DOFs, formed here from sparse products on the factored DOFs in
    their nested-dissection order and the element interiors: the solve's
    L L^T equals it to 1e-13 of its largest entry (measured at most 1.4e-14).
    The positions in the fronts come from the separator tree's analysis,
    the slice from ``block_pattern``; on the jittered mesh the k = 3 leaves
    split otherwise than on the regular one."""
    family, k = case
    system = PlateSystem(Discretization(_order_mesh(family), k))
    material = MaterialParams(nu=0.25, t=t)
    captured = []
    monkeypatch.setattr(ddrplate.system, "Cholesky",
                        lambda sn, F: captured.append(Cholesky(sn, F)) or captured[-1])
    system.solve(material, system.load_vector(lambda x: np.ones(len(x))))
    K = system.full_matrix(material)
    inner = np.intersect1d(system.free, _interior_dofs(system))
    outer = system.factored
    ref = K[outer][:, outer].tocsc()
    if inner.size:
        ref = ref - K[outer][:, inner] @ spsolve(K[inner][:, inner].tocsc(),
                                                 K[inner][:, outer].tocsc())
    L = lower_factor(captured[0])
    assert L.shape == ref.shape == (outer.size, outer.size)
    assert abs(L @ L.T - ref).max() <= 1e-13 * abs(ref).max()


@pytest.mark.parametrize("case", _SLICE_CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
@pytest.mark.parametrize("t", [1e-1, 1e-5])
def test_norm_of_k_is_the_row_sum_norm_of_the_free_slice(case, t, monkeypatch):
    """The ||K|| of the backward error is the largest free row sum of
    sum_T |K_T| (each k = 0 jump stack counted as a cell), a bound of
    |K_ff| entry by entry taken from the blocks alone. Here it equals
    ||K_ff||_inf of ``full_matrix``'s free slice to 1e-14 relative
    (measured at most 6e-16 up to tri n = 64), so the 1e-10 gate is as
    strict as with the exact norm. A load of 1 on every free DOF makes the
    solve's first normed vector 1 / ||K|| there."""
    family, k = case
    system = PlateSystem(Discretization(_order_mesh(family), k))
    material = MaterialParams(nu=0.25, t=t)
    load = np.zeros(system.n_theta + system.n_u)
    load[system.free] = 1.0
    seen = []
    norm = ddrplate.system._norm
    monkeypatch.setattr(ddrplate.system, "_norm", lambda v: seen.append(v.copy()) or norm(v))
    system.solve(material, load)
    knorm = 1.0 / seen[0].max()
    K = system.full_matrix(material)[system.free][:, system.free]
    exact = abs(K).sum(axis=1).max()
    assert abs(knorm - exact) <= 1e-14 * exact


def _energy_oracle(system, material, G, M, theta, u):
    """The squared energy norm of (theta, u) from the assembled bending form,
    global gradient G and DDR L2 product M: a_h plus mu M on theta, and the
    shear strain theta - G u, formed before its product, and G u in M."""
    gu = G @ u
    z = theta - gu
    bend = theta @ (bending_matrix(system, material) @ theta + material.mu * (M @ theta))
    return bend + material.shear_over_t2 * (z @ (M @ z)) + material.mu * (gu @ (M @ gu))


@pytest.mark.parametrize("case", [("tri", k) for k in range(4)] + [("hexa", 1), ("locref", 0)],
                         ids=lambda c: f"{c[0]}-k{c[1]}")
def test_energy_norms_from_cell_gradients_match_the_assembled_gradient(case):
    """The energy norm and the relative error take each cell's shear strain
    eta_T - g_T v_T from its kept rows g of the discrete gradient: they
    equal those of the assembled G and M (``build_global_gradient``,
    ``assemble_theta_product``) to 1e-13 relative, for the discrete
    solution and the interpolate of the polynomial and the analytical
    solutions at t = 1e-1, 1e-3 and 1e-5. Measured at most 3.6e-14 for a
    norm and 5.8e-14 for an error (tri k = 1, t = 1e-5): there the strain
    is the small difference of eta and G v, so the round-off of G v, summed
    in another order per cell than in the sparse product, weighs most; a
    wrong row of g moves the norms at order one."""
    family, k = case
    system = PlateSystem(Discretization(_order_mesh(family), k))
    packs = build_packs(system.disc)
    G, _ = build_global_gradient(system.disc, packs)
    M = assemble_theta_product(system.disc, packs)
    for solution in ("polynomial", "analytical"):
        for t in (1e-1, 1e-3, 1e-5):
            material = MaterialParams(t=t)
            error, _, (theta_h, u_h, theta_i, u_i) = solve_case(system, material, solution)
            for theta, u in ((theta_h, u_h), (theta_i, u_i)):
                norm = system.energy_norm(material, theta.values, u.values)
                ref = np.sqrt(_energy_oracle(system, material, G, M, theta.values, u.values))
                assert abs(norm - ref) <= 1e-13 * ref
            num, den = (np.sqrt(_energy_oracle(system, material, G, M, th, uu))
                        for th, uu in ((theta_h.values - theta_i.values, u_h.values - u_i.values),
                                       (theta_i.values, u_i.values)))
            assert abs(error - num / den) <= 1e-13 * (num / den)
