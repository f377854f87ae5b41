import numpy as np
import pytest

from conftest import (ASSETS, cell, cells, edge_view, family_div, family_grad,
                      refined_edge_quadrature, refined_quadrature)
from ddrplate.errors import SingularLocalSystem
from ddrplate.mesh import build_mesh, load_mesh, triangular_mesh
from ddrplate.operators import (_vp_k, assemble_theta_product,
                                build_global_gradient, build_local_pack, build_packs)
from ddrplate.polyspace import dim_P
from ddrplate.spaces import (Discretization, interpolate_theta,
                             interpolate_theta_tangential, interpolate_u)


def _exps(l):
    return [(d - i, i) for d in range(l + 1) for i in range(d + 1)]


def _poly_scalar(coefs, l):
    def v(x):
        xs = np.atleast_2d(x)
        vander = np.stack([xs[:, 0] ** a * xs[:, 1] ** b for a, b in _exps(l)], axis=1)
        return vander @ coefs
    return v


def _poly_vector(coefs, l):
    def eta(x):
        xs = np.atleast_2d(x)
        vander = np.stack([xs[:, 0] ** a * xs[:, 1] ** b for a, b in _exps(l)], axis=1)
        return np.stack([vander @ coefs[0], vander @ coefs[1]], axis=-1)
    return eta


def _u_trace_fn(ctx, pack, j, u_loc):
    ec = ctx.edges[j].ctx
    coef = pack.trace[j] @ u_loc

    def val(points):
        rel = (points - ec.edge.midpoint) @ ec.edge.tangent
        s = rel / (0.5 * ec.edge.length)
        return ec.family.eval_s(s) @ coef

    return val


# ---------------------------------------------------------------------------
# displacement gradient


@pytest.mark.parametrize("k", range(4))
def test_gradient_exact_on_affine(cache, k):
    disc = cache.disc("hexa", k)
    b = np.array([0.8, -0.45])
    iu = interpolate_u(disc, lambda x: 0.3 + x @ b).values
    sp_u = disc.u_space
    np_k = dim_P(k)
    for ctx, pack in cells(disc, cache.packs("hexa", k)):
        g = pack.GT @ iu[ctx.u_dofs]
        vals = np.stack([ctx.phi[:, :np_k] @ g[:np_k],
                         ctx.phi[:, :np_k] @ g[np_k:]], axis=-1)
        assert np.abs(vals - b).max() < 1e-12


def test_gradient_kills_constants(cache):
    for k in (0, 2):
        disc = cache.disc("tri", k)
        iu = interpolate_u(disc, lambda x: np.full(len(x), 2.5)).values
        sp_u = disc.u_space
        for ctx, pack in cells(disc, cache.packs("tri", k)):
            g = pack.GT @ iu[ctx.u_dofs]
            assert np.abs(g).max() < 1e-12


@pytest.mark.parametrize("k", range(4))
def test_gradient_defining_equation_oracle(cache, rng, k):
    """For random DOF vectors, int_T G_T v . eta must equal the separately
    re-assembled right-hand side (finer quadrature, raw monomials) for random
    test fields eta in vP^k."""
    disc = cache.disc("hexa", k)
    ctx, pack = cell(disc, 0, cache.packs("hexa", k))
    np_k = dim_P(k)
    v_loc = rng.standard_normal(pack.n_u)
    g = pack.GT @ v_loc
    qp, qw = refined_quadrature(ctx)
    gv = np.stack([ctx.scal.eval(qp)[:, :np_k] @ g[:np_k],
                   ctx.scal.eval(qp)[:, :np_k] @ g[np_k:]], axis=-1)
    for _ in range(20):
        ec = rng.standard_normal((2, np_k))
        eta = _poly_vector(ec, k)
        eta_grad_coef = ec  # raw monomial coefficients; divergence analytically
        lhs = qw @ np.einsum("qc,qc->q", gv, eta(qp))
        # right-hand side: -int v_T div eta + sum_E int trace (eta . n_out)
        rhs = 0.0
        if dim_P(k - 1):
            vt = ctx.scal.eval(qp)[:, :dim_P(k - 1)] @ v_loc[:dim_P(k - 1)]
            div_eta = _poly_scalar(_raw_divergence(ec, k)[0], max(k - 1, 0))(qp) \
                if k >= 1 else np.zeros(len(qp))
            rhs -= qw @ (vt * div_eta)
        for j, led in enumerate(ctx.edges):
            ep, ew = refined_edge_quadrature(ctx, led)
            tr = _u_trace_fn(ctx, pack, j, v_loc[
                np.arange(pack.n_u)])(ep)
            rhs += ew @ (tr * (eta(ep) @ led.n_out))
        scale = abs(lhs) + abs(rhs) + 1.0
        assert abs(lhs - rhs) < 1e-11 * scale


def _raw_divergence(coefs, l):
    """Divergence coefficients of a raw-monomial vector polynomial."""
    exps = _exps(l)
    out_exps = _exps(max(l - 1, 0))
    index = {e: i for i, e in enumerate(out_exps)}
    div = np.zeros(len(out_exps))
    for i, (a, b) in enumerate(exps):
        if a >= 1:
            div[index[(a - 1, b)]] += a * coefs[0][i]
        if b >= 1:
            div[index[(a, b - 1)]] += b * coefs[1][i]
    return div, out_exps


# ---------------------------------------------------------------------------
# displacement reconstruction


@pytest.mark.parametrize("k", range(4))
def test_reconstruction_polynomial_exactness(cache, rng, k):
    disc = cache.disc("locref", k)
    coefs = rng.standard_normal(dim_P(k + 1))
    w = _poly_scalar(coefs, k + 1)
    iu = interpolate_u(disc, w).values
    sp_u = disc.u_space
    np_k1 = dim_P(k + 1)
    for ctx, pack in cells(disc, cache.packs("locref", k)):
        pu = pack.PU @ iu[ctx.u_dofs]
        vals = ctx.phi[:, :np_k1] @ pu
        exact = w(ctx.qpoints)
        assert np.abs(vals - exact).max() < 1e-11 * (np.abs(exact).max() + 1)


def test_reconstruction_of_one(cache):
    disc = cache.disc("hexa", 1)
    iu = interpolate_u(disc, lambda x: np.ones(len(x))).values
    sp_u = disc.u_space
    for ctx, pack in cells(disc, cache.packs("hexa", 1)):
        pu = pack.PU @ iu[ctx.u_dofs]
        vals = ctx.phi[:, :dim_P(2)] @ pu
        assert np.abs(vals - 1.0).max() < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2])
def test_reconstruction_defining_equation_oracle(cache, rng, k):
    disc = cache.disc("hexa", k)
    ctx, pack = cell(disc, 0, cache.packs("hexa", k))
    v_loc = rng.standard_normal(pack.n_u)
    pu = pack.PU @ v_loc
    gt = pack.GT @ v_loc
    np_k, np_k1 = dim_P(k), dim_P(k + 1)
    qp, qw = refined_quadrature(ctx)
    phi = ctx.scal.eval(qp)
    pu_vals = phi[:, :np_k1] @ pu
    gt_vals = np.stack([phi[:, :np_k] @ gt[:np_k], phi[:, :np_k] @ gt[np_k:]], axis=-1)
    cr_vals = ctx.croly.eval(qp)
    cr_div = family_div(ctx.croly, qp)
    for j in rng.choice(ctx.croly.n, size=min(ctx.croly.n, 6), replace=False):
        lhs = qw @ (pu_vals * cr_div[:, j])
        rhs = -qw @ np.einsum("qc,qc->q", gt_vals, cr_vals[:, j])
        for jj, led in enumerate(ctx.edges):
            ep, ew = refined_edge_quadrature(ctx, led)
            tr = _u_trace_fn(ctx, pack, jj, v_loc)(ep)
            rhs += ew @ (tr * (ctx.croly.eval(ep)[:, j] @ led.n_out))
        assert abs(lhs - rhs) < 1e-11 * (abs(lhs) + abs(rhs) + 1)


# ---------------------------------------------------------------------------
# global gradient and commutation


@pytest.mark.parametrize("family", ["tri", "hexa", "locref"])
@pytest.mark.parametrize("k", range(4))
def test_commutation_with_tangential_interpolate(cache, rng, family, k):
    disc = cache.disc(family, k)
    G, _ = build_global_gradient(disc, cache.packs(family, k))
    cases = [
        (lambda x: np.ones(len(x)), lambda x: np.zeros((len(x), 2))),
        (lambda x: x[:, 0], lambda x: np.tile([1.0, 0.0], (len(x), 1))),
        (lambda x: x[:, 0] * x[:, 1], lambda x: np.stack([x[:, 1], x[:, 0]], -1)),
        (lambda x: x[:, 0] ** 2 * x[:, 1],
         lambda x: np.stack([2 * x[:, 0] * x[:, 1], x[:, 0] ** 2], -1)),
    ]
    coefs = rng.standard_normal(dim_P(k + 3))
    v = _poly_scalar(coefs, k + 3)
    gcoef, gexps = _poly_gradient(coefs, k + 3)
    cases.append((v, lambda x: _eval_exps(gcoef, gexps, x)))
    for vf, gf in cases:
        lhs = G @ interpolate_u(disc, vf).values
        rhs = interpolate_theta_tangential(disc, gf).values
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * (np.linalg.norm(rhs) + 1)


def _poly_gradient(coefs, l):
    exps = _exps(l)
    gcoef = np.zeros((2, len(exps)))
    for i, (a, b) in enumerate(exps):
        if a >= 1:
            gcoef[0][exps.index((a - 1, b))] += a * coefs[i]
        if b >= 1:
            gcoef[1][exps.index((a, b - 1))] += b * coefs[i]
    return gcoef, exps


def _eval_exps(gcoef, exps, x):
    xs = np.atleast_2d(x)
    vander = np.stack([xs[:, 0] ** a * xs[:, 1] ** b for a, b in exps], axis=1)
    return np.stack([vander @ gcoef[0], vander @ gcoef[1]], axis=-1)


def test_gradient_of_constant_is_zero(cache):
    disc = cache.disc("tri", 1)
    G, _ = build_global_gradient(disc, cache.packs("tri", 1))
    out = G @ interpolate_u(disc, lambda x: np.full(len(x), 3.0)).values
    assert np.abs(out).max() < 1e-13


@pytest.mark.parametrize("family", ["tri", "hexa", "locref"])
def test_cell_blocks_are_the_rows_of_the_global_gradient(cache, family):
    """Each cell block is G on the cell's rotation rows, and those rows read
    no displacement DOF outside the cell."""
    disc = cache.disc(family, 2)
    G, blocks = build_global_gradient(disc, cache.packs(family, 2))
    for stack in blocks:
        for t_dofs, u_dofs, block in zip(*stack):
            rows = G[t_dofs]
            assert np.array_equal(rows[:, u_dofs].toarray(), block)
            assert rows.nnz == rows[:, u_dofs].nnz


def test_edge_block_differentiates_the_trace(rng):
    """On one edge, a quadratic trace s -> s^2 must map to the coefficients
    of its arc-length derivative times the tangent."""
    disc = Discretization(triangular_mesh(1), 1)
    G, _ = build_global_gradient(disc, build_packs(disc))
    sp_u, sp_t = disc.u_space, disc.theta_space
    ec = edge_view(disc.edge_ctx, disc.mesh, 0)
    vec = np.zeros(sp_u.dim)
    # set DOFs so the trace on edge 0 is s^2 in the reference coordinate
    coef_target = np.zeros(ec.family.ndeg)
    s = ec.s
    pts2 = s ** 2
    coef_target = ec.weights @ (ec.psi * pts2[:, None])   # exact: s^2 deg 2
    ends = ec.family.end_values() @ coef_target
    vec[sp_u.vertex_offset(ec.edge.vertices[0])] = ends[0]
    vec[sp_u.vertex_offset(ec.edge.vertices[1])] = ends[1]
    off = sp_u.edge_offset(ec.edge.id)
    vec[off:off + disc.k] = coef_target[:disc.k]
    out = G @ vec
    got = out[sp_t.edge_tangential_slots(ec.edge.id)]
    # derivative of s^2 along arc length: (2/h) * 2s in reference coordinate
    want = ec.weights @ (ec.psi[:, :disc.k + 1] * (4.0 * s / ec.edge.length)[:, None])
    assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# rotor and rotation potential


@pytest.mark.parametrize("k", range(4))
def test_rotor_of_constant_vanishes(cache, k):
    disc = cache.disc("hexa", k)
    iv = interpolate_theta(disc, lambda x: np.tile([1.3, -0.2], (len(x), 1))).values
    sp = disc.theta_space
    for ctx, pack in cells(disc, cache.packs("hexa", k)):
        r = pack.RT @ iv[ctx.theta_dofs]
        assert np.abs(r).max() < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_rotor_matches_scalar_rot_of_polynomials(cache, rng, k):
    """R_T of an interpolated polynomial equals the L2 projection of its
    scalar rot d1 eta2 - d2 eta1, checked by independent quadrature."""
    disc = cache.disc("tri", k)
    coefs = rng.standard_normal((2, dim_P(k + 1)))
    eta = _poly_vector(coefs, k + 1)
    iv = interpolate_theta(disc, eta).values
    sp = disc.theta_space
    np_k = dim_P(k)
    for ctx, pack in cells(disc, cache.packs("tri", k), limit=3):
        r = pack.RT @ iv[ctx.theta_dofs]
        qp, qw = refined_quadrature(ctx)
        rot_exact = _scalar_rot(coefs, k + 1)(qp)
        for m in range(np_k):
            lhs = qw @ ((ctx.scal.eval(qp)[:, :np_k] @ r) * ctx.scal.eval(qp)[:, m])
            rhs = qw @ (rot_exact * ctx.scal.eval(qp)[:, m])
            assert abs(lhs - rhs) < 1e-11 * (abs(rhs) + 1)


def _scalar_rot(coefs, l):
    exps = _exps(l)

    def rot(x):
        xs = np.atleast_2d(x)
        out = np.zeros(len(xs))
        for i, (a, b) in enumerate(exps):
            if a >= 1:          # d1 of x^a y^b acting on component 2
                out += coefs[1][i] * a * xs[:, 0] ** (a - 1) * xs[:, 1] ** b
            if b >= 1:          # d2 acting on component 1
                out -= coefs[0][i] * b * xs[:, 0] ** a * xs[:, 1] ** (b - 1)
        return out

    return rot


@pytest.mark.parametrize("family", ["tri", "hexa", "locref"])
@pytest.mark.parametrize("k", range(4))
def test_potential_projection_identities(cache, rng, family, k):
    disc = cache.disc(family, k)
    sp = disc.theta_space
    for ctx, pack in cells(disc, cache.packs(family, k)):
        eta = rng.standard_normal(pack.n_theta)
        pt = pack.PT @ eta
        proj = pack.moments[:, _vp_k(k)]     # Roly^{k-1}/cRoly^k moments of vP^k
        if sp.n_roly:
            assert np.abs(proj[:sp.n_roly] @ pt - eta[:sp.n_roly]).max() < 1e-10
        if sp.n_croly:
            assert np.abs(proj[sp.n_roly:] @ pt
                          - eta[sp.n_roly:sp.n_roly + sp.n_croly]).max() < 1e-10


@pytest.mark.parametrize("family", ["tri", "hexa", "locref"])
@pytest.mark.parametrize("k", range(4))
def test_element_tables_against_refined_quadrature(cache, family, k):
    """The derivative masses reproduce grad phi_j (j < dim P^{k+1}) exactly
    from phi_{< dim P^k}, the premise of the algebraic strain reconstruction,
    and the element-moment table matches a finer rule."""
    disc = cache.disc(family, k)
    np_k, np_k1 = dim_P(k), dim_P(k + 1)
    ctx, pack = cell(disc, disc.mesh.n_elements - 1, cache.packs(family, k))
    qp, qw = refined_quadrature(ctx)
    grad = family_grad(ctx.scal, qp)[:, :np_k1]
    recon = np.einsum("djm,qm->qjd", pack.D, ctx.scal.eval(qp)[:, :np_k])
    assert np.abs(recon - grad).max() <= 1e-12 * np.abs(grad).max()
    n_croly = disc.theta_space.n_croly
    vals = np.concatenate([ctx.roly.eval(qp), ctx.croly.eval(qp)[:, :n_croly]], axis=1)
    moments = np.einsum("q,qra,qm->ram", qw, vals, ctx.scal.eval(qp)[:, :np_k1]
                        ).reshape(vals.shape[1], 2 * np_k1)
    assert np.abs(pack.moments - moments).max(initial=0.0) < 1e-12


@pytest.mark.parametrize("k", range(4))
def test_potential_is_projector_on_vpk(cache, rng, k):
    disc = cache.disc("hexa", k)
    coefs = rng.standard_normal((2, dim_P(k)))
    w = _poly_vector(coefs, k)
    iv = interpolate_theta(disc, w).values
    sp = disc.theta_space
    np_k = dim_P(k)
    for ctx, pack in cells(disc, cache.packs("hexa", k)):
        pt = pack.PT @ iv[ctx.theta_dofs]
        vals = np.stack([ctx.phi[:, :np_k] @ pt[:np_k],
                         ctx.phi[:, :np_k] @ pt[np_k:]], axis=-1)
        exact = w(ctx.qpoints)
        assert np.abs(vals - exact).max() < 1e-11 * (np.abs(exact).max() + 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_potential_recovering_projection_degree_km1(cache, rng, k):
    """The vP^{k-1} projection of P_T(I eta) equals that of eta itself; exact
    for polynomial eta once quadrature is exact."""
    disc = cache.disc("tri", k)
    coefs = rng.standard_normal((2, dim_P(k + 3)))
    eta = _poly_vector(coefs, k + 3)
    iv = interpolate_theta(disc, eta).values
    sp = disc.theta_space
    np_k, np_km1 = dim_P(k), dim_P(k - 1)
    for ctx, pack in cells(disc, cache.packs("tri", k), limit=4):
        pt = pack.PT @ iv[ctx.theta_dofs]
        vals = np.stack([ctx.phi[:, :np_k] @ pt[:np_k],
                         ctx.phi[:, :np_k] @ pt[np_k:]], axis=-1)
        got = ctx.integrate(vals[:, None, :] * ctx.phi[:, :np_km1, None])
        want = ctx.integrate(eta(ctx.qpoints)[:, None, :] * ctx.phi[:, :np_km1, None])
        assert np.abs(got - want).max() < 1e-10 * (np.abs(want).max() + 1)


# ---------------------------------------------------------------------------
# discrete L2 product


@pytest.mark.parametrize("k", range(3))
def test_product_ignores_normal_components(cache, rng, k):
    disc = cache.disc("locref", k)
    sp = disc.theta_space
    M = assemble_theta_product(disc, cache.packs("locref", k))
    vec = np.zeros(sp.dim)
    for e in range(disc.mesh.n_edges):
        vec[sp.edge_normal_slots(e)] = rng.standard_normal(k + 1)
    out = M @ vec
    scale = abs(M).max() * np.abs(vec).max()
    assert np.abs(out).max() <= 1e-12 * scale


def test_product_of_interpolated_constant(cache):
    disc = cache.disc("hexa", 1)
    c = np.array([0.6, 0.8])
    iv = interpolate_theta(disc, lambda x: np.tile(c, (len(x), 1))).values
    sp = disc.theta_space
    for ctx, pack in cells(disc, cache.packs("hexa", 1)):
        loc = iv[ctx.theta_dofs]
        val = loc @ (pack.M_theta @ loc)
        assert val == pytest.approx(ctx.element.area * (c @ c), rel=1e-12)
        # stabilisation vanishes: the potential of an interpolated constant
        # equals the constant on the edges
        S = pack.M_theta - pack.PT.T @ pack.PT
        assert abs(loc @ (S @ loc)) < 1e-13 * (c @ c)


def test_product_symmetry(cache):
    for family in ("tri", "hexa"):
        M = assemble_theta_product(cache.disc(family, 2), cache.packs(family, 2))
        d = abs(M - M.T).max()
        assert d <= 1e-13 * abs(M).max()


@pytest.mark.parametrize("k", range(4))
def test_potential_of_gradient_is_element_gradient(cache, rng, k):
    """P_T composed with the local reduction of the global gradient returns
    the element gradient G_T: matrix identity on every element."""
    disc = cache.disc("hexa", k)
    sp_t, sp_u = disc.theta_space, disc.u_space
    G, _ = build_global_gradient(disc, cache.packs("hexa", k))
    for ctx, pack in cells(disc, cache.packs("hexa", k)):
        t_idx = ctx.theta_dofs
        u_idx = ctx.u_dofs
        uGT_local = np.asarray(G[np.ix_(t_idx, u_idx)].todense())
        lhs = pack.PT @ uGT_local
        scale = np.abs(pack.GT).max() + 1
        assert np.abs(lhs - pack.GT).max() < 1e-11 * scale


# ---------------------------------------------------------------------------
# defining-equation oracles on random DOF vectors (rotor, potential)


def _theta_edge_tangential_fn(disc, ctx, j, loc):
    """Tangential scalar of the edge unknown on local edge j as a function of
    physical points."""
    from ddrplate.operators import _theta_slices
    _, _, sl_t, _, _ = _theta_slices(ctx)
    ec = ctx.edges[j].ctx
    coef = loc[sl_t[j]]

    def val(points):
        rel = (points - ec.edge.midpoint) @ ec.edge.tangent
        s = rel / (0.5 * ec.edge.length)
        return ec.family.eval_s(s)[:, :disc.k + 1] @ coef

    return val


def _rot_of_raw(coefs, l):
    exps = _exps(l)

    def rot(x):
        xs = np.atleast_2d(x)
        gx = np.zeros(len(xs))
        gy = np.zeros(len(xs))
        for i, (a, b) in enumerate(exps):
            if a >= 1:
                gx += coefs[i] * a * xs[:, 0] ** (a - 1) * xs[:, 1] ** b
            if b >= 1:
                gy += coefs[i] * b * xs[:, 0] ** a * xs[:, 1] ** (b - 1)
        return np.stack([gy, -gx], axis=-1)

    return rot


@pytest.mark.parametrize("k", range(4))
def test_rotor_defining_equation_oracle(cache, rng, k):
    disc = cache.disc("hexa", k)
    ctx, pack = cell(disc, 0, cache.packs("hexa", k))
    sp = disc.theta_space
    loc = rng.standard_normal(pack.n_theta)
    r = pack.RT @ loc
    qp, qw = refined_quadrature(ctx)
    np_k = dim_P(k)
    r_vals = ctx.scal.eval(qp)[:, :np_k] @ r
    eta_R = np.einsum("n,qnc->qc", loc[:sp.n_roly], ctx.roly.eval(qp))
    for _ in range(10):
        qc = rng.standard_normal(np_k)
        q = _poly_scalar(qc, k)
        lhs = qw @ (r_vals * q(qp))
        rhs = qw @ np.einsum("qc,qc->q", eta_R, _rot_of_raw(qc, k)(qp))
        for j, led in enumerate(ctx.edges):
            ep, ew = refined_edge_quadrature(ctx, led)
            tang = _theta_edge_tangential_fn(disc, ctx, j, loc)(ep)
            rhs += led.omega * (ew @ (tang * q(ep)))
        assert abs(lhs - rhs) < 1e-11 * (abs(lhs) + abs(rhs) + 1)


@pytest.mark.parametrize("k", range(4))
def test_potential_defining_equation_oracle(cache, rng, k):
    disc = cache.disc("locref", k)
    ctx, pack = cell(disc, 0, cache.packs("locref", k))
    sp = disc.theta_space
    loc = rng.standard_normal(pack.n_theta)
    pt = pack.PT @ loc
    rt = pack.RT @ loc
    np_k, np_k1 = dim_P(k), dim_P(k + 1)
    qp, qw = refined_quadrature(ctx)
    phi = ctx.scal.eval(qp)
    pt_vals = np.stack([phi[:, :np_k] @ pt[:np_k], phi[:, :np_k] @ pt[np_k:]], -1)
    rt_vals = phi[:, :np_k] @ rt
    eta_cR = np.einsum("n,qnc->qc", loc[sp.n_roly:sp.n_roly + sp.n_croly],
                       ctx.croly.eval(qp)[:, :sp.n_croly])
    xt = ctx.element.center
    for _ in range(10):
        mc = rng.standard_normal(max(dim_P(k - 1), 1))
        qc = rng.standard_normal(np_k1)
        if sp.n_croly:
            m = _poly_scalar(mc, k - 1)
            tau = lambda x: (np.atleast_2d(x) - xt) * m(x)[:, None]
        else:
            tau = lambda x: np.zeros((len(np.atleast_2d(x)), 2))
        q = _poly_scalar(qc, k + 1)
        test = lambda x: tau(x) + _rot_of_raw(qc, k + 1)(x)
        lhs = qw @ np.einsum("qc,qc->q", pt_vals, test(qp))
        rhs = qw @ np.einsum("qc,qc->q", eta_cR, tau(qp))
        rhs += qw @ (rt_vals * q(qp))
        for j, led in enumerate(ctx.edges):
            ep, ew = refined_edge_quadrature(ctx, led)
            tang = _theta_edge_tangential_fn(disc, ctx, j, loc)(ep)
            rhs -= led.omega * (ew @ (tang * q(ep)))
        assert abs(lhs - rhs) < 1e-11 * (abs(lhs) + abs(rhs) + 1)


# ---------------------------------------------------------------------------
# failures name the offending cell of a stack


def _hexa_group(k):
    """A fresh hexa_01 discretization and its 4-vertex cell group, whose
    second cell (position 1) has a cell id other than 1."""
    disc = Discretization(load_mesh(str(ASSETS / "hexa_01.json")), k)
    ctx = disc.elem_ctxs[0]
    assert ctx.n_vertices == 4 and ctx.ids[1] != 1
    return disc, ctx


def test_singular_displacement_reconstruction_names_the_cell():
    """Zero cRoly^{k+2} members beyond cRoly^k on one cell make its
    div cRoly^{k+2} mass matrix singular and leave the rotation potential
    intact; the condition check names that cell."""
    _, ctx = _hexa_group(1)
    ctx.croly.coef[1, :, dim_P(ctx.k - 1):] = 0.0
    with pytest.raises(SingularLocalSystem, match=f"element {ctx.ids[1]}: div cRoly"):
        build_local_pack(ctx)


def test_singular_rotation_potential_names_the_cell():
    """Zero cRoly^k members on one cell make its rotation-potential system
    singular, which is checked first."""
    _, ctx = _hexa_group(1)
    ctx.croly.coef[1, :, :dim_P(ctx.k - 1)] = 0.0
    with pytest.raises(SingularLocalSystem, match=f"element {ctx.ids[1]}: rotation potential"):
        build_local_pack(ctx)


def test_cell_order_does_not_change_local_tables():
    """hexa_02 (three vertex-count groups) with its cell list reversed: every
    cell's tables match the unreversed build, so the batches do not mix
    cells."""
    from ddrplate.hho import build_hho_packs
    mesh = load_mesh(str(ASSETS / "hexa_02.json"))
    rev = build_mesh(mesh.vertex_coords, [list(el.vertices) for el in mesh.elements][::-1])
    builds = []
    for m in (mesh, rev):
        disc = Discretization(m, 1)
        assert len(disc.elem_ctxs) == 3
        packs = build_packs(disc)
        builds.append((disc, packs, build_hho_packs(disc, packs)))
    n = mesh.n_elements
    (disc, *stacks), (disc_r, *stacks_r) = builds
    for cid in range(n):
        _, pack, hp = cell(disc, cid, *stacks)
        _, pack_r, hp_r = cell(disc_r, n - 1 - cid, *stacks_r)
        for ref, got in ((pack, pack_r), (hp, hp_r)):
            for name in ("GT", "PT", "M_theta", "GS", "P1", "sT"):
                if hasattr(ref, name):
                    a, b = getattr(ref, name), getattr(got, name)
                    assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max()
