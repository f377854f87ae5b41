import numpy as np
import pytest
from scipy.special import roots_legendre

from conftest import ASSETS, cell, cells, per_group, refined_quadrature
from ddrplate.errors import SingularLocalSystem
from ddrplate.hho import (build_hho_pack, build_hho_packs, build_jump_penalisation,
                          build_tensor_gradient, jump_form, jump_restriction,
                          local_theta_interpolation)
from ddrplate.mesh import load_mesh, triangular_mesh
from ddrplate.operators import (_edge_restriction, _theta_slices, _vp_k,
                                build_local_pack, build_packs)
from ddrplate.polyspace import dim_P
from ddrplate.spaces import Discretization, assemble, interpolate_theta


def _exps(l):
    return [(d - i, i) for d in range(l + 1) for i in range(d + 1)]


def _poly_vector(coefs, l):
    def eta(x):
        xs = np.atleast_2d(x)
        vander = np.stack([xs[:, 0] ** a * xs[:, 1] ** b for a, b in _exps(l)], axis=1)
        return np.stack([vander @ coefs[0], vander @ coefs[1]], axis=-1)
    return eta


# ---------------------------------------------------------------------------
# embedding


def _embedding(ctx, pack):
    """Injection of the rotation DOFs into the hybrid space: the potential
    P_T on top of the identity on the edge DOFs, which follow the element
    blocks in the local layout."""
    _, sl_cR, _, _, n_theta = _theta_slices(ctx)
    return np.vstack([pack.PT, np.eye(n_theta)[sl_cR.stop:]])


@pytest.mark.parametrize("k", range(4))
def test_embedding_element_part_reproduces_polynomials(cache, rng, k):
    disc = cache.disc("tri", k)
    coefs = rng.standard_normal((2, dim_P(k)))
    w = _poly_vector(coefs, k)
    iv = interpolate_theta(disc, w).values
    sp = disc.theta_space
    np_k = dim_P(k)
    ctx, pack = cell(disc, 0, cache.packs("tri", k))
    emb = _embedding(ctx, pack)
    out = emb @ iv[ctx.theta_dofs]
    vals = np.stack([ctx.phi[:, :np_k] @ out[:np_k],
                     ctx.phi[:, :np_k] @ out[np_k:2 * np_k]], axis=-1)
    exact = w(ctx.qpoints)
    assert np.abs(vals - exact).max() < 1e-11 * (np.abs(exact).max() + 1)
    assert np.abs(emb @ np.zeros(pack.n_theta)).max() == 0.0


@pytest.mark.parametrize("family", ["tri", "hexa", "locref"])
@pytest.mark.parametrize("k", range(4))
def test_embedding_is_injective(cache, family, k):
    disc = cache.disc(family, k)
    for ctx, pack in cells(disc, cache.packs(family, k), limit=4):
        emb = _embedding(ctx, pack)
        assert np.linalg.matrix_rank(emb, tol=1e-10) == pack.n_theta


# ---------------------------------------------------------------------------
# tensor gradient, divergence


@pytest.mark.parametrize("k", range(4))
def test_tensor_gradient_commutes_with_projection(cache, rng, k):
    """G(I eta) equals the tensor L2 projection of grad eta; checked for
    eta = (x1 x2, x2^2) and a random polynomial by independent quadrature."""
    disc = cache.disc("hexa", k)
    sp = disc.theta_space
    np_k = dim_P(k)
    cases = [np.array([[0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])]
    cases.append(rng.standard_normal((2, dim_P(k + 1))))
    for coefs in cases:
        deg = 2 if coefs.shape[1] == 6 else k + 1
        eta = _poly_vector(coefs, deg)
        iv = interpolate_theta(disc, eta).values
        grads = per_group(lambda c, p: build_tensor_gradient(c, p)[0], disc,
                          cache.packs("hexa", k))
        for ctx, full in cells(disc, grads, limit=3):
            g = full @ iv[ctx.theta_dofs]
            qp, qw = refined_quadrature(ctx)
            phi = ctx.scal.eval(qp)[:, :np_k]
            grad_eta = _poly_jacobian(coefs, deg, qp)
            for blk, (a, b) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                got = phi @ g[blk * np_k:(blk + 1) * np_k]
                # projection test: moments against the scalar family agree
                for m in range(np_k):
                    lhs = qw @ (got * ctx.scal.eval(qp)[:, m])
                    rhs = qw @ (grad_eta[:, a, b] * ctx.scal.eval(qp)[:, m])
                    assert abs(lhs - rhs) < 1e-10 * (abs(rhs) + 1)


def _poly_jacobian(coefs, l, x):
    exps = _exps(l)
    xs = np.atleast_2d(x)
    out = np.zeros((len(xs), 2, 2))
    for i, (a, b) in enumerate(exps):
        for comp in range(2):
            if a >= 1:
                out[:, comp, 0] += coefs[comp][i] * a * xs[:, 0] ** (a - 1) * xs[:, 1] ** b
            if b >= 1:
                out[:, comp, 1] += coefs[comp][i] * b * xs[:, 0] ** a * xs[:, 1] ** (b - 1)
    return out


def test_rigid_rotation_has_zero_symmetric_gradient(cache):
    for family in ("tri", "hexa", "locref"):
        for k in range(4):
            disc = cache.disc(family, k)
            iv = interpolate_theta(
                disc, lambda x: np.stack([-x[:, 1], x[:, 0]], -1)).values
            sp = disc.theta_space
            for ctx, hho in cells(disc, cache.hho(family, k)):
                gs = hho.GS @ iv[ctx.theta_dofs]
                assert np.abs(gs).max() < 1e-12


def test_constant_field_has_zero_gradient(cache):
    disc = cache.disc("tri", 2)
    iv = interpolate_theta(disc, lambda x: np.tile([0.3, 0.9], (len(x), 1))).values
    sp = disc.theta_space
    grads = per_group(lambda c, p: build_tensor_gradient(c, p)[0], disc,
                      cache.packs("tri", 2))
    for ctx, full in cells(disc, grads):
        assert np.abs(full @ iv[ctx.theta_dofs]).max() < 1e-12


def test_trace_of_gradient_is_divergence(cache):
    for k in range(4):
        disc = cache.disc("hexa", k)
        np_k = dim_P(k)
        grads = per_group(lambda c, p: build_tensor_gradient(c, p)[0], disc,
                          cache.packs("hexa", k))
        for ctx, full, hp in cells(disc, grads, cache.hho("hexa", k)):
            tr = full[:np_k] + full[3 * np_k:]
            assert np.abs(tr - hp.DD).max() == 0.0


# ---------------------------------------------------------------------------
# reconstruction


@pytest.mark.parametrize("family", ["tri", "hexa", "locref"])
@pytest.mark.parametrize("k", range(4))
def test_reconstruction_reproduces_degree_k1(cache, rng, family, k):
    disc = cache.disc(family, k)
    coefs = rng.standard_normal((2, dim_P(k + 1)))
    eta = _poly_vector(coefs, k + 1)
    iv = interpolate_theta(disc, eta).values
    sp = disc.theta_space
    np_k1 = dim_P(k + 1)
    for ctx, hho in cells(disc, cache.hho(family, k)):
        rec = hho.P1 @ iv[ctx.theta_dofs]
        vals = np.stack([ctx.phi[:, :np_k1] @ rec[:np_k1],
                         ctx.phi[:, :np_k1] @ rec[np_k1:]], axis=-1)
        exact = eta(ctx.qpoints)
        assert np.abs(vals - exact).max() < 1e-10 * (np.abs(exact).max() + 1)


def test_reconstruction_reproduces_rigid_motion(cache):
    disc = cache.disc("hexa", 0)
    iv = interpolate_theta(
        disc, lambda x: np.stack([1.0 - 0.5 * x[:, 1], 2.0 + 0.5 * x[:, 0]], -1)).values
    sp = disc.theta_space
    np_1 = dim_P(1)
    for ctx, hho in cells(disc, cache.hho("hexa", 0)):
        rec = hho.P1 @ iv[ctx.theta_dofs]
        vals = np.stack([ctx.phi[:, :np_1] @ rec[:np_1],
                         ctx.phi[:, :np_1] @ rec[np_1:]], axis=-1)
        exact = np.stack([1.0 - 0.5 * ctx.qpoints[:, 1],
                          2.0 + 0.5 * ctx.qpoints[:, 0]], -1)
        assert np.abs(vals - exact).max() < 1e-11 * 2.5


# ---------------------------------------------------------------------------
# stabilisation


@pytest.mark.parametrize("family", ["tri", "hexa", "locref"])
@pytest.mark.parametrize("k", range(4))
def test_stabilisation_polynomial_consistency(cache, rng, family, k):
    disc = cache.disc(family, k)
    coefs = rng.standard_normal((2, dim_P(k + 1)))
    eta = _poly_vector(coefs, k + 1)
    iv = interpolate_theta(disc, eta).values
    sp = disc.theta_space
    for ctx, hho in cells(disc, cache.hho(family, k)):
        loc = iv[ctx.theta_dofs]
        res = hho.sT @ loc
        for _ in range(5):
            xi = rng.standard_normal(len(loc))
            val = abs(xi @ res)
            bound = np.linalg.norm(loc) * np.linalg.norm(xi)
            assert val <= 1e-10 * max(bound, 1.0)


def test_stabilisation_psd(cache, rng):
    disc = cache.disc("hexa", 1)
    sp = disc.theta_space
    for ctx, hho in cells(disc, cache.hho("hexa", 1), limit=3):
        n = hho.sT.shape[0]
        for _ in range(100):
            v = rng.standard_normal(n)
            assert v @ (hho.sT @ v) >= -1e-13 * (v @ v)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_difference_operators_vanish_on_interpolates(cache, rng, k):
    """delta_T(I eta) = 0 and delta_TE(I eta) = 0 for eta in vP^{k+1}: the
    reconstruction defect is annihilated by the potential-of-interpolate
    projector and by the edge projections."""
    disc = cache.disc("tri", k)
    coefs = rng.standard_normal((2, dim_P(k + 1)))
    eta = _poly_vector(coefs, k + 1)
    iv = interpolate_theta(disc, eta).values
    sp = disc.theta_space
    np_k1 = dim_P(k + 1)
    packs = cache.packs("tri", k)
    Js = per_group(local_theta_interpolation, disc, packs)
    rests = per_group(lambda c, p: _edge_restriction(c, p.scalar_cross, k + 1, np_k1),
                      disc, packs)
    for ctx, pack, hho, J, rest in cells(disc, packs, cache.hho("tri", k), Js, rests,
                                         limit=3):
        loc = iv[ctx.theta_dofs]
        defect = hho.P1 @ loc
        defect[_vp_k(k)] -= pack.PT @ loc
        delta_T = pack.PT @ (J @ defect)
        scale = np.linalg.norm(loc) + 1
        assert np.abs(delta_T).max() < 1e-10 * scale
        _, _, sl_t, sl_n, n_theta = _theta_slices(ctx)
        for j in range(len(ctx.edges)):
            rest_k1 = rest[j]
            picks = np.zeros((2 * (k + 1), n_theta))
            picks[:k + 1, sl_t[j]] = np.eye(k + 1)
            picks[k + 1:, sl_n[j]] = np.eye(k + 1)
            delta_TE = rest_k1 @ (hho.P1 @ loc) - picks @ loc
            assert np.abs(delta_TE).max() < 1e-10 * scale


# ---------------------------------------------------------------------------
# jump penalisation (k = 0)


def _jump_stacks(disc, packs, hho):
    """The jump operator's edge stacks, from every chunk's restrictions."""
    return build_jump_penalisation(
        disc, [jump_restriction(*tables) for tables in zip(disc.elem_ctxs, packs, hho)])


def _jump_blocks(disc, packs, hho):
    """``assemble`` stacks of the jump form's blocks on each edge's DOFs."""
    return [(idx, idx, jump_form(J, h)) for idx, J, h in _jump_stacks(disc, packs, hho)]


def test_jump_rejects_higher_degree(cache):
    disc = cache.disc("tri", 1)
    with pytest.raises(ValueError):
        _jump_stacks(disc, cache.packs("tri", 1), cache.hho("tri", 1))


def test_jump_vanishes_on_affine_interior(cache):
    """Interior jumps of the degree-1 reconstructions of an affine
    interpolate vanish: both neighbours reconstruct the field exactly, so
    their edge restrictions agree on every interior edge."""
    disc = cache.disc("locref", 0)
    packs, hho = cache.packs("locref", 0), cache.hho("locref", 0)
    iv = interpolate_theta(
        disc, lambda x: np.stack([0.2 + x[:, 0] - 2 * x[:, 1],
                                  -1.0 + 3 * x[:, 0] + x[:, 1]], -1)).values
    rests = per_group(lambda c, p: _edge_restriction(c, p.scalar_cross, 2, dim_P(1)),
                      disc, packs)
    for eid in disc.mesh.interior_edges:
        sides = []
        for t_id in disc.mesh.edges[eid].elements:
            ctx, hp, rest = cell(disc, t_id, hho, rests)
            j = ctx.element.edges.index(eid)
            sides.append(rest[j] @ hp.P1 @ iv[ctx.theta_dofs])
        assert np.abs(sides[0] - sides[1]).max() < 1e-12 * np.abs(iv).max()


def test_jump_positive_for_localized_vector(cache, rng):
    disc = cache.disc("tri", 0)
    sp = disc.theta_space
    J = assemble(_jump_blocks(disc, cache.packs("tri", 0), cache.hho("tri", 0)),
                 (sp.dim, sp.dim))
    vec = np.zeros(sp.dim)
    eid = disc.mesh.interior_edges[0]
    vec[sp.edge_tangential_slots(eid)] = 1.0
    assert vec @ (J @ vec) > 0


def test_jump_symmetry(cache):
    disc = cache.disc("hexa", 0)
    n = disc.theta_space.dim
    J = assemble(_jump_blocks(disc, cache.packs("hexa", 0), cache.hho("hexa", 0)), (n, n))
    assert abs(J - J.T).max() <= 1e-13 * abs(J).max()


@pytest.mark.parametrize("name", ["tri_n4", "hexa_02", "locref_02"])
def test_jump_value_is_the_edge_integral_of_the_reconstruction_jumps(name, rng):
    """For a random rotation vector v, v^T (sum of the jump blocks) v is
    sum_E h_E^{-1} int_E |p1_T1 - p1_T2|^2, with |p1_T - v_E|^2 on boundary
    edges, v_E the edge's constant tangential and normal unknowns: p1
    evaluated from each cell's P1 coefficients on a Gauss rule of the edge,
    exact for the quadratic integrand."""
    mesh = triangular_mesh(4) if name == "tri_n4" else load_mesh(str(ASSETS / f"{name}.json"))
    disc = Discretization(mesh, 0)
    packs = build_packs(disc)
    hho = build_hho_packs(disc, packs)
    v = rng.standard_normal(disc.theta_space.dim)
    got = sum(np.einsum("ei,eij,ej->", v[rows], block, v[cols])
              for rows, cols, block in _jump_blocks(disc, packs, hho))
    s, w = roots_legendre(2)
    jumps = {}
    for cell_id in range(mesh.n_elements):
        ctx, hp = cell(disc, cell_id, hho)
        coef = (hp.P1 @ v[ctx.theta_dofs]).reshape(2, dim_P(1))     # component-major
        for e in ctx.element.edges:
            a, b = mesh.vertex_coords[mesh.edge_vertices[e]]
            p1 = ctx.scal.eval(0.5 * (a + b) + 0.5 * s[:, None] * (b - a)) @ coef.T
            jumps[e] = jumps[e] - p1 if e in jumps else p1
    sp = disc.theta_space
    for e in mesh.boundary_edges:
        # v_E: its coefficients against the edge's psi_0 = h_E^{-1/2}
        t = sp.edge_offset(e)
        jumps[e] = jumps[e] - ((v[t] * mesh.edge_tangent[e] + v[t + 1] * mesh.edge_normal[e])
                               / np.sqrt(mesh.edge_length[e]))
    # h_E^{-1} int_E is half the sum over the rule's weights on [-1, 1]
    want = sum(0.5 * w @ (jump ** 2).sum(axis=1) for jump in jumps.values())
    assert len(jumps) == mesh.n_edges
    assert abs(got - want) <= 1e-12 * want


def _jump_oracle(disc, restrictions):
    """The jump's edge stacks edge by edge: J_E on the sorted union of the
    rotation DOFs of the edge's one or two cells, 0.0 plus the restriction
    of the lower cell id and minus that of the other, and on a boundary
    edge minus 1 at its own tangential and normal DOFs in rows 0 and 2;
    stacked by width, in edge order inside each stack."""
    mesh, sp = disc.mesh, disc.theta_space
    sides = [[] for _ in range(mesh.n_edges)]       # (cell, its DOFs, its rows on the edge)
    for ctx, rest in zip(disc.elem_ctxs, restrictions):
        for c, dofs in enumerate(sp.local_dofs(ctx)):
            for j, e in enumerate(ctx.edge_ids[c]):
                sides[e].append((ctx.ids[c], dofs, rest[c, j]))
    columns, blocks = [], []
    for e, cells_of_e in enumerate(sides):
        cells_of_e.sort(key=lambda side: side[0])
        cols = sorted({int(d) for _, dofs, _ in cells_of_e for d in dofs})
        J = np.zeros((4, len(cols)))
        for sign, (_, dofs, rest) in zip((1.0, -1.0), cells_of_e):
            for local, d in enumerate(dofs):
                J[:, cols.index(d)] += sign * rest[:, local]
        if len(cells_of_e) == 1:
            J[0, cols.index(sp.edge_offset(e))] -= 1.0
            J[2, cols.index(sp.edge_offset(e) + 1)] -= 1.0
        columns.append(cols)
        blocks.append(J)
    width = np.array([len(cols) for cols in columns])
    return [(np.array([columns[e] for e in edges]), np.array([blocks[e] for e in edges]),
             mesh.edge_length[edges])
            for edges in (np.flatnonzero(width == w) for w in np.unique(width))]


@pytest.mark.parametrize("name", ["tri_n4", "hexa_02", "locref_02"])
def test_jump_stacks_equal_the_per_edge_oracle_bit_for_bit(name):
    """``build_jump_penalisation`` keys every cell's DOFs by (edge, DOF);
    its stacks equal, bit for bit, those built edge by edge from the sorted
    union of the edge's cells' DOFs: the same widths in the same order, and
    in each the same edges in the same order, DOFs, J_E and h_E."""
    mesh = triangular_mesh(4) if name == "tri_n4" else load_mesh(str(ASSETS / f"{name}.json"))
    disc = Discretization(mesh, 0)
    packs = build_packs(disc)
    rests = [jump_restriction(*t) for t in zip(disc.elem_ctxs, packs, build_hho_packs(disc, packs))]
    got, want = build_jump_penalisation(disc, rests), _jump_oracle(disc, rests)
    assert [idx.shape[1] for idx, _, _ in got] == [idx.shape[1] for idx, _, _ in want]
    assert len(want) > (name != "tri_n4")
    for stack, oracle in zip(got, want):
        for a, b in zip(stack, oracle):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_rank_deficient_reconstruction_names_the_cell(meshes):
    """Zero derivative masses on one cell leave only the three closure rows
    of its strain-reconstruction system; the rank check names that cell."""
    disc = Discretization(meshes["hexa"], 1)
    ctx = disc.elem_ctxs[0]
    assert ctx.ids[1] != 1
    pack = build_local_pack(ctx)
    pack.D[1] = 0.0
    with pytest.raises(SingularLocalSystem, match=f"element {ctx.ids[1]}: strain"):
        build_hho_pack(ctx, pack)
