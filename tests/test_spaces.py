import numpy as np
import pytest
import scipy.sparse as sps

from conftest import (cell, cell_record, cells, edge_dof_values, edge_record,
                      lstsq_projection_oracle, monomial_exponents, monomial_grads,
                      u_trace_values)
from ddrplate.mesh import build_mesh, triangular_mesh
from ddrplate.polyspace import dim_P
from ddrplate.spaces import (Discretization, assemble, block_pattern, boundary_dof_sets,
                             interpolate_theta, interpolate_u)

UNIT_SQUARE = (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
               [[0, 1, 2, 3]])


@pytest.mark.parametrize("k", range(4))
def test_dof_dimension_formulas(cache, k):
    for family in ("tri", "hexa", "locref"):
        disc = cache.disc(family, k)
        mesh = disc.mesh
        sp_t, sp_u = disc.theta_space, disc.u_space
        assert sp_t.elem_dim == (dim_P(k) - 1) + dim_P(k - 1)
        assert sp_t.dim == (mesh.n_elements * sp_t.elem_dim
                            + mesh.n_edges * 2 * (k + 1))
        assert sp_u.dim == (mesh.n_elements * dim_P(k - 1)
                            + mesh.n_edges * k + mesh.n_vertices)
        assert sum(ctx.n_cells for ctx in disc.elem_ctxs) == mesh.n_elements
        for ctx in disc.elem_ctxs:
            n_e = ctx.n_vertices
            assert sp_t.local_dofs(ctx).shape == (ctx.n_cells,
                                                  sp_t.elem_dim + n_e * 2 * (k + 1))
            assert sp_u.local_dofs(ctx).shape == (ctx.n_cells, dim_P(k - 1) + n_e * k + n_e)
        if k == 0:
            assert sp_t.elem_dim == 0
            assert sp_u.elem_dim == 0


def test_quad_boost_refines_element_and_edge_rules():
    mesh = triangular_mesh(2)
    base, boosted = Discretization(mesh, 1), Discretization(mesh, 1, quad_boost=2)
    for ctx, fine in zip(base.elem_ctxs, boosted.elem_ctxs):
        assert fine.qweights.shape[1] > ctx.qweights.shape[1]
    assert boosted.edge_ctx.weights.shape[1] > base.edge_ctx.weights.shape[1]


def test_boundary_sets_unit_square_k0():
    mesh = build_mesh(*UNIT_SQUARE)
    disc = Discretization(mesh, 0)
    th_d, u_d = boundary_dof_sets(disc)
    assert disc.theta_space.dim - th_d.size == 0
    assert disc.u_space.dim - u_d.size == 0


def test_boundary_sets_2x2_triangulation_k0():
    disc = Discretization(triangular_mesh(2), 0)
    th_d, u_d = boundary_dof_sets(disc)
    assert disc.theta_space.dim - th_d.size == 16   # 2 dofs x 8 interior edges
    assert disc.u_space.dim - u_d.size == 1         # single interior vertex


def test_interpolate_constant_field(cache):
    disc = cache.disc("hexa", 1)
    c = np.array([0.4, -1.1])
    vec = interpolate_theta(disc, lambda x: np.tile(c, (len(x), 1))).values
    s = np.array([-0.5, 0.0, 0.7])
    for e in range(disc.mesh.n_edges):
        vals = edge_dof_values(disc, e, vec, s)
        assert np.abs(vals - c).max() < 1e-13
    # element Roly component is the Roly projection of the constant, which
    # reproduces it (constants lie in Roly^0 subset of Roly^{k-1})
    sp = disc.theta_space
    ctx = cell(disc, 0)
    r = vec[sp.elem_offset(0):sp.elem_offset(0) + sp.n_roly]
    vals = np.einsum("n,qnc->qc", r, ctx.roly_vals)
    assert np.abs(vals - c).max() < 1e-12


@pytest.mark.parametrize("k", range(4))
def test_interpolate_reproduces_vpk_on_edges(cache, rng, k):
    disc = cache.disc("tri", k)
    coefs = rng.standard_normal((2, dim_P(k)))

    def eta(x):
        xs = np.atleast_2d(x)
        vander = np.stack([xs[:, 0] ** a * xs[:, 1] ** b
                           for a, b in _exps(k)], axis=1)
        return np.stack([vander @ coefs[0], vander @ coefs[1]], axis=-1)

    vec = interpolate_theta(disc, eta).values
    s = np.array([-0.9, -0.2, 0.3, 0.8])
    for edge in (edge_record(disc.mesh, e) for e in range(disc.mesh.n_edges)):
        pts = edge.midpoint[None, :] + 0.5 * edge.length * s[:, None] * edge.tangent[None, :]
        vals = edge_dof_values(disc, edge.id, vec, s)
        assert np.abs(vals - eta(pts)).max() < 1e-12


def _exps(l):
    return [(d - i, i) for d in range(l + 1) for i in range(d + 1)]


def test_interpolate_matches_lstsq_oracle(rng):
    mesh = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]]), [[0, 1, 2]])
    disc = Discretization(mesh, 1)

    def eta(x):
        xs = np.atleast_2d(x)
        return np.stack([xs[:, 0] ** 2, xs[:, 0] * xs[:, 1]], axis=-1)

    vec = interpolate_theta(disc, eta).values
    sp = disc.theta_space
    ctx = cell(disc, 0)
    fq = eta(ctx.qpoints)
    xt, h = ctx.element.center, ctx.element.diameter
    grads = monomial_grads(xt, h, disc.k, ctx.qpoints)[:, 1:]
    raw_roly = np.stack([grads[..., 1], -grads[..., 0]], axis=-1)     # rot m_alpha
    oracle = lstsq_projection_oracle(ctx.qpoints, ctx.qweights, raw_roly, fq)
    r = vec[sp.elem_offset(0):sp.elem_offset(0) + sp.n_roly]
    mine = np.einsum("n,qnc->qc", r, ctx.roly_vals)
    assert np.abs(mine - oracle).max() < 1e-10
    rel = ctx.qpoints - xt
    raw_croly = rel[:, None, :] * np.stack(
        [((rel / h) ** e).prod(axis=1) for e in monomial_exponents(disc.k - 1)], axis=1)[..., None]
    oracle = lstsq_projection_oracle(ctx.qpoints, ctx.qweights, raw_croly, fq)
    c = vec[sp.elem_offset(0) + sp.n_roly:sp.elem_offset(0) + sp.elem_dim]
    mine = np.einsum("n,qnc->qc", c, ctx.croly_vals[:, :sp.n_croly])
    assert np.abs(mine - oracle).max() < 1e-10


def test_tangential_interpolator(cache, rng):
    disc = cache.disc("tri", 2)
    sp = disc.theta_space

    def rough(x):
        return np.stack([np.sin(x[:, 0] + 2 * x[:, 1]),
                         np.cos(3 * x[:, 0] - x[:, 1])], axis=-1)

    full = interpolate_theta(disc, rough).values
    tang = interpolate_theta(disc, rough, tangential_only=True).values
    for e in range(disc.mesh.n_edges):
        ts = sp.edge_tangential_slots(e)
        ns = sp.edge_normal_slots(e)
        assert np.allclose(full[ts], tang[ts], atol=1e-14)
        assert np.allclose(tang[ns], 0.0, atol=1e-15)
    # per-edge aligned fields
    edge = edge_record(disc.mesh, disc.mesh.interior_edges[0])
    t, n = edge.tangent, edge.normal
    along = interpolate_theta(disc, lambda x: np.tile(t, (len(x), 1)),
                              tangential_only=True).values
    ref = interpolate_theta(disc, lambda x: np.tile(t, (len(x), 1))).values
    assert np.allclose(along[sp.edge_tangential_slots(edge.id)],
                       ref[sp.edge_tangential_slots(edge.id)], atol=1e-14)
    across = interpolate_theta(disc, lambda x: np.tile(n, (len(x), 1)),
                               tangential_only=True).values
    assert np.abs(across[sp.edge_tangential_slots(edge.id)]).max() < 1e-13
    assert np.abs(across[sp.edge_normal_slots(edge.id)]).max() < 1e-13


def test_interpolate_u_constant(cache):
    disc = cache.disc("locref", 1)
    vec = interpolate_u(disc, lambda x: np.ones(len(x))).values
    sp = disc.u_space
    assert np.allclose(vec[sp.vertex_offset(0):], 1.0, atol=1e-15)
    for ctx in cells(disc):
        off = sp.elem_offset(ctx.element.id)
        ref = ctx.integrate(ctx.phi[:, :sp.elem_dim])
        assert np.abs(vec[off:off + sp.elem_dim] - ref).max() < 1e-13


@pytest.mark.parametrize("k", range(4))
def test_skeleton_trace_reproduces_degree_k1(cache, rng, k):
    """A globally polynomial field of degree k+1 is recovered exactly on
    every edge from its vertex+moment DOFs: k+2 conditions pin P^{k+1}(E)."""
    disc = cache.disc("hexa", k)
    coefs = rng.standard_normal(dim_P(k + 1))

    def v(x):
        xs = np.atleast_2d(x)
        vander = np.stack([xs[:, 0] ** a * xs[:, 1] ** b
                           for a, b in _exps(k + 1)], axis=1)
        return vander @ coefs

    vec = interpolate_u(disc, v).values
    sp = disc.u_space
    s = np.array([-0.7, 0.1, 0.6])
    el = cell_record(disc.mesh, 0)
    ctx, pack = cell(disc, 0, cache.packs("hexa", k))
    u_loc = vec[ctx.u_dofs]
    for j, eid in enumerate(el.edges):
        edge = edge_record(disc.mesh, eid)
        pts = edge.midpoint[None, :] + 0.5 * edge.length * s[:, None] * edge.tangent[None, :]
        vals = u_trace_values(disc, pack, el, u_loc, j, s)
        assert np.abs(vals - v(pts)).max() < 1e-12


def test_vertex_dofs_of_sine_on_unit_square():
    mesh = build_mesh(*UNIT_SQUARE)
    disc = Discretization(mesh, 0)
    vec = interpolate_u(disc, lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    sp = disc.u_space
    assert np.abs(vec.values[sp.vertex_offset(0):]).max() < 1e-15


def test_skeleton_continuity_at_vertices(cache, rng):
    """Traces reconstructed on two edges sharing a vertex agree there: the
    vertex DOF is shared by construction."""
    disc = cache.disc("tri", 2)
    sp = disc.u_space
    vec = rng.standard_normal(sp.dim)
    el = cell_record(disc.mesh, 0)
    ctx, pack = cell(disc, 0, cache.packs("tri", 2))
    u_loc = vec[ctx.u_dofs]
    for j, eid in enumerate(el.edges):
        edge = edge_record(disc.mesh, eid)
        ends = u_trace_values(disc, pack, el, u_loc, j, np.array([-1.0, 1.0]))
        assert ends[0] == pytest.approx(vec[sp.vertex_offset(edge.vertices[0])], abs=1e-12)
        assert ends[1] == pytest.approx(vec[sp.vertex_offset(edge.vertices[1])], abs=1e-12)


def test_assemble_matches_blockwise_reference(rng):
    """Blocks of mixed shapes, empty ones and overlaps: the vectorised index
    arithmetic gives the same matrix, bit for bit, as placing each block's
    row-major entries one block at a time."""
    shapes = [(3, 4), (0, 2), (2, 0), (1, 1), (5, 3), (3, 4)]
    blocks = [(rng.choice(9, r, replace=False), rng.choice(7, c, replace=False),
               rng.standard_normal((r, c))) for r, c in shapes]
    rows, cols, vals = [], [], []
    for r_idx, c_idx, block in blocks:
        rr, cc = np.meshgrid(r_idx, c_idx, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        vals.append(block.ravel())
    ref = sps.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(9, 7)).tocsr()
    got = assemble([(r[None], c[None], b[None]) for r, c, b in blocks], (9, 7))
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))
    assert assemble([], (9, 7)).nnz == 0


def test_assemble_takes_32_bit_indices_in_one_stack(rng):
    """A single stack of 32-bit indices (as the k = 0 jump stacks, read off
    a CSR pattern) is placed as its 64-bit copy is."""
    rows = rng.integers(0, 12, (6, 3)).astype(np.int32)
    cols = rng.integers(0, 10, (6, 4)).astype(np.int32)
    vals = rng.standard_normal((6, 3, 4))
    got = assemble([(rows, cols, vals)], (12, 10))
    ref = assemble([(rows.astype(np.int64), cols.astype(np.int64), vals)], (12, 10))
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))


def test_block_pattern_places_every_entry(rng):
    """Stacks of different shapes whose blocks repeat indices (as the k = 0
    jump blocks do) and share rows in varying sets: the pattern is the
    structure of the dense sum, and every entry's position holds its column
    in its row."""
    index = [(rng.integers(0, 12, (5, 4)), rng.integers(0, 10, (5, 3))),
             (rng.integers(0, 12, (7, 2)), rng.integers(0, 10, (7, 6))),
             (np.zeros((0, 3), dtype=int), np.zeros((0, 2), dtype=int))]
    indptr, indices, slots = block_pattern(index, (12, 10))
    dense = np.zeros((12, 10), dtype=bool)
    for r, c in index:
        dense[r[:, :, None], c[:, None, :]] = True
    ref = sps.csr_matrix(dense)
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    row_of = np.repeat(np.arange(12), np.diff(indptr))
    for (r, c), s in zip(index, slots):
        assert s.shape == r.shape + c.shape[1:]
        assert np.array_equal(row_of[s], np.broadcast_to(r[:, :, None], s.shape))
        assert np.array_equal(indices[s], np.broadcast_to(c[:, None, :], s.shape))
