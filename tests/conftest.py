"""Shared fixtures and independent test oracles.

The oracles deliberately avoid the library's production code paths: the
projection oracle solves a weighted least-squares problem on raw scaled
monomials, the defining-equation oracles rebuild the right-hand-side
functionals with a fresh quadrature four degrees finer, and the derivative
oracle uses Richardson-extrapolated central differences.

The library stacks every local table by cell chunk; ``cells`` and ``cell``
give per-cell views of those stacks for the oracles. The library's families
are coefficients over scaled monomials; their derivatives here come from an
independent power-rule evaluation of the monomials (``monomial_grads``).
"""

import dataclasses
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.special import roots_legendre

import ddrplate.system
from ddrplate.harness import PROPERTY_TEST_SEED
from ddrplate.mesh import load_mesh, loop_slots, triangular_mesh
from ddrplate.operators import build_packs
from ddrplate.polyspace import EdgeFamily, PolyFamily, dim_P, scaled_monomials
from ddrplate.spaces import Discretization, cell_chunks

ASSETS = resources.files("ddrplate") / "assets" / "meshes"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(PROPERTY_TEST_SEED)


@pytest.fixture(scope="session")
def meshes():
    return {
        "tri": triangular_mesh(2),
        "hexa": load_mesh(str(ASSETS / "hexa_01.json")),
        "locref": load_mesh(str(ASSETS / "locref_01.json")),
    }


class _DiscCache:
    def __init__(self, meshes):
        self.meshes = meshes
        self._discs = {}
        self._packs = {}
        self._hho = {}

    def disc(self, family, k):
        key = (family, k)
        if key not in self._discs:
            self._discs[key] = Discretization(self.meshes[family], k)
        return self._discs[key]

    def packs(self, family, k):
        key = (family, k)
        if key not in self._packs:
            self._packs[key] = build_packs(self.disc(family, k))
        return self._packs[key]

    def hho(self, family, k):
        from ddrplate.hho import build_hho_packs
        key = (family, k)
        if key not in self._hho:
            self._hho[key] = build_hho_packs(self.disc(family, k),
                                             self.packs(family, k))
        return self._hho[key]


@pytest.fixture(scope="session")
def cache(meshes):
    return _DiscCache(meshes)


# ---------------------------------------------------------------------------
# oracles


def lstsq_projection_oracle(points, weights, basis_vals, f_vals):
    """L2 projection by weighted least squares on raw (non-orthonormalized)
    basis values; returns the projected field at the quadrature points."""
    sw = np.sqrt(weights)
    if basis_vals.ndim == 3:          # vector basis (nq, n, 2)
        a = np.concatenate([basis_vals[:, :, 0] * sw[:, None],
                            basis_vals[:, :, 1] * sw[:, None]])
        b = np.concatenate([f_vals[:, 0] * sw, f_vals[:, 1] * sw])
        coef, *_ = np.linalg.lstsq(a, b, rcond=None)
        return np.einsum("n,qnc->qc", coef, basis_vals)
    a = basis_vals * sw[:, None]
    coef, *_ = np.linalg.lstsq(a, f_vals * sw, rcond=None)
    return basis_vals @ coef


def richardson_diff(f, x, i, h=1e-4):
    """Richardson-extrapolated central difference of a (vectorized) field
    along coordinate i; accurate to ~1e-10 for smooth fields."""
    x = np.atleast_2d(x)
    e = np.zeros(2)
    e[i] = 1.0

    def central(step):
        return (np.asarray(f(x + step * e)) - np.asarray(f(x - step * e))) / (2 * step)

    d1, d2 = central(h), central(h / 2)
    return (4.0 * d2 - d1) / 3.0


def fd_gradient_scalar(f, x, h=1e-4):
    return np.stack([richardson_diff(f, x, 0, h), richardson_diff(f, x, 1, h)], axis=-1)


def fd_jacobian_vector(f, x, h=1e-4):
    """(n, 2, 2) array with entry [.., a, b] = d_b f_a."""
    cols = [richardson_diff(f, x, b, h) for b in range(2)]
    return np.stack(cols, axis=-1)


def monomial_exponents(l):
    return [(d - i, i) for d in range(l + 1) for i in range(d + 1)]


def monomial_grads(center, h, l, x):
    """Gradients of the scaled monomials ((x - center)/h)^alpha, |alpha| <= l,
    at points x (m, 2) by the power rule: (m, dim_P(l), 2)."""
    u = (np.atleast_2d(x) - center) / h
    cols = [np.stack([a * u[:, 0] ** max(a - 1, 0) * u[:, 1] ** b,
                      b * u[:, 0] ** a * u[:, 1] ** max(b - 1, 0)], axis=-1) / h
            for a, b in monomial_exponents(l)]
    return np.stack(cols, axis=1)


def evaluate(fam, x):
    """Values of the members of a library family at points x (..., m, 2)."""
    return fam.values(scaled_monomials(x, fam.center, fam.h, _degree(fam)))


class CellFamily(PolyFamily):
    """A library family of one cell, evaluated at any points."""

    def eval(self, x):
        return evaluate(self, x)


def family_grad(fam, x):
    """Gradients (m, n, 2) of the members of a scalar library family."""
    g = monomial_grads(fam.center, fam.h, _degree(fam), x)
    return np.einsum("mad,na->mnd", g, fam.coef)


def family_div(fam, x):
    """Divergences (m, n) of the members of a vector library family."""
    g = monomial_grads(fam.center, fam.h, _degree(fam), x)
    return np.einsum("mad,dna->mn", g, fam.coef)


def _degree(fam):
    return next(l for l in range(-1, 20) if dim_P(l) == fam.coef.shape[-1])


def shear_blocks(M, g):
    """The shear form's cell blocks [I, -g]^T M [I, -g] on [rotation DOFs,
    displacement DOFs] of stacked L2 products M and gradient rows g, formed
    as the build once kept them: M g, then g^T (M g) symmetrised, and no
    -0.0."""
    mg = M @ g
    gmg = np.swapaxes(g, 1, 2) @ mg
    return np.block([[M, -mg],
                     [-np.swapaxes(mg, 1, 2), 0.5 * (gmg + np.swapaxes(gmg, 1, 2))]]) + 0.0


# ---------------------------------------------------------------------------
# per-cell views of the stacked tables


def edge_record(mesh, e):
    """Edge e of the mesh arrays as one record."""
    a, b = mesh.vertex_coords[mesh.edge_vertices[e]]
    return SimpleNamespace(id=int(e), vertices=tuple(mesh.edge_vertices[e].tolist()),
                           tangent=mesh.edge_tangent[e], normal=mesh.edge_normal[e],
                           length=float(mesh.edge_length[e]), midpoint=0.5 * (a + b))


def cell_record(mesh, c):
    """Cell c of the mesh arrays as one record."""
    slots = loop_slots(mesh.cell_offsets, [c])[0]
    return SimpleNamespace(id=int(c), vertices=tuple(mesh.cell_vertices[slots].tolist()),
                           edges=tuple(mesh.cell_edges[slots].tolist()),
                           orientations=tuple(mesh.cell_orientations[slots].tolist()),
                           center=mesh.cell_center[c], diameter=float(mesh.cell_diameter[c]),
                           area=float(mesh.cell_area[c]))


def edge_view(edge_ctx, mesh, e):
    """Edge e of the stacked edge context."""
    return SimpleNamespace(
        edge=edge_record(mesh, e), family=EdgeFamily(mesh.edge_length[e], edge_ctx.family.ndeg),
        s=edge_ctx.s, points=edge_ctx.points[e], weights=edge_ctx.weights[e],
        psi=edge_ctx.psi[e], dmat=edge_ctx.dmat[e], trace=edge_ctx.trace[e])


class CellView:
    """Cell ``c`` of a stacked ElementContext of ``disc``."""

    def __init__(self, disc, ctx, c):
        self.group, self.c = ctx, c
        self.theta_dofs = disc.theta_space.local_dofs(ctx)[c]
        self.u_dofs = disc.u_space.local_dofs(ctx)[c]
        self.k, self.mesh, self.n_vertices = ctx.k, ctx.mesh, ctx.n_vertices
        self.element = cell_record(ctx.mesh, ctx.ids[c])
        self.qpoints, self.qweights = ctx.qpoints[c], ctx.qweights[c]
        self.phi = ctx.phi[c]
        self.roly_vals, self.croly_vals = (t[c] for t in ctx.rotation_tables())
        self.scal, self.roly, self.croly = (
            CellFamily(f.center[c], f.h[c], f.coef[c], f.vector)
            for f in (ctx.scal, ctx.roly, ctx.croly))
        self.edges = [SimpleNamespace(ctx=edge_view(ctx.edge_ctx, ctx.mesh, e),
                                      n_out=ctx.n_out[c, j], omega=ctx.omega[c, j])
                      for j, e in enumerate(ctx.edge_ids[c])]

    def integrate(self, vals):
        return np.tensordot(self.qweights, vals, axes=(0, 0))


def _take(stack, c):
    """Cell c of a stacked pack (a dataclass of stacks) or of a stacked array."""
    if dataclasses.is_dataclass(stack):
        return SimpleNamespace(**{
            f.name: getattr(stack, f.name)[c] if isinstance(getattr(stack, f.name), np.ndarray)
            else getattr(stack, f.name) for f in dataclasses.fields(stack)})
    return stack[c]


def locate(disc, cell_ids):
    """Chunk index (into ``disc.elem_ctxs``) and position within the chunk
    of each cell id."""
    group = np.empty(disc.mesh.n_elements, dtype=int)
    pos = np.empty(disc.mesh.n_elements, dtype=int)
    for g, ctx in enumerate(disc.elem_ctxs):
        group[ctx.ids] = g
        pos[ctx.ids] = np.arange(ctx.n_cells)
    return group[cell_ids], pos[cell_ids]


def cell(disc, cell_id, *stacks):
    """Views of cell ``cell_id``: its context, then its entry of each list
    of per-group stacks (packs or arrays)."""
    group, pos = locate(disc, cell_id)
    views = [CellView(disc, disc.elem_ctxs[group], pos)]
    views += [_take(s[group], pos) for s in stacks]
    return views[0] if not stacks else tuple(views)


def cells(disc, *stacks, limit=None):
    """``cell`` for every cell id in order (the first ``limit`` ones)."""
    n = disc.mesh.n_elements if limit is None else min(limit, disc.mesh.n_elements)
    for cell_id in range(n):
        yield cell(disc, cell_id, *stacks)


def per_group(fn, disc, *stacks):
    """``fn(ctx, *group_items)`` for every cell chunk, as a list of stacks."""
    return [fn(ctx, *items) for ctx, *items in zip(disc.elem_ctxs, *stacks)]


def refined_quadrature(ctx, extra=4):
    """Fresh element rule, four degrees finer than the production one."""
    from ddrplate.polyspace import element_quadrature
    points, weights = element_quadrature(ctx.mesh, [ctx.element.id], 2 * ctx.k + 6 + extra)
    return points[0], weights[0]


def refined_edge_quadrature(ctx, led, extra=4):
    """Fresh Gauss-Legendre edge rule, four degrees finer than the production
    one."""
    edge = led.ctx.edge
    s, w = roots_legendre(-(-(2 * ctx.k + 5 + extra) // 2))
    half = 0.5 * edge.length
    return edge.midpoint + (half * s)[:, None] * edge.tangent, half * w


def edge_dof_values(disc, edge_id, coeffs, s):
    """Evaluate the vector edge polynomial stored in a global rotation vector
    at reference coordinates s."""
    sp = disc.theta_space
    ec = edge_view(disc.edge_ctx, disc.mesh, edge_id)
    psi = ec.family.eval_s(s)[:, :disc.k + 1]
    tang = psi @ coeffs[sp.edge_tangential_slots(edge_id)]
    norm = psi @ coeffs[sp.edge_normal_slots(edge_id)]
    t, n = ec.edge.tangent, ec.edge.normal
    return tang[:, None] * t[None, :] + norm[:, None] * n[None, :]


def u_trace_values(disc, pack, element, u_local, j, s):
    """Evaluate the reconstructed skeleton trace on local edge j."""
    ec = edge_view(disc.edge_ctx, disc.mesh, element.edges[j])
    coef = pack.trace[j] @ u_local
    return ec.family.eval_s(s) @ coef


def _front_rows(sn, j):
    """The rows of node j's front: its pivots, then its update rows."""
    return np.concatenate([np.arange(sn.start[j], sn.start[j + 1]),
                           sn.urows[sn.uoff[j]:sn.uoff[j + 1]]])


def block_lower(sn, blocks):
    """A node-block array of the fronts that ``sn`` analysed (what
    ``Cholesky`` factors, or its factor) as a sparse lower-triangular
    matrix: every node's L11 and L21 block entries on its front rows and
    pivot columns, zeros included."""
    rows, cols, vals = [], [], []
    for j in range(len(sn.parent)):
        pivots, front = np.arange(sn.start[j], sn.start[j + 1]), _front_rows(sn, j)
        block = blocks[sn.offset[j]:sn.offset[j + 1]].reshape(len(front), len(pivots))
        r, c = np.meshgrid(front, pivots, indexing="ij")
        on = r >= c
        rows.append(r[on])
        cols.append(c[on])
        vals.append(block[on])
        assert not block[~on].any()            # the upper triangle of L11 is zero
    n = sn.start[-1]
    return sps.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n))


def lower_factor(chol):
    """The factor L of a ``Cholesky`` as a sparse matrix."""
    return block_lower(chol.sn, chol.factor)


def fronts_matrix(sn, fronts):
    """The symmetric matrix whose lower triangle the node-block array
    ``fronts`` holds, as a sparse matrix with no zero stored."""
    lower = block_lower(sn, fronts)
    return (lower + lower.T - sps.diags(lower.diagonal())).tocsc()


def node_blocks(sn, A):
    """The lower triangle of the sparse matrix A scattered into the
    node-block layout that ``Cholesky`` factors, zeros elsewhere: entry
    (r, c), r >= c, at row r of the front of c's node, column c. An entry
    outside that front fails."""
    A = sps.tril(A, format="coo")
    out = np.zeros(sn.offset[-1])
    p = np.diff(sn.start)
    node = np.repeat(np.arange(len(p)), p)[A.col]
    for j in np.unique(node):
        on = node == j
        local = np.full(sn.start[-1], -1)
        front = _front_rows(sn, j)
        local[front] = np.arange(len(front))
        r = local[A.row[on]]
        assert (r >= 0).all()
        out[sn.offset[j] + r * p[j] + A.col[on] - sn.start[j]] = A.data[on]
    return out


class _WatchedNumpy:
    """numpy, with ``np.zeros`` and ``np.add.at`` calling hooks first."""

    def __init__(self, zeros, add_at):
        self._zeros, self._add_at = zeros, add_at
        self.add = SimpleNamespace(at=self._add)

    def zeros(self, *args, **kwargs):
        self._zeros(*args)
        return np.zeros(*args, **kwargs)

    def _add(self, out, slots, values):
        self._add_at(out, slots, values)
        np.add.at(out, slots, values)

    def __getattr__(self, name):
        return getattr(np, name)


def watch_fronts(monkeypatch, plate, on_stack, on_fronts=lambda: None):
    """Watch the solves of ``plate`` sum their stacks into the fronts of the
    factorization, each stack flattened into one ``np.add.at``: the cell
    chunks' in ``_blocks`` order, then the jump stacks' in edge chunks.
    ``on_fronts()`` runs just before the fronts are allocated, and
    ``on_stack(at, block)`` before each stack is added: its positions in the
    fronts, which must be the kept ones of its chunk (n, m, m), and the
    values it adds, as stacked blocks of that shape. ``ddrplate.system``
    adds to no other array with ``np.add.at``."""
    size = int(plate._supernodes.offset[-1]) + 1
    kept = [b.at for b in plate._blocks] + [a for *_, at in plate._jump for a in cell_chunks(at)]
    count = [0]

    def zeros(shape, *args):
        if shape == size:
            count[0] = 0
            on_fronts()

    def add_at(out, slots, values):
        at = kept[count[0]]
        count[0] += 1
        assert out.shape == (size,) and np.array_equal(slots, at.ravel())
        on_stack(at, values.reshape(at.shape))

    monkeypatch.setattr(ddrplate.system, "np", _WatchedNumpy(zeros, add_at))
