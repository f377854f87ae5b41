from math import factorial
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (ASSETS, cell, cell_record, edge_view, evaluate, family_grad,
                      lstsq_projection_oracle, monomial_grads, refined_quadrature)
from ddrplate.errors import SingularGram
from ddrplate.mesh import build_mesh, load_mesh, loop_slots, triangular_mesh
from ddrplate.polyspace import (build_edge_context, croly_family,
                                derivative_map, dim_P, dim_croly, dim_roly,
                                element_quadrature, gram_orthonormalize, monomial_exponents,
                                monomial_gram, polygon_moments, roly_family, scalar_family)
from ddrplate.spaces import Discretization

UNIT_TRI = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
UNIT_SQUARE = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                         [[0, 1, 2, 3]])


def hexagon():
    ang = np.pi / 3 * np.arange(6)
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return build_mesh(verts, [list(range(6))])


# nonconvex (reflex vertex at (1, 0.8)) but star-shaped w.r.t. its centroid
DART = build_mesh(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 0.8], [0.0, 2.0]]),
                  [[0, 1, 2, 3, 4]])
SLAB = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.02], [0.0, 0.02]]),
                  [[0, 1, 2, 3]])


def cell_gram(mesh, l, cell_id=0):
    """Centre, diameter and monomial Gram over P^l of one cell, with a cell axis."""
    ids = np.array([cell_id])
    center, h = mesh.cell_center[ids], mesh.cell_diameter[ids]
    mu = polygon_moments(cell_loop(mesh, cell_id)[None], center, h, 2 * l)
    return center, h, monomial_gram(mu, l)


def cell_loop(mesh, c):
    """Vertex coordinates of the loop of cell c."""
    return mesh.vertex_coords[mesh.cell_vertices[loop_slots(mesh.cell_offsets, [c])[0]]]


def single_cell_rule(mesh, degree):
    """Fan rule of a one-cell mesh, without the cell axis."""
    points, weights = element_quadrature(mesh, [0], degree)
    return SimpleNamespace(points=points[0], weights=weights[0])


def tri_monomial_integral(a, b):
    """int over the unit triangle of x^a y^b."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_quadrature_closed_forms():
    rule = single_cell_rule(UNIT_TRI, 2)
    val = rule.weights @ (rule.points[:, 0] * rule.points[:, 1])
    assert val == pytest.approx(1.0 / 24.0, rel=1e-14)

    mid = UNIT_SQUARE.vertex_coords[UNIT_SQUARE.edge_vertices].mean(axis=1)
    bottom = np.flatnonzero(np.all(np.isclose(mid, [0.5, 0.0]), axis=1))[0]
    er = build_edge_context(UNIT_SQUARE, 0, 3)
    assert er.weights[bottom] @ er.points[bottom, :, 0] ** 3 == pytest.approx(0.25, rel=1e-14)

    hexa = hexagon()
    rule = single_cell_rule(hexa, 0)
    area = 3.0 * np.sqrt(3.0) / 2.0
    assert np.sum(rule.weights) == pytest.approx(area, rel=1e-13)


@pytest.mark.parametrize("degree", [1, 2, 4, 7, 10])
def test_quadrature_monomial_exactness(degree):
    rule = single_cell_rule(UNIT_TRI, degree)
    for a, b in monomial_exponents(degree):
        val = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
        exact = tri_monomial_integral(a, b)
        assert val == pytest.approx(exact, rel=1e-12)
    rule = single_cell_rule(UNIT_SQUARE, degree)
    for a, b in monomial_exponents(degree):
        val = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
        assert val == pytest.approx(1.0 / ((a + 1) * (b + 1)), rel=1e-12)


def test_quadrature_exactness_on_hexagon_against_finer_rule():
    hexa = hexagon()
    coarse = single_cell_rule(hexa, 6)
    fine = single_cell_rule(hexa, 12)
    for a, b in monomial_exponents(6):
        v1 = coarse.weights @ (coarse.points[:, 0] ** a * coarse.points[:, 1] ** b)
        v2 = fine.weights @ (fine.points[:, 0] ** a * fine.points[:, 1] ** b)
        assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-14)


def test_element_and_edge_quadrature_weights():
    rule = single_cell_rule(UNIT_TRI, 3)
    assert np.sum(rule.weights) == pytest.approx(0.5, rel=1e-14)
    rule = build_edge_context(UNIT_TRI, 0, 3)
    assert np.allclose(rule.weights.sum(axis=1), UNIT_TRI.edge_length, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("l", range(6))
def test_subspace_dimensions(l):
    assert dim_roly(l) == dim_P(l + 1) - 1
    assert dim_croly(l) == dim_P(l - 1)
    assert dim_roly(l) + dim_croly(l) == (l + 1) * (l + 2)


def test_rot_convention_and_divergence_free():
    center, h, gram = cell_gram(UNIT_TRI, 3)
    rule = single_cell_rule(UNIT_TRI, 8)
    # Roly^0 = rot P^1: the raw members rot m_(1,0) = (0, -1/h) and
    # rot m_(0,1) = (1/h, 0) are orthogonal, so the orthonormal members keep
    # their directions
    roly0 = evaluate(roly_family(center, h, 0, gram), rule.points[None])[0]
    assert np.allclose(roly0[:, 0, 0], 0.0, atol=1e-14) and (roly0[:, 0, 1] < 0).all()
    assert np.allclose(roly0[:, 1, 1], 0.0, atol=1e-14) and (roly0[:, 1, 0] > 0).all()
    # every Roly member is divergence free: checked by finite differences of
    # the orthonormal family
    roly = roly_family(center[0], h[0], 2, gram[0])
    eps = 1e-6
    pts = rule.points[:5]
    for i in range(roly.n):
        dx = (evaluate(roly, pts + [eps, 0])[:, i, 0] - evaluate(roly, pts - [eps, 0])[:, i, 0])
        dy = (evaluate(roly, pts + [0, eps])[:, i, 1] - evaluate(roly, pts - [0, eps])[:, i, 1])
        div = (dx + dy) / (2 * eps)
        assert np.abs(div).max() < 1e-6 / h[0]


@pytest.mark.parametrize("l", range(1, 5))
def test_derivative_map_matches_power_rule(l):
    """h d_a m_alpha = alpha_a m_{alpha - e_a}: the coefficient map applied to
    the orthonormal family equals its gradient by the power rule."""
    center, h, gram = cell_gram(DART, l)
    fam = scalar_family(center[0], h[0], gram[0])
    x = single_cell_rule(DART, 4).points
    u = (x - center[0]) / h[0]
    lower = np.stack([u[:, 0] ** a * u[:, 1] ** b for a, b in monomial_exponents(l - 1)], axis=1)
    want = family_grad(fam, x)
    for a in range(2):
        got = lower @ (fam.coef @ derivative_map(l)[a]).T / h[0]
        assert np.abs(got - want[..., a]).max() <= 1e-12 * np.abs(want).max()


MOMENT_MESHES = {
    "tri4": lambda: triangular_mesh(4),
    "hexa_02": lambda: load_mesh(str(ASSETS / "hexa_02.json")),
    "locref_02": lambda: load_mesh(str(ASSETS / "locref_02.json")),
    "dart": lambda: DART,
    "slab": lambda: SLAB,
}


@pytest.fixture(scope="module", params=list(MOMENT_MESHES))
def moment_mesh(request):
    return MOMENT_MESHES[request.param]()


@pytest.mark.parametrize("k", range(4))
def test_polygon_moments_match_refined_fan_rule(moment_mesh, k):
    """mu_gamma, |gamma| <= 2k+4, from the edge formula against a fan rule
    four degrees finer than the production one."""
    mesh = moment_mesh
    degree = 2 * k + 4
    exps = np.array(monomial_exponents(degree))
    for c in range(min(12, mesh.n_elements)):
        center, h = mesh.cell_center[c], mesh.cell_diameter[c]
        mu = polygon_moments(cell_loop(mesh, c)[None], center[None], np.array([h]), degree)[0]
        qp, qw = refined_quadrature(SimpleNamespace(mesh=mesh, element=cell_record(mesh, c), k=k))
        u = (qp - center) / h
        want = qw @ (u[:, None, 0] ** exps[:, 0] * u[:, None, 1] ** exps[:, 1])
        assert mu[0] == pytest.approx(mesh.cell_area[c], rel=1e-14)
        assert np.abs(mu - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("k", range(4))
def test_families_are_orthonormal_under_the_fan_rule(moment_mesh, k):
    """Every family of every cell chunk, evaluated at the production data
    rule (exact for their products), is orthonormal. The degree-5 families
    of k = 3 (P^5, cRoly^5) come from Gram matrices with condition numbers
    up to 1.4e10 on triangles, and their Cholesky transforms are about 1.5e-12
    from orthonormal even in exact arithmetic (checked at 40 digits on a
    tri n=4 cell, for this transform and for one from the fan-rule Gram);
    under the fan rule they read up to 3.4e-12."""
    disc = Discretization(moment_mesh, k)
    for ctx in disc.elem_ctxs:
        w = ctx.qweights[:, :, None]
        for fam in (ctx.scal, ctx.roly, ctx.croly):
            tol = 1e-12 if fam.coef.shape[-1] <= dim_P(4) else 5e-12
            vals = evaluate(fam, ctx.qpoints)
            if fam.vector:
                vals = np.concatenate([vals[..., 0], vals[..., 1]], axis=1)
                w2 = np.concatenate([w, w], axis=1)
            else:
                w2 = w
            gram = np.swapaxes(vals * w2, 1, 2) @ vals
            assert np.abs(gram - np.eye(fam.n)).max(initial=0.0) < tol
        # the data tables are the leading members of the families
        np_k1 = dim_P(k + 1)
        assert np.abs(ctx.phi - evaluate(ctx.scal, ctx.qpoints)[..., :np_k1]).max() < 1e-12
        roly, croly = ctx.rotation_tables()
        assert np.abs(roly - evaluate(ctx.roly, ctx.qpoints)).max(initial=0.0) < 1e-12
        n_croly = dim_croly(k)
        assert np.abs(croly - evaluate(ctx.croly, ctx.qpoints)[:, :, :n_croly]
                      ).max(initial=0.0) < 1e-12


def test_element_contexts_keep_no_data_tables():
    """The values at the fan rule are evaluated on each read: the arrays
    that the element contexts of tri n=8 at k = 3 keep total under 1 MiB,
    where the three data tables alone take 6.5 MiB."""
    disc = Discretization(triangular_mesh(8), 3)
    kept = sum(v.nbytes for ctx in disc.elem_ctxs for v in vars(ctx).values()
               if isinstance(v, np.ndarray))
    assert kept <= 2 ** 20
    tables = sum(t.nbytes for ctx in disc.elem_ctxs
                 for t in (ctx.phi, *ctx.rotation_tables()))
    assert tables > 6 * 2 ** 20
    # no table is cached on a context: a read evaluates a new one
    for ctx in disc.elem_ctxs:
        assert ctx.phi is not ctx.phi
        assert not any(a is b for a, b in zip(ctx.rotation_tables(), ctx.rotation_tables()))


def test_orthonormality_of_families():
    hexa = hexagon()
    center, h, gram = cell_gram(hexa, 4)
    rule = single_cell_rule(hexa, 10)
    fam = scalar_family(center[0], h[0], gram[0])
    vals = evaluate(fam, rule.points)
    gram_q = (vals * rule.weights[:, None]).T @ vals
    assert np.abs(gram_q - np.eye(fam.n)).max() < 1e-12
    croly = croly_family(center[0], h[0], 3, gram[0])
    cv = evaluate(croly, rule.points)
    gram_q = np.einsum("qic,q,qjc->ij", cv, rule.weights, cv)
    assert np.abs(gram_q - np.eye(croly.n)).max() < 1e-12


def test_singular_gram_raises():
    with pytest.raises(SingularGram):
        gram_orthonormalize(np.array([[1.0, 1.0], [1.0, 1.0]]))
    # three collinear vertices: every moment vanishes
    loop = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
    mu = polygon_moments(loop, np.array([[1.0, 0.0]]), np.array([2.0]), 4)
    assert np.abs(mu).max() == 0.0
    with pytest.raises(SingularGram):
        scalar_family(np.array([[1.0, 0.0]]), np.array([2.0]), monomial_gram(mu, 2))
    # a 3-point rule cannot tell P^2 members apart
    center, h = UNIT_TRI.cell_center[0], UNIT_TRI.cell_diameter[0]
    rule = single_cell_rule(UNIT_TRI, 0)
    u = (rule.points - center) / h
    raw = np.stack([u[:, 0] ** a * u[:, 1] ** b for a, b in monomial_exponents(2)], axis=1)
    with pytest.raises(SingularGram):
        scalar_family(center, h, (raw * rule.weights[:, None]).T @ raw)


@pytest.fixture(scope="module")
def hexa_ctx():
    hexa = hexagon()
    return cell(Discretization(hexa, 2), 0)


def _project_P(ctx, f, l):
    """Coefficients of the L2 projection of f onto P^l(T)."""
    return ctx.integrate(np.asarray(f(ctx.qpoints))[:, None] * ctx.phi[:, :dim_P(l)])


def _project_onto(vals_at_q, ctx, basis):
    """Coefficients of the L2 projection of a vector field onto an
    orthonormal vector family given by its values at the quadrature points."""
    return np.einsum("q,qc,qnc->n", ctx.qweights, vals_at_q, basis)


def test_projection_reproduces_polynomials(hexa_ctx):
    ctx = hexa_ctx
    xt = ctx.element.center

    def lin(x):
        return x[:, 0] - xt[0]

    coef = _project_P(ctx, lin, 1)
    vals = ctx.phi[:, :dim_P(1)] @ coef
    assert np.abs(vals - lin(ctx.qpoints)).max() < 1e-12

    # constants lie in Roly^0 = rot P^1
    c = np.array([0.7, -0.3])
    n0 = dim_roly(0)
    coef = _project_onto(np.tile(c, (len(ctx.qpoints), 1)), ctx,
                         ctx.roly_vals[:, :n0])
    vals = np.einsum("n,qnc->qc", coef, ctx.roly_vals[:, :n0])
    assert np.abs(vals - c).max() < 1e-12

    # (x - x_T) q with q constant lies in cRoly^1
    def crly(x):
        return (x - xt) * 0.9

    basis = ctx.croly_vals[:, :dim_croly(1)]
    coef = _project_onto(crly(ctx.qpoints), ctx, basis)
    vals = np.einsum("n,qnc->qc", coef, basis)
    assert np.abs(vals - crly(ctx.qpoints)).max() < 1e-12


def test_projector_idempotence_and_orthogonality(hexa_ctx, rng):
    ctx = hexa_ctx

    def f(x):
        return np.sin(x[:, 0]) * np.cos(2 * x[:, 1])

    coef = _project_P(ctx, f, 2)
    proj_vals = ctx.phi[:, :dim_P(2)] @ coef
    coef2 = _project_P(ctx, lambda x: ctx.scal.eval(x)[:, :dim_P(2)] @ coef, 2)
    assert np.abs(coef - coef2).max() < 1e-12
    resid = f(ctx.qpoints) - proj_vals
    against = ctx.integrate(resid[:, None] * ctx.phi[:, :dim_P(2)])
    scale = np.sqrt(ctx.integrate(f(ctx.qpoints) ** 2))
    assert np.abs(against).max() < 1e-11 * scale


def test_vector_decomposition_against_lstsq_oracle(hexa_ctx, rng):
    """Projecting a random vP^2 field on Roly^2 and its complement and
    recombining must match a dense least-squares fit on the joint basis."""
    ctx = hexa_ctx
    coefs = rng.standard_normal((2, dim_P(2)))

    def f(x):
        vals = ctx.scal.eval(x)[:, :dim_P(2)]
        return np.stack([vals @ coefs[0], vals @ coefs[1]], axis=-1)

    fq = f(ctx.qpoints)
    xt, h = ctx.element.center, ctx.element.diameter
    roly_full = roly_family(xt, h, 2, ctx.group.gram[ctx.c])
    rv = evaluate(roly_full, ctx.qpoints)
    r = np.einsum("q,qc,qnc->n", ctx.qweights, fq, rv)
    proj_r = np.einsum("n,qnc->qc", r, rv)
    # oracle: dense least squares on the raw (non-orthonormalized) basis
    grads = monomial_grads(xt, h, 3, ctx.qpoints)[:, 1:]
    raw_r = np.stack([grads[..., 1], -grads[..., 0]], axis=-1)
    oracle_r = lstsq_projection_oracle(ctx.qpoints, ctx.qweights, raw_r, fq)
    assert np.abs(proj_r - oracle_r).max() < 1e-10
    cv = ctx.croly_vals[:, :dim_croly(2)]
    joint = np.concatenate([rv, cv], axis=1)
    oracle_joint = lstsq_projection_oracle(ctx.qpoints, ctx.qweights, joint, fq)
    # the joint fit reproduces the full field (direct sum spans vP^2)
    assert np.abs(oracle_joint - fq).max() < 1e-10


def test_edge_family_derivative_matrix():
    mesh = triangular_mesh(1)
    disc = Discretization(mesh, 2)
    ec = edge_view(disc.edge_ctx, mesh, 0)
    # derivative of each member against finite differences along the edge
    s = np.linspace(-0.8, 0.8, 5)
    eps = 1e-6
    vals_p = ec.family.eval_s(s + eps)
    vals_m = ec.family.eval_s(s - eps)
    fd = (vals_p - vals_m) / (2 * eps) * (2.0 / ec.edge.length)
    rep = np.einsum("qi,ij->qj", ec.family.eval_s(s), ec.dmat)
    assert np.abs(rep - fd).max() < 1e-7


def test_trace_recovery_matches_conditions(rng):
    mesh = triangular_mesh(1)
    disc = Discretization(mesh, 2)
    ec = edge_view(disc.edge_ctx, mesh, 0)
    k = disc.k
    dofs = rng.standard_normal(k + 2)          # [moments, v_a, v_b]
    coef = ec.trace @ dofs
    ends = ec.family.end_values() @ coef
    assert ends[0] == pytest.approx(dofs[k], abs=1e-12)
    assert ends[1] == pytest.approx(dofs[k + 1], abs=1e-12)
    moments = ec.weights @ (ec.psi[:, :k] * (ec.psi @ coef)[:, None])
    assert np.abs(moments - dofs[:k]).max() < 1e-12


def test_roly_and_croly_pair():
    center, h, gram = cell_gram(hexagon(), 3)
    roly = roly_family(center, h, 2, gram)
    croly = croly_family(center, h, 2, gram)
    assert roly.n == dim_roly(2) == 9
    assert croly.n == dim_croly(2) == 3
    assert roly.n + croly.n == 12


def test_discretization_rejects_negative_degree():
    with pytest.raises(ValueError):
        Discretization(UNIT_TRI, -1)
