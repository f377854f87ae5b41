from math import factorial

import numpy as np
import pytest

from conftest import cell, edge_view, lstsq_projection_oracle
from ddrplate.errors import SingularGram
from ddrplate.mesh import build_mesh, triangular_mesh
from ddrplate.polyspace import (CRolyFamily, QuadratureRule, ScalarFamily,
                                build_edge_context, dim_P, dim_croly, dim_roly,
                                element_quadrature, gram_orthonormalize,
                                monomial_exponents, roly_family)
from ddrplate.spaces import Discretization

UNIT_TRI = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
UNIT_SQUARE = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                         [[0, 1, 2, 3]])


def hexagon():
    ang = np.pi / 3 * np.arange(6)
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return build_mesh(verts, [list(range(6))])


def single_cell_rule(mesh, degree):
    """Fan rule of a one-cell mesh, without the cell axis."""
    rule = element_quadrature(mesh, mesh.elements, degree)
    return QuadratureRule(rule.points[0], rule.weights[0])


def tri_monomial_integral(a, b):
    """int over the unit triangle of x^a y^b."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_quadrature_closed_forms():
    rule = single_cell_rule(UNIT_TRI, 2)
    val = rule.weights @ (rule.points[:, 0] * rule.points[:, 1])
    assert val == pytest.approx(1.0 / 24.0, rel=1e-14)

    bottom = next(e for e in UNIT_SQUARE.edges
                  if np.allclose(UNIT_SQUARE.edge_midpoint(e), [0.5, 0.0]))
    er = build_edge_context(UNIT_SQUARE, [bottom], 0, 3)
    assert er.weights[0] @ er.points[0, :, 0] ** 3 == pytest.approx(0.25, rel=1e-14)

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
    rule = build_edge_context(UNIT_TRI, UNIT_TRI.edges[:1], 0, 3)
    assert np.sum(rule.weights[0]) == pytest.approx(UNIT_TRI.edges[0].length, rel=1e-14)


@pytest.mark.parametrize("l", range(6))
def test_subspace_dimensions(l):
    assert dim_roly(l) == dim_P(l + 1) - 1
    assert dim_croly(l) == dim_P(l - 1)
    assert dim_roly(l) + dim_croly(l) == (l + 1) * (l + 2)


def test_rot_convention_and_divergence_free():
    el = UNIT_TRI.elements[0]
    rule = single_cell_rule(UNIT_TRI, 8)
    fam = ScalarFamily(el.center, el.diameter, 3, rule.points, rule.weights)
    # raw member with exponents (0,1) is (x2 - c2)/h; its rot must align with (1,0)
    raw_grad = fam._raw_grad(rule.points)
    rot = np.stack([raw_grad[..., 1], -raw_grad[..., 0]], axis=-1)
    member = rot[:, 2, :]          # graded order: [1, x1-like, x2-like]
    assert np.allclose(member[:, 0], 1.0 / el.diameter, atol=1e-14)
    assert np.allclose(member[:, 1], 0.0, atol=1e-14)
    # every Roly member is divergence free: rot members of x1*x2 checked by
    # finite difference of the orthonormal family
    roly = roly_family(fam, 2, rule.points, rule.weights)
    eps = 1e-6
    pts = rule.points[:5]
    for i in range(roly.n):
        dx = (roly.eval(pts + [eps, 0])[:, i, 0] - roly.eval(pts - [eps, 0])[:, i, 0])
        dy = (roly.eval(pts + [0, eps])[:, i, 1] - roly.eval(pts - [0, eps])[:, i, 1])
        div = (dx + dy) / (2 * eps)
        assert np.abs(div).max() < 1e-6 / el.diameter


def test_orthonormality_of_families():
    hexa = hexagon()
    el = hexa.elements[0]
    rule = single_cell_rule(hexa, 10)
    fam = ScalarFamily(el.center, el.diameter, 4, rule.points, rule.weights)
    vals = fam.eval(rule.points)
    gram = (vals * rule.weights[:, None]).T @ vals
    assert np.abs(gram - np.eye(fam.dim())).max() < 1e-12
    croly = CRolyFamily(fam, 3, rule.points, rule.weights)
    cv = croly.eval(rule.points)
    gram = np.einsum("qic,q,qjc->ij", cv, rule.weights, cv)
    assert np.abs(gram - np.eye(croly.n)).max() < 1e-12


def test_singular_gram_raises():
    with pytest.raises(SingularGram):
        gram_orthonormalize(np.array([[1.0, 1.0], [1.0, 1.0]]))
    el = UNIT_TRI.elements[0]
    rule = single_cell_rule(UNIT_TRI, 0)   # 3 fan points, P^2 has 6 dofs
    with pytest.raises(SingularGram):
        ScalarFamily(el.center, el.diameter, 2, rule.points, rule.weights)


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
    roly_full = roly_family(ctx.scal, 2, ctx.qpoints, ctx.qweights)
    rv = roly_full.eval(ctx.qpoints)
    r = np.einsum("q,qc,qnc->n", ctx.qweights, fq, rv)
    proj_r = np.einsum("n,qnc->qc", r, rv)
    # oracle: dense least squares on the raw (non-orthonormalized) basis
    raw_r = roly_full._raw_eval(ctx.qpoints)
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
    hexa = hexagon()
    el = hexa.elements[0]
    rule = single_cell_rule(hexa, 8)
    fam = ScalarFamily(el.center, el.diameter, 3, rule.points, rule.weights)
    roly = roly_family(fam, 2, rule.points, rule.weights)
    croly = CRolyFamily(fam, 2, rule.points, rule.weights)
    assert roly.n == dim_roly(2) == 9
    assert croly.n == dim_croly(2) == 3
    assert roly.n + croly.n == 12


def test_discretization_rejects_negative_degree():
    with pytest.raises(ValueError):
        Discretization(UNIT_TRI, -1)
