import numpy as np
import pytest

from conftest import fd_gradient_scalar, fd_jacobian_vector
from ddrplate.solutions import (ExactSolution, analytical_solution,
                                get_solution, polynomial_solution,
                                seminorm_probe)
from ddrplate.system import MaterialParams


def interior_points(rng, n=50):
    return 0.02 + 0.96 * rng.random((n, 2))


@pytest.mark.parametrize("name", ["polynomial", "analytical"])
@pytest.mark.parametrize("t", [1e-1, 1e-3])
def test_derivatives_match_fd_oracle(rng, name, t):
    """Every hand-derived derivative is cross-checked against Richardson
    central differences at random interior points."""
    sol = get_solution(name, MaterialParams(t=t))
    x = interior_points(rng, 40)
    if name == "analytical" and t == 1e-3:
        # keep clear of the boundary layer where the FD step is too coarse
        x[:, 0] = 0.3 + 0.65 * x[:, 0]
    gu = fd_gradient_scalar(sol.u, x)
    scale = np.abs(gu).max() + 1
    assert np.abs(sol.grad_u(x) - gu).max() < 1e-8 * scale
    gt = fd_jacobian_vector(sol.theta, x)
    assert np.abs(sol.grad_theta(x) - gt).max() < 1e-8 * (np.abs(gt).max() + 1)
    gg = fd_jacobian_vector(sol.gamma, x)
    assert np.abs(sol.grad_gamma(x) - gg).max() < 1e-8 * (np.abs(gg).max() + 1)


@pytest.mark.parametrize("name", ["polynomial", "analytical"])
@pytest.mark.parametrize("t", [1e-1, 1e-3])
def test_strong_form_residuals(rng, name, t):
    """The shear definition and the transverse balance hold to 1e-8 relative
    at 50 random interior points; the moment balance is checked through the
    finite-difference divergence of the bending moment."""
    m = MaterialParams(t=t)
    sol = get_solution(name, m)
    x = interior_points(rng)
    gam = sol.gamma(x)
    gscale = np.abs(gam).max() + 1
    assert np.abs(sol.shear_residual(x)).max() < 1e-8 * m.shear_over_t2 * m.t ** 2 \
        * (np.abs(sol.grad_u(x)).max() + np.abs(sol.theta(x)).max() + 1) + 1e-10 * gscale
    fscale = np.abs(sol.f(x)).max() + 1
    assert np.abs(sol.balance_residual(x)).max() < 1e-8 * fscale

    # moment balance gamma + div(C grad_s theta) = 0 via FD second derivatives
    def c_grads_row(a):
        def row(y):
            g = sol.grad_theta(y)
            gs = 0.5 * (g + np.swapaxes(g, 1, 2))
            tr = gs[:, 0, 0] + gs[:, 1, 1]
            return m.beta0 * gs[:, a, :] + m.beta1 * tr[:, None] * np.eye(2)[a]
        return row

    div_rows = []
    for a in range(2):
        jac = fd_jacobian_vector(c_grads_row(a), x)
        div_rows.append(jac[:, 0, 0] + jac[:, 1, 1])
    res = gam + np.stack(div_rows, axis=-1)
    assert np.abs(res).max() < 1e-7 * gscale


def test_polynomial_solution_clamped_traces(rng):
    sol = polynomial_solution(MaterialParams(t=1e-1))
    z = np.zeros((1, 2))
    assert sol.u(z)[0] == 0.0
    assert np.abs(sol.theta(z)).max() == 0.0
    s = rng.random(25)
    border = np.concatenate([
        np.stack([s, np.zeros_like(s)], -1), np.stack([s, np.ones_like(s)], -1),
        np.stack([np.zeros_like(s), s], -1), np.stack([np.ones_like(s), s], -1)])
    assert np.abs(sol.u(border)).max() < 1e-15
    assert np.abs(sol.theta(border)).max() < 1e-15
    # first rotation component vanishes on the x1 = 1/2 line
    mid = np.stack([np.full(9, 0.5), np.linspace(0.05, 0.95, 9)], -1)
    assert np.abs(sol.theta(mid)[:, 0]).max() < 1e-16


def test_polynomial_correction_term_printed_form(rng):
    """At kappa0 = 5/6 the t^2 correction must coincide with the classical
    closed form 2 t^2/(5 (1-nu)) [ q(y) p'(x)/" ... ] used in plate
    benchmarks; this pins the generic (beta0+beta1)/kappa construction."""
    t, nu = 0.05, 0.3
    sol = polynomial_solution(MaterialParams(E=1.0, nu=nu, t=t, kappa0=5.0 / 6.0))
    x = rng.random((30, 2))
    x1, x2 = x[:, 0], x[:, 1]
    u0 = (x1 ** 3 * (1 - x1) ** 3 * x2 ** 3 * (1 - x2) ** 3) / 3.0
    corr = -(2.0 * t ** 2 / (5.0 * (1.0 - nu))) * (
        x2 ** 3 * (x2 - 1) ** 3 * x1 * (x1 - 1) * (5 * x1 ** 2 - 5 * x1 + 1)
        + x1 ** 3 * (x1 - 1) ** 3 * x2 * (x2 - 1) * (5 * x2 ** 2 - 5 * x2 + 1))
    assert np.abs(sol.u(x) - (u0 + corr)).max() < 1e-15
    theta1 = x2 ** 3 * (x2 - 1) ** 3 * x1 ** 2 * (x1 - 1) ** 2 * (2 * x1 - 1)
    theta2 = x1 ** 3 * (x1 - 1) ** 3 * x2 ** 2 * (x2 - 1) ** 2 * (2 * x2 - 1)
    got = sol.theta(x)
    assert np.abs(got[:, 0] - theta1).max() < 1e-15
    assert np.abs(got[:, 1] - theta2).max() < 1e-15


def test_polynomial_shear_strain_independent_of_t(rng):
    x = interior_points(rng, 20)
    g1 = polynomial_solution(MaterialParams(t=1e-1)).gamma(x)
    g2 = polynomial_solution(MaterialParams(t=1e-4)).gamma(x)
    assert np.abs(g1 - g2).max() < 1e-14 * (np.abs(g1).max() + 1)


def test_analytical_solution_structure(rng):
    m = MaterialParams(t=1e-1)
    sol = analytical_solution(m)
    # load at the center: 4 pi^4 (beta0 + beta1)
    center = np.array([[0.5, 0.5]])
    assert sol.f(center)[0] == pytest.approx(4 * np.pi ** 4 * (m.beta0 + m.beta1),
                                             rel=1e-14)
    # the layer is biharmonic and stays out of the load, which does not
    # depend on the thickness bit for bit
    x = rng.random((30, 2))
    for t in (1e-3, 1e-9):
        assert np.array_equal(analytical_solution(MaterialParams(t=t)).f(x), sol.f(x))
    # the rotation has a nonzero normal trace on the boundary
    s = np.linspace(0.05, 0.95, 21)
    left = np.stack([np.zeros_like(s), s], -1)
    assert np.abs(sol.theta(left)[:, 0]).max() > 1e-3


def test_analytical_gamma_closed_form(rng):
    """gamma = -2(b0+b1) e^{-x1/t} (cos(x2/t), sin(x2/t)) - (b0+b1) grad lap g."""
    m = MaterialParams(t=1e-1)
    sol = analytical_solution(m)
    x = rng.random((10, 2))
    c = m.beta0 + m.beta1
    pi = np.pi
    layer = -2.0 * c * np.exp(-x[:, 0] / m.t)
    expect = np.stack([
        layer * np.cos(x[:, 1] / m.t)
        + 2.0 * c * pi ** 3 * np.cos(pi * x[:, 0]) * np.sin(pi * x[:, 1]),
        layer * np.sin(x[:, 1] / m.t)
        + 2.0 * c * pi ** 3 * np.sin(pi * x[:, 0]) * np.cos(pi * x[:, 1]),
    ], axis=-1)
    got = sol.gamma(x)
    assert np.abs(got - expect).max() < 1e-9 * (np.abs(expect).max() + 1)


def test_bilaplacian_of_layer_potential_vanishes(rng):
    """Lap V = -2 e^{-y1} cos(y2), whose Laplacian vanishes: checked with
    finite differences of the analytic Laplacian."""
    y = 0.2 + 2.0 * rng.random((10, 2))

    def lap_V(pts):
        return -2.0 * np.exp(-pts[:, 0]) * np.cos(pts[:, 1])

    h = 1e-4
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    lap_lap = (lap_V(y + e1) + lap_V(y - e1) + lap_V(y + e2) + lap_V(y - e2)
               - 4 * lap_V(y)) / h ** 2
    assert np.abs(lap_lap).max() < 1e-7


def test_exp_underflow_clamped():
    sol = analytical_solution(MaterialParams(t=1e-5))
    x = np.array([[0.9, 0.5]])          # exp(-0.9e5) underflows
    with np.errstate(all="raise"):
        vals = sol.gamma(x)
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("name", ["polynomial", "analytical"])
@pytest.mark.parametrize("t", [1e-1, 1e-5, 1e-9, 1e-150])
def test_fields_stay_finite_for_tiny_thickness(rng, name, t):
    """Every field is finite, with no overflow, invalid or divide warning,
    down to t = 1e-150 and on x1 = 0, where the layer is largest: the layer's
    mixed derivatives carry t^(3-a-b) as one power, since t^3 underflows and
    t^-4 overflows long before their product does."""
    sol = get_solution(name, MaterialParams(t=t))
    s = np.linspace(0.0, 1.0, 21)
    x = np.concatenate([rng.random((200, 2)), np.stack([np.zeros_like(s), s], -1)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for field in ("u", "grad_u", "theta", "grad_theta", "gamma", "grad_gamma", "f"):
            assert np.all(np.isfinite(getattr(sol, field)(x))), field


def test_seminorm_probe_zero_field():
    m = MaterialParams()
    zero2 = lambda x: np.zeros((len(np.atleast_2d(x)), 2))
    sol = ExactSolution("zero", m,
                        u=lambda x: np.zeros(len(np.atleast_2d(x))),
                        grad_u=zero2, theta=zero2,
                        grad_theta=lambda x: np.zeros((len(np.atleast_2d(x)), 2, 2)),
                        gamma=zero2,
                        grad_gamma=lambda x: np.zeros((len(np.atleast_2d(x)), 2, 2)),
                        f=lambda x: np.zeros(len(np.atleast_2d(x))))
    assert seminorm_probe(sol, 0) == 0.0
    with pytest.raises(ValueError):
        seminorm_probe(sol, 2)


def test_seminorm_probe_l2_stable_in_t():
    l2_a = seminorm_probe(analytical_solution(MaterialParams(t=1e-1)), 0)
    l2_b = seminorm_probe(analytical_solution(MaterialParams(t=1e-3)), 0)
    assert max(l2_a, l2_b) / min(l2_a, l2_b) < 3.0


def test_seminorm_probe_h1_growth():
    """|gamma|_{H1} grows as t^{-1/2} once the boundary layer dominates the
    smooth background (t below ~1e-4 for these material constants)."""
    h1_a = seminorm_probe(analytical_solution(MaterialParams(t=1e-5)), 1)
    h1_b = seminorm_probe(analytical_solution(MaterialParams(t=1e-7)), 1)
    exponent = np.log(h1_b / h1_a) / np.log(1e-5 / 1e-7)
    assert 0.25 <= exponent <= 1.0


def test_unknown_solution_name():
    with pytest.raises(ValueError):
        get_solution("mystery", MaterialParams())
