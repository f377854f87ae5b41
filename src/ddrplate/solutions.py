"""Closed-form exact solutions and loads for the plate problem on (0,1)^2.

Both test solutions follow the same gradient construction: pick a potential
v, set the rotation to grad v, and correct the displacement by t^2 * w with
w = -((beta0 + beta1)/kappa) * Lap v. The shear strain is then kappa * grad w
and the load (beta0 + beta1) * Lap^2 v, and the full strong system holds
identically for any shear correction factor.

* polynomial case: v = (1/3) x^3 (x-1)^3 y^3 (y-1)^3, clamped homogeneous
  traces; with kappa0 = 5/6 the displacement correction reduces to the
  classical 2 t^2 / (5 (1 - nu)) form. The shear strain is t-independent.
* boundary-layer case: v = t^3 V(x / t) + g with V(y) = y1 e^{-y1} cos(y2)
  and g = sin(pi x1) sin(pi x2); non-homogeneous traces. Lap^2 V = 0, so the
  load (beta0 + beta1) * Lap^2 g = 4 pi^4 (beta0 + beta1) g does not depend
  on t, while |gamma|_{H^s} grows like t^{1/2 - s} as t -> 0.

All derivative evaluators are hand-derived closed forms; the test suite
cross-checks them against a Richardson-extrapolated finite-difference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .system import MaterialParams

_EXP_FLOOR = -700.0  # exp underflows to exact zero below this


def _safe_exp(a: np.ndarray) -> np.ndarray:
    return np.where(a < _EXP_FLOOR, 0.0, np.exp(np.maximum(a, _EXP_FLOOR)))


@dataclass
class ExactSolution:
    name: str
    homogeneous_bc: bool
    material: MaterialParams
    u: Callable[[np.ndarray], np.ndarray]
    grad_u: Callable[[np.ndarray], np.ndarray]
    theta: Callable[[np.ndarray], np.ndarray]
    grad_theta: Callable[[np.ndarray], np.ndarray]
    gamma: Callable[[np.ndarray], np.ndarray]
    grad_gamma: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]

    def shear_residual(self, x: np.ndarray) -> np.ndarray:
        """gamma - (kappa/t^2)(grad u - theta), pointwise."""
        m = self.material
        return self.gamma(x) - m.shear_over_t2 * (self.grad_u(x) - self.theta(x))

    def balance_residual(self, x: np.ndarray) -> np.ndarray:
        """-div gamma - f from the analytic gradient of gamma."""
        gg = self.grad_gamma(x)
        return -(gg[:, 0, 0] + gg[:, 1, 1]) - self.f(x)


def _gradient_form_solution(name: str, material: MaterialParams, homogeneous: bool,
                            v, grad_v, hess_v, lap_v, grad_lap_v, hess_lap_v,
                            bilap_v) -> ExactSolution:
    """Assemble the evaluators of the gradient construction from the
    derivatives of the potential v."""
    m = material
    c = (m.beta0 + m.beta1) / m.kappa
    t2 = m.t ** 2

    def u(x):
        return v(x) - t2 * c * lap_v(x)

    def grad_u(x):
        return grad_v(x) - t2 * c * grad_lap_v(x)

    def theta(x):
        return grad_v(x)

    def grad_theta(x):
        return hess_v(x)

    def gamma(x):
        return -(m.beta0 + m.beta1) * grad_lap_v(x)

    def grad_gamma(x):
        return -(m.beta0 + m.beta1) * hess_lap_v(x)

    def f(x):
        return (m.beta0 + m.beta1) * bilap_v(x)

    return ExactSolution(name, homogeneous, material,
                         u, grad_u, theta, grad_theta, gamma, grad_gamma, f)


def _p_derivs(x: np.ndarray):
    """x^3 (x-1)^3 and its first four derivatives, via s = x^2 - x."""
    s = x * x - x
    ds = 2.0 * x - 1.0
    p = s * s * s        # s <= 0 on [0, 1]: a power of a negative base is slow
    p1 = 3.0 * s * s * ds
    p2 = 6.0 * s * (5.0 * s + 1.0)
    p3 = (60.0 * s + 6.0) * ds
    p4 = 360.0 * s + 72.0
    return p, p1, p2, p3, p4


def polynomial_solution(material: MaterialParams) -> ExactSolution:
    """Clamped polynomial solution; rotation is the gradient of
    (1/3) x^3 (x-1)^3 y^3 (y-1)^3."""

    def parts(x):
        return _p_derivs(x[:, 0]), _p_derivs(x[:, 1])

    def v(x):
        (p, *_), (q, *_) = parts(x)
        return p * q / 3.0

    def grad_v(x):
        (p, p1, *_), (q, q1, *_) = parts(x)
        return np.stack([p1 * q, p * q1], axis=-1) / 3.0

    def hess_v(x):
        (p, p1, p2, *_), (q, q1, q2, *_) = parts(x)
        h = np.empty(x.shape[:1] + (2, 2))
        h[:, 0, 0] = p2 * q
        h[:, 0, 1] = h[:, 1, 0] = p1 * q1
        h[:, 1, 1] = p * q2
        return h / 3.0

    def lap_v(x):
        (p, _, p2, *_), (q, _, q2, *_) = parts(x)
        return (p2 * q + p * q2) / 3.0

    def grad_lap_v(x):
        (p, p1, p2, p3, _), (q, q1, q2, q3, _) = parts(x)
        return np.stack([p3 * q + p1 * q2, p2 * q1 + p * q3], axis=-1) / 3.0

    def hess_lap_v(x):
        (p, p1, p2, p3, p4), (q, q1, q2, q3, q4) = parts(x)
        h = np.empty(x.shape[:1] + (2, 2))
        h[:, 0, 0] = p4 * q + p2 * q2
        h[:, 0, 1] = h[:, 1, 0] = p3 * q1 + p1 * q3
        h[:, 1, 1] = p2 * q2 + p * q4
        return h / 3.0

    def bilap_v(x):
        (p, _, p2, _, p4), (q, _, q2, _, q4) = parts(x)
        return (p4 * q + 2.0 * p2 * q2 + p * q4) / 3.0

    return _gradient_form_solution("polynomial", material, True, v, grad_v,
                                   hess_v, lap_v, grad_lap_v, hess_lap_v, bilap_v)


def analytical_solution(material: MaterialParams) -> ExactSolution:
    """Boundary-layer solution with non-homogeneous traces; the load is
    independent of t and the shear strain concentrates near x1 = 0."""
    t = material.t
    pi = np.pi

    def trig(x):
        s1, c1 = np.sin(pi * x[:, 0]), np.cos(pi * x[:, 0])
        s2, c2 = np.sin(pi * x[:, 1]), np.cos(pi * x[:, 1])
        return s1, c1, s2, c2

    def layer(x):
        y1, y2 = x[:, 0] / t, x[:, 1] / t
        return y1, _safe_exp(-y1), np.cos(y2), np.sin(y2)

    def v(x):
        y1, e, c, s = layer(x)
        s1, _, s2, _ = trig(x)
        return t ** 3 * y1 * e * c + s1 * s2

    def grad_v(x):
        y1, e, c, s = layer(x)
        s1, c1, s2, c2 = trig(x)
        # d/dx [t^3 V(x/t)] = t^2 (grad V)(x/t)
        g1 = t * t * (1.0 - y1) * e * c + pi * c1 * s2
        g2 = t * t * (-y1 * e * s) + pi * s1 * c2
        return np.stack([g1, g2], axis=-1)

    def hess_v(x):
        y1, e, c, s = layer(x)
        s1, c1, s2, c2 = trig(x)
        h = np.empty(x.shape[:1] + (2, 2))
        h[:, 0, 0] = t * (y1 - 2.0) * e * c - pi * pi * s1 * s2
        h[:, 0, 1] = h[:, 1, 0] = t * (y1 - 1.0) * e * s + pi * pi * c1 * c2
        h[:, 1, 1] = t * (-y1 * e * c) - pi * pi * s1 * s2
        return h

    def lap_v(x):
        y1, e, c, s = layer(x)
        s1, _, s2, _ = trig(x)
        return t * (-2.0 * e * c) - 2.0 * pi ** 2 * s1 * s2

    def grad_lap_v(x):
        y1, e, c, s = layer(x)
        s1, c1, s2, c2 = trig(x)
        g1 = 2.0 * e * c - 2.0 * pi ** 3 * c1 * s2
        g2 = 2.0 * e * s - 2.0 * pi ** 3 * s1 * c2
        return np.stack([g1, g2], axis=-1)

    def hess_lap_v(x):
        y1, e, c, s = layer(x)
        s1, c1, s2, c2 = trig(x)
        h = np.empty(x.shape[:1] + (2, 2))
        h[:, 0, 0] = -2.0 / t * e * c + 2.0 * pi ** 4 * s1 * s2
        h[:, 0, 1] = h[:, 1, 0] = -2.0 / t * e * s - 2.0 * pi ** 4 * c1 * c2
        h[:, 1, 1] = 2.0 / t * e * c + 2.0 * pi ** 4 * s1 * s2
        return h

    def bilap_v(x):
        s1, _, s2, _ = trig(x)
        return 4.0 * pi ** 4 * s1 * s2

    return _gradient_form_solution("analytical", material, False, v, grad_v,
                                   hess_v, lap_v, grad_lap_v, hess_lap_v, bilap_v)


def get_solution(name: str, material: MaterialParams) -> ExactSolution:
    if name == "polynomial":
        return polynomial_solution(material)
    if name == "analytical":
        return analytical_solution(material)
    raise ValueError(f"unknown solution {name!r}")


def seminorm_probe(solution: ExactSolution, s: int,
                   n_graded: int = 360, n_uniform: int = 64) -> float:
    """Quadrature estimate of ||gamma||_{L2} (s = 0) or |gamma|_{H1} (s = 1)
    on a fixed subgrid geometrically graded toward x1 = 0, which resolves the
    boundary layer for any thickness down to ~1e-8."""
    if s not in (0, 1):
        raise ValueError("s must be 0 or 1")
    gl_pts, gl_wts = np.polynomial.legendre.leggauss(3)
    breaks1 = np.concatenate([[0.0], np.geomspace(1e-9, 1.0, n_graded)])
    breaks2 = np.linspace(0.0, 1.0, n_uniform + 1)

    def panel_nodes(breaks):
        lo, hi = breaks[:-1], breaks[1:]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pts = (mid[:, None] + half[:, None] * gl_pts[None, :]).ravel()
        wts = (half[:, None] * gl_wts[None, :]).ravel()
        return pts, wts

    x1, w1 = panel_nodes(breaks1)
    x2, w2 = panel_nodes(breaks2)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    pts = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    wts = (w1[:, None] * w2[None, :]).ravel()
    if s == 0:
        vals = solution.gamma(pts)
        dens = np.sum(vals ** 2, axis=-1)
    else:
        grads = solution.grad_gamma(pts)
        dens = np.sum(grads ** 2, axis=(-2, -1))
    return float(np.sqrt(np.sum(wts * dens)))
