"""Closed-form exact solutions and loads for the plate problem on (0,1)^2.

Both test solutions follow the same gradient construction: pick a potential
v, set the rotation to grad v, and correct the displacement by t^2 * w with
w = -((beta0 + beta1)/kappa) * Lap v. The shear strain is then kappa * grad w
and the load (beta0 + beta1) * Lap^2 v, and the full strong system holds
identically for any shear correction factor. A solve imposes the
interpolated traces of either solution, so its meshes need not tile (0,1)^2.

* polynomial case: v = (1/3) x^3 (x-1)^3 y^3 (y-1)^3, clamped homogeneous
  traces; with kappa0 = 5/6 the displacement correction reduces to the
  classical 2 t^2 / (5 (1 - nu)) form. The shear strain is t-independent.
* boundary-layer case: v = t^3 V(x / t) + g with V(y) = y1 e^{-y1} cos(y2)
  and g = sin(pi x1) sin(pi x2); non-homogeneous traces. Lap^2 V = 0, so the
  load (beta0 + beta1) * Lap^2 g = 4 pi^4 (beta0 + beta1) g does not depend
  on t, while |gamma|_{H^s} grows like t^{1/2 - s} as t -> 0.

Each potential is a sum of separable terms P(x1) Q(x2), and only their
one-dimensional derivative tables up to order four are hand-derived. Every
field is a fixed sum of mixed derivatives d1^a d2^b v = sum P^(a) Q^(b), which
one rule (`_derivative_field`) forms; the test suite cross-checks the fields
against a Richardson-extrapolated finite-difference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import comb
from operator import iadd
from typing import Callable

import numpy as np

from .system import MaterialParams

_EXP_FLOOR = -700.0  # exp underflows to exact zero below this


def _safe_exp(a: np.ndarray) -> np.ndarray:
    return np.where(a < _EXP_FLOOR, 0.0, np.exp(np.maximum(a, _EXP_FLOOR)))


@dataclass
class ExactSolution:
    name: str
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


def _components(j: int, k: int) -> list[tuple]:
    """grad^k Lap^j v by components in row-major order, each a tuple of terms
    (coef, a, b) for coef * d1^a d2^b v: Lap^j expands binomially in
    descending powers of d1, and each gradient index adds one order."""
    lap = [(comb(j, i), 2 * (j - i), 2 * i) for i in range(j + 1)]
    return [tuple((c, a + s.count(0), b + s.count(1)) for c, a, b in lap)
            for s in product((0, 1), repeat=k)]


def _derivative_field(k: int, combo, terms, divisor: float):
    """The evaluator x -> sum of coef * grad^k Lap^j v over (coef, j) in
    ``combo``, for v = (sum of the separable ``terms``) / divisor.

    A term maps x and the derivative orders needed along x1 and along x2 to
    its one-dimensional tables P, Q (indexed by order) and a weight w per
    total order (or None), and adds w[a + b] * P[a] * Q[b] to d1^a d2^b v.
    Only the needed orders are tabulated, each component is formed once per
    call, and each grad^k Lap^j v sums its terms left to right in the order
    above and is divided by ``divisor`` last."""
    fields = [(coef, _components(j, k)) for coef, j in combo]
    used = [(a, b) for _, comps in fields for comp in comps for _, a, b in comp]
    orders = sorted({a for a, _ in used}), sorted({b for _, b in used})

    def evaluate(x):
        tables = [term(x, *orders) for term in terms]

        def mixed(a, b):
            return reduce(iadd, ((P[a] if w is None else w[a + b] * P[a]) * Q[b]
                                 for P, Q, w in tables))

        def field(comps):
            # each distinct component once, freed with the call; every sum
            # and scaling works in place on an array made here
            done = {comp: reduce(iadd, (mixed(a, b) if c == 1 else c * mixed(a, b)
                                        for c, a, b in comp))
                    for comp in dict.fromkeys(comps)}
            if not k:
                return done[comps[0]]
            return np.stack([done[comp] for comp in comps], axis=-1).reshape(
                x.shape[:1] + (2,) * k)

        values = []
        for coef, comps in fields:
            value = field(comps)
            if divisor != 1.0:
                value /= divisor
            if coef != 1.0:
                value *= coef
            values.append(value)
        return reduce(iadd, values)

    return evaluate


def _gradient_form_solution(name: str, material: MaterialParams, terms, load_terms,
                            divisor: float = 1.0) -> ExactSolution:
    """Assemble the evaluators of the gradient construction for the potential
    v = (sum of ``terms``) / divisor. The load reads only ``load_terms``, the
    terms that are not biharmonic, so a biharmonic term adds no round-off."""
    m = material
    b = m.beta0 + m.beta1
    corrected = ((1.0, 0), (-(m.t ** 2 * (b / m.kappa)), 1))   # v - t^2 (b/kappa) Lap v
    fields = [(0, corrected), (1, corrected),                  # u, grad u
              (1, ((1.0, 0),)), (2, ((1.0, 0),)),              # theta, grad theta
              (1, ((-b, 1),)), (2, ((-b, 1),))]                # gamma, grad gamma
    return ExactSolution(name, material,
                         *(_derivative_field(k, combo, terms, divisor) for k, combo in fields),
                         _derivative_field(0, ((b, 2),), load_terms, divisor))


def _p_derivs(x: np.ndarray, orders) -> dict:
    """The derivatives of x^3 (x-1)^3 of the given orders (0 to 4), via
    s = x^2 - x."""
    s = x * x - x
    ds = 2.0 * x - 1.0
    table = {0: lambda: s * s * s,   # s <= 0 on [0, 1]: a power of a negative base is slow
             1: lambda: 3.0 * s * s * ds,
             2: lambda: 6.0 * s * (5.0 * s + 1.0),
             3: lambda: (60.0 * s + 6.0) * ds,
             4: lambda: 360.0 * s + 72.0}
    return {a: table[a]() for a in orders}


def _trig_derivs(z: np.ndarray, orders, phase: int = 0) -> dict:
    """d^a/dz^a sin(z + phase * pi/2) for a in ``orders``: the cycle sin, cos,
    -sin, -cos, with each of sin z and cos z evaluated once if at all."""
    base = {r: (np.sin, np.cos)[r](z) for r in {(a + phase) % 2 for a in orders}}
    return {a: base[(a + phase) % 2] if (a + phase) % 4 < 2 else -base[(a + phase) % 2]
            for a in orders}


def polynomial_solution(material: MaterialParams) -> ExactSolution:
    """Clamped polynomial solution; rotation is the gradient of
    (1/3) x^3 (x-1)^3 y^3 (y-1)^3."""

    def term(x, orders1, orders2):
        return _p_derivs(x[:, 0], orders1), _p_derivs(x[:, 1], orders2), None

    return _gradient_form_solution("polynomial", material, [term], [term], 3.0)


def analytical_solution(material: MaterialParams) -> ExactSolution:
    """Boundary-layer solution with non-homogeneous traces; the load is
    independent of t and the shear strain concentrates near x1 = 0."""
    t = material.t
    # d1^a d2^b [t^3 V(x/t)] = t^(3-a-b) (d^a V)(x/t), the power taken whole:
    # t^3 underflows and t^-b overflows long before their product does
    layer_weights = [t ** (3 - s) for s in range(5)]
    smooth_weights = [np.pi ** s for s in range(5)]

    def layer(x, orders1, orders2):
        # d^a/dy^a (y e^{-y}) = (-1)^a (y - a) e^{-y}, and cos y = sin(y + pi/2)
        y1 = x[:, 0] / t
        e = _safe_exp(-y1)
        P = {a: ((a - y1) if a % 2 else (y1 - a)) * e for a in orders1}
        return P, _trig_derivs(x[:, 1] / t, orders2, phase=1), layer_weights

    def smooth(x, orders1, orders2):
        return (_trig_derivs(np.pi * x[:, 0], orders1),
                _trig_derivs(np.pi * x[:, 1], orders2), smooth_weights)

    # Lap^2 V = 0: the layer stays out of the load
    return _gradient_form_solution("analytical", material, [layer, smooth], [smooth])


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
