"""Scaled polynomial bases and quadrature on polygons.

Element bases are scaled monomials ((x - x_T)/h_T)^alpha in graded
lexicographic order, L2-orthonormalized through a Cholesky factorization of
the quadrature Gram matrix. Because the Cholesky factor is lower triangular
in the graded order, truncating the orthonormal family to dim P^l yields the
orthonormal family of P^l: every degree is nested in the next.

Edge bases are the closed-form result of the same construction on a segment:
normalized Legendre polynomials in the reference coordinate s in [-1, 1].

The rotated-gradient convention is rot q = (d_2 q, -d_1 q), i.e. the gradient
rotated by -pi/2; Roly^l(T) = rot P^{l+1}(T) and cRoly^l(T) = (x - x_T) P^{l-1}(T).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import roots_jacobi, roots_legendre

from .errors import GeometryError, SingularGram
from .mesh import Edge, Element, PolygonalMesh

_RANK_TOL = 1e-12


def dim_P(l: int) -> int:
    """Dimension of P^l on a two-dimensional cell (0 for l < 0)."""
    return (l + 1) * (l + 2) // 2 if l >= 0 else 0


def dim_roly(l: int) -> int:
    return dim_P(l + 1) - 1 if l >= 0 else 0


def dim_croly(l: int) -> int:
    return dim_P(l - 1)


def monomial_exponents(l: int) -> np.ndarray:
    """Exponent pairs of the scaled monomials up to degree l, graded order."""
    return np.array([(d - i, i) for d in range(l + 1) for i in range(d + 1)],
                    dtype=int).reshape(-1, 2)


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)


@lru_cache(maxsize=64)
def _reference_triangle_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Conical product rule on the triangle (0,0),(1,0),(0,1), exact for total
    degree <= 2n - 1."""
    uj, wj = roots_jacobi(n, 1.0, 0.0)     # weight (1 - u) on [-1, 1]
    xg, wg = roots_legendre(n)
    x = 0.5 * (uj + 1.0)
    wx = 0.25 * wj
    s = 0.5 * (xg + 1.0)
    ws = 0.5 * wg
    X, S = np.meshgrid(x, s, indexing="ij")
    WX, WS = np.meshgrid(wx, ws, indexing="ij")
    pts = np.stack([X.ravel(), ((1.0 - X) * S).ravel()], axis=1)
    return pts, (WX * WS).ravel()


def triangle_rule(p0, p1, p2, degree: int) -> tuple[np.ndarray, np.ndarray]:
    n = max(1, (degree + 2) // 2)    # 2n - 1 >= degree
    ref, wref = _reference_triangle_rule(n)
    p0, p1, p2 = map(np.asarray, (p0, p1, p2))
    jac = np.column_stack([p1 - p0, p2 - p0])
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if det <= 0:
        raise GeometryError("fan triangle with non-positive area")
    pts = p0[None, :] + ref @ jac.T
    return pts, wref * det


def element_quadrature(mesh: PolygonalMesh, element: Element, degree: int) -> QuadratureRule:
    """Fan sub-triangulation rule: one triangle per edge, apex x_T."""
    loop = mesh.element_vertex_coords(element)
    pts, wts = [], []
    for j in range(len(loop)):
        p, w = triangle_rule(element.center, loop[j], loop[(j + 1) % len(loop)], degree)
        pts.append(p)
        wts.append(w)
    return QuadratureRule(np.vstack(pts), np.concatenate(wts))


def edge_reference_rule(edge: Edge, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule in the reference coordinate s in [-1, 1]; weights
    carry the arc-length factor h_E/2."""
    n = max(1, -(-(degree + 1) // 2))    # ceil((d+1)/2)
    s, w = roots_legendre(n)
    return s, 0.5 * edge.length * w


# ---------------------------------------------------------------------------
# orthonormalization


def gram_orthonormalize(gram: np.ndarray) -> np.ndarray:
    """Coefficient matrix A such that psi = A @ raw is L2-orthonormal.

    Raises SingularGram when the (diagonally scaled) Gram matrix is not
    numerically positive definite at relative pivot tolerance 1e-12.
    """
    n = gram.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    g = 0.5 * (gram + gram.T)
    d = np.sqrt(np.diag(g))
    if np.any(~np.isfinite(d)) or np.any(d <= 0):
        raise SingularGram("basis member with vanishing norm")
    gs = g / np.outer(d, d)
    try:
        low = np.linalg.cholesky(gs)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"Gram matrix not positive definite: {exc}") from exc
    piv = np.diag(low)
    if piv.min() < _RANK_TOL * piv.max():
        raise SingularGram("basis numerically rank deficient")
    inv = solve_triangular(low, np.eye(n), lower=True)
    return inv / d[None, :]


class ScalarFamily:
    """Orthonormal scaled-monomial family on one element, nested by degree."""

    def __init__(self, center: np.ndarray, h: float, lmax: int,
                 qpoints: np.ndarray, qweights: np.ndarray):
        self.center = np.asarray(center, dtype=float)
        self.h = float(h)
        self.lmax = lmax
        self.exps = monomial_exponents(lmax)
        raw = self._raw(qpoints)
        gram = (raw * qweights[:, None]).T @ raw
        self.transform = gram_orthonormalize(gram)

    def dim(self) -> int:
        return dim_P(self.lmax)

    def _powers(self, u: np.ndarray) -> np.ndarray:
        out = np.empty((u.shape[0], self.lmax + 1))
        out[:, 0] = 1.0
        for p in range(1, self.lmax + 1):
            out[:, p] = out[:, p - 1] * u
        return out

    def _tables(self, x: np.ndarray):
        u = (np.atleast_2d(x) - self.center[None, :]) / self.h
        return self._powers(u[:, 0]), self._powers(u[:, 1])

    def _raw(self, x: np.ndarray) -> np.ndarray:
        p1, p2 = self._tables(x)
        ax, ay = self.exps[:, 0], self.exps[:, 1]
        return p1[:, ax] * p2[:, ay]

    def _raw_grad(self, x: np.ndarray) -> np.ndarray:
        p1, p2 = self._tables(x)
        ax, ay = self.exps[:, 0], self.exps[:, 1]
        gx = (ax / self.h) * p1[:, np.maximum(ax - 1, 0)] * p2[:, ay]
        gy = (ay / self.h) * p1[:, ax] * p2[:, np.maximum(ay - 1, 0)]
        return np.stack([gx, gy], axis=-1)

    def eval(self, x: np.ndarray) -> np.ndarray:
        return self._raw(x) @ self.transform.T

    def eval_grad(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("qmc,nm->qnc", self._raw_grad(x), self.transform)


class VectorSubspaceFamily:
    """Orthonormalized family of an explicit vector-polynomial subspace."""

    def __init__(self, raw_eval, n_raw: int, qpoints: np.ndarray, qweights: np.ndarray):
        self._raw_eval = raw_eval
        self.n = n_raw
        if n_raw:
            raw = raw_eval(qpoints)
            gram = np.einsum("qic,q,qjc->ij", raw, qweights, raw)
            self.transform = gram_orthonormalize(gram)
        else:
            self.transform = np.zeros((0, 0))

    def eval(self, x: np.ndarray) -> np.ndarray:
        if self.n == 0:
            return np.zeros((np.atleast_2d(x).shape[0], 0, 2))
        return np.einsum("qic,ni->qnc", self._raw_eval(x), self.transform)


def roly_family(scal: ScalarFamily, l: int, qpoints, qweights) -> VectorSubspaceFamily:
    """Roly^l(T) = rot P^{l+1}(T); members are rot of scaled monomials of
    degree 1..l+1."""
    n = dim_roly(l)

    def raw(x):
        g = scal._raw_grad(x)[:, 1:dim_P(l + 1), :]
        return np.stack([g[..., 1], -g[..., 0]], axis=-1)

    return VectorSubspaceFamily(raw, n, qpoints, qweights)


class CRolyFamily(VectorSubspaceFamily):
    """cRoly^l(T) = (x - x_T) P^{l-1}(T), nested by degree of the scalar factor."""

    def __init__(self, scal: ScalarFamily, l: int, qpoints, qweights):
        self.scal = scal
        n = dim_croly(l)

        def raw(x):
            m = scal._raw(x)[:, :n]
            return (np.atleast_2d(x) - scal.center[None, :])[:, None, :] * m[:, :, None]

        super().__init__(raw, n, qpoints, qweights)

    def eval_div(self, x: np.ndarray) -> np.ndarray:
        """div((x - x_T) m) = 2 m + (x - x_T) . grad m."""
        if self.n == 0:
            return np.zeros((np.atleast_2d(x).shape[0], 0))
        vals = self.scal._raw(x)[:, :self.n]
        grads = self.scal._raw_grad(x)[:, :self.n, :]
        rel = np.atleast_2d(x) - self.scal.center[None, :]
        raw_div = 2.0 * vals + np.einsum("qc,qnc->qn", rel, grads)
        return raw_div @ self.transform.T


# ---------------------------------------------------------------------------
# edge family (normalized Legendre)


class EdgeFamily:
    """Orthonormal polynomial family on an edge: psi_j(s) = sqrt((2j+1)/h_E) P_j(s)."""

    def __init__(self, edge: Edge, ndeg: int):
        self.edge = edge
        self.ndeg = ndeg               # members 0..ndeg-1, i.e. P^{ndeg-1}(E)
        self.scale = np.sqrt((2 * np.arange(ndeg) + 1) / edge.length)

    def eval_s(self, s: np.ndarray) -> np.ndarray:
        v = np.polynomial.legendre.legvander(np.asarray(s, dtype=float), self.ndeg - 1)
        return v * self.scale[None, :]

    def end_values(self) -> np.ndarray:
        """psi at s = -1 (lower vertex) and s = +1 (upper vertex)."""
        return self.eval_s(np.array([-1.0, 1.0]))

    def deriv_matrix(self) -> np.ndarray:
        """D with d psi_j / dl = sum_i D[i, j] psi_i (arc-length derivative)."""
        n = self.ndeg
        d = np.zeros((n, n))
        for j in range(n):
            for i in range(j):
                if (i + j) % 2 == 1:
                    d[i, j] = 2.0 / self.edge.length * np.sqrt((2 * i + 1) * (2 * j + 1))
        return d


# ---------------------------------------------------------------------------
# per-entity contexts


@dataclass
class EdgeContext:
    edge: Edge
    family: EdgeFamily
    s: np.ndarray          # reference quad coordinates
    points: np.ndarray     # physical quad points
    weights: np.ndarray    # arc-length quad weights
    psi: np.ndarray        # (nq, ndeg) family values at quad points
    dmat: np.ndarray       # derivative representation
    trace: np.ndarray      # (ndeg, ndeg): [moments(k), v_a, v_b] -> coefficients


def build_edge_context(mesh: PolygonalMesh, edge: Edge, k: int, quad_degree: int) -> EdgeContext:
    ndeg = k + 2                      # trace space P^{k+1}(E)
    fam = EdgeFamily(edge, ndeg)
    s, w = edge_reference_rule(edge, quad_degree)
    mid = mesh.edge_midpoint(edge)
    pts = mid[None, :] + 0.5 * edge.length * s[:, None] * edge.tangent[None, :]
    psi = fam.eval_s(s)
    ends = fam.end_values()
    # trace recovery: coefficients 0..k-1 equal the moment DOFs; the last two
    # coefficients solve the 2x2 endpoint system
    tr = np.zeros((ndeg, ndeg))
    tr[:k, :k] = np.eye(k)
    tail = np.linalg.solve(ends[:, k:], np.eye(2))
    tr[k:, k:] = tail
    tr[k:, :k] = -tail @ ends[:, :k]
    return EdgeContext(edge, fam, s, pts, w, psi, fam.deriv_matrix(), tr)


@dataclass
class LocalEdgeData:
    """Values on one edge of an element, seen from that element."""
    ctx: EdgeContext
    omega: int
    n_out: np.ndarray        # outward normal omega * n_E
    local_vertices: tuple[int, int]   # positions of edge (a, b) in the cell loop


class ElementContext:
    """Quadrature and all orthonormal bases one element needs at degree k."""

    def __init__(self, mesh: PolygonalMesh, element: Element, k: int,
                 edge_contexts: list[EdgeContext], quad_boost: int = 0):
        self.mesh = mesh
        self.element = element
        self.k = k
        rule = element_quadrature(mesh, element, 2 * k + 6 + quad_boost)
        self.qpoints, self.qweights = rule.points, rule.weights
        self.scal = ScalarFamily(element.center, element.diameter, k + 2,
                                 self.qpoints, self.qweights)
        self.phi = self.scal.eval(self.qpoints)
        self.roly = roly_family(self.scal, k - 1, self.qpoints, self.qweights)
        self.roly_vals = self.roly.eval(self.qpoints)
        self.croly = CRolyFamily(self.scal, k + 2, self.qpoints, self.qweights)
        self.croly_vals = self.croly.eval(self.qpoints)

        loop = element.vertices
        self.edges: list[LocalEdgeData] = []
        for j, (eid, om) in enumerate(zip(element.edges, element.orientations)):
            ctx = edge_contexts[eid]
            a, b = ctx.edge.vertices
            self.edges.append(LocalEdgeData(
                ctx=ctx,
                omega=om,
                n_out=om * ctx.edge.normal,
                local_vertices=(loop.index(a), loop.index(b)),
            ))

    def integrate(self, vals: np.ndarray) -> np.ndarray:
        """Integrate quad-point values (first axis) over the element."""
        return np.tensordot(self.qweights, vals, axes=(0, 0))
