"""Scaled polynomial bases and quadrature on polygons, stacked by cell shape.

Cells with the same vertex count run the same arithmetic, so every table
here carries a leading cell axis: an ``ElementContext`` holds all the cells
of one vertex count, and one ``EdgeContext`` holds all the edges. The family
classes broadcast over any leading axes, so a single cell (no cell axis)
works too.

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


def failing_cell(bad: np.ndarray, ids) -> str:
    """Error-message prefix naming the first cell of a stack flagged in ``bad``."""
    if ids is None or np.ndim(bad) == 0:
        return ""
    return f"element {int(np.asarray(ids)[np.flatnonzero(bad)[0]])}: "


def mass(weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integrals of a_i b_j from quadrature values: ``a`` (..., nq, *A) and
    ``b`` (..., nq, *B) give (..., prod A, prod B)."""
    lead = weights.shape
    wa = (a * weights.reshape(lead + (1,) * (a.ndim - len(lead)))).reshape(lead + (-1,))
    return np.swapaxes(wa, -1, -2) @ b.reshape(lead + (-1,))


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (n_cells, nq, 2)
    weights: np.ndarray  # (n_cells, nq)


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


def element_quadrature(mesh: PolygonalMesh, elements: list[Element],
                       degree: int) -> QuadratureRule:
    """Fan sub-triangulation rule of cells with one vertex count: one
    triangle per edge, apex x_T, in loop order."""
    n = max(1, (degree + 2) // 2)    # 2n - 1 >= degree
    ref, wref = _reference_triangle_rule(n)
    loops = mesh.vertex_coords[np.array([el.vertices for el in elements])]
    apex = np.array([el.center for el in elements])[:, None, :]
    e1 = loops - apex                                 # (n_cells, nv, 2)
    e2 = np.roll(loops, -1, axis=1) - apex
    det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    bad = (det <= 0).any(axis=1)
    if bad.any():
        raise GeometryError(f"{failing_cell(bad, [el.id for el in elements])}"
                            "fan triangle with non-positive area")
    pts = apex[:, :, None, :] + (ref[:, 0, None] * e1[:, :, None, :]
                                 + ref[:, 1, None] * e2[:, :, None, :])
    n_cells = len(elements)
    return QuadratureRule(pts.reshape(n_cells, -1, 2),
                          (wref * det[:, :, None]).reshape(n_cells, -1))


# ---------------------------------------------------------------------------
# orthonormalization


def gram_orthonormalize(gram: np.ndarray, ids=None) -> np.ndarray:
    """Coefficient matrices A such that psi = A @ raw is L2-orthonormal, for
    a Gram matrix or a stack of them (``ids`` names the stacked cells).

    Raises SingularGram when a (diagonally scaled) Gram matrix is not
    numerically positive definite at relative pivot tolerance 1e-12.
    """
    n = gram.shape[-1]
    if n == 0:
        return np.zeros(gram.shape)
    g = 0.5 * (gram + np.swapaxes(gram, -1, -2))
    d = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1))
    bad = (~np.isfinite(d) | (d <= 0)).any(axis=-1)
    if bad.any():
        raise SingularGram(f"{failing_cell(bad, ids)}basis member with vanishing norm")
    gs = g / (d[..., :, None] * d[..., None, :])
    try:
        low = np.linalg.cholesky(gs)
    except np.linalg.LinAlgError as exc:
        low_eig = np.linalg.eigvalsh(gs)[..., 0]
        bad = low_eig == low_eig.min()
        raise SingularGram(
            f"{failing_cell(bad, ids)}Gram matrix not positive definite: {exc}") from exc
    piv = np.diagonal(low, axis1=-2, axis2=-1)
    bad = piv.min(axis=-1) < _RANK_TOL * piv.max(axis=-1)
    if bad.any():
        raise SingularGram(f"{failing_cell(bad, ids)}basis numerically rank deficient")
    inv = np.linalg.solve(low, np.broadcast_to(np.eye(n), low.shape))
    return inv / d[..., None, :]


class ScalarFamily:
    """Orthonormal scaled-monomial families, nested by degree; ``center``
    (..., 2) and ``h`` (...) give one family per leading index."""

    def __init__(self, center: np.ndarray, h, lmax: int,
                 qpoints: np.ndarray, qweights: np.ndarray, ids=None):
        self.center = np.asarray(center, dtype=float)
        self.h = np.asarray(h, dtype=float)
        self.lmax = lmax
        self.exps = monomial_exponents(lmax)
        raw = self._raw(qpoints)
        self.transform = gram_orthonormalize(mass(qweights, raw, raw), ids)

    def dim(self) -> int:
        return dim_P(self.lmax)

    def _tables(self, x: np.ndarray):
        """Powers 0..lmax of both scaled coordinates at points x (..., m, 2)."""
        u = (x - self.center[..., None, :]) / self.h[..., None, None]
        out = np.empty(u.shape + (self.lmax + 1,))
        out[..., 0] = 1.0
        for p in range(1, self.lmax + 1):
            out[..., p] = out[..., p - 1] * u
        return out[..., 0, :], out[..., 1, :]

    def _raw(self, x: np.ndarray) -> np.ndarray:
        p1, p2 = self._tables(x)
        ax, ay = self.exps[:, 0], self.exps[:, 1]
        return p1[..., ax] * p2[..., ay]

    def _raw_grad(self, x: np.ndarray) -> np.ndarray:
        p1, p2 = self._tables(x)
        ax, ay = self.exps[:, 0], self.exps[:, 1]
        h = self.h[..., None, None]
        gx = (ax / h) * p1[..., np.maximum(ax - 1, 0)] * p2[..., ay]
        gy = (ay / h) * p1[..., ax] * p2[..., np.maximum(ay - 1, 0)]
        return np.stack([gx, gy], axis=-1)

    def eval(self, x: np.ndarray) -> np.ndarray:
        return self._raw(x) @ np.swapaxes(self.transform, -1, -2)

    def eval_grad(self, x: np.ndarray) -> np.ndarray:
        g = np.swapaxes(self._raw_grad(x), -1, -2) @ np.swapaxes(
            self.transform, -1, -2)[..., None, :, :]
        return np.swapaxes(g, -1, -2)


class VectorSubspaceFamily:
    """Orthonormalized family of an explicit vector-polynomial subspace."""

    def __init__(self, raw_eval, n_raw: int, qpoints: np.ndarray,
                 qweights: np.ndarray, ids=None):
        self._raw_eval = raw_eval
        self.n = n_raw
        lead = qweights.shape[:-1]
        if n_raw:
            # components as extra quadrature points: (..., 2 nq, n)
            raw = np.swapaxes(raw_eval(qpoints), -1, -2).reshape(lead + (-1, n_raw))
            gram = mass(np.repeat(qweights, 2, axis=-1), raw, raw)
            self.transform = gram_orthonormalize(gram, ids)
        else:
            self.transform = np.zeros(lead + (0, 0))

    def eval(self, x: np.ndarray) -> np.ndarray:
        if self.n == 0:
            return np.zeros(x.shape[:-1] + (0, 2))
        return self.transform[..., None, :, :] @ self._raw_eval(x)


def roly_family(scal: ScalarFamily, l: int, qpoints, qweights,
                ids=None) -> VectorSubspaceFamily:
    """Roly^l(T) = rot P^{l+1}(T); members are rot of scaled monomials of
    degree 1..l+1."""
    n = dim_roly(l)

    def raw(x):
        g = scal._raw_grad(x)[..., 1:dim_P(l + 1), :]
        return np.stack([g[..., 1], -g[..., 0]], axis=-1)

    return VectorSubspaceFamily(raw, n, qpoints, qweights, ids)


class CRolyFamily(VectorSubspaceFamily):
    """cRoly^l(T) = (x - x_T) P^{l-1}(T), nested by degree of the scalar factor."""

    def __init__(self, scal: ScalarFamily, l: int, qpoints, qweights, ids=None):
        self.scal = scal
        n = dim_croly(l)

        def raw(x):
            m = scal._raw(x)[..., :n]
            return self._rel(x)[..., None, :] * m[..., None]

        super().__init__(raw, n, qpoints, qweights, ids)

    def _rel(self, x: np.ndarray) -> np.ndarray:
        return x - self.scal.center[..., None, :]

    def eval_div(self, x: np.ndarray) -> np.ndarray:
        """div((x - x_T) m) = 2 m + (x - x_T) . grad m."""
        if self.n == 0:
            return np.zeros(x.shape[:-1] + (0,))
        vals = self.scal._raw(x)[..., :self.n]
        grads = self.scal._raw_grad(x)[..., :self.n, :]
        raw_div = 2.0 * vals + (grads @ self._rel(x)[..., None])[..., 0]
        return raw_div @ np.swapaxes(self.transform, -1, -2)


# ---------------------------------------------------------------------------
# edge family (normalized Legendre)


class EdgeFamily:
    """Orthonormal polynomial families on edges of lengths ``length`` (...):
    psi_j(s) = sqrt((2j+1)/h_E) P_j(s)."""

    def __init__(self, length, ndeg: int):
        self.length = np.asarray(length, dtype=float)
        self.ndeg = ndeg               # members 0..ndeg-1, i.e. P^{ndeg-1}(E)
        self.scale = np.sqrt((2 * np.arange(ndeg) + 1) / self.length[..., None])

    def eval_s(self, s: np.ndarray) -> np.ndarray:
        v = np.polynomial.legendre.legvander(np.asarray(s, dtype=float), self.ndeg - 1)
        return v * self.scale[..., None, :]

    def end_values(self) -> np.ndarray:
        """psi at s = -1 (lower vertex) and s = +1 (upper vertex)."""
        return self.eval_s(np.array([-1.0, 1.0]))

    def deriv_matrix(self) -> np.ndarray:
        """D with d psi_j / dl = sum_i D[i, j] psi_i (arc-length derivative)."""
        i, j = np.indices((self.ndeg, self.ndeg))
        ref = np.where((i < j) & ((i + j) % 2 == 1), np.sqrt((2 * i + 1) * (2 * j + 1)), 0.0)
        return (2.0 / self.length[..., None, None]) * ref


# ---------------------------------------------------------------------------
# contexts


@dataclass
class EdgeContext:
    """Quadrature and bases of a set of edges, stacked in the given order."""
    ids: np.ndarray        # (n_edges,) edge ids
    vertices: np.ndarray   # (n_edges, 2) sorted vertex pairs (a, b)
    tangent: np.ndarray    # (n_edges, 2)
    normal: np.ndarray     # (n_edges, 2)
    length: np.ndarray     # (n_edges,)
    family: EdgeFamily
    s: np.ndarray          # (nq,) reference quad coordinates
    points: np.ndarray     # (n_edges, nq, 2) physical quad points
    weights: np.ndarray    # (n_edges, nq) arc-length quad weights
    psi: np.ndarray        # (n_edges, nq, ndeg) family values at quad points
    dmat: np.ndarray       # (n_edges, ndeg, ndeg) derivative representation
    trace: np.ndarray      # (n_edges, ndeg, ndeg): [moments(k), v_a, v_b] -> coefficients


def build_edge_context(mesh: PolygonalMesh, edges: list[Edge], k: int,
                       quad_degree: int) -> EdgeContext:
    """Gauss-Legendre rule (exact to ``quad_degree``) and the P^{k+1} trace
    family of every edge in ``edges``."""
    ndeg = k + 2                      # trace space P^{k+1}(E)
    ids = np.array([e.id for e in edges], dtype=int)
    tangent = np.array([e.tangent for e in edges]).reshape(-1, 2)
    normal = np.array([e.normal for e in edges]).reshape(-1, 2)
    length = np.array([e.length for e in edges], dtype=float)
    fam = EdgeFamily(length, ndeg)
    s, w = roots_legendre(max(1, -(-(quad_degree + 1) // 2)))   # ceil((d+1)/2)
    vertices = np.array([e.vertices for e in edges], dtype=int).reshape(-1, 2)
    ends = mesh.vertex_coords[vertices]
    mid = 0.5 * (ends[:, 0] + ends[:, 1])
    half = 0.5 * length[:, None]
    pts = mid[:, None, :] + (half * s)[:, :, None] * tangent[:, None, :]
    # trace recovery: coefficients 0..k-1 equal the moment DOFs; the last two
    # coefficients solve the 2x2 endpoint system
    end_vals = fam.end_values()
    tr = np.zeros((len(edges), ndeg, ndeg))
    tr[:, :k, :k] = np.eye(k)
    tail = np.linalg.solve(end_vals[..., k:], np.eye(2))
    tr[:, k:, k:] = tail
    tr[:, k:, :k] = -tail @ end_vals[..., :k]
    return EdgeContext(ids, vertices, tangent, normal, length, fam, s, pts, half * w,
                       fam.eval_s(s), fam.deriv_matrix(), tr)


class ElementContext:
    """Quadrature and all orthonormal bases at degree k of the cells of one
    vertex count, stacked along a leading cell axis in cell-id order.

    Local edge j of a cell joins its loop vertices j and j+1; the per-edge
    tables carry a second axis over j. Only the tables that interpolation,
    the load vector and the local build read are kept; the build derives the
    rest on the fly.
    """

    def __init__(self, mesh: PolygonalMesh, elements: list[Element], k: int,
                 edge_ctx: EdgeContext, quad_boost: int = 0):
        self.mesh = mesh
        self.k = k
        self.edge_ctx = edge_ctx
        self.ids = np.array([el.id for el in elements], dtype=int)
        self.n_vertices = nv = len(elements[0].vertices)
        self.vertices = np.array([el.vertices for el in elements], dtype=int)
        self.edge_ids = np.array([el.edges for el in elements], dtype=int)
        self.omega = np.array([el.orientations for el in elements], dtype=float)
        self.diameter = np.array([el.diameter for el in elements])
        center = np.array([el.center for el in elements])
        # outward normal, frame and length of every local edge: (n_cells, nv, ...)
        self.tangent = edge_ctx.tangent[self.edge_ids]
        self.normal = edge_ctx.normal[self.edge_ids]
        self.n_out = self.omega[..., None] * self.normal
        self.length = edge_ctx.length[self.edge_ids]
        # loop positions of each edge's lower and upper vertex (a, b): omega = +1
        # when the loop runs from a to b
        j = np.arange(nv)
        fwd = self.omega > 0
        self.local_vertices = np.stack([np.where(fwd, j, (j + 1) % nv),
                                        np.where(fwd, (j + 1) % nv, j)], axis=-1)

        rule = element_quadrature(mesh, elements, 2 * k + 6 + quad_boost)
        self.qpoints, self.qweights = rule.points, rule.weights
        self.scal = ScalarFamily(center, self.diameter, k + 2,
                                 self.qpoints, self.qweights, self.ids)
        # P^{k+1} and cRoly^k are the most that the build and the later
        # readers take of the two families; of the rest of cRoly^{k+2} the
        # build reads only its moments against vP^k, taken here while the
        # whole family is evaluated
        self.phi = self.scal.eval(self.qpoints)[..., :dim_P(k + 1)].copy()
        self.roly = roly_family(self.scal, k - 1, self.qpoints, self.qweights, self.ids)
        self.roly_vals = self.roly.eval(self.qpoints)
        self.croly = CRolyFamily(self.scal, k + 2, self.qpoints, self.qweights, self.ids)
        croly_vals = self.croly.eval(self.qpoints)
        self.croly_vals = croly_vals[:, :, :dim_croly(k)].copy()
        self.croly_moments = mass(self.qweights, croly_vals, self.phi[:, :, :dim_P(k)]
                                  ).reshape(self.n_cells, self.croly.n, -1)

    @property
    def n_cells(self) -> int:
        return len(self.ids)

    def integrate(self, vals: np.ndarray) -> np.ndarray:
        """Integrate quad-point values (axis 1, after the cell axis) over each cell."""
        flat = vals.reshape(vals.shape[:2] + (-1,))
        return (self.qweights[:, None, :] @ flat).reshape(vals.shape[:1] + vals.shape[2:])

    def at_edges(self, edge_pts: np.ndarray, evaluate) -> np.ndarray:
        """``evaluate`` (a family's eval) at per-edge points (n_cells, nv, nq, 2)."""
        c, nv, nq = edge_pts.shape[:3]
        vals = evaluate(edge_pts.reshape(c, nv * nq, 2))
        return vals.reshape((c, nv, nq) + vals.shape[2:])
