"""Scaled polynomial bases, exact polygon moments and quadrature, stacked by
cell shape.

Cells with the same vertex count run the same arithmetic, so every table
here carries a leading cell axis: an ``ElementContext`` holds all the cells
of one vertex count, and one ``EdgeContext`` holds all the edges. The family
functions broadcast over any leading axes, so a single cell (no cell axis)
works too.

Every element family is polynomial and is stored as coefficients over the
scaled monomials m_alpha = ((x - x_T)/h_T)^alpha in graded lexicographic
order. Their integrals come exactly from one vector per cell, the moments
mu_gamma = int_T m_gamma, which Euler's formula for homogeneous functions
turns into edge integrals (Chin, Lasserre & Sukumar, Comput. Mech. 56, 2015).
The monomial Gram matrix G_ab = mu_{a+b} and fixed coefficient maps
(derivative, rot, product with x - x_T) give every Gram matrix and mass of
the build. The families are L2-orthonormalized through a Cholesky
factorization of their Gram matrices. Because the Cholesky factor is lower
triangular in the graded order, truncating the orthonormal family to dim P^l
yields the orthonormal family of P^l: every degree is nested in the next.
The fan quadrature of a cell serves data only (interpolation, load, error).

Edge bases are the closed-form result of the same construction on a segment:
normalized Legendre polynomials in the reference coordinate s in [-1, 1].

The rotated-gradient convention is rot q = (d_2 q, -d_1 q), i.e. the gradient
rotated by -pi/2; Roly^l(T) = rot P^{l+1}(T) and cRoly^l(T) = (x - x_T) P^{l-1}(T).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import GeometryError, SingularGram
from .mesh import PolygonalMesh, loop_slots

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


def element_quadrature(mesh: PolygonalMesh, ids: np.ndarray,
                       degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Fan sub-triangulation rule of cells ``ids`` with one vertex count:
    one triangle per edge, apex x_T, in loop order. Returns the points
    (n_cells, nq, 2) and weights (n_cells, nq)."""
    n = max(1, (degree + 2) // 2)    # 2n - 1 >= degree
    ref, wref = _reference_triangle_rule(n)
    loops = mesh.vertex_coords[mesh.cell_vertices[loop_slots(mesh.cell_offsets, ids)]]
    apex = mesh.cell_center[ids][:, None, :]
    e1 = loops - apex                                 # (n_cells, nv, 2)
    e2 = np.roll(loops, -1, axis=1) - apex
    det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    bad = (det <= 0).any(axis=1)
    if bad.any():
        raise GeometryError(f"{failing_cell(bad, ids)}fan triangle with non-positive area")
    pts = apex[:, :, None, :] + (ref[:, 0, None] * e1[:, :, None, :]
                                 + ref[:, 1, None] * e2[:, :, None, :])
    return pts.reshape(len(ids), -1, 2), (wref * det[:, :, None]).reshape(len(ids), -1)


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


def _monomial_index(a, b):
    """Position of m_(a, b) in the graded order."""
    return (a + b) * (a + b + 1) // 2 + b


def monomial_table(u: np.ndarray, l: int) -> np.ndarray:
    """Monomials u^alpha, |alpha| <= l, at points u (..., 2): (..., dim_P(l)),
    each degree from the one below."""
    # built monomial-major, so that every product runs over contiguous points
    out = np.empty((dim_P(l),) + u.shape[:-1])
    out[:1] = 1.0
    u1, u2 = np.ascontiguousarray(u[..., 0]), np.ascontiguousarray(u[..., 1])
    for d in range(1, l + 1):
        lo, hi = dim_P(d - 2), dim_P(d - 1)
        out[hi:hi + d] = out[lo:hi] * u1
        out[hi + d] = out[hi - 1] * u2
    return np.moveaxis(out, 0, -1)


def scaled_monomials(x: np.ndarray, center, h, l: int) -> np.ndarray:
    """m_alpha, |alpha| <= l, at points x (..., m, 2) of cells with centres
    (..., 2) and diameters (...): (..., m, dim_P(l))."""
    center, h = np.asarray(center, dtype=float), np.asarray(h, dtype=float)
    return monomial_table((x - center[..., None, :]) / h[..., None, None], l)


@lru_cache(maxsize=16)
def derivative_map(l: int) -> np.ndarray:
    """h_T d_a m_alpha = alpha_a m_{alpha - e_a} on coefficient rows:
    (2, dim_P(l), dim_P(l - 1))."""
    out = np.zeros((2, dim_P(l), dim_P(l - 1)))
    for i, (a, b) in enumerate(monomial_exponents(l)):
        if a:
            out[0, i, _monomial_index(a - 1, b)] = a
        if b:
            out[1, i, _monomial_index(a, b - 1)] = b
    out.setflags(write=False)
    return out


def polygon_moments(loops: np.ndarray, center: np.ndarray, h: np.ndarray,
                    degree: int) -> np.ndarray:
    """Moments mu_gamma = int_T m_gamma, |gamma| <= degree, of counterclockwise
    polygons ``loops`` (n_cells, nv, 2) with centres (n_cells, 2) and
    diameters (n_cells,): (n_cells, dim_P(degree)).

    m_gamma is homogeneous of degree |gamma| about x_T, so
        mu_gamma = 1/(|gamma| + 2) sum_E ((a_E - x_T) . n_E) int_E m_gamma ds
    for any point a_E of E and outward unit normal n_E; each edge integral is
    a Gauss-Legendre rule exact to ``degree``. No star centre is needed."""
    n_cells = loops.shape[0]
    u = (loops - center[:, None, :]) / h[:, None, None]
    v = np.roll(u, -1, axis=1)
    # (a_E - x_T) . n_E |E| = h^2 (u_a x u_b)
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    s, w = roots_legendre(degree // 2 + 1)
    pts = (0.5 * (1.0 - s)[:, None] * u[:, :, None, :]
           + 0.5 * (1.0 + s)[:, None] * v[:, :, None, :])
    weights = (0.5 * h * h)[:, None, None] * cross[:, :, None] * w
    table = monomial_table(pts.reshape(n_cells, -1, 2), degree)
    mu = (weights.reshape(n_cells, 1, -1) @ table)[:, 0]
    return mu / (2.0 + monomial_exponents(degree).sum(axis=1))


@lru_cache(maxsize=16)
def _sum_index(l: int) -> np.ndarray:
    e = monomial_exponents(l)
    return _monomial_index(e[:, None, 0] + e[None, :, 0], e[:, None, 1] + e[None, :, 1])


def monomial_gram(mu: np.ndarray, l: int) -> np.ndarray:
    """G_ab = int_T m_a m_b = mu_{a+b}, |a|, |b| <= l, from moments up to
    degree 2l: (..., dim_P(l), dim_P(l))."""
    return np.take(mu, _sum_index(l), axis=-1)


@dataclass(frozen=True)
class PolyFamily:
    """Polynomials as coefficients over the scaled monomials about ``center``
    (..., 2) with scale ``h`` (...): ``coef`` is (..., n, N) for a scalar
    family and component-major (..., 2, n, N) for a vector one."""
    center: np.ndarray
    h: np.ndarray
    coef: np.ndarray
    vector: bool = False

    @property
    def n(self) -> int:
        return self.coef.shape[-2]

    def head(self, n: int, l: int) -> "PolyFamily":
        """The first n members on the monomials of degree <= l (their own
        degree, for a family nested by degree)."""
        return replace(self, coef=self.coef[..., :n, :dim_P(l)])

    def values(self, mono: np.ndarray) -> np.ndarray:
        """Values from a monomial table (..., m, >= N) at m points:
        (..., m, n), or (..., m, n, 2) for a vector family."""
        coef = np.swapaxes(self.coef, -1, -2)
        mono = mono[..., :coef.shape[-2]]
        if not self.vector:
            return mono @ coef
        return np.moveaxis(mono[..., None, :, :] @ coef, -3, -1)


def scalar_family(center, h, gram: np.ndarray, ids=None) -> PolyFamily:
    """Orthonormal scaled-monomial family of P^l, nested by degree, from the
    monomial Gram matrix over P^l."""
    return PolyFamily(np.asarray(center), np.asarray(h), gram_orthonormalize(gram, ids))


def vector_family(center, h, raw: np.ndarray, gram: np.ndarray, ids=None) -> PolyFamily:
    """Orthonormalization, in the order given, of the vector polynomials with
    component-major monomial coefficients ``raw`` (..., 2, n, N), from a
    monomial Gram matrix over at least P^{deg raw}."""
    g = gram[..., None, :raw.shape[-1], :raw.shape[-1]]
    own = (raw @ g @ np.swapaxes(raw, -1, -2)).sum(axis=-3)
    return PolyFamily(np.asarray(center), np.asarray(h),
                      gram_orthonormalize(own, ids)[..., None, :, :] @ raw, vector=True)


def roly_family(center, h, l: int, gram: np.ndarray, ids=None) -> PolyFamily:
    """Roly^l(T) = rot P^{l+1}(T); members are rot of scaled monomials of
    degree 1..l+1."""
    d = derivative_map(l + 1)[:, 1:]
    raw = np.stack([d[1], -d[0]]) / np.asarray(h)[..., None, None, None]
    return vector_family(center, h, raw, gram, ids)


def croly_family(center, h, l: int, gram: np.ndarray, ids=None) -> PolyFamily:
    """cRoly^l(T) = (x - x_T) P^{l-1}(T), nested by degree of the scalar
    factor: (x - x_T) m_alpha = h_T (m_{alpha+e_1}, m_{alpha+e_2})."""
    shift = np.swapaxes(derivative_map(l) != 0, -1, -2)
    return vector_family(center, h, np.asarray(h)[..., None, None, None] * shift, gram, ids)


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
    """Quadrature and bases of every edge of a mesh, stacked by edge id; the
    edge geometry itself is read from the mesh arrays."""
    family: EdgeFamily
    s: np.ndarray          # (nq,) reference quad coordinates
    points: np.ndarray     # (n_edges, nq, 2) physical quad points
    weights: np.ndarray    # (n_edges, nq) arc-length quad weights
    psi: np.ndarray        # (n_edges, nq, ndeg) family values at quad points
    dmat: np.ndarray       # (n_edges, ndeg, ndeg) derivative representation
    trace: np.ndarray      # (n_edges, ndeg, ndeg): [moments(k), v_a, v_b] -> coefficients


def build_edge_context(mesh: PolygonalMesh, k: int, quad_degree: int) -> EdgeContext:
    """Gauss-Legendre rule (exact to ``quad_degree``) and the P^{k+1} trace
    family of every edge of ``mesh``."""
    ndeg = k + 2                      # trace space P^{k+1}(E)
    fam = EdgeFamily(mesh.edge_length, ndeg)
    s, w = roots_legendre(max(1, -(-(quad_degree + 1) // 2)))   # ceil((d+1)/2)
    ends = mesh.vertex_coords[mesh.edge_vertices]
    mid = 0.5 * (ends[:, 0] + ends[:, 1])
    half = 0.5 * mesh.edge_length[:, None]
    pts = mid[:, None, :] + (half * s)[:, :, None] * mesh.edge_tangent[:, None, :]
    # trace recovery: coefficients 0..k-1 equal the moment DOFs; the last two
    # coefficients solve the 2x2 endpoint system
    end_vals = fam.end_values()
    tr = np.zeros((mesh.n_edges, ndeg, ndeg))
    tr[:, :k, :k] = np.eye(k)
    tail = np.linalg.solve(end_vals[..., k:], np.eye(2))
    tr[:, k:, k:] = tail
    tr[:, k:, :k] = -tail @ end_vals[..., :k]
    return EdgeContext(fam, s, pts, half * w, fam.eval_s(s), fam.deriv_matrix(), tr)


class ElementContext:
    """Moments, orthonormal bases at degree k and data quadrature of the cells
    of one vertex count, stacked along a leading cell axis in cell-id order.

    Local edge j of a cell joins its loop vertices j and j+1; the per-edge
    tables carry a second axis over j. The families are coefficient stacks
    over the scaled monomials (``scal`` on P^{k+1}, ``roly`` on Roly^{k-1},
    ``croly`` on cRoly^{k+2}), and ``gram`` is the monomial Gram matrix over
    P^{k+2} from which the build takes every element integral. The fan rule
    and the values at its points (``phi`` of P^{k+1}, ``roly_vals``,
    ``croly_vals`` of cRoly^k) serve the data terms only.
    """

    def __init__(self, mesh: PolygonalMesh, ids: np.ndarray, k: int,
                 edge_ctx: EdgeContext, quad_boost: int = 0):
        self.mesh = mesh
        self.k = k
        self.edge_ctx = edge_ctx
        self.ids = ids = np.asarray(ids)
        slots = loop_slots(mesh.cell_offsets, ids)
        self.n_vertices = nv = slots.shape[1]
        self.vertices = mesh.cell_vertices[slots]
        self.edge_ids = mesh.cell_edges[slots]
        self.omega = mesh.cell_orientations[slots].astype(float)
        self.diameter = h = mesh.cell_diameter[ids]
        self.center = center = mesh.cell_center[ids]
        # outward normal, frame and length of every local edge: (n_cells, nv, ...)
        self.tangent = mesh.edge_tangent[self.edge_ids]
        self.normal = mesh.edge_normal[self.edge_ids]
        self.n_out = self.omega[..., None] * self.normal
        self.length = mesh.edge_length[self.edge_ids]
        # loop positions of each edge's lower and upper vertex (a, b): omega = +1
        # when the loop runs from a to b
        j = np.arange(nv)
        fwd = self.omega > 0
        self.local_vertices = np.stack([np.where(fwd, j, (j + 1) % nv),
                                        np.where(fwd, (j + 1) % nv, j)], axis=-1)

        self.qpoints, self.qweights = element_quadrature(mesh, ids, 2 * k + 6 + quad_boost)
        mu = polygon_moments(mesh.vertex_coords[self.vertices], center, h, 2 * k + 4)
        self.gram = monomial_gram(mu, k + 2)
        np_k1 = dim_P(k + 1)
        self.scal = scalar_family(center, h, self.gram[:, :np_k1, :np_k1], self.ids)
        self.roly = roly_family(center, h, k - 1, self.gram, self.ids)
        self.croly = croly_family(center, h, k + 2, self.gram, self.ids)
        # P^{k+1} and cRoly^k are the most that the data terms read
        mono = scaled_monomials(self.qpoints, center, h, k + 1)
        self.phi = self.scal.values(mono)
        self.roly_vals = self.roly.values(mono)
        self.croly_vals = self.croly.head(dim_croly(k), k).values(mono)

    @property
    def n_cells(self) -> int:
        return len(self.ids)
