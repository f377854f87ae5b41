"""Polygonal meshes: loading, validation, refinement.

Conventions fixed here and relied on everywhere else:

* each edge stores its vertices as the sorted pair (a, b) with a < b, the unit
  tangent t_E pointing from a to b, and the unit normal n_E obtained by
  rotating t_E by -pi/2, i.e. n_E = (t_y, -t_x);
* for an element T and one of its edges E, omega_TE = +1 when the
  counterclockwise traversal of the element boundary runs along +t_E, so that
  omega_TE * n_E is always the outward normal;
* edges are numbered lexicographically by their sorted vertex pair, which
  makes DOF numbering reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import GeometryError, ParseError, TopologyError

_LENGTH_TOL = 1e-14
# largest |coordinate| whose differences still square to a finite number
_COORD_LIMIT = float(np.sqrt(np.finfo(float).max) / 2.0)


@dataclass(frozen=True)
class Edge:
    id: int
    vertices: tuple[int, int]  # sorted pair (a, b), a < b
    tangent: np.ndarray        # unit vector from a to b
    normal: np.ndarray         # tangent rotated by -pi/2
    length: float
    boundary: bool
    elements: tuple[int, ...] = ()


@dataclass(frozen=True)
class Element:
    id: int
    vertices: tuple[int, ...]        # boundary loop, counterclockwise
    edges: tuple[int, ...]           # edges[j] joins vertices[j], vertices[j+1]
    orientations: tuple[int, ...]    # omega_TE per local edge
    diameter: float
    area: float
    center: np.ndarray               # x_T
    inradius_ratio: float            # measured min dist(x_T, edges) / h_T


@dataclass
class PolygonalMesh:
    vertex_coords: np.ndarray        # (n_vertices, 2)
    edges: list[Edge]
    elements: list[Element]
    boundary_edges: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    interior_edges: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    boundary_vertices: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    h: float = 0.0

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_coords)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def edge_endpoints(self, edge: Edge) -> tuple[np.ndarray, np.ndarray]:
        a, b = edge.vertices
        return self.vertex_coords[a], self.vertex_coords[b]

    def edge_midpoint(self, edge: Edge) -> np.ndarray:
        a, b = self.edge_endpoints(edge)
        return 0.5 * (a + b)

    def domain_area(self) -> float:
        return float(sum(el.area for el in self.elements))

    def element_vertex_coords(self, element: Element) -> np.ndarray:
        return self.vertex_coords[list(element.vertices)]


def _polygon_area_center(coords: np.ndarray, ids=None) -> tuple[np.ndarray, np.ndarray]:
    """Signed shoelace areas and centroids of closed polygon loops (..., nv, 2);
    ``ids`` names the stacked loops in errors."""
    x, y = coords[..., 0], coords[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross, axis=-1)
    bad = np.abs(area) < 1e-300
    if np.any(bad):
        where = "" if ids is None else f"cell {ids[np.argmax(bad)]}: "
        raise GeometryError(f"{where}zero-area polygon")
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * area)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * area)
    return area, np.stack([cx, cy], axis=-1)


def _fan_is_positive(coords: np.ndarray, center: np.ndarray, tol: float = 1e-12):
    """Every fan triangle (center, v_i, v_{i+1}) of a ccw loop has positive
    area; loops (..., nv, 2) and centers (..., 2) give one answer each."""
    a = coords - center[..., None, :]
    b = np.roll(coords, -1, axis=-2) - center[..., None, :]
    areas = 0.5 * (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
    scale = np.max(np.abs(coords), axis=(-2, -1)) + 1.0
    return np.all(areas > tol * scale[..., None] ** 2, axis=-1)


def _point_in_polygon(coords: np.ndarray, p: np.ndarray) -> bool:
    x, y = p
    xs, ys = coords[:, 0], coords[:, 1]
    xn, yn = np.roll(xs, -1), np.roll(ys, -1)
    inside = False
    for x0, y0, x1, y1 in zip(xs, ys, xn, yn):
        if (y0 > y) != (y1 > y):
            t = (y - y0) / (y1 - y0)
            if x < x0 + t * (x1 - x0):
                inside = not inside
    return inside


def _min_dist_to_boundary(coords: np.ndarray, p: np.ndarray):
    """Distance from points p (..., 2) to the boundaries of loops (..., nv, 2)."""
    a = coords
    ab = np.roll(coords, -1, axis=-2) - a
    ap = p[..., None, :] - a
    t = np.clip((ap * ab).sum(axis=-1) / (ab * ab).sum(axis=-1), 0.0, 1.0)
    proj = a + t[..., None] * ab
    return np.min(np.linalg.norm(proj - p[..., None, :], axis=-1), axis=-1)


def _sampled_star_center(coords: np.ndarray) -> np.ndarray:
    """For a cell that is not star-shaped w.r.t. its centroid: the best inner
    point found by sampling (largest inscribed-ball center estimate)."""
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    best, best_r = None, -1.0
    n = 24
    for i in range(1, n):
        for j in range(1, n):
            p = lo + np.array([i, j]) / n * (hi - lo)
            if not _point_in_polygon(coords, p):
                continue
            if not _fan_is_positive(coords, p):
                continue
            r = _min_dist_to_boundary(coords, p)
            if r > best_r:
                best, best_r = p, r
    if best is None:
        raise GeometryError("cell is not star-shaped w.r.t. any sampled interior point")
    return best


def cell_groups(loops):
    """Cell ids of each vertex count, by increasing count, with their loops
    as an (n_cells, nv) array."""
    sizes = np.array([len(loop) for loop in loops])
    for nv in np.unique(sizes):
        ids = np.flatnonzero(sizes == nv)
        yield ids, np.array([loops[c] for c in ids], dtype=int)


def _as_index(v, what: str) -> int:
    """A vertex index or count as int; ParseError unless v is a finite
    integer (an integral float such as 3.0 is accepted)."""
    numeric = isinstance(v, (int, float, np.integer, np.floating))
    if isinstance(v, (bool, np.bool_)) or not numeric or not float(v).is_integer():
        raise ParseError(f"{what} {v!r} is not an integer")
    return int(v)


def build_mesh(vertex_coords: np.ndarray, cell_loops: list[list[int]]) -> PolygonalMesh:
    """Assemble a validated mesh from vertex coordinates and ccw cell loops.

    Edges are derived from consecutive loop pairs, deduplicated by sorted
    vertex pair and numbered lexicographically.
    """
    coords = np.asarray(vertex_coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ParseError("vertices must be an (n, 2) array")
    if not np.all(np.isfinite(coords)):
        raise ParseError("vertex coordinates must be finite")
    extent = float(np.abs(coords).max(initial=0.0))
    if extent > _COORD_LIMIT:
        raise GeometryError(f"vertex coordinates up to {extent:.3g} overflow when squared "
                            f"(limit {_COORD_LIMIT:.3g})")
    n_v = coords.shape[0]
    cell_loops = [[_as_index(v, f"cell {c} vertex") for v in loop]
                  for c, loop in enumerate(cell_loops)]
    used = {v for loop in cell_loops for v in loop}
    if len(used) != n_v:
        raise TopologyError("every vertex must belong to at least one cell")

    for c, loop in enumerate(cell_loops):
        if len(loop) < 3:
            raise TopologyError(f"cell {c} has fewer than 3 vertices")
        if any(v < 0 or v >= n_v for v in loop):
            raise ParseError(f"cell {c} references an unknown vertex")
        if len(set(loop)) != len(loop):
            raise TopologyError(f"cell {c} repeats a vertex in its loop")
    loops = list(cell_loops)
    for ids, idx in cell_groups(loops):
        area, _ = _polygon_area_center(coords[idx], ids)
        for c in ids[area < 0]:
            loops[c] = loops[c][::-1]

    pair_cells: dict[tuple[int, int], list[int]] = {}
    for c, loop in enumerate(loops):
        for j in range(len(loop)):
            a, b = loop[j], loop[(j + 1) % len(loop)]
            key = (min(a, b), max(a, b))
            pair_cells.setdefault(key, []).append(c)
    keys = sorted(pair_cells)
    for key in keys:
        if len(pair_cells[key]) > 2:
            raise TopologyError(f"edge {key} referenced by {len(pair_cells[key])} cells")

    pairs = np.array(keys, dtype=int).reshape(-1, 2)
    vec = coords[pairs[:, 1]] - coords[pairs[:, 0]]
    lengths = np.linalg.norm(vec, axis=1)
    short = lengths < _LENGTH_TOL
    if short.any():
        raise GeometryError(f"edge {keys[np.argmax(short)]} has zero length")
    tangents = vec / lengths[:, None]
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)
    pair_edge = {key: eid for eid, key in enumerate(keys)}
    edges = [Edge(eid, key, tangents[eid], normals[eid], float(lengths[eid]),
                  len(pair_cells[key]) == 1, tuple(pair_cells[key]))
             for eid, key in enumerate(keys)]

    # cell geometry, one vertex count at a time
    areas, diams, rhos = (np.empty(len(loops)) for _ in range(3))
    centers = np.empty((len(loops), 2))
    for ids, idx in cell_groups(loops):
        pts = coords[idx]
        areas[ids], center = _polygon_area_center(pts, ids)
        for i in np.flatnonzero(~_fan_is_positive(pts, center)):
            center[i] = _sampled_star_center(pts[i])
        diams[ids] = np.max(np.linalg.norm(pts[:, :, None] - pts[:, None], axis=-1),
                            axis=(1, 2))
        rhos[ids] = _min_dist_to_boundary(pts, center) / diams[ids]
        centers[ids] = center

    elements: list[Element] = []
    for c, loop in enumerate(loops):
        eids, omegas = [], []
        for j in range(len(loop)):
            a, b = loop[j], loop[(j + 1) % len(loop)]
            eids.append(pair_edge[(min(a, b), max(a, b))])
            # ccw traversal a->b agrees with t_E iff a is the lower vertex id
            omegas.append(1 if a < b else -1)
        elements.append(Element(c, tuple(loop), tuple(eids), tuple(omegas),
                                float(diams[c]), float(areas[c]), centers[c], float(rhos[c])))

    boundary = np.array([e.id for e in edges if e.boundary], dtype=int)
    interior = np.array([e.id for e in edges if not e.boundary], dtype=int)
    bverts = sorted({v for e in edges if e.boundary for v in e.vertices})
    mesh = PolygonalMesh(
        vertex_coords=coords,
        edges=edges,
        elements=elements,
        boundary_edges=boundary,
        interior_edges=interior,
        boundary_vertices=np.array(bverts, dtype=int),
        h=float(diams.max()),
    )
    _validate(mesh)
    return mesh


def _validate(mesh: PolygonalMesh) -> None:
    els = mesh.elements
    area = np.array([el.area for el in els])
    if np.any(area <= 0):
        raise GeometryError(f"element {np.argmax(area <= 0)} has non-positive area")
    # one row per (element, local edge), in element order
    sizes = np.array([len(el.edges) for el in els])
    cell = np.repeat(np.arange(len(els)), sizes)
    eid = np.fromiter(chain.from_iterable(el.edges for el in els), int, sizes.sum())
    om = np.fromiter(chain.from_iterable(el.orientations for el in els), float, sizes.sum())
    centers = np.array([el.center for el in els])
    normals = np.array([e.normal for e in mesh.edges])
    ends = mesh.vertex_coords[np.array([e.vertices for e in mesh.edges])]
    mid = 0.5 * (ends[:, 0] + ends[:, 1])
    out = ((mid[eid] - centers[cell]) * (om[:, None] * normals[eid])).sum(axis=1)
    if np.any(out <= 0):
        i = np.argmax(out <= 0)
        raise GeometryError(
            f"element {cell[i]}, edge {eid[i]}: omega*n_E is not outward")
    n_inc = np.bincount(eid, minlength=mesh.n_edges)
    boundary = np.array([e.boundary for e in mesh.edges])
    wrong = np.where(boundary, n_inc != 1, n_inc != 2)
    if wrong.any():
        e = np.argmax(wrong)
        kind = "boundary" if boundary[e] else "interior"
        raise TopologyError(f"{kind} edge {e} has {n_inc[e]} elements")
    unbalanced = ~boundary & (np.bincount(eid, om, mesh.n_edges) != 0)
    if unbalanced.any():
        raise TopologyError(
            f"interior edge {np.argmax(unbalanced)}: incident orientations do not cancel")


def load_mesh(path: str, fmt: str = "json") -> PolygonalMesh:
    """Load a mesh from file; ``fmt`` is 'json' (canonical) or 'typ2'."""
    if fmt == "json":
        return _load_json(path)
    if fmt == "typ2":
        return _load_typ2(path)
    raise ParseError(f"unknown mesh format {fmt!r}")


def _load_json(path: str) -> PolygonalMesh:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ParseError(f"cannot read mesh file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON mesh {path}: {exc}") from exc
    try:
        verts = np.asarray(data["vertices"], dtype=float)
        cells = [list(c) for c in data["cells"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"mesh {path} missing 'vertices'/'cells': {exc}") from exc
    return build_mesh(verts, cells)


def _load_typ2(path: str) -> PolygonalMesh:
    """FVCA-style text meshes: vertex count, coordinate lines, cell count, then
    one line per cell as 'm v_1 ... v_m' with 1-based vertex indices. Header
    words ('Vertices', 'cells', ...) are skipped."""
    try:
        with open(path) as f:
            tokens = []
            for line in f:
                line = line.split("#", 1)[0]
                tokens.extend(line.split())
    except OSError as exc:
        raise ParseError(f"cannot read mesh file {path}: {exc}") from exc
    nums = []
    for tok in tokens:
        try:
            nums.append(float(tok))
        except ValueError:
            continue
    pos = 0

    def take(n):
        nonlocal pos
        if n < 0:
            raise ParseError(f"typ2 mesh {path}: negative count {n}")
        if pos + n > len(nums):
            raise ParseError(f"truncated typ2 mesh {path}")
        out = nums[pos:pos + n]
        pos += n
        return out

    n_v = _as_index(take(1)[0], f"typ2 mesh {path}: vertex count")
    if n_v <= 0:
        raise ParseError(f"typ2 mesh {path}: invalid vertex count")
    verts = np.array(take(2 * n_v)).reshape(n_v, 2)
    n_c = _as_index(take(1)[0], f"typ2 mesh {path}: cell count")
    cells = []
    for c in range(n_c):
        m = _as_index(take(1)[0], f"typ2 mesh {path}: cell {c} size")
        cells.append([_as_index(v, f"typ2 mesh {path}: cell {c} vertex") - 1
                      for v in take(m)])
    return build_mesh(verts, cells)


def save_mesh(mesh: PolygonalMesh, path: str) -> None:
    data = {
        "vertices": [[float(x), float(y)] for x, y in mesh.vertex_coords],
        "cells": [list(el.vertices) for el in mesh.elements],
    }
    with open(path, "w") as f:
        json.dump(data, f)


def uniform_refine(mesh: PolygonalMesh) -> PolygonalMesh:
    """Split every element into its fan of triangles from x_T to each edge."""
    coords = [tuple(p) for p in mesh.vertex_coords]
    cells: list[list[int]] = []
    for el in mesh.elements:
        pts = mesh.element_vertex_coords(el)
        if not _fan_is_positive(pts, el.center):
            raise GeometryError(f"element {el.id} not star-shaped w.r.t. its center")
        cid = len(coords)
        coords.append((float(el.center[0]), float(el.center[1])))
        loop = el.vertices
        for j in range(len(loop)):
            cells.append([loop[j], loop[(j + 1) % len(loop)], cid])
    return build_mesh(np.array(coords), cells)


def triangular_mesh(n: int) -> PolygonalMesh:
    """Structured triangulation of (0,1)^2: n x n squares, each cut along the
    (i,j)->(i+1,j+1) diagonal. Mesh size h = sqrt(2)/n."""
    if n < 1:
        raise ParseError("triangular_mesh requires n >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([[x, y] for y in xs for x in xs])
    vid = lambda i, j: j * (n + 1) + i
    cells = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            cells.append([v00, v10, v11])
            cells.append([v00, v11, v01])
    return build_mesh(verts, cells)
