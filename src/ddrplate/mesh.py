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
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import GeometryError, ParseError, TopologyError

# an edge shorter than this share of the mesh's extent has zero length
_LENGTH_TOL = 1e-14
# largest |coordinate| whose differences still square to a finite number
_COORD_LIMIT = float(np.sqrt(np.finfo(float).max) / 2.0)
# largest cell diameter h_T whose h_T^4-scaled cRoly Gram entries (at most
# pi/2 h_T^4, and their symmetrised sum) stay finite
_DIAMETER_LIMIT = float((np.finfo(float).max / 4.0) ** 0.25)


@dataclass(frozen=True)
class Edge:
    """Read-only record of one edge, built from the mesh arrays."""
    id: int
    vertices: tuple[int, int]  # sorted pair (a, b), a < b
    tangent: np.ndarray        # unit vector from a to b
    normal: np.ndarray         # tangent rotated by -pi/2
    length: float
    boundary: bool
    elements: tuple[int, ...] = ()


@dataclass(frozen=True)
class Element:
    """Read-only record of one cell, built from the mesh arrays."""
    id: int
    vertices: tuple[int, ...]        # boundary loop, counterclockwise
    edges: tuple[int, ...]           # edges[j] joins vertices[j], vertices[j+1]
    orientations: tuple[int, ...]    # omega_TE per local edge
    diameter: float
    area: float
    center: np.ndarray               # x_T


@dataclass(eq=False)
class PolygonalMesh:
    """A validated mesh stored as arrays.

    The counterclockwise loop of cell c is
    ``cell_vertices[cell_offsets[c]:cell_offsets[c + 1]]``; local edge j
    joins loop vertices j and j + 1, and ``cell_edges`` and
    ``cell_orientations`` hold its edge id and omega_TE flat in the same
    order. ``elements`` and ``edges`` are read-only records of the same
    data, built on first access.
    """
    vertex_coords: np.ndarray        # (n_vertices, 2)
    cell_offsets: np.ndarray         # (n_cells + 1,)
    cell_vertices: np.ndarray        # (n_incidences,) loops, end to end
    cell_edges: np.ndarray           # (n_incidences,)
    cell_orientations: np.ndarray    # (n_incidences,) +1 or -1
    cell_area: np.ndarray            # (n_cells,)
    cell_diameter: np.ndarray        # (n_cells,) h_T
    cell_center: np.ndarray          # (n_cells, 2) x_T
    edge_vertices: np.ndarray        # (n_edges, 2) sorted pairs (a, b), a < b
    edge_tangent: np.ndarray         # (n_edges, 2)
    edge_normal: np.ndarray          # (n_edges, 2)
    edge_length: np.ndarray          # (n_edges,)
    boundary_edges: np.ndarray
    interior_edges: np.ndarray
    boundary_vertices: np.ndarray
    h: float

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_coords)

    @property
    def n_edges(self) -> int:
        return len(self.edge_length)

    @property
    def n_elements(self) -> int:
        return len(self.cell_area)

    @cached_property
    def elements(self) -> list[Element]:
        off, v, e, o = (a.tolist() for a in (self.cell_offsets, self.cell_vertices,
                                             self.cell_edges, self.cell_orientations))
        return [Element(c, tuple(v[a:b]), tuple(e[a:b]), tuple(o[a:b]),
                        float(self.cell_diameter[c]), float(self.cell_area[c]),
                        self.cell_center[c])
                for c, (a, b) in enumerate(zip(off[:-1], off[1:]))]

    @cached_property
    def edges(self) -> list[Edge]:
        order = np.argsort(self.cell_edges, kind="stable")    # the cells of each edge, by id
        cell_of = np.repeat(np.arange(self.n_elements), np.diff(self.cell_offsets))
        count = np.bincount(self.cell_edges, minlength=self.n_edges)
        return [Edge(e, tuple(self.edge_vertices[e].tolist()), self.edge_tangent[e],
                     self.edge_normal[e], float(self.edge_length[e]), len(cells) == 1,
                     tuple(cells.tolist()))
                for e, cells in enumerate(np.split(cell_of[order], np.cumsum(count)[:-1]))]


def loop_slots(offsets: np.ndarray, ids) -> np.ndarray:
    """Positions (n, nv) in the flat cell arrays of the loops of cells
    ``ids``, which share one vertex count; ``offsets`` is ``cell_offsets``."""
    ids = np.asarray(ids)
    return offsets[ids, None] + np.arange(offsets[ids[0] + 1] - offsets[ids[0]])


def cell_groups(offsets: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cell ids of each vertex count, by increasing count, with the
    positions of their loops (``loop_slots``)."""
    sizes = np.diff(offsets)
    groups = (np.flatnonzero(sizes == nv) for nv in np.unique(sizes))
    return [(ids, loop_slots(offsets, ids)) for ids in groups]


def _loop_next(offsets: np.ndarray) -> np.ndarray:
    """Flat position of the next loop vertex after every loop position."""
    nxt = np.arange(1, offsets[-1] + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    return nxt


def _polygon_area_center(coords: np.ndarray, ids=None) -> tuple[np.ndarray, np.ndarray]:
    """Signed shoelace areas and centroids of closed polygon loops (..., nv, 2),
    evaluated about each loop's first vertex so that a far offset costs no
    digits; ``ids`` names the stacked loops in errors."""
    origin = coords[..., 0, :]
    local = coords - origin[..., None, :]
    x, y = local[..., 0], local[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross, axis=-1)
    bad = np.abs(area) < 1e-300
    if np.any(bad):
        where = "" if ids is None else f"cell {ids[np.argmax(bad)]}: "
        raise GeometryError(f"{where}zero-area polygon")
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * area)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * area)
    return area, origin + np.stack([cx, cy], axis=-1)


def _fan_is_positive(coords: np.ndarray, center: np.ndarray, tol: float = 1e-12):
    """Every fan triangle (center, v_i, v_{i+1}) of a ccw loop has positive
    area, relative to the squared extent of the loop about the center; loops
    (..., nv, 2) and centers (..., 2) give one answer each."""
    a = coords - center[..., None, :]
    b = np.roll(a, -1, axis=-2)
    areas = 0.5 * (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
    scale = np.max(np.abs(a), axis=(-2, -1))
    return np.all(areas > tol * scale[..., None] ** 2, axis=-1)


def _min_dist_to_boundary(coords: np.ndarray, p: np.ndarray):
    """Distance from points p (..., 2) to the boundaries of loops (..., nv, 2)."""
    ab = np.roll(coords, -1, axis=-2) - coords
    ap = p[..., None, :] - coords
    t = np.clip((ap * ab).sum(axis=-1) / (ab * ab).sum(axis=-1), 0.0, 1.0)
    proj = coords + t[..., None] * ab
    return np.min(np.linalg.norm(proj - p[..., None, :], axis=-1), axis=-1)


def _sampled_star_center(coords: np.ndarray, cell: int) -> np.ndarray:
    """For a cell that is not star-shaped w.r.t. its centroid: of the 23 x 23
    grid points inside its bounding box that see every edge (and so lie
    inside), the one farthest from the boundary."""
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    ij = np.stack(np.meshgrid(np.arange(1, 24), np.arange(1, 24), indexing="ij"), axis=-1)
    p = lo + ij.reshape(-1, 2) / 24 * (hi - lo)
    p = p[_fan_is_positive(coords, p)]
    if not len(p):
        raise GeometryError(f"cell {cell} is not star-shaped w.r.t. any sampled interior point")
    return p[np.argmax(_min_dist_to_boundary(coords, p))]


def _as_index(v, what: str) -> int:
    """A vertex index or count as int; ParseError unless v is a finite
    integer (an integral float such as 3.0 is accepted)."""
    numeric = isinstance(v, (int, float, np.integer, np.floating))
    if isinstance(v, (bool, np.bool_)) or not numeric or not float(v).is_integer():
        raise ParseError(f"{what} {v!r} is not an integer")
    return int(v)


def build_mesh(vertex_coords: np.ndarray, cell_loops: list[list[int]]) -> PolygonalMesh:
    """Assemble a validated mesh from vertex coordinates and cell loops
    (either orientation).

    Edges are derived from consecutive loop pairs, deduplicated by sorted
    vertex pair and numbered lexicographically. Everything but the index
    checks of the input runs on flat arrays, one vertex count at a time
    where the loops are stacked.
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
    sizes = list(map(len, cell_loops))
    flat = list(chain.from_iterable(cell_loops))
    if not set(map(type, flat)) <= {int}:
        flat = [_as_index(v, f"cell {c} vertex")
                for c, loop in enumerate(cell_loops) for v in loop]
    if not sizes:
        raise TopologyError("mesh has no cells")
    try:
        verts = np.array(flat, dtype=np.int64)
    except OverflowError:           # beyond int64, hence unknown: keep it out of range
        verts = np.array([min(max(v, -1), n_v) for v in flat], dtype=np.int64)
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    cell_of = np.repeat(np.arange(len(sizes)), sizes)

    unknown = (verts < 0) | (verts >= n_v)
    if unknown.any():
        raise ParseError(f"cell {cell_of[np.argmax(unknown)]} references an unknown vertex")
    if (np.bincount(verts, minlength=n_v) == 0).any():
        raise TopologyError("every vertex must belong to at least one cell")
    bad = np.diff(offsets) < 3
    inc = np.sort(cell_of * n_v + verts)
    bad[inc[1:][inc[1:] == inc[:-1]] // n_v] = True
    if bad.any():
        c = np.argmax(bad)
        raise TopologyError(f"cell {c} has fewer than 3 vertices" if sizes[c] < 3
                            else f"cell {c} repeats a vertex in its loop")
    groups = cell_groups(offsets)
    for ids, slots in groups:
        area, _ = _polygon_area_center(coords[verts[slots]], ids)
        cw = slots[area < 0]
        verts[cw] = verts[cw[:, ::-1]]

    # local edge (a, b) of every loop; edges numbered by sorted pair
    a, b = verts, verts[_loop_next(offsets)]
    keys, cell_edges, count = np.unique(np.minimum(a, b) * n_v + np.maximum(a, b),
                                        return_inverse=True, return_counts=True)
    pairs = np.stack([keys // n_v, keys % n_v], axis=1)
    if count.max() > 2:
        e = np.argmax(count > 2)
        raise TopologyError(f"edge {tuple(pairs[e].tolist())} referenced by {count[e]} cells")
    vec = coords[pairs[:, 1]] - coords[pairs[:, 0]]
    lengths = np.linalg.norm(vec, axis=1)
    short = lengths <= _LENGTH_TOL * np.ptp(coords, axis=0).max()
    if short.any():
        raise GeometryError(f"edge {tuple(pairs[np.argmax(short)].tolist())} has zero length")
    tangents = vec / lengths[:, None]
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)

    # cell geometry, one vertex count at a time
    areas, diams = np.empty(len(sizes)), np.empty(len(sizes))
    centers = np.empty((len(sizes), 2))
    for ids, slots in groups:
        pts = coords[verts[slots]]
        areas[ids], center = _polygon_area_center(pts, ids)
        for i in np.flatnonzero(~_fan_is_positive(pts, center)):
            center[i] = _sampled_star_center(pts[i], ids[i])
        diams[ids] = np.max(np.linalg.norm(pts[:, :, None] - pts[:, None], axis=-1),
                            axis=(1, 2))
        centers[ids] = center
    huge = diams > _DIAMETER_LIMIT
    if huge.any():
        c = np.argmax(huge)
        raise GeometryError(f"cell {c}: diameter {diams[c]:.3g} above {_DIAMETER_LIMIT:.3g}, "
                            "where its h_T^4-scaled Gram matrices overflow")

    boundary = count == 1
    mesh = PolygonalMesh(
        vertex_coords=coords, cell_offsets=offsets, cell_vertices=verts,
        cell_edges=cell_edges, cell_orientations=np.where(a < b, 1, -1),
        cell_area=areas, cell_diameter=diams, cell_center=centers,
        edge_vertices=pairs, edge_tangent=tangents, edge_normal=normals,
        edge_length=lengths,
        boundary_edges=np.flatnonzero(boundary),
        interior_edges=np.flatnonzero(~boundary),
        boundary_vertices=np.unique(pairs[boundary]),
        h=float(diams.max()),
    )
    _validate(mesh)
    return mesh


def _validate(mesh: PolygonalMesh) -> None:
    area = mesh.cell_area
    if np.any(area <= 0):
        raise GeometryError(f"element {np.argmax(area <= 0)} has non-positive area")
    # one row per (element, local edge), in element order
    cell = np.repeat(np.arange(mesh.n_elements), np.diff(mesh.cell_offsets))
    eid, om = mesh.cell_edges, mesh.cell_orientations
    mid = mesh.vertex_coords[mesh.edge_vertices].mean(axis=1)
    out = ((mid[eid] - mesh.cell_center[cell]) * (om[:, None] * mesh.edge_normal[eid])).sum(axis=1)
    if np.any(out <= 0):
        i = np.argmax(out <= 0)
        raise GeometryError(f"element {cell[i]}, edge {eid[i]}: omega*n_E is not outward")
    n_inc = np.bincount(eid, minlength=mesh.n_edges)
    boundary = np.zeros(mesh.n_edges, dtype=bool)
    boundary[mesh.boundary_edges] = True
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
    loops, off = mesh.cell_vertices.tolist(), mesh.cell_offsets.tolist()
    data = {
        "vertices": [[float(x), float(y)] for x, y in mesh.vertex_coords],
        "cells": [loops[a:b] for a, b in zip(off[:-1], off[1:])],
    }
    with open(path, "w") as f:
        json.dump(data, f)


def uniform_refine(mesh: PolygonalMesh) -> PolygonalMesh:
    """Split every element into its fan of triangles from x_T to each edge
    (``build_mesh`` places x_T where every fan triangle has positive area)."""
    loops = mesh.cell_vertices
    apex = mesh.n_vertices + np.repeat(np.arange(mesh.n_elements), np.diff(mesh.cell_offsets))
    cells = np.stack([loops, loops[_loop_next(mesh.cell_offsets)], apex], axis=1)
    return build_mesh(np.concatenate([mesh.vertex_coords, mesh.cell_center]), cells.tolist())


def triangular_mesh(n: int) -> PolygonalMesh:
    """Structured triangulation of (0,1)^2: n x n squares, each cut along the
    (i,j)->(i+1,j+1) diagonal. Mesh size h = sqrt(2)/n."""
    if n < 1:
        raise ParseError("triangular_mesh requires n >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)   # vertex j (n+1) + i
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    return build_mesh(verts, np.stack([v00, v10, v11, v00, v11, v01], axis=1)
                      .reshape(-1, 3).tolist())
