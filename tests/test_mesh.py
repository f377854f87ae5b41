import json
import warnings

import numpy as np
import pytest

from conftest import ASSETS
from ddrplate.errors import GeometryError, ParseError, TopologyError
from ddrplate.mesh import (_min_dist_to_boundary, _polygon_area_center, build_mesh,
                           cell_groups, load_mesh, save_mesh, triangular_mesh, uniform_refine)
from ddrplate.spaces import Discretization
from ddrplate.system import PlateSystem

UNIT_SQUARE = (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
               [[0, 1, 2, 3]])


def test_single_quad_counts_and_h():
    mesh = build_mesh(*UNIT_SQUARE)
    assert mesh.n_elements == 1
    assert mesh.n_edges == 4
    assert mesh.n_vertices == 4
    assert mesh.h == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert mesh.cell_area.sum() == pytest.approx(1.0, abs=1e-14)


def test_2x2_triangulation_partitions_area():
    mesh = triangular_mesh(2)
    assert mesh.n_elements == 8
    assert mesh.n_edges == 16
    assert mesh.interior_edges.size == 8
    assert abs(mesh.cell_area.sum() - 1.0) < 1e-12


def test_edge_with_three_elements_rejected():
    verts = np.array([[0, 0], [1, 0], [0.5, 1], [0.5, -1], [1.5, 1]], dtype=float)
    cells = [[0, 1, 2], [0, 3, 1], [0, 1, 4]]   # edge (0,1) used three times
    with pytest.raises(TopologyError):
        build_mesh(verts, cells)


def test_degenerate_geometry_rejected():
    verts = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
    with pytest.raises(GeometryError):
        build_mesh(verts, [[0, 1, 2]])          # collinear, zero area
    verts = np.array([[0, 0], [0, 0], [1, 1]], dtype=float)
    with pytest.raises((GeometryError, TopologyError)):
        build_mesh(verts, [[0, 1, 2]])


def test_repeated_vertex_in_loop_rejected():
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    with pytest.raises(TopologyError):
        build_mesh(verts, [[0, 1, 1, 2, 3]])


def test_clockwise_cells_are_normalized():
    verts, _ = UNIT_SQUARE
    mesh = build_mesh(verts, [[3, 2, 1, 0]])
    assert mesh.cell_area[0] > 0
    assert mesh.cell_vertices.tolist() == [0, 1, 2, 3]


def test_outward_normals_and_divergence_of_constants(meshes):
    for mesh in meshes.values():
        cell = np.repeat(np.arange(mesh.n_elements), np.diff(mesh.cell_offsets))
        eid, om = mesh.cell_edges, mesh.cell_orientations
        mid = mesh.vertex_coords[mesh.edge_vertices].mean(axis=1)
        out = om[:, None] * mesh.edge_normal[eid]
        assert np.all(((mid[eid] - mesh.cell_center[cell]) * out).sum(axis=1) > 0)
        assert np.all(mesh.edge_length[eid] <= mesh.cell_diameter[cell] + 1e-14)
        flux = np.stack([np.bincount(cell, mesh.edge_length[eid] * out[:, i])
                         for i in range(2)], axis=1)
        assert np.all(np.linalg.norm(flux, axis=1) < 1e-12 * mesh.cell_diameter)


def test_interior_orientations_cancel(meshes):
    for mesh in meshes.values():
        count = np.bincount(mesh.cell_edges, minlength=mesh.n_edges)
        total = np.bincount(mesh.cell_edges, mesh.cell_orientations, mesh.n_edges)
        assert np.all(count[mesh.interior_edges] == 2)
        assert np.all(total[mesh.interior_edges] == 0)
        assert np.all(count[mesh.boundary_edges] == 1)


def test_edge_frame_convention(meshes):
    for mesh in meshes.values():
        a, b = np.moveaxis(mesh.vertex_coords[mesh.edge_vertices], 1, 0)
        assert np.all(mesh.edge_vertices[:, 0] < mesh.edge_vertices[:, 1])
        t = (b - a) / mesh.edge_length[:, None]
        assert np.allclose(mesh.edge_tangent, t, atol=1e-14)
        assert np.allclose(mesh.edge_normal, np.stack([t[:, 1], -t[:, 0]], axis=1), atol=1e-14)
        assert np.all(np.abs(np.linalg.norm(mesh.edge_tangent, axis=1) - 1) < 1e-14)


def test_uniform_refine_triangle_fan():
    mesh = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    fine = uniform_refine(mesh)
    assert fine.n_elements == 3
    assert abs(fine.cell_area.sum() - 0.5) < 1e-12


def test_uniform_refine_counts():
    fine = uniform_refine(triangular_mesh(2))
    assert fine.n_elements == 24
    assert abs(fine.cell_area.sum() - 1.0) < 1e-12
    hexa = load_mesh(str(ASSETS / "hexa_01.json"))
    area = hexa.cell_area.sum()
    fine = uniform_refine(hexa)
    assert fine.n_elements == len(hexa.cell_edges)
    assert abs(fine.cell_area.sum() - area) < 1e-12


def test_regular_hexagon_fan():
    ang = np.pi / 3 * np.arange(6)
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    mesh = build_mesh(verts, [list(range(6))])
    fine = uniform_refine(mesh)
    assert fine.n_elements == 6
    assert abs(fine.cell_area.sum() - mesh.cell_area.sum()) < 1e-12


def test_json_round_trip(tmp_path):
    mesh = triangular_mesh(3)
    path = tmp_path / "m.json"
    save_mesh(mesh, str(path))
    back = load_mesh(str(path))
    assert back.n_elements == mesh.n_elements
    assert back.n_edges == mesh.n_edges
    assert np.allclose(back.vertex_coords, mesh.vertex_coords)


def test_load_errors(tmp_path):
    with pytest.raises(ParseError):
        load_mesh(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_mesh(str(bad))
    incomplete = tmp_path / "inc.json"
    incomplete.write_text(json.dumps({"vertices": [[0, 0]]}))
    with pytest.raises(ParseError):
        load_mesh(str(incomplete))
    with pytest.raises(ParseError):
        load_mesh(str(bad), fmt="nope")
    # every vertex index must be a finite integer and every coordinate finite
    verts = [[0, 0], [1, 0], [0, 1]]
    for cells in ([[0, 1, "x"]], [[0, 1, None]], [[0, 1, 2.5]]):
        bad.write_text(json.dumps({"vertices": verts, "cells": cells}))
        with pytest.raises(ParseError):
            load_mesh(str(bad))
    bad.write_text(json.dumps({"vertices": [[0, 0], [1, None], [0, 1]],
                               "cells": [[0, 1, 2]]}))
    with pytest.raises(ParseError):
        load_mesh(str(bad))


def test_typ2_reader(tmp_path):
    content = """Vertices
4
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
cells
2
3 1 2 3
3 1 3 4
"""
    path = tmp_path / "m.typ2"
    path.write_text(content)
    mesh = load_mesh(str(path), fmt="typ2")
    assert mesh.n_elements == 2
    assert abs(mesh.cell_area.sum() - 1.0) < 1e-14
    # counts and indices that are not finite integers
    for old, new in (("cells\n2", "cells\nnan"), ("3 1 3 4", "3 1 3 4.5"),
                     ("3 1 3 4", "-3 1 3 4")):
        path.write_text(content.replace(old, new))
        with pytest.raises(ParseError):
            load_mesh(str(path), fmt="typ2")


def test_inradius_ratio_metadata(meshes):
    """x_T lies strictly inside every cell, closer to its boundary than h_T."""
    for mesh in meshes.values():
        for ids, slots in cell_groups(mesh.cell_offsets):
            loops = mesh.vertex_coords[mesh.cell_vertices[slots]]
            rho = _min_dist_to_boundary(loops, mesh.cell_center[ids]) / mesh.cell_diameter[ids]
            assert np.all((0.0 < rho) & (rho < 1.0))


def test_bundled_families_are_valid():
    for fam, sizes in (("hexa", 4), ("locref", 4)):
        for i in range(1, sizes + 1):
            mesh = load_mesh(str(ASSETS / f"{fam}_{i:02d}.json"))
            assert abs(mesh.cell_area.sum() - 1.0) < 1e-10


def test_center_falls_back_to_sampled_star_point():
    """A blob with a long thin spike is star-shaped only near the spike axis;
    the element center moves off the centroid and all orientation checks
    still hold."""
    spike = np.array([[-4.0, -1.0], [0.0, -1.0], [0.0, -0.1], [5.0, -0.1],
                      [5.0, 0.1], [0.0, 0.1], [0.0, 3.0], [-4.0, 3.0]])
    mesh = build_mesh(spike, [list(range(8))])
    _, centroid = _polygon_area_center(spike)
    assert not np.allclose(mesh.cell_center[0], centroid)
    assert abs(mesh.cell_area[0] - 17.0) < 1e-12
    fine = uniform_refine(mesh)
    assert fine.n_elements == 8
    assert abs(fine.cell_area.sum() - 17.0) < 1e-12


def test_truly_non_star_shaped_cell_is_rejected():
    cshape = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [1.0, 1.0],
                       [1.0, 2.0], [3.0, 2.0], [3.0, 3.0], [0.0, 3.0]])
    with pytest.raises(GeometryError):
        build_mesh(cshape, [list(range(8))])


def test_orphan_vertices_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [9.0, 9.0]])
    with pytest.raises(TopologyError):
        build_mesh(verts, [[0, 1, 2]])


# ---------------------------------------------------------------------------
# the vectorised build against a per-cell reference


def _loops(mesh):
    off = mesh.cell_offsets.tolist()
    verts = mesh.cell_vertices.tolist()
    return [verts[a:b] for a, b in zip(off[:-1], off[1:])]


def _reference_numbering(loops):
    """Edges numbered through a dict of sorted vertex pairs, cell by cell."""
    pair_cells = {}
    for c, loop in enumerate(loops):
        for j in range(len(loop)):
            a, b = loop[j], loop[(j + 1) % len(loop)]
            pair_cells.setdefault((min(a, b), max(a, b)), []).append(c)
    keys = sorted(pair_cells)
    pair_edge = {key: e for e, key in enumerate(keys)}
    cell_edges, orientations = [], []
    for loop in loops:
        for j in range(len(loop)):
            a, b = loop[j], loop[(j + 1) % len(loop)]
            cell_edges.append(pair_edge[(min(a, b), max(a, b))])
            orientations.append(1 if a < b else -1)
    boundary = [e for e, key in enumerate(keys) if len(pair_cells[key]) == 1]
    return keys, [pair_cells[key] for key in keys], cell_edges, orientations, boundary


def _assert_reference_numbering(mesh):
    keys, adjacent, cell_edges, orientations, boundary = _reference_numbering(_loops(mesh))
    assert mesh.edge_vertices.tolist() == [list(key) for key in keys]
    assert mesh.cell_edges.tolist() == cell_edges
    assert mesh.cell_orientations.tolist() == orientations
    assert mesh.boundary_edges.tolist() == boundary
    assert mesh.interior_edges.tolist() == sorted(set(range(len(keys))) - set(boundary))
    assert mesh.boundary_vertices.tolist() == sorted({v for e in boundary for v in keys[e]})
    # the read-only records hold the same numbering
    assert [e.vertices for e in mesh.edges] == keys
    assert [list(e.elements) for e in mesh.edges] == adjacent
    assert [e.boundary for e in mesh.edges] == [len(a) == 1 for a in adjacent]
    assert [list(el.vertices) for el in mesh.elements] == _loops(mesh)
    assert sum((list(el.edges) for el in mesh.elements), []) == cell_edges
    assert sum((list(el.orientations) for el in mesh.elements), []) == orientations


@pytest.mark.parametrize("n", range(1, 9))
def test_tri_numbering_matches_reference(n):
    _assert_reference_numbering(triangular_mesh(n))


@pytest.mark.parametrize("name", [f"{fam}_{i:02d}" for fam in ("hexa", "locref")
                                  for i in range(1, 5)])
def test_bundled_numbering_matches_reference(name):
    _assert_reference_numbering(load_mesh(str(ASSETS / f"{name}.json")))


def test_clockwise_loops_match_reference():
    """Every other cell of hexa_02 given clockwise: the loops come back
    counterclockwise, as the reversed input, and number like the original."""
    mesh = load_mesh(str(ASSETS / "hexa_02.json"))
    loops = [loop[::-1] if c % 2 else loop for c, loop in enumerate(_loops(mesh))]
    flipped = build_mesh(mesh.vertex_coords, loops)
    _assert_reference_numbering(flipped)
    for name in ("cell_vertices", "cell_edges", "cell_orientations", "edge_vertices",
                 "cell_area", "cell_center", "cell_diameter"):
        assert np.array_equal(getattr(flipped, name), getattr(mesh, name)), name


def test_non_star_shaped_cell_matches_reference():
    """The spiked blob of the sampled-centre test, between two triangles."""
    spike = [[-4.0, -1.0], [0.0, -1.0], [0.0, -0.1], [5.0, -0.1], [5.0, 0.1],
             [0.0, 0.1], [0.0, 3.0], [-4.0, 3.0], [-6.0, 1.0], [2.0, -3.0]]
    mesh = build_mesh(np.array(spike), [list(range(8)), [0, 8, 7], [1, 0, 9]])
    _assert_reference_numbering(mesh)
    _, centroid = _polygon_area_center(np.array(spike[:8]))
    assert not np.allclose(mesh.cell_center[0], centroid)
    assert mesh.boundary_edges.size == 10 and mesh.interior_edges.size == 2


def test_jittered_mesh_matches_reference():
    base = triangular_mesh(6)
    rng = np.random.default_rng(7)
    move = 0.1 * base.h * (rng.random((base.n_vertices, 2)) - 0.5)
    move[base.boundary_vertices] = 0.0
    mesh = build_mesh(base.vertex_coords + move, _loops(base))
    _assert_reference_numbering(mesh)
    assert np.array_equal(mesh.cell_edges, base.cell_edges)
    assert abs(mesh.cell_area.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("verts, cells, message", [
    ([[0, 0], [1, 0], [0.5, 1], [0.5, -1], [1.5, 1]],
     [[0, 1, 2], [0, 3, 1], [0, 1, 4]], "edge \\(0, 1\\) referenced by 3 cells"),
    ([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 1, 2], [0, 1, 3]],
     "interior edge 0: incident orientations do not cancel"),
    ([[0, 0], [1, 0], [0, 1], [9, 9]], [[0, 1, 2]], "every vertex must belong"),
], ids=["three-cells", "unbalanced", "unused-vertex"])
def test_topology_errors(verts, cells, message):
    with pytest.raises(TopologyError, match=message):
        build_mesh(np.array(verts, dtype=float), cells)


def test_build_never_creates_the_records():
    mesh = load_mesh(str(ASSETS / "locref_01.json"))
    PlateSystem(Discretization(mesh, 1))
    assert "elements" not in vars(mesh) and "edges" not in vars(mesh)


@pytest.mark.parametrize("k", range(4))
def test_large_cells_build_without_overflow(k):
    """Cells of diameter 7e69 build at every degree with warnings as errors."""
    base = triangular_mesh(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = build_mesh(base.vertex_coords * 1e70, _loops(base))
        PlateSystem(Discretization(mesh, k))


def test_cells_whose_grams_overflow_are_refused():
    """Diameters of 7e77 would overflow the h_T^4-scaled cRoly Grams: the
    build refuses the first such cell before any Gram is formed."""
    base = triangular_mesh(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="cell 0: diameter 7.07e\\+77"):
            build_mesh(base.vertex_coords * 1e78, _loops(base))
