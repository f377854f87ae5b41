import json

import numpy as np
import pytest

from conftest import ASSETS
from ddrplate.errors import GeometryError, ParseError, TopologyError
from ddrplate.mesh import (build_mesh, load_mesh, save_mesh, triangular_mesh,
                           uniform_refine)

UNIT_SQUARE = (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
               [[0, 1, 2, 3]])


def test_single_quad_counts_and_h():
    mesh = build_mesh(*UNIT_SQUARE)
    assert mesh.n_elements == 1
    assert mesh.n_edges == 4
    assert mesh.n_vertices == 4
    assert mesh.h == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert mesh.domain_area() == pytest.approx(1.0, abs=1e-14)


def test_2x2_triangulation_partitions_area():
    mesh = triangular_mesh(2)
    assert mesh.n_elements == 8
    assert mesh.n_edges == 16
    assert mesh.interior_edges.size == 8
    assert abs(mesh.domain_area() - 1.0) < 1e-12


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
    assert mesh.elements[0].area > 0


def test_outward_normals_and_divergence_of_constants(meshes):
    for mesh in meshes.values():
        for el in mesh.elements:
            acc = np.zeros(2)
            for eid, om in zip(el.edges, el.orientations):
                edge = mesh.edges[eid]
                out = om * edge.normal
                assert (mesh.edge_midpoint(edge) - el.center) @ out > 0
                assert edge.length <= el.diameter + 1e-14
                acc += om * edge.length * edge.normal
            assert np.linalg.norm(acc) < 1e-12 * el.diameter


def test_interior_orientations_cancel(meshes):
    for mesh in meshes.values():
        for eid in mesh.interior_edges:
            edge = mesh.edges[eid]
            oms = [mesh.elements[c].orientations[mesh.elements[c].edges.index(eid)]
                   for c in edge.elements]
            assert sum(oms) == 0


def test_edge_frame_convention(meshes):
    for mesh in meshes.values():
        for edge in mesh.edges:
            a, b = mesh.edge_endpoints(edge)
            t = (b - a) / edge.length
            assert np.allclose(edge.tangent, t, atol=1e-14)
            assert np.allclose(edge.normal, [t[1], -t[0]], atol=1e-14)
            assert abs(np.linalg.norm(edge.tangent) - 1) < 1e-14


def test_uniform_refine_triangle_fan():
    mesh = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    fine = uniform_refine(mesh)
    assert fine.n_elements == 3
    assert abs(fine.domain_area() - 0.5) < 1e-12


def test_uniform_refine_counts():
    fine = uniform_refine(triangular_mesh(2))
    assert fine.n_elements == 24
    assert abs(fine.domain_area() - 1.0) < 1e-12
    hexa = load_mesh(str(ASSETS / "hexa_01.json"))
    area = hexa.domain_area()
    fine = uniform_refine(hexa)
    assert fine.n_elements == sum(len(el.edges) for el in hexa.elements)
    assert abs(fine.domain_area() - area) < 1e-12


def test_regular_hexagon_fan():
    ang = np.pi / 3 * np.arange(6)
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    mesh = build_mesh(verts, [list(range(6))])
    fine = uniform_refine(mesh)
    assert fine.n_elements == 6
    assert abs(fine.domain_area() - mesh.domain_area()) < 1e-12


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
    assert abs(mesh.domain_area() - 1.0) < 1e-14
    # counts and indices that are not finite integers
    for old, new in (("cells\n2", "cells\nnan"), ("3 1 3 4", "3 1 3 4.5"),
                     ("3 1 3 4", "-3 1 3 4")):
        path.write_text(content.replace(old, new))
        with pytest.raises(ParseError):
            load_mesh(str(path), fmt="typ2")


def test_inradius_ratio_metadata(meshes):
    for mesh in meshes.values():
        for el in mesh.elements:
            assert 0.0 < el.inradius_ratio < 1.0


def test_bundled_families_are_valid():
    for fam, sizes in (("hexa", 4), ("locref", 4)):
        for i in range(1, sizes + 1):
            mesh = load_mesh(str(ASSETS / f"{fam}_{i:02d}.json"))
            assert abs(mesh.domain_area() - 1.0) < 1e-10


def test_center_falls_back_to_sampled_star_point():
    """A blob with a long thin spike is star-shaped only near the spike axis;
    the element center moves off the centroid and all orientation checks
    still hold."""
    spike = np.array([[-4.0, -1.0], [0.0, -1.0], [0.0, -0.1], [5.0, -0.1],
                      [5.0, 0.1], [0.0, 0.1], [0.0, 3.0], [-4.0, 3.0]])
    mesh = build_mesh(spike, [list(range(8))])
    el = mesh.elements[0]
    _, centroid = __import__("ddrplate.mesh", fromlist=["_polygon_area_center"]
                             )._polygon_area_center(spike)
    assert not np.allclose(el.center, centroid)
    assert abs(el.area - 17.0) < 1e-12
    fine = uniform_refine(mesh)
    assert fine.n_elements == 8
    assert abs(fine.domain_area() - 17.0) < 1e-12


def test_truly_non_star_shaped_cell_is_rejected():
    cshape = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [1.0, 1.0],
                       [1.0, 2.0], [3.0, 2.0], [3.0, 3.0], [0.0, 3.0]])
    with pytest.raises(GeometryError):
        build_mesh(cshape, [list(range(8))])


def test_orphan_vertices_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [9.0, 9.0]])
    with pytest.raises(TopologyError):
        build_mesh(verts, [[0, 1, 2]])
