"""Generate the bundled hexagonal and locally-refined mesh assets.

Run from the repository root:  python3 scripts/make_mesh_assets.py

Hexagonal meshes are the Voronoi diagrams of a triangular point lattice,
clipped exactly to the unit square by mirroring the generators across the
four boundary lines. Locally refined meshes are square grids whose lower-left
quadrant is refined one extra level; coarse cells touching the interface pick
up a hanging node and become pentagons.
"""

import json
import sys
from pathlib import Path

import numpy as np
from scipy.spatial import Voronoi

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ddrplate.mesh import _min_dist_to_boundary, build_mesh, cell_groups  # noqa: E402

OUT = Path(__file__).resolve().parents[1] / "src" / "ddrplate" / "assets" / "meshes"


def hexagonal_mesh(n: int):
    """Voronoi honeycomb with ~n cells across the unit square."""
    a = 1.0 / n
    dy = a * np.sqrt(3.0) / 2.0
    eps = 0.0131 * a    # keeps generators strictly off the boundary lines
    pts = []
    j = 0
    while (j + 0.5) * dy + eps < 1.0:
        y = (j + 0.5) * dy + eps
        for i in range(-1, n + 2):
            x = (i + (0.5 if j % 2 else 0.0)) * a + eps
            if 0.0 < x < 1.0:
                pts.append((x, y))
        j += 1
    pts = np.array(pts)
    mirrored = [pts]
    for axis, line in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)):
        m = pts.copy()
        m[:, axis] = 2.0 * line - m[:, axis]
        mirrored.append(m)
    allpts = np.vstack(mirrored)
    vor = Voronoi(allpts)
    vert_ids = {}
    coords = []
    cells = []
    for i in range(len(pts)):
        region = vor.regions[vor.point_region[i]]
        if -1 in region or len(region) < 3:
            raise RuntimeError("unbounded Voronoi region; lattice too coarse")
        loop = []
        for v in region:
            p = vor.vertices[v]
            key = (round(float(p[0]), 10), round(float(p[1]), 10))
            key = (min(max(key[0], 0.0), 1.0), min(max(key[1], 0.0), 1.0))
            if key not in vert_ids:
                vert_ids[key] = len(coords)
                coords.append(key)
            if not loop or vert_ids[key] != loop[-1]:
                loop.append(vert_ids[key])
        if loop[0] == loop[-1]:
            loop.pop()
        cells.append(loop)
    return np.array(coords), cells


def locally_refined_mesh(n: int):
    """n x n grid, lower-left quadrant split into 2x2 subcells per cell."""
    assert n % 2 == 0
    fine = 2 * n                       # fine lattice resolution
    vert_ids = {}
    coords = []

    def vid(i, j):
        key = (i, j)
        if key not in vert_ids:
            vert_ids[key] = len(coords)
            coords.append((i / fine, j / fine))
        return vert_ids[key]

    cells = []
    half = n // 2
    # refined quadrant: fine cells of size 1/(2n)
    for j in range(n):
        for i in range(n):
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    # coarse cells elsewhere (size 1/n = 2 fine units)
    for j in range(n):
        for i in range(n):
            if i < half and j < half:
                continue   # covered by the refined quadrant
            i0, j0 = 2 * i, 2 * j
            loop = [vid(i0, j0), vid(i0 + 2, j0), vid(i0 + 2, j0 + 2), vid(i0, j0 + 2)]
            # hanging node on the left side (interface x = 1/2)
            if i == half and j < half:
                loop = [vid(i0, j0), vid(i0 + 2, j0), vid(i0 + 2, j0 + 2),
                        vid(i0, j0 + 2), vid(i0, j0 + 1)]
            # hanging node on the bottom side (interface y = 1/2)
            elif j == half and i < half:
                loop = [vid(i0, j0), vid(i0 + 1, j0), vid(i0 + 2, j0),
                        vid(i0 + 2, j0 + 2), vid(i0, j0 + 2)]
            cells.append(loop)
    return np.array(coords), cells


def write(name: str, coords: np.ndarray, cells) -> None:
    mesh = build_mesh(coords, cells)   # validates all invariants
    data = {"vertices": [[float(x), float(y)] for x, y in coords],
            "cells": [list(map(int, c)) for c in cells]}
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(data))
    hs = mesh.h
    # inradius ratio: distance from x_T to the cell boundary over h_T
    rho = min(float(np.min(_min_dist_to_boundary(mesh.vertex_coords[mesh.cell_vertices[slots]],
                                                 mesh.cell_center[ids])
                           / mesh.cell_diameter[ids]))
              for ids, slots in cell_groups(mesh.cell_offsets))
    print(f"{name}: {mesh.n_elements} cells, {mesh.n_edges} edges, "
          f"h = {hs:.4f}, min inradius ratio = {rho:.3f}")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for idx, n in enumerate((4, 8, 16, 32), start=1):
        coords, cells = hexagonal_mesh(n)
        write(f"hexa_{idx:02d}", coords, cells)
    for idx, n in enumerate((4, 8, 16, 32), start=1):
        coords, cells = locally_refined_mesh(n)
        write(f"locref_{idx:02d}", coords, cells)


if __name__ == "__main__":
    main()
