"""Single-solve and convergence-study driver.

A run builds the discretization once per (mesh, degree); material and
thickness only enter through scalar factors, so sweeps over t reuse every
local operator. Emitted data files are deterministic: wall times, the
configuration echo and a solver record per mesh go to a JSON metadata
sidecar, the rate tables hold only reproducible numbers.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError, DdrError, DegenerateRate, ParseError
from .mesh import PolygonalMesh, load_mesh, triangular_mesh
from .solutions import get_solution
from .spaces import Discretization, interpolate_theta, interpolate_u
from .system import MaterialParams, PlateSystem, dirichlet_values_from_interpolates

MESH_FAMILIES = ("tri", "hexa", "locref")
PROPERTY_TEST_SEED = 218650  # fixed seed used by the randomized test suite


@dataclass
class RunConfig:
    mesh_family: str | None = "tri"
    mesh_dir: str | None = None
    refinements: int = 3
    degree: int = 0
    thickness: float = 0.1
    young: float = 1.0
    poisson: float = 0.3
    kappa0: float = 5.0 / 6.0
    solution: str = "polynomial"
    quad_boost: int = 0
    out_dir: str | None = None
    fmt: str = "both"

    def __post_init__(self):
        if not 0 <= self.degree <= 3:
            raise ConfigError(f"degree must be in 0..3, got {self.degree}")
        try:
            self.material()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.solution not in ("polynomial", "analytical"):
            raise ConfigError(f"unknown solution {self.solution!r}")
        if self.mesh_dir is None and self.mesh_family not in MESH_FAMILIES:
            raise ConfigError(f"unknown mesh family {self.mesh_family!r}")
        if self.refinements < 1:
            raise ConfigError("at least one mesh is required")
        if self.quad_boost < 0:
            raise ConfigError("quadrature boost must be >= 0")
        if self.fmt not in ("dat", "csv", "both"):
            raise ConfigError(f"unknown output format {self.fmt!r}")

    def material(self) -> MaterialParams:
        return MaterialParams(self.young, self.poisson, self.thickness, self.kappa0)


@dataclass
class ConvergenceRecord:
    h: float
    dofs: int
    error: float
    rate: float | None
    time: float
    solver: dict | None = None     # RunResult.solver; metadata sidecar only
    stages: dict | None = None     # RunResult.stages; metadata sidecar only


@dataclass
class RunResult:
    mesh_name: str
    h: float
    dofs: int
    error: float
    time: float
    solver_residual: float
    solver: dict                   # the solve as run_metadata.json records it
    stages: dict                   # stage wall times and sizes (dofs: Dirichlet ones too)


def _asset_mesh_paths(family: str) -> list[Path]:
    root = resources.files("ddrplate") / "assets" / "meshes"
    paths = sorted(p for p in root.iterdir() if p.name.startswith(family)
                   and p.name.endswith(".json"))
    if not paths:
        raise ParseError(f"no bundled meshes for family {family!r}")
    return [Path(str(p)) for p in paths]


def mesh_sequence(config: RunConfig) -> list[tuple[str, PolygonalMesh]]:
    if config.mesh_dir is None and config.mesh_family == "tri":
        return [(f"tri_n{4 * 2 ** i}", triangular_mesh(4 * 2 ** i))
                for i in range(config.refinements)]
    if config.mesh_dir is not None:
        paths = sorted(Path(config.mesh_dir).glob("*.json"))
        if not paths:
            raise ParseError(f"no .json meshes in {config.mesh_dir}")
        source = f"mesh directory {config.mesh_dir}"
    else:
        paths = _asset_mesh_paths(config.mesh_family)
        source = f"family {config.mesh_family!r}"
    if len(paths) < config.refinements:
        raise ConfigError(f"{source} holds {len(paths)} meshes, "
                          f"{config.refinements} requested")
    return [(p.stem, load_mesh(str(p))) for p in paths[:config.refinements]]


def solve_case(system: PlateSystem, material: MaterialParams, solution_name: str):
    """End-to-end solve against one manufactured solution; returns the
    relative energy-norm error and the solve report."""
    disc = system.disc
    sol = get_solution(solution_name, material)
    theta_i = interpolate_theta(disc, sol.theta)
    u_i = interpolate_u(disc, sol.u)
    load = system.load_vector(sol.f)
    dir_vals = (None if sol.homogeneous_bc
                else dirichlet_values_from_interpolates(theta_i, u_i))
    theta_h, u_h, report = system.solve(material, load, dir_vals)
    error = system.relative_error(material, theta_h, u_h, theta_i, u_i)
    return error, report, (theta_h, u_h, theta_i, u_i)


def run_single(config: RunConfig, mesh: PolygonalMesh | None = None,
               mesh_name: str = "mesh") -> RunResult:
    if mesh is None:
        mesh_name, mesh = mesh_sequence(config)[0]
    t = [time.perf_counter()]
    try:
        disc = Discretization(mesh, config.degree, config.quad_boost)
        t.append(time.perf_counter())
        system = PlateSystem(disc)
        t.append(time.perf_counter())
        error, report, _ = solve_case(system, config.material(), config.solution)
    except DdrError as exc:
        raise type(exc)(f"[mesh {mesh_name}] {exc}") from exc
    t.append(time.perf_counter())
    solver = {"n_free": report.n_free, "kff_nnz": report.kff_nnz,
              "factor_nnz": report.factor_nnz, "refinement_steps": report.refinement_steps,
              "residual": report.residual, "backward_errors": report.backward_errors,
              "local_cond": report.local_cond, "ordering": report.ordering}
    stages = {"discretization_s": t[1] - t[0], "plate_system_s": t[2] - t[1],
              "solve_s": t[3] - t[2], "cells": mesh.n_elements, "edges": mesh.n_edges,
              "dofs": system.n_theta + system.n_u}
    return RunResult(mesh_name, mesh.h, int(system.free.size), error, t[3] - t[0],
                     report.residual, solver, stages)


def compute_rates(records: list[ConvergenceRecord]) -> list[ConvergenceRecord]:
    for prev, cur in zip(records, records[1:]):
        if not prev.h > cur.h:
            raise DegenerateRate(
                f"mesh sizes must decrease strictly: {prev.h} -> {cur.h}")
        cur.rate = math.log(prev.error / cur.error) / math.log(prev.h / cur.h)
    if records:
        records[0].rate = None
    return records


def run_convergence(config: RunConfig) -> list[ConvergenceRecord]:
    seq = mesh_sequence(config)
    if len(seq) < 2:
        raise ConfigError("a convergence study needs at least 2 meshes")
    records = []
    for name, mesh in seq:
        res = run_single(config, mesh, name)
        records.append(ConvergenceRecord(res.h, res.dofs, res.error, None, res.time,
                                         res.solver, res.stages))
    compute_rates(records)
    if config.out_dir is not None:
        write_outputs(config, records)
    return records


# ---------------------------------------------------------------------------
# output files


def _row_fields(r: ConvergenceRecord) -> list[str]:
    rate = "-" if r.rate is None else f"{r.rate:.16e}"
    return [f"{r.h:.16e}", f"{r.error:.16e}", str(r.dofs), rate]


def format_dat(records: list[ConvergenceRecord]) -> str:
    lines = ["MeshSize Error DOFs Rate"]
    lines += [" ".join(_row_fields(r)) for r in records]
    return "\n".join(lines) + "\n"


def format_csv(records: list[ConvergenceRecord]) -> str:
    lines = ["MeshSize,Error,DOFs,Rate"]
    for r in records:
        f = _row_fields(r)
        f[3] = "" if r.rate is None else f[3]
        lines.append(",".join(f))
    return "\n".join(lines) + "\n"


def parse_dat(text: str) -> list[ConvergenceRecord]:
    """Read back either the whitespace table or its CSV twin."""
    records = []
    for line in text.strip().splitlines()[1:]:
        parts = ([p.strip() for p in line.split(",")] if "," in line
                 else line.split())
        rate = None if parts[3] in ("-", "") else float(parts[3])
        records.append(ConvergenceRecord(float(parts[0]), int(parts[2]),
                                         float(parts[1]), rate, 0.0))
    return records


def write_outputs(config: RunConfig, records: list[ConvergenceRecord]) -> list[Path]:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if config.fmt in ("dat", "both"):
        p = out / "data_rates.dat"
        p.write_text(format_dat(records))
        written.append(p)
    if config.fmt in ("csv", "both"):
        p = out / "data_rates.csv"
        p.write_text(format_csv(records))
        written.append(p)
    meta = {
        "config": {k: v for k, v in vars(config).items()},
        "wall_times": [r.time for r in records],
        "solver": [r.solver for r in records],
        "stages": [r.stages for r in records],
        "property_test_seed": PROPERTY_TEST_SEED,
    }
    mp = out / "run_metadata.json"
    mp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    written.append(mp)
    return written
