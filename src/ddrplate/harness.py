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
import sys
import time
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:                  # not on every platform (Windows)
    resource = None

from .errors import ConfigError, DdrError, DegenerateRate, ParseError
from .mesh import PolygonalMesh, load_mesh, triangular_mesh
from .solutions import get_solution
from .spaces import Discretization, interpolate_theta, interpolate_u
from .system import MaterialParams, PlateSystem

MESH_FAMILIES = ("tri", "hexa", "locref")
PROPERTY_TEST_SEED = 218650  # fixed seed used by the randomized test suite
# the generated family's finest mesh is tri_n{4 * 2**(refinements - 1)}; at the
# bound, tri_n256 (131,072 cells) needs gigabytes already at k = 0 (at tri_n64
# the Cholesky factor L has 4.9e6 entries and its array 5.6e6, and fill grows
# like N log N), and each refinement past it quadruples the cells
_MAX_TRI_REFINEMENTS = 7
# four times the largest boost the tests use; the fan rule grows with the
# square of (k + 4 + quad_boost / 2) points per fan triangle
_MAX_QUAD_BOOST = 16


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
        if (self.mesh_dir is None and self.mesh_family == "tri"
                and self.refinements > _MAX_TRI_REFINEMENTS):
            raise ConfigError(f"the tri family has at most {_MAX_TRI_REFINEMENTS} "
                              f"refinements, got {self.refinements}")
        if not 0 <= self.quad_boost <= _MAX_QUAD_BOOST:
            raise ConfigError(f"quadrature boost must be in 0..{_MAX_QUAD_BOOST}, "
                              f"got {self.quad_boost}")
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
    stages: dict                   # stage wall times (PlateSystem's own stages too),
                                   # sizes (dofs: Dirichlet ones too), the peak RSS so
                                   # far and the MiB each object keeps


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


def _peak_rss_mb() -> float | None:
    """The peak resident set of this process so far, in MiB, or None where
    the ``resource`` module is missing. ``ru_maxrss`` counts KiB on Linux
    and bytes on macOS."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def _base_arrays(obj) -> dict[int, int]:
    """The bytes of every array reachable from ``obj`` through attributes,
    lists, tuples and dict values, by the id of the array that owns them:
    views of one array count once."""
    found, seen, stack = {}, set(), [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            found[id(o)] = o.nbytes
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif hasattr(o, "__dict__") and not isinstance(o, type):
            stack.extend(vars(o).values())
    return found


def _kept_mb(obj, given) -> float:
    """MiB of the arrays that ``obj`` keeps beyond those of ``given``, the
    object it was built from."""
    inputs = _base_arrays(given)
    return sum(n for i, n in _base_arrays(obj).items() if i not in inputs) / 2 ** 20


def solve_case(system: PlateSystem, material: MaterialParams, solution_name: str):
    """End-to-end solve against one manufactured solution; returns the
    relative energy-norm error and the solve report."""
    disc = system.disc
    sol = get_solution(solution_name, material)
    theta_i = interpolate_theta(disc, sol.theta)
    u_i = interpolate_u(disc, sol.u)
    load = system.load_vector(sol.f)
    # the interpolated exact traces on the boundary, whatever the domain
    theta_h, u_h, report = system.solve(
        material, load, np.concatenate([theta_i.values, u_i.values]))
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
    stages = {"discretization_s": t[1] - t[0], "plate_system_s": t[2] - t[1],
              "solve_s": t[3] - t[2], **system.stages,
              "cells": mesh.n_elements, "edges": mesh.n_edges,
              "dofs": system.n_theta + system.n_u, "peak_rss_mb": _peak_rss_mb(),
              # the solve adds no array to either object
              "discretization_mb": _kept_mb(disc, mesh),
              "plate_system_mb": _kept_mb(system, disc)}
    return RunResult(mesh_name, mesh.h, int(system.free.size), error, t[3] - t[0],
                     report.residual, asdict(report), stages)


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
    if config.out_dir is not None:
        output_dir(config)               # an unwritable path fails before any solve
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


def output_dir(config: RunConfig) -> Path:
    """The output directory, created if missing; ``ConfigError`` names a
    path that cannot be one."""
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc.strerror or exc}") from exc
    return out


def write_outputs(config: RunConfig, records: list[ConvergenceRecord]) -> list[Path]:
    out = output_dir(config)
    files = []
    if config.fmt in ("dat", "both"):
        files.append((out / "data_rates.dat", format_dat(records)))
    if config.fmt in ("csv", "both"):
        files.append((out / "data_rates.csv", format_csv(records)))
    meta = {
        "config": {k: v for k, v in vars(config).items()},
        "wall_times": [r.time for r in records],
        "solver": [r.solver for r in records],
        "stages": [r.stages for r in records],
        "property_test_seed": PROPERTY_TEST_SEED,
    }
    files.append((out / "run_metadata.json", json.dumps(meta, indent=2, sort_keys=True) + "\n"))
    for path, text in files:
        try:
            path.write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return [path for path, _ in files]
