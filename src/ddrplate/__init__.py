"""Arbitrary-order discrete de Rham solver for clamped Reissner-Mindlin
plate bending on general polygonal meshes, with an HHO-style stabilised
rotation space and a manufactured-solution convergence harness."""

from .errors import (ConfigError, DdrError, DegenerateRate, GeometryError,
                     ParseError, SingularGram, SingularLocalSystem,
                     SolverFailure, TopologyError, ZeroNormError)
from .harness import (ConvergenceRecord, RunConfig, compute_rates,
                      run_convergence, run_single, solve_case)
from .mesh import (PolygonalMesh, build_mesh, load_mesh, save_mesh,
                   triangular_mesh, uniform_refine)
from .solutions import (ExactSolution, analytical_solution,
                        polynomial_solution, seminorm_probe)
from .spaces import (Discretization, ThetaVector, UVector, boundary_dof_sets,
                     interpolate_theta, interpolate_u)
from .system import MaterialParams, PlateSystem

__all__ = [
    "ConfigError", "DdrError", "DegenerateRate", "GeometryError", "ParseError",
    "SingularGram", "SingularLocalSystem", "SolverFailure", "TopologyError",
    "ZeroNormError",
    "ConvergenceRecord", "RunConfig", "compute_rates", "run_convergence",
    "run_single", "solve_case",
    "PolygonalMesh", "build_mesh", "load_mesh", "save_mesh", "triangular_mesh",
    "uniform_refine",
    "ExactSolution", "analytical_solution", "polynomial_solution",
    "seminorm_probe",
    "Discretization", "ThetaVector", "UVector", "boundary_dof_sets",
    "interpolate_theta", "interpolate_u",
    "MaterialParams", "PlateSystem",
]

__version__ = "0.1.0"
