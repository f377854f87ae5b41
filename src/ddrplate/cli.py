"""Command line driver for single solves and convergence studies."""

from __future__ import annotations

import argparse
import sys

from .errors import DdrError
from .harness import (ConvergenceRecord, RunConfig, run_convergence, run_single,
                      write_outputs)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ddrplate",
        description="Polygonal DDR solver for clamped Reissner-Mindlin plates: "
                    "manufactured-solution solves and h-convergence studies.")
    p.add_argument("--mesh-dir", default=None,
                   help="directory of JSON meshes to use as the refinement sequence")
    p.add_argument("--mesh-family", default="tri", choices=["tri", "hexa", "locref"],
                   help="built-in mesh family (ignored when --mesh-dir is given)")
    p.add_argument("--refinements", type=int, default=3,
                   help="number of meshes in the sequence (1 = single solve)")
    p.add_argument("--degree", type=int, default=0, help="polynomial degree k (0..3)")
    p.add_argument("--thickness", type=float, default=0.1, help="plate thickness t")
    p.add_argument("--solution", default="polynomial",
                   choices=["polynomial", "analytical"])
    p.add_argument("--young", type=float, default=1.0, help="Young modulus E")
    p.add_argument("--poisson", type=float, default=0.3, help="Poisson ratio nu")
    p.add_argument("--kappa0", type=float, default=5.0 / 6.0,
                   help="shear correction factor")
    p.add_argument("--quad-boost", type=int, default=0,
                   help="extra quadrature exactness degree")
    p.add_argument("--out", default=None, help="output directory for data files")
    p.add_argument("--format", default="both", choices=["dat", "csv", "both"],
                   dest="fmt", help="data file format")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            mesh_family=args.mesh_family, mesh_dir=args.mesh_dir,
            refinements=args.refinements, degree=args.degree,
            thickness=args.thickness, young=args.young, poisson=args.poisson,
            kappa0=args.kappa0, solution=args.solution,
            quad_boost=args.quad_boost, out_dir=args.out, fmt=args.fmt)
        if config.refinements == 1:
            res = run_single(config)
            print(f"mesh {res.mesh_name}: h = {res.h:.6e}, free DOFs = {res.dofs}, "
                  f"E_h = {res.error:.6e}, solver residual = {res.solver_residual:.2e}, "
                  f"wall time = {res.time:.2f} s")
            if config.out_dir is not None:
                write_outputs(config, [ConvergenceRecord(
                    res.h, res.dofs, res.error, None, res.time, res.solver, res.stages)])
        else:
            records = run_convergence(config)
            print("MeshSize      Error         DOFs     Rate")
            for r in records:
                rate = "   -  " if r.rate is None else f"{r.rate:6.3f}"
                print(f"{r.h:.6e}  {r.error:.6e}  {r.dofs:7d}  {rate}")
    except DdrError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
