"""Per-layer tracing for the traced pass.

``install`` replaces module attributes of ``ddrplate`` (and a few of
``numpy``) with wrappers that keep self times and call counts in memory.
Nothing here is imported by an untraced pass.  A function imported by name
into other modules is rebound in every ``ddrplate`` module that holds it, so
internal calls are seen as well as the benchmark's own.

Self time: a span's duration minus the time covered by the spans it
encloses.  Counters (the per-cell pack builders and the numpy kernels) are
not spans: their time stays in the self time of the span that calls them.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

import numpy as np

from ddrplate import harness, hho, mesh, operators, polyspace, spaces, system

# (metric, owner, attribute): spans whose self time is reported as <metric>
SPANS = (
    ("mesh.build_s", mesh, "load_mesh"),
    ("polyspace.element_contexts_s", polyspace.ElementContext, "__init__"),
    ("polyspace.edge_contexts_s", polyspace, "build_edge_context"),
    ("spaces.discretization_s", spaces.Discretization, "__init__"),
    ("spaces.interpolate_s", spaces, "interpolate_theta"),
    ("spaces.interpolate_s", spaces, "interpolate_u"),
    ("operators.build_packs_s", operators, "build_packs"),
    ("operators.theta_product_s", operators, "assemble_theta_product"),
    ("operators.global_gradient_s", operators, "build_global_gradient"),
    ("hho.build_hho_packs_s", hho, "build_hho_packs"),
    ("hho.jump_penalisation_s", hho, "build_jump_penalisation"),
    ("system.assembly_s", system.PlateSystem, "__init__"),
    ("system.matrix_s", system.PlateSystem, "full_matrix"),
    ("system.solve_self_s", system.PlateSystem, "solve"),
    ("system.load_vector_s", system.PlateSystem, "load_vector"),
    ("system.error_s", system.PlateSystem, "relative_error"),
    ("harness.write_outputs_s", harness, "write_outputs"),
)

# (metric, owner, attribute): calls counted without a span
COUNTS = (
    ("operators.local_pack_calls", operators, "build_local_pack"),
    ("hho.local_pack_calls", hho, "build_hho_pack"),
    ("kernels.einsum_calls", np, "einsum"),
) + tuple(("kernels.linalg_calls", np.linalg, name) for name in
          ("solve", "cond", "cholesky", "lstsq", "norm", "inv", "pinv", "eigh",
           "eigvalsh", "qr", "svd", "det"))


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.kff_nnz: list[int] = []
        self.lu_nnz: list[int] = []
        self._children: list[float] = []   # child time per open span
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[name] += dt - self._children.pop()
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += dt
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _factor(self, splu):
        """Wrap ``ddrplate.system.splu``: time it, record the sizes of K_ff
        and L+U, and count the triangular solves of the factor."""
        timed = self.span("system.factor_s", splu)
        tracer = self

        class Factor:
            def __init__(self, lu):
                self._lu = lu
                self.solve = tracer.span("system.lu_solve_s", lu.solve)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        @functools.wraps(splu)
        def wrapper(A, *args, **kwargs):
            lu = timed(A, *args, **kwargs)
            self.kff_nnz.append(int(A.nnz))
            self.lu_nnz.append(int(lu.L.nnz + lu.U.nnz))
            return Factor(lu)
        return wrapper

    def _solutions(self, get_solution):
        """Wrap every callable of the exact solutions ``solve_case`` uses."""
        @functools.wraps(get_solution)
        def wrapper(*args, **kwargs):
            sol = get_solution(*args, **kwargs)
            fields = {f.name: self.span("solutions.eval_s", getattr(sol, f.name))
                      for f in dataclasses.fields(sol)
                      if callable(getattr(sol, f.name))}
            return dataclasses.replace(sol, **fields)
        return wrapper

    # -- installation ----------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        targets = [owner]
        if getattr(owner, "__name__", "").startswith("ddrplate."):
            targets = [m for m in _ddrplate_modules() if getattr(m, attr, None) is original]
        for target in targets:
            self._undo.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapper)

    def install(self) -> None:
        for name, owner, attr in SPANS:
            self._rebind(owner, attr, self.span(name, getattr(owner, attr)))
        for name, owner, attr in COUNTS:
            self._rebind(owner, attr, self.counter(name, getattr(owner, attr)))
        self._rebind(system, "splu", self._factor(system.splu))
        self._rebind(harness, "get_solution", self._solutions(harness.get_solution))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    # -- report ----------------------------------------------------------

    def metrics(self, backward: list[float], roundoff_error: float) -> dict[str, float]:
        s, c = self.self_s, self.calls
        kff, lu = sum(self.kff_nnz), sum(self.lu_nnz)
        return {
            "mesh.build_s": s["mesh.build_s"],
            "polyspace.element_contexts": c["polyspace.element_contexts_s"],
            "polyspace.element_contexts_s": s["polyspace.element_contexts_s"],
            "polyspace.edge_contexts_s": s["polyspace.edge_contexts_s"],
            "spaces.discretization_s": s["spaces.discretization_s"],
            "spaces.interpolate_s": s["spaces.interpolate_s"],
            "operators.build_packs_s": s["operators.build_packs_s"],
            "operators.local_pack_calls": c["operators.local_pack_calls"],
            "operators.theta_product_s": s["operators.theta_product_s"],
            "operators.global_gradient_s": s["operators.global_gradient_s"],
            "hho.build_hho_packs_s": s["hho.build_hho_packs_s"],
            "hho.local_pack_calls": c["hho.local_pack_calls"],
            "hho.jump_penalisation_s": s["hho.jump_penalisation_s"],
            "system.assembly_s": s["system.assembly_s"],
            "system.matrix_s": s["system.matrix_s"],
            "system.factor_s": s["system.factor_s"],
            "system.lu_solve_s": s["system.lu_solve_s"],
            "system.solve_self_s": s["system.solve_self_s"],
            "system.lu_nnz": max(self.lu_nnz, default=0),
            "system.kff_nnz": max(self.kff_nnz, default=0),
            "system.fill_ratio": lu / kff if kff else 0.0,
            "system.lu_solves": c["system.lu_solve_s"],
            "system.backward_error": max(backward, default=0.0),
            "system.roundoff_error": roundoff_error,
            "system.load_vector_s": s["system.load_vector_s"],
            "system.error_s": s["system.error_s"],
            "solutions.calls": c["solutions.eval_s"],
            "solutions.eval_s": s["solutions.eval_s"],
            "harness.write_outputs_s": s["harness.write_outputs_s"],
            "kernels.einsum_calls": c["kernels.einsum_calls"],
            "kernels.linalg_calls": c["kernels.linalg_calls"],
        }


def _ddrplate_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "ddrplate" or name.startswith("ddrplate."))]
