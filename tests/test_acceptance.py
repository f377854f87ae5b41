"""Acceptance suite: exact operator identities, convergence rates, thickness
robustness, manufactured-solution sanity and structural checks, each printed
as one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np
import pytest

from conftest import ASSETS, cells, fd_gradient_scalar, fd_jacobian_vector, per_group
from ddrplate.harness import (PROPERTY_TEST_SEED, RunConfig, run_convergence,
                              solve_case)
from ddrplate.hho import local_theta_interpolation
from ddrplate.mesh import load_mesh, triangular_mesh
from ddrplate.operators import _vp_k, build_global_gradient
from ddrplate.polyspace import dim_P
from ddrplate.solutions import analytical_solution, get_solution, seminorm_probe
from ddrplate.spaces import Discretization, interpolate_theta, interpolate_u
from ddrplate.system import MaterialParams, PlateSystem

FAMILIES = ("tri", "hexa", "locref")
DEGREES = (0, 1, 2, 3)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _exps(l):
    return [(d - i, i) for d in range(l + 1) for i in range(d + 1)]


def _poly_scalar(coefs, l):
    def v(x):
        xs = np.atleast_2d(x)
        vander = np.stack([xs[:, 0] ** a * xs[:, 1] ** b for a, b in _exps(l)], axis=1)
        return vander @ coefs
    return v


def _poly_grad(coefs, l):
    exps = _exps(l)

    def g(x):
        xs = np.atleast_2d(x)
        out = np.zeros((len(xs), 2))
        for i, (a, b) in enumerate(exps):
            if a >= 1:
                out[:, 0] += coefs[i] * a * xs[:, 0] ** (a - 1) * xs[:, 1] ** b
            if b >= 1:
                out[:, 1] += coefs[i] * b * xs[:, 0] ** a * xs[:, 1] ** (b - 1)
        return out

    return g


# ---------------------------------------------------------------------------
# criterion 1: operator identity suite


def test_criterion_1a_commutation(cache, rng):
    start = time.perf_counter()
    worst = 0.0
    for family in FAMILIES:
        for k in DEGREES:
            disc = cache.disc(family, k)
            G, _ = build_global_gradient(disc, cache.packs(family, k))
            cases = [
                (lambda x: np.ones(len(x)), lambda x: np.zeros((len(x), 2))),
                (lambda x: x[:, 0], lambda x: np.tile([1.0, 0.0], (len(x), 1))),
                (lambda x: x[:, 0] * x[:, 1],
                 lambda x: np.stack([x[:, 1], x[:, 0]], -1)),
                (lambda x: x[:, 0] ** 2 * x[:, 1],
                 lambda x: np.stack([2 * x[:, 0] * x[:, 1], x[:, 0] ** 2], -1)),
            ]
            coefs = rng.standard_normal(dim_P(k + 2))
            cases.append((_poly_scalar(coefs, k + 2), _poly_grad(coefs, k + 2)))
            for v, grad_v in cases:
                lhs = G @ interpolate_u(disc, v).values
                rhs = interpolate_theta(disc, grad_v, tangential_only=True).values
                err = np.abs(lhs - rhs).max() / (np.abs(rhs).max() + 1.0)
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _report("criterion 1a (gradient/interpolation commutation)", ok,
            f"worst coefficientwise error {worst:.2e}, runtime {elapsed:.1f} s")


def test_criterion_1b_projection_identities(cache):
    worst = 0.0
    for family in FAMILIES:
        for k in DEGREES:
            disc = cache.disc(family, k)
            sp = disc.theta_space
            np_km1, np_k1 = dim_P(k - 1), dim_P(k + 1)
            packs = cache.packs(family, k)
            Js = per_group(local_theta_interpolation, disc, packs)
            for ctx, pack, J in cells(disc, packs, Js):
                # potential projections return the element components
                comp = np.zeros((sp.elem_dim, pack.n_theta))
                comp[:sp.n_roly, :sp.n_roly] = np.eye(sp.n_roly)
                comp[sp.n_roly:, sp.n_roly:sp.elem_dim] = np.eye(sp.n_croly)
                lhs = pack.moments[:, _vp_k(k)] @ pack.PT
                worst = max(worst, np.abs(lhs - comp).max() if comp.size else 0.0)
                # vP^{k-1} projection of potential-of-interpolate vs direct
                if np_km1 == 0:
                    continue
                ptj = pack.PT @ J
                np_k = dim_P(k)
                trunc_pt = np.vstack([ptj[:np_km1], ptj[np_k:np_k + np_km1]])
                trunc_id = np.zeros((2 * np_km1, 2 * np_k1))
                trunc_id[:np_km1, :np_km1] = np.eye(np_km1)
                trunc_id[np_km1:, np_k1:np_k1 + np_km1] = np.eye(np_km1)
                worst = max(worst, np.abs(trunc_pt - trunc_id).max())
    ok = worst <= 1e-10
    _report("criterion 1b (potential projection identities)", ok,
            f"worst matrix defect {worst:.2e}")


def test_criterion_1c_stabilisation_consistency(cache, rng):
    worst = 0.0
    for family in FAMILIES:
        for k in DEGREES:
            disc = cache.disc(family, k)
            Js = per_group(local_theta_interpolation, disc, cache.packs(family, k))
            for ctx, J, hho in cells(disc, Js, cache.hho(family, k)):
                c = rng.standard_normal(J.shape[1])
                ieta = J @ c
                res = hho.sT @ ieta
                for _ in range(20):
                    xi = rng.standard_normal(len(ieta))
                    bound = np.linalg.norm(ieta) * np.linalg.norm(xi)
                    worst = max(worst, abs(xi @ res) / max(bound, 1e-300))
    ok = worst <= 1e-10
    _report("criterion 1c (stabilisation polynomial consistency)", ok,
            f"worst normalized residual {worst:.2e}")


def test_criterion_1d_normal_component_insensitivity(cache, rng):
    worst = 0.0
    for family in FAMILIES:
        for k in DEGREES:
            disc = cache.disc(family, k)
            sp = disc.theta_space
            from ddrplate.operators import assemble_theta_product
            M = assemble_theta_product(disc, cache.packs(family, k))
            vec = np.zeros(sp.dim)
            for e in range(disc.mesh.n_edges):
                vec[sp.edge_normal_slots(e)] = rng.standard_normal(k + 1)
            scale = abs(M).max() * np.abs(vec).max()
            worst = max(worst, np.abs(M @ vec).max() / scale)
    ok = worst <= 1e-12
    _report("criterion 1d (product ignores normal edge components)", ok,
            f"worst normalized functional {worst:.2e}")


def test_criterion_1e_reconstruction_exactness(cache):
    worst = 0.0
    for family in FAMILIES:
        for k in DEGREES:
            disc = cache.disc(family, k)
            np_k1 = dim_P(k + 1)
            Js = per_group(local_theta_interpolation, disc, cache.packs(family, k))
            for ctx, J, hho in cells(disc, Js, cache.hho(family, k)):
                defect = hho.P1 @ J - np.eye(2 * np_k1)
                worst = max(worst, np.abs(defect).max())
    ok = worst <= 1e-10
    _report("criterion 1e (degree k+1 reconstruction exactness)", ok,
            f"worst matrix defect {worst:.2e}")


# ---------------------------------------------------------------------------
# criteria 2, 3 and the structural checks share one triangular sweep


@pytest.fixture(scope="module")
def sweep():
    """Polynomial-solution convergence on the triangular family, h halving
    from sqrt(2)/4, k in {0,1,2}, t in {1e-1, 1e-3}; the finest k = 0 system
    is also solved at t = 1e-5 for the locking check."""
    t0 = time.perf_counter()
    data = {"errors": {}, "residuals": [], "asymmetric": [], "locking": {}}
    for k in (0, 1, 2):
        for n in (4, 8, 16, 32):
            mesh = triangular_mesh(n)
            system = PlateSystem(Discretization(mesh, k))
            thicknesses = [1e-1, 1e-3]
            if k == 0 and n == 32:
                thicknesses.append(1e-5)
            for t in thicknesses:
                err, rep, _ = solve_case(system, MaterialParams(t=t), "polynomial")
                data["errors"].setdefault((k, t), []).append((mesh.h, err))
                data["residuals"].append(rep.residual)
                K = system.full_matrix(MaterialParams(t=t))
                data["asymmetric"].append((K != K.T).nnz)
                if k == 0 and n == 32:
                    data["locking"][t] = err
            del system
    data["runtime"] = time.perf_counter() - t0
    return data


def test_criterion_2_polynomial_convergence(sweep):
    lines = []
    ok = True
    for (k, t), series in sweep["errors"].items():
        if t not in (1e-1, 1e-3):
            continue
        (h1, e1), (h2, e2) = series[-2], series[-1]
        rate = np.log(e1 / e2) / np.log(h1 / h2)
        good = rate >= (k + 1) - 0.3
        ok = ok and good
        lines.append(f"k={k} t={t:.0e}: rate {rate:.2f}")
    detail = "; ".join(lines) + f"; total runtime {sweep['runtime']:.0f} s"
    ok = ok and sweep["runtime"] <= 600.0
    _report("criterion 2 (rates k+1 on the triangular family)", ok, detail)


def test_criterion_3_locking_robustness(sweep):
    errs = [sweep["locking"][t] for t in (1e-1, 1e-3, 1e-5)]
    ratio = max(errs) / min(errs)
    ok = ratio <= 5.0
    _report("criterion 3 (k = 0 errors stable as t -> 0)", ok,
            f"errors {[f'{e:.3e}' for e in errs]}, spread factor {ratio:.2f}")


# ---------------------------------------------------------------------------
# criterion 4: manufactured-solution sanity


def test_criterion_4_manufactured_sanity(rng):
    worst_fd = 0.0
    x = 0.05 + 0.9 * rng.random((40, 2))
    for name in ("polynomial", "analytical"):
        for t in (1e-1, 1e-3):
            sol = get_solution(name, MaterialParams(t=t))
            pts = x if not (name == "analytical" and t == 1e-3) else \
                np.column_stack([0.3 + 0.65 * x[:, 0], x[:, 1]])
            for got, ref in ((sol.grad_u(pts), fd_gradient_scalar(sol.u, pts)),
                             (sol.grad_theta(pts), fd_jacobian_vector(sol.theta, pts)),
                             (sol.grad_gamma(pts), fd_jacobian_vector(sol.gamma, pts))):
                worst_fd = max(worst_fd,
                               np.abs(got - ref).max() / (np.abs(ref).max() + 1))
            worst_fd = max(worst_fd, np.abs(sol.balance_residual(pts)).max()
                           / (np.abs(sol.f(pts)).max() + 1))
    s1 = analytical_solution(MaterialParams(t=1e-1))
    s3 = analytical_solution(MaterialParams(t=1e-3))
    f_dev = np.abs(s1.f(x) - s3.f(x)).max() / np.abs(s1.f(x)).max()
    h1_a = seminorm_probe(analytical_solution(MaterialParams(t=1e-5)), 1)
    h1_b = seminorm_probe(analytical_solution(MaterialParams(t=1e-7)), 1)
    exponent = np.log(h1_b / h1_a) / np.log(1e-5 / 1e-7)
    ok = worst_fd <= 1e-8 and f_dev <= 1e-12 and 0.25 <= exponent <= 1.0
    _report("criterion 4 (strong-form residuals, t-free load, layer growth)", ok,
            f"worst FD deviation {worst_fd:.2e}, load t-dependence {f_dev:.1e}, "
            f"|gamma|_H1 exponent {exponent:.2f} (target 0.5, factor 2)")


# ---------------------------------------------------------------------------
# criterion 5: boundary-layer solution convergence


def test_criterion_5_analytical_convergence():
    ok = True
    lines = []
    for k in (0, 1):
        errs, hs = [], []
        for n in (4, 8, 16):
            mesh = triangular_mesh(n)
            system = PlateSystem(Discretization(mesh, k))
            err, rep, _ = solve_case(system, MaterialParams(t=1e-1), "analytical")
            errs.append(err)
            hs.append(mesh.h)
        rate = np.log(errs[-2] / errs[-1]) / np.log(hs[-2] / hs[-1])
        good = rate >= k + 0.7
        ok = ok and good
        lines.append(f"k={k}: rate {rate:.2f}")
    # k = 0 on the bundled polygonal meshes, finest step, every thickness:
    # the boundary jump p1_T - theta_E is consistent with the imposed traces
    for family in ("hexa", "locref"):
        meshes = [load_mesh(str(ASSETS / f"{family}_{i:02d}.json")) for i in (3, 4)]
        systems = [PlateSystem(Discretization(mesh, 0)) for mesh in meshes]
        rates = []
        for t in (1e-1, 1e-3, 1e-5):
            errs = [solve_case(system, MaterialParams(t=t), "analytical")[0] for system in systems]
            rates.append(np.log(errs[0] / errs[1]) / np.log(meshes[0].h / meshes[1].h))
        ok = ok and min(rates) >= 0.7
        lines.append(f"{family} k=0: rates " + ", ".join(f"{r:.2f}" for r in rates))
    _report("criterion 5 (non-homogeneous boundary-layer rates)", ok,
            "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 6: structural checks


def test_criterion_6_structure(sweep, rng, tmp_path):
    asymmetric = max(sweep["asymmetric"])
    res = max(sweep["residuals"])

    system = PlateSystem(Discretization(triangular_mesh(8), 1))
    K = system.full_matrix(MaterialParams(t=1e-3))
    c_obs = 0.0
    positive = True
    for _ in range(200):
        v = np.zeros(system.n_theta + system.n_u)
        v[system.free] = rng.standard_normal(system.free.size)
        quad = v @ (K @ v)
        positive = positive and quad > 0.0
        nrm2 = system.energy_norm(MaterialParams(t=1e-3), v[:system.n_theta],
                                  v[system.n_theta:]) ** 2
        c_obs = max(c_obs, nrm2 / quad)

    cfg = dict(mesh_family="tri", refinements=2, degree=0, thickness=0.1,
               solution="polynomial", fmt="both")
    run_convergence(RunConfig(out_dir=str(tmp_path / "r1"), **cfg))
    run_convergence(RunConfig(out_dir=str(tmp_path / "r2"), **cfg))
    bitwise = all(
        (tmp_path / "r1" / f).read_bytes() == (tmp_path / "r2" / f).read_bytes()
        for f in ("data_rates.dat", "data_rates.csv"))

    ok = asymmetric == 0 and res <= 1e-10 and positive and bitwise
    _report("criterion 6 (symmetry, positivity, residuals, reproducibility)", ok,
            f"entries unequal to their mirror {asymmetric}, "
            f"max solver residual {res:.1e}, "
            f"200 positive quadratic forms (observed coercivity constant "
            f"{c_obs:.1f}), bitwise reruns {bitwise}")


def test_seed_is_recorded():
    assert PROPERTY_TEST_SEED == 218650
