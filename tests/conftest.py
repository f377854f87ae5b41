"""Shared fixtures and independent test oracles.

The oracles deliberately avoid the library's production code paths: the
projection oracle solves a weighted least-squares problem on raw scaled
monomials, the defining-equation oracles rebuild the right-hand-side
functionals with a fresh quadrature four degrees finer, and the derivative
oracle uses Richardson-extrapolated central differences.
"""

from importlib import resources

import numpy as np
import pytest

from ddrplate.harness import PROPERTY_TEST_SEED
from ddrplate.mesh import load_mesh, triangular_mesh
from ddrplate.operators import build_packs
from ddrplate.spaces import Discretization

ASSETS = resources.files("ddrplate") / "assets" / "meshes"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(PROPERTY_TEST_SEED)


@pytest.fixture(scope="session")
def meshes():
    return {
        "tri": triangular_mesh(2),
        "hexa": load_mesh(str(ASSETS / "hexa_01.json")),
        "locref": load_mesh(str(ASSETS / "locref_01.json")),
    }


class _DiscCache:
    def __init__(self, meshes):
        self.meshes = meshes
        self._discs = {}
        self._packs = {}
        self._hho = {}

    def disc(self, family, k):
        key = (family, k)
        if key not in self._discs:
            self._discs[key] = Discretization(self.meshes[family], k)
        return self._discs[key]

    def packs(self, family, k):
        key = (family, k)
        if key not in self._packs:
            self._packs[key] = build_packs(self.disc(family, k))
        return self._packs[key]

    def hho(self, family, k):
        from ddrplate.hho import build_hho_packs
        key = (family, k)
        if key not in self._hho:
            self._hho[key] = build_hho_packs(self.disc(family, k),
                                             self.packs(family, k))
        return self._hho[key]


@pytest.fixture(scope="session")
def cache(meshes):
    return _DiscCache(meshes)


# ---------------------------------------------------------------------------
# oracles


def lstsq_projection_oracle(points, weights, basis_vals, f_vals):
    """L2 projection by weighted least squares on raw (non-orthonormalized)
    basis values; returns the projected field at the quadrature points."""
    sw = np.sqrt(weights)
    if basis_vals.ndim == 3:          # vector basis (nq, n, 2)
        a = np.concatenate([basis_vals[:, :, 0] * sw[:, None],
                            basis_vals[:, :, 1] * sw[:, None]])
        b = np.concatenate([f_vals[:, 0] * sw, f_vals[:, 1] * sw])
        coef, *_ = np.linalg.lstsq(a, b, rcond=None)
        return np.einsum("n,qnc->qc", coef, basis_vals)
    a = basis_vals * sw[:, None]
    coef, *_ = np.linalg.lstsq(a, f_vals * sw, rcond=None)
    return basis_vals @ coef


def richardson_diff(f, x, i, h=1e-4):
    """Richardson-extrapolated central difference of a (vectorized) field
    along coordinate i; accurate to ~1e-10 for smooth fields."""
    x = np.atleast_2d(x)
    e = np.zeros(2)
    e[i] = 1.0

    def central(step):
        return (np.asarray(f(x + step * e)) - np.asarray(f(x - step * e))) / (2 * step)

    d1, d2 = central(h), central(h / 2)
    return (4.0 * d2 - d1) / 3.0


def fd_gradient_scalar(f, x, h=1e-4):
    return np.stack([richardson_diff(f, x, 0, h), richardson_diff(f, x, 1, h)], axis=-1)


def fd_jacobian_vector(f, x, h=1e-4):
    """(n, 2, 2) array with entry [.., a, b] = d_b f_a."""
    cols = [richardson_diff(f, x, b, h) for b in range(2)]
    return np.stack(cols, axis=-1)


def refined_quadrature(ctx, extra=4):
    """Fresh element rule, four degrees finer than the production one."""
    from ddrplate.polyspace import element_quadrature
    rule = element_quadrature(ctx.mesh, ctx.element, 2 * ctx.k + 6 + extra)
    return rule.points, rule.weights


def refined_edge_quadrature(ctx, led, extra=4):
    """Fresh edge rule, four degrees finer than the production one."""
    from ddrplate.polyspace import build_edge_context
    rule = build_edge_context(ctx.mesh, led.ctx.edge, ctx.k, 2 * ctx.k + 4 + extra)
    return rule.points, rule.weights


def theta_field_values(ctx, pack, sp, coeffs, points):
    """Evaluate the rotation potential field of a local DOF vector."""
    from ddrplate.polyspace import dim_P
    np_k = dim_P(ctx.k)
    pot = pack.PT @ coeffs
    phi = ctx.scal.eval(points)[:, :np_k]
    return np.stack([phi @ pot[:np_k], phi @ pot[np_k:]], axis=-1)


def edge_dof_values(disc, edge_id, coeffs, s):
    """Evaluate the vector edge polynomial stored in a global rotation vector
    at reference coordinates s."""
    sp = disc.theta_space
    ec = disc.edge_ctxs[edge_id]
    psi = ec.family.eval_s(s)[:, :disc.k + 1]
    tang = psi @ coeffs[sp.edge_tangential_slots(edge_id)]
    norm = psi @ coeffs[sp.edge_normal_slots(edge_id)]
    t, n = ec.edge.tangent, ec.edge.normal
    return tang[:, None] * t[None, :] + norm[:, None] * n[None, :]


def u_trace_values(disc, pack, element, u_local, j, s):
    """Evaluate the reconstructed skeleton trace on local edge j."""
    ec = disc.elem_ctxs[element.id].edges[j].ctx
    coef = pack.trace[j] @ u_local
    return ec.family.eval_s(s) @ coef
