"""Homogeneous second-order master-equation solver on the effective space,
plus the combinator that evolves each component of a separable initial state
under its own projector and sums the reduced trajectories.

The solver deliberately refuses unprojected initial states instead of
projecting them silently: a nonzero irrelevant part means the homogeneous
equation being solved is not the right equation for that state, and hiding
that is exactly the failure mode this package exists to demonstrate. Callers
apply the projector first (see :func:`ecps.superop.projector_superop`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .exact import reduced_from_sector
from .linalg import is_density
from .superop import apply_superop, projector_superop, unvec, vec

#: residual above which an initial state counts as unprojected
HOMOGENEITY_TOL = 1e-10
#: spectral tolerance for the steady-state kernel projection, relative to the
#: largest eigenvalue modulus of the generator (every rate scales with lambda)
KERNEL_TOL = 1e-9


class HomogeneityError(ValueError):
    """Initial state has a nonzero irrelevant part for the chosen projector."""


class DivergenceError(RuntimeError):
    """Generator has a spectral component growing in time; no steady state."""


@dataclass
class TclSolution:
    """Solution of d/dt rho = K rho on the effective space.

    states has shape (T, 4, 4), system_states (T, 2, 2). theta records the
    projector angle used to build K (None for combined multi-projector
    solutions); xi and lam are carried through for provenance.
    """

    times: np.ndarray
    states: np.ndarray
    system_states: np.ndarray
    theta: float | None
    xi: float | None = None
    lam: float | None = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EcpsComponent:
    """One component of a separable decomposition: probability weight, its
    effective state, and the projector angle assigned to it."""

    weight: float
    state: np.ndarray
    theta: float


def homogeneity_residual(rho0: np.ndarray, theta: float) -> float:
    """Max-norm of the irrelevant part (I - P_theta) rho0."""
    rho0 = np.asarray(rho0, dtype=complex)
    return float(np.abs(apply_superop(projector_superop(theta), rho0) - rho0).max())


def solve_tcl(k: np.ndarray, rho0: np.ndarray, times, theta: float,
              xi: float | None = None, lam: float | None = None) -> TclSolution:
    """Propagate vec(rho(t)) = expm(K t) vec(rho0) on the given time grid.

    ``rho0`` must already be invariant under the projector for ``theta``
    (within HOMOGENEITY_TOL); otherwise a HomogeneityError signals a
    misconfigured homogeneous equation.
    """
    k = np.asarray(k, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    times = np.asarray(times, dtype=float)
    if k.shape != (16, 16):
        raise ValueError("generator must be 16 x 16")
    if rho0.shape != (4, 4):
        raise ValueError("initial effective state must be 4 x 4")
    resid = homogeneity_residual(rho0, theta)
    if resid > HOMOGENEITY_TOL:
        raise HomogeneityError(
            f"initial state is not invariant under the theta={theta:.6g} projector "
            f"(residual {resid:.3e}); apply the projector first")

    v0 = vec(rho0)
    states = np.empty((times.size, 4, 4), dtype=complex)
    # uniform grids reuse one propagator per step; general grids get expm(K t)
    dts = np.diff(times)
    if times.size > 1 and np.allclose(dts, dts[0], rtol=1e-12, atol=1e-15):
        step = expm(k * dts[0])
        cur = expm(k * times[0]) @ v0 if abs(times[0]) > 0 else v0.copy()
        for i in range(times.size):
            states[i] = unvec(cur)
            if i + 1 < times.size:
                cur = step @ cur
    else:
        for i, t in enumerate(times):
            states[i] = unvec(expm(k * t) @ v0)
    system = np.array([reduced_from_sector(s) for s in states])
    return TclSolution(times=times, states=states, system_states=system,
                       theta=theta, xi=xi, lam=lam)


def ecps_evolve(components, xi: float, lam: float, times) -> TclSolution:
    """Evolve each component under its own projected generator and sum.

    Every component state must be invariant under its own projector; a
    violation raises HomogeneityError naming the component. Weights must be
    positive and sum to 1.
    """
    from .superop import tcl_generator

    components = list(components)
    if not components:
        raise ValueError("need at least one component")
    weights = np.array([c.weight for c in components], dtype=float)
    if np.any(weights <= 0):
        raise ValueError("component weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"component weights must sum to 1, got {weights.sum()!r}")
    for i, comp in enumerate(components):
        state = np.asarray(comp.state, dtype=complex)
        if not is_density(state, 1e-9):
            raise ValueError(f"component {i} state is not a density matrix")
        resid = homogeneity_residual(state, comp.theta)
        if resid > HOMOGENEITY_TOL:
            raise HomogeneityError(
                f"component {i} (theta={comp.theta:.6g}) violates the homogeneity "
                f"precondition: residual {resid:.3e}")
    times = np.asarray(times, dtype=float)
    total_states = np.zeros((times.size, 4, 4), dtype=complex)
    parts = []
    for comp in components:
        k = tcl_generator(comp.theta, xi, lam)
        sol = solve_tcl(k, np.asarray(comp.state, complex), times, comp.theta,
                        xi=xi, lam=lam)
        total_states += comp.weight * sol.states
        parts.append({"theta": comp.theta, "weight": comp.weight})
    system = np.array([reduced_from_sector(s) for s in total_states])
    thetas = {c.theta for c in components}
    return TclSolution(times=times, states=total_states, system_states=system,
                       theta=components[0].theta if len(thetas) == 1 else None,
                       xi=xi, lam=lam, meta={"components": parts})


def steady_state(k: np.ndarray, rho0: np.ndarray, theta: float) -> np.ndarray:
    """t -> infinity limit of solve_tcl via spectral projection onto ker K.

    Conserved quantities make multi-dimensional kernels the norm here, so the
    limit is the projection of rho0 onto the kernel along the decaying
    spectral subspaces. The kernel and the divergence test are judged relative
    to the largest eigenvalue modulus of K, so the result does not depend on
    the overall rate scale; K = 0 returns rho0. Raises DivergenceError when K
    has an eigenvalue with positive real part (the homogeneous equation has no
    steady state then).
    """
    k = np.asarray(k, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    resid = homogeneity_residual(rho0, theta)
    if resid > HOMOGENEITY_TOL:
        raise HomogeneityError(
            f"initial state is not invariant under the theta={theta:.6g} projector "
            f"(residual {resid:.3e})")
    w, v = np.linalg.eig(k)
    tol = KERNEL_TOL * np.abs(w).max()
    if np.any(w.real > tol):
        raise DivergenceError(
            f"generator has eigenvalues with positive real part "
            f"(max {w.real.max():.3e}); solution diverges as t -> infinity")
    selector = (np.abs(w) <= tol).astype(float)
    coeffs = np.linalg.solve(v, vec(rho0))
    return unvec(v @ (selector * coeffs))
