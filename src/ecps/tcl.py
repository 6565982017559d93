"""Homogeneous second-order master-equation solver on the effective space,
plus the combinator that evolves each component of a separable initial state
under its own projector and sums the effective states.

Components are ``(weight, 4 x 4 effective state, projector angle theta)``
triples, and both solvers return the (T, 4, 4) effective states.

The projected generators (:func:`ecps.superop.tcl_generator`) are Hermitian
as 16 x 16 matrices, so their eigenvectors are orthonormal and the long-time
limit is an orthogonal projection onto their kernel. :func:`solve_tcl` steps
with expm(K dt) on grids from 0 whose steps agree to 1e-12 of the span, as
``np.linspace`` steps do (they vary by about eps times the span).

The solver deliberately refuses unprojected initial states instead of
projecting them silently: a nonzero irrelevant part means the homogeneous
equation being solved is not the right equation for that state, and hiding
that is exactly the failure mode this package exists to demonstrate. Callers
apply the projector first (see :func:`ecps.superop.projector_superop`).
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .linalg import STRUCTURAL_TOL, eig_hermitian, is_density
from .superop import (apply_superop, projector_superop, tcl_generator, unvec,
                      vec)

#: residual above which an initial state counts as unprojected
HOMOGENEITY_TOL = 1e-10
#: spectral tolerance for the steady-state kernel projection, relative to the
#: largest eigenvalue modulus of the generator (every rate scales with lambda)
KERNEL_TOL = 1e-9
#: how far the ECPS component weights may sum away from 1 (the config check
#: uses the same bound, so a config that validates also runs)
WEIGHT_TOL = 1e-12


class HomogeneityError(ValueError):
    """Initial state has a nonzero irrelevant part for the chosen projector."""


class DivergenceError(RuntimeError):
    """Generator has a spectral component growing in time; no steady state."""


def _require_homogeneous(rho0: np.ndarray, theta: float):
    """Raise HomogeneityError when the irrelevant part (I - P_theta) rho0
    exceeds HOMOGENEITY_TOL in max-norm."""
    resid = float(np.abs(apply_superop(projector_superop(theta), rho0) - rho0).max())
    if resid > HOMOGENEITY_TOL:
        raise HomogeneityError(
            f"initial state is not invariant under the theta={theta:.6g} projector "
            f"(residual {resid:.3e}); apply the projector first")


def solve_tcl(k: np.ndarray, rho0: np.ndarray, times, theta: float) -> np.ndarray:
    """Propagate vec(rho(t)) = expm(K t) vec(rho0) on a uniform time grid with
    the step propagator expm(K dt); returns the (T, 4, 4) effective states.

    ``times`` must be a finite uniform grid increasing from 0, or the single
    time 0; any other grid raises ValueError. ``rho0`` must already be
    invariant under the projector for ``theta`` (within HOMOGENEITY_TOL);
    otherwise a HomogeneityError signals a misconfigured homogeneous
    equation.
    """
    k = np.asarray(k, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    times = np.asarray(times, dtype=float)
    if k.shape != (16, 16):
        raise ValueError("generator must be 16 x 16")
    if rho0.shape != (4, 4):
        raise ValueError("initial effective state must be 4 x 4")
    if times.ndim != 1 or times.size == 0 or not abs(times[0]) <= 1e-12 \
            or not np.isfinite(times).all():
        raise ValueError("times must be a uniform grid increasing from 0")
    dts = np.diff(times)
    dt = dts[0] if dts.size else 0.0
    if dts.size and not (dt > 0 and np.abs(dts - dt).max() <= 1e-12 * times[-1]):
        raise ValueError("times must be a uniform grid increasing from 0")
    _require_homogeneous(rho0, theta)

    step = expm(k * dt)
    vecs = np.empty((times.size, 16), dtype=complex)
    vecs[0] = vec(rho0)
    for i in range(1, times.size):
        vecs[i] = step @ vecs[i - 1]
    return unvec(vecs)


def ecps_evolve(components, xi: float, lam: float, times) -> np.ndarray:
    """Evolve each (weight, state, theta) component under its own projected
    generator and return the weighted sum of the (T, 4, 4) effective states.

    Every component state must be invariant under its own projector; a
    violation raises HomogeneityError naming the component. Weights must be
    positive and sum to 1 within WEIGHT_TOL.
    """
    components = list(components)
    if not components:
        raise ValueError("need at least one component")
    weights = np.array([w for w, _, _ in components], dtype=float)
    if np.any(weights <= 0):
        raise ValueError("component weights must be positive")
    if abs(weights.sum() - 1.0) > WEIGHT_TOL:
        raise ValueError(f"component weights must sum to 1, got {weights.sum()!r}")
    times = np.asarray(times, dtype=float)
    total = np.zeros((times.size, 4, 4), dtype=complex)
    for i, (weight, state, theta) in enumerate(components):
        state = np.asarray(state, dtype=complex)
        if not is_density(state, 1e-9):
            raise ValueError(f"component {i} state is not a density matrix")
        k = tcl_generator(theta, xi, lam)
        try:
            total += weight * solve_tcl(k, state, times, theta)
        except HomogeneityError as exc:
            raise HomogeneityError(f"component {i}: {exc}") from exc
    return total


def steady_state(k: np.ndarray, rho0: np.ndarray, theta: float) -> np.ndarray:
    """t -> infinity limit of solve_tcl: the orthogonal projection of rho0
    onto ker K.

    ``k`` must be Hermitian (relative to its largest entry, within the
    structural tolerance), as every projected generator is; anything else
    raises ValueError. With orthonormal eigenvectors V, expm(K t) tends to
    V0 V0^dagger, V0 the eigenvectors of the zero eigenvalues. Conserved
    quantities make multi-dimensional kernels the norm here. The kernel and
    the divergence test are judged relative to the largest eigenvalue
    modulus of K, so the result does not depend on the overall rate scale;
    K = 0 returns rho0. Raises DivergenceError when K has a positive
    eigenvalue (the homogeneous equation has no steady state then).
    """
    k = np.asarray(k, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    _require_homogeneous(rho0, theta)
    w, v = eig_hermitian(k, STRUCTURAL_TOL * np.abs(k).max())
    tol = KERNEL_TOL * np.abs(w).max()
    if w[-1] > tol:
        raise DivergenceError(
            f"generator has positive eigenvalues (max {w[-1]:.3e}); "
            f"solution diverges as t -> infinity")
    kernel = v[:, np.abs(w) <= tol]
    return unvec(kernel @ (kernel.conj().T @ vec(rho0)))
