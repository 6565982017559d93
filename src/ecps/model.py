"""Spin-band model: a degenerate two-state system coupled to an environment of
N equidistant, doubly degenerate energy levels.

The environment has 2N states |n, i> with level n in 1..N and branch i in
{1, 2}; the composite space has dimension 4N. All modules use one basis
ordering, system-major, then level, then branch: |m, n, i> has the flat
index m * 2N + (n - 1) * 2 + (i - 1) with m in {0, 1}.

Two interaction channels couple system and environment:

* branch channel -- flips the system up (``SIGMA_PLUS``) while moving an
  environment excitation from branch 2 to branch 1, weight ``1 - xi``;
* rotated channel -- the same structure conjugated into the x bases of both
  the system and the branch pair (``SIGMA_PLUS_X``, |n,+> <n,-|),
  weight ``xi``.

Couplings are iid complex Gaussians with unit second moment <|c|^2> = 1 and
vanishing pseudo-variance <c c> = 0, drawn from the counter-based numpy
Philox generator so runs are bit-reproducible from a 64-bit seed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import is_density

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: maps |0> to |1> (matrix [[0,0],[1,0]] in the fixed |0>,|1> ordering)
SIGMA_PLUS = 0.5 * (PAULI_X - 1j * PAULI_Y)
#: x-basis counterpart of SIGMA_PLUS: maps |+> to -i|-> with |+-> = (|0> +- |1>)/sqrt(2)
SIGMA_PLUS_X = 0.5 * (PAULI_Y - 1j * PAULI_Z)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one model instance.

    n_levels: number of environment levels N (the environment has 2N states)
    delta_eps: band width (energy units)
    alpha: coupling strength (dimensionless)
    xi: interaction mixing in [0, 1]; 0 = pure branch channel, 1 = pure rotated channel
    seed: 64-bit RNG seed (numpy Philox, counter based)
    """

    n_levels: int
    delta_eps: float
    alpha: float
    xi: float
    seed: int

    def __post_init__(self):
        if self.n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        if self.delta_eps <= 0:
            raise ValueError("delta_eps must be > 0")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("xi must lie in [0, 1]")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")

    @property
    def gamma(self) -> float:
        """Band density prefactor 2*pi/delta_eps."""
        return 2.0 * np.pi / self.delta_eps

    @property
    def relaxation_rate(self) -> float:
        """Golden-rule rate lambda = alpha^2 * gamma * N that sets the clock
        of the reduced dynamics."""
        return self.alpha ** 2 * self.gamma * self.n_levels

    def with_seed(self, seed: int) -> "ModelParams":
        return replace(self, seed=int(seed))


@dataclass(frozen=True)
class CouplingSet:
    """One draw of the two independent N x N complex Gaussian coupling matrices."""

    c: np.ndarray
    c_prime: np.ndarray


def sample_couplings(params: ModelParams) -> CouplingSet:
    """Draw both coupling matrices for one realization.

    Entries are (x + iy)/sqrt(2) with x, y standard normal, so
    <|c|^2> = 1 and <c^2> = 0. The branch-channel matrix ``c`` is drawn
    first, then ``c_prime``, from a single counter-based Philox 4x64-10
    stream keyed by ``params.seed``.
    """
    rng = np.random.Generator(np.random.Philox(int(params.seed) & (2 ** 64 - 1)))
    n = params.n_levels

    def draw():
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)

    return CouplingSet(c=draw(), c_prime=draw())


def build_h0(params: ModelParams) -> np.ndarray:
    """Free Hamiltonian: diagonal energy delta_eps * n / N for state (m, n, i).

    Acts only on the environment level index; the two system states are
    degenerate and both branches of a level share its energy.
    """
    energies = np.repeat(params.delta_eps * np.arange(1, params.n_levels + 1)
                         / params.n_levels, 2)
    return np.diag(np.tile(energies, 2)).astype(complex)


def build_v(params: ModelParams, couplings: CouplingSet):
    """Interaction terms (v1, v2), both Hermitian 4N x 4N matrices.

    v1 = (1-xi) * (SIGMA_PLUS (x) B + h.c.) moves branch 2 -> 1,
    v2 = xi * (SIGMA_PLUS_X (x) B' + h.c.) moves branch - -> + in the
    rotated pair basis. Prefactors (1-xi) and xi are included.

    With B = sum c[n1,n2] |n1,1><n2,2|, v1 holds c on the strided slice of
    rows |1,n1,1> and columns |0,n2,2> and its adjoint on the transposed
    slice. With s = (-1, 1) and t = (1, -1), SIGMA_PLUS_X[l, m] = (i/2) s_l
    and the branch entries of |n1,+><n2,-| are (1/2) t_k, so the (system l,
    branch j; system m, branch k) slice of SIGMA_PLUS_X (x) B' is s_l t_k g
    with g = (i/4) c', and v2 adds the adjoint term s_m t_j g^dagger. Every
    slice is +-(g + g^dagger) or +-(g - g^dagger), exactly sign-symmetric, so
    the x-frame transform in ``exact`` maps v2 to exact zeros outside its
    blocks.
    """
    n = params.n_levels
    v1 = np.zeros((4 * n, 4 * n), dtype=complex)
    c = (1.0 - params.xi) * couplings.c
    v1[2 * n::2, 1:2 * n:2] = c
    v1[1:2 * n:2, 2 * n::2] = c.conj().T
    g = 0.25j * params.xi * couplings.c_prime
    plus, minus = g + g.conj().T, g - g.conj().T
    s = (-1.0, 1.0)
    t = (1.0, -1.0)
    # axes (l, n1, j, m, n2, k) of the composite row and column indices
    v2 = np.empty((2, n, 2, 2, n, 2), dtype=complex)
    for l, j, m, k in np.ndindex(2, 2, 2, 2):
        a, b = s[l] * t[k], s[m] * t[j]
        v2[l, :, j, m, :, k] = a * (plus if a == b else minus)
    return v1, v2.reshape(4 * n, 4 * n)


def build_hamiltonian(params: ModelParams, couplings: CouplingSet) -> np.ndarray:
    """Total Hamiltonian H0 + alpha * (v1 + v2)."""
    v1, v2 = build_v(params, couplings)
    h = v1 + v2
    h *= params.alpha
    h += build_h0(params)
    return h


def branch_rotation(theta: float) -> np.ndarray:
    """2x2 proper rotation whose columns are the rotated branch kets:
    |1,theta> = cos |1> + sin |2>, |2,theta> = -sin |1> + cos |2>.

    theta = 0 keeps the branch basis, theta = pi/4 gives the (+,-) pair
    (the second ket picks up an irrelevant sign)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def build_projector(theta: float, branch: int, params: ModelParams) -> np.ndarray:
    """Rank-N environment projector onto the theta-rotated branch ``branch``.

    Returns the 2N x 2N matrix sum_n |n,branch,theta><n,branch,theta|.
    The two projectors for a given theta are orthogonal and complete.
    """
    if branch not in (1, 2):
        raise ValueError("branch must be 1 or 2")
    u = branch_rotation(theta)
    col = u[:, branch - 1]
    block = np.outer(col, col.conj())
    return np.kron(np.eye(params.n_levels), block)


def initial_state(sys: np.ndarray, env_spec, params: ModelParams) -> np.ndarray:
    """Composite product state sys (x) (normalized environment state).

    ``env_spec`` is one of
      * ``("branch_projector", theta, branch)`` -- projector / N,
      * ``"plus_projector"``                    -- the (theta=pi/4, branch=1) case,
      * ``"maximally_mixed"``                   -- identity / 2N.

    Raises ValueError when ``sys`` is not a density matrix.
    """
    sys = np.asarray(sys, dtype=complex)
    if sys.shape != (2, 2) or not is_density(sys):
        raise ValueError("system part must be a 2x2 density matrix")
    if env_spec == "maximally_mixed":
        env = np.eye(2 * params.n_levels, dtype=complex) / (2 * params.n_levels)
    elif env_spec == "plus_projector":
        env = build_projector(np.pi / 4, 1, params) / params.n_levels
    elif isinstance(env_spec, tuple) and len(env_spec) == 3 and env_spec[0] == "branch_projector":
        _, theta, branch = env_spec
        env = build_projector(float(theta), int(branch), params) / params.n_levels
    else:
        raise ValueError(f"unknown environment spec {env_spec!r}")
    return np.kron(sys, env)


def branch_parity(params: ModelParams) -> np.ndarray:
    """Environment branch parity: +1 on branch 2, -1 on branch 1 (2N x 2N)."""
    return np.kron(np.eye(params.n_levels), np.diag([-1.0, 1.0])).astype(complex)


def conserved_charge(params: ModelParams) -> np.ndarray:
    """Charge commuting with the branch channel: system inversion plus branch
    parity, i.e. (|1><1| - |0><0|) (x) I + I (x) (P2 - P1).

    For xi = 0 this commutes with the full Hamiltonian, so its expectation is
    constant along exact trajectories.
    """
    sys_inversion = np.diag([-1.0, 1.0]).astype(complex)
    env_dim = 2 * params.n_levels
    return (np.kron(sys_inversion, np.eye(env_dim))
            + np.kron(np.eye(2), branch_parity(params)))
