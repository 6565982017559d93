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


def sample_couplings(params: ModelParams):
    """Draw both N x N coupling matrices (c, c_prime) for one realization.

    Entries are (x + iy)/sqrt(2) with x, y standard normal, so
    <|c|^2> = 1 and <c^2> = 0. The branch-channel matrix ``c`` is drawn
    first, then ``c_prime``, from a single counter-based Philox 4x64-10
    stream keyed by ``params.seed``.
    """
    rng = np.random.Generator(np.random.Philox(int(params.seed) & (2 ** 64 - 1)))
    n = params.n_levels

    def draw():
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)

    return draw(), draw()          # c first, then c_prime


def build_hamiltonian(params: ModelParams, couplings) -> np.ndarray:
    """Total Hamiltonian H0 + alpha * (v1 + v2) of couplings (c, c_prime).

    v1 = (1-xi) * (SIGMA_PLUS (x) B + h.c.) moves branch 2 -> 1,
    v2 = xi * (SIGMA_PLUS_X (x) B' + h.c.) moves branch - -> + in the
    rotated pair basis. The free Hamiltonian H0 is diagonal, with energy
    delta_eps * n / N for every state (m, n, i): it acts only on the
    environment level index, the two system states are degenerate and both
    branches of a level share its energy.

    With B = sum c[n1,n2] |n1,1><n2,2|, v1 holds c on the strided slice of
    rows |1,n1,1> and columns |0,n2,2> and its adjoint on the transposed
    slice. With s = (-1, 1) and t = (1, -1), SIGMA_PLUS_X[l, m] = (i/2) s_l
    and the branch entries of |n1,+><n2,-| are (1/2) t_k, so the (system l,
    branch j; system m, branch k) slice of SIGMA_PLUS_X (x) B' is s_l t_k g
    with g = (i/4) c', and v2 adds the adjoint term s_m t_j g^dagger. Every
    slice of v2 is exactly +-(g + g^dagger) or +-(g - g^dagger), so the
    Bell-frame transform in ``exact`` cancels it to exact zeros outside its
    blocks. h is one buffer, and a channel of weight 0 (v2 at xi = 0, v1 at
    xi = 1) is not added to it.
    """
    n, xi = params.n_levels, params.xi
    c, c_prime = couplings
    # axes (l, n1, j, m, n2, k) of the composite row and column indices
    h = np.zeros((2, n, 2, 2, n, 2), dtype=complex)
    if xi > 0:
        g = 0.25j * xi * c_prime
        plus, minus = g + g.conj().T, g - g.conj().T
        s, t = (-1.0, 1.0), (1.0, -1.0)
        for l, j, m, k in np.ndindex(2, 2, 2, 2):
            a, b = s[l] * t[k], s[m] * t[j]
            h[l, :, j, m, :, k] = a * (plus if a == b else minus)
    if xi < 1:
        c = (1.0 - xi) * c
        h[1, :, 0, 0, :, 1] += c
        h[0, :, 1, 1, :, 0] += c.conj().T
    h = h.reshape(4 * n, 4 * n)
    h *= params.alpha
    energies = np.repeat(params.delta_eps * np.arange(1, n + 1) / n, 2)
    h.flat[::4 * n + 1] += np.tile(energies, 2)
    return h


def branch_rotation(theta: float) -> np.ndarray:
    """2x2 proper rotation whose columns are the rotated branch kets:
    |1,theta> = cos |1> + sin |2>, |2,theta> = -sin |1> + cos |2>.

    theta = 0 keeps the branch basis, theta = pi/4 gives the (+,-) pair
    (the second ket picks up an irrelevant sign)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def initial_state(sys: np.ndarray, env: np.ndarray, params: ModelParams) -> np.ndarray:
    """Level-uniform composite state sys (x) I_N (x) env / N from the 2 x 2
    system state and the 2 x 2 branch state of every level (see
    ``config.environment_state``). Raises ValueError when either is not a
    2 x 2 density matrix."""
    sys, env = np.asarray(sys, dtype=complex), np.asarray(env, dtype=complex)
    for part, m in (("system", sys), ("environment", env)):
        if m.shape != (2, 2) or not is_density(m):
            raise ValueError(f"{part} part must be a 2x2 density matrix")
    return np.kron(sys, np.kron(np.eye(params.n_levels), env) / params.n_levels)
