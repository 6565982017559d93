"""Spin-band model: a degenerate two-state system coupled to an environment of
N equidistant, doubly degenerate energy levels.

The environment has 2N states |n, i> with level n in 1..N and branch i in
{1, 2}; the composite space has dimension 4N. All modules use one basis
ordering, system-major, then level, then branch: |m, n, i> has the flat
index m * 2N + (n - 1) * 2 + (i - 1) with m in {0, 1}.

Two interaction channels couple system and environment, each a jump
operator on the effective system (x) branch space with a weight
(``channels``): the branch channel ``JUMP_BRANCH`` = sigma_+ (x) |1><2| flips
the system up while moving an excitation from branch 2 to branch 1, weight
``1 - xi``; the rotated channel ``JUMP_ROTATED`` is the same in the x bases
of both the system and the branch pair, weight ``xi``. ``build_hamiltonian``
and ``superop.effective_generator_full`` are both built from this one pair.

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

#: branch channel: system |0> -> |1>, branch 2 -> 1 (|1><2|)
JUMP_BRANCH = np.kron(0.5 * (PAULI_X - 1j * PAULI_Y), [[0, 1], [0, 0]])
#: rotated channel: system |+> -> -i|->, branch - -> + (|+><-| written exactly
#: rather than from 1/sqrt(2), so every entry of either operator is 0, 1 or +-i/4)
JUMP_ROTATED = np.kron(0.5 * (PAULI_Y - 1j * PAULI_Z),
                       np.array([[1, -1], [1, -1]]) / 2)


def channels(xi: float):
    """(weight, jump operator) of the branch, then the rotated channel."""
    return (1.0 - xi, JUMP_BRANCH), (xi, JUMP_ROTATED)


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


def pair_slices(matrix: np.ndarray) -> list:
    """4 x 4 nested list of the N x N views of a 4N x 4N composite matrix
    between its (system state, branch) pairs r = 2l + j and c = 2m + k:
    slice [r][c] at (n1, n2) is entry (l*2N + 2*n1 + j, m*2N + 2*n2 + k). The
    one reader of the composite layout; writes to the views of a contiguous
    matrix land in it."""
    n = matrix.shape[0] // 4
    t = matrix.reshape(2, n, 2, 2, n, 2)
    return [[t[r // 2, :, r % 2, c // 2, :, c % 2] for c in range(4)]
            for r in range(4)]


def build_hamiltonian(params: ModelParams, couplings) -> np.ndarray:
    """Total Hamiltonian H0 + alpha * v of couplings (c, c_prime).

    v = sum w (J (x) B + h.c.) over the ``channels`` (w, J), with
    B = sum b[n1, n2] |n1><n2|, b = c for the branch and c_prime for the
    rotated channel. Each nonzero entry e = w J[r, c] adds e B to the
    ``pair_slices`` slice (r, c) and (e B)^dagger to (c, r). As J's entries
    are exactly 0, 1 or +-i/4, every slice of the rotated channel is exactly
    +-(g + g^dagger) or +-(g - g^dagger), g = (i/4) xi c_prime, which the
    Bell-frame transform in ``exact`` cancels to exact zeros outside its
    blocks; the rotated channel is added first, so each of its slices is
    whole before the branch channel adds to one. H0 is diagonal,
    delta_eps * n / N for every state (m, n, i): the two system states and
    the two branches of a level are degenerate.
    """
    n = params.n_levels
    h = np.zeros((4 * n, 4 * n), dtype=complex)
    s = pair_slices(h)
    for (w, jump), b in reversed(list(zip(channels(params.xi), couplings))):
        for (r, c), e in np.ndenumerate(w * jump):
            if e != 0:      # none for a channel of weight 0
                eb = e * b
                s[r][c] += eb
                s[c][r] += eb.conj().T
    h *= params.alpha
    for r in range(4):
        s[r][r].flat[::n + 1] += params.delta_eps * np.arange(1, n + 1) / n
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
