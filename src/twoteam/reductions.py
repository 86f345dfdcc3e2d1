"""Two-stage instance transformations and their solution pullbacks.

Stage 1 turns a box-constrained quadratic minimization instance into a
minmax instance with the independence property, duplicating every
min-variable and wiring each pair to a max-variable through a multilinear
copy term that forces the duplicate to track the original at any KKT
point.  Stage 2 turns any independence-property minmax instance into a
two-team zero-sum polymatrix game with independent adversaries and
two-action players.  Accuracy bookkeeping is carried explicitly in params
objects because the thresholds at the three layers are easy to mismatch
silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game_core import PolymatrixGame, StrategyProfile, TwoTeamStructure
from .instances import (
    BoxPoint,
    MinmaxIndInstance,
    MinmaxPoint,
    QuadraticInstance,
    sum_abs_coeffs,
)

# Largest accuracy the stage-1 construction is proven for.
STAGE1_EPSILON_MAX = 1.0 / 13.0


@dataclass(frozen=True)
class StageOneParams:
    """Constants of the quadratic-to-minmax step.

    T = 10 Z, eta = 2 eps^2 / Z, and the produced instance is to be solved
    to accuracy delta_out = eps^2 / Z.
    """

    Z: float
    T: float
    eta: float
    delta_out: float


@dataclass(frozen=True)
class StageTwoParams:
    """Constants of the minmax-to-game step.

    delta_out = eps^2 / (4 Z) is the Nash accuracy demanded of the game;
    rounding_threshold = eps / (2 Z) drives the candidate-point rounding.
    n_x and n_y are the instance's sizes; the pullback reads x and y off
    the profile by them.
    """

    Z: float
    delta_out: float
    rounding_threshold: float
    n_x: int
    n_y: int


@dataclass(frozen=True)
class FullReductionParams:
    """Composition bookkeeping for the two-stage pipeline."""

    n: int                      # variables of the original quadratic instance
    epsilon: float              # its accuracy target
    stage1: StageOneParams
    stage2: StageTwoParams
    minmax_epsilon: float       # accuracy carried by the intermediate instance

    @property
    def delta(self) -> float:
        """Nash accuracy the final game must be solved to."""
        return self.stage2.delta_out


def copy_gadget(x: float, x_prime: float, y: float, eta: float) -> float:
    """(x' - x (1 - 2 eta) - eta) * (y - 1/2).

    Multilinear coupling term; expects inputs in [0, 1] and eta in [0, 1/2).
    """
    return (x_prime - x * (1.0 - 2.0 * eta) - eta) * (y - 0.5)


def reduce_stage1(q_inst: QuadraticInstance):
    """Quadratic instance -> minmax instance with the independence property.

    Min-variables double up (x then x'), one max-variable per original
    variable.  Square terms q_ii x_i^2 become cross terms q_ii x_i x'_i and
    each triple is tied together by a scaled copy term.  Returns the new
    instance together with the stage constants.
    """
    eps = q_inst.epsilon
    if not 0.0 < eps <= STAGE1_EPSILON_MAX:
        raise ValueError(
            f"stage 1 requires epsilon in (0, 1/13], got {eps}"
        )
    n = q_inst.n
    Z = sum_abs_coeffs(q_inst)
    T = 10.0 * Z
    eta = 2.0 * eps * eps / Z
    delta_out = eps * eps / Z

    beta = np.zeros(2 * n)
    gamma = np.zeros((2 * n, 2 * n))
    zeta = np.zeros(n)
    theta = np.zeros((2 * n, n))
    alpha = q_inst.constant

    beta[:n] = q_inst.linear
    gamma[:n, :n] = q_inst.cross
    for i in range(n):
        # x_i^2 -> x_i x'_i
        gamma[i, n + i] = q_inst.square[i]
        # T * copy(x_i, x'_i, y_i) expanded monomial by monomial:
        theta[n + i, i] += T                    # x'_i y_i
        theta[i, i] += -T * (1.0 - 2.0 * eta)   # x_i y_i
        beta[n + i] += -T / 2.0
        beta[i] += T * (1.0 - 2.0 * eta) / 2.0
        zeta[i] += -T * eta
        alpha += T * eta / 2.0

    m_inst = MinmaxIndInstance(
        n_x=2 * n, n_y=n, alpha=alpha, beta=beta, gamma=gamma,
        zeta=zeta, theta=theta, epsilon=delta_out,
    )
    return m_inst, StageOneParams(Z=Z, T=T, eta=eta, delta_out=delta_out)


def pullback_stage1(p: MinmaxPoint) -> BoxPoint:
    """Project onto the first n min-coordinates (the undoubled block)."""
    n = len(p.y)
    if len(p.x) != 2 * n:
        raise ValueError(
            f"expected 2n min-variables and n max-variables, got {len(p.x)} and {n}"
        )
    return BoxPoint(p.x.values[:n])


def reduce_stage2(m_inst: MinmaxIndInstance):
    """Minmax instance -> two-team game with independent adversaries.

    Each variable becomes a two-action player whose first action carries
    the variable's value as its probability: team X is players 0..n_x-1,
    the adversaries follow.  An instance without max-variables gets one
    zero-coefficient adversary, so that beta has a cross edge to sit on.
    The payoff matrices place the total coefficient of the monomial
    x_i x_j on the coordination edges and split zeta over the n_x and beta
    over the adversaries' cross edges, so that each player's payoff
    difference between its two actions is a partial derivative of M.
    """
    Z = sum_abs_coeffs(m_inst)
    eps = m_inst.epsilon
    n_x, n_y = m_inst.n_x, m_inst.n_y
    n_adv = max(n_y, 1)
    theta = m_inst.theta if n_y else np.zeros((n_x, 1))
    zeta = m_inst.zeta if n_y else np.zeros(1)
    beta, gamma = m_inst.beta, m_inst.gamma

    game = PolymatrixGame([2] * (n_x + n_adv))
    for i in range(n_x):
        for j in range(i + 1, n_x):
            c = gamma[i, j] + gamma[j, i]
            if c != 0.0:
                block = np.array([[-c, 0.0], [0.0, 0.0]])
                game.add_edge(i, j, block, block.T)
    for i in range(n_x):
        for j in range(n_adv):
            top = theta[i, j] + zeta[j] / n_x + beta[i] / n_adv
            a_bj_ai = np.array(
                [
                    [top, zeta[j] / n_x],
                    [beta[i] / n_adv, 0.0],
                ]
            )
            if np.any(a_bj_ai != 0.0):
                game.add_edge(n_x + j, i, a_bj_ai, -a_bj_ai.T)

    structure = TwoTeamStructure(
        team_x=tuple(range(n_x)),
        team_y=tuple(range(n_x, n_x + n_adv)),
        independent_adversaries=True,
    )
    params = StageTwoParams(
        Z=Z,
        delta_out=eps * eps / (4.0 * Z),
        rounding_threshold=eps / (2.0 * Z),
        n_x=n_x,
        n_y=n_y,
    )
    return game, structure, params


def pullback_stage2(profile: StrategyProfile, params: StageTwoParams) -> MinmaxPoint:
    """Round first-action probabilities into a candidate KKT point.

    Probabilities below the rounding threshold snap to 0, above one minus
    the threshold snap to 1, and interior ones pass through unchanged.
    x is read from players 0..n_x-1 and y from the n_y players after them.
    """
    n_x, n_y = params.n_x, params.n_y
    players = n_x + max(n_y, 1)
    if profile.num_players != players:
        raise ValueError(
            f"profile has {profile.num_players} players, the stage-2 game has {players}"
        )
    t = params.rounding_threshold

    def snap(p: float) -> float:
        if p < t:
            return 0.0
        if p > 1.0 - t:
            return 1.0
        return p

    x = [snap(float(profile[i][0])) for i in range(n_x)]
    y = [snap(float(profile[n_x + j][0])) for j in range(n_y)]
    return MinmaxPoint(BoxPoint(x), BoxPoint(y))


def reduce_full(q_inst: QuadraticInstance):
    """Compose both stages: quadratic instance -> game.

    Stage 2 runs at the accuracy produced by stage 1, so the game's Nash
    target is (eps^2/Z)^2 / (4 Z') with Z' the coefficient bound of the
    intermediate instance.
    """
    m_inst, p1 = reduce_stage1(q_inst)
    game, structure, p2 = reduce_stage2(m_inst)
    params = FullReductionParams(
        n=q_inst.n,
        epsilon=q_inst.epsilon,
        stage1=p1,
        stage2=p2,
        minmax_epsilon=m_inst.epsilon,
    )
    return game, structure, params


def pullback_full(profile: StrategyProfile, params: FullReductionParams) -> BoxPoint:
    """Game profile -> candidate KKT point of the original quadratic instance.

    The game has 3n players for an n-variable instance: stage 2's rounding
    gives the 2n + n point of the intermediate instance, and stage 1's
    projection keeps its first n min-coordinates.
    """
    return pullback_stage1(pullback_stage2(profile, params.stage2))
