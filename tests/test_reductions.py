import numpy as np
import pytest

from twoteam.game_core import StrategyProfile, utility, validate_two_team
from twoteam.instances import (
    BoxPoint,
    MinmaxIndInstance,
    MinmaxPoint,
    QuadraticInstance,
    eval_minmax,
    random_minmax,
    random_quadratic,
    sum_abs_coeffs,
    verify_min_kkt,
    verify_minmax_kkt,
)
from twoteam.membership_solver import solve
from twoteam.oracle import stage1_kkt_grid_scan
from twoteam.reductions import (
    copy_gadget,
    pullback_full,
    pullback_stage1,
    pullback_stage2,
    reduce_full,
    reduce_stage1,
    reduce_stage2,
)


def x_squared(epsilon=1.0 / 13.0):
    return QuadraticInstance(n=1, constant=0, linear=[0], cross=[[0]], square=[1], epsilon=epsilon)


def naive_q_prime(q, x, xp):
    total = q.constant
    for i in range(q.n):
        total += q.linear[i] * x[i]
        total += q.square[i] * x[i] * xp[i]
        for j in range(q.n):
            if i != j:
                total += q.cross[i, j] * x[i] * x[j]
    return total


def test_copy_gadget_values():
    for a in (0.0, 0.3, 1.0):
        assert copy_gadget(a, a, 0.5, 0.0) == 0.0
    assert copy_gadget(0.0, 1.0, 1.0, 0.0) == pytest.approx(0.5)
    assert copy_gadget(0.3, 0.3, 0.8, 0.02) == pytest.approx(-0.0024)


def test_stage1_constants():
    m, p = reduce_stage1(x_squared())
    assert p.Z == 1.0
    assert p.T == 10.0
    assert p.eta == pytest.approx(2.0 / 169.0)
    assert p.delta_out == pytest.approx(1.0 / 169.0)
    assert m.epsilon == p.delta_out
    assert m.n_x == 2 and m.n_y == 1
    assert p.eta <= 0.1


def test_stage1_objective_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = random_quadratic(int(rng.integers(1, 4)), 1.0 / 13.0, rng)
        m, p = reduce_stage1(q)
        n = q.n
        for _ in range(50):
            x = rng.uniform(0, 1, n)
            xp = rng.uniform(0, 1, n)
            y = rng.uniform(0, 1, n)
            lhs = eval_minmax(m, (np.concatenate([x, xp]), y))
            rhs = naive_q_prime(q, x, xp) + sum(
                p.T * copy_gadget(x[i], xp[i], y[i], p.eta) for i in range(n)
            )
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_stage1_rejects_out_of_range_epsilon():
    with pytest.raises(ValueError, match="1/13"):
        reduce_stage1(x_squared(epsilon=0.2))


def test_stage1_zero_instance_is_pure_gadget():
    qz = QuadraticInstance(n=1, constant=0, linear=[0], cross=[[0]], square=[0], epsilon=0.01)
    m, p = reduce_stage1(qz)
    assert p.Z == 1.0 and p.T == 10.0
    assert p.eta == pytest.approx(2e-4)
    assert np.all(m.gamma == 0.0)


def test_pullback_stage1_projection():
    p = MinmaxPoint(BoxPoint([0.2, 0.9, 0.2, 0.9]), BoxPoint([0.5, 0.5]))
    out = pullback_stage1(p)
    assert out.values == pytest.approx([0.2, 0.9])
    with pytest.raises(ValueError):
        pullback_stage1(MinmaxPoint(BoxPoint([0.2, 0.9, 0.2]), BoxPoint([0.5, 0.5])))


def test_stage2_matrices_bilinear_example():
    m = MinmaxIndInstance(n_x=1, n_y=1, alpha=0, beta=[0], gamma=[[0]],
                          zeta=[0], theta=[[1]], epsilon=0.5)
    game, structure, params = reduce_stage2(m)
    assert game.num_players == 2
    assert np.array_equal(game.payoff(1, 0), [[1, 0], [0, 0]])
    assert np.array_equal(game.payoff(0, 1), [[-1, 0], [0, 0]])
    assert structure.independent_adversaries
    assert params.Z == 1.0
    assert params.delta_out == pytest.approx(0.25 / 4)
    assert params.rounding_threshold == pytest.approx(0.25)


def test_stage2_coordination_shared_both_directions():
    m = MinmaxIndInstance(n_x=2, n_y=2, alpha=0, beta=[0, 0],
                          gamma=[[0, 2], [0, 0]], zeta=[0, 0],
                          theta=np.zeros((2, 2)), epsilon=0.5)
    game, structure, _ = reduce_stage2(m)
    assert np.array_equal(game.payoff(0, 1), [[-2, 0], [0, 0]])
    assert np.array_equal(game.payoff(1, 0), [[-2, 0], [0, 0]])
    assert validate_two_team(game, structure).passed


def test_stage2_output_validates_with_independence():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = random_minmax(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 0.5, rng)
        game, structure, _ = reduce_stage2(m)
        report = validate_two_team(game, structure)
        assert report.passed
        assert structure.independent_adversaries


def test_stage2_entry_magnitude_bound():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = random_minmax(2, 2, 0.5, rng)
        game, _, params = reduce_stage2(m)
        n = 2
        bound = params.Z + 2.0 * params.Z / n
        assert game.max_abs_payoff() <= bound + 1e-12


@pytest.mark.parametrize("n_x, n_y", [(2, 2), (3, 1), (1, 3)])
def test_stage2_utilities_reproduce_gradient_form(n_x, n_y):
    # U_{a_i}(p~) = -p~ (beta_i + sum gamma p + sum theta q) - sum zeta q / n_x
    # U_{b_j}(q~) = q~ (zeta_j + sum theta p) + sum beta p / n_y
    rng = np.random.default_rng(3)
    m = random_minmax(n_x, n_y, 0.5, rng)
    game, structure, _ = reduce_stage2(m)
    gsum = m.gamma + m.gamma.T
    for _ in range(20):
        p = rng.uniform(0, 1, n_x)
        q = rng.uniform(0, 1, n_y)
        t = rng.uniform(0, 1)
        for player in range(n_x + n_y):
            strategies = [np.array([v, 1 - v]) for v in np.concatenate([p, q])]
            strategies[player] = np.array([t, 1 - t])
            got = utility(game, player, StrategyProfile(strategies))
            if player < n_x:
                i = player
                inner = m.beta[i] + sum(gsum[i, j] * p[j] for j in range(n_x) if j != i)
                inner += m.theta[i] @ q
                want = -t * inner - m.zeta @ q / n_x
            else:
                j = player - n_x
                want = t * (m.zeta[j] + p @ m.theta[:, j]) + m.beta @ p / n_y
            assert got == pytest.approx(want, abs=1e-12)


def test_pullback_stage2_thresholds():
    m = MinmaxIndInstance(n_x=1, n_y=1, alpha=0, beta=[0], gamma=[[0]],
                          zeta=[0], theta=[[1]], epsilon=0.01)
    game, structure, params = reduce_stage2(m)
    t = params.rounding_threshold
    prof = StrategyProfile([[t / 5, 1 - t / 5], [0.5, 0.5]])
    point = pullback_stage2(prof, params)
    assert point.x.values[0] == 0.0
    assert point.y.values[0] == 0.5
    prof = StrategyProfile([[1 - t / 5, t / 5], [0.4, 0.6]])
    point = pullback_stage2(prof, params)
    assert point.x.values[0] == 1.0
    assert point.y.values[0] == pytest.approx(0.4)


@pytest.mark.parametrize("n_x, n_y, players", [(3, 1, 4), (1, 3, 4), (2, 0, 3), (3, 0, 4)])
def test_stage2_has_one_player_per_variable(n_x, n_y, players):
    # Without max-variables one zero-coefficient adversary joins the game.
    rng = np.random.default_rng(4)
    m = random_minmax(n_x, n_y, 0.5, rng)
    game, structure, params = reduce_stage2(m)
    assert game.num_players == players
    assert structure.team_x == tuple(range(n_x))
    assert structure.team_y == tuple(range(n_x, players))
    assert (params.n_x, params.n_y) == (n_x, n_y)
    assert validate_two_team(game, structure).passed


def test_pullback_stage2_rejects_a_profile_of_the_wrong_size():
    rng = np.random.default_rng(5)
    for n_x, n_y in [(2, 2), (3, 1), (2, 0)]:
        game, _, params = reduce_stage2(random_minmax(n_x, n_y, 0.5, rng))
        for players in (game.num_players - 1, game.num_players + 1):
            with pytest.raises(ValueError, match="players"):
                pullback_stage2(StrategyProfile([[0.5, 0.5]] * players), params)


@pytest.mark.parametrize("n_x, n_y", [(3, 1), (1, 3), (2, 0)])
def test_stage2_unequal_shapes_solve_and_pull_back_to_kkt_points(n_x, n_y):
    rng = np.random.default_rng(100 + 10 * n_x + n_y)
    for _ in range(3):
        m = random_minmax(n_x, n_y, 0.5, rng)
        game, structure, params = reduce_stage2(m)
        profile, report = solve(game, structure, epsilon=params.delta_out, seed=0)
        assert report.passed
        point = pullback_stage2(profile, params)
        assert (len(point.x), len(point.y)) == (n_x, n_y)
        assert verify_minmax_kkt(m, point, m.epsilon).passed


def test_full_composition_shape_and_accuracy():
    q = x_squared()
    game, structure, params = reduce_full(q)
    assert game.num_players == 3  # n=1: x, x' and one max-variable
    z1 = sum_abs_coeffs(reduce_stage1(q)[0])
    expected_delta = (params.minmax_epsilon ** 2) / (4.0 * z1)
    assert params.delta == pytest.approx(expected_delta)
    assert params.minmax_epsilon == pytest.approx((1.0 / 13.0) ** 2)


def test_full_pullback_through_both_stages():
    q = x_squared()
    game, structure, params = reduce_full(q)
    # A profile deep in the rounding bands maps through both pullbacks.
    t = params.stage2.rounding_threshold
    strategies = [[t / 10, 1 - t / 10], [0.3, 0.7], [0.5, 0.5]]
    prof = StrategyProfile(strategies)
    x = pullback_full(prof, params)
    assert len(x.values) == 1
    assert x.values[0] == 0.0


def test_claim_stage1_zero_instance_grid_points_project():
    # The gadget-only instance has grid KKT points at the spec grid, and
    # every one of them projects onto a KKT point of the zero objective.
    qz = QuadraticInstance(n=1, constant=0, linear=[0], cross=[[0]], square=[0],
                           epsilon=1.0 / 13.0)
    m, params = reduce_stage1(qz)
    projected, total = stage1_kkt_grid_scan(m, 200, m.epsilon)
    assert total > 0
    for row in projected:
        assert verify_min_kkt(qz, BoxPoint(row), qz.epsilon).passed


def test_claim_stage1_x_squared_on_eta_aligned_grid():
    # eta = 2/169, so a grid with denominator 338 contains the exact KKT
    # point (x, x', y) = (0, eta, 1/2) of the transformed instance.
    q = x_squared()
    m, params = reduce_stage1(q)
    projected, total = stage1_kkt_grid_scan(m, 338, m.epsilon)
    assert total > 0
    assert any(row[0] == 0.0 for row in projected)
    for row in projected:
        assert verify_min_kkt(q, BoxPoint(row), q.epsilon).passed
