import numpy as np
import pytest

from twoteam.game_core import (
    PolymatrixGame,
    StrategyProfile,
    StructuralError,
    TwoTeamStructure,
    best_response,
    common_utility,
    game_from_dict,
    game_to_dict,
    profile_from_dict,
    profile_to_dict,
    random_two_team,
    utility,
    validate_two_team,
    verify_epsilon_nash,
)


def matching_pennies():
    g = PolymatrixGame([2, 2])
    g.add_edge(0, 1, [[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    s = TwoTeamStructure((0,), (1,), independent_adversaries=True)
    return g, s


def random_profile(rng, game):
    return StrategyProfile([rng.dirichlet(np.ones(c)) for c in game.strategy_counts])


def test_validate_matching_pennies_passes():
    g, s = matching_pennies()
    report = validate_two_team(g, s)
    assert report.passed
    assert report.violations == ()


def test_validate_sign_flip_fails_with_four_entry_violations():
    g = PolymatrixGame([2, 2])
    a = [[1, -1], [-1, 1]]
    g.add_edge(0, 1, a, a)  # coordination instead of zero-sum
    s = TwoTeamStructure((0,), (1,))
    report = validate_two_team(g, s)
    assert not report.passed
    assert len(report.violations) == 4
    assert all(v.condition == "zero-sum" for v in report.violations)


def test_validate_structural_errors_are_distinct():
    g = PolymatrixGame([2, 3])
    with pytest.raises(StructuralError):
        g.add_edge(0, 1, np.zeros((2, 2)), np.zeros((2, 2)))
    g2, s2 = matching_pennies()
    with pytest.raises(StructuralError):
        validate_two_team(g2, TwoTeamStructure((0,), ()))  # not a partition
    with pytest.raises(StructuralError):
        TwoTeamStructure((0, 1), (1,))  # overlap
    with pytest.raises(StructuralError, match="twice"):
        TwoTeamStructure((0, 1), (2, 3, 3))  # repeated member


def test_independence_flag_checks_adversary_edges():
    rng = np.random.default_rng(0)
    g, s = random_two_team(2, 2, 2, False, rng)
    assert validate_two_team(g, s).passed
    s_ind = TwoTeamStructure(s.team_x, s.team_y, independent_adversaries=True)
    report = validate_two_team(g, s_ind)
    assert not report.passed
    assert any(v.condition == "independence" for v in report.violations)


def test_utility_matching_pennies():
    g, _ = matching_pennies()
    uniform = StrategyProfile([[0.5, 0.5], [0.5, 0.5]])
    assert utility(g, 0, uniform) == pytest.approx(0.0, abs=1e-15)
    pure = StrategyProfile([[1, 0], [1, 0]])
    assert utility(g, 0, pure) == pytest.approx(1.0)
    assert utility(g, 1, pure) == pytest.approx(-1.0)


def test_utility_zero_on_empty_path_game():
    g = PolymatrixGame([2, 3, 2])
    rng = np.random.default_rng(1)
    for _ in range(5):
        prof = random_profile(rng, g)
        for i in range(3):
            assert utility(g, i, prof) == 0.0


def test_best_response_row_read_and_tie_break():
    g, _ = matching_pennies()
    prof = StrategyProfile([[0.5, 0.5], [1, 0]])
    k, v = best_response(g, 0, prof)
    assert (k, v) == (0, 1.0)
    zero = PolymatrixGame([3, 3])
    zero.add_edge(0, 1, np.zeros((3, 3)), np.zeros((3, 3)))
    prof = StrategyProfile([[1, 0, 0], [0, 0, 1]])
    assert best_response(zero, 0, prof) == (0, 0.0)


def test_best_response_beats_mixed_grid():
    # Pure best responses suffice: check against an exhaustive mixed grid.
    rng = np.random.default_rng(2)
    for _ in range(10):
        g, _ = random_two_team(1, 2, 3, True, rng)
        prof = random_profile(rng, g)
        _, v = best_response(g, 0, prof)
        best_mixed = -np.inf
        for a in range(21):
            for b in range(21 - a):
                w = np.array([a, b, 20 - a - b]) / 20
                cand = StrategyProfile([w] + prof.strategies[1:])
                best_mixed = max(best_mixed, utility(g, 0, cand))
        assert v >= best_mixed - 1e-9


def test_verify_epsilon_nash_examples():
    g, _ = matching_pennies()
    uniform = StrategyProfile([[0.5, 0.5], [0.5, 0.5]])
    rep = verify_epsilon_nash(g, uniform, 0.0)
    assert rep.passed and rep.max_regret == pytest.approx(0.0, abs=1e-15)
    pure = StrategyProfile([[1, 0], [1, 0]])
    rep = verify_epsilon_nash(g, pure, 0.1)
    assert not rep.passed
    assert rep.regrets[1] == pytest.approx(2.0)


def test_regrets_never_negative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g, _ = random_two_team(2, 2, 3, True, rng)
        rep = verify_epsilon_nash(g, random_profile(rng, g), 1.0)
        assert min(rep.regrets) >= -1e-9


def test_common_utility_matching_pennies():
    g, s = matching_pennies()
    uniform = StrategyProfile([[0.5, 0.5], [0.5, 0.5]])
    assert common_utility(g, s, uniform) == pytest.approx(0.0, abs=1e-15)
    pure = StrategyProfile([[1, 0], [1, 0]])
    assert common_utility(g, s, pure) == pytest.approx(-1.0)


def test_common_utility_matches_naive_summation():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g, s = random_two_team(3, 2, 2, True, rng)
        prof = random_profile(rng, g)
        expected = 0.0
        xs, ys = list(s.team_x), list(s.team_y)
        for a in range(len(xs)):
            for b in range(a + 1, len(xs)):
                expected -= prof[xs[a]] @ g.payoff(xs[a], xs[b]) @ prof[xs[b]]
        for i in xs:
            for j in ys:
                expected -= prof[i] @ g.payoff(i, j) @ prof[j]
        assert common_utility(g, s, prof) == pytest.approx(expected, abs=1e-12)


def test_common_utility_refuses_invalid_games():
    g = PolymatrixGame([2, 2])
    g.add_edge(0, 1, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    s = TwoTeamStructure((0,), (1,))
    with pytest.raises(ValueError):
        common_utility(g, s, StrategyProfile([[1, 0], [1, 0]]))


def test_cross_team_exchange_conserves():
    # The between-team game is zero-sum: total utility equals exactly twice
    # the coordination payoffs, i.e. the cross-team exchange cancels.
    rng = np.random.default_rng(5)
    for _ in range(50):
        g, s = random_two_team(2, 2, 2, False, rng)
        prof = random_profile(rng, g)
        total = sum(utility(g, i, prof) for i in range(g.num_players))
        coord = 0.0
        for team in (s.team_x, s.team_y):
            t = list(team)
            for a in range(len(t)):
                for b in range(a + 1, len(t)):
                    coord += prof[t[a]] @ g.payoff(t[a], t[b]) @ prof[t[b]]
        scale = g.sum_abs_payoffs()
        assert abs(total - 2.0 * coord) <= 1e-9 * scale


def test_deviation_matches_common_utility_direction():
    # For independent adversaries, a pure deviation by an adversary changes
    # its own utility by exactly the directional change of the common
    # utility in its coordinate.
    rng = np.random.default_rng(6)
    for _ in range(20):
        g, s = random_two_team(2, 2, 3, True, rng)
        prof = random_profile(rng, g)
        base_u = common_utility(g, s, prof)
        for j in s.team_y:
            u_j = utility(g, j, prof)
            for k in range(3):
                e_k = np.zeros(3)
                e_k[k] = 1.0
                dev = list(prof.strategies)
                dev[j] = e_k
                dev = StrategyProfile(dev)
                lhs = utility(g, j, dev) - u_j
                rhs = common_utility(g, s, dev) - base_u
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_utility_affine_in_own_strategy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g, _ = random_two_team(2, 1, 3, True, rng)
        prof = random_profile(rng, g)
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        vals = []
        for t in (0.0, 0.5, 1.0):
            mixed = list(prof.strategies)
            mixed[0] = (1 - t) * a + t * b
            vals.append(utility(g, 0, StrategyProfile(mixed)))
        assert vals[1] == pytest.approx(0.5 * (vals[0] + vals[2]), abs=1e-12)


def test_profile_renormalization_rules():
    p = StrategyProfile([[0.5 + 4e-10, 0.5], [1.0, 0.0]])
    assert sum(p[0]) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        StrategyProfile([[0.6, 0.5]])
    with pytest.raises(ValueError):
        StrategyProfile([[-0.1, 1.1]])


def test_game_round_trip_through_dict():
    rng = np.random.default_rng(8)
    g, s = random_two_team(2, 2, 3, True, rng)
    data = game_to_dict(g, s)
    g2, s2 = game_from_dict(data)
    assert g2.strategy_counts == g.strategy_counts
    assert s2 == s
    for (i, j) in g.edge_pairs():
        assert np.array_equal(g.payoff(i, j), g2.payoff(i, j))
    prof = random_profile(rng, g)
    prof2 = profile_from_dict(profile_to_dict(prof))
    for a, b in zip(prof.strategies, prof2.strategies):
        assert np.allclose(a, b, atol=0)
