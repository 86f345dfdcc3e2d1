import numpy as np
import pytest

from twoteam.game_core import (
    PolymatrixGame,
    StrategyProfile,
    TwoTeamStructure,
    common_utility,
    verify_epsilon_nash,
)
from twoteam.instances import (
    MinmaxIndInstance,
    QuadraticInstance,
    verify_general_kkt,
    verify_min_kkt,
    verify_minmax_kkt,
)
from twoteam.membership_solver import (
    SolverError,
    build_dual_program,
    certificate_violation,
    extract_multipliers,
    find_kkt_point,
    project_simplex,
    reconstruct_nash,
    solve,
    stationarity_residual,
)
from twoteam.oracle import grid_min_regret_profile
from twoteam.reductions import pullback_full, pullback_stage2, reduce_full, reduce_stage2


def matching_pennies():
    g = PolymatrixGame([2, 2])
    g.add_edge(0, 1, [[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    return g, TwoTeamStructure((0,), (1,), independent_adversaries=True)


def random_independent_game(rng, n_x, n_y, m):
    g = PolymatrixGame([m] * (n_x + n_y))
    xs = list(range(n_x))
    ys = list(range(n_x, n_x + n_y))
    for a in range(n_x):
        for b in range(a + 1, n_x):
            mat = rng.uniform(-1, 1, (m, m))
            g.add_edge(xs[a], xs[b], mat, mat.T)
    for i in xs:
        for j in ys:
            mat = rng.uniform(-1, 1, (m, m))
            g.add_edge(i, j, mat, -mat.T)
    return g, TwoTeamStructure(tuple(xs), tuple(ys), independent_adversaries=True)


def degenerate_independent_game(rng):
    """Integer payoffs in {-1, 0, 1} (many ties), absent edges, unequal and
    single-action players, and duplicated actions (equal rows/columns)."""
    n_x, n_y = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    players = n_x + n_y
    base = [int(rng.integers(1, 4)) for _ in range(players)]
    actions = [np.concatenate([np.arange(b), rng.integers(0, b, int(rng.integers(0, 2)))])
               for b in base]
    g = PolymatrixGame([len(a) for a in actions])
    for a in range(players):
        for b in range(a + 1, players):
            if a >= n_x or rng.random() < 0.25:
                continue
            mat = rng.integers(-1, 2, (base[a], base[b])).astype(float)
            mat = mat[np.ix_(actions[a], actions[b])]
            g.add_edge(a, b, mat, mat.T if b < n_x else -mat.T)
    return g, TwoTeamStructure(tuple(range(n_x)), tuple(range(n_x, players)),
                               independent_adversaries=True)


def test_project_simplex():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=int(rng.integers(1, 6)))
        p = project_simplex(v)
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0)
        # Projection of a point already on the simplex is itself.
        q = rng.dirichlet(np.ones(4))
        assert project_simplex(q) == pytest.approx(q, abs=1e-12)


def test_build_dual_program_matching_pennies():
    g, s = matching_pennies()
    prog = build_dual_program(g, s)
    assert prog.bound_M == pytest.approx(2.0)
    # Constraint payoffs at x: c_k = (A^{y,x} x)_k.
    x = [np.array([0.7, 0.3])]
    c = prog.adversary_payoffs(x)
    assert c[0] == pytest.approx([-0.4, 0.4])
    assert prog.gamma_of(x) == pytest.approx([0.4])
    assert prog.objective(x) == pytest.approx(0.4)


def test_build_dual_program_rejects_non_independent():
    g, s = matching_pennies()
    s_dep = TwoTeamStructure(s.team_x, s.team_y, independent_adversaries=False)
    with pytest.raises(SolverError, match="adversary-adversary"):
        build_dual_program(g, s_dep)
    bad = PolymatrixGame([2, 2])
    bad.add_edge(0, 1, [[1, 0], [0, 0]], [[1, 0], [0, 0]])
    with pytest.raises(SolverError, match="validation"):
        build_dual_program(bad, TwoTeamStructure((0,), (1,), independent_adversaries=True))


def test_dual_transcription_matches_naive_builder():
    # For a transformed bilinear instance, the dual constraints must carry
    # exactly the hand-expanded adversary payoff matrices.
    m = MinmaxIndInstance(n_x=2, n_y=2, alpha=0, beta=[0.3, -0.2],
                          gamma=[[0, 0.5], [0, 0]], zeta=[0.1, -0.4],
                          theta=[[1.0, 0.2], [-0.7, 0.4]], epsilon=0.5)
    game, structure, _ = reduce_stage2(m)
    prog = build_dual_program(game, structure)
    n = 2
    for j in range(n):
        for i in range(n):
            expected = np.array(
                [
                    [m.theta[i, j] + m.zeta[j] / n + m.beta[i] / n, m.zeta[j] / n],
                    [m.beta[i] / n, 0.0],
                ]
            )
            assert np.allclose(prog.cross[j][i], expected, atol=1e-15)
    gsum = m.gamma + m.gamma.T
    assert np.allclose(prog.coord[(0, 1)], [[-gsum[0, 1], 0], [0, 0]], atol=1e-15)


def test_find_kkt_matching_pennies():
    g, s = matching_pennies()
    prog = build_dual_program(g, s)
    res = find_kkt_point(prog, tol=1e-9, seed=0)
    assert res.converged
    assert res.x[0] == pytest.approx([0.5, 0.5], abs=1e-9)
    assert res.gamma == pytest.approx([0.0], abs=1e-9)
    # Grid oracle confirms the minimizer.
    _, regret = grid_min_regret_profile(g, 20)
    assert regret == pytest.approx(0.0, abs=1e-12)


def test_find_kkt_no_edge_game():
    g = PolymatrixGame([2, 2, 2])
    s = TwoTeamStructure((0, 1), (2,), independent_adversaries=True)
    prog = build_dual_program(g, s)
    res = find_kkt_point(prog, tol=1e-10, seed=0)
    assert res.converged
    assert res.residual <= 1e-10
    assert res.gamma == pytest.approx([0.0])


def test_extract_multipliers_matching_pennies():
    g, s = matching_pennies()
    prog = build_dual_program(g, s)
    res = find_kkt_point(prog, tol=1e-10, seed=0)
    cert = extract_multipliers(prog, res.x, res.gamma)
    assert cert.mu[0].sum() == pytest.approx(1.0, abs=1e-9)
    assert cert.mu[0] == pytest.approx([0.5, 0.5], abs=1e-6)
    assert certificate_violation(prog, res.x, res.gamma, cert) <= 1e-6


def test_extract_multipliers_no_edges_returns_vertex():
    g = PolymatrixGame([2, 3])
    s = TwoTeamStructure((0,), (1,), independent_adversaries=True)
    prog = build_dual_program(g, s)
    res = find_kkt_point(prog, tol=1e-10, seed=0)
    cert = extract_multipliers(prog, res.x, res.gamma)
    # All conditions degenerate; the feasibility solver lands on a vertex.
    assert cert.mu[0].sum() == pytest.approx(1.0, abs=1e-9)
    assert cert.mu[0].max() == pytest.approx(1.0, abs=1e-9)


def test_certificate_passes_general_kkt_verifier():
    # Assemble the dual program as min f(z) s.t. Az <= b over z = (x, gamma)
    # and check Def-style conditions with the extracted multipliers.
    rng = np.random.default_rng(1)
    for trial in range(5):
        g, s = random_independent_game(rng, 2, 2, 2)
        prog = build_dual_program(g, s)
        res = find_kkt_point(prog, tol=1e-9, seed=trial)
        assert res.converged
        cert = extract_multipliers(prog, res.x, res.gamma)

        nx, ny, m = len(prog.xs), len(prog.ys), prog.m
        nz = nx * m + ny
        cross_quad = np.zeros((nz, nz))
        for (a, b), mat in prog.coord.items():
            cross_quad[a * m : a * m + m, b * m : b * m + m] -= mat
        linear = np.zeros(nz)
        linear[nx * m :] = 1.0
        objective = QuadraticInstance(
            n=nz, constant=0.0, linear=linear, cross=cross_quad,
            square=np.zeros(nz), epsilon=1.0,
        )

        rows, rhs = [], []
        mults = []
        for j in range(ny):
            for k in range(m):
                row = np.zeros(nz)
                for i in range(nx):
                    mat = prog.cross[j][i]
                    if mat is not None:
                        row[i * m : i * m + m] += mat[k, :]
                row[nx * m + j] -= 1.0
                rows.append(row)
                rhs.append(0.0)
                mults.append(cert.mu[j, k])
        for j in range(ny):
            row = np.zeros(nz)
            row[nx * m + j] = 1.0
            rows.append(row)
            rhs.append(prog.bound_M)
            mults.append(0.0)
        for a in range(nx):
            for sign in (1.0, -1.0):
                row = np.zeros(nz)
                row[a * m : a * m + m] = sign
                rows.append(row)
                rhs.append(sign)
                mults.append(max(sign * cert.lam[a], 0.0))
        for a in range(nx):
            for k in range(m):
                row = np.zeros(nz)
                row[a * m + k] = -1.0
                rows.append(row)
                rhs.append(0.0)
                mults.append(cert.nu[a, k])

        z = np.concatenate([np.concatenate(res.x), res.gamma])
        report = verify_general_kkt(objective, np.array(rows), np.array(rhs), z,
                                    np.array(mults), 1e-6)
        assert report.passed, report.max_violation


def test_gamma_cap_never_tight():
    rng = np.random.default_rng(2)
    for trial in range(10):
        g, s = random_independent_game(rng, 2, 2, 3)
        prog = build_dual_program(g, s)
        res = find_kkt_point(prog, tol=1e-8, seed=trial)
        assert res.converged
        assert (prog.bound_M - res.gamma).min() >= 1.0 - 1e-9


def test_solve_matching_pennies():
    g, s = matching_pennies()
    profile, report = solve(g, s, epsilon=1e-6, seed=0)
    assert report.passed
    assert profile[0] == pytest.approx([0.5, 0.5], abs=1e-6)
    assert profile[1] == pytest.approx([0.5, 0.5], abs=1e-6)


def test_solve_random_games():
    rng = np.random.default_rng(3)
    for trial in range(8):
        n_x, n_y = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        g, s = random_independent_game(rng, n_x, n_y, m)
        profile, report = solve(g, s, epsilon=1e-4, seed=trial)
        assert report.passed, (trial, report.max_regret)


def test_solve_handles_unequal_strategy_counts():
    # Padding with duplicated last actions, then folding the mass back.
    rng = np.random.default_rng(4)
    g = PolymatrixGame([2, 3, 2])
    a01 = rng.uniform(-1, 1, (2, 3))
    g.add_edge(0, 1, a01, a01.T)
    a02 = rng.uniform(-1, 1, (2, 2))
    g.add_edge(0, 2, a02, -a02.T)
    a12 = rng.uniform(-1, 1, (3, 2))
    g.add_edge(1, 2, a12, -a12.T)
    s = TwoTeamStructure((0, 1), (2,), independent_adversaries=True)
    profile, report = solve(g, s, epsilon=1e-5, seed=0)
    assert report.passed
    assert [len(v) for v in profile.strategies] == [2, 3, 2]


def test_solve_deterministic_under_seed():
    rng = np.random.default_rng(5)
    g, s = random_independent_game(rng, 2, 2, 2)
    p1, r1 = solve(g, s, epsilon=1e-6, seed=11)
    p2, r2 = solve(g, s, epsilon=1e-6, seed=11)
    for a, b in zip(p1.strategies, p2.strategies):
        assert np.array_equal(a, b)
    assert r1 == r2


def test_solve_on_transformed_bilinear_instance_pulls_back():
    m = MinmaxIndInstance(n_x=1, n_y=1, alpha=0, beta=[0], gamma=[[0]],
                          zeta=[0], theta=[[1]], epsilon=0.5)
    game, structure, params = reduce_stage2(m)
    profile, report = solve(game, structure, epsilon=params.delta_out, seed=0)
    assert report.passed
    point = pullback_stage2(profile, params)
    assert verify_minmax_kkt(m, point, m.epsilon).passed


def test_solve_values_conserve_across_teams():
    # At a converged equilibrium the cross-team exchange cancels exactly.
    rng = np.random.default_rng(6)
    from twoteam.game_core import utility

    for trial in range(5):
        g, s = random_independent_game(rng, 2, 2, 2)
        profile, report = solve(g, s, epsilon=1e-5, seed=trial)
        assert report.passed
        total = sum(utility(g, i, profile) for i in range(g.num_players))
        coord = 0.0
        xs = list(s.team_x)
        for a in range(len(xs)):
            for b in range(a + 1, len(xs)):
                coord += profile[xs[a]] @ g.payoff(xs[a], xs[b]) @ profile[xs[b]]
        assert abs(total - 2 * coord) <= 1e-9 * g.sum_abs_payoffs()


def test_eliminated_objective_equals_inner_maximum():
    # The gamma-eliminated objective at any x equals the best the
    # adversaries can jointly do against it.
    rng = np.random.default_rng(7)
    import itertools

    for _ in range(10):
        g, s = random_independent_game(rng, 2, 2, 2)
        prog = build_dual_program(g, s)
        x = [rng.dirichlet(np.ones(2)) for _ in range(2)]
        obj = prog.objective(x)
        best = -np.inf
        for combo in itertools.product(range(2), repeat=2):
            strategies = [x[0], x[1]] + [np.eye(2)[k] for k in combo]
            u = common_utility(g, s, StrategyProfile(strategies))
            best = max(best, u)
        assert obj == pytest.approx(best, abs=1e-12)


def test_stationarity_residual_zero_only_near_kkt():
    g, s = matching_pennies()
    prog = build_dual_program(g, s)
    r_far, _ = stationarity_residual(prog, [np.array([0.9, 0.1])])
    assert r_far > 0.1
    r_near, _ = stationarity_residual(prog, [np.array([0.5, 0.5])])
    assert r_near <= 1e-12


def test_solve_rejects_non_finite_epsilon():
    g, s = matching_pennies()
    for epsilon in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            solve(g, s, epsilon=epsilon)


def test_find_kkt_point_counts_pivots_and_traces_them():
    rng = np.random.default_rng(8)
    g, s = random_independent_game(rng, 2, 2, 3)
    prog = build_dual_program(g, s)
    trace = []
    res = find_kkt_point(prog, seed=3, num_starts=4, trace=trace)
    assert res.converged
    assert [row[0] for row in trace] == list(range(res.iterations))
    assert sorted({row[2] for row in trace}) == [0, 1, 2, 3]
    assert res.objective == prog.objective(res.x)
    with pytest.raises(SolverError, match="complementary paths"):
        find_kkt_point(prog, max_iter=1)


def test_degenerate_games_solve_exactly():
    # Lemke's lexicographic ratio test must end every path at an exact
    # equilibrium even when payoffs tie everywhere.
    rng = np.random.default_rng(400)
    for trial in range(400):
        g, s = degenerate_independent_game(rng)
        profile, report = solve(g, s, epsilon=1e-9, seed=trial)
        assert report.passed, (trial, report.max_regret)
        prog = build_dual_program(g, s)
        res = find_kkt_point(prog, seed=trial)
        cert = extract_multipliers(prog, res.x, res.gamma,
                                   band=min(1e-7, 10.0 * res.residual + 1e-12))
        assert certificate_violation(prog, res.x, res.gamma, cert) <= 1e-7, trial


def test_reduced_two_variable_qps_pull_back_at_delta():
    rng = np.random.default_rng(9)
    for trial in range(10):
        cross = rng.uniform(-1, 1, (2, 2))
        np.fill_diagonal(cross, 0.0)
        q = QuadraticInstance(n=2, constant=rng.uniform(-1, 1), linear=rng.uniform(-1, 1, 2),
                              cross=cross, square=rng.uniform(-1, 1, 2), epsilon=1.0 / 13.0)
        game, structure, params = reduce_full(q)
        profile, report = solve(game, structure, epsilon=params.delta, seed=trial)
        assert report.passed, (trial, report.max_regret, params.delta)
        assert verify_min_kkt(q, pullback_full(profile, params), q.epsilon).passed, trial
