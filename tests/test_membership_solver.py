import dataclasses

import numpy as np
import pytest

from twoteam.game_core import (
    PolymatrixGame,
    StrategyProfile,
    TwoTeamStructure,
    common_utility,
    random_two_team,
)
from twoteam.instances import (
    MinmaxIndInstance,
    QuadraticInstance,
    random_quadratic,
    verify_general_kkt,
    verify_min_kkt,
    verify_minmax_kkt,
)
from twoteam import lp_solver, membership_solver
from twoteam.membership_solver import (
    NUM_COVERS,
    MultiplierExtractionError,
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
    assert prog.offsets.tolist() == [0, 2, 4]
    for j in range(n):
        for i in range(n):
            expected = np.array(
                [
                    [m.theta[i, j] + m.zeta[j] / n + m.beta[i] / n, m.zeta[j] / n],
                    [m.beta[i] / n, 0.0],
                ]
            )
            assert np.allclose(prog.cross[j][:, 2 * i : 2 * i + 2], expected, atol=1e-15)
    # The coordination block of X players 0 and 1; zero elsewhere.
    gsum = m.gamma + m.gamma.T
    coord = np.zeros((4, 4))
    coord[0:2, 2:4] = [[-gsum[0, 1], 0], [0, 0]]
    assert np.allclose(prog.coord, coord, atol=1e-15)


def test_find_kkt_matching_pennies():
    g, s = matching_pennies()
    prog = build_dual_program(g, s)
    res = find_kkt_point(prog, seed=0)
    assert res.residual <= 1e-9
    assert res.x[0] == pytest.approx([0.5, 0.5], abs=1e-9)
    assert res.gamma == pytest.approx([0.0], abs=1e-9)
    # Grid oracle confirms the minimizer.
    _, regret = grid_min_regret_profile(g, 20)
    assert regret == pytest.approx(0.0, abs=1e-12)


def test_find_kkt_no_edge_game():
    g = PolymatrixGame([2, 2, 2])
    s = TwoTeamStructure((0, 1), (2,), independent_adversaries=True)
    prog = build_dual_program(g, s)
    res = find_kkt_point(prog, seed=0)
    assert res.residual <= 1e-10
    assert res.gamma == pytest.approx([0.0])


def test_extract_multipliers_matching_pennies():
    g, s = matching_pennies()
    prog = build_dual_program(g, s)
    res = find_kkt_point(prog, seed=0)
    assert res.residual <= 1e-10
    cert = extract_multipliers(prog, res.x)
    assert cert.mu[0].sum() == pytest.approx(1.0, abs=1e-9)
    assert cert.mu[0] == pytest.approx([0.5, 0.5], abs=1e-6)
    assert certificate_violation(prog, res.x, res.gamma, cert) <= 1e-6


def test_extract_multipliers_fails_away_from_kkt_point():
    # At x = [0.9, 0.1] only one adversary action is a best reply, and its
    # payoff gradient in x is not constant, so no multipliers balance it.
    g, s = matching_pennies()
    prog = build_dual_program(g, s)
    with pytest.raises(MultiplierExtractionError):
        extract_multipliers(prog, [np.array([0.9, 0.1])])


def test_extract_multipliers_no_edges_returns_vertex():
    g = PolymatrixGame([2, 3])
    s = TwoTeamStructure((0,), (1,), independent_adversaries=True)
    prog = build_dual_program(g, s)
    res = find_kkt_point(prog, seed=0)
    assert res.residual <= 1e-10
    cert = extract_multipliers(prog, res.x)
    # All conditions degenerate; the least-residual LP lands on a vertex.
    assert cert.mu[0].sum() == pytest.approx(1.0, abs=1e-9)
    assert cert.mu[0].max() == pytest.approx(1.0, abs=1e-9)


def test_extract_multipliers_band_edge_is_the_least_residual():
    # extract_multipliers accepts a band exactly when it is at least the
    # least stationarity residual r, at solver points and away from them.
    rng, points = np.random.default_rng(402), np.random.default_rng(4020)
    positive = 0
    for trial in range(30):
        g, s = degenerate_independent_game(rng) if trial % 2 else random_two_team(2, 2, 2, True, rng)
        prog = build_dual_program(g, s)
        interior = [points.dirichlet(np.ones(c)) for c in np.diff(prog.offsets)]
        for x in (find_kkt_point(prog, seed=trial).x, interior):
            r, _ = stationarity_residual(prog, x)
            assert np.isfinite(r), trial
            positive += r > 0
            extract_multipliers(prog, x, band=r)
            with pytest.raises(MultiplierExtractionError):
                extract_multipliers(prog, x, band=np.nextafter(r, -1))
    assert positive >= 10


def _assert_passes_general_kkt_verifier(prog, res, cert):
    # Assemble the dual program as min f(z) s.t. Az <= b over z = (x, gamma),
    # X player a's coordinates from offset o[a] on, and check Def-style
    # conditions with the certificate's multipliers.
    nx, ny = len(prog.xs), len(prog.ys)
    o = np.concatenate([[0], np.cumsum([len(s) for s in res.x])])
    nz = o[-1] + ny
    cross_quad = np.zeros((nz, nz))
    cross_quad[: o[-1], : o[-1]] = -prog.coord
    linear = np.zeros(nz)
    linear[o[-1] :] = 1.0
    objective = QuadraticInstance(
        n=nz, constant=0.0, linear=linear, cross=cross_quad,
        square=np.zeros(nz), epsilon=1.0,
    )

    rows, rhs, mults = [], [], []
    for j in range(ny):
        for k, mult in enumerate(cert.mu[j]):
            row = np.zeros(nz)
            row[: o[-1]] = prog.cross[j][k]
            row[o[-1] + j] -= 1.0
            rows.append(row)
            rhs.append(0.0)
            mults.append(mult)
    for a in range(nx):
        for sign in (1.0, -1.0):
            row = np.zeros(nz)
            row[o[a] : o[a + 1]] = sign
            rows.append(row)
            rhs.append(sign)
            mults.append(max(sign * cert.lam[a], 0.0))
    for a in range(nx):
        for k, mult in enumerate(cert.nu[a]):
            row = np.zeros(nz)
            row[o[a] + k] = -1.0
            rows.append(row)
            rhs.append(0.0)
            mults.append(mult)

    z = np.concatenate(list(res.x) + [res.gamma])
    report = verify_general_kkt(objective, np.array(rows), np.array(rhs), z,
                                np.array(mults), 1e-6)
    assert report.passed, report.max_violation


def test_certificate_passes_general_kkt_verifier():
    rng = np.random.default_rng(1)
    for trial in range(5):
        g, s = random_two_team(2, 2, 2, True, rng)
        prog = build_dual_program(g, s)
        res = find_kkt_point(prog, seed=trial)
        assert res.residual <= 1e-9
        _assert_passes_general_kkt_verifier(prog, res, extract_multipliers(prog, res.x))
    # Unequal action counts: both the basis certificate and the LP's.
    rng = np.random.default_rng(403)
    unequal = 0
    for trial in range(8):
        g, s = degenerate_independent_game(rng)
        if len(set(g.strategy_counts)) == 1:
            continue
        unequal += 1
        prog = build_dual_program(g, s)
        res = find_kkt_point(prog, seed=trial)
        assert res.residual <= 1e-9, trial
        _assert_passes_general_kkt_verifier(prog, res, res.certificate)
        _assert_passes_general_kkt_verifier(prog, res, extract_multipliers(prog, res.x))
    assert unequal >= 5


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
        g, s = random_two_team(n_x, n_y, m, True, rng)
        profile, report = solve(g, s, epsilon=1e-4, seed=trial)
        assert report.passed, (trial, report.max_regret)


def test_solve_handles_unequal_strategy_counts():
    # Every player keeps its own action count, in the certificate and in
    # the profile, which plays x and mu as they are.
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
    prog = build_dual_program(g, s)
    res = find_kkt_point(prog, seed=0)
    cert = res.certificate
    assert [len(v) for v in res.x] == [2, 3]
    assert [len(v) for v in cert.nu] == [2, 3]
    assert [len(v) for v in cert.mu] == [2]
    assert certificate_violation(prog, res.x, res.gamma, cert) <= 1e-9
    played = reconstruct_nash(prog, res.x, cert).strategies
    assert all(a.tobytes() == b.tobytes() for a, b in zip(played, list(res.x) + cert.mu))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(played, profile.strategies))


def test_solve_deterministic_under_seed():
    rng = np.random.default_rng(5)
    g, s = random_two_team(2, 2, 2, True, rng)
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
        g, s = random_two_team(2, 2, 2, True, rng)
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
        g, s = random_two_team(2, 2, 2, True, rng)
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


def test_find_kkt_point_counts_pivots_and_traces_them(monkeypatch):
    rng = np.random.default_rng(8)
    g, s = random_two_team(2, 2, 3, True, rng)
    prog = build_dual_program(g, s)
    trace = []
    res = find_kkt_point(prog, seed=3, trace=trace)
    assert res.converged
    assert [row[0] for row in trace] == list(range(res.iterations))
    assert sorted({row[2] for row in trace}) == list(range(NUM_COVERS))
    assert res.objective == prog.objective(res.x)
    monkeypatch.setattr(membership_solver, "MAX_ITER", 1)
    with pytest.raises(SolverError, match="complementary paths"):
        find_kkt_point(prog)


# Games random_two_team(shape, default_rng(i)) some of whose Lemke paths end
# at one equilibrium, with objectives equal to about the last bit: ranked by
# s @ coord @ s, whose BLAS rounding depends on where coord sits, the first
# ten pick different winners for an offset copy of coord.
PLACEMENT_SHAPES = [(1, 1, 2), (2, 1, 2), (2, 2, 2), (3, 2, 2), (3, 3, 2),
                    (1, 2, 3), (2, 2, 3), (1, 3, 3), (2, 3, 3), (3, 1, 2)]
PLACEMENT_GAMES = [16, 54, 56, 58, 59, 64, 98, 152, 154, 178, 0, 1, 2, 3, 5]


def test_find_kkt_point_winner_ignores_where_coord_sits():
    for i in PLACEMENT_GAMES:
        g, s = random_two_team(*PLACEMENT_SHAPES[i % 10], True, np.random.default_rng(i))
        prog = build_dual_program(g, s)
        # A bitwise-equal copy of coord, one float past an allocation's start.
        buf = np.empty(prog.coord.size + 1)
        moved = buf[1:].reshape(prog.coord.shape)
        moved[...] = prog.coord
        a = find_kkt_point(prog, seed=i)
        b = find_kkt_point(dataclasses.replace(prog, coord=moved), seed=i)
        assert all(np.array_equal(u, v) for u, v in zip(a.x, b.x)), i
        assert a.objective == prog.objective(a.x), i


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
        assert certificate_violation(prog, res.x, res.gamma, res.certificate) <= 1e-9, trial
        basis_profile = reconstruct_nash(prog, res.x, res.certificate)
        assert all(np.array_equal(a, b) for a, b in zip(profile.strategies,
                                                        basis_profile.strategies)), trial
        # The least-residual LP shares no pivoting code with the Lemke search.
        cert = extract_multipliers(prog, res.x, band=min(1e-7, 10.0 * res.residual + 1e-12))
        assert certificate_violation(prog, res.x, res.gamma, cert) <= 1e-7, trial


def test_reduced_two_variable_qps_pull_back_at_delta():
    rng = np.random.default_rng(9)
    for trial in range(10):
        q = random_quadratic(2, 1.0 / 13.0, rng)
        game, structure, params = reduce_full(q)
        profile, report = solve(game, structure, epsilon=params.delta, seed=trial)
        assert report.passed, (trial, report.max_regret, params.delta)
        assert verify_min_kkt(q, pullback_full(profile, params), q.epsilon).passed, trial
        prog = build_dual_program(game, structure)
        res = find_kkt_point(prog, seed=trial)
        assert certificate_violation(prog, res.x, res.gamma, res.certificate) <= 1e-9, trial
        basis_profile = reconstruct_nash(prog, res.x, res.certificate)
        assert all(np.array_equal(a, b) for a, b in zip(profile.strategies,
                                                        basis_profile.strategies)), trial


def test_reduced_six_variable_qps_solve_at_delta():
    # Most paths end at one equilibrium, apart by float error that matters
    # at delta from n = 6 on: the winner must be ranked by the objective of
    # its own strategies (a rank read off the cost levels u fails three of
    # these six draws).
    for s in range(6):
        q = random_quadratic(6, 1.0 / 13.0, np.random.default_rng(6000 + s))
        game, structure, params = reduce_full(q)
        _, report = solve(game, structure, epsilon=params.delta, seed=0)
        assert report.passed, (s, report.max_regret / params.delta)


def test_solve_runs_no_lp(monkeypatch):
    # The certificate comes off the final Lemke basis; no LP is solved.
    def no_lp(*args, **kwargs):
        raise AssertionError("solve ran an LP")

    monkeypatch.setattr(lp_solver, "solve_lp", no_lp)
    monkeypatch.setattr(membership_solver, "solve_lp", no_lp)
    g, s = matching_pennies()
    assert solve(g, s, epsilon=1e-9)[1].passed
    rng = np.random.default_rng(401)
    for trial in range(20):
        g, s = degenerate_independent_game(rng)
        assert solve(g, s, epsilon=1e-9, seed=trial)[1].passed, trial


def _covers(size, seed, paths=12):
    rng = np.random.default_rng(seed)
    return np.vstack([np.ones(size)] + [rng.uniform(0.5, 1.5, size) for _ in range(paths - 1)])


def _assert_batch_matches_lone_paths(M, q, covers, max_pivots):
    batch = membership_solver._lemke_paths(M, q, covers, max_pivots)
    assert len(batch) == len(covers)
    for p, (solution, z0_values) in enumerate(batch):
        [(lone, lone_z0)] = membership_solver._lemke_paths(M, q, covers[p : p + 1], max_pivots)
        assert z0_values == lone_z0, p
        assert (solution is None) == (lone is None), p
        if solution is not None:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(solution, lone)), p
    return batch


def test_stacked_lemke_paths_match_lone_paths_on_reduced_qps():
    # Each path of the stacked tableau pivots exactly as it would alone;
    # the pivot totals are pinned on the 3n-player reduced games.
    rng = np.random.default_rng(12)
    pivots = []
    for trial in range(6):
        game = reduce_full(random_quadratic(1 + trial % 2, 1.0 / 13.0, rng))[0]
        M, q, _, _ = membership_solver._game_lcp(game)
        batch = _assert_batch_matches_lone_paths(M, q, _covers(len(q), trial), 10**6)
        assert all(solution is not None for solution, _ in batch), trial
        pivots.append(sum(len(z0_values) for _, z0_values in batch))
    assert pivots == [132, 270, 134, 251, 138, 278]


def test_stacked_lemke_paths_match_lone_paths_through_tie_breaks(monkeypatch):
    ties = []
    break_tie = membership_solver._break_tie

    def counting(*args):
        ties.append(args[1].size)
        return break_tie(*args)

    monkeypatch.setattr(membership_solver, "_break_tie", counting)
    rng = np.random.default_rng(402)
    for trial in range(30):
        g, _ = degenerate_independent_game(rng)
        M, q, _, _ = membership_solver._game_lcp(g)
        _assert_batch_matches_lone_paths(M, q, _covers(len(q), trial), 10**6)
    assert ties and min(ties) >= 2


def test_stacked_lemke_paths_cut_at_max_pivots_mid_batch():
    rng = np.random.default_rng(13)
    game = reduce_full(random_quadratic(1, 1.0 / 13.0, rng))[0]
    M, q, _, _ = membership_solver._game_lcp(game)
    covers = _covers(len(q), 5)
    full = membership_solver._lemke_paths(M, q, covers, 10**6)
    lengths = sorted(len(z0_values) for _, z0_values in full)
    cap = lengths[len(lengths) // 2]
    assert lengths[0] <= cap < lengths[-1]
    batch = _assert_batch_matches_lone_paths(M, q, covers, cap)
    for (solution, z0_values), (whole, whole_z0) in zip(batch, full):
        assert z0_values == whole_z0[:cap]
        if len(whole_z0) <= cap:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(solution, whole))
        else:
            assert solution is None


@pytest.mark.parametrize("paths_per_block", [1, 5])
def test_blocked_rank_one_update_matches_one_block(monkeypatch, paths_per_block):
    # Up to LCP size 36 all 12 paths fit in one update block; a smaller
    # block makes the pivot update run in blocks of 1 path, or of 5, 5, 2.
    rng = np.random.default_rng(12)
    games = [reduce_full(random_quadratic(1 + trial % 2, 1.0 / 13.0, rng))[0]
             for trial in range(6)]
    rng = np.random.default_rng(402)
    games += [degenerate_independent_game(rng)[0] for _ in range(10)]
    default_block = membership_solver._UPDATE_BLOCK
    for trial, game in enumerate(games):
        M, q, _, _ = membership_solver._game_lcp(game)
        covers = _covers(len(q), trial)
        monkeypatch.setattr(membership_solver, "_UPDATE_BLOCK", default_block)
        whole = membership_solver._lemke_paths(M, q, covers, 10**6)
        entries = len(q) * (2 * len(q) + 2)
        assert entries * len(covers) <= default_block, trial
        monkeypatch.setattr(membership_solver, "_UPDATE_BLOCK", paths_per_block * entries)
        blocked = membership_solver._lemke_paths(M, q, covers, 10**6)
        for p, ((solution, z0_values), (lone, lone_z0)) in enumerate(zip(blocked, whole)):
            assert z0_values == lone_z0, (trial, p)
            assert (solution is None) == (lone is None), (trial, p)
            if solution is not None:
                assert all(a.tobytes() == b.tobytes() for a, b in zip(solution, lone)), (trial, p)
