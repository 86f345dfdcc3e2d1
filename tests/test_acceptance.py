"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every tolerance is pinned here, not computed.
"""

import itertools
import json
import time

import numpy as np

from twoteam import cli
from twoteam.game_core import (
    PolymatrixGame,
    StrategyProfile,
    TwoTeamStructure,
    common_utility,
    random_two_team,
    utility,
    validate_two_team,
)
from twoteam.instances import (
    BoxPoint,
    QuadraticInstance,
    eval_minmax,
    eval_quadratic,
    grad_minmax,
    grad_quadratic,
    random_minmax,
    random_quadratic,
    verify_min_kkt,
    verify_minmax_kkt,
)
from twoteam.lp_solver import OPTIMAL, LinearProgram, solve_lp
from twoteam.membership_solver import build_dual_program, solve
from twoteam.oracle import (
    enumerate_lp_vertices,
    finite_diff_grad,
    grid_minimax_value,
    iter_profile_regrets,
    stage1_kkt_grid_scan,
)
from twoteam.reductions import copy_gadget, pullback_full, pullback_stage2, reduce_stage1, reduce_stage2


def report(num, desc, detail=""):
    print(f"\n[acceptance] criterion {num} ({desc}): PASS {detail}")


def criterion_7_game(rng, n_x, n_y, m, independent, cross_only):
    """Like ``random_two_team``, but draws Y-Y edges before the cross edges
    and, with ``cross_only``, no intra-team edges."""
    g = PolymatrixGame([m] * (n_x + n_y))
    xs = list(range(n_x))
    ys = list(range(n_x, n_x + n_y))
    if not cross_only:
        for a in range(n_x):
            for b in range(a + 1, n_x):
                mat = rng.uniform(-1, 1, (m, m))
                g.add_edge(xs[a], xs[b], mat, mat.T)
        if not independent:
            for a in range(n_y):
                for b in range(a + 1, n_y):
                    mat = rng.uniform(-1, 1, (m, m))
                    g.add_edge(ys[a], ys[b], mat, mat.T)
    for i in xs:
        for j in ys:
            mat = rng.uniform(-1, 1, (m, m))
            g.add_edge(i, j, mat, -mat.T)
    return g, TwoTeamStructure(tuple(xs), tuple(ys), independent_adversaries=independent)


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for draw in range(100):
        if draw % 2 == 0:
            q = random_quadratic(int(rng.integers(1, 6)), 0.05, rng)
            x = rng.uniform(0.1, 0.9, q.n)
            fd = finite_diff_grad(lambda v: eval_quadratic(q, v), x, 1e-5)
            g = grad_quadratic(q, x)
            assert np.max(np.abs(fd - g) / np.maximum(1.0, np.abs(g))) <= 1e-6
        else:
            m = random_minmax(int(rng.integers(1, 6)), int(rng.integers(1, 6)), 0.05, rng)
            x = rng.uniform(0.1, 0.9, m.n_x)
            y = rng.uniform(0.1, 0.9, m.n_y)
            g, qv = grad_minmax(m, (x, y))
            full = np.concatenate([g, qv])
            fd = finite_diff_grad(
                lambda v: eval_minmax(m, (v[: m.n_x], v[m.n_x:])), np.concatenate([x, y]), 1e-5
            )
            assert np.max(np.abs(fd - full) / np.maximum(1.0, np.abs(full))) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, "analytic gradients vs central differences", f"(100 draws, {elapsed:.2f}s)")


def test_criterion_2_stage2_structural_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(50):
        m = random_minmax(int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                          float(rng.uniform(0.1, 1.0)), rng)
        game, structure, _ = reduce_stage2(m)
        rep = validate_two_team(game, structure)
        assert rep.passed
        assert structure.independent_adversaries
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    report(2, "transformed games validate with independence", f"(50 draws, {elapsed:.2f}s)")


def test_criterion_3_stage1_objective_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        q = random_quadratic(int(rng.integers(1, 4)), 1.0 / 13.0, rng)
        m, params = reduce_stage1(q)
        n = q.n
        for _ in range(50):
            x = rng.uniform(0, 1, n)
            xp = rng.uniform(0, 1, n)
            y = rng.uniform(0, 1, n)
            lhs = eval_minmax(m, (np.concatenate([x, xp]), y))
            rhs = q.constant
            for i in range(n):
                rhs += q.linear[i] * x[i] + q.square[i] * x[i] * xp[i]
                for j in range(n):
                    if i != j:
                        rhs += q.cross[i, j] * x[i] * x[j]
            rhs += sum(params.T * copy_gadget(x[i], xp[i], y[i], params.eta) for i in range(n))
            rel = abs(lhs - rhs) / max(1.0, abs(rhs))
            worst = max(worst, rel)
            assert rel <= 1e-12
    report(3, "transformed objective equals duplicated form plus gadgets",
           f"(20 x 50 points, worst rel err {worst:.2e})")


def test_criterion_4_stage1_kkt_projection_desk_scale():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    total_found = 0
    for draw in range(10):
        n = 1 if draw % 5 < 3 else 2
        q = random_quadratic(n, 1.0 / 13.0, rng)
        m, params = reduce_stage1(q)
        projected, count = stage1_kkt_grid_scan(m, 200, m.epsilon)
        total_found += count
        for row in projected:
            assert verify_min_kkt(q, BoxPoint(row), q.epsilon).passed, row
    # One n = 3 draw (201^3 rows of the x block), from a generator of its
    # own so that the draws above stay as they are.
    q3 = random_quadratic(3, 1.0 / 13.0, np.random.default_rng(3000))
    m3, _ = reduce_stage1(q3)
    projected, count3 = stage1_kkt_grid_scan(m3, 200, m3.epsilon)
    for row in projected:
        assert verify_min_kkt(q3, BoxPoint(row), q3.epsilon).passed, row
    # Non-vacuity companion: the gadget-only instance has on-grid KKT
    # points, and they all project correctly too.
    qz = QuadraticInstance(n=1, constant=0, linear=[0], cross=[[0]], square=[0],
                           epsilon=1.0 / 13.0)
    mz, _ = reduce_stage1(qz)
    projected, count = stage1_kkt_grid_scan(mz, 200, mz.epsilon)
    assert count > 0
    for row in projected:
        assert verify_min_kkt(qz, BoxPoint(row), qz.epsilon).passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(4, "every grid KKT point of the transformed instance projects",
           f"(10 draws + one n = 3 draw + gadget-only; {total_found} random-draw grid points, "
           f"{count3} at n = 3, {count} gadget-only points, 0 counterexamples, {elapsed:.1f}s)")


def test_criterion_5_stage2_nash_pullback_desk_scale():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    k = 100
    total_hits = 0
    for draw in range(10):
        n = 1 if draw % 2 == 0 else 2
        m_inst = random_minmax(n, n, 1.0, rng)
        game, structure, params = reduce_stage2(m_inst)
        delta = params.delta_out
        thr = params.rounding_threshold
        eps = m_inst.epsilon
        gsum = m_inst.gamma + m_inst.gamma.T
        hits = 0
        spot_checks = 0
        for digits, regrets in iter_profile_regrets(game, k, budget=2 * 10**8):
            mask = regrets <= delta
            c = int(mask.sum())
            if c == 0:
                continue
            hits += c
            p = digits[mask, :n].astype(float) / k
            qq = digits[mask, n:].astype(float) / k
            x = np.where(p < thr, 0.0, np.where(p > 1.0 - thr, 1.0, p))
            y = np.where(qq < thr, 0.0, np.where(qq > 1.0 - thr, 1.0, qq))
            g = m_inst.beta + x @ gsum + y @ m_inst.theta.T
            qg = m_inst.zeta + x @ m_inst.theta
            vx = np.where(x == 0.0, -g - eps, np.where(x == 1.0, g - eps, np.abs(g) - eps))
            vy = np.where(y == 0.0, qg - eps, np.where(y == 1.0, -qg - eps, np.abs(qg) - eps))
            viol = np.maximum(vx.max(axis=1), vy.max(axis=1))
            assert np.all(viol <= 0.0), "pullback of a grid Nash profile failed the verifier"
            # Tie the vectorized check back to the definitional one on a
            # few of the hits.
            if spot_checks < 20:
                idx = np.nonzero(mask)[0][:4]
                for row in idx:
                    prof = StrategyProfile(
                        [np.array([d / k, 1 - d / k]) for d in digits[row]]
                    )
                    point = pullback_stage2(prof, params)
                    assert verify_minmax_kkt(m_inst, point, eps).passed
                    spot_checks += 1
        assert hits > 0, f"draw {draw}: no grid profile met delta={delta:.3g}"
        total_hits += hits
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(5, "every grid Nash profile of the transformed game pulls back",
           f"(10 draws, {total_hits} qualifying profiles, 0 counterexamples, {elapsed:.0f}s)")


def test_criterion_6_membership_pipeline():
    t0 = time.perf_counter()
    shapes = [(1, 1, 2), (2, 1, 2), (2, 2, 2), (3, 2, 2), (3, 3, 2),
              (1, 2, 3), (2, 2, 3), (1, 3, 3), (2, 3, 3), (3, 1, 2)]
    rng = np.random.default_rng(106)
    worst_gap = 0.0
    solve_s = oracle_s = 0.0
    for trial in range(50):
        n_x, n_y, m = shapes[trial % len(shapes)]
        game, structure = random_two_team(n_x, n_y, m, True, rng)
        t_stage = time.perf_counter()
        profile, rep = solve(game, structure, epsilon=1e-4, seed=trial)
        solve_s += time.perf_counter() - t_stage
        assert rep.passed, (trial, rep.max_regret)
        value = common_utility(game, structure, profile)
        t_stage = time.perf_counter()
        grid_value = grid_minimax_value(game, structure, 100, budget=3 * 10**7)
        oracle_s += time.perf_counter() - t_stage
        Z = game.sum_abs_payoffs()
        gap = abs(value - grid_value)
        worst_gap = max(worst_gap, gap / (2.0 * 0.01 * Z))
        assert gap <= 2.0 * 0.01 * Z, (trial, value, grid_value, Z)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, (elapsed, f"solve {solve_s:.1f}s", f"oracle {oracle_s:.1f}s")
    report(6, "pipeline solves pass the Nash check and match the grid value",
           f"(50 games, worst gap at {worst_gap:.2f} of budget, {elapsed:.0f}s: "
           f"solve {solve_s:.1f}s, oracle {oracle_s:.1f}s)")


def test_criterion_7_zero_sum_conservation():
    rng = np.random.default_rng(107)
    for trial in range(1000):
        cross_only = trial % 2 == 0
        n_x, n_y = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        game, structure = criterion_7_game(
            rng, n_x, n_y, m, independent=bool(rng.integers(0, 2)), cross_only=cross_only
        )
        profile = StrategyProfile([rng.dirichlet(np.ones(c)) for c in game.strategy_counts])
        total = sum(utility(game, i, profile) for i in range(game.num_players))
        tol = 1e-9 * game.sum_abs_payoffs()
        if cross_only:
            # No intra-team edges: the full utility sum is the cross-team
            # exchange, which cancels entrywise.
            assert abs(total) <= tol
        else:
            # With coordination edges each intra-team payoff is earned by
            # both endpoints; the cross-team exchange still cancels exactly.
            coord = 0.0
            for team in (structure.team_x, structure.team_y):
                t = list(team)
                for a in range(len(t)):
                    for b in range(a + 1, len(t)):
                        coord += profile[t[a]] @ game.payoff(t[a], t[b]) @ profile[t[b]]
            assert abs(total - 2.0 * coord) <= tol
    report(7, "cross-team payoff exchange conserves", "(1000 game/profile pairs)")


def test_criterion_8_lp_solver_vs_vertex_enumeration():
    rng = np.random.default_rng(108)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(200):
        n = int(rng.integers(1, 4))
        rows = int(rng.integers(1, 5))
        G = rng.uniform(-1, 1, (rows, n))
        h = rng.uniform(-0.5, 1.5, rows)
        eq = beq = None
        if rng.random() < 0.25:
            eq, beq = np.ones((1, n)), np.array([1.0])
        lp = LinearProgram(objective=rng.uniform(-1, 1, n), ineq_matrix=G, ineq_rhs=h,
                           eq_matrix=eq, eq_rhs=beq)
        truth = enumerate_lp_vertices(lp)
        got = solve_lp(lp)
        assert got.status == truth.status, (got.status, truth.status)
        statuses[got.status] += 1
        if got.status == OPTIMAL:
            assert abs(got.value - truth.value) <= 1e-9
    assert statuses["optimal"] >= 100
    report(8, "simplex agrees with vertex enumeration",
           f"(200 LPs: {statuses})")


def test_criterion_9_dual_equivalence_identity():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(50):
        n_x, n_y = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        game, structure = random_two_team(n_x, n_y, m, True, rng)
        prog = build_dual_program(game, structure)
        for _ in range(20):
            x = [rng.dirichlet(np.ones(m)) for _ in range(n_x)]
            eliminated = prog.objective(x)
            best = -np.inf
            for combo in itertools.product(range(m), repeat=n_y):
                strategies = list(x) + [np.eye(m)[k] for k in combo]
                best = max(best, common_utility(game, structure, StrategyProfile(strategies)))
            worst = max(worst, abs(eliminated - best))
            assert abs(eliminated - best) <= 1e-12
    report(9, "eliminated objective equals the inner maximum",
           f"(50 games x 20 points, worst gap {worst:.2e})")


def test_criterion_10_end_to_end_pipeline(tmp_path):
    t0 = time.perf_counter()
    per_run_cap = 30.0
    for seed in range(20):
        run_start = time.perf_counter()
        q_path = tmp_path / f"q{seed}.json"
        g_path = tmp_path / f"g{seed}.json"
        p_path = tmp_path / f"p{seed}.json"
        n = 1 + seed % 2
        assert cli.main(["gen", "--kind", "quadratic", "--n", str(n),
                         "--seed", str(seed), "--out", str(q_path)]) == 0
        assert cli.main(["reduce", "--stage", "full", "--in", str(q_path),
                         "--out", str(g_path)]) == 0
        params = json.loads((tmp_path / f"g{seed}.json.params.json").read_text())
        delta = params["delta"]
        assert cli.main(["solve", "--game", str(g_path), "--epsilon", str(delta),
                         "--seed", str(seed), "--out", str(p_path)]) == 0
        assert cli.main(["verify", "--kind", "nash", "--game", str(g_path),
                         "--profile", str(p_path), "--epsilon", str(delta)]) == 0
        # End-to-end property at the library level: the solved profile
        # pulls back to a KKT point of the original instance.
        from twoteam.game_core import profile_from_dict
        from twoteam.instances import instance_from_dict
        from twoteam.reductions import reduce_full as _reduce_full

        q = instance_from_dict(json.loads(q_path.read_text()))
        _, _, full_params = _reduce_full(q)
        profile = profile_from_dict(json.loads(p_path.read_text()))
        x = pullback_full(profile, full_params)
        assert verify_min_kkt(q, x, q.epsilon).passed
        assert time.perf_counter() - run_start < per_run_cap
    elapsed = time.perf_counter() - t0
    report(10, "gen | reduce full | solve | verify pipeline exits 0",
           f"(20 seeded runs, {elapsed:.0f}s total)")
