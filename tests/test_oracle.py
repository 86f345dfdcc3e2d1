import itertools
import math

import numpy as np
import pytest

from twoteam import oracle
from twoteam.game_core import (
    PolymatrixGame,
    StrategyProfile,
    TwoTeamStructure,
    best_response,
    common_utility,
    verify_epsilon_nash,
)
from twoteam.instances import (
    BoxPoint,
    MinmaxIndInstance,
    MinmaxPoint,
    QuadraticInstance,
    eval_quadratic,
    grad_minmax,
    grad_quadratic,
    verify_min_kkt,
    verify_minmax_kkt,
)
from twoteam.lp_solver import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram
from twoteam.oracle import (
    GridBudgetError,
    enumerate_lp_vertices,
    finite_diff_grad,
    grid_kkt_points,
    grid_min_regret_profile,
    grid_minimax_value,
    grid_nash_profiles,
    grid_profile,
    iter_profile_regrets,
    simplex_grid,
    simplex_grid_size,
    stage1_kkt_grid_scan,
)
from twoteam.reductions import reduce_stage1, reduce_stage2


def matching_pennies():
    g = PolymatrixGame([2, 2])
    g.add_edge(0, 1, [[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    return g, TwoTeamStructure((0,), (1,), independent_adversaries=True)


def test_simplex_grid_counts_and_exactness():
    for m, k in [(2, 10), (3, 7), (4, 5)]:
        grid = simplex_grid(m, k)
        assert len(grid) == simplex_grid_size(m, k) == math.comb(k + m - 1, m - 1)
        # Enumeration is exact in integers; only the final division rounds.
        assert np.abs(grid.sum(axis=1) - 1.0).max() <= 1e-15
        assert grid.min() >= 0.0
        assert np.array_equal(grid * k, np.round(grid * k))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_simplex_grid_is_the_lexicographic_compositions(m):
    # Definitional enumeration: every m-tuple over 0..k summing to k, in
    # itertools.product (lexicographic) order, divided by k.
    for k in range(1, 13):
        want = np.array([t for t in itertools.product(range(k + 1), repeat=m) if sum(t) == k]) / k
        got = simplex_grid(m, k)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)


def test_simplex_grid_rejects_an_empty_simplex():
    with pytest.raises(ValueError):
        simplex_grid(0, 3)


@pytest.mark.parametrize("grid, error", [(0, ValueError), (-3, ValueError),
                                         (2.5, TypeError), ("20", TypeError)])
def test_scans_reject_grids_that_are_not_positive_integers(grid, error):
    g, _ = matching_pennies()
    q = QuadraticInstance(n=1, constant=0, linear=[0], cross=[[0]], square=[1], epsilon=0.1)
    with pytest.raises(error):
        next(iter_profile_regrets(g, grid))
    with pytest.raises(error):
        grid_kkt_points(q, grid, 0.1)


def test_grid_min_regret_matching_pennies():
    g, _ = matching_pennies()
    profile, regret = grid_min_regret_profile(g, 10)
    assert regret == pytest.approx(0.0, abs=1e-12)
    assert profile[0] == pytest.approx([0.5, 0.5])
    assert profile[1] == pytest.approx([0.5, 0.5])


def test_grid_min_regret_zero_game_first_profile():
    g = PolymatrixGame([2, 2])
    g.add_edge(0, 1, np.zeros((2, 2)), np.zeros((2, 2)))
    profile, regret = grid_min_regret_profile(g, 4)
    assert regret == 0.0
    first = simplex_grid(2, 4)[0]
    assert profile[0] == pytest.approx(first)
    assert profile[1] == pytest.approx(first)


def test_budget_guard_is_hard_error():
    g = PolymatrixGame([3, 3, 3, 3])
    with pytest.raises(GridBudgetError) as err:
        grid_min_regret_profile(g, 100, budget=10**6)
    assert err.value.required == simplex_grid_size(3, 100) ** 4


def test_budget_guards_run_before_any_grid_is_built(monkeypatch):
    # A grid of 10^6 on a 3-action player has about 5 * 10^11 points; the
    # guards must refuse it from the sizes alone.
    def no_grids(m, k):
        raise AssertionError("simplex_grid called before the budget guard")

    monkeypatch.setattr(oracle, "simplex_grid", no_grids)
    g, s = team_game(np.random.default_rng(0), [3, 2], [3], [(0, 1)], [(0, 0), (1, 0)])
    with pytest.raises(GridBudgetError):
        next(iter_profile_regrets(g, 10**6, budget=10))
    with pytest.raises(GridBudgetError):
        grid_min_regret_profile(g, 10**6, budget=10)
    with pytest.raises(GridBudgetError) as err:
        grid_minimax_value(g, s, 10**6, budget=10)
    assert err.value.required == simplex_grid_size(3, 10**6) * simplex_grid_size(2, 10**6)


def walker_bounds(sizes, row):
    """The early run of the rule in test_prefix_rows_is_the_filtered_product:
    coordinate len(row) takes [first, stop), empty when the digit sum of
    ``row`` is a multiple of 3."""
    total, size = sum(row), sizes[len(row)]
    first = total % size
    return first, min(size, first + total % 3)


@pytest.mark.parametrize("early", [False, True])
@pytest.mark.parametrize("tile", [1, 2, 5, 7, 100])
@pytest.mark.parametrize("sizes", [[], [3], [2, 3], [4, 1, 3], [3, 5, 2, 4], [6, 4, 5]])
def test_prefix_rows_is_the_filtered_product(sizes, tile, early):
    # Full runs (ints) on even coordinates; with ``early``, odd coordinates
    # take a per-row run that may be empty, so rows are dropped mid-walk and
    # tiles end inside parents' runs at every level.
    def runs(rows):
        i = rows.shape[1]
        if not early or i % 2 == 0:
            return 0, sizes[i]
        first, stop = zip(*(walker_bounds(sizes, row) for row in rows.tolist()))
        return np.array(first), np.array(stop)

    def passes(row):
        return not early or all(first <= row[i] < stop for i in range(1, len(row), 2)
                                for first, stop in [walker_bounds(sizes, row[:i])])

    want = [row for row in itertools.product(*map(range, sizes)) if passes(row)]
    tiles = list(oracle._prefix_rows(len(sizes), tile, runs))
    assert all(t.dtype == np.int64 and t.shape[1] == len(sizes) and 0 < len(t) <= tile for t in tiles)
    assert [tuple(row) for t in tiles for row in t.tolist()] == want


def regret_game(counts, edges, rng, integer=False):
    g = PolymatrixGame(counts)
    for a, b in edges:
        shape = (counts[a], counts[b])
        if integer:
            g.add_edge(a, b, rng.integers(-1, 2, shape), rng.integers(-1, 2, shape[::-1]))
        else:
            g.add_edge(a, b, rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape[::-1]))
    return g


REGRET_CASES = {
    # (strategy counts, edges, integer payoffs, grid)
    "two-player": ([2, 3], [(0, 1)], False, 5),
    "single-player": ([3], [], False, 4),
    "no-edges": ([2, 3, 2], [], False, 3),
    "single-action": ([1, 3, 1], [(0, 1), (1, 2), (0, 2)], False, 4),
    "last-without-edges": ([2, 3, 3], [(0, 1)], False, 3),
    "unequal-actions": ([3, 1, 2, 4], [(0, 1), (0, 3), (1, 2), (2, 3)], False, 2),
    "integer-ties": ([2, 2, 2], [(0, 1), (1, 2), (0, 2)], True, 4),
    # A stage-2 game's shape: adversary 2 has no edge to adversary 3, the
    # last player, so its regret is constant along the last axis.
    "stage2-shape": ([2, 2, 2, 2], [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], False, 4),
    # Ragged counts, so every player's product has its own width.
    "ragged-1-2-3": ([1, 2, 3], [(0, 1), (0, 2), (1, 2)], False, 4),
    # Prefix player 1 has no edge at all; the others all meet the last player.
    "prefix-without-edges": ([3, 2, 2, 3], [(0, 2), (0, 3), (2, 3)], False, 3),
    # The last player (one action) meets no prefix player.
    "last-one-action-apart": ([2, 3, 1], [(0, 1)], False, 4),
}


def regret_case(case):
    """The case's game and grid, every digit tuple in lexicographic order,
    and each profile's regret from verify_epsilon_nash."""
    counts, edges, integer, k = REGRET_CASES[case]
    g = regret_game(counts, edges, np.random.default_rng(sorted(REGRET_CASES).index(case)), integer)
    grids = [simplex_grid(m, k) for m in counts]
    want_digits = list(itertools.product(*(range(len(grid)) for grid in grids)))
    want = [verify_epsilon_nash(g, StrategyProfile([grid[d] for grid, d in zip(grids, row)]), 0.0).max_regret
            for row in want_digits]
    return g, k, want_digits, want


@pytest.mark.parametrize("case", sorted(REGRET_CASES))
def test_scan_regrets_agree_with_best_response_path(case, monkeypatch):
    # The broadcast regret math must match the definitional regret from
    # verify_epsilon_nash on every profile, in lexicographic order, whatever
    # the tiling.
    g, k, want_digits, want = regret_case(case)
    # At 20, stage2-shape walks tiles of 4 prefix rows over axes of 5
    # digits, so tiles end inside a parent's run below the first axis.
    for chunk in (oracle._CHUNK, 3, 7, 20):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        digits, regrets = [], []
        for d, r in iter_profile_regrets(g, k):
            assert len(d) == len(r) <= chunk
            digits.extend(map(tuple, d.tolist()))
            regrets.extend(r)
        assert digits == want_digits
        assert np.abs(np.array(regrets) - want).max() <= 1e-12


def pure_nash_game(counts, edges, target, rng):
    """Uniform payoffs plus 3 on every edge's ``target`` entry, which makes
    the pure profile ``target`` a strict Nash equilibrium of every player
    with an edge (at least 2 per edge against at most 1 per edge)."""
    g = PolymatrixGame(counts)
    for a, b in edges:
        fwd, bwd = rng.uniform(-1, 1, (counts[a], counts[b])), rng.uniform(-1, 1, (counts[b], counts[a]))
        fwd[target[a], target[b]] += 3.0
        bwd[target[b], target[a]] += 3.0
        g.add_edge(a, b, fwd, bwd)
    return g


@pytest.mark.parametrize("case", ["stage2-shape", "ragged-1-2-3", "prefix-without-edges", "unequal-actions"])
def test_scan_regret_of_a_pure_nash_profile_is_exactly_zero(case, monkeypatch):
    # The played action's row of every product is exactly zero, so a pure
    # equilibrium scans to 0.0 and not to a rounding residue; a scan that
    # reports min_regret 0.0 relies on it.
    counts, edges, _, k = REGRET_CASES[case]
    rng = np.random.default_rng(11)
    target = [int(rng.integers(m)) for m in counts]
    g = pure_nash_game(counts, edges, target, rng)
    grids = [simplex_grid(m, k) for m in counts]
    digits = tuple(int(np.flatnonzero((grid == np.eye(m)[t]).all(axis=1))[0])
                   for grid, m, t in zip(grids, counts, target))
    profile = StrategyProfile([grid[d] for grid, d in zip(grids, digits)])
    assert verify_epsilon_nash(g, profile, 0.0).max_regret == 0.0
    for chunk in (oracle._CHUNK, 5):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        found = [r[(d == digits).all(axis=1)] for d, r in iter_profile_regrets(g, k)]
        hit = np.concatenate(found)
        assert hit.tolist() == [0.0]
        _, best = grid_min_regret_profile(g, k)
        assert best == 0.0


def test_scan_regret_chunks_survive_later_yields(monkeypatch):
    # Every chunk is kept before any is read, so an array reused across
    # yields would show up as overwritten digits or regrets.
    g, k, want_digits, want = regret_case("stage2-shape")
    for chunk in (oracle._CHUNK, 7):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        chunks = list(iter_profile_regrets(g, k))
        assert all(d.dtype == np.int64 for d, _ in chunks)
        assert np.array_equal(np.concatenate([d for d, _ in chunks]), np.array(want_digits))
        regrets = np.concatenate([r for _, r in chunks])
        assert np.abs(regrets - want).max() <= 1e-12


@pytest.mark.parametrize("chunk", [None, 7])
def test_scan_regret_workspaces_are_per_call(chunk, monkeypatch):
    # Two scans with different tile shapes advance in alternation and every
    # chunk is kept as yielded; at the end each must still hold the bytes
    # its scan yields when run alone.  A tile's arrays that are not yielded
    # are filled and read within the tile, so an array handed out by one
    # call and reused by another would show up here.
    if chunk is not None:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
    cases = [regret_case(case)[:2] for case in ("stage2-shape", "unequal-actions")]
    alone = [[(d.copy(), r.copy()) for d, r in iter_profile_regrets(g, k)] for g, k in cases]
    together = [[], []]
    # zip_longest advances the two generators in turn.
    for steps in itertools.zip_longest(*(iter_profile_regrets(g, k) for g, k in cases)):
        for kept, step in zip(together, steps):
            if step is not None:
                kept.append(step)
    assert [len(a) for a in alone] == [len(t) for t in together]
    if chunk is not None:
        assert len(alone[0]) > 1 and len(alone[1]) > 1
    for a, t in zip(alone, together):
        for (d_a, r_a), (d_t, r_t) in zip(a, t):
            assert d_t.dtype == d_a.dtype and d_t.shape == d_a.shape
            assert np.array_equal(d_t, d_a)
            assert r_t.dtype == r_a.dtype and r_t.tobytes() == r_a.tobytes()


def test_grid_nash_profiles_bilinear_stage2():
    m = MinmaxIndInstance(n_x=1, n_y=1, alpha=0, beta=[0], gamma=[[0]],
                          zeta=[0], theta=[[1]], epsilon=0.5)
    game, _, params = reduce_stage2(m)
    found = grid_nash_profiles(game, 50, params.delta_out)
    assert found
    # p q <= delta and p (1 - q) <= delta for every hit.
    for prof in found:
        p, q = prof[0][0], prof[1][0]
        assert p * q <= params.delta_out + 1e-12
        assert p * (1 - q) <= params.delta_out + 1e-12


def test_grid_nash_profiles_match_per_hit_construction():
    g = regret_game([2, 3, 2], [(0, 1), (1, 2), (0, 2)], np.random.default_rng(4), integer=True)
    delta = 0.25
    want = [grid_profile(g, 6, d)
            for digits, regrets in iter_profile_regrets(g, 6)
            for d in digits[regrets <= delta]]
    got = grid_nash_profiles(g, 6, delta)
    assert 0 < len(got) == len(want)
    for a, b in zip(got, want):
        assert all(np.array_equal(x, y) for x, y in zip(a.strategies, b.strategies))
    with pytest.raises(GridBudgetError):
        grid_nash_profiles(g, 6, delta, max_found=len(want) - 1)


def test_grid_kkt_points_quadratic_examples():
    q = QuadraticInstance(n=1, constant=0, linear=[0], cross=[[0]], square=[1], epsilon=0.01)
    pts = grid_kkt_points(q, 100, 0.01)
    # Derivative 2x: neighbors qualify only with |2x| <= 0.01, and the
    # nearest grid point 0.01 already has gradient 0.02.
    assert pts[:, 0].tolist() == [0.0]
    pts_fine = grid_kkt_points(q, 400, 0.01)
    assert pts_fine[:, 0].tolist() == [0.0, 0.0025, 0.005]
    zero = QuadraticInstance(n=1, constant=0, linear=[0], cross=[[0]], square=[0], epsilon=0.1)
    assert len(grid_kkt_points(zero, 10, 0.0)) == 11


def test_grid_kkt_points_bilinear_hand_set():
    m = MinmaxIndInstance(n_x=1, n_y=1, alpha=0, beta=[0], gamma=[[0]],
                          zeta=[0], theta=[[1]], epsilon=0.01)
    pts = grid_kkt_points(m, 20, 0.01)
    expected = sorted((0.0, y / 20) for y in range(21))
    got = sorted(map(tuple, pts))
    assert got == expected


def random_cross(rng, n):
    cross = rng.uniform(-1, 1, (n, n))
    np.fill_diagonal(cross, 0.0)
    return cross


def definitional_kkt_points(instance, k, epsilon):
    """Lattice points passing the point-wise verifier, in lexicographic order."""
    if isinstance(instance, QuadraticInstance):
        dims = instance.n
        passes = lambda p: verify_min_kkt(instance, BoxPoint(p), epsilon).passed
    else:
        dims = instance.n_x + instance.n_y
        passes = lambda p: verify_minmax_kkt(
            instance, MinmaxPoint(BoxPoint(p[: instance.n_x]), BoxPoint(p[instance.n_x :])), epsilon
        ).passed
    pts = [np.array(c) / k for c in itertools.product(range(k + 1), repeat=dims)]
    return np.array([p for p in pts if passes(p)]).reshape(-1, dims)


KKT_CASES = {
    # (kind, shape, grid, epsilon); dims = 1 leaves the tile prefix empty.
    "quadratic-1": ("quadratic", 1, 200, 0.05),
    "quadratic-2": ("quadratic", 2, 40, 0.2),
    "quadratic-3": ("quadratic", 3, 12, 0.4),
    "minmax-1x1": ("minmax", (1, 1), 40, 0.1),
    "minmax-2x1": ("minmax", (2, 1), 16, 0.3),
    "minmax-2x2": ("minmax", (2, 2), 9, 0.5),
}


@pytest.mark.parametrize("case", sorted(KKT_CASES))
def test_grid_kkt_points_match_definitional_verifier(case, monkeypatch):
    kind, shape, k, eps = KKT_CASES[case]
    rng = np.random.default_rng(sorted(KKT_CASES).index(case))
    if kind == "quadratic":
        inst = QuadraticInstance(n=shape, constant=0.1, linear=rng.uniform(-1, 1, shape),
                                 cross=random_cross(rng, shape), square=rng.uniform(-1, 1, shape),
                                 epsilon=eps)
    else:
        n_x, n_y = shape
        inst = MinmaxIndInstance(n_x=n_x, n_y=n_y, alpha=0, beta=rng.uniform(-1, 1, n_x),
                                 gamma=random_cross(rng, n_x), zeta=rng.uniform(-1, 1, n_y),
                                 theta=rng.uniform(-1, 1, (n_x, n_y)), epsilon=eps)
    want = definitional_kkt_points(inst, k, eps)
    assert 0 < len(want) < (k + 1) ** want.shape[1]
    # The scan takes _CHUNK // 8 prefix rows per tile: the default holds
    # every prefix row, a chunk of 5 puts each row in a tile of its own and
    # one of 50 six rows in a tile.
    for chunk in (oracle._CHUNK, 5, 50):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert np.array_equal(grid_kkt_points(inst, k, eps), want)


# Dyadic coefficients on a grid of 1/8: every lattice gradient is exact, and
# some equal -eps at digit 0, +eps at digit k and both inside, for eps = 0
# and eps = 1/4.
BOUNDARY_INSTANCES = {
    "quadratic": QuadraticInstance(n=2, constant=0, linear=[-0.5, 0.25], cross=[[0, 0.5], [0, 0]],
                                   square=[0.25, -0.5], epsilon=0.25),
    "minmax": MinmaxIndInstance(n_x=2, n_y=1, alpha=0, beta=[-0.5, 0.25], gamma=[[0, 0.25], [0.25, 0]],
                                zeta=[0.125], theta=[[0.5], [-0.75]], epsilon=0.25),
}


@pytest.mark.parametrize("eps", [0.0, 0.25])
@pytest.mark.parametrize("kind", sorted(BOUNDARY_INSTANCES))
def test_grid_kkt_points_exact_on_the_epsilon_boundary(kind, eps, monkeypatch):
    inst, k = BOUNDARY_INSTANCES[kind], 8
    digits = np.array(list(itertools.product(range(k + 1), repeat=inst.n if kind == "quadratic" else 3)))
    if kind == "quadratic":
        grads = np.array([grad_quadratic(inst, d / k) for d in digits])
    else:
        # A max variable's conditions are the min-side ones of -gradient.
        grads = np.array([np.concatenate([g, -q]) for g, q in
                          (grad_minmax(inst, (d[:2] / k, d[2:] / k)) for d in digits)])
    inside = (digits > 0) & (digits < k)
    assert np.any((digits == 0) & (grads == -eps))
    assert np.any((digits == k) & (grads == eps))
    assert np.any(inside & (grads == eps)) and np.any(inside & (grads == -eps))
    want = definitional_kkt_points(inst, k, eps)
    assert 0 < len(want) < len(digits)
    for chunk in (oracle._CHUNK, 5, 50):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert np.array_equal(grid_kkt_points(inst, k, eps), want)


# Dyadic instances whose lattices hold gradients that land on -eps, where a
# rounding step flips a hit.
TILE_CASES = {
    # Summed as one BLAS product per tile of points, the prefix term once
    # rounded differently at a chunk of 5 and added (3, 6, 10) and
    # (6, 7, 10).
    "n3-grid10": (QuadraticInstance(n=3, constant=0, linear=[-0.5, -1, -1],
                                    cross=[[0, 0, 0.25], [-0.5, 0, 0.5], [1, -0.5, 0]],
                                    square=[-0.5, 0.75, -0.75], epsilon=0.25), 10, 0.25),
    # A prefix term summed as one BLAS product over a tile's surviving rows
    # drops a hit here at a chunk of 5.
    "n4-grid10": (QuadraticInstance(n=4, constant=0, linear=[0.25, -0.125, -0.5, 0],
                                    cross=[[0, 0, -0.5, -0.5], [-1, 0, 0.5, 0.625],
                                           [-0.375, 0.125, 0, -0.625], [-0.375, -0.125, 0.375, 0]],
                                    square=[0.875, -0.25, -0.75, -0.875], epsilon=0.375), 10, 0.375),
}


@pytest.mark.parametrize("case", sorted(TILE_CASES))
def test_grid_kkt_points_is_tile_independent(case, monkeypatch):
    # A row's gradient must not depend on how many rows share its tile.
    q, k, eps = TILE_CASES[case]
    want = grid_kkt_points(q, k, eps)
    assert len(want) > 0
    for chunk in (5, 50):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert np.array_equal(grid_kkt_points(q, k, eps), want)


def _degenerate_quadratic(linear, cross, square, eps):
    return QuadraticInstance(n=len(linear), constant=0, linear=linear, cross=cross,
                             square=square, epsilon=max(eps, 0.01))


# (instance, grid, epsilon).  The last coordinate's slope S[last, i] is
# ``cross[last, i] + cross[i, last]`` off the diagonal and 2 * square[last]
# on it.
DEGENERATE_KKT_CASES = {
    # No interior digit, and one.
    "grid-1": (_degenerate_quadratic([0.3, -0.6, 0.1], random_cross(np.random.default_rng(7), 3),
                                     [0.4, -0.2, 0.7], 0.5), 1, 0.5),
    "grid-2": (MinmaxIndInstance(n_x=2, n_y=1, alpha=0, beta=[0.2, -0.4], gamma=[[0, 0.3], [-0.1, 0]],
                                 zeta=[0.1], theta=[[0.6], [-0.3]], epsilon=0.4), 2, 0.4),
    # An empty prefix with a falling gradient.
    "dims-1": (_degenerate_quadratic([0.3], [[0]], [-0.35], 0.05), 30, 0.05),
    # The last coordinate is y_1, so S[3] = (theta[0, 1], theta[1, 1], 0, 0):
    # slopes of -0.0, a negative one and exactly 0.
    "signed-zero-slopes": (MinmaxIndInstance(n_x=2, n_y=2, alpha=0, beta=[0.15, -0.1],
                                             gamma=[[0, 0.3], [0.1, 0]], zeta=[0.2, -0.05],
                                             theta=[[0.4, -0.0], [-0.2, -0.35]], epsilon=0.2), 9, 0.2),
    # Only exact zero gradients pass inside: dyadic, so every gradient is exact.
    "epsilon-0": (_degenerate_quadratic([-0.5, 0.25, 0.5], [[0, 0.5, -0.25], [0, 0, 0.5], [0.25, 0, 0]],
                                        [0.25, -0.5, -0.25], 0.0), 8, 0.0),
    # Slopes of 1e-300 put the first guesses' quotients out of range.
    "slope-1e-300": (_degenerate_quadratic([-0.2, 0.2], [[0, 1e-300], [0, 0]], [0.25, 5e-301], 0.2), 30, 0.2),
    # A slope of 2e-17 along the last coordinate moves x_0's gradient, 0.2
    # = eps, by at most one rounding step, from v = 0.7 on; the first guess
    # puts that step past v = 1, so the walk runs 10 digits back.
    "slope-one-rounding-step": (_degenerate_quadratic([0.2, 0], [[0, 2e-17], [0, 0]], [0, 0.05], 0.2),
                                30, 0.2),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_KKT_CASES))
def test_grid_kkt_points_degenerate_runs(case, monkeypatch):
    inst, k, eps = DEGENERATE_KKT_CASES[case]
    if case == "signed-zero-slopes":
        assert inst.theta[0, 1] == 0.0 and np.signbit(inst.theta[0, 1]) and inst.theta[1, 1] < 0
    want = definitional_kkt_points(inst, k, eps)
    assert 0 < len(want) < (k + 1) ** want.shape[1]
    for chunk in (oracle._CHUNK, 5, 50):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert np.array_equal(grid_kkt_points(inst, k, eps), want)


# Lattices with coordinates whose gradients hold no later coordinate, which
# the scan decides before it expands their digits: every y but the last of
# a minmax instance, and x_2 of the quadratic.  The quadratic's x_0 and x_1
# ignore the last coordinate, but x_0's gradient holds x_1 and x_1's holds
# its own, so neither may be decided early.  (instance, grid, epsilon)
EARLY_KKT_CASES = {
    "minmax-1x2": ((1, 2), 16, 0.3),
    "minmax-2x2": ((2, 2), 8, 0.4),
    "minmax-1x3": ((1, 3), 8, 0.4),
    "minmax-2x3": ((2, 3), 5, 0.5),
    "quadratic-zeroed-cross": (QuadraticInstance(n=5, constant=0, linear=[0.08, -0.31, -0.26, -0.25, 0.97],
                                                 cross=[[0, 0.27, 0.35, 0, 0], [0, 0, 0, 0, 0],
                                                        [0, 0, 0, 0, 0], [0, 0, 0, 0, -0.34],
                                                        [0, 0, 0, 0, 0]],
                                                 square=[0, 0.36, 0, -0.75, -0.9], epsilon=0.3), 5, 0.3),
}


@pytest.mark.parametrize("case", sorted(EARLY_KKT_CASES))
def test_grid_kkt_points_decides_coordinates_early(case, monkeypatch):
    inst, k, eps = EARLY_KKT_CASES[case]
    if isinstance(inst, tuple):
        n_x, n_y = inst
        rng = np.random.default_rng(sorted(EARLY_KKT_CASES).index(case))
        inst = MinmaxIndInstance(n_x=n_x, n_y=n_y, alpha=0, beta=rng.uniform(-1, 1, n_x),
                                 gamma=random_cross(rng, n_x), zeta=rng.uniform(-1, 1, n_y),
                                 theta=rng.uniform(-1, 1, (n_x, n_y)), epsilon=eps)
    want = definitional_kkt_points(inst, k, eps)
    assert 0 < len(want) < (k + 1) ** want.shape[1]
    # Tiles of 1, 8 and 4096 prefix rows.
    for chunk in (oracle._CHUNK, 8, 64):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        got = grid_kkt_points(inst, k, eps)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [32766, 32767, 40000])
def test_grid_kkt_points_beyond_the_int16_range(k):
    # Run ends reach k + 1 and the walk reads one digit past them, so the
    # counts must not wrap at 2^15.  The gradient sign * (v - 1) passes
    # from v = 0.999 on, rising for sign = 1 and falling for sign = -1.
    for sign in (1.0, -1.0):
        q = QuadraticInstance(n=1, constant=0, linear=[-sign], cross=[[0]], square=[0.5 * sign],
                              epsilon=0.001)
        vals = np.arange(k + 1) / k
        g = vals * sign + (-sign + 0.0)
        digits = np.arange(k + 1)
        passes = np.where(digits == 0, g >= -0.001, np.where(digits == k, g <= 0.001, np.abs(g) <= 0.001))
        want = vals[passes][:, None]
        assert 30 < len(want) < k // 100
        assert np.array_equal(grid_kkt_points(q, k, 0.001), want)


@pytest.mark.parametrize("eps", [-0.1, float("nan")])
def test_kkt_scans_reject_a_negative_or_nan_epsilon(eps):
    q = QuadraticInstance(n=1, constant=0, linear=[0], cross=[[0]], square=[1], epsilon=1.0 / 13.0)
    with pytest.raises(ValueError, match="epsilon"):
        grid_kkt_points(q, 10, eps)
    m, _ = reduce_stage1(q)
    with pytest.raises(ValueError, match="epsilon"):
        stage1_kkt_grid_scan(m, 10, eps)


def stage1_direct(m, k, eps):
    """The stage-1 scan's (projected, total), by direct lattice enumeration."""
    direct = grid_kkt_points(m, k, eps, budget=10**7)
    return np.unique(direct[:, : m.n_y], axis=0), len(direct)


def assert_stage1_matches_direct(m, k, eps, want=None):
    want_projected, want_total = stage1_direct(m, k, eps) if want is None else want
    projected, total = stage1_kkt_grid_scan(m, k, eps)
    assert total == want_total
    assert np.array_equal(projected, want_projected)
    return total


def reduced_random_qp(rng, n):
    q = QuadraticInstance(n=n, constant=rng.uniform(-1, 1), linear=rng.uniform(-1, 1, n),
                          cross=random_cross(rng, n), square=rng.uniform(-1, 1, n), epsilon=1.0 / 13.0)
    return reduce_stage1(q)


def test_stage1_scan_agrees_with_direct_enumeration():
    rng = np.random.default_rng(2)
    # n = 1: full 3-D lattice is enumerable directly.
    q = QuadraticInstance(n=1, constant=0.2, linear=[-0.3], cross=[[0]],
                          square=[0.9], epsilon=1.0 / 13.0)
    m, _ = reduce_stage1(q)
    for k, eps in [(50, m.epsilon), (50, 0.5), (24, 0.2)]:
        assert_stage1_matches_direct(m, k, eps)
    # n = 2 at a coarse grid: 9^6 lattice points.
    cross = np.zeros((2, 2))
    cross[0, 1], cross[1, 0] = rng.uniform(-1, 1, 2)
    q2 = QuadraticInstance(n=2, constant=rng.uniform(-1, 1), linear=rng.uniform(-1, 1, 2),
                           cross=cross, square=rng.uniform(-1, 1, 2), epsilon=1.0 / 13.0)
    m2, _ = reduce_stage1(q2)
    assert_stage1_matches_direct(m2, 8, 0.3)
    # Reduced random QPs at 0.75 T/k, where the lattice holds KKT points
    # (at the stage's own epsilon random draws have almost none).
    for n, k in [(1, 40), (2, 10), (2, 12)]:
        m, params = reduced_random_qp(rng, n)
        assert assert_stage1_matches_direct(m, k, 0.75 * params.T / k) > 0


@pytest.mark.parametrize("n", [1, 2])
def test_stage1_scan_on_degenerate_grids(n):
    # Grid 1 has no interior digit, so its interior case block is empty;
    # grids 2 and 3 have interior blocks one and two digits wide.
    rng = np.random.default_rng(20 + n)
    with_cells = 0
    for _ in range(10):
        m, params = reduced_random_qp(rng, n)
        for k in (1, 2, 3):
            for eps in (m.epsilon, 0.75 * params.T / k, params.T):
                with_cells += assert_stage1_matches_direct(m, k, eps) > 0
    assert with_cells >= 30


def test_stage1_scan_matches_definitional_verifier():
    # The direct enumeration above runs grid_kkt_points, which shares the
    # run walk with the scan; here every lattice cell goes through
    # verify_minmax_kkt instead.
    rng = np.random.default_rng(16)
    with_cells = 0
    for n, grids in [(1, (7, 20)), (2, (2, 4))]:
        for k in grids:
            m, params = reduced_random_qp(rng, n)
            for eps in (m.epsilon, 0.75 * params.T / k):
                direct = definitional_kkt_points(m, k, eps)
                want = np.unique(direct[:, :n], axis=0), len(direct)
                with_cells += assert_stage1_matches_direct(m, k, eps, want) > 0
    # At 0.75 T/k every lattice holds KKT cells.
    assert with_cells >= 4


def _stage1_boundary_instance(n, beta, gamma, zeta, theta):
    return MinmaxIndInstance(n_x=2 * n, n_y=n, alpha=0, beta=beta, gamma=gamma, zeta=zeta,
                             theta=theta, epsilon=0.25)


# Doubled-variable instances with dyadic coefficients on a grid of 1/8:
# every lattice gradient is exact, and for every variable some equal -eps
# at digit 0, +eps at digit k and both inside, for eps = 0 and eps = 1/4.
STAGE1_BOUNDARY_INSTANCES = {
    1: _stage1_boundary_instance(1, beta=[0.5, 0.5], gamma=[[0, -1], [0, 0]], zeta=[0.5],
                                 theta=[[-0.25], [-0.5]]),
    2: _stage1_boundary_instance(2, beta=[-0.5, 0.75, -0.5, 0.5],
                                 gamma=[[0, 0.75, 1, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0]],
                                 zeta=[0, 1], theta=[[0.5, 0], [0, -0.75], [-0.5, 0], [0, -0.5]]),
}


@pytest.mark.parametrize("eps", [0.0, 0.25])
@pytest.mark.parametrize("n", sorted(STAGE1_BOUNDARY_INSTANCES))
def test_stage1_scan_exact_on_the_epsilon_boundary(n, eps, monkeypatch):
    m, k = STAGE1_BOUNDARY_INSTANCES[n], 8
    digits = np.array(list(itertools.product(range(k + 1), repeat=3 * n)))
    x, y = digits[:, : 2 * n] / k, digits[:, 2 * n :] / k
    # A max variable's conditions are the min-side ones of -gradient.
    grads = np.hstack([m.beta + x @ (m.gamma + m.gamma.T) + y @ m.theta.T, -(m.zeta + x @ m.theta)])
    inside = (digits > 0) & (digits < k)
    for hit in [(digits == 0) & (grads == -eps), (digits == k) & (grads == eps),
                inside & (grads == eps), inside & (grads == -eps)]:
        assert hit.any(axis=0).all()
    want = stage1_direct(m, k, eps)
    assert 0 < want[1] < len(digits)
    for chunk in (oracle._CHUNK, 5, 50):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert_stage1_matches_direct(m, k, eps, want)


def _stage1_slopes_instance(n, slopes, beta, gamma_x, zeta):
    """A doubled-variable instance with (theta[i, i], theta[n + i, i],
    gamma[i, n + i]) = slopes[i]: the y slopes of x_i's and x'_i's
    gradients and the x' slope of x_i's."""
    gamma, theta = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, n))
    if n == 2:
        gamma[0, 1] = gamma_x
    for i, (t1, t2, d) in enumerate(slopes):
        theta[i, i], theta[n + i, i], gamma[i, n + i] = t1, t2, d
    return MinmaxIndInstance(n_x=2 * n, n_y=n, alpha=0, beta=beta, gamma=gamma, zeta=zeta,
                             theta=theta, epsilon=0.25)


# Zero and -0.0 slopes, which take the run walk's zero-slope branch, with
# dyadic coefficients on grids of 1/8 (n = 1) and 1/4 (n = 2), checked
# cell by cell with verify_minmax_kkt.
STAGE1_ZERO_SLOPE_INSTANCES = {
    "n1-x-flat-in-y": _stage1_slopes_instance(1, [(0.0, 0.5, -0.25)], [0.125, -0.25], 0, [0.25]),
    "n1-x'-flat-in-y": _stage1_slopes_instance(1, [(-0.75, -0.0, 0.5)], [0.25, -0.125], 0, [0.5]),
    "n1-all-flat": _stage1_slopes_instance(1, [(-0.0, 0.0, -0.0)], [0.5, 0.0], 0, [-0.25]),
    "n2-mixed": _stage1_slopes_instance(2, [(-0.0, 0.5, 0.0), (0.75, 0.0, -0.0)],
                                        [0.25, -0.125, -0.25, 0.125], 0.5, [0.25, -0.5]),
}


@pytest.mark.parametrize("case", sorted(STAGE1_ZERO_SLOPE_INSTANCES))
def test_stage1_scan_zero_slopes(case, monkeypatch):
    m, eps = STAGE1_ZERO_SLOPE_INSTANCES[case], 0.25
    n = m.n_y
    k = 8 if n == 1 else 4
    slopes = np.concatenate([[m.theta[i, i], m.theta[n + i, i], m.gamma[i, n + i]] for i in range(n)])
    assert np.any(slopes == 0.0)
    direct = definitional_kkt_points(m, k, eps)
    assert 0 < len(direct) < (k + 1) ** (3 * n)
    want = np.unique(direct[:, :n], axis=0), len(direct)
    for chunk in (oracle._CHUNK, 5, 50):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert_stage1_matches_direct(m, k, eps, want)


@pytest.mark.parametrize("n, k", [(1, 10), (2, 3)])
def test_stage1_scan_with_every_pair_dense(n, k, monkeypatch):
    # Just above the epsilon at which every (x_i, x'_i) pair has a y_i
    # passing both x'_i and y_i, so the scan can skip no pair.
    m, _ = reduced_random_qp(np.random.default_rng(30 + n), n)
    digits = np.array(list(itertools.product(range(k + 1), repeat=3 * n)))
    x, y = digits[:, : 2 * n] / k, digits[:, 2 * n :] / k
    # A max variable's conditions are the min-side ones of -gradient; a
    # cell's least passing epsilon is then -g at digit 0, g at k, |g| inside.
    grads = np.hstack([m.beta + x @ (m.gamma + m.gamma.T) + y @ m.theta.T, -(m.zeta + x @ m.theta)])
    least = np.where(digits == 0, -grads, np.where(digits == k, grads, np.abs(grads)))
    eps = 0.0
    for i in range(n):
        pair_least = np.full((k + 1) ** 2, np.inf)
        np.minimum.at(pair_least, digits[:, i] * (k + 1) + digits[:, n + i],
                      np.maximum(least[:, n + i], least[:, 2 * n + i]))
        eps = max(eps, 1.01 * pair_least.max())
    direct = definitional_kkt_points(m, k, eps)
    assert 0 < len(direct) < len(digits)
    want = np.unique(direct[:, :n], axis=0), len(direct)
    # Every (x'_i, case of x_i) key is used, so at n = 2 a tile holds
    # _CHUNK / 32 // 12 rows of s: all four, one, and two.
    for chunk in (oracle._CHUNK, 5, 800):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert_stage1_matches_direct(m, k, eps, want)


@pytest.mark.parametrize("n, k", [(1, 200), (1, 40), (1, 12), (2, 60), (2, 12), (2, 4)])
def test_stage1_scan_is_tile_independent(n, k, monkeypatch):
    m, params = reduced_random_qp(np.random.default_rng(k), n)
    eps = 0.75 * params.T / k
    projected, total = stage1_kkt_grid_scan(m, k, eps)
    assert total > 0
    # A tile holds _CHUNK // (k + 1)^2 rows of s, at least one.  The
    # default chunk takes them 8 at a time at (2, 60) and all at once at
    # (2, 12) and (2, 4), a chunk of 50 two at a time at (2, 4) (tiles of
    # 2, 2 and 1 rows); otherwise the chunks of 5 and 50 put every row in a
    # tile of its own.  When n = 1, s has a single row.
    for chunk in (5, 50):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        got_projected, got_total = stage1_kkt_grid_scan(m, k, eps)
        assert got_total == total
        assert np.array_equal(got_projected, projected)


def test_stage1_scan_rejects_foreign_shapes():
    m = MinmaxIndInstance(n_x=2, n_y=2, alpha=0, beta=[0, 0],
                          gamma=np.zeros((2, 2)), zeta=[0, 0],
                          theta=np.ones((2, 2)), epsilon=0.1)
    with pytest.raises(ValueError):
        stage1_kkt_grid_scan(m, 10, 0.1)


def test_finite_diff_examples():
    q = QuadraticInstance(n=1, constant=0, linear=[0], cross=[[0]], square=[1], epsilon=0.1)
    g = finite_diff_grad(lambda v: eval_quadratic(q, v), np.array([0.5]), 1e-5)
    assert g[0] == pytest.approx(1.0, abs=1e-9)
    g0 = finite_diff_grad(lambda v: 3.0, np.array([0.2, 0.8]), 1e-5)
    assert np.all(g0 == 0.0)
    # One-sided at the walls still recovers linear gradients exactly.
    lin = QuadraticInstance(n=1, constant=0, linear=[2.5], cross=[[0]], square=[0], epsilon=0.1)
    g1 = finite_diff_grad(lambda v: eval_quadratic(lin, v), np.array([0.0]), 1e-5)
    assert g1[0] == pytest.approx(2.5, abs=1e-9)


def test_enumerate_lp_vertices_examples():
    lp = LinearProgram(objective=[1, 1], ineq_matrix=np.eye(2), ineq_rhs=[1, 1])
    out = enumerate_lp_vertices(lp)
    assert out.status == OPTIMAL
    assert out.vertex == pytest.approx([1.0, 1.0])
    assert out.value == pytest.approx(2.0)
    infeas = LinearProgram(objective=[1.0], ineq_matrix=[[1.0]], ineq_rhs=[-1.0])
    assert enumerate_lp_vertices(infeas).status == INFEASIBLE
    unb = LinearProgram(objective=[1.0])
    assert enumerate_lp_vertices(unb).status == UNBOUNDED


def test_enumerate_lp_vertices_guard():
    lp = LinearProgram(objective=np.ones(8), ineq_matrix=np.eye(8), ineq_rhs=np.ones(8))
    with pytest.raises(GridBudgetError):
        enumerate_lp_vertices(lp)


def test_frozen_fixture_regressions():
    import json
    import pathlib

    fixtures = pathlib.Path(__file__).parent / "fixtures"
    m = MinmaxIndInstance(n_x=1, n_y=1, alpha=0, beta=[0], gamma=[[0]],
                          zeta=[0], theta=[[1]], epsilon=0.01)
    frozen = json.loads((fixtures / "bilinear_xy_kkt_grid20.json").read_text())
    pts = grid_kkt_points(m, frozen["grid"], frozen["epsilon"])
    assert [list(p) for p in pts] == frozen["points"]

    frozen = json.loads((fixtures / "bilinear_xy_stage2_minregret_grid50.json").read_text())
    game, _, _ = reduce_stage2(m)
    profile, regret = grid_min_regret_profile(game, frozen["grid"])
    assert regret == frozen["regret"]
    assert regret <= 0.02
    assert [list(v) for v in profile.strategies] == frozen["profile"]


def test_grid_minimax_value_matching_pennies():
    g, s = matching_pennies()
    v = grid_minimax_value(g, s, 20)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_grid_minimax_requires_independence():
    g, s = matching_pennies()
    s_dep = TwoTeamStructure(s.team_x, s.team_y, independent_adversaries=False)
    with pytest.raises(ValueError):
        grid_minimax_value(g, s_dep, 10)


def test_grid_minimax_rejects_an_empty_team_x():
    g = PolymatrixGame([2, 3])
    s = TwoTeamStructure((), (0, 1), independent_adversaries=True)
    with pytest.raises(ValueError, match="team X is empty"):
        grid_minimax_value(g, s, 4)


def team_game(rng, x_counts, y_counts, intra, cross):
    """Two-team game on team X = players 0..len(x_counts)-1, Y after them.

    ``intra`` lists team-X index pairs (a, b) with a coordination edge,
    ``cross`` lists (t, j) pairs: team-X index t against adversary index j.
    """
    nx = len(x_counts)
    g = PolymatrixGame(list(x_counts) + list(y_counts))
    for a, b in intra:
        mat = rng.uniform(-1, 1, (x_counts[a], x_counts[b]))
        g.add_edge(a, b, mat, mat.T)
    for t, j in cross:
        mat = rng.uniform(-1, 1, (x_counts[t], y_counts[j]))
        g.add_edge(t, nx + j, mat, -mat.T)
    ys = tuple(range(nx, nx + len(y_counts)))
    return g, TwoTeamStructure(tuple(range(nx)), ys, independent_adversaries=True)


def profile_by_profile_minimax(game, structure, k):
    """min over team-X grid profiles of U with every adversary best-responding."""
    counts = game.strategy_counts
    grids = [simplex_grid(counts[i], k) for i in structure.team_x]
    best = np.inf
    for rows in itertools.product(*grids):
        strategies = [None] * game.num_players
        for i, row in zip(structure.team_x, rows):
            strategies[i] = row
        for j in structure.team_y:
            strategies[j] = np.full(counts[j], 1.0 / counts[j])
        fixed_x = StrategyProfile(strategies)
        for j in structure.team_y:
            strategies[j] = np.eye(counts[j])[best_response(game, j, fixed_x)[0]]
        best = min(best, common_utility(game, structure, StrategyProfile(strategies)))
    return best


MINIMAX_CASES = {
    # n_x = 1, unequal adversary action counts.
    "one-x": ([3], [2, 3], [], [(0, 0), (0, 1)], 4),
    # Adversary 1 has no edge to the last team-X player.
    "two-x-intra": ([2, 3], [3, 2], [(0, 1)], [(0, 0), (1, 0), (0, 1)], 4),
    "two-x-no-intra": ([3, 2], [2], [], [(0, 0), (1, 0)], 4),
    # Team-X player 1 has no adversary edge.
    "three-x-intra": ([3, 2, 3], [2, 2], [(0, 1), (0, 2), (1, 2)], [(0, 0), (2, 0), (2, 1)], 3),
    "three-x-no-intra": ([3, 2, 3], [2, 2], [], [(0, 0), (2, 0), (0, 1)], 3),
    # Ragged team-X counts (1, 2, 3) against a one-action adversary.
    "ragged-1-2-3": ([1, 2, 3], [1, 3], [(1, 2)], [(0, 1), (1, 0), (2, 0), (2, 1)], 4),
    # Team-X player 1 has no edge at all.
    "prefix-without-edges": ([2, 3, 2], [2], [(0, 2)], [(0, 0), (2, 0)], 4),
    # The last team-X player meets neither the prefix nor an adversary.
    "last-apart": ([3, 2, 2], [2, 1], [(0, 1)], [(0, 0), (1, 1)], 4),
    # No adversaries: the value is the team's own coordination term.
    "no-adversaries": ([2, 3], [], [(0, 1)], [], 5),
}


@pytest.mark.parametrize("case", sorted(MINIMAX_CASES))
def test_grid_minimax_value_matches_profile_brute_force(case, monkeypatch):
    x_counts, y_counts, intra, cross, k = MINIMAX_CASES[case]
    g, s = team_game(np.random.default_rng(sorted(MINIMAX_CASES).index(case)),
                     x_counts, y_counts, intra, cross)
    want = profile_by_profile_minimax(g, s, k)
    got = grid_minimax_value(g, s, k)
    assert got == pytest.approx(want, abs=1e-12)
    # The last player's grid has 10 or 15 points: a chunk of 4 splits its
    # axis into blocks (one prefix per tile), a chunk of 25 keeps it whole
    # and splits the prefixes into tiles with a ragged last one.
    for chunk in (4, 25):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert grid_minimax_value(g, s, k) == pytest.approx(got, abs=1e-12)


def test_grid_minimax_budget_guard():
    g, s = team_game(np.random.default_rng(0), [3, 2], [2], [(0, 1)], [(0, 0), (1, 0)])
    total = simplex_grid_size(3, 10) * simplex_grid_size(2, 10)
    with pytest.raises(GridBudgetError) as err:
        grid_minimax_value(g, s, 10, budget=total - 1)
    assert (err.value.required, err.value.budget) == (total, total - 1)
    assert np.isfinite(grid_minimax_value(g, s, 10, budget=total))
