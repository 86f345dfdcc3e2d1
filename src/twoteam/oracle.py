"""Independent brute-force ground truth.

Grid searches over product-of-simplices profiles and box lattices, central
finite differences, and LP vertex enumeration.  These routines recompute
everything from raw payoff matrices and coefficient tables so they share no
algorithmic path with the solvers they are used to check.  Budget guards
are hard errors: a truncated oracle is worse than none.

The regret, KKT-lattice and minimax scans walk their lattices with
``_prefix_tiles``: only the digits of the axes before the last (the
prefix) are decoded, and the last axis is a broadcast block, so
per-prefix terms are computed once per prefix and combined with
precomputed last-axis rows.  Per-prefix rows are gathered with ``take``.
Terms that do not depend on the block stay per prefix row: the regret
of a player with no edge to the last player, and the KKT-lattice bounds
on the gradient, one pair per digit.  Each call of a scan owns one
workspace of tile-sized buffers, allocated in the call and replaced only
when the tile shape changes; every outer sum, product, maximum and mask
is written into it in place, so the only tile-sized arrays a tile
allocates are those the scan hands back.  The in-place forms do the
same float operations on the same operands as fresh arrays would
(addition commutes exactly, and a maximum of finite values does not
depend on order), so the results are byte-identical to them.  The
regret scan's digits come out column-major, one run per player.  The
stage-1 scan instead counts KKT cells in one small table per index.  No
scan calls the point-wise verifiers; small KKT lattices take the same
vectorized path as large ones.  Budget guards compare lattice sizes from
``simplex_grid_size`` before any grid is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .game_core import PolymatrixGame, StrategyProfile, TwoTeamStructure, validate_two_team
from .instances import BoxPoint, MinmaxIndInstance, QuadraticInstance
# Unused here, but kept as module attributes: the benchmark's traced run
# wraps them under these names.
from .instances import verify_min_kkt, verify_minmax_kkt  # noqa: F401
from .lp_solver import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram

DEFAULT_BUDGET = 10_000_000
# Points per scan tile.  Each scan call allocates its tile buffers of up to
# 2^15 doubles (256 KiB) once and reuses them for every tile and every
# per-player pass.  On a 2-vCPU host, in 10 alternating runs of the
# benchmark's oracle-scan mix, 2^15 beat 2^16 on the median latency (-11%,
# 10/10) and on peak RSS (-10%) with the tail latency flat; tiles of 2^20
# ran the mix about 25% slower than 2^16.
_CHUNK = 1 << 15


class GridBudgetError(RuntimeError):
    """Requested enumeration exceeds the point budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"grid enumeration needs {required} points, budget is {budget}"
        )
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of step 1/k, stored by its exact denominator."""

    k: int

    def __post_init__(self):
        if int(self.k) < 1:
            raise ValueError("grid denominator must be >= 1")
        object.__setattr__(self, "k", int(self.k))

    @property
    def resolution(self) -> float:
        return 1.0 / self.k


def _grid_k(grid) -> int:
    return grid.k if isinstance(grid, GridSpec) else GridSpec(int(grid)).k


def simplex_grid(m: int, k: int) -> np.ndarray:
    """All points of the m-simplex with coordinates in multiples of 1/k.

    The rows are the integer compositions of k into m parts, in
    lexicographic order, divided by k once at the end, so the grid itself
    carries no float drift.  They are built one coordinate at a time: a
    partial row with r still to place is repeated r + 1 times, and its
    copies take 0, 1, ..., r as the next coordinate; the last coordinate
    is what remains.
    """
    if m < 1:
        raise ValueError("a simplex needs at least one coordinate")
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([k], dtype=np.int64)
    for _ in range(m - 1):
        parent = np.repeat(np.arange(len(left)), left + 1)
        # A copy's place in its parent's run is its next coordinate.
        starts = np.cumsum(left + 1) - (left + 1)
        nxt = np.arange(len(parent)) - starts[parent]
        rows = np.column_stack([rows[parent], nxt])
        left = left[parent] - nxt
    return np.column_stack([rows, left]) / k


def simplex_grid_size(m: int, k: int) -> int:
    return math.comb(k + m - 1, m - 1)


def _decode_digits(ids: np.ndarray, sizes) -> np.ndarray:
    digits = np.empty((len(ids), len(sizes)), dtype=np.int64)
    rem = ids.copy()
    for i in reversed(range(len(sizes))):
        digits[:, i] = rem % sizes[i]
        rem //= sizes[i]
    return digits


def _prefix_tiles(sizes):
    """Walk the lattice ``range(sizes[0]) x ... x range(sizes[-1])`` in tiles.

    Yields ``(prefix, lo, hi)``: the decoded digits of a run of consecutive
    prefixes (every axis but the last; shape (T, len(sizes) - 1)) and a
    block ``[lo, hi)`` of the last axis.  The tile's points are every prefix
    row against every block index, prefix-major, so concatenating the tiles
    gives lexicographic order.  A tile holds at most ``_CHUNK`` points (read
    at call time); when the last axis alone is longer, each tile is one
    prefix row against a block of it.
    """
    chunk = _CHUNK
    prefix_sizes, last = list(sizes[:-1]), sizes[-1]
    prefix_total = math.prod(prefix_sizes)
    block = min(last, chunk)
    tile = max(1, chunk // block)
    for start in range(0, prefix_total, tile):
        ids = np.arange(start, min(start + tile, prefix_total), dtype=np.int64)
        prefix = _decode_digits(ids, prefix_sizes)
        for lo in range(0, last, block):
            yield prefix, lo, min(lo + block, last)


def iter_profile_regrets(game: PolymatrixGame, grid, budget=None):
    """Yield (digits, max_regret) chunks over every grid profile.

    ``digits[:, i]`` indexes player i's simplex grid; regret math is done
    from the payoff matrices directly.  Iteration order is lexicographic in
    the digit tuples, and a chunk is one ``_prefix_tiles`` tile.  A chunk's
    ``digits`` is a fresh int64 array in column-major (Fortran) order: each
    player's column is filled as one run.  Its ``max_regret`` is fresh too,
    so a caller may keep every chunk.

    Per tile, player i's payoff vector is ``pre + tail``: ``pre`` sums its
    rows from the prefix players, ``tail`` is its row from the last player's
    block (none for the last player itself).  The best reply is a running
    maximum over actions and the achieved payoff is ``x . pre + x . tail``,
    so no (points x actions) array is built.  The tile's maximum starts as
    the last player's regret; each prefix player with an edge to the last
    player is folded in from the call's workspace.  A prefix player without
    that edge has no ``tail``: its regret is constant along the block, so
    it is computed once per prefix row, and the row maxima (at least 0)
    are folded in last by one broadcast maximum.
    """
    k = _grid_k(grid)
    budget = DEFAULT_BUDGET if budget is None else int(budget)
    counts = game.strategy_counts
    sizes = [simplex_grid_size(m, k) for m in counts]
    total = math.prod(sizes)
    if total > budget:
        raise GridBudgetError(required=total, budget=budget)
    grids = [simplex_grid(m, k) for m in counts]

    last = game.num_players - 1
    # W[i][j][d] = payoff contribution to player i when j plays grid row d.
    # tails[i] holds a prefix player's rows from the last player, stored
    # action-major; players without that edge have none.
    W = {i: {j: grids[j] @ game.payoff(i, j).T for j in game.neighbors(i) if j != last}
         for i in range(last + 1)}
    tails = {i: np.ascontiguousarray((grids[last] @ game.payoff(i, last).T).T)
             for i in range(last) if game.has_edge(i, last)}

    def payoff_rows(i, prefix):
        pre = np.zeros((len(prefix), counts[i]))
        for j, rows in W[i].items():
            pre += rows.take(prefix[:, j], axis=0)
        return pre

    shape = None
    for prefix, lo, hi in _prefix_tiles(sizes):
        if shape != (len(prefix), hi - lo):
            shape = (len(prefix), hi - lo)
            regret, term, achieved = np.empty((3,) + shape)
        pre = payoff_rows(last, prefix)
        max_regret = pre @ grids[last][lo:hi].T
        np.subtract(pre.max(axis=1)[:, None], max_regret, out=max_regret)
        for i, rows in tails.items():
            pre, x, tail = payoff_rows(i, prefix), grids[i].take(prefix[:, i], axis=0), rows[:, lo:hi]
            regret[:] = tail[0]
            regret += pre[:, :1]
            for a in range(1, counts[i]):
                term[:] = tail[a]
                term += pre[:, a, None]
                np.maximum(regret, term, out=regret)
            np.matmul(x, tail, out=achieved)
            achieved += np.einsum("ck,ck->c", x, pre)[:, None]
            regret -= achieved
            np.maximum(max_regret, regret, out=max_regret)
        row_regret = np.zeros(len(prefix))
        for i in range(last):
            if i not in tails:
                pre, x = payoff_rows(i, prefix), grids[i].take(prefix[:, i], axis=0)
                np.maximum(row_regret, pre.max(axis=1) - np.einsum("ck,ck->c", x, pre), out=row_regret)
        np.maximum(max_regret, row_regret[:, None], out=max_regret)
        digits = np.empty((last + 1, len(prefix), hi - lo), dtype=np.int64)
        digits[:last] = prefix.T[:, :, None]
        digits[last] = np.arange(lo, hi)
        yield digits.reshape(last + 1, -1).T, max_regret.ravel()


def grid_profile(game: PolymatrixGame, grid, digits) -> StrategyProfile:
    k = _grid_k(grid)
    return StrategyProfile(
        [simplex_grid(m, k)[d] for m, d in zip(game.strategy_counts, digits)]
    )


def grid_min_regret_profile(game: PolymatrixGame, grid, budget=None):
    """Exhaustive min-max-regret search; lexicographically first among ties."""
    best = np.inf
    best_digits = None
    for digits, regrets in iter_profile_regrets(game, grid, budget=budget):
        j = int(np.argmin(regrets))
        if regrets[j] < best:
            best = float(regrets[j])
            best_digits = digits[j].copy()
    return grid_profile(game, grid, best_digits), best


def grid_nash_profiles(game: PolymatrixGame, grid, delta: float, budget=None, max_found=500_000):
    """All grid profiles with max regret <= delta, in enumeration order."""
    found, count = [], 0
    for digits, regrets in iter_profile_regrets(game, grid, budget=budget):
        hits = digits[regrets <= delta]
        count += len(hits)
        if count > max_found:
            raise GridBudgetError(required=count, budget=max_found)
        found.append(hits)
    k = _grid_k(grid)
    grids = [simplex_grid(m, k) for m in game.strategy_counts]
    return [
        StrategyProfile([g[d] for g, d in zip(grids, row)])
        for row in itertools.chain.from_iterable(found)
    ]


# ---------------------------------------------------------------------------
# Box-lattice KKT enumeration.


def _box_total(dims: int, k: int) -> int:
    return (k + 1) ** dims


def grid_kkt_points(instance, grid, epsilon: float, budget=None) -> np.ndarray:
    """All box-lattice points passing the matching KKT verifier at epsilon.

    Every lattice, small or large, goes through one vectorized path.  The
    gradient is affine, ``g = c + p @ S``; for a minmax instance the y rows
    are the negated max-side gradient, which turns the max-side conditions
    into min-side ones.  Per ``_prefix_tiles`` tile, coordinate i's gradient
    is ``c_i + prefix @ S[:-1, i]`` plus the last coordinate's term
    broadcast over the block; the gradient and the tile's masks live in
    the call's workspace.

    The verifier's case split on exact boundary membership (lattice
    endpoints are exact) becomes a bound per digit: ``low[d] <= g <=
    high[d]``, with ``low`` = -eps except -inf at digit k and ``high`` = eps
    except +inf at digit 0.  The prefix digits' bounds broadcast by row,
    the block's by column.  This is exact: ``-g - eps <= 0`` in floating
    point holds iff ``g >= -eps``, since rounding is monotone and a nonzero
    sum of two doubles never rounds to 0.
    """
    k = _grid_k(grid)
    budget = DEFAULT_BUDGET if budget is None else int(budget)
    if isinstance(instance, QuadraticInstance):
        dims = instance.n
        c = instance.linear
        S = instance.cross + instance.cross.T + np.diag(2.0 * instance.square)
    elif isinstance(instance, MinmaxIndInstance):
        dims = instance.n_x + instance.n_y
        c = np.concatenate([instance.beta, -instance.zeta])
        S = np.block([
            [instance.gamma + instance.gamma.T, -instance.theta],
            [instance.theta.T, np.zeros((instance.n_y, instance.n_y))],
        ])
    else:
        raise TypeError(f"unsupported instance type {type(instance)!r}")
    total = _box_total(dims, k)
    if total > budget:
        raise GridBudgetError(required=total, budget=budget)

    vals = np.arange(k + 1, dtype=float) / k
    # Digit d passes when low[d] <= g <= high[d].
    low = np.full(k + 1, -float(epsilon))
    high = np.full(k + 1, float(epsilon))
    low[k], high[0] = -np.inf, np.inf
    last = dims - 1
    hits = []
    shape = None
    for prefix, lo, hi in _prefix_tiles([k + 1] * dims):
        if shape != (len(prefix), hi - lo):
            shape = (len(prefix), hi - lo)
            g = np.empty(shape)
            mask, ok = np.empty((2,) + shape, dtype=bool)
        pts = vals.take(prefix)
        tail = vals[lo:hi]
        mask.fill(True)
        for i in range(dims):
            g[:] = tail * S[last, i]
            g += (c[i] + pts @ S[:last, i])[:, None]
            if i < last:
                below, above = low.take(prefix[:, i])[:, None], high.take(prefix[:, i])[:, None]
            else:
                below, above = low[lo:hi], high[lo:hi]
            mask &= np.greater_equal(g, below, out=ok)
            mask &= np.less_equal(g, above, out=ok)
        rows, cols = np.nonzero(mask)
        if len(rows):
            hits.append(np.column_stack([pts[rows], tail[cols]]))
    if not hits:
        return np.empty((0, dims))
    return np.vstack(hits)


def stage1_kkt_grid_scan(m_inst: MinmaxIndInstance, grid, epsilon: float):
    """Exhaustive grid KKT enumeration for doubled-variable instances.

    Requires the coupling pattern produced by reduce_stage1: min-variables
    split into an x block and an x' block of size n each (n_x = 2n,
    n_y = n), theta supported on the pairs (i, y_i) and (x'_i, y_i), and
    gamma coupling the x' block only through the (i, x'_i) entries.  Under
    that pattern the KKT conditions factor per index i, so the full
    (3n)-dimensional lattice is covered without materializing it.

    Index i's table ``C[s, x]`` counts the (x'_i, y_i) lattice cells that
    complete x_i = x to a KKT cell of the index, where s is the other
    index's x value (one row when n = 1).  Each variable's condition
    depends only on whether its digit is 0, k or interior.  So per y_i
    digit, with ``P[x, x']`` the 0/1 matrix of pairs passing the y_i and
    x'_i conditions and ``N[s, x']`` that of pairs passing x_i's condition
    in one case, the case's x rows gain ``N @ P[rows].T``.  The KKT cells
    of the whole lattice over an x block number ``C0[0]`` when n = 1 and
    ``C0.T * C1`` when n = 2.

    Returns (projected, total): distinct x-block grid points admitting at
    least one full KKT extension (lexicographic order), and the total count
    of full KKT lattice points.
    """
    n = m_inst.n_y
    if n < 1 or m_inst.n_x != 2 * n:
        raise ValueError("instance does not have the doubled-variable shape")
    if n > 2:
        raise ValueError("factorized scan supports n <= 2")
    gamma, theta, beta, zeta = m_inst.gamma, m_inst.theta, m_inst.beta, m_inst.zeta
    for r in range(2 * n):
        for c in range(n):
            if theta[r, c] != 0.0 and r != c and r != n + c:
                raise ValueError("theta coupling outside the per-index pattern")
    if np.any(gamma[n:, :] != 0.0):
        raise ValueError("gamma must not involve the duplicate block on the left")
    for r in range(n):
        for c in range(n):
            if gamma[r, n + c] != 0.0 and c != r:
                raise ValueError("gamma couples a variable to a foreign duplicate")

    k = _grid_k(grid)
    eps = float(epsilon)
    v = np.arange(k + 1, dtype=float) / k
    # A min variable's condition at digit 0, interior or k is row 0, 1 or 2
    # of passes(g); case[d] is digit d's row and rows[c] the digits of case c.
    case = np.r_[0, np.ones(k - 1, dtype=int), 2]
    rows = [slice(0, 1), slice(1, k), slice(k, k + 1)]

    def passes(g):
        return np.stack([g >= -eps, np.abs(g) <= eps, g <= eps])

    tables = []
    for i in range(n):
        t1, t2, di = theta[i, i], theta[n + i, i], gamma[i, n + i]
        # x_i's gradient starts at s: beta_i plus, when n = 2, the coupling
        # term of the other index's x value.
        s = np.array([beta[i]]) if n == 1 else beta[i] + (gamma[i, 1 - i] + gamma[1 - i, i]) * v
        # y_i is a max variable, so its conditions are those of -gradient,
        # which depends only on (x_i, x'_i).
        y_ok = passes(-(zeta[i] + t1 * v[:, None] + t2 * v[None, :]))
        C = np.zeros((len(s), k + 1))
        for ydig, yv in enumerate(v):
            # P[x, x']: y_i and x'_i pass; x'_i's gradient depends on x_i.
            P = y_ok[case[ydig]] & passes(beta[n + i] + di * v + t2 * yv)[case].T
            # x_i's gradient depends on (s, x'_i): one product per x_i case.
            x_ok = passes(s[:, None] + di * v[None, :] + t1 * yv).astype(float)
            for c, r in enumerate(rows):
                C[:, r] += x_ok[c] @ P[r].T
        tables.append(C)
    # The counts are float sums of 0/1 entries far below 2^53, so exact.
    table = tables[0][0] if n == 1 else tables[0].T * tables[1]
    hits = np.nonzero(table)
    projected = np.column_stack([v[h] for h in hits])
    return projected, int(table[hits].sum())


# ---------------------------------------------------------------------------
# Finite differences and LP vertex enumeration.


def finite_diff_grad(evaluator, point, h: float) -> np.ndarray:
    """Numerical gradient; central in the interior of [0, 1], one-sided at walls."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = point.values.copy() if isinstance(point, BoxPoint) else np.asarray(point, dtype=float).copy()
    g = np.zeros_like(x)
    for i in range(len(x)):
        xi = x[i]
        if xi - h < 0.0:
            x[i] = xi + h
            f_plus = evaluator(x)
            x[i] = xi
            g[i] = (f_plus - evaluator(x)) / h
        elif xi + h > 1.0:
            x[i] = xi - h
            f_minus = evaluator(x)
            x[i] = xi
            g[i] = (evaluator(x) - f_minus) / h
        else:
            x[i] = xi + h
            f_plus = evaluator(x)
            x[i] = xi - h
            f_minus = evaluator(x)
            x[i] = xi
            g[i] = (f_plus - f_minus) / (2.0 * h)
    return g


@dataclass(frozen=True)
class VertexEnumeration:
    status: str            # optimal | infeasible | unbounded
    vertex: np.ndarray | None
    value: float | None


def enumerate_lp_vertices(lp: LinearProgram, guard: int = 12) -> VertexEnumeration:
    """Enumerate basic solutions, filter feasible ones, return the best.

    Combinatorial oracle for solve_lp.  Unboundedness is certified with a
    recession direction found along basis edges.  Assumes a pointed
    feasible region (every variable bounded on at least one side), which
    the random-LP tests guarantee; a feasible region without vertices is
    reported as infeasible.
    """
    n = lp.num_vars
    rows = []
    rhs = []
    for r in range(lp.ineq_matrix.shape[0]):
        rows.append(lp.ineq_matrix[r])
        rhs.append(lp.ineq_rhs[r])
    for i, (lo, hi) in enumerate(lp.bounds):
        if lo is not None:
            e = np.zeros(n)
            e[i] = -1.0
            rows.append(e)
            rhs.append(-lo)
        if hi is not None:
            e = np.zeros(n)
            e[i] = 1.0
            rows.append(e)
            rhs.append(hi)
    ineq = np.array(rows).reshape(-1, n)
    ineq_rhs = np.array(rhs)
    eq = lp.eq_matrix
    eq_rhs = lp.eq_rhs
    total = ineq.shape[0] + eq.shape[0]
    if total > guard:
        raise GridBudgetError(required=total, budget=guard)

    need = n - eq.shape[0]
    if need < 0:
        raise ValueError("more equality constraints than variables")

    def feasible(x) -> bool:
        if ineq.shape[0] and (ineq @ x - ineq_rhs).max() > 1e-9:
            return False
        if eq.shape[0] and np.abs(eq @ x - eq_rhs).max() > 1e-9:
            return False
        return True

    best_val = -np.inf
    best_vertex = None
    any_feasible = False
    for combo in itertools.combinations(range(ineq.shape[0]), need):
        A = np.vstack([eq, ineq[list(combo)]]) if combo else eq
        b = np.concatenate([eq_rhs, ineq_rhs[list(combo)]]) if combo else eq_rhs
        if A.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(x).all() or not feasible(x):
            continue
        any_feasible = True
        val = float(lp.objective @ x)
        if val > best_val + 1e-12:
            best_val = val
            best_vertex = x

    if not any_feasible:
        return VertexEnumeration(INFEASIBLE, None, None)

    # Recession check: a direction in the nullspace of n-1 constraints that
    # improves the objective and leaves every constraint slack nonincreasing.
    for combo in itertools.combinations(range(ineq.shape[0]), max(need - 1, 0)):
        A = np.vstack([eq, ineq[list(combo)]]) if (combo or eq.shape[0]) else np.zeros((0, n))
        if A.shape[0] != n - 1:
            continue
        _, _, vh = np.linalg.svd(np.vstack([A, np.zeros((1, n))]))
        d = vh[-1]
        for direction in (d, -d):
            if lp.objective @ direction <= 1e-9:
                continue
            if A.shape[0] and np.abs(A @ direction).max() > 1e-9:
                continue
            if ineq.shape[0] and (ineq @ direction).max() > 1e-9:
                continue
            return VertexEnumeration(UNBOUNDED, None, None)

    return VertexEnumeration(OPTIMAL, best_vertex, best_val)


def grid_minimax_value(game: PolymatrixGame, structure: TwoTeamStructure, grid, budget=None) -> float:
    """min over team-X grid profiles of max_y of the common utility.

    The inner maximum is exact: with independent adversaries the objective
    is linear in each adversary's strategy, so each maximizes over pure
    actions separately.  Only the team-X side is gridded, and every point
    of that lattice is evaluated.

    The last team-X player's simplex grid is a broadcast axis.  Only the
    grid points of the other team-X players (the prefix) are decoded, and
    per prefix the scan computes once its own coordination value ``base``,
    the linear coefficient ``coef`` that its intra-team edges put on the
    last player, and each adversary's payoff row ``A_j``.  A tile of
    prefixes against a block ``G`` of the last player's grid then has values
    ``base + coef @ G.T + sum_j max_k (A_j[:, None, k] + B_j[None, :, k])``,
    where ``B_j`` holds adversary j's rows from the last player; the tiles
    come from ``_prefix_tiles``, and ``value``, the running maximum and the
    outer sums live in the call's workspace.
    """
    report = validate_two_team(game, structure)
    if not report.passed or not structure.independent_adversaries:
        raise ValueError("requires a validated game with independent adversaries")
    k = _grid_k(grid)
    budget = DEFAULT_BUDGET if budget is None else int(budget)
    xs = list(structure.team_x)
    ys = list(structure.team_y)
    sizes = [simplex_grid_size(game.strategy_counts[i], k) for i in xs]
    total = math.prod(sizes)
    if total > budget:
        raise GridBudgetError(required=total, budget=budget)
    grids = [simplex_grid(game.strategy_counts[i], k) for i in xs]

    last = len(xs) - 1
    # Adversary j's payoff row contributions per x-player grid row, zero
    # where an edge is absent; the last player's are stored action-major.
    W = {j: [grids[t] @ game.payoff(j, xs[t]).T for t in range(last)] for j in ys}
    B = {j: np.ascontiguousarray((grids[last] @ game.payoff(j, xs[last]).T).T) for j in ys}
    pairs = [(a, b) for a in range(len(xs)) for b in range(a + 1, len(xs))
             if game.has_edge(xs[a], xs[b])]
    P = {(a, b): grids[a] @ game.payoff(xs[a], xs[b]) for (a, b) in pairs}

    best = np.inf
    shape = None
    for digits, lo, hi in _prefix_tiles(sizes):
        if shape != (len(digits), hi - lo):
            shape = (len(digits), hi - lo)
            value, best_j, term = np.empty((3,) + shape)
        base = np.zeros(len(digits))
        coef = np.zeros((len(digits), game.strategy_counts[xs[last]]))
        for (a, b) in pairs:
            if b == last:
                coef -= P[(a, b)].take(digits[:, a], axis=0)
            else:
                base -= np.einsum("ck,ck->c", P[(a, b)].take(digits[:, a], axis=0),
                                  grids[b].take(digits[:, b], axis=0))
        np.matmul(coef, grids[last][lo:hi].T, out=value)
        value += base[:, None]
        for j in ys:
            A = np.zeros((len(digits), game.strategy_counts[j]))
            for t in range(last):
                A += W[j][t].take(digits[:, t], axis=0)
            rows, cols = A.T, B[j][:, lo:hi]
            best_j[:] = cols[0]
            best_j += rows[0][:, None]
            for a_k, b_k in zip(rows[1:], cols[1:]):
                term[:] = b_k
                term += a_k[:, None]
                np.maximum(best_j, term, out=best_j)
            value += best_j
        best = min(best, float(value.min()))
    return best
