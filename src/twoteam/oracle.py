"""Independent brute-force ground truth.

Grid searches over product-of-simplices profiles and box lattices, central
finite differences, and LP vertex enumeration.  These routines recompute
everything from raw payoff matrices and coefficient tables so they share no
algorithmic path with the solvers they are used to check.  Budget guards
are hard errors: a truncated oracle is worse than none.

Every lattice scan walks its lattice with ``_prefix_tiles``: only the
digits of the axes before the last (the prefix) are decoded, and the last
axis is a broadcast block, so per-prefix terms are computed once per
prefix and combined with precomputed last-axis rows.  No scan calls the
point-wise verifiers; small KKT lattices take the same vectorized path as
large ones.
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
# Points per scan tile.  A tile's arrays of 2^16 doubles (512 KiB) are
# reused across the per-player passes; on a 2-vCPU host, tiles of 2^20
# ran the benchmark's oracle-scan mix about 25% slower.
_CHUNK = 1 << 16


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

    Enumerated as exact integer compositions (lexicographic) and divided
    once at the end, so the grid itself carries no float drift.
    """

    def comps(parts, total):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in comps(parts - 1, total - first):
                yield (first,) + rest

    rows = np.array(list(comps(m, k)), dtype=float)
    return rows / k


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
    the digit tuples, and a chunk is one ``_prefix_tiles`` tile.

    Per tile, player i's payoff vector is ``pre + tail``: ``pre`` sums its
    rows from the prefix players, ``tail`` is its row from the last player's
    block (none for the last player itself).  The best reply is a running
    maximum over actions and the achieved payoff is ``x . pre + x . tail``,
    so no (points x actions) array is built.
    """
    k = _grid_k(grid)
    budget = DEFAULT_BUDGET if budget is None else int(budget)
    counts = game.strategy_counts
    grids = [simplex_grid(m, k) for m in counts]
    sizes = [len(g) for g in grids]
    total = math.prod(sizes)
    if total > budget:
        raise GridBudgetError(required=total, budget=budget)

    last = game.num_players - 1
    # W[i][j][d] = payoff contribution to player i when j plays grid row d;
    # the last player's rows are stored action-major.
    W = {i: {j: grids[j] @ game.payoff(i, j).T for j in game.neighbors(i) if j != last}
         for i in range(last + 1)}
    tails = [np.ascontiguousarray((grids[last] @ game.payoff(i, last).T).T) for i in range(last)]

    for prefix, lo, hi in _prefix_tiles(sizes):
        G = grids[last][lo:hi]
        max_regret = np.zeros((len(prefix), hi - lo))
        for i in range(last + 1):
            pre = sum((W[i][j][prefix[:, j]] for j in W[i]), np.zeros((len(prefix), counts[i])))
            if i == last:
                regret = pre.max(axis=1)[:, None] - pre @ G.T
            else:
                x, tail = grids[i][prefix[:, i]], tails[i][:, lo:hi]
                regret = pre[:, :1] + tail[0]
                term = np.empty_like(regret)
                for a in range(1, counts[i]):
                    np.add(pre[:, a, None], tail[a], out=term)
                    np.maximum(regret, term, out=regret)
                achieved = x @ tail
                achieved += np.einsum("ck,ck->c", x, pre)[:, None]
                regret -= achieved
            np.maximum(max_regret, regret, out=max_regret)
        digits = np.empty((len(prefix), hi - lo, last + 1), dtype=np.int64)
        digits[:, :, :last] = prefix[:, None, :]
        digits[:, :, last] = np.arange(lo, hi)
        yield digits.reshape(-1, last + 1), max_regret.ravel()


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

    Every lattice, small or large, goes through one vectorized path with the
    verifier's case split on exact boundary membership (lattice endpoints
    are exact).  The gradient is affine, ``g = c + p @ S``; for a minmax
    instance the y rows are the negated max-side gradient, which turns the
    max-side conditions into min-side ones.  Per ``_prefix_tiles`` tile,
    coordinate i's gradient is ``c_i + prefix @ S[:-1, i]`` plus the last
    coordinate's term broadcast over the block.
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
    last = dims - 1
    hits = []
    for prefix, lo, hi in _prefix_tiles([k + 1] * dims):
        pts = vals[prefix]
        tail, tail_digits = vals[lo:hi], np.arange(lo, hi)
        mask = np.ones((len(prefix), hi - lo), dtype=bool)
        for i in range(dims):
            g = (c[i] + pts @ S[:last, i])[:, None] + tail * S[last, i]
            d = prefix[:, i, None] if i < last else tail_digits
            mask &= np.where(d == 0, -g - epsilon, np.where(d == k, g - epsilon, np.abs(g) - epsilon)) <= 0.0
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
    xdig = np.arange(k + 1)

    exists_tables = []
    count_tables = []
    for i in range(n):
        t1 = theta[i, i]
        t2 = theta[n + i, i]
        di = gamma[i, n + i]
        if n == 1:
            s_vals = np.array([beta[i]])
        else:
            j = 1 - i
            c_pair = gamma[i, j] + gamma[j, i]
            s_vals = beta[i] + c_pair * v

        # Gradient wrt y_i depends only on (x_i, x'_i).
        gy = zeta[i] + t1 * v[:, None] + t2 * v[None, :]
        ymask_low = gy <= eps
        ymask_high = gy >= -eps
        ymask_int = ymask_low & ymask_high

        E = np.zeros((len(s_vals), k + 1), dtype=bool)
        C = np.zeros((len(s_vals), k + 1), dtype=np.int64)
        for ydig in range(k + 1):
            yv = v[ydig]
            if ydig == 0:
                ymask = ymask_low
            elif ydig == k:
                ymask = ymask_high
            else:
                ymask = ymask_int
            # Gradient wrt x'_i depends on (x_i, y_i); case split on x'_i.
            gxp = beta[n + i] + di * v + t2 * yv
            m0 = gxp >= -eps
            m1 = gxp <= eps
            mi = m0 & m1
            M_xp = np.where(
                xdig[None, :] == 0,
                m0[:, None],
                np.where(xdig[None, :] == k, m1[:, None], mi[:, None]),
            )
            # Gradient wrt x_i depends on (s, x'_i, y_i); case split on x_i.
            gx = s_vals[:, None] + di * v[None, :] + t1 * yv
            n0 = gx >= -eps
            n1 = gx <= eps
            ni = n0 & n1
            M_x = np.where(
                xdig[None, :, None] == 0,
                n0[:, None, :],
                np.where(xdig[None, :, None] == k, n1[:, None, :], ni[:, None, :]),
            )
            combined = ymask[None, :, :] & M_xp[None, :, :] & M_x
            E |= combined.any(axis=2)
            C += combined.sum(axis=2)
        exists_tables.append(E)
        count_tables.append(C)

    if n == 1:
        exists = exists_tables[0][0]
        counts = count_tables[0][0]
        projected = v[exists].reshape(-1, 1)
        total = int(counts[exists].sum())
        return projected, total

    exists = exists_tables[0].T & exists_tables[1]
    counts = count_tables[0].T * count_tables[1]
    rows, cols = np.nonzero(exists)
    projected = np.column_stack([v[rows], v[cols]])
    total = int(counts[exists].sum())
    return projected, total


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
    come from ``_prefix_tiles``.
    """
    report = validate_two_team(game, structure)
    if not report.passed or not structure.independent_adversaries:
        raise ValueError("requires a validated game with independent adversaries")
    k = _grid_k(grid)
    budget = DEFAULT_BUDGET if budget is None else int(budget)
    xs = list(structure.team_x)
    ys = list(structure.team_y)
    grids = [simplex_grid(game.strategy_counts[i], k) for i in xs]
    sizes = [len(g) for g in grids]
    total = math.prod(sizes)
    if total > budget:
        raise GridBudgetError(required=total, budget=budget)

    last = len(xs) - 1
    # Adversary j's payoff row contributions per x-player grid row, zero
    # where an edge is absent; the last player's are stored action-major.
    W = {j: [grids[t] @ game.payoff(j, xs[t]).T for t in range(last)] for j in ys}
    B = {j: np.ascontiguousarray((grids[last] @ game.payoff(j, xs[last]).T).T) for j in ys}
    pairs = [(a, b) for a in range(len(xs)) for b in range(a + 1, len(xs))
             if game.has_edge(xs[a], xs[b])]
    P = {(a, b): grids[a] @ game.payoff(xs[a], xs[b]) for (a, b) in pairs}

    best = np.inf
    for digits, lo, hi in _prefix_tiles(sizes):
        base = np.zeros(len(digits))
        coef = np.zeros((len(digits), game.strategy_counts[xs[last]]))
        for (a, b) in pairs:
            if b == last:
                coef -= P[(a, b)][digits[:, a]]
            else:
                base -= np.einsum("ck,ck->c", P[(a, b)][digits[:, a]], grids[b][digits[:, b]])
        value = base[:, None] + coef @ grids[last][lo:hi].T
        term = np.empty_like(value)
        for j in ys:
            A = sum((W[j][t][digits[:, t]] for t in range(last)),
                    np.zeros((len(digits), game.strategy_counts[j])))
            rows, cols = A.T, B[j][:, lo:hi]
            best_j = rows[0][:, None] + cols[0]
            for a_k, b_k in zip(rows[1:], cols[1:]):
                np.add(a_k[:, None], b_k, out=term)
                np.maximum(best_j, term, out=best_j)
            value += best_j
        best = min(best, float(value.min()))
    return best
