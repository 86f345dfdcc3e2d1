"""Independent brute-force ground truth.

Grid searches over product-of-simplices profiles and box lattices, central
finite differences, and LP vertex enumeration.  These routines recompute
everything from raw payoff matrices and coefficient tables so they share no
algorithmic path with the solvers they are used to check.  Budget guards
are hard errors, checked on ``simplex_grid_size`` products before any grid
is built: a truncated oracle is worse than none.

The regret, KKT-lattice and minimax scans walk their lattices in
``_prefix_tiles``: only the digits of the axes before the last (the
prefix) are decoded, and the last axis is a block, so per-prefix terms are
computed once per prefix row.  The regret and minimax scans write every
action's value on a tile as a row per prefix times a column per block, and
``_max_product`` takes one matrix product per player (or adversary) and a
running maximum over actions; no outer sum is built.  The products round
differently from sums taken term by term, by about 1e-16, so these scans
agree with the definitional verifiers to 1e-12 rather than bit for bit.
The KKT-lattice scan bounds each coordinate's gradient per digit; it is
exact.  The stage-1 scan counts KKT cells per index as matrix products of
0/1 pass tables, one per variable and digit case (0, interior or k), over
tiles of y digits: for n = 1 it contracts x' per case block, for n = 2
the (y, x') axis per x case.  Each float32 product adds up far fewer
than 2^24 cells, so the counts are exact.  Each scan call owns its
tile-sized workspaces, replaced only when the tile shape changes.  No scan
calls the point-wise verifiers.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .game_core import PolymatrixGame, StrategyProfile, TwoTeamStructure, validate_two_team
from .instances import BoxPoint, MinmaxIndInstance, QuadraticInstance
# Unused here, but kept as module attributes: the benchmark's traced run
# wraps them under these names.
from .instances import verify_min_kkt, verify_minmax_kkt  # noqa: F401
from .lp_solver import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram

DEFAULT_BUDGET = 10_000_000
# Points per scan tile.  Each scan call allocates its tile buffers once per
# tile shape.  On a 2-vCPU host, in 10 alternating runs of the benchmark's
# oracle-scan mix, 2^15 beat 2^16 on the median latency (-11%, 10/10) and
# on peak RSS (-10%) with the tail latency flat; tiles of 2^20 ran the mix
# about 25% slower than 2^16.
_CHUNK = 1 << 15
# Constraint rows, bounds included, that enumerate_lp_vertices accepts.
VERTEX_ROW_LIMIT = 12


class GridBudgetError(RuntimeError):
    """Requested enumeration exceeds the point budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"grid enumeration needs {required} points, budget is {budget}"
        )
        self.required = required
        self.budget = budget


def _check_budget(total: int, budget) -> None:
    budget = DEFAULT_BUDGET if budget is None else int(budget)
    if total > budget:
        raise GridBudgetError(required=total, budget=budget)


def _grid_k(grid) -> int:
    """The denominator k of a grid of step 1/k: an integer, at least 1."""
    k = operator.index(grid)
    if k < 1:
        raise ValueError("grid denominator must be >= 1")
    return k


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


def _max_product(L, R, prod, out):
    """Write the maximum over actions a of ``L[:, a].T @ R`` into ``out``.

    ``L`` is (K, m, T), action a's T rows of width K stored column-major so
    that they are built along T; ``R`` is (K, B); ``prod`` is a workspace
    of B columns and at least m * T rows.  One matmul covers all m * T rows
    (BLAS reads the F-ordered view without a copy), then a running maximum
    takes m slabs.
    """
    width, m, rows = L.shape
    slabs = np.matmul(L.reshape(width, m * rows).T, R, out=prod[: m * rows]).reshape(m, rows, -1)
    np.maximum(slabs[0], slabs[-1], out=out)
    for slab in slabs[1:-1]:
        np.maximum(out, slab, out=out)
    return out


def iter_profile_regrets(game: PolymatrixGame, grid, budget=None):
    """Yield (digits, max_regret) chunks over every grid profile.

    ``digits[:, i]`` indexes player i's simplex grid.  Chunks come in
    lexicographic order of the digit tuples, one per ``_prefix_tiles``
    tile.  A chunk's ``digits`` is a fresh int64 array in column-major
    order (each player's column is filled as one run) and its
    ``max_regret`` is fresh too, so a caller may keep every chunk.

    Player i's payoffs at a point are ``v = pre + tail``: ``pre`` sums its
    columns from the prefix players, ``tail`` is its column from the last
    player (none for the last player itself).  ``v_a - x . v`` is the row
    ``[pre_a - x . pre, e_a - x]`` times ``[1; tail]``, so one
    ``_max_product`` per player gives its regret on the tile; the last
    player's is the row ``[max_a pre_a, pre]`` times ``[1; -x_last]``.  A
    prefix player without an edge to the last player has a regret constant
    along the block, taken once per prefix row.  At a pure profile the
    played action's row is exactly zero, so a pure Nash profile scans to
    exactly 0.0.
    """
    k = _grid_k(grid)
    counts = game.strategy_counts
    sizes = [simplex_grid_size(m, k) for m in counts]
    _check_budget(math.prod(sizes), budget)
    grids = [np.ascontiguousarray(simplex_grid(m, k).T) for m in counts]

    last = game.num_players - 1
    # W[i][j][:, d] = payoff contribution to player i when j plays grid
    # point d.  R[i] stacks a ones row on a prefix player's columns from
    # the last player; players without that edge have none.
    W = {i: {j: game.payoff(i, j) @ grids[j] for j in game.neighbors(i) if j != last}
         for i in range(last + 1)}
    R = {i: np.vstack([np.ones(sizes[last]), game.payoff(i, last) @ grids[last]])
         for i in range(last) if game.has_edge(i, last)}
    R_last = np.vstack([np.ones(sizes[last]), -grids[last]])
    widest = max([counts[i] for i in R], default=1)

    def payoff_rows(i, prefix):
        pre = np.zeros((counts[i], len(prefix)))
        for j, cols in W[i].items():
            pre += cols.take(prefix[:, j], axis=1)
        return pre

    shape = None
    for prefix, lo, hi in _prefix_tiles(sizes):
        if shape != (len(prefix), hi - lo):
            shape = (len(prefix), hi - lo)
            regret, prod = np.empty(shape), np.empty((widest * shape[0], shape[1]))
        pre = payoff_rows(last, prefix)
        max_regret = np.vstack([functools.reduce(np.maximum, pre), pre]).T @ R_last[:, lo:hi]
        row_regret = np.zeros(len(prefix))
        for i in range(last):
            pre, x = payoff_rows(i, prefix), grids[i].take(prefix[:, i], axis=1)
            achieved = np.einsum("kc,kc->c", x, pre)
            if i not in R:
                np.maximum(row_regret, functools.reduce(np.maximum, pre) - achieved, out=row_regret)
                continue
            L = np.empty((1 + counts[i], counts[i], len(prefix)))
            np.subtract(pre, achieved, out=L[0])
            np.subtract(np.eye(counts[i])[:, :, None], x[:, None, :], out=L[1:])
            np.maximum(max_regret, _max_product(L, R[i][:, lo:hi], prod, regret), out=max_regret)
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
    _check_budget((k + 1) ** dims, budget)

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
        if mask.any():
            rows, cols = np.nonzero(mask)
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
    depends only on whether its digit is 0, k or interior (its case c), so
    three 0/1 pass tables cover every cell: ``Y[c, x, x']`` for y_i,
    ``XP[c, x, y]`` for x'_i and ``X[c, s, y, x']`` for x_i, each read at
    its own digit's case.  ``C[s, x]`` is the sum over (x', y) of their
    product, taken as matrix products per case block over tiles of y
    digits sized from ``_CHUNK``:

    - n = 1: per case block of x, x' and y, ``(Y @ X.T) * XP`` summed over
      y contracts x' in BLAS;
    - n = 2: per tile, ``T[x, y, x'] = Y and XP`` holds no s, so one
      product ``X[c] @ T[rows].T`` over the flattened (y, x') axis per
      x case counts every s at once.

    Each gradient keeps the expression of the point-wise KKT cases, so the
    tables are exact; each float32 product adds up at most
    ``max(k + 1, _CHUNK)`` cells, far below 2^24, and the tiles add up in
    float64.
    The KKT cells of the whole lattice over an x block number ``C0[0]``
    when n = 1 and ``C0.T * C1`` when n = 2.

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
    # A variable's condition at digit 0, interior or k is row 0, 1 or 2 of
    # passes(g); cases pairs each row with its block of digits (at k = 1 the
    # interior block is empty and left out).
    cases = [(c, slice(a, z)) for c, (a, z) in enumerate([(0, 1), (1, k), (k, k + 1)]) if a < z]

    def passes(g):
        return np.stack([g >= -eps, np.abs(g) <= eps, g <= eps])

    tables = []
    for i in range(n):
        t1, t2, di = theta[i, i], theta[n + i, i], gamma[i, n + i]
        # x_i's gradient starts at s: beta_i plus, when n = 2, the coupling
        # term of the other index's x value.
        s = np.array([beta[i]]) if n == 1 else beta[i] + (gamma[i, 1 - i] + gamma[1 - i, i]) * v
        # Y[c, x, x']: y_i passes in case c.  y_i is a max variable, so its
        # conditions are those of -gradient, which depends only on (x_i, x'_i).
        Y = passes(-(zeta[i] + t1 * v[:, None] + t2 * v[None, :]))
        # XP[c, x, y]: x'_i passes in case c; its gradient depends on (x_i, y_i).
        XP = passes(beta[n + i] + di * v[:, None] + t2 * v[None, :])
        # x_i's gradient is base[s, x'_i] + t1 * y_i.
        base = s[:, None] + di * v
        C = np.zeros((len(s), k + 1))
        step = max(1, _CHUNK // (len(s) * (k + 1)))
        height = None
        for lo in range(0, k + 1, step):
            hi = min(lo + step, k + 1)
            if height != hi - lo:
                height = hi - lo
                g = np.empty((len(s), height, k + 1))
                X = np.empty((3,) + g.shape, dtype=np.float32)
                if n == 2:
                    T = np.empty((k + 1, height, k + 1), dtype=np.float32)
            # The y cases' blocks clipped to the tile, tile-local.
            y_cases = [(c, slice(max(b.start, lo) - lo, min(b.stop, hi) - lo))
                       for c, b in cases if b.start < hi and lo < b.stop]
            # X[c, s, y, x']: x_i passes in case c, as passes(g) would say
            # (|g| <= eps holds iff both one-sided bounds do).
            np.add(base[:, None, :], t1 * v[lo:hi, None], out=g)
            np.greater_equal(g, -eps, out=X[0])
            np.less_equal(g, eps, out=X[2])
            np.multiply(X[0], X[2], out=X[1])
            XPt = XP[:, :, lo:hi]
            if n == 1:
                # Per case block of x, x' and y, the (x', y) cells of x
                # number the row sums of (Y @ X.T) * XP.
                for cy, by in y_cases:
                    for cx, bx in cases:
                        for cp, bp in cases:
                            inner = Y[cy, bx, bp] @ X[cx, 0, by, bp].T
                            C[0, bx] += np.einsum("xy,xy->x", inner, XPt[cp, bx, by])
                continue
            # T[x, y, x']: y_i and x'_i pass, each read at its own digit's
            # case.  T holds no s, so one product per x case counts every s.
            for cy, by in y_cases:
                for cp, bp in cases:
                    np.logical_and(Y[cy, :, None, bp], XPt[cp, :, by, None], out=T[:, by, bp])
            width = height * (k + 1)
            for cx, bx in cases:
                C[:, bx] += X[cx].reshape(len(s), width) @ T[bx].reshape(-1, width).T
        tables.append(C)
    # Integer counts far below 2^53, so their products are exact too.
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


def enumerate_lp_vertices(lp: LinearProgram) -> VertexEnumeration:
    """Enumerate basic solutions, filter feasible ones, return the best.

    Combinatorial oracle for solve_lp.  Unboundedness is certified with a
    recession direction found along basis edges.  Assumes a pointed
    feasible region (every variable bounded on at least one side), which
    the random-LP tests guarantee; a feasible region without vertices is
    reported as infeasible.  More than ``VERTEX_ROW_LIMIT`` constraint rows
    raise GridBudgetError.
    """
    n = lp.num_vars
    rows, rhs = list(lp.ineq_matrix), list(lp.ineq_rhs)
    for i, (lo, hi) in enumerate(lp.bounds):
        for sign, bound in ((-1.0, lo), (1.0, hi)):
            if bound is not None:
                e = np.zeros(n)
                e[i] = sign
                rows.append(e)
                rhs.append(sign * bound)
    ineq = np.array(rows).reshape(-1, n)
    ineq_rhs = np.array(rhs)
    eq = lp.eq_matrix
    eq_rhs = lp.eq_rhs
    total = ineq.shape[0] + eq.shape[0]
    if total > VERTEX_ROW_LIMIT:
        raise GridBudgetError(required=total, budget=VERTEX_ROW_LIMIT)

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

    The last team-X player's grid is the tiles' block axis.  Per prefix
    of the other team-X players, the scan computes their coordination value
    ``base``, the coefficient ``coef`` that their intra-team edges put on
    the last player, and each adversary's payoff column ``A_j``.  A point
    with last-player strategy g then has value ``base + coef . g + sum_j
    max_k (A_jk + B_j[k] . g)``, ``B_j`` being adversary j's payoffs from
    the last player.  That is one ``_max_product`` per adversary: action
    k's row is ``[A_jk + base, coef, e_k]`` against ``[1; g; B_j]`` for
    the first adversary and ``[A_jk, e_k]`` against ``[1; B_j]`` for the
    rest.  A team without adversaries faces one with a single action and
    no payoffs.
    """
    if not validate_two_team(game, structure).passed or not structure.independent_adversaries:
        raise ValueError("requires a validated game with independent adversaries")
    k = _grid_k(grid)
    counts = game.strategy_counts
    xs = list(structure.team_x)
    sizes = [simplex_grid_size(counts[i], k) for i in xs]
    _check_budget(math.prod(sizes), budget)
    grids = [np.ascontiguousarray(simplex_grid(counts[i], k).T) for i in xs]

    last = len(xs) - 1
    m_last = counts[xs[last]]
    # Adversary j's payoff columns per x-player grid point, zero where an
    # edge is absent.  R[j] stacks the last player's: a ones row, the grid
    # itself for the first adversary, then adversary j's columns.
    ys = {j: counts[j] for j in structure.team_y} or {None: 1}
    first = next(iter(ys))
    W, R = {}, {}
    for j, m in ys.items():
        cols = [game.payoff(j, xs[t]) @ grids[t] if j is not None else np.zeros((m, sizes[t]))
                for t in range(last + 1)]
        W[j] = cols[:last]
        R[j] = np.vstack([np.ones((1, sizes[last]))] + ([grids[last]] if j == first else []) + cols[last:])
    pairs = [(a, b) for a in range(len(xs)) for b in range(a + 1, len(xs))
             if game.has_edge(xs[a], xs[b])]
    P = {(a, b): game.payoff(xs[a], xs[b]).T @ grids[a] for (a, b) in pairs}

    best = np.inf
    shape = None
    for digits, lo, hi in _prefix_tiles(sizes):
        if shape != (len(digits), hi - lo):
            shape = (len(digits), hi - lo)
            value, best_j = np.empty((2,) + shape)
            prod = np.empty((max(ys.values()) * shape[0], shape[1]))
            L = {}
            for j, m in ys.items():
                lead = 1 + m_last * (j == first)
                L[j] = np.zeros((lead + m, m, shape[0]))
                L[j][lead:] = np.eye(m)[:, :, None]
        base, coef = np.zeros(len(digits)), np.zeros((m_last, len(digits)))
        for (a, b) in pairs:
            if b == last:
                coef -= P[(a, b)].take(digits[:, a], axis=1)
            else:
                base -= np.einsum("kc,kc->c", P[(a, b)].take(digits[:, a], axis=1),
                                  grids[b].take(digits[:, b], axis=1))
        L[first][1:1 + m_last] = coef[:, None, :]
        for j in ys:
            A = L[j][0]
            A[:] = base if j == first else 0.0
            for t in range(last):
                A += W[j][t].take(digits[:, t], axis=1)
            if j == first:
                _max_product(L[j], R[j][:, lo:hi], prod, value)
            else:
                value += _max_product(L[j], R[j][:, lo:hi], prod, best_j)
        best = min(best, float(value.min()))
    return best
