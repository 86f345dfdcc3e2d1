"""Independent brute-force ground truth.

Grid searches over product-of-simplices profiles and box lattices, central
finite differences, and LP vertex enumeration.  These routines recompute
everything from raw payoff matrices and coefficient tables so they share no
algorithmic path with the solvers they are used to check.  Budget guards
are hard errors, checked on ``simplex_grid_size`` products before any grid
is built: a truncated oracle is worse than none.

The regret, minimax and KKT-lattice scans take their prefix rows (every
axis but the last) from one walker, ``_prefix_rows``, which builds them
one coordinate at a time, in tiles, in lexicographic order.  The regret
and minimax scans take every digit of every prefix axis and treat the
last axis as a block, so per-prefix terms are computed once per prefix
row.  They write every action's value on a tile as a row per prefix times
a column per block, and ``_max_product`` takes one matrix product per
player (or adversary) and a running maximum over actions; no outer sum is
built.  The products round differently from sums taken term by term, by
about 1e-16, so these scans agree with the definitional verifiers to 1e-12
rather than bit for bit.  The KKT-lattice scan narrows the walk: a
coordinate whose gradient holds no later coordinate is decided on the rows
before its digits are expanded (digit 0, the interior and digit k pass or
fail as blocks).  It never evaluates the gradient at every lattice point:
on a finished row each other gradient coordinate is monotone along the
last axis, so its passing last digits form one run, whose ends it finds
from an arithmetic guess and a walk that compares the gradient itself.
Its per-row terms are summed term by term, so its hits do not depend on
the tile.  The stage-1 scan counts KKT cells per index with the same runs:
along y_i each variable's conditions pass one run of digits, x_i's runs
are found only for the (x_i, x'_i) pairs whose x'_i and y_i run is
nonempty, and a cell count is the length of the runs' intersection, in
integers.  No scan calls the point-wise verifiers.
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
# Points per regret or minimax tile: _CHUNK // B prefix rows against a
# block of B <= _CHUNK last digits (the KKT-lattice scan walks _CHUNK / 8
# prefix rows per tile).  On a 2-vCPU host, in 10 alternating runs of the
# benchmark's oracle-scan mix, 2^15 beat 2^16 on the median latency (-11%,
# 10/10) and on peak RSS (-10%) with the tail latency flat; tiles of 2^20
# ran the mix about 25% slower than 2^16.
_CHUNK = 1 << 15
# Constraint rows that enumerate_lp_vertices accepts, counting the row
# x_i >= 0 of each nonnegative variable.
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
    """Flat lattice ids to digits.  No scan calls it: it stays as the site
    the benchmark's traced run counts (``oracle.chunks``) until the
    benchmark reads the scans' own work counts."""
    digits = np.empty((len(ids), len(sizes)), dtype=np.int64)
    rem = ids.copy()
    for i in reversed(range(len(sizes))):
        digits[:, i] = rem % sizes[i]
        rem //= sizes[i]
    return digits


def _extend_rows(digits, first, stop, tile):
    """Yield the rows of ``digits`` extended by one digit, ``tile`` rows at a time.

    Row r takes the digits ``first[r] <= d < stop[r]``, none when first[r]
    >= stop[r]; int ``first`` and ``stop`` give every row the same run.
    The new rows come in lexicographic order, and a tile may end inside a
    row's run, so no more than ``tile`` rows are built at once however long
    the runs.
    """
    width = digits.shape[1] + 1
    if isinstance(stop, int):
        # A block of rows against a block of the run, by broadcasting.
        per = max(1, tile // (stop - first))
        for r in range(0, len(digits), per):
            block = digits[r:r + per]
            for lo in range(first, stop, tile):
                hi = min(lo + tile, stop)
                out = np.empty((len(block), hi - lo, width), dtype=np.int64)
                out[:, :, -1] = np.arange(lo, hi)
                if width > 1:  # the root row has no digits to copy
                    out[:, :, :-1] = block[:, None, :]
                yield out.reshape(-1, width)
        return
    counts = np.maximum(stop - first, 0)
    ends = np.cumsum(counts)
    # A new row's digit is its run's first digit plus its place in the run.
    shift = first - (ends - counts)
    total = int(ends[-1])
    for lo in range(0, total, tile):
        at = np.arange(lo, min(lo + tile, total))
        row = np.searchsorted(ends, at, side="right")
        out = np.empty((len(at), width), dtype=np.int64)
        out[:, :-1] = digits[row]
        out[:, -1] = shift[row] + at
        del at, row  # not held while the caller works on the tile
        yield out


def _prefix_rows(width, tile, runs):
    """Yield the rows of the first ``width`` coordinates, ``tile`` rows at a time.

    From the root row (no digits), each coordinate extends a tile of rows
    with ``_extend_rows`` by the run ``(first, stop) = runs(rows)``, ints
    when every row takes the same run; an empty run drops a row.  Tiles
    come in lexicographic order; a width-0 walk yields the root row alone.
    """

    def walk(rows):
        if rows.shape[1] == width:
            yield rows
            return
        first, stop = runs(rows)
        for tile_rows in _extend_rows(rows, first, stop, tile):
            yield from walk(tile_rows)

    yield from walk(np.empty((1, 0), dtype=np.int64))


def _max_product(L, R):
    """The maximum over actions a of ``L[:, a].T @ R``, as a fresh (T, B) array.

    ``L`` is (K, m, T), action a's T rows of width K stored column-major so
    that they are built along T; ``R`` is (K, B).  One matmul covers all
    m * T rows (BLAS reads the F-ordered view without a copy), then a
    running maximum takes m slabs; that is faster than ``.max(axis=0)``.
    """
    width, m, rows = L.shape
    slabs = (L.reshape(width, m * rows).T @ R).reshape(m, rows, -1)
    out = np.maximum(slabs[0], slabs[-1])
    for slab in slabs[1:-1]:
        np.maximum(out, slab, out=out)
    return out


def iter_profile_regrets(game: PolymatrixGame, grid, budget=None):
    """Yield (digits, max_regret) chunks over every grid profile.

    ``digits[:, i]`` indexes player i's simplex grid.  Chunks come in
    lexicographic order of the digit tuples, one per tile of prefix rows
    (``_prefix_rows``) and block of the last player's grid, at most
    ``_CHUNK`` profiles each.  A chunk's ``digits`` is a fresh int64 array
    in column-major order (each player's column is filled as one run) and
    its ``max_regret`` is fresh too, so a caller may keep every chunk.

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

    def payoff_rows(i, prefix):
        pre = np.zeros((counts[i], len(prefix)))
        for j, cols in W[i].items():
            pre += cols.take(prefix[:, j], axis=1)
        return pre

    block = min(sizes[last], _CHUNK)
    for prefix in _prefix_rows(last, max(1, _CHUNK // block), lambda p: (0, sizes[p.shape[1]])):
        for lo in range(0, sizes[last], block):
            hi = min(lo + block, sizes[last])
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
                np.maximum(max_regret, _max_product(L, R[i][:, lo:hi]), out=max_regret)
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


def _check_epsilon(epsilon) -> float:
    eps = float(epsilon)
    if not eps >= 0:
        raise ValueError("epsilon must be nonnegative")
    return eps


def _count_dtype(k: int):
    """The smallest signed integer type that holds k + 2: a digit count
    runs over 0..k + 1 and a walk reads ``ext`` one past it."""
    return np.min_scalar_type(-(k + 3))


def _digits_below(ext, slope, base, bound) -> np.ndarray:
    """Per row, how many digits d have ``vals[d] * slope + base < bound``.

    ``ext`` holds the digit values ``vals`` of 0..k with a NaN on either
    side: ``ext[d + 1]`` is ``vals[d]``.  The slope is positive and
    rounding is monotone, so these digits are a prefix of 0..k: the count
    is the first digit whose gradient reaches the bound (k + 1 when none
    does).  The first guess solves the real-valued crossing ``(bound -
    base) / slope``; every row tests it, then the rows that moved walk,
    comparing the gradient expression itself below and at their count and
    stepping toward the boundary until it is exact.  A row never turns
    back, so it takes at most k + 1 steps however far off its guess was (a
    tiny slope throws the guess to an end).
    """
    k = len(ext) - 3

    def step(at, b, B):
        # ext[at] is digit at - 1 and ext[at + 1] digit at; the NaN past
        # either end compares false, so no count leaves 0..k + 1.
        return (ext[at + 1] * slope + b < B).view(np.int8) - (ext[at] * slope + b >= B).view(np.int8)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        guess = np.ceil((bound - base) / slope * k)
    count = np.fmin(np.fmax(guess, 0), k + 1).astype(_count_dtype(k))
    moved = step(count, base, bound)
    count += moved
    rows = np.flatnonzero(moved)
    while len(rows):
        moved = step(count[rows], base[rows], bound[rows])
        count[rows] += moved
        rows = rows[moved != 0]
    return count


def _digit_run(ext, slope, base, low, high):
    """Per row, the digits d with ``low <= vals[d] * slope + base <= high``.

    ``ext`` is as in ``_digits_below``; ``base`` holds one value per row,
    ``low`` and ``high`` one per row or one for every row.  Float products
    and sums round monotonically, so the gradient is monotone along the
    digits and the passing digits form one run ``[first, stop)``, empty
    when ``first >= stop``.  A zero slope (or -0.0) leaves the gradient at
    ``base``: the run is every digit or none.
    """
    k = len(ext) - 3
    if slope == 0:
        stop = np.full(len(base), k + 1, dtype=_count_dtype(k))
        return np.where((base >= low) & (base <= high), 0, stop), stop
    if slope < 0:
        # -(v * s + b) is exactly v * (-s) + (-b): walk a rising gradient.
        slope, base, low, high = -slope, -base, -high, -low
    # g <= high holds iff g < nextafter(high, inf), so both ends of the run
    # are counts of digits below a bound, found in one walk.
    bounds = np.empty(2 * len(base))
    bounds[: len(base)], bounds[len(base):] = low, np.nextafter(high, np.inf)
    ends = _digits_below(ext, slope, np.concatenate([base, base]), bounds)
    return ends[: len(base)], ends[len(base):]


def grid_kkt_points(instance, grid, epsilon: float, budget=None) -> np.ndarray:
    """All box-lattice points passing the matching KKT verifier at epsilon.

    The gradient is affine, ``g = c + p @ S``; for a minmax instance the y
    rows are the negated max-side gradient, which turns the max-side
    conditions into min-side ones: at digit 0 ``g >= -eps``, at digit k
    ``g <= eps``, inside both.  The scan walks prefix rows (every
    coordinate but the last) in tiles of at most ``_CHUNK // 8`` rows and
    never evaluates the gradient at every lattice point.  It builds the
    rows one coordinate at a time (``_prefix_rows``).  A coordinate i whose
    gradient holds no later coordinate (``S[j, i] == 0`` for every j >= i)
    is decided on the rows of the coordinates before it, before its own
    digits are expanded: its gradient ``base_i = c_i + sum_j p_j * S[j,
    i]`` is the same at all of its digits, so digit 0, the interior and
    digit k each pass or fail as a block, and only the passing digits are
    expanded.  The sum is taken term by term, and the terms it leaves out
    are exact zeros, so the value is the one the full sum would give.

    On a finished row, every other coordinate i's gradient is ``v *
    S[last, i] + base_i`` along the last coordinate v, with ``base_i``
    summed the same way, so a row's value does not depend on the tile.  It
    is monotone in v, so the last digits passing coordinate i form one run
    (``_digit_run``).  These coordinates are taken flattest first
    (smallest ``|S[last, i]|``) and rows whose runs no longer meet are
    dropped.  The last coordinate's own conditions then split the run into
    digit 0, an interior run and digit k.

    Each run boundary is evaluated with the expression ``v * S[last, i] +
    base_i``, so a hit is exact for that float gradient: ``g >= -eps``
    holds iff the verifier's ``-g - eps <= 0`` does, since rounding is
    monotone and a nonzero sum of two doubles never rounds to 0.  Where the
    point-wise verifier's gradient rounds differently and lands on
    ``+-eps``, the two can disagree on that point.  Hits come in
    lexicographic order.
    """
    k = _grid_k(grid)
    eps = _check_epsilon(epsilon)
    if isinstance(instance, QuadraticInstance):
        dims = instance.n
        c = instance.linear
        S = instance.cross + instance.cross.T + np.diag(2.0 * instance.square)
    elif isinstance(instance, MinmaxIndInstance):
        n_x, dims = instance.n_x, instance.n_x + instance.n_y
        c = np.concatenate([instance.beta, -instance.zeta])
        S = np.zeros((dims, dims))
        S[:n_x, :n_x] = instance.gamma + instance.gamma.T
        S[:n_x, n_x:] = -instance.theta
        S[n_x:, :n_x] = instance.theta.T
    else:
        raise TypeError(f"unsupported instance type {type(instance)!r}")
    _check_budget((k + 1) ** dims, budget)

    ext = np.full(k + 3, np.nan)
    vals = ext[1:-1]
    np.divide(np.arange(k + 1), k, out=vals)
    # A prefix digit d passes when low[d] <= g <= high[d].
    low = np.full(k + 1, -eps)
    high = np.full(k + 1, eps)
    low[k], high[0] = -np.inf, np.inf
    last = dims - 1
    slopes = S[last]
    # Coordinate i's gradient holds coordinate j when S[j, i] != 0.
    cols = S.T.tolist()
    early = [not any(cols[i][i:]) for i in range(last)]
    order = sorted([i for i in range(last) if not early[i]], key=lambda i: abs(cols[i][last]))

    def base(pts, i):
        pre = np.zeros(len(pts))
        for j in range(pts.shape[1]):
            pre += pts[:, j] * S[j, i]
        return c[i] + pre

    def runs(digits):
        # The digits of coordinate i that may extend rows of the first i.
        i = digits.shape[1]
        if not early[i]:
            return 0, k + 1
        # The terms of coordinates i and later are zeros, which leave the
        # sum's bytes as they are.  Digit 0 passes when g >= -eps, digit k
        # when g <= eps and the interior when both hold: the run [0 or k,
        # k + 1 or 1).
        g = base(vals.take(digits), i)
        return np.where(g >= -eps, 0, k), np.where(g <= eps, k + 1, 1)

    hits = []
    # On a 4-coordinate lattice a tile's arrays peak at about 100 bytes per
    # row: 0.43 MB at _CHUNK / 8 rows under tracemalloc, 3.4 MB at _CHUNK
    # rows, which raised the process's peak RSS; 2^12 to 2^15 rows per
    # tile ran equally fast.
    for digits in _prefix_rows(last, max(1, _CHUNK // 8), runs):
        pts = vals.take(digits)
        first, stop = np.zeros(len(pts), dtype=np.int64), np.full(len(pts), k + 1)
        for i in order:
            f, t = _digit_run(ext, slopes[i], base(pts, i), low.take(digits[:, i]), high.take(digits[:, i]))
            np.maximum(first, f, out=first)
            np.minimum(stop, t, out=stop)
            alive = first < stop
            digits, pts, first, stop = digits[alive], pts[alive], first[alive], stop[alive]
        n = len(pts)
        if not n:
            continue
        g = base(pts, last)
        f, t = _digit_run(ext, slopes[last], g, -eps, eps)
        # Per row, three ordered runs of last digits: 0, the interior, k.
        # The gradient is exactly g at digit 0 (v = 0) and slope + g at k.
        starts, lengths = np.empty((2, n, 3), dtype=np.int64)
        starts[:, 0], starts[:, 2] = 0, k
        np.maximum(np.maximum(first, f), 1, out=starts[:, 1])
        lengths[:, 0] = (first == 0) & (g >= -eps)
        np.subtract(np.minimum(np.minimum(stop, t), k), starts[:, 1], out=lengths[:, 1])
        lengths[:, 2] = (stop > k) & (slopes[last] + g <= eps)
        np.maximum(lengths, 0, out=lengths)
        total = int(lengths.sum())
        if total:
            out = np.empty((total, dims))
            out[:, :last] = np.repeat(pts, lengths.sum(axis=1), axis=0)
            flat = lengths.ravel()
            # A hit's last digit: its run's start plus its place in the run.
            out[:, last] = vals[np.repeat(starts.ravel() - np.cumsum(flat) + flat, flat) + np.arange(total)]
            hits.append(out)
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
    depends only on whether its digit is 0, k or interior (its case), and
    along y_i every condition passes one run of digits:

    - x_i's gradient ``(s + d x') + t1 y`` is affine in y, so at each
      (s, x') and case of x its passing y digits form one run
      (``_digit_run``);
    - so does x'_i's gradient ``(beta'_i + d x) + t2 y``, at each x and
      case of x';
    - y_i's gradient holds no y, so per (x, x') it passes every y digit,
      digit 0 alone, digit k alone or none.

    ``C[s, x]`` is the sum over x' of the length of the three runs'
    intersection.  The scan first intersects the x'_i and y_i runs per
    pair (x, x'); a pair whose run is empty adds exactly 0 to ``C[s, x]``,
    so x_i's runs are found only for the other pairs, once per distinct
    (x', case of x), and each tile sums its run lengths per x in integers
    with one ``np.add.reduceat``.  Rows of s are taken in tiles of at most
    ``_CHUNK`` (s, pair) cells and ``_CHUNK / 32`` x_i runs, or one row.
    Each run boundary is evaluated with the point-wise KKT cases' gradient
    expression, so the counts are exact for those float gradients.  The
    KKT cells of the whole lattice over an x block number ``C0[0]`` when
    n = 1 and ``C0.T * C1`` when n = 2.

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
    eps = _check_epsilon(epsilon)
    ext = np.full(k + 3, np.nan)
    v = ext[1:-1]
    np.divide(np.arange(k + 1), k, out=v)
    # A digit's case is 0 at digit 0, 2 at digit k and 1 inside; case c
    # passes a gradient g when low[c] <= g <= high[c].
    case = np.ones(k + 1, dtype=np.intp)
    case[0], case[k] = 0, 2
    low, high = np.array([-eps, -eps, -np.inf]), np.array([np.inf, eps, eps])

    def runs(slope, base):
        """Per digit d of a variable and entry b of base, the y run where
        ``low[case[d]] <= v[y] * slope + b <= high[case[d]]``; shape (k + 1,
        *base.shape)."""
        size = base.size
        ends = _digit_run(ext, slope, np.tile(base.ravel(), 3), low.repeat(size), high.repeat(size))
        return [e.reshape((3,) + base.shape)[case] for e in ends]

    tables = []
    for i in range(n):
        t1, t2, di = theta[i, i], theta[n + i, i], gamma[i, n + i]
        # x_i's gradient starts at s: beta_i plus, when n = 2, the coupling
        # term of the other index's x value.
        s = np.array([beta[i]]) if n == 1 else beta[i] + (gamma[i, 1 - i] + gamma[1 - i, i]) * v
        # y_i is a max variable, so its conditions are those of -gradient,
        # g_y[x, x'].  It passes digit 0 when g_y >= -eps, digit k when
        # g_y <= eps and the interior when both hold: the run [0 or k,
        # k + 1 or 1), empty when g_y is NaN.
        g_y = -(zeta[i] + t1 * v[:, None] + t2 * v[None, :])
        # Per (x, x'), the y run passing x'_i and y_i.
        first, stop = (e.T for e in runs(t2, beta[n + i] + di * v))
        np.maximum(first, np.where(g_y >= -eps, 0, k), out=first)
        np.minimum(stop, np.where(g_y <= eps, k + 1, 1), out=stop)
        # Only the pairs whose run is nonempty can add to C.  x_i's run
        # depends on a pair only through x' and the case of x (its key).
        x, xp = np.nonzero(first < stop)
        first, stop = first[x, xp], stop[x, xp]
        key = case[x] * (k + 1) + xp
        used = np.zeros(3 * (k + 1), dtype=bool)
        used[key] = True
        keys = np.flatnonzero(used)
        col = np.cumsum(used)[key] - 1  # a pair's key among the used ones
        dx, key_low, key_high = di * v[keys % (k + 1)], low[keys // (k + 1)], high[keys // (k + 1)]
        # np.nonzero lists the pairs x-major: each x's pairs are one group.
        groups = np.flatnonzero(np.diff(x, prepend=-1))
        xs = x[groups]
        # At most _CHUNK (s, pair) cells and _CHUNK / 32 (s, key) runs a
        # tile: a run's walk takes about 100 bytes of float temporaries, and
        # the benchmark's n = 2 scans peak at 0.22 MB under tracemalloc
        # (0.55 MB at _CHUNK / 8 runs a tile).
        rows = max(1, min(_CHUNK // max(len(x), 1), _CHUNK // 32 // max(len(keys), 1)))
        C = np.zeros((len(s), k + 1), dtype=np.int64)
        for lo in range(0, len(s), rows):
            base = s[lo:lo + rows, None] + dx
            r = len(base)
            f, t = _digit_run(ext, t1, base.ravel(), np.tile(key_low, r), np.tile(key_high, r))
            # Per (s, pair), the part of the pair's run that passes x_i too.
            f, t = f.reshape(r, -1)[:, col], t.reshape(r, -1)[:, col]
            length = np.minimum(t, stop) - np.maximum(f, first)
            np.maximum(length, 0, out=length)
            C[lo:lo + r, xs] = np.add.reduceat(length, groups, axis=1, dtype=np.int64)
        tables.append(C)
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
    recession direction found along basis edges.  Each nonnegative
    variable adds the row -x_i <= 0.  Assumes a pointed feasible region,
    as in the random-LP tests, whose variables are all nonnegative; a
    feasible region without vertices is reported as infeasible.  More
    than ``VERTEX_ROW_LIMIT`` constraint rows, those bound rows included,
    raise GridBudgetError.
    """
    n = lp.num_vars
    lower = [i for i, (lo, _) in enumerate(lp.bounds) if lo is not None]
    ineq = np.vstack([lp.ineq_matrix, -np.eye(n)[lower]])
    ineq_rhs = np.concatenate([lp.ineq_rhs, np.zeros(len(lower))])
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
    no payoffs; an empty team X raises ValueError.
    """
    if not validate_two_team(game, structure).passed or not structure.independent_adversaries:
        raise ValueError("requires a validated game with independent adversaries")
    if not structure.team_x:
        raise ValueError("team X is empty")
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
    rows = None
    block = min(sizes[last], _CHUNK)
    for digits in _prefix_rows(last, max(1, _CHUNK // block), lambda p: (0, sizes[p.shape[1]])):
        # L[j] holds an identity block below its per-prefix rows; rebuilt
        # only when the number of prefix rows changes.
        if rows != len(digits):
            rows = len(digits)
            L = {}
            for j, m in ys.items():
                lead = 1 + m_last * (j == first)
                L[j] = np.zeros((lead + m, m, rows))
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
        for lo in range(0, sizes[last], block):
            hi = min(lo + block, sizes[last])
            value = functools.reduce(operator.iadd, (_max_product(L[j], R[j][:, lo:hi]) for j in ys))
            best = min(best, float(value.min()))
    return best
