"""Nash solver for two-team zero-sum polymatrix games with independent adversaries.

The inner maximization over the adversary simplices is linear in each
adversary's strategy, so it collapses to a pointwise maximum over pure
actions (LP duality with one dual variable per adversary).  That leaves a
box-style quadratic minimization over the team-X simplices:

    min_x  -sum_{i<i'} x_i A^{i,i'} x_{i'} + sum_j gamma_j(x),
    gamma_j(x) = max_k sum_i e_k . A^{j,i} x_i.

A KKT point of this program, together with multipliers for the tight
constraints, reconstructs a Nash equilibrium directly: the adversaries play
their constraint multipliers.  Conversely the team-X part of any Nash
equilibrium is such a KKT point, so the search solves the game's
equilibrium LCP exactly by Lemke's complementary pivoting (Howson 1972)
and keeps the equilibrium with the lowest objective over a few covering
vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game_core import (
    PolymatrixGame,
    StrategyProfile,
    TwoTeamStructure,
    validate_two_team,
    verify_epsilon_nash,
)
from .lp_solver import OPTIMAL, LinearProgram, find_feasible, solve_lp

# find_kkt_point's result is ``converged`` when its certificate violation
# is at most CERTIFICATE_TOL.
CERTIFICATE_TOL = 1e-8
MAX_ITER = 1_000_000
# Covering vectors, hence Lemke paths, per find_kkt_point call.
NUM_COVERS = 12
ACTIVITY_THRESHOLD = 1e-7
# Lemke's pivots: a column entry counts as positive above PIVOT_TOL times
# the column's largest entry, and ratios within TIE_TOL (relative) tie.
PIVOT_TOL = 1e-11
TIE_TOL = 1e-12
# Entries of the stacked tableau that one broadcast rank-one update covers;
# larger stacks update in blocks of paths, which keeps the temporary in cache.
_UPDATE_BLOCK = 1 << 15


class SolverError(RuntimeError):
    """A pipeline stage failed; the message carries stage attribution."""


class NonConvergenceError(SolverError):
    """No complementary path reached a solution within its pivot cap."""


class MultiplierExtractionError(SolverError):
    """The multiplier system is infeasible: the point is not close enough
    to a KKT point at the requested band."""


@dataclass
class DualMinProgram:
    """The eliminated minimization program for one game.

    ``xs`` and ``ys`` are the team-X and team-Y player ids, and every
    player keeps its own action count.  ``x`` below is one strategy
    vector per team-X player, and s = concat(x) stacks them: X player a's
    actions are s[offsets[a] : offsets[a + 1]].  ``coord`` holds the
    coordination matrices A^{x_a, x_b} (a < b) in their blocks of an
    s-by-s matrix, zero elsewhere; ``cross[j]`` holds adversary j's payoff
    rows A^{y_j, x_a} over s, zero where an edge is absent.
    """

    game: PolymatrixGame
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    offsets: np.ndarray
    coord: np.ndarray
    cross: list

    # -- objective machinery -------------------------------------------------

    def adversary_payoffs(self, x: list) -> list:
        """c[j][k] = sum_i e_k . A^{j,i} x_i for every adversary j and action k."""
        s = np.concatenate(x)
        return [rows @ s for rows in self.cross]

    def gamma_of(self, x: list) -> np.ndarray:
        """Tight dual values: gamma_j = max_k c[j][k]."""
        return np.array([c.max() for c in self.adversary_payoffs(x)], dtype=float)

    def objective(self, x: list) -> float:
        """-s.coord.s + sum_j gamma_j, from elementwise products summed with
        ``math.fsum`` rather than BLAS, so the value does not depend on where
        ``coord`` sits in memory."""
        s = np.concatenate(x)
        value = -math.fsum((self.coord * np.outer(s, s)).ravel())
        return value + sum(max(math.fsum(row * s) for row in rows) for rows in self.cross)

    def linear_part(self, x: list) -> np.ndarray:
        """Gradient of the coordination term over s: block a is -sum_{b != a} A^{a,b} x_b."""
        s = np.concatenate(x)
        return -(self.coord @ s + self.coord.T @ s)


@dataclass
class MultiplierCertificate:
    """(mu, lambda, nu) witnessing the KKT conditions of the dual program.

    mu[j] is adversary j's multiplier vector over its actions (a
    probability distribution), lam[i] the simplex equality multiplier of X
    player i, and nu[i] the nonnegativity multipliers of X player i's
    actions.  mu and nu are lists with one vector per player.
    """

    mu: list
    lam: np.ndarray
    nu: list


@dataclass
class KKTSearchResult:
    x: list
    gamma: np.ndarray
    residual: float
    converged: bool
    iterations: int
    objective: float
    certificate: MultiplierCertificate


def build_dual_program(game: PolymatrixGame, structure: TwoTeamStructure) -> DualMinProgram:
    """Transcribe a validated independent-adversary game into the dual form.

    Rejects games with adversary-adversary edges: without independence the
    inner maximum does not separate per adversary and the elimination is
    unsound.  Both arrays are cut from ``_payoff_matrix``, the block
    matrix that ``_game_lcp`` reads too.
    """
    report = validate_two_team(game, structure)
    if not report.passed:
        raise SolverError(
            f"build_dual_program: game fails two-team validation "
            f"({len(report.violations)} entry violations)"
        )
    if not structure.independent_adversaries:
        raise SolverError(
            "build_dual_program: unsupported: adversary-adversary edges "
            "(only independent adversaries are handled)"
        )
    xs = tuple(structure.team_x)
    ys = tuple(structure.team_y)
    if not xs:
        raise SolverError("build_dual_program: team X is empty")
    payoff, offsets = _payoff_matrix(game)
    cols = np.concatenate([np.arange(offsets[p], offsets[p + 1]) for p in xs])
    counts = [game.strategy_counts[p] for p in xs]
    owner = np.repeat(np.arange(len(xs)), counts)
    coord = payoff[cols][:, cols]
    coord[owner[:, None] >= owner] = 0.0
    return DualMinProgram(
        game=game, xs=xs, ys=ys, offsets=np.cumsum([0] + counts), coord=coord,
        cross=[payoff[offsets[y] : offsets[y + 1], cols] for y in ys],
    )


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort method)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = idx[u - css / idx > 0][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def _multiplier_system(prog: DualMinProgram, x: list):
    """The linear system the multipliers (mu, lambda, nu) must satisfy at x.

    mu is supported on the adversary constraints within
    ``ACTIVITY_THRESHOLD`` of tight, nu on the coordinates within it of
    zero, and lambda is free.  Returns (stat, b, eq, bounds, unpack): row
    r of ``stat`` times the multipliers plus b[r] is the stationarity of
    coordinate r of s = concat(x); each row of ``eq`` sums one
    adversary's mu (to 1), ``bounds`` are the variables' LP bounds, and
    ``unpack`` maps a solution vector to (mu, lam, nu).
    """
    s = np.concatenate(x)
    nx, ny = len(prog.xs), len(prog.ys)
    mu_slots = [(j, int(k)) for j, c in enumerate(prog.adversary_payoffs(x))
                for k in np.flatnonzero(c.max() - c <= ACTIVITY_THRESHOLD)]
    nu_rows = np.flatnonzero(s <= ACTIVITY_THRESHOLD)
    n_mu = len(mu_slots)
    nvars = n_mu + nx + len(nu_rows)

    stat = np.zeros((len(s), nvars))
    stat[:, :n_mu] = np.array([prog.cross[j][k] for j, k in mu_slots]).reshape(n_mu, len(s)).T
    stat[np.arange(len(s)), n_mu + np.repeat(np.arange(nx), np.diff(prog.offsets))] = 1.0
    stat[nu_rows, n_mu + nx + np.arange(len(nu_rows))] = -1.0
    eq = np.zeros((ny, nvars))
    eq[[j for j, _ in mu_slots], np.arange(n_mu)] = 1.0
    bounds = [(0.0, None)] * n_mu + [(None, None)] * nx + [(0.0, None)] * len(nu_rows)

    def unpack(z: np.ndarray):
        mu = [np.zeros(len(rows)) for rows in prog.cross]
        for col, (j, k) in enumerate(mu_slots):
            mu[j][k] = max(z[col], 0.0)
        nu = np.zeros(len(s))
        nu[nu_rows] = np.maximum(z[n_mu + nx :], 0.0)
        return mu, np.array(z[n_mu : n_mu + nx]), np.split(nu, prog.offsets[1:-1])

    return stat, prog.linear_part(x), eq, bounds, unpack


def stationarity_residual(prog: DualMinProgram, x: list):
    """Def 4.2-style residual against the current active set, via a small LP.

    Minimizes the sup-norm t of the stationarity vector over admissible
    multipliers (``_multiplier_system``'s supports, lambda free).  Returns
    (residual, (mu, lam, nu)) or (inf, None) when the LP solver stalls.
    """
    stat, b, eq, bounds, unpack = _multiplier_system(prog, x)
    # b + stat.z in [-t, t], over the variables (t, z).
    t_col = -np.ones((2 * len(b), 1))
    rows = np.hstack([t_col, np.stack([stat, -stat], axis=1).reshape(-1, stat.shape[1])])
    obj = np.zeros(rows.shape[1])
    obj[0] = -1.0
    lp = LinearProgram(
        objective=obj,
        ineq_matrix=rows,
        ineq_rhs=np.stack([-b, b], axis=1).reshape(-1),
        eq_matrix=np.hstack([np.zeros((len(eq), 1)), eq]),
        eq_rhs=np.ones(len(eq)),
        bounds=[(0.0, None)] + bounds,
    )
    out = solve_lp(lp)
    if out.status != OPTIMAL:
        return np.inf, None
    return max(float(out.solution[0]), 0.0), unpack(out.solution[1:])


def _payoff_matrix(game: PolymatrixGame):
    """Every edge's payoffs in one block matrix, and the action offsets.

    Player p's actions are rows and columns offsets[p]:offsets[p+1], and
    the block at (p, p') holds A^{p,p'}, zero where the edge is absent.
    """
    offsets = np.concatenate([[0], np.cumsum(game.strategy_counts)])
    n = int(offsets[-1])
    payoff = np.zeros((n, n))
    for i, j in game.edge_pairs():
        rows, cols = slice(offsets[i], offsets[i + 1]), slice(offsets[j], offsets[j + 1])
        payoff[rows, cols] = game.payoff(i, j)
        payoff[cols, rows] = game.payoff(j, i)
    return payoff, offsets


def _game_lcp(game: PolymatrixGame):
    """The game's equilibrium problem as LCP(q, M) (Howson 1972).

    The unknowns are z = (s, u): every player's strategy s, stacked, and
    one cost level u_p per player.  Payoffs become costs B = c - A with c
    one above the largest entry, so every cost is at least 1 (the
    diagonal blocks are the constant c and shift each player's costs
    alike).  Then w = q + M z >= 0, z >= 0, w.z = 0 reads

        w_s = B s - E^T u >= 0:  no action of p costs less than u_p,
                                 and every action p plays costs u_p;
        w_u = E s - 1 >= 0:      each strategy sums to at least 1, and
                                 to exactly 1, since u_p > 0.

    so s is a Nash equilibrium.  B > 0 makes M copositive-plus, and the
    LCP is feasible, so Lemke's method ends at a solution.  Returns
    (M, q, offsets, c) with player p's actions at offsets[p]:offsets[p+1].
    """
    payoff, offsets = _payoff_matrix(game)
    n, players = len(payoff), game.num_players
    sums = np.zeros((players, n))
    for p in range(players):
        sums[p, offsets[p] : offsets[p + 1]] = 1.0
    shift = payoff.max() + 1.0
    M = np.zeros((n + players, n + players))
    M[:n, :n] = shift - payoff
    M[:n, n:] = -sums.T
    M[n:, :n] = sums
    q = np.concatenate([np.zeros(n), -np.ones(players)])
    return M, q, offsets, shift


def _break_tie(T: np.ndarray, rows: np.ndarray, col: np.ndarray) -> int:
    """The lexicographic rule among ``rows``, tied on the least rhs / col.

    ``T`` is one path's tableau, with the basis inverse in its first
    len(col) columns.  The tied rows are compared on those columns'
    ratios in turn until one row is least alone; the rows of the basis
    inverse are linearly independent, so the leaving row is unique and
    no basis repeats.
    """
    for k in range(len(col)):
        ratio = T[rows, k] / col[rows]
        least = ratio.min()
        rows = rows[ratio <= least + TIE_TOL * max(1.0, abs(least))]
        if rows.size == 1:
            break
    return int(rows[0])


def _lemke_paths(M: np.ndarray, q: np.ndarray, covers: np.ndarray, max_pivots: int):
    """Lemke's method on LCP(q, M), one path per row of ``covers``, in lockstep.

    The paths share one stacked dense tableau of shape (paths, size,
    2 * size + 2) over the columns (w, z, z0, rhs).  The artificial z0
    enters first; after that each pivot brings in the complement of the
    variable that just left, until z0 leaves.  Every live path pivots
    once per step, by broadcast arithmetic that is elementwise that of a
    lone path, so a path's pivots do not depend on the batch it runs in.
    The ratio test runs on all paths at once: a row is a candidate when
    its column entry is positive (above PIVOT_TOL times the column's
    largest), and the candidates within TIE_TOL of the least rhs / col
    tie.  z0 leaves whenever it ties, which ends the path; other ties go
    to ``_break_tie``.  A path leaves the stack when z0 leaves, on a ray
    (no candidate row), or after ``max_pivots`` pivots.  Returns, per
    path, ((w, z) or None, z0 after each pivot): the basic solution at
    the end of the path, or None when it ended on a ray or reached
    ``max_pivots``.
    """
    paths, size = covers.shape
    artificial = 2 * size
    T = np.empty((paths, size, artificial + 2))
    T[:, :, :size] = np.eye(size)
    T[:, :, size:artificial] = -M
    T[:, :, artificial] = -covers
    T[:, :, -1] = q
    block = max(1, _UPDATE_BLOCK // (size * (artificial + 2)))
    update = np.empty((min(block, paths),) + T.shape[1:])
    basis = np.tile(np.arange(size), (paths, 1))
    # z0 enters at the least q_i / cover_i; of equal rows the last leaves,
    # which keeps every row of (rhs, basis inverse) lexicographically positive.
    ratio = q / covers
    last_least = (ratio == ratio.min(axis=1, keepdims=True))[:, ::-1]
    rows = size - 1 - np.argmax(last_least, axis=1)
    # z0 stays basic in the row it entered until it leaves.
    z0_rows = rows.copy()
    entering = np.full(paths, artificial)
    col = T[:, :, artificial].copy()
    live = np.arange(paths)
    solutions = [None] * paths
    z0_values = [[] for _ in range(paths)]
    pivots = 0
    while live.size and pivots < max_pivots:
        at = np.arange(live.size)
        pivot_rows = T[at, rows] / col[at, rows][:, None]
        T[at, rows] = pivot_rows
        col[at, rows] = 0.0
        for lo in range(0, live.size, block):
            hi = min(lo + block, live.size)
            np.multiply(col[lo:hi, :, None], pivot_rows[lo:hi, None, :], out=update[: hi - lo])
            T[lo:hi] -= update[: hi - lo]
        leaving = basis[at, rows]
        basis[at, rows] = entering
        pivots += 1
        ended = leaving == artificial
        z0 = np.where(ended, 0.0, T[at, z0_rows, -1])
        for path, value in zip(live.tolist(), z0.tolist()):
            z0_values[path].append(value)
        for i in np.flatnonzero(ended):
            wz = np.zeros(artificial + 1)
            wz[basis[i]] = T[i, :, -1]
            solutions[live[i]] = (wz[:size], wz[size:artificial])

        entering = np.where(leaving < size, leaving + size, leaving - size)
        col = T[at, :, entering]
        pos = col > PIVOT_TOL * np.maximum(1.0, np.abs(col).max(axis=1))[:, None]
        ratio = np.divide(T[:, :, -1], col, out=np.full(col.shape, np.inf), where=pos)
        least = ratio.min(axis=1)
        tied = ratio <= (least + TIE_TOL * np.maximum(1.0, np.abs(least)))[:, None]
        ray = ~pos.any(axis=1)
        z0_tied = tied[at, z0_rows]
        rows = np.where(z0_tied, z0_rows, np.argmax(tied, axis=1))
        for i in np.flatnonzero(~(z0_tied | ended | ray) & (tied.sum(axis=1) > 1)):
            rows[i] = _break_tie(T[i], np.flatnonzero(tied[i]), col[i])
        keep = ~(ended | ray)
        if not keep.all():
            live, T, basis, col = live[keep], T[keep], basis[keep], col[keep]
            rows, entering, z0_rows = rows[keep], entering[keep], z0_rows[keep]
    return list(zip(solutions, z0_values))


def _strategies(z: np.ndarray, offsets, players) -> list:
    """Each player's block of z, clipped at 0 and scaled to sum to 1."""
    out = []
    for p in players:
        s = np.maximum(z[offsets[p] : offsets[p + 1]], 0.0)
        out.append(s / s.sum())
    return out


def _basis_certificate(prog: DualMinProgram, w, z, offsets, shift: float) -> MultiplierCertificate:
    """(mu, lambda, nu) read off a solution (w, z) of ``_game_lcp``'s LCP.

    Every strategy sums to 1 at a solution, so X player a's block of
    w = B s - E^T u is shift * P - u_a - (A s)_a (P players), that is
    b_a + sum_j A^{y_j,x_a}^T mu_j + lambda_a with mu_j adversary j's
    strategy and lambda_a = shift * P - u_a.  So nu_a is that block:
    stationarity holds by construction, and complementarity is the LCP's
    own.
    """
    u = z[offsets[-1] :]
    return MultiplierCertificate(
        mu=_strategies(z, offsets, prog.ys),
        lam=shift * prog.game.num_players - u[list(prog.xs)],
        nu=[np.maximum(w[offsets[p] : offsets[p + 1]], 0.0) for p in prog.xs],
    )


def find_kkt_point(prog: DualMinProgram, seed: int = 0, trace: list | None = None) -> KKTSearchResult:
    """A KKT point of ``prog`` from Nash equilibria found by Lemke's method.

    With independent adversaries the team-X part of any Nash equilibrium
    is a KKT point of the eliminated program, and the equilibria are the
    solutions of the game's LCP (``_game_lcp``).  One complementary path
    runs per covering vector: the first is all ones, the other
    ``NUM_COVERS - 1`` are drawn from ``seed``.  The paths pivot in
    lockstep in one stacked tableau (``_lemke_paths``), each exactly as
    it would alone.  Different covering vectors can end at different
    equilibria; the one with the lowest ``prog.objective`` wins, the
    first path of equal ones, and its value is the result's
    ``objective``.  That objective uses no BLAS, so the winner does not
    depend on where ``prog.coord`` sits in memory.
    ``MAX_ITER``, read at each call, caps the pivots of each path, and
    ``iterations`` counts the pivots of all paths.  The winner's
    ``certificate`` (mu, lambda, nu) is read off its final basis, its
    ``residual`` is that certificate's ``certificate_violation``, and
    ``converged`` is ``residual <= CERTIFICATE_TOL``.  When ``trace`` is
    a list it receives one (pivot, z0, path) row per pivot.  Raises
    NonConvergenceError when no path ends within ``MAX_ITER`` pivots.
    """
    M, q, offsets, shift = _game_lcp(prog.game)
    rng = np.random.default_rng(seed)
    covers = np.ones((NUM_COVERS, len(q)))
    for path in range(1, NUM_COVERS):
        covers[path] = rng.uniform(0.5, 1.5, len(q))
    best, pivots = None, 0
    for path, (solution, z0_values) in enumerate(_lemke_paths(M, q, covers, MAX_ITER)):
        if trace is not None:
            trace.extend((pivots + k, v, path) for k, v in enumerate(z0_values))
        pivots += len(z0_values)
        if solution is None:
            continue
        x = _strategies(solution[1], offsets, prog.xs)
        value = prog.objective(x)
        if best is None or value < best[0]:
            best = (value, x, solution)
    if best is None:
        raise NonConvergenceError(
            f"find_kkt_point: none of {NUM_COVERS} complementary paths reached a solution"
        )
    value, x, (w, z) = best
    gamma = prog.gamma_of(x)
    cert = _basis_certificate(prog, w, z, offsets, shift)
    residual = certificate_violation(prog, x, gamma, cert)
    return KKTSearchResult(
        x=x, gamma=gamma, residual=residual, converged=residual <= CERTIFICATE_TOL,
        iterations=pivots, objective=value, certificate=cert,
    )


def extract_multipliers(
    prog: DualMinProgram,
    x: list,
    band: float = 1e-7,
) -> MultiplierCertificate:
    """Find (mu, lambda, nu) for a near-KKT point by LP feasibility.

    Stationarity is relaxed to a band around zero; complementarity is
    enforced structurally by restricting the multiplier supports to the
    active sets.  Raises MultiplierExtractionError when the system is
    infeasible, signalling that x is not close enough to a KKT point.
    It reads the payoffs the Lemke search reads but shares none of its
    pivoting, so it cross-checks the certificate ``find_kkt_point`` reads
    off its basis.
    """
    stat, b, eq, bounds, unpack = _multiplier_system(prog, x)
    lp = LinearProgram(
        objective=np.zeros(stat.shape[1]),
        ineq_matrix=np.stack([stat, -stat], axis=1).reshape(-1, stat.shape[1]),
        ineq_rhs=np.stack([band - b, band + b], axis=1).reshape(-1),
        eq_matrix=eq,
        eq_rhs=np.ones(len(eq)),
        bounds=bounds,
    )
    out = find_feasible(lp)
    if out.status != OPTIMAL:
        raise MultiplierExtractionError(
            f"multiplier system infeasible at band {band}: "
            "point is not close enough to a KKT point"
        )
    mu, lam, nu = unpack(out.solution)
    for j in range(len(prog.ys)):
        if mu[j].sum() > 0:
            mu[j] /= mu[j].sum()
    return MultiplierCertificate(mu=mu, lam=lam, nu=nu)


def certificate_violation(
    prog: DualMinProgram, x: list, gamma: np.ndarray, cert: MultiplierCertificate
) -> float:
    """Worst violation of the three multiplier conditions (for checking)."""
    s, nu = np.concatenate(x), np.concatenate(cert.nu)
    r = prog.linear_part(x) + np.repeat(cert.lam, np.diff(prog.offsets)) - nu
    r += sum(rows.T @ mu for rows, mu in zip(prog.cross, cert.mu))
    worst = max(float(np.abs(r).max()), float(s[nu > ACTIVITY_THRESHOLD].max(initial=0.0)))
    for j, c in enumerate(prog.adversary_payoffs(x)):
        mu = cert.mu[j]
        worst = max(worst, abs(float(mu.sum()) - 1.0))
        gaps = np.abs(gamma[j] - c[mu > ACTIVITY_THRESHOLD])
        worst = max(worst, float(gaps.max(initial=0.0)))
    return worst


def reconstruct_nash(prog: DualMinProgram, x: list, cert: MultiplierCertificate) -> StrategyProfile:
    """Assemble the full profile: X players play x, adversary j plays mu_j."""
    out = [None] * prog.game.num_players
    for pid, s in zip(prog.xs + prog.ys, list(x) + list(cert.mu)):
        out[pid] = s
    return StrategyProfile(out)


def solve(
    game: PolymatrixGame,
    structure: TwoTeamStructure,
    epsilon: float,
    seed: int = 0,
    trace_path: str | None = None,
):
    """Full pipeline: dual program, KKT point, multipliers, Nash profile.

    Runs ``find_kkt_point`` (its Lemke paths drawn from ``seed``), lets
    the adversaries play the mu of the certificate read off its final
    basis, and checks the assembled profile with ``verify_epsilon_nash``
    at ``epsilon``.  No LP runs.  Returns (profile, NashReport);
    ``report.passed`` is that check.  ``trace_path`` receives the pivot
    log as CSV rows ``pivot,z0,path``.  Raises ValueError unless epsilon
    is finite and positive, and SolverError when a stage fails
    (NonConvergenceError when no Lemke path ends).
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be finite and positive")
    prog = build_dual_program(game, structure)
    trace = [] if trace_path else None
    result = find_kkt_point(prog, seed=seed, trace=trace)
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            for pivot, z0, path in trace:
                fh.write(f"{pivot},{z0:.17g},{path}\n")
    profile = reconstruct_nash(prog, result.x, result.certificate)
    return profile, verify_epsilon_nash(game, profile, epsilon)
