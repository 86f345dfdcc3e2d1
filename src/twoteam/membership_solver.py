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
    NashReport,
    PolymatrixGame,
    StrategyProfile,
    TwoTeamStructure,
    validate_two_team,
    verify_epsilon_nash,
)
from .lp_solver import OPTIMAL, LinearProgram, find_feasible, solve_lp

DEFAULT_TOL = 1e-8
MAX_ITER = 1_000_000
ACTIVITY_THRESHOLD = 1e-7
# Lemke's pivots: a column entry counts as positive above PIVOT_TOL times
# the column's largest entry, and ratios within TIE_TOL (relative) tie.
PIVOT_TOL = 1e-11
TIE_TOL = 1e-12


class SolverError(RuntimeError):
    """A pipeline stage failed; the message carries stage attribution."""


class MultiplierExtractionError(SolverError):
    """The multiplier system is infeasible: the point is not close enough
    to a KKT point at the requested band."""


@dataclass
class DualMinProgram:
    """The eliminated minimization program for one game.

    ``coord[(a, b)]`` (a < b, team-X grid indices) holds the padded
    coordination matrix between X players a and b; ``cross[j][i]`` holds
    the padded A^{y_j, x_i} matrix or None when the edge is absent.  All
    players are padded to a common strategy count m by duplicating their
    last action; ``orig_counts`` remembers the true counts so solutions can
    be folded back.
    """

    game: PolymatrixGame
    structure: TwoTeamStructure
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    m: int
    coord: dict
    cross: list
    bound_M: float
    orig_counts: dict

    # -- objective machinery -------------------------------------------------

    def adversary_payoffs(self, x: list) -> np.ndarray:
        """c[j, k] = sum_i e_k . A^{j,i} x_i for every adversary j and action k."""
        c = np.zeros((len(self.ys), self.m))
        for j in range(len(self.ys)):
            for i in range(len(self.xs)):
                mat = self.cross[j][i]
                if mat is not None:
                    c[j] += mat @ x[i]
        return c

    def gamma_of(self, x: list) -> np.ndarray:
        """Tight dual values: gamma_j = max_k c[j, k]."""
        c = self.adversary_payoffs(x)
        return c.max(axis=1) if len(self.ys) else np.zeros(0)

    def coordination_value(self, x: list) -> float:
        total = 0.0
        for (a, b), mat in self.coord.items():
            total += float(x[a] @ mat @ x[b])
        return total

    def objective(self, x: list) -> float:
        gam = self.gamma_of(x)
        return -self.coordination_value(x) + float(gam.sum())

    def linear_part(self, x: list) -> list:
        """b_a = -sum_{b != a} A^{a,b} x_b (gradient of the coordination term)."""
        out = [np.zeros(self.m) for _ in self.xs]
        for (a, b), mat in self.coord.items():
            out[a] -= mat @ x[b]
            out[b] -= mat.T @ x[a]
        return out


@dataclass
class MultiplierCertificate:
    """(mu, lambda, nu) witnessing the KKT conditions of the dual program.

    mu[j] is adversary j's multiplier vector over actions (a probability
    distribution), lam[i] the simplex equality multiplier of X player i,
    nu[i] the nonnegativity multipliers of X player i's coordinates.
    """

    mu: np.ndarray
    lam: np.ndarray
    nu: np.ndarray


@dataclass
class KKTSearchResult:
    x: list
    gamma: np.ndarray
    residual: float
    converged: bool
    iterations: int
    objective: float


def _pad_matrix(mat: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Duplicate the last row/column up to the requested shape."""
    r_idx = np.minimum(np.arange(rows), mat.shape[0] - 1)
    c_idx = np.minimum(np.arange(cols), mat.shape[1] - 1)
    return mat[np.ix_(r_idx, c_idx)]


def build_dual_program(game: PolymatrixGame, structure: TwoTeamStructure) -> DualMinProgram:
    """Transcribe a validated independent-adversary game into the dual form.

    Rejects games with adversary-adversary edges: without independence the
    inner maximum does not separate per adversary and the elimination is
    unsound.
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
    m = max(game.strategy_counts[p] for p in xs + ys)

    coord = {}
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            if game.has_edge(xs[a], xs[b]):
                coord[(a, b)] = _pad_matrix(game.payoff(xs[a], xs[b]), m, m)
    cross = [
        [
            _pad_matrix(game.payoff(ys[j], xs[i]), m, m) if game.has_edge(ys[j], xs[i]) else None
            for i in range(len(xs))
        ]
        for j in range(len(ys))
    ]

    # Cap that can never be tight: one above the best any adversary row can
    # collect even with every X player conspiring.
    maxval = 0.0
    for j in range(len(ys)):
        for k in range(m):
            row_total = sum(
                float(cross[j][i][k, :].max()) for i in range(len(xs)) if cross[j][i] is not None
            )
            maxval = max(maxval, row_total)
    bound_M = maxval + 1.0

    return DualMinProgram(
        game=game,
        structure=structure,
        xs=xs,
        ys=ys,
        m=m,
        coord=coord,
        cross=cross,
        bound_M=bound_M,
        orig_counts={p: game.strategy_counts[p] for p in xs + ys},
    )


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort method)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = idx[u - css / idx > 0][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def _active_sets(prog: DualMinProgram, x: list, band: float):
    c = prog.adversary_payoffs(x)
    gam = c.max(axis=1) if len(prog.ys) else np.zeros(0)
    acts = [np.nonzero(gam[j] - c[j] <= band)[0] for j in range(len(prog.ys))]
    zeros = [np.nonzero(x[a] <= band)[0] for a in range(len(prog.xs))]
    return zeros, acts


def stationarity_residual(prog: DualMinProgram, x: list, band: float = ACTIVITY_THRESHOLD):
    """Def 4.2-style residual against the current active set, via a small LP.

    Minimizes the sup-norm of the stationarity vector over admissible
    multipliers (mu supported on near-tight adversary constraints, nu on
    near-zero coordinates, lambda free).  Returns (residual, (mu, lam, nu))
    or (inf, None) when the LP solver stalls.
    """
    nx, ny, m = len(prog.xs), len(prog.ys), prog.m
    zeros, acts = _active_sets(prog, x, band)
    b = prog.linear_part(x)

    mu_slots = [(j, int(k)) for j in range(ny) for k in acts[j]]
    nu_slots = [(a, int(k)) for a in range(nx) for k in zeros[a]]
    n_mu, n_nu = len(mu_slots), len(nu_slots)
    nvars = 1 + n_mu + nx + n_nu  # t, mu, lambda, nu
    mu_at = {slot: 1 + s for s, slot in enumerate(mu_slots)}
    lam_at = lambda a: 1 + n_mu + a
    nu_at = {slot: 1 + n_mu + nx + s for s, slot in enumerate(nu_slots)}

    rows, rhs = [], []
    for a in range(nx):
        for k in range(m):
            coef = np.zeros(nvars)
            for j in range(ny):
                mat = prog.cross[j][a]
                if mat is None:
                    continue
                for kk in acts[j]:
                    coef[mu_at[(j, int(kk))]] += mat[int(kk), k]
            coef[lam_at(a)] += 1.0
            if (a, k) in nu_at:
                coef[nu_at[(a, k)]] -= 1.0
            # b_ak + coef.z in [-t, t]
            up = coef.copy()
            up[0] = -1.0
            rows.append(up)
            rhs.append(-b[a][k])
            dn = -coef
            dn[0] = -1.0
            rows.append(dn)
            rhs.append(b[a][k])
    eq_rows, eq_rhs = [], []
    for j in range(ny):
        coef = np.zeros(nvars)
        for k in acts[j]:
            coef[mu_at[(j, int(k))]] = 1.0
        eq_rows.append(coef)
        eq_rhs.append(1.0)

    bounds = [(0.0, None)] * (1 + n_mu) + [(None, None)] * nx + [(0.0, None)] * n_nu
    obj = np.zeros(nvars)
    obj[0] = -1.0
    lp = LinearProgram(
        objective=obj,
        ineq_matrix=np.array(rows).reshape(-1, nvars) if rows else None,
        ineq_rhs=np.array(rhs) if rows else None,
        eq_matrix=np.array(eq_rows).reshape(-1, nvars) if eq_rows else None,
        eq_rhs=np.array(eq_rhs) if eq_rows else None,
        bounds=bounds,
    )
    out = solve_lp(lp)
    if out.status != OPTIMAL:
        return np.inf, None
    z = out.solution
    mu = np.zeros((ny, m))
    for (j, k), col in mu_at.items():
        mu[j, k] = max(z[col], 0.0)
    lam = np.array([z[lam_at(a)] for a in range(nx)])
    nu = np.zeros((nx, m))
    for (a, k), col in nu_at.items():
        nu[a, k] = max(z[col], 0.0)
    return max(float(z[0]), 0.0), (mu, lam, nu)


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
    (M, q, offsets) with player p's actions at offsets[p]:offsets[p+1].
    """
    offsets = np.concatenate([[0], np.cumsum(game.strategy_counts)])
    n, players = int(offsets[-1]), game.num_players
    payoff = np.zeros((n, n))
    for i, j in game.edge_pairs():
        rows, cols = slice(offsets[i], offsets[i + 1]), slice(offsets[j], offsets[j + 1])
        payoff[rows, cols] = game.payoff(i, j)
        payoff[cols, rows] = game.payoff(j, i)
    sums = np.zeros((players, n))
    for p in range(players):
        sums[p, offsets[p] : offsets[p + 1]] = 1.0
    M = np.zeros((n + players, n + players))
    M[:n, :n] = payoff.max() + 1.0 - payoff
    M[:n, n:] = -sums.T
    M[n:, :n] = sums
    q = np.concatenate([np.zeros(n), -np.ones(players)])
    return M, q, offsets


def _leaving_row(T: np.ndarray, rhs: np.ndarray, col: np.ndarray, z0_row: int):
    """Lexicographic ratio test; None when the column bounds no row (a ray).

    Ties in rhs / col are broken by the rows of the basis inverse, which
    sits in the tableau's first len(rhs) columns; those rows are linearly
    independent, so the leaving row is unique and no basis repeats.  An
    artificial variable tied for leaving leaves, which ends the path.
    """
    rows = np.flatnonzero(col > PIVOT_TOL * max(1.0, float(np.abs(col).max())))
    if not rows.size:
        return None
    for k in range(-1, len(rhs)):
        key = rhs[rows] if k < 0 else T[rows, k]
        ratio = key / col[rows]
        least = ratio.min()
        rows = rows[ratio <= least + TIE_TOL * max(1.0, abs(least))]
        if k < 0 and z0_row in rows:
            return z0_row
        if rows.size == 1:
            break
    return int(rows[0])


def _lemke_path(M: np.ndarray, q: np.ndarray, cover: np.ndarray, max_pivots: int):
    """One path of Lemke's method on LCP(q, M) with covering vector ``cover``.

    A dense tableau over the columns (w, z, z0) with the right-hand side
    kept apart.  The artificial z0 enters first; after that each pivot
    brings in the complement of the variable that just left, until z0
    leaves.  Returns (z or None, z0 after each pivot); None means the
    path ended on a ray or reached ``max_pivots``.
    """
    size = len(q)
    T = np.hstack([np.eye(size), -M, -cover[:, None]])
    rhs = q.astype(float)
    basis = np.arange(size)
    artificial = 2 * size
    # z0 enters at the least q_i / cover_i; of equal rows the last leaves,
    # which keeps every row of (rhs, basis inverse) lexicographically positive.
    ratio = q / cover
    row = int(np.flatnonzero(ratio == ratio.min())[-1])
    entering = artificial
    z0_values = []
    while len(z0_values) < max_pivots:
        col = T[:, entering].copy()
        T[row] /= col[row]
        rhs[row] /= col[row]
        col[row] = 0.0
        T -= np.outer(col, T[row])
        rhs -= col * rhs[row]
        leaving, basis[row] = basis[row], entering
        z0_row = np.flatnonzero(basis == artificial)
        z0_values.append(float(rhs[z0_row[0]]) if z0_row.size else 0.0)
        if leaving == artificial:
            z = np.zeros(artificial + 1)
            z[basis] = rhs
            return z[size:artificial], z0_values
        entering = leaving + size if leaving < size else leaving - size
        row = _leaving_row(T, rhs, T[:, entering], int(z0_row[0]))
        if row is None:
            break
    return None, z0_values


def find_kkt_point(
    prog: DualMinProgram,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    max_iter: int = MAX_ITER,
    num_starts: int = 12,
    trace: list | None = None,
) -> KKTSearchResult:
    """A KKT point of ``prog`` from Nash equilibria found by Lemke's method.

    With independent adversaries the team-X part of any Nash equilibrium
    is a KKT point of the eliminated program, and the equilibria are the
    solutions of the game's LCP (``_game_lcp``).  One complementary path
    runs per covering vector: the first is all ones, the other
    ``num_starts - 1`` are drawn from ``seed``.  Different covering
    vectors can end at different equilibria; the one with the lowest
    objective wins.  ``max_iter`` caps the pivots of each path, and
    ``iterations`` counts the pivots of all paths.  The winner's
    ``residual`` is the active-set stationarity residual, and
    ``converged`` is ``residual <= tol``.  When ``trace`` is a list it
    receives one (pivot, z0, path) row per pivot.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    M, q, offsets = _game_lcp(prog.game)
    rng = np.random.default_rng(seed)
    best, pivots = None, 0
    for path in range(num_starts):
        cover = np.ones(len(q)) if path == 0 else rng.uniform(0.5, 1.5, len(q))
        z, z0_values = _lemke_path(M, q, cover, max_iter)
        if trace is not None:
            trace.extend((pivots + k, v, path) for k, v in enumerate(z0_values))
        pivots += len(z0_values)
        if z is None:
            continue
        x = []
        for p in prog.xs:
            s = np.maximum(z[offsets[p] : offsets[p + 1]], 0.0)
            x.append(np.concatenate([s / s.sum(), np.zeros(prog.m - len(s))]))
        value = prog.objective(x)
        if best is None or value < best[0]:
            best = (value, x)
    if best is None:
        raise SolverError(
            f"find_kkt_point: none of {num_starts} complementary paths reached a solution"
        )
    value, x = best
    residual, _ = stationarity_residual(prog, x)
    return KKTSearchResult(
        x=x, gamma=prog.gamma_of(x), residual=residual, converged=residual <= tol,
        iterations=pivots, objective=value,
    )


def extract_multipliers(
    prog: DualMinProgram,
    x: list,
    gamma: np.ndarray,
    band: float = 1e-7,
) -> MultiplierCertificate:
    """Find (mu, lambda, nu) for a near-KKT point by LP feasibility.

    Stationarity is relaxed to a band around zero; complementarity is
    enforced structurally by restricting the multiplier supports to the
    active sets.  Raises MultiplierExtractionError when the system is
    infeasible, signalling that x is not close enough to a KKT point.
    """
    nx, ny, m = len(prog.xs), len(prog.ys), prog.m
    zeros, acts = _active_sets(prog, x, ACTIVITY_THRESHOLD)
    b = prog.linear_part(x)

    mu_slots = [(j, int(k)) for j in range(ny) for k in acts[j]]
    nu_slots = [(a, int(k)) for a in range(nx) for k in zeros[a]]
    nvars = len(mu_slots) + nx + len(nu_slots)
    mu_at = {slot: s for s, slot in enumerate(mu_slots)}
    lam_at = lambda a: len(mu_slots) + a
    nu_at = {slot: len(mu_slots) + nx + s for s, slot in enumerate(nu_slots)}

    rows, rhs = [], []
    for a in range(nx):
        for k in range(m):
            coef = np.zeros(nvars)
            for j in range(ny):
                mat = prog.cross[j][a]
                if mat is None:
                    continue
                for kk in acts[j]:
                    coef[mu_at[(j, int(kk))]] += mat[int(kk), k]
            coef[lam_at(a)] += 1.0
            if (a, k) in nu_at:
                coef[nu_at[(a, k)]] -= 1.0
            rows.append(coef)
            rhs.append(band - b[a][k])
            rows.append(-coef)
            rhs.append(band + b[a][k])
    eq_rows, eq_rhs = [], []
    for j in range(ny):
        coef = np.zeros(nvars)
        for k in acts[j]:
            coef[mu_at[(j, int(k))]] = 1.0
        eq_rows.append(coef)
        eq_rhs.append(1.0)

    bounds = [(0.0, None)] * len(mu_slots) + [(None, None)] * nx + [(0.0, None)] * len(nu_slots)
    lp = LinearProgram(
        objective=np.zeros(nvars),
        ineq_matrix=np.array(rows).reshape(-1, nvars) if rows else None,
        ineq_rhs=np.array(rhs) if rows else None,
        eq_matrix=np.array(eq_rows).reshape(-1, nvars) if eq_rows else None,
        eq_rhs=np.array(eq_rhs) if eq_rows else None,
        bounds=bounds,
    )
    out = find_feasible(lp)
    if out.status != OPTIMAL:
        raise MultiplierExtractionError(
            f"multiplier system infeasible at band {band}: "
            "point is not close enough to a KKT point"
        )
    z = out.solution
    mu = np.zeros((ny, m))
    for (j, k), col in mu_at.items():
        mu[j, k] = max(z[col], 0.0)
    for j in range(ny):
        if mu[j].sum() > 0:
            mu[j] /= mu[j].sum()
    lam = np.array([z[lam_at(a)] for a in range(nx)])
    nu = np.zeros((nx, m))
    for (a, k), col in nu_at.items():
        nu[a, k] = max(z[col], 0.0)
    return MultiplierCertificate(mu=mu, lam=lam, nu=nu)


def certificate_violation(
    prog: DualMinProgram, x: list, gamma: np.ndarray, cert: MultiplierCertificate
) -> float:
    """Worst violation of the three multiplier conditions (for checking)."""
    nx, ny, m = len(prog.xs), len(prog.ys), prog.m
    worst = 0.0
    b = prog.linear_part(x)
    for a in range(nx):
        r = b[a].copy()
        for j in range(ny):
            mat = prog.cross[j][a]
            if mat is not None:
                r += mat.T @ cert.mu[j]
        r += cert.lam[a]
        r -= cert.nu[a]
        worst = max(worst, float(np.abs(r).max()))
        for k in range(m):
            if cert.nu[a, k] > ACTIVITY_THRESHOLD:
                worst = max(worst, float(x[a][k]))
    c = prog.adversary_payoffs(x)
    for j in range(ny):
        worst = max(worst, abs(float(cert.mu[j].sum()) - 1.0))
        for k in range(m):
            if cert.mu[j, k] > ACTIVITY_THRESHOLD:
                worst = max(worst, abs(float(gamma[j] - c[j, k])))
    return worst


def _fold_padding(vec: np.ndarray, m_orig: int) -> np.ndarray:
    if len(vec) == m_orig:
        return vec
    out = vec[:m_orig].copy()
    out[m_orig - 1] += vec[m_orig:].sum()
    return out


def reconstruct_nash(prog: DualMinProgram, x: list, cert: MultiplierCertificate) -> StrategyProfile:
    """Assemble the full profile: X players play x, adversary j plays mu_j.

    Padded duplicate actions (identical payoffs) fold their mass back onto
    the original last action.
    """
    out = [None] * prog.game.num_players
    for a, pid in enumerate(prog.xs):
        out[pid] = _fold_padding(x[a], prog.orig_counts[pid])
    for j, pid in enumerate(prog.ys):
        out[pid] = _fold_padding(cert.mu[j], prog.orig_counts[pid])
    return StrategyProfile(out)


def solve(
    game: PolymatrixGame,
    structure: TwoTeamStructure,
    epsilon: float,
    seed: int = 0,
    trace_path: str | None = None,
):
    """Full pipeline: dual program, KKT point, multipliers, Nash profile.

    Runs ``find_kkt_point`` (its Lemke paths drawn from ``seed``), reads
    the adversaries' strategies off the multipliers ``extract_multipliers``
    finds at that point, and checks the assembled profile with
    ``verify_epsilon_nash`` at ``epsilon``.  Returns (profile, NashReport);
    ``report.passed`` is that check.  ``trace_path`` receives the pivot
    log as CSV rows ``pivot,z0,path``.  Raises ValueError unless epsilon
    is finite and positive, and SolverError when a stage fails.
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
    # Stationarity relaxed by the band lets a team-X regret reach twice the
    # band, so it follows the point's own residual (near 0 at an exact
    # equilibrium), not a fixed floor that a tight epsilon would fail.
    cert = extract_multipliers(
        prog, result.x, result.gamma, band=min(1e-7, 10.0 * result.residual + 1e-12)
    )
    profile = reconstruct_nash(prog, result.x, cert)
    return profile, verify_epsilon_nash(game, profile, epsilon)
