"""Self-contained dense linear programming.

A textbook two-phase tableau simplex with Bland's anti-cycling rule.
Problem sizes here are tiny (multiplier extraction and oracle checks), so
correctness and determinism dominate speed.  Maximization form:

    max  c.z   s.t.   G z <= h,   Aeq z = beq,   per-variable bounds.

Bounds default to (0, None).  Free and upper-bounded variables are
rewritten into nonnegative ones internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical_failure"

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
# Pivots one solve may take over both phases; beyond it the solve reports
# NUMERICAL_FAILURE.
PIVOT_LIMIT = 20000


@dataclass
class LinearProgram:
    objective: np.ndarray
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    eq_matrix: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    bounds: list | None = None  # per-variable (lo, hi); None side = unbounded

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        n = len(self.objective)
        if self.ineq_matrix is None:
            self.ineq_matrix = np.zeros((0, n))
            self.ineq_rhs = np.zeros(0)
        else:
            self.ineq_matrix = np.atleast_2d(np.asarray(self.ineq_matrix, dtype=float))
            self.ineq_rhs = np.atleast_1d(np.asarray(self.ineq_rhs, dtype=float))
        if self.eq_matrix is None:
            self.eq_matrix = np.zeros((0, n))
            self.eq_rhs = np.zeros(0)
        else:
            self.eq_matrix = np.atleast_2d(np.asarray(self.eq_matrix, dtype=float))
            self.eq_rhs = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float))
        if self.bounds is None:
            self.bounds = [(0.0, None)] * n
        if (
            self.ineq_matrix.shape[1] != n
            or self.eq_matrix.shape[1] != n
            or len(self.ineq_rhs) != self.ineq_matrix.shape[0]
            or len(self.eq_rhs) != self.eq_matrix.shape[0]
            or len(self.bounds) != n
        ):
            raise ValueError("inconsistent LP shapes")
        for arr in (self.objective, self.ineq_matrix, self.ineq_rhs, self.eq_matrix, self.eq_rhs):
            if not np.isfinite(arr).all():
                raise ValueError("LP data must be finite")

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass
class LPOutcome:
    status: str
    solution: np.ndarray | None = None
    value: float | None = None
    # One dual per user inequality row followed by one per equality row.
    dual_values: np.ndarray | None = None


def _transform(lp: LinearProgram):
    """Rewrite onto nonnegative internal variables u with x = offsets + S u.

    Returns (c_t, G_t, h_t, A_t, b_t, col_map, offsets) where col_map
    holds (original var, sign) per internal column, that is the columns
    of S, and G_t appends one extra row per two-sided bound.
    """
    n = lp.num_vars
    offsets = np.zeros(n)
    col_map = []           # (var, sign)
    extra_rows = []        # (column, rhs) meaning u_col <= rhs
    for i, (lo, hi) in enumerate(lp.bounds):
        if lo is not None and hi is not None and hi < lo:
            raise ValueError(f"variable {i} has empty bound interval")
        if lo is not None:
            offsets[i] = lo
            col_map.append((i, 1.0))
            if hi is not None:
                extra_rows.append((len(col_map) - 1, hi - lo))
        elif hi is not None:
            offsets[i] = hi
            col_map.append((i, -1.0))
        else:
            col_map.append((i, 1.0))
            col_map.append((i, -1.0))

    nu = len(col_map)

    def expand(mat):
        out = np.zeros((mat.shape[0], nu))
        for col, (var, sign) in enumerate(col_map):
            out[:, col] = sign * mat[:, var]
        return out

    G_t = expand(lp.ineq_matrix)
    h_t = lp.ineq_rhs - lp.ineq_matrix @ offsets
    if extra_rows:
        bound_block = np.zeros((len(extra_rows), nu))
        bound_rhs = np.zeros(len(extra_rows))
        for r, (col, rhs) in enumerate(extra_rows):
            bound_block[r, col] = 1.0
            bound_rhs[r] = rhs
        G_t = np.vstack([G_t, bound_block])
        h_t = np.concatenate([h_t, bound_rhs])
    A_t = expand(lp.eq_matrix)
    b_t = lp.eq_rhs - lp.eq_matrix @ offsets
    c_t = np.array([sign * lp.objective[var] for (var, sign) in col_map])
    return c_t, G_t, h_t, A_t, b_t, col_map, offsets


def _pivot(T, basis, row, col):
    """Pivot the tableau on (row, col): column ``col`` enters the basis."""
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _run_simplex(T, basis, costs, allowed, dead_rows, pivot_limit):
    """Bland-rule simplex on the tableau; returns (status, pivots used).

    T is (m, ncols+1) holding B^-1 [M | d]; ``basis`` maps rows to basic
    columns and is updated in place.  Minimizes ``costs``.
    """
    m = T.shape[0]
    pivots = 0
    while True:
        cb = costs[basis]
        reduced = costs - cb @ T[:, :-1]
        entering = -1
        for j in allowed:
            if reduced[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return OPTIMAL, pivots
        col = T[:, entering]
        leave = -1
        best_ratio = np.inf
        for r in range(m):
            if r in dead_rows or col[r] <= PIVOT_TOL:
                continue
            ratio = T[r, -1] / col[r]
            if ratio < best_ratio - PIVOT_TOL or (
                abs(ratio - best_ratio) <= PIVOT_TOL
                and leave >= 0
                and basis[r] < basis[leave]
            ):
                best_ratio = ratio
                leave = r
        if leave < 0:
            return UNBOUNDED, pivots
        _pivot(T, basis, leave, entering)
        pivots += 1
        if pivots > pivot_limit:
            return NUMERICAL_FAILURE, pivots


def solve_lp(lp: LinearProgram) -> LPOutcome:
    """Two-phase simplex; never reports a wrong "optimal".

    Running past ``PIVOT_LIMIT`` pivots yields NUMERICAL_FAILURE, and any
    returned optimal solution is re-checked for feasibility before being
    reported.
    """
    c_t, G_t, h_t, A_t, b_t, col_map, offsets = _transform(lp)
    nu = len(col_map)
    m1, m2 = G_t.shape[0], A_t.shape[0]
    m = m1 + m2

    # Column layout: internal vars | slacks | artificials (one per row).
    M = np.zeros((m, nu + m1 + m))
    d = np.concatenate([h_t, b_t])
    M[:m1, :nu] = G_t
    M[m1:, :nu] = A_t
    for r in range(m1):
        M[r, nu + r] = 1.0
    signs = np.ones(m)
    for r in range(m):
        if d[r] < 0:
            signs[r] = -1.0
            M[r] *= -1.0
            d[r] = -d[r]
    for r in range(m):
        M[r, nu + m1 + r] = 1.0

    T = np.hstack([M, d[:, None]])
    basis = [nu + m1 + r for r in range(m)]
    ncols = nu + m1 + m
    dead_rows: set[int] = set()

    # Phase 1: drive the artificials to zero.
    phase1_costs = np.zeros(ncols)
    phase1_costs[nu + m1 :] = 1.0
    allowed = list(range(nu + m1))
    status, used = _run_simplex(T, basis, phase1_costs, allowed, dead_rows, PIVOT_LIMIT)
    if status == NUMERICAL_FAILURE:
        return LPOutcome(status=NUMERICAL_FAILURE)
    if phase1_costs[basis] @ T[:, -1] > FEAS_TOL:
        return LPOutcome(status=INFEASIBLE)
    # Pivot lingering zero-level artificials out, or mark their rows dead.
    for r in range(m):
        if basis[r] >= nu + m1:
            pivot_col = -1
            for j in range(nu + m1):
                if abs(T[r, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                dead_rows.add(r)
                continue
            _pivot(T, basis, r, pivot_col)

    # Phase 2 on the real objective (internally minimized).
    phase2_costs = np.zeros(ncols)
    phase2_costs[:nu] = -c_t
    status, _ = _run_simplex(
        T, basis, phase2_costs, allowed, dead_rows, PIVOT_LIMIT - used
    )
    if status == NUMERICAL_FAILURE:
        return LPOutcome(status=NUMERICAL_FAILURE)
    if status == UNBOUNDED:
        return LPOutcome(status=UNBOUNDED)

    u = np.zeros(ncols)
    for r in range(m):
        if r not in dead_rows:
            u[basis[r]] = T[r, -1]
    x = offsets.copy()
    for col, (var, sign) in enumerate(col_map):
        x[var] += sign * u[col]

    # Defensive feasibility check: a stale tableau must not masquerade as
    # an optimum.
    if len(lp.ineq_rhs) and (lp.ineq_matrix @ x - lp.ineq_rhs).max() > 1e-7:
        return LPOutcome(status=NUMERICAL_FAILURE)
    if len(lp.eq_rhs) and np.abs(lp.eq_matrix @ x - lp.eq_rhs).max() > 1e-7:
        return LPOutcome(status=NUMERICAL_FAILURE)
    for i, (lo, hi) in enumerate(lp.bounds):
        if lo is not None and x[i] < lo - 1e-7:
            return LPOutcome(status=NUMERICAL_FAILURE)
        if hi is not None and x[i] > hi + 1e-7:
            return LPOutcome(status=NUMERICAL_FAILURE)

    # Duals through the artificial columns, which hold B^-1 of each row.
    y_int = np.array(
        [phase2_costs[basis] @ T[:, nu + m1 + r] for r in range(m)]
    )
    y_rows = -signs * y_int
    n_user_ineq = lp.ineq_matrix.shape[0]
    dual_values = np.concatenate([y_rows[:n_user_ineq], y_rows[m1:]])

    return LPOutcome(
        status=OPTIMAL,
        solution=x,
        value=float(lp.objective @ x),
        dual_values=dual_values,
    )


def find_feasible(lp: LinearProgram) -> LPOutcome:
    """Any feasible point (a vertex of the standard-form conversion) or infeasible.

    Pure phase-one run: the objective is replaced by zero.
    """
    probe = LinearProgram(
        objective=np.zeros(lp.num_vars),
        ineq_matrix=lp.ineq_matrix.copy() if lp.ineq_matrix.size else None,
        ineq_rhs=lp.ineq_rhs.copy() if lp.ineq_rhs.size else None,
        eq_matrix=lp.eq_matrix.copy() if lp.eq_matrix.size else None,
        eq_rhs=lp.eq_rhs.copy() if lp.eq_rhs.size else None,
        bounds=list(lp.bounds),
    )
    return solve_lp(probe)
