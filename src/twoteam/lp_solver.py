"""Self-contained dense linear programming.

A textbook two-phase tableau simplex with Bland's anti-cycling rule.
Problem sizes here are tiny (multiplier extraction and oracle checks), so
correctness and determinism dominate speed.  Maximization form:

    max  c.z   s.t.   G z <= h,   Aeq z = beq,   each z_i >= 0 or free.

Bounds default to (0, None).  A free variable is split internally into
the difference of two nonnegative columns; an upper bound is an
inequality row like any other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    # Per-variable (lo, hi): (0, None) for z_i >= 0, (None, None) for free.
    bounds: list | None = None

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
        for i, (lo, hi) in enumerate(self.bounds):
            if hi is not None or (lo is not None and lo != 0):
                raise ValueError(f"variable {i}: bounds must be (0, None) or (None, None)")
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


def _transform(lp: LinearProgram):
    """Rewrite onto nonnegative internal variables u with x = S u.

    Returns (c_t, G_t, A_t, var, sign): internal column c stands for
    ``sign[c]`` times variable ``var[c]`` (a column of S).  A free
    variable gets two columns, of signs +1 and -1.
    """
    var, sign = [], []
    for i, (lo, _) in enumerate(lp.bounds):
        var.append(i)
        sign.append(1.0)
        if lo is None:
            var.append(i)
            sign.append(-1.0)
    var, sign = np.array(var, dtype=np.intp), np.array(sign)
    return (lp.objective[var] * sign, lp.ineq_matrix[:, var] * sign,
            lp.eq_matrix[:, var] * sign, var, sign)


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
    c_t, G_t, A_t, var, sign = _transform(lp)
    nu = len(var)
    m1, m2 = G_t.shape[0], A_t.shape[0]
    m = m1 + m2

    # Column layout: internal vars | slacks | artificials (one per row).
    M = np.zeros((m, nu + m1 + m))
    d = np.concatenate([lp.ineq_rhs, lp.eq_rhs])
    M[:m1, :nu] = G_t
    M[m1:, :nu] = A_t
    M[range(m1), range(nu, nu + m1)] = 1.0
    negative = d < 0
    M[negative] *= -1.0
    d[negative] *= -1.0
    M[range(m), range(nu + m1, nu + m1 + m)] = 1.0

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
    # np.add.at, not x[var] +=, so that both columns of a free variable count.
    x = np.zeros(lp.num_vars)
    np.add.at(x, var, sign * u[:nu])

    # Defensive feasibility check: a stale tableau must not masquerade as
    # an optimum.
    if len(lp.ineq_rhs) and (lp.ineq_matrix @ x - lp.ineq_rhs).max() > 1e-7:
        return LPOutcome(status=NUMERICAL_FAILURE)
    if len(lp.eq_rhs) and np.abs(lp.eq_matrix @ x - lp.eq_rhs).max() > 1e-7:
        return LPOutcome(status=NUMERICAL_FAILURE)
    if any(lo is not None and x[i] < -1e-7 for i, (lo, _) in enumerate(lp.bounds)):
        return LPOutcome(status=NUMERICAL_FAILURE)

    return LPOutcome(status=OPTIMAL, solution=x, value=float(lp.objective @ x))


def find_feasible(lp: LinearProgram) -> LPOutcome:
    """Any feasible point (a vertex of the standard-form conversion) or infeasible.

    Pure phase-one run: the objective is replaced by zero.
    """
    return solve_lp(replace(lp, objective=np.zeros(lp.num_vars)))
