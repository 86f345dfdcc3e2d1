import numpy as np
import pytest

from twoteam.lp_solver import (
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    find_feasible,
    solve_lp,
)
from twoteam.oracle import enumerate_lp_vertices


def random_lp(rng):
    """Small LP with x >= 0; occasionally an equality row, or an upper
    bound x_i <= hi on every variable as inequality rows."""
    n = int(rng.integers(1, 4))
    rows = int(rng.integers(1, 5))
    G = rng.uniform(-1, 1, (rows, n))
    h = rng.uniform(-0.5, 1.5, rows)
    eq = None
    beq = None
    if rng.random() < 0.3:
        eq = np.ones((1, n))
        beq = np.array([1.0])
    if rng.random() < 0.4:
        G = np.vstack([G, np.eye(n)])
        h = np.concatenate([h, [float(rng.uniform(0.5, 2.0)) for _ in range(n)]])
    c = rng.uniform(-1, 1, n)
    return LinearProgram(objective=c, ineq_matrix=G, ineq_rhs=h, eq_matrix=eq, eq_rhs=beq)


def test_box_maximum():
    lp = LinearProgram(objective=[1, 1], ineq_matrix=[[1, 0], [0, 1]], ineq_rhs=[1, 1])
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(2.0)
    assert out.solution == pytest.approx([1.0, 1.0])


def test_pivot_limit_yields_numerical_failure(monkeypatch):
    monkeypatch.setattr("twoteam.lp_solver.PIVOT_LIMIT", 0)  # the box LP needs phase-1 pivots
    lp = LinearProgram(objective=[1, 1], ineq_matrix=[[1, 0], [0, 1]], ineq_rhs=[1, 1])
    assert solve_lp(lp).status == NUMERICAL_FAILURE


def test_post_solve_recheck_catches_an_infeasible_optimum(monkeypatch):
    # With a feasibility tolerance of 10, phase 1 accepts x0 + x1 <= -1 at
    # an artificial level of 1; the re-check of the returned point refuses it.
    monkeypatch.setattr("twoteam.lp_solver.FEAS_TOL", 10.0)
    lp = LinearProgram(objective=[1.0, 1.0], ineq_matrix=[[1.0, 1.0]], ineq_rhs=[-1.0])
    assert solve_lp(lp).status == NUMERICAL_FAILURE


def test_unbounded_detection():
    assert solve_lp(LinearProgram(objective=[1.0])).status == UNBOUNDED


def test_infeasible_detection():
    lp = LinearProgram(objective=[1.0], ineq_matrix=[[1.0]], ineq_rhs=[-1.0])
    assert solve_lp(lp).status == INFEASIBLE


def test_find_feasible_reports_infeasible():
    lp = LinearProgram(objective=[1.0, 1.0], ineq_matrix=[[1.0, 1.0]], ineq_rhs=[1.0],
                       eq_matrix=[[1.0, 1.0]], eq_rhs=[2.0])
    assert find_feasible(lp).status == INFEASIBLE


@pytest.mark.parametrize("bound", [(0, 1), (None, 2.5), (1, None)])
def test_bounds_other_than_nonnegative_or_free_are_rejected(bound):
    with pytest.raises(ValueError, match="bounds"):
        LinearProgram(objective=[1.0, 1.0], bounds=[(0, None), bound])


def test_find_feasible_on_simplex():
    lp = LinearProgram(objective=[0, 0], eq_matrix=[[1, 1]], eq_rhs=[1])
    out = find_feasible(lp)
    assert out.status == OPTIMAL
    x = out.solution
    assert x.min() >= -1e-12
    assert x.sum() == pytest.approx(1.0)


def test_free_variables_and_upper_bounds():
    # max -|x| style: min distance with a free variable pushed to 3 by a
    # constraint; exercises the split-variable path.  The second LP's
    # upper bound is an inequality row on a free variable.
    lp = LinearProgram(
        objective=[-1.0],
        ineq_matrix=[[-1.0]],
        ineq_rhs=[-3.0],
        bounds=[(None, None)],
    )
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.solution == pytest.approx([3.0])
    lp2 = LinearProgram(objective=[1.0], ineq_matrix=[[1.0]], ineq_rhs=[2.5], bounds=[(None, None)])
    out2 = solve_lp(lp2)
    assert out2.status == OPTIMAL and out2.solution == pytest.approx([2.5])


def test_agreement_with_vertex_enumeration():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(120):
        lp = random_lp(rng)
        truth = enumerate_lp_vertices(lp)
        out = solve_lp(lp)
        assert out.status == truth.status, (out.status, truth.status)
        if out.status == OPTIMAL:
            assert out.value == pytest.approx(truth.value, abs=1e-9)
            checked += 1
    assert checked > 50


def test_determinism():
    rng = np.random.default_rng(2)
    for _ in range(20):
        lp = random_lp(rng)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.status == b.status
        if a.status == OPTIMAL:
            assert np.array_equal(a.solution, b.solution)
            assert a.value == b.value


def test_degenerate_cycling_guard():
    # Classic degenerate example; Bland's rule must terminate.
    lp = LinearProgram(
        objective=[0.75, -150.0, 0.02, -6.0],
        ineq_matrix=[
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        ineq_rhs=[0.0, 0.0, 1.0],
    )
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(0.05, abs=1e-9)


def test_solution_feasibility_always_holds():
    rng = np.random.default_rng(3)
    for _ in range(60):
        lp = random_lp(rng)
        out = solve_lp(lp)
        if out.status != OPTIMAL:
            continue
        x = out.solution
        assert (lp.ineq_matrix @ x - lp.ineq_rhs).max() <= 1e-9
        if lp.eq_matrix.shape[0]:
            assert np.abs(lp.eq_matrix @ x - lp.eq_rhs).max() <= 1e-9
        for i, (lo, _) in enumerate(lp.bounds):
            if lo is not None:
                assert x[i] >= -1e-9
