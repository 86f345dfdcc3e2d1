import numpy as np
import pytest

from twoteam.instances import (
    BoxPoint,
    MinmaxIndInstance,
    MinmaxPoint,
    QuadraticInstance,
    eval_minmax,
    eval_quadratic,
    grad_minmax,
    grad_quadratic,
    random_minmax,
    random_quadratic,
    instance_from_dict,
    instance_to_dict,
    sum_abs_coeffs,
    verify_general_kkt,
    verify_min_kkt,
    verify_minmax_kkt,
)
from twoteam.oracle import finite_diff_grad


def x_squared(epsilon=0.1):
    return QuadraticInstance(n=1, constant=0, linear=[0], cross=[[0]], square=[1], epsilon=epsilon)


def bilinear_xy(epsilon=0.01):
    return MinmaxIndInstance(
        n_x=1, n_y=1, alpha=0, beta=[0], gamma=[[0]], zeta=[0], theta=[[1]], epsilon=epsilon
    )


def naive_eval_quadratic(inst, x):
    total = inst.constant
    for i in range(inst.n):
        total += inst.linear[i] * x[i]
        total += inst.square[i] * x[i] * x[i]
        for j in range(inst.n):
            if i != j:
                total += inst.cross[i, j] * x[i] * x[j]
    return total


def naive_eval_minmax(inst, x, y):
    total = inst.alpha
    for i in range(inst.n_x):
        total += inst.beta[i] * x[i]
        for j in range(inst.n_x):
            if i != j:
                total += inst.gamma[i, j] * x[i] * x[j]
        for j in range(inst.n_y):
            total += inst.theta[i, j] * x[i] * y[j]
    for j in range(inst.n_y):
        total += inst.zeta[j] * y[j]
    return total


def test_eval_quadratic_examples():
    assert eval_quadratic(x_squared(), BoxPoint([0.5])) == pytest.approx(0.25)
    zero = QuadraticInstance(n=2, constant=0, linear=[0, 0], cross=np.zeros((2, 2)),
                             square=[0, 0], epsilon=0.1)
    assert eval_quadratic(zero, BoxPoint([0.3, 0.9])) == 0.0


def test_eval_quadratic_matches_naive():
    rng = np.random.default_rng(0)
    for _ in range(20):
        inst = random_quadratic(int(rng.integers(1, 5)), 0.05, rng)
        x = rng.uniform(0, 1, inst.n)
        assert eval_quadratic(inst, x) == pytest.approx(naive_eval_quadratic(inst, x), abs=1e-12)


def test_grad_quadratic_examples():
    assert grad_quadratic(x_squared(), BoxPoint([0.5])) == pytest.approx([1.0])
    # Q = 3 x1 x2 - 2 x1 + 1 at (1, 0): gradient (-2, 3)
    inst = QuadraticInstance(n=2, constant=1, linear=[-2, 0], cross=[[0, 3], [0, 0]],
                             square=[0, 0], epsilon=0.1)
    assert grad_quadratic(inst, BoxPoint([1, 0])) == pytest.approx([-2.0, 3.0])
    assert sum_abs_coeffs(inst) == pytest.approx(6.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(25):
        q = random_quadratic(int(rng.integers(1, 5)), 0.05, rng)
        x = rng.uniform(0.1, 0.9, q.n)
        fd = finite_diff_grad(lambda v: eval_quadratic(q, v), x, 1e-5)
        g = grad_quadratic(q, x)
        assert np.max(np.abs(fd - g) / np.maximum(1.0, np.abs(g))) <= 1e-6
    for _ in range(25):
        m = random_minmax(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 0.05, rng)
        x = rng.uniform(0.1, 0.9, m.n_x)
        y = rng.uniform(0.1, 0.9, m.n_y)
        g, q_ = grad_minmax(m, (x, y))
        fd = finite_diff_grad(lambda v: eval_minmax(m, (v[: m.n_x], v[m.n_x:])),
                              np.concatenate([x, y]), 1e-5)
        full = np.concatenate([g, q_])
        assert np.max(np.abs(fd - full) / np.maximum(1.0, np.abs(full))) <= 1e-6


def test_eval_minmax_examples():
    m = bilinear_xy()
    assert eval_minmax(m, MinmaxPoint(BoxPoint([1]), BoxPoint([1]))) == pytest.approx(1.0)
    alpha_only = MinmaxIndInstance(n_x=1, n_y=1, alpha=0.7, beta=[0], gamma=[[0]],
                                   zeta=[0], theta=[[0]], epsilon=0.1)
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = MinmaxPoint(BoxPoint(rng.uniform(0, 1, 1)), BoxPoint(rng.uniform(0, 1, 1)))
        assert eval_minmax(alpha_only, p) == pytest.approx(0.7)


def test_eval_minmax_matches_naive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_minmax(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 0.05, rng)
        x = rng.uniform(0, 1, m.n_x)
        y = rng.uniform(0, 1, m.n_y)
        assert eval_minmax(m, (x, y)) == pytest.approx(naive_eval_minmax(m, x, y), abs=1e-12)


def test_grad_minmax_examples():
    m = bilinear_xy()
    g, q = grad_minmax(m, MinmaxPoint(BoxPoint([0]), BoxPoint([0])))
    assert g == pytest.approx([0.0]) and q == pytest.approx([0.0])
    g, q = grad_minmax(m, MinmaxPoint(BoxPoint([1]), BoxPoint([0])))
    assert g == pytest.approx([0.0]) and q == pytest.approx([1.0])


def test_sum_abs_coeffs_floor():
    zero = QuadraticInstance(n=1, constant=0, linear=[0], cross=[[0]], square=[0], epsilon=0.1)
    assert sum_abs_coeffs(zero) == 1.0
    assert sum_abs_coeffs(x_squared()) == 1.0


def test_verify_min_kkt_examples():
    assert verify_min_kkt(x_squared(), BoxPoint([0]), 0.0).passed
    # (x - 2)^2: constant 4, linear -4, square 1
    inst = QuadraticInstance(n=1, constant=4, linear=[-4], cross=[[0]], square=[1], epsilon=0.1)
    rep = verify_min_kkt(inst, BoxPoint([1]), 0.0)
    assert rep.passed and rep.classification == ("at_one",)
    rep = verify_min_kkt(inst, BoxPoint([0.5]), 0.1)
    assert not rep.passed
    assert rep.max_violation == pytest.approx(3.0 - 0.1)


def test_verify_minmax_kkt_examples():
    m = bilinear_xy()
    assert verify_minmax_kkt(m, MinmaxPoint(BoxPoint([0]), BoxPoint([1])), 0.0).passed
    assert not verify_minmax_kkt(m, MinmaxPoint(BoxPoint([1]), BoxPoint([1])), 0.5).passed
    assert verify_minmax_kkt(m, MinmaxPoint(BoxPoint([0]), BoxPoint([0])), 0.0).passed


def test_minmax_kkt_monotone_in_epsilon():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = random_minmax(2, 2, 0.05, rng)
        p = MinmaxPoint(BoxPoint(rng.uniform(0, 1, 2)), BoxPoint(rng.uniform(0, 1, 2)))
        eps = rng.uniform(0, 2)
        if verify_minmax_kkt(m, p, eps).passed:
            assert verify_minmax_kkt(m, p, eps + rng.uniform(0, 1)).passed


def test_minmax_reduces_to_min_when_no_max_vars():
    # A multilinear objective with an empty y block must verify exactly like
    # the corresponding quadratic (which has no square terms either).
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        gamma = rng.uniform(-1, 1, (n, n))
        np.fill_diagonal(gamma, 0.0)
        beta = rng.uniform(-1, 1, n)
        m = MinmaxIndInstance(n_x=n, n_y=0, alpha=0.0, beta=beta, gamma=gamma,
                              zeta=[], theta=np.zeros((n, 0)), epsilon=0.05)
        q = QuadraticInstance(n=n, constant=0.0, linear=beta, cross=gamma,
                              square=np.zeros(n), epsilon=0.05)
        x = BoxPoint(rng.uniform(0, 1, n))
        eps = rng.uniform(0, 1)
        rep_m = verify_minmax_kkt(m, MinmaxPoint(x, BoxPoint([])), eps)
        rep_q = verify_min_kkt(q, x, eps)
        assert rep_m.passed == rep_q.passed
        assert np.allclose(rep_m.residuals, rep_q.residuals)


# Reference box rules, one for each side: a min variable with gradient g,
# and a max variable with gradient q, whose boundary conditions flip sign.
# The verifiers check a max variable as a min variable of -q and must match
# these bit for bit.
def reference_min_side(value, g, epsilon):
    if value == 0.0:
        return -g - epsilon
    if value == 1.0:
        return g - epsilon
    return abs(g) - epsilon


def reference_max_side(value, q, epsilon):
    if value == 0.0:
        return q - epsilon
    if value == 1.0:
        return -q - epsilon
    return abs(q) - epsilon


def reference_class(value):
    return "at_zero" if value == 0.0 else "at_one" if value == 1.0 else "interior"


def assert_same_report(rep, residuals, classification):
    residuals = np.array(residuals)
    assert rep.residuals.tobytes() == residuals.tobytes()
    assert rep.max_violation == float(residuals.max())
    assert rep.passed == (float(residuals.max()) <= 0.0)
    assert rep.classification == tuple(classification)


def test_box_verifiers_match_the_per_side_rules_bit_for_bit():
    # Dyadic coefficients and points, so gradients land exactly on +-eps at
    # 0, at 1 and inside.
    rng = np.random.default_rng(20)
    dyadic = lambda *shape: rng.integers(-8, 9, size=shape) / 8.0
    on_boundary = 0
    for _ in range(150):
        n, n_x, n_y = (int(v) for v in rng.integers(1, 4, size=3))
        cross, gamma = dyadic(n, n), dyadic(n_x, n_x)
        np.fill_diagonal(cross, 0.0)
        np.fill_diagonal(gamma, 0.0)
        q = QuadraticInstance(n=n, constant=0.0, linear=dyadic(n), cross=cross,
                              square=dyadic(n), epsilon=0.1)
        m = MinmaxIndInstance(n_x=n_x, n_y=n_y, alpha=0.0, beta=dyadic(n_x), gamma=gamma,
                              zeta=dyadic(n_y), theta=dyadic(n_x, n_y), epsilon=0.1)
        x = BoxPoint(rng.integers(0, 5, size=n) / 4.0)
        p = MinmaxPoint(rng.integers(0, 5, size=n_x) / 4.0, rng.integers(0, 5, size=n_y) / 4.0)
        g = grad_quadratic(q, x)
        gx, gy = grad_minmax(m, p)
        for eps in (0.0, 0.125, 0.25, 0.5, 1.0):
            rep = verify_min_kkt(q, x, eps)
            assert_same_report(rep, [reference_min_side(v, gi, eps) for v, gi in zip(x.values, g)],
                               [reference_class(v) for v in x.values])
            on_boundary += int((rep.residuals == 0.0).sum())
            rep = verify_minmax_kkt(m, p, eps)
            xv, yv = p.x.values, p.y.values
            assert_same_report(
                rep,
                [reference_min_side(v, gi, eps) for v, gi in zip(xv, gx)]
                + [reference_max_side(v, qj, eps) for v, qj in zip(yv, gy)],
                [reference_class(v) for v in np.concatenate([xv, yv])])
            on_boundary += int((rep.residuals == 0.0).sum())
    assert on_boundary > 50


def test_verify_general_kkt_examples():
    # min -x s.t. x <= 0
    obj = QuadraticInstance(n=1, constant=0, linear=[-1], cross=[[0]], square=[0], epsilon=0.1)
    A = np.array([[1.0]])
    b = np.array([0.0])
    assert verify_general_kkt(obj, A, b, [0.0], [1.0], 1e-9).passed
    assert not verify_general_kkt(obj, A, b, [0.0], [0.0], 1e-9).passed


def test_boundary_classification_is_exact():
    rep = verify_min_kkt(x_squared(), BoxPoint([1e-300]), 10.0)
    assert rep.classification == ("interior",)
    rep = verify_min_kkt(x_squared(), BoxPoint([-0.5]), 10.0)  # clamps to 0
    assert rep.classification == ("at_zero",)


def test_structural_invariants_rejected():
    with pytest.raises(ValueError):
        QuadraticInstance(n=1, constant=0, linear=[0], cross=[[1.0]], square=[0], epsilon=0.1)
    with pytest.raises(ValueError):
        MinmaxIndInstance(n_x=2, n_y=1, alpha=0, beta=[0, 0],
                          gamma=[[1, 0], [0, 0]], zeta=[0], theta=[[0], [0]], epsilon=0.1)
    with pytest.raises(ValueError):
        QuadraticInstance(n=1, constant=0, linear=[0], cross=[[0]], square=[0], epsilon=0.0)


def test_instance_serialization_round_trip():
    rng = np.random.default_rng(7)
    q = random_quadratic(3, 0.05, rng)
    q2 = instance_from_dict(instance_to_dict(q))
    assert isinstance(q2, QuadraticInstance)
    for _ in range(5):
        x = rng.uniform(0, 1, 3)
        assert eval_quadratic(q, x) == eval_quadratic(q2, x)
    m = random_minmax(2, 3, 0.05, rng)
    m2 = instance_from_dict(instance_to_dict(m))
    assert isinstance(m2, MinmaxIndInstance)
    for _ in range(5):
        x = rng.uniform(0, 1, 2)
        y = rng.uniform(0, 1, 3)
        assert eval_minmax(m, (x, y)) == eval_minmax(m2, (x, y))
