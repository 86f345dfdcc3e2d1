"""Degree-two objective containers, gradients, and box-constrained KKT checks.

Two coefficient tables are supported: a general quadratic Q over box
variables, and a multilinear minmax objective M(x, y) that by construction
has no y-y monomials (the shape a polymatrix game with independent
adversaries can encode).  Verifiers cover the box min case, the box minmax
case, and the general linear-constraint case with explicit multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game_core import is_json_numbers


def _coords(inst: QuadraticInstance, x) -> np.ndarray:
    v = x.values if isinstance(x, BoxPoint) else np.asarray(x, dtype=float)
    if v.shape != (inst.n,):
        raise ValueError(f"point has dimension {v.shape}, expected ({inst.n},)")
    return v


def _triplets(mat: np.ndarray) -> list:
    rows, cols = np.nonzero(mat)
    return [[int(r), int(c), float(mat[r, c])] for r, c in zip(rows, cols)]


def _json_int(value, size=float("inf")) -> int:
    """``value`` if it is a JSON integer in [0, size); ValueError otherwise."""
    if type(value) is not int or not 0 <= value < size:
        raise ValueError(f"malformed instance data: expected an integer in [0, {size}), got {value!r}")
    return value


def _json_numbers(value, what: str):
    """``value`` if ``is_json_numbers`` holds for it; ValueError otherwise."""
    if not is_json_numbers(value):
        raise ValueError(f"malformed instance data: {what} must be JSON numbers")
    return value


def _from_triplets(triplets, shape) -> np.ndarray:
    out = np.zeros(shape)
    seen = set()
    for r, c, v in triplets or []:
        key = (_json_int(r, shape[0]), _json_int(c, shape[1]))
        if key in seen:
            raise ValueError(f"malformed instance data: entry {list(key)} listed twice")
        seen.add(key)
        out[key] = float(_json_numbers(v, "matrix entries"))
    return out


@dataclass(frozen=True)
class QuadraticInstance:
    """Q(x) = constant + linear.x + sum_{i!=j} cross_ij x_i x_j + sum_i square_i x_i^2.

    ``cross`` keeps q_ij and q_ji as separate stored monomials (zero
    diagonal); gradients use their sum, so no silent symmetrization
    happens.
    """

    n: int
    constant: float
    linear: np.ndarray
    cross: np.ndarray
    square: np.ndarray
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=float))
        object.__setattr__(self, "cross", np.asarray(self.cross, dtype=float))
        object.__setattr__(self, "square", np.asarray(self.square, dtype=float))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.linear.shape != (self.n,) or self.square.shape != (self.n,):
            raise ValueError("coefficient vectors must have length n")
        if self.cross.shape != (self.n, self.n):
            raise ValueError("cross must be n x n")
        if np.any(np.diag(self.cross) != 0.0):
            raise ValueError("cross diagonal must be zero; squares go in `square`")
        for arr in (self.linear, self.cross, self.square):
            if not np.isfinite(arr).all():
                raise ValueError("coefficients must be finite")
        if not np.isfinite(self.constant) or not self.epsilon > 0:
            raise ValueError("constant must be finite and epsilon positive")


@dataclass(frozen=True)
class MinmaxIndInstance:
    """M(x, y) = alpha + beta.x + sum_{i!=j} gamma_ij x_i x_j + zeta.y + x^T theta y.

    No y-y coefficients exist by construction, and gamma has a zero
    diagonal (multilinearity), so the independence property is structural.
    """

    n_x: int
    n_y: int
    alpha: float
    beta: np.ndarray
    gamma: np.ndarray
    zeta: np.ndarray
    theta: np.ndarray
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "n_x", int(self.n_x))
        object.__setattr__(self, "n_y", int(self.n_y))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "zeta", np.asarray(self.zeta, dtype=float).reshape(self.n_y))
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float).reshape(self.n_x, self.n_y))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.n_x <= 0 or self.n_y < 0:
            raise ValueError("need n_x >= 1 and n_y >= 0")
        if self.beta.shape != (self.n_x,):
            raise ValueError("beta must have length n_x")
        if self.gamma.shape != (self.n_x, self.n_x):
            raise ValueError("gamma must be n_x x n_x")
        if np.any(np.diag(self.gamma) != 0.0):
            raise ValueError("gamma diagonal must be zero (no x_i^2 terms)")
        for arr in (self.beta, self.gamma, self.zeta, self.theta):
            if not np.isfinite(arr).all():
                raise ValueError("coefficients must be finite")
        if not np.isfinite(self.alpha) or not self.epsilon > 0:
            raise ValueError("alpha must be finite and epsilon positive")


def random_quadratic(n: int, epsilon: float, rng) -> QuadraticInstance:
    """A QP whose coefficients are drawn uniform on [-1, 1] from ``rng``."""
    cross = rng.uniform(-1.0, 1.0, size=(n, n))
    np.fill_diagonal(cross, 0.0)
    return QuadraticInstance(
        n=n,
        constant=rng.uniform(-1.0, 1.0),
        linear=rng.uniform(-1.0, 1.0, size=n),
        cross=cross,
        square=rng.uniform(-1.0, 1.0, size=n),
        epsilon=epsilon,
    )


def random_minmax(n_x: int, n_y: int, epsilon: float, rng) -> MinmaxIndInstance:
    """A minmax instance whose coefficients are drawn uniform on [-1, 1] from ``rng``."""
    gamma = rng.uniform(-1.0, 1.0, size=(n_x, n_x))
    np.fill_diagonal(gamma, 0.0)
    return MinmaxIndInstance(
        n_x=n_x,
        n_y=n_y,
        alpha=rng.uniform(-1.0, 1.0),
        beta=rng.uniform(-1.0, 1.0, size=n_x),
        gamma=gamma,
        zeta=rng.uniform(-1.0, 1.0, size=n_y),
        theta=rng.uniform(-1.0, 1.0, size=(n_x, n_y)),
        epsilon=epsilon,
    )


class BoxPoint:
    """A point of [0, 1]^n, clamped exactly on construction.

    Clamping makes boundary membership an exact comparison, which the KKT
    definitions case-split on.
    """

    def __init__(self, values):
        try:
            v = np.asarray(values, dtype=float)
        except TypeError as exc:
            raise ValueError(f"box point must be numeric: {exc}") from exc
        if v.ndim != 1:
            raise ValueError("box point must be a vector")
        if not np.isfinite(v).all():
            raise ValueError("box point must be finite")
        self.values = np.clip(v, 0.0, 1.0)

    def __len__(self):
        return len(self.values)


class MinmaxPoint:
    """A pair of box points, one over min-variables and one over max-variables."""

    def __init__(self, x, y):
        self.x = x if isinstance(x, BoxPoint) else BoxPoint(x)
        self.y = y if isinstance(y, BoxPoint) else BoxPoint(y)


@dataclass(frozen=True)
class KKTReport:
    """Signed per-coordinate violations; <= 0 everywhere means satisfied."""

    residuals: np.ndarray
    max_violation: float
    passed: bool
    classification: tuple[str, ...]


def eval_quadratic(inst: QuadraticInstance, x) -> float:
    v = _coords(inst, x)
    return float(
        inst.constant
        + inst.linear @ v
        + v @ inst.cross @ v
        + inst.square @ (v * v)
    )


def grad_quadratic(inst: QuadraticInstance, x) -> np.ndarray:
    """Coordinate i: q_i + sum_{j != i} (q_ij + q_ji) x_j + 2 q_ii x_i."""
    v = _coords(inst, x)
    return inst.linear + (inst.cross + inst.cross.T) @ v + 2.0 * inst.square * v


def eval_minmax(inst: MinmaxIndInstance, p) -> float:
    x, y = _minmax_coords(inst, p)
    return float(
        inst.alpha + inst.beta @ x + x @ inst.gamma @ x + inst.zeta @ y + x @ inst.theta @ y
    )


def grad_minmax(inst: MinmaxIndInstance, p):
    """Returns (g, q): the x-gradient and the y-gradient."""
    x, y = _minmax_coords(inst, p)
    g = inst.beta + (inst.gamma + inst.gamma.T) @ x + inst.theta @ y
    q = inst.zeta + inst.theta.T @ x
    return g, q


def _minmax_coords(inst: MinmaxIndInstance, p):
    if isinstance(p, MinmaxPoint):
        x, y = p.x.values, p.y.values
    else:
        x, y = (np.asarray(a, dtype=float) for a in p)
    if x.shape != (inst.n_x,) or y.shape != (inst.n_y,):
        raise ValueError(
            f"point dims {(x.shape, y.shape)} do not match instance ({inst.n_x}, {inst.n_y})"
        )
    return x, y


def sum_abs_coeffs(inst) -> float:
    """max(1, sum of |coefficients|), the bound Z used throughout the reductions."""
    if isinstance(inst, QuadraticInstance):
        total = (
            abs(inst.constant)
            + np.abs(inst.linear).sum()
            + np.abs(inst.cross).sum()
            + np.abs(inst.square).sum()
        )
    elif isinstance(inst, MinmaxIndInstance):
        total = (
            abs(inst.alpha)
            + np.abs(inst.beta).sum()
            + np.abs(inst.gamma).sum()
            + np.abs(inst.zeta).sum()
            + np.abs(inst.theta).sum()
        )
    else:
        raise TypeError(f"unsupported instance type {type(inst)!r}")
    return float(max(1.0, total))


def _box_kkt(values: np.ndarray, g: np.ndarray, epsilon: float) -> KKTReport:
    """Box KKT rule for a min variable with gradient g, coordinate by coordinate.

    At 0 it needs g >= -epsilon, at 1 g <= epsilon, and inside |g| <=
    epsilon.  A max variable is checked as a min variable of -g.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    cases = []
    for v, gi in zip(values.tolist(), g.tolist()):
        if v == 0.0:
            cases.append(("at_zero", -gi - epsilon))
        elif v == 1.0:
            cases.append(("at_one", gi - epsilon))
        else:
            cases.append(("interior", abs(gi) - epsilon))
    classification, residuals = zip(*cases)
    residuals = np.array(residuals)
    max_violation = float(residuals.max())
    return KKTReport(residuals, max_violation, max_violation <= 0.0, classification)


def verify_min_kkt(inst: QuadraticInstance, x: BoxPoint, epsilon: float) -> KKTReport:
    """Approximate first-order check for min over the unit box."""
    v = x.values if isinstance(x, BoxPoint) else BoxPoint(x).values
    return _box_kkt(v, grad_quadratic(inst, v), epsilon)


def verify_minmax_kkt(inst: MinmaxIndInstance, p: MinmaxPoint, epsilon: float) -> KKTReport:
    """First-order check for min over x, max over y, both box-constrained."""
    if not isinstance(p, MinmaxPoint):
        p = MinmaxPoint(*p)
    g, q = grad_minmax(inst, p)
    return _box_kkt(np.concatenate([p.x.values, p.y.values]), np.concatenate([g, -q]), epsilon)


def verify_general_kkt(objective: QuadraticInstance, A, b, x, mu, tol: float) -> KKTReport:
    """KKT check for min f(x) s.t. Ax <= b with supplied multipliers.

    Uses a single tolerance for all four conditions: stationarity
    ||grad f + A^T mu||_inf <= tol, primal feasibility Ax <= b + tol,
    mu >= -tol, and |mu^T (b - Ax)| <= tol.  The objective is evaluated over
    free variables; no box is implied.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    m, n = A.shape
    if x.shape != (n,) or mu.shape != (m,) or b.shape != (m,):
        raise ValueError("shape mismatch between A, b, x, mu")
    grad = grad_quadratic(objective, x)
    stationarity = grad + A.T @ mu
    slack = b - A @ x

    residuals = []
    classification = []
    for i in range(n):
        residuals.append(abs(stationarity[i]) - tol)
        classification.append(f"stationarity[{i}]")
    for k in range(m):
        residuals.append(-slack[k] - tol)
        classification.append(f"primal[{k}]")
    for k in range(m):
        residuals.append(-mu[k] - tol)
        classification.append(f"dual[{k}]")
    residuals.append(abs(mu @ slack) - tol)
    classification.append("complementarity")

    residuals = np.array(residuals)
    max_violation = float(residuals.max())
    return KKTReport(residuals, max_violation, max_violation <= 0.0, tuple(classification))


# ---------------------------------------------------------------------------
# File format: sparse triplet lists for the matrices.


def instance_to_dict(inst) -> dict:
    if isinstance(inst, QuadraticInstance):
        return {
            "kind": "quadratic",
            "n_x": inst.n,
            "n_y": 0,
            "constant": inst.constant,
            "linear": inst.linear.tolist(),
            "cross": _triplets(inst.cross),
            "square": inst.square.tolist(),
            "epsilon": inst.epsilon,
        }
    if isinstance(inst, MinmaxIndInstance):
        return {
            "kind": "minmax_ind",
            "n_x": inst.n_x,
            "n_y": inst.n_y,
            "alpha": inst.alpha,
            "beta": inst.beta.tolist(),
            "gamma": _triplets(inst.gamma),
            "zeta": inst.zeta.tolist(),
            "theta": _triplets(inst.theta),
            "epsilon": inst.epsilon,
        }
    raise TypeError(f"unsupported instance type {type(inst)!r}")


def instance_from_dict(data: dict):
    try:
        kind = data["kind"]
        if kind == "quadratic":
            n = _json_int(data.get("n", data.get("n_x")))
            return QuadraticInstance(
                n=n,
                constant=_json_numbers(data.get("constant", 0.0), "constant"),
                linear=_json_numbers(data.get("linear", [0.0] * n), "linear"),
                cross=_from_triplets(data.get("cross"), (n, n)),
                square=_json_numbers(data.get("square", [0.0] * n), "square"),
                epsilon=_json_numbers(data["epsilon"], "epsilon"),
            )
        if kind == "minmax_ind":
            n_x, n_y = _json_int(data["n_x"]), _json_int(data["n_y"])
            return MinmaxIndInstance(
                n_x=n_x,
                n_y=n_y,
                alpha=_json_numbers(data.get("alpha", 0.0), "alpha"),
                beta=_json_numbers(data.get("beta", [0.0] * n_x), "beta"),
                gamma=_from_triplets(data.get("gamma"), (n_x, n_x)),
                zeta=_json_numbers(data.get("zeta", [0.0] * n_y), "zeta"),
                theta=_from_triplets(data.get("theta"), (n_x, n_y)),
                epsilon=_json_numbers(data["epsilon"], "epsilon"),
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance data: {exc}") from exc
    raise ValueError(f"unknown instance kind {data.get('kind')!r}")
