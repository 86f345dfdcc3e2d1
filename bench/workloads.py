"""The benchmark's workloads: inputs, requests and output checks.

A workload is a list of requests (one pass) built from seeds.  Each
request has a ``run`` step, which is what is timed and traced, and a
``check`` step that recomputes the result with the program's definitional
verifiers and raises ``RequestFailed`` when it does not hold.  The inputs
are drawn here with numpy's seeded generator, never with the program's own
generators, so a change to the program cannot change what is measured.

Solve cost per input is heavy-tailed (most games solve in 0.05-0.5 s, a
few percent take 5-70 s), so a 20-60 s run cannot hold enough freshly
drawn games for its figures to repeat from seed to seed.  The two solver
workloads therefore serve a fixed corpus drawn once from ``corpus_seed``
with no filtering by solve time, in an order drawn from ``seed``; the
oracle scans cost the same for every draw of their payoffs, so
``oracle-scan`` draws its inputs from ``seed`` itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from twoteam import cli, game_core, instances, membership_solver, oracle, reductions

# Stream ids, so that each workload draws from its own generator.
_STREAM = {"reduced-quadratic": 1, "random-teams": 2, "oracle-scan": 3, "warmup": 4}

# Tolerance for float results recomputed by a different code path, and for
# comparing oracle-scan results with bench/reference.json.
FLOAT_TOL = 1e-9

# reduced-quadratic: n = 1 box-QPs at the largest epsilon stage 1 accepts.
# n = 2 solves take 7-32 s for about 45% of draws, more than a run can hold.
QP_N = 1
QP_EPSILON = 1.0 / 13.0

# random-teams: the acceptance shapes (n_x, n_y, m), drawn in turn, solved
# at the acceptance epsilon.
TEAM_SHAPES = [(1, 1, 2), (2, 1, 2), (2, 2, 2), (3, 2, 2), (3, 3, 2),
               (1, 2, 3), (2, 2, 3), (1, 3, 3), (2, 3, 3), (3, 1, 2)]
TEAM_EPSILON = 1e-4


class RequestFailed(Exception):
    """A request exited non-zero, did not converge or failed its check."""


@dataclass
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    scan: str = ""          # oracle function the request exercises
    points: int = 0         # grid points it evaluates (computed from shapes)
    summary: Callable[[object], dict] | None = None


@dataclass
class Workload:
    requests: list
    digest: str
    warmup: list = field(default_factory=list)


def close(a: float, b: float) -> bool:
    """Equal within FLOAT_TOL, relative to the reference ``b`` when |b| > 1."""
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


class _Digest:
    """sha256 over the generated arrays, in the order they were drawn."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *arrays) -> None:
        for arr in arrays:
            a = np.ascontiguousarray(arr, dtype=np.float64)
            self._h.update(repr(a.shape).encode())
            self._h.update(a.tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Input generators (uniform coefficients in [-1, 1], as in the test suite).


def _quadratic(rng, n: int, epsilon: float, digest: _Digest) -> instances.QuadraticInstance:
    constant = rng.uniform(-1.0, 1.0)
    linear = rng.uniform(-1.0, 1.0, n)
    cross = rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(cross, 0.0)
    square = rng.uniform(-1.0, 1.0, n)
    digest.add([constant], linear, cross, square)
    return instances.QuadraticInstance(
        n=n, constant=constant, linear=linear, cross=cross, square=square, epsilon=epsilon
    )


def _minmax(rng, n_x: int, n_y: int, epsilon: float, digest: _Digest) -> instances.MinmaxIndInstance:
    alpha = rng.uniform(-1.0, 1.0)
    beta = rng.uniform(-1.0, 1.0, n_x)
    gamma = rng.uniform(-1.0, 1.0, (n_x, n_x))
    np.fill_diagonal(gamma, 0.0)
    zeta = rng.uniform(-1.0, 1.0, n_y)
    theta = rng.uniform(-1.0, 1.0, (n_x, n_y))
    digest.add([alpha], beta, gamma, zeta, theta)
    return instances.MinmaxIndInstance(
        n_x=n_x, n_y=n_y, alpha=alpha, beta=beta, gamma=gamma,
        zeta=zeta, theta=theta, epsilon=epsilon,
    )


def _two_team(rng, n_x: int, n_y: int, m: int, digest: _Digest):
    """Coordination games inside team X, zero-sum across, no Y-Y edges."""
    game = game_core.PolymatrixGame([m] * (n_x + n_y))
    xs = list(range(n_x))
    ys = list(range(n_x, n_x + n_y))
    for a in range(n_x):
        for b in range(a + 1, n_x):
            mat = rng.uniform(-1.0, 1.0, (m, m))
            digest.add(mat)
            game.add_edge(xs[a], xs[b], mat, mat.T)
    for i in xs:
        for j in ys:
            mat = rng.uniform(-1.0, 1.0, (m, m))
            digest.add(mat)
            game.add_edge(i, j, mat, -mat.T)
    structure = game_core.TwoTeamStructure(tuple(xs), tuple(ys), independent_adversaries=True)
    return game, structure


def _quadratic_dict(inst: instances.QuadraticInstance) -> dict:
    """The instance file format, written without the program's serializer."""
    return {
        "kind": "quadratic",
        "n_x": inst.n,
        "n_y": 0,
        "constant": inst.constant,
        "linear": inst.linear.tolist(),
        "cross": [
            [int(r), int(c), float(inst.cross[r, c])] for r, c in zip(*np.nonzero(inst.cross))
        ],
        "square": inst.square.tolist(),
        "epsilon": inst.epsilon,
    }


def simplex_grid(m: int, k: int) -> np.ndarray:
    """Points of the m-simplex with coordinates in multiples of 1/k, in the
    lexicographic order of their integer compositions."""

    def comps(parts, total):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in comps(parts - 1, total - first):
                yield (first,) + rest

    return np.array(list(comps(m, k)), dtype=float) / k


def _grid_profile(game, grids, digits) -> game_core.StrategyProfile:
    return game_core.StrategyProfile([grids[i][int(d)] for i, d in enumerate(digits)])


# ---------------------------------------------------------------------------
# reduced-quadratic: instance file -> reduce --stage full -> solve -> verify
# --kind nash, all through cli.main, then the pullback to the quadratic.


def _pipeline(workdir: str, label: str):
    q_path = os.path.join(workdir, f"q{label}.json")
    g_path = os.path.join(workdir, f"g{label}.json")
    p_path = os.path.join(workdir, f"p{label}.json")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(["reduce", "--stage", "full", "--in", q_path, "--out", g_path])
        if code != 0:
            raise RequestFailed(f"reduce exited {code}")
        with open(g_path + ".params.json", encoding="utf-8") as fh:
            params = json.load(fh)
        delta = repr(params["delta"])
        code = cli.main(["solve", "--game", g_path, "--epsilon", delta, "--out", p_path])
        if code != 0:
            raise RequestFailed(f"solve exited {code}")
        code = cli.main(
            ["verify", "--kind", "nash", "--game", g_path, "--profile", p_path, "--epsilon", delta]
        )
        if code != 0:
            raise RequestFailed(f"verify exited {code}")
    with open(p_path, encoding="utf-8") as fh:
        profile = game_core.profile_from_dict(json.load(fh))
    full = reductions.FullReductionParams(
        n=params["n"],
        epsilon=params["epsilon"],
        stage1=reductions.StageOneParams(**params["stage1"]),
        stage2=reductions.StageTwoParams(**params["stage2"]),
        minmax_epsilon=params["minmax_epsilon"],
    )
    return reductions.pullback_full(profile, full)


def _check_pullback(inst: instances.QuadraticInstance):
    def check(point) -> None:
        report = instances.verify_min_kkt(inst, point, inst.epsilon)
        if not report.passed:
            raise RequestFailed(
                f"pullback fails verify_min_kkt: max violation {report.max_violation:.3e}"
            )

    return check


def _quadratic_requests(rng, count: int, workdir: str, prefix: str, digest: _Digest):
    out = []
    for i in range(count):
        inst = _quadratic(rng, QP_N, QP_EPSILON, digest)
        label = f"{prefix}{i}"
        with open(os.path.join(workdir, f"q{label}.json"), "w", encoding="utf-8") as fh:
            json.dump(_quadratic_dict(inst), fh)
        out.append(Request(label, lambda label=label: _pipeline(workdir, label), _check_pullback(inst)))
    return out


def build_reduced_quadratic(cfg: dict, seed: int, corpus_seed: int, workdir: str) -> Workload:
    digest = _Digest()
    rng = np.random.default_rng([corpus_seed, _STREAM["reduced-quadratic"]])
    corpus = _quadratic_requests(rng, cfg["corpus_size"], workdir, "", digest)
    warm_rng = np.random.default_rng([corpus_seed, _STREAM["warmup"]])
    warmup = _quadratic_requests(warm_rng, 1, workdir, "w", _Digest())
    order = np.random.default_rng(seed).permutation(len(corpus))
    digest.add(order)
    return Workload([corpus[k] for k in order], digest.hexdigest(), warmup)


# ---------------------------------------------------------------------------
# random-teams: membership_solver.solve in-process, re-verified by
# game_core.verify_epsilon_nash.


def _solve_request(label: str, game, structure, epsilon: float) -> Request:
    def run():
        profile, report = membership_solver.solve(game, structure, epsilon=epsilon, seed=0)
        if not report.passed:
            raise RequestFailed(f"solve did not converge: max regret {report.max_regret:.3e}")
        return profile

    def check(profile) -> None:
        report = game_core.verify_epsilon_nash(game, profile, epsilon)
        if not report.passed:
            raise RequestFailed(f"profile is not an {epsilon}-Nash: regret {report.max_regret:.3e}")

    return Request(label, run, check)


def build_random_teams(cfg: dict, seed: int, corpus_seed: int, workdir: str) -> Workload:
    digest = _Digest()
    rng = np.random.default_rng([corpus_seed, _STREAM["random-teams"]])
    corpus = []
    for i in range(cfg["corpus_size"]):
        n_x, n_y, m = TEAM_SHAPES[i % len(TEAM_SHAPES)]
        game, structure = _two_team(rng, n_x, n_y, m, digest)
        corpus.append(_solve_request(f"g{i}-{n_x}x{n_y}m{m}", game, structure, TEAM_EPSILON))
    warm_rng = np.random.default_rng([corpus_seed, _STREAM["warmup"]])
    game, structure = _two_team(warm_rng, 1, 1, 2, _Digest())
    warmup = [_solve_request("warmup", game, structure, TEAM_EPSILON)]
    order = np.random.default_rng(seed).permutation(len(corpus))
    digest.add(order)
    return Workload([corpus[k] for k in order], digest.hexdigest(), warmup)


# ---------------------------------------------------------------------------
# oracle-scan: a fixed mix of brute-force scans; sizes are fixed, payoffs
# and coefficients come from the seed.

_SAMPLE = 8  # hits and lattice points re-verified per scan
_SMALL_GRID = 4  # grid of the exhaustive minimax check
_STAGE1_EPS = 0.75  # stage-1 scan epsilon, in units of T / grid


def _regret_scan(label, game, k: int, delta: float, points: int) -> Request:
    grids = [simplex_grid(m, k) for m in game.strategy_counts]

    def run():
        best, best_digits, hits, sample = np.inf, None, 0, []
        for digits, regrets in oracle.iter_profile_regrets(game, k, budget=points):
            j = int(np.argmin(regrets))
            if regrets[j] < best:
                best, best_digits = float(regrets[j]), digits[j].copy()
            mask = regrets <= delta
            count = int(np.count_nonzero(mask))
            if count:
                hits += count
                sample.extend(digits[mask][: _SAMPLE - len(sample)])
        return {"min_regret": best, "argmin": best_digits, "hits": hits, "sample": sample}

    def check(out) -> None:
        report = game_core.verify_epsilon_nash(game, _grid_profile(game, grids, out["argmin"]), 0.0)
        if not close(report.max_regret, out["min_regret"]):
            raise RequestFailed(
                f"regret at the argmin is {report.max_regret!r}, scan said {out['min_regret']!r}"
            )
        for digits in out["sample"]:
            regret = game_core.verify_epsilon_nash(game, _grid_profile(game, grids, digits), 0.0)
            if regret.max_regret > delta + FLOAT_TOL:
                raise RequestFailed(f"hit {digits.tolist()} has regret {regret.max_regret!r} > {delta!r}")

    def summary(out) -> dict:
        return {"min_regret": out["min_regret"], "hits": out["hits"]}

    return Request(label, run, check, "iter_profile_regrets", points, summary)


def _pure_profiles(counts):
    """Every pure profile of players with the given action counts."""
    for actions in itertools.product(*(range(m) for m in counts)):
        yield [np.eye(m)[a] for m, a in zip(counts, actions)]


def _minimax_scan(label, game, structure, k: int, rng, points: int) -> Request:
    xs, ys = list(structure.team_x), list(structure.team_y)
    counts = game.strategy_counts
    grids = [simplex_grid(counts[i], k) for i in xs]
    probes = [[int(rng.integers(len(g))) for g in grids] for _ in range(_SAMPLE)]
    # A grid dividing k, so that its lattice is part of the scanned one.
    small = math.gcd(k, _SMALL_GRID)
    small_grids = [simplex_grid(counts[i], small) for i in xs]
    bounds = {}

    def value_at(grids, digits) -> float:
        """U(x, y) with every adversary best-responding to the gridded x."""
        strategies = [None] * game.num_players
        for t, d in enumerate(digits):
            strategies[xs[t]] = grids[t][d]
        for j in ys:
            strategies[j] = np.full(counts[j], 1.0 / counts[j])
        base = game_core.StrategyProfile(strategies)
        for j in ys:
            strategies[j] = np.eye(counts[j])[game_core.best_response(game, j, base)[0]]
        return game_core.common_utility(game, structure, game_core.StrategyProfile(strategies))

    def lower_bound() -> float:
        """max over pure y of min over pure x of U(x, y).  For a fixed y, U is
        linear in each x-player's strategy, so its minimum over all x is at a
        pure x; no x on the grid can do better against its best response."""
        best = -np.inf
        for y in _pure_profiles([counts[j] for j in ys]):
            worst = np.inf
            for x in _pure_profiles([counts[i] for i in xs]):
                strategies = [None] * game.num_players
                for i, s in zip(xs + ys, x + y):
                    strategies[i] = s
                worst = min(worst, game_core.common_utility(
                    game, structure, game_core.StrategyProfile(strategies)))
            best = max(best, worst)
        return best

    def run():
        return oracle.grid_minimax_value(game, structure, k, budget=points)

    def check(value) -> None:
        if not bounds:  # the same for every pass
            lattice = itertools.product(*(range(len(g)) for g in small_grids))
            bounds["small"] = min(value_at(small_grids, d) for d in lattice)
            bounds["small_scan"] = oracle.grid_minimax_value(game, structure, small)
            bounds["probes"] = min(value_at(grids, d) for d in probes)
            bounds["lower"] = lower_bound()
        if not close(bounds["small_scan"], bounds["small"]):
            raise RequestFailed(f"grid {small} minimax {bounds['small_scan']!r}, "
                                f"brute force over its lattice {bounds['small']!r}")
        ceiling = min(bounds["small"], bounds["probes"])
        if value > ceiling + FLOAT_TOL * max(1.0, abs(ceiling)):
            raise RequestFailed(f"grid minimax {value!r} exceeds a gridded profile's value {ceiling!r}")
        floor = bounds["lower"]
        if value < floor - FLOAT_TOL * max(1.0, abs(floor)):
            raise RequestFailed(f"grid minimax {value!r} is below the pure-strategy bound {floor!r}")

    return Request(label, run, check, "grid_minimax_value", points, lambda v: {"value": v})


def _lattice_digest(points: np.ndarray, k: int) -> str:
    ints = np.rint(np.asarray(points) * k).astype(np.int64)
    return hashlib.sha256(ints.tobytes()).hexdigest()[:16]


def _kkt_scan(label, inst: instances.MinmaxIndInstance, k: int, epsilon: float, rng, points: int) -> Request:
    dims = inst.n_x + inst.n_y
    probes = rng.integers(0, k + 1, size=(_SAMPLE, dims))

    def passes(digits) -> bool:
        p = np.asarray(digits, dtype=float) / k
        point = instances.MinmaxPoint(instances.BoxPoint(p[: inst.n_x]), instances.BoxPoint(p[inst.n_x :]))
        return instances.verify_minmax_kkt(inst, point, epsilon).passed

    def run():
        return oracle.grid_kkt_points(inst, k, epsilon, budget=points)

    def check(hits) -> None:
        hit_set = {tuple(row) for row in np.rint(hits * k).astype(np.int64).tolist()}
        for digits in list(hit_set)[:_SAMPLE]:
            if not passes(digits):
                raise RequestFailed(f"lattice hit {digits} fails verify_minmax_kkt")
        for digits in probes.tolist():
            if passes(digits) != (tuple(digits) in hit_set):
                raise RequestFailed(f"lattice point {digits} misclassified by the scan")

    def summary(hits) -> dict:
        return {"count": int(len(hits)), "digest": _lattice_digest(hits, k)}

    return Request(label, run, check, "grid_kkt_points", points, summary)


def _stage1_scan(label, q_inst: instances.QuadraticInstance, k: int, rng, points: int) -> Request:
    m_inst, params = reductions.reduce_stage1(q_inst)
    n = q_inst.n
    # The gradients scale with T = 10 Z, so at the stage's own delta_out no
    # lattice cell passes; a lattice step's worth of T leaves some that do.
    # Where x = 0 the x'-gradient T (y - 1/2) is a multiple of T / 2k, so
    # 0.75 keeps epsilon off it: at a cell exactly on the boundary the scan
    # and the verifier may round either way.
    epsilon = _STAGE1_EPS * params.T / k
    small = 10 if n == 1 else 3  # lattice checked cell by cell
    probes = rng.integers(0, k + 1, size=(_SAMPLE, 3 * n))
    expected = {}

    def passes(digits, grid: int, eps: float) -> bool:
        p = np.asarray(digits, dtype=float) / grid
        point = instances.MinmaxPoint(instances.BoxPoint(p[: 2 * n]), instances.BoxPoint(p[2 * n :]))
        return instances.verify_minmax_kkt(m_inst, point, eps).passed

    def cells(projected, grid: int) -> set:
        return {tuple(row) for row in np.rint(projected * grid).astype(np.int64).tolist()}

    def run():
        return oracle.stage1_kkt_grid_scan(m_inst, k, epsilon)

    def check(out) -> None:
        projected, total = out
        if total < len(projected):
            raise RequestFailed(f"{total} KKT points cannot project to {len(projected)}")
        hits = cells(projected, k)
        for digits in probes.tolist():
            if passes(digits, k, epsilon) and tuple(digits[:n]) not in hits:
                raise RequestFailed(f"KKT cell {digits} is missing from the projection")
        if not expected:  # the same for every pass
            eps = _STAGE1_EPS * params.T / small
            brute, total_small = set(), 0
            for digits in itertools.product(range(small + 1), repeat=3 * n):
                if passes(digits, small, eps):
                    brute.add(digits[:n])
                    total_small += 1
            scan_projected, scan_total = oracle.stage1_kkt_grid_scan(m_inst, small, eps)
            expected["ok"] = cells(scan_projected, small) == brute and scan_total == total_small
            expected["msg"] = (f"grid {small}: scan finds {scan_total} KKT cells over "
                               f"{len(scan_projected)} x-blocks, verify_minmax_kkt "
                               f"{total_small} over {len(brute)}")
        if not expected["ok"]:
            raise RequestFailed(expected["msg"])

    def summary(out) -> dict:
        projected, total = out
        return {"projected": int(len(projected)), "total": int(total), "digest": _lattice_digest(projected, k)}

    return Request(label, run, check, "stage1_kkt_grid_scan", points, summary)


def oracle_requests(mix: list, seed: int) -> tuple[list, str]:
    """One request per mix entry, with inputs drawn from ``seed``."""
    digest = _Digest()
    rng = np.random.default_rng([seed, _STREAM["oracle-scan"]])
    out = []
    for spec in mix:
        kind, k = spec["scan"], spec["grid"]
        label = f"{kind}-g{k}"
        if kind == "regrets-stage2":
            n = spec["n"]
            game, _, params = reductions.reduce_stage2(_minmax(rng, n, n, 1.0, digest))
            points = (k + 1) ** game.num_players
            out.append(_regret_scan(label, game, k, params.delta_out, points))
        elif kind == "regrets-m3":
            n_x, n_y, m = spec["shape"]
            game, _ = _two_team(rng, n_x, n_y, m, digest)
            points = math.comb(k + m - 1, m - 1) ** game.num_players
            # Random games have no stage-2 delta; count profiles within 0.05.
            out.append(_regret_scan(label, game, k, 0.05, points))
        elif kind == "minimax-m3":
            n_x, n_y, m = spec["shape"]
            game, structure = _two_team(rng, n_x, n_y, m, digest)
            points = math.comb(k + m - 1, m - 1) ** n_x
            out.append(_minimax_scan(label, game, structure, k, rng, points))
        elif kind == "kkt-lattice":
            inst = _minmax(rng, spec["n_x"], spec["n_y"], spec["epsilon"], digest)
            points = (k + 1) ** (spec["n_x"] + spec["n_y"])
            out.append(_kkt_scan(label, inst, k, spec["epsilon"], rng, points))
        elif kind == "stage1-kkt":
            n = spec["n"]
            q_inst = _quadratic(rng, n, QP_EPSILON, digest)
            # (x_i, x'_i, y_i) cells evaluated per index i, for every value
            # of the coupling sum s (one value when n = 1).
            points = n * (k + 1) ** 3 * (1 if n == 1 else k + 1)
            out.append(_stage1_scan(label, q_inst, k, rng, points))
        else:
            raise ValueError(f"unknown scan {kind!r}")
    return out, digest.hexdigest()


def build_oracle_scan(cfg: dict, seed: int, corpus_seed: int, workdir: str) -> Workload:
    requests, digest = oracle_requests(cfg["mix"], seed)
    warm_mix = [dict(spec, grid=min(spec["grid"], 4)) for spec in cfg["mix"]]
    warmup, _ = oracle_requests(warm_mix, corpus_seed)
    return Workload(requests, digest, warmup)


WORKLOADS = {
    "reduced-quadratic": build_reduced_quadratic,
    "random-teams": build_random_teams,
    "oracle-scan": build_oracle_scan,
}
