"""Command-line front door.

Subcommands: gen (random instances and games), reduce (the two-stage
transformation with a params sidecar), solve (the independent-adversary
Nash pipeline), verify (Nash / min-KKT / minmax-KKT checkers), and oracle
(brute-force grid searches).  Exit codes: 0 pass, 1 verification fail,
2 usage or parse error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import game_core, instances, membership_solver, oracle, reductions

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOCONV = 3


class UsageError(ValueError):
    pass


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load_instance(path: str):
    try:
        return instances.instance_from_dict(_read_json(path))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_game(path: str):
    try:
        return game_core.game_from_dict(_read_json(path))
    except (ValueError, game_core.StructuralError) as exc:
        raise UsageError(str(exc)) from exc


def _load_profile(path: str):
    try:
        return game_core.profile_from_dict(_read_json(path))
    except (ValueError, game_core.StructuralError) as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# gen


def _random_quadratic(n: int, epsilon: float, rng) -> instances.QuadraticInstance:
    cross = rng.uniform(-1.0, 1.0, size=(n, n))
    np.fill_diagonal(cross, 0.0)
    return instances.QuadraticInstance(
        n=n,
        constant=float(rng.uniform(-1.0, 1.0)),
        linear=rng.uniform(-1.0, 1.0, size=n),
        cross=cross,
        square=rng.uniform(-1.0, 1.0, size=n),
        epsilon=epsilon,
    )


def _random_minmax(n_x: int, n_y: int, epsilon: float, rng) -> instances.MinmaxIndInstance:
    gamma = rng.uniform(-1.0, 1.0, size=(n_x, n_x))
    np.fill_diagonal(gamma, 0.0)
    return instances.MinmaxIndInstance(
        n_x=n_x,
        n_y=n_y,
        alpha=float(rng.uniform(-1.0, 1.0)),
        beta=rng.uniform(-1.0, 1.0, size=n_x),
        gamma=gamma,
        zeta=rng.uniform(-1.0, 1.0, size=n_y),
        theta=rng.uniform(-1.0, 1.0, size=(n_x, n_y)),
        epsilon=epsilon,
    )


def _random_two_team(n_x: int, n_y: int, m: int, independent: bool, rng):
    game = game_core.PolymatrixGame([m] * (n_x + n_y))
    xs = list(range(n_x))
    ys = list(range(n_x, n_x + n_y))
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            mat = rng.uniform(-1.0, 1.0, size=(m, m))
            game.add_edge(xs[a], xs[b], mat, mat.T)
    for i in xs:
        for j in ys:
            mat = rng.uniform(-1.0, 1.0, size=(m, m))
            game.add_edge(i, j, mat, -mat.T)
    if not independent:
        for a in range(len(ys)):
            for b in range(a + 1, len(ys)):
                mat = rng.uniform(-1.0, 1.0, size=(m, m))
                game.add_edge(ys[a], ys[b], mat, mat.T)
    structure = game_core.TwoTeamStructure(
        team_x=tuple(xs), team_y=tuple(ys), independent_adversaries=independent
    )
    return game, structure


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "quadratic":
        inst = _random_quadratic(args.n, args.epsilon, rng)
        _write_json(args.out, instances.instance_to_dict(inst))
    elif args.kind == "minmax":
        n_x = args.nx if args.nx is not None else args.n
        n_y = args.ny if args.ny is not None else args.n
        inst = _random_minmax(n_x, n_y, args.epsilon, rng)
        _write_json(args.out, instances.instance_to_dict(inst))
    elif args.kind == "two-team":
        n_x = args.nx if args.nx is not None else args.n
        n_y = args.ny if args.ny is not None else args.n
        game, structure = _random_two_team(n_x, n_y, args.m, args.independent, rng)
        report = game_core.validate_two_team(game, structure)
        assert report.passed
        _write_json(args.out, game_core.game_to_dict(game, structure))
    else:
        raise UsageError(f"unknown kind {args.kind!r}")
    print(f"wrote {args.out}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args) -> int:
    inst = _load_instance(args.infile)
    params_path = args.params or (args.out + ".params.json")
    if args.stage == "1":
        if not isinstance(inst, instances.QuadraticInstance):
            raise UsageError("stage 1 expects a quadratic instance file")
        try:
            m_inst, p1 = reductions.reduce_stage1(inst)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        _write_json(args.out, instances.instance_to_dict(m_inst))
        _write_json(params_path, {"stage": 1, **asdict(p1)})
    elif args.stage == "2":
        if not isinstance(inst, instances.MinmaxIndInstance):
            raise UsageError("stage 2 expects a minmax instance file")
        game, structure, p2 = reductions.reduce_stage2(inst)
        _write_json(args.out, game_core.game_to_dict(game, structure))
        _write_json(params_path, {"stage": 2, **asdict(p2)})
    elif args.stage == "full":
        if not isinstance(inst, instances.QuadraticInstance):
            raise UsageError("full reduction expects a quadratic instance file")
        try:
            game, structure, params = reductions.reduce_full(inst)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        _write_json(args.out, game_core.game_to_dict(game, structure))
        _write_json(
            params_path,
            {
                "stage": "full",
                "n": params.n,
                "epsilon": params.epsilon,
                "minmax_epsilon": params.minmax_epsilon,
                "delta": params.delta,
                "stage1": asdict(params.stage1),
                "stage2": asdict(params.stage2),
            },
        )
    else:
        raise UsageError(f"unknown stage {args.stage!r}")
    print(f"wrote {args.out} and {params_path}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    game, structure = _load_game(args.game)
    if structure is None:
        raise UsageError("game file carries no teams block")
    if not structure.independent_adversaries:
        raise UsageError(
            "unsupported: adversary-adversary edges (no teams.independent flag); "
            "only independent adversaries are in scope"
        )
    try:
        profile, report = membership_solver.solve(
            game, structure, epsilon=args.epsilon, seed=args.seed, trace_path=args.trace
        )
    except membership_solver.SolverError as exc:
        raise UsageError(str(exc)) from exc
    if args.out:
        _write_json(args.out, game_core.profile_to_dict(profile))
    for i, r in enumerate(report.regrets):
        print(f"player {i}: regret {r:.3e}")
    print(
        f"max regret {report.max_regret:.3e} against epsilon {report.epsilon:.3e}: "
        f"{'PASS' if report.passed else 'FAIL'}"
    )
    return EXIT_PASS if report.passed else EXIT_NOCONV


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.kind == "nash":
        if not args.game or not args.profile:
            raise UsageError("verify nash needs --game and --profile")
        game, _ = _load_game(args.game)
        profile = _load_profile(args.profile)
        try:
            report = game_core.verify_epsilon_nash(game, profile, args.epsilon)
        except game_core.StructuralError as exc:
            raise UsageError(str(exc)) from exc
        for i, r in enumerate(report.regrets):
            print(f"player {i}: regret {r:.6e}")
        print(f"max regret {report.max_regret:.6e} vs epsilon {args.epsilon}")
        return EXIT_PASS if report.passed else EXIT_FAIL

    if not args.instance or not args.point:
        raise UsageError("verify kkt needs --instance and --point")
    inst = _load_instance(args.instance)
    data = _read_json(args.point)
    try:
        if args.kind == "min-kkt":
            if not isinstance(inst, instances.QuadraticInstance):
                raise UsageError("min-kkt expects a quadratic instance")
            report = instances.verify_min_kkt(
                inst, instances.BoxPoint(data["x"]), args.epsilon
            )
        elif args.kind == "minmax-kkt":
            if not isinstance(inst, instances.MinmaxIndInstance):
                raise UsageError("minmax-kkt expects a minmax instance")
            point = instances.MinmaxPoint(
                instances.BoxPoint(data["x"]), instances.BoxPoint(data.get("y", []))
            )
            report = instances.verify_minmax_kkt(inst, point, args.epsilon)
        else:
            raise UsageError(f"unknown verify kind {args.kind!r}")
    except (KeyError, ValueError) as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(f"bad point file: {exc}") from exc
    for idx, (res, tag) in enumerate(zip(report.residuals, report.classification)):
        print(f"coordinate {idx} [{tag}]: violation {res:+.6e}")
    print(f"max violation {report.max_violation:+.6e}")
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    if args.task == "min-regret":
        if not args.game:
            raise UsageError("oracle min-regret needs --game")
        game, _ = _load_game(args.game)
        profile, regret = oracle.grid_min_regret_profile(game, args.grid, budget=args.budget)
        print(json.dumps(game_core.profile_to_dict(profile)))
        print(f"max regret {regret:.6e}")
        return EXIT_PASS
    if args.task == "kkt-grid":
        if not args.instance:
            raise UsageError("oracle kkt-grid needs --instance")
        inst = _load_instance(args.instance)
        pts = oracle.grid_kkt_points(inst, args.grid, args.epsilon, budget=args.budget)
        print(f"{len(pts)} grid points pass at epsilon {args.epsilon}")
        for p in pts[:50]:
            print(" ".join(f"{v:.6g}" for v in p))
        if len(pts) > 50:
            print(f"... {len(pts) - 50} more")
        return EXIT_PASS
    if args.task == "minimax":
        if not args.game:
            raise UsageError("oracle minimax needs --game")
        game, structure = _load_game(args.game)
        if structure is None:
            raise UsageError("game file carries no teams block")
        value = oracle.grid_minimax_value(game, structure, args.grid, budget=args.budget)
        print(f"grid minimax value {value:.12g}")
        return EXIT_PASS
    raise UsageError(f"unknown oracle task {args.task!r}")


# ---------------------------------------------------------------------------


def positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def nonnegative_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoteam",
        description="Two-team zero-sum polymatrix game toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate random instances and games")
    p.add_argument("--kind", required=True, choices=["quadratic", "minmax", "two-team"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--independent", action="store_true")
    p.add_argument("--epsilon", type=float, default=1.0 / 13.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="run the instance transformations")
    p.add_argument("--stage", required=True, choices=["1", "2", "full"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--params", default=None, help="sidecar path (default: <out>.params.json)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("solve", help="solve an independent-adversary game")
    p.add_argument("--game", required=True)
    p.add_argument("--epsilon", type=positive_float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None, help="pivot log, CSV rows pivot,z0,path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution artifact")
    p.add_argument("--kind", required=True, choices=["nash", "min-kkt", "minmax-kkt"])
    p.add_argument("--game", default=None)
    p.add_argument("--profile", default=None)
    p.add_argument("--instance", default=None)
    p.add_argument("--point", default=None)
    p.add_argument("--epsilon", type=nonnegative_float, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force grid searches")
    p.add_argument("--task", required=True, choices=["min-regret", "kkt-grid", "minimax"])
    p.add_argument("--game", default=None)
    p.add_argument("--instance", default=None)
    p.add_argument("--grid", type=positive_int, default=20)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize.
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except oracle.GridBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
