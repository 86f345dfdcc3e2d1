"""Command-line front door.

Subcommands: gen (random instances and games), reduce (the two-stage
transformation with a params sidecar), solve (the independent-adversary
Nash pipeline), verify (Nash / min-KKT / minmax-KKT checkers), and oracle
(brute-force grid searches).  Exit codes: 0 pass, 1 verification fail,
2 usage or parse error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load(path: str, parse):
    """``parse`` applied to the JSON file at ``path``; a malformed file is a usage error."""
    data = _read_json(path)
    try:
        return parse(data)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "quadratic":
        inst = instances.random_quadratic(args.n, args.epsilon, rng)
        _write_json(args.out, instances.instance_to_dict(inst))
    elif args.kind == "minmax":
        n_x = args.nx if args.nx is not None else args.n
        n_y = args.ny if args.ny is not None else args.n
        inst = instances.random_minmax(n_x, n_y, args.epsilon, rng)
        _write_json(args.out, instances.instance_to_dict(inst))
    else:  # two-team
        n_x = args.nx if args.nx is not None else args.n
        n_y = args.ny if args.ny is not None else args.n
        game, structure = game_core.random_two_team(n_x, n_y, args.m, args.independent, rng)
        _write_json(args.out, game_core.game_to_dict(game, structure))
    print(f"wrote {args.out}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args) -> int:
    inst = _load(args.infile, instances.instance_from_dict)
    params_path = args.out + ".params.json"
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
    else:  # full
        if not isinstance(inst, instances.QuadraticInstance):
            raise UsageError("full reduction expects a quadratic instance file")
        try:
            game, structure, params = reductions.reduce_full(inst)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        _write_json(args.out, game_core.game_to_dict(game, structure))
        _write_json(params_path, {"stage": "full", **asdict(params), "delta": params.delta})
    print(f"wrote {args.out} and {params_path}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    game, structure = _load(args.game, game_core.game_from_dict)
    if structure is None:
        raise UsageError("game file carries no teams block")
    try:
        profile, report = membership_solver.solve(
            game, structure, epsilon=args.epsilon, seed=args.seed, trace_path=args.trace
        )
    except membership_solver.NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except membership_solver.SolverError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:
        raise UsageError(f"cannot write {args.trace}: {exc}") from exc
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


def _box_point(values) -> instances.BoxPoint:
    """A point file's coordinates, which must lie in [0, 1]: ``BoxPoint``
    would clamp them, and the verifier would judge another point."""
    point = instances.BoxPoint(values)
    if not np.array_equal(point.values, values):
        raise ValueError("coordinates must lie in [0, 1]")
    return point


def cmd_verify(args) -> int:
    if args.kind == "nash":
        if not args.game or not args.profile:
            raise UsageError("verify nash needs --game and --profile")
        game, _ = _load(args.game, game_core.game_from_dict)
        profile = _load(args.profile, game_core.profile_from_dict)
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
    inst = _load(args.instance, instances.instance_from_dict)
    if args.kind == "min-kkt" and not isinstance(inst, instances.QuadraticInstance):
        raise UsageError("min-kkt expects a quadratic instance")
    if args.kind == "minmax-kkt" and not isinstance(inst, instances.MinmaxIndInstance):
        raise UsageError("minmax-kkt expects a minmax instance")
    data = _read_json(args.point)
    try:
        if not isinstance(data, dict) or "x" not in data:
            raise ValueError('expected a JSON object with an "x" entry')
        if not game_core.is_json_numbers([data["x"], data.get("y", [])]):
            raise ValueError("coordinates must be JSON numbers")
        x = _box_point(data["x"])
        if args.kind == "min-kkt":
            report = instances.verify_min_kkt(inst, x, args.epsilon)
        else:
            point = instances.MinmaxPoint(x, _box_point(data.get("y", [])))
            report = instances.verify_minmax_kkt(inst, point, args.epsilon)
    except ValueError as exc:
        raise UsageError(f"bad point file: {args.point}: {exc}") from exc
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
        game, _ = _load(args.game, game_core.game_from_dict)
        profile, regret = oracle.grid_min_regret_profile(game, args.grid, budget=args.budget)
        print(json.dumps(game_core.profile_to_dict(profile)))
        print(f"max regret {regret:.6e}")
        return EXIT_PASS
    if args.task == "kkt-grid":
        if not args.instance:
            raise UsageError("oracle kkt-grid needs --instance")
        inst = _load(args.instance, instances.instance_from_dict)
        pts = oracle.grid_kkt_points(inst, args.grid, args.epsilon, budget=args.budget)
        print(f"{len(pts)} grid points pass at epsilon {args.epsilon}")
        for p in pts[:50]:
            print(" ".join(f"{v:.6g}" for v in p))
        if len(pts) > 50:
            print(f"... {len(pts) - 50} more")
        return EXIT_PASS
    # minimax
    if not args.game:
        raise UsageError("oracle minimax needs --game")
    game, structure = _load(args.game, game_core.game_from_dict)
    if structure is None:
        raise UsageError("game file carries no teams block")
    try:
        value = oracle.grid_minimax_value(game, structure, args.grid, budget=args.budget)
    except ValueError as exc:  # dependent adversaries or failed validation
        raise UsageError(str(exc)) from exc
    print(f"grid minimax value {value:.12g}")
    return EXIT_PASS


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="twoteam",
        description="Two-team zero-sum polymatrix game toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate random instances and games")
    p.add_argument("--kind", required=True, choices=["quadratic", "minmax", "two-team"])
    p.add_argument("--n", type=positive_int, default=2)
    p.add_argument("--nx", type=positive_int, default=None)
    p.add_argument("--ny", type=positive_int, default=None)
    p.add_argument("--m", type=positive_int, default=2)
    p.add_argument("--independent", action="store_true")
    p.add_argument("--epsilon", type=positive_float, default=1.0 / 13.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="run the instance transformations")
    p.add_argument("--stage", required=True, choices=["1", "2", "full"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True,
                   help="output file; its parameters always go to <out>.params.json")
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
    p.add_argument("--epsilon", type=nonnegative_float, default=0.01)
    p.add_argument("--budget", type=positive_int, default=None)
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
