import functools
import json
import operator
import os
import subprocess
import sys
import time

import pytest

import twoteam
from twoteam import cli, membership_solver
from twoteam.game_core import game_from_dict, profile_from_dict, validate_two_team
from twoteam.instances import instance_from_dict
from twoteam.reductions import StageTwoParams, pullback_stage2


def run(*argv):
    return cli.main(list(argv))


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_gen_quadratic_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("gen", "--kind", "quadratic", "--n", "3", "--seed", "7", "--out", str(a)) == 0
    assert run("gen", "--kind", "quadratic", "--n", "3", "--seed", "7", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    inst = instance_from_dict(read(a))
    assert inst.n == 3


def test_gen_two_team_validates(tmp_path):
    out = tmp_path / "g.json"
    assert run("gen", "--kind", "two-team", "--nx", "2", "--ny", "2", "--m", "2",
               "--independent", "--seed", "3", "--out", str(out)) == 0
    game, structure = game_from_dict(read(out))
    assert structure.independent_adversaries
    assert validate_two_team(game, structure).passed


def test_gen_minmax_structural_independence(tmp_path):
    out = tmp_path / "m.json"
    assert run("gen", "--kind", "minmax", "--n", "2", "--seed", "1", "--out", str(out)) == 0
    data = read(out)
    assert data["kind"] == "minmax_ind"
    inst = instance_from_dict(data)
    assert inst.n_x == inst.n_y == 2


def test_reduce_stage1_sidecar_constants(tmp_path):
    q = tmp_path / "q.json"
    m = tmp_path / "m.json"
    run("gen", "--kind", "quadratic", "--n", "1", "--seed", "0", "--out", str(q))
    assert run("reduce", "--stage", "1", "--in", str(q), "--out", str(m)) == 0
    params = read(str(m) + ".params.json")
    assert params["stage"] == 1
    assert params["T"] == pytest.approx(10 * params["Z"])
    assert params["eta"] == pytest.approx(2 * (1 / 13) ** 2 / params["Z"])
    inst = instance_from_dict(read(m))
    assert inst.n_x == 2 * 1 and inst.n_y == 1


def test_reduce_stage2_sidecar_rebuilds_params_and_pulls_back(tmp_path):
    # An unequal instance through the CLI: the sidecar rebuilds the stage-2
    # params, and the solved profile pulls back to a KKT point of m.json.
    m, g, prof, pt = (tmp_path / name for name in ("m.json", "g.json", "prof.json", "pt.json"))
    assert run("gen", "--kind", "minmax", "--nx", "3", "--ny", "1", "--seed", "1",
               "--out", str(m)) == 0
    assert run("reduce", "--stage", "2", "--in", str(m), "--out", str(g)) == 0
    sidecar = read(str(g) + ".params.json")
    assert sidecar.pop("stage") == 2
    params = StageTwoParams(**sidecar)
    assert (params.n_x, params.n_y) == (3, 1)
    assert game_from_dict(read(g))[0].num_players == 4
    delta = repr(params.delta_out)
    assert run("solve", "--game", str(g), "--epsilon", delta, "--out", str(prof)) == 0
    assert run("verify", "--kind", "nash", "--game", str(g), "--profile", str(prof),
               "--epsilon", delta) == 0
    point = pullback_stage2(profile_from_dict(read(prof)), params)
    pt.write_text(json.dumps({"x": point.x.values.tolist(), "y": point.y.values.tolist()}))
    epsilon = repr(instance_from_dict(read(m)).epsilon)
    assert run("verify", "--kind", "minmax-kkt", "--instance", str(m), "--point", str(pt),
               "--epsilon", epsilon) == 0


def test_reduce_full_sidecar_rebuilds_stage2_params(tmp_path):
    q = tmp_path / "q.json"
    g = tmp_path / "g.json"
    run("gen", "--kind", "quadratic", "--n", "2", "--seed", "3", "--out", str(q))
    assert run("reduce", "--stage", "full", "--in", str(q), "--out", str(g)) == 0
    params = StageTwoParams(**read(str(g) + ".params.json")["stage2"])
    assert (params.n_x, params.n_y) == (4, 2)
    assert game_from_dict(read(g))[0].num_players == 6


def test_reduce_kind_mismatch_is_usage_error(tmp_path):
    m = tmp_path / "m.json"
    run("gen", "--kind", "minmax", "--n", "1", "--seed", "1", "--out", str(m))
    bad = run("reduce", "--stage", "1", "--in", str(m), "--out", str(tmp_path / "x.json"))
    assert bad == cli.EXIT_USAGE


def test_reduce_epsilon_out_of_range(tmp_path):
    q = tmp_path / "q.json"
    run("gen", "--kind", "quadratic", "--n", "1", "--epsilon", "0.5", "--seed", "0",
        "--out", str(q))
    assert run("reduce", "--stage", "1", "--in", str(q),
               "--out", str(tmp_path / "m.json")) == cli.EXIT_USAGE


def test_solve_and_verify_round_trip(tmp_path):
    g = tmp_path / "g.json"
    prof = tmp_path / "p.json"
    run("gen", "--kind", "two-team", "--nx", "2", "--ny", "2", "--m", "2",
        "--independent", "--seed", "5", "--out", str(g))
    assert run("solve", "--game", str(g), "--epsilon", "1e-5", "--seed", "1",
               "--out", str(prof)) == 0
    assert run("verify", "--kind", "nash", "--game", str(g), "--profile", str(prof),
               "--epsilon", "1e-5") == 0
    # An absurdly tight epsilon on a deliberately bad profile fails with 1.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"strategies": [[1, 0], [1, 0], [1, 0], [1, 0]]}))
    code = run("verify", "--kind", "nash", "--game", str(g), "--profile", str(bad),
               "--epsilon", "1e-9")
    assert code in (0, 1)


def test_solve_rejects_non_independent(tmp_path):
    g = tmp_path / "g.json"
    run("gen", "--kind", "two-team", "--nx", "1", "--ny", "2", "--m", "2",
        "--seed", "2", "--out", str(g))  # no --independent flag
    assert run("solve", "--game", str(g), "--epsilon", "1e-4") == cli.EXIT_USAGE


MALFORMED_TEAMS = {
    "teams without x": {"y": [1]},
    "teams as a list": [0, 1],
    "teams x not a list": {"x": 0, "y": [1]},
}
# (keys..., value) to set; each used to load, truncated or keeping the later
# duplicate.  Edges 3 and 4 are (1, 2) and (1, 3).
MALFORMED_GAMES = {
    "fractional strategy count": ("strategy_counts", 0, 2.7),
    "fractional edge index": ("edges", 0, "i", 0.9),
    "fractional team member": ("teams", "x", 1, 1.2),
    "repeated edge": ("edges", 3, "j", 3),
    "repeated team member": ("teams", "x", [0, 1, 1]),
}


@pytest.mark.parametrize("flaw", ["no independent flag", "coordination mismatch",
                                  "string payoff", "boolean payoff", "empty team x",
                                  *MALFORMED_TEAMS, *MALFORMED_GAMES])
def test_oracle_minimax_rejects_unsupported_games(tmp_path, capsys, flaw):
    g = tmp_path / "g.json"
    flags = [] if flaw == "no independent flag" else ["--independent"]
    run("gen", "--kind", "two-team", "--nx", "2", "--ny", "2", "--m", "2",
        "--seed", "2", "--out", str(g), *flags)
    data = read(g)
    if flaw == "empty team x":
        # No edges, and every player an adversary.
        data = {"strategy_counts": [2, 3], "edges": [],
                "teams": {"x": [], "y": [0, 1], "independent": True}}
    if flaw == "coordination mismatch":
        data["edges"][0]["a_ij"][0][0] += 1.0  # edge 0 joins two team-X players
    # Edge 3 joins the teams; each entry would read as a number that keeps
    # it zero-sum.
    if flaw == "string payoff":
        data["edges"][3]["a_ij"][0][0] = repr(data["edges"][3]["a_ij"][0][0])
    if flaw == "boolean payoff":
        data["edges"][3]["a_ij"][0][0], data["edges"][3]["a_ji"][0][0] = True, -1.0
    if flaw in MALFORMED_TEAMS:
        data["teams"] = MALFORMED_TEAMS[flaw]
    if flaw in MALFORMED_GAMES:
        *keys, last, value = MALFORMED_GAMES[flaw]
        functools.reduce(operator.getitem, keys, data)[last] = value
    g.write_text(json.dumps(data))
    # ``solve`` refuses the same games, with the same exit code.
    for argv in (("oracle", "--task", "minimax", "--game", str(g), "--grid", "4"),
                 ("solve", "--game", str(g), "--epsilon", "1e-4")):
        capsys.readouterr()
        assert run(*argv) == cli.EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), argv
        assert "Traceback" not in err, argv


# (keys..., value) to set in the n = 3 quadratic's file; each used to load,
# truncated, wrapped round or keeping the later duplicate, to escape as an
# IndexError, or to read a string or a bool as a number.  Its first two cross
# entries are (0, 1) and (0, 2).
MALFORMED_INSTANCES = {
    "fractional size": ("n", 3.5),
    "fractional column": ("cross", 0, [0, 1.7, 0.5]),
    "negative row": ("cross", 0, [-1, 0, 0.5]),
    "row out of range": ("cross", 0, [5, 0, 1.0]),
    "repeated entry": ("cross", 1, [0, 1, 0.7]),
    "string epsilon": ("epsilon", "0.5"),
    "boolean epsilon": ("epsilon", True),
    "string linear entry": ("linear", 1, "1e-1"),
    "string cross entry": ("cross", 0, [0, 1, "0.5"]),
    "boolean square entry": ("square", 2, False),
}


@pytest.mark.parametrize("flaw", MALFORMED_INSTANCES)
def test_malformed_instance_file_is_usage_error(tmp_path, capsys, flaw):
    q, point = tmp_path / "q.json", tmp_path / "pt.json"
    run("gen", "--kind", "quadratic", "--n", "3", "--seed", "2", "--out", str(q))
    data = read(q)
    *keys, last, value = MALFORMED_INSTANCES[flaw]
    functools.reduce(operator.getitem, keys, data)[last] = value
    q.write_text(json.dumps(data))
    point.write_text(json.dumps({"x": [0.5, 0.5, 0.5]}))
    for argv in (("oracle", "--task", "kkt-grid", "--instance", str(q)),
                 ("reduce", "--stage", "full", "--in", str(q), "--out", str(tmp_path / "g.json")),
                 ("verify", "--kind", "min-kkt", "--instance", str(q), "--point", str(point),
                  "--epsilon", "0.1")):
        capsys.readouterr()
        assert run(*argv) == cli.EXIT_USAGE, argv
        assert capsys.readouterr().err.startswith("error: malformed instance data: "), argv


@pytest.mark.parametrize("flag", ["false", "no", 0, None])
def test_independent_flag_must_be_a_json_boolean(tmp_path, capsys, flag):
    # The game has adversary-adversary edges; a string "false" used to read
    # as independent and fail later with a validation message instead.
    g = tmp_path / "g.json"
    run("gen", "--kind", "two-team", "--nx", "2", "--ny", "2", "--m", "2",
        "--seed", "2", "--out", str(g))
    data = read(g)
    data["teams"]["independent"] = flag
    g.write_text(json.dumps(data))
    for argv in (("solve", "--game", str(g), "--epsilon", "1e-4"),
                 ("oracle", "--task", "minimax", "--game", str(g), "--grid", "4")):
        capsys.readouterr()
        assert run(*argv) == cli.EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "teams.independent" in err, (argv, err)


def test_write_json_bytes_match_json_dump(tmp_path):
    # One write of the whole text; the bytes are those json.dump writes.
    payload = {"b": [1.5, -0.0, 1e-300], "a": {"z": [[0.1, 2.0]], "y": True, "x": None}, "c": "é"}
    got = tmp_path / "got.json"
    cli._write_json(str(got), payload)
    want = tmp_path / "want.json"
    with open(want, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    assert got.read_bytes() == want.read_bytes()
    q = tmp_path / "q.json"
    run("gen", "--kind", "quadratic", "--n", "2", "--seed", "7", "--out", str(q))
    run("reduce", "--stage", "full", "--in", str(q), "--out", str(tmp_path / "game.json"))
    for path in (q, tmp_path / "game.json", tmp_path / "game.json.params.json"):
        with open(want, "w", encoding="utf-8") as fh:
            json.dump(read(path), fh, sort_keys=True, indent=2)
            fh.write("\n")
        assert path.read_bytes() == want.read_bytes(), path


def test_solve_non_convergence_exits_3(tmp_path, capsys, monkeypatch):
    g = tmp_path / "g.json"
    run("gen", "--kind", "two-team", "--nx", "2", "--ny", "2", "--m", "2",
        "--independent", "--seed", "5", "--out", str(g))
    # One pivot per path: no complementary path can end.
    monkeypatch.setattr(membership_solver, "MAX_ITER", 1)
    capsys.readouterr()
    assert run("solve", "--game", str(g), "--epsilon", "1e-5") == cli.EXIT_NOCONV
    err = capsys.readouterr().err
    assert "find_kkt_point" in err
    assert "Traceback" not in err


def test_verify_min_kkt_through_files(tmp_path):
    inst = tmp_path / "q.json"
    point = tmp_path / "pt.json"
    inst.write_text(json.dumps({
        "kind": "quadratic", "n_x": 1, "n_y": 0, "constant": 4.0,
        "linear": [-4.0], "cross": [], "square": [1.0], "epsilon": 0.1,
    }))
    point.write_text(json.dumps({"x": [1.0]}))
    assert run("verify", "--kind", "min-kkt", "--instance", str(inst),
               "--point", str(point), "--epsilon", "0.0") == 0
    point.write_text(json.dumps({"x": [0.5]}))
    assert run("verify", "--kind", "min-kkt", "--instance", str(inst),
               "--point", str(point), "--epsilon", "0.1") == 1


def test_verify_minmax_kkt_through_files(tmp_path):
    inst = tmp_path / "m.json"
    point = tmp_path / "pt.json"
    inst.write_text(json.dumps({
        "kind": "minmax_ind", "n_x": 1, "n_y": 1, "alpha": 0.0, "beta": [0.0],
        "gamma": [], "zeta": [0.0], "theta": [[0, 0, 1.0]], "epsilon": 0.1,
    }))
    point.write_text(json.dumps({"x": [0.0], "y": [1.0]}))
    assert run("verify", "--kind", "minmax-kkt", "--instance", str(inst),
               "--point", str(point), "--epsilon", "0.0") == 0
    point.write_text(json.dumps({"x": [1.0], "y": [1.0]}))
    assert run("verify", "--kind", "minmax-kkt", "--instance", str(inst),
               "--point", str(point), "--epsilon", "0.5") == 1


def test_parse_error_exit_code(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run("solve", "--game", str(broken), "--epsilon", "1e-4") == cli.EXIT_USAGE
    missing = run("verify", "--kind", "nash", "--epsilon", "0.1")
    assert missing == cli.EXIT_USAGE


def test_oracle_commands(tmp_path):
    g = tmp_path / "g.json"
    run("gen", "--kind", "two-team", "--nx", "1", "--ny", "1", "--m", "2",
        "--independent", "--seed", "0", "--out", str(g))
    assert run("oracle", "--task", "min-regret", "--game", str(g), "--grid", "10") == 0
    assert run("oracle", "--task", "minimax", "--game", str(g), "--grid", "10") == 0
    m = tmp_path / "m.json"
    run("gen", "--kind", "minmax", "--n", "1", "--seed", "0", "--out", str(m))
    assert run("oracle", "--task", "kkt-grid", "--instance", str(m), "--grid", "10",
               "--epsilon", "0.5") == 0


def test_oracle_budget_guard_exits_before_enumerating(tmp_path, capsys):
    # At grid 10^5 a 3-action player's simplex grid has about 5 * 10^9
    # points; the default budget refuses the lattice from its size alone.
    g = tmp_path / "g.json"
    run("gen", "--kind", "two-team", "--nx", "1", "--ny", "1", "--m", "3",
        "--independent", "--seed", "0", "--out", str(g))
    for task in ("min-regret", "minimax"):
        start = time.perf_counter()
        assert run("oracle", "--task", task, "--game", str(g), "--grid", "100000") == cli.EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        assert "budget" in capsys.readouterr().err


def test_trace_file_rows(tmp_path):
    g = tmp_path / "g.json"
    trace = tmp_path / "trace.csv"
    run("gen", "--kind", "two-team", "--nx", "1", "--ny", "1", "--m", "2",
        "--independent", "--seed", "4", "--out", str(g))
    assert run("solve", "--game", str(g), "--epsilon", "1e-5", "--trace", str(trace)) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines
    for line in lines[:5]:
        it, obj, res = line.split(",")
        int(it)
        float(obj)
        float(res)


def test_trace_paths_end_with_z0_zero(tmp_path):
    g = tmp_path / "g.json"
    trace = tmp_path / "trace.csv"
    run("gen", "--kind", "two-team", "--nx", "2", "--ny", "2", "--m", "3",
        "--independent", "--seed", "4", "--out", str(g))
    assert run("solve", "--game", str(g), "--epsilon", "1e-6", "--trace", str(trace)) == 0
    rows = [line.split(",") for line in trace.read_text().strip().splitlines()]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    last = {}
    for pivot, z0, path in rows:
        last[int(path)] = float(z0)
    assert sorted(last) == list(range(12))
    assert all(z0 == 0.0 for z0 in last.values())


@pytest.mark.parametrize("argv", [
    ("solve", "--game", "{g}", "--epsilon", "0"),
    ("solve", "--game", "{g}", "--epsilon", "-1"),
    ("solve", "--game", "{g}", "--epsilon", "nan"),
    ("solve", "--game", "{g}", "--epsilon", "inf"),
    ("verify", "--kind", "nash", "--game", "{g}", "--profile", "{p}", "--epsilon", "-1"),
    ("verify", "--kind", "nash", "--game", "{g}", "--profile", "{p}", "--epsilon", "nan"),
    ("oracle", "--task", "minimax", "--game", "{g}", "--grid", "0"),
    ("oracle", "--task", "minimax", "--game", "{g}", "--grid", "-2"),
    ("oracle", "--task", "minimax", "--game", "{g}", "--budget", "0"),
    ("oracle", "--task", "kkt-grid", "--instance", "{g}", "--epsilon", "-1"),
    ("oracle", "--task", "kkt-grid", "--instance", "{g}", "--epsilon", "nan"),
    ("gen", "--kind", "quadratic", "--out", "{p}", "--n", "0"),
    ("gen", "--kind", "minmax", "--out", "{p}", "--nx", "0"),
    ("gen", "--kind", "minmax", "--out", "{p}", "--ny", "-1"),
    ("gen", "--kind", "two-team", "--out", "{p}", "--m", "0"),
    ("gen", "--kind", "quadratic", "--out", "{p}", "--epsilon", "-1"),
], ids=lambda argv: " ".join(a for a in argv if "{" not in a))
def test_out_of_range_arguments_are_usage_errors(tmp_path, capsys, argv):
    g = tmp_path / "g.json"
    p = tmp_path / "p.json"
    run("gen", "--kind", "two-team", "--nx", "1", "--ny", "1", "--m", "2",
        "--independent", "--seed", "0", "--out", str(g))
    p.write_text(json.dumps({"strategies": [[0.5, 0.5], [0.5, 0.5]]}))
    capsys.readouterr()
    assert run(*(a.format(g=g, p=p) for a in argv)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be" in err
    assert "Traceback" not in err


def test_module_entry_point_runs():
    # The child imports twoteam from where this process found it, so the
    # test also runs from a checkout that was never installed.
    package_root = os.path.dirname(os.path.dirname(twoteam.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "twoteam", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout


KKT_INSTANCES = {
    "min-kkt": {"kind": "quadratic", "n_x": 1, "n_y": 0, "constant": 0.0, "linear": [1.0],
                "cross": [], "square": [0.0], "epsilon": 0.1},
    "minmax-kkt": {"kind": "minmax_ind", "n_x": 1, "n_y": 1, "alpha": 0.0, "beta": [0.0],
                   "gamma": [], "zeta": [0.0], "theta": [], "epsilon": 0.1},
}


@pytest.mark.parametrize("kind, payload", [
    ("min-kkt", [1, 2]),
    ("minmax-kkt", "x"),
    ("min-kkt", {"x": {"a": 1}}),
    ("minmax-kkt", {"y": [1.0]}),
    ("min-kkt", {"x": ["0.5"]}),
    ("min-kkt", {"x": [True]}),
    ("minmax-kkt", {"x": [0.5], "y": ["1"]}),
    # Outside the box: clamping would verify another point.
    ("min-kkt", {"x": [1.7]}),
    ("minmax-kkt", {"x": [0.5], "y": [-0.25]}),
])
def test_malformed_point_file_is_usage_error(tmp_path, capsys, kind, payload):
    inst = tmp_path / "inst.json"
    point = tmp_path / "pt.json"
    inst.write_text(json.dumps(KKT_INSTANCES[kind]))
    point.write_text(json.dumps(payload))
    assert run("verify", "--kind", kind, "--instance", str(inst), "--point", str(point),
               "--epsilon", "0.1") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"bad point file: {point}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", ["0.5", True, None])
def test_profile_file_with_non_number_entries_is_usage_error(tmp_path, capsys, entry):
    g, p = tmp_path / "g.json", tmp_path / "p.json"
    run("gen", "--kind", "two-team", "--nx", "1", "--ny", "1", "--m", "2",
        "--independent", "--seed", "0", "--out", str(g))
    p.write_text(json.dumps({"strategies": [[entry, 0.5], [0.5, 0.5]]}))
    capsys.readouterr()
    assert run("verify", "--kind", "nash", "--game", str(g), "--profile", str(p),
               "--epsilon", "0.1") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: malformed profile data: ")
    assert "Traceback" not in err


def test_unwritable_output_paths_are_usage_errors(tmp_path, capsys):
    q = tmp_path / "q.json"
    g = tmp_path / "g.json"
    nowhere = str(tmp_path / "missing" / "out.json")
    # The stage-1 output itself is writable, but a directory sits where its
    # sidecar goes.
    m = tmp_path / "m.json"
    sidecar = str(m) + ".params.json"
    os.mkdir(sidecar)
    run("gen", "--kind", "quadratic", "--n", "1", "--seed", "0", "--out", str(q))
    run("gen", "--kind", "two-team", "--nx", "1", "--ny", "1", "--m", "2",
        "--independent", "--seed", "0", "--out", str(g))
    for argv, path in (
        (("gen", "--kind", "quadratic", "--out", nowhere), nowhere),
        (("reduce", "--stage", "full", "--in", str(q), "--out", nowhere), nowhere),
        (("reduce", "--stage", "1", "--in", str(q), "--out", str(m)), sidecar),
        (("solve", "--game", str(g), "--epsilon", "1e-6", "--out", nowhere), nowhere),
        (("solve", "--game", str(g), "--epsilon", "1e-6", "--trace", nowhere), nowhere),
    ):
        capsys.readouterr()
        assert run(*argv) == cli.EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert f"cannot write {path}" in err, argv
        assert "Traceback" not in err


def test_parser_is_built_once_and_survives_usage_errors(tmp_path, capsys):
    g = tmp_path / "g.json"
    run("gen", "--kind", "two-team", "--nx", "1", "--ny", "1", "--m", "2",
        "--independent", "--seed", "0", "--out", str(g))
    solve = ("solve", "--game", str(g), "--epsilon", "1e-6", "--seed", "2")
    cli.build_parser.cache_clear()
    capsys.readouterr()
    assert run(*solve) == cli.EXIT_PASS
    first = capsys.readouterr()
    for bad in (("solve", "--game", str(g), "--epsilon", "nan"),
                ("solve", "--game", str(g), "--epsilon", "1e-6", "--bogus"),
                ("verify", "--kind", "nash", "--epsilon", "0.1"),
                ("gen", "--kind", "cube", "--out", str(g))):
        assert run(*bad) == cli.EXIT_USAGE, bad
        capsys.readouterr()
        assert run(*solve) == cli.EXIT_PASS, bad
        assert capsys.readouterr() == first, bad
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 8)
