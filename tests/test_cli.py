import json
import os
import subprocess
import sys

import pytest

import twoteam
from twoteam import cli
from twoteam.game_core import game_from_dict, validate_two_team
from twoteam.instances import instance_from_dict


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
