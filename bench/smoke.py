"""Smoke test of the benchmark itself, on scaled-down inputs.

    python3 bench/smoke.py

Runs every workload of bench/run.py, random-teams too (which is not in
BENCHMARK.json), once untraced and once traced with a tiny corpus and
small grids (a copy of bench/config.json, scaled down) and asserts that

* every end-to-end metric of BENCHMARK.json prints, on the last line and
  as a ``name value unit`` line, with its unit, and fail_ratio is 0;
* every per-layer metric prints likewise in the traced run;
* the traced runs emit spans for every layer of the program;
* a second traced run of the same seed reads the same inputs digest and
  the same exact counts.

Exits non-zero with a message on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 424242
WORKLOADS = ("reduced-quadratic", "random-teams", "oracle-scan")
LAYERS = ("cli", "reductions", "instances", "game_core", "membership_solver", "lp_solver", "oracle")


def tiny_config() -> dict:
    with open(os.path.join(BENCH_DIR, "config.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["setup_repeats"] = 1
    cfg["min_passes"] = 1
    cfg["tail_beyond"] = 0
    cfg["workloads"]["reduced-quadratic"]["corpus_size"] = 2
    cfg["workloads"]["random-teams"]["corpus_size"] = 3
    for spec in cfg["workloads"]["oracle-scan"]["mix"]:
        spec["grid"] = min(spec["grid"], 12)
    return cfg


def run(config_path: str, workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--config", config_path]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def check_metrics(label: str, result: dict, text: str, expected: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}"
    assert result["correct"] and result["failed"] == 0, f"{label}: {result['failed']} failed"
    assert result["attempted"] >= 1, f"{label}: nothing attempted"
    assert "fail_ratio 0 " in text, f"{label}: fail_ratio line missing or non-zero"
    names = {m["name"] for m in expected}
    assert set(result["metrics"]) == names, f"{label}: metrics {sorted(set(result['metrics']) ^ names)}"
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']} is not a number"
        line = f"\n{m['name']} {got['value']!r} {m['unit']}"
        assert line in "\n" + text, f"{label}: no printed line for {m['name']}"


def record(workload: str) -> dict:
    path = os.path.join(ROOT, ".bench_out", f"{workload}-seed{SEED}-trace1.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_smoke-") as tmp:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(tiny_config(), fh)
        listed = {wl["name"] for wl in bench["workloads"]}
        assert listed <= set(WORKLOADS), f"unknown workloads {sorted(listed - set(WORKLOADS))}"
        layers_seen = set()
        for name in WORKLOADS:
            result, text = run(config_path, name, 0)
            check_metrics(f"{name} untraced", result, text, bench["end_to_end"])
            result, text = run(config_path, name, 1)
            check_metrics(f"{name} traced", result, text, bench["per_layer"])
            first = record(name)
            layers_seen |= {
                span.split(".")[0] for span, s in first["span_summary"].items() if s["calls"] > 0
            }
            run(config_path, name, 1)
            again = record(name)
            for key in ("inputs_digest", "exact_counts"):
                assert first[key] == again[key], f"{name}: {key} {first[key]} != {again[key]}"
            print(f"ok {name}")
        missing = set(LAYERS) - layers_seen
        assert not missing, f"no spans for layers {sorted(missing)}"
    print("ok spans for every layer:", ", ".join(LAYERS))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"smoke test failed: {exc}", file=sys.stderr)
        sys.exit(1)
