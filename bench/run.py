"""Benchmark of the twoteam toolkit.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the requests of one workload are served in
a closed loop from this one client process, in complete passes, until
``--seconds`` have passed, at least ``min_passes`` were served and at
least ``tail_beyond`` latencies lie beyond the tail percentile; the
end-to-end metrics come from the latencies of every verified request.
With ``--trace 1`` one untraced pass and one traced pass are served and
the per-layer metrics are printed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The sizes that the
smoke test scales down, and the corpus seed, are in ``bench/config.json``.

BENCHMARK.json lists reduced-quadratic and oracle-scan.  random-teams runs
the same way but is left out of it: with two workloads each run can last
45 s within the time allowed for all runs of the benchmark, and the time
metrics of a 2-vCPU shared host need that length; between them the two
reach every layer.

Held-out seed: a claim measured on the usual seeds must also hold with
``--seed 7398 --corpus-seed 7398``, which no change was tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# request_tail_s is the 85th percentile of every verified request's
# latency; the loop serves passes until tail_beyond (10) of them lie beyond
# it: 3 passes of the 24 QPs, 7 of the 10 oracle scans.
TAIL_PERCENTILE = 85
# Iterations of the host-noise diagnostic loop (about 0.2 s).
CALIBRATION_LOOP = 3_000_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["reduced-quadratic", "random-teams", "oracle-scan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corpus-seed", type=int, default=None,
                        help="corpus of the solver workloads (default: config corpus_seed)")
    parser.add_argument("--config", default=os.path.join(BENCH_DIR, "config.json"),
                        help="settings file (the smoke test passes a scaled-down copy)")
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the inputs, warm up and exit (times set-up)")
    return parser.parse_args(argv)


def calibrate(iterations: int) -> float:
    """Seconds for a fixed pure-Python loop: a host-noise diagnostic only."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return time.perf_counter() - start


def time_setup(args, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import, build inputs and warm up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--config", args.config, "--setup-only"]
    if args.corpus_seed is not None:
        cmd += ["--corpus-seed", str(args.corpus_seed)]
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
        out.append(elapsed)
    return out


class Loop:
    """Serves requests and keeps the latency of every verified one."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        # Result summary of each request's first verified run, for the
        # comparison with bench/reference.json.
        self.summaries: dict[str, dict] = {}

    def serve(self, request, request_id: int) -> bool:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request_id = request_id
        try:
            start = time.perf_counter()
            out = request.run()
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                with self.tracer.paused():
                    request.check(out)
            else:
                request.check(out)
        except Exception:  # every failure is counted against the run
            self.failed += 1
            print(f"request {request.label} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False
        self.latencies.append(elapsed)
        self.by_label.setdefault(request.label, []).append(elapsed)
        if request.summary is not None and request.label not in self.summaries:
            self.summaries[request.label] = request.summary(out)
        return True

    def serve_pass(self, requests) -> tuple[int, float]:
        start = time.perf_counter()
        ok = sum(self.serve(r, i) for i, r in enumerate(requests))
        return ok, time.perf_counter() - start


def timed_run(args, cfg, workload) -> tuple[Loop, dict, dict]:
    # Half the set-up probes before the timed passes and half after, so
    # that their median spans two moments of the host's drifting speed.
    setups = time_setup(args, cfg["setup_repeats"] - cfg["setup_repeats"] // 2)
    loop = Loop()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(loop.serve_pass(workload.requests))
        if (time.perf_counter() - start >= args.seconds and len(passes) >= cfg["min_passes"]
                and len(loop.latencies) * (100 - TAIL_PERCENTILE) >= 100 * cfg["tail_beyond"]):
            break
    if not loop.latencies:
        raise RuntimeError("no request was verified")
    setups += time_setup(args, cfg["setup_repeats"] // 2)
    # Statistics over every verified request of every pass.  The shared
    # host's speed drifts over seconds to minutes; over ten seeds these
    # spread less than statistics of each request's median over its 3-5
    # repeats, whose order around the tail percentile can swap.
    latencies = loop.latencies
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "request_p50_s": (statistics.median(latencies), "s"),
        "request_tail_s": (
            statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1], "s"),
        # One client in a closed loop: requests served per second of serving,
        # leaving out the benchmark's own output checks between requests.
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {"setup_runs_s": setups, "passes": [[ok, t] for ok, t in passes],
              "latencies_s": loop.by_label}
    return loop, metrics, record


def check_reference(loop: Loop, workload, mix: list, seed: int) -> list[str]:
    """Compare the oracle scans at the reference seed with reference.json.

    A run at that seed and mix compares its own results; any other run
    re-runs the reference scans.  Each scan counts as one more request.
    """
    import workloads

    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    if seed == reference["seed"] and mix == reference["mix"]:
        requests, digest = workload.requests, workload.digest
        outputs = [loop.summaries.get(r.label, {"error": "no verified run"}) for r in requests]
    else:
        requests, digest = workloads.oracle_requests(reference["mix"], reference["seed"])
        outputs = []
        for request in requests:
            try:
                outputs.append(request.summary(request.run()))
            except Exception as exc:  # counted as a failed request
                outputs.append({"error": repr(exc)})
    problems = []
    if digest != reference["digest"]:
        problems.append(f"reference inputs digest {digest} != {reference['digest']}")
        loop.failed += 1
    for request, got, expected in zip(requests, outputs, reference["outputs"]):
        loop.attempted += 1
        for key, want in expected.items():
            have = got.get(key)
            if isinstance(want, float) and isinstance(have, float):
                same = workloads.close(have, want)
            else:
                same = have == want
            if not same:
                problems.append(f"{request.label}.{key}: {got!r} != reference {want!r}")
                loop.failed += 1
                break
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twoteam", "__init__.py")):
        print(f"error: no twoteam package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    corpus_seed = cfg["corpus_seed"] if args.corpus_seed is None else args.corpus_seed
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](
            cfg["workloads"][args.workload], args.seed, corpus_seed, workdir
        )
        # Warm-up results are not counted; the measured requests report
        # any failure.
        warm = Loop()
        for i, request in enumerate(workload.warmup):
            warm.serve(request, i)
        if args.setup_only:
            return 0
        calibration = [calibrate(CALIBRATION_LOOP)]
        if args.trace:
            from layers import traced_run

            loop, metrics, record, tracer = traced_run(workload, Loop)
        else:
            loop, metrics, record = timed_run(args, cfg, workload)
            if args.workload == "oracle-scan":
                record["reference_problems"] = check_reference(
                    loop, workload, cfg["workloads"]["oracle-scan"]["mix"], args.seed)
        calibration.append(calibrate(CALIBRATION_LOOP))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(
        workload=args.workload, seed=args.seed, corpus_seed=corpus_seed, trace=args.trace,
        inputs_digest=workload.digest, calibration_s=calibration,
        attempted=loop.attempted, failed=loop.failed,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tracer.save(stem + "-spans.npz")
        record["spans_file"] = os.path.basename(stem) + "-spans.npz"
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} seed {args.seed} inputs {workload.digest}")
    print(f"calibration loop {calibration[0]:.4f} s at start, {calibration[1]:.4f} s at end "
          "(host-noise diagnostic, not a metric)")
    print(f"fail_ratio {loop.failed / loop.attempted:.6g} ({loop.failed} of {loop.attempted})")
    for problem in record.get("reference_problems", []):
        print(f"reference mismatch: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
