"""Record the oracle-scan reference outputs into bench/reference.json.

    python3 bench/record_reference.py

Runs the oracle-scan mix of bench/config.json on the inputs of its
``corpus_seed``, checks every result with the definitional verifiers and
writes a summary of each.  Every untraced oracle-scan run compares its
results at that seed, or re-runs these scans at any other seed, with the
reference: floats within ``workloads.FLOAT_TOL * max(1, |reference|)``,
everything else exactly.  Record again only in a change that redefines the
mix or its checks.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import workloads  # noqa: E402


def main() -> int:
    with open(os.path.join(BENCH_DIR, "config.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    seed = cfg["corpus_seed"]
    mix = cfg["workloads"]["oracle-scan"]["mix"]
    requests, digest = workloads.oracle_requests(mix, seed)
    outputs = []
    for request in requests:
        result = request.run()
        request.check(result)
        outputs.append(request.summary(result))
        print(request.label, outputs[-1])
    with open(os.path.join(BENCH_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "mix": mix, "digest": digest, "outputs": outputs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
