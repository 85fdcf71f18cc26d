"""Benchmark for winshift: cold-start batches of exact answers.

    python3 perfbench/run.py --workload factor-tables --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src``.

Load: a closed loop with one client.  Each pass is a fresh process (so every
memo cache is cold, as for a command-line user) that generates its inputs
from the seed and the pass number, sets up, then sends the workload's fixed
query batch one query at a time.  Passes run one after another until
``--seconds`` have gone by (and at least 100 query latencies are pooled);
times are medians over the passes, latency percentiles are over all pooled
queries.

Workloads (see ``workloads.py`` for the inputs):

* ``factor-tables``: complexity tables, first differences and bounded
  periodicity probes; nearly all the work is ``substitution.language``.
* ``game-solve``: winning sets with their antichains, cardinalities,
  certified membership queries, brute-force irreducible enumeration and
  strategy transport; target languages are built during set-up.
* ``cli-tables``: in-process ``cli.main`` invocations (long ``--table``
  ranges, ``--length`` up to 10^5, recurrence deltas and tables,
  ``syncdelay``, ``gtm --verify``, and inputs that must exit 1 or 2).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` passes run in pairs, untraced then traced on the same
inputs, and it reports per-layer self times and counts from the traced
ones plus the tracing overhead.  Span files go to ``.perfbench/`` in the
checkout.  Exit status is nonzero, with no result line, when the checkout
has no ``src/winshift`` or a pass cannot complete.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("factor-tables", "game-solve", "cli-tables")
MIN_PASSES = 3
MIN_SAMPLES = 100
# a run must end well inside three minutes; no pass starts after this
LAST_START_S = 120.0
PASS_TIMEOUT_S = 170.0


class PassFailed(Exception):
    pass


def run_pass(workload: str, seed: int, index: int, trace: int, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "WINSHIFT_SYNC_CAP"}
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(HERE / "one_pass.py"),
        "--workload", workload, "--seed", str(seed), "--pass-index", str(index),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {index} did not finish in time") from exc
    if done.returncode != 0:
        raise PassFailed(f"pass {index} exited with {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("setup_end") - start
    if result["self_check"]:
        raise PassFailed(f"pass {index}: checker self-check failed: {result['self_check']}")
    return result


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def end_to_end(passes: list[dict]) -> dict:
    latencies = sorted(x for p in passes for x in p["latencies_s"])
    return {
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "query_p50_ms": (percentile(latencies, 0.5) * 1000, "ms"),
        "query_p90_ms": (percentile(latencies, 0.9) * 1000, "ms"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """The per-layer metrics BENCHMARK.json lists; a layer a workload never
    calls reads 0."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    out = {
        m["name"]: (statistics.median(p["layers"].get(m["name"], 0) for p in traced), m["unit"])
        for m in listed
        if m["name"] != "trace.overhead_s"
    }
    overhead = statistics.median(p["run_s"] for p in traced) - statistics.median(
        p["run_s"] for p in untraced
    )
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "winshift" / "__init__.py").is_file():
        sys.stderr.write(f"no winshift package under {ROOT / 'src'}; run from a checkout\n")
        return 2

    start = time.monotonic()
    deadline = start + PASS_TIMEOUT_S
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            index = len(untraced)
            untraced.append(run_pass(args.workload, args.seed, index, 0, deadline))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, index, 1, deadline))
            elapsed = time.monotonic() - start
            samples = sum(len(p["latencies_s"]) for p in untraced)
            enough = elapsed >= args.seconds and len(untraced) >= MIN_PASSES
            if (enough and samples >= MIN_SAMPLES) or elapsed >= LAST_START_S:
                break
    except PassFailed as exc:
        sys.stderr.write(f"{exc}\n")
        return 1

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for index, p in enumerate(passes):
        kind = "traced" if index >= len(untraced) else "untraced"
        print(
            f"pass {index % len(untraced)} {kind}: setup {p['setup_s']:.3f} s, "
            f"run {p['run_s']:.3f} s, peak rss {p['peak_rss_mb']:.1f} MB, "
            f"{p['attempted']} queries, {p['failed']} failed"
        )
    for failure in sorted({f for p in passes for f in p["failures"]})[:5]:
        print(f"FAILED {failure.splitlines()[0]}")
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} "
        f"traced passes, {samples} query latencies, {attempted} queries checked, "
        f"{failed} failed"
    )
    if untraced[0]["known_defects"]:
        print(
            f"known-defect inputs still failing their documented exit code: "
            f"{untraced[0]['known_defects_open']} of {untraced[0]['known_defects']} per pass"
        )
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
