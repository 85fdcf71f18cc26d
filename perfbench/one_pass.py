"""One pass of a workload in a fresh process, so every memo cache starts cold.

Imports winshift from the checkout's ``src``, generates the pass inputs,
runs set-up and the timed pass, checks the answers, and prints one JSON
object on its last stdout line.  With ``--trace 1`` spans are recorded
around each layer's public functions during set-up and the timed pass, and
written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    OUT_DIR.mkdir(exist_ok=True)

    sys.path.insert(0, str(ROOT / "src"))
    import winshift

    if Path(winshift.__file__).resolve().parent != ROOT / "src" / "winshift":
        sys.stderr.write(f"winshift imported from {winshift.__file__}, not this checkout\n")
        return 2

    import checker
    import tracing
    import workloads

    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        recorder.install()
        phase = recorder.open("bench.setup")
    inputs = workloads.Inputs(args.workload, args.seed, args.pass_index)
    work = workloads.WORKLOADS[args.workload](
        inputs, expected[args.workload], OUT_DIR / "inputs"
    )
    work.setup()
    if recorder:
        recorder.close(phase)
        phase = recorder.open("bench.run")
    setup_end = time.monotonic()
    start = time.perf_counter()
    outcomes = checker.timed_pass(work.queries)
    run_s = time.perf_counter() - start
    if recorder:
        recorder.close(phase)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    counts = checker.tally(outcomes)
    result = {
        "setup_end": setup_end,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": [o.latency_s for o in outcomes],
        "self_check": checker.self_check(outcomes),
        **counts,
    }
    if recorder:
        result["layers"] = recorder.metrics()
        result["layers"]["cli.known_defects_open"] = counts["known_defects_open"]
        recorder.dump(
            OUT_DIR / f"trace-{args.workload}-seed{args.seed}-pass{args.pass_index}.json"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
