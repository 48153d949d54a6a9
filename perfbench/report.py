"""Run every workload, untraced and traced, and print one report.

    python3 perfbench/report.py --seed 1 --seconds 10 [--out BENCH_name.json]

Each workload runs twice in its own process through ``run.py``: once
with tracing off for the end-to-end metrics, once with tracing on for
the per-layer metrics. The tracing overhead is the traced run's
``items_per_s`` minus the untraced run's. Failed and wrong shares,
the transport stiffness census, latency sample counts and the
environment come from the untraced run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bulk_stream", "sweep_cli", "transport", "oracle")


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--out", help="also write the report as JSON to this file")
    args = parser.parse_args(argv)

    results = {}
    for workload in WORKLOADS:
        plain, plain_last = run(workload, args.seed, args.seconds, 0)
        traced, traced_last = run(workload, args.seed, args.seconds, 1)
        overhead = traced["end_to_end"]["items_per_s"] - plain["end_to_end"]["items_per_s"]
        results[workload] = {
            "correct": plain_last["correct"] and traced_last["correct"],
            "attempted": plain_last["attempted"],
            "end_to_end": {k: v for k, v in plain_last["metrics"].items()},
            "failed_share": plain["failed_share"],
            "wrong_share": plain["wrong_share"],
            "latency_samples": plain["latency_samples"],
            "trace_overhead_items_per_s": overhead,
            "per_layer": {k: v for k, v in traced_last["metrics"].items()},
            "failures": plain["failures"],
            "census": plain["census"],
            "environment": plain["environment"],
        }
        r = results[workload]
        print(f"== {workload}  correct={r['correct']}  attempted={r['attempted']}  "
              f"latency samples={r['latency_samples']}")
        for name, m in r["end_to_end"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'failed_share':<40} {r['failed_share']:>14.6g} ratio")
        print(f"  {'wrong_share':<40} {r['wrong_share']:>14.6g} ratio")
        print(f"  {'trace overhead (items_per_s)':<40} {overhead:>14.6g} 1/s")
        census = r["census"]
        if census["items"]:
            print(f"  stiffness census: {census['items']} items, "
                  f"stiff_share {census['stiff_share']:.3g}, "
                  f"failed_share {census['failed_share']:.3g}, "
                  f"wrong_share {census['wrong_share']:.3g}")
        for name, m in r["per_layer"].items():
            if m["value"]:
                print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print("environment:", json.dumps(results[WORKLOADS[0]]["environment"]))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
