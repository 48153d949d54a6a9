"""Alternating A/B runs of the benchmark: a base revision against the working tree.

    python3 tools/ab.py --workload sweep_cli --seed 1 --seconds 20 --pairs 8 [--base HEAD]

The base revision is unpacked with ``git archive`` into a temporary
directory, which is removed at exit, also when the tool is interrupted
or terminated. Each pair runs ``perfbench/run.py``
once from the base and once from the working tree, the base first on
odd pairs and second on even ones, so a drift of the machine's speed
favours neither side. For each metric of the runs (the end-to-end ones,
or the per-layer ones with ``--trace 1``) the tool prints both sides'
medians and quartiles, the number of pairs the working tree won, with
the better direction read from ``BENCHMARK.json``, and a verdict:
``gain`` when the working tree won at least nine tenths of the pairs
and its median is better than the base's by more than the base's
quartile spread, ``worse`` when its median is worse than the base's by
more than the metric's ``bound`` (a fraction of the base median). It
also prints how many runs of each side answered wrongly or failed, and
exits 1 when the working tree has more such runs than the base: a gain
from wrong answers is no gain.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unpack(rev: str, into: Path) -> Path:
    """Checkout of rev in the directory into."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"ab: git archive {rev} failed")
    return into


def run(root: Path, args) -> tuple:
    """Metric name -> value of one run.py run from the checkout at root, and whether
    the run answered correctly."""
    out = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=root, capture_output=True, text=True, timeout=1800, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    if not last["correct"]:
        print(f"ab: a run from {root} answered wrongly or failed", file=sys.stderr)
    return {name: m["value"] for name, m in last["metrics"].items()}, bool(last["correct"])


def quartiles(xs: list) -> tuple:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    # a terminated run unwinds like an interrupted one, so the base checkout is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runs = {"base": [], "change": []}
    wrong = {"base": 0, "change": 0}
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base_root = unpack(args.base, Path(tmp))
        for k in range(1, args.pairs + 1):
            order = ("base", "change") if k % 2 else ("change", "base")
            for side in order:
                metrics, correct = run(base_root if side == "base" else ROOT, args)
                runs[side].append(metrics)
                wrong[side] += not correct
            # a traced run carries only per-layer metrics, so its pair line names none
            print(f"pair {k}/{args.pairs}: " + ", ".join(
                side if args.trace else
                f"{side} {runs[side][-1].get('items_per_s', float('nan')):.4g} items/s"
                for side in order), file=sys.stderr)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s, "
          f"trace {args.trace}, base {args.base} -> working tree")
    print(f"{'metric':48} {'base median [q1-q3]':>30} {'change median [q1-q3]':>30}  "
          "wins   verdict")
    for name in runs["base"][0]:
        b = [r[name] for r in runs["base"]]
        c = [r[name] for r in runs["change"]]
        sign = {"higher": 1, "lower": -1}.get(better.get(name), 0)
        won = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        wins = f"{won}/{len(b)}" if sign else "-"
        (bq1, bm, bq3), (cq1, cm, cq3) = quartiles(b), quartiles(c)
        verdict = "-"
        if sign and won >= 0.9 * len(b) and sign * (cm - bm) > bq3 - bq1:
            verdict = "gain"
        elif sign and name in bounds and sign * (bm - cm) > bounds[name] * abs(bm):
            verdict = "worse"
        print(f"{name:48} {bm:>12.4g} [{bq1:.4g}-{bq3:.4g}] {cm:>12.4g} [{cq1:.4g}-{cq3:.4g}]  "
              f"{wins:6} {verdict}")
    print(f"runs that answered wrongly or failed: base {wrong['base']}/{args.pairs}, "
          f"change {wrong['change']}/{args.pairs}")
    return 1 if wrong["change"] > wrong["base"] else 0


if __name__ == "__main__":
    sys.exit(main())
