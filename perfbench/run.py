"""Benchmark runner for tenfold1d.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bulk_stream --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the checkout (nothing is
installed). The run times a fresh interpreter importing the package
five times and the input generation three times, reports the sum of
the two medians as the set-up time, then processes items in a
closed loop, one at a time, for at least ``--seconds`` seconds, ending
at a cycle boundary of the workload's fixed slot pattern. Every answer
is checked against a reference computed without the package. Every
timing is scaled to a quiet machine by a speed probe run between short
windows of the work (see ``speed.py``); the report line also gives the
unscaled figures and the speeds measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every call into the package is wrapped in a span and the metrics are
the per-layer ones. The line before it carries the full report: the
environment, failed and wrong shares, the latency sample count, and the
first few failures.

``failed`` counts timed items that raised or answered wrongly; every
workload's timed inputs are ones the package answers, so it is 0.
After the timed loop, transport runs its stiffness census once, untimed:
the ROADMAP probes and untrimmed stiff draws, whose failed and wrong
shares are the per-layer ``stiff.failed_share`` and
``stiff.wrong_share``. ``correct`` is false when a timed item fails or
a census item fails outside the known-defect envelope of transport and
transfer products, i.e. with the log-growth of its transport or
transfer matrix below ln 1e6 (see ``gen.py``).
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
# one thread, at most nproc: with two, a dense run slowed 5x whenever
# another process shared the 2-core box
BLAS_THREADS = 1
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Start a fresh interpreter that imports the package (timed by the caller)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import tenfold1d"], env=env, cwd=ROOT,
                   capture_output=True, timeout=60, check=True)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": sys.version.split()[0]}


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tenfold1d" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.speed import SpeedProbe, scaled

    probe = SpeedProbe("small")
    import_times = [scaled(probe, import_package)[0] for _ in range(IMPORT_REPEATS)]
    from perfbench import workloads
    from perfbench.tracing import Tracer

    package = sys.modules["tenfold1d"].__file__
    if not package.startswith(str(SRC)):
        print(f"perfbench: imported {package}, not the checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    gen_times = []
    run_dir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        def set_up():
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            workload.setup(args.seed, str(run_dir))

        for _ in range(SETUP_REPEATS):
            gen_times.append(scaled(probe, set_up)[0])
        result = measure(workload, args, Tracer(bool(args.trace)), workloads,
                         SpeedProbe(workload.probe))
        result["census"] = census(workload, Tracer(False), workloads)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    setup_s = statistics.median(import_times) + statistics.median(gen_times)
    return emit(result, args, setup_s, import_times, gen_times)


def measure(workload, args, tracer, workloads, probe):
    """Run items until ``args.seconds`` have passed and a cycle ends.

    A speed probe runs after every WINDOW_S of items; each window's item
    latencies are scaled by the window's speed (see ``speed.py``).
    """
    from perfbench.speed import WINDOW_S

    stats = workloads.Stats()
    items = workload.items
    for item in items[:workload.warmup]:
        run_one(workload, item, type(tracer)(False), workloads.Stats())
    latencies = []
    scaled_latencies = []
    speeds = []
    outcomes = {"ok": 0, "wrong": 0, "failed": 0}
    failures = []
    i = workload.warmup
    done = 0
    last_probe = probe()
    start = window_start = time.perf_counter()
    busy = 0.0
    while True:
        item = items[i % len(items)]
        t0 = time.perf_counter()
        status, detail = run_one(workload, item, tracer, stats)
        now = time.perf_counter()
        latencies.append(now - t0)
        outcomes[status] += 1
        stats.add("items")
        if status != "ok" and len(failures) < 12:
            failures.append(failure(i, item, status, detail))
        i += 1
        done += 1
        stop = done % workload.cycle == 0 and now - start >= args.seconds
        if stop or now - window_start >= WINDOW_S:
            next_probe = probe()
            speed = 2.0 * probe.ref / (last_probe + next_probe)
            speeds.append(speed)
            tracer.close_window(speed)
            busy += now - window_start
            scaled_latencies.extend(t * speed for t in latencies[len(scaled_latencies):])
            last_probe = next_probe
            window_start = time.perf_counter()
        if stop:
            break
    return {"latencies": latencies, "scaled_latencies": scaled_latencies,
            "busy": busy, "scaled_busy": sum(scaled_latencies), "speeds": speeds,
            "outcomes": outcomes, "failures": failures,
            "stats": stats, "tracer": tracer, "pool_passes": i / len(items),
            "probe_ref_s": probe.ref, "inputs": workloads.input_shares(items)}


def census(workload, tracer, workloads):
    """Run the workload's census items once; count outcomes."""
    items = getattr(workload, "census", ())
    outcomes = {"ok": 0, "wrong": 0, "failed": 0}
    unexpected = []
    for i, item in enumerate(items):
        status, detail = run_one(workload, item, tracer, workloads.Stats())
        outcomes[status] += 1
        if status != "ok" and not item.in_defect_envelope:
            unexpected.append(failure(i, item, status, detail))
    return {"items": len(items), "outcomes": outcomes, "unexpected": unexpected,
            "stiff_share": sum(item.stiff for item in items) / max(len(items), 1)}


def failure(i, item, status, detail):
    return {"item": i, "kind": item.kind, "log_growth": item.log_growth,
            "status": status, "detail": detail}


def run_one(workload, item, tracer, stats):
    from perfbench.workloads import Mismatch

    try:
        return workload.run(item, tracer, stats), ""
    except Mismatch as exc:
        return "wrong", str(exc)
    except Exception as exc:  # every other raise is a failed item, reported below
        kind = type(exc).__name__
        if not isinstance(exc, ValueError):
            kind += " (untyped) " + traceback.format_exc(limit=3).splitlines()[-1]
        return "failed", f"{kind}: {str(exc)[:200]}"


def emit(result, args, setup_s, import_times, gen_times) -> int:
    outcomes = result["outcomes"]
    attempted = sum(outcomes.values())
    bad = outcomes["wrong"] + outcomes["failed"]
    lat_ms = [1e3 * x for x in result["scaled_latencies"]]
    raw_ms = [1e3 * x for x in result["latencies"]]
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (attempted / result["scaled_busy"], "1/s"),
        "p50_ms": (percentile(lat_ms, 50), "ms"),
        "p90_ms": (percentile(lat_ms, 90), "ms"),
        "ok_share": ((attempted - bad) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per_layer = result["tracer"].metrics(attempted)
    per_layer.update(result["stats"].metrics())
    per_layer.update(result["inputs"])
    cen = result["census"]
    share = max(cen["items"], 1)
    per_layer["stiff.failed_share"] = (cen["outcomes"]["failed"] / share, "ratio")
    per_layer["stiff.wrong_share"] = (cen["outcomes"]["wrong"] / share, "ratio")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "failed_share": outcomes["failed"] / attempted,
        "wrong_share": outcomes["wrong"] / attempted,
        "latency_samples": len(lat_ms),
        "unscaled": {"items_per_s": attempted / result["busy"],
                     "p50_ms": percentile(raw_ms, 50), "p90_ms": percentile(raw_ms, 90)},
        "speed": {"probe_ref_s": result["probe_ref_s"],
                  "median": statistics.median(result["speeds"]),
                  "min": min(result["speeds"]), "max": max(result["speeds"])},
        "busy_s": result["busy"],
        "scaled_import_s": import_times, "scaled_generate_s": gen_times,
        "pool_passes": result["pool_passes"],
        "failures": result["failures"],
        "census": {"items": cen["items"], "stiff_share": cen["stiff_share"],
                   "failed_share": cen["outcomes"]["failed"] / share,
                   "wrong_share": cen["outcomes"]["wrong"] / share,
                   "unexpected": cen["unexpected"][:12]},
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
    }
    if args.trace:
        report["per_layer"] = {k: v for k, (v, _) in per_layer.items()}
    print(json.dumps({"report": report}))
    chosen = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": bad == 0 and not cen["unexpected"],
        "attempted": attempted,
        "failed": bad,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
