"""Benchmark of the ambipref library on seeded workloads.

    python3 perfbench/run.py --workload verify_sweep --seed 3 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary that also names ``failed_ratio`` and the sample counts.

With ``--trace 0`` the run measures the end-to-end metrics: a fixed window
of items, sized from ``--seconds``, runs untraced in this process, every
output is checked, and set-up time is the median over fresh processes.
With ``--trace 1`` it measures the per-layer metrics instead: each item of
a smaller window runs once traced and once untraced (the difference is the
tracing overhead), and the traced pass is repeated in a fresh process,
whose deterministic counters must equal this process's exactly.  Spans and
the run record are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 7

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p75_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
POOL_METRICS = ("verify.pool_child_cpu_s", "verify.pool_busy_ratio")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "counters"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def load(workload_name: str):
    """Import the library from src/ and return the named workload."""
    if not (ROOT / "src" / "ambipref" / "__init__.py").is_file():
        raise SystemExit(f"error: no ambipref sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: E402  (needs the paths above)

    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {workload_name!r}; "
            f"expected one of {', '.join(workloads.WORKLOADS)}"
        )
    return workloads.WORKLOADS[workload_name]


def run_item(wl, item):
    """One item of the closed loop: (duration, output, problems)."""
    start = time.perf_counter()
    try:
        out = wl.run(item)
    except Exception as exc:  # a raising item is a failed item, not a crash
        return time.perf_counter() - start, None, [f"raised {type(exc).__name__}: {exc}"]
    duration = time.perf_counter() - start
    return duration, wl.keep(out), wl.check(item, out)


def run_items(wl, items):
    results = [run_item(wl, item) for item in items]
    return [list(column) for column in zip(*results)]


def probe_setups(args) -> list[float]:
    """Wall time from process start to the first item, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe", "setup"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def counters_in_fresh_process(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe", "counters"]
    done = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def deterministic(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if per_layer_unit(k) != "s" and k not in POOL_METRICS}


def traced_pass(wl, args, untraced_too=False):
    """Set-up and every item traced; optionally each item untraced as well.

    With ``untraced_too`` each item also runs once untraced, right before or
    after its traced run (alternating), so the two differ only by tracing.
    """
    from tracer import Tracer

    _, count = wl.sizes(args.seconds)
    tracer = Tracer()
    with tracer.installed():
        tracer.item = "setup"
        items = wl.setup(args.seed, count)
    traced, untraced, outputs, problems = [], [], [], []
    for pos, item in enumerate(items):
        order = (True, False) if pos % 2 == 0 else (False, True)
        for with_trace in order if untraced_too else (True,):
            if not with_trace:
                duration, _, probs = run_item(wl, item)
                untraced.append(duration)
                problems.append(probs)
                continue
            with tracer.installed():
                tracer.item = pos
                duration, out, probs = run_item(wl, item)
            traced.append(duration)
            outputs.append(out)
            problems.append(probs)
    return tracer, items, outputs, problems, sum(traced), sum(untraced)


def measure(wl, args):
    """Untraced run: end-to-end metrics over a fixed window of items."""
    count, _ = wl.sizes(args.seconds)
    items = wl.setup(args.seed, count)
    durations, outputs, problems = run_items(wl, items)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    window_problems, info = wl.finish(items, outputs)
    setups = probe_setups(args)
    failed = sum(bool(p) for p in problems)
    quartiles = statistics.quantiles(durations, n=4)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(durations) / sum(durations),
        "item_p50_ms": statistics.median(durations) * 1000,
        "item_p75_ms": quartiles[2] * 1000,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (len(durations) - failed) / len(durations),
    }
    info.update({
        "failed_ratio": failed / len(durations),
        "items": len(durations),
        "percentile_samples": len(durations),
        "items_beyond_p75": sum(d * 1000 > metrics["item_p75_ms"] for d in durations),
        "setup_samples_s": setups,
    })
    units = END_TO_END
    return metrics, units, problems, window_problems, info


def measure_layers(wl, args):
    """Traced run: per-layer metrics, overhead, and the determinism check."""
    tracer, items, outputs, problems, traced_s, untraced_s = traced_pass(
        wl, args, untraced_too=True
    )
    window_problems = []

    metrics = tracer.metrics()
    metrics.update(dict.fromkeys(POOL_METRICS, 0.0))
    info = {"items": len(items), "traced_item_s": traced_s,
            "untraced_item_s": untraced_s}
    if hasattr(wl, "pool_pass"):
        pool_problems, pool = wl.pool_pass(items, outputs)
        window_problems += pool_problems
        info["pool_wall_s"] = pool.pop("verify.pool_wall_s")
        metrics.update(pool)
    metrics["trace.overhead_s"] = traced_s - untraced_s

    fresh = counters_in_fresh_process(args)
    mine = deterministic(metrics)
    if fresh != mine:
        diff = sorted(k for k in set(fresh) | set(mine) if fresh.get(k) != mine.get(k))
        window_problems.append(f"counters differ between two traced runs: {diff}")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    units = {k: per_layer_unit(k) for k in metrics}
    return metrics, units, problems, window_problems, info


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = load(args.workload)
    if args.probe == "setup":
        wl.setup(args.seed, wl.sizes(args.seconds)[0])
        return 0
    if args.probe == "counters":
        tracer = traced_pass(wl, args)[0]
        print(json.dumps(deterministic(tracer.metrics())))
        return 0

    from selftest import run_selftests

    selftest_problems = run_selftests()
    run = measure_layers if args.trace else measure
    metrics, units, problems, window_problems, info = run(wl, args)
    window_problems = selftest_problems + window_problems
    failed = sum(bool(p) for p in problems)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **info,
        "problems": [p for ps in problems for p in ps] + window_problems,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics}, indent=2) + "\n"
    )

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={record['nproc']} python={record['python']}")
    for key, value in info.items():
        print(f"#   {key}: {value}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6f} {units[name]}")
    if not args.trace:
        print(f"{'failed_ratio':44s} {info['failed_ratio']:14.6f} ratio")
    for problem in record["problems"][:20]:
        print(f"! {problem}")
    result = {
        "correct": failed == 0 and not window_problems,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
