"""Measure this checkout against a baseline checkout on every perfbench workload.

    python3 scripts/bench.py --out BENCH_10.json --baseline ../parent-checkout

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds 30
--trace 0`` in the root of the checkout being measured, for every workload in
``BENCHMARK.json`` and seeds 20..29.  The two checkouts alternate run by run
(and alternate which of the two goes first), so both see the same machine
load.  For every workload the script writes one row per checkout: the median
and quartiles over the seeds of each end-to-end metric that ``BENCHMARK.json``
declares, the per-seed values, whether every run was correct and the commit
(``git rev-parse HEAD`` in that checkout, with a flag for uncommitted
changes).  The row of this checkout also has, per metric, the count of pairs
in which it beat the baseline (``pairs_won``) and the median and quartiles of
the per-seed ratio this checkout / baseline (``ratios``).  The pairs share
the machine's load, so their ratios separate a change from a drift that moves
both sides.

Each checkout also makes one ``--trace 1`` run per workload, at the first
seed, and the head row gets both sides' per-layer metrics (``layers``: each
side's correctness and metrics) and ``counter_diffs``: every deterministic
counter, that is every per-layer metric but the times and the pool's, whose
value differs between the checkouts, with both values.  A change that only
speeds code up moves none, so each listed diff is one the change must
explain.  The file records ``nproc`` and the Python version.  Nothing under
``perfbench/`` is changed.  The 60 measured runs and 6 traced runs took
about 4 minutes on a 2-core x86 machine with Python 3.11: ``--seconds``
sizes each window from the workload's nominal rate, and the code now runs
well above those rates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(20, 30))
SECONDS = 30


def _git(root: Path, *args: str):
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def checkout_info(root: Path) -> dict:
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
    }


def run_once(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One perfbench run, untraced unless ``trace``; returns its final JSON line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(results: list[dict], names: list[str]) -> dict:
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            **quartiles(values),
            "values": values,
        }
    return metrics


def compare(head: dict, base: dict, higher: dict) -> dict:
    """Seed-by-seed comparison of two rows' metrics, for the head row.

    ``pairs_won`` counts the pairs in which the head beat the baseline;
    ties count for neither.  ``ratios`` has the median and quartiles of
    the per-seed ratio head / baseline of each metric, with the ratios in
    seed order; a pair whose baseline reads 0 gives no ratio.
    """
    pairs_won, ratios = {}, {}
    for name, better_high in higher.items():
        pairs = list(zip(head[name]["values"], base[name]["values"]))
        pairs_won[name] = sum(h > b if better_high else h < b for h, b in pairs)
        values = [h / b for h, b in pairs if b]
        ratios[name] = {**quartiles(values), "values": values} if len(values) > 1 else None
    return {"pairs_won": pairs_won, "ratios": ratios}


def counter_diffs(head: dict, base: dict) -> dict:
    """Every deterministic counter whose value differs, with both values.

    The counters are those of perfbench's fresh-process check: every
    per-layer metric but the times (named ``*_s``) and the pool's busy ratio.
    """
    return {
        name: {"baseline": base.get(name), "head": head.get(name)}
        for name in sorted(set(head) | set(base))
        if not name.endswith("_s") and not name.startswith("verify.pool_")
        and head.get(name) != base.get(name)
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--baseline", type=Path, required=True,
                        help="a second checkout to measure alongside")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    roots = {"baseline": args.baseline.resolve(), "head": ROOT}

    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = {role: [] for role in roots}
        for i, seed in enumerate(SEEDS):
            # Alternate which checkout runs first, so neither always runs warm.
            order = list(roots.items())
            for role, root in order if i % 2 == 0 else order[::-1]:
                print(f"# {workload} seed={seed} {role}", file=sys.stderr, flush=True)
                results[role].append(run_once(root, workload, seed))
        for role, root in roots.items():
            rows.append(
                {
                    "workload": workload,
                    "role": role,
                    **checkout_info(root),
                    "seeds": SEEDS,
                    "seconds": SECONDS,
                    "correct": all(r["correct"] for r in results[role]),
                    "metrics": summarize(results[role], names),
                }
            )
        rows[-1].update(compare(rows[-1]["metrics"], rows[-2]["metrics"], higher))
        layers = {}
        for role, root in roots.items():
            print(f"# {workload} seed={SEEDS[0]} {role} traced", file=sys.stderr, flush=True)
            traced = run_once(root, workload, SEEDS[0], trace=1)
            layers[role] = {
                "correct": traced["correct"],
                "metrics": {name: m["value"] for name, m in traced["metrics"].items()},
            }
        rows[-1]["layers"] = layers
        rows[-1]["counter_diffs"] = counter_diffs(
            layers["head"]["metrics"], layers["baseline"]["metrics"]
        )

    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "rows": rows,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for row in rows:
        cells = "  ".join(
            f"{name}={m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"
            for name, m in row["metrics"].items()
        )
        print(f"{row['workload']:13s} {row['role']:8s} {cells}")
        if "ratios" in row:
            cells = "  ".join(f"{name}={r['median']:.4g} [{r['q1']:.4g}, {r['q3']:.4g}]"
                              for name, r in row["ratios"].items() if r)
            print(f"{row['workload']:13s} {'ratio':8s} {cells}")
        for name, diff in row.get("counter_diffs", {}).items():
            print(f"{row['workload']:13s} {'counter':8s} {name}: "
                  f"{diff['baseline']} -> {diff['head']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
