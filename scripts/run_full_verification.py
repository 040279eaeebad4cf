"""Run every verification suite over a seeded instance batch and dump the report.

The heavy lifting happens in :func:`ambipref.verify`.  This wrapper picks the
seed range, forwards generator overrides, and writes the JSON report somewhere
useful.  Its flags are checked and mapped exactly as ``ambipref verify`` maps
them, so a bad flag, or an ``--out`` that is a directory or lies in a missing
one, exits 2 with one ``error:`` line before any instance is built.  Worker
count comes from the AMBIPREF_THREADS environment variable (a bad value exits
2 the same way), so

    AMBIPREF_THREADS=4 python3 scripts/run_full_verification.py --seeds 0..99

spreads the batch over four processes.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ambipref import verify
from ambipref.cli import InputError, attach_negative_seeds, check_output, run, verify_request
from ambipref.model import json_text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0..99", help="seed range, e.g. 0..99 or 3,7,11")
    parser.add_argument("--suites", default="all", help="comma list of suite names, or 'all'")
    parser.add_argument("--states", type=int, default=None, help="fix the state count (default: alternate 2 and 3)")
    parser.add_argument("--sets", type=int, default=None)
    parser.add_argument("--vertices", type=int, default=None)
    parser.add_argument("--denominator", type=int, default=None)
    parser.add_argument("--out", type=Path, default=Path("verification_report.json"))
    parser.set_defaults(resolution=2, radius="1")
    args = parser.parse_args(attach_negative_seeds(sys.argv[1:] if argv is None else argv))
    return run(lambda: _verify_and_write(args))


def _verify_and_write(args: argparse.Namespace) -> int:
    suites, seeds, config = verify_request(args)
    check_output(str(args.out))
    started = time.monotonic()
    report = verify(suites, seeds, config=config)
    elapsed = time.monotonic() - started
    try:
        args.out.write_text(json_text(report.to_jsonable()))
    except OSError as exc:
        raise InputError(f"cannot write the report: {exc}") from exc

    for entry in report.suites:
        flag = "pass" if entry.passed else "FAIL"
        print(f"{entry.theorem:8s} {flag}  instances={entry.instances}  "
              f"batteries={len(entry.batteries)}  boundary_flags={entry.boundary_flags}")
    print(f"seeds={len(seeds)}  elapsed={elapsed:.1f}s  report={args.out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
