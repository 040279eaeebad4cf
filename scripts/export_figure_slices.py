"""Export circle-slice profiles for the bundled instances.

For each instance under instances/ this samples the margin operators on a
two-dimensional slice through the simplex diagonal, certifies which cones cut
the slice in a single arc, and writes one CSV plus one JSON file per direction
into the output directory.  Every instance is loaded, and the output directory
made, before anything is sampled or written: a bad flag, no instance file,
an unreadable or malformed one or an unusable ``--out`` exits 2 with one
``error:`` line.  So does an output file that cannot be written; the files
written before it stay.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from ambipref import (
    CONES,
    SlicePlane,
    certify_slice_convexity,
    check_sample_count,
    export_slice,
    mixture_weight,
    parse_rational,
    slice_profile,
)
from ambipref.cli import InputError, load, run

DIRECTIONS: tuple[tuple[Fraction, ...], ...] = (
    (Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(-1)),
    (Fraction(1), Fraction(-3)),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=Path, default=Path("instances"))
    parser.add_argument("--out", type=Path, default=Path("slices_out"))
    parser.add_argument("--samples", type=int, default=64)
    parser.add_argument("--alpha", default="3/4", help="alpha-mixture weight, a rational in [0, 1]")
    args = parser.parse_args(argv)
    return run(lambda: _export(args))


def _export(args: argparse.Namespace) -> int:
    try:
        check_sample_count(args.samples)
    except ValueError as exc:
        raise InputError(f"bad --samples: {exc}") from exc
    try:
        alpha = mixture_weight(parse_rational(args.alpha))
    except ValueError as exc:
        raise InputError(f"bad --alpha {args.alpha!r}: {exc}") from exc

    paths = sorted(args.instances.glob("*.json"))
    if not paths:
        raise InputError(f"no instance files under {args.instances}")
    instances = [(path, load(path)) for path in paths]
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make output directory {args.out}: {exc}") from exc

    for path, instance in instances:
        for direction in DIRECTIONS:
            if len(direction) != instance.num_states:
                continue
            plane = SlicePlane.through(direction)
            profile = slice_profile(instance.collection, plane, args.samples, alpha=alpha)
            tag = "_".join(str(c).replace("/", "over").replace("-", "m") for c in direction)
            stem = args.out / f"{path.stem}__d{tag}"
            for fmt in ("csv", "json"):
                target = stem.with_suffix(f".{fmt}")
                try:
                    target.write_text(export_slice(profile, fmt))
                except OSError as exc:
                    raise InputError(f"cannot write {target}: {exc}") from exc
            verdicts = []
            for cone in CONES:
                v = certify_slice_convexity(profile, cone)
                verdicts.append(f"{cone}={'1arc' if v.convex else 'split'}")
            print(f"{stem.name}: {'  '.join(verdicts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
