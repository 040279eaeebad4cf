"""Command-line front end: evaluate, audit, analyze, slice, gen, verify.

Exit codes: 0 when the requested check passes, 1 when a verification or
audit turns up a counterexample, 2 on input errors (bad flags, unreadable
files, malformed instances, an output path that cannot be written).

:func:`run`, the one error boundary of the CLI and the scripts, reads a
``ValueError`` (an :class:`InputError` among them) as bad input.  A
``RuntimeError`` is a result that failed its own check and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from .analysis import analyze, check_battery
from .analysis import MAX_BATTERY_ACTS  # noqa: F401  (re-exported for callers of the CLI module)
from .axioms import AxiomKind, audit_suite, battery_label, generate_act_grid
from .generate import GenParams, generate_instance
from .margins import (
    AlphaMixture,
    Bewley,
    Conjunctive,
    Disjunctive,
    GeneralizedBewley,
    HalfMixture,
    Justifiable,
    ModelKind,
    SEU,
    classify,
    margin_pair,
    phi_between,
)
from .model import (
    Instance,
    InstanceValidationError,
    Prior,
    dumps_instance,
    json_text,
    load_instance,
    parse_rational,
    utility_vector,
)
from .slices import MAX_SLICE_SAMPLES  # noqa: F401  (re-exported for callers of the CLI module)
from .slices import SlicePlane, check_sample_count, export_slice, slice_profile
from .verify import SUITES, UnknownSuite, VerifyConfig, check_suites, verify

__all__ = [
    "main",
    "run",
    "parse_model",
    "parse_seed_range",
    "attach_negative_seeds",
    "verify_request",
    "check_output",
    "load",
    "MAX_BATTERY_ACTS",
    "MAX_SLICE_SAMPLES",
]

MAX_SEEDS = 10_000  # a range is checked from its two ends, before its list is built

_MODEL_HELP = (
    "gb | disjunctive | conjunctive | half | alpha:Q | bewley:NAME | "
    "justifiable:NAME | seu:q1,q2,..."
)


class InputError(ValueError):
    """User-facing problem with flags or files; :func:`run` maps it to exit code 2."""


def parse_model(text: str, instance: Optional[Instance] = None) -> ModelKind:
    """Parse a model spec string, validating names against the instance."""
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    try:
        if head in ("gb", "generalized-bewley") and not tail:
            return GeneralizedBewley()
        if head == "disjunctive" and not tail:
            return Disjunctive()
        if head == "conjunctive" and not tail:
            return Conjunctive()
        if head == "half" and not tail:
            return HalfMixture()
        if head == "alpha" and tail:
            return AlphaMixture(parse_rational(tail.strip()))
        if head in ("bewley", "justifiable") and tail:
            name = tail.strip()
            if instance is not None:
                instance.collection.get(name)
            return Bewley(name) if head == "bewley" else Justifiable(name)
        if head == "seu" and tail:
            probs = tuple(parse_rational(p.strip()) for p in tail.split(","))
            prior = Prior(probs)
            if instance is not None and len(prior) != instance.num_states:
                raise InputError(
                    f"prior has {len(prior)} entries, instance has "
                    f"{instance.num_states} states"
                )
            return SEU(prior)
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"bad model spec {text!r}: {exc}") from exc
    raise InputError(f"bad model spec {text!r}; expected {_MODEL_HELP}")


def parse_seed_range(text: str) -> list[int]:
    """Seeds as 'A..B' (inclusive), an integer, or a comma list; at most ``MAX_SEEDS``."""
    text = text.strip()
    lo_text, dots, hi_text = text.partition("..")
    parts = [] if dots else text.split(",")
    if len(parts) > MAX_SEEDS:
        raise InputError(f"seed list holds {len(parts)} seeds; the limit is {MAX_SEEDS}")
    try:
        if not dots:
            return [int(p) for p in parts]
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise InputError(f"bad seed range {text!r}: {exc}") from exc
    if hi < lo:
        raise InputError(f"empty seed range {text!r}")
    if hi - lo + 1 > MAX_SEEDS:
        raise InputError(f"seed range {text!r} holds {hi - lo + 1} seeds; the limit is {MAX_SEEDS}")
    return list(range(lo, hi + 1))


def load(path: str | Path) -> Instance:
    """Read and validate an instance file; any failure is one InputError line naming it."""
    try:
        return load_instance(path)
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"instance file {path} is not valid JSON: {exc}") from exc
    except InstanceValidationError as exc:
        raise InputError(f"invalid instance {path}: {exc}") from exc


def check_output(path: Optional[str]) -> None:
    """Refuse an output file that cannot be created, before any work and any write.

    The path must not be a directory, and its parent must be one.  An empty
    or missing path means standard output.
    """
    if not path:
        return
    target = Path(path)
    if target.is_dir():
        raise InputError(f"output path {path} is a directory")
    if not target.parent.is_dir():
        raise InputError(f"output directory {target.parent} does not exist")


def _emit(text: str, output: Optional[str]) -> None:
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output: {exc}") from exc


def _cmd_evaluate(args: argparse.Namespace) -> int:
    instance = load(args.instance)
    kind = parse_model(args.model, instance)
    left, right = instance.act(args.left), instance.act(args.right)
    phi = phi_between(instance, left, right)
    forward, reverse = margin_pair(kind, instance.collection, phi)
    relation = classify(kind, instance, left, right)
    _emit(
        json_text(
            {
                "model": args.model,
                "left": args.left,
                "right": args.right,
                "relation": relation.value,
                "forward_margin": str(forward),
                "reverse_margin": str(reverse),
                "utility_difference": [str(e) for e in phi.entries],
            }
        ),
        args.output,
    )
    return 0


def _parse_axioms(text: str) -> list[AxiomKind]:
    if text.strip().lower() == "all":
        return list(AxiomKind)
    chosen = []
    by_value = {kind.value: kind for kind in AxiomKind}
    for part in text.split(","):
        name = part.strip().lower()
        if name not in by_value:
            raise InputError(
                f"unknown axiom {part.strip()!r}; expected 'all' or a comma list of: "
                + ", ".join(by_value)
            )
        chosen.append(by_value[name])
    return chosen


def _cmd_audit(args: argparse.Namespace) -> int:
    instance = load(args.instance)
    kind = parse_model(args.model, instance)
    axioms = _parse_axioms(args.axioms)
    check_battery(args.resolution, instance.num_states)
    radius = parse_rational(args.radius)
    battery = generate_act_grid(instance, args.resolution, radius)
    uvecs = [utility_vector(instance.utility, act) for act in battery]
    desc = battery_label(instance, len(battery), args.resolution, radius)
    reports = audit_suite(kind, instance, battery, axioms=axioms, battery_desc=desc)
    _emit(json_text({"reports": [r.to_jsonable(uvecs) for r in reports]}), args.output)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    instance = load(args.instance)
    check_battery(2, instance.num_states, " (analyze's commutativity lattice)")
    report = analyze(instance)
    _emit(json_text(report.to_jsonable()), args.output)
    return 0


def _cmd_slice(args: argparse.Namespace) -> int:
    check_sample_count(args.samples)
    instance = load(args.instance)
    direction = [parse_rational(p.strip()) for p in args.direction.split(",")]
    if len(direction) != instance.num_states:
        raise InputError(
            f"direction has {len(direction)} entries, instance has "
            f"{instance.num_states} states"
        )
    plane = SlicePlane.through(direction)
    alpha = parse_rational(args.alpha) if args.alpha is not None else None
    profile = slice_profile(instance.collection, plane, args.samples, alpha)
    _emit(export_slice(profile, args.format), args.output)
    return 0


def _gen_params(args: argparse.Namespace) -> Optional[GenParams]:
    """The box the four generator flags set, unset ones at their default; None if none is set."""
    given = {"num_states": args.states, "num_sets": args.sets,
             "vertices_per_set": args.vertices, "denominator_bound": args.denominator}
    given = {field: value for field, value in given.items() if value is not None}
    return GenParams(**given) if given else None


def _cmd_gen(args: argparse.Namespace) -> int:
    _emit(dumps_instance(generate_instance(args.seed, _gen_params(args))), args.output)
    return 0


def _parse_suites(text: str) -> list[str]:
    if text.strip().lower() == "all":
        return list(SUITES)
    try:
        return check_suites(part.strip() for part in text.split(","))
    except UnknownSuite as exc:
        raise UnknownSuite(f"{exc}, or 'all'") from None


def verify_request(
    args: argparse.Namespace,
) -> tuple[list[str], list[int], VerifyConfig]:
    """Check the verify flags and map them to suites, seeds and a config.

    Reads ``suites``, ``seeds``, ``resolution``, ``radius`` and the generator
    overrides ``states``, ``sets``, ``vertices`` and ``denominator`` (None
    when unset).  ``all`` is ``SUITES``; a comma list may name any suite
    :func:`verify.check_suites` knows, including one run only by name.  Raises
    ValueError before any instance or battery is built.
    """
    suites = _parse_suites(args.suites)
    seeds = parse_seed_range(args.seeds)
    radius = parse_rational(args.radius)
    config = VerifyConfig(resolution=args.resolution, radius=radius, params=_gen_params(args))
    states = max(config.params_for_seed(seed).num_states for seed in seeds)
    check_battery(args.resolution, states)
    return suites, seeds, config


def _cmd_verify(args: argparse.Namespace) -> int:
    suites, seeds, config = verify_request(args)
    report = verify(suites, seeds, config)
    _emit(json_text(report.to_jsonable()), args.output)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambipref",
        description="Exact audits and analysis of multiple-priors preference models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write to this file instead of standard output")

    p_eval = sub.add_parser("evaluate", help="judge one pair of named acts")
    p_eval.add_argument("--instance", required=True)
    p_eval.add_argument("--model", required=True, help=_MODEL_HELP)
    p_eval.add_argument("--left", required=True, help="name of the first act")
    p_eval.add_argument("--right", required=True, help="name of the second act")
    add_output(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_audit = sub.add_parser("audit", help="run axiom audits over a lattice battery")
    p_audit.add_argument("--instance", required=True)
    p_audit.add_argument("--model", required=True, help=_MODEL_HELP)
    p_audit.add_argument("--axioms", default="all", help="'all' or comma list")
    p_audit.add_argument("--resolution", type=int, default=2)
    p_audit.add_argument("--radius", default="1", help="lattice radius (rational)")
    add_output(p_audit)
    p_audit.set_defaults(func=_cmd_audit)

    p_analyze = sub.add_parser("analyze", help="parametric analysis of the collection")
    p_analyze.add_argument("--instance", required=True)
    add_output(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_slice = sub.add_parser("slice", help="sample margin cones on a diagonal slice")
    p_slice.add_argument("--instance", required=True)
    p_slice.add_argument(
        "--direction", required=True, help="comma-separated rational direction"
    )
    p_slice.add_argument("--samples", type=int, default=64)
    p_slice.add_argument("--alpha", help="optional mixture weight (rational)")
    p_slice.add_argument("--format", choices=("csv", "json"), default="csv")
    add_output(p_slice)
    p_slice.set_defaults(func=_cmd_slice)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--states", type=int, default=GenParams.num_states)
    p_gen.add_argument("--sets", type=int, default=GenParams.num_sets)
    p_gen.add_argument("--vertices", type=int, default=GenParams.vertices_per_set)
    p_gen.add_argument("--denominator", type=int, default=GenParams.denominator_bound)
    add_output(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    p_verify = sub.add_parser("verify", help="run theorem suites over seeded instances")
    p_verify.add_argument("--suites", required=True, help="'all' or comma list")
    p_verify.add_argument("--seeds", required=True, help="A..B inclusive, N, or comma list")
    p_verify.add_argument("--resolution", type=int, default=2)
    p_verify.add_argument("--radius", default="1")
    p_verify.add_argument("--states", type=int, help="fix generator num_states")
    p_verify.add_argument("--sets", type=int, help="fix generator num_sets")
    p_verify.add_argument("--vertices", type=int, help="fix generator vertices_per_set")
    p_verify.add_argument("--denominator", type=int, help="fix generator denominator_bound")
    add_output(p_verify)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def attach_negative_seeds(argv: Sequence[str]) -> list[str]:
    """Write ``--seeds -5..5`` as ``--seeds=-5..5``.

    argparse reads a value that starts with '-' as an option unless it is a
    plain negative number, so a range or list from a negative seed would
    otherwise fail before it reaches ``parse_seed_range``.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--seeds" and re.match(r"-\d", arg):
            out[-1] = f"--seeds={arg}"
        else:
            out.append(arg)
    return out


def run(body: Callable[[], int]) -> int:
    """Return ``body()``, or 2 after one ``error:`` line when it raises a ValueError."""
    try:
        return body()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(attach_negative_seeds(sys.argv[1:] if argv is None else argv))

    def body() -> int:
        check_output(args.output)
        return args.func(args)

    return run(body)


if __name__ == "__main__":
    sys.exit(main())
