"""Command-line front end: evaluate, audit, analyze, slice, gen, verify.

Exit codes: 0 when the requested check passes, 1 when a verification or
audit turns up a counterexample, 2 on input errors (bad flags, unreadable
files, malformed instances).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import analyze
from .axioms import AxiomKind, audit_suite, battery_label, generate_act_grid
from .generate import GenParams, ParamsOutOfRange, generate_instance
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
    AlphaOutOfRange,
    Instance,
    InstanceValidationError,
    Prior,
    UnknownBeliefSetName,
    dumps_instance,
    load_instance,
    parse_rational,
    utility_vector,
)
from .slices import SlicePlane, export_slice, slice_profile
from .verify import SUITES, UnknownSuite, VerifyConfig, verify

__all__ = ["main", "parse_model", "parse_seed_range", "MAX_BATTERY_ACTS", "MAX_SLICE_SAMPLES"]

# A lattice battery at resolution r on n states has (2r + 1)^n acts, and the
# audits hold an n-by-n margin matrix.  729 is the largest battery any suite
# builds by default: lemma3's escalation to resolution 4 on three states.
MAX_BATTERY_ACTS = 729
MAX_SLICE_SAMPLES = 4096

_MODEL_HELP = (
    "gb | disjunctive | conjunctive | half | alpha:Q | bewley:NAME | "
    "justifiable:NAME | seu:q1,q2,..."
)


class InputError(Exception):
    """User-facing problem with flags or files; maps to exit code 2."""


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
    except (ValueError, AlphaOutOfRange) as exc:
        raise InputError(f"bad model spec {text!r}: {exc}") from exc
    except UnknownBeliefSetName as exc:
        raise InputError(str(exc)) from exc
    raise InputError(f"bad model spec {text!r}; expected {_MODEL_HELP}")


def parse_seed_range(text: str) -> list[int]:
    """Seeds as 'A..B' (inclusive), a single integer, or a comma list."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, _, hi_text = text.partition("..")
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise InputError(f"empty seed range {text!r}")
            return list(range(lo, hi + 1))
        if "," in text:
            return [int(p) for p in text.split(",")]
        return [int(text)]
    except ValueError as exc:
        raise InputError(f"bad seed range {text!r}: {exc}") from exc


def _check_battery(resolution: int, num_states: int, what: str = "") -> None:
    """Reject a lattice battery that is empty or over ``MAX_BATTERY_ACTS``."""
    if resolution < 1:
        raise InputError(f"--resolution must be a positive integer, got {resolution}")
    acts = (2 * resolution + 1) ** num_states
    if acts > MAX_BATTERY_ACTS:
        raise InputError(
            f"resolution {resolution}{what} on {num_states} states gives a battery of "
            f"{acts} acts; the limit is {MAX_BATTERY_ACTS}"
        )


def _load(path: str) -> Instance:
    try:
        return load_instance(path)
    except OSError as exc:
        raise InputError(f"cannot read instance file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"instance file is not valid JSON: {exc}") from exc
    except InstanceValidationError as exc:
        raise InputError(f"invalid instance:\n{exc}") from exc


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_evaluate(args: argparse.Namespace) -> int:
    instance = _load(args.instance)
    kind = parse_model(args.model, instance)
    try:
        left = instance.act(args.left)
        right = instance.act(args.right)
    except KeyError as exc:
        raise InputError(str(exc)) from exc
    phi = phi_between(instance, left, right)
    forward, reverse = margin_pair(kind, instance.collection, phi)
    relation = classify(kind, instance, left, right)
    _emit(
        _json_doc(
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
    instance = _load(args.instance)
    kind = parse_model(args.model, instance)
    axioms = _parse_axioms(args.axioms)
    _check_battery(args.resolution, instance.num_states)
    try:
        radius = parse_rational(args.radius)
        battery = generate_act_grid(instance, args.resolution, radius)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    uvecs = [utility_vector(instance.utility, act) for act in battery]
    desc = battery_label(instance, len(battery), args.resolution, radius)
    reports = audit_suite(kind, instance, battery, axioms=axioms, battery_desc=desc)
    _emit(
        _json_doc({"reports": [r.to_jsonable(uvecs) for r in reports]}),
        args.output,
    )
    return 0 if all(r.passed for r in reports) else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    instance = _load(args.instance)
    report = analyze(instance)
    _emit(_json_doc(report.to_jsonable()), args.output)
    return 0


def _cmd_slice(args: argparse.Namespace) -> int:
    if args.samples > MAX_SLICE_SAMPLES:
        raise InputError(f"--samples {args.samples} exceeds the limit of {MAX_SLICE_SAMPLES}")
    instance = _load(args.instance)
    try:
        direction = [parse_rational(p.strip()) for p in args.direction.split(",")]
        if len(direction) != instance.num_states:
            raise InputError(
                f"direction has {len(direction)} entries, instance has "
                f"{instance.num_states} states"
            )
        plane = SlicePlane.through(direction)
        alpha = parse_rational(args.alpha) if args.alpha is not None else None
        profile = slice_profile(instance.collection, plane, args.samples, alpha)
        text = export_slice(profile, args.format)
    except (ValueError, AlphaOutOfRange) as exc:
        raise InputError(str(exc)) from exc
    _emit(text, args.output)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        params = GenParams(
            num_states=args.states,
            num_sets=args.sets,
            vertices_per_set=args.vertices,
            denominator_bound=args.denominator,
        )
    except ParamsOutOfRange as exc:
        raise InputError(str(exc)) from exc
    instance = generate_instance(args.seed, params)
    _emit(dumps_instance(instance), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = (
        list(SUITES)
        if args.suites.strip().lower() == "all"
        else [s.strip() for s in args.suites.split(",")]
    )
    seeds = parse_seed_range(args.seeds)
    params = None
    if any(v is not None for v in (args.states, args.sets, args.vertices, args.denominator)):
        defaults = GenParams()
        try:
            params = GenParams(
                num_states=args.states if args.states is not None else defaults.num_states,
                num_sets=args.sets if args.sets is not None else defaults.num_sets,
                vertices_per_set=args.vertices
                if args.vertices is not None
                else defaults.vertices_per_set,
                denominator_bound=args.denominator
                if args.denominator is not None
                else defaults.denominator_bound,
            )
        except ParamsOutOfRange as exc:
            raise InputError(str(exc)) from exc
    try:
        radius = parse_rational(args.radius)
        config = VerifyConfig(resolution=args.resolution, radius=radius, params=params)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    states = max(config.params_for_seed(seed).num_states for seed in seeds)
    _check_battery(args.resolution, states)
    if "lemma3" in suites:
        _check_battery(2 * args.resolution, states, " (lemma3's escalation)")
    try:
        report = verify(suites, seeds, config)
    except (UnknownSuite, ValueError) as exc:
        raise InputError(str(exc)) from exc
    _emit(_json_doc(report.to_jsonable()), args.output)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
