"""Seeded verification suites tying audits to parametric analysis.

Each suite replays one published result over generated instances: the
structural theorems as direct audits, the characterizations as two-sided
checks between a parametric decision and a replayable witness.

Every suite reads one per-seed context: the instance, its lattice table and
label, and the cutting hyperplane and Samet separation, each found on first use.

One suite's per-seed outcomes merge, in seed order, into its report entry.
Only applicable seeds count; counterexamples are stamped with their seed,
batteries are listed once in first-seen order, and boundary flags are summed.
A paper suite passes when every seed is ok, so any counterexample fails it.
The figure suite inverts the logic: it passes when any seed found a
violation, keeps the first four as evidence, and fails only when no
violation could be exhibited at all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .analysis import (
    build_cbt_witness,
    build_incompleteness_witness,
    check_commutativity,
    find_cutting_hyperplane,
    pair_entries,
    phi_lattice,
    seu_collapse_binary,
)
from .analysis import pairwise_intersection_holds  # noqa: F401  (perfbench/tracer.py wraps it here)
from .axioms import (
    AuditReport,
    AxiomKind,
    Battery,
    MarginTable,
    audit,
    battery_label,
    check_lattice,
    weak_relation,
)
from .axioms import generate_act_grid  # noqa: F401  (perfbench/tracer.py wraps it here)
from .generate import GenParams, generate_instance
from .margins import (
    AlphaMixture,
    Conjunctive,
    Disjunctive,
    GeneralizedBewley,
    HalfMixture,
    SEU,
    model_margin,
)
from .model import Instance, act_from_utility_vector, constant_act

__all__ = [
    "SCHEMA_VERSION",
    "SUITES",
    "UnknownSuite",
    "VerifyConfig",
    "SuiteOutcome",
    "SuiteEntry",
    "VerificationReport",
    "check_suites",
    "suite_outcomes",
    "verify",
]

SCHEMA_VERSION = 1
# The ``all`` selection; a suite in ``_SUITE_FUNCS`` but not here runs only by name.
SUITES = (
    "thm2",
    "thm3",
    "thm4",
    "prop1",
    "prop2",
    "prop3",
    "prop4",
    "prop5",
    "prop6",
    "lemma3",
    "fig4",
)
THREADS_ENV = "AMBIPREF_THREADS"


class UnknownSuite(ValueError):
    """A requested suite name is not registered."""


@dataclass(frozen=True)
class VerifyConfig:
    """Battery scale and generator sizing for a verification run.

    With ``params`` unset, seeds alternate between two- and three-state
    instances so every run exercises both the interval geometry and a
    genuinely multidimensional one.
    """

    resolution: int = 2
    radius: Fraction = Fraction(1)
    params: Optional[GenParams] = None

    def params_for_seed(self, seed: int) -> GenParams:
        if self.params is not None:
            return self.params
        return GenParams(num_states=2 if seed % 2 == 0 else 3)


@dataclass(frozen=True)
class SuiteOutcome:
    """One suite's result on one instance."""

    ok: bool
    applicable: bool
    found: bool
    counterexamples: tuple[dict, ...]
    boundary_flags: int
    batteries: tuple[str, ...]


@dataclass(frozen=True)
class SuiteEntry:
    theorem: str
    instances: int
    batteries: tuple[str, ...]
    verdict: str
    counterexamples: tuple[dict, ...]
    boundary_flags: int

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_jsonable(self) -> dict:
        return {
            "theorem": self.theorem,
            "instances": self.instances,
            "batteries": list(self.batteries),
            "verdict": self.verdict,
            "counterexamples": list(self.counterexamples),
            "boundary_flags": self.boundary_flags,
        }


@dataclass(frozen=True)
class VerificationReport:
    schema_version: int
    seeds: tuple[int, ...]
    suites: tuple[SuiteEntry, ...]

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.suites)

    def to_jsonable(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "seeds": list(self.seeds),
            "suites": [entry.to_jsonable() for entry in self.suites],
        }


def _witness_dicts(report: AuditReport) -> list[dict]:
    doc = report.to_jsonable()
    return [
        {"axiom": doc["axiom"], "model": doc["model"], **w} for w in doc["witnesses"]
    ]


@lru_cache(maxsize=8)
def _lattice_battery(states: int, resolution: int, radius: Fraction) -> Battery:
    """The lattice's battery, built once per process and shared by its seeds."""
    return Battery(states, phi_lattice(states, resolution, radius))


class _SeedContext:
    """One instance's lattice table and label, and the certificates suites read.

    The lattice battery's acts are never built: its utility vectors are this
    lattice, which prop1 also scans, and a table is all the audits read.
    The battery reads no belief set, so every seed with the same state count
    shares one, and each process (each pool worker too) builds it once.
    """

    def __init__(self, instance: Instance, config: VerifyConfig):
        radius = check_lattice(instance, config.resolution, config.radius)
        battery = _lattice_battery(instance.num_states, config.resolution, radius)
        self.instance = instance
        self.table = MarginTable(instance, battery)
        self.desc = battery_label(instance, battery.n, config.resolution, config.radius)

    @cached_property
    def cut(self):
        """A hyperplane straddling every belief set, or None."""
        return find_cutting_hyperplane(self.instance.collection)

    @cached_property
    def separation(self):
        """The Samet separation of the first disjoint pair of sets, or None.

        The walk stops at that pair, so no later pair's program is solved.
        """
        entries = pair_entries(self.instance.collection)
        return next((e.result for e in entries if not e.intersects), None)

    def conditions_hold(self) -> bool:
        """No cutting hyperplane and no disjoint pair: complete and bound-transitive."""
        return self.cut is None and self.separation is None

    def audit(self, axiom: AxiomKind, kind) -> AuditReport:
        """Audit one model on one axiom over the lattice battery."""
        return audit(axiom, kind, self.instance, table=self.table, battery_desc=self.desc)


def _audit_suite(kind, axioms: Sequence[AxiomKind]) -> Callable:
    """A suite that audits one model on a few axioms over the lattice battery."""

    def run(ctx: _SeedContext) -> SuiteOutcome:
        reps = [ctx.audit(axiom, kind) for axiom in axioms]
        return SuiteOutcome(
            ok=all(r.passed for r in reps),
            applicable=True,
            found=False,
            counterexamples=tuple(w for r in reps if not r.passed for w in _witness_dicts(r)),
            boundary_flags=sum(r.boundary_flags for r in reps),
            batteries=(ctx.desc,),
        )

    return run


def _suite_prop1(ctx: _SeedContext) -> SuiteOutcome:
    verdict = check_commutativity(ctx.instance.collection, ctx.table.uvecs)
    bad: list[dict] = []
    if not verdict.holds and ctx.conditions_hold():
        phi, mm, mx = verdict.counterexample  # type: ignore[misc]
        bad.append(
            {
                "detail": "parametric conditions hold yet the operators disagree",
                "phi": [str(e) for e in phi.entries],
                "maxmin": str(mm),
                "minmax": str(mx),
            }
        )
    return SuiteOutcome(
        ok=not bad,
        applicable=True,
        found=False,
        counterexamples=tuple(bad),
        boundary_flags=0,
        batteries=(f"raw direction lattice, {ctx.table.n} vectors",),
    )


def _suite_prop2(ctx: _SeedContext) -> SuiteOutcome:
    instance, table, desc = ctx.instance, ctx.table, ctx.desc
    if instance.num_states != 2:
        return SuiteOutcome(True, False, False, (), 0, ())
    if not ctx.conditions_hold():
        return SuiteOutcome(True, True, False, (), 0, (desc,))
    collapse = seu_collapse_binary(instance.collection)
    if collapse is None:
        bad = ({"detail": "parametric conditions hold but no collapse prior exists"},)
        return SuiteOutcome(False, True, False, bad, 0, (desc,))
    w_gb, flags_gb = weak_relation(table, GeneralizedBewley(), instance)
    w_seu, flags_seu = weak_relation(table, SEU(collapse), instance)
    flags = flags_gb + flags_seu
    i = next((i for i, (a, b) in enumerate(zip(w_gb, w_seu)) if a != b), None)
    if i is None:
        return SuiteOutcome(True, True, False, (), flags, (desc,))
    diff = w_gb[i] ^ w_seu[i]
    j = (diff & -diff).bit_length() - 1
    phi = table.uvecs[i] - table.uvecs[j]
    bad = (
        {
            "detail": "collapse prior disagrees with the set-based model",
            "pair": [i, j],
            "maxmin_margin": str(model_margin(GeneralizedBewley(), instance.collection, phi)),
            "seu_margin": str(model_margin(SEU(collapse), instance.collection, phi)),
        },
    )
    return SuiteOutcome(False, True, False, bad, flags, (desc,))


def _replay(
    ctx: _SeedContext, axiom: AxiomKind, cert, build: Callable, *,
    held: str, built: str, clean: str, evidence: Callable[..., dict],
) -> SuiteOutcome:
    """A characterization of the set-based model, replayed in both directions.

    With no certificate the condition holds, and the axiom must pass on the
    lattice battery; ``held`` names a failure.  Otherwise
    ``build(collection, cert, instance)`` turns the certificate into the
    acts of the ``built`` battery, which must violate the axiom; ``clean``
    and ``evidence(cert)`` name what was certified when they do not.
    """
    instance = ctx.instance
    if cert is None:
        scan = _audit_suite(GeneralizedBewley(), [axiom])(ctx)
        bad = tuple({"detail": held, **w} for w in scan.counterexamples)
        return replace(scan, counterexamples=bad)
    try:
        acts = build(instance.collection, cert, instance)
    except (ValueError, RuntimeError) as exc:
        bad = ({"detail": f"witness construction failed: {exc}"},)
        return SuiteOutcome(False, True, False, bad, 0, (ctx.desc,))
    rep = audit(axiom, GeneralizedBewley(), instance, acts, battery_desc=built)
    bad = [{"detail": clean, **evidence(cert)}] if rep.passed else []
    return SuiteOutcome(not bad, True, False, tuple(bad), rep.boundary_flags, (built,))


def _suite_prop3(ctx: _SeedContext) -> SuiteOutcome:
    return _replay(
        ctx, AxiomKind.COMPLETENESS, ctx.cut, build_incompleteness_witness,
        held="no cutting hyperplane, yet completeness failed",
        built="constructed incomparable pair",
        clean="cutting hyperplane found but the witness pair is comparable",
        evidence=lambda cut: {"normal": [str(e) for e in cut.normal.entries]},
    )


def _suite_prop4(ctx: _SeedContext) -> SuiteOutcome:
    return _replay(
        ctx, AxiomKind.CONSTANT_BOUND_TRANSITIVITY, ctx.separation, build_cbt_witness,
        held="all pairs intersect, yet bound transitivity failed",
        built="constructed sandwich triple",
        clean="disjoint pair found but the sandwich triple audits clean",
        evidence=lambda cert: {"slack": str(cert.slack)},
    )


_HALF_DIFFERENCE = "constructed half-difference pair"


def _suite_lemma3(ctx: _SeedContext) -> SuiteOutcome:
    # A negative-transitivity witness (x, f, y) makes (x, f) an incomparable
    # battery pair, so that audit cannot fail alone.  Completeness can, since
    # a lattice need not hold h = (u_i - u_j)/2 for its incomparable pair
    # (i, j).  The set-based margin is positively homogeneous, so m(h) and
    # m(-h) are both negative and (x0, h, x0) breaks negative transitivity on
    # the pair [x0, h]; h fits the utility range, as |u_i - u_j|/2 <= radius.
    instance = ctx.instance
    reps = [
        ctx.audit(axiom, GeneralizedBewley())
        for axiom in (AxiomKind.COMPLETENESS, AxiomKind.NEGATIVE_CONSTANT_BOUND_TRANSITIVITY)
    ]
    comp, ncbt = reps
    batteries: tuple[str, ...] = (ctx.desc,)
    if not comp.passed and ncbt.passed:
        i, j = comp.witnesses[0].indices
        h = (ctx.table.uvecs[i] - ctx.table.uvecs[j]).scale(Fraction(1, 2))
        pair = [constant_act(instance, Fraction(0)), act_from_utility_vector(instance, h.entries)]
        ncbt = audit(
            AxiomKind.NEGATIVE_CONSTANT_BOUND_TRANSITIVITY, GeneralizedBewley(), instance,
            pair, battery_desc=_HALF_DIFFERENCE,
        )
        reps.append(ncbt)
        batteries += (_HALF_DIFFERENCE,)
    bad: list[dict] = []
    if comp.passed != ncbt.passed:
        bad.append(
            {
                "detail": "completeness and negative bound transitivity disagree",
                "completeness_passed": comp.passed,
                "negative_cbt_passed": ncbt.passed,
                "battery": batteries[-1],
            }
        )
    flags = sum(r.boundary_flags for r in reps)
    return SuiteOutcome(not bad, True, False, tuple(bad), flags, batteries)


def _suite_fig4(ctx: _SeedContext) -> SuiteOutcome:
    scan = _audit_suite(
        AlphaMixture(Fraction(3, 4)),
        [AxiomKind.COMPLETENESS, AxiomKind.CONSTANT_BOUND_TRANSITIVITY],
    )(ctx)
    return replace(scan, ok=True, found=not scan.ok, counterexamples=scan.counterexamples[:2])


_SUITE_FUNCS: dict[str, Callable[[_SeedContext], SuiteOutcome]] = {
    "thm2": _audit_suite(Disjunctive(), [AxiomKind.COMPLETENESS]),
    "thm3": _audit_suite(Conjunctive(), [AxiomKind.CONSTANT_BOUND_TRANSITIVITY]),
    "thm4": _audit_suite(
        HalfMixture(), [AxiomKind.COMPLETENESS, AxiomKind.CONSTANT_BOUND_TRANSITIVITY]
    ),
    "prop1": _suite_prop1,
    "prop2": _suite_prop2,
    "prop3": _suite_prop3,
    "prop4": _suite_prop4,
    "prop5": _audit_suite(Conjunctive(), [AxiomKind.NEGATIVE_COMPLETENESS]),
    "prop6": _audit_suite(
        Disjunctive(), [AxiomKind.NEGATIVE_CONSTANT_BOUND_TRANSITIVITY]
    ),
    "lemma3": _suite_lemma3,
    "fig4": _suite_fig4,
}


def suite_outcomes(
    instance: Instance, suites: Sequence[str], config: VerifyConfig
) -> dict[str, SuiteOutcome]:
    """Run the requested suites on one instance with shared margin work."""
    ctx = _SeedContext(instance, config)
    return {name: _SUITE_FUNCS[name](ctx) for name in suites}


def _seed_work(args: tuple[int, tuple[str, ...], VerifyConfig]):
    seed, suites, config = args
    instance = generate_instance(seed, config.params_for_seed(seed))
    return seed, suite_outcomes(instance, suites, config)


def _worker_count(jobs: int) -> int:
    """Pool size from AMBIPREF_THREADS, clamped to the jobs and the CPUs.

    Unset or empty means one worker; any value but a decimal integer >= 1 is
    a ValueError.
    """
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"{THREADS_ENV} must be a decimal integer >= 1, got {raw!r}")
    return max(1, min(int(raw), jobs, os.cpu_count() or 1))


def _merge(name: str, results: Sequence[tuple[int, dict[str, SuiteOutcome]]]) -> SuiteEntry:
    """One suite's entry from its per-seed outcomes, by the merge rule above."""
    runs = [(seed, out[name]) for seed, out in results if out[name].applicable]
    found = [{"seed": seed, **item} for seed, out in runs for item in out.counterexamples]
    if name == "fig4":
        passed = any(out.found for _, out in runs)
        found = found[:4] if passed else [
            {"detail": "no mixture violation found across the seed range"}
        ]
    else:
        passed = all(out.ok for _, out in runs)
    return SuiteEntry(
        theorem=name,
        instances=len(runs),
        batteries=tuple(dict.fromkeys(desc for _, out in runs for desc in out.batteries)),
        verdict="pass" if passed else "fail",
        counterexamples=tuple(found),
        boundary_flags=sum(out.boundary_flags for _, out in runs),
    )


def check_suites(names: Iterable[str]) -> list[str]:
    """``names`` without repeats, in order; UnknownSuite if any is not registered."""
    requested = list(dict.fromkeys(names))
    for name in requested:
        if name not in _SUITE_FUNCS:
            raise UnknownSuite(f"unknown suite {name!r}; expected one of {', '.join(_SUITE_FUNCS)}")
    return requested


def verify(
    suites: Sequence[str],
    seeds: Iterable[int],
    config: VerifyConfig | None = None,
) -> VerificationReport:
    """Run suites over a seed range and assemble the versioned report.

    Set the AMBIPREF_THREADS environment variable above 1 to fan seeds out
    over a process pool of that many workers, capped at the number of seeds
    and of CPUs, handed the seeds in chunks, about four chunks per worker;
    results are merged in seed order either way, so the report does not
    depend on the worker count.  A setting that is not a decimal
    integer >= 1 raises ValueError before any seed runs.
    """
    config = config or VerifyConfig()
    requested = check_suites(suites)
    seed_list = list(seeds)
    jobs = [(s, tuple(requested), config) for s in seed_list]
    workers = _worker_count(len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays for the import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_seed_work, jobs,
                                    chunksize=max(1, len(jobs) // (4 * workers))))
    else:
        results = [_seed_work(job) for job in jobs]
    return VerificationReport(
        schema_version=SCHEMA_VERSION,
        seeds=tuple(seed_list),
        suites=tuple(_merge(name, results) for name in requested),
    )
