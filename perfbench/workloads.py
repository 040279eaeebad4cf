"""The benchmark's workloads: seeded inputs, one call per item, output checks.

Every workload is a closed loop with one client: the next item starts when
the previous one returns.  Calls go through module attributes (for example
``analysis.analyze``) so that a tracer wrapping those names sees them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import oracles

verify_mod = importlib.import_module("ambipref.verify")
axioms = importlib.import_module("ambipref.axioms")
analysis = importlib.import_module("ambipref.analysis")
slices = importlib.import_module("ambipref.slices")
generate = importlib.import_module("ambipref.generate")
margins = importlib.import_module("ambipref.margins")
model = importlib.import_module("ambipref.model")

# Bound before any tracer is installed, so oracle-side generation is never
# traced.
_generate_untraced = generate.generate_instance

SLICE_SAMPLES = 256
DIRECTIONS = {
    3: ((1, -1, 0), (0, 1, -1), (1, 1, -2)),
    4: ((1, -1, 0, 0), (0, 0, 1, -1), (1, 1, -1, -1)),
}
AUDIT_FAMILIES = (
    "gb", "disjunctive", "conjunctive", "half", "alpha", "bewley", "justifiable", "seu",
)


class Workload:
    name = ""
    rate = 1.0  # items per second on a 2-core x86 box with Python 3.11

    max_items = 10**6
    traced_items = 0

    def sizes(self, seconds: int) -> tuple[int, int]:
        """(items in a measured run, items in a traced pass) for a run length."""
        items = min(self.max_items, max(8, round(seconds * self.rate)))
        return items, self.traced_items or max(4, items // 4)

    def setup(self, seed: int, count: int) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> list[str]:
        raise NotImplementedError

    def keep(self, output):
        """The part of an item's output that finish() needs after the loop."""
        return None

    def finish(self, items, outputs) -> tuple[list[str], dict]:
        """Checks over the whole window, outside the timed loop."""
        return [], {}


class VerifySweep(Workload):
    """One ``verify(SUITES, [seed])`` per seed over a contiguous window.

    An item is one even/odd seed pair, so it holds one 2-state and one
    3-state instance (the default generator alternates by parity) and item
    times are not split between two far-apart modes.  The window starts at
    2 * (seed mod 8) and ends below seed 128, so every window holds the one
    lemma3 escalation to the 729-act battery in 0..127 (seed 15): each run
    pays for it once.
    """

    name = "verify_sweep"
    rate = 1.33
    max_items = 56
    traced_items = 8

    def setup(self, seed, count):
        base = 2 * (seed % 8)
        self.config = verify_mod.VerifyConfig()
        return [(base + 2 * k, base + 2 * k + 1) for k in range(count)]

    def run(self, item):
        return [
            verify_mod.verify(verify_mod.SUITES, [s], self.config).to_jsonable()
            for s in item
        ]

    def check(self, item, output):
        problems = []
        for seed, doc in zip(item, output):
            if doc["seeds"] != [seed]:
                problems.append(f"seed {seed}: report covers {doc['seeds']}")
                continue
            params = self.config.params_for_seed(seed)
            instance = _generate_untraced(seed, params)
            problems += [
                f"seed {seed}: {p}"
                for p in oracles.check_verify_doc(doc, instance, params.num_states)
            ]
        return problems

    def keep(self, output):
        return output

    def finish(self, items, outputs):
        docs = [doc for out in outputs if out is not None for doc in out]
        fig4 = [d for d in docs for e in d["suites"]
                if e["theorem"] == "fig4" and e["verdict"] == "pass"]
        problems = [] if fig4 else ["fig4 found no mixture violation in the window"]
        problems += check_golden()
        info = {
            "window_seeds": [items[0][0], items[-1][1]],
            "lemma3_escalations": sum(
                "resolution=4 " in b
                for d in docs for e in d["suites"] if e["theorem"] == "lemma3"
                for b in e["batteries"]
            ),
        }
        return problems, info

    def pool_pass(self, items, outputs) -> tuple[list[str], dict]:
        """The window as one verify() call over a 2-process pool."""
        import resource
        import time

        seeds = [s for item in items for s in item]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        saved = os.environ.get(verify_mod.THREADS_ENV)
        os.environ[verify_mod.THREADS_ENV] = "2"
        try:
            start = time.perf_counter()
            doc = verify_mod.verify(verify_mod.SUITES, seeds, self.config).to_jsonable()
            wall = time.perf_counter() - start
        finally:
            if saved is None:
                del os.environ[verify_mod.THREADS_ENV]
            else:
                os.environ[verify_mod.THREADS_ENV] = saved
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        serial = [d for out in outputs if out is not None for d in out]
        problems = []
        if doc != oracles.merge_verify_docs(serial):
            problems.append("pooled report differs from the merged serial reports")
        return problems, {
            "verify.pool_child_cpu_s": cpu,
            "verify.pool_busy_ratio": cpu / (wall * 2),
            "verify.pool_wall_s": wall,
        }


class AuditAll(Workload):
    """``audit_suite(kind, ..., axioms=all)`` under all eight model kinds.

    Instances alternate 2 and 3 states; 2-state batteries use resolution 2
    (25 acts) and 3-state batteries resolution 1 (27 acts).  Eight
    consecutive items share one instance.
    """

    name = "audit_all"
    rate = 1.6
    traced_items = 16

    def sizes(self, seconds):
        items, traced = super().sizes(seconds)
        return 8 * math.ceil(items / 8), traced

    def setup(self, seed, count):
        n_inst = math.ceil(count / 8)
        items = []
        for k in range(n_inst):
            inst_seed = seed * n_inst + k
            states = 2 if inst_seed % 2 == 0 else 3
            instance = generate.generate_instance(
                inst_seed, generate.GenParams(num_states=states)
            )
            resolution = 2 if states == 2 else 1
            battery = axioms.generate_act_grid(instance, resolution, Fraction(1))
            desc = axioms.battery_label(instance, len(battery), resolution, Fraction(1))
            uvecs = [oracles.act_utilities(instance, act) for act in battery]
            for family in AUDIT_FAMILIES:
                spec = audit_spec(family, instance)
                items.append((instance, battery, desc, uvecs, family, spec))
        return items[:count]

    def run(self, item):
        instance, battery, desc, _, _, spec = item
        return axioms.audit_suite(
            model_kind(spec), instance, battery,
            axioms=list(axioms.AxiomKind), battery_desc=desc,
        )

    def check(self, item, output):
        instance, battery, _, uvecs, family, spec = item
        if uvecs != oracles.lattice(
            instance.num_states, 2 if instance.num_states == 2 else 1
        ):
            return ["battery is not the expected utility lattice"]
        return oracles.check_audit_reports(spec, family, instance, uvecs, output)


class Geometry(Workload):
    """``analyze`` plus slice profiles and convexity verdicts per instance.

    Instances use the generator's largest box (4 sets, up to 6 vertices) and
    alternate 3 and 4 states.  Each is sliced along three fixed directions
    with alpha 3/4 at 256 samples, and every cone of every slice is
    certified.  The window starts at seed mod 4, so every window holds
    instance seeds 6 and 10, the two slowest below 80 (about 2.4 s and
    1.7 s, both in the cutting search), and stays below 80, where no item
    takes longer.  The cutting search has a far heavier tail elsewhere
    (instance seed 150 takes about a minute), which one run of this length
    cannot absorb steadily.
    """

    name = "geometry"
    rate = 2.0
    max_items = 64

    def setup(self, seed, count):
        items = []
        for k in range(count):
            inst_seed = seed % 4 + k
            states = 3 if inst_seed % 2 == 0 else 4
            items.append(
                generate.generate_instance(
                    inst_seed,
                    generate.GenParams(num_states=states, num_sets=4, vertices_per_set=6),
                )
            )
        return items

    def run(self, instance):
        report = analysis.analyze(instance)
        profiles = []
        for direction in DIRECTIONS[instance.num_states]:
            plane = slices.SlicePlane.through([Fraction(d) for d in direction])
            profile = slices.slice_profile(
                instance.collection, plane, SLICE_SAMPLES, alpha=oracles.ALPHA
            )
            verdicts = [
                slices.certify_slice_convexity(profile, cone) for cone in slices.CONES
            ]
            profiles.append((direction, profile, verdicts))
        return report, profiles

    def check(self, instance, output):
        report, profiles = output
        problems = oracles.check_analysis(report, instance)
        sets = oracles.vertex_sets(instance.collection)
        for direction, profile, verdicts in profiles:
            problems += oracles.check_slice(
                profile, verdicts, sets, direction, SLICE_SAMPLES
            )
        if len(profiles) != 3:
            problems.append("expected three slice directions")
        return problems


def audit_spec(family: str, instance):
    n = instance.num_states
    return {
        "alpha": ("alpha", oracles.ALPHA),
        "bewley": ("bewley", "P1"),
        "justifiable": ("justifiable", "P1"),
        "seu": ("seu", tuple(Fraction(1, n) for _ in range(n))),
    }.get(family, (family,))


def model_kind(spec):
    tag = spec[0]
    if tag == "gb":
        return margins.GeneralizedBewley()
    if tag == "disjunctive":
        return margins.Disjunctive()
    if tag == "conjunctive":
        return margins.Conjunctive()
    if tag == "half":
        return margins.HalfMixture()
    if tag == "alpha":
        return margins.AlphaMixture(spec[1])
    if tag == "bewley":
        return margins.Bewley(spec[1])
    if tag == "justifiable":
        return margins.Justifiable(spec[1])
    return margins.SEU(model.Prior(spec[1]))


def golden_path() -> Path:
    return Path(verify_mod.__file__).resolve().parents[2] / "tests" / "data" / "verify_report.json"


def check_golden() -> list[str]:
    """The report for seeds 0..3 must equal the checked-in file byte for byte."""
    report = verify_mod.verify(verify_mod.SUITES, range(4), verify_mod.VerifyConfig())
    text = json.dumps(report.to_jsonable(), indent=2, sort_keys=True) + "\n"
    if text.encode() != golden_path().read_bytes():
        return ["report for seeds 0..3 differs from tests/data/verify_report.json"]
    return []


WORKLOADS = {w.name: w for w in (VerifySweep(), AuditAll(), Geometry())}
