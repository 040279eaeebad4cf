"""End-to-end acceptance battery for the verification pipeline.

Every test here prints one live PASS/FAIL line naming the criterion and the
measured quantities behind the verdict, so a plain pytest run doubles as an
acceptance protocol transcript.  The heavyweight seed sweeps run once per
session and are shared across criteria.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction

import pytest

from ambipref import (
    SUITES,
    AlphaMixture,
    AxiomKind,
    BeliefSet,
    GenParams,
    GeneralizedBewley,
    MarginTable,
    Prior,
    SEU,
    SlicePlane,
    UtilityVector,
    VerifyConfig,
    audit,
    build_cbt_witness,
    certify_slice_convexity,
    generate_act_grid,
    generate_instance,
    model_margin,
    pairwise_intersection_holds,
    phi_lattice,
    polytopes_intersect,
    set_max,
    set_min,
    seu_collapse_binary,
    slice_profile,
    suite_outcomes,
    utility_vector,
    verify,
    weak_relation,
)

F = Fraction
SEED_COUNT = 100
GRID_STEP = 100


def announce(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(("PASS " if ok else "FAIL ") + text, flush=True)
    assert ok, text


def entry_for(report, name: str):
    return next(e for e in report.suites if e.theorem == name)


@pytest.fixture(scope="session")
def full_report():
    """All eleven suites over the full seed range, fanned over four workers."""
    previous = os.environ.get("AMBIPREF_THREADS")
    os.environ["AMBIPREF_THREADS"] = "4"
    try:
        return verify(SUITES, range(SEED_COUNT))
    finally:
        if previous is None:
            os.environ.pop("AMBIPREF_THREADS", None)
        else:
            os.environ["AMBIPREF_THREADS"] = previous


@pytest.fixture(scope="session")
def timed_audit_run():
    """The three headline audits, timed serially against their budget."""
    start = time.monotonic()
    report = verify(["thm2", "thm3", "thm4"], range(SEED_COUNT))
    return report, time.monotonic() - start


# ---------------------------------------------------------------- criterion 1


def _hull_2d(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone-chain hull, counterclockwise; degenerate inputs collapse."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return [pts[0], pts[-1]]
    return hull


def _inside_2d(hull: list[tuple[int, int]], q: tuple[int, int]) -> bool:
    if len(hull) == 1:
        return q == hull[0]
    if len(hull) == 2:
        (ax, ay), (bx, by) = hull
        if (bx - ax) * (q[1] - ay) - (by - ay) * (q[0] - ax) != 0:
            return False
        dot = (q[0] - ax) * (bx - ax) + (q[1] - ay) * (by - ay)
        return 0 <= dot <= (bx - ax) ** 2 + (by - ay) ** 2
    for i in range(len(hull)):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % len(hull)]
        if (bx - ax) * (q[1] - ay) - (by - ay) * (q[0] - ax) < 0:
            return False
    return True


def _grid_insiders(bset: BeliefSet, num_states: int) -> list[tuple[int, ...]]:
    """Barycentric step-1/100 grid points inside the set's hull, as integers."""
    if num_states == 2:
        masses = [v.probs[0] * GRID_STEP for v in bset.vertices]
        lo, hi = math.ceil(min(masses)), math.floor(max(masses))
        return [(x, GRID_STEP - x) for x in range(lo, hi + 1)]
    scaled = [tuple(p * GRID_STEP for p in v.probs) for v in bset.vertices]
    assert all(c.denominator == 1 for v in scaled for c in v), "vertices off-grid"
    verts = [tuple(int(c) for c in v) for v in scaled]
    hull = _hull_2d([(v[0], v[1]) for v in verts])
    points = []
    for x in range(GRID_STEP + 1):
        for y in range(GRID_STEP + 1 - x):
            if _inside_2d(hull, (x, y)):
                points.append((x, y, GRID_STEP - x - y))
    return points


def test_criterion_01_dense_grid_oracle(capsys):
    start = time.monotonic()
    checked = 0
    worst = F(0)
    for seed in range(50):
        num_states = 2 if seed < 25 else 3
        inst = generate_instance(
            seed, GenParams(num_states=num_states, denominator_bound=10)
        )
        battery = [
            phi
            for phi in phi_lattice(num_states, 1)
            if any(e != 0 for e in phi.entries)
        ]
        for bset in inst.collection.sets:
            insiders = _grid_insiders(bset, num_states)
            assert insiders, f"seed {seed} set {bset.name}: no grid points inside"
            for phi in battery:
                coeffs = phi.entries
                vals = [sum(c * e for c, e in zip(q, coeffs)) for q in insiders]
                grid_min = F(min(vals), GRID_STEP)
                grid_max = F(max(vals), GRID_STEP)
                exact_min = set_min(bset, phi)
                exact_max = set_max(bset, phi)
                tol = max(abs(e) for e in coeffs) * F(num_states, GRID_STEP)
                assert exact_min <= grid_min <= exact_min + tol
                assert exact_max - tol <= grid_max <= exact_max
                worst = max(worst, grid_min - exact_min, exact_max - grid_max)
                checked += 1

    # an off-grid hull, so the tolerance is genuinely exercised
    sevenths = BeliefSet(
        "sevenths", (Prior((F(1, 7), F(6, 7))), Prior((F(3, 7), F(4, 7))))
    )
    bet = UtilityVector((F(1), F(-1)))
    insiders = _grid_insiders(sevenths, 2)
    grid_min = F(min(x - y for x, y in insiders), GRID_STEP)
    gap = grid_min - set_min(sevenths, bet)
    assert gap == F(1, 70)
    assert gap <= F(2, 100)

    elapsed = time.monotonic() - start
    ok = elapsed < 60
    announce(
        capsys,
        ok,
        f"criterion 1: grid oracle matched set_min/set_max on {checked} "
        f"set-direction pairs, worst gap {worst}, off-grid gap 1/70 within "
        f"2/100 ({elapsed:.1f}s)",
    )


# ------------------------------------------------------------- criteria 2-4


def test_criterion_02_disjunctive_completeness(capsys, timed_audit_run):
    report, elapsed = timed_audit_run
    entry = entry_for(report, "thm2")
    ok = (
        entry.passed
        and entry.instances == SEED_COUNT
        and entry.counterexamples == ()
        and elapsed < 120
    )
    announce(
        capsys,
        ok,
        f"criterion 2: disjunctive completeness clean on {entry.instances} "
        f"instances, resolution 2 radius 1 ({elapsed:.1f}s for all three audits)",
    )


def test_criterion_03_conjunctive_bound_transitivity(capsys, timed_audit_run):
    report, _ = timed_audit_run
    entry = entry_for(report, "thm3")
    ok = entry.passed and entry.instances == SEED_COUNT and entry.counterexamples == ()
    announce(
        capsys,
        ok,
        f"criterion 3: conjunctive constant-bound transitivity clean on "
        f"{entry.instances} instances",
    )


def test_criterion_04_half_mixture_both_audits(capsys, timed_audit_run):
    report, _ = timed_audit_run
    entry = entry_for(report, "thm4")
    ok = entry.passed and entry.instances == SEED_COUNT and entry.counterexamples == ()
    announce(
        capsys,
        ok,
        f"criterion 4: half-mixture completeness and bound transitivity clean "
        f"on {entry.instances} instances",
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_05_operator_commutation(capsys, full_report):
    entry = entry_for(full_report, "prop1")
    ok = entry.passed and entry.instances == SEED_COUNT and entry.counterexamples == ()
    announce(
        capsys,
        ok,
        f"criterion 5: maxmin/minmax agree whenever both parametric conditions "
        f"hold, {entry.instances} instances, zero disagreements",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_06_cutting_hyperplane_vs_completeness(
    capsys, full_report, disjoint_pair, touching_intervals, overlapping_intervals
):
    entry = entry_for(full_report, "prop3")
    cfg = VerifyConfig()
    hand = {
        "disjoint": suite_outcomes(disjoint_pair, ["prop3"], cfg)["prop3"],
        "touching": suite_outcomes(touching_intervals, ["prop3"], cfg)["prop3"],
        "overlapping": suite_outcomes(overlapping_intervals, ["prop3"], cfg)["prop3"],
    }
    ok = (
        entry.passed
        and entry.instances == SEED_COUNT
        and all(out.ok for out in hand.values())
    )
    announce(
        capsys,
        ok,
        f"criterion 6: cutting-hyperplane verdicts match completeness audits on "
        f"{entry.instances} seeded instances plus 3 hand-built ones",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_07_intersection_certificates(
    capsys, full_report, disjoint_pair, touching_intervals, overlapping_intervals
):
    collections = [
        disjoint_pair.collection,
        touching_intervals.collection,
        overlapping_intervals.collection,
    ]
    cfg = VerifyConfig()
    for seed in range(10):
        collections.append(
            generate_instance(seed, cfg.params_for_seed(seed)).collection
        )
    certified = 0
    ok = True
    for collection in collections:
        report = pairwise_intersection_holds(collection)
        for pair in report.entries:
            first = collection.get(pair.first)
            second = collection.get(pair.second)
            ok = ok and pair.result.verify(first, second)
            certified += 1

    low, high = disjoint_pair.collection.sets
    cert = polytopes_intersect(low, high)
    x0, f, xe = build_cbt_witness(disjoint_pair.collection, cert, disjoint_pair)
    u0 = utility_vector(disjoint_pair.utility, x0)
    ue = utility_vector(disjoint_pair.utility, xe)
    triple = audit(
        AxiomKind.CONSTANT_BOUND_TRANSITIVITY,
        GeneralizedBewley(),
        disjoint_pair,
        [x0, f, xe],
    )
    ok = ok and not triple.passed
    ok = ok and ue.entries[0] > u0.entries[0]
    margins = triple.witnesses[0].margins if triple.witnesses else ()

    for inst in (touching_intervals, overlapping_intervals):
        battery = generate_act_grid(inst, 2, F(1))
        rep = audit(
            AxiomKind.CONSTANT_BOUND_TRANSITIVITY, GeneralizedBewley(), inst, battery
        )
        ok = ok and rep.passed
    entry = entry_for(full_report, "prop4")
    ok = ok and entry.passed and entry.instances == SEED_COUNT
    announce(
        capsys,
        ok,
        f"criterion 7: {certified} intersection certificates re-verified; "
        f"disjoint pair replays a sandwich violation with margins "
        f"{tuple(str(m) for m in margins)}; intersecting collections audit clean",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_08_binary_collapse(capsys, full_report, touching_intervals):
    entry = entry_for(full_report, "prop2")
    prior = seu_collapse_binary(touching_intervals.collection)
    ok = prior is not None and prior.probs == (F(2, 5), F(3, 5))

    battery = generate_act_grid(touching_intervals, 2, F(1))
    uvecs = [utility_vector(touching_intervals.utility, a) for a in battery]
    gb_rows, _ = weak_relation(
        MarginTable(touching_intervals, uvecs), GeneralizedBewley(), touching_intervals
    )
    seu_rows, _ = weak_relation(
        MarginTable(touching_intervals, uvecs),
        SEU(prior),
        touching_intervals,
    )
    ok = ok and gb_rows == seu_rows
    ok = ok and entry.passed and entry.instances == 50
    announce(
        capsys,
        ok,
        f"criterion 8: collapse prior matches the set model on all "
        f"{entry.instances} binary instances; touching intervals give p* = "
        f"({prior.probs[0]}, {prior.probs[1]})",
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_09_negative_axioms_and_verdict_link(capsys, full_report):
    p5 = entry_for(full_report, "prop5")
    p6 = entry_for(full_report, "prop6")
    l3 = entry_for(full_report, "lemma3")
    ok = (
        p5.passed
        and p6.passed
        and l3.passed
        and p5.instances == p6.instances == l3.instances == SEED_COUNT
    )
    announce(
        capsys,
        ok,
        f"criterion 9: negative completeness, negative bound transitivity, and "
        f"the completeness link all pass; boundary_flags "
        f"prop5={p5.boundary_flags} prop6={p6.boundary_flags} "
        f"lemma3={l3.boundary_flags}",
    )


# -------------------------------------------------------------- criterion 10


def test_criterion_10_mixture_violation_replay(capsys, full_report):
    entry = entry_for(full_report, "fig4")
    ok = entry.passed and len(entry.counterexamples) > 0
    replayed = {}
    if ok:
        witness = entry.counterexamples[0]
        cfg = VerifyConfig()
        seed = witness["seed"]
        inst = generate_instance(seed, cfg.params_for_seed(seed))
        battery = generate_act_grid(inst, cfg.resolution, cfg.radius)
        uvecs = [utility_vector(inst.utility, battery[i]) for i in witness["acts"]]
        kind = AlphaMixture(F(3, 4))
        if witness["axiom"] == "completeness":
            i, j = range(2)
            pairs = [(i, j), (j, i)]
        else:
            a, f, b = range(3)
            pairs = [(a, f), (f, b), (a, b)]
        margins = [
            str(model_margin(kind, inst.collection, uvecs[i] - uvecs[j]))
            for i, j in pairs
        ]
        replayed = {
            "seed": seed,
            "axiom": witness["axiom"],
            "margins": margins,
        }
        ok = margins == witness["margins"]
    announce(
        capsys,
        ok,
        f"criterion 10: alpha=3/4 mixture violation replayed exactly "
        f"({replayed})",
    )


# -------------------------------------------------------------- criterion 11


def test_criterion_11_slice_convexity(capsys):
    cfg = VerifyConfig()
    checked = 0
    ok = True
    for seed in range(20):
        inst = generate_instance(seed, cfg.params_for_seed(seed))
        if inst.num_states == 2:
            directions = [(1, 0), (0, 1), (1, -1)]
        else:
            directions = [(1, 0, 0), (0, 1, 0), (1, -1, 1)]
        for direction in directions:
            plane = SlicePlane.through([F(d) for d in direction])
            verdicts = {}
            for n in (64, 128):
                profile = slice_profile(inst.collection, plane, n)
                for cone in ("conjunctive", "disjunctive", "half"):
                    verdict = certify_slice_convexity(profile, cone)
                    ok = ok and verdict.convex
                    verdicts[(cone, n)] = verdict
                    checked += 1
                half = verdicts[("half", n)]
                if half.arcs:
                    start, length = half.arcs[0]
                    ok = ok and length in (n // 2, n // 2 + 1)
                    if length == n // 2 + 1:
                        first = profile.samples[start]
                        last = profile.samples[(start + length - 1) % n]
                        ok = ok and first.half == 0 and last.half == 0
            for cone in ("conjunctive", "disjunctive", "half"):
                coarse = verdicts[(cone, 64)]
                fine = verdicts[(cone, 128)]
                ok = ok and coarse.convex == fine.convex
                ok = ok and len(coarse.arcs) == len(fine.arcs)
    announce(
        capsys,
        ok,
        f"criterion 11: {checked} slice certificates convex (conjunctive, "
        f"disjunctive complement, exact half-turn) and stable from 64 to 128 "
        f"samples on 20 instances x 3 directions",
    )
