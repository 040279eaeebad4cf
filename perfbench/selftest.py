"""Self-tests for the benchmark's output checks.

Each check must accept the library's real output and reject a tampered
copy: a certificate with a wrong value, a flipped verdict, a wrong slice
sample.  The slice closed form must also agree with ``slice_profile`` on the
bundled ``instances/*.json``.  ``run.py`` runs these before every
measurement; run them alone with

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_DIRECTIONS = ((1, 0), (1, -1), (1, -3))


def _expect(problems: list[str], label: str, accepted: list[str], rejected: list[str]):
    if accepted:
        problems.append(f"self-test {label}: real output rejected: {accepted[0]}")
    if not rejected:
        problems.append(f"self-test {label}: tampered output accepted")


def _slices(problems):
    import oracles
    from ambipref import CONES, SlicePlane, certify_slice_convexity, load_instance, slice_profile

    paths = sorted((ROOT / "instances").glob("*.json"))
    if not paths:
        problems.append("self-test slices: no bundled instances found")
    for path in paths:
        instance = load_instance(str(path))
        sets = oracles.vertex_sets(instance.collection)
        for direction in BUNDLED_DIRECTIONS:
            plane = SlicePlane.through([Fraction(d) for d in direction])
            profile = slice_profile(instance.collection, plane, 64, alpha=oracles.ALPHA)
            verdicts = [certify_slice_convexity(profile, c) for c in CONES]
            good = oracles.check_slice(profile, verdicts, sets, direction, 64)
            samples = list(profile.samples)
            samples[5] = dataclasses.replace(samples[5], maxmin=samples[5].maxmin + 1)
            wrong = dataclasses.replace(profile, samples=tuple(samples))
            bad = oracles.check_slice(wrong, verdicts, sets, direction, 64)
            _expect(problems, f"slice {path.stem} {direction}", good, bad)


def _certificates(problems):
    import oracles
    from ambipref import GenParams, analyze, generate_instance, load_instance

    def tampered(report, entry_kind):
        for pos, entry in enumerate(report.pairwise.entries):
            cert = entry.result
            if type(cert).__name__ != entry_kind:
                continue
            if entry_kind == "CommonPrior":
                w = list(cert.weights_first)
                w[0], w[-1] = w[-1] + 1, w[0] - 1
                cert = dataclasses.replace(cert, weights_first=tuple(w))
            else:
                cert = dataclasses.replace(cert, slack=cert.slack / 2)
            entries = list(report.pairwise.entries)
            entries[pos] = dataclasses.replace(entry, result=cert)
            pairwise = dataclasses.replace(report.pairwise, entries=tuple(entries))
            return dataclasses.replace(report, pairwise=pairwise)
        return None

    instances = [load_instance(str(p)) for p in sorted((ROOT / "instances").glob("*.json"))]
    instances.append(generate_instance(0, GenParams(num_states=3, num_sets=4, vertices_per_set=6)))
    seen = set()
    for instance in instances:
        report = analyze(instance)
        good = oracles.check_analysis(report, instance)
        if good:
            problems.append(f"self-test certificates: real output rejected: {good[0]}")
        for kind in ("CommonPrior", "SametCertificate"):
            bad_report = tampered(report, kind)
            if bad_report is not None:
                seen.add(kind)
                _expect(problems, kind, [], oracles.check_analysis(bad_report, instance))
        if report.cutting is not None:
            seen.add("CuttingHyperplane")
            cut = dataclasses.replace(report.cutting, offset=Fraction(10))
            _expect(problems, "CuttingHyperplane", [],
                    oracles.check_analysis(dataclasses.replace(report, cutting=cut), instance))
    if len(seen) != 3:
        problems.append(f"self-test certificates: only exercised {sorted(seen)}")


def _verdicts(problems):
    import oracles
    from ambipref import SUITES, VerifyConfig, generate_instance, verify

    config = VerifyConfig()
    docs = [verify(SUITES, [s], config).to_jsonable() for s in (0, 2)]
    instance = generate_instance(0, config.params_for_seed(0))
    good = oracles.check_verify_doc(docs[0], instance, 2)
    for theorem in ("thm2", "fig4"):
        doc = {**docs[0], "suites": [dict(e) for e in docs[0]["suites"]]}
        entry = next(e for e in doc["suites"] if e["theorem"] == theorem)
        entry["verdict"] = "fail" if entry["verdict"] == "pass" else "pass"
        _expect(problems, f"verify {theorem} flipped", good,
                oracles.check_verify_doc(doc, instance, 2))
    merged = oracles.merge_verify_docs(docs)
    if merged != verify(SUITES, [0, 2], config).to_jsonable():
        problems.append("self-test merge: merged single-seed reports differ from one run")


def _audits(problems):
    import oracles
    from ambipref import AxiomKind, audit_suite, generate_act_grid, load_instance
    from workloads import audit_spec, model_kind

    instance = load_instance(str(ROOT / "instances" / "disjoint_pair.json"))
    battery = generate_act_grid(instance, 1, Fraction(1))
    uvecs = [oracles.act_utilities(instance, a) for a in battery]
    for family in ("gb", "half"):
        spec = audit_spec(family, instance)
        reports = audit_suite(model_kind(spec), instance, battery, axioms=list(AxiomKind))
        good = oracles.check_audit_reports(spec, family, instance, uvecs, reports)
        flipped = [
            dataclasses.replace(r, passed=False, total_violations=1)
            if r.axiom.value == "reflexivity" else r
            for r in reports
        ]
        _expect(problems, f"audit {family} flipped", good,
                oracles.check_audit_reports(spec, family, instance, uvecs, flipped))
        failing = [r for r in reports if r.witnesses]
        if failing:
            w = failing[0].witnesses[0]
            bad_w = dataclasses.replace(w, margins=(w.margins[0] + 1,) + w.margins[1:])
            tampered = [
                dataclasses.replace(r, witnesses=(bad_w,) + r.witnesses[1:])
                if r is failing[0] else r
                for r in reports
            ]
            _expect(problems, f"audit {family} witness", good,
                    oracles.check_audit_reports(spec, family, instance, uvecs, tampered))
        elif family == "gb":
            problems.append("self-test audit: expected a failing gb audit to tamper with")


def run_selftests() -> list[str]:
    problems: list[str] = []
    for test in (_slices, _certificates, _verdicts, _audits):
        test(problems)
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    found = run_selftests()
    for line in found:
        print(line)
    print("self-tests passed" if not found else f"{len(found)} self-test problems")
    sys.exit(1 if found else 0)
