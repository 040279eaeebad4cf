from __future__ import annotations

import concurrent.futures
import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import pytest

from ambipref import (
    SCHEMA_VERSION,
    SEU,
    SUITES,
    AxiomKind,
    CommutativityVerdict,
    GeneralizedBewley,
    GenParams,
    Prior,
    UnknownSuite,
    UtilityVector,
    VerifyConfig,
    constant_act,
    generate_instance,
    pairwise_intersection_holds,
    suite_outcomes,
    verify,
)

GOLDEN = Path(__file__).parent / "data" / "verify_report.json"
HALF_DIFFERENCE = "constructed half-difference pair"
verify_mod = importlib.import_module("ambipref.verify")


@pytest.fixture
def fresh_batteries():
    """An empty per-process lattice cache before and after the test."""
    verify_mod._lattice_battery.cache_clear()
    yield
    verify_mod._lattice_battery.cache_clear()


class TestRunner:
    def test_unknown_suite_rejected(self):
        with pytest.raises(UnknownSuite, match="unknown suite 'nope'"):
            verify(["thm2", "nope"], [0])

    def test_duplicate_suite_names_collapse(self):
        report = verify(["thm2", "thm2"], [0])
        assert [e.theorem for e in report.suites] == ["thm2"]
        assert report.suites[0].instances == 1

    def test_deterministic_across_runs(self):
        first = verify(["thm2", "prop1"], range(3))
        second = verify(["thm2", "prop1"], range(3))
        assert first.to_jsonable() == second.to_jsonable()

    def test_worker_pool_matches_serial(self, monkeypatch):
        monkeypatch.delenv("AMBIPREF_THREADS", raising=False)
        serial = verify(["thm2", "prop1"], range(3))
        monkeypatch.setenv("AMBIPREF_THREADS", "2")
        pooled = verify(["thm2", "prop1"], range(3))
        assert serial.to_jsonable() == pooled.to_jsonable()

    @pytest.mark.parametrize("setting", ["many", "0", "-3", "1.5", "2x", "+2"])
    def test_bad_thread_setting_is_rejected_before_any_seed_runs(self, monkeypatch, setting):
        def refuse(job):
            raise AssertionError("a seed ran despite a bad worker count")

        monkeypatch.setattr(verify_mod, "_seed_work", refuse)
        monkeypatch.setenv("AMBIPREF_THREADS", setting)
        with pytest.raises(ValueError, match=f"AMBIPREF_THREADS .*got {re.escape(repr(setting))}"):
            verify(["thm2"], [0, 1])

    @pytest.mark.parametrize("setting, workers", [("", 1), ("  ", 1), ("1", 1), (" 2 ", 2)])
    def test_blank_and_whole_thread_settings_are_accepted(self, monkeypatch, setting, workers):
        monkeypatch.setenv("AMBIPREF_THREADS", setting)
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 8)
        assert verify_mod._worker_count(3) == workers

    def test_thread_setting_is_clamped_to_seeds_and_cpus(self, monkeypatch):
        """The pool's size is clamped, and it takes about four chunks of seeds per worker."""
        sizes, chunks = [], []

        class RecordingPool:
            """Stands in for the process pool: records its size and chunks, maps serially."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                chunks.append(chunksize)
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("AMBIPREF_THREADS", str(10**9))
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 8)
        report = verify(["thm2"], range(3))
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
        verify(["thm2"], range(3))
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: None)
        verify(["thm2"], range(3))
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
        verify(["thm2"], range(17))
        assert sizes == [3, 2, 2]
        assert chunks == [1, 1, 2]
        assert report.passed

    def test_importing_the_package_leaves_the_process_pool_unloaded(self):
        """Only a run with more than one worker imports the pool machinery."""
        code = (
            "import sys, ambipref\n"
            "pool = ('concurrent.futures', 'multiprocessing')\n"
            "print(sorted(m for m in pool if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(verify_mod.__file__).parent.parent)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "[]\n"

    def test_report_schema(self):
        report = verify(["thm3"], [0, 1])
        doc = report.to_jsonable()
        assert doc["schema_version"] == SCHEMA_VERSION == 1
        assert doc["seeds"] == [0, 1]
        entry = doc["suites"][0]
        assert set(entry) == {
            "theorem",
            "instances",
            "batteries",
            "verdict",
            "counterexamples",
            "boundary_flags",
        }
        assert entry["verdict"] == "pass"
        assert report.suites[0].passed

    def test_inapplicable_seeds_are_not_counted(self):
        # the binary collapse suite skips three-state instances, and odd
        # seeds draw three states under the default sizing
        report = verify(["prop2"], [0, 1])
        assert report.suites[0].instances == 1


def _lattice_desc(instance) -> str:
    return suite_outcomes(instance, ["thm2"], VerifyConfig())["thm2"].batteries[0]


class TestSuiteOutcomes:
    def test_lemma_pair_settles_a_split_with_the_half_difference(
        self, overlapping_intervals, touching_intervals
    ):
        cfg = VerifyConfig()
        split = suite_outcomes(overlapping_intervals, ["lemma3"], cfg)["lemma3"]
        assert split.ok
        assert split.batteries == (_lattice_desc(overlapping_intervals), HALF_DIFFERENCE)
        agreed = suite_outcomes(touching_intervals, ["lemma3"], cfg)["lemma3"]
        assert agreed.ok
        assert agreed.batteries == (_lattice_desc(touching_intervals),)

    def test_lemma_pair_split_on_a_generated_seed(self):
        entry = verify(["lemma3"], [15]).suites[0]
        assert entry.passed
        assert entry.batteries == (
            "lattice battery resolution=2 radius=1 (125 acts on 3 states)",
            HALF_DIFFERENCE,
        )

    def test_lemma_pair_fails_when_the_half_difference_is_lost(
        self, monkeypatch, overlapping_intervals
    ):
        # Realizing every target as the zero constant makes the pair [x0, x0],
        # on which negative transitivity holds, so the split must surface.
        monkeypatch.setattr(
            verify_mod, "act_from_utility_vector",
            lambda instance, targets: constant_act(instance, Fraction(0)),
        )
        out = suite_outcomes(overlapping_intervals, ["lemma3"], VerifyConfig())["lemma3"]
        assert not out.ok
        (record,) = out.counterexamples
        assert record["detail"] == "completeness and negative bound transitivity disagree"
        assert record["completeness_passed"] is False
        assert record["negative_cbt_passed"] is True
        assert record["battery"] == HALF_DIFFERENCE

    @pytest.mark.parametrize(
        "suite, builder, fixture, acts, detail, evidence",
        [
            ("prop3", "build_incompleteness_witness", "overlapping_intervals", 2,
             "cutting hyperplane found but the witness pair is comparable", "normal"),
            ("prop4", "build_cbt_witness", "disjoint_pair", 3,
             "disjoint pair found but the sandwich triple audits clean", "slack"),
        ],
    )
    def test_witness_that_audits_clean_is_reported(
        self, monkeypatch, request, suite, builder, fixture, acts, detail, evidence
    ):
        instance = request.getfixturevalue(fixture)
        zeros = tuple(constant_act(instance, Fraction(0)) for _ in range(acts))
        monkeypatch.setattr(verify_mod, builder, lambda *args: zeros)
        out = suite_outcomes(instance, [suite], VerifyConfig())[suite]
        assert not out.ok
        (record,) = out.counterexamples
        assert record["detail"] == detail and evidence in record

    @pytest.mark.parametrize(
        "suite, builder, fixture",
        [
            ("prop3", "build_incompleteness_witness", "overlapping_intervals"),
            ("prop4", "build_cbt_witness", "disjoint_pair"),
        ],
    )
    def test_failed_witness_construction_is_reported(
        self, monkeypatch, request, suite, builder, fixture
    ):
        instance = request.getfixturevalue(fixture)

        def refuse(*args):
            raise ValueError("target outside the utility range")

        monkeypatch.setattr(verify_mod, builder, refuse)
        out = suite_outcomes(instance, [suite], VerifyConfig())[suite]
        assert not out.ok
        assert out.counterexamples == (
            {"detail": "witness construction failed: target outside the utility range"},
        )
        assert out.batteries == (_lattice_desc(instance),)
        assert out.boundary_flags == 0

    def test_incompleteness_witness_branch(
        self, overlapping_intervals, touching_intervals
    ):
        cfg = VerifyConfig()
        split = suite_outcomes(overlapping_intervals, ["prop3"], cfg)["prop3"]
        assert split.ok
        assert split.batteries == ("constructed incomparable pair",)
        whole = suite_outcomes(touching_intervals, ["prop3"], cfg)["prop3"]
        assert whole.ok
        assert "lattice battery" in whole.batteries[0]

    def test_sandwich_witness_branch(self, disjoint_pair, touching_intervals):
        cfg = VerifyConfig()
        gap = suite_outcomes(disjoint_pair, ["prop4"], cfg)["prop4"]
        assert gap.ok
        assert gap.batteries == ("constructed sandwich triple",)
        overlap = suite_outcomes(touching_intervals, ["prop4"], cfg)["prop4"]
        assert overlap.ok
        assert "lattice battery" in overlap.batteries[0]

    def test_one_margin_table_per_seed(self, monkeypatch):
        # Seed 4 draws two states with no cut and no disjoint pair, so prop2
        # compares the set model with its collapse prior on the shared table.
        built, judged = [], []
        table_class, relation = verify_mod.MarginTable, verify_mod.weak_relation

        def counted(*args):
            built.append(args)
            return table_class(*args)

        def spied(table, kind, instance):
            judged.append(kind)
            return relation(table, kind, instance)

        for module in (verify_mod, importlib.import_module("ambipref.axioms")):
            monkeypatch.setattr(module, "MarginTable", counted)
        monkeypatch.setattr(verify_mod, "weak_relation", spied)
        cfg = VerifyConfig()
        outcomes = suite_outcomes(generate_instance(4, cfg.params_for_seed(4)), SUITES, cfg)
        assert all(out.ok for out in outcomes.values())
        assert any(isinstance(kind, SEU) for kind in judged)
        assert len(built) == 1

    def test_one_battery_per_lattice_per_process(self, monkeypatch, fresh_batteries):
        """Seeds on one lattice share its battery, and its memos are derived once."""
        built, scans = [], []
        battery_class = verify_mod.Battery

        class Counted(battery_class):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

            @cached_property
            def dominance(self):
                scans.append("dominance")
                return battery_class.dominance.func(self)

            @cached_property
            def _constant_acts(self):
                scans.append("constants")
                return battery_class._constant_acts.func(self)

        monkeypatch.setattr(verify_mod, "Battery", Counted)
        cfg = VerifyConfig()
        contexts = [
            verify_mod._SeedContext(generate_instance(seed, cfg.params_for_seed(seed)), cfg)
            for seed in (1, 3)  # both three states
        ]
        first, second = (ctx.table for ctx in contexts)
        assert first is not second and first.battery is second.battery
        assert built == [first.battery] and first.n == 125
        for ctx in contexts:
            for axiom in (AxiomKind.MONOTONICITY, AxiomKind.UNAMBIGUOUS_COMPLETENESS):
                assert ctx.audit(axiom, GeneralizedBewley()).passed
        assert scans == ["dominance", "constants"]

        for seed in range(4):
            suite_outcomes(generate_instance(seed, cfg.params_for_seed(seed)), SUITES, cfg)
        assert len(built) == 2 and built[1].num_states == 2
        assert scans.count("constants") == 2

        coarse = VerifyConfig(resolution=1)
        ctx = verify_mod._SeedContext(generate_instance(1, coarse.params_for_seed(1)), coarse)
        assert ctx.table.battery is built[2] and ctx.table.n == 27
        assert len(built) == 3

    def test_switching_lattices_reproduces_fresh_reports(self, fresh_batteries):
        """Resolution 1, then 2, then 1 again in one process.

        The first report is made on an empty cache; the second must equal the
        golden report and the third the first.
        """
        coarse = VerifyConfig(resolution=1)
        first = verify(SUITES, range(4), coarse).to_jsonable()
        prop1 = next(entry for entry in first["suites"] if entry["theorem"] == "prop1")
        assert prop1["batteries"] == [
            "raw direction lattice, 9 vectors", "raw direction lattice, 27 vectors"
        ]
        assert verify(SUITES, range(4)).to_jsonable() == json.loads(GOLDEN.read_text())
        assert verify(SUITES, range(4), coarse).to_jsonable() == first
        info = verify_mod._lattice_battery.cache_info()
        assert (info.misses, info.currsize) == (4, 4)  # two lattices at two state counts

    @pytest.mark.parametrize(
        "search_name", ["find_cutting_hyperplane", "pair_entries"]
    )
    def test_one_certificate_search_per_seed(self, monkeypatch, search_name):
        """prop1 to prop4 share one cutting-hyperplane and one pairwise search."""
        search, calls = getattr(verify_mod, search_name), []

        def counted(collection):
            calls.append(collection)
            return search(collection)

        monkeypatch.setattr(verify_mod, search_name, counted)
        cfg = VerifyConfig()
        for seed in (0, 4):  # two states, so prop2 asks for the certificates too
            calls.clear()
            suite_outcomes(generate_instance(seed, cfg.params_for_seed(seed)), SUITES, cfg)
            assert len(calls) == 1, seed

    def test_separation_stops_at_the_first_disjoint_pair(self, monkeypatch):
        """Seeds 0..199 at 2, 3 and 4 states: the full report's first failure, or None."""
        analysis_mod = importlib.import_module("ambipref.analysis")
        real, solved = analysis_mod.polytopes_intersect, []

        def counted(first, second):
            solved.append((first.name, second.name))
            return real(first, second)

        monkeypatch.setattr(analysis_mod, "polytopes_intersect", counted)
        separation = verify_mod._SeedContext.separation.func
        for states in (2, 3, 4):
            for seed in range(200):
                instance = generate_instance(seed, GenParams(num_states=states))
                report = pairwise_intersection_holds(instance.collection)
                names = [(e.first, e.second) for e in report.entries]
                failing = report.failing()
                expected = failing[0] if failing else None
                solved.clear()
                got = separation(SimpleNamespace(instance=instance))
                assert got == (expected and expected.result), (states, seed)
                stop = names.index((expected.first, expected.second)) + 1 if failing else None
                assert solved == names[:stop], (states, seed)

    def test_suites_that_read_no_certificate_search_none(self, monkeypatch):
        def refuse(collection):
            raise AssertionError("certificate searched for a suite that reads none")

        for name in ("find_cutting_hyperplane", "pair_entries"):
            monkeypatch.setattr(verify_mod, name, refuse)
        cfg = VerifyConfig()
        suites = ["thm2", "thm3", "thm4", "prop5", "prop6", "lemma3", "fig4"]
        for seed in (0, 1):  # two and three states
            instance = generate_instance(seed, cfg.params_for_seed(seed))
            assert set(suite_outcomes(instance, suites, cfg)) == set(suites)

    def test_operators_disagreeing_under_the_conditions_fail_prop1(
        self, monkeypatch, touching_intervals
    ):
        phi = UtilityVector((Fraction(1), Fraction(-1)))
        verdict = CommutativityVerdict(False, (phi, Fraction(-1, 5), Fraction(1, 5)), 1)
        monkeypatch.setattr(verify_mod, "check_commutativity", lambda *args: verdict)
        out = suite_outcomes(touching_intervals, ["prop1"], VerifyConfig())["prop1"]
        assert not out.ok
        assert out.counterexamples == ({
            "detail": "parametric conditions hold yet the operators disagree",
            "phi": ["1", "-1"],
            "maxmin": "-1/5",
            "minmax": "1/5",
        },)

    def test_a_missing_collapse_prior_fails_prop2(self, monkeypatch, touching_intervals):
        monkeypatch.setattr(verify_mod, "seu_collapse_binary", lambda collection: None)
        out = suite_outcomes(touching_intervals, ["prop2"], VerifyConfig())["prop2"]
        assert not out.ok and out.applicable
        assert out.counterexamples == (
            {"detail": "parametric conditions hold but no collapse prior exists"},
        )

    def test_a_wrong_collapse_prior_fails_prop2(self, monkeypatch, touching_intervals):
        """The touching intervals collapse to (2/5, 3/5); (1/2, 1/2) must disagree."""
        half = Prior((Fraction(1, 2), Fraction(1, 2)))
        monkeypatch.setattr(verify_mod, "seu_collapse_binary", lambda collection: half)
        out = suite_outcomes(touching_intervals, ["prop2"], VerifyConfig())["prop2"]
        assert not out.ok and out.applicable
        (record,) = out.counterexamples
        assert set(record) == {"detail", "pair", "maxmin_margin", "seu_margin"}
        assert record["detail"] == "collapse prior disagrees with the set-based model"
        set_based, seu = (Fraction(record[k]) for k in ("maxmin_margin", "seu_margin"))
        assert (set_based >= 0) != (seu >= 0)

    @pytest.mark.parametrize(
        "suite, seed, search, missed, axiom, held",
        [
            ("prop3", 1, "find_cutting_hyperplane", None, "completeness",
             "no cutting hyperplane, yet completeness failed"),
            ("prop4", 6, "pair_entries", (),
             "constant_bound_transitivity",
             "all pairs intersect, yet bound transitivity failed"),
        ],
    )
    def test_a_missed_certificate_reports_the_lattice_failures(
        self, monkeypatch, suite, seed, search, missed, axiom, held
    ):
        """Seeds 1 and 6 have a cut and a disjoint pair that the lattice audit sees."""
        monkeypatch.setattr(verify_mod, search, lambda collection: missed)
        cfg = VerifyConfig()
        instance = generate_instance(seed, cfg.params_for_seed(seed))
        out = suite_outcomes(instance, [suite], cfg)[suite]
        assert not out.ok and out.applicable
        assert out.batteries == (_lattice_desc(instance),)
        assert out.counterexamples
        for record in out.counterexamples:
            assert record["detail"] == held
            assert (record["axiom"], record["model"]) == (axiom, "generalized-bewley")

    def test_collapse_suite_branches(self, touching_intervals, disjoint_pair):
        cfg = VerifyConfig()
        held = suite_outcomes(touching_intervals, ["prop2"], cfg)["prop2"]
        assert held.ok and held.applicable
        vacuous = suite_outcomes(disjoint_pair, ["prop2"], cfg)["prop2"]
        assert vacuous.ok and vacuous.applicable
        assert vacuous.counterexamples == ()
        three_state = generate_instance(1, GenParams(num_states=3))
        skipped = suite_outcomes(three_state, ["prop2"], cfg)["prop2"]
        assert not skipped.applicable


class TestMixtureScan:
    def test_findings_are_evidence_not_failures(self):
        report = verify(["fig4"], [1])
        entry = report.suites[0]
        assert entry.verdict == "pass"
        assert 0 < len(entry.counterexamples) <= 4
        first = entry.counterexamples[0]
        assert set(first) == {"seed", "axiom", "model", "acts", "margins", "note"}
        assert first["seed"] == 1
        assert first["model"] == "alpha-mixture(3/4)"

    def test_a_lone_prior_never_trips_the_mixture(self):
        cfg = VerifyConfig(params=GenParams(num_sets=1, vertices_per_set=1))
        report = verify(["fig4"], [0, 1], cfg)
        entry = report.suites[0]
        assert entry.verdict == "fail"
        assert entry.counterexamples[0]["detail"].startswith(
            "no mixture violation found"
        )


NO_VIOLATION = {"detail": "no mixture violation found across the seed range"}


def _reference_merge(singles) -> list[dict]:
    """The suite entries a run over several seeds must give, from one-seed runs."""
    merged = []
    for entries in zip(*(report.suites for report in singles)):
        name = entries[0].theorem
        batteries: list[str] = []
        for entry in entries:
            batteries += [b for b in entry.batteries if b not in batteries]
        if name == "fig4":
            hits = [entry for entry in entries if entry.passed]
            passed = bool(hits)
            found = [w for entry in hits for w in entry.counterexamples][:4] or [NO_VIOLATION]
        else:
            passed = all(entry.passed for entry in entries)
            found = [w for entry in entries for w in entry.counterexamples]
        merged.append(
            {
                "theorem": name,
                "instances": sum(entry.instances for entry in entries),
                "batteries": batteries,
                "verdict": "pass" if passed else "fail",
                "counterexamples": found,
                "boundary_flags": sum(entry.boundary_flags for entry in entries),
            }
        )
    return merged


class TestMergeAcrossSeeds:
    """Seeds 0..15 reach what the four golden seeds do not: the fig4 cap binds,
    prop2 skips half the seeds, and three suites list three batteries."""

    SEEDS = range(16)

    @pytest.fixture(scope="class")
    def singles(self):
        return [verify(SUITES, [seed]) for seed in self.SEEDS]

    def test_window_reaches_the_merge_rules(self, singles):
        fig4 = [report.suites[SUITES.index("fig4")] for report in singles]
        assert [s for s, entry in zip(self.SEEDS, fig4) if entry.passed] == [1, 9, 11, 12, 13, 15]
        assert sum(len(entry.counterexamples) for entry in fig4 if entry.passed) > 4
        merged = {entry["theorem"]: entry for entry in _reference_merge(singles)}
        assert merged["prop2"]["instances"] == 8
        assert [len(merged[name]["batteries"]) for name in ("prop3", "prop4", "lemma3")] == [3] * 3

    def test_one_run_equals_the_merged_single_seed_runs(self, singles):
        report = verify(SUITES, self.SEEDS)
        assert report.to_jsonable()["suites"] == _reference_merge(singles)
        assert len(report.suites[SUITES.index("fig4")].counterexamples) == 4


class TestGoldenReport:
    def test_checked_in_report_reproduces(self):
        report = verify(SUITES, range(4))
        assert report.to_jsonable() == json.loads(GOLDEN.read_text())

    def test_four_state_report_reproduces_byte_for_byte(self, capsys, monkeypatch):
        """``verify --suites all --seeds 0..3 --states 4``, on 625-act lattices."""
        monkeypatch.delenv("AMBIPREF_THREADS", raising=False)
        main = importlib.import_module("ambipref.cli").main
        assert main(["verify", "--suites", "all", "--seeds", "0..3", "--states", "4"]) == 0
        pinned = GOLDEN.with_name("verify_report_4states.json")
        assert capsys.readouterr().out == pinned.read_text(encoding="utf-8")
