from __future__ import annotations

import importlib.util
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ambipref import (
    SUITES, AlphaMixture, Bewley, GenParams, Justifiable, Prior, SEU, SuiteOutcome,
    check_sample_count, dumps_instance, generate_instance, load_instance, slice_profile,
)
from ambipref import cli
from ambipref.cli import (
    MAX_BATTERY_ACTS,
    MAX_SEEDS,
    MAX_SLICE_SAMPLES,
    InputError,
    main,
    parse_model,
    parse_seed_range,
    run,
)
from ambipref.model import MAX_RATIONAL_DIGITS

verify_mod = importlib.import_module("ambipref.verify")

F = Fraction

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
DISJOINT = str(INSTANCES / "disjoint_pair.json")
TOUCHING = str(INSTANCES / "touching_intervals.json")
OVERLAP = str(INSTANCES / "overlapping_intervals.json")
EXPORT_SCRIPT = INSTANCES.parent / "scripts" / "export_figure_slices.py"
VERIFY_SCRIPT = INSTANCES.parent / "scripts" / "run_full_verification.py"
CORNER_CLUSTERS = Path(__file__).resolve().parent / "data" / "corner_clusters.json"
# Two instance files no JSON decoder reads: bytes that are not UTF-8, and
# nesting deeper than the decoder's recursion limit.
NOT_UTF8 = b"\xff\xfe{}"
DEEP_NESTING = ("[" * 100_000 + "]" * 100_000).encode()


class TestParseModel:
    def test_bare_forms(self):
        assert type(parse_model("gb")).__name__ == "GeneralizedBewley"
        assert type(parse_model("generalized-bewley")).__name__ == "GeneralizedBewley"
        assert type(parse_model("disjunctive")).__name__ == "Disjunctive"
        assert type(parse_model("conjunctive")).__name__ == "Conjunctive"
        assert type(parse_model("half")).__name__ == "HalfMixture"

    def test_parameterized_forms(self):
        assert parse_model("alpha:3/4") == AlphaMixture(F(3, 4))
        assert parse_model("bewley:low") == Bewley("low")
        assert parse_model("justifiable: high ") == Justifiable("high")
        assert parse_model("seu:1/2,1/2") == SEU(Prior((F(1, 2), F(1, 2))))

    def test_set_names_checked_against_the_instance(self, disjoint_pair):
        assert parse_model("bewley:low", disjoint_pair) == Bewley("low")
        with pytest.raises(InputError, match="nope"):
            parse_model("bewley:nope", disjoint_pair)

    def test_prior_length_checked_against_the_instance(self, disjoint_pair):
        with pytest.raises(InputError, match="^prior has 3 entries"):
            parse_model("seu:1/3,1/3,1/3", disjoint_pair)

    @pytest.mark.parametrize(
        "spec",
        ["", "gb:extra", "half:1/2", "alpha:", "bewley:", "alpha:7/4", "seu:1/2,1/3", "mystery"],
    )
    def test_bad_specs(self, spec):
        with pytest.raises(InputError):
            parse_model(spec)


class TestParseSeedRange:
    def test_forms(self):
        assert parse_seed_range("7") == [7]
        assert parse_seed_range("0..3") == [0, 1, 2, 3]
        assert parse_seed_range("4,2,9") == [4, 2, 9]
        assert parse_seed_range(" 5..5 ") == [5]

    @pytest.mark.parametrize(
        "text, message",
        [("5..1", r"empty seed range '5\.\.1'$"), ("a..b", "bad seed range"),
         ("x", "bad seed range"), ("1,two", "bad seed range"), ("", "bad seed range")],
    )
    def test_bad_ranges(self, text, message):
        with pytest.raises(InputError, match=f"^{message}"):
            parse_seed_range(text)

    @pytest.mark.parametrize(
        "text, seeds",
        [("-5..5", list(range(-5, 6))), ("-3,4", [-3, 4]), ("-7", [-7]), ("-9..-8", [-9, -8])],
    )
    def test_negative_seeds_as_a_separate_value(self, monkeypatch, text, seeds):
        seen = []

        def record(suites, chosen, config):
            seen.append(list(chosen))
            raise InputError("recorded")

        monkeypatch.setattr(cli, "verify", record)
        assert main(["verify", "--suites", "thm2", "--seeds", text]) == 2
        assert main(["verify", "--suites", "thm2", f"--seeds={text}"]) == 2
        assert seen == [seeds, seeds]


class TestEvaluate:
    def test_judgment_document(self, capsys):
        code = main(
            [
                "evaluate",
                "--instance", DISJOINT,
                "--model", "gb",
                "--left", "bet_s1",
                "--right", "coin",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "model": "gb",
            "left": "bet_s1",
            "right": "coin",
            "relation": "indifferent",
            "forward_margin": "1/5",
            "reverse_margin": "1/5",
            "utility_difference": ["1", "-1"],
        }

    def test_act_against_itself(self, capsys):
        code = main(
            [
                "evaluate",
                "--instance", TOUCHING,
                "--model", "conjunctive",
                "--left", "coin",
                "--right", "coin",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["relation"] == "indifferent"
        assert doc["forward_margin"] == doc["reverse_margin"] == "0"
        assert doc["utility_difference"] == ["0", "0"]

    def test_unknown_act_name(self, capsys):
        code = main(
            [
                "evaluate",
                "--instance", DISJOINT,
                "--model", "gb",
                "--left", "bet_s1",
                "--right", "nope",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_output_flag_writes_a_file(self, tmp_path):
        out = tmp_path / "judgment.json"
        code = main(
            [
                "evaluate",
                "--instance", OVERLAP,
                "--model", "half",
                "--left", "all_win",
                "--right", "all_lose",
                "--output", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["relation"] == "strictly_preferred"


# "{first}" stands for the name of the instance's first belief set.
PINNED_AUDIT_MODELS = ("gb", "disjunctive", "conjunctive", "half", "alpha:3/4",
                       "bewley:{first}", "justifiable:{first}", "seu:1/2,1/2")


class TestUnknownNames:
    """A name the instance lacks is one ``error:`` line naming it and the names it has."""

    @pytest.mark.parametrize(
        "argv, missing, present",
        [
            (["evaluate", "--model", "bewley:nope", "--left", "bet_s1", "--right", "coin"],
             "no belief set named 'nope'", "the collection has low, high"),
            (["audit", "--model", "bewley:nope"],
             "no belief set named 'nope'", "the collection has low, high"),
            (["evaluate", "--model", "gb", "--left", "bet_s1", "--right", "nope"],
             "no act named 'nope'", "it has all_lose, all_win, bet_s1, bet_s2, coin"),
        ],
        ids=["evaluate-set", "audit-set", "evaluate-act"],
    )
    def test_one_readable_line(self, capsys, argv, missing, present):
        assert main([*argv, "--instance", DISJOINT]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert missing in err and present in err
        assert '"' not in err and err != "error: 'nope'\n"


@pytest.fixture
def by_name_suite(monkeypatch):
    """A suite registered for verify but left out of ``SUITES``, so only its name runs it."""
    outcome = SuiteOutcome(ok=True, applicable=True, found=False, counterexamples=(),
                           boundary_flags=0, batteries=())
    monkeypatch.setitem(verify_mod._SUITE_FUNCS, "by_name", lambda ctx: outcome)
    monkeypatch.delenv("AMBIPREF_THREADS", raising=False)
    return "by_name"


class TestPinnedAudits:
    """``audit --axioms all`` on the bundled instances is pinned byte for byte."""

    @pytest.mark.parametrize("model", PINNED_AUDIT_MODELS)
    @pytest.mark.parametrize("stem", sorted(p.stem for p in INSTANCES.glob("*.json")))
    def test_bundled_instance_audit(self, stem, model, capsys):
        path = INSTANCES / f"{stem}.json"
        model = model.format(first=json.loads(path.read_text())["belief_collection"][0]["name"])
        code = main(["audit", "--instance", str(path), "--model", model, "--axioms", "all"])
        out = capsys.readouterr().out
        assert code == (0 if '"passed": false' not in out else 1)
        tag = model.replace(":", "_").replace("/", "_").replace(",", "_")
        pinned = Path(__file__).resolve().parent / "data" / "audit" / f"{stem}_{tag}.json"
        assert out == pinned.read_text(encoding="utf-8")


class TestAudit:
    def test_failing_audit_exits_one(self, capsys):
        code = main(
            [
                "audit",
                "--instance", DISJOINT,
                "--model", "conjunctive",
                "--axioms", "completeness",
            ]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        report = doc["reports"][0]
        assert report["axiom"] == "completeness"
        assert report["passed"] is False
        assert report["witnesses"]
        assert "utility_vectors" in report["witnesses"][0]

    def test_passing_audit_exits_zero(self, capsys):
        code = main(
            [
                "audit",
                "--instance", TOUCHING,
                "--model", "gb",
                "--axioms", "completeness,monotonicity",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["axiom"] for r in doc["reports"]] == [
            "completeness",
            "monotonicity",
        ]
        assert all(r["passed"] for r in doc["reports"])

    def test_unknown_axiom_name(self, capsys):
        code = main(
            [
                "audit",
                "--instance", TOUCHING,
                "--model", "gb",
                "--axioms", "tidiness",
            ]
        )
        assert code == 2
        assert "unknown axiom" in capsys.readouterr().err

    def test_radius_beyond_utility_range(self, capsys):
        code = main(
            [
                "audit",
                "--instance", TOUCHING,
                "--model", "gb",
                "--radius", "3",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestAnalyze:
    def test_document_shape(self, capsys):
        code = main(["analyze", "--instance", TOUCHING])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["complete_param"] is True
        assert doc["cbt_param"] is True
        assert doc["seu_collapse"] == ["2/5", "3/5"]


class TestSlice:
    def test_csv_to_stdout(self, capsys):
        code = main(
            [
                "slice",
                "--instance", DISJOINT,
                "--direction", "1,-1",
                "--samples", "16",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "theta,maxmin,minmax,half,alpha"
        assert len(lines) == 17

    def test_json_format_with_alpha(self, capsys):
        code = main(
            [
                "slice",
                "--instance", DISJOINT,
                "--direction", "1,-1",
                "--samples", "16",
                "--alpha", "3/4",
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha_weight"] == "3/4"
        assert len(doc["samples"]) == 16

    def test_direction_length_mismatch(self, capsys):
        code = main(
            ["slice", "--instance", DISJOINT, "--direction", "1,0,0"]
        )
        assert code == 2
        assert "2 states" in capsys.readouterr().err

    def test_too_few_samples(self, capsys):
        code = main(
            [
                "slice",
                "--instance", DISJOINT,
                "--direction", "1,-1",
                "--samples", "6",
            ]
        )
        assert code == 2
        assert "at least 8" in capsys.readouterr().err

    def test_odd_samples(self, capsys):
        code = main(["slice", "--instance", DISJOINT, "--direction", "1,-1", "--samples", "9"])
        assert code == 2
        assert "must be even" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["16.0", "True", "1e3"])
    def test_non_integer_samples(self, capsys, samples):
        with pytest.raises(SystemExit) as exc:
            main(["slice", "--instance", DISJOINT, "--direction", "1,-1", "--samples", samples])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


class TestSizeLimits:
    """Oversized batteries and sample counts exit 2 before any work starts."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started despite an input over the limit")

        for name in ("generate_act_grid", "slice_profile", "verify", "analyze"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("resolution", ["14", "10" * 20, "0", "-3"])
    def test_audit_resolution(self, no_work, capsys, resolution):
        # Two states: (2 * 14 + 1) ** 2 = 841 acts is the first size over 729.
        code = main(["audit", "--instance", DISJOINT, "--model", "gb",
                     "--resolution", resolution])
        assert code == 2
        assert "resolution" in capsys.readouterr().err

    def test_audit_limit_is_inclusive(self, monkeypatch, capsys):
        def reached(*args, **kwargs):
            raise ValueError("battery requested")

        monkeypatch.setattr(cli, "generate_act_grid", reached)
        assert (2 * 13 + 1) ** 2 == MAX_BATTERY_ACTS
        code = main(["audit", "--instance", DISJOINT, "--model", "gb", "--resolution", "13"])
        assert code == 2
        assert "battery requested" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", [f"0..{MAX_SEEDS}", "0..10000000000", "-5..5" + "0" * 30])
    def test_verify_seed_range(self, no_work, monkeypatch, capsys, seeds):
        def no_list(*args):
            raise AssertionError("seed list built despite a range over the limit")

        monkeypatch.setattr(cli, "range", no_list, raising=False)
        code = main(["verify", "--suites", "thm2", f"--seeds={seeds}"])
        assert code == 2
        assert f"limit is {MAX_SEEDS}" in capsys.readouterr().err

    def test_verify_seed_list(self, no_work, capsys):
        seeds = ",".join(str(s) for s in range(2 * MAX_SEEDS))
        code = main(["verify", "--suites", "thm2", "--seeds", seeds])
        assert code == 2
        assert f"holds {2 * MAX_SEEDS} seeds; the limit is {MAX_SEEDS}" in capsys.readouterr().err

    def test_seed_limit_is_inclusive(self):
        seeds = parse_seed_range(f"5..{MAX_SEEDS + 4}")
        assert len(seeds) == MAX_SEEDS and seeds[-1] == MAX_SEEDS + 4
        listed = ",".join(str(s) for s in range(MAX_SEEDS))
        assert parse_seed_range(listed) == list(range(MAX_SEEDS))

    def test_slice_samples(self, no_work, capsys):
        code = main(["slice", "--instance", DISJOINT, "--direction", "1,-1",
                     "--samples", str(MAX_SLICE_SAMPLES + 1)])
        assert code == 2
        assert f"limit of {MAX_SLICE_SAMPLES}" in capsys.readouterr().err

    @pytest.mark.parametrize("samples, message", [("9", "must be even"), ("6", "at least 8")])
    def test_slice_samples_are_checked_before_the_instance(
        self, no_work, monkeypatch, tmp_path, capsys, samples, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the instance was read despite a bad sample count")

        monkeypatch.setattr(cli, "load_instance", refuse)
        code = main(["slice", "--instance", str(tmp_path / "missing.json"),
                     "--direction", "1,-1", "--samples", samples])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "cannot read" not in err

    def test_verify_thread_setting(self, monkeypatch, capsys):
        def refuse(job):
            raise AssertionError("a seed ran despite a bad worker count")

        monkeypatch.setattr(verify_mod, "_seed_work", refuse)
        monkeypatch.setenv("AMBIPREF_THREADS", "many")
        code = main(["verify", "--suites", "thm2", "--seeds", "0..1"])
        assert code == 2
        assert "AMBIPREF_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            # odd seeds have three states: 7 ** 3 = 343 acts
            ["--suites", "thm2,lemma3", "--seeds", "0..1", "--resolution", "3"],
            # the generator's largest state count at the default resolution: 5 ** 4 = 625
            ["--suites", "all", "--seeds", "0..1", "--states", "4"],
        ],
    )
    def test_verify_with_lemma3_builds_only_the_lattice(self, monkeypatch, flags):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "verify", reached)
        with pytest.raises(Reached):
            main(["verify", *flags])

    def test_verify_uses_the_largest_state_count(self, no_work, capsys):
        code = main(["verify", "--suites", "thm2", "--seeds", "0..3", "--states", "4",
                     "--resolution", "3"])
        assert code == 2
        assert "2401 acts" in capsys.readouterr().err

    def test_analyze_rejects_five_states(self, no_work, tmp_path, capsys):
        # analyze checks commutativity on the 5 ** n direction lattice.
        states = [f"s{i}" for i in range(1, 6)]
        doc = {
            "states": states,
            "prizes": ["lose", "win"],
            "utility": {"lose": "-1", "win": "1"},
            "acts": {"all_win": {s: {"win": "1"} for s in states}},
            "belief_collection": [{"name": "flat", "vertices": [["1/5"] * 5]}],
        }
        path = tmp_path / "five.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", "--instance", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "analyze" in err and "3125 acts" in err

    @staticmethod
    def corner_clusters(per_set: int) -> dict:
        """Four sets of ``per_set`` distinct vertices within 1/10 of a simplex corner."""
        rng = random.Random(per_set)
        states = [f"s{i}" for i in range(1, 5)]
        sets = []
        for corner in range(4):
            vertices = set()
            while len(vertices) < per_set:
                off = [F(rng.randint(0, 13), 400) for _ in range(3)]
                off.insert(corner, 1 - sum(off))
                vertices.add(tuple(off))
            sets.append({"name": f"corner{corner + 1}",
                         "vertices": [[str(p) for p in v] for v in sorted(vertices)]})
        return {
            "states": states,
            "prizes": ["lose", "win"],
            "utility": {"lose": "-1", "win": "1"},
            "acts": {"all_win": {s: {"win": "1"} for s in states}},
            "belief_collection": sets,
        }

    def test_analyze_refuses_a_cut_search_over_its_work_limit(self, tmp_path, capsys):
        """16 vertices per corner: C(N, 2) * 64 is about 1.3e8, and the search would
        take minutes; the refusal comes within a second."""
        path = tmp_path / "clusters16.json"
        path.write_text(json.dumps(self.corner_clusters(16)))
        start = time.perf_counter()
        code = main(["analyze", "--instance", str(path)])
        elapsed = time.perf_counter() - start
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "times 64 vertices" in err and "the limit is 2000000" in err
        assert elapsed < 1.0

    def test_analyze_accepts_four_states(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "analyze", reached)
        with pytest.raises(Reached):
            main(["analyze", "--instance", str(CORNER_CLUSTERS)])

    @staticmethod
    def generated(tmp_path, states):
        path = tmp_path / f"seed1_{states}.json"
        path.write_text(dumps_instance(generate_instance(1, GenParams(num_states=states))))
        return str(path)

    def test_favorable_mixing_over_its_box_limit(self, tilted_instance, tmp_path, capsys):
        """Six states at resolution 1: 729 acts, whose mixing box of 17 ** 6 entries
        the library refuses before folding it."""
        path = tmp_path / "six_states.json"
        path.write_text(dumps_instance(tilted_instance(6)))
        out = tmp_path / "report.json"
        code = main(["audit", "--instance", str(path), "--model", "gb", "--resolution", "1",
                     "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "favorable_mixing's box of 24137569 entries is over MAX_MIXING_BOX = 1419857" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "states, flags",
        [
            (4, []),  # 5 ** 4 = 625 acts at the default resolution
            (3, ["--resolution", "4"]),  # 9 ** 3 = 729 acts
            (2, ["--resolution", "13"]),  # 27 ** 2 = 729 acts
            (4, ["--resolution", "1"]),  # 3 ** 4 = 81 acts
        ],
    )
    def test_favorable_mixing_limit_admits_the_rest(self, monkeypatch, tmp_path, states, flags):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "audit_suite", reached)
        with pytest.raises(Reached):
            main(["audit", "--instance", self.generated(tmp_path, states), "--model", "gb", *flags])

    def test_verify_defaults_fit(self, monkeypatch):
        # Resolution 2 on the default sizing's three states: 125 acts.
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "verify", reached)
        with pytest.raises(Reached):
            main(["verify", "--suites", "all", "--seeds", "0..1"])


class TestExportScript:
    """The figure export script checks its flags before it samples anything."""

    @pytest.fixture
    def script(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("export_figure_slices", EXPORT_SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        def refuse(*args, **kwargs):
            raise AssertionError("slice sampling started despite a bad flag")

        monkeypatch.setattr(module, "slice_profile", refuse)
        return module

    @pytest.mark.parametrize(
        "flags",
        [
            ["--samples", str(MAX_SLICE_SAMPLES + 2)],
            ["--samples", "10" * 20],
            ["--samples", "9"],
            ["--samples", "6"],
            ["--alpha", "0.1"],
            ["--alpha", "1e-1000000"],
            ["--alpha", "5/4"],
            ["--alpha", "1/0"],
        ],
    )
    def test_bad_flags_exit_two(self, script, tmp_path, capsys, flags):
        out = tmp_path / "out"
        code = script.main(["--instances", str(INSTANCES), "--out", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("samples", [6, 9, MAX_SLICE_SAMPLES + 2])
    def test_sample_count_message_is_the_library_s(self, script, tmp_path, capsys, samples):
        with pytest.raises(ValueError) as expected:
            check_sample_count(samples)
        script.main(["--instances", str(INSTANCES), "--out", str(tmp_path / "out"),
                     "--samples", str(samples)])
        assert str(expected.value) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (json.dumps({"states": ["a"]}).encode(), "MissingField"),
            (b"{not json", "Expecting property name"),
            (NOT_UTF8, "not valid JSON"),
            (DEEP_NESTING, "not valid JSON"),
        ],
        ids=["invalid", "malformed", "not-utf8", "deep"],
    )
    def test_a_bad_instance_exits_two_before_any_write(self, script, tmp_path, capsys, text, message):
        instances = tmp_path / "instances"
        instances.mkdir()
        (instances / "a_good.json").write_text(Path(DISJOINT).read_text())
        (instances / "b_bad.json").write_bytes(text)
        out = tmp_path / "out"
        code = script.main(["--instances", str(instances), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "b_bad.json" in err and message in err
        assert not out.exists()

    def test_an_unusable_out_exits_two(self, script, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        code = script.main(["--instances", str(INSTANCES), "--out", str(out / "sub")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out / "sub") in err
        assert out.read_text() == "a file, not a directory"

    def test_an_output_file_that_cannot_be_written_exits_two(self, script, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(script, "slice_profile", slice_profile)
        out = tmp_path / "out"
        blocked = out / "disjoint_pair__d1_m1.json"
        blocked.mkdir(parents=True)
        code = script.main(["--instances", str(INSTANCES), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocked}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("make", [True, False], ids=["empty", "missing"])
    def test_no_instance_files_exit_two(self, script, tmp_path, capsys, make):
        instances = tmp_path / "instances"
        if make:
            instances.mkdir()
        out = tmp_path / "out"
        code = script.main(["--instances", str(instances), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(instances) in err
        assert not out.exists()

    def test_largest_sample_count_is_accepted(self, script, tmp_path):
        with pytest.raises(AssertionError, match="slice sampling started"):
            script.main(["--instances", str(INSTANCES), "--out", str(tmp_path),
                         "--samples", str(MAX_SLICE_SAMPLES), "--alpha", "1"])


class TestVerificationScript:
    """The full-verification script maps its flags as ``ambipref verify`` does."""

    @staticmethod
    def load():
        spec = importlib.util.spec_from_file_location("run_full_verification", VERIFY_SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.fixture
    def script(self, monkeypatch):
        module = self.load()

        def refuse(*args, **kwargs):
            raise AssertionError("verification started despite a bad flag")

        monkeypatch.setattr(module, "verify", refuse)
        return module

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--suites", "nope"], "unknown suite 'nope'"),
            (["--states", "5"], "num_states"),
            (["--seeds", "9..1"], "empty seed range"),
            (["--seeds", f"0..{MAX_SEEDS}"], f"limit is {MAX_SEEDS}"),
        ],
    )
    def test_bad_flags_exit_two(self, script, tmp_path, capsys, flags, message):
        out = tmp_path / "report.json"
        code = script.main(["--out", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["many", "0", "-3"])
    def test_bad_thread_setting_exits_two(self, monkeypatch, tmp_path, capsys, setting):
        def refuse(job):
            raise AssertionError("a seed ran despite a bad worker count")

        monkeypatch.setattr(verify_mod, "_seed_work", refuse)
        monkeypatch.setenv("AMBIPREF_THREADS", setting)
        out = tmp_path / "report.json"
        code = self.load().main(["--out", str(out), "--seeds", "0..1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"AMBIPREF_THREADS must be a decimal integer >= 1, got {setting!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["missing", "directory"])
    def test_bad_out_exits_two(self, script, tmp_path, capsys, bad):
        out = tmp_path / "missing" / "report.json" if bad == "missing" else tmp_path
        before = sorted(tmp_path.iterdir())
        code = script.main(["--out", str(out), "--seeds", "0..1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before

    def test_an_out_that_vanishes_during_the_run_exits_two(self, monkeypatch, tmp_path, capsys):
        module = self.load()
        gone = tmp_path / "gone"
        gone.mkdir()
        run = module.verify

        def vanish(*args, **kwargs):
            gone.rmdir()
            return run(*args, **kwargs)

        monkeypatch.setattr(module, "verify", vanish)
        out = gone / "report.json"
        code = module.main(["--out", str(out), "--suites", "thm2", "--seeds", "0", "--states", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the report: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["-5..5", "-3", "-2,4"])
    def test_negative_seeds_are_accepted(self, script, tmp_path, seeds):
        with pytest.raises(AssertionError, match="verification started"):
            script.main(["--out", str(tmp_path / "report.json"), "--seeds", seeds])

    def test_a_suite_outside_suites_runs_by_name(self, by_name_suite, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert self.load().main(["--out", str(out), "--suites", by_name_suite, "--seeds", "0"]) == 0
        assert [s["theorem"] for s in json.loads(out.read_text())["suites"]] == [by_name_suite]
        assert capsys.readouterr().out.split()[:3] == [by_name_suite, "pass", "instances=1"]

    def test_small_run_writes_the_report_and_summary(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = self.load().main(["--out", str(out), "--suites", "thm2,lemma3",
                                 "--seeds", "-1..0", "--states", "2"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["seeds"] == [-1, 0]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[:2]] == [["thm2", "pass"], ["lemma3", "pass"]]
        assert lines[2].startswith("seeds=2  ")


class TestGen:
    def test_deterministic_files(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            assert main(["gen", "--seed", "12", "--output", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()
        inst = load_instance(str(first))
        assert inst.num_states == 3

    def test_generated_instance_feeds_the_other_commands(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        assert main(["gen", "--seed", "3", "--states", "2", "--output", str(path)]) == 0
        code = main(
            [
                "evaluate",
                "--instance", str(path),
                "--model", "gb",
                "--left", "all_win",
                "--right", "all_lose",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["relation"] == "strictly_preferred"

    def test_params_out_of_range(self, capsys):
        assert main(["gen", "--seed", "0", "--states", "9"]) == 2
        assert "num_states" in capsys.readouterr().err

    def test_denominator_the_loader_would_reject(self, capsys):
        big = str(10**MAX_RATIONAL_DIGITS)
        assert main(["gen", "--seed", "1", "--states", "2", "--denominator", big]) == 2
        assert "denominator_bound must be below" in capsys.readouterr().err
        assert main(["verify", "--suites", "thm2", "--seeds", "0", "--denominator", big]) == 2
        assert "denominator_bound must be below" in capsys.readouterr().err


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code = main(["verify", "--suites", "thm2,prop1", "--seeds", "0..2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seeds"] == [0, 1, 2]
        assert [s["theorem"] for s in doc["suites"]] == ["thm2", "prop1"]
        assert all(s["verdict"] == "pass" for s in doc["suites"])

    def test_unknown_suite(self, capsys):
        code = main(["verify", "--suites", "thm9", "--seeds", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown suite" in err and "thm2" in err and "'all'" in err

    def test_a_suite_outside_suites_runs_by_name_only(self, by_name_suite, capsys):
        assert by_name_suite not in SUITES
        assert main(["verify", "--suites", f"{by_name_suite},thm2", "--seeds", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["theorem"] for s in doc["suites"]] == [by_name_suite, "thm2"]
        assert doc["suites"][0] == {"theorem": by_name_suite, "instances": 1, "batteries": [],
                                    "verdict": "pass", "counterexamples": [], "boundary_flags": 0}
        # exit 1: seed 0 alone exhibits no fig4 violation
        assert main(["verify", "--suites", "all", "--seeds", "0"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [s["theorem"] for s in doc["suites"]] == list(SUITES)

    def test_bad_seed_range(self, capsys):
        code = main(["verify", "--suites", "thm2", "--seeds", "9..1"])
        assert code == 2
        assert "empty seed range" in capsys.readouterr().err

    def test_radius_beyond_utility_range(self, capsys):
        code = main(["verify", "--seeds", "0", "--suites", "thm2", "--radius", "3"])
        assert code == 2
        assert "lattice [-3, 3] does not fit utility range" in capsys.readouterr().err

    def test_generator_overrides_reach_the_generator(self, capsys):
        code = main(
            [
                "verify",
                "--suites", "prop2",
                "--seeds", "0..3",
                "--states", "2",
                "--vertices", "2",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["suites"][0]["instances"] == 4


class TestBadInstanceFiles:
    """Each exits 2 with one ``error:`` line that names the file."""

    @staticmethod
    def error_line(capsys, path) -> str:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
        return err

    def test_missing_file(self, capsys):
        assert main(["analyze", "--instance", "/no/such/file.json"]) == 2
        assert "cannot read" in self.error_line(capsys, "/no/such/file.json")

    @pytest.mark.parametrize(
        "content", [b"{not json", NOT_UTF8, DEEP_NESTING], ids=["malformed", "not-utf8", "deep"]
    )
    def test_malformed_json(self, tmp_path, capsys, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        assert main(["analyze", "--instance", str(path)]) == 2
        assert "not valid JSON" in self.error_line(capsys, path)

    def test_invalid_instance_document(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({"states": ["s1", "s2"]}))
        assert main(["analyze", "--instance", str(path)]) == 2
        assert "invalid instance" in self.error_line(capsys, path)


class TestOutputPaths:
    """An output file that cannot be written exits 2 before any work starts."""

    COMMANDS = {
        "evaluate": ["--instance", DISJOINT, "--model", "gb", "--left", "bet_s1", "--right", "coin"],
        "audit": ["--instance", DISJOINT, "--model", "gb"],
        "analyze": ["--instance", DISJOINT],
        "slice": ["--instance", DISJOINT, "--direction", "1,-1"],
        "gen": ["--seed", "3"],
        "verify": ["--suites", "thm2", "--seeds", "0..1"],
    }

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started despite an unwritable output")

        for name in ("load_instance", "generate_act_grid", "slice_profile", "verify",
                     "analyze", "generate_instance", "verify_request"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("bad", ["missing", "directory"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bad_output_exits_two(self, no_work, tmp_path, capsys, command, bad):
        out = tmp_path / "missing" / "x.json" if bad == "missing" else tmp_path
        before = sorted(tmp_path.iterdir())
        code = main([command, *self.COMMANDS[command], "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out if bad == "directory" else out.parent) in err
        assert sorted(tmp_path.iterdir()) == before

    def test_an_output_that_vanishes_during_the_work_exits_two(self, monkeypatch, tmp_path, capsys):
        gone = tmp_path / "gone"
        gone.mkdir()
        generate = cli.generate_instance

        def vanish(*args, **kwargs):
            gone.rmdir()
            return generate(*args, **kwargs)

        monkeypatch.setattr(cli, "generate_instance", vanish)
        code = main(["gen", "--seed", "3", "--output", str(gone / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


class TestErrorBoundary:
    """``run`` reports bad input; a failed self-check is never bad input."""

    def test_a_value_error_exits_two_and_a_runtime_error_propagates(self, capsys):
        def fails(error: Exception):
            def body() -> int:
                raise error

            return body

        assert run(fails(ValueError("bad flag"))) == 2
        assert capsys.readouterr().err == "error: bad flag\n"
        with pytest.raises(RuntimeError, match="failed its own check"):
            run(fails(RuntimeError("a certificate failed its own check")))
        assert capsys.readouterr().err == ""
