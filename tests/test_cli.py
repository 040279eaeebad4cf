from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from ambipref import AlphaMixture, Bewley, Justifiable, Prior, SEU, load_instance
from ambipref import cli
from ambipref.cli import (
    MAX_BATTERY_ACTS,
    MAX_SLICE_SAMPLES,
    InputError,
    main,
    parse_model,
    parse_seed_range,
)

F = Fraction

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
DISJOINT = str(INSTANCES / "disjoint_pair.json")
TOUCHING = str(INSTANCES / "touching_intervals.json")
OVERLAP = str(INSTANCES / "overlapping_intervals.json")


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
        with pytest.raises(InputError, match="3 entries"):
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

    @pytest.mark.parametrize("text", ["5..1", "a..b", "x", "1,two", ""])
    def test_bad_ranges(self, text):
        with pytest.raises(InputError):
            parse_seed_range(text)


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


class TestSizeLimits:
    """Oversized batteries and sample counts exit 2 before any work starts."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started despite an input over the limit")

        for name in ("generate_act_grid", "slice_profile", "verify"):
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

    def test_slice_samples(self, no_work, capsys):
        code = main(["slice", "--instance", DISJOINT, "--direction", "1,-1",
                     "--samples", str(MAX_SLICE_SAMPLES + 1)])
        assert code == 2
        assert f"limit of {MAX_SLICE_SAMPLES}" in capsys.readouterr().err

    def test_verify_counts_the_lemma3_escalation(self, no_work, capsys):
        # Odd seeds have three states; lemma3 doubles resolution 3 to 6: 13 ** 3 acts.
        code = main(["verify", "--suites", "thm2,lemma3", "--seeds", "0..1",
                     "--resolution", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "lemma3" in err and "2197 acts" in err

    def test_verify_uses_the_largest_state_count(self, no_work, capsys):
        code = main(["verify", "--suites", "thm2", "--seeds", "0..3", "--states", "4",
                     "--resolution", "3"])
        assert code == 2
        assert "2401 acts" in capsys.readouterr().err

    def test_verify_defaults_fit(self, monkeypatch):
        # Resolution 2 on three states escalates to the 729-act lemma3 battery.
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "verify", reached)
        with pytest.raises(Reached):
            main(["verify", "--suites", "all", "--seeds", "0..1"])


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
        assert "unknown suite" in capsys.readouterr().err

    def test_bad_seed_range(self, capsys):
        code = main(["verify", "--suites", "thm2", "--seeds", "9..1"])
        assert code == 2
        assert "empty seed range" in capsys.readouterr().err

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
    def test_missing_file(self, capsys):
        assert main(["analyze", "--instance", "/no/such/file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", "--instance", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_invalid_instance_document(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({"states": ["s1", "s2"]}))
        assert main(["analyze", "--instance", str(path)]) == 2
        assert "invalid instance" in capsys.readouterr().err
