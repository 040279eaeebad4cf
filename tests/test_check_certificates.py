"""The standalone certificate checker accepts the pinned reports and catches tampering."""

from __future__ import annotations

import ast
import importlib.util
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "check_certificates.py"
STEMS = sorted(p.stem for p in (ROOT / "instances").glob("*.json"))


def _load_script():
    spec = importlib.util.spec_from_file_location("check_certificates", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_script()


def _run(tmp_path, stem, tamper=None):
    """The checker's exit status and output on a pinned report, tampered or not."""
    report = json.loads((ROOT / "tests" / "data" / "analyze" / f"{stem}.json").read_text())
    if tamper is not None:
        tamper(report)
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(report))
    return checker.main([str(ROOT / "instances" / f"{stem}.json"), str(path)])


def test_the_script_imports_nothing_from_the_package():
    imported = set()
    for node in ast.walk(ast.parse(SCRIPT.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported == {"json", "fractions", "sys"}


@pytest.mark.parametrize("stem", STEMS)
def test_pinned_reports_pass(tmp_path, stem, capsys):
    assert _run(tmp_path, stem) == 0
    assert capsys.readouterr().out == ""


def test_perturbed_weight_is_rejected(tmp_path, capsys):
    def perturb(report):
        cert = report["pairwise_intersections"]["certificates"][0]
        assert cert["kind"] == "common_prior"
        weights = [Fraction(w) for w in cert["weights_first"]]
        weights[0] += Fraction(1, 100)
        weights[1] -= Fraction(1, 100)  # still sums to 1
        cert["weights_first"] = [str(w) for w in weights]

    assert _run(tmp_path, "overlapping_intervals", perturb) == 1
    assert capsys.readouterr().out.splitlines() == [
        "certificate 0 (left, right): weights_first mixes its vertices into "
        "(497/1000, 503/1000), not the prior"
    ]


def test_slack_off_by_one_unit_is_rejected(tmp_path, capsys):
    def nudge(report):
        cert = report["pairwise_intersections"]["certificates"][0]
        assert cert["kind"] == "disjoint"
        slack = Fraction(cert["slack"])
        cert["slack"] = str(Fraction(slack.numerator + 1, slack.denominator))

    assert _run(tmp_path, "disjoint_pair", nudge) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "is not the smaller floor 1/5" in lines[0]


def test_flipped_verdict_is_rejected(tmp_path, capsys):
    def flip(report):
        report["pairwise_intersections"]["holds"] = True

    assert _run(tmp_path, "disjoint_pair", flip) == 1
    assert "pairwise_intersections.holds" in capsys.readouterr().out


def test_swapped_straddle_pair_is_rejected(tmp_path, capsys):
    def swap(report):
        report["cutting"]["straddles"][0].reverse()

    assert _run(tmp_path, "overlapping_intervals", swap) == 1
    assert capsys.readouterr().out.splitlines() == [
        "cutting: vertices 0 and 1 of set left do not lie strictly above and below 0 "
        "along the normal"
    ]


def test_flipped_complete_param_is_rejected(tmp_path, capsys):
    def flip(report):
        assert report["cutting"] is not None
        report["complete_param"] = True

    assert _run(tmp_path, "overlapping_intervals", flip) == 1
    assert capsys.readouterr().out.splitlines() == [
        "complete_param is True, the cut says False"
    ]


def test_a_generated_three_state_cut_passes(tmp_path, capsys):
    """Seed 6 at 3 states has a cut across 4 sets of up to 6 vertices."""
    from ambipref import GenParams, analyze, generate_instance, instance_to_jsonable

    inst = generate_instance(6, GenParams(num_states=3, num_sets=4, vertices_per_set=6))
    report = analyze(inst).to_jsonable()
    assert report["cutting"] is not None
    paths = tmp_path / "instance.json", tmp_path / "report.json"
    for path, doc in zip(paths, (instance_to_jsonable(inst), report)):
        path.write_text(json.dumps(doc))
    assert checker.main([str(p) for p in paths]) == 0
    assert capsys.readouterr().out == ""


def test_a_report_longer_than_the_instance_format_passes(tmp_path, capsys):
    """A report's computed numbers may outgrow the 100 digits of an instance part."""
    from ambipref import GenParams, analyze, generate_instance, instance_to_jsonable

    inst = generate_instance(0, GenParams(num_states=3, denominator_bound=10**99))
    report = analyze(inst).to_jsonable()
    assert max(len(part) for part in re.findall(r"\d+", json.dumps(report))) > 100
    paths = tmp_path / "instance.json", tmp_path / "report.json"
    for path, doc in zip(paths, (instance_to_jsonable(inst), report)):
        path.write_text(json.dumps(doc))
    assert checker.main([str(p) for p in paths]) == 0
    assert capsys.readouterr().out == ""


def _check_generated(tmp_path, seed, states):
    """The checker's exit status on ``ambipref gen --seed SEED --states STATES``'s report."""
    from ambipref import GenParams, analyze, generate_instance, instance_to_jsonable

    inst = generate_instance(seed, GenParams(num_states=states))
    paths = tmp_path / "instance.json", tmp_path / "report.json"
    for path, doc in zip(paths, (instance_to_jsonable(inst), analyze(inst).to_jsonable())):
        path.write_text(json.dumps(doc))
    return checker.main([str(p) for p in paths])


@pytest.mark.parametrize("seed, phi1, a", [
    (37, "-1/641, -1, 39/641", Fraction(1, 641)),
    (148, "3/443, -157/443, 1", Fraction(3, 443)),
])
def test_commutation_contradicted_by_a_samet_direction(tmp_path, capsys, seed, phi1, a):
    """The lattice says the operators commute; the P1/P3 certificate's phi1 says not."""
    assert _check_generated(tmp_path, seed, 3) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"commutes: holds is true, but phi1 of certificate 1 ({phi1}) has "
        f"maxmin {a} and minmax {-a}"
    ]


def test_a_counterexample_must_replay(tmp_path, capsys):
    def nudge(report):
        counter = report["commutes"]["counterexample"]
        counter["maxmin"] = str(Fraction(counter["maxmin"]) + 1)

    assert _run(tmp_path, "disjoint_pair", nudge) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("commutes: the counterexample replays to")


def test_holds_must_match_the_counterexample(tmp_path, capsys):
    def flip(report):
        report["commutes"]["holds"] = True

    assert _run(tmp_path, "disjoint_pair", flip) == 1
    assert capsys.readouterr().out.splitlines() == [
        "commutes: holds is True, the counterexample says False"
    ]


def test_a_cut_contradicts_commutation(tmp_path, capsys):
    def commute(report):
        report["commutes"].update(holds=True, counterexample=None)

    assert _run(tmp_path, "overlapping_intervals", commute) == 1
    assert capsys.readouterr().out.splitlines() == [
        "commutes: holds is true, but the cut's normal (11/10, -9/10) has "
        "maxmin -1/10 and minmax 1/10"
    ]


def test_a_perturbed_collapse_prior_is_rejected(tmp_path, capsys):
    def perturb(report):
        assert report["seu_collapse"] == ["2/5", "3/5"]
        report["seu_collapse"] = ["1/2", "1/2"]

    assert _run(tmp_path, "touching_intervals", perturb) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seu_collapse: (1/2, 1/2) is not (2/5, 3/5)"
    ]


def test_a_removed_collapse_prior_is_rejected(tmp_path, capsys):
    def remove(report):
        report["seu_collapse"] = None

    assert _run(tmp_path, "touching_intervals", remove) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seu_collapse: null, but every set holds the first-state probability 2/5"
    ]


def test_a_collapse_on_disjoint_intervals_is_rejected(tmp_path, capsys):
    def add(report):
        report["seu_collapse"] = ["1/2", "1/2"]

    assert _run(tmp_path, "disjoint_pair", add) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "seu_collapse: a collapse prior is reported, but the largest least")


def test_a_collapse_on_three_states_is_rejected(tmp_path, capsys):
    from ambipref import GenParams, analyze, generate_instance, instance_to_jsonable

    inst = generate_instance(6, GenParams(num_states=3, num_sets=4, vertices_per_set=6))
    report = analyze(inst).to_jsonable()
    report["seu_collapse"] = ["1/3", "1/3", "1/3"]
    paths = tmp_path / "instance.json", tmp_path / "report.json"
    for path, doc in zip(paths, (instance_to_jsonable(inst), report)):
        path.write_text(json.dumps(doc))
    assert checker.main([str(p) for p in paths]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seu_collapse: a collapse prior is reported on 3 states, not 2"
    ]


def test_usage_error_exits_2(capsys):
    assert checker.main([]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "usage" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read"),
        ("not json", "cannot read"),
        ("[" * 100_000 + "]" * 100_000, "cannot read"),
        ("{}", "not an instance and its analyze report"),
        ("instance", "not an instance and its analyze report"),
    ],
    ids=["missing", "not-json", "deep-nesting", "empty-object", "instance-as-report"],
)
def test_unreadable_or_malformed_input_exits_2(tmp_path, capsys, content, message):
    instance = ROOT / "instances" / f"{STEMS[0]}.json"
    report = tmp_path / "report.json"
    if content == "instance":
        report = instance
    elif content is not None:
        report.write_text(content)
    assert checker.main([str(instance), str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and message in captured.err
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "entry",
    ["1e10000000", "0.5", "0.5e0", 10**100],
    ids=["huge-exponent", "decimal", "decimal-exponent", "101-digit-int"],
)
def test_an_instance_rational_outside_the_format_exits_2_at_once(tmp_path, capsys, entry):
    doc = json.loads((ROOT / "instances" / "disjoint_pair.json").read_text())
    doc["belief_collection"][0]["vertices"][0][0] = entry
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(doc))
    started = time.monotonic()
    code = checker.main([str(instance), str(ROOT / "tests" / "data" / "analyze" / "disjoint_pair.json")])
    assert time.monotonic() - started < 1
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not an exact rational" in captured.err


@pytest.mark.parametrize(
    "text, value",
    [("3/4", Fraction(3, 4)), ("-7", Fraction(-7)), ("+2/6", Fraction(1, 3)),
     ("9" * 100, Fraction(int("9" * 100))), (-(10**100) + 1, Fraction(-(10**100) + 1))],
)
def test_the_instance_format_rationals_are_read(text, value):
    assert checker._rational(text) == value


@pytest.mark.parametrize(
    "text",
    ["", "+", "1/", "/2", "1/-2", "--1", "1/2/3", " 1", "1_000", "\u0661", 1.5, True, None],
)
def test_other_values_are_refused(text):
    with pytest.raises(ValueError, match="not an exact rational"):
        checker._rational(text)


@pytest.mark.parametrize(
    "text",
    ["9" * 101, "1/" + "9" * 101, -(10**100)],
    ids=["101-digit-numerator", "101-digit-denominator", "101-digit-int"],
)
def test_a_part_longer_than_the_cap_is_refused_only_with_the_cap(text):
    assert checker._rational(text) == Fraction(text)
    with pytest.raises(ValueError, match="not an exact rational"):
        checker._rational(text, checker.MAX_DIGITS)


def test_a_report_rational_outside_the_format_is_malformed(tmp_path, capsys):
    def decimal(report):
        report["pairwise_intersections"]["certificates"][0]["slack"] = "0.2"

    assert _run(tmp_path, "disjoint_pair", decimal) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "malformed" in lines[0] and "not an exact rational" in lines[0]


@pytest.mark.parametrize(
    "stem, key, where",
    [("overlapping_intervals", "prior", "left, right"),
     ("disjoint_pair", "phi1", "low, high"),
     ("disjoint_pair", "phi2", "low, high")],
)
def test_a_vector_short_of_the_states_is_rejected(tmp_path, capsys, stem, key, where):
    def truncate(report):
        cert = report["pairwise_intersections"]["certificates"][0]
        cert[key] = cert[key][:1]

    assert _run(tmp_path, stem, truncate) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"certificate 0 ({where}): {key} has 1 entries, not one per state"
    ]
