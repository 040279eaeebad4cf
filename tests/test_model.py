from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ambipref import (
    Act,
    InstanceValidationError,
    Lottery,
    NotARational,
    Prior,
    UtilityVector,
    act_from_utility_vector,
    constant_act,
    dumps_instance,
    expected_value,
    format_rational,
    instance_to_jsonable,
    mix_acts,
    mix_lotteries,
    parse_rational,
    statewise_dominates,
    utility_vector,
    validate_instance,
)
from ambipref.model import MAX_RATIONAL_DIGITS

F = Fraction

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


class TestRationalCodec:
    @pytest.mark.parametrize(
        "text, expected",
        [("3/4", F(3, 4)), ("-2/6", F(-1, 3)), ("5", F(5)), ("0", F(0)), ("-7", F(-7))],
    )
    def test_parses_strings_and_ints(self, text, expected):
        assert parse_rational(text) == expected
        if expected.denominator == 1:
            assert parse_rational(expected.numerator) == expected

    @pytest.mark.parametrize(
        "bad",
        [
            0.5, True, None, "one half", "1/0", [1, 2],
            "1e1000000", "1e3", "1.5", ".5", "1_000", "3/-4", "3/+4", " 3/4", "3 / 4",
            "", "-", "/4", "\u0663", "inf", "nan",
            "9" * (MAX_RATIONAL_DIGITS + 1), "1/" + "9" * (MAX_RATIONAL_DIGITS + 1),
            10**MAX_RATIONAL_DIGITS, -(10**MAX_RATIONAL_DIGITS),
        ],
    )
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(NotARational):
            parse_rational(bad)

    def test_accepts_the_longest_allowed_parts(self):
        top = "9" * MAX_RATIONAL_DIGITS
        assert parse_rational(f"+{top}/{top}") == 1
        assert parse_rational(-int(top)) == -int(top)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_format_is_canonical(self):
        assert format_rational(F(4, 8)) == "1/2"
        assert format_rational(F(-3)) == "-3"


class TestStructures:
    def test_lottery_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Lottery({"win": F(1, 2), "lose": F(1, 4)})

    def test_lottery_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            Lottery({"win": F(3, 2), "lose": F(-1, 2)})

    def test_prior_must_be_distribution(self):
        with pytest.raises(ValueError):
            Prior((F(1, 2), F(1, 3)))
        with pytest.raises(ValueError):
            Prior((F(-1, 4), F(5, 4)))

    def test_utility_vector_arithmetic(self):
        u = UtilityVector((F(1), F(-1)))
        v = UtilityVector((F(1, 2), F(1, 2)))
        assert (u + v).entries == (F(3, 2), F(-1, 2))
        assert (u - v).entries == (F(1, 2), F(-3, 2))
        assert (-u).entries == (F(-1), F(1))
        assert u.scale(F(1, 2)).entries == (F(1, 2), F(-1, 2))
        assert u.shift(F(1)).entries == (F(2), F(0))
        assert u.inf_norm() == F(1)
        assert not u.is_constant()
        assert v.is_constant()

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            UtilityVector((F(1),)) + UtilityVector((F(1), F(2)))


class TestActHelpers:
    def test_utility_vector_of_bet(self, disjoint_pair):
        bet = disjoint_pair.act("bet_s1")
        assert utility_vector(disjoint_pair.utility, bet).entries == (F(1), F(-1))

    def test_constant_act_hits_target_level(self, disjoint_pair):
        act = constant_act(disjoint_pair, F(1, 3))
        vec = utility_vector(disjoint_pair.utility, act)
        assert vec.entries == (F(1, 3), F(1, 3))
        assert act.is_constant()

    def test_act_from_utility_vector_realizes_targets(self, disjoint_pair):
        targets = [F(-1, 2), F(3, 4)]
        act = act_from_utility_vector(disjoint_pair, targets)
        vec = utility_vector(disjoint_pair.utility, act)
        assert list(vec.entries) == targets

    def test_act_from_utility_vector_rejects_out_of_range(self, disjoint_pair):
        with pytest.raises(ValueError):
            act_from_utility_vector(disjoint_pair, [F(2), F(0)])

    @given(rationals, rationals, st.fractions(min_value=0, max_value=1, max_denominator=16))
    def test_mixing_is_linear_in_utility(self, a, b, w):
        """Expected utility of a lottery mix interpolates the endpoints."""
        # scale inputs into the unit range so the lotteries stay valid
        bound = max(abs(a), abs(b), 1)
        a, b = a / bound, b / bound
        x = Lottery({"win": (1 + a) / 2, "lose": (1 - a) / 2})
        y = Lottery({"win": (1 + b) / 2, "lose": (1 - b) / 2})
        mixed = mix_lotteries(w, x, y)
        assert mixed.weight("win") == w * x.weight("win") + (1 - w) * y.weight("win")

    def test_mix_acts_statewise(self, disjoint_pair):
        f = disjoint_pair.act("bet_s1")
        g = disjoint_pair.act("all_lose")
        mixed = mix_acts(F(1, 4), f, g)
        vec = utility_vector(disjoint_pair.utility, mixed)
        assert vec.entries == (F(-1, 2), F(-1))

    def test_mix_weight_out_of_range(self, disjoint_pair):
        f = disjoint_pair.act("bet_s1")
        with pytest.raises(ValueError):
            mix_acts(F(3, 2), f, f)

    def test_statewise_dominance(self, disjoint_pair):
        assert statewise_dominates(
            disjoint_pair, disjoint_pair.act("all_win"), disjoint_pair.act("coin")
        )
        assert not statewise_dominates(
            disjoint_pair, disjoint_pair.act("bet_s1"), disjoint_pair.act("bet_s2")
        )

    def test_expected_value(self):
        p = Prior((F(1, 4), F(3, 4)))
        assert expected_value(p, UtilityVector((F(1), F(-1)))) == F(-1, 2)


class TestValidation:
    def base_doc(self) -> dict:
        return {
            "states": ["s1", "s2"],
            "prizes": ["lose", "win"],
            "utility": {"lose": "-1", "win": "1"},
            "belief_collection": [
                {"name": "only", "vertices": [["1/2", "1/2"], ["1/4", "3/4"]]}
            ],
            "acts": {},
        }

    def test_accepts_minimal_document(self):
        inst = validate_instance(self.base_doc())
        assert inst.num_states == 2
        assert inst.utility_bounds() == (F(-1), F(1))
        assert len(inst.collection) == 1

    def test_collects_multiple_issues(self):
        doc = self.base_doc()
        doc["utility"] = {"lose": "-1"}  # win unassigned
        doc["belief_collection"][0]["vertices"].append(["1/2", "1/3"])
        with pytest.raises(InstanceValidationError) as exc:
            validate_instance(doc)
        codes = {issue.code for issue in exc.value.issues}
        assert "MissingField" in codes
        assert "NonSimplexPrior" in codes
        assert len(exc.value.issues) >= 2

    def test_duplicate_set_name_rejected(self):
        doc = self.base_doc()
        doc["belief_collection"].append(dict(doc["belief_collection"][0]))
        with pytest.raises(InstanceValidationError) as exc:
            validate_instance(doc)
        assert any(i.code == "DuplicateLabel" for i in exc.value.issues)

    def test_duplicate_vertex_rejected(self):
        doc = self.base_doc()
        doc["belief_collection"][0]["vertices"].append(["1/2", "1/2"])
        with pytest.raises(InstanceValidationError) as exc:
            validate_instance(doc)
        assert any(i.code == "DuplicateVertex" for i in exc.value.issues)

    def test_constant_utility_rejected(self):
        doc = self.base_doc()
        doc["utility"] = {"lose": "1", "win": "1"}
        with pytest.raises(InstanceValidationError) as exc:
            validate_instance(doc)
        assert any(i.code == "ConstantUtility" for i in exc.value.issues)

    def test_vertex_dimension_mismatch(self):
        doc = self.base_doc()
        doc["belief_collection"][0]["vertices"][0] = ["1"]
        with pytest.raises(InstanceValidationError) as exc:
            validate_instance(doc)
        assert any(i.code == "DimensionMismatch" for i in exc.value.issues)

    def test_act_referencing_unknown_state(self):
        doc = self.base_doc()
        doc["acts"]["odd"] = {"s1": {"win": "1"}, "s3": {"win": "1"}}
        with pytest.raises(InstanceValidationError) as exc:
            validate_instance(doc)
        codes = {i.code for i in exc.value.issues}
        assert "UnknownState" in codes

    def test_float_probability_rejected(self):
        doc = self.base_doc()
        doc["belief_collection"][0]["vertices"][0] = [0.5, 0.5]
        with pytest.raises(InstanceValidationError):
            validate_instance(doc)


class TestSerialization:
    def test_round_trip_preserves_everything(self, disjoint_pair):
        doc = json.loads(dumps_instance(disjoint_pair))
        again = validate_instance(doc)
        assert instance_to_jsonable(again) == instance_to_jsonable(disjoint_pair)

    def test_dumps_is_stable(self, touching_intervals):
        text = dumps_instance(touching_intervals)
        assert text == dumps_instance(validate_instance(json.loads(text)))
        assert text.endswith("\n")

    def test_act_lookup_error_names_candidates(self, disjoint_pair):
        with pytest.raises(KeyError):
            disjoint_pair.act("missing")
