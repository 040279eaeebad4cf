from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ambipref import (
    Act,
    AlphaMixture,
    AlphaOutOfRange,
    BeliefCollection,
    BeliefSet,
    Bewley,
    GenParams,
    InstanceValidationError,
    Lottery,
    NotARational,
    Prior,
    PrizeSet,
    StateSpace,
    UnknownBeliefSetName,
    UtilityFunction,
    UtilityVector,
    act_from_utility_vector,
    constant_act,
    dumps_instance,
    expected_value,
    format_rational,
    generate_instance,
    instance_to_jsonable,
    json_text,
    mix_acts,
    mix_lotteries,
    parse_rational,
    phi_lattice,
    statewise_dominates,
    utility_vector,
    validate_instance,
)
from ambipref.axioms import MIX_GRID
from ambipref.model import MAX_RATIONAL_DIGITS, primitive, scaled, vertex_rows

F = Fraction
DISJOINT_PAIR = Path(__file__).resolve().parent.parent / "instances" / "disjoint_pair.json"

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


def _collection(name_probs):
    return BeliefCollection(
        tuple(BeliefSet(name, tuple(Prior(p) for p in probs)) for name, probs in name_probs)
    )


HALVES_THIRDS = [
    ("halves", [(F(1, 2), F(1, 2)), (F(1), F(0))]),
    ("thirds", [(F(1, 3), F(2, 3)), (F(0), F(1)), (F(2, 3), F(1, 3))]),
]


class TestIntegerView:
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_are_den_times_probs(self, seed):
        coll = generate_instance(seed, GenParams(num_states=3 + seed % 2)).collection
        den, rows = coll.integer_view
        assert den == math.lcm(*(p.denominator for s in coll for v in s.vertices for p in v.probs))
        assert [len(verts) for verts in rows] == [len(s.vertices) for s in coll]
        for verts, bset in zip(rows, coll):
            for row, vertex in zip(verts, bset.vertices):
                assert all(type(x) is int for x in row)
                assert row == tuple(den * p for p in vertex.probs)

    def test_rows_run_in_set_and_vertex_order(self):
        den, rows = _collection(HALVES_THIRDS).integer_view
        assert den == 6
        assert rows == (((3, 3), (6, 0)), ((2, 4), (0, 6), (4, 2)))

    def test_one_set_selection_gets_its_own_denominator(self):
        coll = _collection(HALVES_THIRDS)
        assert _collection(HALVES_THIRDS[:1]).integer_view == (2, (((1, 1), (2, 0)),))
        assert Bewley("thirds").sets(coll).integer_view == (3, (((1, 2), (0, 3), (2, 1)),))

    def test_sets_of_any_dimension_share_one_denominator(self):
        """``vertex_rows`` cuts each vertex at its own length, as ``verify`` reads it."""
        halves, thirds = (BeliefSet(n, tuple(map(Prior, verts))) for n, verts in HALVES_THIRDS)
        flat = BeliefSet("flat", (Prior((F(1, 4),) * 4),))
        assert vertex_rows((halves, flat, thirds)) == (
            12,
            (((6, 6), (12, 0)), ((3, 3, 3, 3),), ((4, 8), (0, 12), (8, 4))),
        )
        assert vertex_rows((halves, thirds)) == _collection(HALVES_THIRDS).integer_view

    def test_view_leaves_equality_and_hashing_alone(self):
        built, fresh = _collection(HALVES_THIRDS), _collection(HALVES_THIRDS)
        assert built.integer_view[0] == 6
        assert "integer_view" in vars(built) and "integer_view" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert built != _collection(HALVES_THIRDS[:1])


class TestReadIn:
    """``scaled`` and ``primitive``, where every layer crosses from Fractions to integers."""

    @given(st.lists(rationals | st.integers(-100, 100), max_size=8))
    def test_scaled_is_exact_over_the_lcm(self, values):
        den, ints = scaled(values)
        assert all(type(x) is int for x in ints)
        assert [F(x, den) for x in ints] == values
        assert den == math.lcm(*(F(v).denominator for v in values))

    @given(st.lists(st.integers(-1000, 1000), max_size=8), st.integers(1, 60))
    @example([3, -5, 0], 2)
    @example([0, 0], 7)
    def test_primitive_keeps_the_ratios(self, base, factor):
        ints = [factor * x for x in base]
        reduced, g = primitive(ints), math.gcd(*ints)
        if g <= 1:
            assert reduced is ints
        else:
            assert [x * g for x in reduced] == ints
        assert math.gcd(*reduced) == (1 if any(ints) else 0)
        assert primitive(reduced) is reduced


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

    @pytest.mark.parametrize("seed, states", [(0, 2), (3, 3)])
    def test_common_mixing_scales_the_utility_difference(self, seed, states):
        """Mixing f and g with one act h at weight a leaves a * (u_f - u_g).

        Over 48 strided triples of a lattice battery and every weight in
        ``MIX_GRID``; independence audits rely on this identity and check
        homogeneity on the differences alone.
        """
        inst = generate_instance(seed, GenParams(num_states=states))
        vecs = phi_lattice(states, 4 - states, F(1))
        acts = [act_from_utility_vector(inst, v.entries) for v in vecs]
        n = len(acts)
        for flat in range(0, n**3, max(1, n**3 // 48)):
            f, rem = divmod(flat, n * n)
            g, h = divmod(rem, n)
            for a in MIX_GRID:
                left = utility_vector(inst.utility, mix_acts(a, acts[f], acts[h]))
                right = utility_vector(inst.utility, mix_acts(a, acts[g], acts[h]))
                assert left - right == (vecs[f] - vecs[g]).scale(a), (f, g, h, a)

    def test_mix_weight_out_of_range(self, disjoint_pair):
        f = disjoint_pair.act("bet_s1")
        with pytest.raises(ValueError):
            mix_acts(F(3, 2), f, f)

    @pytest.mark.parametrize(
        "weight, error, message",
        [
            (0.5, NotARational, "mixture weight must be an int or a Fraction, got 0.5"),
            (True, NotARational, "mixture weight must be an int or a Fraction, got True"),
            ("1/2", NotARational, "mixture weight must be an int or a Fraction"),
            (F(3, 2), AlphaOutOfRange, r"mixture weight 3/2 outside \[0, 1\]"),
            (-1, AlphaOutOfRange, r"mixture weight -1 outside \[0, 1\]"),
        ],
    )
    @pytest.mark.parametrize("mixer", ["alpha_mixture", "mix_lotteries", "mix_acts"])
    def test_every_mixer_checks_its_weight_alike(
        self, disjoint_pair, mixer, weight, error, message
    ):
        f, g = disjoint_pair.act("bet_s1"), disjoint_pair.act("all_lose")
        mix = {
            "alpha_mixture": lambda: AlphaMixture(weight),
            "mix_lotteries": lambda: mix_lotteries(weight, f.lotteries[0], g.lotteries[0]),
            "mix_acts": lambda: mix_acts(weight, f, g),
        }[mixer]
        with pytest.raises(error, match=message):
            mix()

    @pytest.mark.parametrize("weight", [0, 1, F(0), F(1)])
    def test_endpoint_weights_pick_one_side(self, disjoint_pair, weight):
        f, g = disjoint_pair.act("bet_s1"), disjoint_pair.act("all_lose")
        assert mix_acts(weight, f, g) == (f if weight == 1 else g)

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


WIN, LOSE = Lottery({"win": F(1)}), Lottery({"lose": F(1)})
HALF = Prior((F(1, 2), F(1, 2)))
POINT = Prior((F(1),))


# Each case builds an object that breaks one constructor or helper
# invariant, from the disjoint-pair instance where it needs one.
INVARIANT_CASES = {
    "duplicate state": (lambda inst: StateSpace(("s1", "s1")), "duplicate state labels"),
    "no states": (lambda inst: StateSpace(()), "state space must be nonempty"),
    "one prize": (lambda inst: PrizeSet(("win",)), "need at least two prizes"),
    "duplicate prize": (lambda inst: PrizeSet(("win", "win")), "duplicate prize labels"),
    "constant utility": (
        lambda inst: UtilityFunction({"lose": F(1), "win": F(1)}),
        "utility is constant across prizes",
    ),
    "empty vector": (lambda inst: UtilityVector(()), "at least one entry"),
    "empty act": (lambda inst: Act(()), "act must cover at least one state"),
    "empty prior": (lambda inst: Prior(()), "prior must cover at least one state"),
    "no vertices": (lambda inst: BeliefSet("b", ()), "belief set 'b' has no vertices"),
    "mixed vertex dimensions": (
        lambda inst: BeliefSet("b", (HALF, POINT)),
        r"belief set 'b' mixes dimensions \[1, 2\]",
    ),
    "repeated vertex": (lambda inst: BeliefSet("b", (HALF, HALF)), "belief set 'b' repeats vertex"),
    "no sets": (lambda inst: BeliefCollection(()), "must contain at least one set"),
    "sets on two dimensions": (
        lambda inst: BeliefCollection((BeliefSet("a", (HALF,)), BeliefSet("b", (POINT,)))),
        r"belief sets disagree on dimension: \[1, 2\]",
    ),
    "duplicate set": (
        lambda inst: BeliefCollection((BeliefSet("a", (HALF,)), BeliefSet("a", (HALF,)))),
        "duplicate belief set labels",
    ),
    "collection on other states": (
        lambda inst: dataclasses.replace(
            inst, collection=BeliefCollection((BeliefSet("a", (POINT,)),))
        ),
        "belief sets live on 1 states, instance has 2",
    ),
    "utility on other prizes": (
        lambda inst: dataclasses.replace(
            inst, utility=UtilityFunction({"lose": F(0), "draw": F(1)})
        ),
        "utility must assign a value to exactly the declared prizes",
    ),
    "act on too few states": (
        lambda inst: dataclasses.replace(inst, acts={"short": Act((WIN,))}),
        "act 'short' covers 1 states, expected 2",
    ),
    "act on an unknown prize": (
        lambda inst: dataclasses.replace(inst, acts={"odd": Act((WIN, Lottery({"draw": F(1)})))}),
        r"act 'odd' uses unknown prizes \['draw'\]",
    ),
    "expected value across dimensions": (
        lambda inst: expected_value(HALF, UtilityVector((F(1),))),
        "prior and utility vector disagree on dimension",
    ),
    "mixing acts across dimensions": (
        lambda inst: mix_acts(F(1, 2), Act((WIN,)), Act((WIN, LOSE))),
        "acts disagree on the number of states",
    ),
    "act from a vector of another dimension": (
        lambda inst: act_from_utility_vector(inst, [F(0)]),
        "target vector dimension does not match the state space",
    ),
}


@pytest.mark.parametrize("case", INVARIANT_CASES)
def test_invariant_violations_raise(disjoint_pair, case):
    build, message = INVARIANT_CASES[case]
    with pytest.raises(ValueError, match=message):
        build(disjoint_pair)


def test_extreme_prizes_when_the_low_prize_comes_last():
    utility = UtilityFunction({"win": F(1), "draw": F(0), "lose": F(-1), "bust": F(-1)})
    assert utility.extreme_prizes() == ("lose", "win")


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


def _set(path, value):
    """A change to the instance document that sets the item at ``path``."""
    def change(doc):
        *keys, last = path
        item = doc
        for key in keys:
            item = item[key]
        item[last] = value
        return doc
    return change


LOSE = ("acts", "all_lose", "s1")
MALFORMED = {
    "undeclared act prize": (_set(LOSE, {"lose": "1", "jackpot": "0"}),
                             [("UnknownPrize", "acts.all_lose.s1.jackpot")]),
    "decimal weight": (_set(LOSE, {"lose": "1.5"}), [("BadRational", "acts.all_lose.s1.lose")]),
    "negative weight": (_set(LOSE, {"lose": "-1", "win": "2"}),
                        [("NonSimplexLottery", "acts.all_lose.s1.lose")]),
    "weights short of one": (_set(LOSE, {"lose": "1/2"}),
                             [("NonSimplexLottery", "acts.all_lose.s1")]),
    "lottery not a map": (_set(LOSE, ["lose"]), [("MissingField", "acts.all_lose.s1")]),
    "act not a map": (_set(("acts", "all_lose"), "lose"), [("MissingField", "acts.all_lose")]),
    "acts not a map": (_set(("acts",), []), [("MissingField", "acts")]),
    "belief set not an object": (_set(("belief_collection", 0), "low"),
                                 [("MissingField", "belief_collection[0]")]),
    "empty set name": (_set(("belief_collection", 0, "name"), ""),
                       [("MissingField", "belief_collection[0].name")]),
    "no vertices": (_set(("belief_collection", 0, "vertices"), []),
                    [("EmptyCollection", "belief_collection[0].vertices")]),
    "undeclared utility prize": (_set(("utility", "extra"), "0"),
                                 [("UnknownPrize", "utility.extra")]),
    "top-level list": (lambda doc: [doc], [("MissingField", "$")]),
    "one prize": (lambda doc: {**doc, "prizes": ["lose"], "utility": {"lose": "-1"}, "acts": {}},
                  [("DimensionMismatch", "prizes"), ("ConstantUtility", "utility")]),
    "repeated prize": (_set(("prizes",), ["lose", "lose", "win"]),
                       [("DuplicateLabel", "prizes")]),
}


@pytest.mark.parametrize("change, expected", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_instance_issues(change, expected):
    """Each malformed copy of the disjoint-pair instance names its issues and paths."""
    with pytest.raises(InstanceValidationError) as exc:
        validate_instance(change(json.loads(DISJOINT_PAIR.read_text())))
    assert [(i.code, i.path) for i in exc.value.issues] == expected


class TestSerialization:
    def test_round_trip_preserves_everything(self, disjoint_pair):
        doc = json.loads(dumps_instance(disjoint_pair))
        again = validate_instance(doc)
        assert instance_to_jsonable(again) == instance_to_jsonable(disjoint_pair)

    def test_dumps_is_stable(self, touching_intervals):
        text = dumps_instance(touching_intervals)
        assert text == dumps_instance(validate_instance(json.loads(text)))
        assert text.endswith("\n")

    def test_json_text_is_the_instance_layout(self, disjoint_pair):
        text = dumps_instance(disjoint_pair)
        assert json_text(json.loads(text)) == text

    def test_act_lookup_error_names_candidates(self, disjoint_pair):
        with pytest.raises(KeyError) as caught:
            disjoint_pair.act("missing")
        assert isinstance(caught.value, ValueError)
        assert str(caught.value) == (
            "instance has no act named 'missing'; it has all_lose, all_win, bet_s1, bet_s2, coin"
        )

    def test_belief_set_lookup_error_names_candidates(self, disjoint_pair):
        with pytest.raises(UnknownBeliefSetName) as caught:
            disjoint_pair.collection.get("missing")
        assert isinstance(caught.value, KeyError) and isinstance(caught.value, ValueError)
        assert str(caught.value) == "no belief set named 'missing'; the collection has low, high"
