from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambipref import (
    AlphaMixture,
    AlphaOutOfRange,
    Bewley,
    Conjunctive,
    Disjunctive,
    GenParams,
    GeneralizedBewley,
    HalfMixture,
    Justifiable,
    NotARational,
    Relation,
    SEU,
    Prior,
    UnknownBeliefSetName,
    UtilityVector,
    classify,
    describe_model,
    expected_value,
    generate_instance,
    margin_pair,
    margin_profile,
    model_margin,
    phi_between,
    robust_weakly_prefers,
    set_max,
    set_min,
    weakly_prefers,
)

F = Fraction
BET = UtilityVector((F(1), F(-1)))

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=24)
phis = st.tuples(rationals, rationals).map(UtilityVector)
# Zero, negative and large-denominator entries, for phis on 3 and 4 states.
wide_entries = st.one_of(
    st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=10**12)
)


def all_kinds(instance):
    """Every model kind, instantiated against this instance's belief sets."""
    names = [s.name for s in instance.collection.sets]
    n = instance.num_states
    uniform = Prior(tuple(F(1, n) for _ in range(n)))
    return [
        GeneralizedBewley(),
        Disjunctive(),
        Conjunctive(),
        HalfMixture(),
        AlphaMixture(F(3, 4)),
        Bewley(names[0]),
        Justifiable(names[-1]),
        SEU(uniform),
    ]


# The two mixtures at the ends of the weight range: pure minmax and pure maxmin.
END_MIXTURES = [AlphaMixture(0), AlphaMixture(1)]


def reference_margin(kind, collection, phi):
    """Each kind's margin written out on its own, in exact Fractions."""
    if isinstance(kind, Bewley):
        return set_min(collection.get(kind.set_name), phi)
    if isinstance(kind, Justifiable):
        return set_max(collection.get(kind.set_name), phi)
    if isinstance(kind, SEU):
        return expected_value(kind.prior, phi)
    mm = max(set_min(s, phi) for s in collection)
    mx = min(set_max(s, phi) for s in collection)
    if isinstance(kind, GeneralizedBewley):
        return mm
    if isinstance(kind, Disjunctive):
        return max(mm, mx)
    if isinstance(kind, Conjunctive):
        return min(mm, mx)
    if isinstance(kind, HalfMixture):
        return (mm + mx) / 2
    if isinstance(kind, AlphaMixture):
        return kind.alpha * mm + (1 - kind.alpha) * mx
    raise TypeError(f"unknown model kind: {kind!r}")


class TestProfile:
    def test_disjoint_pair_extrema(self, disjoint_pair):
        coll = disjoint_pair.collection
        low, high = coll.sets
        assert set_min(low, BET) == F(-3, 5)
        assert set_max(low, BET) == F(-1, 5)
        assert set_min(high, BET) == F(1, 5)
        assert set_max(high, BET) == F(3, 5)
        prof = margin_profile(coll, BET)
        assert prof.maxmin == F(1, 5)
        assert prof.minmax == F(-1, 5)

    def test_profile_on_constant_vector(self, disjoint_pair):
        prof = margin_profile(disjoint_pair.collection, UtilityVector((F(1, 3), F(1, 3))))
        assert prof.maxmin == prof.minmax == F(1, 3)

    @given(phis)
    def test_maxmin_minmax_duality(self, disjoint_pair, phi):
        prof = margin_profile(disjoint_pair.collection, phi)
        flipped = margin_profile(disjoint_pair.collection, -phi)
        assert flipped.maxmin == -prof.minmax
        assert flipped.minmax == -prof.maxmin

    def test_dimension_mismatch_raises(self, disjoint_pair):
        with pytest.raises(ValueError, match="disagree on dimension"):
            margin_profile(disjoint_pair.collection, UtilityVector((F(1), F(0), F(-1))))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([3, 4]),
        st.integers(min_value=2, max_value=60),
        st.data(),
    )
    @example(seed=7, n=4, bound=60, data=None)
    def test_profile_matches_the_fraction_reference(self, seed, n, bound, data):
        """The integer kernel agrees with set_min/set_max on every selection."""
        coll = generate_instance(seed, GenParams(num_states=n, denominator_bound=bound)).collection
        if data is None:
            entries = (F(0), F(-3, 7), F(10**12 - 1, 10**12), F(-2))[:n]
        else:
            entries = tuple(data.draw(wide_entries) for _ in range(n))
        phi = UtilityVector(entries)
        names = [s.name for s in coll]
        kinds = [GeneralizedBewley(), Bewley(names[0]), Justifiable(names[-1]),
                 SEU(coll.sets[-1].vertices[0])]
        for selection in (kind.sets(coll) for kind in kinds):
            prof = margin_profile(selection, phi)
            assert type(prof.maxmin) is F and type(prof.minmax) is F
            assert prof.maxmin == max(set_min(s, phi) for s in selection)
            assert prof.minmax == min(set_max(s, phi) for s in selection)

    @given(phis)
    def test_maxmin_below_minmax_only_with_overlap(self, overlapping_intervals, phi):
        """On a pairwise intersecting collection the envelope order never inverts."""
        prof = margin_profile(overlapping_intervals.collection, phi)
        assert prof.maxmin <= prof.minmax


FORWARD_CASES = [
    (GeneralizedBewley(), F(1, 5), F(1, 5), Relation.INDIFFERENT),
    (Disjunctive(), F(1, 5), F(1, 5), Relation.INDIFFERENT),
    (Conjunctive(), F(-1, 5), F(-1, 5), Relation.INCOMPARABLE),
    (HalfMixture(), F(0), F(0), Relation.INDIFFERENT),
    (AlphaMixture(F(3, 4)), F(1, 10), F(1, 10), Relation.INDIFFERENT),
    (Bewley("low"), F(-3, 5), F(1, 5), Relation.STRICTLY_DISPREFERRED),
    (Justifiable("high"), F(3, 5), F(-1, 5), Relation.STRICTLY_PREFERRED),
    (SEU(Prior((F(1, 2), F(1, 2)))), F(0), F(0), Relation.INDIFFERENT),
]


class TestModelMargins:
    @pytest.mark.parametrize("kind, fwd, rev, rel", FORWARD_CASES)
    def test_bet_margins_on_disjoint_pair(self, disjoint_pair, kind, fwd, rev, rel):
        coll = disjoint_pair.collection
        assert model_margin(kind, coll, BET) == fwd
        assert margin_pair(kind, coll, BET) == (fwd, rev)
        judged = classify(kind, disjoint_pair, disjoint_pair.act("bet_s1"),
                          disjoint_pair.act("coin"))
        assert judged is rel

    def test_phi_between_matches_utilities(self, disjoint_pair):
        phi = phi_between(disjoint_pair, disjoint_pair.act("bet_s1"),
                          disjoint_pair.act("coin"))
        assert phi.entries == (F(1), F(-1))

    @given(phis, st.integers(min_value=0, max_value=7))
    def test_reverse_margin_is_forward_of_negation(self, disjoint_pair, phi, pick):
        kind = all_kinds(disjoint_pair)[pick]
        fwd, rev = margin_pair(kind, disjoint_pair.collection, phi)
        fwd2, rev2 = margin_pair(kind, disjoint_pair.collection, -phi)
        assert (fwd2, rev2) == (rev, fwd)

    @given(phis, st.integers(min_value=0, max_value=7),
           st.fractions(min_value="1/8", max_value=4, max_denominator=8))
    def test_margins_scale_homogeneously(self, touching_intervals, phi, pick, c):
        kind = all_kinds(touching_intervals)[pick]
        base = model_margin(kind, touching_intervals.collection, phi)
        assert model_margin(kind, touching_intervals.collection, phi.scale(c)) == c * base

    @given(phis, st.integers(min_value=0, max_value=9))
    def test_rule_matches_the_reference_formulas(
        self, disjoint_pair, touching_intervals, overlapping_intervals, phi, pick
    ):
        for inst in (disjoint_pair, touching_intervals, overlapping_intervals):
            kind = (all_kinds(inst) + END_MIXTURES)[pick]
            coll = inst.collection
            margin = model_margin(kind, coll, phi)
            assert type(margin) is F
            assert margin == reference_margin(kind, coll, phi), kind
            assert margin_pair(kind, coll, phi) == (margin, model_margin(kind, coll, -phi))

    @pytest.mark.parametrize("alpha", [F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)])
    @given(st.integers(-60, 60), st.integers(-60, 60))
    @example(0, 0)
    @example(0, 7)
    @example(-7, 0)
    def test_every_kind_is_maxmin_plus_its_slopes_of_d(self, disjoint_pair, alpha, a, b):
        """combine(A, B) / den = A + u * max(D, 0) + v * min(D, 0), D = B - A."""
        for kind in [*all_kinds(disjoint_pair), AlphaMixture(alpha)]:
            u, v = kind.slopes
            assert 0 <= u <= 1 and 0 <= v <= 1, kind
            d = b - a
            assert F(kind.combine(a, b), kind.den) == a + u * max(d, 0) + v * min(d, 0), kind

    def test_end_mixtures_are_the_primitives(self, disjoint_pair):
        prof = margin_profile(disjoint_pair.collection, BET)
        assert [model_margin(k, disjoint_pair.collection, BET) for k in END_MIXTURES] == [
            prof.minmax,
            prof.maxmin,
        ]

    def test_unknown_set_name_raises(self, disjoint_pair):
        with pytest.raises(UnknownBeliefSetName):
            model_margin(Bewley("nope"), disjoint_pair.collection, BET)

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            AlphaMixture(F(5, 4))
        with pytest.raises(AlphaOutOfRange):
            AlphaMixture(F(-1, 4))

    @pytest.mark.parametrize("weight", [0.75, 0.1, 1.0, True, "3/4", None])
    def test_alpha_must_be_exact(self, weight):
        with pytest.raises(NotARational):
            AlphaMixture(weight)

    @pytest.mark.parametrize("weight, stored", [(0, F(0)), (1, F(1)), (F(3, 4), F(3, 4))])
    def test_alpha_is_stored_as_a_fraction(self, disjoint_pair, weight, stored):
        kind = AlphaMixture(weight)
        assert type(kind.alpha) is F and kind.alpha == stored
        assert kind == AlphaMixture(stored)
        assert type(model_margin(kind, disjoint_pair.collection, BET)) is F

    def test_seu_prior_dimension_checked(self, disjoint_pair):
        wrong = SEU(Prior((F(1, 3), F(1, 3), F(1, 3))))
        with pytest.raises(ValueError):
            model_margin(wrong, disjoint_pair.collection, BET)


class TestRelations:
    @given(phis, st.integers(min_value=0, max_value=7))
    def test_classification_matches_weak_judgments(self, disjoint_pair, phi, pick):
        """The four relations are exactly the sign pattern of the two margins."""
        kind = all_kinds(disjoint_pair)[pick]
        f = _act_for(disjoint_pair, phi)
        g = disjoint_pair.act("coin")
        fwd, rev = margin_pair(kind, disjoint_pair.collection,
                               phi_between(disjoint_pair, f, g))
        table = {
            (True, True): Relation.INDIFFERENT,
            (True, False): Relation.STRICTLY_PREFERRED,
            (False, True): Relation.STRICTLY_DISPREFERRED,
            (False, False): Relation.INCOMPARABLE,
        }
        expected = table[(fwd >= 0, rev >= 0)]
        assert classify(kind, disjoint_pair, f, g) is expected
        assert weakly_prefers(kind, disjoint_pair, f, g) is (fwd >= 0)
        assert robust_weakly_prefers(kind, disjoint_pair, f, g) is (fwd > 0)

    def test_reflexive_indifference(self, touching_intervals):
        f = touching_intervals.act("bet_s2")
        for kind in all_kinds(touching_intervals):
            assert classify(kind, touching_intervals, f, f) is Relation.INDIFFERENT

    def test_describe_model_tags(self, disjoint_pair):
        tags = [describe_model(k) for k in all_kinds(disjoint_pair)]
        assert tags == [
            "generalized-bewley",
            "disjunctive",
            "conjunctive",
            "half-mixture",
            "alpha-mixture(3/4)",
            "bewley(low)",
            "justifiable(high)",
            "seu(1/2,1/2)",
        ]


def _act_for(instance, phi):
    """Clip the raw vector into the utility range and realize it as an act."""
    lo, hi = instance.utility_bounds()
    clipped = [min(max(e, lo), hi) for e in phi.entries]
    from ambipref import act_from_utility_vector

    return act_from_utility_vector(instance, clipped)
