from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambipref import (
    Bewley,
    GenParams,
    GeneralizedBewley,
    MarginTable,
    ParamsOutOfRange,
    dumps_instance,
    generate_act_grid,
    generate_instance,
    utility_vector,
    validate_instance,
    weak_relation,
)
from ambipref.model import MAX_RATIONAL_DIGITS

F = Fraction


class TestParams:
    def test_defaults(self):
        p = GenParams()
        assert (p.num_states, p.num_sets) == (3, 3)
        assert (p.vertices_per_set, p.denominator_bound) == (4, 20)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_states": 1},
            {"num_states": 5},
            {"num_sets": 0},
            {"num_sets": 5},
            {"vertices_per_set": 0},
            {"vertices_per_set": 7},
            {"denominator_bound": 1},
            {"denominator_bound": 10**MAX_RATIONAL_DIGITS},
            {"num_states": 2.0},
            {"num_sets": True},
            {"vertices_per_set": F(2)},
            {"denominator_bound": "20"},
        ],
    )
    def test_out_of_range(self, kwargs):
        with pytest.raises(ParamsOutOfRange):
            GenParams(**kwargs)

    def test_largest_denominator_round_trips(self):
        bound = 10**MAX_RATIONAL_DIGITS - 1
        inst = generate_instance(1, GenParams(num_states=2, denominator_bound=bound))
        text = dumps_instance(inst)
        assert dumps_instance(validate_instance(json.loads(text))) == text
        assert any(v.probs[0].denominator > 10 ** (MAX_RATIONAL_DIGITS - 2)
                   for s in inst.collection.sets for v in s.vertices)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = dumps_instance(generate_instance(7))
        b = dumps_instance(generate_instance(7))
        assert a == b

    def test_neighboring_seeds_differ(self):
        assert dumps_instance(generate_instance(7)) != dumps_instance(
            generate_instance(8)
        )

    def test_params_change_the_draw(self):
        small = generate_instance(3, GenParams(num_states=2))
        big = generate_instance(3, GenParams(num_states=4))
        assert len(small.states) == 2
        assert len(big.states) == 4


class TestShape:
    def test_fixed_frame(self):
        inst = generate_instance(0)
        assert tuple(inst.states) == ("s1", "s2", "s3")
        assert tuple(inst.prizes) == ("lose", "win")
        assert inst.utility.value("lose") == F(-1)
        assert inst.utility.value("win") == F(1)
        assert [s.name for s in inst.collection.sets] == ["P1", "P2", "P3"]

    def test_named_acts(self):
        inst = generate_instance(11, GenParams(num_states=2))
        assert set(inst.acts) == {"all_win", "all_lose", "bet_s1", "bet_s2"}
        assert utility_vector(inst.utility, inst.acts["all_win"]).entries == (F(1), F(1))
        assert utility_vector(inst.utility, inst.acts["bet_s1"]).entries == (F(1), F(-1))

    def test_vertices_unique_within_a_set(self):
        inst = generate_instance(4, GenParams(vertices_per_set=6))
        for belief_set in inst.collection.sets:
            probs = [v.probs for v in belief_set.vertices]
            assert len(probs) == len(set(probs))

    def test_tiny_grid_caps_the_vertex_count(self):
        params = GenParams(num_states=2, vertices_per_set=6, denominator_bound=2)
        inst = generate_instance(1, params)
        allowed = {F(0), F(1, 2), F(1)}
        for belief_set in inst.collection.sets:
            assert len(belief_set.vertices) <= 3
            for v in belief_set.vertices:
                assert v.probs[0] in allowed

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_every_draw_validates_cleanly(self, seed):
        inst = generate_instance(seed, GenParams(denominator_bound=12))
        again = validate_instance(json.loads(dumps_instance(inst)))
        assert dumps_instance(again) == dumps_instance(inst)
        for belief_set in inst.collection.sets:
            for v in belief_set.vertices:
                assert sum(v.probs) == 1
                assert all(p.denominator <= 12 for p in v.probs)


class TestSingleSetCollapse:
    def test_one_set_makes_the_general_model_bewley(self):
        inst = generate_instance(9, GenParams(num_sets=1))
        battery = generate_act_grid(inst, resolution=1)
        table = MarginTable(
            inst, [utility_vector(inst.utility, a) for a in battery]
        )
        general, gz = weak_relation(table, GeneralizedBewley(), inst)
        single, sz = weak_relation(table, Bewley("P1"), inst)
        assert general == single
        assert gz == sz
