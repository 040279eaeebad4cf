from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambipref import (
    AuditReport,
    AxiomKind,
    BatteryMissingConstants,
    Bewley,
    Conjunctive,
    Disjunctive,
    GeneralizedBewley,
    GenParams,
    HalfMixture,
    AlphaMixture,
    Justifiable,
    MarginTable,
    Prior,
    RadiusExceedsUtilityRange,
    SEU,
    act_from_utility_vector,
    audit,
    audit_suite,
    constant_act,
    generate_act_grid,
    generate_instance,
    model_margin,
    utility_vector,
    validate_instance,
    weak_relation,
)
from ambipref.axioms import WITNESS_CAP, _Runner, battery_label

F = Fraction


def single_set_instance():
    """One wide interval set, enough to make the justifiable model intransitive."""
    return validate_instance(
        {
            "states": ["s1", "s2"],
            "prizes": ["lose", "win"],
            "utility": {"lose": "-1", "win": "1"},
            "belief_collection": [
                {"name": "wide", "vertices": [["1/5", "4/5"], ["4/5", "1/5"]]}
            ],
            "acts": {},
        }
    )


class TestGrid:
    def test_resolution_one_is_the_nine_point_lattice(self, disjoint_pair):
        grid = generate_act_grid(disjoint_pair, resolution=1)
        vecs = [utility_vector(disjoint_pair.utility, a).entries for a in grid]
        levels = [F(-1), F(0), F(1)]
        assert vecs == [tuple(c) for c in itertools.product(levels, repeat=2)]

    def test_default_resolution_counts(self, disjoint_pair):
        grid = generate_act_grid(disjoint_pair)
        assert len(grid) == 25
        constants = [a for a in grid if a.is_constant()]
        assert len(constants) == 5

    def test_grid_is_deterministic(self, touching_intervals):
        a = generate_act_grid(touching_intervals, resolution=2, radius=F(1, 2))
        b = generate_act_grid(touching_intervals, resolution=2, radius=F(1, 2))
        assert [utility_vector(touching_intervals.utility, x) for x in a] == [
            utility_vector(touching_intervals.utility, x) for x in b
        ]

    def test_radius_beyond_utility_range(self, disjoint_pair):
        with pytest.raises(RadiusExceedsUtilityRange):
            generate_act_grid(disjoint_pair, radius=F(2))

    @pytest.mark.parametrize("resolution, radius", [(0, F(1)), (2, F(0)), (1, F(-1))])
    def test_degenerate_parameters(self, disjoint_pair, resolution, radius):
        with pytest.raises(ValueError):
            generate_act_grid(disjoint_pair, resolution=resolution, radius=radius)

    def test_battery_labels(self, disjoint_pair):
        assert "custom" in battery_label(disjoint_pair, 3, None, None)
        assert "resolution=2" in battery_label(disjoint_pair, 25, 2, F(1))


class TestMarginTableAgreement:
    def test_weak_matrix_matches_reference_path(self, disjoint_pair):
        """The integer fast path and the direct Fraction path must agree.

        One table built with an extra prior serves all eight kinds, on a
        two-state and a three-state instance; margins must match exactly,
        and the zero count must equal the off-diagonal zero margins.
        """
        three_state = generate_instance(1, GenParams(num_states=3))
        for inst in (disjoint_pair, three_state):
            n = inst.num_states
            prior = Prior(tuple(F(1, n) for _ in range(n)))
            first_set = next(iter(inst.collection)).name
            battery = generate_act_grid(inst, resolution=1)
            uvecs = [utility_vector(inst.utility, a) for a in battery]
            table = MarginTable(inst, uvecs, extra_prior=prior)
            kinds = [
                GeneralizedBewley(),
                Disjunctive(),
                Conjunctive(),
                HalfMixture(),
                AlphaMixture(F(3, 4)),
                Bewley(first_set),
                Justifiable(first_set),
                SEU(prior),
            ]
            for kind in kinds:
                matrix, zeros = weak_relation(table, kind, inst)
                runner = _Runner(table, kind, inst)
                expected_zeros = 0
                for i, u in enumerate(uvecs):
                    for j, v in enumerate(uvecs):
                        expected = model_margin(kind, inst.collection, u - v)
                        assert runner.margin(i, j) == expected, (kind, i, j)
                        assert bool((matrix[i] >> j) & 1) == (expected >= 0), (kind, i, j)
                        expected_zeros += i != j and expected == 0
                assert zeros == expected_zeros, kind

    def test_table_rejects_foreign_battery(self, disjoint_pair):
        small = generate_act_grid(disjoint_pair, resolution=1)
        big = generate_act_grid(disjoint_pair, resolution=2)
        uvecs = [utility_vector(disjoint_pair.utility, a) for a in small]
        table = MarginTable(disjoint_pair, uvecs)
        with pytest.raises(ValueError):
            audit(AxiomKind.COMPLETENESS, GeneralizedBewley(), disjoint_pair, big,
                  table=table)

    def test_relations_are_memoized_per_model_identity(self, disjoint_pair):
        battery = generate_act_grid(disjoint_pair)
        uvecs = [utility_vector(disjoint_pair.utility, a) for a in battery]
        table = MarginTable(disjoint_pair, uvecs)

        def fresh(kind):
            return weak_relation(MarginTable(disjoint_pair, uvecs), kind, disjoint_pair)

        quarter, _ = weak_relation(table, AlphaMixture(F(1, 4)), disjoint_pair)
        three_quarters, _ = weak_relation(table, AlphaMixture(F(3, 4)), disjoint_pair)
        assert quarter != three_quarters
        assert (quarter, three_quarters) == (
            fresh(AlphaMixture(F(1, 4)))[0], fresh(AlphaMixture(F(3, 4)))[0]
        )

        returned, _ = weak_relation(table, GeneralizedBewley(), disjoint_pair)
        returned[0] = 0
        returned.append(1)
        assert weak_relation(table, GeneralizedBewley(), disjoint_pair) == fresh(
            GeneralizedBewley()
        )

        kind = AlphaMixture(F(3, 4))
        for report in audit_suite(kind, disjoint_pair, battery):
            alone = audit(report.axiom, kind, disjoint_pair, battery)
            assert report.boundary_flags == alone.boundary_flags, report.axiom

    def test_seu_margins_need_their_own_prior_column(self, disjoint_pair):
        battery = generate_act_grid(disjoint_pair, resolution=1)
        kind = SEU(Prior((F(1, 3), F(2, 3))))
        report = audit(AxiomKind.COMPLETENESS, kind, disjoint_pair, battery)
        assert report.passed


class TestSuiteVerdicts:
    def test_touching_instance_satisfies_everything(self, touching_intervals):
        """Touching sets leave no room for either parametrized failure."""
        battery = generate_act_grid(touching_intervals)
        reports = audit_suite(GeneralizedBewley(), touching_intervals, battery)
        assert len(reports) == len(AxiomKind)
        failed = [r.axiom.value for r in reports if not r.passed]
        assert failed == []

    def test_disjunctive_is_complete_even_on_disjoint_sets(self, disjoint_pair):
        battery = generate_act_grid(disjoint_pair)
        report = audit(AxiomKind.COMPLETENESS, Disjunctive(), disjoint_pair, battery)
        assert report.passed

    def test_conjunctive_incomparability_floods_the_cap(self, disjoint_pair):
        battery = generate_act_grid(disjoint_pair)
        report = audit(AxiomKind.COMPLETENESS, Conjunctive(), disjoint_pair, battery)
        assert not report.passed
        assert len(report.witnesses) == WITNESS_CAP
        assert report.total_violations > WITNESS_CAP
        assert report.checked == 25 * 24 // 2
        first = report.witnesses[0]
        assert first.margins[0] < 0 and first.margins[1] < 0

    def test_generalized_bewley_completeness_fails_with_overlap_cut(
        self, overlapping_intervals
    ):
        """A hyperplane through both intervals' interiors forces incomparable pairs."""
        battery = generate_act_grid(overlapping_intervals)
        report = audit(
            AxiomKind.COMPLETENESS, GeneralizedBewley(), overlapping_intervals, battery
        )
        assert not report.passed
        for w in report.witnesses:
            assert w.note == "incomparable pair"

    @pytest.mark.parametrize("fixture", ["disjoint_pair", "touching_intervals"])
    def test_lemma_style_equivalence(self, request, fixture):
        """Completeness and the negative transitivity variant stand or fall together."""
        inst = request.getfixturevalue(fixture)
        battery = generate_act_grid(inst)
        complete = audit(AxiomKind.COMPLETENESS, GeneralizedBewley(), inst, battery)
        negative = audit(
            AxiomKind.NEGATIVE_CONSTANT_BOUND_TRANSITIVITY,
            GeneralizedBewley(), inst, battery,
        )
        assert complete.passed == negative.passed

    def test_coarse_lattice_hides_the_negative_witness(self, overlapping_intervals):
        """The halved difference of an incomparable pair can fall between levels.

        At resolution 2 this instance has incomparable pairs, but no single
        battery act whose envelope inversion strictly contains a lattice
        level, so the negative audit sees nothing.  Doubling the resolution
        makes every half-difference of the coarse lattice an act of its own,
        and then the two verdicts line up again.
        """
        inst = overlapping_intervals
        coarse = generate_act_grid(inst, resolution=2)
        comp2 = audit(AxiomKind.COMPLETENESS, GeneralizedBewley(), inst, coarse)
        ncbt2 = audit(AxiomKind.NEGATIVE_CONSTANT_BOUND_TRANSITIVITY,
                      GeneralizedBewley(), inst, coarse)
        assert not comp2.passed
        assert ncbt2.passed

        fine = generate_act_grid(inst, resolution=4)
        comp4 = audit(AxiomKind.COMPLETENESS, GeneralizedBewley(), inst, fine)
        ncbt4 = audit(AxiomKind.NEGATIVE_CONSTANT_BOUND_TRANSITIVITY,
                      GeneralizedBewley(), inst, fine)
        assert not comp4.passed
        assert not ncbt4.passed

    def test_non_triviality_fails_on_flat_battery(self, disjoint_pair):
        coin = disjoint_pair.act("coin")
        report = audit(
            AxiomKind.NON_TRIVIALITY, GeneralizedBewley(), disjoint_pair, [coin, coin]
        )
        assert not report.passed
        assert report.witnesses == ()
        assert report.total_violations == 1


class TestHandWitnesses:
    def test_justifiable_intransitivity_triple(self):
        inst = single_set_instance()
        battery = [
            constant_act(inst, F(-1, 2)),
            act_from_utility_vector(inst, [F(1), F(-1)]),
            constant_act(inst, F(0)),
        ]
        report = audit(AxiomKind.TRANSITIVITY, Justifiable("wide"), inst, battery)
        assert not report.passed
        w = report.witnesses[0]
        assert w.indices == (0, 1, 2)
        assert w.margins == (F(1, 10), F(3, 5), F(-1, 2))

    def test_alpha_mixture_breaks_constant_bounds(self, disjoint_pair):
        """The 3/4 mixture accepts both premises but rejects the forced conclusion."""
        battery = [
            constant_act(disjoint_pair, F(0)),
            disjoint_pair.act("bet_s1"),
            constant_act(disjoint_pair, F(1, 10)),
        ]
        report = audit(
            AxiomKind.CONSTANT_BOUND_TRANSITIVITY,
            AlphaMixture(F(3, 4)), disjoint_pair, battery,
        )
        assert not report.passed
        w = report.witnesses[0]
        assert w.indices == (0, 1, 2)
        assert w.margins == (F(1, 10), F(0), F(-1, 10))
        assert report.boundary_flags >= 1

    def test_cbt_needs_constants_in_battery(self, disjoint_pair):
        battery = [disjoint_pair.act("bet_s1"), disjoint_pair.act("bet_s2")]
        with pytest.raises(BatteryMissingConstants):
            audit(AxiomKind.CONSTANT_BOUND_TRANSITIVITY, GeneralizedBewley(),
                  disjoint_pair, battery)

    def test_report_serialization_carries_vectors(self, disjoint_pair):
        battery = [
            constant_act(disjoint_pair, F(0)),
            disjoint_pair.act("bet_s1"),
            constant_act(disjoint_pair, F(1, 10)),
        ]
        report = audit(
            AxiomKind.CONSTANT_BOUND_TRANSITIVITY,
            AlphaMixture(F(3, 4)), disjoint_pair, battery,
        )
        uvecs = [utility_vector(disjoint_pair.utility, a) for a in battery]
        doc = report.to_jsonable(uvecs)
        assert doc["axiom"] == "constant_bound_transitivity"
        assert doc["model"] == "alpha-mixture(3/4)"
        witness = doc["witnesses"][0]
        assert witness["margins"] == ["1/10", "0", "-1/10"]
        assert witness["utility_vectors"][1] == ["1", "-1"]


@st.composite
def sub_batteries(draw, size=5):
    """A few lattice acts, always including the two extreme constants."""
    picks = draw(st.lists(st.integers(min_value=0, max_value=24), min_size=size,
                          max_size=size))
    return sorted({0, 24, *picks})


class TestUnconditionalAxioms:
    @given(sub_batteries())
    @settings(max_examples=25, deadline=None)
    def test_half_mixture_never_fails_its_two_axioms(self, disjoint_pair, indices):
        """Averaging the envelopes stays complete and transitive over constants."""
        grid = generate_act_grid(disjoint_pair)
        battery = [grid[i] for i in indices]
        for axiom in (AxiomKind.COMPLETENESS, AxiomKind.CONSTANT_BOUND_TRANSITIVITY):
            report = audit(axiom, HalfMixture(), disjoint_pair, battery)
            assert report.passed, axiom

    @given(sub_batteries())
    @settings(max_examples=25, deadline=None)
    def test_monotonicity_holds_for_every_kind(self, overlapping_intervals, indices):
        grid = generate_act_grid(overlapping_intervals)
        battery = [grid[i] for i in indices]
        for kind in (GeneralizedBewley(), Conjunctive(), Disjunctive()):
            report = audit(AxiomKind.MONOTONICITY, kind, overlapping_intervals, battery)
            assert report.passed, kind
