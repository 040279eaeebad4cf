from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambipref import analysis, cli
from ambipref import lp as lp_module
from ambipref.model import scaled
from ambipref import (
    AxiomKind,
    BeliefCollection,
    BeliefSet,
    CommonPrior,
    CuttingHyperplane,
    DimensionMismatch,
    GeneralizedBewley,
    Prior,
    SametCertificate,
    UtilityVector,
    WrongDimension,
    analyze,
    audit,
    build_cbt_witness,
    build_incompleteness_witness,
    check_commutativity,
    find_cutting_hyperplane,
    generate_instance,
    GenParams,
    instance_to_jsonable,
    load_instance,
    margin_profile,
    pairwise_intersection_holds,
    phi_lattice,
    polytopes_intersect,
    seu_collapse_binary,
    utility_vector,
    validate_instance,
    VerifyConfig,
)

F = Fraction

DATA = Path(__file__).resolve().parent / "data"
CORNER_CLUSTERS = DATA / "corner_clusters.json"
INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"

# Generator seeds whose collection has no cutting hyperplane, as decided by
# the earlier LP branch-and-bound search over (plus, minus) vertex pairs.
NO_CUT_SEEDS = {
    "box3": (
        2, 4, 5, 7, 11, 14, 16, 17, 19, 20, 21, 22, 23, 26, 27, 28, 31, 32, 35, 38,
        39, 40, 43, 45, 46, 47, 48, 49, 50, 51, 55, 57, 58, 59, 61, 63, 64, 65, 66,
        67, 70, 72, 74, 75, 76, 77, 81, 84, 86, 89, 91, 93, 96, 99, 101, 104, 107,
        108, 109, 110, 113, 119, 121, 123, 127, 137, 139, 140, 142, 144, 146, 149,
        150, 152, 156, 160, 161, 162, 164, 165, 167, 168, 171, 174, 176, 178, 179,
        181, 182, 183, 185, 186, 187, 190, 194, 195, 198,
    ),
    "box4": (
        1, 2, 5, 6, 7, 8, 9, 12, 13, 14, 23, 25, 26, 27, 28, 31, 32, 33, 37, 38, 41,
        42, 43, 46, 47, 48, 49, 50, 51, 52, 54, 55, 57, 63, 66, 67, 68, 69, 70, 72,
        74, 75, 76, 77, 78, 79, 83, 86, 87, 88, 89, 90, 91, 99, 102, 104, 105, 106,
        108, 109, 111, 113, 114, 117, 121, 123, 124, 127, 128, 133, 136, 137, 139,
        140, 145, 149, 151, 153, 154, 155, 156, 159, 160, 162, 164, 165, 169, 174,
        176, 177, 178, 180, 181, 182, 183, 185, 187, 190, 191, 192, 193, 198, 199,
    ),
    "verify": (
        0, 2, 3, 4, 5, 6, 7, 8, 10, 14, 16, 17, 19, 20, 21, 23, 24, 26, 27, 28, 29,
        30, 31, 32, 33, 34, 35, 36, 37, 38, 42, 43, 44, 45, 46, 47, 49, 50, 51, 52,
        53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 64, 66, 67, 68, 69, 70, 71, 72, 73,
        74, 75, 77, 78, 80, 82, 86, 87, 88, 89, 90, 91, 92, 93, 94, 96, 98,
    ),
}


def pinned_instances(family: str) -> list:
    """(seed, instance) pairs of one pinned family, in seed order."""
    if family == "verify":
        config = VerifyConfig()
        return [(s, generate_instance(s, config.params_for_seed(s))) for s in range(100)]
    params = GenParams(num_states=int(family[-1]), num_sets=4, vertices_per_set=6)
    return [(s, generate_instance(s, params)) for s in range(200)]


def interval_set(name: str, lo: F, hi: F) -> BeliefSet:
    return BeliefSet(name, (Prior((lo, 1 - lo)), Prior((hi, 1 - hi))))


class TestPolytopeIntersection:
    def test_disjoint_intervals_get_a_samet_certificate(self, disjoint_pair):
        low, high = disjoint_pair.collection.sets
        result = polytopes_intersect(low, high)
        assert isinstance(result, SametCertificate)
        assert result.phi1.entries == (F(-1), F(1))
        assert result.phi2.entries == (F(1), F(-1))
        assert result.slack == F(1, 5)
        assert result.verify(low, high)

    def test_touching_intervals_share_exactly_one_prior(self, touching_intervals):
        low, high = touching_intervals.collection.sets
        result = polytopes_intersect(low, high)
        assert isinstance(result, CommonPrior)
        assert result.prior.probs == (F(2, 5), F(3, 5))
        assert result.verify(low, high)

    def test_overlapping_intervals_common_prior_lands_in_overlap(
        self, overlapping_intervals
    ):
        left, right = overlapping_intervals.collection.sets
        result = polytopes_intersect(left, right)
        assert isinstance(result, CommonPrior)
        assert F(2, 5) <= result.prior.probs[0] <= F(1, 2)
        assert result.verify(left, right)

    def test_set_against_itself(self, disjoint_pair):
        low = disjoint_pair.collection.sets[0]
        result = polytopes_intersect(low, low)
        assert isinstance(result, CommonPrior)
        assert result.verify(low, low)

    def test_dimension_mismatch(self):
        two = interval_set("a", F(1, 4), F(1, 2))
        three = BeliefSet("b", (Prior((F(1, 3), F(1, 3), F(1, 3))),))
        with pytest.raises(DimensionMismatch):
            polytopes_intersect(two, three)

    def test_tampered_certificates_fail_verification(self, disjoint_pair):
        low, high = disjoint_pair.collection.sets
        cert = polytopes_intersect(low, high)
        assert isinstance(cert, SametCertificate)
        wrong_slack = SametCertificate(cert.phi1, cert.phi2, cert.slack + 1)
        assert not wrong_slack.verify(low, high)
        broken_pair = SametCertificate(cert.phi1, cert.phi1, cert.slack)
        assert not broken_pair.verify(low, high)

    def test_common_prior_weights_are_checked(self, touching_intervals):
        low, high = touching_intervals.collection.sets
        cert = polytopes_intersect(low, high)
        assert isinstance(cert, CommonPrior) and cert.verify(low, high)
        for weights in ((F(1),), (F(-1), F(2)), (F(1, 2), F(1, 4))):
            assert not dataclasses.replace(cert, weights_first=weights).verify(low, high)

    def test_pairwise_report(self, disjoint_pair, overlapping_intervals):
        report = pairwise_intersection_holds(disjoint_pair.collection)
        assert not report.holds
        assert len(report.failing()) == 1
        entry = report.failing()[0]
        assert (entry.first, entry.second) == ("low", "high")

        report = pairwise_intersection_holds(overlapping_intervals.collection)
        assert report.holds
        assert report.failing() == []

    def test_one_program_per_pair(self, monkeypatch):
        """The separation program alone decides each pair, a shared prior too."""
        real, calls = analysis.solve, []

        def counted(lp):
            calls.append(lp)
            return real(lp)

        monkeypatch.setattr(analysis, "solve", counted)
        instances = [load_instance(p) for p in sorted(INSTANCE_DIR.glob("*.json"))]
        instances.append(
            generate_instance(0, GenParams(num_states=3, num_sets=4, vertices_per_set=6))
        )
        shared = 0
        for instance in instances:
            calls.clear()
            report = pairwise_intersection_holds(instance.collection)
            assert len(calls) == len(report.entries)
            shared += sum(e.intersects for e in report.entries)
        assert shared > 0

    def test_separation_pivots_are_pinned(self, monkeypatch):
        """Every pivot and every dual of 720 separation programs on the geometry box.

        Seeds 0..39 at 2, 3 and 4 states, four sets of up to six vertices
        each.  The row read-in, the slack start, Bland's rule and its ratio
        tie-break all show in the sequence of (row, column) pivots, so a
        change to any of them moves the digest.  The duals are the exact
        ints of the final cost row, so a change to the tableau's scaling
        moves theirs.
        """
        real, pivots = lp_module._pivot, []
        real_solve, duals = analysis.solve, []

        def spied(tableau, labels, row, col):
            pivots.append((row, col))
            real(tableau, labels, row, col)

        def solved(lp):
            out = real_solve(lp)
            duals.append(out.duals)
            return out

        monkeypatch.setattr(lp_module, "_pivot", spied)
        monkeypatch.setattr(analysis, "solve", solved)
        programs = 0
        for states in (2, 3, 4):
            for seed in range(40):
                params = GenParams(num_states=states, num_sets=4, vertices_per_set=6)
                report = pairwise_intersection_holds(generate_instance(seed, params).collection)
                programs += len(report.entries)
        assert (programs, len(pivots)) == (720, 4177)
        assert hashlib.sha256(repr(pivots).encode()).hexdigest() == (
            "ebe7538b2670e5cf7c3fef0ae90e60976e56c356916cf77da2a901c612d89a27"
        )
        assert len(duals) == 720
        assert hashlib.sha256(repr(duals).encode()).hexdigest() == (
            "aad150a1779c4f0f7f4c6a07c2f3bbab6817c69ae33dde173190c85a0e579156"
        )

    @pytest.mark.parametrize(
        "tamper",
        [lambda d: (d[0] + 1,) + d[1:], lambda d: (0,) * len(d)],
        ids=["perturbed", "zero"],
    )
    def test_wrong_duals_raise(self, overlapping_intervals, monkeypatch, tamper):
        real = analysis.solve

        def tampered(lp):
            out = real(lp)
            return dataclasses.replace(out, duals=tamper(out.duals))

        monkeypatch.setattr(analysis, "solve", tampered)
        left, right = overlapping_intervals.collection.sets
        with pytest.raises(RuntimeError, match="common-prior weights"):
            polytopes_intersect(left, right)

    @pytest.mark.parametrize(
        "tamper",
        [lambda p: tuple(-x for x in p[:-1]) + p[-1:], lambda p: (F(0),) * (len(p) - 1) + p[-1:]],
        ids=["flipped", "zero"],
    )
    def test_wrong_separation_point_raises(self, disjoint_pair, monkeypatch, tamper):
        """A positive optimum whose phi does not separate the sets is refused."""
        real = analysis.solve

        def tampered(lp):
            out = real(lp)
            assert out.value > 0
            return dataclasses.replace(out, point=tamper(out.point))

        monkeypatch.setattr(analysis, "solve", tampered)
        low, high = disjoint_pair.collection.sets
        with pytest.raises(RuntimeError, match="does not separate"):
            polytopes_intersect(low, high)

    def test_default_box_common_priors_verify(self):
        shared = 0
        for states in (2, 3, 4):
            for seed in range(40):
                sets = generate_instance(seed, GenParams(num_states=states)).collection.sets
                for first, second in itertools.combinations(sets, 2):
                    result = polytopes_intersect(first, second)
                    if isinstance(result, CommonPrior):
                        shared += 1
                        assert result.verify(first, second)
        assert shared > 0


def reference_common_prior(cert, first, second) -> bool:
    """``CommonPrior.verify`` in Fraction arithmetic, one state at a time."""
    for weights, bset in ((cert.weights_first, first), (cert.weights_second, second)):
        if len(weights) != len(bset.vertices) or any(w < 0 for w in weights) or sum(weights) != 1:
            return False
        mixed = tuple(
            sum(w * v.probs[s] for w, v in zip(weights, bset.vertices))
            for s in range(len(cert.prior.probs))
        )
        if mixed != cert.prior.probs:
            return False
    return True


def reference_samet(cert, first, second) -> bool:
    """``SametCertificate.verify`` in Fraction arithmetic."""
    phi1, phi2 = cert.phi1.entries, cert.phi2.entries
    if len(phi1) != len(phi2) or any(a + b for a, b in zip(phi1, phi2)):
        return False
    m1 = min(sum(p * e for p, e in zip(v.probs, phi1)) for v in first.vertices)
    m2 = min(sum(p * e for p, e in zip(v.probs, phi2)) for v in second.vertices)
    return cert.slack == min(m1, m2) and cert.slack > 0


def _certified_pairs() -> list:
    """(first, second, certificate) for every pair of the bundled instances and
    of geometry-box seeds 0..3, in that order."""
    instances = [load_instance(p) for p in sorted(INSTANCE_DIR.glob("*.json"))]
    instances += [
        generate_instance(s, GenParams(num_states=3 + s % 2, num_sets=4, vertices_per_set=6))
        for s in range(4)
    ]
    return [
        (a, b, polytopes_intersect(a, b))
        for instance in instances
        for a, b in itertools.combinations(instance.collection.sets, 2)
    ]


CERTIFIED_PAIRS = _certified_pairs()
SHARED_PAIRS = [p for p in CERTIFIED_PAIRS if isinstance(p[2], CommonPrior)]
DISJOINT_PAIRS = [p for p in CERTIFIED_PAIRS if isinstance(p[2], SametCertificate)]
small = st.fractions(min_value=-1, max_value=1, max_denominator=7)


def _nudged(values, index, delta):
    values = list(values)
    values[index % len(values)] += delta
    return tuple(values)


class TestIntegerVerify:
    """The integer ``verify`` methods reject each way a certificate can be wrong."""

    def test_a_prior_off_by_one_numerator(self):
        for first, second, cert in SHARED_PAIRS:
            den, nums = scaled(cert.prior.probs)
            down = nums.index(max(nums))
            nums[down] -= 1
            nums[(down + 1) % len(nums)] += 1
            moved = Prior(tuple(F(x, den) for x in nums))
            assert not dataclasses.replace(cert, prior=moved).verify(first, second)

    def test_a_wrong_length_weights_second(self):
        first, second, cert = SHARED_PAIRS[0]
        for weights in (cert.weights_second + (F(0),), cert.weights_second[:-1]):
            assert not dataclasses.replace(cert, weights_second=weights).verify(first, second)

    def test_weights_summing_to_one_with_a_negative_entry(self):
        """(2/5, 3/5) = v0 - v1 + v2 on three collinear vertices: only the sign fails."""
        line = BeliefSet("line", tuple(Prior((F(k, 5), 1 - F(k, 5))) for k in (1, 2, 3)))
        point = BeliefSet("point", (Prior((F(2, 5), F(3, 5))),))
        good = CommonPrior(Prior((F(2, 5), F(3, 5))), (F(0), F(1), F(0)), (F(1),))
        assert good.verify(line, point)
        bad = dataclasses.replace(good, weights_first=(F(1), F(-1), F(1)))
        assert sum(bad.weights_first) == 1
        assert not bad.verify(line, point)

    def test_phi2_not_minus_phi1_in_one_entry(self):
        for first, second, cert in DISJOINT_PAIRS:
            entries = _nudged(cert.phi2.entries, 0, F(1, 3))
            broken = dataclasses.replace(cert, phi2=UtilityVector(entries))
            assert not broken.verify(first, second)

    def test_a_slack_off_by_one_unit(self):
        """One unit is 1/(den * q): den for the vertices, q for phi1."""
        for first, second, cert in DISJOINT_PAIRS:
            den, _ = scaled([p for s in (first, second) for v in s.vertices for p in v.probs])
            q, _ = scaled(cert.phi1.entries)
            for step in (F(1, den * q), F(-1, den * q)):
                assert not dataclasses.replace(cert, slack=cert.slack + step).verify(first, second)

    def test_a_set_of_another_dimension(self, disjoint_pair):
        low, high = disjoint_pair.collection.sets
        cert = polytopes_intersect(low, high)
        assert cert.verify(low, high)
        third = BeliefSet("third", (Prior((F(1, 3), F(1, 3), F(1, 3))),))
        assert not cert.verify(third, high)
        assert not cert.verify(low, third)

    def test_a_zero_slack(self):
        """phi1 = (3/5, -2/5) has floor 0 on both touching intervals: only the sign fails."""
        low, high = interval_set("low", F(1, 5), F(2, 5)), interval_set("high", F(2, 5), F(3, 5))
        phi = UtilityVector((F(3, 5), F(-2, 5)))
        for bset, functional in ((high, phi), (low, -phi)):
            values = [sum(p * e for p, e in zip(v.probs, functional.entries))
                      for v in bset.vertices]
            assert min(values) == 0
        assert not SametCertificate(phi, -phi, F(0)).verify(high, low)

    @given(st.data())
    def test_common_prior_matches_the_fraction_reference(self, data):
        first, second, cert = data.draw(st.sampled_from(SHARED_PAIRS))
        field = data.draw(st.sampled_from(["weights_first", "weights_second"]))
        index = data.draw(st.integers(0, 5))
        delta = data.draw(small)
        tampered = dataclasses.replace(cert, **{field: _nudged(getattr(cert, field), index, delta)})
        assert tampered.verify(first, second) == reference_common_prior(tampered, first, second)
        assert tampered.verify(first, second) == (delta == 0)

    @given(st.data())
    def test_samet_matches_the_fraction_reference(self, data):
        first, second, cert = data.draw(st.sampled_from(DISJOINT_PAIRS))
        index = data.draw(st.integers(0, 3))
        phi1 = UtilityVector(_nudged(cert.phi1.entries, index, data.draw(small)))
        phi2 = data.draw(st.sampled_from([-phi1, cert.phi2]))
        slack = data.draw(st.sampled_from([cert.slack, cert.slack + data.draw(small)]))
        tampered = SametCertificate(phi1, phi2, slack)
        assert tampered.verify(first, second) == reference_samet(tampered, first, second)


class TestCuttingHyperplane:
    def test_no_cut_through_disjoint_or_touching(
        self, disjoint_pair, touching_intervals
    ):
        assert find_cutting_hyperplane(disjoint_pair.collection) is None
        assert find_cutting_hyperplane(touching_intervals.collection) is None

    def test_overlap_interiors_are_cut(self, overlapping_intervals):
        cut = find_cutting_hyperplane(overlapping_intervals.collection)
        assert cut is not None
        assert cut.offset == 0
        assert cut.verify(overlapping_intervals.collection)
        # the zero set of the functional crosses first-state mass in (2/5, 1/2)
        a, b = cut.normal.entries
        root = b / (b - a)
        assert F(2, 5) < root < F(1, 2)

    def test_manual_threshold_cut_verifies(self, overlapping_intervals):
        cut = CuttingHyperplane(
            normal=UtilityVector((F(1), F(0))),
            offset=F(9, 20),
            straddles=((1, 0), (1, 0)),
        )
        assert cut.verify(overlapping_intervals.collection)
        shifted = CuttingHyperplane(cut.normal, F(3, 4), cut.straddles)
        assert not shifted.verify(overlapping_intervals.collection)
        touching = CuttingHyperplane(cut.normal, F(1, 2), cut.straddles)  # left's plus vertex
        assert not touching.verify(overlapping_intervals.collection)
        short = CuttingHyperplane(cut.normal, cut.offset, cut.straddles[:1])
        assert not short.verify(overlapping_intervals.collection)

    def test_a_normal_of_the_wrong_length_fails(self, overlapping_intervals):
        """A normal longer or shorter than the states would verify if zip cut it."""
        long = CuttingHyperplane(UtilityVector((F(1), F(0), F(5))), F(9, 20), ((1, 0), (1, 0)))
        assert not long.verify(overlapping_intervals.collection)
        three = BeliefCollection(tuple(
            BeliefSet(name, (Prior((F(1, 4), F(1, 2), F(1, 4))), Prior((F(3, 4), F(0), F(1, 4)))))
            for name in ("a", "b")
        ))
        short = CuttingHyperplane(UtilityVector((F(1), F(0))), F(1, 2), ((1, 0), (1, 0)))
        assert not short.verify(three)
        padded = CuttingHyperplane(UtilityVector((F(1), F(0), F(0))), F(1, 2), short.straddles)
        assert padded.verify(three)

    @pytest.mark.parametrize("straddles", [((2, 0), (1, 0)), ((1, -2), (1, 0))])
    def test_straddles_naming_no_vertex_fail(self, overlapping_intervals, straddles):
        """Each interval has vertices 0 and 1; -2 would wrap around to vertex 0."""
        cut = CuttingHyperplane(UtilityVector((F(1), F(0))), F(9, 20), straddles)
        assert not cut.verify(overlapping_intervals.collection)

    def test_a_cut_failing_its_own_check_raises(self, overlapping_intervals, monkeypatch):
        monkeypatch.setattr(CuttingHyperplane, "verify", lambda self, collection: False)
        with pytest.raises(RuntimeError, match="does not straddle every set"):
            find_cutting_hyperplane(overlapping_intervals.collection)

    def test_singleton_sets_cannot_be_straddled(self):
        collection = BeliefCollection(
            (
                BeliefSet("point", (Prior((F(1, 2), F(1, 2))),)),
                interval_set("fat", F(1, 4), F(3, 4)),
            )
        )
        assert find_cutting_hyperplane(collection) is None

    @pytest.mark.parametrize("family", sorted(NO_CUT_SEEDS))
    def test_verdicts_match_the_lp_search(self, family, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("the cut decision solved an LP")

        monkeypatch.setattr(analysis, "solve", no_lp)
        no_cut = []
        for seed, inst in pinned_instances(family):
            cut = find_cutting_hyperplane(inst.collection)
            if cut is None:
                no_cut.append(seed)
            else:
                assert cut.offset == 0
                assert cut.verify(inst.collection)
        assert tuple(no_cut) == NO_CUT_SEEDS[family]

    @given(
        st.lists(
            st.lists(st.fractions(0, 1, max_denominator=12), min_size=1, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_two_states_follow_the_interval_closed_form(self, masses):
        collection = BeliefCollection(
            tuple(
                BeliefSet(f"s{k}", tuple(Prior((p, 1 - p)) for p in dict.fromkeys(ps)))
                for k, ps in enumerate(masses)
            )
        )
        cut = find_cutting_hyperplane(collection)
        assert (cut is not None) == (max(map(min, masses)) < min(map(max, masses)))
        if cut is not None:
            assert cut.verify(collection)

    @pytest.mark.parametrize("states", [3, 4])
    def test_a_lattice_straddle_implies_a_cut(self, states):
        params = GenParams(num_states=states, num_sets=4, vertices_per_set=6)
        lattice = phi_lattice(states, 2)
        straddled = 0
        for seed in range(30):
            collection = generate_instance(seed, params).collection
            cut = find_cutting_hyperplane(collection)
            if any(
                prof.minmax > prof.maxmin
                for prof in (margin_profile(collection, phi) for phi in lattice)
            ):
                straddled += 1
                assert cut is not None
            if cut is not None:
                assert cut.offset == 0
                assert cut.verify(collection)
        assert straddled > 0

    def test_collinear_sets_need_the_coordinate_planes(self):
        # Every vertex lies on one line through the uniform prior, so the
        # vertex differences give one plane; its ray scores all vertices
        # alike, and the cut comes from a ray of an (e_i - e_j) plane.
        def on_line(*ts):
            return tuple(Prior((F(1, 3) + t, F(1, 3) + t, F(1, 3) - 2 * t)) for t in ts)

        collection = BeliefCollection(
            (
                BeliefSet("a", on_line(F(-1, 12), F(1, 12))),
                BeliefSet("b", on_line(F(0), F(1, 6))),
            )
        )
        cut = find_cutting_hyperplane(collection)
        assert cut is not None
        assert cut.verify(collection)
        apart = BeliefCollection(
            (collection.sets[0], BeliefSet("c", on_line(F(1, 12), F(1, 6))))
        )
        assert find_cutting_hyperplane(apart) is None

    def test_corner_clusters_have_no_cut(self):
        # Four tight clusters of six vertices, one at each corner of the
        # simplex: every ray of the arrangement must be tried.
        collection = load_instance(CORNER_CLUSTERS).collection
        assert len(collection.sets) == 4
        assert all(len(s.vertices) == 6 for s in collection.sets)
        assert find_cutting_hyperplane(collection) is None


class TestWitnessBuilders:
    def test_incompleteness_pair_replays_exactly(self, overlapping_intervals):
        inst = overlapping_intervals
        cut = find_cutting_hyperplane(inst.collection)
        f, x0 = build_incompleteness_witness(inst.collection, cut, inst)
        assert utility_vector(inst.utility, x0).is_constant()
        report = audit(AxiomKind.COMPLETENESS, GeneralizedBewley(), inst, [f, x0])
        assert not report.passed
        w = report.witnesses[0]
        assert w.indices == (0, 1)
        assert all(m < 0 for m in w.margins)

    def test_cbt_triple_on_disjoint_sets(self, disjoint_pair):
        inst = disjoint_pair
        low, high = inst.collection.sets
        cert = polytopes_intersect(low, high)
        x0, f, xe = build_cbt_witness(inst.collection, cert, inst)
        u0 = utility_vector(inst.utility, x0)
        ue = utility_vector(inst.utility, xe)
        uf = utility_vector(inst.utility, f)
        assert u0.entries == (F(0), F(0))
        assert ue.entries == (F(1, 10), F(1, 10))
        assert uf.entries == (F(-1), F(1))

        report = audit(
            AxiomKind.CONSTANT_BOUND_TRANSITIVITY, GeneralizedBewley(), inst,
            [x0, f, xe],
        )
        assert not report.passed
        w = report.witnesses[0]
        assert w.margins == (F(1, 5), F(1, 10), F(-1, 10))

    def test_witness_builder_rejects_an_unrelated_collection(
        self, disjoint_pair, overlapping_intervals
    ):
        low, high = disjoint_pair.collection.sets
        cert = polytopes_intersect(low, high)
        with pytest.raises(RuntimeError):
            build_cbt_witness(
                overlapping_intervals.collection, cert, overlapping_intervals
            )

    def test_incompleteness_builder_rejects_a_cut_that_does_not_straddle(self, disjoint_pair):
        """Along the diagonal every prior scores 1, so both margins are positive."""
        level = CuttingHyperplane(UtilityVector((F(1), F(1))), F(0), ((0, 0), (0, 0)))
        with pytest.raises(RuntimeError, match="did not produce an incomparable pair"):
            build_incompleteness_witness(disjoint_pair.collection, level, disjoint_pair)

    @pytest.mark.parametrize("utility, message", [
        ({"lose": "1", "win": "2"}, "must contain 0"),
        ({"lose": "0", "win": "1"}, "degenerate on the witness side"),
    ])
    def test_witness_acts_need_room_around_zero(self, disjoint_pair, utility, message):
        """The Samet direction (-1, 1) has a negative entry, which [0, 1] cannot scale."""
        doc = instance_to_jsonable(disjoint_pair)
        doc["utility"] = utility
        inst = validate_instance(doc)
        cert = polytopes_intersect(*inst.collection.sets)
        assert cert.phi1 == UtilityVector((F(-1), F(1)))
        with pytest.raises(ValueError, match=message):
            build_cbt_witness(inst.collection, cert, inst)


class TestCommutativity:
    def test_lattice_size(self):
        assert len(phi_lattice(2)) == 25
        assert len(phi_lattice(3, resolution=1)) == 27

    @pytest.mark.parametrize("resolution", [0, -1, True, 2.0, "2"])
    def test_lattice_resolution_must_be_a_positive_int(self, resolution):
        with pytest.raises(ValueError, match="resolution must be a positive integer"):
            phi_lattice(2, resolution)

    @pytest.mark.parametrize("states, resolution", [(4, 4), (6, 10)])
    def test_lattice_over_the_battery_limit_is_refused(self, monkeypatch, states, resolution):
        """6561 and 85,766,121 vectors: refused before the first one is built."""
        def refuse(*args):
            raise AssertionError("lattice vector built despite a lattice over the limit")

        monkeypatch.setattr(analysis, "UtilityVector", refuse)
        with pytest.raises(ValueError, match=f"the limit is {analysis.MAX_BATTERY_ACTS}"):
            phi_lattice(states, resolution)

    @pytest.mark.parametrize("radius, message", [
        (0.1, "must be an int or a Fraction"),
        (True, "must be an int or a Fraction"),
        (0, "radius must be positive"),
        (F(-1, 2), "radius must be positive"),
    ])
    def test_lattice_radius_must_be_a_positive_rational(self, radius, message):
        with pytest.raises(ValueError, match=message):
            phi_lattice(2, 2, radius)

    def test_disjoint_sets_break_commutativity(self, disjoint_pair):
        verdict = check_commutativity(disjoint_pair.collection, phi_lattice(2))
        assert not verdict.holds
        phi, mm, mx = verdict.counterexample
        prof = margin_profile(disjoint_pair.collection, phi)
        assert (prof.maxmin, prof.minmax) == (mm, mx)
        assert mm != mx

    def test_touching_sets_commute(self, touching_intervals):
        verdict = check_commutativity(touching_intervals.collection, phi_lattice(2))
        assert verdict.holds
        assert verdict.counterexample is None
        assert verdict.checked == 25

    def test_empty_battery_rejected(self, disjoint_pair):
        with pytest.raises(ValueError):
            check_commutativity(disjoint_pair.collection, [])


class TestCollapse:
    def test_touching_collapse_prior(self, touching_intervals):
        prior = seu_collapse_binary(touching_intervals.collection)
        assert prior is not None
        assert prior.probs == (F(2, 5), F(3, 5))

    def test_no_collapse_without_common_agreement(
        self, disjoint_pair, overlapping_intervals
    ):
        assert seu_collapse_binary(disjoint_pair.collection) is None
        assert seu_collapse_binary(overlapping_intervals.collection) is None

    def test_three_states_rejected(self):
        collection = BeliefCollection(
            (BeliefSet("t", (Prior((F(1, 3), F(1, 3), F(1, 3))),)),)
        )
        with pytest.raises(WrongDimension):
            seu_collapse_binary(collection)


class TestAnalyze:
    def test_disjoint_pair_parameters(self, disjoint_pair):
        report = analyze(disjoint_pair)
        assert report.complete_param is True
        assert report.cbt_param is False
        assert not report.commutes.holds
        assert report.seu_collapse is None
        assert report.cutting is None

    def test_touching_parameters(self, touching_intervals):
        report = analyze(touching_intervals)
        assert report.complete_param is True
        assert report.cbt_param is True
        assert report.commutes.holds
        assert report.seu_collapse.probs == (F(2, 5), F(3, 5))

    def test_overlapping_parameters(self, overlapping_intervals):
        report = analyze(overlapping_intervals)
        assert report.complete_param is False
        assert report.cbt_param is True
        assert not report.commutes.holds
        assert report.cutting is not None

    def test_report_serializes(self, touching_intervals):
        doc = analyze(touching_intervals).to_jsonable()
        assert doc["complete_param"] is True
        assert doc["cbt_param"] is True
        assert doc["seu_collapse"] == ["2/5", "3/5"]

    @staticmethod
    def _flat_prior(num_states):
        states = [f"s{i}" for i in range(1, num_states + 1)]
        return validate_instance(
            {
                "states": states,
                "prizes": ["lose", "win"],
                "utility": {"lose": "-1", "win": "1"},
                "acts": {"all_win": {s: {"win": "1"} for s in states}},
                "belief_collection": [
                    {"name": "flat", "vertices": [[f"1/{num_states}"] * num_states]}
                ],
            }
        )

    def test_direction_lattice_is_bounded(self, monkeypatch):
        # The commutativity lattice has 5 ** n vectors: 3125 on five states.
        def refuse(*args, **kwargs):
            raise AssertionError("analysis started despite a lattice over the limit")

        for name in ("pairwise_intersection_holds", "find_cutting_hyperplane", "phi_lattice"):
            monkeypatch.setattr(analysis, name, refuse)
        with pytest.raises(ValueError, match="the limit is 729"):
            analyze(self._flat_prior(5))

    def test_four_states_fit_the_lattice(self):
        report = analyze(self._flat_prior(4))
        assert report.cbt_param and report.commutes.holds

    def test_one_commutativity_lattice_per_state_count(self, monkeypatch):
        real, calls = analysis.phi_lattice, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "phi_lattice", counted)
        analysis._commutativity_lattice.cache_clear()
        lattice = real(4)
        for seed in range(3):
            instance = generate_instance(seed, GenParams(num_states=4))
            report = analyze(instance)
            assert report.commutes == check_commutativity(instance.collection, lattice), seed
        assert calls == [(4,)]

    def test_cut_search_over_its_work_limit_refuses_before_any_program(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a program was solved despite a cut search over its limit")

        monkeypatch.setattr(analysis, "pairwise_intersection_holds", refuse)
        monkeypatch.setattr(analysis, "MAX_CUT_WORK", 910_799)
        instance = load_instance(CORNER_CLUSTERS)
        with pytest.raises(ValueError, match=r"C\(276, 2\) rays times 24 vertices = 910800; "
                           r"the limit is 910799"):
            analyze(instance)


class TestPinnedReports:
    """``analyze`` output is pinned byte for byte: certificates follow pivot order."""

    @pytest.mark.parametrize(
        "stem", sorted(p.stem for p in INSTANCE_DIR.glob("*.json"))
    )
    def test_bundled_instance_report(self, stem, capsys):
        assert cli.main(["analyze", "--instance", str(INSTANCE_DIR / f"{stem}.json")]) == 0
        expected = (DATA / "analyze" / f"{stem}.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    @pytest.fixture(scope="class")
    def geometry_reports(self) -> dict[str, dict]:
        """Reports of seeds 0..79 of the geometry box, 3 states on even seeds, 4 on odd."""
        reports = {}
        for seed in range(80):
            params = GenParams(num_states=3 if seed % 2 == 0 else 4, num_sets=4, vertices_per_set=6)
            reports[str(seed)] = analyze(generate_instance(seed, params)).to_jsonable()
        return reports

    def test_geometry_box_reports(self, geometry_reports):
        pinned = json.loads((DATA / "analyze_geometry_sha256.json").read_text())
        digests = {}
        for seed, doc in geometry_reports.items():
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            digests[seed] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digests == pinned

    def test_geometry_box_verdicts(self, geometry_reports):
        """The verdicts behind the digests, pinned apart from the certificates.

        Each pair is shared or disjoint, and a disjoint pair's slack is the
        separation program's optimal value, so neither may move when only a
        certificate's prior, weights or phi does.
        """
        pinned = json.loads((DATA / "analyze_geometry_verdicts.json").read_text())
        verdicts = {}
        for seed, doc in geometry_reports.items():
            certs = doc["pairwise_intersections"]["certificates"]
            disjoint = [c for c in certs if c["kind"] == "disjoint"]
            verdicts[seed] = {
                "shared": ["/".join(c["sets"]) for c in certs if c["kind"] == "common_prior"],
                "disjoint": {"/".join(c["sets"]): c["slack"] for c in disjoint},
                "complete_param": doc["complete_param"],
                "cbt_param": doc["cbt_param"],
                "commutes": doc["commutes"]["holds"],
            }
        assert verdicts == pinned
        assert sum(len(v["disjoint"]) for v in pinned.values()) == 250
