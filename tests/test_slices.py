from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambipref import (
    CONES,
    AlphaMixture,
    AlphaOutOfRange,
    BeliefCollection,
    BeliefSet,
    Conjunctive,
    DegenerateDirection,
    Disjunctive,
    GenParams,
    GeneralizedBewley,
    HalfMixture,
    NotARational,
    Prior,
    SlicePlane,
    UnknownFormat,
    UtilityVector,
    certify_slice_convexity,
    export_slice,
    generate_instance,
    load_instance,
    margin_profile,
    model_margin,
    slice_profile,
)
from ambipref import cli, slices
from ambipref.slices import MAX_SLICE_SAMPLES, _sign_arcs

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"
DATA = Path(__file__).resolve().parent / "data"

F = Fraction

# The model kind behind each cone, written out independently of the package.
CONE_KINDS = {
    "maxmin": GeneralizedBewley(),
    "minmax": AlphaMixture(F(0)),
    "half": HalfMixture(),
    "alpha": AlphaMixture(F(3, 4)),
    "conjunctive": Conjunctive(),
    "disjunctive": Disjunctive(),
}


def singleton_collection(p1: F) -> BeliefCollection:
    return BeliefCollection((BeliefSet("only", (Prior((p1, 1 - p1)),)),))


class TestSlicePlane:
    def test_mean_is_projected_out(self):
        plane = SlicePlane.through((F(1), F(0)))
        assert plane.e1 == (F(1), F(1))
        assert plane.e2 == (F(1), F(-1))

    def test_same_plane_from_the_off_diagonal_direction(self):
        assert SlicePlane.through((1, -1)) == SlicePlane.through((F(1), F(0)))

    def test_residue_is_rescaled_to_primitive_integers(self):
        plane = SlicePlane.through((F(1), F(-3), F(0)))
        assert plane.e2 == (F(5), F(-7), F(2))
        assert plane.num_states == 3

    def test_accepts_a_utility_vector(self):
        plane = SlicePlane.through(UtilityVector((F(1, 2), F(-1, 2))))
        assert plane.e2 == (F(1), F(-1))

    @pytest.mark.parametrize(
        "direction",
        [(1, 0.1, 0), (True, 0), UtilityVector((F(1), 0.5))],
        ids=["float", "bool", "float-in-a-utility-vector"],
    )
    def test_inexact_entries_rejected(self, direction):
        # Read as a float, 0.1 would give e2 = (22818238112010513, ...), not (19, -8, -11).
        with pytest.raises(NotARational, match="direction entry"):
            SlicePlane.through(direction)
        assert SlicePlane.through((1, F(1, 10), 0)).e2 == (F(19), F(-8), F(-11))

    def test_inexact_e2_rejected(self):
        with pytest.raises(NotARational, match="e2 entry"):
            SlicePlane((F(1), F(1)), (0.1, -0.1))

    def test_diagonal_direction_rejected(self):
        with pytest.raises(DegenerateDirection):
            SlicePlane.through((F(2), F(2)))

    def test_single_state_rejected(self):
        with pytest.raises(DegenerateDirection):
            SlicePlane.through((F(5),))

    @pytest.mark.parametrize(
        "e1, e2",
        [
            ((F(2), F(2)), (F(1), F(-1))),
            ((F(1), F(0)), (F(1), F(-1))),
            ((), ()),
            ((F(1), F(1)), (F(1), F(0), F(-1))),
            ((F(1), F(1), F(1)), (F(1), F(-1))),
        ],
    )
    def test_basis_must_fit_the_closed_form(self, e1, e2):
        with pytest.raises(ValueError):
            SlicePlane(e1=e1, e2=e2)


@pytest.fixture()
def disjoint_profile(disjoint_pair):
    plane = SlicePlane.through((1, -1))
    return slice_profile(disjoint_pair.collection, plane, 16)


class TestSampling:
    def test_sample_count_and_theta_labels(self, disjoint_profile):
        samples = disjoint_profile.samples
        assert len(samples) == 16
        assert [s.theta for s in samples] == [F(k, 16) for k in range(16)]

    def test_directions_lie_on_a_rational_unit_circle(self, disjoint_profile):
        plane = disjoint_profile.plane
        for s in disjoint_profile.samples:
            # recover the circle coordinates from phi = c*e1 + s*e2
            a, b = s.direction.entries
            c = (a + b) / 2
            t = (a - b) / 2
            assert c * c + t * t == 1
            assert s.direction.entries == (
                c * plane.e1[0] + t * plane.e2[0],
                c * plane.e1[1] + t * plane.e2[1],
            )

    def test_antipodal_samples_negate_each_other(self, disjoint_profile):
        # n/2 odd and even; A and B zero, negative, straddling zero, out of
        # order and on large denominators; fractional and steep planes.
        profiles = [disjoint_profile] + [
            slice_profile(beliefs, plane, n, F(1, 3))
            for n in (8, 10, 14, 256)
            for beliefs in EDGE_COLLECTIONS.values()
            for plane in EDGE_PLANES.values()
        ]
        for profile in profiles:
            samples = profile.samples
            half_n = len(samples) // 2
            for near, far in zip(samples[:half_n], samples[half_n:]):
                assert far.direction.entries == tuple(-e for e in near.direction.entries)
                assert far.maxmin == -near.minmax
                assert far.minmax == -near.maxmin
                assert far.half == -near.half

    def test_half_is_the_operator_midpoint(self, disjoint_profile):
        for s in disjoint_profile.samples:
            assert s.half == (s.maxmin + s.minmax) / 2
        assert all(s.alpha is None for s in disjoint_profile.samples)

    def test_too_few_samples(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        with pytest.raises(ValueError, match="at least 8"):
            slice_profile(disjoint_pair.collection, plane, 6)

    def test_odd_sample_count(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        with pytest.raises(ValueError, match="even"):
            slice_profile(disjoint_pair.collection, plane, 9)

    def test_alpha_weight_out_of_range(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        with pytest.raises(AlphaOutOfRange):
            slice_profile(disjoint_pair.collection, plane, 16, alpha=F(3, 2))

    def test_float_alpha_weight_rejected(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        with pytest.raises(NotARational):
            slice_profile(disjoint_pair.collection, plane, 16, alpha=0.1)

    @pytest.mark.parametrize("cone", CONES)
    def test_cone_values_are_model_margins(
        self, disjoint_pair, touching_intervals, overlapping_intervals, cone
    ):
        """Each cone's value is its model kind's margin; its arcs are their signs."""
        kind = CONE_KINDS[cone]
        for inst in (disjoint_pair, touching_intervals, overlapping_intervals):
            for direction in ((1, 0), (1, -3)):
                profile = slice_profile(
                    inst.collection, SlicePlane.through(direction), 16, alpha=F(3, 4)
                )
                values = [
                    model_margin(kind, inst.collection, s.direction) for s in profile.samples
                ]
                assert [kind.margin(s.maxmin, s.minmax) for s in profile.samples] == values
                if cone in ("maxmin", "minmax", "half", "alpha"):
                    assert [getattr(s, cone) for s in profile.samples] == values
                assert profile.arcs(cone) == _sign_arcs([v >= 0 for v in values])

    @pytest.mark.parametrize("n", [16.0, F(16), "16", True, None])
    def test_sample_count_must_be_an_int(self, disjoint_pair, n):
        plane = SlicePlane.through((1, -1))
        with pytest.raises(ValueError, match="must be an int"):
            slice_profile(disjoint_pair.collection, plane, n)

    @pytest.mark.parametrize("n", [MAX_SLICE_SAMPLES + 2, 10**40])
    def test_sample_count_over_the_limit(self, disjoint_pair, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started despite a bad sample count")

        monkeypatch.setattr(slices, "margin_profile", refuse)
        plane = SlicePlane.through((1, -1))
        with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_SLICE_SAMPLES}"):
            slice_profile(disjoint_pair.collection, plane, n)

    def test_sample_limit_is_inclusive(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(disjoint_pair.collection, plane, MAX_SLICE_SAMPLES)
        assert len(profile.samples) == MAX_SLICE_SAMPLES
        assert cli.MAX_SLICE_SAMPLES == MAX_SLICE_SAMPLES


def interval_set(name: str, lo: F, hi: F) -> BeliefSet:
    return BeliefSet(name, (Prior((lo, 1 - lo)), Prior((hi, 1 - hi))))


# On the plane through (1, -1), a prior (p, 1 - p) scores 2p - 1, so these
# put A = maxmin(e2) and B = minmax(e2) at zero, below zero, on both sides
# of it, in the wrong order (A > B) and on large denominators.
EDGE_COLLECTIONS = {
    "both_zero": singleton_collection(F(1, 2)),
    "both_negative": BeliefCollection((interval_set("low", F(1, 5), F(2, 5)),)),
    "straddling": BeliefCollection((interval_set("wide", F(1, 5), F(4, 5)),)),
    "apart": BeliefCollection(
        (interval_set("low", F(1, 5), F(2, 5)), interval_set("high", F(3, 5), F(4, 5)))
    ),
    "large_denominators": BeliefCollection(
        (
            interval_set("p", F(123456789, 987654323), F(987654321, 1000000007)),
            interval_set("q", F(1, 3), F(2**61 - 1, 2**62)),
        )
    ),
}
EDGE_PLANES = {
    "diagonal_residue": SlicePlane.through((1, -1)),
    "fractional_e2": SlicePlane(e1=(F(1), F(1)), e2=(F(1, 3), F(-1, 3))),
    "steep": SlicePlane.through((F(-2, 3), 5)),
}


def reference_samples(collection, plane, n, alpha):
    """Rows (theta, direction, maxmin, minmax, half, alpha) in plain Fractions.

    The closed form of the slices module docstring: the tangent half-angle
    point of u = (2j - n/2) / (n/2) and its antipode, then maxmin = c + s*A
    and minmax = c + s*B, swapped for s < 0.
    """
    e2 = plane.e2
    scores = [
        [sum(p * e for p, e in zip(v.probs, e2)) for v in bset.vertices]
        for bset in collection.sets
    ]
    big_a = max(min(row) for row in scores)
    big_b = min(max(row) for row in scores)
    h = n // 2
    right = []
    for j in range(h):
        u = F(2 * j - h, h)
        right.append(((1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)))
    rows = []
    for k, (c, s) in enumerate(right + [(-c, -s) for c, s in right]):
        lo, hi = (big_a, big_b) if s >= 0 else (big_b, big_a)
        mm, mx = c + s * lo, c + s * hi
        rows.append(
            (
                F(k, n),
                tuple(c + s * e for e in e2),
                mm,
                mx,
                (mm + mx) / 2,
                None if alpha is None else alpha * mm + (1 - alpha) * mx,
            )
        )
    return rows


class TestIntegerSampler:
    """Samples built from integer numerators equal the Fraction closed form."""

    @pytest.mark.parametrize("n", [8, 10, 14, 256])
    @pytest.mark.parametrize("alpha", [None, F(0), F(1), F(1, 3), F(3, 4)])
    @pytest.mark.parametrize("collection", sorted(EDGE_COLLECTIONS))
    def test_matches_the_fraction_reference(self, n, alpha, collection):
        beliefs = EDGE_COLLECTIONS[collection]
        cones = [c for c in CONES if c != "alpha" or alpha is not None]
        for plane, basis in EDGE_PLANES.items():
            profile = slice_profile(beliefs, basis, n, alpha=alpha)
            rows = reference_samples(beliefs, basis, n, alpha)
            assert sample_rows(profile) == rows, plane
            columns = {
                "maxmin": [r[2] for r in rows],
                "minmax": [r[3] for r in rows],
                "half": [r[4] for r in rows],
                "alpha": [r[5] for r in rows],
                "conjunctive": [min(r[2], r[3]) for r in rows],
                "disjunctive": [max(r[2], r[3]) for r in rows],
            }
            assert profile.arc_summary == tuple(
                (cone, _sign_arcs([v >= 0 for v in columns[cone]])) for cone in cones
            ), plane

    def test_edge_collections_cover_the_signs(self):
        plane = EDGE_PLANES["diagonal_residue"]
        signs = set()
        for beliefs in EDGE_COLLECTIONS.values():
            along = margin_profile(beliefs, UtilityVector(plane.e2))
            signs.add((along.maxmin > 0) - (along.maxmin < 0))
            signs.add((along.minmax > 0) - (along.minmax < 0))
        assert signs == {-1, 0, 1}


def sample_rows(profile):
    return [
        (s.theta, s.direction.entries, s.maxmin, s.minmax, s.half, s.alpha)
        for s in profile.samples
    ]


class TestSharedDirections:
    """Each plane's directions are built once and shared by its profiles."""

    def test_profiles_of_one_plane_share_their_direction_objects(self):
        plane = EDGE_PLANES["steep"]
        first, second = EDGE_COLLECTIONS["apart"], EDGE_COLLECTIONS["straddling"]
        one = slice_profile(first, plane, 64, alpha=F(3, 4))
        other = slice_profile(second, SlicePlane.through((F(-2, 3), 5)), 64)
        assert all(
            a.direction is b.direction for a, b in zip(one.samples, other.samples)
        )
        assert sample_rows(one) == reference_samples(first, plane, 64, F(3, 4))
        assert sample_rows(other) == reference_samples(second, plane, 64, None)

    def test_revisiting_a_plane_after_the_cache_turns_over(self):
        beliefs = EDGE_COLLECTIONS["large_denominators"]
        maxsize = slices._directions.cache_info().maxsize
        planes = [
            SlicePlane(e1=(F(1), F(1)), e2=(F(k + 1, 3), F(-k - 1, 3)))
            for k in range(maxsize + 2)
        ]
        assert len({p.e2 for p in planes}) == len(planes)
        for plane in planes + planes[:1]:
            profile = slice_profile(beliefs, plane, 16, alpha=F(1, 3))
            assert sample_rows(profile) == reference_samples(beliefs, plane, 16, F(1, 3))

    def test_a_plane_built_with_a_list_profiles(self):
        beliefs = EDGE_COLLECTIONS["apart"]
        plane = SlicePlane(e1=(F(1), F(1)), e2=[F(1, 3), F(-1, 3)])
        profile = slice_profile(beliefs, plane, 8)
        assert sample_rows(profile) == reference_samples(beliefs, plane, 8, None)

    def test_the_direction_cache_is_bounded(self):
        maxsize = slices._directions.cache_info().maxsize
        assert maxsize is not None and maxsize <= 16


class TestClosedForm:
    """Each sample's margins equal a vertex sweep at its own direction.

    ``slice_profile`` computes them in closed form from two numbers per
    plane; this check sweeps every vertex at every sample instead.
    """

    @staticmethod
    def check(collection, direction, n=64):
        plane = SlicePlane.through(direction)
        profile = slice_profile(collection, plane, n, alpha=F(3, 4))
        offset = next(i for i, e in enumerate(plane.e2) if e)
        for sample in profile.samples:
            phi = sample.direction.entries
            # phi = c*e1 + t*e2 with (c, t) on the unit circle; e2 sums to 0.
            c = sum(phi) / len(phi)
            t = (phi[offset] - c) / plane.e2[offset]
            assert c * c + t * t == 1
            assert phi == tuple(c + t * e for e in plane.e2)
            swept = margin_profile(collection, sample.direction)
            assert (sample.maxmin, sample.minmax) == (swept.maxmin, swept.minmax)

    @pytest.mark.parametrize("name", sorted(p.name for p in INSTANCE_DIR.glob("*.json")))
    def test_instance_files(self, name):
        instance = load_instance(INSTANCE_DIR / name)
        for direction in ((1, -1), (1, 0), (F(-2, 3), 5)):
            self.check(instance.collection, direction)

    @pytest.mark.parametrize("states", [3, 4])
    def test_generated_instances(self, states):
        directions = {
            3: ((1, -1, 0), (0, 1, -1), (1, 1, -2), (F(1, 2), -3, 7)),
            4: ((1, -1, 0, 0), (0, 0, 1, -1), (1, 1, -1, -1), (3, F(-1, 5), 0, 2)),
        }[states]
        params = GenParams(num_states=states, num_sets=4, vertices_per_set=6)
        for seed in range(3):
            instance = generate_instance(seed, params)
            for direction in directions:
                self.check(instance.collection, direction)


def brute_force_arcs(flags) -> tuple[tuple[int, int], ...]:
    """Every (start, length) whose circular run is all True between two False flags."""
    n = len(flags)
    if all(flags):
        return ((0, n),)
    return tuple(
        (start, length)
        for start in range(n)
        for length in range(1, n)
        if not flags[start - 1]
        and not flags[(start + length) % n]
        and all(flags[(start + k) % n] for k in range(length))
    )


class TestArcs:
    @pytest.mark.parametrize(
        "flags, arcs",
        [
            ([True] * 5, ((0, 5),)),
            ([False] * 5, ()),
            ([True, False, False, True, True], ((3, 3),)),
            ([True, True, False, True], ((3, 3),)),
            ([False, True, True, False, True], ((1, 2), (4, 1))),
            ((True, False, True, False), ((0, 1), (2, 1))),
        ],
        ids=["all-true", "all-false", "wrap", "wrap-one-gap", "two-runs", "tuple"],
    )
    def test_sign_arcs_cases(self, flags, arcs):
        assert _sign_arcs(flags) == brute_force_arcs(flags) == arcs

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_sign_arcs_match_brute_force(self, flags):
        assert _sign_arcs(flags) == brute_force_arcs(flags)

    def test_disjoint_pair_arcs(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(disjoint_pair.collection, plane, 16)
        assert profile.arcs("maxmin") == ((0, 9),)
        assert profile.arcs("minmax") == ((1, 7),)
        assert profile.arcs("half") == ((0, 9),)
        # the maxmin boundary samples sit exactly on the zero set
        assert profile.samples[0].half == 0
        assert profile.samples[8].half == 0

    def test_overlapping_intervals_nest_the_other_way(self, overlapping_intervals):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(overlapping_intervals.collection, plane, 16)
        assert profile.arcs("maxmin") == ((0, 8),)
        assert profile.arcs("minmax") == ((0, 9),)

    def test_unknown_cone_name(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(disjoint_pair.collection, plane, 16)
        with pytest.raises(ValueError, match="no arc summary"):
            profile.arcs("sideways")

    def test_alpha_arcs_appear_only_when_weighted(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        bare = slice_profile(disjoint_pair.collection, plane, 16)
        weighted = slice_profile(disjoint_pair.collection, plane, 16, alpha=F(3, 4))
        assert [name for name, _ in bare.arc_summary] == [
            c for c in CONES if c != "alpha"
        ]
        assert weighted.arcs("alpha") == ((0, 9),)
        for s in weighted.samples:
            assert s.alpha == F(3, 4) * s.maxmin + F(1, 4) * s.minmax


class TestConvexityCertificates:
    def test_every_cone_is_single_arc_on_the_disjoint_pair(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(disjoint_pair.collection, plane, 16, alpha=F(3, 4))
        for cone in CONES:
            verdict = certify_slice_convexity(profile, cone)
            assert verdict.cone == cone
            assert verdict.convex
            assert len(verdict.arcs) == 1

    def test_disjunctive_certificate_covers_the_complement(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(disjoint_pair.collection, plane, 16)
        verdict = certify_slice_convexity(profile, "disjunctive")
        assert verdict.arcs == ((9, 7),)
        # the summary stores the nonnegative arc, the certificate its complement
        assert profile.arcs("disjunctive") == ((0, 9),)

    @pytest.mark.parametrize("states", [3, 4])
    def test_verdicts_match_a_per_sample_recomputation(self, states):
        """Certificates read the profile's arcs; each sample's sign agrees."""
        directions = {3: ((1, 0, 0), (2, -1, 3)), 4: ((1, 0, 0, 0), (1, -2, 0, 3))}
        for seed in range(4):
            collection = generate_instance(seed, GenParams(num_states=states)).collection
            for direction in directions[states]:
                plane = SlicePlane.through(direction)
                profile = slice_profile(collection, plane, 32, alpha=F(3, 4))
                for cone in CONES:
                    signs = [
                        model_margin(CONE_KINDS[cone], collection, s.direction) >= 0
                        for s in profile.samples
                    ]
                    if cone == "disjunctive":
                        signs = [not s for s in signs]
                    arcs = _sign_arcs(signs)
                    verdict = certify_slice_convexity(profile, cone)
                    assert (verdict.arcs, verdict.convex) == (arcs, len(arcs) <= 1), (
                        seed, direction, cone,
                    )

    def test_disjunctive_certificate_complements_any_arc_pattern(self, disjoint_pair):
        profile = slice_profile(disjoint_pair.collection, SlicePlane.through((1, -1)), 8)
        for flags in itertools.product((False, True), repeat=8):
            patterned = replace(profile, arc_summary=(("disjunctive", _sign_arcs(flags)),))
            verdict = certify_slice_convexity(patterned, "disjunctive")
            assert verdict.arcs == _sign_arcs([not f for f in flags]), flags

    def test_verdicts_stable_under_sample_doubling(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        coarse = slice_profile(disjoint_pair.collection, plane, 16, alpha=F(3, 4))
        fine = slice_profile(disjoint_pair.collection, plane, 32, alpha=F(3, 4))
        for cone in CONES:
            a = certify_slice_convexity(coarse, cone)
            b = certify_slice_convexity(fine, cone)
            assert a.convex == b.convex
            assert len(a.arcs) == len(b.arcs)

    def test_singleton_set_gives_a_half_circle(self):
        collection = singleton_collection(F(1, 2))
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(collection, plane, 16)
        assert profile.arcs("maxmin") == profile.arcs("minmax") == ((0, 9),)
        assert profile.samples[0].maxmin == 0
        assert profile.samples[8].maxmin == 0

    def test_alpha_certificate_needs_a_weight(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(disjoint_pair.collection, plane, 16)
        with pytest.raises(ValueError, match="without an alpha weight"):
            certify_slice_convexity(profile, "alpha")

    def test_unknown_cone_rejected(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(disjoint_pair.collection, plane, 16)
        with pytest.raises(ValueError, match="unknown cone"):
            certify_slice_convexity(profile, "sideways")


class TestExport:
    def test_csv_layout(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(disjoint_pair.collection, plane, 16)
        text = export_slice(profile, "csv")
        lines = text.splitlines()
        assert lines[0] == "theta,maxmin,minmax,half,alpha"
        assert lines[1] == "0.0,0.2,-0.2,0.0,"
        assert len(lines) == 17
        assert text.endswith("\n")

    def test_csv_alpha_column(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(disjoint_pair.collection, plane, 16, alpha=F(1, 2))
        first = export_slice(profile, "csv").splitlines()[1]
        assert first == "0.0,0.2,-0.2,0.0,0.0"

    def test_json_round_trip(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(disjoint_pair.collection, plane, 16, alpha=F(3, 4))
        doc = json.loads(export_slice(profile, "json"))
        assert doc["alpha_weight"] == "3/4"
        assert doc["plane"] == {"e1": ["1", "1"], "e2": ["1", "-1"]}
        assert len(doc["samples"]) == 16
        first = doc["samples"][0]
        assert first["maxmin"] == {"exact": "1/5", "value": 0.2}
        assert first["alpha"] == {"exact": "1/10", "value": 0.1}
        assert doc["arc_summary"]["maxmin"] == [[0, 9]]

    def test_json_without_alpha(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(disjoint_pair.collection, plane, 16)
        doc = json.loads(export_slice(profile, "json"))
        assert doc["alpha_weight"] is None
        assert {s["alpha"] for s in doc["samples"]} == {None}

    def test_unknown_format(self, disjoint_pair):
        plane = SlicePlane.through((1, -1))
        profile = slice_profile(disjoint_pair.collection, plane, 16)
        with pytest.raises(UnknownFormat):
            export_slice(profile, "yaml")


DIRECTION_TAGS = {"1,0": "1_0", "1,-1": "1_m1", "1,-3": "1_m3"}
GEOMETRY_DIRECTIONS = {
    3: ((1, -1, 0), (0, 1, -1), (1, 1, -2)),
    4: ((1, -1, 0, 0), (0, 0, 1, -1), (1, 1, -1, -1)),
}


class TestPinnedSlices:
    """Slice output is pinned byte for byte, 64 samples at alpha 3/4."""

    @pytest.mark.parametrize("direction", sorted(DIRECTION_TAGS))
    @pytest.mark.parametrize("stem", sorted(p.stem for p in INSTANCE_DIR.glob("*.json")))
    def test_bundled_instance_slice(self, stem, direction, capsys):
        argv = [
            "slice", "--instance", str(INSTANCE_DIR / f"{stem}.json"),
            "--direction", direction, "--samples", "64", "--alpha", "3/4", "--format", "json",
        ]
        assert cli.main(argv) == 0
        pinned = DATA / "slices" / f"{stem}_{DIRECTION_TAGS[direction]}.json"
        assert capsys.readouterr().out == pinned.read_text(encoding="utf-8")

    def test_geometry_box_slices(self):
        """Seeds 0..79 of the geometry box, 3 states on even seeds, 4 on odd."""
        pinned = json.loads((DATA / "slices_geometry_sha256.json").read_text())
        digests = {}
        for seed in range(80):
            states = 3 if seed % 2 == 0 else 4
            params = GenParams(num_states=states, num_sets=4, vertices_per_set=6)
            collection = generate_instance(seed, params).collection
            for direction in GEOMETRY_DIRECTIONS[states]:
                profile = slice_profile(
                    collection, SlicePlane.through(direction), 64, alpha=F(3, 4)
                )
                text = export_slice(profile, "json")
                key = f"{seed}:" + ",".join(str(d) for d in direction)
                digests[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digests == pinned
