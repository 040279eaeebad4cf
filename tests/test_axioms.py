from __future__ import annotations

import gc
import hashlib
import importlib
import itertools
import json
import math
import operator
import random
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambipref import (
    Act,
    AxiomKind,
    Battery,
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
    NotARational,
    Prior,
    RadiusExceedsUtilityRange,
    SEU,
    SUITES,
    UtilityVector,
    VerifyConfig,
    Witness,
    act_from_utility_vector,
    audit,
    audit_suite,
    constant_act,
    generate_act_grid,
    generate_instance,
    model_margin,
    phi_lattice,
    suite_outcomes,
    utility_vector,
    validate_instance,
    verify,
    weak_relation,
)
from ambipref import axioms as axioms_module
from ambipref.margins import _Kind
from ambipref.axioms import (
    MAX_BATTERY_ACTS,
    MAX_BATTERY_DIFFERENCES,
    MAX_MIXING_BOX,
    MAX_MIXING_TRIPLES,
    MIX_GRID,
    WITNESS_CAP,
    _MIX_SCALE,
    _Relation,
    _Runner,
    _SetColumns,
    _box_signs,
    _distinct_signs,
    _favorable_mixing,
    _sign_line,
    _signs,
    battery_label,
    check_battery,
)

F = Fraction
DATA = Path(__file__).resolve().parent / "data"


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


def eight_kinds(inst):
    """A uniform prior and one model of every kind, set kinds on the first set."""
    n = inst.num_states
    prior = Prior(tuple(F(1, n) for _ in range(n)))
    first_set = next(iter(inst.collection)).name
    return prior, [
        GeneralizedBewley(),
        Disjunctive(),
        Conjunctive(),
        HalfMixture(),
        AlphaMixture(F(3, 4)),
        Bewley(first_set),
        Justifiable(first_set),
        SEU(prior),
    ]


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

    def test_library_callers_meet_the_battery_limit(self, disjoint_pair, monkeypatch):
        """Oversized lattices are refused before any vector is built."""
        def refuse(*args, **kwargs):
            raise AssertionError("lattice built despite a battery over the limit")

        for name in ("ambipref.axioms", "ambipref.verify"):
            monkeypatch.setattr(importlib.import_module(name), "phi_lattice", refuse)
        limit = f"the limit is {MAX_BATTERY_ACTS}"
        with pytest.raises(ValueError, match=limit):
            generate_act_grid(disjoint_pair, resolution=10**6)
        with pytest.raises(ValueError, match=limit):
            verify(["thm2"], [0], VerifyConfig(resolution=10**6))
        with pytest.raises(AssertionError, match="lattice built"):
            generate_act_grid(disjoint_pair, resolution=13)  # 27 ** 2 acts: at the limit

    @pytest.mark.parametrize(
        "resolution, radius, error",
        [
            (True, F(1), ValueError),
            (2.0, F(1), ValueError),
            (2, 0.1, NotARational),  # the float 0.1 is 3602879701896397/36028797018963968
            (2, True, NotARational),
        ],
        ids=["bool-resolution", "float-resolution", "float-radius", "bool-radius"],
    )
    def test_inexact_lattice_inputs_are_refused(
        self, disjoint_pair, monkeypatch, resolution, radius, error
    ):
        """Both library entry points refuse before any lattice is built."""
        def refuse(*args, **kwargs):
            raise AssertionError("lattice built from an inexact input")

        for name in ("ambipref.axioms", "ambipref.verify"):
            monkeypatch.setattr(importlib.import_module(name), "phi_lattice", refuse)
        with pytest.raises(error):
            generate_act_grid(disjoint_pair, resolution=resolution, radius=radius)
        with pytest.raises(error):
            verify(["thm2"], [0], VerifyConfig(resolution=resolution, radius=radius))

    def test_battery_labels(self, disjoint_pair):
        assert "custom" in battery_label(disjoint_pair, 3, None, None)
        assert "resolution=2" in battery_label(disjoint_pair, 25, 2, F(1))


class TestMarginTableAgreement:
    def test_weak_matrix_matches_reference_path(self, disjoint_pair):
        """The integer fast path and the direct Fraction path must agree.

        One table serves all eight kinds, each reading its own columns, on a
        two-state and a three-state instance; margins must match exactly,
        and the zero count must equal the off-diagonal zero margins.
        """
        three_state = generate_instance(1, GenParams(num_states=3))
        for inst in (disjoint_pair, three_state):
            _, kinds = eight_kinds(inst)
            battery = generate_act_grid(inst, resolution=1)
            uvecs = [utility_vector(inst.utility, a) for a in battery]
            table = MarginTable(inst, uvecs)
            for kind in kinds:
                matrix, zeros = weak_relation(table, kind, inst)
                runner = _Runner(table, kind)
                expected_zeros = 0
                for i, u in enumerate(uvecs):
                    for j, v in enumerate(uvecs):
                        expected = model_margin(kind, inst.collection, u - v)
                        margin = F(runner.margin_num(i, j), runner.relation.unit)
                        assert margin == expected, (kind, i, j)
                        assert bool((matrix[i] >> j) & 1) == (expected >= 0), (kind, i, j)
                        expected_zeros += i != j and expected == 0
                assert zeros == expected_zeros, kind

    def test_dominance_pairs_match_the_fraction_order(self):
        """Integer rows give the statewise order of the Fraction vectors, row-major."""
        inst = generate_instance(3, GenParams(num_states=3))
        battery = generate_act_grid(inst, resolution=1, radius=F(1, 3))
        table = MarginTable(inst, [utility_vector(inst.utility, a) for a in battery])
        entries = [u.entries for u in table.uvecs]
        expected = [
            (i, j)
            for i, ui in enumerate(entries)
            for j, uj in enumerate(entries)
            if i != j and all(a >= b for a, b in zip(ui, uj))
        ]
        assert table.battery.dominance == expected
        assert table.battery.dominance is table.battery.dominance
        assert (1, 0) in expected and (0, 1) not in expected
        prior = eight_kinds(inst)[0]
        report = audit(AxiomKind.MONOTONICITY, SEU(prior), inst, battery, table=table)
        assert report.checked == len(expected)

    def test_table_rejects_foreign_battery(self, disjoint_pair):
        small = generate_act_grid(disjoint_pair, resolution=1)
        big = generate_act_grid(disjoint_pair, resolution=2)
        uvecs = [utility_vector(disjoint_pair.utility, a) for a in small]
        table = MarginTable(disjoint_pair, uvecs)
        with pytest.raises(ValueError):
            audit(AxiomKind.COMPLETENESS, GeneralizedBewley(), disjoint_pair, big,
                  table=table)

    def test_table_rejects_foreign_instance(self, disjoint_pair, touching_intervals):
        battery = generate_act_grid(touching_intervals, resolution=1)
        own = generate_act_grid(disjoint_pair, resolution=1)
        assert len(battery) == len(own)
        table = MarginTable(disjoint_pair, [utility_vector(disjoint_pair.utility, a) for a in own])
        with pytest.raises(ValueError, match="another instance"):
            audit(AxiomKind.INDEPENDENCE, GeneralizedBewley(), touching_intervals, battery,
                  table=table)
        with pytest.raises(ValueError, match="another instance"):
            weak_relation(table, GeneralizedBewley(), touching_intervals)
        assert weak_relation(table, GeneralizedBewley(), disjoint_pair)[0]

    def test_tables_share_a_battery_of_their_state_count(self, disjoint_pair):
        """Two instances' tables over one battery agree with tables over its vectors."""
        three_state = generate_instance(1, GenParams(num_states=3))
        with pytest.raises(ValueError, match="battery on 3 states, instance on 2"):
            MarginTable(disjoint_pair, Battery(3, phi_lattice(3, 1)))
        battery = Battery(2, phi_lattice(2, 1))
        shared = MarginTable(disjoint_pair, battery)
        assert shared.battery is battery and shared.uvecs == battery.uvecs
        for inst in (disjoint_pair, generate_instance(0, GenParams(num_states=2))):
            table = MarginTable(inst, battery)
            own = MarginTable(inst, phi_lattice(2, 1))
            for kind in eight_kinds(inst)[1]:
                assert weak_relation(table, kind, inst) == weak_relation(own, kind, inst)
        assert MarginTable(three_state, Battery(3, [])).n == 0

    @pytest.mark.parametrize("length", [1, 3])
    def test_vectors_of_another_length_are_refused(self, disjoint_pair, length):
        """A 2-state battery refuses, naming the first vector of the wrong length."""
        good = UtilityVector((F(0), F(1)))
        bad = UtilityVector(tuple(F(1, 2) for _ in range(length)))
        message = f"utility vector 1 has {length} entries, not 2"
        with pytest.raises(ValueError, match=message):
            Battery(2, [good, bad, bad])
        with pytest.raises(ValueError, match=message):
            MarginTable(disjoint_pair, [good, bad])
        acts = [act_from_utility_vector(disjoint_pair, good.entries),
                Act(constant_act(disjoint_pair, F(0)).lotteries[:1] * length)]
        for run in (
            lambda: audit(AxiomKind.COMPLETENESS, GeneralizedBewley(), disjoint_pair, acts),
            lambda: audit_suite(GeneralizedBewley(), disjoint_pair, acts),
        ):
            with pytest.raises(ValueError, match=message):
                run()

    def test_a_prior_of_another_dimension_is_refused(self, disjoint_pair, monkeypatch):
        """An SEU prior on 3 or 1 states is refused on a 2-state table before any fold."""
        table = MarginTable(disjoint_pair, phi_lattice(2, 1))
        battery = generate_act_grid(disjoint_pair, resolution=1)
        monkeypatch.setattr(_SetColumns, "__init__", lambda *args: pytest.fail("folded"))
        for probs in ((F(1, 3),) * 3, (F(1),)):
            kind = SEU(Prior(probs))
            message = f"reads beliefs on {len(probs)} states, the battery has 2"
            for run in (
                lambda: audit(AxiomKind.COMPLETENESS, kind, disjoint_pair, table=table),
                lambda: audit_suite(kind, disjoint_pair, battery),
                lambda: weak_relation(table, kind, disjoint_pair),
            ):
                with pytest.raises(ValueError, match=message):
                    run()

    def test_table_alone_stands_for_the_battery(self, disjoint_pair):
        """Given a table, the battery may be left out; with neither, audit raises."""
        battery = generate_act_grid(disjoint_pair, resolution=1)
        uvecs = [utility_vector(disjoint_pair.utility, a) for a in battery]
        table = MarginTable(disjoint_pair, uvecs)
        for kind, axiom in itertools.product(eight_kinds(disjoint_pair)[1], AxiomKind):
            alone = audit(axiom, kind, disjoint_pair, table=table)
            assert alone == audit(axiom, kind, disjoint_pair, battery, table=table), (kind, axiom)
        with pytest.raises(ValueError, match="battery or a margin table"):
            audit(AxiomKind.REFLEXIVITY, GeneralizedBewley(), disjoint_pair)

    def test_table_is_freed_without_the_collector(self, disjoint_pair):
        """A table holds no reference cycle after all axioms under every kind."""
        battery = generate_act_grid(disjoint_pair, resolution=1)
        enabled = gc.isenabled()
        gc.disable()
        try:
            uvecs = [utility_vector(disjoint_pair.utility, a) for a in battery]
            table = MarginTable(disjoint_pair, uvecs)
            for kind, axiom in itertools.product(eight_kinds(disjoint_pair)[1], AxiomKind):
                audit(axiom, kind, disjoint_pair, table=table)
            ref = weakref.ref(table)
            del table
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

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

    def test_the_table_owns_one_relation_per_kind(self, disjoint_pair, monkeypatch):
        """Audits and ``weak_relation`` on one table read one memoized relation.

        Its two rows are those of the margins it holds in the order of the
        battery's distinct differences, read through their positions.
        """
        battery = generate_act_grid(disjoint_pair, resolution=1)
        table = MarginTable(disjoint_pair, [utility_vector(disjoint_pair.utility, a) for a in battery])
        codes, position = table.battery.codes, table.battery.position

        def bit_rows(cells, test):
            return [sum(test(x) << j for j, x in enumerate(row)) for row in cells]

        runners = []
        original = _Runner.__init__

        def spied(self, *args, **kwargs):
            original(self, *args, **kwargs)
            runners.append(self)

        monkeypatch.setattr(_Runner, "__init__", spied)
        for kind in eight_kinds(disjoint_pair)[1]:
            rel = table.relation(kind)
            assert table.relation(kind) is rel, kind
            margins = [[rel.num[position[a - b]] for b in codes] for a in codes]
            transposed = list(zip(*margins))
            assert (rel.weak, rel.weak_t) == (
                bit_rows(margins, (0).__le__), bit_rows(transposed, (0).__le__)), kind
            audit(AxiomKind.COMPLETENESS, kind, disjoint_pair, table=table)
            assert runners.pop().relation is rel, kind
            rows, zeros = weak_relation(table, kind, disjoint_pair)
            assert (rows, zeros) == (rel.weak, rel.zeros), kind
            assert table.relation(kind) is rel, kind

    def test_weak_relation_runs_no_audit(self, disjoint_pair, monkeypatch):
        battery = generate_act_grid(disjoint_pair, resolution=1)
        uvecs = [utility_vector(disjoint_pair.utility, a) for a in battery]
        expected = {
            kind: weak_relation(MarginTable(disjoint_pair, uvecs), kind, disjoint_pair)
            for kind in eight_kinds(disjoint_pair)[1]
        }

        def refuse(*args, **kwargs):
            raise AssertionError("weak_relation built an audit runner")

        monkeypatch.setattr(_Runner, "__init__", refuse)
        table = MarginTable(disjoint_pair, uvecs)
        for kind, relation in expected.items():
            assert weak_relation(table, kind, disjoint_pair) == relation, kind

    def test_seu_margins_need_their_own_prior_column(self, disjoint_pair):
        battery = generate_act_grid(disjoint_pair, resolution=1)
        kind = SEU(Prior((F(1, 3), F(2, 3))))
        report = audit(AxiomKind.COMPLETENESS, kind, disjoint_pair, battery)
        assert report.passed

    def test_shared_table_serves_one_set_and_seu_audits(self, disjoint_pair):
        """Audits on a table built without any prior column match fresh ones."""
        three_state = generate_instance(1, GenParams(num_states=3))
        for inst in (disjoint_pair, three_state):
            n = inst.num_states
            prior = Prior(tuple(F(2 * (k + 1), n * (n + 1)) for k in range(n)))
            last_set = list(inst.collection)[-1].name
            battery = generate_act_grid(inst, resolution=1)
            table = MarginTable(inst, [utility_vector(inst.utility, a) for a in battery])
            weak_relation(table, GeneralizedBewley(), inst)
            for kind in (SEU(prior), Bewley(last_set), Justifiable(last_set)):
                for axiom in AxiomKind:
                    shared = audit(axiom, kind, inst, battery, table=table)
                    assert shared == audit(axiom, kind, inst, battery), (kind, axiom)

    def test_seu_relation_on_a_table_without_its_prior(self, touching_intervals):
        battery = generate_act_grid(touching_intervals)
        uvecs = [utility_vector(touching_intervals.utility, a) for a in battery]
        kind = SEU(Prior((F(1, 3), F(2, 3))))
        rows, zeros = weak_relation(MarginTable(touching_intervals, uvecs), kind, touching_intervals)
        expected_zeros = 0
        for i, u in enumerate(uvecs):
            for j, v in enumerate(uvecs):
                margin = model_margin(kind, touching_intervals.collection, u - v)
                assert bool((rows[i] >> j) & 1) == (margin >= 0), (i, j)
                expected_zeros += i != j and margin == 0
        assert zeros == expected_zeros > 0


def reference_mixing_audits(kind, inst, uvecs, cap=WITNESS_CAP):
    """Favorable mixing and independence from explicit Fraction combinations.

    Every margin is ``model_margin`` of a utility vector built with exact
    scalar weights; returns one summary per audit in the shape of
    ``summarize``.
    """
    n = len(uvecs)

    def margin(phi):
        return model_margin(kind, inst.collection, phi)

    pair = [[margin(u - v) for v in uvecs] for u in uvecs]

    fav = {"checked": 0, "witnesses": [], "total": 0,
           "flags": sum(i != j and pair[i][j] == 0 for i in range(n) for j in range(n))}
    for g in range(n):
        for f in range(n):
            if f == g or pair[g][f] < 0 or pair[f][g] >= 0:
                continue
            for h in range(n):
                fav["checked"] += 1
                mixed = [
                    margin(uvecs[f].scale(a) + uvecs[h].scale(1 - a) - uvecs[g])
                    for a in MIX_GRID
                ]
                fav["flags"] += mixed.count(0)
                bad = [(hi, lo) for hi in range(3) for lo in range(hi)
                       if mixed[hi] >= 0 and mixed[lo] < 0]
                if bad:
                    hi, lo = min(bad)
                    fav["total"] += 1
                    fav["witnesses"].append(((f, g, h), (mixed[hi], mixed[lo])))

    ind = {"checked": 0, "witnesses": [], "total": 0, "flags": 0}
    for i in range(n):
        for j in range(i + 1, n):
            ind["flags"] += pair[i][j] == 0
            for a in MIX_GRID:
                ind["checked"] += 1
                scaled = margin(uvecs[i].scale(a) - uvecs[j].scale(a))
                ind["flags"] += scaled == 0
                if scaled != a * pair[i][j]:
                    ind["total"] += 1
                    ind["witnesses"].append(((i, j), (pair[i][j], scaled)))

    for out in (fav, ind):
        out["passed"] = out["total"] == 0
        out["witnesses"] = out["witnesses"][:cap]
    return fav, ind


def pairwise_independence(table, kind, cap):
    """Independence by a walk of every pair i < j, weights inner, in the shape of ``summarize``.

    Each pair reads its own margin from the table's relation and, at each
    weight k / s, the model's ``combine`` of k times its columns' maxmin
    and minmax at the position of its code, each zero read counting once.
    """
    rel, codes, position = table.relation(kind), table.battery.codes, table.battery.position
    cols = table.columns(kind)
    ks = [int(a * _MIX_SCALE) for a in MIX_GRID]
    folded = [[kind.combine(k * a, k * b) for a, b in zip(cols.maxmin, cols.minmax)] for k in ks]
    unit = rel.unit * _MIX_SCALE
    out = {"total": 0, "checked": 0, "flags": 0, "witnesses": []}
    for i, j in itertools.combinations(range(table.n), 2):
        r = position[codes[i] - codes[j]]
        base = rel.num[r]
        out["flags"] += base == 0
        for k, nums in zip(ks, folded):
            num = nums[r]
            out["checked"] += 1
            out["flags"] += num == 0
            if num != k * base:
                out["total"] += 1
                if len(out["witnesses"]) < cap:
                    out["witnesses"].append(((i, j), (F(base * _MIX_SCALE, unit), F(num, unit))))
    return {"passed": not out["total"], **out}


def spy_boxes(monkeypatch) -> list[int]:
    """Patch ``_SetColumns.box`` to record the length of the box at each read.

    A read is one call: the first call on a set of columns folds the box,
    and later ones return the kept box.
    """
    box = _SetColumns.box
    boxes = []

    def counted(self):
        out = box(self)
        boxes.append(len(out))
        return out

    monkeypatch.setattr(_SetColumns, "box", counted)
    return boxes


def mixing_tally(table, kind, cap, signs):
    """A favorable-mixing audit's counts and witnesses through one branch's ``signs``."""
    r = _Runner(table, kind, cap)
    _favorable_mixing(r, signs)
    return r.total, r.checked, r.zero_flags, r.witnesses


class CountedReads(list):
    """A list that counts its ``[]`` reads; iterating it reads none."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def summarize(report):
    return {
        "passed": report.passed,
        "total": report.total_violations,
        "checked": report.checked,
        "flags": report.boundary_flags,
        "witnesses": [(w.indices, w.margins) for w in report.witnesses],
    }


class TestMixingAudits:
    """The integer row folds against explicit Fraction combinations."""

    def test_reports_match_fraction_reference(self, monkeypatch):
        """All eight kinds on a 2-state and a 3-state instance.

        Every other lattice act keeps the Fraction reference quick; on the
        3-state instance four kinds fail favorable mixing.
        """
        failing = 0
        boxes = spy_boxes(monkeypatch)
        # The 13-act battery folds its whole mixing box, the 14-act one each distinct d.
        for seed, states, box in ((0, 2, True), (3, 3, False)):
            inst = generate_instance(seed, GenParams(num_states=states))
            battery = generate_act_grid(inst, resolution=4 - states)[::2]
            uvecs = [utility_vector(inst.utility, a) for a in battery]
            for kind in eight_kinds(inst)[1]:
                boxes.clear()
                fav, ind = audit_suite(
                    kind, inst, battery,
                    axioms=[AxiomKind.FAVORABLE_MIXING, AxiomKind.INDEPENDENCE],
                )
                assert len(boxes) == box, kind
                expected_fav, expected_ind = reference_mixing_audits(kind, inst, uvecs)
                assert summarize(fav) == expected_fav, kind
                assert summarize(ind) == expected_ind, kind
                failing += not fav.passed
        assert failing == 4  # the witness comparison is not vacuous

    def test_full_two_state_lattice_matches_fraction_reference(self, monkeypatch):
        """The whole 9-act lattice, whose favorable mixing reads the mixing box."""
        boxes = spy_boxes(monkeypatch)
        inst = generate_instance(0, GenParams(num_states=2))
        battery = generate_act_grid(inst, resolution=1)
        uvecs = [utility_vector(inst.utility, a) for a in battery]
        table = MarginTable(inst, uvecs)
        for kind in eight_kinds(inst)[1]:
            fav, ind = (audit(axiom, kind, inst, table=table)
                        for axiom in (AxiomKind.FAVORABLE_MIXING, AxiomKind.INDEPENDENCE))
            expected_fav, expected_ind = reference_mixing_audits(kind, inst, uvecs)
            assert summarize(fav) == expected_fav, kind
            assert summarize(ind) == expected_ind, kind
        assert len(boxes) == 8

    def test_irregular_batteries_match_fraction_reference(self):
        """Non-lattice acts over denominators 1, 3, 7, 12 and 35, all eight kinds.

        Favorable mixing folds each distinct difference vector once, keyed by
        an integer code of the vector; on these batteries no lattice symmetry
        makes distinct vectors rare, so a code collision would show.  Each
        strictly ordered pair (f, g) is checked against every h.
        """
        rng = random.Random(0)
        dens = (1, 3, 7, 12, 35)
        failing = 0
        for states in (2, 3):
            inst = generate_instance(states, GenParams(num_states=states))
            for size in (0, 1, 2, 5, 9, 14):
                uvecs = [
                    UtilityVector(tuple(
                        F(rng.randint(-den, den), den)
                        for den in (rng.choice(dens) for _ in range(states))
                    ))
                    for _ in range(size)
                ]
                battery = [act_from_utility_vector(inst, u.entries) for u in uvecs]
                table = MarginTable(inst, uvecs)
                for kind in eight_kinds(inst)[1]:
                    fav, ind = (
                        audit(axiom, kind, inst, battery, table=table)
                        for axiom in (AxiomKind.FAVORABLE_MIXING, AxiomKind.INDEPENDENCE)
                    )
                    expected_fav, expected_ind = reference_mixing_audits(kind, inst, uvecs)
                    assert summarize(fav) == expected_fav, (states, size, kind)
                    assert summarize(ind) == expected_ind, (states, size, kind)
                    w, _ = weak_relation(table, kind, inst)
                    strict = sum(
                        (w[g] >> f) & 1 and not (w[f] >> g) & 1
                        for f in range(size) for g in range(size)
                    )
                    assert fav.checked == size * strict, (states, size, kind)
                    failing += not fav.passed
        assert failing == 8  # the witness comparison is not vacuous

    @pytest.mark.parametrize("size", [0, 1])
    def test_favorable_mixing_without_a_strict_pair(self, disjoint_pair, size):
        """An empty or one-act battery passes with nothing checked."""
        battery = [constant_act(disjoint_pair, F(0))] * size
        for kind in eight_kinds(disjoint_pair)[1]:
            report = audit(AxiomKind.FAVORABLE_MIXING, kind, disjoint_pair, battery)
            assert report.passed, kind
            assert (report.checked, report.total_violations, report.boundary_flags) == (0, 0, 0)

    def test_independence_checks_each_pair_at_each_weight(self, monkeypatch):
        """3 * n(n-1)/2 checks per audit, and every witness is a pair of acts.

        The eight kinds pass.  ``Lifted()``, maxmin + 1, is not homogeneous
        and fails every check at weights 1/2 and 3/4, so the witnesses are
        tested on a full cap: pairs in (i, j) order, weights inner, their
        margins over s times the relation's unit.
        """
        inst = generate_instance(3, GenParams(num_states=3))
        battery = generate_act_grid(inst, resolution=1)
        table = MarginTable(inst, [utility_vector(inst.utility, a) for a in battery])
        n = len(battery)
        expected = len(MIX_GRID) * n * (n - 1) // 2
        for kind in eight_kinds(inst)[1]:
            report = audit(AxiomKind.INDEPENDENCE, kind, inst, battery, table=table)
            assert report.passed and report.checked == expected, kind
        kind = Lifted()
        rel = table.relation(kind)
        monkeypatch.setattr(rel, "num", CountedReads(rel.num))
        report = audit(AxiomKind.INDEPENDENCE, kind, inst, battery, table=table)
        # The margins are read once, in the order of the battery's distinct
        # differences, and the kept witnesses' come from that read: no pair
        # looks one up.
        assert rel.num.reads == 0
        pairs = list(itertools.combinations(range(n), 2))
        assert report.checked == expected and report.total_violations == 2 * len(pairs)
        maxmin, codes, position = rel.cols.maxmin, table.battery.codes, table.battery.position
        s = _MIX_SCALE
        unit = rel.unit * s
        assert report.witnesses == tuple(
            Witness((i, j), (F(s * (m + 1), unit), F(k * m + 1, unit)),
                    f"margin not homogeneous at {a}")
            for i, j in pairs[:WITNESS_CAP]
            for m in [maxmin[position[codes[i] - codes[j]]]]
            for a, k in zip(MIX_GRID[1:], (2, 3))
        )[:WITNESS_CAP]

    @pytest.mark.parametrize("kind", [GeneralizedBewley(), HalfMixture(), Bewley("low")])
    def test_independence_sees_a_perturbed_fold(self, disjoint_pair, monkeypatch, kind):
        """The heavier weights' margins are combined from the fold, not derived from the relation.

        Raising the kept maxmin at the code of u_0 - u_1, after the relation
        is built, fails exactly the pairs i < j with that difference, at
        weights 1/2 and 3/4, in row-major order.
        """
        battery = generate_act_grid(disjoint_pair, resolution=1)
        uvecs = [utility_vector(disjoint_pair.utility, a) for a in battery]
        table = MarginTable(disjoint_pair, uvecs)
        assert audit(AxiomKind.INDEPENDENCE, kind, disjoint_pair, table=table).passed
        codes = table.battery.codes
        target = codes[0] - codes[1]
        at = table.battery.position[target]
        cols = table.columns(kind)
        monkeypatch.setattr(cols, "maxmin", [x + (r == at) for r, x in enumerate(cols.maxmin)])
        report = audit(AxiomKind.INDEPENDENCE, kind, disjoint_pair, table=table)
        expected = [
            (i, j)
            for i, j in itertools.combinations(range(table.n), 2)
            if codes[i] - codes[j] == target
        ]
        assert len(expected) == 6
        assert not report.passed
        assert report.total_violations == 2 * len(expected)
        assert [w.indices for w in report.witnesses] == [p for p in expected for _ in "12"]

    def test_independence_folds_nothing_once_the_relation_exists(self, disjoint_pair, monkeypatch):
        """With the model's relation built, an independence audit runs no fold.

        Neither the lattice's grid fold (``_grid_maxmin``) nor an irregular
        battery's gather (``_maxmin``) runs: every weight reads k times the
        one fold of the distinct differences, for the eight kinds, which
        pass, and for a non-homogeneous one, which fails.
        """
        lattice = [utility_vector(disjoint_pair.utility, a)
                   for a in generate_act_grid(disjoint_pair, resolution=2)]
        irregular = list(irregular_batteries(random.Random(0), 2))[3]
        kinds = [*eight_kinds(disjoint_pair)[1], Lifted()]
        for uvecs in (lattice, irregular):
            table = MarginTable(disjoint_pair, uvecs)
            for kind in kinds:
                table.relation(kind)
            with monkeypatch.context() as m:
                for name in ("_maxmin", "_grid_maxmin"):
                    m.setattr(axioms_module, name, lambda *args: pytest.fail("folded"))
                for kind in kinds:
                    report = audit(AxiomKind.INDEPENDENCE, kind, disjoint_pair, table=table)
                    assert report.passed is not isinstance(kind, Lifted), (len(uvecs), kind)

    @pytest.mark.parametrize("cap", [2, 3, WITNESS_CAP])
    def test_independence_counts_per_difference_as_pair_by_pair(self, cap):
        """Non-homogeneous kinds give the counts, witnesses and flags of a pair walk.

        ``Lifted()`` fails at weights 1/2 and 3/4 everywhere, so at cap 3
        the cap falls between the two weights of one pair.  ``Lifted(-2 *
        m, 0)``, m the least positive maxmin, fails there exactly the d with
        positive maxmin, and its margin of 2 * d is zero where d's maxmin is
        m, though its margin of d is not.  On the 125-act lattice and on two
        irregular batteries, with duplicate acts, each report matches a walk
        of every pair i < j with the weights inner, reading k times the same
        fold; the eight kinds pass on the same walk.
        """
        inst = generate_instance(3, GenParams(num_states=3))
        lattice = [utility_vector(inst.utility, a) for a in generate_act_grid(inst, resolution=2)]
        batteries = [lattice, *list(irregular_batteries(random.Random(0), 3))[2:4]]
        for uvecs in batteries:
            table = MarginTable(inst, uvecs)
            least = min(x for x in table.columns(GeneralizedBewley()).maxmin if x > 0)
            lifted = [Lifted(), Lifted(-2 * least, 0)]
            for kind in [*eight_kinds(inst)[1], *lifted]:
                report = audit(AxiomKind.INDEPENDENCE, kind, inst, table=table, witness_cap=cap)
                assert summarize(report) == pairwise_independence(table, kind, cap), kind
                assert report.passed is (kind not in lifted), (len(uvecs), kind)
                assert kind not in lifted or report.total_violations > cap, (len(uvecs), kind)

    def test_audit_suite_folds_each_selection_of_sets_once(self, monkeypatch):
        """Eight kinds over one battery fold the distinct differences once per selection of sets.

        The five kinds over the whole collection share one selection,
        Bewley and Justifiable on the first set another, SEU its prior a
        third.  The spy counts the folds run while a selection's columns
        are built, whether a fold gathers columns (``_maxmin``) or builds
        the lattice's digit grid (``_grid_maxmin``, which the mixing box's
        fold also runs, later).
        """
        monkeypatch.setattr(axioms_module, "_last_table", None)
        inst = generate_instance(3, GenParams(num_states=3))
        battery = generate_act_grid(inst, resolution=1)
        init = _SetColumns.__init__
        building, folds = [], []

        def spied_init(self, *args):
            building.append(self)
            try:
                init(self, *args)
            finally:
                building.pop()

        def counted(fold):
            def spied(*args):
                if building:
                    folds.append(building[-1])
                return fold(*args)
            return spied

        monkeypatch.setattr(_SetColumns, "__init__", spied_init)
        for name in ("_maxmin", "_grid_maxmin"):
            monkeypatch.setattr(axioms_module, name, counted(getattr(axioms_module, name)))
        for kind in eight_kinds(inst)[1]:
            reports = audit_suite(kind, inst, battery)
            assert [r.axiom for r in reports] == list(AxiomKind)
        assert len(folds) == len(set(folds)) == 3

    def test_favorable_mixing_folds_each_distinct_vector_once(self, monkeypatch):
        """One fold, with one column entry per distinct k * u_f - s * u_g + (s - k) * u_h.

        On an irregular battery, whose mixing box is far larger than n ** 3.
        The codes are computed here from the relation's strict pairs; they
        repeat across (k, f, g, h), so folding every read would show.
        """
        inst = generate_instance(3, GenParams(num_states=3))
        uvecs = list(irregular_batteries(random.Random(0), 3))[3]
        table = MarginTable(inst, uvecs)
        codes, n, s = table.battery.codes, table.n, _MIX_SCALE
        assert table.battery.radix ** 3 > n ** 3
        boxes = spy_boxes(monkeypatch)
        fold = _SetColumns.fold
        calls = []

        def counted(self, cols):
            assert len({len(col) for col in cols}) == 1
            calls.append(len(cols[0]))
            return fold(self, cols)

        monkeypatch.setattr(_SetColumns, "fold", counted)
        for kind in eight_kinds(inst)[1]:
            w, _ = weak_relation(table, kind, inst)
            strict = [(f, g) for f in range(n) for g in range(n)
                      if (w[g] >> f) & 1 and not (w[f] >> g) & 1]
            ks = [int(a * s) for a in MIX_GRID]
            expected = {k * codes[f] - s * codes[g] + (s - k) * codes[h]
                        for f, g in strict for k in ks for h in range(n)}
            assert len(expected) < len(ks) * len(strict) * n, kind
            calls.clear()
            audit(AxiomKind.FAVORABLE_MIXING, kind, inst, table=table)
            assert calls == [len(expected)], kind
        assert boxes == []

    def test_favorable_mixing_on_a_lattice_folds_its_whole_box_once(self, monkeypatch):
        """One box of ``radix ** num_states`` entries per audit, and no fold of distinct d."""
        inst = generate_instance(3, GenParams(num_states=3))
        uvecs = [utility_vector(inst.utility, a) for a in generate_act_grid(inst, resolution=1)]
        table = MarginTable(inst, uvecs)
        size = table.battery.radix ** 3
        assert size <= table.n ** 3
        boxes = spy_boxes(monkeypatch)
        monkeypatch.setattr(_SetColumns, "fold", lambda *args: pytest.fail("folded distinct d"))
        for kind in eight_kinds(inst)[1]:
            boxes.clear()
            report = audit(AxiomKind.FAVORABLE_MIXING, kind, inst, table=table)
            assert report.checked and boxes == [size], kind

    def test_a_box_over_the_limit_is_refused_before_its_fold(self, tilted_instance, monkeypatch):
        """The 6-state resolution-1 lattice: 729 acts and a box of 17 ** 6 entries.

        Favorable mixing raises before any box fold, and the other eleven
        axioms still audit the lattice.
        """
        inst = tilted_instance(6)
        table = MarginTable(inst, phi_lattice(6, 1, F(1)))
        assert (table.n, table.battery.radix ** 6) == (729, 17 ** 6)
        boxes = spy_boxes(monkeypatch)
        with pytest.raises(ValueError, match=f"box of {17 ** 6} entries is over "
                                             f"MAX_MIXING_BOX = {MAX_MIXING_BOX}"):
            audit(AxiomKind.FAVORABLE_MIXING, GeneralizedBewley(), inst, table=table)
        assert boxes == []
        others = [a for a in AxiomKind if a is not AxiomKind.FAVORABLE_MIXING]
        reports = [audit(a, GeneralizedBewley(), inst, table=table) for a in others]
        assert len(reports) == 11 and all(r.checked for r in reports)
        assert boxes == []

    def test_the_largest_admitted_box_reaches_its_fold(self, tilted_instance, monkeypatch):
        """The 5-state resolution-1 lattice's box, of exactly ``MAX_MIXING_BOX`` entries,
        is read through ``_box_signs``, stubbed here to spare its 1.4 million-entry fold."""
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        inst = tilted_instance(5)
        table = MarginTable(inst, phi_lattice(5, 1, F(1)))
        assert table.battery.radix ** 5 == MAX_MIXING_BOX == 17 ** 5
        monkeypatch.setattr(axioms_module, "_box_signs", reached)
        with pytest.raises(Reached):
            audit(AxiomKind.FAVORABLE_MIXING, GeneralizedBewley(), inst, table=table)

    def test_every_other_act_of_a_lattice_keeps_the_box_at_resolution_2(self, monkeypatch):
        """Thinned to every other act, the 25-, 125- and 625-act lattices still fit
        their box in n ** 3 entries; the 9-, 27- and 81-act ones take the distinct
        branch.  The branch is read from the ``signs`` passed to a stubbed fold."""
        chosen = []
        monkeypatch.setattr(axioms_module, "_favorable_mixing",
                            lambda r, signs: chosen.append((r.table.n, signs.__name__)))
        for states in (2, 3, 4):
            inst = generate_instance(1, GenParams(num_states=states))
            for resolution in (1, 2):
                table = MarginTable(inst, phi_lattice(states, resolution, F(1))[::2])
                audit(AxiomKind.FAVORABLE_MIXING, GeneralizedBewley(), inst, table=table)
        assert chosen == [(5, "_distinct_signs"), (13, "_box_signs"), (14, "_distinct_signs"),
                          (63, "_box_signs"), (41, "_distinct_signs"), (313, "_box_signs")]

    def test_triples_over_the_limit_are_refused_before_any_fold(self, monkeypatch):
        """80 random 3-state acts over 641: 662,400 (weight, strict pair, act) triples.

        Off the box, favorable mixing raises, naming both numbers, before it
        folds any mixed vector; the battery's other audits still run.
        """
        rng = random.Random(0)
        inst = generate_instance(1, GenParams(num_states=3))
        uvecs = [UtilityVector(tuple(F(rng.randint(-641, 641), 641) for _ in range(3)))
                 for _ in range(80)]
        table = MarginTable(inst, uvecs)
        assert table.battery.radix ** 3 > table.n ** 3
        rel = table.relation(GeneralizedBewley())
        strict = sum((w & ~wt).bit_count() for w, wt in zip(rel.weak, rel.weak_t))
        assert len(MIX_GRID) * table.n * strict == 662_400 > MAX_MIXING_TRIPLES
        monkeypatch.setattr(_SetColumns, "fold", lambda *args: pytest.fail("folded mixed vectors"))
        with pytest.raises(ValueError, match=f"favorable_mixing's 662400 .* triples off the mixing "
                                             f"box are over MAX_MIXING_TRIPLES = {MAX_MIXING_TRIPLES}"):
            audit(AxiomKind.FAVORABLE_MIXING, GeneralizedBewley(), inst, table=table)
        assert not audit(AxiomKind.INDEPENDENCE, Lifted(), inst, table=table).passed

    def test_the_largest_admitted_triple_count_reaches_its_fold(self, monkeypatch):
        """An irregular battery at exactly ``MAX_MIXING_TRIPLES`` triples is folded once,
        through ``_distinct_signs``; one triple over the limit, it is refused."""
        inst = generate_instance(3, GenParams(num_states=3))
        table = MarginTable(inst, list(irregular_batteries(random.Random(0), 3))[3])
        rel = table.relation(GeneralizedBewley())
        strict = sum((w & ~wt).bit_count() for w, wt in zip(rel.weak, rel.weak_t))
        triples = len(MIX_GRID) * table.n * strict
        fold, folds = _SetColumns.fold, []
        monkeypatch.setattr(_SetColumns, "fold", lambda self, cols: folds.append(1) or fold(self, cols))
        monkeypatch.setattr(axioms_module, "MAX_MIXING_TRIPLES", triples)
        report = audit(AxiomKind.FAVORABLE_MIXING, GeneralizedBewley(), inst, table=table)
        assert report.checked == table.n * strict > 0 and folds == [1]
        monkeypatch.setattr(axioms_module, "MAX_MIXING_TRIPLES", triples - 1)
        with pytest.raises(ValueError, match=f"{triples} .* over MAX_MIXING_TRIPLES = {triples - 1}"):
            audit(AxiomKind.FAVORABLE_MIXING, GeneralizedBewley(), inst, table=table)
        assert folds == [1]

    def test_the_box_is_counted_in_steps_at_every_radius(self, monkeypatch):
        """At radii 1, 3/2 and 5 the 125-act lattice folds one box of 33 ** 3 entries.

        On seed 1's 3-state instance with utilities -5 and 5, the lattice's
        scaled entries share the step 1, 3 or 5.  Its relation does not
        depend on the radius, so neither do the audit's counts.
        """
        inst = generate_instance(1, GenParams(num_states=3))
        inst = replace(inst, utility=replace(
            inst.utility, values={z: 5 * u for z, u in inst.utility.values.items()}))
        boxes = spy_boxes(monkeypatch)
        counts = []
        for radius, step in ((F(1), 1), (F(3, 2), 3), (F(5), 5)):
            uvecs = [utility_vector(inst.utility, a) for a in generate_act_grid(inst, 2, radius)]
            table = MarginTable(inst, uvecs)
            assert (table.n, table.battery.step) == (125, step)
            boxes.clear()
            report = audit(AxiomKind.FAVORABLE_MIXING, GeneralizedBewley(), inst, table=table)
            assert boxes == [35_937], radius
            counts.append((report.checked, report.total_violations, report.boundary_flags))
        assert counts[0] == counts[1] == counts[2] and counts[0][1], counts

    def test_equal_mixing_codes_come_from_equal_vectors(self):
        """Every act triple and weight on each irregular battery, 2 and 3 states, scaled.

        ``_distinct_signs`` folds each code of k * u_f + (s - k) * u_h - s * u_g
        from one triple that makes it, so all triples with that code must
        make the same vector.  A radius-3/2 lattice on each state count, of
        step 3, is dense enough that a too small radix would collide.
        """
        rng, s = random.Random(0), _MIX_SCALE
        ks = [int(a * s) for a in MIX_GRID]
        for states, resolution in ((2, 2), (3, 1)):
            lattice = phi_lattice(states, resolution, F(3, 2))
            for uvecs in [*irregular_batteries(rng, states), lattice]:
                battery = Battery(states, uvecs)
                den = math.lcm(*(e.denominator for u in uvecs for e in u.entries))
                codes, rows = battery.codes, [[int(e * den) for e in u.entries] for u in uvecs]
                made, acts = {}, range(battery.n)
                for k, f, g, h in itertools.product(ks, acts, acts, acts):
                    vector = tuple(k * a + (s - k) * c - s * b
                                   for a, b, c in zip(rows[f], rows[g], rows[h]))
                    code = k * codes[f] + (s - k) * codes[h] - s * codes[g]
                    assert made.setdefault(code, vector) == vector, (states, k, f, g, h)
                assert len(set(made.values())) == len(made)

    def test_the_box_is_folded_once_per_selection_of_sets(self, monkeypatch):
        """Eight kinds' favorable mixing on ``audit_box(1)`` reads the box 8 times, folds it 3.

        The folds are of all sets (GB, Disjunctive, Conjunctive and both
        mixtures), of P1 (Bewley and Justifiable) and of the SEU prior.  A
        fold makes a new list, and a later read returns the kept one.
        """
        monkeypatch.setattr(axioms_module, "_last_table", None)
        box = _SetColumns.box
        reads = []
        monkeypatch.setattr(_SetColumns, "box", lambda self: reads.append(box(self)) or reads[-1])
        inst, battery, desc = audit_box(1)
        for kind in eight_kinds(inst)[1]:
            audit_suite(kind, inst, battery, axioms=[AxiomKind.FAVORABLE_MIXING])
        assert len(reads) == 8
        assert len({id(b) for b in reads}) == 3

    def test_box_holds_the_maxmin_of_each_vector_at_its_index(self, overlapping_intervals):
        """Entry sum_j (d_j + half) * radix ** j is the maxmin of d, for every d of the box."""
        inst = overlapping_intervals
        uvecs = [utility_vector(inst.utility, a) for a in generate_act_grid(inst, resolution=1)]
        table = MarginTable(inst, uvecs)
        cols = table.columns(GeneralizedBewley())
        half, radix = table.battery.half, table.battery.radix
        _, rows = inst.collection.integer_view
        box = cols.box()
        assert len(box) == radix ** inst.num_states
        for index, value in enumerate(box):
            d = [index // radix ** j % radix - half for j in range(inst.num_states)]
            assert value == max(min(sum(map(int.__mul__, v, d)) for v in verts)
                                for verts in rows), d

    def test_box_and_distinct_branches_agree(self):
        """Both favorable-mixing branches give equal reports on the same tables.

        Eight kinds and a reversed one, at witness caps 0, 1 and 25, on the
        2-state lattices at resolutions 1 and 2, the 3-state one at
        resolution 1, and every third act of the 3-state resolution-2
        lattice on radius 1/2 (its 125 acts would take seconds per cap).
        """
        failing = 0
        for seed, states, resolution, radius, step in (
            (0, 2, 1, F(1), 1), (0, 2, 2, F(1), 1), (3, 3, 1, F(1), 1), (3, 3, 2, F(1, 2), 3),
        ):
            inst = generate_instance(seed, GenParams(num_states=states))
            battery = generate_act_grid(inst, resolution, radius)[::step]
            table = MarginTable(inst, [utility_vector(inst.utility, a) for a in battery])
            for kind in [*eight_kinds(inst)[1], Reversed()]:
                for cap in (0, 1, WITNESS_CAP):
                    box, distinct = (mixing_tally(table, kind, cap, signs)
                                     for signs in (_box_signs, _distinct_signs))
                    assert box == distinct, (seed, states, resolution, kind, cap)
                    failing += box[0] > 0
        assert failing


    def test_favorable_mixing_keeps_no_witness_past_the_cap(self, monkeypatch):
        """With ``witness_cap=1``, only the kept violation reaches ``_Runner.fail``."""
        inst = generate_instance(3, GenParams(num_states=3))
        uvecs = [utility_vector(inst.utility, a) for a in generate_act_grid(inst, resolution=1)]
        table = MarginTable(inst, uvecs)
        calls = []
        fail = _Runner.fail

        def spied(self, *args):
            calls.append(args)
            return fail(self, *args)

        monkeypatch.setattr(_Runner, "fail", spied)
        over_cap = 0
        for kind in eight_kinds(inst)[1]:
            calls.clear()
            report = audit(AxiomKind.FAVORABLE_MIXING, kind, inst, table=table, witness_cap=1)
            assert len(calls) == len(report.witnesses) == min(report.total_violations, 1), kind
            over_cap += report.total_violations >= 2
        assert over_cap

    @pytest.mark.parametrize("axiom", [AxiomKind.COMPLETENESS, AxiomKind.NEGATIVE_COMPLETENESS])
    def test_pair_walks_read_no_pair_past_the_cap(self, axiom, monkeypatch):
        """With ``witness_cap=1``, the walk stops inside the first failing row.

        Each kept witness reads its pair's two margins, and the pairs left
        in that row are counted without a read.
        """
        inst = generate_instance(3, GenParams(num_states=3))
        uvecs = [utility_vector(inst.utility, a) for a in generate_act_grid(inst, resolution=1)]
        table = MarginTable(inst, uvecs)
        over_cap = 0
        for kind in eight_kinds(inst)[1]:
            rel = table.relation(kind)
            monkeypatch.setattr(rel, "num", CountedReads(rel.num))
            report = audit(axiom, kind, inst, table=table, witness_cap=1)
            assert rel.num.reads == 2 * len(report.witnesses), kind
            over_cap += report.total_violations >= 2
        assert over_cap

    def test_an_uncapped_pair_walk_stops_at_its_last_violation(self, monkeypatch):
        """At cap 10**6, completeness gathers the reader rows up to the last row with
        a violation, and none after it: 120 of the 125 rows of seed 1's lattice,
        under GeneralizedBewley and under Conjunctive."""
        inst = generate_instance(1, GenParams(num_states=3))
        uvecs = [utility_vector(inst.utility, a) for a in generate_act_grid(inst, resolution=2)]
        table = MarginTable(inst, uvecs)
        battery, gathered = table.battery, []

        def counted(i, read):
            return lambda hits: gathered.append(i) or read(hits)

        readers = list(itertools.starmap(counted, enumerate(battery.readers)))
        monkeypatch.setattr(battery, "readers", readers)
        for kind in (GeneralizedBewley(), Conjunctive()):
            gathered.clear()
            report = audit(AxiomKind.COMPLETENESS, kind, inst, table=table, witness_cap=10**6)
            assert len(report.witnesses) == report.total_violations > 0, kind
            last = max(w.indices[0] for w in report.witnesses)
            assert gathered == list(range(last + 1)) and last + 1 == 120 < table.n, kind


PAIRWISE_AXIOMS = (
    AxiomKind.COMPLETENESS,
    AxiomKind.NEGATIVE_COMPLETENESS,
    AxiomKind.CONSTANT_BOUND_TRANSITIVITY,
    AxiomKind.NEGATIVE_CONSTANT_BOUND_TRANSITIVITY,
    AxiomKind.UNAMBIGUOUS_TRANSITIVITY,
)


def reference_pairwise_audit(axiom, kind, inst, uvecs):
    """One of ``PAIRWISE_AXIOMS`` by a per-pair loop over Fraction margins.

    Returns the uncapped report in the shape of ``summarize`` plus the
    notes, or None when the axiom needs constants and the battery has none.
    Boundary flags follow the audits' rule: each ordered pair counts once
    when its margin is zero and is read one at a time or, when the axiom
    reads the weak relation, lies off the diagonal.
    """
    n = len(uvecs)
    m = [[model_margin(kind, inst.collection, u - v) for v in uvecs] for u in uvecs]
    weak = [[x >= 0 for x in row] for row in m]
    zero_reads = set()

    def read(i, j):
        if m[i][j] == 0:
            zero_reads.add((i, j))
        return m[i][j]

    checked, witnesses = 0, []
    consts = [(i, u.entries[0]) for i, u in enumerate(uvecs) if u.is_constant()]
    if axiom is AxiomKind.COMPLETENESS:
        for i in range(n):
            for j in range(i + 1, n):
                checked += 1
                if not weak[i][j] and not weak[j][i]:
                    witnesses.append(((i, j), (read(i, j), read(j, i)), "incomparable pair"))
    elif axiom is AxiomKind.NEGATIVE_COMPLETENESS:
        for i in range(n):
            for j in range(i + 1, n):
                checked += 1
                if read(i, j) > 0 and read(j, i) > 0:
                    witnesses.append(
                        ((i, j), (m[i][j], m[j][i]), "both directions robustly preferred")
                    )
    elif axiom is AxiomKind.UNAMBIGUOUS_TRANSITIVITY:
        dom = [(i, j) for i in range(n) for j in range(n)
               if i != j and all(a >= b for a, b in zip(uvecs[i].entries, uvecs[j].entries))]
        for f, g in dom:
            for h in range(n):
                checked += 1
                if weak[g][h] and not weak[f][h]:
                    witnesses.append(((f, g, h), (read(g, h), read(f, h)),
                                      "dominance then weak preference fails to chain"))
        for g, h in dom:
            for f in range(n):
                checked += 1
                if weak[f][g] and not weak[f][h]:
                    witnesses.append(((f, g, h), (read(f, g), read(f, h)),
                                      "weak preference then dominance fails to chain"))
    else:
        if not consts:
            return None
        cbt = axiom is AxiomKind.CONSTANT_BOUND_TRANSITIVITY
        for a, va in consts:
            for b, vb in consts:
                if (va >= vb) if cbt else (va < vb):
                    continue
                for f in range(n):
                    checked += 1
                    if weak[a][f] == weak[f][b] == cbt:
                        note = (f"act sandwiched between constants {va} < {vb}" if cbt else
                                f"non-preference fails to chain across constants {va} >= {vb}")
                        witnesses.append(
                            ((a, f, b), (read(a, f), read(f, b), read(a, b)), note)
                        )
    if axiom is not AxiomKind.NEGATIVE_COMPLETENESS:  # it reads no relation
        zero_reads |= {(i, j) for i in range(n) for j in range(n) if i != j and m[i][j] == 0}
    return {
        "passed": not witnesses,
        "total": len(witnesses),
        "checked": checked,
        "flags": len(zero_reads),
        "witnesses": witnesses,
    }


def irregular_batteries(rng, states):
    """Non-lattice batteries with duplicate acts, tied and repeated constants.

    Entries lie over denominators 1, 3, 7, 12 and 35.  Sizes run from one
    act up; the last battery has no constant act.
    """
    dens = (1, 3, 7, 12, 35)

    def entry():
        den = rng.choice(dens)
        return F(rng.randint(-den, den), den)

    def vector():
        return UtilityVector(tuple(entry() for _ in range(states)))

    def constant(value):
        return UtilityVector((value,) * states)

    yield [constant(F(0))]
    for size in (4, 9, 15):
        acts = [vector() for _ in range(size)]
        acts += [constant(entry()) for _ in range(3)]
        acts += [rng.choice(acts) for _ in range(size // 3)]  # duplicates and tied constants
        rng.shuffle(acts)
        yield acts
    yield [u for u in (vector() for _ in range(12)) if not u.is_constant()]


@dataclass(frozen=True)
class Reversed(_Kind):
    """The generalized Bewley preference turned around: f over g when g over f.

    No model kind breaks monotonicity, so none fails unambiguous
    transitivity; this rule does, and so exercises that audit's witnesses.
    """

    tag = "reversed-generalized-bewley"
    combine = staticmethod(lambda maxmin, minmax: -minmax)


@dataclass(frozen=True)
class Lifted(_Kind):
    """The generalized Bewley numerator plus ``lift`` where maxmin exceeds ``above``.

    Not integer-homogeneous, so no model kind, and independence fails: at
    weights 1/2 and 3/4 its margin of k * d is k * maxmin(d) + lift, not k
    times its margin of d, at every d whose maxmin exceeds ``above``; by
    default, at every d.
    """

    lift: int = 1
    above: float = -math.inf
    tag = "lifted-generalized-bewley"

    def combine(self, maxmin, minmax):
        return maxmin + self.lift * (maxmin > self.above)


class TestSignLine:
    """A kind's sign line read off the two primitives' signs through its slopes."""

    @pytest.mark.parametrize("seed", range(4))
    def test_the_line_is_the_sign_of_combine_at_every_entry(self, disjoint_pair, seed):
        """Random integers with zeros, every pair of signs present.

        ``combine`` is called only where the slopes leave the sign open: at
        opposite signs, for slopes strictly between 0 and 1, and everywhere
        for ``Reversed`` and ``Lifted``, which have none.
        """
        rng = random.Random(seed)
        kinds = [*eight_kinds(disjoint_pair)[1], AlphaMixture(F(1, 3)), AlphaMixture(0),
                 Reversed(), Lifted(), Lifted(-2, 0)]
        for size in (0, 1, 400):
            a, b = ([rng.choice((0, rng.randint(-9, 9))) for _ in range(size)] for _ in "ab")
            signs = (_signs(a), _signs(b))
            opposite = [r for r, (x, y) in enumerate(zip(a, b)) if x * y < 0]
            assert size < 400 or len(set(zip(*signs))) == 9
            for kind in kinds:
                calls = []
                line = _sign_line(kind.slopes, signs, lambda at: calls.extend(at) or map(
                    kind.combine, map(a.__getitem__, at), map(b.__getitem__, at)))
                assert line == _signs(map(kind.combine, a, b)), kind
                if kind.slopes is None:
                    assert calls == list(range(size)), kind
                else:
                    inside = [0 < t < 1 for t in kind.slopes]
                    assert calls == [r for r in opposite if inside[a[r] > 0]], kind

    def test_a_passing_completeness_audit_builds_no_numerators(self, monkeypatch):
        """Disjunctive is complete: its audit reads the relation's signs, never ``num``."""
        built = []
        monkeypatch.setattr(_Relation, "num", property(lambda self: built.append(self)))
        inst = generate_instance(3, GenParams(num_states=3))
        uvecs = [utility_vector(inst.utility, a) for a in generate_act_grid(inst, resolution=1)]
        report = audit(AxiomKind.COMPLETENESS, Disjunctive(), inst,
                       table=MarginTable(inst, uvecs))
        assert report.passed and report.checked
        assert built == []


class TestDifferenceOrder:
    """``Battery.distinct`` in code order, and the digit-grid fold of lattices."""

    @staticmethod
    def batteries():
        """Lattices at 2, 3 and 4 states, at radii 1 and 3/2, then irregular batteries."""
        for states, resolution in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)):
            for radius in (F(1), F(3, 2)):
                yield True, Battery(states, phi_lattice(states, resolution, radius))
        rng = random.Random(0)
        for states in (2, 3):
            for uvecs in irregular_batteries(rng, states):
                yield len(uvecs) == 1, Battery(states, uvecs)

    def test_distinct_is_sorted_and_its_reversal_is_its_negation(self):
        """distinct[-1 - r] == -distinct[r], so the relation reads -d by reversal.

        Every lattice's differences fill their digit grid; of the irregular
        batteries only the one-act battery does, trivially.
        """
        for grid, battery in self.batteries():
            distinct = battery.distinct
            assert distinct == sorted(set(distinct)), battery.n
            assert [-c for c in reversed(distinct)] == distinct, battery.n
            assert battery.position == {c: r for r, c in enumerate(distinct)}
            assert battery.grid is grid, battery.n

    @pytest.mark.parametrize("radius", [F(1), F(3, 2)])
    def test_the_grid_fold_is_a_pair_by_pair_fold(self, radius):
        """A lattice's one fold, ``maxmin`` and ``minmax``, equals the fold of
        explicit columns, each vertex's value of u_i - u_j for the pair
        behind each distinct difference, on two selections of sets."""
        for states, resolution in ((2, 2), (3, 1), (3, 2)):
            inst = generate_instance(3, GenParams(num_states=states))
            uvecs = phi_lattice(states, resolution, radius)
            table = MarginTable(inst, Battery(states, uvecs))
            battery = table.battery
            assert battery.grid
            for kind in (GeneralizedBewley(), Bewley(next(iter(inst.collection)).name)):
                cols = table.columns(kind)
                explicit = [
                    [int(battery.du * sum(map(operator.mul, vertex, (uvecs[i] - uvecs[j]).entries)))
                     for i, j in zip(*battery._pairs)]
                    for vertex in cols.vertices
                ]
                assert (cols.maxmin, cols.minmax) == cols.fold(explicit), (states, resolution, kind)

    def test_upper_counts_the_pairs_behind_each_difference(self):
        """``distinct`` is the sorted set of every c_i - c_j, and ``upper[r]``
        the number of pairs i < j behind ``distinct[r]``, counted pair by pair."""
        for _, battery in self.batteries():
            codes, n = battery.codes, battery.n
            assert battery.distinct == sorted({a - b for a in codes for b in codes}), n
            upper = dict.fromkeys(battery.distinct, 0)
            for i in range(n):
                for j in range(i + 1, n):
                    upper[codes[i] - codes[j]] += 1
            assert battery.upper == list(upper.values()), n

    def test_minmax_signs_are_the_maxmin_signs_mirrored(self):
        """Both lines of ``signs`` are those of the fold's two lists, for every
        selection of sets; on a lattice the box's minmax line is that of its
        maxmin reversed and negated, checked on the whole collection's box."""
        for grid, battery in self.batteries():
            states = battery.num_states
            inst = generate_instance(states, GenParams(num_states=states))
            table = MarginTable(inst, battery)
            prior = Prior(tuple(F(1, states) for _ in range(states)))
            for kind in (GeneralizedBewley(), SEU(prior), *(Bewley(s.name) for s in inst.collection)):
                cols = table.columns(kind)
                assert cols.signs == (_signs(cols.maxmin), _signs(cols.minmax)), (battery.n, kind)
                if grid and kind == GeneralizedBewley():
                    mirrored = _signs([-x for x in reversed(cols.box())])
                    assert cols.box_signs[1] == mirrored, (battery.n, kind)

    def test_only_a_full_grid_takes_the_grid_fold(self, monkeypatch):
        """An irregular battery gathers its pairs' columns and a lattice builds its
        grid, reading no act column nor pair of acts, through every audit of every kind."""
        inst = generate_instance(3, GenParams(num_states=3))
        irregular = list(irregular_batteries(random.Random(0), 3))[3]
        lattice = phi_lattice(3, 2, F(1))
        folds = []
        for name in ("_maxmin", "_grid_maxmin"):
            fold = getattr(axioms_module, name)
            monkeypatch.setattr(axioms_module, name,
                                lambda *args, fold=fold, name=name: folds.append(name) or fold(*args))
        for uvecs, path in ((irregular, "_maxmin"), (lattice, "_grid_maxmin")):
            table = MarginTable(inst, uvecs)
            assert table.battery.grid is (uvecs is lattice)
            folds.clear()
            for kind in eight_kinds(inst)[1]:
                table.columns(kind)
            assert folds == [path] * 3  # one on each of three selections of sets
            if uvecs is lattice:
                for kind in eight_kinds(inst)[1]:
                    for axiom in AxiomKind:
                        audit(axiom, kind, inst, table=table)
                assert all("acts" not in vars(cols) for cols in table._columns.values())
            assert ("_pairs" in vars(table.battery)) is (uvecs is irregular)


def random_battery(size, states=3):
    """``size`` random acts with entries k/641, so nearly every difference is distinct."""
    rng = random.Random(0)
    return [UtilityVector(tuple(F(rng.randint(-641, 641), 641) for _ in range(states)))
            for _ in range(size)]


class TestBatteryLimits:
    """Every battery, on the lattice or off it, is bounded in acts and in distinct differences."""

    def test_a_large_random_battery_is_refused_before_its_readers(self):
        """600 random 3-state acts make about 360,000 distinct differences: the
        battery raises, naming both numbers, before ``position`` or ``readers``."""
        with pytest.raises(ValueError, match=r"battery's \d+ distinct differences are over "
                                             f"MAX_BATTERY_DIFFERENCES = {MAX_BATTERY_DIFFERENCES}"
                           ) as raised:
            Battery(3, random_battery(600))
        battery = raised.traceback[-1].locals["self"]
        assert battery.n == 600 and len(battery.codes) == 600
        assert not hasattr(battery, "position") and not hasattr(battery, "readers")

    def test_a_battery_at_each_limit_builds_and_one_over_it_is_refused(self, monkeypatch):
        """At exactly ``MAX_BATTERY_ACTS`` acts and ``MAX_BATTERY_DIFFERENCES``
        distinct differences a battery builds; one over either is refused, and
        one over the act limit before any code is built."""
        uvecs = random_battery(40)
        distinct = len(Battery(3, uvecs).distinct)
        monkeypatch.setattr(axioms_module, "MAX_BATTERY_ACTS", 40)
        monkeypatch.setattr(axioms_module, "MAX_BATTERY_DIFFERENCES", distinct)
        assert Battery(3, uvecs).n == 40
        monkeypatch.setattr(axioms_module, "MAX_BATTERY_DIFFERENCES", distinct - 1)
        with pytest.raises(ValueError, match=f"{distinct} distinct differences are over "
                                             f"MAX_BATTERY_DIFFERENCES = {distinct - 1}"):
            Battery(3, uvecs)
        monkeypatch.setattr(axioms_module, "MAX_BATTERY_ACTS", 39)
        with pytest.raises(ValueError, match="battery of 40 acts is over MAX_BATTERY_ACTS = 39"
                           ) as raised:
            Battery(3, uvecs)
        assert not hasattr(raised.traceback[-1].locals["self"], "codes")

    def test_every_admitted_lattice_builds(self):
        """Every lattice ``check_battery`` admits has at most 5 ** 6 = 15,625
        distinct differences, (4r + 1) ** states; the 729-act 2- and 3-state
        lattices and the 6-state resolution-1 lattice build."""
        most = 0
        for states in range(1, 7):
            for resolution in itertools.count(1):
                try:
                    check_battery(resolution, states)
                except ValueError:
                    break
                most = max(most, (4 * resolution + 1) ** states)
        assert most == 5 ** 6 <= MAX_BATTERY_DIFFERENCES
        for states, resolution in ((2, 13), (3, 4), (6, 1)):
            battery = Battery(states, phi_lattice(states, resolution, F(1)))
            assert battery.n == MAX_BATTERY_ACTS and battery.grid, states
            assert len(battery.distinct) == (4 * resolution + 1) ** states, states


class TestPairwiseAudits:
    """The bitmask runners against a per-pair loop over Fraction margins."""

    def test_irregular_batteries_match_per_pair_reference(self):
        """All eight kinds and a reversed one, uncapped witnesses, 2 and 3 states."""
        rng = random.Random(15)
        failing = {axiom: 0 for axiom in PAIRWISE_AXIOMS}
        flagged = missing = 0
        for states in (2, 3):
            inst = generate_instance(states, GenParams(num_states=states))
            for uvecs in irregular_batteries(rng, states):
                battery = [act_from_utility_vector(inst, u.entries) for u in uvecs]
                table = MarginTable(inst, uvecs)
                kinds = [*eight_kinds(inst)[1], Reversed()]
                for kind, axiom in itertools.product(kinds, PAIRWISE_AXIOMS):
                    expected = reference_pairwise_audit(axiom, kind, inst, uvecs)
                    if expected is None:
                        with pytest.raises(BatteryMissingConstants):
                            audit(axiom, kind, inst, battery, table=table)
                        missing += 1
                        continue
                    report = audit(axiom, kind, inst, battery, table=table, witness_cap=10**6)
                    got = summarize(report)
                    got["witnesses"] = [
                        (w.indices, w.margins, w.note) for w in report.witnesses
                    ]
                    assert got == expected, (states, len(uvecs), kind, axiom)
                    failing[axiom] += not report.passed
                    flagged += report.boundary_flags > 0
        assert all(failing.values()), failing  # every comparison sees witnesses
        assert flagged and missing == 2 * 9 * 2

    def test_counted_audits_match_the_reference_before_and_after_the_rows(self):
        """The four audits that count pairs per difference, at caps 0, 1 and 25.

        Nine kinds and a reversed one on a lattice, on the lattice with
        duplicates out of order, on one constant act and on no act; each
        audit runs on a fresh table and again after a transitivity audit has
        built the rows.  Past a cap of 0 or 1, only the counts see the zero
        margins of the reversed kind's sandwiches f = b.
        """
        inst = generate_instance(0, GenParams(num_states=2))
        lattice = phi_lattice(2, 2, F(1))
        rng = random.Random(43)
        shuffled = lattice + [rng.choice(lattice) for _ in range(8)]
        rng.shuffle(shuffled)
        batteries = [lattice, shuffled, [UtilityVector((F(1, 2), F(1, 2)))], []]
        kinds = [*eight_kinds(inst)[1], AlphaMixture(F(1, 3)), Reversed()]
        counted = PAIRWISE_AXIOMS[:4]
        failing, over_cap = {axiom: 0 for axiom in counted}, 0
        for uvecs, kind in itertools.product(batteries, kinds):
            expected = {axiom: reference_pairwise_audit(axiom, kind, inst, uvecs)
                        for axiom in counted}
            for chained in (False, True):
                table = MarginTable(inst, uvecs)
                if chained:
                    audit(AxiomKind.TRANSITIVITY, kind, inst, table=table)
                    assert "weak" in vars(table.relation(kind))
                for axiom, cap in itertools.product(counted, (0, 1, WITNESS_CAP)):
                    want = expected[axiom]
                    if want is None:
                        with pytest.raises(BatteryMissingConstants):
                            audit(axiom, kind, inst, table=table, witness_cap=cap)
                        continue
                    report = audit(axiom, kind, inst, table=table, witness_cap=cap)
                    got = summarize(report)
                    got["witnesses"] = [(w.indices, w.margins, w.note) for w in report.witnesses]
                    assert got == {**want, "witnesses": want["witnesses"][:cap]}, (
                        len(uvecs), kind, axiom, cap, chained)
                    failing[axiom] += not report.passed
                    over_cap += report.total_violations > WITNESS_CAP
        assert all(failing.values()) and over_cap, failing

    def test_verify_suites_build_no_relation_rows(self, monkeypatch):
        """A 3-state seed, where prop2 does not apply, gathers no n-by-n rows.

        A transitivity audit then builds them once, on the same relation.
        """
        verify_mod = importlib.import_module("ambipref.verify")
        tables = []

        def recorded(*args):
            tables.append(MarginTable(*args))
            return tables[-1]

        monkeypatch.setattr(verify_mod, "MarginTable", recorded)
        config = VerifyConfig()
        inst = generate_instance(1, config.params_for_seed(1))
        assert inst.num_states == 3
        suite_outcomes(inst, SUITES, config)
        (table,) = tables
        kinds = list(table._relations)
        assert len(kinds) == 5
        rows = ("weak", "weak_t")
        for kind in kinds:
            assert not vars(table.relation(kind)).keys() & set(rows), kind
        gathered = []
        original = _Relation.rows

        def counted(self, *args, **kwargs):
            gathered.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(_Relation, "rows", counted)
        rel = table.relation(kinds[0])
        for _ in range(2):
            audit(AxiomKind.TRANSITIVITY, kinds[0], inst, table=table)
        assert len(gathered) == 2 and len(rel.weak) == len(rel.weak_t) == table.n == 125
        assert table.relation(kinds[0]) is rel

    @pytest.mark.parametrize(
        "axiom",
        [AxiomKind.COMPLETENESS, AxiomKind.TRANSITIVITY, AxiomKind.NEGATIVE_COMPLETENESS],
    )
    def test_counts_do_not_depend_on_the_witness_cap(self, axiom):
        """The cap bounds only the kept witnesses, on a 125-act lattice, all eight kinds.

        Past the cap these runners count violations without reading their
        margins, and their zero reads come from masks instead.
        """
        config = VerifyConfig()
        inst = generate_instance(1, config.params_for_seed(1))
        table = MarginTable(inst, phi_lattice(3, config.resolution, F(config.radius)))
        assert table.n == 125

        def counts(report):
            return report.total_violations, report.checked, report.boundary_flags

        binding = 0
        for kind in eight_kinds(inst)[1]:
            full = audit(axiom, kind, inst, table=table, witness_cap=10**6)
            for cap in (0, 1, WITNESS_CAP):
                report = audit(axiom, kind, inst, table=table, witness_cap=cap)
                assert counts(report) == counts(full), (kind, cap)
                assert report.witnesses == full.witnesses[:cap], (kind, cap)
            binding += full.total_violations > WITNESS_CAP and full.boundary_flags > 0
        assert binding >= 2, axiom


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
        """Each ordered pair's zero margin is read twice, and flagged once."""
        coin = disjoint_pair.act("coin")
        report = audit(
            AxiomKind.NON_TRIVIALITY, GeneralizedBewley(), disjoint_pair, [coin, coin]
        )
        assert not report.passed
        assert report.witnesses == ()
        assert report.total_violations == 1
        assert report.boundary_flags == 2


def negated_table(inst, uvecs, monkeypatch, pairs):
    """A table whose one fold reads maxmin = minmax = -1 at each u_i - u_j of ``pairs``.

    The columns are patched before the table builds its relations, so every
    model's margin there is negative, and the relation's numerators, sign
    strings and bit rows agree on it.  The patch breaks the mirror between
    maxmin and minmax on purpose, so ``signs`` is set from both lists.
    """
    battery = Battery(inst.num_states, uvecs)
    codes = battery.codes
    rows = {battery.distinct.index(codes[i] - codes[j]) for i, j in pairs}
    init = _SetColumns.__init__

    def shifted(self, *args):
        init(self, *args)
        for r in rows:
            self.maxmin[r] = self.minmax[r] = -1
        self.signs = _signs(self.maxmin), _signs(self.minmax)

    monkeypatch.setattr(_SetColumns, "__init__", shifted)
    return MarginTable(inst, battery)


FAILURE_KINDS = [GeneralizedBewley(), HalfMixture(), AlphaMixture(F(3, 4)), Justifiable("low")]


class TestRunnerFailures:
    """Failure paths of axioms that every model kind satisfies, on a perturbed fold."""

    @staticmethod
    def negative(table, kind):
        return F(kind.combine(-1, -1), table.relation(kind).unit)

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_reflexivity_fails_on_a_negative_zero_difference(
        self, disjoint_pair, monkeypatch, kind
    ):
        uvecs = phi_lattice(2, 3, F(1))
        plain = audit(AxiomKind.REFLEXIVITY, kind, disjoint_pair,
                      table=MarginTable(disjoint_pair, uvecs))
        assert plain.passed and plain.boundary_flags == len(uvecs)
        table = negated_table(disjoint_pair, uvecs, monkeypatch, [(0, 0)])
        report = audit(AxiomKind.REFLEXIVITY, kind, disjoint_pair, table=table)
        margin = self.negative(table, kind)
        assert margin < 0
        assert not report.passed
        assert report.checked == report.total_violations == 49 > WITNESS_CAP
        assert report.witnesses == tuple(
            Witness((i,), (margin,), "act not weakly preferred to itself")
            for i in range(WITNESS_CAP)
        )
        assert report.boundary_flags == 0

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_unambiguous_completeness_fails_on_one_step_between_constants(
        self, disjoint_pair, monkeypatch, kind
    ):
        """41 constants 1/20 apart: the 40 neighbouring pairs share both differences."""
        levels = [F(k, 20) for k in range(-20, 21)]
        uvecs = [UtilityVector((v, v)) for v in levels]
        table = negated_table(disjoint_pair, uvecs, monkeypatch, [(0, 1), (1, 0)])
        report = audit(AxiomKind.UNAMBIGUOUS_COMPLETENESS, kind, disjoint_pair, table=table)
        margin = self.negative(table, kind)
        assert not report.passed
        assert report.checked == 41 * 40 // 2
        assert report.total_violations == 40 > WITNESS_CAP
        assert report.witnesses == tuple(
            Witness((a, a + 1), (margin, margin),
                    f"constants {levels[a]} and {levels[a + 1]} incomparable")
            for a in range(WITNESS_CAP)
        )
        assert report.boundary_flags == 0

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_monotonicity_fails_on_a_negative_dominance_difference(
        self, disjoint_pair, monkeypatch, kind
    ):
        """u_7 - u_0 is one step up on the first state, for 42 dominance pairs."""
        uvecs = phi_lattice(2, 3, F(1))
        assert uvecs[7] - uvecs[0] == UtilityVector((F(1, 3), F(0)))
        table = negated_table(disjoint_pair, uvecs, monkeypatch, [(7, 0)])
        report = audit(AxiomKind.MONOTONICITY, kind, disjoint_pair, table=table)
        codes, dominance = table.battery.codes, table.battery.dominance
        failing = [(i, j) for i, j in dominance if codes[i] - codes[j] == codes[7] - codes[0]]
        margin = self.negative(table, kind)
        assert not report.passed
        assert report.checked == len(dominance)
        assert report.total_violations == len(failing) == 42 > WITNESS_CAP
        assert report.witnesses == tuple(
            Witness(pair, (margin,), "statewise dominance not honored")
            for pair in failing[:WITNESS_CAP]
        )
        # The relation's zeros only: no failing margin is zero.
        assert report.boundary_flags == table.relation(kind).zeros


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


def audit_box(seed):
    """Generator seed ``seed`` with the battery the audit benchmark gives it.

    Even seeds have 2 states and a resolution-2 lattice (25 acts), odd
    seeds 3 states and a resolution-1 lattice (27 acts).
    """
    states = 2 if seed % 2 == 0 else 3
    inst = generate_instance(seed, GenParams(num_states=states))
    resolution = 2 if states == 2 else 1
    battery = generate_act_grid(inst, resolution)
    return inst, battery, battery_label(inst, len(battery), resolution, F(1))


class TestPinnedAudits:
    """Every audit field is pinned, witnesses and boundary flags included."""

    def test_audit_suites_of_the_eight_kinds(self):
        """One sha256 per seed over all twelve axioms under all eight kinds."""
        pinned = json.loads((DATA / "audit_reports_sha256.json").read_text())
        digests = {}
        for seed in range(8):
            inst, battery, desc = audit_box(seed)
            uvecs = [utility_vector(inst.utility, a) for a in battery]
            suites = [audit_suite(kind, inst, battery, battery_desc=desc)
                      for kind in eight_kinds(inst)[1]]
            for report in itertools.chain.from_iterable(suites):
                assert report.passed == (report.total_violations == 0), (seed, report.axiom)
            doc = [[r.to_jsonable(uvecs) for r in reports] for reports in suites]
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            digests[str(seed)] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digests == pinned

    def test_the_cap_changes_only_the_kept_witnesses(self):
        """Counts and boundary flags do not depend on ``witness_cap``.

        With cap c, the witnesses are the first c of the uncapped list.
        """
        def counts(report):
            return report.passed, report.total_violations, report.checked, report.boundary_flags

        over_cap = 0
        for seed in range(4):
            inst, battery, _ = audit_box(seed)
            table = MarginTable(inst, [utility_vector(inst.utility, a) for a in battery])
            for kind, axiom in itertools.product(eight_kinds(inst)[1], AxiomKind):
                full = audit(axiom, kind, inst, battery, table=table, witness_cap=10**6)
                over_cap += full.total_violations > WITNESS_CAP
                for cap in (0, WITNESS_CAP):
                    report = audit(axiom, kind, inst, battery, table=table, witness_cap=cap)
                    assert counts(report) == counts(full), (seed, kind, axiom)
                    assert report.witnesses == full.witnesses[:cap], (seed, kind, axiom)
        assert over_cap == 34

    def test_verify_lattice_pairwise_audits(self):
        """verify's own 125-act lattice (3 states, resolution 2), all eight kinds.

        One sha256 per (seed, axiom) over the eight kinds' reports, for every
        axiom but favorable mixing, which is pinned below.
        """
        pinned = json.loads((DATA / "audit_lattice_sha256.json").read_text())
        assert lattice_audit_digests(LATTICE_AXIOMS) == pinned

    def test_verify_lattice_favorable_mixing(self):
        """Favorable mixing on the same lattice, its 33^3 = 35,937-entry box, all eight kinds."""
        pinned = json.loads((DATA / "audit_lattice_mixing_sha256.json").read_text())
        assert lattice_audit_digests([AxiomKind.FAVORABLE_MIXING]) == pinned


class TestAuditSuiteMemo:
    """``audit_suite`` keeps its last table, keyed by the instance and the acts.

    A test that patches ``_SetColumns`` so that a fold changes must not call
    ``audit_suite``: the memo would keep the perturbed table for later tests.
    """

    @pytest.fixture
    def builds(self, monkeypatch):
        """Weak references to the tables ``audit_suite`` builds, from an empty memo.

        Each build checks that every earlier table is gone.
        """
        monkeypatch.setattr(axioms_module, "_last_table", None)
        built = []

        def counted(*args):
            assert all(ref() is None for ref in built), "two tables live"
            table = MarginTable(*args)
            built.append(weakref.ref(table))
            return table

        monkeypatch.setattr(axioms_module, "MarginTable", counted)
        return built

    @staticmethod
    def check(kind, inst, battery, desc=None):
        """``audit_suite``'s reports equal those of ``audit`` on a fresh table."""
        table = MarginTable(inst, [utility_vector(inst.utility, a) for a in battery])
        fresh = [audit(a, kind, inst, battery, table=table, battery_desc=desc)
                 for a in AxiomKind]
        assert audit_suite(kind, inst, battery, battery_desc=desc) == fresh, kind

    @pytest.mark.parametrize("seed", [0, 1])
    def test_the_eight_kinds_build_one_table(self, builds, seed):
        inst, battery, desc = audit_box(seed)
        for kind in eight_kinds(inst)[1]:
            self.check(kind, inst, battery, desc)
        assert len(builds) == 1

    def test_equal_acts_and_instance_hit(self, builds):
        """Equal objects that are not the same objects hit the memo."""
        inst, battery, desc = audit_box(1)
        again, acts, _ = audit_box(1)
        assert again is not inst and again == inst
        assert all(a is not b and a == b for a, b in zip(acts, battery))
        kinds = eight_kinds(inst)[1]
        self.check(kinds[0], inst, battery, desc)
        self.check(kinds[1], again, acts, desc)
        self.check(kinds[2], inst, list(acts), desc)
        assert len(builds) == 1

    def test_another_battery_or_instance_misses(self, builds):
        """A reordered battery, another of the same length, another utility or vertex.

        Each call builds a table, after the memo has dropped the one before.
        """
        inst, battery, _ = audit_box(1)
        half = generate_act_grid(inst, 1, F(1, 2))
        assert len(half) == len(battery) and half != battery
        first, *rest = inst.collection.sets
        moved = Prior(tuple((p + q) / 2 for p, q in zip(first.vertices[0].probs, (F(1, 3),) * 3)))
        nudged = replace(inst, collection=replace(inst.collection, sets=(
            replace(first, vertices=(moved, *first.vertices[1:])), *rest)))
        doubled = replace(inst, utility=replace(
            inst.utility, values={z: 2 * u for z, u in inst.utility.values.items()}))
        runs = [(inst, battery), (inst, battery[::-1]), (inst, half), (inst, battery),
                (nudged, battery), (doubled, battery), (inst, battery)]
        for count, (instance, acts) in enumerate(runs, 1):
            self.check(HalfMixture(), instance, acts)
            assert len(builds) == count
            assert axioms_module._last_table[2] is builds[-1]()


LATTICE_SEEDS = (1, 3, 5, 7)
LATTICE_AXIOMS = [a for a in AxiomKind if a is not AxiomKind.FAVORABLE_MIXING]


def lattice_audit_digests(axioms):
    """sha256 of the ``axioms`` reports on ``verify``'s lattice, by seed and axiom."""
    config = VerifyConfig()
    digests = {}
    for seed in LATTICE_SEEDS:
        inst = generate_instance(seed, config.params_for_seed(seed))
        assert inst.num_states == 3
        lattice = phi_lattice(3, config.resolution, F(config.radius))
        table = MarginTable(inst, lattice)
        desc = battery_label(inst, len(lattice), config.resolution, config.radius)
        for axiom in axioms:
            doc = [
                audit(axiom, kind, inst, lattice, table=table, battery_desc=desc).to_jsonable(
                    table.uvecs
                )
                for kind in eight_kinds(inst)[1]
            ]
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            digests[f"{seed}:{axiom.value}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests
