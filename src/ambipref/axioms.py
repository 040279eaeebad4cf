"""Finite-battery audits of preference axioms against any margin model.

An audit quantifies an axiom over a deterministic battery of acts (a utility
lattice), reports pass or fail, and backs every failure with concrete act
tuples and the margins that witness the violation.  All judgments are sign
tests on integers scaled to a common denominator, so verdicts are exact and
reproducible; a margin that is exactly zero increments ``boundary_flags`` on
the report because the verdict hinged on a boundary case.  ``witnesses``
keeps the first ``witness_cap`` (default ``WITNESS_CAP``) violations,
``total_violations`` counts all of them, and ``boundary_flags`` does not
depend on the cap.

Margins are computed many at a time by one fold: given the scaled vertex
expectations of a list of utility differences, column by column, builtin
min and max run down the columns and yield every difference's margin
numerator at once.  The pairwise matrix folds u_i - u_j over all j; the
mixed-act audits fold integer-weighted combinations of battery rows, with
each weight in ``MIX_GRID`` written as k / s over one common scale s.
Independence is decided by the integer homogeneity fold alone: utility is
affine, so mixing f and g with a common act h at weight a leaves the
difference a * (u_f - u_g), and the audit compares the fold of
k * (u_i - u_j) with k times the pair's margin numerator on every pair.
Favorable mixing reads the margin of d = k * u_f + (s - k) * u_h - s * u_g
for every strictly ordered pair (f, g), every act h and every weight; many
of those share one d, so each act gets an integer code linear in its scaled
utility vector and injective on such differences, and each distinct d is
folded once.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence

from .analysis import phi_lattice
from .model import (
    Act,
    BeliefCollection,
    Instance,
    Prior,
    UtilityVector,
    constant_act,
    utility_vector,
)
from .margins import ModelKind, describe_model
from .margins import model_margin  # noqa: F401  (perfbench/tracer.py wraps axioms.model_margin)

__all__ = [
    "AxiomKind",
    "RadiusExceedsUtilityRange",
    "BatteryMissingConstants",
    "Witness",
    "AuditReport",
    "MarginTable",
    "generate_act_grid",
    "audit",
    "audit_suite",
    "weak_relation",
    "MIX_GRID",
]

MIX_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
_MIX_SCALE = lcm(*(a.denominator for a in MIX_GRID))  # weight a is k / s, k integer
WITNESS_CAP = 25
_NEGATIVE_BITS = str.maketrans("-0+", "100")  # a row of margin signs as a bitmask


class AxiomKind(Enum):
    NON_TRIVIALITY = "non_triviality"
    REFLEXIVITY = "reflexivity"
    UNAMBIGUOUS_COMPLETENESS = "unambiguous_completeness"
    UNAMBIGUOUS_TRANSITIVITY = "unambiguous_transitivity"
    MONOTONICITY = "monotonicity"
    INDEPENDENCE = "independence"
    COMPLETENESS = "completeness"
    TRANSITIVITY = "transitivity"
    CONSTANT_BOUND_TRANSITIVITY = "constant_bound_transitivity"
    FAVORABLE_MIXING = "favorable_mixing"
    NEGATIVE_COMPLETENESS = "negative_completeness"
    NEGATIVE_CONSTANT_BOUND_TRANSITIVITY = "negative_constant_bound_transitivity"


class RadiusExceedsUtilityRange(ValueError):
    """The requested lattice does not fit inside the instance's utility range."""


class BatteryMissingConstants(ValueError):
    """An axiom quantifying over constant acts found none in the battery."""


@dataclass(frozen=True)
class Witness:
    """One concrete violation: battery indices plus the margins behind it."""

    indices: tuple[int, ...]
    margins: tuple[Fraction, ...]
    note: str


@dataclass(frozen=True)
class AuditReport:
    axiom: AxiomKind
    model: str
    battery: str
    passed: bool
    witnesses: tuple[Witness, ...]
    total_violations: int
    checked: int
    boundary_flags: int

    def to_jsonable(self, uvecs: Sequence[UtilityVector] | None = None) -> dict:
        out = {
            "axiom": self.axiom.value,
            "model": self.model,
            "battery": self.battery,
            "passed": self.passed,
            "total_violations": self.total_violations,
            "checked": self.checked,
            "boundary_flags": self.boundary_flags,
            "witnesses": [
                {
                    "acts": list(w.indices),
                    "margins": [str(m) for m in w.margins],
                    "note": w.note,
                    **(
                        {
                            "utility_vectors": [
                                [str(e) for e in uvecs[i].entries] for i in w.indices
                            ]
                        }
                        if uvecs is not None
                        else {}
                    ),
                }
                for w in self.witnesses
            ],
        }
        return out


def generate_act_grid(
    instance: Instance, resolution: int = 2, radius: Fraction = Fraction(1)
) -> list[Act]:
    """Deterministic battery: acts whose utility vectors fill a cubic lattice.

    The acts realize ``phi_lattice``'s vectors in the same order: levels run
    from -radius to radius in steps of radius/resolution on every
    coordinate, and each level is one lottery over the two extreme prizes,
    shared by every act that takes it.  The enumeration order is the
    row-major product in declared state order, so the same instance and
    parameters always give the same battery.  Constant acts appear as the
    lattice diagonal; the zero act is always present.
    """
    radius = check_lattice(instance, resolution, radius)
    lattice = phi_lattice(instance.num_states, resolution, radius)
    lottery = {
        v.entries[0]: constant_act(instance, v.entries[0]).lotteries[0]
        for v in lattice
        if v.is_constant()
    }
    return [Act(tuple(lottery[e] for e in v.entries)) for v in lattice]


def check_lattice(instance: Instance, resolution: int, radius) -> Fraction:
    """Reject lattice parameters that ``generate_act_grid`` cannot realize.

    Returns the radius as a Fraction.  Raises ValueError for a resolution
    below 1 or a radius that is not positive, and RadiusExceedsUtilityRange
    when [-radius, radius] does not fit the instance's utility range.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be a positive integer, got {resolution}")
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    lo, hi = instance.utility_bounds()
    if lo > -radius or hi < radius:
        raise RadiusExceedsUtilityRange(
            f"lattice [-{radius}, {radius}] does not fit utility range [{lo}, {hi}]"
        )
    return radius


def battery_label(instance: Instance, count: int, resolution: int | None, radius) -> str:
    if resolution is None:
        return f"custom battery of {count} acts on {instance.num_states} states"
    return (
        f"lattice battery resolution={resolution} radius={radius} "
        f"({count} acts on {instance.num_states} states)"
    )


class MarginTable:
    """Vertex expectations of a battery, scaled to integers, for any model kind.

    Every model reads two primitives of a utility difference over its own
    belief sets, maxmin and minmax, and folds them with its ``combine``
    rule.  On a model's first use, the table builds integer columns for the
    sets ``kind.sets`` names, keyed by their vertex lists: one column per
    vertex, grouped by set, over a denominator of their own, and the matrix
    M[i][j] = denom * maxmin(u_i - u_j).  By the duality
    minmax(phi) = -maxmin(-phi), minmax(u_i - u_j) is -M[j][i].  Kinds that
    read the same sets share all of it.  Independence and favorable mixing
    fold integer-weighted combinations of the rows the same way, so no
    margin is computed one pair at a time; independence is decided by that
    homogeneity fold alone, with no mixed lottery built, and favorable
    mixing folds each distinct difference vector once.  Weak relations are
    memoized on the table per model, and the statewise dominance pairs once,
    so every audit of the same battery shares them.
    """

    def __init__(self, instance: Instance, uvecs: Sequence[UtilityVector]):
        self.instance = instance
        self.uvecs = list(uvecs)
        self.n = len(self.uvecs)
        self._du = lcm(*(e.denominator for vec in self.uvecs for e in vec.entries))
        self._scaled = [tuple(int(e * self._du) for e in vec.entries) for vec in self.uvecs]
        self._columns: dict[tuple[tuple[Prior, ...], ...], _SetColumns] = {}
        self._relations: dict[ModelKind, tuple[list[int], int]] = {}
        self._dominance: list[tuple[int, int]] | None = None

    def columns(self, kind: ModelKind) -> "_SetColumns":
        """The integer columns of the belief sets this model reads."""
        sets = kind.sets(self.instance.collection)
        key = tuple(bset.vertices for bset in sets)
        if key not in self._columns:
            self._columns[key] = _SetColumns(sets, self._scaled, self._du)
        return self._columns[key]


class _SetColumns:
    """One selection of belief sets, as integer columns over a battery.

    ``cols[c][i]`` is ``denom`` times the expectation of u_i at the c-th
    vertex, ``rows[i]`` lists the same numbers by act, ``vertices[c]`` is
    that vertex as integers, and ``parts`` are the sets' column ranges in
    order.  The maxmin matrix is built with them.
    """

    def __init__(self, sets: BeliefCollection, scaled: list[tuple[int, ...]], du: int):
        dv, set_rows = sets.integer_view
        self.denom = dv * du
        ends = list(itertools.accumulate(map(len, set_rows)))
        self.parts = list(zip([0, *ends], ends))
        self.vertices = [v for verts in set_rows for v in verts]
        self.rows = [
            tuple(sum(a * b for a, b in zip(u, col)) for col in self.vertices) for u in scaled
        ]
        self.cols = list(zip(*self.rows))
        # M[i][j] = denom * maxmin(u_i - u_j); minmax(u_i - u_j) is -M[j][i].
        self.maxmin = [
            _nested([[a - x for x in col] for a, col in zip(row, self.cols)], self.parts, max, min)
            for row in self.rows
        ]


def _elementwise(fn, lists: list[list[int]]) -> list[int]:
    """``fn`` across equal-length lists, position by position."""
    return lists[0] if len(lists) == 1 else list(map(fn, *lists))


def _combine(weights: Sequence[int], rows: list[list[int]]) -> list[int]:
    """The sum of ``weights[j] * rows[j]`` over j, position by position."""
    out = [0] * len(rows[0])
    for wt, row in zip(weights, rows):
        out = list(map(operator.add, out, map(wt.__mul__, row)))
    return out


def _nested(cols: list[list[int]], parts, outer, inner) -> list[int]:
    """``outer`` over the groups of ``inner`` over each group's columns.

    ``parts`` are the groups' ranges in ``cols``.  Works position by
    position down equal-length column lists, so (max, min) folds maxmin and
    (min, max) folds minmax for every entry.
    """
    return _elementwise(outer, [_elementwise(inner, cols[s:e]) for s, e in parts])


class _Runner:
    """One audit's state: margin access, boundary counting and the tally.

    The model's rule decides every margin: its belief sets pick the table's
    columns, and its ``combine`` folds their (maxmin, minmax) into a margin
    numerator over ``unit``, the columns' denominator times the model's
    ``den``.  Runners report through ``fail``, which counts every violation
    but builds a witness's Fractions only while fewer than ``witness_cap``
    are kept.  Zero margins are counted where numerators are read, never in
    ``fail``, so ``zero_flags`` does not depend on the cap.
    """

    def __init__(self, table: MarginTable, kind: ModelKind, witness_cap: int = WITNESS_CAP):
        self.table = table
        self.kind = kind
        self.combine = kind.combine
        self.cols = table.columns(kind)
        self.unit = self.cols.denom * kind.den
        self.matrix = self.cols.maxmin
        self._zero_seen: set[tuple[int, int]] = set()
        self.combo_zeros = 0
        self.matrix_zero_flags = 0
        self.witness_cap = witness_cap
        self.passed = True
        self.checked = 0
        self.total = 0
        self.witnesses: list[Witness] = []

    def fail(self, indices: tuple[int, ...], nums, note: str, unit: int | None = None) -> None:
        """Count one violation, keeping its witness while under the cap.

        ``nums`` are the witness's integer margin numerators over ``unit``,
        which defaults to the runner's own.
        """
        self.passed = False
        self.total += 1
        if len(self.witnesses) < self.witness_cap:
            den = unit or self.unit
            self.witnesses.append(Witness(indices, tuple(Fraction(x, den) for x in nums), note))

    def fold(self, cols: list[list[int]]) -> list[int]:
        """Margin numerators of many differences at once.

        ``cols[c][h]`` is the scaled expectation of the h-th difference at
        the c-th of the model's columns; entry h of the result is that
        difference's margin numerator over the column scale times the
        model's ``den``.  Zero results are the caller's to count.
        """
        parts = self.cols.parts
        maxmin, minmax = _nested(cols, parts, max, min), _nested(cols, parts, min, max)
        return list(map(self.combine, maxmin, minmax))

    def fold_zeros(self, cols: list[list[int]]) -> list[int]:
        """``fold`` that also counts every zero numerator as a boundary case."""
        nums = self.fold(cols)
        self.combo_zeros += nums.count(0)
        return nums

    def margin_num(self, i: int, j: int) -> int:
        """Numerator over ``unit`` of the margin for u_i - u_j (sign-faithful)."""
        m = self.matrix
        num = self.combine(m[i][j], -m[j][i])
        if num == 0:
            self._zero_seen.add((i, j))
        return num

    def weak(self, i: int, j: int) -> bool:
        return self.margin_num(i, j) >= 0

    def weak_matrix(self) -> list[int]:
        """Bitmask rows of the weak-preference relation over the battery.

        Built once per (table, model) and shared; callers must not mutate it.
        """
        memo = self.table._relations
        if self.kind not in memo:
            m = self.matrix
            rows = []
            zeros = -self.table.n  # the diagonal is the zero vector, not a boundary
            for i, col in enumerate(zip(*m)):
                # minmax(u_i - u_j) = -maxmin(u_j - u_i) = -M[j][i]
                values = list(map(self.combine, m[i], [-x for x in col]))
                bits = "".join(["1" if v >= 0 else "0" for v in reversed(values)])
                rows.append(int(bits, 2))
                zeros += values.count(0)
            memo[self.kind] = (rows, zeros)
        rows, self.matrix_zero_flags = memo[self.kind]
        return rows

    @property
    def zero_flags(self) -> int:
        return len(self._zero_seen) + self.combo_zeros + self.matrix_zero_flags


def _constants(r: _Runner) -> list[tuple[int, Fraction]]:
    """The battery's constant acts and their values; there must be some."""
    consts = [(i, v.entries[0]) for i, v in enumerate(r.table.uvecs) if v.is_constant()]
    if not consts:
        raise BatteryMissingConstants("battery has no constant acts")
    return consts


def _run_non_triviality(r: _Runner) -> None:
    n = r.table.n
    for i in range(n):
        for j in range(n):
            if i != j:
                r.checked += 1
                if r.weak(i, j) and not r.weak(j, i):
                    return
    r.passed, r.total = False, 1  # the failure is the exhausted search itself


def _run_reflexivity(r: _Runner) -> None:
    for i in range(r.table.n):
        r.checked += 1
        num = r.margin_num(i, i)
        if num < 0:
            r.fail((i,), (num,), "act not weakly preferred to itself")


def _run_unambiguous_completeness(r: _Runner) -> None:
    for (a, va), (b, vb) in itertools.combinations(_constants(r), 2):
        r.checked += 1
        ab = r.margin_num(a, b)
        if ab < 0 and (ba := r.margin_num(b, a)) < 0:
            r.fail((a, b), (ab, ba), f"constants {va} and {vb} incomparable")


def _dominance_pairs(table: MarginTable) -> list[tuple[int, int]]:
    """Pairs (i, j), i != j, where act i statewise dominates act j, row-major.

    Read on the table's integer rows, which share one positive denominator,
    and memoized on the table; callers must not mutate the list.
    """
    if table._dominance is None:
        rows = table._scaled
        table._dominance = [
            (i, j)
            for i, ri in enumerate(rows)
            for j, rj in enumerate(rows)
            if i != j and all(map(operator.ge, ri, rj))
        ]
    return table._dominance


def _run_unambiguous_transitivity(r: _Runner) -> None:
    w = r.weak_matrix()
    n = r.table.n
    dom = _dominance_pairs(r.table)
    for f, g in dom:
        wg, wf = w[g], w[f]
        for h in range(n):
            r.checked += 1
            if (wg >> h) & 1 and not (wf >> h) & 1:
                r.fail((f, g, h), (r.margin_num(g, h), r.margin_num(f, h)),
                       "dominance then weak preference fails to chain")
    for g, h in dom:
        for f in range(n):
            r.checked += 1
            if (w[f] >> g) & 1 and not (w[f] >> h) & 1:
                r.fail((f, g, h), (r.margin_num(f, g), r.margin_num(f, h)),
                       "weak preference then dominance fails to chain")


def _run_monotonicity(r: _Runner) -> None:
    w = r.weak_matrix()
    for i, j in _dominance_pairs(r.table):
        r.checked += 1
        if not (w[i] >> j) & 1:
            r.fail((i, j), (r.margin_num(i, j),), "statewise dominance not honored")


def _run_independence(r: _Runner) -> None:
    cols = r.cols
    n = r.table.n
    ks = [int(a * _MIX_SCALE) for a in MIX_GRID]
    for i in range(n):
        diffs = [[a - x for x in col[i + 1 :]] for a, col in zip(cols.rows[i], cols.cols)]
        # k * (u_i - u_j) for every j > i, folded afresh for each weight k / s.
        folds = [r.fold_zeros([[k * x for x in d] for d in diffs]) for k in ks]
        for j in range(i + 1, n):
            base_num = r.margin_num(i, j)
            for a, k, nums in zip(MIX_GRID, ks, folds):
                r.checked += 1
                num = nums[j - i - 1]
                if num != k * base_num:
                    r.fail((i, j), (base_num * _MIX_SCALE, num),
                           f"margin not homogeneous at {a}", r.unit * _MIX_SCALE)


def _run_completeness(r: _Runner) -> None:
    w = r.weak_matrix()
    n = r.table.n
    for i in range(n):
        wi = w[i]
        for j in range(i + 1, n):
            r.checked += 1
            if not (wi >> j) & 1 and not (w[j] >> i) & 1:
                r.fail((i, j), (r.margin_num(i, j), r.margin_num(j, i)), "incomparable pair")


def _run_transitivity(r: _Runner) -> None:
    w = r.weak_matrix()
    n = r.table.n
    for i in range(n):
        wi = w[i]
        for j in range(n):
            if i == j or not (wi >> j) & 1:
                continue
            r.checked += n
            bad = w[j] & ~wi
            while bad:
                low = bad & -bad
                h = low.bit_length() - 1
                bad ^= low
                r.fail((i, j, h), (r.margin_num(i, j), r.margin_num(j, h), r.margin_num(i, h)),
                       "weak preference fails to chain")


def _constant_sandwich(r: _Runner, order, bit: int, note: str) -> None:
    """Acts f between constants a and b, for every pair with ``order(va, vb)``.

    Both premises, a vs f and f vs b, must have weak-preference bit ``bit``;
    each such f violates the axiom, since the order leaves its conclusion
    false.  ``note`` is formatted with the two constants' values.
    """
    consts = _constants(r)
    w = r.weak_matrix()
    n = r.table.n
    for a, va in consts:
        wa = w[a]
        for b, vb in consts:
            if not order(va, vb):
                continue  # the conclusion already holds
            pair_note = note.format(va, vb)
            for f in range(n):
                r.checked += 1
                if (wa >> f) & 1 == bit and (w[f] >> b) & 1 == bit:
                    r.fail((a, f, b),
                           (r.margin_num(a, f), r.margin_num(f, b), r.margin_num(a, b)),
                           pair_note)


def _run_cbt(r: _Runner) -> None:
    _constant_sandwich(r, operator.lt, 1, "act sandwiched between constants {} < {}")


def _run_negative_cbt(r: _Runner) -> None:
    _constant_sandwich(
        r, operator.ge, 0, "non-preference fails to chain across constants {} >= {}"
    )


def _run_favorable_mixing(r: _Runner) -> None:
    w = r.weak_matrix()
    n = r.table.n
    s = _MIX_SCALE
    unit = r.unit * s
    grid = sorted(MIX_GRID)
    ks = [int(a * s) for a in grid]
    # Every (f, g) with g strictly better than f, g outer, as witnesses are kept.
    strict = [(f, g) for g in range(n) for f in range(n) if (w[g] >> f) & 1 > (w[f] >> g) & 1]
    if not strict:
        return
    # Every margin read is that of d = k * u_f - s * u_g + (s - k) * u_h.  Its
    # entries lie within s * (hi - lo) of zero, so base-``radix`` codes with
    # balanced digits are injective on them, and linear: code(d) is the same
    # combination of the acts' codes.  Each distinct d is folded once.
    scaled = r.table._scaled
    lo, hi = min(map(min, scaled)), max(map(max, scaled))
    half = s * (hi - lo)
    radix = 2 * half + 1
    code = [sum(x * radix**j for j, x in enumerate(u)) for u in scaled]
    # Per weight: the codes of (s - k) * u_h for every h, and of
    # k * u_f - s * u_g for every strict pair (f, g).
    rests = [[(s - k) * c for c in code] for k in ks]
    bases = [[k * code[f] - s * code[g] for f, g in strict] for k in ks]
    distinct = list({b + x for bs, rest in zip(bases, rests) for b in set(bs) for x in rest})

    # Decode every distinct d, then fold it on the model's vertex columns.
    digits, cur = [], [c + half for c in distinct]
    for _ in scaled[0]:
        digits.append([c % radix - half for c in cur])
        cur = [c // radix + half for c in cur]
    num = dict(zip(distinct, r.fold([_combine(v, digits) for v in r.cols.vertices])))
    sign = {c: "-" if x < 0 else "0" if x == 0 else "+" for c, x in num.items()}

    # Per weight and distinct base: its zero count over h, and the mask of
    # the h where d is negative (h descending in ``signs``, so bit h is h).
    summary = []
    for bs, rest in zip(bases, rests):
        by_base = {}
        for b in set(bs):
            signs = "".join(map(sign.__getitem__, map(b.__add__, reversed(rest))))
            by_base[b] = signs.count("0"), int(signs.translate(_NEGATIVE_BITS), 2)
        summary.append(list(map(by_base.__getitem__, bs)))

    for pair, ((f, g), per_weight) in enumerate(zip(strict, zip(*summary))):
        r.checked += n
        bad = below = 0  # h unacceptable at some weight and acceptable at a heavier one
        for zeros, mask in per_weight:
            r.combo_zeros += zeros
            bad |= below & ~mask
            below |= mask
        while bad:
            low = bad & -bad
            h = low.bit_length() - 1
            bad ^= low
            nums = [num[bs[pair] + rest[h]] for bs, rest in zip(bases, rests)]
            lo_w = next(ai for ai, x in enumerate(nums) if x < 0)  # lightest unacceptable
            hi_w = next(ai for ai in range(lo_w, len(nums)) if nums[ai] >= 0)
            r.fail((f, g, h), (nums[hi_w], nums[lo_w]),
                   f"acceptable at weight {grid[hi_w]} but not at {grid[lo_w]}", unit)


def _run_negative_completeness(r: _Runner) -> None:
    n = r.table.n
    for i in range(n):
        for j in range(i + 1, n):
            r.checked += 1
            ij = r.margin_num(i, j)
            if ij > 0 and (ji := r.margin_num(j, i)) > 0:
                r.fail((i, j), (ij, ji), "both directions robustly preferred")


_RUNNERS = {
    AxiomKind.NON_TRIVIALITY: _run_non_triviality,
    AxiomKind.REFLEXIVITY: _run_reflexivity,
    AxiomKind.UNAMBIGUOUS_COMPLETENESS: _run_unambiguous_completeness,
    AxiomKind.UNAMBIGUOUS_TRANSITIVITY: _run_unambiguous_transitivity,
    AxiomKind.MONOTONICITY: _run_monotonicity,
    AxiomKind.INDEPENDENCE: _run_independence,
    AxiomKind.COMPLETENESS: _run_completeness,
    AxiomKind.TRANSITIVITY: _run_transitivity,
    AxiomKind.CONSTANT_BOUND_TRANSITIVITY: _run_cbt,
    AxiomKind.FAVORABLE_MIXING: _run_favorable_mixing,
    AxiomKind.NEGATIVE_COMPLETENESS: _run_negative_completeness,
    AxiomKind.NEGATIVE_CONSTANT_BOUND_TRANSITIVITY: _run_negative_cbt,
}


def audit(
    axiom: AxiomKind,
    kind: ModelKind,
    instance: Instance,
    battery: Sequence[Act],
    *,
    table: MarginTable | None = None,
    witness_cap: int = WITNESS_CAP,
    battery_desc: str | None = None,
) -> AuditReport:
    """Quantify one axiom over the battery and report the outcome.

    Pass ``table`` to share the cached margin work across several audits of
    the same battery, under any model kinds: each reads its own belief sets'
    columns from it.  A table built for another instance, or whose size
    differs from the battery's, is rejected.  ``witness_cap`` bounds only
    how many witnesses are kept, never the counts.
    """
    if table is None:
        table = MarginTable(instance, [utility_vector(instance.utility, act) for act in battery])
    elif instance != table.instance:
        raise ValueError("margin table was built for another instance")
    elif table.n != len(battery):
        raise ValueError("margin table does not match this battery")
    r = _Runner(table, kind, witness_cap)
    _RUNNERS[axiom](r)
    return AuditReport(
        axiom=axiom,
        model=describe_model(kind),
        battery=battery_desc
        or battery_label(instance, len(battery), None, None),
        passed=r.passed,
        witnesses=tuple(r.witnesses),
        total_violations=r.total,
        checked=r.checked,
        boundary_flags=r.zero_flags,
    )


def weak_relation(
    table: MarginTable, kind: ModelKind, instance: Instance
) -> tuple[list[int], int]:
    """Bitmask rows of the model's weak preference over the table's battery.

    Row i has bit j set when act i is weakly preferred to act j.  Also
    returns how many of the consulted margins were exactly zero, since those
    judgments sit on the boundary of the relation.  Any model kind works on
    any table of the battery, reading its own belief sets' columns; a table
    built for another instance is rejected.  The relation is memoized on the
    table; the returned list is the caller's own copy.
    """
    if instance != table.instance:
        raise ValueError("margin table was built for another instance")
    runner = _Runner(table, kind)
    matrix = list(runner.weak_matrix())
    return matrix, runner.matrix_zero_flags


def audit_suite(
    kind: ModelKind,
    instance: Instance,
    battery: Sequence[Act],
    *,
    axioms: Sequence[AxiomKind] | None = None,
    battery_desc: str | None = None,
) -> list[AuditReport]:
    """Run every requested axiom (default: all twelve) over one shared table."""
    table = MarginTable(instance, [utility_vector(instance.utility, act) for act in battery])
    return [
        audit(a, kind, instance, battery, table=table, battery_desc=battery_desc)
        for a in (axioms if axioms is not None else list(AxiomKind))
    ]
