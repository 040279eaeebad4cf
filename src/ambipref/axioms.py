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

Every margin comes from a fold: builtin min and max run down the vertex
values of many vectors at once, each a combination of the vertex's
expectations of the acts, and yield their (maxmin, minmax) numerators,
which each model's ``combine`` turns into its margin.  Acts have integer
codes, linear and injective on the vectors the audits read, used as keys
so that each distinct vector is folded once: the distinct
u_i - u_j (9 ** n on a resolution-2 lattice, against 25 ** n pairs; maxmin
alone, as minmax(d) = -maxmin(-d)), k * (u_i - u_j) for each weight k / s
in ``MIX_GRID`` for independence, and the distinct
k * u_f + (s - k) * u_h - s * u_g for favorable mixing.  A model's relation
is the sign of each distinct difference, so both completeness axioms and
independence count checks, violations and zero margins per difference,
weighted by the pairs of acts behind each (``Battery.upper``), and the
audits gather act rows only for witnesses and constants.  Utility is
affine, so mixing f and g with a common act h at weight a leaves
a * (u_f - u_g): independence compares, once per distinct d, the folded
margin of k * d with k times d's, and walks pairs of acts only to gather
witnesses.

Favorable mixing on a battery whose mixing box fits in n ** 3 entries, as
every lattice's does, folds the whole box instead: every vector whose
entries, in the battery's steps, are balanced digits in [-half, half],
``radix ** num_states`` of them, which on a lattice is 1.3 to 1.6 times
its distinct d.  Vector d sits at index code + size // 2, each vertex's values
are separable sums over the states, and the box's minmax is its maxmin
reversed and negated, since -d sits at size - 1 - index.  So one "-0+" sign
line serves every read, and each weight gathers one character per strictly
ordered pair from the line's slice at act h.  Batteries with irregular
denominators, whose box is larger, fold each distinct d once, from one
act triple that makes it.

The shared work splits in two.  A ``Battery`` holds what reads no belief
set: the scaled rows, codes, distinct differences with a pair of acts and
the negation of each, the readers of its rows, the dominance pairs and the
constant acts.  One battery serves every instance with its state count,
and ``verify`` builds each lattice's once per process.  An instance's
``MarginTable`` over a battery holds the rest: per selection of belief
sets, each vertex's expectation of each act and, once read, the fold of
k * d for each weight and the folded mixing box, and one
``relation(kind)`` per model.  Kinds that read the same sets
(GeneralizedBewley, Disjunctive, Conjunctive and the mixtures; Bewley and
Justifiable on one set) share one fold per weight and one box fold.
``audit_suite`` keeps the last table it built, so calls that audit one
instance's battery under several kinds in turn build one table.
An audit's ``_Runner`` keeps only its tally.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial, reduce
from typing import Callable, Sequence

from .analysis import check_battery, check_radius, phi_lattice
from .analysis import MAX_BATTERY_ACTS  # noqa: F401  (re-exported for callers of the axioms module)
from .model import (
    Act,
    BeliefCollection,
    Instance,
    UtilityVector,
    constant_act,
    scaled,
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
    "Battery",
    "MarginTable",
    "generate_act_grid",
    "audit",
    "audit_suite",
    "weak_relation",
    "MIX_GRID",
    "MAX_BATTERY_ACTS",
    "check_battery",
]

MIX_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
_MIX_SCALE, _MIX_KS = scaled(MIX_GRID)  # MIX_GRID[i] = _MIX_KS[i] / _MIX_SCALE
WITNESS_CAP = 25


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

    Returns the radius as a Fraction.  Raises ValueError where
    ``check_battery`` or ``check_radius`` does, and
    RadiusExceedsUtilityRange when [-radius, radius] does not fit the
    instance's utility range.
    """
    check_battery(resolution, instance.num_states)
    radius = check_radius(radius)
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


class Battery:
    """The instance-free half of a battery's margin work: its integer geometry.

    A battery of acts on ``num_states`` states is its utility vectors
    ``uvecs``, one entry per state, over one common denominator ``du``;
    ``state_rows[s]`` holds the acts' scaled entries on state s, all
    multiples of ``step``, their gcd (1 when every entry is 0).  Act i has
    the integer code ``codes[i]``, its scaled entries in steps as the
    balanced digits of a base-``radix`` number: linear, and injective on
    each u_i - u_j and, as ``half`` bounds their entries in steps, on each
    favorable-mixing combination.  So a lattice's codes, and its mixing
    box, do not grow with its radius.  Codes are dedup keys and, offset by
    half the mixing box's size, its indices; they are never decoded.
    ``distinct`` lists the codes of the u_i - u_j once each, each with one
    pair of acts that differ by it and the position of its negation;
    ``upper`` counts the pairs i < j behind each.  None of it reads belief
    sets, so one battery serves every instance with that many states;
    ``upper``, ``dominance`` and the constant acts behind ``constants()``
    are memoized here.  The state count is given, since an empty battery
    has no vector to read it from.
    """

    def __init__(self, num_states: int, uvecs: Sequence[UtilityVector]):
        self.num_states = num_states
        self.uvecs = tuple(uvecs)
        for i, vec in enumerate(self.uvecs):
            if len(vec) != num_states:
                raise ValueError(f"utility vector {i} has {len(vec)} entries, not {num_states}")
        self.n = len(self.uvecs)
        self.du, flat = scaled([e for vec in self.uvecs for e in vec.entries])
        self._scaled = list(zip(*[iter(flat)] * num_states))  # one row per act
        self.step = math.gcd(*flat) or 1
        spread = (max(flat, default=0) - min(flat, default=0)) // self.step
        self.half = _MIX_SCALE * spread  # bounds every entry of k*u_f + (s-k)*u_h - s*u_g, in steps
        self.radix = 2 * self.half + 1
        self.codes = [sum(x // self.step * self.radix**j for j, x in enumerate(u))
                      for u in self._scaled]
        unique = set(self.codes)
        pairs = {a - b: (a, b) for a in unique for b in unique}
        self.distinct = list(pairs)
        # distinct[r] is u_i - u_j for i = minuends[r] and j = subtrahends[r],
        # and its negation is distinct[negations[r]].
        act = {c: i for i, c in enumerate(self.codes)}
        self.minuends = [act[a] for a, _ in pairs.values()]
        self.subtrahends = [act[b] for _, b in pairs.values()]
        rank = {c: r for r, c in enumerate(self.distinct)}
        self.negations = [rank[-c] for c in self.distinct]
        self.state_rows = [[row[s] for row in self._scaled] for s in range(num_states)]
        # readers[i] picks, from a sequence in the order of ``distinct``, the
        # items of codes[i] - codes[j] for j descending.
        descending = self.codes[::-1]
        self.readers = [
            operator.itemgetter(*map(rank.__getitem__, map(c.__sub__, descending)))
            for c in self.codes
        ]

    @cached_property
    def upper(self) -> list[int]:
        """How many pairs of acts i < j have each of ``distinct`` as u_i - u_j."""
        count = Counter(itertools.starmap(operator.sub, itertools.combinations(self.codes, 2)))
        return list(map(count.__getitem__, self.distinct))

    @cached_property
    def dominance(self) -> list[tuple[int, int]]:
        """The pairs (i, j), i != j, where act i statewise dominates act j, row-major."""
        rows = self._scaled
        return [(i, j) for i, ri in enumerate(rows) for j, rj in enumerate(rows)
                if i != j and all(map(operator.ge, ri, rj))]

    @cached_property
    def _constant_acts(self) -> list[tuple[int, Fraction]]:
        return [(i, self.uvecs[i].entries[0]) for i, row in enumerate(self._scaled)
                if row.count(row[0]) == len(row)]

    def constants(self) -> list[tuple[int, Fraction]]:
        """The battery's constant acts and their values; there must be some."""
        if not self._constant_acts:
            raise BatteryMissingConstants("battery has no constant acts")
        return self._constant_acts


class MarginTable:
    """One instance's margins over a battery, for any model kind.

    ``battery`` is a ``Battery`` of the instance's state count, or the
    utility vectors to build one from; the table reads its geometry and
    holds only what the instance adds.  Every model reads two
    primitives of a utility difference over its own belief sets, maxmin and
    minmax, and folds them with its ``combine`` rule.  On a model's first
    use, the table builds integer columns for the sets ``kind.sets`` names,
    keyed by their integer view, and folds (maxmin, minmax) once per
    distinct difference, and on first read k times each and the mixing
    box.  Kinds that read the same sets share all of it.
    Sets on another number of states than the battery's are refused.
    ``relation(kind)`` is memoized here, and nowhere else; ``n`` and
    ``uvecs`` are the battery's.
    """

    def __init__(self, instance: Instance, battery: Battery | Sequence[UtilityVector]):
        if not isinstance(battery, Battery):
            battery = Battery(instance.num_states, battery)
        elif battery.num_states != instance.num_states:
            raise ValueError(
                f"battery on {battery.num_states} states, instance on {instance.num_states}"
            )
        self.instance = instance
        self.battery = battery
        self.uvecs = battery.uvecs
        self.n = battery.n
        self._columns: dict[tuple, _SetColumns] = {}
        self._relations: dict[ModelKind, _Relation] = {}

    def columns(self, kind: ModelKind) -> "_SetColumns":
        """The integer columns of the belief sets this model reads."""
        sets = kind.sets(self.instance.collection)
        if sets.dimension != self.battery.num_states:
            raise ValueError(f"{describe_model(kind)} reads beliefs on {sets.dimension} "
                             f"states, the battery has {self.battery.num_states}")
        key = sets.integer_view
        if key not in self._columns:
            self._columns[key] = _SetColumns(sets, self.battery)
        return self._columns[key]

    def relation(self, kind: ModelKind) -> "_Relation":
        """The model's margins and relation rows, built on its first use."""
        if kind not in self._relations:
            self._relations[kind] = _Relation(kind, self)
        return self._relations[kind]


class _SetColumns:
    """One selection of belief sets, as vertex expectations of a battery's acts.

    ``acts[c][i]`` is the c-th vertex's expectation of u_i over ``denom``,
    and ``parts`` are the sets' ranges in ``acts`` and in ``vertices``, the
    integer vertex rows.  Every vertex value an audit reads combines these:
    ``differences(k)`` folds k times the battery's distinct differences (at
    k = 1 ``maxmin`` and ``minmax``), ``box`` the battery's whole mixing
    box, each once and kept, and ``fold`` any other vectors.
    """

    def __init__(self, sets: BeliefCollection, battery: Battery):
        dv, set_rows = sets.integer_view
        self.denom = dv * battery.du
        ends = list(itertools.accumulate(map(len, set_rows)))
        self.parts = list(zip([0, *ends], ends))
        self.battery = battery
        self.vertices = [v for verts in set_rows for v in verts]
        self.acts = [_combine(v, battery.state_rows) for v in self.vertices]
        self._differences = {}
        self.maxmin, self.minmax = self.differences(1)
        self._box = None

    def box(self) -> list[int]:
        """The maxmin of every vector in the battery's mixing box, by box index.

        The box holds the ``radix ** num_states`` vectors whose scaled
        entries are d_j steps, d_j in [-half, half]; d has index code +
        size // 2, the sum of (d_j + half) * radix ** j.  A vertex's value
        of d is the separable sum of v_j * step * d_j, on the unit of
        ``acts``, and the sets are folded one at a time, so only a few
        box-length lists are live at once.  Folded on the first call and
        kept, as ``maxmin`` is, so every kind that reads these sets shares
        one fold; callers must not mutate it.
        """
        if self._box is None:
            half, step = self.battery.half, self.battery.step
            digits = range(-half * step, half * step + 1, step)
            maxmin = None
            for start, end in self.parts:
                low = None
                for vertex in self.vertices[start:end]:
                    values = [0]
                    for x in reversed(vertex):  # the last state is the leading digit
                        steps = [x * t for t in digits]
                        values = [a + b for a in values for b in steps]
                    low = values if low is None else _lower(low, values)
                maxmin = low if maxmin is None else _upper(maxmin, low)
            self._box = maxmin
        return self._box

    def differences(self, k: int) -> tuple[list[int], list[int]]:
        """The (maxmin, minmax) of k * (u_i - u_j) for each of ``distinct`` in turn.

        Folds maxmin alone, since minmax(d) = -maxmin(-d), once per k;
        callers must not mutate the kept lists.
        """
        if k not in self._differences:
            battery = self.battery
            cols = []
            for acts in self.acts:
                scaled = list(map(k.__mul__, acts))
                cols.append(list(map(operator.sub, map(scaled.__getitem__, battery.minuends),
                                     map(scaled.__getitem__, battery.subtrahends))))
            maxmin = _maxmin(cols, self.parts)
            self._differences[k] = maxmin, [-x for x in map(maxmin.__getitem__, battery.negations)]
        return self._differences[k]

    def fold(self, cols: list[list[int]]) -> tuple[list[int], list[int]]:
        """The (maxmin, minmax) of the vectors whose values at the c-th vertex are ``cols[c]``."""
        negated = [[-x for x in col] for col in cols]
        return _maxmin(cols, self.parts), [-x for x in _maxmin(negated, self.parts)]


_SIGN_BITS = {signs: str.maketrans("-0+", "".join("01"[c in signs] for c in "-0+"))
              for signs in ("-", "0", "+", "0+")}
_BYTE_BITS = bytes.maketrans(b"01", b"\x00\x01")


class _Relation:
    """One model's margins over a battery's distinct differences.

    Built only by ``MarginTable.relation``, and holds no reference to the
    table.  ``combine`` turns the (maxmin, minmax) of the model's columns
    ``cols`` into a numerator over ``unit``; ``num[c]`` is that of code c.
    ``line`` has the "-0+" sign of each d of ``battery.distinct``, and
    ``neg`` that of -d; ``zeros`` counts the zero margins off the diagonal.
    Bit j of ``weak[i]`` is set when the margin of u_i - u_j is nonnegative,
    and ``weak_t[i]`` does the same for u_j - u_i.  Both are gathered on
    first read.
    """

    def __init__(self, kind: ModelKind, table: MarginTable):
        self.combine = kind.combine
        self.cols = cols = table.columns(kind)
        self.battery = battery = table.battery
        self.unit = cols.denom * kind.den
        self.num = dict(zip(battery.distinct, map(self.combine, cols.maxmin, cols.minmax)))
        self.line = line = _signs(self.num.values())
        self.neg = "".join(map(line.__getitem__, battery.negations))
        self.zeros = self.count(self.mask("0")) + self.count(self.mask("0", transposed=True))

    def mask(self, signs: str, transposed: bool = False) -> int:
        """A bit per d, first highest, set when d's sign (-d's if ``transposed``) is in ``signs``."""
        return int("0" + (self.neg if transposed else self.line).translate(_SIGN_BITS[signs]), 2)

    def count(self, mask: int) -> int:
        """How many pairs of acts i < j differ by a difference in ``mask``."""
        selectors = format(mask, f"0{len(self.line)}b").encode().translate(_BYTE_BITS)
        return sum(itertools.compress(self.battery.upper, selectors))

    def rows(self, signs: str, acts=None, transposed: bool = False) -> list[int]:
        """Bitmask rows of ``acts`` (default all): bit j of row i is set where
        the sign of u_i - u_j (of u_j - u_i when ``transposed``) is in ``signs``."""
        line = (self.neg if transposed else self.line).translate(_SIGN_BITS[signs])
        readers = self.battery.readers
        return [int("".join(read(line)), 2)
                for read in (readers if acts is None else map(readers.__getitem__, acts))]

    weak = cached_property(lambda self: self.rows("0+"))
    weak_t = cached_property(lambda self: self.rows("0+", transposed=True))


def _signs(nums) -> str:
    """One "-0+" character per integer, by its sign."""
    return "".join(["-" if x < 0 else "0" if x == 0 else "+" for x in nums])


def _combine(weights: Sequence[int], rows: list[list[int]]) -> list[int]:
    """The sum of ``weights[j] * rows[j]`` over j, position by position."""
    out = [0] * len(rows[0])
    for wt, row in zip(weights, rows):
        out = list(map(operator.add, out, map(wt.__mul__, row)))
    return out


def _lower(x: list[int], y: list[int]) -> list[int]:
    """The entrywise min of two lists; about 3x faster than ``map(min, x, y)``."""
    return [a if a < b else b for a, b in zip(x, y)]


def _upper(x: list[int], y: list[int]) -> list[int]:
    """The entrywise max of two lists."""
    return [a if a > b else b for a, b in zip(x, y)]


def _maxmin(cols: list[list[int]], parts) -> list[int]:
    """The max over the sets of the min over each set's columns, entry by entry.

    ``parts`` are the sets' ranges in ``cols``; the only fold, since
    minmax(d) = -maxmin(-d).  A lone column or set passes through.
    """
    return reduce(_upper, [reduce(_lower, cols[s:e]) for s, e in parts])


class _Runner:
    """One audit's tally: checks, violations, witnesses and boundary cases.

    ``margin_num`` is the one read of a battery pair's margin from
    ``relation``, the table's memoized relation of the model; the mixing
    runners fold their own vectors through ``relation.cols``.  ``fail``
    counts every violation but builds a witness's Fractions only while
    fewer than ``witness_cap`` are kept; ``fail_each`` reads no margin past
    the cap.  A zero read of u_i - u_j sets bit j of ``zero_read[i]``, by
    ``margin_num`` or from a runner's masks; ``all_zeros``, set by runners
    that read every pair, adds every off-diagonal zero.  So ``zero_flags``
    counts each such pair once, whatever the cap, plus ``zeros``, the zeros
    of other vectors and of runners that count in bulk.  The audit passes
    when ``total`` is zero.
    """

    def __init__(self, table: MarginTable, kind: ModelKind, witness_cap: int = WITNESS_CAP):
        self.table = table
        self.relation = table.relation(kind)
        self.zero_read = [0] * table.n
        self.zeros = 0
        self.all_zeros = False
        self.witness_cap = witness_cap
        self.checked = 0
        self.total = 0
        self.witnesses: list[Witness] = []

    def fail(self, indices: tuple[int, ...], nums, note: str, unit: int | None = None) -> None:
        """Count one violation, keeping its witness while under the cap.

        ``nums`` are the witness's integer margin numerators over ``unit``,
        which defaults to the relation's.
        """
        self.total += 1
        if len(self.witnesses) < self.witness_cap:
            den = unit or self.relation.unit
            self.witnesses.append(Witness(indices, tuple(Fraction(x, den) for x in nums), note))

    def fail_each(self, mask: int, witness: Callable[[int], tuple]) -> None:
        """Count each set bit j of ``mask`` as one violation.

        ``witness(j)`` returns the arguments of ``fail`` for violation j.
        It is called for the lowest bits only, while fewer than
        ``witness_cap`` witnesses are kept, so the margins of violations
        past the cap are never read.
        """
        room = max(self.witness_cap - len(self.witnesses), 0)
        for j in itertools.islice(_set_bits(mask), room):
            self.fail(*witness(j))
        self.total += max(mask.bit_count() - room, 0)

    def margin_num(self, i: int, j: int) -> int:
        """Numerator over ``unit`` of the margin for u_i - u_j, marking a zero in ``zero_read``."""
        codes = self.table.battery.codes
        num = self.relation.num[codes[i] - codes[j]]
        if num == 0:
            self.zero_read[i] |= 1 << j
        return num

    def fail_pairs(self, mask: int, note: str) -> None:
        """Count each pair i < j with u_i - u_j in the relation's ``mask`` as one violation."""
        num, rel = self.margin_num, self.relation
        self.fail_rows(format(mask, f"0{len(rel.line)}b"), rel.count(mask),
                       lambda i, j: [((i, j), (num(i, j), num(j, i)), note)])

    def fail_rows(self, hits: str, total: int, failures: Callable[[int, int], list]) -> None:
        """Count ``total`` violations, at the pairs i < j whose u_i - u_j is "1" in ``hits``.

        ``failures(i, j)`` lists the arguments of ``fail`` for each at the
        pair.  Witnesses are kept in (i, j) order, gathering a row of
        ``hits`` per i only until the cap is met or all are seen.
        """
        seen = 0
        for i, read in enumerate(self.table.battery.readers):
            if seen == total or len(self.witnesses) >= self.witness_cap:
                break
            for j in _set_bits(int("".join(read(hits)), 2) >> i + 1 << i + 1):  # the j > i
                if len(self.witnesses) >= self.witness_cap:
                    break  # the rest are counted unread
                for args in failures(i, j):
                    seen += 1
                    self.fail(*args)
        self.total += total - seen

    def weak_matrix(self) -> tuple[list[int], list[int]]:
        """Bitmask rows of the weak-preference relation and of its transpose.

        Built once per (table, model) and shared; callers must not mutate
        them.  Every off-diagonal zero margin counts as a boundary case.
        """
        self.all_zeros = True
        return self.relation.weak, self.relation.weak_t

    @property
    def zero_flags(self) -> int:
        marks = self.zero_read
        if self.all_zeros:  # a mark off the diagonal is one of the relation's zeros
            return self.zeros + self.relation.zeros + sum(m >> i & 1 for i, m in enumerate(marks))
        return self.zeros + sum(m.bit_count() for m in marks)


def _set_bits(mask: int):
    """The positions of the set bits of a non-negative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _run_non_triviality(r: _Runner) -> None:
    n = r.table.n
    for i in range(n):
        for j in range(n):
            if i != j:
                r.checked += 1
                if r.margin_num(i, j) >= 0 and r.margin_num(j, i) < 0:
                    return
    r.total = 1  # the failure is the exhausted search itself


def _run_reflexivity(r: _Runner) -> None:
    for i in range(r.table.n):
        r.checked += 1
        num = r.margin_num(i, i)
        if num < 0:
            r.fail((i,), (num,), "act not weakly preferred to itself")


def _run_unambiguous_completeness(r: _Runner) -> None:
    for (a, va), (b, vb) in itertools.combinations(r.table.battery.constants(), 2):
        r.checked += 1
        ab = r.margin_num(a, b)
        if ab < 0 and (ba := r.margin_num(b, a)) < 0:
            r.fail((a, b), (ab, ba), f"constants {va} and {vb} incomparable")


def _run_unambiguous_transitivity(r: _Runner) -> None:
    w, wt = r.weak_matrix()
    dom = r.table.battery.dominance
    r.checked += 2 * r.table.n * len(dom)
    for f, g in dom:
        for h in _set_bits(w[g] & ~w[f]):
            r.fail((f, g, h), (r.margin_num(g, h), r.margin_num(f, h)),
                   "dominance then weak preference fails to chain")
    for g, h in dom:
        for f in _set_bits(wt[g] & ~wt[h]):
            r.fail((f, g, h), (r.margin_num(f, g), r.margin_num(f, h)),
                   "weak preference then dominance fails to chain")


def _run_monotonicity(r: _Runner) -> None:
    w, _ = r.weak_matrix()
    for i, j in r.table.battery.dominance:
        r.checked += 1
        if not (w[i] >> j) & 1:
            r.fail((i, j), (r.margin_num(i, j),), "statewise dominance not honored")


def _run_independence(r: _Runner) -> None:
    battery, rel, n = r.table.battery, r.relation, r.table.n
    r.checked += len(_MIX_KS) * n * (n - 1) // 2
    base = list(rel.num.values())  # in the order of ``distinct``
    # A pair reads its own margin and each weight's; every zero read counts.
    zeros = sum(itertools.compress(battery.upper, map(operator.not_, base)))
    r.zeros += zeros
    off, total = {}, 0  # per code, each weight where k * d's margin is not k times d's
    for a, k in zip(MIX_GRID, _MIX_KS):
        nums = base if k == 1 else list(map(rel.combine, *rel.cols.differences(k)))
        scaled = base if k == 1 else list(map(k.__mul__, base))
        if nums == scaled:  # so their zeros are the base's
            r.zeros += zeros
            continue
        r.zeros += sum(itertools.compress(battery.upper, map(operator.not_, nums)))
        for c, b, x, m in itertools.compress(zip(battery.distinct, base, nums, battery.upper),
                                             map(operator.ne, nums, scaled)):
            off.setdefault(c, []).append((a, b * _MIX_SCALE, x))
            total += m
    if total:
        codes, unit = battery.codes, rel.unit * _MIX_SCALE
        r.fail_rows("".join(["1" if c in off else "0" for c in battery.distinct]), total,
                    lambda i, j: [((i, j), margins, f"margin not homogeneous at {a}", unit)
                                  for a, *margins in off[codes[i] - codes[j]]])


def _run_completeness(r: _Runner) -> None:
    rel, n = r.relation, r.table.n
    r.checked += n * (n - 1) // 2
    r.all_zeros = True
    # Both margins of an incomparable pair are negative, so none is zero.
    r.fail_pairs(rel.mask("-") & rel.mask("-", transposed=True), "incomparable pair")


def _run_transitivity(r: _Runner) -> None:
    w, _ = r.weak_matrix()
    n, num = r.table.n, r.margin_num
    for i, wi in enumerate(w):
        worse = wi & ~(1 << i)
        r.checked += n * worse.bit_count()
        for j in _set_bits(worse):
            bad = w[j] & ~wi
            if not bad:
                continue
            r.fail_each(bad, lambda h: ((i, j, h), (num(i, j), num(j, h), num(i, h)),
                                        "weak preference fails to chain"))


def _constant_sandwich(r: _Runner, order, bit: int, note: str) -> None:
    """Acts f between constants a and b, for every pair with ``order(va, vb)``.

    Both premises, a vs f and f vs b, must have weak-preference bit ``bit``;
    each such f violates the axiom, since the order leaves its conclusion
    false.  ``note`` is formatted with the two constants' values.  Only the
    constants' rows are gathered, and every off-diagonal zero counts.
    """
    consts = r.table.battery.constants()
    acts = [a for a, _ in consts]
    w, wt = (dict(zip(acts, r.relation.rows("0+", acts, t))) for t in (False, True))
    diagonal = r.relation.num[0] == 0  # every other zero read is one of the relation's
    r.all_zeros = True
    n, num = r.table.n, r.margin_num
    flip = 0 if bit else (1 << n) - 1
    for a, va in consts:
        for b, vb in consts:
            if not order(va, vb):
                continue  # the conclusion already holds
            r.checked += n
            if bad := (w[a] ^ flip) & (wt[b] ^ flip):
                r.zero_read[a] |= diagonal << a & (bad | 1 << b)
                r.zero_read[b] |= diagonal << b & bad
                r.fail_each(bad, lambda f: ((a, f, b), (num(a, f), num(f, b), num(a, b)),
                                            note.format(va, vb)))


def _run_favorable_mixing(r: _Runner) -> None:
    battery = r.table.battery
    # Counted in steps, a resolution-r lattice's mixing box has (16r + 1) **
    # num_states entries, about as many as its distinct d, and fits in n ** 3
    # whatever the radius; irregular denominators make it far larger.
    fits = battery.radix ** battery.num_states <= battery.n ** 3
    _favorable_mixing(r, _box_signs if fits else _distinct_signs)


def _favorable_mixing(r: _Runner, signs: Callable) -> None:
    """Favorable mixing over the margins of every d = k * u_f + (s - k) * u_h - s * u_g.

    ``signs(relation, strict, bases, rests)`` returns ``gather`` and
    ``numerator``: ``gather(wi, h)`` spells the "-0+" sign of d at weight
    ``_MIX_KS[wi]`` for act h and each strict pair, the last pair first, and
    ``numerator(code)`` is the margin numerator of the d with that code.
    """
    w, wt = r.weak_matrix()
    n = r.table.n
    s = _MIX_SCALE
    # Every (f, g) with g strictly better than f, g outer, as witnesses are kept.
    strict = [(f, g) for g in range(n) for f in _set_bits(w[g] & ~wt[g])]
    if not strict:
        return
    # The code of d is the same combination of the acts' codes: per weight,
    # the base of a strict pair plus the rest of act h.
    code = r.table.battery.codes
    rests = [[(s - k) * c for c in code] for k in _MIX_KS]
    bases = [[k * code[f] - s * code[g] for f, g in strict] for k in _MIX_KS]
    gather, numerator = signs(r.relation, strict, bases, rests)

    # Bit p of bad[h] is set when h is unacceptable with strict[p] at some
    # weight and acceptable at a heavier one.
    negative = str.maketrans("-0+", "100")
    bad = []
    for h in range(n):
        worse = below = 0
        for wi in range(len(_MIX_KS)):
            line = gather(wi, h)
            r.zeros += line.count("0")
            mask = int(line.translate(negative), 2)
            worse |= below & ~mask
            below |= mask
        bad.append(worse)
    r.checked += n * len(strict)

    grid, unit = MIX_GRID, r.relation.unit * s

    def witness(p, h):
        nums = [numerator(bs[p] + rest[h]) for bs, rest in zip(bases, rests)]
        lo_w = next(ai for ai, x in enumerate(nums) if x < 0)  # lightest unacceptable
        hi_w = next(ai for ai in range(lo_w, len(nums)) if nums[ai] >= 0)
        return ((*strict[p], h), (nums[hi_w], nums[lo_w]),
                f"acceptable at weight {grid[hi_w]} but not at {grid[lo_w]}", unit)

    # Witnesses in (pair, h) order, gathering the h of a pair only until the cap is met.
    total, seen = sum(map(int.bit_count, bad)), 0
    for p in _set_bits(reduce(operator.or_, bad)):
        if len(r.witnesses) >= r.witness_cap:
            break
        acts = int("".join("01"[m >> p & 1] for m in reversed(bad)), 2)
        seen += acts.bit_count()
        r.fail_each(acts, lambda h: witness(p, h))
    r.total += total - seen


def _box_signs(rel: _Relation, strict, bases, rests):
    """The signs of every d, read from one fold of the battery's mixing box.

    The box's minmax is its maxmin reversed and negated, since -d has index
    size - 1 - index, so one "-0+" line covers every code.  Per weight, one
    gather of the strict pairs' bases reads the slice of the line that
    starts at act h's rest.
    """
    maxmin = rel.cols.box()
    mid = len(maxmin) // 2
    line = _signs(map(rel.combine, maxmin, map(operator.neg, reversed(maxmin))))
    reads = []
    for bs in bases:
        low = min(bs)
        reads.append((operator.itemgetter(*[b - low for b in reversed(bs)]), low + mid))

    def gather(wi, h):
        read, start = reads[wi]
        return "".join(read(line[start + rests[wi][h]:]))  # one pair reads one character

    return gather, lambda c: rel.combine(maxmin[mid + c], -maxmin[mid - c])


def _distinct_signs(rel: _Relation, strict, bases, rests):
    """The signs of every d, folding each distinct d once.

    ``made`` keeps, per code, one (k, f, g, h) that makes its d; codes are
    injective on these vectors, so any such act triple gives the same
    vertex values k * E(u_f) + (s - k) * E(u_h) - s * E(u_g).
    """
    s = _MIX_SCALE
    made = {b + x: (k, f, g, h)
            for k, bs, rest in zip(_MIX_KS, bases, rests)
            for b, (f, g) in zip(bs, strict) for h, x in enumerate(rest)}
    cols = [[k * e[f] + (s - k) * e[h] - s * e[g] for k, f, g, h in made.values()]
            for e in rel.cols.acts]
    num = dict(zip(made, map(rel.combine, *rel.cols.fold(cols))))
    sign = dict(zip(num, _signs(num.values())))
    backwards = [bs[::-1] for bs in bases]

    def gather(wi, h):
        return "".join(map(sign.__getitem__, map(rests[wi][h].__add__, backwards[wi])))

    return gather, num.__getitem__


def _run_negative_completeness(r: _Runner) -> None:
    rel, n = r.relation, r.table.n
    r.checked += n * (n - 1) // 2
    # Each pair reads margin(i, j), and margin(j, i) only when the first is positive.
    positive = rel.mask("+")
    r.zeros += rel.count(rel.mask("0") | positive & rel.mask("0", transposed=True))
    r.fail_pairs(positive & rel.mask("+", transposed=True), "both directions robustly preferred")


_RUNNERS = {
    AxiomKind.NON_TRIVIALITY: _run_non_triviality,
    AxiomKind.REFLEXIVITY: _run_reflexivity,
    AxiomKind.UNAMBIGUOUS_COMPLETENESS: _run_unambiguous_completeness,
    AxiomKind.UNAMBIGUOUS_TRANSITIVITY: _run_unambiguous_transitivity,
    AxiomKind.MONOTONICITY: _run_monotonicity,
    AxiomKind.INDEPENDENCE: _run_independence,
    AxiomKind.COMPLETENESS: _run_completeness,
    AxiomKind.TRANSITIVITY: _run_transitivity,
    AxiomKind.CONSTANT_BOUND_TRANSITIVITY: partial(
        _constant_sandwich, order=operator.lt, bit=1,
        note="act sandwiched between constants {} < {}"),
    AxiomKind.FAVORABLE_MIXING: _run_favorable_mixing,
    AxiomKind.NEGATIVE_COMPLETENESS: _run_negative_completeness,
    AxiomKind.NEGATIVE_CONSTANT_BOUND_TRANSITIVITY: partial(
        _constant_sandwich, order=operator.ge, bit=0,
        note="non-preference fails to chain across constants {} >= {}"),
}


def audit(
    axiom: AxiomKind,
    kind: ModelKind,
    instance: Instance,
    battery: Sequence[Act] | None = None,
    *,
    table: MarginTable | None = None,
    witness_cap: int = WITNESS_CAP,
    battery_desc: str | None = None,
) -> AuditReport:
    """Quantify one axiom over the battery and report the outcome.

    Pass ``table`` to share the cached margin work across several audits of
    the same battery, under any model kinds: each reads its own belief sets'
    columns from it.  Given a table, the battery may be left out, since
    only its length would be read.  A table built for another instance, or
    whose size differs from a given battery's, is rejected, and so is an
    audit with neither.  ``witness_cap`` bounds only how many witnesses are
    kept, never the counts.
    """
    if table is None:
        if battery is None:
            raise ValueError("audit needs a battery or a margin table")
        table = MarginTable(instance, [utility_vector(instance.utility, act) for act in battery])
    elif instance != table.instance:
        raise ValueError("margin table was built for another instance")
    elif battery is not None and table.n != len(battery):
        raise ValueError("margin table does not match this battery")
    r = _Runner(table, kind, witness_cap)
    _RUNNERS[axiom](r)
    return AuditReport(
        axiom=axiom,
        model=describe_model(kind),
        battery=battery_desc or battery_label(instance, table.n, None, None),
        passed=not r.total,
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
    built for another instance is rejected.  The rows are those of the
    table's ``relation(kind)``; the returned list is the caller's own copy.
    """
    if instance != table.instance:
        raise ValueError("margin table was built for another instance")
    rel = table.relation(kind)
    return list(rel.weak), rel.zeros


# audit_suite's last table: (instance, tuple of acts, MarginTable), or None.
_last_table: tuple | None = None


def audit_suite(
    kind: ModelKind,
    instance: Instance,
    battery: Sequence[Act],
    *,
    axioms: Sequence[AxiomKind] | None = None,
    battery_desc: str | None = None,
) -> list[AuditReport]:
    """Run every requested axiom (default: all twelve) over one shared table.

    The table is kept for the next call: a one-entry memo keyed by the
    instance and ``tuple(battery)``, compared with ``==``.  So a caller that
    audits several kinds on one battery, in turn, builds one table and each
    selection of belief sets folds once, whether it passes the same objects
    or equal ones.  A call with another instance or battery drops the entry
    before it builds a new one, so at most one table is live, and the last
    one stays alive until then.  Calls from several threads at once stay
    correct, each on a table of its own arguments, but may each build one.
    There is no option to turn the memo off; ``audit(..., table=)`` shares
    a table explicitly.
    """
    global _last_table
    acts = tuple(battery)
    last = _last_table
    if last is None or last[0] != instance or last[1] != acts:
        _last_table = last = None  # the old table goes before the new one is built
        uvecs = [utility_vector(instance.utility, act) for act in acts]
        _last_table = last = (instance, acts, MarginTable(instance, uvecs))
    return [
        audit(a, kind, instance, acts, table=last[2], battery_desc=battery_desc)
        for a in (axioms if axioms is not None else list(AxiomKind))
    ]
