"""Finite-battery audits of preference axioms against any margin model.

An audit quantifies an axiom over a deterministic battery of acts (a utility
lattice), reports pass or fail, and backs every failure with concrete act
tuples and the margins that witness the violation.  All judgments are sign
tests on integers scaled to a common denominator, so verdicts are exact and
reproducible; a margin that is exactly zero increments ``boundary_flags`` on
the report because the verdict hinged on a boundary case.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .model import (
    Act,
    Instance,
    Prior,
    UtilityVector,
    act_from_utility_vector,
    mix_acts,
    utility_vector,
)
from .margins import (
    AlphaMixture,
    Bewley,
    Conjunctive,
    Disjunctive,
    GeneralizedBewley,
    HalfMixture,
    Justifiable,
    ModelKind,
    SEU,
    describe_model,
    model_margin,
)

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
WITNESS_CAP = 25
_SPOT_CHECK_TRIPLES = 48


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

    Levels run from -radius to radius in steps of radius/resolution on every
    coordinate, realized as lotteries over the two extreme prizes.  The
    enumeration order is the row-major product in declared state order, so
    the same instance and parameters always give the same battery.  Constant
    acts appear as the lattice diagonal; the zero act is always present.
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
    step = radius / resolution
    levels = [-radius + k * step for k in range(2 * resolution + 1)]
    return [
        act_from_utility_vector(instance, combo)
        for combo in itertools.product(levels, repeat=instance.num_states)
    ]


def battery_label(instance: Instance, count: int, resolution: int | None, radius) -> str:
    if resolution is None:
        return f"custom battery of {count} acts on {instance.num_states} states"
    return (
        f"lattice battery resolution={resolution} radius={radius} "
        f"({count} acts on {instance.num_states} states)"
    )


class MarginTable:
    """Vertex expectations of a battery, scaled to one integer denominator.

    Rows are acts, columns are the vertices of every belief set (plus an
    optional extra prior for expected-utility models).  The five composite
    models read two primitives of u_i - u_j, maxmin and minmax, and the
    duality minmax(phi) = -maxmin(-phi) makes one of them enough: a single
    integer matrix M[i][j] = denom * maxmin(u_i - u_j), built lazily in one
    pass over the rows, gives maxmin as M[i][j] and minmax as -M[j][i].  The
    one-group models (Bewley, Justifiable, SEU) read one group's extreme of
    the row differences directly.  Weak relations are memoized on the table
    per model, so every audit of the same battery shares them.
    """

    def __init__(
        self,
        instance: Instance,
        uvecs: Sequence[UtilityVector],
        extra_prior: Prior | None = None,
    ):
        self.instance = instance
        self.uvecs = list(uvecs)
        self.n = len(self.uvecs)
        self.extra_prior = extra_prior
        columns: list[tuple[Fraction, ...]] = []
        self.groups: list[tuple[int, int]] = []
        for bset in instance.collection:
            start = len(columns)
            columns.extend(v.probs for v in bset.vertices)
            self.groups.append((start, len(columns)))
        self.num_set_groups = len(self.groups)
        if extra_prior is not None:
            start = len(columns)
            columns.append(extra_prior.probs)
            self.groups.append((start, len(columns)))

        dv = lcm(*(p.denominator for col in columns for p in col))
        du = lcm(*(e.denominator for vec in self.uvecs for e in vec.entries)) if self.uvecs else 1
        self.denom = dv * du
        int_cols = [tuple(int(p * dv) for p in col) for col in columns]
        self.rows: list[tuple[int, ...]] = []
        for vec in self.uvecs:
            u = tuple(int(e * du) for e in vec.entries)
            self.rows.append(
                tuple(sum(a * b for a, b in zip(u, col)) for col in int_cols)
            )
        self._columns = list(zip(*self.rows))
        self._maxmin: list[list[int]] | None = None
        self._relations: dict[tuple, tuple[list[int], int]] = {}

    def group_row(self, i: int, group: int, extreme) -> list[int]:
        """``extreme`` (min or max) over one group of u_i - u_j, for every j."""
        ri = self.rows[i]
        start, end = self.groups[group]
        return _elementwise(
            extreme, [[ri[c] - x for x in self._columns[c]] for c in range(start, end)]
        )

    def group_extreme(self, i: int, j: int, group: int, extreme) -> int:
        """``extreme`` (min or max) over one group of u_i - u_j."""
        ri, rj = self.rows[i], self.rows[j]
        start, end = self.groups[group]
        return extreme([ri[c] - rj[c] for c in range(start, end)])

    def maxmin_matrix(self) -> list[list[int]]:
        """M[i][j] = denom * maxmin(u_i - u_j); minmax(u_i - u_j) is -M[j][i]."""
        if self._maxmin is None:
            self._maxmin = [
                _elementwise(
                    max, [self.group_row(i, g, min) for g in range(self.num_set_groups)]
                )
                for i in range(self.n)
            ]
        return self._maxmin

    def combo_stats(
        self, coeffs: Sequence[tuple[int, Fraction]]
    ) -> tuple[tuple[tuple[int, int], ...], int]:
        """Stats of an exact linear combination of battery utility vectors.

        Returns per-group (min, max) integers over denom * extra, where
        ``extra`` clears the coefficient denominators.
        """
        extra = lcm(*(c.denominator for _, c in coeffs))
        weights = [(idx, int(c * extra)) for idx, c in coeffs]
        ncols = len(self.rows[0]) if self.rows else 0
        vals = [0] * ncols
        for idx, w in weights:
            if w == 0:
                continue
            row = self.rows[idx]
            for c in range(ncols):
                vals[c] += w * row[c]
        stats = tuple((min(vals[s:e]), max(vals[s:e])) for s, e in self.groups)
        return stats, extra


def _elementwise(fn, lists: list[list[int]]) -> list[int]:
    """``fn`` across equal-length lists, position by position."""
    return lists[0] if len(lists) == 1 else list(map(fn, *lists))


def _resolve_formula(
    kind: ModelKind, instance: Instance, table: MarginTable
) -> tuple[tuple, Callable, int | None, int]:
    """Map a model kind onto (memo key, rule, group index, scale factor).

    A composite kind has no group: its rule folds the scaled (maxmin, minmax)
    pair into one margin, which is scaled by ``factor`` on top of the table
    denominator.  A one-group kind takes its rule (min or max) over that
    group's columns.  The key names the model in full, so two kinds share a
    memoized relation only when they are the same model.
    """
    if isinstance(kind, GeneralizedBewley):
        return ("maxmin",), lambda mm, mx: mm, None, 1
    if isinstance(kind, Disjunctive):
        return ("disjunctive",), max, None, 1
    if isinstance(kind, Conjunctive):
        return ("conjunctive",), min, None, 1
    if isinstance(kind, HalfMixture):
        return ("half",), operator.add, None, 2
    if isinstance(kind, AlphaMixture):
        num, den = kind.alpha.numerator, kind.alpha.denominator
        rest = den - num
        return ("alpha", kind.alpha), lambda mm, mx: num * mm + rest * mx, None, den
    if isinstance(kind, Bewley) or isinstance(kind, Justifiable):
        names = [s.name for s in instance.collection]
        group = names.index(instance.collection.get(kind.set_name).name)
        if isinstance(kind, Bewley):
            return ("bewley", group), min, group, 1
        return ("justifiable", group), max, group, 1
    if isinstance(kind, SEU):
        if table.extra_prior != kind.prior:
            raise ValueError("margin table was not built with this model's prior")
        return ("seu", kind.prior), min, table.num_set_groups, 1
    raise TypeError(f"unknown model kind: {kind!r}")


class _Runner:
    """Margin access for one audit: sign tests, caching, boundary counting."""

    def __init__(self, table: MarginTable, kind: ModelKind, instance: Instance):
        self.table = table
        self.kind = kind
        self.key, self.rule, self.group, self.factor = _resolve_formula(
            kind, instance, table
        )
        self._zero_seen: set[tuple[int, int]] = set()
        self.combo_zeros = 0
        self.matrix_zero_flags = 0

    def _from_stats(self, stats: Sequence[tuple[int, int]]) -> int:
        if self.group is not None:
            return self.rule(stats[self.group])  # (min, max) of the group
        grp = stats[: self.table.num_set_groups]
        return self.rule(max(mn for mn, _ in grp), min(x for _, x in grp))

    def margin_num(self, i: int, j: int) -> int:
        """Scaled numerator of the margin for u_i - u_j (sign-faithful)."""
        if self.group is not None:
            num = self.table.group_extreme(i, j, self.group, self.rule)
        else:
            m = self.table.maxmin_matrix()
            num = self.rule(m[i][j], -m[j][i])
        if num == 0:
            self._zero_seen.add((i, j))
        return num

    def margin(self, i: int, j: int) -> Fraction:
        return Fraction(self.margin_num(i, j), self.table.denom * self.factor)

    def weak(self, i: int, j: int) -> bool:
        return self.margin_num(i, j) >= 0

    def combo_margin(self, coeffs: Sequence[tuple[int, Fraction]]) -> Fraction:
        stats, extra = self.table.combo_stats(coeffs)
        num = self._from_stats(stats)
        if num == 0:
            self.combo_zeros += 1
        return Fraction(num, self.table.denom * self.factor * extra)

    def _margin_rows(self):
        """Each act's margins against every act of the battery, row by row."""
        table = self.table
        if self.group is not None:
            for i in range(table.n):
                yield table.group_row(i, self.group, self.rule)
            return
        m = table.maxmin_matrix()
        for i, col in enumerate(zip(*m)):
            # minmax(u_i - u_j) = -maxmin(u_j - u_i) = -M[j][i]
            yield list(map(self.rule, m[i], [-x for x in col]))

    def weak_matrix(self) -> list[int]:
        """Bitmask rows of the weak-preference relation over the battery.

        Built once per (table, model) and shared; callers must not mutate it.
        """
        memo = self.table._relations
        if self.key not in memo:
            rows = []
            zeros = -self.table.n  # the diagonal is the zero vector, not a boundary
            for values in self._margin_rows():
                bits = "".join(["1" if v >= 0 else "0" for v in reversed(values)])
                rows.append(int(bits, 2))
                zeros += values.count(0)
            memo[self.key] = (rows, zeros)
        rows, self.matrix_zero_flags = memo[self.key]
        return rows

    @property
    def zero_flags(self) -> int:
        return len(self._zero_seen) + self.combo_zeros + self.matrix_zero_flags


@dataclass
class _Outcome:
    passed: bool
    witnesses: list[Witness]
    total: int
    checked: int


def _constants(uvecs: Sequence[UtilityVector]) -> list[tuple[int, Fraction]]:
    return [(i, v.entries[0]) for i, v in enumerate(uvecs) if v.is_constant()]


def _cap_add(out: _Outcome, witness: Witness, cap: int) -> None:
    out.total += 1
    out.passed = False
    if len(out.witnesses) < cap:
        out.witnesses.append(witness)


def _run_non_triviality(r: _Runner, uvecs, instance, cap) -> _Outcome:
    out = _Outcome(False, [], 0, 0)
    for i in range(r.table.n):
        for j in range(r.table.n):
            if i == j:
                continue
            out.checked += 1
            if r.weak(i, j) and not r.weak(j, i):
                out.passed = True
                return out
    return out


def _run_reflexivity(r: _Runner, uvecs, instance, cap) -> _Outcome:
    out = _Outcome(True, [], 0, 0)
    for i in range(r.table.n):
        out.checked += 1
        if not r.weak(i, i):
            _cap_add(out, Witness((i,), (r.margin(i, i),), "act not weakly preferred to itself"), cap)
    return out


def _run_unambiguous_completeness(r: _Runner, uvecs, instance, cap) -> _Outcome:
    consts = _constants(uvecs)
    if not consts:
        raise BatteryMissingConstants("battery has no constant acts")
    out = _Outcome(True, [], 0, 0)
    for (a, va), (b, vb) in itertools.combinations(consts, 2):
        out.checked += 1
        if not r.weak(a, b) and not r.weak(b, a):
            _cap_add(
                out,
                Witness((a, b), (r.margin(a, b), r.margin(b, a)),
                        f"constants {va} and {vb} incomparable"),
                cap,
            )
    return out


def _dominance_pairs(uvecs: Sequence[UtilityVector]) -> list[tuple[int, int]]:
    pairs = []
    for i, vi in enumerate(uvecs):
        for j, vj in enumerate(uvecs):
            if i != j and all(a >= b for a, b in zip(vi.entries, vj.entries)):
                pairs.append((i, j))
    return pairs


def _run_unambiguous_transitivity(r: _Runner, uvecs, instance, cap) -> _Outcome:
    out = _Outcome(True, [], 0, 0)
    w = r.weak_matrix()
    n = r.table.n
    dom = _dominance_pairs(uvecs)
    for f, g in dom:
        wg, wf = w[g], w[f]
        for h in range(n):
            out.checked += 1
            if (wg >> h) & 1 and not (wf >> h) & 1:
                _cap_add(
                    out,
                    Witness((f, g, h), (r.margin(g, h), r.margin(f, h)),
                            "dominance then weak preference fails to chain"),
                    cap,
                )
    for g, h in dom:
        for f in range(n):
            out.checked += 1
            if (w[f] >> g) & 1 and not (w[f] >> h) & 1:
                _cap_add(
                    out,
                    Witness((f, g, h), (r.margin(f, g), r.margin(f, h)),
                            "weak preference then dominance fails to chain"),
                    cap,
                )
    return out


def _run_monotonicity(r: _Runner, uvecs, instance, cap) -> _Outcome:
    out = _Outcome(True, [], 0, 0)
    w = r.weak_matrix()
    for i, j in _dominance_pairs(uvecs):
        out.checked += 1
        if not (w[i] >> j) & 1:
            _cap_add(
                out,
                Witness((i, j), (r.margin(i, j),), "statewise dominance not honored"),
                cap,
            )
    return out


def _run_independence(r: _Runner, uvecs, instance, cap) -> _Outcome:
    out = _Outcome(True, [], 0, 0)
    n = r.table.n
    for i in range(n):
        for j in range(i + 1, n):
            base = r.margin(i, j)
            for a in MIX_GRID:
                out.checked += 1
                scaled = r.combo_margin([(i, a), (j, -a)])
                if scaled != a * base:
                    _cap_add(
                        out,
                        Witness((i, j), (base, scaled), f"margin not homogeneous at {a}"),
                        cap,
                    )
    # Spot checks through the slow path: real mixed acts, judged end to end.
    total = n * n * n
    stride = max(1, total // _SPOT_CHECK_TRIPLES)
    battery_acts = [act_from_utility_vector(instance, v.entries) for v in uvecs]
    for flat in range(0, total, stride):
        f, rem = divmod(flat, n * n)
        g, h = divmod(rem, n)
        for a in MIX_GRID:
            out.checked += 1
            plain = r.weak(f, g)
            # Mix both sides with the same third act h and judge end to end.
            left = mix_acts(a, battery_acts[f], battery_acts[h])
            right = mix_acts(a, battery_acts[g], battery_acts[h])
            phi = utility_vector(instance.utility, left) - utility_vector(
                instance.utility, right
            )
            mixed = model_margin(r.kind, instance.collection, phi) >= 0
            if mixed != plain:
                _cap_add(
                    out,
                    Witness((f, g, h), (r.margin(f, g),),
                            f"mixing with weight {a} flipped the judgment"),
                    cap,
                )
    return out


def _run_completeness(r: _Runner, uvecs, instance, cap) -> _Outcome:
    out = _Outcome(True, [], 0, 0)
    w = r.weak_matrix()
    n = r.table.n
    for i in range(n):
        wi = w[i]
        for j in range(i + 1, n):
            out.checked += 1
            if not (wi >> j) & 1 and not (w[j] >> i) & 1:
                _cap_add(
                    out,
                    Witness((i, j), (r.margin(i, j), r.margin(j, i)), "incomparable pair"),
                    cap,
                )
    return out


def _run_transitivity(r: _Runner, uvecs, instance, cap) -> _Outcome:
    out = _Outcome(True, [], 0, 0)
    w = r.weak_matrix()
    n = r.table.n
    for i in range(n):
        wi = w[i]
        for j in range(n):
            if i == j or not (wi >> j) & 1:
                continue
            out.checked += n
            bad = w[j] & ~wi
            while bad:
                low = bad & -bad
                h = low.bit_length() - 1
                bad ^= low
                _cap_add(
                    out,
                    Witness((i, j, h),
                            (r.margin(i, j), r.margin(j, h), r.margin(i, h)),
                            "weak preference fails to chain"),
                    cap,
                )
    return out


def _run_cbt(r: _Runner, uvecs, instance, cap) -> _Outcome:
    consts = _constants(uvecs)
    if not consts:
        raise BatteryMissingConstants("battery has no constant acts")
    out = _Outcome(True, [], 0, 0)
    w = r.weak_matrix()
    n = r.table.n
    for a, va in consts:
        for b, vb in consts:
            if va >= vb:
                continue  # the conclusion already holds
            for f in range(n):
                out.checked += 1
                if (w[a] >> f) & 1 and (w[f] >> b) & 1:
                    _cap_add(
                        out,
                        Witness((a, f, b),
                                (r.margin(a, f), r.margin(f, b), r.margin(a, b)),
                                f"act sandwiched between constants {va} < {vb}"),
                        cap,
                    )
    return out


def _run_favorable_mixing(r: _Runner, uvecs, instance, cap) -> _Outcome:
    out = _Outcome(True, [], 0, 0)
    w = r.weak_matrix()
    n = r.table.n
    grid = sorted(MIX_GRID)
    for g in range(n):
        for f in range(n):
            if f == g or not (w[g] >> f) & 1 or (w[f] >> g) & 1:
                continue  # need g strictly better than f
            for h in range(n):
                out.checked += 1
                mixed = [
                    r.combo_margin([(f, lam), (h, 1 - lam), (g, Fraction(-1))])
                    for lam in grid
                ]
                for ai, a in enumerate(grid):
                    if mixed[ai] < 0:
                        continue
                    for li in range(ai):
                        if mixed[li] < 0:
                            _cap_add(
                                out,
                                Witness(
                                    (f, g, h),
                                    (mixed[ai], mixed[li]),
                                    f"acceptable at weight {a} but not at {grid[li]}",
                                ),
                                cap,
                            )
                            break
                    else:
                        continue
                    break
    return out


def _run_negative_completeness(r: _Runner, uvecs, instance, cap) -> _Outcome:
    out = _Outcome(True, [], 0, 0)
    n = r.table.n
    for i in range(n):
        for j in range(i + 1, n):
            out.checked += 1
            if r.margin_num(i, j) > 0 and r.margin_num(j, i) > 0:
                _cap_add(
                    out,
                    Witness((i, j), (r.margin(i, j), r.margin(j, i)),
                            "both directions robustly preferred"),
                    cap,
                )
    return out


def _run_negative_cbt(r: _Runner, uvecs, instance, cap) -> _Outcome:
    consts = _constants(uvecs)
    if not consts:
        raise BatteryMissingConstants("battery has no constant acts")
    out = _Outcome(True, [], 0, 0)
    w = r.weak_matrix()
    n = r.table.n
    for a, va in consts:
        for b, vb in consts:
            if va < vb:
                continue  # conclusion x not-weakly-preferred to y can't be violated
            for f in range(n):
                out.checked += 1
                if not (w[a] >> f) & 1 and not (w[f] >> b) & 1:
                    _cap_add(
                        out,
                        Witness((a, f, b),
                                (r.margin(a, f), r.margin(f, b), r.margin(a, b)),
                                f"non-preference fails to chain across constants {va} >= {vb}"),
                        cap,
                    )
    return out


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
    the same battery; a table built for a different battery or missing the
    model's prior is rejected.
    """
    if table is None or (isinstance(kind, SEU) and table.extra_prior != kind.prior):
        uvecs = [utility_vector(instance.utility, act) for act in battery]
        table = MarginTable(
            instance, uvecs, extra_prior=kind.prior if isinstance(kind, SEU) else None
        )
    elif table.n != len(battery):
        raise ValueError("margin table does not match this battery")
    else:
        uvecs = table.uvecs
    runner = _Runner(table, kind, instance)
    outcome = _RUNNERS[axiom](runner, uvecs, instance, witness_cap)
    if axiom is AxiomKind.NON_TRIVIALITY and not outcome.passed:
        outcome.total = 1  # the failure is the exhausted search itself
    return AuditReport(
        axiom=axiom,
        model=describe_model(kind),
        battery=battery_desc
        or battery_label(instance, len(battery), None, None),
        passed=outcome.passed,
        witnesses=tuple(outcome.witnesses),
        total_violations=outcome.total,
        checked=outcome.checked,
        boundary_flags=runner.zero_flags,
    )


def weak_relation(
    table: MarginTable, kind: ModelKind, instance: Instance
) -> tuple[list[int], int]:
    """Bitmask rows of the model's weak preference over the table's battery.

    Row i has bit j set when act i is weakly preferred to act j.  Also
    returns how many of the consulted margins were exactly zero, since those
    judgments sit on the boundary of the relation.  The relation is memoized
    on the table; the returned list is the caller's own copy.
    """
    runner = _Runner(table, kind, instance)
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
    uvecs = [utility_vector(instance.utility, act) for act in battery]
    table = MarginTable(
        instance, uvecs, extra_prior=kind.prior if isinstance(kind, SEU) else None
    )
    return [
        audit(a, kind, instance, battery, table=table, battery_desc=battery_desc)
        for a in (axioms if axioms is not None else list(AxiomKind))
    ]
