"""Small exact linear programming solver over rationals.

Programs are box-bounded: every variable has a finite lower bound and an
optional upper bound, which is all the separation program of this package
needs.  Coefficients, right-hand sides and bounds are ints or Fractions.
Column j of the tableau holds x_j - lower_j >= 0, so
no variable is ever split, and each row's rhs shifts to rhs - coeffs . lower.
Each row is read in by ``model.scaled``, as integers over the lcm of the
denominators of its coefficients and its shifted rhs.

Primal simplex with Bland's smallest-index rule for both entering and
leaving variables, so cycling is impossible.  Every inequality row whose
slack, once the row is signed to a nonnegative shifted rhs, has coefficient
+1 starts on that slack: a '<=' row with a nonnegative shifted rhs or a '>='
row with a negative one.  Phase 1 runs only when some row cannot start on
its slack (an equality row, a '<=' row with a negative shifted rhs or a '>='
row with a nonnegative one), and only those rows get an artificial column.
The tableau is kept fraction-free: each row, the reduced-cost row included, is a list of Python
ints that stands for the row divided by one positive denominator (for a
constraint row, its basic entry).  A pivot cross-multiplies and divides each
changed row by its gcd, and ratio ties are compared by cross-multiplying, so
every pivot is the one exact rational arithmetic would take; Fractions appear
only in the objective and the returned point.  Problem sizes in this package
are tiny (a handful of variables, a few dozen rows), so a dense tableau is
enough.  Optimal points are re-checked on integers before being returned:
the point is brought to one common denominator and tested against every
constraint as given, and then against every bound.

An optimum also carries each inequality's dual: the reduced cost of its
slack column in the final cost row, negated for a '<=' row, so exact up to
the cost row's one positive scale.  The duals are not checked here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .model import primitive, scaled

__all__ = [
    "Constraint",
    "LinearProgram",
    "Optimal",
    "Infeasible",
    "Unbounded",
    "LpOutcome",
    "solve",
]

LE, EQ, GE = "<=", "==", ">="
_COMPARE = {LE: operator.le, EQ: operator.eq, GE: operator.ge}


@dataclass(frozen=True)
class Constraint:
    """coeffs . x  (cmp)  rhs, with cmp one of '<=', '==', '>='."""

    coeffs: tuple[Fraction | int, ...]
    cmp: str
    rhs: Fraction | int

    def __post_init__(self) -> None:
        if self.cmp not in (LE, EQ, GE):
            raise ValueError(f"comparison must be one of <=, ==, >=; got {self.cmp!r}")

    def holds_at(self, point: Sequence[Fraction | int]) -> bool:
        value = sum((c * x for c, x in zip(self.coeffs, point)), Fraction(0))
        if self.cmp == LE:
            return value <= self.rhs
        if self.cmp == GE:
            return value >= self.rhs
        return value == self.rhs


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to constraints and per-variable bounds.

    ``lower`` is required and finite for every variable; ``upper`` may be
    omitted, or hold None for a variable unbounded above.
    """

    num_vars: int
    objective: tuple[Fraction | int, ...]
    constraints: tuple[Constraint, ...]
    lower: tuple[Fraction | int, ...] | None = None
    upper: tuple[Fraction | int | None, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        for row in self.constraints:
            if len(row.coeffs) != self.num_vars:
                raise ValueError("constraint width does not match num_vars")
        for bounds in (self.lower, self.upper):
            if bounds is not None and len(bounds) != self.num_vars:
                raise ValueError("bounds length does not match num_vars")
        if self.lower is None or None in self.lower:
            raise ValueError("every variable needs a finite lower bound")


@dataclass(frozen=True)
class Optimal:
    """An optimum, its point and f * y_i for each constraint i and one f > 0.

    y_i multiplies row i in objective . x + sum_i y_i (coeffs_i . x - rhs_i):
    y_i >= 0 on '>=', y_i <= 0 on '<=', None on '=='.  If some optimum binds
    no variable bound, objective + sum_i y_i coeffs_i = 0.
    """

    value: Fraction
    point: tuple[Fraction, ...]
    duals: tuple[int | None, ...] = ()


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class Unbounded:
    pass


LpOutcome = Optimal | Infeasible | Unbounded

_ZERO = Fraction(0)


def _pivot(tableau: list[list[int]], basis: list[int], row: int, col: int) -> None:
    """Make ``col`` basic in ``row``; every other row, the cost row too, loses it.

    Each row is a list of ints whose basic entry is positive and acts as the
    row's denominator, so the row is exact without Fractions: eliminating
    ``col`` from another row cross-multiplies by the pivot entry, and the
    result is divided by its gcd to keep the integers small.
    """
    pivot_row = tableau[row]
    p = pivot_row[col]
    if p < 0:
        pivot_row = tableau[row] = [-v for v in pivot_row]
        p = -p
    for i, other in enumerate(tableau):
        scale = other[col]
        if i == row or not scale:
            continue
        tableau[i] = primitive([p * a - scale * b for a, b in zip(other, pivot_row)])
    basis[row] = col


def _cost_row(body: list[list[int]], basis: list[int], cost: Sequence[Fraction | int]) -> list[int]:
    """Reduced costs c_j - c_B . column_j of the canonical rows, as an int row.

    The row is a positive multiple of the exact reduced costs, so its signs
    are theirs; its last entry is -c_B . rhs on the same scale.
    """
    ints = primitive(scaled([*cost, 0])[1])
    dens = [body[i][b] for i, b in enumerate(basis) if ints[b]]
    scale = lcm(*dens)
    out = [scale * c for c in ints]
    for row, b in zip(body, basis):
        if ints[b]:
            factor = ints[b] * (scale // row[b])
            out = [o - factor * v for o, v in zip(out, row)]
    return primitive(out)


def _simplex(tableau: list[list[int]], basis: list[int], allowed: Sequence[bool]) -> str:
    """Minimize the cost row (the last row); returns 'optimal' or 'unbounded'."""
    nrows = len(tableau) - 1
    while True:
        costs = tableau[-1]
        entering = next(
            (j for j in range(len(costs) - 1) if costs[j] < 0 and allowed[j]), -1
        )  # Bland: smallest index wins
        if entering < 0:
            return "optimal"
        leaving = -1
        for i in range(nrows):
            tab_row = tableau[i]
            coef = tab_row[entering]
            if coef > 0:
                if leaving < 0:
                    leaving = i
                    continue
                # rhs_i / coef_i against the best ratio, cross-multiplied;
                # the rows' denominators cancel within each ratio.
                best = tableau[leaving]
                lhs = tab_row[-1] * best[entering]
                rhs = best[-1] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve the program exactly; the returned point is verified feasible."""
    n = lp.num_vars
    lower = lp.lower
    rows = [(con.coeffs, con.cmp, con.rhs) for con in lp.constraints]
    rows += [
        (tuple(int(k == j) for k in range(n)), LE, hi)
        for j, hi in enumerate(lp.upper or ())
        if hi is not None
    ]
    # Column j holds x_j - lower_j >= 0, so each rhs shifts by the bounds.
    # Every body row is made primitive below, so its scale is immaterial.
    read = []
    for coeffs, cmp, rhs in rows:
        scale, ints = scaled((*coeffs, rhs - sum(c * lo for c, lo in zip(coeffs, lower) if c)))
        read.append((ints[:-1], cmp, ints[-1], scale))
    # A row with a negative shifted rhs is negated below, so a '<=' row with a
    # nonnegative shifted rhs and a '>=' row with a negative one both have a
    # +1 slack and start on it; only the other rows get an artificial column.
    starts_basic = [cmp != EQ and (cmp == LE) == (shifted >= 0) for _, cmp, shifted, _ in read]
    total_cols = n + sum(cmp != EQ for _, cmp, _ in rows)
    full_cols = total_cols + starts_basic.count(False)
    body: list[list[int]] = []
    basis: list[int] = []
    slack_at, art_at = n, total_cols
    for (ints, cmp, shifted, scale), slack_basic in zip(read, starts_basic):
        sign = -1 if shifted < 0 else 1
        row = [-v for v in ints] if sign < 0 else ints
        row += [0] * (full_cols - n) + [abs(shifted)]
        if cmp != EQ:
            row[slack_at] = (sign if cmp == LE else -sign) * scale
            slack_at += 1
        if slack_basic:
            basis.append(slack_at - 1)
        else:
            row[art_at] = scale
            basis.append(art_at)
            art_at += 1
        body.append(primitive(row))

    if full_cols > total_cols:
        phase1_cost = [0] * total_cols + [1] * (full_cols - total_cols)
        body.append(_cost_row(body, basis, phase1_cost))
        status = _simplex(body, basis, [True] * full_cols)
        assert status == "optimal"  # phase 1 is bounded below by zero
        body.pop()
        # Every rhs is nonnegative, so the residual is positive iff one is.
        if any(row[-1] for row, b in zip(body, basis) if b >= total_cols):
            return Infeasible()
        # Drive leftover zero-level artificials out of the basis.
        for i in range(len(body) - 1, -1, -1):
            if basis[i] < total_cols:
                continue
            pivot_col = next(
                (j for j in range(total_cols) if body[i][j] != 0), None
            )
            if pivot_col is None:
                del body[i]
                del basis[i]
            else:
                _pivot(body, basis, i, pivot_col)

    # Minimize the negated objective.
    phase2_cost = [-c for c in lp.objective] + [0] * (full_cols - n)
    body.append(_cost_row(body, basis, phase2_cost))
    status = _simplex(body, basis, [j < total_cols for j in range(full_cols)])
    if status == "unbounded":
        return Unbounded()
    # Slacks are +1 on '<=' and -1 on '>=' rows; row scaling keeps reduced costs.
    slacks = iter(body.pop()[n:total_cols])
    duals = tuple(
        None if con.cmp == EQ else next(slacks) * (-1 if con.cmp == LE else 1)
        for con in lp.constraints
    )

    values = [_ZERO] * n
    for row, b in zip(body, basis):
        if b < n:
            values[b] = Fraction(row[-1], row[b])
    point = tuple(v + lo for v, lo in zip(values, lower))
    objective_value = sum((c * x for c, x in zip(lp.objective, point)), _ZERO)
    _check_point(lp, point)
    return Optimal(objective_value, point, duals)


def _check_point(lp: LinearProgram, point: Sequence[Fraction]) -> None:
    """Re-check every constraint and bound at ``point``, on integers.

    The point is brought to one common denominator P, and each constraint's
    coefficients and rhs to integers over their own lcm, so the row is
    tested as coeffs . (P * point) against rhs * P.  The constraints are
    read as given, independently of the tableau.
    """
    common, nums = scaled(point)
    for con in lp.constraints:
        _, ints = scaled((*con.coeffs, con.rhs))
        value = sum(c * x for c, x in zip(ints, nums) if c)
        if not _COMPARE[con.cmp](value, ints[-1] * common):
            raise RuntimeError(f"solver returned a point violating {con}")
    upper = lp.upper or (None,) * lp.num_vars
    for j, (lo, x, hi) in enumerate(zip(lp.lower, point, upper)):
        if x < lo or (hi is not None and x > hi):
            raise RuntimeError(f"solver violated a bound on variable {j}")
