"""Small exact linear programming solver for boxed, slack-started programs.

The accepted class is the one the package's separation program lies in:
every variable has a finite lower and upper bound, every row is '<=' or
'>=', and every row holds at the corner where each variable sits on its
lower bound.  Such a program is feasible and bounded, so it always has an
optimum; anything outside the class raises ``ValueError``.  Coefficients,
right-hand sides and bounds are ints or Fractions.

Column j of the tableau holds x_j - lower_j >= 0, so no variable is ever
split, and each row's rhs shifts to rhs - coeffs . lower.  Each row, the
upper bounds' rows included, is read in by ``model.scaled``, as integers
over the lcm of the denominators of its coefficients and its shifted rhs; a
'>=' row is negated into a '<=' row, whose shifted rhs is then nonnegative,
so row i starts on its own +1 slack, column n + i.

Primal simplex with Bland's smallest-index rule for both entering and
leaving variables, so cycling is impossible.  The tableau is kept
fraction-free: each row, the reduced-cost row included, is a list of Python
ints that stands for the row divided by one positive denominator (for a
constraint row, its basic entry).  A pivot cross-multiplies and divides each
changed row by its gcd, and ratio ties are compared by cross-multiplying, so
every pivot is the one exact rational arithmetic would take; Fractions appear
only in the objective and the returned point.  Problem sizes in this package
are tiny (a handful of variables, a few dozen rows), so a dense tableau is
enough.  Optimal points are re-checked on integers before being returned:
the point is brought to one common denominator and tested against every
constraint as given, and then against every bound.

An optimum also carries each row's dual: the reduced cost of its slack
column in the final cost row, negated for a '<=' row, so exact up to the
cost row's one positive scale.  The duals are not checked here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import primitive, scaled

__all__ = ["Constraint", "LinearProgram", "Optimal", "solve"]

LE, GE = "<=", ">="
_COMPARE = {LE: operator.le, GE: operator.ge}


@dataclass(frozen=True)
class Constraint:
    """coeffs . x  (cmp)  rhs, with cmp one of '<=', '>='."""

    coeffs: tuple[Fraction | int, ...]
    cmp: str
    rhs: Fraction | int

    def __post_init__(self) -> None:
        if self.cmp not in _COMPARE:
            raise ValueError(f"comparison must be one of <=, >=; got {self.cmp!r}")

    def holds_at(self, point: Sequence[Fraction | int]) -> bool:
        value = sum((c * x for c, x in zip(self.coeffs, point)), Fraction(0))
        return _COMPARE[self.cmp](value, self.rhs)


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to constraints and per-variable bounds.

    ``lower`` and ``upper`` are required, with a finite bound for every
    variable; a missing bound or a None one raises ``ValueError``.
    """

    num_vars: int
    objective: tuple[Fraction | int, ...]
    constraints: tuple[Constraint, ...]
    lower: tuple[Fraction | int, ...] | None = None
    upper: tuple[Fraction | int, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        for row in self.constraints:
            if len(row.coeffs) != self.num_vars:
                raise ValueError("constraint width does not match num_vars")
        for name, bounds in (("lower", self.lower), ("upper", self.upper)):
            if bounds is None or None in bounds:
                raise ValueError(f"every variable needs a finite {name} bound")
            if len(bounds) != self.num_vars:
                raise ValueError("bounds length does not match num_vars")


@dataclass(frozen=True)
class Optimal:
    """An optimum, its point and f * y_i for each constraint i and one f > 0.

    y_i multiplies row i in objective . x + sum_i y_i (coeffs_i . x - rhs_i):
    y_i >= 0 on '>=', y_i <= 0 on '<='.  If some optimum binds no variable
    bound, objective + sum_i y_i coeffs_i = 0.
    """

    value: Fraction
    point: tuple[Fraction, ...]
    duals: tuple[int, ...] = ()


_ZERO = Fraction(0)


def _pivot(tableau: list[list[int]], basis: list[int], row: int, col: int) -> None:
    """Make ``col`` basic in ``row``; every other row, the cost row too, loses it.

    Each row is a list of ints whose basic entry is positive and acts as the
    row's denominator, so the row is exact without Fractions: eliminating
    ``col`` from another row cross-multiplies by the pivot entry, and the
    result is divided by its gcd to keep the integers small.  The ratio test
    picks only positive entries, so the pivot row keeps a positive basic entry.
    """
    pivot_row = tableau[row]
    p = pivot_row[col]
    for i, other in enumerate(tableau):
        scale = other[col]
        if i == row or not scale:
            continue
        tableau[i] = primitive([p * a - scale * b for a, b in zip(other, pivot_row)])
    basis[row] = col


def _simplex(tableau: list[list[int]], basis: list[int]) -> None:
    """Minimize the cost row (the last row) of a bounded program."""
    nrows = len(tableau) - 1
    while True:
        costs = tableau[-1]
        entering = next(
            (j for j in range(len(costs) - 1) if costs[j] < 0), -1
        )  # Bland: smallest index wins
        if entering < 0:
            return
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
        if leaving < 0:  # a boxed program has no unbounded ray
            raise RuntimeError(f"column {entering} has no leaving row in a boxed program")
        _pivot(tableau, basis, leaving, entering)


def solve(lp: LinearProgram) -> Optimal:
    """Solve the program exactly; the returned point is verified feasible.

    Raises ``ValueError`` when a row fails at the lower-bound corner.
    """
    n = lp.num_vars
    lower = lp.lower
    rows = [(con.coeffs, con.cmp, con.rhs) for con in lp.constraints]
    rows += [(tuple(int(k == j) for k in range(n)), LE, hi) for j, hi in enumerate(lp.upper)]
    # Column j holds x_j - lower_j >= 0, so each rhs shifts by the bounds.
    # Every body row is made primitive below, so its scale is immaterial.
    # A '>=' row is negated into a '<=' one; a nonnegative shifted rhs then
    # lets row i start on its own +1 slack, column n + i.
    body: list[list[int]] = []
    for i, (coeffs, cmp, rhs) in enumerate(rows):
        scale, ints = scaled((*coeffs, rhs - sum(c * lo for c, lo in zip(coeffs, lower) if c)))
        if cmp == GE:
            ints = [-v for v in ints]
        if ints[-1] < 0:
            k = i - len(lp.constraints)
            what = f"constraint {i}, {lp.constraints[i]}," if k < 0 else f"variable {k}'s upper bound"
            raise ValueError(f"{what} fails at the lower-bound corner")
        row = ints[:-1] + [0] * len(rows) + ints[-1:]
        row[n + i] = scale
        body.append(primitive(row))
    basis = list(range(n, n + len(rows)))

    # Minimize the negated objective.  Every starting basic column is a
    # zero-cost slack, so the cost row needs no reduction.
    body.append(primitive(scaled([-c for c in lp.objective] + [0] * (len(rows) + 1))[1]))
    _simplex(body, basis)
    # Each slack is +1 on its row as read in, and a '>=' row was read in
    # negated, so a '<=' row's dual is its slack's reduced cost negated and a
    # '>=' row's is that cost itself; row scaling keeps reduced costs.
    costs = body.pop()
    duals = tuple(
        costs[n + i] * (-1 if con.cmp == LE else 1) for i, con in enumerate(lp.constraints)
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
    for j, (lo, x, hi) in enumerate(zip(lp.lower, point, lp.upper)):
        if not lo <= x <= hi:
            raise RuntimeError(f"solver violated a bound on variable {j}")
