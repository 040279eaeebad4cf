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
fraction-free and compact.  Of the n + m columns (n variables, m slacks)
exactly n are non-basic at a time; every basic column is a unit column, so
it is not stored.  Row i is a list of Python ints: its entries at the n non-basic
columns, then its basic entry, positive, and its rhs; it stands for the
full row divided by that basic entry.  The cost row has the same layout,
with a basic entry of 0.  One list of labels is the basis: label i names
row i's basic variable and label m + k the variable of non-basic slot k.
A pivot swaps the entering and leaving labels, cross-multiplies each
changed row and divides it by its gcd, and ratio ties are compared by
cross-multiplying, so every pivot is the one exact rational arithmetic would
take; Fractions appear only in the objective and the returned point.
Problem sizes in this package are tiny (a handful of variables, a few dozen
rows), so dense rows are enough.  Optimal points are re-checked on integers
before being returned: the point is brought to one common denominator and
tested against every constraint as given, and then against every bound.

An optimum also carries each row's dual: the reduced cost of its slack
column in the final cost row (0 for a basic slack), negated for a '<=' row,
so exact up to the cost row's one positive scale.  A full tableau's cost
row holds the same ints, since its basic columns read 0 and zeros change no
gcd.  The duals are not checked here.
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


def _pivot(tableau: list[list[int]], labels: list[int], row: int, col: int) -> None:
    """Make variable ``col`` basic in ``row``; every other row, the cost row too, loses it.

    Let p be the pivot row's entry in ``col``'s slot k and d its basic entry.
    Another row with entry a in slot k becomes p * row - a * pivot row, divided
    by its gcd; its slot k then holds the leaving variable's column, -a * d,
    and its basic entry becomes p times the old one (0 stays 0 on the cost
    row).  The pivot row only trades p and d, and the two labels swap.  The
    ratio test picks only positive entries, so every basic entry stays
    positive.
    """
    m = len(tableau) - 1
    k = labels.index(col, m) - m
    pivot_row = tableau[row]
    p, d = pivot_row[k], pivot_row[-2]
    for i, other in enumerate(tableau):
        a = other[k]
        if i == row or not a:
            continue
        new = [p * x - a * y for x, y in zip(other, pivot_row)]
        new[k], new[-2] = -a * d, p * other[-2]
        tableau[i] = primitive(new)
    pivot_row[k], pivot_row[-2] = d, p
    labels[row], labels[m + k] = col, labels[row]


def _simplex(tableau: list[list[int]], labels: list[int]) -> None:
    """Minimize the cost row (the last row) of a bounded program."""
    nrows = len(tableau) - 1
    while True:
        costs = tableau[-1]
        # Bland: the smallest variable label with a negative cost enters.
        entering = min(
            (label for label, c in zip(labels[nrows:], costs) if c < 0), default=-1
        )
        if entering < 0:
            return
        k = labels.index(entering, nrows) - nrows
        leaving = -1
        for i in range(nrows):
            tab_row = tableau[i]
            coef = tab_row[k]
            if coef > 0:
                if leaving < 0:
                    leaving = i
                    continue
                # rhs_i / coef_i against the best ratio, cross-multiplied;
                # the rows' denominators cancel within each ratio.
                best = tableau[leaving]
                lhs = tab_row[-1] * best[k]
                rhs = best[-1] * coef
                if lhs < rhs or (lhs == rhs and labels[i] < labels[leaving]):
                    leaving = i
        if leaving < 0:  # a boxed program has no unbounded ray
            raise RuntimeError(f"column {entering} has no leaving row in a boxed program")
        _pivot(tableau, labels, leaving, entering)


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
    # lets row i start on its own +1 slack, variable n + i, as its basic
    # entry, with the n variables non-basic.
    body: list[list[int]] = []
    for i, (coeffs, cmp, rhs) in enumerate(rows):
        scale, ints = scaled((*coeffs, rhs - sum(c * lo for c, lo in zip(coeffs, lower) if c)))
        if cmp == GE:
            ints = [-v for v in ints]
        if ints[-1] < 0:
            k = i - len(lp.constraints)
            what = f"constraint {i}, {lp.constraints[i]}," if k < 0 else f"variable {k}'s upper bound"
            raise ValueError(f"{what} fails at the lower-bound corner")
        body.append(primitive(ints[:-1] + [scale] + ints[-1:]))
    m = len(rows)
    labels = [*range(n, n + m), *range(n)]

    # Minimize the negated objective.  Every starting basic column is a
    # zero-cost slack, so the cost row needs no reduction.
    body.append(primitive(scaled([-c for c in lp.objective] + [0, 0])[1]))
    _simplex(body, labels)
    # Each slack is +1 on its row as read in, and a '>=' row was read in
    # negated, so a '<=' row's dual is its slack's reduced cost negated and a
    # '>=' row's is that cost itself; row scaling keeps reduced costs.  A
    # basic slack's reduced cost is 0.
    reduced = dict(zip(labels[m:], body.pop()))
    duals = tuple(
        reduced.get(n + i, 0) * (-1 if con.cmp == LE else 1)
        for i, con in enumerate(lp.constraints)
    )

    values = [_ZERO] * n
    for row, b in zip(body, labels):
        if b < n:
            values[b] = Fraction(row[-1], row[-2])
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
