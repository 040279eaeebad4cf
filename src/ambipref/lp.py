"""Small exact linear programming solver over rationals.

Programs are box-bounded: every variable has a finite lower bound and an
optional upper bound, which is all the separation and common-prior programs
of this package need.  Column j of the tableau holds x_j - lower_j >= 0, so
no variable is ever split, and each row is read straight into integers.

Two-phase primal simplex with Bland's smallest-index rule for both entering
and leaving variables, so cycling is impossible.  The tableau is kept
fraction-free: each row, the reduced-cost row included, is a list of Python
ints that stands for the row divided by one positive denominator (for a
constraint row, its basic entry).  A pivot cross-multiplies and divides each
changed row by its gcd, and ratio ties are compared by cross-multiplying, so
every pivot is the one exact rational arithmetic would take; Fractions appear
only in the shifted rhs, the objective and the returned point.  Problem sizes
in this package are tiny (a handful of variables, a few dozen rows), so a
dense tableau is enough.  Optimal points are re-checked against every
constraint in Fractions before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

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


@dataclass(frozen=True)
class Constraint:
    """coeffs . x  (cmp)  rhs, with cmp one of '<=', '==', '>='."""

    coeffs: tuple[Fraction, ...]
    cmp: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.cmp not in (LE, EQ, GE):
            raise ValueError(f"comparison must be one of <=, ==, >=; got {self.cmp!r}")

    def holds_at(self, point: Sequence[Fraction]) -> bool:
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
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    lower: tuple[Fraction, ...] | None = None
    upper: tuple[Fraction | None, ...] | None = None

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
    value: Fraction
    point: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class Unbounded:
    pass


LpOutcome = Optimal | Infeasible | Unbounded

_ZERO = Fraction(0)


def _reduced(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _integer_row(values: Sequence[Fraction | int]) -> list[int]:
    """The smallest integer row with the same ratios (a positive multiple)."""
    scale = lcm(*(v.denominator for v in values))
    return _reduced([v.numerator * (scale // v.denominator) for v in values])


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
        tableau[i] = _reduced([p * a - scale * b for a, b in zip(other, pivot_row)])
    basis[row] = col


def _cost_row(body: list[list[int]], basis: list[int], cost: Sequence[Fraction | int]) -> list[int]:
    """Reduced costs c_j - c_B . column_j of the canonical rows, as an int row.

    The row is a positive multiple of the exact reduced costs, so its signs
    are theirs; its last entry is -c_B . rhs on the same scale.
    """
    ints = _integer_row(list(cost) + [0])
    dens = [body[i][b] for i, b in enumerate(basis) if ints[b]]
    scale = lcm(*dens)
    out = [scale * c for c in ints]
    for row, b in zip(body, basis):
        if ints[b]:
            factor = ints[b] * (scale // row[b])
            out = [o - factor * v for o, v in zip(out, row)]
    return _reduced(out)


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
    shifted = [
        rhs - sum((c * lo for c, lo in zip(coeffs, lower) if c and lo), _ZERO)
        for coeffs, _, rhs in rows
    ]
    # A row whose slack can start basic (a +1 slack once the rhs is made
    # nonnegative) takes it; every other row gets an artificial column.
    starts_basic = [cmp == LE and rhs >= 0 for (_, cmp, _), rhs in zip(rows, shifted)]
    total_cols = n + sum(cmp != EQ for _, cmp, _ in rows)
    full_cols = total_cols + starts_basic.count(False)
    body: list[list[int]] = []
    basis: list[int] = []
    slack_at, art_at = n, total_cols
    for (coeffs, cmp, _), rhs, slack_basic in zip(rows, shifted, starts_basic):
        scale = lcm(rhs.denominator, *(c.denominator for c in coeffs))
        sign = -1 if rhs < 0 else 1
        row = [sign * c.numerator * (scale // c.denominator) for c in coeffs]
        row += [0] * (full_cols - n) + [abs(rhs.numerator) * (scale // rhs.denominator)]
        if cmp != EQ:
            row[slack_at] = (sign if cmp == LE else -sign) * scale
            slack_at += 1
        if slack_basic:
            basis.append(slack_at - 1)
        else:
            row[art_at] = scale
            basis.append(art_at)
            art_at += 1
        body.append(_reduced(row))

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
    body.pop()

    values = [_ZERO] * n
    for row, b in zip(body, basis):
        if b < n:
            values[b] = Fraction(row[-1], row[b])
    point = tuple(v + lo for v, lo in zip(values, lower))
    objective_value = sum((c * x for c, x in zip(lp.objective, point)), _ZERO)
    _check_point(lp, point)
    return Optimal(objective_value, point)


def _check_point(lp: LinearProgram, point: Sequence[Fraction]) -> None:
    for con in lp.constraints:
        if not con.holds_at(point):
            raise RuntimeError(f"solver returned a point violating {con}")
    upper = lp.upper or (None,) * lp.num_vars
    for j, (lo, x, hi) in enumerate(zip(lp.lower, point, upper)):
        if x < lo or (hi is not None and x > hi):
            raise RuntimeError(f"solver violated a bound on variable {j}")
