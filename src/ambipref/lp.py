"""Small exact linear programming solver over rationals.

Two-phase primal simplex with Bland's smallest-index rule for both entering
and leaving variables, so cycling is impossible.  The tableau is kept
fraction-free: each row, the reduced-cost row included, is a list of Python
ints that stands for the row divided by one positive denominator (for a
constraint row, its basic entry).  A pivot cross-multiplies and divides each
changed row by its gcd, and ratio ties are compared by cross-multiplying, so
every pivot is the one exact rational arithmetic would take; Fractions appear
only when the program is read in and the optimal point is read out.
Problem sizes in this package are tiny (a handful of variables, a few dozen
rows), so a dense tableau is enough.  Optimal points are re-checked against
every constraint in Fractions before being returned.
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
    "feasible_point",
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
    """Maximize objective . x subject to constraints and optional var bounds.

    ``lower``/``upper`` give per-variable bounds, with None meaning
    unbounded on that side; omitted entirely means free variables.
    """

    num_vars: int
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    lower: tuple[Fraction | None, ...] | None = None
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
_ONE = Fraction(1)


def _reduced(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _integer_row(values: Sequence[Fraction]) -> list[int]:
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


def _cost_row(body: list[list[int]], basis: list[int], cost: Sequence[Fraction]) -> list[int]:
    """Reduced costs c_j - c_B . column_j of the canonical rows, as an int row.

    The row is a positive multiple of the exact reduced costs, so its signs
    are theirs; its last entry is -c_B . rhs on the same scale.
    """
    ints = _integer_row(list(cost) + [_ZERO])
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


class _Standardized:
    """Rewrite of a general program in equality standard form y >= 0."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        lower = lp.lower or (None,) * lp.num_vars
        upper = lp.upper or (None,) * lp.num_vars
        # Column layout per original variable: shifted single column when a
        # lower bound exists, otherwise a split positive/negative pair.
        self.columns: list[tuple[str, int, int]] = []
        ncols = 0
        for j in range(lp.num_vars):
            if lower[j] is not None:
                self.columns.append(("shift", ncols, -1))
                ncols += 1
            else:
                self.columns.append(("split", ncols, ncols + 1))
                ncols += 2
        self.num_structural = ncols
        self.lower = lower

        rows: list[tuple[list[Fraction], str, Fraction]] = []
        for con in lp.constraints:
            rows.append((list(con.coeffs), con.cmp, con.rhs))
        for j in range(lp.num_vars):
            if upper[j] is not None:
                coeffs = [_ZERO] * lp.num_vars
                coeffs[j] = _ONE
                rows.append((coeffs, LE, upper[j]))
        self.rows = rows

    def structural_row(self, coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[list[Fraction], Fraction]:
        out = [_ZERO] * self.num_structural
        shifted_rhs = rhs
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            kind, a, b = self.columns[j]
            if kind == "shift":
                out[a] += c
                shifted_rhs -= c * self.lower[j]  # type: ignore[operator]
            else:
                out[a] += c
                out[b] -= c
        return out, shifted_rhs

    def recover_point(self, values: Sequence[Fraction]) -> tuple[Fraction, ...]:
        point = []
        for j in range(self.lp.num_vars):
            kind, a, b = self.columns[j]
            if kind == "shift":
                point.append(values[a] + self.lower[j])  # type: ignore[operator]
            else:
                point.append(values[a] - values[b])
        return tuple(point)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve the program exactly; the returned point is verified feasible."""
    std = _Standardized(lp)
    n_struct = std.num_structural

    # Equality rows with slack/surplus columns; a row whose slack cannot
    # start basic (no +1 slack after making the rhs nonnegative) gets an
    # artificial column instead.
    slack_cols = sum(cmp != EQ for _, cmp, _ in std.rows)
    total_cols = n_struct + slack_cols
    rows: list[tuple[list[Fraction], Fraction]] = []
    basis: list[int] = []
    slack_at = n_struct
    for coeffs, cmp, rhs in std.rows:
        row, rhs2 = std.structural_row(coeffs, rhs)
        row += [_ZERO] * slack_cols
        if cmp != EQ:
            row[slack_at] = _ONE if cmp == LE else -_ONE
            slack_at += 1
        basis.append(slack_at - 1 if cmp == LE and rhs2 >= 0 else -1)
        if rhs2 < 0:
            row = [-v for v in row]
            rhs2 = -rhs2
        rows.append((row, rhs2))
    n_art = basis.count(-1)
    full_cols = total_cols + n_art
    body: list[list[int]] = []
    art_at = total_cols
    for i, (row, rhs2) in enumerate(rows):
        row += [_ZERO] * n_art + [rhs2]
        if basis[i] < 0:
            row[art_at] = _ONE
            basis[i] = art_at
            art_at += 1
        body.append(_integer_row(row))

    if n_art:
        phase1_cost = [_ZERO] * total_cols + [_ONE] * n_art
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

    phase2_cost = [_ZERO] * full_cols
    for j in range(lp.num_vars):
        kind, a, b = std.columns[j]
        c = lp.objective[j]
        phase2_cost[a] -= c  # minimize the negated objective
        if kind == "split":
            phase2_cost[b] += c
    body.append(_cost_row(body, basis, phase2_cost))
    status = _simplex(body, basis, [j < total_cols for j in range(full_cols)])
    if status == "unbounded":
        return Unbounded()
    body.pop()

    values = [_ZERO] * full_cols
    for row, b in zip(body, basis):
        values[b] = Fraction(row[-1], row[b])
    point = std.recover_point(values)
    objective_value = sum((c * x for c, x in zip(lp.objective, point)), _ZERO)
    _check_point(lp, point)
    return Optimal(objective_value, point)


def _check_point(lp: LinearProgram, point: Sequence[Fraction]) -> None:
    for con in lp.constraints:
        if not con.holds_at(point):
            raise RuntimeError(f"solver returned a point violating {con}")
    lower = lp.lower or (None,) * lp.num_vars
    upper = lp.upper or (None,) * lp.num_vars
    for j, x in enumerate(point):
        if lower[j] is not None and x < lower[j]:
            raise RuntimeError(f"solver violated lower bound on variable {j}")
        if upper[j] is not None and x > upper[j]:
            raise RuntimeError(f"solver violated upper bound on variable {j}")


def feasible_point(
    num_vars: int,
    constraints: Sequence[Constraint],
    lower: tuple[Fraction | None, ...] | None = None,
    upper: tuple[Fraction | None, ...] | None = None,
) -> tuple[Fraction, ...] | None:
    """Any exact point satisfying the system, or None when there is none."""
    lp = LinearProgram(
        num_vars=num_vars,
        objective=(_ZERO,) * num_vars,
        constraints=tuple(constraints),
        lower=lower,
        upper=upper,
    )
    outcome = solve(lp)
    if isinstance(outcome, Optimal):
        return outcome.point
    return None
