from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ambipref import lp as lp_module
from ambipref.lp import (
    Constraint,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    solve,
)

F = Fraction


def le(coeffs, rhs):
    return Constraint(tuple(F(c) for c in coeffs), "<=", F(rhs))


def ge(coeffs, rhs):
    return Constraint(tuple(F(c) for c in coeffs), ">=", F(rhs))


def eq(coeffs, rhs):
    return Constraint(tuple(F(c) for c in coeffs), "==", F(rhs))


def feasible_vertices(cons, box):
    """Feasible vertices of a boxed 2-variable program, by brute force.

    Every vertex is the crossing of two non-parallel constraint or box
    lines; the program is infeasible exactly when no crossing is feasible,
    and otherwise its optimum is the best feasible crossing.
    """
    lines = [(c.coeffs, c.rhs) for c in cons if any(c.coeffs)]
    lines += [((F(1), F(0)), x) for x in (box[0][0], box[1][0])]
    lines += [((F(0), F(1)), y) for y in (box[0][1], box[1][1])]
    vertices = []
    for ((a1, b1), r1), ((a2, b2), r2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        point = ((r1 * b2 - r2 * b1) / det, (a1 * r2 - a2 * r1) / det)
        inside = all(lo <= x <= hi for lo, x, hi in zip(box[0], point, box[1]))
        if inside and all(c.holds_at(point) for c in cons):
            vertices.append(point)
    return vertices


class TestSingleVariable:
    def test_bounded_maximum(self):
        lp = LinearProgram(1, (F(1),), (le([1], 3),), lower=(F(0),))
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == 3
        assert out.point == (F(3),)

    def test_contradictory_bounds_infeasible(self):
        lp = LinearProgram(1, (F(1),), (le([1], 1), ge([1], 2)), lower=(F(0),))
        assert isinstance(solve(lp), Infeasible)

    def test_free_direction_unbounded(self):
        lp = LinearProgram(1, (F(1),), (ge([1], 0),), lower=(F(0),))
        assert isinstance(solve(lp), Unbounded)


class TestExactPivoting:
    def test_beale_cycle_instance(self):
        """Classic degenerate instance that cycles under naive pivoting."""
        lp = LinearProgram(
            num_vars=4,
            objective=(F(3, 4), F(-150), F(1, 50), F(-6)),
            constraints=(
                le([F(1, 4), F(-60), F(-1, 25), F(9)], 0),
                le([F(1, 2), F(-90), F(-1, 50), F(3)], 0),
                le([F(0), F(0), F(1), F(0)], 1),
            ),
            lower=(F(0),) * 4,
        )
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == F(1, 20)
        assert out.point == (F(1, 25), F(0), F(1), F(0))

    def test_ratio_ties_leave_by_the_smallest_basic_index(self):
        """Every point of the edge y = 2 is optimal; Bland's rule picks (2, 2).

        The phase-1 pivot ties two rows on the ratio test, and the row whose
        basic column comes first leaves; the other choice ends at (0, 2).
        """
        lp = LinearProgram(
            num_vars=2,
            objective=(F(0), F(1)),
            constraints=(ge([1, 1], 2),),
            lower=(F(0), F(0)),
            upper=(F(2), F(2)),
        )
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.point == (F(2), F(2))

    def test_fractional_vertex_is_exact(self):
        lp = LinearProgram(
            num_vars=2,
            objective=(F(1), F(1)),
            constraints=(le([3, 1], 2), le([1, 3], 2)),
            lower=(F(0), F(0)),
        )
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.point == (F(1, 2), F(1, 2))
        assert out.value == F(1)

    def test_equality_constraints(self):
        lp = LinearProgram(
            num_vars=3,
            objective=(F(0), F(1), F(-1)),
            constraints=(eq([1, 1, 1], 1), ge([1, 0, 0], F(1, 4))),
            lower=(F(0),) * 3,
        )
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == F(3, 4)
        assert sum(out.point) == 1

    def test_negative_lower_bounds(self):
        lp = LinearProgram(
            num_vars=2,
            objective=(F(1), F(2)),
            constraints=(le([1, 1], 0),),
            lower=(F(-1), F(-1)),
            upper=(F(1), F(1)),
        )
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == F(1)
        assert out.point == (F(-1), F(1))

    def test_a_zero_level_artificial_is_driven_out(self, monkeypatch):
        """max -x1 s.t. -2 x1 == 0, x1 - x2 <= 0, 0 <= x <= 3.

        Phase 1 ends with the equality row's artificial basic at level 0, and
        pivoting it out enters x1 on that row's -2 entry, so ``_pivot``
        negates the row first.
        """
        pivot = lp_module._pivot
        negative = []

        def spied(tableau, basis, row, col):
            negative.append(tableau[row][col] < 0)
            pivot(tableau, basis, row, col)

        monkeypatch.setattr(lp_module, "_pivot", spied)
        cons = (eq([-2, 0], 0), le([1, -1], 0))
        program = LinearProgram(2, (F(-1), F(0)), cons, lower=(F(0), F(0)),
                                upper=(F(3), F(3)))
        out = solve(program)
        assert out == Optimal(F(0), (F(0), F(0)), (None, 0))
        assert all(con.holds_at(out.point) for con in cons)
        assert True in negative


class TestSeparationShape:
    def test_disjoint_interval_margin(self):
        """Best uniform gap between two segments of the 2-simplex.

        Separating hull{(1/5,4/5),(2/5,3/5)} from hull{(3/5,2/5),(4/5,1/5)}
        with a functional bounded by 1 in sup norm gives slack exactly 1/5,
        which a two-row dual combination certifies as tight.
        """
        verts_low = [(F(1, 5), F(4, 5)), (F(2, 5), F(3, 5))]
        verts_high = [(F(3, 5), F(2, 5)), (F(4, 5), F(1, 5))]
        cons = []
        for v in verts_high:
            cons.append(ge([v[0], v[1], -1], 0))  # phi . v >= t
        for v in verts_low:
            cons.append(le([v[0], v[1], 1], 0))  # phi . v <= -t
        lp = LinearProgram(
            num_vars=3,
            objective=(F(0), F(0), F(1)),
            constraints=tuple(cons),
            lower=(F(-1), F(-1), F(-3)),
            upper=(F(1), F(1), F(1)),
        )
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == F(1, 5)
        phi = out.point[:2]
        worst_high = min(v[0] * phi[0] + v[1] * phi[1] for v in verts_high)
        best_low = max(v[0] * phi[0] + v[1] * phi[1] for v in verts_low)
        assert worst_high >= F(1, 5)
        assert best_low <= F(-1, 5)


class TestOutcomeInvariants:
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-5, max_value=5, max_denominator=10),
                st.fractions(min_value=-5, max_value=5, max_denominator=10),
                st.fractions(min_value=-5, max_value=5, max_denominator=10),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_optimal_points_satisfy_their_system(self, rows):
        """Whatever the outcome, a returned point must satisfy every row."""
        cons = tuple(le([a, b], r) for a, b, r in rows)
        lp = LinearProgram(
            num_vars=2,
            objective=(F(1), F(-1)),
            constraints=cons,
            lower=(F(-2), F(-2)),
            upper=(F(2), F(2)),
        )
        out = solve(lp)
        # boxed feasible region: never unbounded
        assert not isinstance(out, Unbounded)
        if isinstance(out, Optimal):
            for row in cons:
                assert row.holds_at(out.point)
            assert out.value == out.point[0] - out.point[1]

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-5, max_value=5, max_denominator=10),
                st.fractions(min_value=-5, max_value=5, max_denominator=10),
                st.sampled_from(["<=", "<=", ">=", "=="]),
                st.fractions(min_value=-5, max_value=5, max_denominator=10),
            ),
            min_size=1,
            max_size=5,
        ),
        st.tuples(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
        ),
    )
    def test_optimum_is_the_best_vertex(self, rows, objective):
        """Brute force over the vertices of a boxed 2-variable program."""
        cons = tuple(Constraint((a, b), cmp, r) for a, b, cmp, r in rows)
        box = (F(-2), F(-2)), (F(2), F(2))
        lp = LinearProgram(2, objective, cons, lower=box[0], upper=box[1])
        vertices = feasible_vertices(cons, box)
        out = solve(lp)
        if not vertices:
            assert isinstance(out, Infeasible)
        else:
            assert isinstance(out, Optimal)
            best = max(objective[0] * x + objective[1] * y for x, y in vertices)
            assert out.value == best

    def test_rejects_malformed_comparison(self):
        with pytest.raises(ValueError):
            Constraint((F(1),), "<", F(0))

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(2, (F(1),), ())
        with pytest.raises(ValueError, match="constraint width"):
            LinearProgram(2, (F(1), F(1)), (le([1], 1),), lower=(F(0), F(0)))

    @pytest.mark.parametrize("bounds", [{"lower": (F(0),)}, {"upper": (F(1),)}])
    def test_rejects_bounds_of_another_length(self, bounds):
        bounds = {"lower": (F(0), F(0)), **bounds}
        with pytest.raises(ValueError, match="bounds length"):
            LinearProgram(2, (F(1), F(1)), (le([1, 1], 1),), **bounds)

    def test_rejects_a_missing_lower_bound(self):
        with pytest.raises(ValueError, match="lower bound"):
            LinearProgram(1, (F(1),), (le([1], 1),))
        with pytest.raises(ValueError, match="lower bound"):
            LinearProgram(2, (F(1), F(1)), (le([1, 1], 1),), lower=(F(0), None))


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=12)


class TestIntegerReadIn:
    """Rows are read in, and points re-checked, on integers.

    The package's own programs all have integer lower bounds, so these use
    fractional bounds whose denominators do not divide each other or the
    coefficients' ones: every product c * lower needs the row's scale.
    """

    BOX = (F(-1, 2), F(-3, 4)), (F(5, 3), F(7, 5))
    ROWS = (
        Constraint((F(1, 2), F(2, 3)), "<=", F(1, 7)),
        Constraint((F(-2, 3), F(1, 2)), ">=", F(-1, 5)),
        Constraint((F(3, 7), F(1, 2)), "==", F(1, 11)),
    )

    def test_fractional_bounds_match_the_brute_force_vertex(self):
        cons = self.ROWS
        objective = (F(1), F(2))
        lp = LinearProgram(2, objective, cons, lower=self.BOX[0], upper=self.BOX[1])
        vertices = feasible_vertices(cons, self.BOX)
        value = lambda p: objective[0] * p[0] + objective[1] * p[1]
        best = max(value(p) for p in vertices)
        winners = {p for p in vertices if value(p) == best}
        assert len(winners) == 1
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == best
        assert out.point == winners.pop()

    @given(
        st.lists(
            st.tuples(fractions, fractions, st.sampled_from(["<=", ">=", "=="]), fractions),
            min_size=1,
            max_size=4,
        ),
        st.tuples(fractions, fractions),
        st.tuples(
            st.fractions(min_value=-2, max_value=0, max_denominator=9),
            st.fractions(min_value=-2, max_value=0, max_denominator=7),
        ),
    )
    def test_fractional_bounds_give_the_best_vertex(self, rows, objective, lower):
        cons = tuple(Constraint((a, b), cmp, r) for a, b, cmp, r in rows)
        box = lower, (F(1, 3), F(5, 4))
        lp = LinearProgram(2, objective, cons, lower=box[0], upper=box[1])
        vertices = feasible_vertices(cons, box)
        out = solve(lp)
        if not vertices:
            assert isinstance(out, Infeasible)
        else:
            assert isinstance(out, Optimal)
            assert out.value == max(objective[0] * x + objective[1] * y for x, y in vertices)
            assert all(c.holds_at(out.point) for c in cons)

    def test_check_point_rejects_each_violated_comparison(self):
        cons = self.ROWS
        lp = LinearProgram(2, (F(0), F(0)), cons, lower=self.BOX[0], upper=self.BOX[1])
        # On the equality line x = (1/11 - y/2) * 7/3, the first row fails
        # for y > 0.44 and the second for y < -0.04; the third point leaves
        # the line.  Each breaks exactly one row.
        on_line = lambda y: ((F(1, 11) - y / 2) * F(7, 3), y)
        good = on_line(F(0))
        assert all(c.holds_at(good) for c in cons)
        lp_module._check_point(lp, good)
        for point, broken in (
            (on_line(F(3, 5)), cons[0]),
            (on_line(F(-2, 3)), cons[1]),
            ((good[0] + F(1, 97), good[1]), cons[2]),
        ):
            assert [c for c in cons if not c.holds_at(point)] == [broken]
            with pytest.raises(RuntimeError, match="violating"):
                lp_module._check_point(lp, point)

    @pytest.mark.parametrize(
        "cmp, point",
        [("<=", (F(4, 7), F(4, 7))), (">=", (F(3, 7), F(3, 7))), ("==", (F(3, 7), F(3, 7)))],
    )
    def test_check_point_sees_the_smallest_violation(self, cmp, point):
        """A row missed by 1/P, one unit of the point's common denominator."""
        row = Constraint((F(1), F(1)), cmp, F(1))
        lp = LinearProgram(2, (F(0), F(0)), (row,), lower=(F(0), F(0)))
        with pytest.raises(RuntimeError, match="violating"):
            lp_module._check_point(lp, point)

    def test_check_point_rejects_a_bound_violation(self):
        lp = LinearProgram(2, (F(0), F(0)), (), lower=self.BOX[0], upper=self.BOX[1])
        for point in ((F(-51, 100), F(0)), (F(0), F(-3, 4) - F(1, 1000)), (F(0), F(71, 50))):
            with pytest.raises(RuntimeError, match="bound on variable"):
                lp_module._check_point(lp, point)
        lp_module._check_point(lp, (F(-1, 2), F(7, 5)))

    @given(
        st.lists(
            st.tuples(fractions, fractions, st.sampled_from(["<=", ">=", "=="])),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.sampled_from([F(-1, 3), F(0), F(0), F(1, 2)]), min_size=4, max_size=4),
        st.tuples(fractions, fractions),
    )
    def test_check_point_agrees_with_the_fraction_reference(self, rows, offsets, point):
        """Accepts exactly when every ``holds_at`` and every bound holds.

        Each rhs is the row's value at the point plus a small offset, so
        the rows hold with equality as often as they fail.
        """
        cons = tuple(
            Constraint((a, b), cmp, a * point[0] + b * point[1] + offset)
            for (a, b, cmp), offset in zip(rows, offsets)
        )
        lp = LinearProgram(2, (F(0), F(0)), cons, lower=(F(-2), F(-5, 2)), upper=(F(5, 3), None))
        expected = all(c.holds_at(point) for c in cons) and all(
            lo <= x and (hi is None or x <= hi)
            for lo, x, hi in zip(lp.lower, point, lp.upper)
        )
        try:
            lp_module._check_point(lp, point)
            accepted = True
        except RuntimeError:
            accepted = False
        assert accepted == expected


class TestSlackStart:
    """A '>=' row with a negative shifted rhs starts on its slack, as a '<=' row
    with a nonnegative one does, so a program of such rows skips phase 1."""

    BOX = (F(-2), F(-2)), (F(2), F(2))
    # y <= x + 1, x + 2y <= 4 and 3x + y <= 5; the two '>=' rows shift by the
    # lower bounds to rhs -1 and -10.
    ROWS = (ge([1, -1], -1), ge([-1, -2], -4), le([3, 1], 5))
    OBJECTIVE = (F(1), F(1))

    def _solve_counting_cost_rows(self, monkeypatch, program):
        real, cost_rows = lp_module._cost_row, []

        def counted(body, basis, cost):
            cost_rows.append(cost)
            return real(body, basis, cost)

        monkeypatch.setattr(lp_module, "_cost_row", counted)
        return solve(program), len(cost_rows)

    def test_optimum_point_and_duals_match_the_brute_force_vertex(self, monkeypatch):
        cons, (lo, hi) = self.ROWS, self.BOX
        program = LinearProgram(2, self.OBJECTIVE, cons, lower=lo, upper=hi)
        out, cost_rows = self._solve_counting_cost_rows(monkeypatch, program)
        assert cost_rows == 1  # phase 2 only
        value = lambda p: sum(c * x for c, x in zip(self.OBJECTIVE, p))
        vertices = feasible_vertices(cons, self.BOX)
        best = max(map(value, vertices))
        (winner,) = {p for p in vertices if value(p) == best}
        assert isinstance(out, Optimal)
        assert (out.value, out.point) == (best, winner) == (F(13, 5), (F(6, 5), F(7, 5)))
        # The winner binds no box bound, so the duals of its binding rows
        # alone balance the objective; a slack row's dual is zero.
        assert all(lo_j < x < hi_j for lo_j, x, hi_j in zip(lo, winner, hi))
        for con, dual in zip(cons, out.duals):
            binding = sum(c * x for c, x in zip(con.coeffs, winner)) == con.rhs
            assert dual == 0 if not binding else (dual > 0) == (con.cmp == ">=")
        factor = F(out.duals[1]) / F(2, 5)
        for j, c in enumerate(self.OBJECTIVE):
            assert factor * c + sum(d * con.coeffs[j] for d, con in zip(out.duals, cons)) == 0
        assert out.duals == (0, factor * F(2, 5), factor * F(-1, 5))

    def test_a_ge_row_with_a_nonnegative_shifted_rhs_still_takes_phase_1(self, monkeypatch):
        rows = self.ROWS + (ge([1, 0], -1),)  # shifted rhs 1: its slack is -1
        program = LinearProgram(2, self.OBJECTIVE, rows, lower=self.BOX[0], upper=self.BOX[1])
        out, cost_rows = self._solve_counting_cost_rows(monkeypatch, program)
        assert cost_rows == 2
        assert out.point == (F(6, 5), F(7, 5))


class TestDuals:
    """Duals read off the final cost row, up to one positive factor."""

    def test_hand_program_duals(self):
        # max x + y with x + 2y <= 4 and 3x + y <= 6 (written as >=) binding
        # at (8/5, 6/5): (1, 1) + y1 (1, 2) + y2 (-3, -1) = 0 gives
        # y = (-2/5, 1/5), and the slack row x <= 10 gets 0.
        cons = (le([1, 2], 4), ge([-3, -1], -6), le([1, 0], 10))
        out = solve(LinearProgram(2, (F(1), F(1)), cons, lower=(F(0), F(0))))
        assert isinstance(out, Optimal)
        assert out.point == (F(8, 5), F(6, 5))
        factor = F(out.duals[1]) / F(1, 5)
        assert factor > 0
        assert out.duals == (factor * F(-2, 5), factor * F(1, 5), 0)
        # Strong duality: the value is -sum(y_i * rhs_i).
        assert -sum(d * c.rhs for d, c in zip(out.duals, cons)) == factor * out.value

    def test_equality_rows_get_none(self):
        cons = (eq([1, 1], 1), le([1, 0], F(3, 4)))
        out = solve(LinearProgram(2, (F(1), F(0)), cons, lower=(F(0), F(0))))
        assert isinstance(out, Optimal)
        assert out.point == (F(3, 4), F(1, 4))
        assert out.duals[0] is None and out.duals[1] < 0

    def test_duals_default_to_empty(self):
        assert Optimal(F(0), (F(0),)).duals == ()

    @given(
        st.lists(
            st.tuples(fractions, fractions, st.sampled_from(["<=", ">=", "=="]), fractions),
            min_size=1,
            max_size=4,
        ),
        st.tuples(fractions, fractions),
    )
    def test_dual_signs_and_complementary_slackness(self, rows, objective):
        cons = tuple(Constraint((a, b), cmp, r) for a, b, cmp, r in rows)
        out = solve(LinearProgram(2, objective, cons, lower=(F(-2), F(-2)), upper=(F(2), F(2))))
        if not isinstance(out, Optimal):
            return
        assert len(out.duals) == len(cons)
        for con, dual in zip(cons, out.duals):
            if con.cmp == "==":
                assert dual is None
                continue
            assert (dual >= 0) if con.cmp == ">=" else (dual <= 0)
            value = sum(c * x for c, x in zip(con.coeffs, out.point))
            if value != con.rhs:
                assert dual == 0
