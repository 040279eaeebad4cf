from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ambipref import lp as lp_module
from ambipref.lp import Constraint, LinearProgram, Optimal, solve

F = Fraction


def le(coeffs, rhs):
    return Constraint(tuple(F(c) for c in coeffs), "<=", F(rhs))


def ge(coeffs, rhs):
    return Constraint(tuple(F(c) for c in coeffs), ">=", F(rhs))


def holding_at(lower, rows):
    """Each (coeffs, cmp, rhs) as a Constraint that holds at the ``lower`` corner.

    A row that fails there has its rhs moved to its value at the corner, so
    the solver accepts every program drawn from these rows.
    """
    out = []
    for a, b, cmp, rhs in rows:
        corner = a * lower[0] + b * lower[1]
        out.append(Constraint((a, b), cmp, max(rhs, corner) if cmp == "<=" else min(rhs, corner)))
    return tuple(out)


def feasible_vertices(cons, box):
    """Feasible vertices of a boxed 2-variable program, by brute force.

    Every vertex is the crossing of two non-parallel constraint or box
    lines, and the optimum is the best feasible crossing.
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
        lp = LinearProgram(1, (F(1),), (le([1], 3),), lower=(F(0),), upper=(F(5),))
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == 3
        assert out.point == (F(3),)


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
            upper=(F(10),) * 4,
        )
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == F(1, 20)
        assert out.point == (F(1, 25), F(0), F(1), F(0))

    def test_ratio_ties_leave_by_the_smallest_basic_index(self, monkeypatch):
        """max x + y s.t. x - y + 2z <= 2 on [0, 2]^3; Bland's rule picks (2, 2, 1).

        Every point of the edge x = y = 2, 0 <= z <= 1 is optimal.  x enters
        first, and its ratio 2 on the row ties with its ratio on x <= 2.  The
        row's slack, column 3, comes before the bound's, column 4, so the row
        leaves; letting the bound's row leave instead ends at (2, 2, 0).
        """
        lp = LinearProgram(3, (1, 1, 0), (le([1, -1, 2], 2),), lower=(0,) * 3, upper=(2,) * 3)
        out = solve(lp)
        assert (out.value, out.point) == (4, (2, 2, 1))

        real, first = lp_module._pivot, []

        def other_row(tableau, basis, row, col):
            if not first:
                first.append((row, col, basis[:2]))
                assert tableau[0][-1] * tableau[1][col] == tableau[1][-1] * tableau[0][col]
                row = 1
            real(tableau, basis, row, col)

        monkeypatch.setattr(lp_module, "_pivot", other_row)
        out = solve(lp)
        assert first == [(0, 0, [3, 4])]
        assert (out.value, out.point) == (4, (2, 2, 0))

    def test_fractional_vertex_is_exact(self):
        lp = LinearProgram(
            num_vars=2,
            objective=(F(1), F(1)),
            constraints=(le([3, 1], 2), le([1, 3], 2)),
            lower=(F(0), F(0)),
            upper=(F(1), F(1)),
        )
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.point == (F(1, 2), F(1, 2))
        assert out.value == F(1)

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
        """A returned point must satisfy every row."""
        lower = (F(-2), F(-2))
        cons = holding_at(lower, [(a, b, "<=", r) for a, b, r in rows])
        lp = LinearProgram(
            num_vars=2,
            objective=(F(1), F(-1)),
            constraints=cons,
            lower=lower,
            upper=(F(2), F(2)),
        )
        out = solve(lp)
        for row in cons:
            assert row.holds_at(out.point)
        assert out.value == out.point[0] - out.point[1]

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-5, max_value=5, max_denominator=10),
                st.fractions(min_value=-5, max_value=5, max_denominator=10),
                st.sampled_from(["<=", ">="]),
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
        box = (F(-2), F(-2)), (F(2), F(2))
        cons = holding_at(box[0], rows)
        lp = LinearProgram(2, objective, cons, lower=box[0], upper=box[1])
        vertices = feasible_vertices(cons, box)
        assert box[0] in vertices
        out = solve(lp)
        assert out.value == max(objective[0] * x + objective[1] * y for x, y in vertices)

    @pytest.mark.parametrize("cmp", ["<", "=="])
    def test_rejects_any_other_comparison(self, cmp):
        with pytest.raises(ValueError, match="comparison"):
            Constraint((F(1),), cmp, F(0))

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(2, (F(1),), ())
        with pytest.raises(ValueError, match="constraint width"):
            LinearProgram(2, (F(1), F(1)), (le([1], 1),), lower=(F(0), F(0)), upper=(F(1), F(1)))

    @pytest.mark.parametrize("bounds", [{"lower": (F(0),)}, {"upper": (F(1),)}])
    def test_rejects_bounds_of_another_length(self, bounds):
        bounds = {"lower": (F(0), F(0)), "upper": (F(1), F(1)), **bounds}
        with pytest.raises(ValueError, match="bounds length"):
            LinearProgram(2, (F(1), F(1)), (le([1, 1], 1),), **bounds)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("bound", [None, (F(0), None)], ids=["missing", "none"])
    def test_rejects_a_missing_bound(self, side, bound):
        bounds = {"lower": (F(-1), F(-1)), "upper": (F(1), F(1)), side: bound}
        if bound is None:
            del bounds[side]
        with pytest.raises(ValueError, match=f"finite {side} bound"):
            LinearProgram(2, (F(1), F(1)), (le([1, 1], 1),), **bounds)

    def test_rejects_an_upper_bound_below_the_lower(self):
        lp = LinearProgram(2, (F(1), F(1)), (), lower=(F(0), F(0)), upper=(F(1), F(-1, 2)))
        with pytest.raises(ValueError, match="variable 1's upper bound fails"):
            solve(lp)


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
            st.tuples(fractions, fractions, st.sampled_from(["<=", ">="]), fractions),
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
        box = lower, (F(1, 3), F(5, 4))
        cons = holding_at(lower, rows)
        lp = LinearProgram(2, objective, cons, lower=box[0], upper=box[1])
        vertices = feasible_vertices(cons, box)
        out = solve(lp)
        assert out.value == max(objective[0] * x + objective[1] * y for x, y in vertices)
        assert all(c.holds_at(out.point) for c in cons)

    def test_check_point_rejects_each_violated_comparison(self):
        cons = self.ROWS
        lp = LinearProgram(2, (F(0), F(0)), cons, lower=self.BOX[0], upper=self.BOX[1])
        # The origin holds both rows; each other point breaks exactly one.
        good = (F(0), F(0))
        assert all(c.holds_at(good) for c in cons)
        lp_module._check_point(lp, good)
        for point, broken in (((F(0), F(1)), cons[0]), ((F(1), F(-3, 4)), cons[1])):
            assert [c for c in cons if not c.holds_at(point)] == [broken]
            with pytest.raises(RuntimeError, match="violating"):
                lp_module._check_point(lp, point)

    @pytest.mark.parametrize(
        "cmp, point",
        [("<=", (F(4, 7), F(4, 7))), (">=", (F(3, 7), F(3, 7)))],
    )
    def test_check_point_sees_the_smallest_violation(self, cmp, point):
        """A row missed by 1/P, one unit of the point's common denominator."""
        row = Constraint((F(1), F(1)), cmp, F(1))
        lp = LinearProgram(2, (F(0), F(0)), (row,), lower=(F(0), F(0)), upper=(F(1), F(1)))
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
            st.tuples(fractions, fractions, st.sampled_from(["<=", ">="])),
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
        lp = LinearProgram(2, (F(0), F(0)), cons, lower=(F(-2), F(-5, 2)), upper=(F(5, 3), F(5, 2)))
        expected = all(c.holds_at(point) for c in cons) and all(
            lo <= x <= hi for lo, x, hi in zip(lp.lower, point, lp.upper)
        )
        try:
            lp_module._check_point(lp, point)
            accepted = True
        except RuntimeError:
            accepted = False
        assert accepted == expected


class TestSlackStart:
    """A '>=' row is read in negated, so it starts on its slack as a '<=' row
    does, provided it holds at the lower corner; a row that fails there is
    refused."""

    BOX = (F(-2), F(-2)), (F(2), F(2))
    # y <= x + 1, x + 2y <= 4 and 3x + y <= 5; the two '>=' rows shift by the
    # lower bounds to rhs -1 and -10.
    ROWS = (ge([1, -1], -1), ge([-1, -2], -4), le([3, 1], 5))
    OBJECTIVE = (F(1), F(1))

    def test_optimum_point_and_duals_match_the_brute_force_vertex(self):
        cons, (lo, hi) = self.ROWS, self.BOX
        out = solve(LinearProgram(2, self.OBJECTIVE, cons, lower=lo, upper=hi))
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

    def test_a_row_tight_at_the_corner_is_accepted(self):
        rows = self.ROWS + (ge([1, 1], -4),)  # shifted rhs 0
        out = solve(LinearProgram(2, self.OBJECTIVE, rows, lower=self.BOX[0], upper=self.BOX[1]))
        assert out.point == (F(6, 5), F(7, 5))

    def test_a_row_that_fails_at_the_corner_is_refused(self):
        rows = self.ROWS + (ge([1, 0], -1),)  # x >= -1 fails at x = -2
        program = LinearProgram(2, self.OBJECTIVE, rows, lower=self.BOX[0], upper=self.BOX[1])
        with pytest.raises(ValueError, match=r"constraint 3, .*fails at the lower-bound corner"):
            solve(program)


class TestDuals:
    """Duals read off the final cost row, up to one positive factor."""

    def test_hand_program_duals(self):
        # max x + y with x + 2y <= 4 and 3x + y <= 6 (written as >=) binding
        # at (8/5, 6/5): (1, 1) + y1 (1, 2) + y2 (-3, -1) = 0 gives
        # y = (-2/5, 1/5), and the slack row x <= 10 gets 0.
        cons = (le([1, 2], 4), ge([-3, -1], -6), le([1, 0], 10))
        out = solve(LinearProgram(2, (F(1), F(1)), cons, lower=(F(0), F(0)), upper=(F(20), F(20))))
        assert isinstance(out, Optimal)
        assert out.point == (F(8, 5), F(6, 5))
        factor = F(out.duals[1]) / F(1, 5)
        assert factor > 0
        assert out.duals == (factor * F(-2, 5), factor * F(1, 5), 0)
        # Strong duality: the value is -sum(y_i * rhs_i).
        assert -sum(d * c.rhs for d, c in zip(out.duals, cons)) == factor * out.value

    def test_duals_default_to_empty(self):
        assert Optimal(F(0), (F(0),)).duals == ()

    @given(
        st.lists(
            st.tuples(fractions, fractions, st.sampled_from(["<=", ">="]), fractions),
            min_size=1,
            max_size=4,
        ),
        st.tuples(fractions, fractions),
    )
    def test_dual_signs_and_complementary_slackness(self, rows, objective):
        lower = (F(-2), F(-2))
        cons = holding_at(lower, rows)
        out = solve(LinearProgram(2, objective, cons, lower=lower, upper=(F(2), F(2))))
        assert len(out.duals) == len(cons)
        for con, dual in zip(cons, out.duals):
            assert (dual >= 0) if con.cmp == ">=" else (dual <= 0)
            value = sum(c * x for c, x in zip(con.coeffs, out.point))
            if value != con.rhs:
                assert dual == 0
