from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
        """Brute force over the vertices of a boxed 2-variable program.

        Every vertex is the crossing of two non-parallel constraint or box
        lines; the program is infeasible exactly when no crossing is
        feasible, and otherwise its optimum is the best feasible crossing.
        """
        cons = tuple(Constraint((a, b), cmp, r) for a, b, cmp, r in rows)
        box = (F(-2), F(-2)), (F(2), F(2))
        lp = LinearProgram(2, objective, cons, lower=box[0], upper=box[1])
        lines = [(c.coeffs, c.rhs) for c in cons if any(c.coeffs)]
        lines += [((F(1), F(0)), x) for x in (F(-2), F(2))]
        lines += [((F(0), F(1)), y) for y in (F(-2), F(2))]
        vertices = []
        for ((a1, b1), r1), ((a2, b2), r2) in itertools.combinations(lines, 2):
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            point = ((r1 * b2 - r2 * b1) / det, (a1 * r2 - a2 * r1) / det)
            inside = all(lo <= x <= hi for lo, x, hi in zip(box[0], point, box[1]))
            if inside and all(c.holds_at(point) for c in cons):
                vertices.append(point)
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

    def test_rejects_a_missing_lower_bound(self):
        with pytest.raises(ValueError, match="lower bound"):
            LinearProgram(1, (F(1),), (le([1], 1),))
        with pytest.raises(ValueError, match="lower bound"):
            LinearProgram(2, (F(1), F(1)), (le([1, 1], 1),), lower=(F(0), None))
