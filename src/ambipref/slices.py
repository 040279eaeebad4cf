"""Cross-sections of the margin cones on planes through the diagonal.

A slice plane is spanned by the all-ones vector e1 and the off-diagonal
component e2 of a chosen direction.  Every prior sums to 1, so along
c*e1 + s*e2 a vertex v scores c + s*(v . e2): the two primitive margins of
the whole plane follow from A = maxmin(e2) and B = minmax(e2), taken once
per plane.  For s >= 0, maxmin = c + s*A and minmax = c + s*B; for s < 0
the two swap.  Directions around the slice are rational points on the unit
circle, generated by the tangent half-angle substitution as integer triples
(c, s, d) standing for (c/d, s/d).  A plane's sample directions depend only
on e2 and the sample count, so they are built once and shared by every
profile of that plane.  Each sample is computed as integer numerators
(maxmin, minmax) over one positive denominator per circle point.  Circle
point k+n/2 is (-c, -s, d), so by maxmin(-phi) = -minmax(phi) its numerators
are minus point k's, swapped: they are built for the first half-circle only.
Every cone's value and sign is then read on those integers through its model
kind's rule, so every margin along the circle is exact.  Floats appear only
in exported decimal columns.
``certify_slice_convexity`` reports whether a cone's sampled signs form a
single arc; that is necessary for a convex slice but not sufficient, since
one arc longer than a half-turn is not a convex cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .margins import (
    AlphaMixture,
    Conjunctive,
    Disjunctive,
    GeneralizedBewley,
    HalfMixture,
    ModelKind,
    margin_profile,
)
from .model import (
    BeliefCollection,
    UtilityVector,
    exact_rational,
    json_text,
    mixture_weight,
    primitive,
    scaled,
)

__all__ = [
    "DegenerateDirection",
    "UnknownFormat",
    "SlicePlane",
    "SliceSample",
    "SliceProfile",
    "ConvexityVerdict",
    "CONES",
    "MAX_SLICE_SAMPLES",
    "check_sample_count",
    "slice_profile",
    "certify_slice_convexity",
    "export_slice",
]

CONES = ("maxmin", "minmax", "half", "alpha", "conjunctive", "disjunctive")
MAX_SLICE_SAMPLES = 4096

# Each cone is the nonnegative set of one model kind's margin; "alpha" takes
# the profile's weight.  minmax is the mixture that puts no weight on maxmin.
_CONE_KINDS = {
    "maxmin": GeneralizedBewley(),
    "minmax": AlphaMixture(Fraction(0)),
    "half": HalfMixture(),
    "conjunctive": Conjunctive(),
    "disjunctive": Disjunctive(),
}


class DegenerateDirection(ValueError):
    """The direction is proportional to the diagonal, so it spans no plane."""


class UnknownFormat(ValueError):
    """Unsupported export format."""


@dataclass(frozen=True)
class SlicePlane:
    """Ordered basis (diagonal, off-diagonal residue) of a slice plane."""

    e1: tuple[Fraction, ...]
    e2: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # slice_profile's closed form needs v . e1 = 1 for every prior v.
        if not self.e1 or any(e != 1 for e in self.e1):
            raise ValueError(f"e1 must be the all-ones vector, got {self.e1}")
        if len(self.e2) != len(self.e1):
            raise ValueError(
                f"e2 has {len(self.e2)} entries but the plane has {len(self.e1)} states"
            )
        for e in self.e2:
            exact_rational(e, "an e2 entry")

    @classmethod
    def through(cls, direction: Sequence) -> "SlicePlane":
        if isinstance(direction, UtilityVector):
            direction = direction.entries
        entries = tuple(exact_rational(d, "a direction entry") for d in direction)
        n = len(entries)
        if n < 2:
            raise DegenerateDirection("a slice plane needs at least two states")
        mean = sum(entries) / n
        residue = tuple(e - mean for e in entries)
        if all(r == 0 for r in residue):
            raise DegenerateDirection(
                "direction is proportional to the diagonal and spans no plane"
            )
        # e2 is the smallest integer vector on the residue's ray.
        e2 = tuple(map(Fraction, primitive(scaled(residue)[1])))
        return cls(e1=tuple(Fraction(1) for _ in range(n)), e2=e2)

    @property
    def num_states(self) -> int:
        return len(self.e1)


@dataclass(frozen=True, slots=True)
class SliceSample:
    theta: Fraction
    direction: UtilityVector
    maxmin: Fraction
    minmax: Fraction
    half: Fraction
    alpha: Optional[Fraction]


@dataclass(frozen=True)
class SliceProfile:
    plane: SlicePlane
    alpha_weight: Optional[Fraction]
    samples: tuple[SliceSample, ...]
    arc_summary: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]

    def arcs(self, cone: str) -> tuple[tuple[int, int], ...]:
        for name, arcs in self.arc_summary:
            if name == cone:
                return arcs
        raise ValueError(f"no arc summary for cone {cone!r}")


@dataclass(frozen=True)
class ConvexityVerdict:
    cone: str
    convex: bool
    arcs: tuple[tuple[int, int], ...]


@lru_cache(maxsize=8)
def _circle_points(n: int) -> tuple[tuple[int, int, int], ...]:
    """The first n/2 of n unit-circle points (c/d, s/d) in circular order.

    With h = n/2 and m = 2j - h, point j is the tangent half-angle point of
    u = m/h scaled by h^2: (h^2 - m^2, 2mh, h^2 + m^2), an integer triple.
    Point k+n/2, never built, is (-c, -s, d).
    """
    h = n // 2
    return tuple((h * h - m * m, 2 * m * h, h * h + m * m) for m in range(-h, h, 2))


@lru_cache(maxsize=8)
def _directions(e2: tuple[Fraction, ...], n: int) -> tuple[UtilityVector, ...]:
    """The n sample directions c/d + (s/d)*e2 of a plane, in circular order.

    With q the lcm of e2's denominators, entry e/q of e2 gives the direction
    entry (c*q + s*e) / (d*q).  Direction k+n/2 is minus direction k.
    """
    q, ints = scaled(e2)
    right = [
        UtilityVector(tuple(Fraction(c * q + s * e, d * q) for e in ints))
        for c, s, d in _circle_points(n)
    ]
    return tuple(right + [-v for v in right])


@lru_cache(maxsize=8)
def _thetas(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(k, n) for k in range(n))


def _sign_arcs(flags: Sequence[bool]) -> tuple[tuple[int, int], ...]:
    """Maximal circular runs of True as (start, length), sorted by start.

    The circle is read from its first False on, so no run wraps past the end
    of the scan; a trailing False, True pair ends the last run and the scan.
    """
    n = len(flags)
    if all(flags):
        return ((0, n),)
    first = flags.index(False)
    ring = [*flags[first:], *flags[:first], False, True]
    arcs = []
    start = ring.index(True)
    while start < n:
        end = ring.index(False, start)
        arcs.append(((start + first) % n, end - start))
        start = ring.index(True, end)
    return tuple(sorted(arcs))


def check_sample_count(n: int) -> None:
    """Reject a sample count unless it is an even int from 8 to ``MAX_SLICE_SAMPLES``.

    Even so antipodes pair up index-wise.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"sample count must be an int, got {n!r}")
    if n < 8:
        raise ValueError(f"need at least 8 samples, got {n}")
    if n > MAX_SLICE_SAMPLES:
        raise ValueError(f"sample count {n} exceeds the limit of {MAX_SLICE_SAMPLES}")
    if n % 2:
        raise ValueError(f"sample count must be even so antipodes align, got {n}")


def slice_profile(
    collection: BeliefCollection,
    plane: SlicePlane,
    n: int,
    alpha: Optional[Fraction] = None,
) -> SliceProfile:
    """Sample the four margin operators around one diagonal slice.

    The sample count must pass ``check_sample_count``.  Sample k is labeled
    theta = k/n turns; its direction is the k-th rational circle point (c, s)
    combined through the plane basis, and its margins come from the plane's
    closed form, not a vertex sweep.
    """
    check_sample_count(n)
    weight = None if alpha is None else mixture_weight(alpha)
    # With A = a_slope/base and B = b_slope/base, the primitives at the
    # circle point (c/d, s/d) are c*base + s*a_slope and c*base + s*b_slope
    # over denom = d*base, the two slopes swapped for s < 0.
    along = margin_profile(collection, UtilityVector(plane.e2))
    base, (a_slope, b_slope) = scaled((along.maxmin, along.minmax))
    mms, mxs, denoms = [], [], []
    for c, s, d in _circle_points(n):
        mm_slope, mx_slope = (a_slope, b_slope) if s >= 0 else (b_slope, a_slope)
        mms.append(c * base + s * mm_slope)
        mxs.append(c * base + s * mx_slope)
        denoms.append(d * base)
    # Point k+n/2 is (-c, -s, d): maxmin(-phi) = -minmax(phi) and back.
    mms, mxs, denoms = mms + [-v for v in mxs], mxs + [-v for v in mms], denoms * 2
    kinds = {c: _cone_kind(c, weight) for c in CONES if c != "alpha" or weight is not None}
    # One pass per cone gives its margin numerators over kind.den * denom,
    # which both its sample values and, as denom > 0, its signs read.
    cone_nums = {cone: list(map(kind.combine, mms, mxs)) for cone, kind in kinds.items()}
    # Each sampled field is its cone's margin; alpha is None without a weight.
    columns = []
    for cone in ("maxmin", "minmax", "half", "alpha"):
        if cone not in kinds:
            columns.append([None] * n)
            continue
        den = kinds[cone].den
        columns.append([Fraction(v, den * d) for v, d in zip(cone_nums[cone], denoms)])
    samples = tuple(map(SliceSample, _thetas(n), _directions(tuple(plane.e2), n), *columns))
    summary = tuple(
        (cone, _sign_arcs([v >= 0 for v in nums])) for cone, nums in cone_nums.items()
    )
    return SliceProfile(plane=plane, alpha_weight=weight, samples=samples, arc_summary=summary)


def _cone_kind(cone: str, weight: Optional[Fraction]) -> ModelKind:
    """The model kind whose margin is the cone's value at each sample."""
    if cone not in CONES:
        raise ValueError(f"unknown cone {cone!r}; expected one of {CONES}")
    if cone != "alpha":
        return _CONE_KINDS[cone]
    if weight is None:
        raise ValueError("profile was sampled without an alpha weight")
    return AlphaMixture(weight)


def certify_slice_convexity(profile: SliceProfile, cone: str) -> ConvexityVerdict:
    """Single-arc check for one cone's slice.

    For every cone but the disjunctive one, ``convex`` says whether the
    nonnegative samples form one contiguous circular arc (an empty or full
    circle counts).  The disjunctive cone is a union of two half-plane-like
    regions, so its complement is tested instead.  The flag is a single-arc
    test, not a convexity proof: one arc longer than a half-turn passes it,
    yet such a cone is not convex.  The arcs are the profile's own, so no
    sample's sign is taken again.
    """
    _cone_kind(cone, profile.alpha_weight)  # rejects unknown cones and a missing weight
    arcs = profile.arcs(cone)
    if cone == "disjunctive":  # the runs outside the nonnegative arcs
        outside = [True] * len(profile.samples)
        for start, length in arcs:
            for k in range(start, start + length):
                outside[k % len(outside)] = False
        arcs = _sign_arcs(outside)
    return ConvexityVerdict(cone=cone, convex=len(arcs) <= 1, arcs=arcs)


def export_slice(profile: SliceProfile, fmt: str) -> str:
    """Render a profile as CSV (decimal) or JSON (exact and decimal)."""
    if fmt == "csv":
        lines = ["theta,maxmin,minmax,half,alpha"]
        for s in profile.samples:
            cells = (s.theta, s.maxmin, s.minmax, s.half, s.alpha)
            lines.append(",".join("" if x is None else repr(float(x)) for x in cells))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        def both(x: Fraction) -> dict:
            return {"exact": str(x), "value": float(x)}

        doc = {
            "alpha_weight": None
            if profile.alpha_weight is None
            else str(profile.alpha_weight),
            "plane": {
                "e1": [str(e) for e in profile.plane.e1],
                "e2": [str(e) for e in profile.plane.e2],
            },
            "samples": [
                {
                    "theta": both(s.theta),
                    "direction": [str(e) for e in s.direction.entries],
                    "maxmin": both(s.maxmin),
                    "minmax": both(s.minmax),
                    "half": both(s.half),
                    "alpha": None if s.alpha is None else both(s.alpha),
                }
                for s in profile.samples
            ],
            "arc_summary": {
                cone: [list(a) for a in arcs] for cone, arcs in profile.arc_summary
            },
        }
        return json_text(doc)
    raise UnknownFormat(f"unsupported format {fmt!r}; expected 'csv' or 'json'")
