"""Margin operators over belief collections and the preference models they induce.

Every model here judges "f at least as good as g" by the sign of a rational
margin computed from phi = u(f) - u(g).  The two primitive functionals are
the maxmin margin (best set, worst vertex) and the minmax margin (worst set,
best vertex); everything else is a combination or a restriction of those.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

from .model import (
    Act,
    BeliefCollection,
    BeliefSet,
    Instance,
    Prior,
    UtilityVector,
    expected_value,
    mixture_weight,
    scaled,
    utility_vector,
)

__all__ = [
    "set_min",
    "set_max",
    "MarginProfile",
    "vertex_extremes",
    "margin_profile",
    "GeneralizedBewley",
    "Disjunctive",
    "Conjunctive",
    "HalfMixture",
    "AlphaMixture",
    "Bewley",
    "Justifiable",
    "SEU",
    "ModelKind",
    "describe_model",
    "model_margin",
    "margin_pair",
    "Relation",
    "weakly_prefers",
    "classify",
    "robust_weakly_prefers",
    "phi_between",
]


def set_min(bset: BeliefSet, phi: UtilityVector) -> Fraction:
    """Minimal expectation of phi over the set; attained at a listed vertex."""
    return min(expected_value(v, phi) for v in bset.vertices)


def set_max(bset: BeliefSet, phi: UtilityVector) -> Fraction:
    """Maximal expectation of phi over the set; attained at a listed vertex."""
    return max(expected_value(v, phi) for v in bset.vertices)


@dataclass(frozen=True)
class MarginProfile:
    """The two primitive margins of one utility difference vector."""

    maxmin: Fraction
    minmax: Fraction


def vertex_extremes(rows, x: Sequence[int]) -> tuple[list[list[int]], int, int]:
    """Each set's values of integer x on ``integer_view`` rows, their maxmin, minmax."""
    values = [[sum(map(operator.mul, row, x)) for row in verts] for verts in rows]
    return values, max(map(min, values)), min(map(max, values))


def margin_profile(collection: BeliefCollection, phi: UtilityVector) -> MarginProfile:
    """Compute both primitive margins on the collection's integer vertex rows."""
    if len(phi) != collection.dimension:
        raise ValueError("prior and utility vector disagree on dimension")
    den, rows = collection.integer_view
    q, x = scaled(phi.entries)
    _, maxmin, minmax = vertex_extremes(rows, x)
    return MarginProfile(maxmin=Fraction(maxmin, den * q), minmax=Fraction(minmax, den * q))


class _Kind:
    """One model kind's rule: the belief sets it reads and how it combines them.

    ``combine(maxmin, minmax)`` is integer-homogeneous, so it works on exact
    Fractions and on integers scaled to a common denominator alike; divided
    by ``den`` it is the model's margin.  Over a single set, maxmin is the
    set's minimal vertex expectation and minmax its maximal one, so the
    one-set models are the same algebra over a smaller collection.

    With D = minmax - maxmin, the margin is maxmin + u * max(D, 0) +
    v * min(D, 0), its ``slopes`` (u, v) each in [0, 1]: a point between the
    two primitives, so where they share a sign, or one is 0, the slopes fix
    its sign.  ``None`` marks a rule with no slopes; they are not fields.
    """

    den = 1
    slopes = None

    def sets(self, collection: BeliefCollection) -> BeliefCollection:
        return collection

    def margin(self, maxmin: Fraction, minmax: Fraction) -> Fraction:
        value = self.combine(maxmin, minmax)
        return value if self.den == 1 else value / self.den


@dataclass(frozen=True)
class GeneralizedBewley(_Kind):
    """Judge by the maxmin margin: some belief set clears phi at every vertex."""

    tag = "generalized-bewley"
    combine = staticmethod(lambda maxmin, minmax: maxmin)
    slopes = (0, 0)


@dataclass(frozen=True)
class Disjunctive(_Kind):
    """Judge by the larger of the two primitive margins."""

    tag = "disjunctive"
    combine = staticmethod(max)
    slopes = (1, 0)


@dataclass(frozen=True)
class Conjunctive(_Kind):
    """Judge by the smaller of the two primitive margins."""

    tag = "conjunctive"
    combine = staticmethod(min)
    slopes = (0, 1)


@dataclass(frozen=True)
class HalfMixture(_Kind):
    """Judge by the average of the two primitive margins."""

    tag = "half-mixture"
    den = 2
    combine = staticmethod(operator.add)
    slopes = (Fraction(1, 2), Fraction(1, 2))


@dataclass(frozen=True)
class AlphaMixture(_Kind):
    """Judge by alpha * maxmin + (1 - alpha) * minmax, alpha an exact p / q."""

    alpha: Fraction

    def __post_init__(self) -> None:
        alpha = mixture_weight(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "_weights", (alpha.numerator, alpha.denominator - alpha.numerator))
        object.__setattr__(self, "den", alpha.denominator)
        object.__setattr__(self, "slopes", (1 - alpha, 1 - alpha))

    @property
    def tag(self) -> str:
        return f"alpha-mixture({self.alpha})"

    def combine(self, maxmin, minmax):
        p, rest = self._weights
        return p * maxmin + rest * minmax


class _OneSet(_Kind):
    """A kind that reads one named belief set of the collection."""

    @property
    def tag(self) -> str:
        return f"{self.label}({self.set_name})"

    def sets(self, collection: BeliefCollection) -> BeliefCollection:
        return BeliefCollection((collection.get(self.set_name),))


@dataclass(frozen=True)
class Bewley(_OneSet):
    """Judge by the minimal vertex expectation of one named belief set."""

    set_name: str
    label = "bewley"
    combine = staticmethod(lambda maxmin, minmax: maxmin)
    slopes = (0, 0)


@dataclass(frozen=True)
class Justifiable(_OneSet):
    """Judge by the maximal vertex expectation of one named belief set."""

    set_name: str
    label = "justifiable"
    combine = staticmethod(lambda maxmin, minmax: minmax)
    slopes = (1, 1)


@dataclass(frozen=True)
class SEU(_Kind):
    """Judge by the expectation under a single fixed prior."""

    prior: Prior
    combine = staticmethod(lambda maxmin, minmax: maxmin)
    slopes = (0, 0)

    @property
    def tag(self) -> str:
        return "seu(" + ",".join(str(p) for p in self.prior.probs) + ")"

    def sets(self, collection: BeliefCollection) -> BeliefCollection:
        return BeliefCollection((BeliefSet("seu", (self.prior,)),))


ModelKind = Union[
    GeneralizedBewley,
    Disjunctive,
    Conjunctive,
    HalfMixture,
    AlphaMixture,
    Bewley,
    Justifiable,
    SEU,
]


def describe_model(kind: ModelKind) -> str:
    """Short printable tag for reports."""
    return kind.tag


def model_margin(kind: ModelKind, collection: BeliefCollection, phi: UtilityVector) -> Fraction:
    """Margin a model assigns to the utility difference phi."""
    profile = margin_profile(kind.sets(collection), phi)
    return kind.margin(profile.maxmin, profile.minmax)


def margin_pair(
    kind: ModelKind, collection: BeliefCollection, phi: UtilityVector
) -> tuple[Fraction, Fraction]:
    """Margins of phi and of -phi, sharing one vertex sweep.

    Uses the duality maxmin(-phi) = -minmax(phi): negating the difference
    swaps the roles of the two primitive margins.
    """
    profile = margin_profile(kind.sets(collection), phi)
    mm, mx = profile.maxmin, profile.minmax
    return kind.margin(mm, mx), kind.margin(-mx, -mm)


class Relation(Enum):
    """Joint outcome of judging a pair in both directions."""

    STRICTLY_PREFERRED = "strictly_preferred"
    STRICTLY_DISPREFERRED = "strictly_dispreferred"
    INDIFFERENT = "indifferent"
    INCOMPARABLE = "incomparable"


def _relation_from(forward_ok: bool, reverse_ok: bool) -> Relation:
    if forward_ok and reverse_ok:
        return Relation.INDIFFERENT
    if forward_ok:
        return Relation.STRICTLY_PREFERRED
    if reverse_ok:
        return Relation.STRICTLY_DISPREFERRED
    return Relation.INCOMPARABLE


def phi_between(instance: Instance, f: Act, g: Act) -> UtilityVector:
    """Utility difference u(f) - u(g) on which every judgment is based."""
    return utility_vector(instance.utility, f) - utility_vector(instance.utility, g)


def weakly_prefers(kind: ModelKind, instance: Instance, f: Act, g: Act) -> bool:
    """True when the model's margin for u(f) - u(g) is nonnegative."""
    return model_margin(kind, instance.collection, phi_between(instance, f, g)) >= 0


def classify(kind: ModelKind, instance: Instance, f: Act, g: Act) -> Relation:
    """Judge the pair in both directions and name the joint outcome."""
    forward, reverse = margin_pair(kind, instance.collection, phi_between(instance, f, g))
    return _relation_from(forward >= 0, reverse >= 0)


def robust_weakly_prefers(kind: ModelKind, instance: Instance, f: Act, g: Act) -> bool:
    """Strict-margin variant: holds only when the margin is strictly positive.

    A margin of exactly zero counts as not robust; audits that rely on this
    predicate flag those boundary judgments.
    """
    return model_margin(kind, instance.collection, phi_between(instance, f, g)) > 0
