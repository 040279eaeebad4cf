"""Seeded random decision problems with small exact-rational beliefs.

Every draw comes from one ``random.Random`` stream keyed by the seed, so a
seed determines the instance byte for byte.  Priors are integer compositions
of a common denominator (a stick-breaking walk, then a shuffle so no state
is systematically favored), which bounds every probability's denominator by
construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from fractions import Fraction

from .model import (
    MAX_RATIONAL_DIGITS,
    Act,
    BeliefCollection,
    BeliefSet,
    Instance,
    Lottery,
    Prior,
    PrizeSet,
    StateSpace,
    UtilityFunction,
)

__all__ = ["ParamsOutOfRange", "GenParams", "generate_instance", "MAX_STATES", "MAX_SETS", "MAX_VERTICES"]

MAX_STATES = 4
MAX_SETS = 4
MAX_VERTICES = 6


class ParamsOutOfRange(ValueError):
    """Generation parameters outside the supported desk-scale box."""


@dataclass(frozen=True)
class GenParams:
    """Size knobs for one generated instance.

    ``vertices_per_set`` is a ceiling; each belief set draws its own count
    between 1 and the ceiling.  ``denominator_bound`` is the common
    denominator of all prior entries, so it also bounds every reduced
    denominator; it stays below ``10**MAX_RATIONAL_DIGITS``, so the instance
    file's rationals fit what the loader accepts.  Every field is an ``int``.
    """

    num_states: int = 3
    num_sets: int = 3
    vertices_per_set: int = 4
    denominator_bound: int = 20

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParamsOutOfRange(f"{field.name} must be an int; got {self}")
        checks = [
            (2 <= self.num_states <= MAX_STATES, f"num_states must be in [2, {MAX_STATES}]"),
            (1 <= self.num_sets <= MAX_SETS, f"num_sets must be in [1, {MAX_SETS}]"),
            (
                1 <= self.vertices_per_set <= MAX_VERTICES,
                f"vertices_per_set must be in [1, {MAX_VERTICES}]",
            ),
            (self.denominator_bound >= 2, "denominator_bound must be at least 2"),
            (
                self.denominator_bound < 10**MAX_RATIONAL_DIGITS,
                f"denominator_bound must be below 10**{MAX_RATIONAL_DIGITS}",
            ),
        ]
        for ok, message in checks:
            if not ok:
                raise ParamsOutOfRange(f"{message}; got {self}")


def _draw_prior(rng: random.Random, num_states: int, denominator: int) -> Prior:
    parts = []
    remaining = denominator
    for _ in range(num_states - 1):
        cut = rng.randint(0, remaining)
        parts.append(cut)
        remaining -= cut
    parts.append(remaining)
    rng.shuffle(parts)
    return Prior(tuple(Fraction(c, denominator) for c in parts))


def _draw_belief_set(
    rng: random.Random, name: str, params: GenParams
) -> BeliefSet:
    grid_points = math.comb(
        params.denominator_bound + params.num_states - 1, params.num_states - 1
    )
    count = min(rng.randint(1, params.vertices_per_set), grid_points)
    vertices: list[Prior] = []
    seen: set[tuple[Fraction, ...]] = set()
    while len(vertices) < count:
        prior = _draw_prior(rng, params.num_states, params.denominator_bound)
        if prior.probs in seen:
            continue
        seen.add(prior.probs)
        vertices.append(prior)
    return BeliefSet(name=name, vertices=tuple(vertices))


def generate_instance(seed: int, params: GenParams | None = None) -> Instance:
    """Deterministic instance for one seed: two prizes at utilities -1 and 1.

    The symmetric utility range hosts the default audit batteries (radius 1
    around zero) and the witness constructions, which center on the zero
    constant act.  Named acts cover the two constants plus one bet per
    state, so every instance is immediately usable from the command line.
    """
    if params is None:
        params = GenParams()
    rng = random.Random(seed)
    states = StateSpace(tuple(f"s{i + 1}" for i in range(params.num_states)))
    prizes = PrizeSet(("lose", "win"))
    utility = UtilityFunction({"lose": Fraction(-1), "win": Fraction(1)})
    sets = tuple(
        _draw_belief_set(rng, f"P{i + 1}", params) for i in range(params.num_sets)
    )
    win = Lottery({"win": Fraction(1)})
    lose = Lottery({"lose": Fraction(1)})
    acts: dict[str, Act] = {
        "all_win": Act(tuple(win for _ in range(params.num_states))),
        "all_lose": Act(tuple(lose for _ in range(params.num_states))),
    }
    for i, label in enumerate(states):
        acts[f"bet_{label}"] = Act(
            tuple(win if j == i else lose for j in range(params.num_states))
        )
    return Instance(
        states=states,
        prizes=prizes,
        utility=utility,
        collection=BeliefCollection(sets),
        acts=acts,
    )
