"""Exact-arithmetic decision universe: states, prizes, lotteries, acts, priors.

Every number is an exact :class:`fractions.Fraction` or an integer over a
common denominator (``vertex_rows``), and nothing rounds.
Preference judgments reduce to sign tests of exact margins, so cases that land
exactly on a boundary stay exact instead of dissolving into float noise.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "AlphaOutOfRange",
    "NotARational",
    "MAX_RATIONAL_DIGITS",
    "UnknownName",
    "UnknownBeliefSetName",
    "ValidationIssue",
    "InstanceValidationError",
    "parse_rational",
    "scaled",
    "primitive",
    "vertex_rows",
    "format_rational",
    "StateSpace",
    "PrizeSet",
    "Lottery",
    "UtilityFunction",
    "UtilityVector",
    "Act",
    "Prior",
    "BeliefSet",
    "BeliefCollection",
    "Instance",
    "utility_of_lottery",
    "utility_vector",
    "expected_value",
    "mixture_weight",
    "mix_lotteries",
    "mix_acts",
    "statewise_dominates",
    "constant_act",
    "act_from_utility_vector",
    "validate_instance",
    "load_instance",
    "instance_to_jsonable",
    "dumps_instance",
    "json_text",
]


class AlphaOutOfRange(ValueError):
    """Mixture weight outside the closed interval [0, 1]."""


class NotARational(ValueError):
    """A value that is not an exact rational in the file format, or too long."""


class UnknownName(KeyError, ValueError):
    """A belief-set or act name the instance does not define: a lookup miss and
    bad input at once, printed as its sentence rather than as a quoted key."""

    __str__ = ValueError.__str__


class UnknownBeliefSetName(UnknownName):
    """A model referenced a belief-set name absent from the collection."""


@dataclass(frozen=True)
class ValidationIssue:
    """One invariant violation found while validating raw instance data."""

    code: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: [{self.code}] {self.message}"


class InstanceValidationError(ValueError):
    """Carries every violation found in one validation pass, not just the first."""

    def __init__(self, issues: Iterable[ValidationIssue]):
        self.issues: tuple[ValidationIssue, ...] = tuple(issues)
        super().__init__("; ".join(str(issue) for issue in self.issues))


MAX_RATIONAL_DIGITS = 100  # per numerator and per denominator
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(value: object) -> Fraction:
    """Parse an exact rational from a JSON-level int or a string like ``"3/4"``.

    A string is an optional sign, decimal digits and an optional ``/digits``
    denominator, each part at most ``MAX_RATIONAL_DIGITS`` digits long.
    Floats (and bools) are rejected: accepting them would smuggle rounding
    into a pipeline whose whole point is exactness.  Decimal points and
    exponents are rejected too, so a short string cannot expand into a huge
    integer that every later computation carries.
    """
    if isinstance(value, bool):
        raise NotARational(f"not a rational: {value!r}")
    if isinstance(value, int):
        if abs(value) >= 10**MAX_RATIONAL_DIGITS:
            raise NotARational(f"integer longer than {MAX_RATIONAL_DIGITS} digits")
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise NotARational(f"not a rational: {value!r}")
        num, den = match.group(1).lstrip("+-"), match.group(2) or "1"
        if max(len(num), len(den)) > MAX_RATIONAL_DIGITS:
            raise NotARational(
                f"rational part longer than {MAX_RATIONAL_DIGITS} digits: {value[:20]!r}..."
            )
        if int(den) == 0:
            raise NotARational(f"zero denominator: {value!r}")
        return Fraction(int(match.group(1)), int(den))
    raise NotARational(
        f"expected an integer or 'num/den' string, got {type(value).__name__}"
    )


def exact_rational(value, what: str) -> Fraction:
    """``value`` as a Fraction; NotARational unless an int (not a bool) or a Fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise NotARational(f"{what} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def scaled(values: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """``(den, ints)``: the values as integers over ``den``, the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def primitive(ints: list[int]) -> list[int]:
    """The integers divided by their gcd, or ``ints`` itself when the gcd is 1 or 0."""
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def vertex_rows(
    sets: Sequence[BeliefSet],
) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """``(den, rows)``: ``rows[g][k]`` is ``den`` times the g-th set's k-th vertex,
    ``den`` the lcm of all their vertex denominators; the only place vertices
    become ints."""
    den, flat = scaled([p for s in sets for v in s.vertices for p in v.probs])
    ints = iter(flat)
    return den, tuple(tuple(tuple(islice(ints, len(v.probs))) for v in s.vertices) for s in sets)


def format_rational(value: Fraction) -> str:
    """Render a Fraction in the canonical file format: ``"3/4"`` or ``"2"``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _require_unique(labels: Sequence[str], what: str) -> None:
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate {what} labels: {labels!r}")


@dataclass(frozen=True)
class StateSpace:
    """Finite, ordered set of states of the world."""

    states: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("state space must be nonempty")
        _require_unique(self.states, "state")

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[str]:
        return iter(self.states)

    def index(self, label: str) -> int:
        return self.states.index(label)


@dataclass(frozen=True)
class PrizeSet:
    """Finite, ordered set of prizes; at least two so utility can vary."""

    prizes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.prizes) < 2:
            raise ValueError("need at least two prizes")
        _require_unique(self.prizes, "prize")

    def __len__(self) -> int:
        return len(self.prizes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.prizes)


@dataclass(frozen=True)
class Lottery:
    """Probability distribution over prizes.

    Zero-weight prizes are dropped on construction so that two lotteries are
    equal exactly when they assign the same weight to every prize.
    """

    weights: Mapping[str, Fraction]

    def __post_init__(self) -> None:
        cleaned: dict[str, Fraction] = {}
        total = Fraction(0)
        for prize, weight in self.weights.items():
            if weight < 0:
                raise ValueError(f"negative weight {weight} on prize {prize!r}")
            total += weight
            if weight != 0:
                cleaned[prize] = weight
        if total != 1:
            raise ValueError(f"lottery weights sum to {total}, expected 1")
        object.__setattr__(self, "weights", cleaned)

    def weight(self, prize: str) -> Fraction:
        return self.weights.get(prize, Fraction(0))

    def support(self) -> tuple[str, ...]:
        return tuple(self.weights)


@dataclass(frozen=True)
class UtilityFunction:
    """Affine utility over prizes; must take at least two distinct values."""

    values: Mapping[str, Fraction]

    def __post_init__(self) -> None:
        if len(set(self.values.values())) < 2:
            raise ValueError("utility is constant across prizes")
        object.__setattr__(self, "values", dict(self.values))

    def value(self, prize: str) -> Fraction:
        return self.values[prize]

    def bounds(self) -> tuple[Fraction, Fraction]:
        vals = list(self.values.values())
        return min(vals), max(vals)

    def extreme_prizes(self) -> tuple[str, str]:
        """Prizes attaining the minimal and maximal utility (first occurrence wins)."""
        lo_prize = hi_prize = next(iter(self.values))
        for prize, val in self.values.items():
            if val < self.values[lo_prize]:
                lo_prize = prize
            if val > self.values[hi_prize]:
                hi_prize = prize
        return lo_prize, hi_prize


@dataclass(frozen=True)
class UtilityVector:
    """State-indexed vector of utility levels, with exact linear arithmetic."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("utility vector must have at least one entry")

    def __len__(self) -> int:
        return len(self.entries)

    def __add__(self, other: "UtilityVector") -> "UtilityVector":
        self._check_dim(other)
        return UtilityVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "UtilityVector") -> "UtilityVector":
        self._check_dim(other)
        return UtilityVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "UtilityVector":
        return UtilityVector(tuple(-a for a in self.entries))

    def scale(self, factor: Fraction) -> "UtilityVector":
        return UtilityVector(tuple(factor * a for a in self.entries))

    def shift(self, constant: Fraction) -> "UtilityVector":
        """Add ``constant`` to every coordinate (translation along the diagonal)."""
        return UtilityVector(tuple(a + constant for a in self.entries))

    def inf_norm(self) -> Fraction:
        return max(abs(a) for a in self.entries)

    def is_constant(self) -> bool:
        return all(a == self.entries[0] for a in self.entries)

    def _check_dim(self, other: "UtilityVector") -> None:
        if len(other.entries) != len(self.entries):
            raise ValueError("dimension mismatch between utility vectors")


@dataclass(frozen=True)
class Act:
    """State-contingent lottery assignment, stored in declared state order."""

    lotteries: tuple[Lottery, ...]

    def __post_init__(self) -> None:
        if not self.lotteries:
            raise ValueError("act must cover at least one state")

    def is_constant(self) -> bool:
        return all(lot == self.lotteries[0] for lot in self.lotteries)


@dataclass(frozen=True)
class Prior:
    """Probability distribution over states, stored in declared state order."""

    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("prior must cover at least one state")
        if any(p < 0 for p in self.probs):
            raise ValueError(f"negative probability in {self.probs}")
        if sum(self.probs) != 1:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, expected 1")

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class BeliefSet:
    """Convex polytope of priors, given by its (nonempty) vertex list.

    Exact duplicate vertices are rejected rather than silently deduplicated,
    which keeps instance files canonical.  Listed points need not be extreme:
    redundant interior generators never change a linear minimum or maximum.
    """

    name: str
    vertices: tuple[Prior, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError(f"belief set {self.name!r} has no vertices")
        dims = {len(v) for v in self.vertices}
        if len(dims) != 1:
            raise ValueError(f"belief set {self.name!r} mixes dimensions {sorted(dims)}")
        seen = set()
        for vertex in self.vertices:
            if vertex.probs in seen:
                raise ValueError(f"belief set {self.name!r} repeats vertex {vertex.probs}")
            seen.add(vertex.probs)

    @property
    def dimension(self) -> int:
        return len(self.vertices[0])


@dataclass(frozen=True)
class BeliefCollection:
    """Finite family of belief sets over a common state space."""

    sets: tuple[BeliefSet, ...]

    def __post_init__(self) -> None:
        if not self.sets:
            raise ValueError("belief collection must contain at least one set")
        dims = {s.dimension for s in self.sets}
        if len(dims) != 1:
            raise ValueError(f"belief sets disagree on dimension: {sorted(dims)}")
        _require_unique([s.name for s in self.sets], "belief set")

    @property
    def dimension(self) -> int:
        return self.sets[0].dimension

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[BeliefSet]:
        return iter(self.sets)

    @cached_property
    def integer_view(self) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
        """``vertex_rows`` of the collection's sets.  Cached outside the fields,
        so equality and hashing ignore it."""
        return vertex_rows(self.sets)

    def get(self, name: str) -> BeliefSet:
        for bset in self.sets:
            if bset.name == name:
                return bset
        names = ", ".join(bset.name for bset in self.sets)
        raise UnknownBeliefSetName(f"no belief set named {name!r}; the collection has {names}")


@dataclass(frozen=True)
class Instance:
    """A complete decision problem: universe, utility, beliefs, named acts."""

    states: StateSpace
    prizes: PrizeSet
    utility: UtilityFunction
    collection: BeliefCollection
    acts: Mapping[str, Act]

    def __post_init__(self) -> None:
        n = len(self.states)
        if self.collection.dimension != n:
            raise ValueError(
                f"belief sets live on {self.collection.dimension} states, instance has {n}"
            )
        if set(self.utility.values) != set(self.prizes):
            raise ValueError("utility must assign a value to exactly the declared prizes")
        for name, act in self.acts.items():
            if len(act.lotteries) != n:
                raise ValueError(f"act {name!r} covers {len(act.lotteries)} states, expected {n}")
            for lottery in act.lotteries:
                unknown = set(lottery.weights) - set(self.prizes)
                if unknown:
                    raise ValueError(f"act {name!r} uses unknown prizes {sorted(unknown)}")
        object.__setattr__(self, "acts", dict(self.acts))

    @property
    def num_states(self) -> int:
        return len(self.states)

    def act(self, name: str) -> Act:
        try:
            return self.acts[name]
        except KeyError:
            acts = ", ".join(self.acts)
            raise UnknownName(f"instance has no act named {name!r}; it has {acts}") from None

    def utility_bounds(self) -> tuple[Fraction, Fraction]:
        return self.utility.bounds()


def utility_of_lottery(utility: UtilityFunction, lottery: Lottery) -> Fraction:
    """Expected utility of a lottery under an affine utility function."""
    return sum((w * utility.value(z) for z, w in lottery.weights.items()), Fraction(0))


def utility_vector(utility: UtilityFunction, act: Act) -> UtilityVector:
    """Statewise utility profile of an act."""
    return UtilityVector(tuple(utility_of_lottery(utility, lot) for lot in act.lotteries))


def expected_value(prior: Prior, vector: UtilityVector) -> Fraction:
    """Inner product of a prior and a utility vector."""
    if len(prior) != len(vector):
        raise ValueError("prior and utility vector disagree on dimension")
    return sum((p * v for p, v in zip(prior.probs, vector.entries)), Fraction(0))


def mixture_weight(alpha) -> Fraction:
    """``alpha`` as a Fraction in [0, 1]; NotARational unless exact, AlphaOutOfRange outside."""
    alpha = exact_rational(alpha, "mixture weight")
    if not 0 <= alpha <= 1:
        raise AlphaOutOfRange(f"mixture weight {alpha} outside [0, 1]")
    return alpha


def mix_lotteries(alpha: Fraction, x: Lottery, y: Lottery) -> Lottery:
    """Prize-wise mixture alpha*x + (1-alpha)*y, exact."""
    alpha = mixture_weight(alpha)
    prizes = set(x.weights) | set(y.weights)
    return Lottery({z: alpha * x.weight(z) + (1 - alpha) * y.weight(z) for z in prizes})


def mix_acts(alpha: Fraction, f: Act, g: Act) -> Act:
    """Statewise mixture of two acts over the same state space."""
    alpha = mixture_weight(alpha)
    if len(f.lotteries) != len(g.lotteries):
        raise ValueError("acts disagree on the number of states")
    return Act(tuple(mix_lotteries(alpha, a, b) for a, b in zip(f.lotteries, g.lotteries)))


def statewise_dominates(instance: Instance, f: Act, g: Act) -> bool:
    """True when f's lottery is unambiguously at least as good as g's in every state."""
    uf = utility_vector(instance.utility, f)
    ug = utility_vector(instance.utility, g)
    return all(a >= b for a, b in zip(uf.entries, ug.entries))


def _lottery_at_utility(instance: Instance, target: Fraction) -> Lottery:
    lo, hi = instance.utility_bounds()
    if not lo <= target <= hi:
        raise ValueError(f"utility level {target} outside representable range [{lo}, {hi}]")
    lo_prize, hi_prize = instance.utility.extreme_prizes()
    weight_hi = (target - lo) / (hi - lo)
    return Lottery({hi_prize: weight_hi, lo_prize: 1 - weight_hi})


def constant_act(instance: Instance, level: Fraction) -> Act:
    """Constant act whose utility equals ``level`` in every state."""
    lottery = _lottery_at_utility(instance, level)
    return Act(tuple(lottery for _ in range(instance.num_states)))


def act_from_utility_vector(instance: Instance, targets: Sequence[Fraction]) -> Act:
    """Realize a target utility vector as lotteries over the two extreme prizes."""
    if len(targets) != instance.num_states:
        raise ValueError("target vector dimension does not match the state space")
    return Act(tuple(_lottery_at_utility(instance, t) for t in targets))


# ----------------------------------------------------------------------------
# JSON loading and serialization
# ----------------------------------------------------------------------------


class _IssueLog:
    def __init__(self) -> None:
        self.issues: list[ValidationIssue] = []

    def add(self, code: str, path: str, message: str) -> None:
        self.issues.append(ValidationIssue(code, path, message))

    def rational(self, value: object, path: str) -> Fraction | None:
        try:
            return parse_rational(value)
        except ValueError as exc:
            self.add("BadRational", path, str(exc))
            return None


def _validate_labels(raw: Mapping, key: str, minimum: int, log: _IssueLog) -> list[str]:
    value = raw.get(key)
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        log.add("MissingField", key, f"expected a list of strings under {key!r}")
        return []
    if len(value) < minimum:
        log.add("DimensionMismatch", key, f"need at least {minimum} entries, got {len(value)}")
    if len(set(value)) != len(value):
        log.add("DuplicateLabel", key, f"duplicate labels in {key!r}")
    return value


def _validate_lottery(raw: object, prizes: list[str], path: str, log: _IssueLog) -> Lottery | None:
    if not isinstance(raw, Mapping):
        log.add("MissingField", path, "expected a prize-to-weight map")
        return None
    weights: dict[str, Fraction] = {}
    total = Fraction(0)
    ok = True
    for prize, rawweight in raw.items():
        if prize not in prizes:
            log.add("UnknownPrize", f"{path}.{prize}", f"prize {prize!r} was never declared")
            ok = False
            continue
        weight = log.rational(rawweight, f"{path}.{prize}")
        if weight is None:
            ok = False
            continue
        if weight < 0:
            log.add("NonSimplexLottery", f"{path}.{prize}", f"negative weight {weight}")
            ok = False
        weights[prize] = weight
        total += weight
    if ok and total != 1:
        log.add("NonSimplexLottery", path, f"weights sum to {total}, expected 1")
        ok = False
    if not ok:
        return None
    return Lottery(weights)


def validate_instance(raw: Mapping) -> Instance:
    """Build a fully validated :class:`Instance` from parsed JSON data.

    Collects every violation it can find and raises a single
    :class:`InstanceValidationError`, rather than stopping at the first
    problem; a rejected file should be fixable in one round trip.
    """
    if not isinstance(raw, Mapping):
        raise InstanceValidationError(
            [ValidationIssue("MissingField", "$", "instance must be a JSON object")]
        )
    log = _IssueLog()
    state_labels = _validate_labels(raw, "states", 1, log)
    prize_labels = _validate_labels(raw, "prizes", 2, log)
    n = len(state_labels)

    utility_values: dict[str, Fraction] = {}
    raw_utility = raw.get("utility")
    if not isinstance(raw_utility, Mapping):
        log.add("MissingField", "utility", "expected a prize-to-value map under 'utility'")
    else:
        for prize in prize_labels:
            if prize not in raw_utility:
                log.add("MissingField", f"utility.{prize}", "no utility assigned")
                continue
            value = log.rational(raw_utility[prize], f"utility.{prize}")
            if value is not None:
                utility_values[prize] = value
        for prize in raw_utility:
            if prize not in prize_labels:
                log.add("UnknownPrize", f"utility.{prize}", f"prize {prize!r} was never declared")
        if len(utility_values) == len(prize_labels) and len(set(utility_values.values())) < 2:
            log.add("ConstantUtility", "utility", "utility takes a single value on all prizes")

    belief_sets: list[BeliefSet] = []
    raw_collection = raw.get("belief_collection")
    if not isinstance(raw_collection, list) or not raw_collection:
        log.add("EmptyCollection", "belief_collection", "need a nonempty list of belief sets")
    else:
        names_seen: set[str] = set()
        for si, raw_set in enumerate(raw_collection):
            path = f"belief_collection[{si}]"
            if not isinstance(raw_set, Mapping):
                log.add("MissingField", path, "expected an object with 'name' and 'vertices'")
                continue
            name = raw_set.get("name")
            if not isinstance(name, str) or not name:
                log.add("MissingField", f"{path}.name", "belief set needs a nonempty name")
                name = f"<set {si}>"
            if name in names_seen:
                log.add("DuplicateLabel", f"{path}.name", f"belief set name {name!r} reused")
            names_seen.add(name)
            raw_vertices = raw_set.get("vertices")
            if not isinstance(raw_vertices, list) or not raw_vertices:
                log.add("EmptyCollection", f"{path}.vertices", "belief set has no vertices")
                continue
            vertices: list[Prior] = []
            probs_seen: set[tuple[Fraction, ...]] = set()
            for vi, raw_vertex in enumerate(raw_vertices):
                vpath = f"{path}.vertices[{vi}]"
                if not isinstance(raw_vertex, list) or (n and len(raw_vertex) != n):
                    log.add(
                        "DimensionMismatch",
                        vpath,
                        f"vertex must list one probability per state (expected {n})",
                    )
                    continue
                probs = [log.rational(entry, f"{vpath}[{k}]") for k, entry in enumerate(raw_vertex)]
                if any(p is None for p in probs):
                    continue
                entries = tuple(probs)
                if any(p < 0 for p in entries) or sum(entries) != 1:
                    log.add("NonSimplexPrior", vpath, f"entries {list(map(str, entries))} are not a distribution")
                    continue
                if entries in probs_seen:
                    log.add("DuplicateVertex", vpath, "vertex repeats an earlier one exactly")
                    continue
                probs_seen.add(entries)
                vertices.append(Prior(entries))
            if vertices:
                belief_sets.append(BeliefSet(name, tuple(vertices)))

    acts: dict[str, Act] = {}
    raw_acts = raw.get("acts", {})
    if not isinstance(raw_acts, Mapping):
        log.add("MissingField", "acts", "expected an act-name-to-assignment map")
        raw_acts = {}
    for act_name, raw_act in raw_acts.items():
        path = f"acts.{act_name}"
        if not isinstance(raw_act, Mapping):
            log.add("MissingField", path, "expected a state-to-lottery map")
            continue
        for state in raw_act:
            if state not in state_labels:
                log.add("UnknownState", f"{path}.{state}", f"state {state!r} was never declared")
        missing = [s for s in state_labels if s not in raw_act]
        if missing:
            log.add("DimensionMismatch", path, f"no lottery for states {missing}")
            continue
        lotteries = [
            _validate_lottery(raw_act[state], prize_labels, f"{path}.{state}", log)
            for state in state_labels
        ]
        if all(lot is not None for lot in lotteries):
            acts[act_name] = Act(tuple(lot for lot in lotteries if lot is not None))

    if log.issues:
        raise InstanceValidationError(log.issues)
    return Instance(
        states=StateSpace(tuple(state_labels)),
        prizes=PrizeSet(tuple(prize_labels)),
        utility=UtilityFunction(utility_values),
        collection=BeliefCollection(tuple(belief_sets)),
        acts=acts,
    )


def load_instance(path: str) -> Instance:
    """Read and validate an instance JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    return validate_instance(raw)


def instance_to_jsonable(instance: Instance) -> dict:
    """Canonical JSON-ready form: rationals as strings, zero weights omitted."""
    return {
        "states": list(instance.states),
        "prizes": list(instance.prizes),
        "utility": {z: format_rational(v) for z, v in instance.utility.values.items()},
        "belief_collection": [
            {
                "name": bset.name,
                "vertices": [[format_rational(p) for p in v.probs] for v in bset.vertices],
            }
            for bset in instance.collection
        ],
        "acts": {
            name: {
                state: {z: format_rational(w) for z, w in lottery.weights.items()}
                for state, lottery in zip(instance.states, act.lotteries)
            }
            for name, act in instance.acts.items()
        },
    }


def json_text(doc: object) -> str:
    """The one layout of every JSON text the package writes: same document, same bytes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dumps_instance(instance: Instance) -> str:
    """Serialize deterministically: same instance, same bytes."""
    return json_text(instance_to_jsonable(instance))
