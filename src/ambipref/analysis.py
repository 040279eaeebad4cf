"""Exact structural analysis of belief collections.

Decides the two parametric conditions that govern completeness and
constant-bound transitivity of the margin models: absence of a cutting
hyperplane, by the sign of minmax - maxmin on the integer rays of a plane
arrangement, and pairwise intersection of the belief sets, by rational LPs.
Also constructs the explicit counterexample acts that replay a failing
condition as a concrete axiom violation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

from .lp import Constraint, LinearProgram, solve
from .margins import GeneralizedBewley, margin_pair, margin_profile, vertex_extremes
from .model import (
    Act,
    BeliefCollection,
    BeliefSet,
    Instance,
    Prior,
    UtilityVector,
    act_from_utility_vector,
    constant_act,
    exact_rational,
    primitive,
    scaled,
    vertex_rows,
)

__all__ = [
    "DimensionMismatch",
    "WrongDimension",
    "CommonPrior",
    "SametCertificate",
    "CuttingHyperplane",
    "PairEntry",
    "PairwiseReport",
    "CommutativityVerdict",
    "AnalysisReport",
    "polytopes_intersect",
    "pair_entries",
    "pairwise_intersection_holds",
    "find_cutting_hyperplane",
    "check_commutativity",
    "seu_collapse_binary",
    "build_incompleteness_witness",
    "build_cbt_witness",
    "phi_lattice",
    "MAX_BATTERY_ACTS",
    "MAX_CUT_WORK",
    "check_battery",
    "analyze",
]


class DimensionMismatch(ValueError):
    """Two belief sets live on state spaces of different sizes."""


class WrongDimension(ValueError):
    """The operation requires a specific number of states."""


@dataclass(frozen=True)
class CommonPrior:
    """A prior in both hulls, with the mixture weights that express it."""

    prior: Prior
    weights_first: tuple[Fraction, ...]
    weights_second: tuple[Fraction, ...]

    def verify(self, first: BeliefSet, second: BeliefSet) -> bool:
        """Checked on integers: with the weights over their lcm q, the vertex
        rows over den and the prior over p, each weight list is nonnegative,
        sums to q, and mixes its rows into q * den / p times the prior."""
        den, rows = vertex_rows((first, second))
        p, prior = scaled(self.prior.probs)
        for weights, verts in zip((self.weights_first, self.weights_second), rows):
            if len(weights) != len(verts) or len(verts[0]) != len(prior):
                return False
            q, ints = scaled(weights)
            if any(w < 0 for w in ints) or sum(ints) != q:
                return False
            scale = q * den
            for s, target in enumerate(prior):
                if p * sum(w * v[s] for w, v in zip(ints, verts)) != target * scale:
                    return False
        return True


@dataclass(frozen=True)
class SametCertificate:
    """Disjointness certificate: opposite functionals, both with positive floor."""

    phi1: UtilityVector
    phi2: UtilityVector
    slack: Fraction

    def verify(self, first: BeliefSet, second: BeliefSet) -> bool:
        """Checked on integers: with phi1 and phi2 over their lcm q and the
        vertex rows over den, phi2 = -phi1 and den * q * slack is the
        smaller integer floor, and positive."""
        n = len(self.phi1)
        q, ints = scaled((*self.phi1.entries, *self.phi2.entries))
        x = ints[:n]
        if len(self.phi2) != n or ints[n:] != [-a for a in x]:
            return False
        if first.dimension != n or second.dimension != n:
            return False
        den, rows = vertex_rows((first, second))
        (on_first, on_second), _, _ = vertex_extremes(rows, x)
        floor = min(min(on_first), -max(on_second))
        slack = self.slack
        return slack > 0 and slack.numerator * den * q == floor * slack.denominator


@dataclass(frozen=True)
class CuttingHyperplane:
    """A functional that every belief set straddles strictly.

    ``straddles[g]`` names the vertex indices (plus side, minus side) of the
    g-th set; the offset is always reported in the shifted form where the
    threshold is zero.
    """

    normal: UtilityVector
    offset: Fraction
    straddles: tuple[tuple[int, int], ...]

    def verify(self, collection: BeliefCollection) -> bool:
        """Checked on integers: with the normal and offset over their lcm q and
        the vertex rows over den, each set's plus vertex reads strictly above
        den * q * offset and its minus vertex strictly below."""
        if len(self.straddles) != len(collection.sets) or len(self.normal) != collection.dimension:
            return False
        den, rows = collection.integer_view
        q, ints = scaled((*self.normal.entries, self.offset))
        values, _, _ = vertex_extremes(rows, ints[:-1])
        threshold = den * ints[-1]
        for (ip, im), on_set in zip(self.straddles, values):
            in_range = 0 <= ip < len(on_set) and 0 <= im < len(on_set)
            if not (in_range and on_set[ip] > threshold > on_set[im]):
                return False
        return True


@dataclass(frozen=True)
class PairEntry:
    first: str
    second: str
    result: Union[CommonPrior, SametCertificate]

    @property
    def intersects(self) -> bool:
        return isinstance(self.result, CommonPrior)


@dataclass(frozen=True)
class PairwiseReport:
    holds: bool
    entries: tuple[PairEntry, ...]

    def failing(self) -> list[PairEntry]:
        return [e for e in self.entries if not e.intersects]


@dataclass(frozen=True)
class CommutativityVerdict:
    holds: bool
    counterexample: Optional[tuple[UtilityVector, Fraction, Fraction]]
    checked: int


@dataclass(frozen=True)
class AnalysisReport:
    pairwise: PairwiseReport
    cutting: Optional[CuttingHyperplane]
    complete_param: bool
    cbt_param: bool
    commutes: CommutativityVerdict
    seu_collapse: Optional[Prior]

    def to_jsonable(self) -> dict:
        certs = []
        for entry in self.pairwise.entries:
            item: dict = {"sets": [entry.first, entry.second]}
            if isinstance(entry.result, CommonPrior):
                item["kind"] = "common_prior"
                item["prior"] = [str(p) for p in entry.result.prior.probs]
                item["weights_first"] = [str(w) for w in entry.result.weights_first]
                item["weights_second"] = [str(w) for w in entry.result.weights_second]
            else:
                item["kind"] = "disjoint"
                item["phi1"] = [str(e) for e in entry.result.phi1.entries]
                item["phi2"] = [str(e) for e in entry.result.phi2.entries]
                item["slack"] = str(entry.result.slack)
            certs.append(item)
        cutting = None
        if self.cutting is not None:
            cutting = {
                "normal": [str(e) for e in self.cutting.normal.entries],
                "offset": str(self.cutting.offset),
                "straddles": [list(pair) for pair in self.cutting.straddles],
            }
        counter = None
        if self.commutes.counterexample is not None:
            phi, mm, mx = self.commutes.counterexample
            counter = {
                "phi": [str(e) for e in phi.entries],
                "maxmin": str(mm),
                "minmax": str(mx),
            }
        return {
            "pairwise_intersections": {
                "holds": self.pairwise.holds,
                "certificates": certs,
            },
            "cutting": cutting,
            "complete_param": self.complete_param,
            "cbt_param": self.cbt_param,
            "commutes": {
                "holds": self.commutes.holds,
                "checked": self.commutes.checked,
                "counterexample": counter,
            },
            "seu_collapse": None
            if self.seu_collapse is None
            else [str(p) for p in self.seu_collapse.probs],
        }


def polytopes_intersect(
    first: BeliefSet, second: BeliefSet
) -> Union[CommonPrior, SametCertificate]:
    """Decide whether two credal polytopes share a prior.

    One separation LP maximizes the floor t of <v, phi> over the first set
    and of <w, -phi> over the second, with phi boxed in [-1, 1] per state.
    Its rows are integers: both sets' vertices over one denominator den, as
    den * v . phi - den * t >= 0 and -den * w . phi - den * t >= 0.  A
    strictly positive optimum is the slack of a disjointness certificate.
    At a zero optimum the row duals of the first set's vertices and of the
    second's, each normalized to sum to one, are the mixture weights of a
    common prior.  Either certificate is re-checked exactly before it is
    returned.
    """
    n = first.dimension
    if second.dimension != n:
        raise DimensionMismatch(
            f"belief sets on {n} and {second.dimension} states cannot be compared"
        )
    den, (firsts, seconds) = vertex_rows((first, second))
    rows = [Constraint((*v, -den), ">=", 0) for v in firsts]
    rows += [Constraint((*(-p for p in w), -den), ">=", 0) for w in seconds]
    lp = LinearProgram(
        n + 1, (0,) * n + (1,), rows, lower=(-1,) * n + (-3,), upper=(1,) * (n + 1)
    )
    res = solve(lp)
    if res.value > 0:
        # At the optimum t is the smaller floor of phi, which verify re-derives.
        phi = UtilityVector(res.point[:n])
        samet = SametCertificate(phi1=phi, phi2=-phi, slack=res.value)
        if not samet.verify(first, second):
            raise RuntimeError(f"separation point does not separate the sets: {res.point}")
        return samet

    # At a zero optimum phi = 0, t = 0 is optimal too and binds no bound, so
    # the row duals lam, mu alone balance the objective: sum(lam * v) =
    # sum(mu * w), and as each vertex sums to one, sum(lam) = sum(mu) > 0.
    k = len(firsts)
    lam, mu = res.duals[:k], res.duals[k:]
    total = sum(lam)
    try:
        mixed = (sum(d * v[s] for d, v in zip(lam, firsts)) for s in range(n))
        prior = Prior(tuple(Fraction(m, den * total) for m in mixed))
        cert = CommonPrior(
            prior, tuple(Fraction(d, total) for d in lam), tuple(Fraction(d, sum(mu)) for d in mu)
        )
    except (ValueError, ZeroDivisionError):  # lam or mu mixes no prior
        cert = None
    if cert is None or not cert.verify(first, second):
        raise RuntimeError(f"separation duals are not common-prior weights: {res.duals}")
    return cert


def pair_entries(collection: BeliefCollection) -> Iterator[PairEntry]:
    """Each unordered pair of belief sets with its certificate, solved lazily.

    Pairs come in ``itertools.combinations`` order, and each one's program is
    solved only when the walk reaches it, so a caller that stops at the first
    disjoint pair solves no later pair.
    """
    for a, b in itertools.combinations(collection.sets, 2):
        yield PairEntry(a.name, b.name, polytopes_intersect(a, b))


def pairwise_intersection_holds(collection: BeliefCollection) -> PairwiseReport:
    """Check every unordered pair of belief sets for a shared prior."""
    entries = tuple(pair_entries(collection))
    return PairwiseReport(holds=all(e.intersects for e in entries), entries=entries)


def _oriented(vec: list[int]) -> tuple[int, ...]:
    """``primitive(vec)`` of a nonzero vector, its first nonzero entry made positive."""
    ints = primitive(vec)
    return tuple(ints) if next(filter(None, ints)) > 0 else tuple(-x for x in ints)


def _det(rows: Sequence[Sequence[int]]) -> int:
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


# The cut search's work bound C(N, n - 2) * V (find_cutting_hyperplane).  The
# generator's largest box (4 sets of 6 vertices) stays at or under 950,904;
# tests/data/corner_clusters.json reads 910,800, a search of 1-1.5 s on a
# 2-core x86 machine.  Clusters of 10 vertices per set read 1.2e7, about
# 11 s, and are refused.
MAX_CUT_WORK = 2_000_000


def find_cutting_hyperplane(
    collection: BeliefCollection,
) -> Optional[CuttingHyperplane]:
    """Search for a functional that strictly straddles every belief set.

    A cut along psi exists iff D(psi) = minmax(psi) - maxmin(psi) > 0.  D
    is even, ignores shifts along the all-ones vector, and is linear on each
    cell of the arrangement of planes (v - w).psi = 0 (v, w any two
    vertices) and (e_i - e_j).psi = 0 inside psi.1 = 0.  Those cells are
    pointed cones, so D > 0 somewhere iff D > 0 on an edge: a ray that n - 2
    of the normals cut out of psi.1 = 0.  With N distinct normals and V
    vertices in all, the search reads up to C(N, n - 2) * V vertices; once the
    normals are built, a bound over ``MAX_CUT_WORK`` raises ``ValueError``
    before any ray is tried.  Rays are tried in the order of the
    sorted normal subsets; the first with D > 0 is shifted by
    t = (maxmin + minmax) / 2 to threshold zero, and each set is straddled
    by its first argmax and argmin vertices.  The cut is re-checked by its
    own ``verify`` before it is returned.
    """
    den, scaled = collection.integer_view
    if any(len(verts) < 2 for verts in scaled):  # a point cannot be straddled
        return None
    n = collection.dimension
    points = {v for verts in scaled for v in verts}
    normals = {
        _oriented([a - b for a, b in zip(v, w)])
        for v, w in itertools.combinations(points, 2)
    }
    for i, j in itertools.combinations(range(n), 2):
        normals.add(tuple((k == i) - (k == j) for k in range(n)))
    vertices = sum(map(len, scaled))
    work = math.comb(len(normals), n - 2) * vertices
    if work > MAX_CUT_WORK:
        raise ValueError(
            f"the cutting-hyperplane search would read up to C({len(normals)}, {n - 2}) rays "
            f"times {vertices} vertices = {work}; the limit is {MAX_CUT_WORK}"
        )
    seen = set()
    for subset in itertools.combinations(sorted(normals), n - 2):
        # On psi = (x, -sum(x)) a normal a reads (a_i - a_n) . x; x is the
        # cross product of those n - 2 rows in n - 1 dimensions.
        rows = [[a - row[-1] for a in row[:-1]] for row in subset]
        x = [(-1) ** k * _det([r[:k] + r[k + 1:] for r in rows]) for k in range(n - 1)]
        if not any(x) or (ray := _oriented(x + [-sum(x)])) in seen:
            continue
        seen.add(ray)
        values, maxmin, minmax = vertex_extremes(scaled, ray)
        if minmax > maxmin:
            t = Fraction(maxmin + minmax, 2 * den)
            cut = CuttingHyperplane(
                normal=UtilityVector(tuple(r - t for r in ray)),
                offset=Fraction(0),
                straddles=tuple((v.index(max(v)), v.index(min(v))) for v in values),
            )
            if not cut.verify(collection):
                raise RuntimeError(f"cutting hyperplane does not straddle every set: {cut}")
            return cut
    return None


def phi_lattice(
    num_states: int, resolution: int = 2, radius: Fraction = Fraction(1)
) -> list[UtilityVector]:
    """Cubic lattice of raw utility vectors, independent of any instance.

    Raises ValueError for a resolution that is not a positive int, a
    lattice over ``MAX_BATTERY_ACTS`` vectors or a radius that is not a
    positive exact rational, all before any vector is built.
    """
    check_battery(resolution, num_states)
    radius = check_radius(radius)
    step = radius / resolution
    levels = [-radius + k * step for k in range(2 * resolution + 1)]
    return [
        UtilityVector(combo) for combo in itertools.product(levels, repeat=num_states)
    ]


# A lattice battery at resolution r on n states has (2r + 1)^n acts, and the
# audits hold an acts-by-acts margin matrix (531,441 margins at the limit).
# The limit admits the default resolution 2 on the generator's largest state
# count, four (625 acts), and resolution 4 on three states.
MAX_BATTERY_ACTS = 729


def check_radius(radius) -> Fraction:
    """The radius as a Fraction; ValueError unless a positive int or Fraction."""
    radius = exact_rational(radius, "radius")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return radius


def check_battery(resolution: int, num_states: int, what: str = "") -> None:
    """Raise ValueError for a lattice battery that is empty or over ``MAX_BATTERY_ACTS``."""
    if isinstance(resolution, bool) or not isinstance(resolution, int) or resolution < 1:
        raise ValueError(f"resolution must be a positive integer, got {resolution!r}")
    acts = (2 * resolution + 1) ** num_states
    if acts > MAX_BATTERY_ACTS:
        raise ValueError(
            f"resolution {resolution}{what} on {num_states} states gives a battery of "
            f"{acts} acts; the limit is {MAX_BATTERY_ACTS}"
        )


def check_commutativity(
    collection: BeliefCollection, battery: Sequence[UtilityVector]
) -> CommutativityVerdict:
    """True iff the two margin operators agree on every battery vector."""
    if not battery:
        raise ValueError("commutativity battery must be nonempty")
    for checked, phi in enumerate(battery, start=1):
        prof = margin_profile(collection, phi)
        if prof.maxmin != prof.minmax:
            return CommutativityVerdict(
                holds=False,
                counterexample=(phi, prof.maxmin, prof.minmax),
                checked=checked,
            )
    return CommutativityVerdict(holds=True, counterexample=None, checked=len(battery))


def seu_collapse_binary(collection: BeliefCollection) -> Optional[Prior]:
    """Single prior that the models collapse to on two states, if any.

    With two states each belief set is an interval of first-state masses;
    the collapse prior exists exactly when the largest interval minimum
    meets the smallest interval maximum: maxmin = minmax on (1, 0).
    """
    n = collection.dimension
    if n != 2:
        raise WrongDimension(f"collapse analysis needs exactly 2 states, got {n}")
    den, rows = collection.integer_view
    _, a, b = vertex_extremes(rows, (1, 0))
    if a != b:
        return None
    return Prior((Fraction(a, den), Fraction(den - a, den)))


def _realize(
    instance: Instance, direction: UtilityVector
) -> tuple[Fraction, UtilityVector, Act, Act]:
    """Scale a direction into the utility range and realize it beside x0.

    Returns s, the largest scale up to 1 keeping s * direction in range, the
    scaled vector, its act and the zero-utility constant x0.
    """
    lo, hi = instance.utility_bounds()
    if lo > 0 or hi < 0:
        raise ValueError("utility range must contain 0 to host the witness acts")
    caps = [(hi if v > 0 else lo) / v for v in direction.entries if v]
    s = min([Fraction(1), *caps])
    if s <= 0:
        raise ValueError("utility range is degenerate on the witness side")
    phi = direction.scale(s)
    f = act_from_utility_vector(instance, phi.entries)
    return s, phi, f, constant_act(instance, Fraction(0))


def build_incompleteness_witness(
    collection: BeliefCollection, cut: CuttingHyperplane, instance: Instance
) -> tuple[Act, Act]:
    """Acts (f, x0) that the maxmin-over-sets model leaves incomparable.

    The functional is shifted to threshold zero, scaled into the utility
    range, and realized as an act; x0 is the zero-utility constant.  Both
    directional margins are recomputed and must be strictly negative.
    """
    _, phi, f, x0 = _realize(instance, cut.normal.shift(-cut.offset))
    forward, reverse = margin_pair(GeneralizedBewley(), collection, phi)
    if not (forward < 0 and reverse < 0):
        raise RuntimeError(
            "cutting hyperplane did not produce an incomparable pair; "
            f"margins were {forward} and {reverse}"
        )
    return f, x0


def build_cbt_witness(
    collection: BeliefCollection, cert: SametCertificate, instance: Instance
) -> tuple[Act, Act, Act]:
    """Triple (x0, f, xe) replaying a constant-bound transitivity failure.

    x0 is the zero constant, xe the better constant at half the certified
    slack, and f realizes the separating functional: the first belief set
    robustly prefers f to xe, the second robustly prefers x0 to f, yet xe
    beats x0 outright.
    """
    s, phi, f, x0 = _realize(instance, cert.phi1)
    eps = s * cert.slack / 2
    xe = constant_act(instance, eps)
    # x0 over f reads the reverse margin, f over xe the forward one less eps.
    forward, down = margin_pair(GeneralizedBewley(), collection, phi)
    up = forward - eps
    if not (down > 0 and up > 0 and eps > 0):
        raise RuntimeError(
            "separation certificate did not produce a transitivity failure; "
            f"margins were {down}, {up}, eps {eps}"
        )
    return x0, f, xe


@lru_cache(maxsize=8)
def _commutativity_lattice(num_states: int) -> tuple[UtilityVector, ...]:
    """``analyze``'s lattice, built once per state count and shared by every instance."""
    return tuple(phi_lattice(num_states))


def analyze(instance: Instance) -> AnalysisReport:
    """Full parametric analysis of an instance's belief collection.

    The cut search runs first, so an instance over ``MAX_CUT_WORK`` raises
    ``ValueError`` before any program is solved.
    """
    n = instance.num_states
    check_battery(2, n, " (analyze's commutativity lattice)")
    collection = instance.collection
    cutting = find_cutting_hyperplane(collection)
    pairwise = pairwise_intersection_holds(collection)
    commutes = check_commutativity(collection, _commutativity_lattice(n))
    collapse = seu_collapse_binary(collection) if n == 2 else None
    return AnalysisReport(
        pairwise=pairwise,
        cutting=cutting,
        complete_param=cutting is None,
        cbt_param=pairwise.holds,
        commutes=commutes,
        seu_collapse=collapse,
    )
