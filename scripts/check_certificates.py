"""Re-check the certificates and the cut of an ``ambipref analyze`` report.

Usage:

    python scripts/check_certificates.py INSTANCE REPORT

INSTANCE is the instance file the report was made from and REPORT the JSON
that ``ambipref analyze --instance INSTANCE`` printed.  The checker reads
both files on its own, with exact Fractions and nothing from the package,
so it vouches for the artifact a user keeps, not for the code that wrote it.
Every number it reads is a rational in the instance format: an int, or a
string of an optional sign, ASCII digits and an optional "/digits".  An
instance vertex has at most 100 digits a part, as the instance format
requires; a report's numbers are computed from the instance, so they may be
longer, bounded only by the 4300 digits that json and int read.  Every
vector it reads (a prior, phi1, phi2, a normal) has one entry per state.

- A ``common_prior`` certificate holds when both weight lists are
  nonnegative, have one weight per vertex of their set, sum to 1, and mix
  their set's vertices into the reported prior.
- A ``disjoint`` certificate holds when phi2 = -phi1 and ``slack`` is the
  smaller of the two floors, min over the first set of v . phi1 and min over
  the second of w . phi2, and is positive.
- Every unordered pair of sets has exactly one certificate, and
  ``pairwise_intersections.holds`` and ``cbt_param`` are true exactly when
  no certificate is ``disjoint``.
- A ``cutting`` hyperplane lists one straddle pair (plus, minus) per set,
  in the instance's order, and each set's plus vertex lies strictly above
  ``offset`` along ``normal`` and its minus vertex strictly below.
- ``complete_param`` is true exactly when ``cutting`` is null.  That no cut
  exists is taken on trust; only this consistency is checked.
- ``commutes.holds`` is true exactly when its ``counterexample`` is null.
  With A(phi) the largest over sets of the set's least v . phi and B(phi)
  the smallest of the greatest, a counterexample's phi replays to its
  reported, unequal ``maxmin`` A and ``minmax`` B; while ``holds`` is true,
  every ``disjoint`` phi1 and the cut's ``normal`` must have A = B.
- ``seu_collapse`` is null unless the instance has 2 states and a = b, with
  a the largest over sets of the set's least first-state probability and b
  the smallest of the greatest; then it is (a, 1 - a).

Exit status 0 when every check passes; otherwise 1, with one line per
problem on stdout.  A usage error, a file that cannot be read as JSON, or a
pair of documents that are not an instance and its report (an instance
vertex that is not such a rational among them) exits 2, with one ``error:``
line on stderr, before any arithmetic.  A report number that is not one is
a ``malformed`` problem line.
"""

import json
import sys
from fractions import Fraction


MAX_DIGITS = 100  # per part of an instance rational, as in the instance format


def _rational(value, max_digits=None) -> Fraction:
    """A rational in the instance format as a Fraction; anything else is a ValueError.

    Floats, bools, decimal points and exponents are refused, so no short
    string can expand into a huge number.  With ``max_digits``, each part is
    at most that many digits long.
    """
    text = str(value) if type(value) is int else value
    if isinstance(text, str):
        parts = (text[1:] if text.startswith(("+", "-")) else text).split("/")
        if (len(parts) <= 2 and all(p.isascii() and p.isdigit() for p in parts)
                and (max_digits is None or max(map(len, parts)) <= max_digits)):
            return Fraction(text)
    raise ValueError(f"not an exact rational: {value!r:.40}")


def _per_state(name, vector, *vertex_lists) -> list[str]:
    """One problem line unless ``vector`` is as long as every vertex listed."""
    if any(len(v) != len(vector) for verts in vertex_lists for v in verts):
        return [f"{name} has {len(vector)} entries, not one per state"]
    return []


def _dot(vertex, phi) -> Fraction:
    return sum((p * e for p, e in zip(vertex, phi)), Fraction(0))


def _common_prior(cert, first, second) -> list[str]:
    prior = [_rational(p) for p in cert["prior"]]
    if short := _per_state("prior", prior, first, second):
        return short
    problems = []
    for key, verts in (("weights_first", first), ("weights_second", second)):
        weights = [_rational(w) for w in cert[key]]
        if len(weights) != len(verts):
            problems.append(f"{key} has {len(weights)} weights for {len(verts)} vertices")
            continue
        if any(w < 0 for w in weights):
            problems.append(f"{key} has a negative weight")
        if sum(weights) != 1:
            problems.append(f"{key} sums to {sum(weights)}, not 1")
        mixed = [sum((w * v[s] for w, v in zip(weights, verts)), Fraction(0))
                 for s in range(len(prior))]
        if mixed != prior:
            shown = ", ".join(map(str, mixed))
            problems.append(f"{key} mixes its vertices into ({shown}), not the prior")
    return problems


def _disjoint(cert, first, second) -> list[str]:
    phi1 = [_rational(e) for e in cert["phi1"]]
    phi2 = [_rational(e) for e in cert["phi2"]]
    slack = _rational(cert["slack"])
    if short := _per_state("phi1", phi1, first, second) + _per_state("phi2", phi2, first, second):
        return short
    problems = []
    if any(a + b for a, b in zip(phi1, phi2)):
        problems.append("phi2 is not -phi1")
    floor = min(min(_dot(v, phi1) for v in first), min(_dot(w, phi2) for w in second))
    if slack != floor:
        problems.append(f"slack {slack} is not the smaller floor {floor}")
    if slack <= 0:
        problems.append(f"slack {slack} is not positive")
    return problems


_CHECKS = {"common_prior": _common_prior, "disjoint": _disjoint}


def _cutting(cut, sets) -> list[str]:
    normal = [_rational(e) for e in cut["normal"]]
    offset = _rational(cut["offset"])
    straddles = cut["straddles"]
    if short := _per_state("normal", normal, *sets.values()):
        return short
    if len(straddles) != len(sets):
        return [f"{len(straddles)} straddle pairs for {len(sets)} sets"]
    problems = []
    for (name, verts), pair in zip(sets.items(), straddles):
        plus, minus = pair
        if not all(type(i) is int and 0 <= i < len(verts) for i in (plus, minus)):
            problems.append(f"set {name} has no vertices {plus} and {minus}")
        elif not _dot(verts[plus], normal) > offset > _dot(verts[minus], normal):
            problems.append(f"vertices {plus} and {minus} of set {name} do not lie "
                            f"strictly above and below {offset} along the normal")
    return problems


def _extremes(sets, phi) -> tuple[Fraction, Fraction]:
    """A(phi) and B(phi): maxmin and minmax of phi over the sets."""
    if short := _per_state("phi", phi, *sets.values()):
        raise ValueError(short[0])
    values = [[_dot(v, phi) for v in verts] for verts in sets.values()]
    return max(map(min, values)), min(map(max, values))


def _commutes(report, sets) -> list[str]:
    commutes = report["commutes"]
    counter = commutes["counterexample"]
    if commutes["holds"] is not (counter is None):
        return [f"holds is {commutes['holds']}, the counterexample says {counter is None}"]
    if counter is not None:
        a, b = _extremes(sets, [_rational(e) for e in counter["phi"]])
        reported = _rational(counter["maxmin"]), _rational(counter["minmax"])
        if (a, b) != reported:
            return [f"the counterexample replays to maxmin {a} and minmax {b}, "
                    f"not {reported[0]} and {reported[1]}"]
        return [f"the counterexample has maxmin = minmax = {a}"] if a == b else []
    directions = [(f"phi1 of certificate {index}", cert["phi1"])
                  for index, cert in enumerate(report["pairwise_intersections"]["certificates"])
                  if cert.get("kind") == "disjoint"]
    if report["cutting"] is not None:
        directions.append(("the cut's normal", report["cutting"]["normal"]))
    problems = []
    for name, phi in directions:
        a, b = _extremes(sets, [_rational(e) for e in phi])
        if a != b:
            problems.append(f"holds is true, but {name} ({', '.join(map(str, phi))}) has "
                            f"maxmin {a} and minmax {b}")
    return problems


def _collapse(report, sets) -> list[str]:
    reported = report["seu_collapse"]
    states = {len(v) for verts in sets.values() for v in verts}
    if states != {2}:
        if reported is None:
            return []
        return [f"a collapse prior is reported on {', '.join(map(str, sorted(states)))} states, "
                "not 2"]
    a = max(min(v[0] for v in verts) for verts in sets.values())
    b = min(max(v[0] for v in verts) for verts in sets.values())
    if reported is None:
        return [] if a != b else [f"null, but every set holds the first-state probability {a}"]
    if a != b:
        return [f"a collapse prior is reported, but the largest least first-state "
                f"probability {a} is not the smallest greatest {b}"]
    prior = [_rational(p) for p in reported]
    if prior != [a, 1 - a]:
        return [f"({', '.join(map(str, prior))}) is not ({a}, {1 - a})"]
    return []


def check(instance: dict, report: dict) -> list[str]:
    """One line per problem with the report's certificates and cut."""
    sets = {
        s["name"]: [[_rational(p, MAX_DIGITS) for p in vertex] for vertex in s["vertices"]]
        for s in instance["belief_collection"]
    }
    names = list(sets)
    expected = {frozenset((a, b)) for i, a in enumerate(names) for b in names[i + 1:]}
    pairwise = report["pairwise_intersections"]
    problems = []
    seen = set()
    for index, cert in enumerate(pairwise["certificates"]):
        where = f"certificate {index}"
        try:
            first, second = cert["sets"]
            where += f" ({first}, {second})"
            pair = frozenset((first, second))
            if pair not in expected or pair in seen:
                problems.append(f"{where}: not a new pair of distinct sets of the instance")
                continue
            seen.add(pair)
            check_kind = _CHECKS.get(cert["kind"])
            if check_kind is None:
                problems.append(f"{where}: unknown kind {cert['kind']!r}")
                continue
            found = check_kind(cert, sets[first], sets[second])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            found = [f"malformed: {exc!r}"]
        problems += [f"{where}: {p}" for p in found]
    for pair in sorted(expected - seen, key=sorted):
        problems.append(f"no certificate for the pair {tuple(sorted(pair))}")
    shared = all(c.get("kind") == "common_prior" for c in pairwise["certificates"])
    for name, verdict in (("pairwise_intersections.holds", pairwise["holds"]),
                          ("cbt_param", report["cbt_param"])):
        if verdict is not shared:
            problems.append(f"{name} is {verdict}, certificates say {shared}")
    cut = report["cutting"]
    if report["complete_param"] is not (cut is None):
        problems.append(f"complete_param is {report['complete_param']}, "
                        f"the cut says {cut is None}")
    if cut is not None:
        problems += [f"cutting: {p}" for p in _guarded(_cutting, cut, sets)]
    problems += [f"commutes: {p}" for p in _guarded(_commutes, report, sets)]
    problems += [f"seu_collapse: {p}" for p in _guarded(_collapse, report, sets)]
    return problems


def _guarded(check_part, *args) -> list[str]:
    """The problems ``check_part`` finds, or one line when the report is malformed."""
    try:
        return check_part(*args)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed: {exc!r}"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("error: expected two files; usage: check_certificates.py INSTANCE REPORT", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        try:
            with open(path, encoding="utf-8") as handle:
                documents.append(json.load(handle))
        except (OSError, ValueError, RecursionError) as exc:  # deep nesting is a RecursionError
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    try:
        problems = check(*documents)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        print(f"error: not an instance and its analyze report: {exc!r}", file=sys.stderr)
        return 2
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
