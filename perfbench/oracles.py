"""Output checks that do not call the code under test.

Every check here recomputes what it needs from the raw instance data
(vertex probabilities, lottery weights, prize utilities) with its own exact
arithmetic, then compares.  Each returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

ALPHA = Fraction(3, 4)
NO_FIG4_FINDING = "no mixture violation found across the seed range"
CONES = ("maxmin", "minmax", "half", "alpha", "conjunctive", "disjunctive")

# Model-axiom pairs the paper guarantees to pass on every instance.
GUARANTEED = {
    "disjunctive": ("completeness", "negative_constant_bound_transitivity"),
    "conjunctive": ("constant_bound_transitivity", "negative_completeness"),
    "half": ("completeness", "constant_bound_transitivity"),
}
ALWAYS_PASS = ("reflexivity", "monotonicity")


# --------------------------------------------------------------------------
# Exact margins from raw data.  A model is a tuple spec: ("gb",),
# ("disjunctive",), ("conjunctive",), ("half",), ("alpha", a),
# ("bewley", set_name), ("justifiable", set_name), ("seu", probs).


def _dot(probs, phi) -> Fraction:
    return sum((p * e for p, e in zip(probs, phi)), Fraction(0))


def vertex_sets(collection) -> list[tuple[str, list[tuple[Fraction, ...]]]]:
    return [(s.name, [v.probs for v in s.vertices]) for s in collection.sets]


def primitives(sets, phi) -> tuple[Fraction, Fraction]:
    """(maxmin, minmax) of phi: best set's worst vertex, worst set's best vertex."""
    lows, highs = [], []
    for _, verts in sets:
        vals = [_dot(v, phi) for v in verts]
        lows.append(min(vals))
        highs.append(max(vals))
    return max(lows), min(highs)


def margin(spec, sets, phi) -> Fraction:
    tag = spec[0]
    if tag == "seu":
        return _dot(spec[1], phi)
    if tag in ("bewley", "justifiable"):
        verts = dict(sets)[spec[1]]
        vals = [_dot(v, phi) for v in verts]
        return min(vals) if tag == "bewley" else max(vals)
    mm, mx = primitives(sets, phi)
    if tag == "gb":
        return mm
    if tag == "disjunctive":
        return max(mm, mx)
    if tag == "conjunctive":
        return min(mm, mx)
    if tag == "half":
        return (mm + mx) / 2
    if tag == "alpha":
        return spec[1] * mm + (1 - spec[1]) * mx
    raise ValueError(f"unknown model spec {spec!r}")


def act_utilities(instance, act) -> tuple[Fraction, ...]:
    values = instance.utility.values
    return tuple(
        sum((w * values[prize] for prize, w in lot.weights.items()), Fraction(0))
        for lot in act.lotteries
    )


def lattice(num_states: int, resolution: int, radius: Fraction = Fraction(1)):
    """The cubic utility lattice in row-major order, as the batteries list it."""
    step = radius / resolution
    levels = [-radius + k * step for k in range(2 * resolution + 1)]
    return list(itertools.product(levels, repeat=num_states))


def _combo(pairs) -> tuple[Fraction, ...]:
    """sum of weight * vector over (weight, vector) pairs."""
    dim = len(pairs[0][1])
    return tuple(sum((w * v[s] for w, v in pairs), Fraction(0)) for s in range(dim))


def _is_const(u) -> bool:
    return all(e == u[0] for e in u)


def _dominates(a, b) -> bool:
    return all(x >= y for x, y in zip(a, b))


def _note_weights(note: str) -> list[Fraction]:
    return [Fraction(tok) for tok in note.split() if "/" in tok]


# --------------------------------------------------------------------------
# Audit witnesses.


def replay_witness(axiom: str, spec, sets, uvecs, indices, margins, note) -> list[str]:
    """Recompute a witness's margins and confirm it really violates the axiom."""

    def m(i, j):
        return margin(spec, sets, _combo([(1, uvecs[i]), (-1, uvecs[j])]))

    idx = tuple(indices)
    if any(not 0 <= i < len(uvecs) for i in idx):
        return [f"{axiom}: witness indices {idx} outside the battery"]
    try:
        if axiom == "reflexivity":
            (i,) = idx
            want, violated = (m(i, i),), m(i, i) < 0
        elif axiom in ("completeness", "unambiguous_completeness"):
            i, j = idx
            want = (m(i, j), m(j, i))
            violated = want[0] < 0 and want[1] < 0
            if axiom == "unambiguous_completeness":
                violated = violated and _is_const(uvecs[i]) and _is_const(uvecs[j])
        elif axiom == "negative_completeness":
            i, j = idx
            want = (m(i, j), m(j, i))
            violated = want[0] > 0 and want[1] > 0
        elif axiom == "monotonicity":
            i, j = idx
            want = (m(i, j),)
            violated = _dominates(uvecs[i], uvecs[j]) and want[0] < 0
        elif axiom == "unambiguous_transitivity":
            f, g, h = idx
            if note.startswith("dominance then"):
                want = (m(g, h), m(f, h))
                violated = _dominates(uvecs[f], uvecs[g])
            else:
                want = (m(f, g), m(f, h))
                violated = _dominates(uvecs[g], uvecs[h])
            violated = violated and want[0] >= 0 and want[1] < 0
        elif axiom == "transitivity":
            i, j, h = idx
            want = (m(i, j), m(j, h), m(i, h))
            violated = want[0] >= 0 and want[1] >= 0 and want[2] < 0
        elif axiom in (
            "constant_bound_transitivity",
            "negative_constant_bound_transitivity",
        ):
            a, f, b = idx
            want = (m(a, f), m(f, b), m(a, b))
            consts = _is_const(uvecs[a]) and _is_const(uvecs[b])
            if axiom == "constant_bound_transitivity":
                order = uvecs[a][0] < uvecs[b][0]
                violated = want[0] >= 0 and want[1] >= 0
            else:
                order = uvecs[a][0] >= uvecs[b][0]
                violated = want[0] < 0 and want[1] < 0
            violated = violated and consts and order
        elif axiom == "independence":
            (w,) = _note_weights(note)
            if len(idx) == 2:
                i, j = idx
                base = m(i, j)
                scaled = margin(
                    spec, sets, _combo([(w, uvecs[i]), (-w, uvecs[j])])
                )
                want, violated = (base, scaled), scaled != w * base
            else:
                f, g, h = idx
                plain = m(f, g)
                mixed = margin(
                    spec,
                    sets,
                    _combo([(w, uvecs[f]), (1 - w, uvecs[h]),
                            (-w, uvecs[g]), (w - 1, uvecs[h])]),
                )
                want, violated = (plain,), (plain >= 0) != (mixed >= 0)
        elif axiom == "favorable_mixing":
            f, g, h = idx
            hi, lo = _note_weights(note)
            def mixed(lam):
                return margin(
                    spec, sets,
                    _combo([(lam, uvecs[f]), (1 - lam, uvecs[h]), (-1, uvecs[g])]),
                )
            want = (mixed(hi), mixed(lo))
            strict = m(g, f) >= 0 and m(f, g) < 0
            violated = strict and lo < hi and want[0] >= 0 and want[1] < 0
        else:
            return [f"{axiom}: no witness replay defined"]
    except (ValueError, ZeroDivisionError) as exc:
        return [f"{axiom}: malformed witness {idx}: {exc}"]
    got = tuple(Fraction(x) for x in margins)
    problems = []
    if got != want:
        problems.append(f"{axiom}: witness {idx} margins {got} != recomputed {want}")
    if not violated:
        problems.append(f"{axiom}: witness {idx} does not violate the axiom")
    return problems


def check_audit_reports(spec, family: str, instance, uvecs, reports) -> list[str]:
    """One audit_suite result: bookkeeping, witness replays, guaranteed passes."""
    sets = vertex_sets(instance.collection)
    problems = []
    seen = {r.axiom.value: r for r in reports}
    if len(seen) != 12 or len(reports) != 12:
        problems.append(f"expected 12 distinct axiom reports, got {len(reports)}")
    for axiom, rep in seen.items():
        if rep.passed:
            if rep.witnesses or rep.total_violations:
                problems.append(f"{axiom}: passed but carries violations")
            continue
        if axiom == "non_triviality":
            if rep.total_violations != 1:
                problems.append("non_triviality: failure must count once")
            continue
        if not rep.witnesses or rep.total_violations < len(rep.witnesses):
            problems.append(f"{axiom}: failed without consistent witnesses")
        for w in rep.witnesses:
            problems += replay_witness(
                axiom, spec, sets, uvecs, w.indices, w.margins, w.note
            )
    for axiom in ALWAYS_PASS + GUARANTEED.get(family, ()):
        rep = seen.get(axiom)
        if rep is None or not rep.passed:
            problems.append(f"{family}: {axiom} must pass")
    return problems


# --------------------------------------------------------------------------
# Verification reports.


def check_verify_doc(doc: dict, instance, num_states: int) -> list[str]:
    """A single-seed report: every paper suite passes; fig4 passes iff found."""
    problems = []
    uvecs = lattice(num_states, 2)
    sets = vertex_sets(instance.collection)
    for entry in doc["suites"]:
        name, verdict, cex = entry["theorem"], entry["verdict"], entry["counterexamples"]
        if name != "fig4":
            if verdict != "pass" or cex:
                problems.append(f"{name}: verdict {verdict} with {len(cex)} counterexamples")
            continue
        if verdict == "fail":
            if cex != [{"detail": NO_FIG4_FINDING}]:
                problems.append("fig4: failed without the no-finding record")
            continue
        if verdict != "pass" or not cex:
            problems.append(f"fig4: verdict {verdict} with no evidence")
        for w in cex:
            if w.get("model") != f"alpha-mixture({ALPHA})":
                problems.append(f"fig4: evidence from model {w.get('model')}")
            problems += replay_witness(
                w.get("axiom", ""), ("alpha", ALPHA), sets, uvecs,
                w.get("acts", ()), w.get("margins", ()), w.get("note", ""),
            )
    return problems


def merge_verify_docs(docs: list[dict]) -> dict:
    """Merge single-seed reports in seed order, as one multi-seed run reports."""
    names = [e["theorem"] for e in docs[0]["suites"]]
    suites = []
    for pos, name in enumerate(names):
        instances, flags, batteries, cex = 0, 0, [], []
        ok = True
        for doc in docs:
            entry = doc["suites"][pos]
            if entry["instances"] == 0:
                continue
            instances += entry["instances"]
            flags += entry["boundary_flags"]
            for b in entry["batteries"]:
                if b not in batteries:
                    batteries.append(b)
            passed = entry["verdict"] == "pass"
            if name == "fig4":
                ok = ok and not passed
                if passed:
                    cex.extend(entry["counterexamples"])
            else:
                ok = ok and passed
                cex.extend(entry["counterexamples"])
        if name == "fig4":
            found = not ok
            verdict = "pass" if found else "fail"
            cex = cex[:4] if found else [{"detail": NO_FIG4_FINDING}]
        else:
            verdict = "pass" if ok else "fail"
        suites.append(
            {
                "theorem": name,
                "instances": instances,
                "batteries": batteries,
                "verdict": verdict,
                "counterexamples": cex,
                "boundary_flags": flags,
            }
        )
    seeds = [s for doc in docs for s in doc["seeds"]]
    return {"schema_version": docs[0]["schema_version"], "seeds": seeds, "suites": suites}


# --------------------------------------------------------------------------
# Geometry certificates.


def check_common_prior(cert, first, second) -> bool:
    for weights, verts in ((cert.weights_first, first), (cert.weights_second, second)):
        if len(weights) != len(verts) or any(w < 0 for w in weights) or sum(weights) != 1:
            return False
        point = tuple(
            sum((w * v[s] for w, v in zip(weights, verts)), Fraction(0))
            for s in range(len(cert.prior.probs))
        )
        if point != tuple(cert.prior.probs):
            return False
    return sum(cert.prior.probs) == 1 and all(p >= 0 for p in cert.prior.probs)


def check_samet(cert, first, second) -> bool:
    phi1, phi2 = cert.phi1.entries, cert.phi2.entries
    if len(phi1) != len(phi2) or any(a + b != 0 for a, b in zip(phi1, phi2)):
        return False
    m1 = min(_dot(v, phi1) for v in first)
    m2 = min(_dot(v, phi2) for v in second)
    return cert.slack == min(m1, m2) and cert.slack > 0


def check_cutting(cert, sets) -> bool:
    if len(cert.straddles) != len(sets):
        return False
    for (ip, im), (_, verts) in zip(cert.straddles, sets):
        if not (0 <= ip < len(verts) and 0 <= im < len(verts)):
            return False
        if not _dot(verts[ip], cert.normal.entries) > cert.offset > _dot(
            verts[im], cert.normal.entries
        ):
            return False
    return True


def _commutes_everywhere(sets, num_states: int) -> tuple[int, tuple | None]:
    """Scan the resolution-2 direction lattice in integers; first disagreement."""
    den = lcm(*(p.denominator for _, verts in sets for v in verts for p in v))
    int_sets = [[tuple(int(p * den) for p in v) for v in verts] for _, verts in sets]
    for count, phi in enumerate(itertools.product(range(-2, 3), repeat=num_states), 1):
        lows, highs = [], []
        for verts in int_sets:
            vals = [sum(p * e for p, e in zip(v, phi)) for v in verts]
            lows.append(min(vals))
            highs.append(max(vals))
        if max(lows) != min(highs):
            return count, phi
    return 5 ** num_states, None


def check_analysis(report, instance) -> list[str]:
    """Every certificate re-verifies, by hand and by its own verify()."""
    sets = vertex_sets(instance.collection)
    by_name = dict(sets)
    objs = {s.name: s for s in instance.collection.sets}
    problems = []
    pairs = list(itertools.combinations([name for name, _ in sets], 2))
    entries = report.pairwise.entries
    if [(e.first, e.second) for e in entries] != pairs:
        problems.append("pairwise report does not cover every pair in order")
    for e in entries:
        first, second = by_name.get(e.first), by_name.get(e.second)
        if first is None or second is None:
            continue
        kind = type(e.result).__name__
        if kind == "CommonPrior":
            ok = check_common_prior(e.result, first, second)
        elif kind == "SametCertificate":
            ok = check_samet(e.result, first, second)
        else:
            ok = False
        if not ok or not e.result.verify(objs[e.first], objs[e.second]):
            problems.append(f"{kind} for {e.first},{e.second} does not verify")
    disjoint = any(type(e.result).__name__ != "CommonPrior" for e in entries)
    if report.pairwise.holds == disjoint or report.cbt_param != report.pairwise.holds:
        problems.append("pairwise verdict disagrees with its certificates")
    if report.cutting is not None:
        if not check_cutting(report.cutting, sets) or not report.cutting.verify(
            instance.collection
        ):
            problems.append("CuttingHyperplane does not verify")
    if report.complete_param != (report.cutting is None):
        problems.append("complete_param disagrees with the cutting result")
    n = instance.num_states
    checked, bad_phi = _commutes_everywhere(sets, n)
    commutes = report.commutes
    if commutes.holds != (bad_phi is None) or commutes.checked != checked:
        problems.append(
            f"commutativity verdict {commutes.holds}/{commutes.checked} "
            f"!= recomputed {bad_phi is None}/{checked}"
        )
    elif bad_phi is not None:
        phi, mm, mx = commutes.counterexample
        want = tuple(Fraction(e, 2) for e in bad_phi)
        if tuple(phi.entries) != want or (mm, mx) != primitives(sets, want):
            problems.append("commutativity counterexample does not replay")
    if (report.seu_collapse is not None) != (n == 2 and _collapse_exists(sets)):
        problems.append("collapse prior reported wrongly")
    return problems


def _collapse_exists(sets) -> bool:
    a = max(min(v[0] for v in verts) for _, verts in sets)
    b = min(max(v[0] for v in verts) for _, verts in sets)
    return a == b


# --------------------------------------------------------------------------
# Slices in closed form.  Every prior sums to 1, so along c*e1 + s*e2 a
# vertex v scores c + s*(v.e2): each set is an interval [lo_g, hi_g] of
# v.e2 values, and with A = max lo_g, B = min hi_g the primitives are
# maxmin = c + s*A (s >= 0) or c + s*B (s < 0), and minmax swaps A and B.


def slice_basis(direction) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    d = [Fraction(x) for x in direction]
    mean = sum(d) / len(d)
    residue = [x - mean for x in d]
    scale = lcm(*(r.denominator for r in residue))
    ints = [int(r * scale) for r in residue]
    g = gcd(*(abs(v) for v in ints))
    return tuple(Fraction(1) for _ in d), tuple(Fraction(v, g) for v in ints)


def circle_points(n: int) -> list[tuple[Fraction, Fraction]]:
    half = n // 2
    right = []
    for j in range(half):
        u = Fraction(2 * j - half, half)
        right.append(((1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)))
    return right + [(-c, -s) for c, s in right]


def closed_form_samples(sets, direction, n: int, alpha=ALPHA):
    """Exact (theta, direction, maxmin, minmax, half, alpha) per sample."""
    e1, e2 = slice_basis(direction)
    lows = [min(_dot(v, e2) for v in verts) for _, verts in sets]
    highs = [max(_dot(v, e2) for v in verts) for _, verts in sets]
    big_a, big_b = max(lows), min(highs)
    out = []
    for k, (c, s) in enumerate(circle_points(n)):
        mm = c + s * (big_a if s >= 0 else big_b)
        mx = c + s * (big_b if s >= 0 else big_a)
        phi = tuple(c * a + s * b for a, b in zip(e1, e2))
        mixed = None if alpha is None else alpha * mm + (1 - alpha) * mx
        out.append((Fraction(k, n), phi, mm, mx, (mm + mx) / 2, mixed))
    return out


def _cone(row, cone: str) -> Fraction:
    _, _, mm, mx, half, mixed = row
    return {
        "maxmin": mm, "minmax": mx, "half": half, "alpha": mixed,
        "conjunctive": min(mm, mx), "disjunctive": max(mm, mx),
    }[cone]


def sign_arcs(flags) -> tuple[tuple[int, int], ...]:
    n = len(flags)
    if all(flags):
        return ((0, n),)
    starts = [i for i in range(n) if flags[i] and not flags[i - 1]]
    arcs = []
    for i in starts:
        length = 1
        while flags[(i + length) % n]:
            length += 1
        arcs.append((i, length))
    return tuple(sorted(arcs))


def check_slice(profile, verdicts, sets, direction, n: int, alpha=ALPHA) -> list[str]:
    """Samples match the closed form; arcs and verdicts match its signs."""
    problems = []
    e1, e2 = slice_basis(direction)
    if tuple(profile.plane.e1) != e1 or tuple(profile.plane.e2) != e2:
        problems.append(f"slice plane for {direction} is not (1, residue)")
    rows = closed_form_samples(sets, direction, n, alpha)
    if len(profile.samples) != len(rows):
        return problems + [f"{len(profile.samples)} samples, expected {len(rows)}"]
    for smp, row in zip(profile.samples, rows):
        got = (smp.theta, tuple(smp.direction.entries), smp.maxmin, smp.minmax,
               smp.half, smp.alpha)
        if got != row:
            problems.append(f"slice sample at theta {row[0]} differs from the closed form")
            break
    cones = [c for c in CONES if alpha is not None or c != "alpha"]
    summary = {
        cone: sign_arcs([_cone(r, cone) >= 0 for r in rows]) for cone in cones
    }
    if dict(profile.arc_summary) != summary:
        problems.append(f"arc summary for {direction} differs from the closed form")
    for verdict in verdicts:
        cone = verdict.cone
        if cone == "disjunctive":
            arcs = sign_arcs([_cone(r, cone) < 0 for r in rows])
        else:
            arcs = summary[cone]
        if verdict.arcs != arcs or verdict.convex != (len(arcs) <= 1):
            problems.append(f"convexity verdict for {cone} on {direction} is wrong")
    if sorted(v.cone for v in verdicts) != sorted(cones):
        problems.append("convexity was not certified on every cone")
    return problems
