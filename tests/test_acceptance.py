"""Acceptance gate: the headline desk-scale computations, end to end.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).  Everything
here is exact rational arithmetic; the timing assertions are generous
ceilings, not measurements of record.
"""

import json
import pathlib
import random
import time
from fractions import Fraction

import pytest

import oracles
from qpsurf import cli
from qpsurf.jacobian import quotient_dimension
from qpsurf.normalize import absorb_g_powers, g_normal_form, split
from qpsurf.path_algebra import (
    Path,
    Potential,
    TruncatedElement,
    canonicalize_rotation,
    cyclic_derivative,
    enumerate_cycle_classes,
    is_cyclically_equivalent,
)
from qpsurf.qp_mutation import QP, mutate, verify_flip_compatibility
from qpsurf.surface import (
    build_quiver,
    classify_cycle,
    fg_witness_cycle,
    flip,
    once_punctured_torus,
    potential_S,
    potential_T,
    twice_punctured_genus,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "jacobian_dims.json").read_text()
)


def _criterion(num, label, ok, detail):
    line = "%s criterion %d (%s): %s" % ("PASS" if ok else "FAIL", num, label, detail)
    print(line)
    assert ok, line


def test_criterion_1_flip_mutation_compatibility():
    """Flip and QP-mutation agree on the torus for every arc, weight, power."""
    tau = once_punctured_torus()
    cases = failures = 0
    slowest = 0.0
    for n in (1, 2):
        degree = 12 * n + 6
        for arc in (1, 2, 3):
            for x in (Fraction(1), Fraction(2), Fraction(-1, 3)):
                t0 = time.perf_counter()
                report = verify_flip_compatibility(tau, arc, x, n, degree)
                dt = time.perf_counter() - t0
                slowest = max(slowest, dt)
                cases += 1
                if not (report.ok and dt < 60.0):
                    failures += 1
    _criterion(
        1, "flip/mutation compatibility",
        cases == 18 and failures == 0,
        "%d/%d torus cases bit-identical, slowest %.2fs (limit 60s)"
        % (cases - failures, cases, slowest),
    )


def test_criterion_2_certified_quotient_dimensions():
    """Certified truncated quotient dimensions match the golden records."""
    tq = build_quiver(once_punctured_torus())
    t0 = time.perf_counter()
    got = {}
    ok = True
    for n, degree in ((1, 12), (2, 18)):
        qp = QP(tq.quiver, potential_S(tq, 1, degree, n=n))
        quo, certified = quotient_dimension(qp, degree)
        entry = GOLDEN["n=%d" % n]
        got[n] = quo.dimension
        ok = ok and certified
        ok = ok and quo.dimension == entry["dimension"]
        ok = ok and quo.certificate_length == entry["certificate_length"]
        ok = ok and list(quo.per_degree) == entry["per_degree"]
        ok = ok and quo.dimension >= 6 * n - 2
    ok = ok and got[2] > got[1]
    dt = time.perf_counter() - t0
    ok = ok and dt < 600.0
    _criterion(
        2, "certified dimensions",
        ok,
        "dim(n=1)=%s at D=12, dim(n=2)=%s at D=18, both certified, %.1fs"
        % (got.get(1), got.get(2), dt),
    )


def test_criterion_3_g_normal_form_random_potentials():
    """Fifty seeded random perturbations all normalize to g-only form."""
    tq = build_quiver(twice_punctured_genus(1))
    degree = 16
    t_pot = potential_T(tq, degree)
    zero = Potential.zero(tq.quiver, degree)
    passed = 0
    for i in range(50):
        u_pot = cli.random_cycle_potential(tq, degree, random.Random(0 + i))
        if not (4 <= u_pot.short <= 6):
            continue
        factors, w_pot = g_normal_form(tq, zero, u_pot)
        out = t_pot + u_pot
        for phi in factors:
            out = phi.apply(out)
        exact = is_cyclically_equivalent(out, t_pot + w_pot)
        parts = split(tq, w_pot)
        g_only = parts.s_f.is_zero and parts.s_fg.is_zero
        grew = w_pot.is_zero or w_pot.short >= u_pot.short
        passed += exact and g_only and grew
    _criterion(
        3, "g-normal form",
        passed == 50,
        "%d/50 seeded potentials (D=16, twice-punctured genus 1): g-only, "
        "short nondecreasing, endomorphism re-verified" % passed,
    )


def test_criterion_4_absorb_puncture_cycle_powers():
    """Powers of puncture cycles are absorbed into S at degree 56."""
    tq = build_quiver(twice_punctured_genus(1))
    degree = 56
    rim = tq.puncture_cycle("p0").arrows
    hub = tq.puncture_cycle("p1").arrows
    x = (1, 1)
    s_pot = potential_S(tq, x, degree)
    cases = [
        ("hub^2", {Path(hub * 2): Fraction(1)}),
        ("rim^2", {Path(rim * 2): Fraction(1)}),
        ("rim^2 + 3 hub^3", {Path(rim * 2): Fraction(1), Path(hub * 3): Fraction(3)}),
    ]
    t0 = time.perf_counter()
    results = []
    for label, terms in cases:
        v_pot = Potential(tq.quiver, degree, terms)
        out = s_pot + v_pot
        for phi in absorb_g_powers(tq, x, v_pot):
            out = phi.apply(out)
        exact = is_cyclically_equivalent(out, s_pot)
        results.append((label, exact))
    dt = time.perf_counter() - t0
    ok = all(exact for _, exact in results) and dt < 600.0
    _criterion(
        4, "absorbing cycle powers",
        ok,
        "%d/3 cases carried S+V to S exactly at D=56 in %.1fs (limit 600s)"
        % (sum(exact for _, exact in results), dt),
    )


def test_criterion_5_cycle_trichotomy():
    """Every cycle class up to length 10 is F, G, or FG, with a witness."""
    tq = build_quiver(twice_punctured_genus(1))
    classes = enumerate_cycle_classes(tq.quiver, 10)
    counts = {"F": 0, "G": 0, "FG": 0}
    bad = 0
    for cyc in classes:
        cls = classify_cycle(tq, cyc)
        counts[cls.kind] += 1
        if cls.kind == "F":
            rebuilt = tq.f_path(3 * cls.n, cls.base)
        elif cls.kind == "G":
            rebuilt = tq.g_path(cls.n * tq.m_of(cls.base), cls.base)
        else:
            rebuilt = fg_witness_cycle(tq, cls)
        if canonicalize_rotation(tq.quiver, rebuilt) != canonicalize_rotation(
            tq.quiver, cyc
        ):
            bad += 1
    ok = (
        len(classes) == 248
        and counts == {"F": 12, "G": 3, "FG": 233}
        and bad == 0
    )
    _criterion(
        5, "cycle trichotomy",
        ok,
        "%d classes: F=%d G=%d FG=%d, witness failures=%d"
        % (len(classes), counts["F"], counts["G"], counts["FG"], bad),
    )


def test_criterion_6_structural_involutions():
    """Quiver structure, flip-twice, and mutate-twice all return home."""
    problems = []

    # f/g structure on the torus and the genus family.
    builders = [once_punctured_torus()] + [twice_punctured_genus(g) for g in (1, 2, 3)]
    for tau in builders:
        tq = build_quiver(tau)
        q = tq.quiver
        for a in q.arrows:
            if tq.f_of(a.name, 3) != a.name:
                problems.append("f^3 moves %s" % a.name)
            out = {b.name for b in q.arrows_out[a.head]}
            if out != {tq.f[a.name], tq.g[a.name]}:
                problems.append("outgoing at head of %s is not {f, g}" % a.name)
        orbit_sizes = sorted(len(p.arrows) for p in tq.punctures)
        if sum(orbit_sizes) != len(q.arrows):
            problems.append("g-orbits do not partition the arrows")
        f_orbits = set()
        for a in q.arrows:
            orbit = frozenset(tq.f_of(a.name, k) for k in range(3))
            f_orbits.add(orbit)
        if len(f_orbits) != len(tau.triangles):
            problems.append("f-orbits do not match the triangles")

    # Flipping the same arc twice restores the triangulation.
    tau = twice_punctured_genus(2)
    rng = random.Random(0)
    arcs = sorted(tau.arcs)
    flips_ok = 0
    for _ in range(100):
        k = rng.choice(arcs)
        if flip(flip(tau, k), k) == tau:
            flips_ok += 1
    if flips_ok != 100:
        problems.append("%d/100 double flips moved the triangulation" % (100 - flips_ok))

    # Mutating twice at the same vertex restores the arrow endpoint multiset.
    def endpoints(q):
        return sorted((a.tail, a.head) for a in q.arrows)

    mut_ok = mut_total = 0
    for tq, pot in (
        (build_quiver(once_punctured_torus()), None),
        (build_quiver(twice_punctured_genus(1)), None),
    ):
        if len(tq.punctures) == 1:
            qp = QP(tq.quiver, potential_S(tq, 1, 12))
        else:
            qp = QP(tq.quiver, potential_S(tq, (1, 1), 12))
        for k in tq.quiver.vertices:
            once, _ = mutate(qp, k)
            twice, _ = mutate(once, k)
            mut_total += 1
            mut_ok += endpoints(twice.quiver) == endpoints(qp.quiver)
    if mut_ok != mut_total:
        problems.append("%d/%d double mutations changed endpoints" % (mut_total - mut_ok, mut_total))

    _criterion(
        6, "structural involutions",
        not problems,
        "f/g structure on 4 surfaces, 100/100 double flips, %d/%d double mutations"
        % (mut_ok, mut_total) if not problems else "; ".join(problems),
    )


def test_criterion_7_path_algebra_invariants():
    """Exact-arithmetic laws hold over seeded random data."""
    torus = build_quiver(once_punctured_torus()).quiver
    fig = build_quiver(twice_punctured_genus(1)).quiver
    degree = 10
    rng = random.Random(2026)
    failures = []

    canon_checks = 0
    for _ in range(10000):
        word = oracles.random_cycle_word(torus, rng)
        c = canonicalize_rotation(torus, Path(word))
        j = rng.randrange(len(word))
        rot = canonicalize_rotation(torus, Path(word[j:] + word[:j]))
        if canonicalize_rotation(torus, c) != c or rot != c:
            failures.append("canonicalization at %s" % (word,))
            break
        canon_checks += 1

    pot_checks = 0
    for i in range(1000):
        q = fig if i % 2 else torus
        p_pot = oracles.random_potential(q, degree, rng)
        q_pot = oracles.random_potential(q, degree, rng)

        # associativity and distributivity
        a = oracles.random_element(q, degree, rng)
        b = oracles.random_element(q, degree, rng)
        c = oracles.random_element(q, degree, rng)
        if (a * b) * c != a * (b * c):
            failures.append("associativity, run %d" % i)
            break
        if a * (b + c) != a * b + a * c:
            failures.append("distributivity, run %d" % i)
            break

        # cyclic derivative only sees the rotation class
        rotated = {}
        for p, coeff in p_pot.terms.items():
            j = rng.randrange(len(p.arrows))
            rotated[Path(p.arrows[j:] + p.arrows[:j])] = coeff
        r_pot = Potential(q, degree, rotated)
        name = rng.choice(q.arrows).name
        if cyclic_derivative(p_pot, name) != cyclic_derivative(r_pot, name):
            failures.append("derivative rotation invariance, run %d" % i)
            break

        # Euler identity: sum of arrow * derivative recovers length * term
        total = TruncatedElement.zero(q, degree - 1)
        for arrow in q.arrows:
            lead = TruncatedElement.from_path(q, degree - 1, Path((arrow.name,)))
            total = total + lead * cyclic_derivative(p_pot, arrow.name)
        weighted = {p: coeff * len(p.arrows) for p, coeff in p_pot.terms.items()}
        want = Potential(q, degree - 1, weighted)
        if Potential.from_element(total) != want:
            failures.append("Euler identity, run %d" % i)
            break

        # short is blind to scaling, and subadditive under addition
        lam = rng.choice([Fraction(2), Fraction(-1), Fraction(5, 3)])
        if (p_pot * lam).short != p_pot.short:
            failures.append("short under scaling, run %d" % i)
            break
        if not p_pot.is_zero and not q_pot.is_zero:
            if (p_pot + q_pot).short < min(p_pot.short, q_pot.short):
                failures.append("short under addition, run %d" % i)
                break
        pot_checks += 1

    ok = not failures
    _criterion(
        7, "path-algebra invariants",
        ok,
        "%d rotation checks, %d random-potential rounds, all laws exact"
        % (canon_checks, pot_checks) if ok else failures[0],
    )
