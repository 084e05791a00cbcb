"""Mutation of quivers with potential at a vertex, and the flip check.

Premutation reverses the arrows at the chosen vertex, adds a composite
arrow for every length-2 path through it, and rewrites the potential in
terms of the composites.  Reduction then splits off the trivial part — the
2-cycles the premutation created — by explicit changes of variables,
returning them as the witness alongside the reduced quiver with
potential so the split can be re-verified.

``verify_flip_compatibility`` ties this to the surface geometry: mutating
the weighted-cycle potential at a flipped arc must land, after an explicit
chain of four substitutions, exactly on the flipped triangulation's
potential.  The report carries every intermediate witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .endo import REndomorphism
from .path_algebra import (
    Arrow,
    Path,
    Potential,
    Quiver,
    TruncatedElement,
    cyclic_derivative,
    exact_coefficient,
    is_cyclically_equivalent,
)
from .surface import build_quiver, flip, potential_S


@dataclass(frozen=True)
class QP:
    """A quiver together with a potential truncated at the potential's degree."""

    quiver: Quiver
    potential: Potential

    def __post_init__(self):
        if self.potential.quiver is not self.quiver and self.potential.quiver != self.quiver:
            raise ValueError("potential lives on a different quiver")

    @property
    def degree(self):
        return self.potential.degree

    def to_json_dict(self):
        return {
            "quiver": self.quiver.to_json_dict(),
            "potential": self.potential.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data):
        q = Quiver.from_json_dict(data["quiver"])
        return cls(q, Potential.from_json_dict(q, data["potential"]))


def is_two_acyclic(quiver):
    """True iff no pair of arrows i→j, j→i with i ≠ j exists."""
    seen = set()
    for a in quiver.arrows:
        if a.tail == a.head:
            continue
        if (a.head, a.tail) in seen:
            return False
        seen.add((a.tail, a.head))
    return True


def _incident(quiver, name, k):
    a = quiver.arrow(name)
    return a.tail == k or a.head == k


def _bracket_word(old, k, word):
    """Rewrite a written word on the premutated quiver's arrow names.

    Adjacent (out-of-k, into-k) pairs become composite names; all other
    arrows keep their names.  The word must contain no unpaired arrow
    incident to k, which holds for any segment cut between two
    non-incident arrows and for cycles rotated off an into-k start.
    """
    out_word = []
    i = 0
    while i < len(word):
        nm = word[i]
        if old.tail(nm) == k:
            if i + 1 >= len(word) or old.head(word[i + 1]) != k:
                raise ValueError("unpaired arrow %r leaving the mutated vertex" % nm)
            out_word.append("[%s%s]" % (nm, word[i + 1]))
            i += 2
        elif old.head(nm) == k:
            raise ValueError("unpaired arrow %r entering the mutated vertex" % nm)
        else:
            out_word.append(nm)
            i += 1
    return tuple(out_word)


def _bracket_cycle(old, new, k, p):
    w = p.arrows
    if not any(_incident(old, nm, k) for nm in w):
        return new.path(w)
    for r in range(len(w)):
        rot = w[r:] + w[:r]
        if old.head(rot[0]) != k:
            return new.path(_bracket_word(old, k, rot))
    raise ValueError("cycle %r consists entirely of arrows into %r" % (p, k))


def premutate(qp, k):
    """Premutation at vertex k: composite arrows through k, reversed arrows
    at k, and the connecting cubic terms.  The output is generally not
    2-acyclic; reduction cancels the degree-2 part afterwards."""
    q = qp.quiver
    if k not in q.vertices:
        raise ValueError("unknown vertex %r" % (k,))
    for a in q.arrows:
        if a.tail == k and a.head == k:
            raise ValueError("vertex %r carries a loop; premutation undefined" % (k,))
    ins = [a for a in q.arrows if a.head == k]
    outs = [a for a in q.arrows if a.tail == k]
    for a in ins:
        for b in outs:
            if b.head == a.tail:
                raise ValueError(
                    "2-cycle through %r via %s and %s; premutation undefined"
                    % (k, a.name, b.name)
                )
    untouched = [a for a in q.arrows if not (a.tail == k or a.head == k)]
    composites = [
        Arrow("[%s%s]" % (b.name, a.name), a.tail, b.head) for b in outs for a in ins
    ]
    stars = [Arrow(a.name + "*", k, a.tail) for a in ins] + [
        Arrow(b.name + "*", b.head, k) for b in outs
    ]
    new_q = Quiver(q.vertices, untouched + composites + stars)
    # bracketing is injective on rotation classes, and the Δ cycles are the
    # only terms through starred arrows, so no two terms share a key here
    terms = {_bracket_cycle(q, new_q, k, p): z for p, z in qp.potential.terms.items()}
    for a in ins:
        for b in outs:
            terms[new_q.path((a.name + "*", b.name + "*", "[%s%s]" % (b.name, a.name)))] = 1
    return QP(new_q, Potential(new_q, qp.degree, terms))


# ----------------------------------------------------------------------
# Reduction: splitting off the trivial part
# ----------------------------------------------------------------------

@dataclass
class ReductionWitness:
    """Everything needed to re-verify a reduction independently.

    ``factors`` act on the input quiver and, applied in turn, carry the
    input potential to ``trivial + embedded_reduced`` up to cyclic
    equivalence; deleting the paired arrows then yields the reduced QP.
    Their composite is ``compose_all(factors, quiver, degree)``.
    """

    factors: tuple
    pairs: tuple
    trivial: Potential
    embedded_reduced: Potential
    removed: tuple

    def recheck(self, qp):
        got = qp.potential
        for phi in self.factors:
            got = phi.apply(got)
        return is_cyclically_equivalent(got, self.trivial + self.embedded_reduced)


def _quadratic_classes(pot):
    return {p: z for p, z in pot.terms.items() if len(p) == 2}


def _pair_rules(rest, w0, w1):
    """The substitution that removes from ``w0·w1 + rest`` every term through the pair.

    R collects the terms of ``rest`` that contain w0 or w1, each divided by
    its k occurrences of the two; the rules are w0 ↦ w0 − ∂_{w1}R and
    w1 ↦ w1 − ∂_{w0}R.  They carry w0·w1 to w0·w1 − R plus longer terms,
    because w0·∂_{w0}R + ∂_{w1}R·w1 is cyclically equivalent to R: each
    term is removed once, whatever its k (Derksen–Weyman–Zelevinsky,
    Selecta Math. 2008, §4).  No rules, and no derivative, when R is zero.
    """
    q, d = rest.quiver, rest.degree
    through = {}
    for p, c in rest.terms.items():
        k = p.arrows.count(w0) + p.arrows.count(w1)
        if k:
            through[p] = c if k == 1 else exact_coefficient(Fraction(c) / k)
    if not through:
        return {}
    r = Potential._raw(q, d, through)
    rules = {}
    for name, other in ((w0, w1), (w1, w0)):
        dr = TruncatedElement(q, d, cyclic_derivative(r, other).terms)
        if not dr.is_zero:
            rules[name] = TruncatedElement.from_arrow(q, d, name) - dr
    return rules


def reduce(qp):
    """Split a QP into its reduced part and a sum of 2-cycles, with witness.

    First a linear change of arrows over the rationals turns the degree-2
    part into a sum of distinct-pair 2-cycles with coefficient 1; then
    rounds of the same pair substitution (``_pair_rules``) push every
    longer occurrence of a paired arrow above the truncation degree, until
    a round changes nothing.  The witness keeps these substitutions in the
    order applied.  The paired arrows are deleted from the output.  Fails
    loudly if the iteration has not stabilized after D rounds.
    """
    q = qp.quiver
    d = qp.degree
    pot = qp.potential
    factors = []
    pairs = []

    def record(rules):
        nonlocal pot
        if rules:
            factors.append(REndomorphism(q, d, rules))
            pot = factors[-1].apply(pot)

    # Linear normalization: pick 2-cycle pivots in canonical order and
    # clean their rows and columns, recomputing after each pivot so the
    # cleanup dust is handled by later pivots.
    while True:
        quad = _quadratic_classes(pot)
        paired_arrows = {nm for uv in pairs for nm in uv}
        candidates = [
            p for p in quad if not (set(p.arrows) & paired_arrows)
        ]
        if not candidates:
            break
        pivot = min(candidates, key=lambda p: tuple(q.rank(nm) for nm in p.arrows))
        w0, w1 = pivot.arrows
        if w0 == w1:
            raise ValueError(
                "quadratic part contains the square of loop %r; "
                "not splittable over the rationals" % w0
            )
        z = quad[pivot]
        if z != 1:
            record({w0: TruncatedElement.from_arrow(q, d, w0, Fraction(1, 1) / z)})
            quad = _quadratic_classes(pot)
        del quad[pivot]
        for p in quad:
            if p.arrows[0] == p.arrows[1]:
                raise ValueError(
                    "quadratic part has a repeated-arrow class %r; "
                    "not splittable over the rationals" % (p,)
                )
        record(_pair_rules(Potential._raw(q, d, quad), w0, w1))
        pairs.append((w0, w1))

    pairs = tuple(pairs)
    paired_arrows = {nm for uv in pairs for nm in uv}
    trivial = Potential(q, d, {q.path(pair): 1 for pair in pairs})
    for _ in range(d + 1):
        recorded = len(factors)
        for w0, w1 in pairs:
            record(_pair_rules(pot - trivial, w0, w1))
        if len(factors) == recorded:
            break
    else:
        raise RuntimeError(
            "trivial-part elimination did not stabilize within %d rounds" % d
        )

    embedded = pot - trivial
    if not embedded.is_zero and embedded.short < 3:
        raise RuntimeError("reduced potential has a term shorter than 3")
    survivors = [a for a in q.arrows if a.name not in paired_arrows]
    red_q = Quiver(q.vertices, survivors)
    red_pot = Potential(
        red_q, d, {red_q.path(p.arrows): z for p, z in embedded.terms.items()}
    )
    witness = ReductionWitness(
        factors=tuple(factors),
        pairs=pairs,
        trivial=trivial,
        embedded_reduced=embedded,
        removed=tuple(sorted(paired_arrows, key=q.rank)),
    )
    if not witness.recheck(qp):
        raise RuntimeError("reduction witness failed its own recheck")
    return QP(red_q, red_pot), witness


@dataclass
class MutationWitness:
    premutated: QP
    reduction: ReductionWitness

    def recheck(self, qp, k):
        again = premutate(qp, k)
        if again.quiver != self.premutated.quiver:
            return False
        if not is_cyclically_equivalent(again.potential, self.premutated.potential):
            return False
        return self.reduction.recheck(self.premutated)


def mutate(qp, k):
    pre = premutate(qp, k)
    red, rwitness = reduce(pre)
    return red, MutationWitness(premutated=pre, reduction=rwitness)


# ----------------------------------------------------------------------
# Flip compatibility
# ----------------------------------------------------------------------

def _triangle_labels(tq, k):
    """(triangle index, (b, a, c)) for each of the two triangles holding arc k.

    b leaves k, c enters k, a is the third side's arrow: the corners of the
    triangle read from k's position on.
    """
    return [
        (i, tuple(tq.corners[(i, (tri.index(k) + r) % 3)] for r in range(3)))
        for i, tri in enumerate(tq.tau.triangles)
        if k in tri
    ]


def _segment_element(old, new, k, seg, at_vertex, degree):
    word = _bracket_word(old, k, seg)
    p = new.path(word, at=at_vertex if not word else None)
    return TruncatedElement.from_path(new, degree, p)


@dataclass
class FlipReport:
    """Outcome of checking flip-vs-mutation compatibility at one arc."""

    ok: bool
    arc: object
    x: Fraction
    n: int
    degree: int
    checks: tuple
    first_difference: object
    renaming: dict
    factors: tuple
    premutated: QP
    reduction: ReductionWitness
    transported: Potential
    expected: Potential

    def summary_lines(self):
        lines = []
        for name, ok, detail in self.checks:
            lines.append("%s %s%s" % ("PASS" if ok else "FAIL", name,
                                      (": " + detail) if detail else ""))
        return lines


def _first_difference(got, want):
    keys = set(got.terms) | set(want.terms)
    if not keys:
        return None
    order = sorted(
        keys, key=lambda p: (len(p), tuple(got.quiver.rank(nm) for nm in p.arrows))
    )
    for p in order:
        a = got.terms.get(p, 0)
        b = want.terms.get(p, 0)
        if a != b:
            return "%r: got %s, expected %s" % (p, a, b)
    return None


def _flip_correction(base, shifted, star, n, x, sign):
    """Σ_j x·(−1)^(sign+j) · base·(shifted·base)^(n−j−1)·(star·base)^j over j < n."""
    total = TruncatedElement.zero(base.quiver, base.degree)
    shifted_base = shifted * base
    star_base = star * base
    for j in range(n):
        term = base
        for _ in range(n - j - 1):
            term = term * shifted_base
        for _ in range(j):
            term = term * star_base
        total = total + term.scale(x * (-1) ** (sign + j))
    return total


def verify_flip_compatibility(tau, k, x, n, degree=None, perturb=None):
    """Check that mutation at a flipped arc reproduces the flipped potential.

    Premutates the weighted-cycle potential at k, transports it through the
    explicit four-substitution chain φ1, …, φ4 one factor at a time,
    reduces, renames composite and starred arrows to the flipped
    triangulation's arrows via the forced arc matching, and compares
    exactly with the flipped potential at the same truncation.  The
    potential is S(τ, x, n) on a once-punctured surface; ``degree=None``
    takes its default degree, which the report records.  The report's
    ``factors``, (φ1, φ2, φ3, φ4) in the order applied, compose to the map
    carrying the premutated potential to what the reduction consumed.
    ``perturb``, a coefficient, is added to the flipped triangle 0's cycle
    on the expected side, for negative controls.
    """
    checks = []
    tq1 = build_quiver(tau)
    if len(tq1.punctures) != 1:
        raise ValueError(
            "the flip check needs exactly one puncture; quiver has %d" % len(tq1.punctures)
        )
    s1 = potential_S(tq1, x, degree, n=n)
    d = s1.degree
    sigma = flip(tau, k)
    tq2 = build_quiver(sigma)
    s2 = potential_S(tq2, x, d, n=n)
    if perturb is not None:
        s2 = s2 + Potential(tq2.quiver, d, {tq2.triangle_cycle(0): perturb})

    pre = premutate(QP(tq1.quiver, s1), k)
    new_q = pre.quiver
    (i1, (b1, a1, c1)), (i2, (b2, a2, c2)) = _triangle_labels(tq1, k)

    # Split the puncture cycle around a1 and a2: 𝒢 ~rot a1 · A · a2 · B.
    gword = tq1.puncture_cycle(tq1.punctures[0].pid).arrows
    if gword.count(a1) != 1 or gword.count(a2) != 1:
        raise ValueError("puncture cycle does not visit the flip triangles once")
    r = gword.index(a1)
    rot = gword[r:] + gword[:r]
    j = rot.index(a2)
    seg_a, seg_b = rot[1:j], rot[j + 1:]

    old_q = tq1.quiver
    a_el = _segment_element(old_q, new_q, k, seg_a, old_q.tail(a1), d)
    b_el = _segment_element(old_q, new_q, k, seg_b, old_q.tail(a2), d)

    def e(name, coeff=1):
        return TruncatedElement.from_arrow(new_q, d, name, coeff)

    c1s_b1s = e(c1 + "*") * e(b1 + "*")
    c2s_b2s = e(c2 + "*") * e(b2 + "*")
    a1_el, a2_el = e(a1), e(a2)
    xq = Fraction(x)

    phi1 = REndomorphism(new_q, d, {a1: a1_el - c1s_b1s})
    corr2 = _flip_correction(a_el * a2_el * b_el, a1_el - c1s_b1s, c1s_b1s, n, xq, 0)
    phi2 = REndomorphism(new_q, d, {"[%s%s]" % (b1, c1): e("[%s%s]" % (b1, c1)) - corr2})
    phi3 = REndomorphism(new_q, d, {a2: a2_el - c2s_b2s})
    corr4 = _flip_correction(b_el * c1s_b1s * a_el, a2_el - c2s_b2s, c2s_b2s, n, xq, n)
    phi4 = REndomorphism(new_q, d, {"[%s%s]" % (b2, c2): e("[%s%s]" % (b2, c2)) - corr4})
    factors = (phi1, phi2, phi3, phi4)

    # Transport the potential one factor at a time and never build the
    # composite, whose rule images run to thousands of terms:
    # (φ4∘φ3∘φ2∘φ1)(W) = φ4(φ3(φ2(φ1(W)))) exactly modulo D, because every
    # rule image lies in the arrow ideal (REndomorphism rejects a length-0
    # term), so truncating between factors drops nothing the composite keeps.
    transformed = pre.potential
    for factor in factors:
        transformed = factor.apply(transformed)
    red, rwitness = reduce(QP(new_q, transformed))
    # reduce raises unless its witness rechecks; record that verified result.
    checks.append(("reduction witness recheck", True, ""))
    expected_pairs = {(a1, "[%s%s]" % (b1, c1)), (a2, "[%s%s]" % (b2, c2))}
    checks.append((
        "trivial part is the two expected 2-cycles",
        {frozenset(uv) for uv in rwitness.pairs} == {frozenset(uv) for uv in expected_pairs},
        "got %r" % (rwitness.pairs,),
    ))

    # Forced arc matching: each new triangle of the flip, (s2, s3, k) at i1
    # and (s4, s1, k) at i2, takes the composite arrow on its first corner
    # and the two stars after it.
    corner = tq2.corners
    renaming = {
        "[%s%s]" % (b2, c1): corner[(i1, 0)],
        b2 + "*": corner[(i1, 1)],
        c1 + "*": corner[(i1, 2)],
        "[%s%s]" % (b1, c2): corner[(i2, 0)],
        b1 + "*": corner[(i2, 1)],
        c2 + "*": corner[(i2, 2)],
    }
    for a in red.quiver.arrows:
        renaming.setdefault(a.name, a.name)

    got_arrows = {
        (renaming[a.name], a.tail, a.head) for a in red.quiver.arrows
    }
    want_arrows = {(a.name, a.tail, a.head) for a in tq2.quiver.arrows}
    iso_ok = got_arrows == want_arrows and len(renaming) == len(tq2.quiver.arrows)
    checks.append((
        "quiver matches the flipped triangulation's quiver",
        iso_ok,
        "" if iso_ok else "difference %r" % (got_arrows ^ want_arrows,),
    ))

    first_diff = None
    transported = Potential.zero(tq2.quiver, d)
    if iso_ok:
        transported = Potential(
            tq2.quiver,
            d,
            {
                tq2.quiver.path(tuple(renaming[nm] for nm in p.arrows)): z
                for p, z in red.potential.terms.items()
            },
        )
        same = is_cyclically_equivalent(transported, s2)
        if not same:
            first_diff = _first_difference(transported, s2)
        checks.append((
            "potential equals the flipped potential exactly",
            same,
            first_diff or "",
        ))
    else:
        checks.append(("potential equals the flipped potential exactly", False,
                       "skipped: quiver mismatch"))

    ok = all(c[1] for c in checks)
    return FlipReport(
        ok=ok,
        arc=k,
        x=xq,
        n=n,
        degree=d,
        checks=tuple(checks),
        first_difference=first_diff,
        renaming=renaming,
        factors=factors,
        premutated=pre,
        reduction=rwitness,
        transported=transported,
        expected=s2,
    )
