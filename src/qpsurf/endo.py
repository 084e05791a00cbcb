"""Vertex-fixing endomorphisms of the truncated path algebra.

An endomorphism is determined by where it sends each arrow; vertices stay
put.  The image of an arrow must be concentrated on paths with the same
endpoints as the arrow.  Unitriangular substitutions (arrow plus longer
terms) are automorphisms and can be inverted by fixed-point iteration;
general substitutions are automorphisms exactly when their degree-one part
is invertible over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from operator import itemgetter
from types import MappingProxyType

from .path_algebra import (
    Path,
    Potential,
    TruncatedElement,
    canonicalize_rotation,
    exact_coefficient,
)


def _expansion(name, img):
    """One rule's table entry: (unit coefficient, δ, terms as (length, word, coeff) by length).

    δ is the length of the shortest term other than the arrow itself, minus
    one (inf for a pure rescaling).
    """
    ordered = sorted(
        ((len(r.arrows), r.arrows, cr) for r, cr in img.terms.items()), key=itemgetter(0)
    )
    unit = (name,)
    c_id = next((cr for _, r, cr in ordered if r == unit), 0)
    delta = next((lr - 1 for lr, r, _ in ordered if r != unit), inf)
    return c_id, delta, ordered


class REndomorphism:
    """A substitution rule-set ``arrow -> element`` with every image in the
    arrow ideal (no length-0 term); missing arrows map to themselves.

    ``rules`` and its images' terms are read-only, the caller's images
    copied, so the expansion table built from them (one ``_expansion``
    entry per rule) cannot go stale.
    """

    __slots__ = ("quiver", "degree", "rules", "_table")

    def __init__(self, quiver, degree, rules=None):
        degree = int(degree)
        if degree < 0:
            raise ValueError("negative truncation degree")
        self.quiver, self.degree = quiver, degree
        images = {}
        for name, img in (rules or {}).items():
            if not quiver.has_arrow(name):
                raise ValueError("rule for unknown arrow %r" % (name,))
            a = quiver.arrow(name)
            if img.quiver != quiver:
                raise ValueError("rule image lives on a different quiver")
            if img.degree < degree:
                raise ValueError("rule for %r is only known modulo degree %d < %d"
                                 % (name, img.degree, degree))
            img = img.truncate(degree)
            for p in img.terms:
                if not p.arrows:
                    raise ValueError("rule for %r has a length-0 term: images must lie in "
                                     "the arrow ideal" % (name,))
                if quiver.path_tail(p) != a.tail or quiver.path_head(p) != a.head:
                    raise ValueError("rule for %r contains a path with wrong endpoints: %r"
                                     % (name, p))
            if len(img.terms) != 1 or img.terms.get(Path((name,))) != 1:
                images[name] = img._raw(quiver, degree, MappingProxyType(dict(img.terms)))
        self.rules = MappingProxyType(images)
        self._table = None

    def _expansions(self):
        """The expansion table, built on first use: an endomorphism that is
        never applied (a stored factor read back to be composed, say) never
        needs it."""
        if self._table is None:
            self._table = {name: _expansion(name, img) for name, img in self.rules.items()}
        return self._table

    @classmethod
    def identity(cls, quiver, degree):
        return cls(quiver, degree, {})

    def rule(self, name):
        img = self.rules.get(name)
        if img is None:
            return TruncatedElement.from_arrow(self.quiver, self.degree, name)
        return img

    @property
    def is_identity(self):
        return not self.rules

    # -- action --------------------------------------------------------

    def apply(self, x):
        """Apply the substitution to an element or a potential.

        Every rule image lies in the arrow ideal (checked on construction),
        so each arrow of a term contributes length at least one and the
        output is well defined modulo the truncation.  The expansion table
        holds each image as ``(length, word, coeff)`` ordered by length,
        with its unit coefficient (of the arrow itself) and δ (the shortest
        other term's length − 1, inf for a pure rescaling).

        A term that holds no rule arrow is copied straight through.  So is
        a term whose slack below the degree is smaller than every δ, times
        the unit coefficients of its arrows (dropped if one is 0):
        replacing any arrow by a non-unit term would add more than the
        slack, so only the unit terms survive.  Any other term is walked in
        two steps.  Branch step: an arrow whose δ fits the slack expands
        into its image, up to the room the remaining arrows leave; that
        room bound is the only length limit needed.  Run step:
        a maximal run of arrows that cannot branch is appended whole and
        scaled once by the product of its unit coefficients.  A product
        with a factor 1 is not formed.  Output coefficients are stored as
        the constructor stores them (``exact_coefficient``: int when
        integral).

        A potential's output terms are cycles by construction (every rule
        image has its arrow's endpoints), so they are not re-validated.  An
        output word that is already a key of the input potential is kept as
        it is: a potential's keys are canonical rotations.  Only rewritten
        words are canonicalized, and words of one rotation class are merged,
        in output order, as the ``Potential`` constructor merges them.
        """
        if isinstance(x, Potential):
            if x.quiver != self.quiver:
                raise ValueError("the potential lives on a different quiver")
            out = self.apply(x.as_element())
            keys, q = x.terms, self.quiver
            terms = {}
            for p, c in out.terms.items():
                key = p if p in keys else canonicalize_rotation(q, p)
                s = terms.get(key)
                if s is None:
                    terms[key] = c
                elif (s := s + c) == 0:
                    del terms[key]
                else:
                    terms[key] = exact_coefficient(s)
            return Potential._raw(q, out.degree, terms)
        d = min(self.degree, x.degree)
        info = self._expansions()
        reach = min((e[1] for e in info.values()), default=inf)
        scales = {name: e[0] for name, e in info.items() if e[0] != 1}
        out = {}
        for p, c in x.terms.items():
            word = p.arrows
            n = len(word)
            if n > d:
                continue
            slack = d - n
            if slack < reach or info.keys().isdisjoint(word):
                for a in word if scales else ():
                    if a in scales:
                        c *= scales[a]
                if c == 0:
                    continue
                acc = ((word, c),)
            else:
                acc = {(): c}
                i = 0
                while i < n and acc:
                    e = info.get(word[i])
                    if e is not None and e[1] <= slack:
                        i += 1
                        nxt = {}
                        for w, cw in acc.items():
                            room = d - len(w) - (n - i)
                            one = cw == 1
                            for lr, r, cr in e[2]:
                                if lr > room:
                                    break
                                ext = w + r
                                t = cr if one else cw if cr == 1 else cw * cr
                                s = nxt.get(ext)
                                if s is None:
                                    nxt[ext] = t
                                elif (s := s + t) == 0:
                                    del nxt[ext]
                                else:
                                    nxt[ext] = s
                        acc = nxt
                        continue
                    scale = 1
                    j = i
                    while j < n:
                        e = info.get(word[j])
                        if e is not None:
                            if e[1] <= slack:
                                break
                            if e[0] != 1:
                                scale *= e[0]
                        j += 1
                    run = word[i:j]
                    i = j
                    acc = {w + run: cw if scale == 1 else cw * scale
                           for w, cw in acc.items()} if scale != 0 else {}
                acc = acc.items()
            for w, cw in acc:
                key = p if w == word else Path(w)
                s = out.get(key)
                if s is None:
                    out[key] = exact_coefficient(cw)
                elif (s := s + cw) == 0:
                    del out[key]
                else:
                    out[key] = exact_coefficient(s)
        return TruncatedElement._raw(self.quiver, d, out)

    # -- invariants ----------------------------------------------------

    def depth(self):
        """min over arrows of short(image − arrow) − 1; +inf for the identity.

        Read off the table: image − arrow starts at length δ + 1 when the
        unit coefficient is 1, and at the arrow itself (length 1) otherwise.
        """
        return min((e[1] if e[0] == 1 else 0 for e in self._expansions().values()), default=inf)

    def is_unitriangular(self):
        return self.depth() >= 1

    def is_automorphism(self):
        """Whether the substitution is invertible modulo the truncation.

        True iff the degree-one coefficient blocks (one square matrix per
        ordered vertex pair) are all invertible over the rationals.
        """
        q = self.quiver
        blocks = {}
        for a in q.arrows:
            blocks.setdefault((a.tail, a.head), []).append(a.name)
        for names in blocks.values():
            mat = []
            for row_name in names:
                img = self.rule(row_name)
                mat.append([img.coefficient(q.path([col])) for col in names])
            if _rank(mat) < len(names):
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, REndomorphism)
            and self.quiver == other.quiver
            and self.degree == other.degree
            and self.rules == other.rules
        )

    __hash__ = None

    def __repr__(self):
        if not self.rules:
            return "REndomorphism(identity; D=%d)" % self.degree
        return "REndomorphism(%d rules; D=%d)" % (len(self.rules), self.degree)

    def to_json_dict(self):
        names = sorted(self.rules, key=self.quiver.rank)
        return {
            "D": self.degree,
            "rules": [{"arrow": nm, "image": self.rules[nm].to_json_dict()} for nm in names],
        }

    @classmethod
    def from_json_dict(cls, quiver, data):
        rules = {}
        for entry in data["rules"]:
            rules[entry["arrow"]] = TruncatedElement.from_json_dict(quiver, entry["image"])
        return cls(quiver, data["D"], rules)


def _rank(mat):
    """Rank of a small dense rational matrix by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [inv * x for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def compose(outer, inner):
    """The composite outer ∘ inner (inner substitutes first).

    Each arrow goes to outer applied to inner's image of it: to
    ``outer.apply`` of inner's own images, and to outer's image, truncated
    to the composite's degree, where inner leaves the arrow alone.  The
    constructor checks every image.  The result is exact modulo the
    truncation because every rule image lies in the arrow ideal: a
    substituted word never gets shorter, so truncating inner's images
    first drops nothing the composite would keep.
    """
    if outer.quiver != inner.quiver:
        raise ValueError("endomorphisms live on different quivers")
    images = dict(outer.rules)
    images.update((name, outer.apply(img)) for name, img in inner.rules.items())
    return REndomorphism(outer.quiver, min(outer.degree, inner.degree), images)


def invert_unitriangular(phi):
    """Invert a unitriangular substitution by fixed-point iteration.

    The iteration psi_{k+1}(a) = a − psi_k(phi(a) − a) gains at least one
    degree of agreement per round, so it stabilizes within D steps.
    """
    if not phi.is_unitriangular():
        raise ValueError("not unitriangular (depth %s)" % phi.depth())
    q, d = phi.quiver, phi.degree
    corrections = {}
    for name in phi.rules:
        h = phi.rule(name) - TruncatedElement.from_arrow(q, d, name)
        if not h.is_zero:
            corrections[name] = h
    psi = REndomorphism.identity(q, d)
    for _ in range(d + 1):
        rules = {
            name: TruncatedElement.from_arrow(q, d, name) - psi.apply(h)
            for name, h in corrections.items()
        }
        nxt = REndomorphism(q, d, rules)
        if nxt == psi:
            break
        psi = nxt
    else:
        raise RuntimeError("inversion failed to stabilize within D rounds")
    return psi


def compose_all(factors, quiver, degree):
    """Compose a list of substitutions, latest applied last (...∘φ2∘φ1).

    No stage of the engine builds a composite: each keeps its witness as
    the factor chain and applies the factors in turn.  This fold is the
    reference a chain is checked against.  It is a right fold from the
    outermost factor: ψ starts as the last factor and becomes ψ ∘ φ_k for
    k from the second-to-last back to the first, so each step pushes only
    φ_k's own images (usually one short image) through ψ.  The order of
    the fold does not change the result: every rule image lies in the
    arrow ideal (checked by ``REndomorphism``), so a substituted word never
    gets shorter, truncating an intermediate drops nothing the composite
    would keep, and composition is exactly associative modulo the
    truncation.
    """
    factors = list(factors)
    if not factors:
        return REndomorphism.identity(quiver, degree)
    psi = factors[-1]
    for phi in reversed(factors[:-1]):
        psi = compose(psi, phi)
    return psi


def _limit_factors(stream, degree, pot):
    """Run a stream of substitutions until the tail stops mattering.

    ``stream`` is a generator of substitutions, latest applied last.  Each
    factor it yields is applied once, to the carried potential ``pot``,
    and the result is sent back into the stream, which reads its next
    state off it.  The run stops once a factor has depth ≥ degree —
    beyond that every further factor is the identity modulo the
    truncation — or the stream ends.  Aborts loudly if 10·degree
    consecutive factors fail to push the depth watermark up, which would
    mean the stream is not converging.

    Returns (factors, pot, result): the factors taken, as a tuple in
    application order, which are exactly the factors applied; ``pot``
    with them applied; and the stream's return value, None if the run
    stopped before the stream ended.
    """
    collected = []
    watermark = -1
    stalled = 0
    try:
        phi = next(stream)
        while True:
            collected.append(phi)
            pot = phi.apply(pot)
            d = phi.depth()
            if d >= degree:
                stream.close()
                return tuple(collected), pot, None
            if d > watermark:
                watermark = d
                stalled = 0
            else:
                stalled += 1
                if stalled >= 10 * degree:
                    raise RuntimeError(
                        "limit composition stalled: %d factors without depth progress "
                        "(watermark %s)" % (stalled, watermark)
                    )
            phi = stream.send(pot)
    except StopIteration as stop:
        return tuple(collected), pot, stop.value


def limit_compose(factors, quiver, degree):
    """Compose a stream of substitutions until the tail stops mattering.

    The composite ...∘φ2∘φ1 of the factors ``_limit_factors`` takes from
    the stream (latest factor applied last); they are applied to the zero
    potential, which costs nothing.  No stage of the engine calls it: each
    runs its stream through ``_limit_factors``, which applies every factor
    once to the stage's potential, with the same result as applying this
    composite, exactly modulo the truncation.
    """
    zero = Potential.zero(quiver, degree)
    taken, _, _ = _limit_factors((phi for phi in factors), degree, zero)
    return compose_all(taken, quiver, degree)
