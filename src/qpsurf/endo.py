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

from .path_algebra import Path, Potential, TruncatedElement, exact_coefficient


class REndomorphism:
    """A substitution rule-set ``arrow -> element`` with every image in the
    arrow ideal (no length-0 term); missing arrows map to themselves."""

    __slots__ = ("quiver", "degree", "rules")

    def __init__(self, quiver, degree, rules=None):
        degree = int(degree)
        if degree < 0:
            raise ValueError("negative truncation degree")
        self.quiver = quiver
        self.degree = degree
        clean = {}
        for name, img in (rules or {}).items():
            if not quiver.has_arrow(name):
                raise ValueError("rule for unknown arrow %r" % (name,))
            a = quiver.arrow(name)
            if img.quiver != quiver:
                raise ValueError("rule image lives on a different quiver")
            if img.degree < degree:
                raise ValueError(
                    "rule for %r is only known modulo degree %d < %d"
                    % (name, img.degree, degree)
                )
            img = img.truncate(degree)
            for p in img.terms:
                if not p.arrows:
                    raise ValueError(
                        "rule for %r has a length-0 term: images must lie in the "
                        "arrow ideal" % (name,)
                    )
                if quiver.path_tail(p) != a.tail or quiver.path_head(p) != a.head:
                    raise ValueError(
                        "rule for %r contains a path with wrong endpoints: %r" % (name, p)
                    )
            if self._is_identity_image(name, img):
                continue
            clean[name] = img
        self.rules = clean

    @staticmethod
    def _is_identity_image(name, img):
        if len(img.terms) != 1:
            return False
        (p, c), = img.terms.items()
        return p.arrows == (name,) and c == 1

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
        output is well defined modulo the truncation.  One loop walks each
        term's word in two steps.  Branch step: an arrow whose shortest
        correction (image term other than the arrow, δ = its length − 1)
        fits the term's slack below the degree expands into its image, held
        for the call as ``(length, word, coeff)`` ordered by length, up to
        the room the remaining arrows leave; that room bound is the only
        length limit needed.  Run step: a maximal run of arrows that cannot
        branch (no rule, or δ too large, δ = inf for a pure rescaling) is
        appended whole and scaled once by the product of the run's own
        arrow coefficients.  Output coefficients are stored as the
        constructor stores them (``exact_coefficient``: int when integral).

        A potential's output terms are cycles by construction (every rule
        image has its arrow's endpoints), so they are only re-canonicalized,
        not re-validated.
        """
        if isinstance(x, Potential):
            out = self.apply(x.as_element())
            return Potential(out.quiver, out.degree, out.terms, validate=False)
        d = min(self.degree, x.degree)
        info = {}
        for name, img in self.rules.items():
            ordered = sorted(
                ((len(r.arrows), r.arrows, cr) for r, cr in img.terms.items()),
                key=itemgetter(0),
            )
            unit = (name,)
            c_id = next((cr for _, r, cr in ordered if r == unit), 0)
            delta = next((lr - 1 for lr, r, _ in ordered if r != unit), inf)
            info[name] = (c_id, delta, ordered)
        out = {}
        for p, c in x.terms.items():
            word = p.arrows
            n = len(word)
            if n > d:
                continue
            slack = d - n
            acc = {(): c}
            i = 0
            while i < n and acc:
                e = info.get(word[i])
                if e is not None and e[1] <= slack:
                    i += 1
                    nxt = {}
                    for w, cw in acc.items():
                        room = d - len(w) - (n - i)
                        for lr, r, cr in e[2]:
                            if lr > room:
                                break
                            ext = w + r
                            s = nxt.get(ext)
                            if s is None:
                                nxt[ext] = cw * cr
                            else:
                                s += cw * cr
                                if s == 0:
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
                if scale == 0:
                    acc = {}
                elif scale == 1:
                    acc = {w + run: cw for w, cw in acc.items()}
                else:
                    acc = {w + run: cw * scale for w, cw in acc.items()}
            for w, cw in acc.items():
                key = Path(w) if w else p
                s = out.get(key)
                if s is None:
                    out[key] = exact_coefficient(cw)
                else:
                    s += cw
                    if s == 0:
                        del out[key]
                    else:
                        out[key] = exact_coefficient(s)
        return TruncatedElement._raw(self.quiver, d, out)

    # -- invariants ----------------------------------------------------

    def depth(self):
        """min over arrows of short(image − arrow) − 1; +inf for the identity."""
        best = inf
        for name, img in self.rules.items():
            diff = img - TruncatedElement.from_arrow(self.quiver, self.degree, name)
            s = diff.short
            if s - 1 < best:
                best = s - 1
        return best

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
    """The composite outer ∘ inner (inner substitutes first)."""
    if outer.quiver != inner.quiver:
        raise ValueError("endomorphisms live on different quivers")
    d = min(outer.degree, inner.degree)
    rules = {}
    for a in outer.quiver.arrows:
        if a.name in inner.rules or a.name in outer.rules:
            rules[a.name] = outer.apply(inner.rule(a.name)).truncate(d)
    return REndomorphism(outer.quiver, d, rules)


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

    Folds pairwise in a balanced tree.  Composition is exactly associative
    modulo the truncation because every rule image lies in the arrow ideal
    (checked by ``REndomorphism``), so the result is the same as a left
    fold, but the big late-stage composites are rebuilt O(log n) times
    instead of O(n).
    """
    layer = list(factors)
    if not layer:
        return REndomorphism.identity(quiver, degree)
    while len(layer) > 1:
        nxt = [
            compose(layer[i + 1], layer[i]) if i + 1 < len(layer) else layer[i]
            for i in range(0, len(layer), 2)
        ]
        layer = nxt
    return layer[0]


def limit_compose(factors, quiver, degree):
    """Compose a stream of substitutions until the tail stops mattering.

    Consumes ``factors`` (latest factor applied last, i.e. the composite is
    ...∘φ2∘φ1) and stops once a factor has depth ≥ degree — beyond that
    every further factor is the identity modulo the truncation — or the
    stream ends.  Aborts loudly if 10·degree consecutive factors fail to
    push the depth watermark up, which would mean the stream is not
    converging.
    """
    collected = []
    watermark = -1
    stalled = 0
    for phi in factors:
        collected.append(phi)
        d = phi.depth()
        if d >= degree:
            break
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
    return compose_all(collected, quiver, degree)
