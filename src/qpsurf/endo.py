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

from .path_algebra import Path, Potential, TruncatedElement


class REndomorphism:
    """A substitution rule-set ``arrow -> element``; missing arrows map to themselves."""

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

        Each rule image is split into the arrow's own coefficient and the
        remaining "branching" terms, whose minimal added length gates them
        against the term's slack below the truncation degree: a term too
        long to absorb any branching correction just picks up the product
        of identity coefficients, in one pass.  Only terms with genuine
        room expand into sums; runs of arrows that cannot branch are
        concatenated wholesale.  For the duration of the call each image is
        held as a list of ``(length, word, coeff)`` ordered by length, so
        the expansion stops at the first term longer than the room left.

        A potential's output terms are cycles by construction (every rule
        image has its arrow's endpoints), so they are only re-canonicalized,
        not re-validated.
        """
        if isinstance(x, Potential):
            out = self.apply(x.as_element())
            return Potential(out.quiver, out.degree, out.terms, validate=False)
        d = min(self.degree, x.degree)
        q = self.quiver
        one = Fraction(1)
        info = {}
        plus_lengths = True
        for name, img in self.rules.items():
            unit = (name,)
            c_id = 0
            delta = None
            ordered = sorted(
                ((len(r.arrows), r.arrows, cr) for r, cr in img.terms.items()),
                key=itemgetter(0),
            )
            for lr, r, cr in ordered:
                if r == unit:
                    c_id = cr
                elif delta is None:
                    delta = lr - 1
            info[name] = (c_id, delta, ordered)
            if ordered and ordered[0][0] == 0:
                plus_lengths = False
        out = {}
        for p, c in x.terms.items():
            word = p.arrows
            n = len(word)
            if n > d:
                continue
            slack = d - n
            branchy = False
            ruled = False
            for nm in word:
                e = info.get(nm)
                if e is not None:
                    ruled = True
                    if e[1] is not None and e[1] <= slack:
                        branchy = True
                        break
            if not branchy:
                s = c
                if ruled:
                    for nm in word:
                        e = info.get(nm)
                        if e is not None and e[0] != 1:
                            s = s * e[0]
                            if s == 0:
                                break
                if s != 0:
                    tot = out.get(p, 0) + s
                    if tot == 0:
                        out.pop(p, None)
                    else:
                        out[p] = tot
                continue
            acc = {word[:0]: c}
            i = 0
            while i < n and acc:
                e = info.get(word[i])
                if e is not None and e[1] is not None and e[1] <= slack:
                    ordered = e[2]
                    i += 1
                    tail_min = n - i if plus_lengths else 0
                    nxt = {}
                    for w, cw in acc.items():
                        room = d - len(w) - tail_min
                        for lr, r, cr in ordered:
                            if lr > room:
                                break
                            ext = w + r
                            s = nxt.get(ext, 0) + cw * cr
                            if s == 0:
                                nxt.pop(ext, None)
                            else:
                                nxt[ext] = s
                    acc = nxt
                elif e is None:
                    j = i + 1
                    while j < n:
                        e2 = info.get(word[j])
                        if e2 is not None:
                            break
                        j += 1
                    chunk = word[i:j]
                    i = j
                    acc = {
                        w + chunk: cw for w, cw in acc.items() if len(w) + len(chunk) <= d
                    }
                else:
                    nm = word[i]
                    i += 1
                    c_id = e[0]
                    if c_id == 0:
                        acc = {}
                    elif c_id == one:
                        acc = {w + (nm,): cw for w, cw in acc.items() if len(w) < d}
                    else:
                        acc = {
                            w + (nm,): cw * c_id for w, cw in acc.items() if len(w) < d
                        }
            for w, cw in acc.items():
                key = Path(w) if w else q.lazy_path(q.path_head(p))
                s = out.get(key, 0) + cw
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return TruncatedElement._raw(q, d, out)

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

    Folds pairwise in a balanced tree: composition is associative, so the
    result is the same as a left fold, but the big late-stage composites
    are rebuilt O(log n) times instead of O(n).
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
