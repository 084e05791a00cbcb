"""Exact truncated path-algebra arithmetic over the rationals.

Elements of the complete path algebra of a quiver are kept modulo paths
longer than a fixed truncation degree D, so every computation is finite and
exact.  Composition is written right to left: in a product written
``w = a3 a2 a1`` the arrow ``a1`` acts first.  A path is stored as the tuple
of arrow names in written order, i.e. ``("a3", "a2", "a1")``; consecutive
entries must satisfy tail(arrows[i]) == head(arrows[i+1]).

Potentials are linear combinations of cycles considered up to rotation; we
keep them in a canonical form where every cycle is rotated to its
lexicographically minimal representative (by arrow declaration order), so
cyclic equivalence becomes dictionary equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf


@dataclass(frozen=True)
class Arrow:
    name: str
    tail: object
    head: object


@dataclass(frozen=True)
class Path:
    """A composable word of arrow names, or a lazy path sitting at a vertex.

    ``arrows`` is in written order (rightmost acts first).  A length-zero
    path carries its vertex in ``at``; longer paths leave ``at`` as None.
    The hash is computed once, on construction: paths are the keys of
    every term dictionary.
    """

    arrows: tuple
    at: object = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.arrows:
            if self.at is not None:
                raise ValueError("non-empty path must not carry a vertex")
        elif self.at is None:
            raise ValueError("empty path needs a vertex")
        object.__setattr__(self, "_hash", hash((self.arrows, self.at)))

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.arrows)

    def __repr__(self):
        if not self.arrows:
            return "Path(e_%s)" % (self.at,)
        return "Path(%s)" % " ".join(self.arrows)


class Quiver:
    """A finite quiver with named arrows.

    Arrow declaration order is meaningful: it fixes the lexicographic order
    used to canonicalize cycle rotations and to break ties deterministically
    everywhere else.
    """

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        vset = set(self.vertices)
        built = []
        for a in arrows:
            if not isinstance(a, Arrow):
                a = Arrow(*a)
            built.append(a)
        self.arrows = tuple(built)
        self._by_name = {}
        for a in self.arrows:
            if a.name in self._by_name:
                raise ValueError("duplicate arrow name %r" % a.name)
            if a.tail not in vset or a.head not in vset:
                raise ValueError("arrow %r has endpoint outside vertex set" % a.name)
            self._by_name[a.name] = a
        self._rank = {a.name: i for i, a in enumerate(self.arrows)}
        self._tails = {a.name: a.tail for a in self.arrows}
        self._heads = {a.name: a.head for a in self.arrows}
        out, inn = {v: [] for v in self.vertices}, {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.tail].append(a)
            inn[a.head].append(a)
        self.arrows_out = {v: tuple(l) for v, l in out.items()}
        self.arrows_in = {v: tuple(l) for v, l in inn.items()}

    def arrow(self, name):
        return self._by_name[name]

    def has_arrow(self, name):
        return name in self._by_name

    def rank(self, name):
        return self._rank[name]

    def tail(self, name):
        return self._by_name[name].tail

    def head(self, name):
        return self._by_name[name].head

    # -- paths ---------------------------------------------------------

    def lazy_path(self, v):
        if v not in self.arrows_out:
            raise ValueError("unknown vertex %r" % (v,))
        return Path((), v)

    def path(self, names, at=None):
        """Build and validate a Path from arrow names in written order."""
        names = tuple(names)
        if not names:
            return self.lazy_path(at)
        p = Path(names)
        self.check_path(p)
        return p

    def check_path(self, p):
        if not p.arrows:
            if p.at not in self.arrows_out:
                raise ValueError("unknown vertex %r" % (p.at,))
            return
        w = p.arrows
        heads = self._heads
        if heads.keys() >= set(w) and (
            list(map(self._tails.__getitem__, w[:-1])) == list(map(heads.__getitem__, w[1:]))
        ):
            return
        for nm in w:
            if nm not in self._by_name:
                raise ValueError("unknown arrow %r" % (nm,))
        for i in range(len(w) - 1):
            if self.tail(w[i]) != self.head(w[i + 1]):
                raise ValueError(
                    "word not composable at position %d: tail(%s) != head(%s)"
                    % (i, w[i], w[i + 1])
                )

    def path_tail(self, p):
        return p.at if not p.arrows else self.tail(p.arrows[-1])

    def path_head(self, p):
        return p.at if not p.arrows else self.head(p.arrows[0])

    def is_cycle(self, p):
        return len(p.arrows) > 0 and self.path_tail(p) == self.path_head(p)

    def rotations(self, p):
        """All rotations of a cycle, starting with p itself."""
        if not self.is_cycle(p):
            raise ValueError("rotations of a non-cycle")
        w = p.arrows
        return [Path(w[i:] + w[:i]) for i in range(len(w))]

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    __hash__ = None

    def __repr__(self):
        return "Quiver(%d vertices, %d arrows)" % (len(self.vertices), len(self.arrows))

    # -- serialization -------------------------------------------------

    def to_json_dict(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [{"id": a.name, "from": a.tail, "to": a.head} for a in self.arrows],
        }

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            data["vertices"],
            [(a["id"], a["from"], a["to"]) for a in data["arrows"]],
        )


def concat(p, q):
    """The written concatenation p·q (q acts first).  Assumes composability."""
    if not p.arrows:
        return q
    if not q.arrows:
        return p
    return Path(p.arrows + q.arrows)


def canonicalize_rotation(quiver, p):
    """Rotate a cycle to its lexicographically minimal representative.

    Lexicographic order compares arrow declaration indices position by
    position.  Lazy paths pass through unchanged.

    The minimal rotation starts at an arrow of minimal rank, so only those
    start positions are candidates: their rotations are compared as slices
    of the doubled rank key, and on a tie (a periodic word) the first
    candidate wins, as it would among all rotations.
    """
    if not p.arrows:
        return p
    if not quiver.is_cycle(p):
        raise ValueError("cannot canonicalize a non-cycle: %r" % (p,))
    w = p.arrows
    key = list(map(quiver._rank.__getitem__, w))
    low = min(key)
    starts = [key.index(low)]
    for _ in range(key.count(low) - 1):
        starts.append(key.index(low, starts[-1] + 1))
    if len(starts) == 1:
        best = starts[0]
    else:
        n = len(key)
        key += key
        best = min(starts, key=lambda i: key[i : i + n])
    if best == 0:
        return p
    return Path(w[best:] + w[:best])


def exact_coefficient(c):
    """An exact coefficient: ``int`` when integral, else ``Fraction``.

    Accepts anything ``Fraction`` accepts except ``float``, which is
    refused with ``TypeError``: a binary float is rarely the rational the
    caller meant (``0.1`` is 3602879701896397/36028797018963968).  Plain
    ints keep integral arithmetic out of ``Fraction``; ``str``, ``==`` and
    ``hash`` agree between an int and the equal ``Fraction``.
    """
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError("float coefficient %r: use an int, a Fraction or a string" % (c,))
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class _Graded:
    """A finite rational combination of paths, modulo paths longer than D.

    The shared implementation of ``TruncatedElement`` and ``Potential``.
    A subclass decides which paths it accepts (``_check``) and which path
    stands for a term in the dictionary (``_key``); everything else —
    truncation, arithmetic, comparison and JSON — is the same.  Operands of
    different subclasses never mix: arithmetic between them raises
    ``TypeError`` and they never compare equal.

    A coefficient is an ``int`` or a ``Fraction``, never a ``float``; the
    constructor stores integral ones as ``int`` (``exact_coefficient``).
    """

    __slots__ = ("quiver", "degree", "terms")

    def __init__(self, quiver, degree, terms=None):
        degree = int(degree)
        if degree < 0:
            raise ValueError("negative truncation degree")
        self.quiver = quiver
        self.degree = degree
        clean = {}
        for p, c in (terms or {}).items():
            if len(p.arrows) > degree:
                continue
            c = exact_coefficient(c)
            if c == 0:
                continue
            self._check(p)
            key = self._key(p)
            s = clean.get(key)
            if s is None:
                clean[key] = c
            else:
                s += c
                if s == 0:
                    del clean[key]
                else:
                    clean[key] = exact_coefficient(s)
        self.terms = clean

    def _check(self, p):
        self.quiver.check_path(p)

    def _key(self, p):
        return p

    # -- constructors --------------------------------------------------

    @classmethod
    def _raw(cls, quiver, degree, terms):
        """Internal: adopt a term dict already known to be clean and keyed."""
        x = cls.__new__(cls)
        x.quiver = quiver
        x.degree = degree
        x.terms = terms
        return x

    @classmethod
    def zero(cls, quiver, degree):
        return cls._raw(quiver, degree, {})

    # -- structure -----------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def short(self):
        """Minimal path length occurring, or +inf for zero."""
        if not self.terms:
            return inf
        return min(len(p.arrows) for p in self.terms)

    def max_length(self):
        if not self.terms:
            return 0
        return max(len(p.arrows) for p in self.terms)

    def coefficient(self, p):
        """The coefficient of ``p``: an ``int`` or a ``Fraction``, 0 if absent."""
        return self.terms.get(self._key(p), 0)

    def truncate(self, degree):
        if degree >= self.degree:
            if degree == self.degree:
                return self
            raise ValueError("cannot raise truncation degree")
        kept = {p: c for p, c in self.terms.items() if len(p.arrows) <= degree}
        return self._raw(self.quiver, degree, kept)

    # -- arithmetic ----------------------------------------------------

    def _coerced(self, other):
        if type(other) is not type(self):
            raise TypeError("expected %s, got %r" % (type(self).__name__, type(other)))
        if other.quiver != self.quiver:
            raise ValueError("operands live on different quivers")
        return min(self.degree, other.degree)

    def __add__(self, other):
        d = self._coerced(other)
        out = dict(self.terms)
        for p, c in other.terms.items():
            s = out.get(p, 0) + c
            if s == 0:
                out.pop(p, None)
            else:
                out[p] = s
        if d != self.degree or d != other.degree:
            out = {p: c for p, c in out.items() if len(p.arrows) <= d}
        return self._raw(self.quiver, d, out)

    def __sub__(self, other):
        return self.__add__(-other)

    def __neg__(self):
        return self._raw(self.quiver, self.degree, {p: -c for p, c in self.terms.items()})

    def scale(self, c):
        c = exact_coefficient(c)
        if c == 0:
            return self._raw(self.quiver, self.degree, {})
        return self._raw(
            self.quiver, self.degree, {p: c * v for p, v in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.quiver == other.quiver
            and self.degree == other.degree
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        name = type(self).__name__
        if not self.terms:
            return "%s(0; D=%d)" % (name, self.degree)
        bits = []
        for p in sorted(self.terms, key=lambda p: (len(p.arrows), p.arrows)):
            bits.append("%s·%r" % (self.terms[p], p))
        return "%s(%s; D=%d)" % (name, " + ".join(bits), self.degree)

    # -- serialization -------------------------------------------------

    def to_json_dict(self):
        items = sorted(self.terms.items(), key=lambda pc: (len(pc[0].arrows), pc[0].arrows))
        out = []
        for p, c in items:
            entry = {"coeff": str(c), "path": list(p.arrows)}
            if not p.arrows:
                entry["at"] = p.at
            out.append(entry)
        return {"D": self.degree, "terms": out}

    @classmethod
    def from_json_dict(cls, quiver, data):
        """Load from ``to_json_dict`` output; a term longer than ``D`` is an error."""
        degree = int(data["D"])
        terms = {}
        for entry in data["terms"]:
            p = quiver.path(entry["path"], at=entry.get("at"))
            if len(p.arrows) > degree:
                raise ValueError(
                    "term %r is longer than the truncation degree %d" % (p, degree)
                )
            terms[p] = terms.get(p, 0) + exact_coefficient(entry["coeff"])
        return cls(quiver, degree, terms)


class TruncatedElement(_Graded):
    """A finite rational combination of paths, modulo paths longer than D."""

    __slots__ = ()

    @classmethod
    def from_path(cls, quiver, degree, p, coeff=1):
        return cls(quiver, degree, {p: coeff})

    @classmethod
    def from_arrow(cls, quiver, degree, name, coeff=1):
        return cls.from_path(quiver, degree, quiver.path([name]), coeff)

    def __mul__(self, other):
        """Product in the truncated path algebra (right factor acts first)."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        d = self._coerced(other)
        q = self.quiver
        out = {}
        for p, cp in self.terms.items():
            lp = len(p.arrows)
            tp = q.path_tail(p)
            for r, cr in other.terms.items():
                if lp + len(r.arrows) > d:
                    continue
                if tp != q.path_head(r):
                    continue  # orthogonal idempotents: product is zero
                w = concat(p, r)
                s = out.get(w, 0) + cp * cr
                if s == 0:
                    out.pop(w, None)
                else:
                    out[w] = s
        return TruncatedElement._raw(q, d, out)


class Potential(_Graded):
    """A rational combination of cycles, canonical under rotation.

    Every key is the canonical rotation of its cycle, so two potentials are
    cyclically equivalent exactly when their term dictionaries agree.  The
    constructor canonicalizes each term; sums, negation, scaling and
    truncation only combine keys that are canonical already and build the
    result with ``_raw``.
    """

    __slots__ = ()

    def _check(self, p):
        self.quiver.check_path(p)
        if not self.quiver.is_cycle(p):
            raise ValueError("potential term is not a cycle: %r" % (p,))

    def _key(self, p):
        if not p.arrows:
            raise ValueError("potential term is not a cycle: %r" % (p,))
        return canonicalize_rotation(self.quiver, p)

    @classmethod
    def from_element(cls, x):
        """Reinterpret an element whose support consists of cycles."""
        return cls(x.quiver, x.degree, x.terms)

    def as_element(self):
        return TruncatedElement._raw(self.quiver, self.degree, dict(self.terms))


def is_cyclically_equivalent(a, b):
    """Whether two potentials agree up to rotating their cycles.

    Both arguments must share the quiver and the truncation degree;
    comparing across truncations would silently say nothing about the
    dropped tails, so it is an error.
    """
    if a.quiver != b.quiver:
        raise ValueError("potentials live on different quivers")
    if a.degree != b.degree:
        raise ValueError(
            "truncation mismatch: D=%d vs D=%d" % (a.degree, b.degree)
        )
    return a.terms == b.terms


def cyclic_derivative(pot, arrow_name):
    """The cyclic derivative of a potential with respect to one arrow.

    For each occurrence of the arrow in a cycle, rotate that occurrence to
    the front and delete it; sum over occurrences.  The result lives one
    degree lower than the input (the longest representable cycle loses an
    arrow).
    """
    q = pot.quiver
    a = q.arrow(arrow_name)
    d = max(pot.degree - 1, 0)
    out = {}
    for p, c in pot.terms.items():
        w = p.arrows
        for i, nm in enumerate(w):
            if nm != arrow_name:
                continue
            rest = w[i + 1 :] + w[:i]
            r = Path(rest) if rest else Path((), a.tail)
            s = out.get(r, 0) + c
            if s == 0:
                out.pop(r, None)
            else:
                out[r] = exact_coefficient(s)
    return TruncatedElement._raw(q, d, out)


def enumerate_cycle_classes(quiver, max_length):
    """Canonical representatives of every cycle class up to a length.

    Walks all words in the quiver of length at most ``max_length`` (arrows
    may repeat), keeps the ones that close up into cycles, and collapses
    rotations.  Returned paths are in canonical rotation, sorted by length
    and then by the quiver's arrow order, so the output is deterministic.

    Meant for small quivers and modest lengths; the walk is exponential in
    ``max_length``.
    """
    if max_length < 1:
        raise ValueError("cycle length bound must be at least 1, got %r" % (max_length,))
    seen = set()
    out = []
    arrows = list(quiver.arrows)

    def grow(word):
        if quiver.tail(word[-1]) == quiver.head(word[0]):
            p = canonicalize_rotation(quiver, Path(word))
            if p.arrows not in seen:
                seen.add(p.arrows)
                out.append(p)
        if len(word) == max_length:
            return
        for b in arrows:
            if b.head == quiver.tail(word[-1]):
                grow(word + (b.name,))

    for a in arrows:
        grow((a.name,))
    out.sort(key=lambda p: (len(p), tuple(quiver.rank(n) for n in p.arrows)))
    return out
