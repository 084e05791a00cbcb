"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the same
definitions the package implements, using only primitive quiver data
(arrow tails/heads, declaration ranks) and dict/Fraction arithmetic — no
calls into the code paths under test.  Slow and simple on purpose.
"""

from fractions import Fraction

from qpsurf.path_algebra import Path


# ----------------------------------------------------------------------
# Rotation canonical form
# ----------------------------------------------------------------------

def naive_min_rotation(quiver, p):
    """Try every rotation, keep the one with the smallest rank sequence."""
    w = p.arrows
    n = len(w)
    ranks = tuple(quiver.rank(nm) for nm in w) * 2
    best = min(range(n), key=lambda i: ranks[i : i + n])
    return Path(w[best:] + w[:best])


# ----------------------------------------------------------------------
# Cyclic derivative by the occurrence loop
# ----------------------------------------------------------------------

def derivative_terms(quiver, pot, alpha):
    """∂_alpha as a dict word-tuple -> coefficient.

    For each occurrence of alpha in each cycle: rotate that occurrence to
    the front, delete it, keep the rest.
    """
    out = {}
    for p, z in pot.terms.items():
        w = p.arrows
        for i, nm in enumerate(w):
            if nm != alpha:
                continue
            rest = w[i + 1:] + w[:i]
            out[rest] = out.get(rest, Fraction(0)) + z
    return {w: c for w, c in out.items() if c != 0}


# ----------------------------------------------------------------------
# Dict-level truncated multiplication (oracle for __mul__ and apply)
# ----------------------------------------------------------------------

def naive_multiply(quiver, degree, terms_a, terms_b):
    """Multiply two {word: coeff} dicts with endpoint and length checks."""
    out = {}
    for wa, ca in terms_a.items():
        for wb, cb in terms_b.items():
            if len(wa) + len(wb) > degree:
                continue
            if wa and wb and quiver.tail(wa[-1]) != quiver.head(wb[0]):
                continue
            w = wa + wb
            out[w] = out.get(w, Fraction(0)) + ca * cb
    return {w: c for w, c in out.items() if c != 0}


def naive_apply(phi, x):
    """Apply an endomorphism term by term, arrow by arrow, no shortcuts."""
    q = phi.quiver
    d = min(phi.degree, x.degree)
    out = {}
    for p, c in x.terms.items():
        if len(p.arrows) > d:
            continue
        acc = {(): Fraction(1)}
        for nm in p.arrows:
            img = {r.arrows: cr for r, cr in phi.rule(nm).terms.items()}
            acc = naive_multiply(q, d, acc, img)
        for w, cw in acc.items():
            out[w] = out.get(w, Fraction(0)) + c * cw
    return {w: c for w, c in out.items() if c != 0 and len(w) <= d}


def element_words(el):
    return {p.arrows: c for p, c in el.terms.items()}


def apply_in_turn(factors, pot):
    """The words of a potential with a factor chain applied in turn.

    The exact check a returned chain stands for.  Words are kept in their
    minimal rotation (``naive_min_rotation``), and words of one rotation
    class are merged.  A factor fixes a word that holds none of its rule
    arrows; in any other word it replaces every arrow by its image terms,
    shortest first, letter by letter, dropping a partial word once it and
    one arrow per letter still to come exceed the degree (every image lies
    in the arrow ideal).  Returns {word: coefficient}, comparable with
    ``element_words`` of the claimed output.
    """
    q = pot.quiver
    d = pot.degree

    def merge(pairs):
        out = {}
        for w, c in pairs:
            out[w] = out.get(w, 0) + c
        return {w: c for w, c in out.items() if c != 0}

    words = merge((naive_min_rotation(q, p).arrows, c) for p, c in pot.terms.items())
    for phi in factors:
        d = min(d, phi.degree)
        images = {
            name: sorted(element_words(img).items(), key=lambda rc: len(rc[0]))
            for name, img in phi.rules.items()
        }
        pairs = []
        for word, c in words.items():
            if len(word) > d:
                continue
            if images.keys().isdisjoint(word):
                pairs.append((word, c))
                continue
            acc = {(): c}
            for i, nm in enumerate(word):
                rest = len(word) - i - 1
                nxt = {}
                for w, cw in acc.items():
                    for r, cr in images.get(nm, [((nm,), 1)]):
                        if len(w) + len(r) + rest > d:
                            break
                        nxt[w + r] = nxt.get(w + r, 0) + cw * cr
                acc = nxt
            pairs += ((naive_min_rotation(q, Path(w)).arrows, cw) for w, cw in acc.items())
        words = merge(pairs)
    return words


# ----------------------------------------------------------------------
# Independent cycle trichotomy
# ----------------------------------------------------------------------

def classify_by_steps(tq, cycle):
    """Classify a cycle by the f/g type of each adjacent arrow pair.

    In written order, arrows[i] has tail equal to head(arrows[i+1]), and
    the two arrows out of that vertex are f(arrows[i+1]) and g(arrows[i+1]).
    All steps f means a power of a triangle cycle; all steps g a power of
    a puncture cycle; a mix pins an f-step followed cyclically by a g-step,
    which is the pinch point of an fg-cycle.

    Returns (kind, data): for "F"/"G" the power; for "FG" the list of all
    pinch positions i with step(i) = f and step(i+1) = g.
    """
    w = cycle.arrows
    n = len(w)
    steps = []
    for i in range(n):
        nxt = w[(i + 1) % n]
        if w[i] == tq.f[nxt]:
            steps.append("f")
        elif w[i] == tq.g[nxt]:
            steps.append("g")
        else:
            raise AssertionError(
                "arrow %r is neither f nor g of %r" % (w[i], nxt)
            )
    if all(s == "f" for s in steps):
        assert n % 3 == 0
        return "F", n // 3
    if all(s == "g" for s in steps):
        m = tq.m_of(w[0])
        assert n % m == 0
        return "G", n // m
    pinches = [
        i for i in range(n) if steps[i] == "f" and steps[(i + 1) % n] == "g"
    ]
    assert pinches
    return "FG", pinches


# ----------------------------------------------------------------------
# All cycles up to a length, by direct search
# ----------------------------------------------------------------------

def all_cycle_classes(quiver, max_length):
    """Every rotation class of cycles of length <= max_length, as words."""
    heads = {}
    for a in quiver.arrows:
        heads.setdefault(a.head, []).append(a)
    seen = set()

    def canon(word):
        return min(word[i:] + word[:i] for i in range(len(word)))

    def extend(word, tail_v, head_v, length):
        if tail_v == head_v:
            seen.add(canon(word))
        if length == max_length:
            return
        for a in heads.get(tail_v, []):
            extend(word + (a.name,), a.tail, head_v, length + 1)

    for a in quiver.arrows:
        extend((a.name,), a.tail, a.head, 1)
    return seen


# ----------------------------------------------------------------------
# Punctures by dart rotation
# ----------------------------------------------------------------------

def dart_orbit_valencies(tau):
    """Valencies of the punctures, from triangle darts alone.

    A dart is one side-occurrence (triangle, position).  Pair the two
    darts of each arc, rotate within a triangle, and take orbits of the
    composite; each orbit circles one puncture and its size is the number
    of corners there, i.e. the puncture's valency in the quiver.
    """
    pairing = {}
    occurrences = {}
    for t, tri in enumerate(tau.triangles):
        for i, arc in enumerate(tri):
            occurrences.setdefault(arc, []).append((t, i))
    for arc, occ in occurrences.items():
        assert len(occ) == 2, "arc %r does not appear exactly twice" % (arc,)
        a, b = occ
        pairing[a] = b
        pairing[b] = a

    def step(dart):
        t, i = pairing[dart]
        return (t, (i + 1) % 3)

    seen = set()
    sizes = []
    for t in range(len(tau.triangles)):
        for i in range(3):
            if (t, i) in seen:
                continue
            cur = (t, i)
            size = 0
            while cur not in seen:
                seen.add(cur)
                size += 1
                cur = step(cur)
            sizes.append(size)
    return sorted(sizes)


# ----------------------------------------------------------------------
# Seeded random data for the property tests
# ----------------------------------------------------------------------

_COEFF_POOL = [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
    Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2),
]


def shortest_cycle_length(quiver):
    """Length of the shortest cycle, by breadth-first search; None if acyclic."""
    best = None
    for v in quiver.vertices:
        frontier, seen = {v}, set()
        for length in range(1, len(quiver.vertices) + 1):
            frontier = {a.tail for a in quiver.arrows if a.head in frontier} - seen
            if v in frontier:
                best = length if best is None else min(best, length)
                break
            seen |= frontier
    return best


def random_cycle_word(quiver, rng, max_len=10):
    """A random closed word (arrows may repeat), as a tuple of names.

    Raises ValueError when the quiver has no cycle of length <= max_len.
    """
    shortest = shortest_cycle_length(quiver)
    if shortest is None or shortest > max_len:
        raise ValueError(
            "no cycle of length <= %d (shortest: %s)" % (max_len, shortest)
        )
    arrows = list(quiver.arrows)
    while True:
        a = rng.choice(arrows)
        w = [a.name]
        start = a.head
        closes = []
        for _ in range(max_len - 1):
            if quiver.tail(w[-1]) == start:
                closes.append(len(w))
            opts = [b for b in arrows if b.head == quiver.tail(w[-1])]
            if not opts:
                break
            w.append(rng.choice(opts).name)
        if quiver.tail(w[-1]) == start and len(w) <= max_len:
            closes.append(len(w))
        if closes:
            return tuple(w[: rng.choice(closes)])


def random_element(quiver, degree, rng, nterms=4):
    """A random truncated element built from random composable words."""
    from qpsurf.path_algebra import TruncatedElement

    terms = {}
    arrows = list(quiver.arrows)
    for _ in range(nterms):
        a = rng.choice(arrows)
        w = [a.name]
        for _ in range(rng.randint(0, max(degree - 1, 0))):
            opts = [b for b in arrows if b.head == quiver.tail(w[-1])]
            if not opts:
                break
            w.append(rng.choice(opts).name)
        p = Path(tuple(w))
        terms[p] = terms.get(p, Fraction(0)) + rng.choice(_COEFF_POOL)
    return TruncatedElement(quiver, degree, terms)


def random_potential(quiver, degree, rng, nterms=3, max_len=None):
    """A random potential from random closed words and pool coefficients."""
    from qpsurf.path_algebra import Potential

    terms = {}
    top = min(degree, max_len) if max_len else degree
    for _ in range(nterms):
        w = random_cycle_word(quiver, rng, max_len=top)
        terms[Path(w)] = rng.choice(_COEFF_POOL)
    return Potential(quiver, degree, terms)


def parallel_words(quiver, name, max_len):
    """Words of length 2..max_len sharing the arrow's endpoints."""
    th = quiver.head(name)
    tt = quiver.tail(name)
    out = []
    frontier = [(a.name,) for a in quiver.arrows if a.head == th]
    for length in range(1, max_len + 1):
        nxt = []
        for w in frontier:
            if length >= 2 and quiver.tail(w[-1]) == tt:
                out.append(w)
            for b in quiver.arrows:
                if b.head == quiver.tail(w[-1]):
                    nxt.append(w + (b.name,))
        frontier = nxt
    return out


def random_unitriangular(quiver, degree, rng, nrules=3, max_len=4):
    """A random substitution sending some arrows to arrow + longer stuff."""
    from qpsurf.path_algebra import TruncatedElement
    from qpsurf.endo import REndomorphism

    rules = {}
    names = [a.name for a in quiver.arrows]
    rng.shuffle(names)
    for name in names[:nrules]:
        extras = parallel_words(quiver, name, max_len)
        if not extras:
            continue
        img = TruncatedElement.from_arrow(quiver, degree, name)
        for w in rng.sample(extras, min(len(extras), rng.randint(1, 2))):
            img = img + TruncatedElement.from_path(
                quiver, degree, Path(w), rng.choice(_COEFF_POOL)
            )
        rules[name] = img
    return REndomorphism(quiver, degree, rules)


# ----------------------------------------------------------------------
# Truncated Jacobian quotient by dense-ish exact elimination
# ----------------------------------------------------------------------

def _paths_by_length(quiver, degree):
    out = {0: [((), v) for v in quiver.vertices]}
    frontier = [((a.name,), a.tail, a.head) for a in quiver.arrows]
    heads = {}
    for a in quiver.arrows:
        heads.setdefault(a.head, []).append(a)
    length = 1
    while length <= degree and frontier:
        out[length] = [(w, None) for w, _, _ in frontier]
        nxt = []
        for w, tail_v, head_v in frontier:
            for a in heads.get(tail_v, []):
                nxt.append((w + (a.name,), a.tail, head_v))
        frontier = nxt
        length += 1
    while length <= degree:
        out[length] = []
        length += 1
    return out


def graded_lex_paths(quiver, degree):
    """Every path of length <= degree, in graded-lex order, as Paths.

    Lazy paths come first in vertex order; longer paths follow by length,
    and within a length by the arrow ranks read from the left.
    """
    by_len = _paths_by_length(quiver, degree)
    out = [Path((), v) for _, v in by_len[0]]
    for length in range(1, degree + 1):
        words = sorted(
            (w for w, _ in by_len[length]),
            key=lambda w: [quiver.rank(nm) for nm in w],
        )
        out.extend(Path(w) for w in words)
    return out


def brute_quotient_dims(quiver, pot, degree, generators):
    """Per-length dimensions of the truncated Jacobian quotient.

    Builds every row p·gen·q (as a truncated product, so overlong terms of
    a generator simply drop out), eliminates with longest-lead pivoting,
    and counts surviving paths per length.  A path is keyed by (word,
    vertex) as in ``_paths_by_length``, so lazy paths stay apart.
    Exponential in the degree; keep the degree small.
    """
    by_len = _paths_by_length(quiver, degree)
    ranked = {(p.arrows, p.at): i for i, p in enumerate(graded_lex_paths(quiver, degree))}

    def key_of(path):
        return ranked[path]

    words = {length: [w for w, _ in entries if w] for length, entries in by_len.items()}
    words[0] = [()]

    def ends(word, at):
        return (quiver.head(word[0]), quiver.tail(word[-1])) if word else (at, at)

    rows = []
    for gen in generators:
        gen_terms = [(p.arrows, p.at, c) + ends(p.arrows, p.at) for p, c in gen.terms.items()]
        if not gen_terms:
            continue
        gmin = min(len(t[0]) for t in gen_terms)
        for la in range(degree - gmin + 1):
            for wa in words.get(la, []):
                for lb in range(degree - gmin - la + 1):
                    for wb in words.get(lb, []):
                        row = {}
                        for gw, gat, gc, ghead, gtail in gen_terms:
                            if la + len(gw) + lb > degree:
                                continue
                            if wa and quiver.tail(wa[-1]) != ghead:
                                continue
                            if wb and gtail != quiver.head(wb[0]):
                                continue
                            word = wa + gw + wb
                            key = (word, None if word else gat)
                            row[key] = row.get(key, Fraction(0)) + gc
                        row = {w: c for w, c in row.items() if c != 0}
                        if row:
                            rows.append(row)

    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row, key=key_of)
            piv = pivots.get(lead)
            if piv is None:
                inv = Fraction(1) / row[lead]
                pivots[lead] = {w: c * inv for w, c in row.items()}
                break
            factor = row[lead]
            for w, c in piv.items():
                s = row.get(w, Fraction(0)) - factor * c
                if s == 0:
                    row.pop(w, None)
                else:
                    row[w] = s

    dims = []
    for length in range(degree + 1):
        total = len(by_len[length])
        leads = sum(1 for w, _ in pivots if len(w) == length)
        dims.append(total - leads)
    return dims


def killed_by_rules(word, rules):
    """Whether the path has, as a contiguous subword, the word of a
    (word, min_length) kill rule whose min_length it reaches."""
    n = len(word)
    return any(
        n >= ml and any(word[i:i + len(w)] == w for i in range(n - len(w) + 1))
        for w, ml in rules
    )
