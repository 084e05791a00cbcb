"""Truncated Jacobian-algebra dimensions by exact sparse elimination.

The quotient A_{≤D} / (J + 𝔪^{D+1}), J the ideal of the ∂_α(S), is
computed over the rationals.  Paths are indexed in graded-lexicographic
order (longer paths rank higher, ties broken by arrow declaration order
from the left); the index of a path is a sum of per-arrow prefix-table
entries, one per letter, so the full path set is never materialized.
Elimination keeps one pivot row per leading path, with the lead being the
graded-lex greatest path of the row — reductions therefore express long
paths through shorter ones.  The rows close the generators under arrow
multiplication one side at a time: a pivot born from a left shift is
shifted again only on the left, every other pivot on both sides, which
spans the same window with far fewer rows (see _quotient).  A
shifted row is indexed from the row it shifts (see _Shifts): a left shift
b·w ranks in O(1) from w's index and first letter, a right shift w·b is
ranked once per (index, arrow) and remembered.  Each index also keeps its
kill threshold, the least length from which a kill rule it contains
applies (see _Kills); a shifted path tests only the rules that start or
end with the new arrow, so elimination never unranks a row's path.  A
one-term row needs no elimination: it is a new lead unless its path is
killed or a lead already.  A one-term pivot is shifted without building a
row at all: each shift is one index, placed at once, and only a shift onto
a multi-term lead is reduced; a killed left shift of one is not recorded.
Coefficients stay plain ints while integral (``exact_coefficient``).

Finiteness certificate: if at some length L every path of that length
either vanishes by a far-band rule or is a pivot, each of them rewrites
to strictly shorter paths; everything longer collapses inductively in
the complete algebra, so the reported dimension is exact rather than a
truncation artifact.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf

from .path_algebra import Path, cyclic_derivative, exact_coefficient


class _PathIndex:
    """Graded-lex path numbering and counting for a fixed quiver and bound."""

    def __init__(self, quiver, bound):
        self.quiver = quiver
        self.vertex_pos = {v: i for i, v in enumerate(quiver.vertices)}
        into = quiver.arrows_in
        # n_left[v][r] = number of length-r words whose leftmost arrow has head v.
        n_left = self.n_left = {v: [1] + [0] * bound for v in quiver.vertices}
        for r in range(1, bound + 1):
            for v in quiver.vertices:
                n_left[v][r] = sum(n_left[a.tail][r - 1] for a in into[v])
        self.totals = [
            sum(n_left[v][r] for v in quiver.vertices) for r in range(bound + 1)
        ]
        self.offsets = [0]
        for t in self.totals:
            self.offsets.append(self.offsets[-1] + t)
        # below[name][r] / first[name][r]: length-(r+1) words that start with
        # an arrow ranked before `name` in its pool — the arrows into
        # head(name) for a non-first letter, all arrows for the leftmost one.
        # Declaration order is rank order, so every pool is already sorted.
        self.below, self.first = {}, {}
        pools = [(into[v], self.below) for v in quiver.vertices]
        for pool, table in pools + [(quiver.arrows, self.first)]:
            acc = [0] * bound
            for b in pool:
                table[b.name] = acc
                acc = [x + y for x, y in zip(acc, n_left[b.tail])]

    def pid(self, word, at=None):
        """The graded-lex index of a path given as a word (or a vertex)."""
        if not word:
            return self.vertex_pos[at]
        below = self.below
        r = len(word) - 1
        rank = self.offsets[r + 1] + self.first[word[0]][r]
        for nm in word[1:]:
            r -= 1
            rank += below[nm][r]
        return rank

    def left_base(self, pid, word):
        """The index of b·word less ``first[b][len(word)]``, for any arrow b.

        Prefixing b moves the path one length up, turns its first letter
        w0 from a leftmost letter into an inner one and adds b's own entry:
        ``pid − offsets[n] + offsets[n+1] + below[w0][n−1] − first[w0][n−1]``
        for n = len(word) ≥ 1, and offsets[1] for a vertex.
        """
        n = len(word)
        if not n:
            return self.offsets[1]
        w0 = word[0]
        return (pid - self.offsets[n] + self.offsets[n + 1]
                + self.below[w0][n - 1] - self.first[w0][n - 1])

    def length_of(self, pid):
        return bisect_right(self.offsets, pid) - 1

    def unrank(self, pid):
        """The path with the given graded-lex index."""
        if not 0 <= pid < self.offsets[-1]:
            raise IndexError("path index out of range")
        q = self.quiver
        ell = self.length_of(pid)
        r = pid - self.offsets[ell]
        if ell == 0:
            return Path((), q.vertices[r])
        word = []
        pool = q.arrows
        for left in range(ell - 1, -1, -1):
            for b in pool:
                c = self.n_left[b.tail][left]
                if r < c:
                    word.append(b.name)
                    pool = q.arrows_in[b.tail]
                    break
                r -= c
        return Path(tuple(word))


def jacobian_generators(qp):
    """One cyclic derivative per arrow, in arrow declaration order."""
    return [cyclic_derivative(qp.potential, a.name) for a in qp.quiver.arrows]


@dataclass
class TruncatedQuotient:
    """The computed quotient: dimensions, certificate, and reduction access."""

    qp: object
    degree: int
    per_degree: tuple
    dimension: int
    certified: bool
    certificate_length: object
    max_generator_length: int
    rows: int  # rows installed, generators and arrow shifts
    pivots_per_length: tuple
    _index: _PathIndex
    _pivots: dict
    _kills: object

    @cached_property
    def basis(self):
        """The paths that are neither pivot leads nor killed, below the
        certificate length, or in the whole window when uncertified."""
        cutoff = self.certificate_length if self.certified else self.degree + 1
        unrank, killed = self._index.unrank, self._kills.killed_word
        paths = (unrank(pid) for pid in range(self._index.offsets[cutoff]) if pid not in self._pivots)
        return tuple(p for p in paths if not killed(p.arrows))

    def _pid(self, p):
        """The index of a Path or a word, once checked to be a path of the window."""
        p = p if isinstance(p, Path) else Path(tuple(p))
        self.qp.quiver.check_path(p)
        if len(p) > self.degree:
            raise ValueError("path of length %d is beyond degree %d" % (len(p), self.degree))
        return self._index.pid(p.arrows, p.at)

    def reduce_path(self, p):
        """The residue of a path in the quotient, as {Path: coefficient}: a
        combination of paths that are neither pivot leads nor killed, equal
        for congruent paths."""
        row = _residue(self._pivots, {self._pid(p): Fraction(1)}, self._kills)
        return {self._index.unrank(i): c for i, c in row.items()}

    def is_basis_path(self, p):
        pid = self._pid(p)
        return pid not in self._pivots and not self._kills.killed_pid(pid)


class _Kills:
    """Subword vanishing rules for the far band of the window.

    When |p| + |q| is so large that only the shortest term of a generator
    survives truncation, the product p·(generator)·q is a single scaled
    path — so that path is congruent to zero outright.  A rule (word, m)
    records that every path of length at least m containing the word as a
    contiguous subword vanishes.  Keeping these as rules instead of rows
    avoids enumerating the (p, q) pairs of the far band, whose count grows
    exponentially with the degree.
    """

    def __init__(self, index):
        self.index = index
        self.rules = []
        # arrow -> (rest of the word, min_length) of the rules whose word
        # starts with it, and (the word but its last letter, min_length) of
        # those that end with it: what a path can newly contain once that
        # arrow is put on its left or right.
        self.starts, self.ends = {}, {}
        # pid -> killed?  _Shifts fills it for the paths that rows use; a
        # killed left shift of a one-term pivot is dropped unrecorded (see
        # _quotient).  killed_pid falls back to unranking for other indices.
        self.memo = {}

    def add(self, word, min_length):
        word = tuple(word)
        self.rules.append((word, min_length))
        self.starts.setdefault(word[0], []).append((word[1:], min_length))
        self.ends.setdefault(word[-1], []).append((word[:-1], min_length))
        self.memo.clear()

    def threshold(self, word):
        """The least min_length of the rules whose word the path contains:
        the path is killed iff its length reaches it (inf if none applies).
        Each occurrence of a rule is found at its last letter."""
        thr = inf
        for i, b in enumerate(word):
            thr = self.right_threshold(word[:i], b, thr)
        return thr

    def left_threshold(self, b, word, thr):
        """The threshold of b·word, from ``thr``, the threshold of word."""
        for rest, ml in self.starts.get(b, ()):
            if ml < thr and word[:len(rest)] == rest:
                thr = ml
        return thr

    def right_threshold(self, word, b, thr):
        """The threshold of word·b, from ``thr``, the threshold of word."""
        n = len(word)
        for init, ml in self.ends.get(b, ()):
            if ml < thr and len(init) <= n and word[n - len(init):] == init:
                thr = ml
        return thr

    def killed_word(self, word):
        return len(word) >= self.threshold(word)

    def killed_pid(self, pid):
        hit = self.memo.get(pid)
        if hit is None:
            hit = self.killed_word(self.index.unrank(pid).arrows)
            self.memo[pid] = hit
        return hit

    def counts(self, quiver, totals, degree):
        """Number of killed paths per length, by complement counting."""
        out = [0] * (degree + 1)
        if not self.rules:
            return out
        thresholds = sorted({ml for _, ml in self.rules})
        for i, ml in enumerate(thresholds):
            if ml > degree:
                break
            hi = min(degree, thresholds[i + 1] - 1) if i + 1 < len(thresholds) else degree
            active = sorted({w for w, m2 in self.rules if m2 <= ml})
            avoid = _avoid_counts(quiver, active, hi)
            for ell in range(ml, hi + 1):
                out[ell] = totals[ell] - avoid[ell]
        return out


class _Shifts:
    """The paths that rows use, each kept with what shifting it needs.

    ``state[pid]`` is (word, kill threshold, left base).  A shifted path is
    indexed from its source's entry: b·word as base + first[b][len(word)]
    (see _PathIndex.left_base), word·b by ``_PathIndex.pid`` once per
    (pid, b); its threshold follows from the source's by the rules that
    start or end with b (see _Kills), so every kill rule is added before
    the first path.  Each new path's kill status goes to the kill memo, so
    elimination never unranks it.  A one-term pivot is shifted by _quotient
    from its entry alone, without a row: its left shifts by the same
    arithmetic, its right shifts through ``right_of``; a killed left shift
    of one gets no entry.
    """

    def __init__(self, index, kills):
        self.index, self.kills = index, kills
        self.state = {}
        self.rights = {}  # (pid, arrow) -> the index of that path times the arrow on its right

    def _new(self, pid, word, thr):
        self.state[pid] = (word, thr, self.index.left_base(pid, word))
        self.kills.memo[pid] = len(word) >= thr

    def add(self, word, at):
        """The index of the path with this word (or vertex), recorded if new."""
        pid = self.index.pid(word, at)
        if pid not in self.state:
            self._new(pid, word, self.kills.threshold(word))
        return pid

    def left(self, terms, b):
        """Arrow b times the row of (pid, coefficient) terms, on its left."""
        state, first, row = self.state, self.index.first[b], {}
        for pid, c in terms:
            word, thr, base = state[pid]
            new = base + first[len(word)]
            if new not in state:
                self._new(new, (b,) + word, self.kills.left_threshold(b, word, thr))
            row[new] = c
        return row

    def right_of(self, pid, b):
        """The index of the path ``pid`` times arrow b on its right, recorded if new."""
        new = self.rights.get((pid, b))
        if new is None:
            word, thr, _ = self.state[pid]
            longer = word + (b,)
            new = self.rights[pid, b] = self.index.pid(longer)
            if new not in self.state:
                self._new(new, longer, self.kills.right_threshold(word, b, thr))
        return new

    def right(self, terms, b):
        """The row of (pid, coefficient) terms times arrow b, on its right."""
        return {self.right_of(pid, b): c for pid, c in terms}


def _avoid_counts(quiver, words, upto):
    """Paths per length containing none of the given words as subwords.

    Transfer-matrix walk over written words: the state keeps the tail
    vertex (for composability) and the last max(len)−1 symbols (enough to
    detect every occurrence as it completes).
    """
    wordset = {tuple(w) for w in words}
    K = max(len(w) for w in wordset)
    # length -> the words of that length: an occurrence that completes at
    # the new letter is the suffix of that length of the window.
    by_length = {}
    for w in wordset:
        by_length.setdefault(len(w), set()).add(w)
    counts = [0] * (upto + 1)
    counts[0] = len(quiver.vertices)
    if upto == 0:
        return counts
    states = {}
    for a in quiver.arrows:
        if (a.name,) in wordset:
            continue
        win = (a.name,)[1 - K:] if K > 1 else ()
        key = (a.tail, win)
        states[key] = states.get(key, 0) + 1
    counts[1] = sum(states.values())
    for ell in range(2, upto + 1):
        nxt = {}
        for (tail, win), cnt in states.items():
            for b in quiver.arrows_in[tail]:
                ext = win + (b.name,)
                if any(ext[-k:] in ws for k, ws in by_length.items()):
                    continue
                key = (b.tail, ext[1 - K:] if K > 1 else ())
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
        counts[ell] = sum(states.values())
    return counts


def _reduce_against(pivots, row, kills):
    row = dict(row)
    while row:
        lead = max(row)
        if lead in pivots:
            coeff = row.pop(lead)
            for i, c in pivots[lead].items():
                if i == lead:
                    continue
                nxt = row.get(i, 0) - coeff * c
                if nxt:
                    row[i] = nxt
                else:
                    row.pop(i, None)
        elif kills.killed_pid(lead):
            del row[lead]
        else:
            break
    return row


def _residue(pivots, row, kills):
    """The row with every term reduced, in descending order: what is left
    has no pivot lead and no killed path, so congruent rows agree."""
    out = {}
    row = _reduce_against(pivots, row, kills)
    while row:
        lead = max(row)
        out[lead] = row.pop(lead)
        row = _reduce_against(pivots, row, kills)
    return out


def _install(pivots, row, kills):
    """Reduce a row and, if nonzero, install it as a new pivot.  Returns lead or None."""
    if len(row) == 1:
        # A one-term row: a new lead unless its path is killed or a lead
        # already; a one-term pivot there reduces it to zero.
        [lead] = row
        hit = pivots.get(lead)
        if hit is None:
            if kills.killed_pid(lead):
                return None
            pivots[lead] = {lead: 1}
            return lead
        if len(hit) == 1:
            return None
    row = _reduce_against(pivots, row, kills)
    if not row:
        return None
    lead = max(row)
    scale = row[lead]
    if scale != 1:  # a row led by 1 keeps its coefficients, ints included
        inv = 1 / Fraction(scale)
        row = {i: exact_coefficient(c * inv) for i, c in row.items()}
    pivots[lead] = row
    return lead


def quotient_dimension(qp, degree=None):
    """Dimension of the truncated Jacobian quotient, with finiteness certificate.

    At ``degree``, or else at the lowest degree that certifies: with the
    generators derived once and L their largest length, D = L + 2, L + 3, …
    up to ``qp.degree`` are tried in turn.  Returns (TruncatedQuotient,
    certified) for the first D that certifies, or for ``qp.degree``.  A
    certified dimension is exact (see _quotient), whatever D certified it.
    """
    nonzero = [g for g in jacobian_generators(qp) if not g.is_zero]
    maxgen = max((g.max_length() for g in nonzero), default=0)
    degrees = range(min(maxgen + 2, qp.degree), qp.degree + 1) if degree is None else [degree]
    for d in degrees:
        quotient = _quotient(qp, d, nonzero, maxgen)
        if quotient.certified:
            break
    return quotient, quotient.certified


def _quotient(qp, degree, nonzero, maxgen):
    """The quotient at one degree, from the nonzero generators and their largest length.

    The window is the span of all truncations of p·(generator)·q with the
    product of length at most the degree — including pairs (p, q) so long
    that only part of the generator survives, since those truncated
    products still lie in the ideal modulo 𝔪^{D+1}.  Far pairs, where a
    single term survives, become subword vanishing rules (see _Kills).

    The rows are the truncated generators and new pivot rows times one
    composable arrow, truncated.  Every new pivot is shifted by each arrow
    on its left.  A pivot made from a generator or a right shift is also
    shifted on its right; a pivot made from a left shift is not.  Write V
    for the span of the pivots and K for the span of the killed paths.  A
    left-born pivot is Q = trunc(a·P) − Σ cᵢ·Pᵢ − (killed terms), with P and
    every Pᵢ made before Q.  Then trunc(Q·b) = trunc(a·(P·b)) − Σ cᵢ·Pᵢ·b −
    (killed terms).  By induction on creation order, P·b and every Pᵢ·b lie
    in V + K (directly, for a pivot that was shifted on its right); V + K
    is closed under left shifts, because every pivot gets them, so
    a·(P·b) lies in it too.  Truncation commutes with arrow products and
    killed paths stay killed under them, so V + K is closed under arrows on
    both sides: it is the span of all truncated p·(generator)·q, the same
    window as shifting every pivot both ways.  The lead set is an invariant
    of that span under a fixed order, so no result depends on which rows
    built it.

    Certificate: if at some length L every path either vanishes by rule or
    is a pivot lead, then every length-L path is congruent to strictly
    shorter paths.  Longer paths then collapse too — multiply the length-L
    rewritings by arrows and iterate; each round shortens the support and
    pushes the correction terms deeper, so in the complete algebra the
    span of the sub-L basis is everything.  The reported dimension is then
    exact, and slices from L on are reported as zero (they describe the
    full quotient, not the truncation window).  Without such an L the
    dimension only counts what survives below the truncation.
    """
    q = qp.quiver
    if qp.degree < degree:
        raise ValueError(
            "potential is truncated at %d; cannot compute at degree %d"
            % (qp.degree, degree)
        )
    if degree < maxgen + 2:
        raise ValueError(
            "degree %d is below max generator length %d + 2" % (degree, maxgen)
        )
    index = _PathIndex(q, degree)
    kills = _Kills(index)

    for gen in nonzero:
        lengths = sorted({len(t.arrows) for t in gen.terms})
        lmin = lengths[0]
        at_min = [t for t in gen.terms if len(t.arrows) == lmin]
        if len(at_min) == 1 and lmin >= 1:
            # Beyond |p|+|q| = degree − (second length), only the shortest
            # term survives truncation: a single-path row, kept as a rule.
            band_min = lmin if len(lengths) == 1 else degree - lengths[1] + lmin + 1
            if band_min <= degree:
                kills.add(at_min[0].arrows, band_min)

    shifts = _Shifts(index, kills)
    state, memo, right_of = shifts.state, kills.memo, shifts.right_of
    offsets, below, left_threshold = index.offsets, index.below, kills.left_threshold
    heads = {a.name: a.head for a in q.arrows}
    tails = {a.name: a.tail for a in q.arrows}
    lefts_at = {v: [(b.name, index.first[b.name]) for b in q.arrows_out[v]] for v in q.vertices}
    rights_at = {v: [b.name for b in q.arrows_in[v]] for v in q.vertices}
    pivots = {}
    fresh = deque()

    def install(row, left_born):
        """Install a row; queue a new pivot with whether it was born from a left shift."""
        lead = _install(pivots, row, kills)
        if lead is not None:
            fresh.append((lead, left_born))

    for gen in nonzero:
        install({shifts.add(t.arrows, t.at): c for t, c in gen.terms.items()}, False)
    rows = len(nonzero)
    # Close the span under arrows: every new pivot row, shifted once by each
    # composable arrow on the left, and also on the right unless the row was
    # born from a left shift (see the docstring for why that loses nothing).
    # Distinct paths times one arrow are distinct paths, so a shifted row
    # never sums two terms into one index.
    while fresh:
        lead, left_born = fresh.popleft()
        row = pivots[lead]
        word, thr, base = state[lead]  # every term of a row has the lead's endpoints
        n = len(word)
        if word:
            head, tail = heads[word[0]], tails[word[-1]]
        else:
            head = tail = q.vertices[lead]
        lefts = lefts_at[head]
        rights = () if left_born else rights_at[tail]
        if len(row) > 1:
            terms = [(pid, c) for pid, c in row.items() if len(state[pid][0]) < degree]
            if not terms:
                continue
            rows += len(lefts) + len(rights)
            for b, _ in lefts:
                install(shifts.left(terms, b), True)
            for b in rights:
                install(shifts.right(terms, b), False)
            continue
        if n >= degree:
            continue
        # A one-term pivot {w: 1}: each shift is one path, which is a new
        # one-term pivot unless it is killed or a lead already; only a
        # multi-term lead there needs _install to reduce it.  A killed left
        # shift is dropped before it gets a state entry.
        rows += len(lefts) + len(rights)
        for b, first in lefts:
            new = base + first[n]
            if new in pivots:
                if len(pivots[new]) > 1:
                    install({new: 1}, True)
                continue
            entry = state.get(new)
            if entry is None:
                t = left_threshold(b, word, thr)
                if n + 1 >= t:
                    continue
                # _PathIndex.left_base of the new path, whose first letter is b
                state[new] = ((b,) + word, t,
                              new - offsets[n + 1] + offsets[n + 2] + below[b][n] - first[n])
                memo[new] = False
            elif n + 1 >= entry[1]:
                continue
            pivots[new] = {new: 1}
            fresh.append((new, True))
        for b in rights:
            new = right_of(lead, b)
            if new in pivots:
                if len(pivots[new]) > 1:
                    install({new: 1}, False)
            elif n + 1 < state[new][1]:
                pivots[new] = {new: 1}
                fresh.append((new, False))

    pivots_at = [0] * (degree + 1)
    for lead in pivots:
        pivots_at[len(state[lead][0])] += 1
    killed_at = kills.counts(q, index.totals, degree)
    computed = [
        index.totals[l] - pivots_at[l] - killed_at[l] for l in range(degree + 1)
    ]
    if any(c < 0 for c in computed):
        raise RuntimeError("more pivots than paths at some length")

    cert_len = next((l for l in range(1, degree + 1) if computed[l] == 0), None)
    certified = cert_len is not None
    cut = cert_len if certified else degree + 1
    per_degree = tuple(computed[:cut]) + (0,) * (degree + 1 - cut)

    return TruncatedQuotient(
        qp=qp,
        degree=degree,
        per_degree=per_degree,
        dimension=sum(per_degree),
        certified=certified,
        certificate_length=cert_len,
        max_generator_length=maxgen,
        rows=rows,
        pivots_per_length=tuple(pivots_at),
        _index=index,
        _pivots=pivots,
        _kills=kills,
    )


def g_path_independence_check(tq, quotient, n):
    """Are all g-paths shorter than n·m_α − 1 independent in the quotient?

    ``quotient`` is what ``quotient_dimension`` returned for the
    weighted-cycle potential with cycle power n on the once-punctured
    triangulation quiver ``tq``.  Reduces every g-path of length
    < n·m − 1 in it and checks that the residues are linearly independent
    over the rationals.  Raises unless the surface has one puncture and the
    quotient is certified.
    """
    if len(tq.punctures) != 1:
        raise ValueError(
            "the independence check needs exactly one puncture; quiver has %d"
            % len(tq.punctures)
        )
    if quotient.qp.quiver != tq.quiver:
        raise ValueError("the quotient lives on a different quiver")
    if not quotient.certified:
        raise ValueError(
            "finiteness certificate unavailable at degree %d; "
            "cannot decide independence" % quotient.degree
        )
    index, kills = quotient._index, quotient._kills
    m = tq.punctures[0].valency
    paths = dict.fromkeys(
        tq.g_path(r, a.name) for a in tq.quiver.arrows for r in range(n * m - 1)
    )
    # Rank of the residue family must equal its size: each g-path is
    # installed into one copy of the pivots, so a later one is reduced
    # against the quotient and the earlier g-paths together.
    rows = ({index.pid(p.arrows, p.at): Fraction(1)} for p in paths)
    return _rank_modulo(quotient._pivots, rows, kills) == len(paths)


def _rank_modulo(pivots, rows, kills):
    """How many of the rows are independent modulo the pivots and the killed paths."""
    pivots = dict(pivots)
    return sum(
        _install(pivots, _residue(pivots, row, kills), kills) is not None for row in rows
    )
