"""Triangulations of closed punctured surfaces and their quivers.

A triangulation is stored as oriented triangles: triples of arc ids whose
cyclic order is the surface orientation.  Each arc appears on exactly two
triangle sides, the gluing is forced, and punctures fall out as orbits of
the corner-rotation map.  The induced quiver has one vertex per arc and
one arrow per triangle corner; the permutation f cycles the three arrows
of a triangle while g moves an arrow to the other arrow leaving the same
vertex, so g-orbits enumerate the punctures.

Also here: the triangle paths F(r, β), the puncture paths G(r, β), the
potentials built from triangle 3-cycles and puncture cycles, and the
trichotomy that classifies every cycle of such a quiver as a power of a
triangle cycle, a power of a puncture cycle, or a mixed cycle with a
pinch-point decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import eq, or_
from types import MappingProxyType

from .path_algebra import Path, Potential, Quiver, canonicalize_rotation

_POSITION_NAMES = "abc"


class Triangulation:
    """Oriented triangles over a set of arcs; always a closed surface.

    ``triangles[i] = (u, v, w)`` means triangle i has sides u, v, w in
    orientation order.  Self-folded triangles (a repeated arc inside one
    triple) are rejected: the potentials implemented here are only defined
    without them.
    """

    def __init__(self, arcs, triangles, arrow_names=None):
        self.arcs = tuple(arcs)
        if len(set(self.arcs)) != len(self.arcs):
            raise ValueError("duplicate arc ids")
        # Slot bookkeeping: arc -> its two (triangle, position) occurrences.
        slots = {a: [] for a in self.arcs}
        tris = []
        for i, tri in enumerate(triangles):
            tri = tuple(tri)
            if len(tri) != 3:
                raise ValueError("triangle %r does not have three sides" % (tri,))
            if len(set(tri)) != 3:
                raise ValueError("self-folded triangle %r" % (tri,))
            for j, s in enumerate(tri):
                if s not in slots:
                    raise ValueError("triangle side %r is not an arc" % (s,))
                slots[s].append((i, j))
            tris.append(tri)
        if not tris:
            raise ValueError("a triangulation needs at least one triangle")
        self.triangles = tuple(tris)
        bad = [a for a, occ in slots.items() if len(occ) != 2]
        if bad:
            raise ValueError(
                "arcs must appear on exactly two triangle sides; offending: %r" % (bad,)
            )
        if not _connected(self.arcs, self.triangles):
            raise ValueError("triangulation is not connected")
        self._slots = slots
        self.arrow_names = dict(arrow_names) if arrow_names else None

    # -- derived topology ---------------------------------------------

    def corner_orbits(self):
        """Orbits of the corner-rotation map; one orbit per puncture.

        The corner of triangle i at position j sits between the sides at
        positions j and j+1.  Rotating around the puncture continues at
        the other occurrence of the side at position j+1.
        """
        succ = {}
        for i, tri in enumerate(self.triangles):
            for j in range(3):
                nxt_arc = tri[(j + 1) % 3]
                a, b = self._slots[nxt_arc]
                other = b if a == (i, (j + 1) % 3) else a
                succ[(i, j)] = other
        orbits = []
        seen = set()
        for slot in sorted(succ):
            if slot in seen:
                continue
            orbit = []
            cur = slot
            while cur not in seen:
                seen.add(cur)
                orbit.append(cur)
                cur = succ[cur]
            orbits.append(tuple(orbit))
        return orbits

    @property
    def puncture_count(self):
        return len(self.corner_orbits())

    @property
    def genus(self):
        # V - E + F = 2 - 2g with V = punctures, E = arcs, F = triangles.
        chi = self.puncture_count - len(self.arcs) + len(self.triangles)
        if chi % 2 != 0:
            raise ValueError("odd Euler characteristic; data is not a closed surface")
        g = (2 - chi) // 2
        if g < 0:
            raise ValueError("negative genus")
        return g

    def euler_consistent(self):
        return len(self.arcs) == 6 * self.genus - 6 + 3 * self.puncture_count

    # -- comparison ----------------------------------------------------

    def _normal_key(self):
        tris = []
        for tri in self.triangles:
            best = min(range(3), key=lambda r: tri[r:] + tri[:r])
            tris.append(tri[best:] + tri[:best])
        return (frozenset(self.arcs), tuple(sorted(tris)))

    def __eq__(self, other):
        """Equality as labelled triangulations: same arcs, same triangles up to rotation."""
        return isinstance(other, Triangulation) and self._normal_key() == other._normal_key()

    __hash__ = None

    def __repr__(self):
        return "Triangulation(%d arcs, %d triangles, %d punctures)" % (
            len(self.arcs),
            len(self.triangles),
            self.puncture_count,
        )

    def to_json_dict(self):
        return {"arcs": list(self.arcs), "triangles": [list(t) for t in self.triangles]}

    @classmethod
    def from_json_dict(cls, data):
        """Load from ``to_json_dict`` output; ``KeyError`` names every missing key."""
        missing = [k for k in ("arcs", "triangles") if k not in data]
        if missing:
            raise KeyError(*missing)
        return cls(data["arcs"], data["triangles"])


def _connected(arcs, triangles):
    reps = {a: a for a in arcs}

    def find(a):
        while reps[a] != a:
            reps[a] = reps[reps[a]]
            a = reps[a]
        return a

    for tri in triangles:
        r = find(tri[0])
        for s in tri[1:]:
            reps[find(s)] = r
    return len({find(a) for a in arcs}) == 1


def flip(tau, k):
    """Replace arc k by the other diagonal of its quadrilateral.

    The two triangles (k, s1, s2) and (k, s3, s4) become (s2, s3, k) and
    (s4, s1, k); untouched arcs keep their ids and the new diagonal
    inherits the id k.  Arrow names carried by the triangulation stay on
    the corners of every other triangle.  Fails if the result would be
    self-folded, which happens exactly when the two triangles share a
    second side in the gluing position (s2 = s3 or s4 = s1).
    """
    if k not in tau._slots:
        raise ValueError("arc %r does not lie in two distinct triangles" % (k,))
    (i1, j1), (i2, j2) = tau._slots[k]
    t1, t2 = tau.triangles[i1], tau.triangles[i2]
    _, s1, s2 = t1[j1:] + t1[:j1]
    _, s3, s4 = t2[j2:] + t2[:j2]
    if s2 == s3 or s4 == s1:
        raise ValueError(
            "flipping arc %r would create a self-folded triangle "
            "(quadrilateral sides %r)" % (k, (s1, s2, s3, s4))
        )
    tris = list(tau.triangles)
    tris[i1] = (s2, s3, k)
    tris[i2] = (s4, s1, k)
    names = tau.arrow_names and {c: nm for c, nm in tau.arrow_names.items() if c[0] not in (i1, i2)}
    return Triangulation(tau.arcs, tris, names)


# ----------------------------------------------------------------------
# The quiver of a triangulation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PunctureData:
    """One g-orbit: its label, valency, and member arrows in orbit order."""

    pid: str
    valency: int
    arrows: tuple


class TriangulationQuiver:
    """Q(τ) together with the permutations f and g and the puncture data.

    ``corners[(i, j)]`` names the arrow at corner j of triangle i, from
    side j to side j+1.  f turns a corner inside its triangle; g moves it
    to the next corner around its puncture, so the g-orbits are the
    corner orbits of τ, numbered p0, p1, … in that order.
    """

    def __init__(self, tau, quiver, corners):
        self.tau = tau
        self.quiver = quiver
        self.corners = MappingProxyType(dict(corners))
        self.f = {nm: corners[(i, (j + 1) % 3)] for (i, j), nm in corners.items()}
        self.f_inv = {v: k for k, v in self.f.items()}
        self.triangle_index = {nm: i for (i, _), nm in corners.items()}
        punctures = []
        self.g = {}
        self.arrow_puncture = {}
        self.m = {}
        for orbit in tau.corner_orbits():
            names = tuple(corners[c] for c in orbit)
            pid = "p%d" % len(punctures)
            punctures.append(PunctureData(pid, len(names), names))
            for nm, nxt in zip(names, names[1:] + names[:1]):
                self.g[nm] = nxt
                self.arrow_puncture[nm] = pid
                self.m[nm] = len(names)
        self.punctures = tuple(punctures)
        self.g_inv = {v: k for k, v in self.g.items()}
        self._cycle_classes = {}  # classify_cycle's memo: given cycle -> CycleClass
        self._power_tables = {}  # normalize._power_table's memo: degree -> table

    # -- permutations --------------------------------------------------

    def f_of(self, name, power=1):
        return self._iterate(self.f, self.f_inv, name, power)

    def g_of(self, name, power=1):
        return self._iterate(self.g, self.g_inv, name, power)

    @staticmethod
    def _iterate(fwd, bwd, name, power):
        table = fwd if power >= 0 else bwd
        for _ in range(abs(power)):
            name = table[name]
        return name

    def m_of(self, name):
        return self.m[name]

    def puncture_of(self, name):
        return self.arrow_puncture[name]

    def puncture(self, pid):
        for p in self.punctures:
            if p.pid == pid:
                return p
        raise KeyError(pid)

    # -- distinguished paths -------------------------------------------

    def g_path(self, r, beta):
        """G(r, β) = g^{r-1}(β) ··· g(β) β; the lazy path at tail(β) for r = 0."""
        return self._orbit_path(self.g, r, beta)

    def f_path(self, r, beta):
        """F(r, β) = f^{r-1}(β) ··· f(β) β; the lazy path at tail(β) for r = 0."""
        return self._orbit_path(self.f, r, beta)

    def _orbit_path(self, step, r, beta):
        """The orbit word of β under the permutation ``step``, one step per letter."""
        if r < 0:
            raise ValueError("negative path length")
        if r == 0:
            return self.quiver.lazy_path(self.quiver.tail(beta))
        word = [beta]
        for _ in range(r - 1):
            word.append(step[word[-1]])
        word.reverse()
        return Path(tuple(word))

    def puncture_cycle(self, key):
        """𝒢: the full g-cycle around a puncture (by pid or by member arrow)."""
        if isinstance(key, str) and key in self.arrow_puncture:
            beta = key
        else:
            beta = self.puncture(key).arrows[0]
        return self.g_path(self.m[beta], beta)

    def triangle_cycle(self, i):
        """The 3-cycle of triangle i, written f²(α)f(α)α for its first arrow."""
        return self.f_path(3, self.corners[(i, 0)])

    @cached_property
    def conditions(self):
        """The standing conditions' report, computed once per quiver."""
        return check_conditions(self)

    @cached_property
    def triangle_cycles(self):
        """Read-only map: canonical rotation of each triangle 3-cycle -> triangle index."""
        return MappingProxyType({
            canonicalize_rotation(self.quiver, self.triangle_cycle(i)): i
            for i in range(len(self.tau.triangles))
        })

    def __repr__(self):
        return "TriangulationQuiver(%r)" % (self.quiver,)


def build_quiver(tau):
    """The quiver of a triangulation: one arrow per corner, f by triangle rotation.

    Triangle i with sides (u, v, w) contributes arrows u→v, v→w, w→u which
    are named a{i+1}, b{i+1}, c{i+1} unless the triangulation carries its
    builder's names (a map (triangle index, position) -> name).
    """
    arrow_names = tau.arrow_names or {}
    arrows = []
    corners = {}
    for i, tri in enumerate(tau.triangles):
        for j in range(3):
            nm = arrow_names.get((i, j), "%s%d" % (_POSITION_NAMES[j], i + 1))
            corners[(i, j)] = nm
            arrows.append((nm, tri[j], tri[(j + 1) % 3]))
    return TriangulationQuiver(tau, Quiver(tau.arcs, arrows), corners)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def once_punctured_torus():
    """Two triangles glued along all three arcs; one puncture of valency 6."""
    return Triangulation([1, 2, 3], [(1, 2, 3), (1, 2, 3)])


def twice_punctured_genus(g):
    """The two-puncture family: a 4g-gon of spoke triangles.

    Puncture p (the rim) has valency 8g; puncture q (the hub) has valency
    4g.  Arcs 1..2g are the rim edges, each used twice; arcs 2g+1..6g are
    the spokes.  Triangle j has sides (edge_j, spoke_j, spoke_{j-1}) and
    its arrows carry the labels b_j : edge_j → spoke_j,
    a_j : spoke_j → spoke_{j-1}, c_j : spoke_{j-1} → edge_j, so that
    f(b_j) = a_j, f(a_j) = c_j, f(c_j) = b_j.
    """
    if g < 1:
        raise ValueError("positive genus required")
    edge = {}
    for j0 in range(g):
        edge[4 * j0 + 1] = 2 * j0 + 1
        edge[4 * j0 + 2] = 2 * j0 + 2
        edge[4 * j0 + 3] = 2 * j0 + 1
        edge[4 * j0 + 4] = 2 * j0 + 2
    spoke = {j: 2 * g + j for j in range(1, 4 * g + 1)}
    spoke[0] = 6 * g
    triangles = []
    names = {}
    for j in range(1, 4 * g + 1):
        triangles.append((edge[j], spoke[j], spoke[j - 1]))
        names[(j - 1, 0)] = "b%d" % j
        names[(j - 1, 1)] = "a%d" % j
        names[(j - 1, 2)] = "c%d" % j
    return Triangulation(range(1, 6 * g + 1), triangles, arrow_names=names)


# ----------------------------------------------------------------------
# Conditions and potentials
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionsReport:
    """Condition (3): every valency ≥ 4.  Condition (4): no double arrows."""

    valency_ok: bool
    no_double_arrows: bool
    low_valency_punctures: tuple
    double_arrow_pairs: tuple

    @property
    def ok(self):
        return self.valency_ok and self.no_double_arrows


def check_conditions(tq):
    low = tuple(p.pid for p in tq.punctures if p.valency < 4)
    pairs = {}
    for a in tq.quiver.arrows:
        pairs.setdefault((a.tail, a.head), []).append(a.name)
    doubles = tuple(sorted(k for k, v in pairs.items() if len(v) > 1))
    return ConditionsReport(not low, not doubles, low, doubles)


def _require_conditions(tq):
    rep = tq.conditions
    if not rep.ok:
        raise ValueError(
            "quiver violates the standing conditions: low-valency punctures %r, "
            "double arrows %r" % (rep.low_valency_punctures, rep.double_arrow_pairs)
        )
    return rep


def default_degree(max_term_length):
    """Truncation headroom rule: D = 2·(longest term) + 6."""
    return 2 * max_term_length + 6


def potential_T(tq, degree=None):
    """Sum of the triangle 3-cycles, unit coefficients."""
    if degree is None:
        degree = default_degree(3)
    terms = {tq.triangle_cycle(i): Fraction(1) for i in range(len(tq.tau.triangles))}
    return Potential(tq.quiver, degree, terms)


def _coerce_x(tq, x):
    """Accept a scalar, a sequence in puncture order, or a dict by pid."""
    if isinstance(x, dict):
        vals = {p.pid: Fraction(x[p.pid]) for p in tq.punctures}
    elif isinstance(x, (list, tuple)):
        if len(x) != len(tq.punctures):
            raise ValueError(
                "expected %d puncture coefficients, got %d" % (len(tq.punctures), len(x))
            )
        vals = {p.pid: Fraction(c) for p, c in zip(tq.punctures, x)}
    else:
        vals = {p.pid: Fraction(x) for p in tq.punctures}
    for pid, c in vals.items():
        if c == 0:
            raise ValueError("puncture coefficient for %s must be nonzero" % pid)
    return vals


def potential_S(tq, x, degree=None, n=1):
    """S(τ, x, n) = T + Σ_p x_p·𝒢_pⁿ: the triangle 3-cycles plus a weighted
    n-th power of each puncture cycle.

    ``x`` is a scalar, a sequence in puncture order, or a dict by pid.  The
    default degree is ``default_degree`` of the longest term, n times the
    largest valency.
    """
    xs = _coerce_x(tq, x)
    if not isinstance(n, int) or n < 1:
        raise ValueError("the cycle power must be a positive integer, got %r" % (n,))
    longest = max(3, n * max(p.valency for p in tq.punctures))
    if degree is None:
        degree = default_degree(longest)
    elif degree < longest:
        raise ValueError(
            "degree %d is below the longest term of S(τ, x, n), of length %d"
            % (degree, longest)
        )
    cycles = {Path(tq.puncture_cycle(p.pid).arrows * n): xs[p.pid] for p in tq.punctures}
    return potential_T(tq, degree) + Potential(tq.quiver, degree, cycles)


# ----------------------------------------------------------------------
# Cycle trichotomy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CycleClass:
    """Classification of a cycle.

    kind "F": a power of a triangle cycle — ``n`` and ``base`` give the
    power and the first-traversed arrow of the canonical rotation.
    kind "G": a power of a puncture cycle, same fields.
    kind "FG": mixed — rotated to start with an f-step followed by a
    g-step, the cycle reads f²(a)·f(a)·g⁻¹(f(a))·λ′ with ``witness_arrow``
    holding a and ``remainder`` the nonempty tail λ′.
    """

    kind: str
    n: int = 0
    base: str = None
    witness_arrow: str = None
    remainder: Path = None


def _f_steps(tq, word):
    """For each adjacent written pair, whether it is an f-step; every other pair is a g-step."""
    nxt = word[1:] + word[:1]
    f_steps = list(map(eq, word, map(tq.f.__getitem__, nxt)))
    if not all(map(or_, f_steps, map(eq, word, map(tq.g.__getitem__, nxt)))):
        for a, b, is_f in zip(word, nxt, f_steps):
            if not is_f and a != tq.g[b]:
                raise ValueError("not a cycle of this quiver: %r cannot follow %r" % (a, b))
    return f_steps


def classify_cycle(tq, cycle):
    """Sort a cycle into exactly one of the three shapes of the trichotomy.

    The result is remembered per quiver under the cycle as given, so each
    written word is classified once: a ``TriangulationQuiver`` is not
    changed after construction and a ``CycleClass`` is immutable, so a
    stored result is the one a fresh classification of that word would
    return.  A word that fails to classify is not stored.
    """
    _require_conditions(tq)
    cls = tq._cycle_classes.get(cycle)
    if cls is None:
        if not tq.quiver.is_cycle(cycle):
            raise ValueError("not a cycle: %r" % (cycle,))
        canon = canonicalize_rotation(tq.quiver, cycle)
        cls = tq._cycle_classes[cycle] = _classify(tq, canon, cycle)
    return cls


def _classify_key(tq, key):
    """``classify_cycle`` of a potential's key, for a caller that checked the conditions.

    A potential's keys are canonical rotations already, so a key the memo
    lacks is classified without canonicalizing it again.
    """
    cls = tq._cycle_classes.get(key)
    if cls is None:
        cls = tq._cycle_classes[key] = _classify(tq, key, key)
    return cls


def _classify(tq, canon, cycle):
    """The trichotomy worked out from the canonical rotation of ``cycle``, without the memo."""
    word = canon.arrows
    f_steps = _f_steps(tq, word)
    if all(f_steps):
        if len(word) % 3 != 0:
            raise RuntimeError("f-cycle %r is not a power of a triangle cycle" % (cycle,))
        return CycleClass("F", n=len(word) // 3, base=word[-1])
    if not any(f_steps):
        m = tq.m_of(word[-1])
        if len(word) % m != 0:
            raise RuntimeError("g-cycle %r is not a power of a puncture cycle" % (cycle,))
        return CycleClass("G", n=len(word) // m, base=word[-1])
    n = len(word)
    start = next(i for i in range(n) if f_steps[i] and not f_steps[(i + 1) % n])
    rot = word[start:] + word[:start]
    a = tq.f_inv[rot[1]]
    remainder = Path(rot[3:])
    if not remainder.arrows:
        raise ValueError(
            "mixed cycle of length 3 cannot occur without double arrows: %r" % (cycle,)
        )
    if rot[0] != tq.f_of(a, 2) or rot[2] != tq.g_inv[rot[1]]:
        raise RuntimeError("pinch-point rotation of %r is not f²(a)·f(a)·g⁻¹(f(a))" % (cycle,))
    return CycleClass("FG", witness_arrow=a, remainder=remainder)


def fg_witness_cycle(tq, cls):
    """Re-multiply an FG classification back into a cycle path."""
    if cls.kind != "FG":
        raise ValueError("not an FG classification")
    a = cls.witness_arrow
    head = (tq.f_of(a, 2), tq.f_of(a), tq.g_inv[tq.f_of(a)])
    return Path(head + cls.remainder.arrows)
