"""Right-equivalence normalization pipeline for surface potentials.

Every operation here returns the substitutions that realize its claim.
All stages are truncation-exact: nothing of length ≤ D is silently
dropped, and each stage checks its own inequality contract and fails
loudly otherwise.

The stages, in pipeline order: split a potential along the cycle
trichotomy; rescale one arrow per triangle so every triangle 3-cycle has
unit coefficient; trade the f/fg parts for longer terms; iterate that
trade until only powers of puncture cycles remain; walk a single pinched
cycle around its puncture step by step (the ζ moves) and absorb it; and
finally absorb all higher powers of the puncture cycles on the
two-puncture family, leaving the bare weighted-cycle potential.

Each public function applies every factor of its witness exactly once
and compares the result with its claimed output exactly once, up to
cyclic equivalence, just before it returns.  A multi-step witness is its
chain of factors, in application order; a one-step witness (the triangle
rescaling, a lengthening trade, a ζ-step) is one substitution.  No stage
builds a composite.  Nested stages are private generators
(``_normal_form_rounds``, ``_walk``) that yield their factors into the
caller's one stream.  The stream's collector (``endo._limit_factors``)
applies each factor to the carried whole potential — S+V, S+U+W or
T+Z+U — and sends the image back, and each stage reads its next state
off that image and checks its own contract on it.  So the returned chain
is, by construction, the chain that was applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
import warnings

from .endo import REndomorphism, _limit_factors
from .path_algebra import (
    Path,
    Potential,
    TruncatedElement,
    canonicalize_rotation,
    is_cyclically_equivalent,
)
from .surface import (
    _classify_key,
    _coerce_x,
    _require_conditions,
    potential_S,
    potential_T,
)


@dataclass(frozen=True)
class SplitPotential:
    """A potential split along the cycle trichotomy; parts have disjoint support."""

    s_f: Potential
    s_g: Potential
    s_fg: Potential

    def total(self):
        return self.s_f + self.s_g + self.s_fg


def split(tq, pot):
    _require_conditions(tq)
    buckets = {"F": {}, "G": {}, "FG": {}}
    for p, c in pot.terms.items():
        buckets[_classify_key(tq, p).kind][p] = c
    # a potential's keys are canonical and the buckets are disjoint
    return SplitPotential(*(Potential._raw(tq.quiver, pot.degree, t) for t in buckets.values()))


def _check_disjoint_from_triangles(tq, pot, what):
    tri = tq.triangle_cycles
    hits = [p for p in pot.terms if p in tri]
    if hits:
        raise ValueError(
            "%s must be rotationally disjoint from the triangle cycles; "
            "offending terms: %r" % (what, hits)
        )


def normalize_triangle_coefficients(tq, pot):
    """Rescale one arrow per triangle so every triangle 3-cycle gets coefficient 1.

    The substitution divides a chosen arrow of each triangle by that
    triangle's 3-cycle coefficient; it is a (non-unitriangular) diagonal
    automorphism.  Returns it together with the rescaled potential, whose
    non-triangle remainder is rotationally disjoint from the triangle sum.
    """
    _require_conditions(tq)
    q = tq.quiver
    d = pot.degree
    rules = {}
    for cyc, i in tq.triangle_cycles.items():
        z = pot.terms.get(cyc, 0)
        if z == 0:
            raise ValueError(
                "triangle %d (sides %r) has no 3-cycle term; cannot normalize"
                % (i, tq.tau.triangles[i])
            )
        if z == 1:
            continue
        alpha = min(cyc.arrows, key=q.rank)
        rules[alpha] = TruncatedElement.from_arrow(q, d, alpha, Fraction(1, 1) / z)
    phi = REndomorphism(q, d, rules)
    out = phi.apply(pot)
    for cyc, i in tq.triangle_cycles.items():
        if out.terms.get(cyc) != 1:
            raise RuntimeError("triangle %d still lacks unit coefficient" % i)
    return phi, out


def lengthen(tq, symbol, w_pot, a_pot):
    """Trade the chosen part of A (f- or fg-type) for strictly longer terms.

    Returns (φ, B) with φ carrying T+W+A to T+W+B.  For symbol "f" the
    substitution subtracts, from one arrow per triangle, the tails of that
    triangle's cycle-power terms; for "fg" it subtracts ω_a from a, where
    A_fg = Σ f²(a)f(a)ω_a read off each term's pinch-point rotation.
    """
    if symbol not in ("f", "fg"):
        raise ValueError("symbol must be 'f' or 'fg'")
    _require_conditions(tq)
    d = min(w_pot.degree, a_pot.degree)
    w_pot = w_pot.truncate(d)
    a_pot = a_pot.truncate(d)
    _check_disjoint_from_triangles(tq, w_pot, "W")
    _check_disjoint_from_triangles(tq, a_pot, "A")
    parts = split(tq, a_pot)
    phi = _lengthening(tq, symbol, parts, d)
    t_pot = potential_T(tq, d)
    b_pot = phi.apply(t_pot + w_pot + a_pot) - t_pot - w_pot
    _lengthened(tq, symbol, parts, b_pot)
    return phi, b_pot


def _lengthening(tq, symbol, parts, degree):
    """The substitution trading the symbol-part of A for longer terms, read off A's split.

    Checks that its depth is short(A_symbol) − 3.
    """
    q = tq.quiver
    a_phi = parts.s_f if symbol == "f" else parts.s_fg
    if a_phi.is_zero:
        raise ValueError("the %s-part of A is zero; nothing to lengthen" % symbol)
    images = {}  # arrow -> its image's terms: the arrow minus its tails
    for p, z in a_phi.terms.items():
        cls = _classify_key(tq, p)
        if symbol == "f":
            if cls.kind != "F" or cls.n < 2:
                raise RuntimeError("length-3 terms of A would overlap the triangle cycles")
            alpha = min(p.arrows, key=q.rank)
            tail = Path((alpha,) + tq.f_path(3, alpha).arrows * (cls.n - 1))
        else:
            if cls.kind != "FG":
                raise RuntimeError("fg-part term %r is not a mixed cycle" % (p,))
            # The pinch rotation reads f²(a)·f(a)·ω with ω parallel to a;
            # ω starts with the g-step arrow preceding the stored tail.
            alpha = cls.witness_arrow
            tail = Path((tq.g_inv[tq.f_of(alpha)],) + cls.remainder.arrows)
        image = images.setdefault(alpha, {Path((alpha,)): 1})
        image[tail] = image.get(tail, 0) - z
    phi = REndomorphism(
        q, degree, {alpha: TruncatedElement(q, degree, image) for alpha, image in images.items()}
    )
    dep = phi.depth()
    if dep != a_phi.short - 3:
        raise RuntimeError(
            "substitution depth %s disagrees with short(A_%s) - 3 = %d"
            % (dep, symbol, a_phi.short - 3)
        )
    return phi


def _lengthened(tq, symbol, parts, b_pot):
    """Check B against the lengthening contract for A (split as ``parts``); return B's split.

    B is rotationally disjoint from the triangle cycles, its symbol-part
    is strictly longer than A's, and its other parts are no shorter than
    A's or than short(A_symbol) + 1.
    """
    _check_disjoint_from_triangles(tq, b_pot, "B")
    b_parts = split(tq, b_pot)
    short_a_phi = (parts.s_f if symbol == "f" else parts.s_fg).short
    b_phi = b_parts.s_f if symbol == "f" else b_parts.s_fg
    b_nu = b_parts.s_fg if symbol == "f" else b_parts.s_f
    a_nu = parts.s_fg if symbol == "f" else parts.s_f
    checks = [
        b_phi.short > short_a_phi,
        b_parts.s_g.short >= min(parts.s_g.short, short_a_phi + 1),
        b_nu.short >= min(a_nu.short, short_a_phi + 1),
    ]
    if not all(checks):
        raise RuntimeError(
            "lengthening inequalities failed: %r (A parts %s/%s/%s, B parts %s/%s/%s)"
            % (
                checks,
                parts.s_f.short, parts.s_g.short, parts.s_fg.short,
                b_parts.s_f.short, b_parts.s_g.short, b_parts.s_fg.short,
            )
        )
    return b_parts


def _verified(pot, claimed, what):
    """The one exact check of a public call: the carried potential is the claimed output."""
    if not is_cyclically_equivalent(pot, claimed):
        raise RuntimeError("%s failed the exact check" % what)


def _normal_form_rounds(tq, z_pot, u_pot):
    """Yield the lengthening factors of the g-normal form of U; return W.

    The carried potential is T+Z+U on entry and T+Z+W on return: each
    round reads B off it.  Z and U share one degree.  Checks termination,
    two-step growth, that new puncture-power terms come out long enough,
    and that W holds only puncture-cycle powers with short(W) ≥ short(U).
    """
    d = u_pot.degree
    _check_disjoint_from_triangles(tq, z_pot, "Z")
    _check_disjoint_from_triangles(tq, u_pot, "U")
    base = potential_T(tq, d) + z_pot
    first = split(tq, u_pot)
    w = first.s_g
    parts = SplitPotential(first.s_f, Potential.zero(tq.quiver, d), first.s_fg)
    shorts = [min(parts.s_f.short, parts.s_fg.short)]
    rounds = 0
    while not (parts.s_f.is_zero and parts.s_fg.is_zero):
        rounds += 1
        if rounds > 2 * d + 4:
            raise RuntimeError("normal-form loop failed to terminate")
        symbol = "f" if parts.s_f.short <= parts.s_fg.short else "fg"
        pot = yield _lengthening(tq, symbol, parts, d)
        b_parts = _lengthened(tq, symbol, parts, pot - base - w)
        if not b_parts.s_g.is_zero and b_parts.s_g.short < shorts[-1] + 1:
            raise RuntimeError("new puncture-power terms appeared too short")
        w = w + b_parts.s_g
        parts = SplitPotential(b_parts.s_f, parts.s_g, b_parts.s_fg)
        shorts.append(min(parts.s_f.short, parts.s_fg.short))
        if len(shorts) >= 3 and shorts[-1] != inf and shorts[-1] < shorts[-3] + 1:
            raise RuntimeError(
                "two-step growth violated: shorts %r" % (shorts[-3:],)
            )
    final_parts = split(tq, w)
    if not (final_parts.s_f.is_zero and final_parts.s_fg.is_zero):
        raise RuntimeError("normal form retains non-puncture-power terms")
    if w.short < u_pot.short:
        raise RuntimeError("normal form shortened the potential")
    return w


def g_normal_form(tq, z_pot, u_pot):
    """Iterate the lengthening trade until only puncture-cycle powers remain.

    Returns (factors, W): the lengthening substitutions in application
    order, each unitriangular of depth ≥ short(U) − 3, which applied in
    turn carry T+Z+U to T+Z+W, where W involves only positive powers of the
    puncture cycles and short(W) ≥ short(U).  Their composite is
    ``compose_all(factors, quiver, degree)``.  Z rides along untouched as a
    label; its substitution dust is recycled into the loop state.
    """
    _require_conditions(tq)
    d = min(z_pot.degree, u_pot.degree)
    z_pot = z_pot.truncate(d)
    u_pot = u_pot.truncate(d)
    t_pot = potential_T(tq, d)
    factors, pot, w_pot = _limit_factors(
        _normal_form_rounds(tq, z_pot, u_pot), d, t_pot + z_pot + u_pot
    )
    # the composite's depth is at least the least factor depth
    if not u_pot.is_zero and min((f.depth() for f in factors), default=inf) < u_pot.short - 3:
        raise RuntimeError("witness depth below short(U) - 3")
    _verified(pot, t_pot + z_pot + w_pot, "normal-form witness")
    return factors, w_pot


# ----------------------------------------------------------------------
# The ζ machinery: walking a pinched cycle around its puncture
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WData:
    """The data (λ, a, c) of a single-term potential W = λ·f(a)·a·G(t, g^{-t}(a))·c."""

    lam: Fraction
    arrow: str
    c: Path


def w_cycle(tq, t, wd):
    """The cycle path λ is attached to; validates composability."""
    if t < 0:
        raise ValueError("negative g-run length")
    a = wd.arrow
    gpart = tq.g_path(t, tq.g_of(a, -t))
    word = (tq.f_of(a), a) + gpart.arrows + wd.c.arrows
    p = tq.quiver.path(word)
    if not tq.quiver.is_cycle(p):
        raise ValueError("W-data does not close up into a cycle")
    return p


def _w_potential(tq, degree, t, wd):
    return Potential(tq.quiver, degree, {w_cycle(tq, t, wd): Fraction(wd.lam)})


def _check_disjoint_from(base, pot, what):
    hits = [p for p in pot.terms if p in base.terms]
    if hits:
        raise ValueError(
            "%s shares rotation classes with the base potential: %r" % (what, hits)
        )


def _zeta_step(tq, xs, s_pot, m, t, u_pot, wd):
    """ζ, W′-data and W′ of one walk step, after every hypothesis check."""
    q = tq.quiver
    d = u_pot.degree
    if t < 1:
        raise ValueError("the g-run length t must be positive")
    if Fraction(wd.lam) == 0:
        raise ValueError("W must have a nonzero coefficient")
    w_pot = _w_potential(tq, d, t, wd)
    short_w = t + 2 + len(wd.c)
    if u_pot.short < m:
        raise ValueError(
            "hypothesis short(U) >= m fails: %s < %d" % (u_pot.short, m)
        )
    if not 2 * short_w - 3 > m:
        raise ValueError(
            "hypothesis 2·short(W) - 3 > m fails: 2·%d - 3 <= %d" % (short_w, m)
        )
    _check_disjoint_from(s_pot, u_pot, "U")
    _check_disjoint_from(s_pot, w_pot, "W")

    a = wd.arrow
    target = tq.f_of(a, -1)
    corr_word = tq.g_path(t, tq.g_of(a, -t)).arrows + wd.c.arrows
    image = TruncatedElement.from_arrow(q, d, target) - TruncatedElement.from_path(
        q, d, q.path(corr_word), wd.lam
    )
    zeta = REndomorphism(q, d, {target: image})
    if not zeta.is_unitriangular():
        raise ValueError(
            "the step substitution is not unitriangular (depth %s); "
            "short(W) = %d is too small" % (zeta.depth(), short_w)
        )
    if zeta.depth() != short_w - 3:
        raise RuntimeError("unexpected step depth %s" % zeta.depth())

    lam2 = -Fraction(wd.lam) * xs[tq.puncture_of(target)]
    c2 = q.path(wd.c.arrows + tq.g_path(tq.m_of(target) - 2, tq.g_of(target, 2)).arrows)
    if (t - 1) + 2 + len(c2) != tq.m_of(target) - 2 + short_w - 1:
        raise RuntimeError("short(W') does not match the predicted value")
    wd2 = WData(lam2, tq.g_of(a, -1), c2)
    return zeta, wd2, _w_potential(tq, d, t - 1, wd2)


def _step_residual(pot, rest, m):
    """U′: the carried potential ζ(S+U+W) minus S+U+W′, checked to have short(U′) > m."""
    u_prime = pot - rest
    if not u_prime.short > m:
        raise RuntimeError("short(U') = %s is not > m = %d" % (u_prime.short, m))
    return u_prime


def zeta_step(tq, x, m, t, u_pot, wd):
    """One walk step: trade W = λf(a)aG(t,·)c against the base potential.

    Substituting f⁻¹(a) ↦ f⁻¹(a) − λG(t, g^{-t}(a))c cancels W against the
    triangle term of f⁻¹(a) and converts the puncture term it sits on into
    the next cycle W′, one g-step shorter in t but longer overall.  Returns
    (ζ, U′, W′-data): ζ is applied once to S+U+W, U′ is what the image
    holds beyond S+U+W′, and the image is checked to be S+U+U′+W′.
    """
    d = u_pot.degree
    xs = _coerce_x(tq, x)
    s_pot = potential_S(tq, xs, d)
    zeta, wd2, w2_pot = _zeta_step(tq, xs, s_pot, m, t, u_pot, wd)
    pot = zeta.apply(s_pot + u_pot + _w_potential(tq, d, t, wd))
    u_prime = _step_residual(pot, s_pot + u_pot + w2_pot, m)
    _verified(pot, s_pot + u_pot + u_prime + w2_pot, "step identity")
    return zeta, u_prime, wd2


def _walk(tq, xs, s_pot, m, t, u_pot, wd):
    """Yield the ζ-steps around the puncture, then the normal-form factors; return ξ.

    The carried potential is S+U+W on entry and S+U+ξ on return; each
    step reads its U′ off it.
    """
    d = u_pot.degree
    z_sum = Potential.zero(tq.quiver, d)
    w_pot = _w_potential(tq, d, t, wd)
    # Once the walked cycle grows past the truncation degree there is
    # nothing left to trade: the remaining steps are identities.
    while t >= 1 and not w_pot.is_zero:
        u_now = u_pot + z_sum
        zeta, wd, w_pot = _zeta_step(tq, xs, s_pot, m, t, u_now, wd)
        pot = yield zeta
        z_sum = z_sum + _step_residual(pot, s_pot + u_now + w_pot, m)
        t -= 1
    z_pot = (s_pot - potential_T(tq, d)) + u_pot
    xi = yield from _normal_form_rounds(tq, z_pot, z_sum + w_pot)
    if not xi.short > m:
        raise RuntimeError("short(ξ) = %s is not > m = %d" % (xi.short, m))
    return xi


def absorb_cycle(tq, x, m, t, u_pot, wd):
    """Walk W all the way around (t steps) and normalize what accumulates.

    Requires c to be a single arrow so the walk terminates exactly at
    t = 0.  Returns (factors, ξ): the ζ-steps and then the normal-form
    factors, in application order, each unitriangular of depth
    ≥ min(m−3, short(W)−3), which applied in turn carry S+U+W to S+U+ξ,
    with ξ a sum of puncture-cycle powers, short(ξ) > m.  Each factor is
    applied once, to the carried potential.
    """
    if len(wd.c) != 1:
        raise ValueError("absorption needs the closing path c to be a single arrow")
    d = u_pot.degree
    xs = _coerce_x(tq, x)
    s_pot = potential_S(tq, xs, d)
    factors, pot, xi = _limit_factors(
        _walk(tq, xs, s_pot, m, t, u_pot, wd), d, s_pot + u_pot + _w_potential(tq, d, t, wd)
    )
    depth = min((f.depth() for f in factors), default=inf)
    if depth < min(m - 3, t + len(wd.c) - 1):  # short(W) - 3
        raise RuntimeError("absorption witness depth %s below bound" % depth)
    _verified(pot, s_pot + u_pot + xi, "absorption witness")
    return factors, xi


# ----------------------------------------------------------------------
# Absorbing all higher powers of the puncture cycles (two punctures)
# ----------------------------------------------------------------------

def _power_table(tq, degree):
    """Canonical rotation class of each puncture-cycle power up to the degree.

    Built once per quiver and degree: the quiver keeps it.
    """
    table = tq._power_tables.get(degree)
    if table is None:
        table = tq._power_tables[degree] = {}
        for p in tq.punctures:
            word = tq.puncture_cycle(p.pid).arrows
            n = 1
            while n * p.valency <= degree:
                key = canonicalize_rotation(tq.quiver, Path(word * n))
                table[key] = (p.pid, n)
                n += 1
    return table


def decompose_g_powers(tq, pot):
    """Write a potential as Σ λ_{p,n}·𝒢(p)ⁿ, or fail if it has other terms."""
    table = _power_table(tq, pot.degree)
    out = {p.pid: {} for p in tq.punctures}
    for path, coeff in pot.terms.items():
        hit = table.get(path)
        if hit is None:
            raise ValueError("not a sum of puncture-cycle powers: term %r" % (path,))
        pid, n = hit
        out[pid][n] = coeff
    return out


def absorb_g_powers(tq, x, v_pot):
    """Absorb all ≥2-powers of the puncture cycles into the base potential.

    On the two-puncture family, S(τ,x)+V is right-equivalent to S(τ,x) for
    any V made of second and higher powers of the two puncture cycles.
    Alternates the rim and hub punctures (larger valency first): divide the
    lowest surviving power into the base cycle's coefficient, then absorb
    the pinched cycle this creates.

    Returns the witness as its factor chain (υ₁, ζ…, φ…), a tuple in
    application order: applying the factors in turn carries S+V to S, and
    their composite is ``compose_all(factors, quiver, degree)``.  The
    composite is never built.  Each factor is applied once, to the carried
    potential S+V, each stage reads its next state off the result, and
    the final image is compared with S.
    """
    _require_conditions(tq)
    q = tq.quiver
    d = v_pot.degree
    xs = _coerce_x(tq, x)
    if len(tq.punctures) != 2:
        raise ValueError(
            "absorption works on two-puncture quivers; this one has %d punctures"
            % len(tq.punctures)
        )
    order = sorted(tq.punctures, key=lambda p: (-p.valency, p.pid))
    if order[0].valency != 2 * order[1].valency:
        warnings.warn(
            "puncture valencies %r are outside the family the absorption "
            "claim is proved for; proceeding anyway"
            % ([p.valency for p in order],)
        )
    s_pot = potential_S(tq, xs, d)
    powers = decompose_g_powers(tq, v_pot)
    for pid, by_n in powers.items():
        if any(n < 2 for n in by_n):
            raise ValueError(
                "a first power of the %s cycle cannot be absorbed: it would "
                "change the base potential" % pid
            )

    def factor_stream():
        v = v_pot
        rounds = 0
        while not v.is_zero:
            rounds += 1
            if rounds > d:
                raise RuntimeError("absorption failed to terminate")
            m = v.short
            for punc in order:
                by_n = decompose_g_powers(tq, v)[punc.pid]
                if not by_n:
                    continue
                r = min(by_n)
                lam = by_n[r]
                if r < 2:
                    raise RuntimeError("a first power appeared mid-absorption")
                a_p = punc.arrows[0]
                cyc = tq.puncture_cycle(punc.pid).arrows
                tail = Path((a_p,) + cyc * (r - 1))
                image = TruncatedElement.from_arrow(q, d, a_p) - TruncatedElement.from_path(
                    q, d, tail, lam / xs[punc.pid]
                )
                upsilon = REndomorphism(q, d, {a_p: image})
                if upsilon.depth() != punc.valency * (r - 1):
                    raise RuntimeError("unexpected divide-out depth")
                t = punc.valency * (r - 1)
                wd = WData(-lam / xs[punc.pid], a_p, Path((tq.f_of(a_p, 2),)))
                w_pot = _w_potential(tq, d, t, wd)
                pot = yield upsilon
                u_resid = pot - s_pot - w_pot
                if not u_resid.is_zero and u_resid.short < m:
                    raise RuntimeError("divide-out residual came out too short")
                decompose_g_powers(tq, u_resid)  # must stay a sum of powers
                if w_pot.is_zero:
                    v = u_resid
                    continue
                xi = yield from _walk(tq, xs, s_pot, m, t, u_resid, wd)
                v = u_resid + xi
            if not v.is_zero and v.short <= m:
                raise RuntimeError("no progress: short stayed at %s" % v.short)

    factors, pot, _ = _limit_factors(factor_stream(), d, s_pot + v_pot)
    _verified(pot, s_pot, "absorption witness")
    return factors
