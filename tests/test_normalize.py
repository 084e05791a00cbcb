"""The normalization pipeline: trichotomy split, triangle rescaling, the
lengthening trade, the g-normal form loop, single ζ steps, and the two
absorption routines.  Each public call applies every factor of its
witness once, to the carried potential, and compares the result with its
claimed output once; the tests here check every returned witness again
by applying its factors to the input in turn."""

import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qpsurf import cli, normalize
from qpsurf.cli import random_cycle_potential
from qpsurf.endo import REndomorphism, compose_all
from qpsurf.normalize import (
    WData,
    absorb_cycle,
    absorb_g_powers,
    decompose_g_powers,
    g_normal_form,
    lengthen,
    normalize_triangle_coefficients,
    split,
    w_cycle,
    zeta_step,
)
from qpsurf.path_algebra import (
    Path,
    Potential,
    TruncatedElement,
    is_cyclically_equivalent,
    enumerate_cycle_classes,
)
from qpsurf.surface import potential_S, potential_T


def fig_random_potential(tq, degree, rng, lengths=(4, 8)):
    """A random potential avoiding the triangle rotation classes."""
    pool = [
        p
        for p in enumerate_cycle_classes(tq.quiver, lengths[1])
        if lengths[0] <= len(p.arrows)
    ]
    picks = rng.sample(pool, rng.randint(1, 3))
    coeffs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)]
    return Potential(tq.quiver, degree, {p: rng.choice(coeffs) for p in picks})


class TestSplit:
    def test_round_trips_and_disjoint_supports(self, fig_tq):
        rng = random.Random(701)
        for _ in range(200):
            pot = fig_random_potential(fig_tq, 14, rng, lengths=(3, 8))
            parts = split(fig_tq, pot)
            assert parts.total() == pot
            supports = [set(parts.s_f.terms), set(parts.s_g.terms), set(parts.s_fg.terms)]
            assert not (supports[0] & supports[1])
            assert not (supports[0] & supports[2])
            assert not (supports[1] & supports[2])
            for part, kind in (
                (parts.s_f, "F"),
                (parts.s_g, "G"),
                (parts.s_fg, "FG"),
            ):
                for p in part.terms:
                    assert oracles.classify_by_steps(fig_tq, p)[0] == kind

    def test_weighted_potential_splits_cleanly(self, fig_tq):
        pot = potential_S(fig_tq, (2, 3))
        parts = split(fig_tq, pot)
        assert parts.s_f == potential_T(fig_tq, pot.degree)
        assert parts.s_g == pot - parts.s_f
        assert parts.s_fg.is_zero

    def test_conditions_are_required(self, torus_tq):
        with pytest.raises(ValueError, match="standing conditions"):
            split(torus_tq, potential_T(torus_tq))


class TestTriangleNormalization:
    def test_rescales_to_unit_coefficients(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(702)
        terms = {
            fig_tq.triangle_cycle(i): rng.choice([Fraction(2), Fraction(-1, 3), Fraction(5)])
            for i in range(4)
        }
        extra = fig_tq.puncture_cycle("p1")
        terms[extra] = Fraction(7)
        pot = Potential(q, 14, terms)
        phi, out = normalize_triangle_coefficients(fig_tq, pot)
        for i in range(4):
            assert out.coefficient(fig_tq.triangle_cycle(i)) == 1
        assert phi.apply(pot) == out
        assert phi.is_automorphism()

    def test_identity_when_already_unit(self, fig_tq):
        pot = potential_S(fig_tq, (1, 1))
        phi, out = normalize_triangle_coefficients(fig_tq, pot)
        assert phi.is_identity
        assert out == pot

    def test_missing_triangle_term_is_an_error(self, fig_tq):
        pot = Potential(fig_tq.quiver, 12, {fig_tq.triangle_cycle(0): 1})
        with pytest.raises(ValueError, match="no 3-cycle term"):
            normalize_triangle_coefficients(fig_tq, pot)


class TestLengthen:
    def test_f_trade_on_a_squared_triangle(self, fig_tq):
        q = fig_tq.quiver
        d = 20
        tri2 = Path(fig_tq.triangle_cycle(0).arrows * 2)
        a_pot = Potential(q, d, {tri2: Fraction(1, 2)})
        w_pot = Potential.zero(q, d)
        phi, b_pot = lengthen(fig_tq, "f", w_pot, a_pot)
        t_pot = potential_T(fig_tq, d)
        assert is_cyclically_equivalent(phi.apply(t_pot + a_pot), t_pot + b_pot)
        parts = split(fig_tq, b_pot)
        # the length-6 f-part is gone for good, replaced by longer terms
        assert parts.s_f.short > 6
        assert b_pot.short >= 7
        assert phi.depth() == 3

    def test_fg_trade_on_a_pinched_cycle(self, fig_tq):
        q = fig_tq.quiver
        d = 18
        pinched = Path(("b1", "c1", "b4", "c2"))
        a_pot = Potential(q, d, {pinched: Fraction(1)})
        phi, b_pot = lengthen(fig_tq, "fg", Potential.zero(q, d), a_pot)
        t_pot = potential_T(fig_tq, d)
        assert is_cyclically_equivalent(phi.apply(t_pot + a_pot), t_pot + b_pot)
        assert b_pot.short >= 5
        assert split(fig_tq, b_pot).s_fg.short > 4
        assert phi.depth() == 1

    def test_missing_part_is_an_error(self, fig_tq):
        q = fig_tq.quiver
        d = 16
        hub2 = Path(fig_tq.puncture_cycle("p1").arrows * 2)
        g_only = Potential(q, d, {hub2: 1})
        with pytest.raises(ValueError, match="nothing to lengthen"):
            lengthen(fig_tq, "f", Potential.zero(q, d), g_only)
        with pytest.raises(ValueError):
            lengthen(fig_tq, "squares", Potential.zero(q, d), g_only)

    def test_triangle_overlap_is_an_error(self, fig_tq):
        q = fig_tq.quiver
        d = 16
        bad = Potential(q, d, {fig_tq.triangle_cycle(1): 1})
        with pytest.raises(ValueError, match="rotationally disjoint"):
            lengthen(fig_tq, "f", Potential.zero(q, d), bad)


def depths(factors, quiver, degree):
    """(depth of the composite, least depth of a factor) of a factor chain."""
    least = min((phi.depth() for phi in factors), default=float("inf"))
    return compose_all(factors, quiver, degree).depth(), least


class TestGNormalForm:
    def test_squared_triangle_lands_on_puncture_powers(self, fig_tq):
        q = fig_tq.quiver
        d = 20
        u_pot = Potential(q, d, {Path(fig_tq.triangle_cycle(0).arrows * 2): 1})
        factors, w_pot = g_normal_form(fig_tq, Potential.zero(q, d), u_pot)
        t_pot = potential_T(fig_tq, d)
        assert oracles.apply_in_turn(factors, t_pot + u_pot) == oracles.element_words(t_pot + w_pot)
        parts = split(fig_tq, w_pot)
        assert parts.s_f.is_zero and parts.s_fg.is_zero
        assert w_pot.is_zero or w_pot.short >= 6
        whole, least = depths(factors, q, d)
        assert whole >= least >= u_pot.short - 3

    def test_random_inputs(self, fig_tq):
        rng = random.Random(703)
        q = fig_tq.quiver
        d = 16
        for _ in range(8):
            u_pot = fig_random_potential(fig_tq, d, rng, lengths=(4, 6))
            factors, w_pot = g_normal_form(fig_tq, Potential.zero(q, d), u_pot)
            t_pot = potential_T(fig_tq, d)
            assert oracles.apply_in_turn(factors, t_pot + u_pot) == oracles.element_words(t_pot + w_pot)
            assert w_pot.is_zero or w_pot.short >= u_pot.short
            assert split(fig_tq, w_pot).s_f.is_zero
            whole, least = depths(factors, q, d)
            assert whole >= least >= u_pot.short - 3

    def test_g_only_input_is_a_fixed_point(self, fig_tq):
        q = fig_tq.quiver
        d = 16
        u_pot = Potential(q, d, {Path(fig_tq.puncture_cycle("p1").arrows * 2): 5})
        factors, w_pot = g_normal_form(fig_tq, Potential.zero(q, d), u_pot)
        assert factors == ()
        assert w_pot == u_pot

    def test_zero_input(self, fig_tq):
        q = fig_tq.quiver
        zero = Potential.zero(q, 14)
        factors, w_pot = g_normal_form(fig_tq, zero, zero)
        assert factors == ()
        assert w_pot.is_zero


def torus_walk_data(tq, lam=Fraction(1)):
    """W-data for one pinched cycle around the torus puncture: t = 3,
    closing arrow f²(a1) = c1, so the cycle is (b1 a1 c2 b1 a2 c1)."""
    return 3, WData(lam, "a1", Path(("c1",)))


class TestZetaStep:
    def test_single_step_on_the_torus(self, torus_tq):
        # the step machinery must not insist on the no-double-arrow
        # condition: its own unitriangularity check does the gating
        q = torus_tq.quiver
        d = 24
        x = Fraction(2)
        t, wd = torus_walk_data(torus_tq)
        u_pot = Potential.zero(q, d)
        zeta, u_prime, wd2 = zeta_step(torus_tq, x, 6, t, u_pot, wd)
        assert wd2.lam == -wd.lam * x
        assert wd2.arrow == torus_tq.g_of("a1", -1) == "c2"
        assert zeta.is_unitriangular()
        assert zeta.depth() == (t + 2 + 1) - 3
        # the new cycle is one g-step shorter in t, longer overall
        assert len(w_cycle(torus_tq, t - 1, wd2)) == 6 - 2 + 6 - 1
        s_pot = potential_S(torus_tq, x, d)
        w_pot = Potential(q, d, {w_cycle(torus_tq, t, wd): wd.lam})
        w2_pot = Potential(q, d, {w_cycle(torus_tq, t - 1, wd2): wd2.lam})
        assert is_cyclically_equivalent(
            zeta.apply(s_pot + u_pot + w_pot), s_pot + u_pot + u_prime + w2_pot
        )
        assert u_prime.short > 6

    def test_hypothesis_guards(self, torus_tq):
        q = torus_tq.quiver
        d = 24
        t, wd = torus_walk_data(torus_tq)
        zero = Potential.zero(q, d)
        with pytest.raises(ValueError, match="t must be positive"):
            zeta_step(torus_tq, 1, 6, 0, zero, wd)
        with pytest.raises(ValueError, match="nonzero"):
            zeta_step(torus_tq, 1, 6, t, zero, WData(Fraction(0), "a1", Path(("c1",))))
        with pytest.raises(ValueError, match="2·short"):
            zeta_step(torus_tq, 1, 9, t, zero, wd)
        mixed3 = Potential(q, d, {Path(("a1", "c1", "b2")): 1})
        with pytest.raises(ValueError, match="short\\(U\\) >= m"):
            zeta_step(torus_tq, 1, 6, t, mixed3, wd)
        overlap = Potential(q, d, {torus_tq.triangle_cycle(0): 1})
        with pytest.raises(ValueError, match="shares rotation classes"):
            zeta_step(torus_tq, 1, 3, t, overlap, wd)

    def test_too_short_cycle_is_not_unitriangular(self, torus_tq):
        q = torus_tq.quiver
        wd = WData(Fraction(1), "a1", q.lazy_path(3))
        assert len(w_cycle(torus_tq, 1, wd)) == 3
        with pytest.raises(ValueError, match="not unitriangular"):
            zeta_step(torus_tq, 1, 2, 1, Potential.zero(q, 20), wd)

    def test_w_cycle_validates(self, torus_tq):
        with pytest.raises(ValueError):
            w_cycle(torus_tq, -1, WData(Fraction(1), "a1", Path(("c1",))))
        with pytest.raises(ValueError):
            # b1 does not close the cycle back to head(f(a1))
            w_cycle(torus_tq, 3, WData(Fraction(1), "a1", Path(("b1",))))


class TestAbsorbCycle:
    def test_full_walk_around_the_hub(self, fig_tq):
        q = fig_tq.quiver
        d = 40
        xs = (Fraction(1), Fraction(1))
        # the cycle created by dividing 𝒢(hub)² out of the base potential
        t = 4
        wd = WData(Fraction(-1), "a1", Path((fig_tq.f_of("a1", 2),)))
        u_pot = Potential.zero(q, d)
        factors, xi = absorb_cycle(fig_tq, xs, 8, t, u_pot, wd)
        s_pot = potential_S(fig_tq, xs, d)
        w0 = Potential(q, d, {w_cycle(fig_tq, t, wd): wd.lam})
        assert oracles.apply_in_turn(factors, s_pot + w0) == oracles.element_words(s_pot + xi)
        assert xi.short > 8
        decompose_g_powers(fig_tq, xi)  # puncture-cycle powers only
        whole, least = depths(factors, q, d)
        assert whole >= least >= min(8 - 3, (t + 2 + 1) - 3)

    def test_closing_path_must_be_one_arrow(self, fig_tq):
        q = fig_tq.quiver
        wd = WData(Fraction(1), "a1", Path(("b1", "c1")))
        with pytest.raises(ValueError, match="single arrow"):
            absorb_cycle(fig_tq, (1, 1), 6, 4, Potential.zero(q, 20), wd)


class TestAbsorbGPowers:
    def test_zero_is_absorbed_by_the_identity(self, fig_tq):
        assert absorb_g_powers(fig_tq, (1, 1), Potential.zero(fig_tq.quiver, 20)) == ()

    def test_hub_square(self, fig_tq):
        q = fig_tq.quiver
        d = 30
        v_pot = Potential(q, d, {Path(fig_tq.puncture_cycle("p1").arrows * 2): 1})
        factors = absorb_g_powers(fig_tq, (1, 1), v_pot)
        s_pot = potential_S(fig_tq, (1, 1), d)
        out = s_pot + v_pot
        for phi in factors:
            assert phi.depth() >= 1
            out = phi.apply(out)
        assert is_cyclically_equivalent(out, s_pot)

    def test_first_powers_are_rejected(self, fig_tq):
        q = fig_tq.quiver
        v_pot = Potential(q, 20, {fig_tq.puncture_cycle("p1"): 1})
        with pytest.raises(ValueError, match="first power"):
            absorb_g_powers(fig_tq, (1, 1), v_pot)

    def test_non_power_terms_are_rejected(self, fig_tq):
        q = fig_tq.quiver
        v_pot = Potential(q, 20, {Path(fig_tq.triangle_cycle(0).arrows * 2): 1})
        with pytest.raises(ValueError, match="not a sum"):
            absorb_g_powers(fig_tq, (1, 1), v_pot)

    def test_conditions_are_required(self, torus_tq):
        with pytest.raises(ValueError, match="standing conditions"):
            absorb_g_powers(torus_tq, 1, Potential.zero(torus_tq.quiver, 20))


def one_check_inputs(tq):
    """The chain-returning calls of ``TestOneExactCheck``, each returning its factors."""
    q = tq.quiver
    hub2 = Path(tq.puncture_cycle("p1").arrows * 2)
    tri2 = Path(tq.triangle_cycle(0).arrows * 2)
    wd = WData(Fraction(-1), "a1", Path((tq.f_of("a1", 2),)))
    return {
        "absorb_g_powers": lambda: absorb_g_powers(tq, (1, 1), Potential(q, 24, {hub2: 1})),
        "absorb_cycle": lambda: absorb_cycle(tq, (1, 1), 8, 4, Potential.zero(q, 24), wd)[0],
        "g_normal_form": lambda: g_normal_form(
            tq, Potential.zero(q, 20), Potential(q, 20, {tri2: 1})
        )[0],
    }


class TestOneExactCheck:
    """Each public call applies each factor once and compares once; nested stages never do."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        equivalent = normalize.is_cyclically_equivalent

        def counted(a, b):
            calls.append(1)
            return equivalent(a, b)

        monkeypatch.setattr(normalize, "is_cyclically_equivalent", counted)
        return calls

    @pytest.fixture
    def corrupt_lengthen(self, monkeypatch):
        """Double the corrections of every lengthening factor the stream yields.

        The stream applies the corrupted factor to the carried potential,
        so the B it reads off is wrong and a lengthening check must fire.
        """
        calls = []
        honest = normalize._lengthening

        def corrupted(tq, symbol, parts, degree):
            phi = honest(tq, symbol, parts, degree)
            calls.append(1)
            rules = {
                name: img + img - TruncatedElement.from_arrow(phi.quiver, phi.degree, name)
                for name, img in phi.rules.items()
            }
            return REndomorphism(phi.quiver, phi.degree, rules)

        monkeypatch.setattr(normalize, "_lengthening", corrupted)
        return calls

    @pytest.mark.parametrize("call", ["absorb_g_powers", "absorb_cycle", "g_normal_form"])
    def test_each_factor_is_applied_once(self, fig_tq, applied, call):
        factors = one_check_inputs(fig_tq)[call]()
        assert factors
        assert [id(phi) for phi in applied] == [id(phi) for phi in factors]

    def test_absorb_g_powers(self, fig_tq, checks):
        one_check_inputs(fig_tq)["absorb_g_powers"]()
        assert len(checks) == 1

    def test_absorb_cycle(self, fig_tq, checks):
        one_check_inputs(fig_tq)["absorb_cycle"]()
        assert len(checks) == 1

    def test_g_normal_form(self, fig_tq, checks):
        one_check_inputs(fig_tq)["g_normal_form"]()
        assert len(checks) == 1

    def test_zeta_step(self, torus_tq, checks):
        t, wd = torus_walk_data(torus_tq)
        zeta_step(torus_tq, 2, 6, t, Potential.zero(torus_tq.quiver, 24), wd)
        assert len(checks) == 1

    def test_corrupt_lengthening_fails_absorption(self, fig_tq, corrupt_lengthen):
        with pytest.raises(RuntimeError, match="lengthening inequalities"):
            one_check_inputs(fig_tq)["absorb_g_powers"]()
        assert corrupt_lengthen

    def test_corrupt_lengthening_fails_normal_form(self, fig_tq, corrupt_lengthen):
        with pytest.raises(RuntimeError, match="lengthening inequalities"):
            one_check_inputs(fig_tq)["g_normal_form"]()
        assert corrupt_lengthen


def power_sums(tq, degree):
    """A strategy for sums of second and higher puncture-cycle powers up to the degree."""
    powers = [
        Path(tq.puncture_cycle(p.pid).arrows * n)
        for p in tq.punctures
        for n in range(2, degree // p.valency + 1)
    ]
    coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)])
    return st.dictionaries(st.sampled_from(powers), coeffs, min_size=1, max_size=3).map(
        lambda terms: Potential(tq.quiver, degree, terms)
    )


class TestChainsApplyToTheirClaims:
    """The returned factors, applied in turn to the input by the naive oracle,
    give the claimed output."""

    @pytest.mark.parametrize("genus", [1, 2])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_absorb_g_powers(self, fig_tq, fig_g2_tq, genus, data):
        tq = fig_tq if genus == 1 else fig_g2_tq
        d = data.draw(st.integers(16, 28), label="D")
        x = data.draw(st.sampled_from([(1, 1), (2, -1), (Fraction(1, 2), 3)]), label="x")
        v_pot = data.draw(power_sums(tq, d), label="V")
        factors = absorb_g_powers(tq, x, v_pot)
        assert all(phi.depth() < phi.degree == d for phi in factors)
        s_pot = potential_S(tq, x, d)
        assert oracles.apply_in_turn(factors, s_pot + v_pot) == oracles.element_words(s_pot)

    @settings(max_examples=8, deadline=None)
    @given(d=st.integers(16, 28), seed=st.integers(0, 10**6), with_z=st.booleans())
    def test_g_normal_form(self, fig_tq, d, seed, with_z):
        q = fig_tq.quiver
        u_pot = random_cycle_potential(fig_tq, d, random.Random(seed))
        z_pot = potential_S(fig_tq, (2, -1), d) - potential_T(fig_tq, d) if with_z else Potential.zero(q, d)
        factors, w_pot = g_normal_form(fig_tq, z_pot, u_pot)
        assert all(phi.depth() < phi.degree == d for phi in factors)
        t_pot = potential_T(fig_tq, d)
        assert oracles.apply_in_turn(factors, t_pot + z_pot + u_pot) == oracles.element_words(
            t_pot + z_pot + w_pot
        )


class TestDecomposeGPowers:
    def test_reads_off_powers(self, fig_tq):
        q = fig_tq.quiver
        rim = fig_tq.puncture_cycle("p0").arrows
        hub = fig_tq.puncture_cycle("p1").arrows
        pot = Potential(
            q, 24, {Path(rim * 2): Fraction(1), Path(hub * 3): Fraction(3)}
        )
        got = decompose_g_powers(fig_tq, pot)
        assert got == {"p0": {2: Fraction(1)}, "p1": {3: Fraction(3)}}

    def test_base_potential_minus_triangles(self, fig_tq):
        pot = potential_S(fig_tq, (5, 7)) - potential_T(
            fig_tq, potential_S(fig_tq, (5, 7)).degree
        )
        got = decompose_g_powers(fig_tq, pot)
        assert got == {"p0": {1: Fraction(5)}, "p1": {1: Fraction(7)}}

    def test_rejects_other_cycles(self, fig_tq):
        pot = Potential(fig_tq.quiver, 12, {fig_tq.triangle_cycle(0): 1})
        with pytest.raises(ValueError, match="not a sum"):
            decompose_g_powers(fig_tq, pot)

    def test_torus_outside_the_standing_conditions(self, torus_tq):
        # the reading needs only the g-orbits, not the standing conditions
        pot = potential_S(torus_tq, 2, n=2)
        got = decompose_g_powers(torus_tq, pot - potential_T(torus_tq, pot.degree))
        assert got == {"p0": {2: 2}}
        tri = Potential(torus_tq.quiver, pot.degree, {torus_tq.triangle_cycle(0): 1})
        with pytest.raises(ValueError, match="not a sum"):
            decompose_g_powers(torus_tq, tri)


STORED_INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"


class TestFactorDepthsStayBelowTheDegree:
    """Every factor a stage returns has depth below the degree: each stage
    raises before it would yield a deeper one, so its factor stream always
    runs to its end."""

    @pytest.mark.parametrize("name", ["absorb_genus2p1_d32.json",
                                      "normalize_genus2p1_seed5_d12.json"])
    def test_stored_inputs(self, monkeypatch, name):
        argv = json.loads((STORED_INPUTS / name).read_text())["inputs"]["argv"]
        d = int(argv[argv.index("--degree") + 1])
        chains = []

        def recording(real, chain_of):
            def call(*args):
                out = real(*args)
                chains.append(chain_of(out))
                return out
            return call

        monkeypatch.setattr(cli, "g_normal_form", recording(cli.g_normal_form, lambda out: out[0]))
        monkeypatch.setattr(cli, "absorb_g_powers", recording(cli.absorb_g_powers, lambda out: out))
        assert cli.run_command(argv).outcome == "PASS"
        assert chains and all(chains)
        for chain in chains:
            assert all(phi.depth() < phi.degree == d for phi in chain)

    def test_absorb_cycle(self, fig_tq):
        factors = one_check_inputs(fig_tq)["absorb_cycle"]()
        assert factors and all(phi.depth() < phi.degree == 24 for phi in factors)
