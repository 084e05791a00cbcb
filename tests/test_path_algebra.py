"""Path algebra layer: paths, rotation classes, truncated arithmetic,
cyclic derivatives.  Reference checks live in oracles.py."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from qpsurf.path_algebra import (
    Path,
    Potential,
    Quiver,
    TruncatedElement,
    canonicalize_rotation,
    concat,
    cyclic_derivative,
    enumerate_cycle_classes,
    is_cyclically_equivalent,
)


def tiny_quiver():
    # u --x--> v --y--> w, plus a loop z at w and a return arrow r: w -> u
    return Quiver(
        ["u", "v", "w"],
        [("x", "u", "v"), ("y", "v", "w"), ("z", "w", "w"), ("r", "w", "u")],
    )


class TestPaths:
    def test_empty_path_needs_vertex(self):
        with pytest.raises(ValueError):
            Path(())
        p = Path((), "u")
        assert len(p) == 0

    def test_written_order_endpoints(self):
        q = tiny_quiver()
        # (y, x) means "y after x": starts at tail(x), ends at head(y)
        p = q.path(["y", "x"])
        assert q.path_tail(p) == "u"
        assert q.path_head(p) == "w"
        assert not q.is_cycle(p)
        assert q.is_cycle(q.path(["r", "y", "x"]))

    def test_noncomposable_word_rejected(self):
        q = tiny_quiver()
        with pytest.raises(ValueError):
            q.path(["x", "y"])
        with pytest.raises(ValueError):
            q.path(["x", "nope"])

    def test_lazy_path_vertex_checked(self):
        q = tiny_quiver()
        with pytest.raises(ValueError):
            q.lazy_path("missing")

    def test_concat(self):
        q = tiny_quiver()
        p = concat(q.path(["y"]), q.path(["x"]))
        assert p == q.path(["y", "x"])
        assert concat(q.lazy_path("u"), q.path(["r"])) == q.path(["r"])


class TestQuiverConstruction:
    def test_duplicate_vertices(self):
        with pytest.raises(ValueError):
            Quiver(["u", "u"], [])

    def test_duplicate_arrow_names(self):
        with pytest.raises(ValueError):
            Quiver(["u", "v"], [("x", "u", "v"), ("x", "v", "u")])

    def test_endpoint_outside_vertex_set(self):
        with pytest.raises(ValueError):
            Quiver(["u"], [("x", "u", "v")])

    def test_json_round_trip(self):
        q = tiny_quiver()
        assert Quiver.from_json_dict(q.to_json_dict()) == q


class TestRotationCanonicalForm:
    def test_matches_naive_minimum(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(402)
        for _ in range(2000):
            w = oracles.random_cycle_word(q, rng, max_len=9)
            p = Path(w)
            assert canonicalize_rotation(q, p) == oracles.naive_min_rotation(q, p)

    def test_idempotent_and_rotation_constant(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(403)
        for _ in range(500):
            p = Path(oracles.random_cycle_word(q, rng, max_len=8))
            c = canonicalize_rotation(q, p)
            assert canonicalize_rotation(q, c) == c
            for r in q.rotations(p):
                assert canonicalize_rotation(q, r) == c

    def test_non_cycle_rejected(self):
        q = tiny_quiver()
        with pytest.raises(ValueError):
            canonicalize_rotation(q, q.path(["y", "x"]))

    @pytest.mark.parametrize("surface", ["torus_tq", "fig_tq"])
    def test_every_rotation_of_puncture_cycle_powers(self, surface, request):
        # periodic words: the minimal rank recurs once per period, so several
        # start positions tie and the first one must win
        tq = request.getfixturevalue(surface)
        q = tq.quiver
        for punc in tq.punctures:
            cyc = tq.puncture_cycle(punc.pid).arrows
            for k in range(1, 48 // len(cyc) + 1):
                w = cyc * k
                for i in range(len(w)):
                    p = Path(w[i:] + w[:i])
                    assert canonicalize_rotation(q, p) == oracles.naive_min_rotation(q, p)

    def test_random_powers_of_a_word(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(404)
        for _ in range(400):
            u = oracles.random_cycle_word(q, rng, max_len=16)
            w = u * rng.randint(2, 6)
            i = rng.randrange(len(w))
            p = Path(w[i:] + w[:i])
            assert canonicalize_rotation(q, p) == oracles.naive_min_rotation(q, p)


class TestTruncatedArithmetic:
    def test_multiplication_matches_naive(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(77)
        for _ in range(200):
            a = oracles.random_element(q, 8, rng)
            b = oracles.random_element(q, 8, rng)
            got = oracles.element_words(a * b)
            want = oracles.naive_multiply(
                q, 8, oracles.element_words(a), oracles.element_words(b)
            )
            assert got == want

    def test_associative_and_distributive(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(78)
        for _ in range(60):
            a = oracles.random_element(q, 7, rng)
            b = oracles.random_element(q, 7, rng)
            c = oracles.random_element(q, 7, rng)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c

    def test_orthogonal_idempotents(self):
        q = tiny_quiver()
        ex = TruncatedElement.from_path(q, 5, q.lazy_path("u"))
        ey = TruncatedElement.from_path(q, 5, q.lazy_path("v"))
        x = TruncatedElement.from_arrow(q, 5, "x")
        assert (ex * ey).is_zero
        assert ey * x == x  # x ends at v
        assert x * ex == x  # x starts at u
        assert (ex * x).is_zero

    def test_degree_coercion_takes_minimum(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(79)
        a = oracles.random_element(q, 10, rng)
        b = oracles.random_element(q, 6, rng)
        assert (a + b).degree == 6
        assert (a * b).degree == 6
        assert a + b == a.truncate(6) + b

    def test_scalar_laws(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(80)
        a = oracles.random_element(q, 8, rng)
        assert a.scale(0).is_zero
        assert 1 * a == a
        assert Fraction(-2, 3) * a == a.scale(Fraction(-2, 3))
        assert a - a == TruncatedElement.zero(q, 8)

    def test_truncate(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(81)
        a = oracles.random_element(q, 9, rng, nterms=8)
        t = a.truncate(4)
        assert t.max_length() <= 4
        assert all(a.coefficient(p) == c for p, c in t.terms.items())
        with pytest.raises(ValueError):
            a.truncate(12)

    def test_element_json_round_trip(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(82)
        a = oracles.random_element(q, 8, rng) + TruncatedElement.from_path(
            q, 8, q.lazy_path(1), Fraction(-3, 2)
        )
        data = a.to_json_dict()
        assert data["D"] == 8
        assert all(isinstance(e["coeff"], str) for e in data["terms"])
        assert TruncatedElement.from_json_dict(q, data) == a

    @given(
        lam=st.fractions(min_value=-5, max_value=5, max_denominator=12),
        mu=st.fractions(min_value=-5, max_value=5, max_denominator=12),
    )
    def test_scalar_action_is_linear(self, lam, mu):
        q = tiny_quiver()
        a = oracles.random_element(q, 6, random.Random(83), nterms=5)
        assert (lam + mu) * a == lam * a + mu * a
        assert lam * (mu * a) == (lam * mu) * a


class TestCoefficientTypes:
    """A coefficient is an int when integral, a Fraction otherwise, never a float."""

    @pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, float("nan")])
    def test_float_coefficients_are_rejected(self, bad):
        q = tiny_quiver()
        x = q.path(["x"])
        with pytest.raises(TypeError, match="float coefficient"):
            TruncatedElement.from_arrow(q, 4, "x", bad)
        with pytest.raises(TypeError, match="float coefficient"):
            TruncatedElement.from_path(q, 4, x, bad)
        with pytest.raises(TypeError, match="float coefficient"):
            TruncatedElement(q, 4, {x: bad})
        with pytest.raises(TypeError, match="float coefficient"):
            Potential(q, 4, {q.path(["z"]): bad})
        with pytest.raises(TypeError, match="float coefficient"):
            TruncatedElement.from_arrow(q, 4, "x").scale(bad)
        with pytest.raises(TypeError):
            bad * TruncatedElement.from_arrow(q, 4, "x")

    def test_integral_coefficients_are_stored_as_int(self):
        q = tiny_quiver()
        x, z = q.path(["x"]), q.path(["z"])
        a = TruncatedElement(q, 4, {x: Fraction(4, 2), z: "3/1"})
        assert a.terms == {x: 2, z: 3}
        assert all(type(c) is int for c in a.terms.values())
        # two rotations of one cycle merge: 1/2 + 1/2 is stored as int 1
        cyc, rot = q.path(["x", "r", "y"]), q.path(["y", "x", "r"])
        pot = Potential(q, 6, {cyc: Fraction(1, 2), rot: Fraction(1, 2)})
        (c,) = pot.terms.values()
        assert type(c) is int and c == 1
        b = TruncatedElement.from_arrow(q, 4, "x", Fraction(-1, 3))
        assert type(b.coefficient(x)) is Fraction
        assert b.scale(-3).terms == {x: 1}
        assert TruncatedElement.from_arrow(q, 4, "x").coefficient(z) == 0

    def test_int_and_equal_fraction_serialize_alike(self):
        q = tiny_quiver()
        x = q.path(["x"])
        as_int = TruncatedElement(q, 4, {x: 2})
        as_fraction = TruncatedElement._raw(q, 4, {x: Fraction(2)})
        assert as_int == as_fraction
        assert as_int.to_json_dict() == as_fraction.to_json_dict()


class TestShort:
    def test_zero_is_infinite(self, torus_tq):
        q = torus_tq.quiver
        assert TruncatedElement.zero(q, 6).short == float("inf")
        assert Potential.zero(q, 6).short == float("inf")

    def test_scaling_and_sums(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(83)
        for _ in range(100):
            p = oracles.random_potential(q, 10, rng)
            r = oracles.random_potential(q, 10, rng)
            if not p.is_zero:
                assert p.scale(Fraction(-5, 7)).short == p.short
            assert (p + r).short >= min(p.short, r.short)


class TestPotential:
    def test_terms_are_canonical_rotations(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(84)
        for _ in range(100):
            w = oracles.random_cycle_word(q, rng, max_len=8)
            pot = Potential(q, 8, {Path(w): Fraction(1)})
            (p,) = pot.terms
            assert p == canonicalize_rotation(q, Path(w))

    def test_rotated_inputs_collapse(self, torus_tq):
        # the same cycle fed in two rotations lands on one term
        q = torus_tq.quiver
        rng = random.Random(85)
        for _ in range(50):
            w = oracles.random_cycle_word(q, rng, max_len=8)
            p = Path(w)
            for r in q.rotations(p):
                assert Potential(q, 8, {p: 2}) == Potential(q, 8, {r: 2})

    def test_non_cycle_rejected(self):
        q = tiny_quiver()
        with pytest.raises(ValueError):
            Potential(q, 6, {q.path(["y", "x"]): 1})

    def test_elements_and_potentials_do_not_mix(self, torus_tq):
        q = torus_tq.quiver
        cyc = torus_tq.triangle_cycle(0)
        pot = Potential(q, 6, {cyc: 2})
        el = TruncatedElement(q, 6, pot.terms)
        assert el.terms == pot.terms
        assert el != pot and pot != el
        with pytest.raises(TypeError):
            el + pot
        with pytest.raises(TypeError):
            pot + el
        assert repr(el).startswith("TruncatedElement(")
        assert repr(pot).startswith("Potential(")
        rot = next(r for r in q.rotations(cyc) if r not in pot.terms)
        assert pot.coefficient(rot) == 2
        assert el.coefficient(rot) == 0
        data = pot.to_json_dict()
        data["D"] = 2
        for cls in (TruncatedElement, Potential):
            with pytest.raises(ValueError, match="longer than the truncation degree"):
                cls.from_json_dict(q, data)

    def test_over_degree_terms_dropped(self, torus_tq):
        q = torus_tq.quiver
        w = Path(torus_tq.triangle_cycle(0).arrows * 3)  # length 9
        pot = Potential(q, 6, {w: 1})
        assert pot.is_zero

    def test_cyclic_equivalence_guards(self, torus_tq):
        q = torus_tq.quiver
        a = Potential.zero(q, 6)
        b = Potential.zero(q, 8)
        with pytest.raises(ValueError):
            is_cyclically_equivalent(a, b)
        assert is_cyclically_equivalent(a, b.truncate(6))

    def test_potential_json_round_trip(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(86)
        pot = oracles.random_potential(q, 9, rng, nterms=4)
        assert Potential.from_json_dict(q, pot.to_json_dict()) == pot


class TestCyclicDerivative:
    def test_matches_occurrence_loop(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(87)
        for _ in range(150):
            pot = oracles.random_potential(q, 9, rng, nterms=3)
            name = rng.choice([a.name for a in q.arrows])
            got = cyclic_derivative(pot, name)
            want = oracles.derivative_terms(q, pot, name)
            want = {
                (w if w else Path((), q.tail(name)).at): c
                for w, c in want.items()
            }
            got_words = {
                (p.arrows if p.arrows else p.at): c for p, c in got.terms.items()
            }
            assert got_words == want
            assert got.degree == pot.degree - 1

    def test_repeated_arrow_occurrences(self, torus_tq):
        # every occurrence contributes its own rotated remainder
        q = torus_tq.quiver
        w = torus_tq.triangle_cycle(0)
        pot = Potential(q, 12, {Path(w.arrows * 2): Fraction(3)})
        d = cyclic_derivative(pot, w.arrows[0])
        # both occurrences rotate to the same remainder, so they pile up
        assert set(p.arrows for p in d.terms) == {w.arrows[1:] + w.arrows}
        assert all(c == Fraction(6) for c in d.terms.values())

    def test_absent_arrow_gives_zero(self, torus_tq):
        q = torus_tq.quiver
        pot = Potential(q, 8, {torus_tq.triangle_cycle(0): 1})
        other = torus_tq.triangle_cycle(1).arrows[0]
        assert cyclic_derivative(pot, other).is_zero

    def test_euler_identity(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(88)
        for _ in range(60):
            pot = oracles.random_potential(q, 8, rng, nterms=3)
            acc = TruncatedElement.zero(q, pot.degree - 1)
            for a in q.arrows:
                da = cyclic_derivative(pot, a.name)
                if da.is_zero:
                    continue
                acc = acc + TruncatedElement.from_arrow(q, pot.degree - 1, a.name) * da
            want = Potential(
                q,
                pot.degree - 1,
                {
                    p: len(p.arrows) * c
                    for p, c in pot.terms.items()
                    if len(p.arrows) <= pot.degree - 1
                },
            )
            assert Potential.from_element(acc) == want


class TestCycleEnumeration:
    def test_torus_counts_match_search(self, torus_tq):
        q = torus_tq.quiver
        got = enumerate_cycle_classes(q, 6)
        want = oracles.all_cycle_classes(q, 6)
        # same classes, independent of how rotations were collapsed
        norm = {min(p.arrows[i:] + p.arrows[:i] for i in range(len(p))) for p in got}
        assert norm == want
        by_len = {}
        for p in got:
            by_len[len(p)] = by_len.get(len(p), 0) + 1
        assert by_len[3] == 8  # one of two parallel arrows on each side
        assert len(got) == len(set(got))

    def test_output_is_canonical_and_sorted(self, fig_tq):
        q = fig_tq.quiver
        got = enumerate_cycle_classes(q, 5)
        assert got == sorted(
            got, key=lambda p: (len(p), tuple(q.rank(n) for n in p.arrows))
        )
        for p in got:
            assert canonicalize_rotation(q, p) == p
