"""Substitution endomorphisms: validation, application, composition,
unitriangular inversion.  The heavily optimized apply() is checked against
a term-by-term reference in oracles.py."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qpsurf import normalize
from qpsurf.endo import (
    REndomorphism,
    compose,
    compose_all,
    invert_unitriangular,
    limit_compose,
)
from qpsurf.path_algebra import (
    Path,
    Potential,
    Quiver,
    TruncatedElement,
    canonicalize_rotation,
)
from qpsurf.surface import potential_S


def arrow_el(q, d, name, coeff=1):
    return TruncatedElement.from_arrow(q, d, name, coeff)


class TestConstruction:
    def test_identity_images_are_dropped(self, torus_tq):
        q = torus_tq.quiver
        phi = REndomorphism(q, 8, {"a1": arrow_el(q, 8, "a1")})
        assert phi.is_identity
        assert phi == REndomorphism.identity(q, 8)

    def test_endpoint_mismatch_rejected(self, torus_tq):
        q = torus_tq.quiver
        # b1 does not share a1's endpoints
        with pytest.raises(ValueError):
            REndomorphism(q, 8, {"a1": arrow_el(q, 8, "b1")})

    def test_unknown_arrow_rejected(self, torus_tq):
        q = torus_tq.quiver
        with pytest.raises(ValueError):
            REndomorphism(q, 8, {"zz": arrow_el(q, 8, "a1")})

    def test_rule_defaults_to_the_arrow(self, torus_tq):
        q = torus_tq.quiver
        phi = REndomorphism(q, 8, {})
        assert phi.rule("c2") == arrow_el(q, 8, "c2")


class TestApply:
    def test_matches_reference_on_random_data(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(501)
        for _ in range(120):
            phi = oracles.random_unitriangular(q, 9, rng)
            x = oracles.random_element(q, 9, rng, nterms=5)
            got = oracles.element_words(phi.apply(x))
            assert got == oracles.naive_apply(phi, x)

    def test_matches_reference_near_the_degree_cap(self, torus_tq):
        # terms sitting close to the truncation bound exercise the pruning
        q = torus_tq.quiver
        rng = random.Random(502)
        for _ in range(80):
            phi = oracles.random_unitriangular(q, 6, rng, nrules=4)
            x = oracles.random_element(q, 6, rng, nterms=6)
            assert oracles.element_words(phi.apply(x)) == oracles.naive_apply(phi, x)

    def test_linear_and_multiplicative(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(503)
        for _ in range(40):
            phi = oracles.random_unitriangular(q, 8, rng)
            a = oracles.random_element(q, 8, rng)
            b = oracles.random_element(q, 8, rng)
            assert phi.apply(a + b) == phi.apply(a) + phi.apply(b)
            assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)

    def test_identity_fixes_everything(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(504)
        ident = REndomorphism.identity(q, 8)
        x = oracles.random_element(q, 8, rng)
        assert ident.apply(x) == x

    def test_potential_in_potential_out(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(505)
        phi = oracles.random_unitriangular(q, 10, rng)
        pot = oracles.random_potential(q, 10, rng)
        out = phi.apply(pot)
        assert isinstance(out, Potential)
        assert out == Potential.from_element(phi.apply(pot.as_element()))

    def test_lazy_paths_pass_through(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(506)
        phi = oracles.random_unitriangular(q, 8, rng)
        e = TruncatedElement.from_path(q, 8, q.lazy_path(2), Fraction(7, 3))
        assert phi.apply(e) == e

    def test_coefficient_only_rescaling(self, torus_tq):
        # image with no extra terms, just a scaled arrow: the fast lane
        q = torus_tq.quiver
        phi = REndomorphism(q, 8, {"a1": arrow_el(q, 8, "a1", Fraction(-2))})
        p = Path(("a1", "c1", "b1", "a1", "c1", "b1"))
        x = TruncatedElement.from_path(q, 8, p, Fraction(5))
        out = phi.apply(x)
        assert out.terms == {p: Fraction(20)}  # (-2)^2 * 5


def every_length_image(q, d, name, unit, rng):
    """unit·arrow plus one parallel word, with a pool coefficient, at each length ≤ d.

    Length 1 offers the other arrows with the same endpoints; ``unit`` may be
    0, so the image need not contain its own arrow.  The terms are stored in
    shuffled order, so apply() cannot rely on the image arriving sorted.
    """
    a = q.arrow(name)
    by_length = {1: [(b.name,) for b in q.arrows if b.name != name
                     and (b.tail, b.head) == (a.tail, a.head)]}
    for w in oracles.parallel_words(q, name, d):
        by_length.setdefault(len(w), []).append(w)
    terms = [(Path((name,)), Fraction(unit))]
    for words in by_length.values():
        if words:
            terms.append((Path(rng.choice(words)), rng.choice(
                [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)]
            )))
    rng.shuffle(terms)
    return TruncatedElement(q, d, dict(terms))


TWO_LOOPS = Quiver(["u"], [("l", "u", "u"), ("m", "u", "u")])


class TestLengthOrderedImages:
    """apply() walks each image shortest term first and stops at the room left."""

    # fig_tq offers no length-1 corrections; the torus's double arrows do
    # (δ = 0), and two loops at one vertex make every word composable
    @settings(max_examples=150, deadline=None)
    @given(
        which=st.sampled_from(["fig", "torus", "two loops"]),
        seed=st.integers(0, 2**32 - 1),
        unit=st.sampled_from([0, 1, -1, Fraction(1, 2)]),
        degree=st.integers(3, 9),
        nrules=st.integers(1, 4),
    )
    def test_matches_reference_with_images_of_every_length(
        self, fig_tq, torus_tq, which, seed, unit, degree, nrules
    ):
        q = {"fig": fig_tq.quiver, "torus": torus_tq.quiver, "two loops": TWO_LOOPS}[which]
        rng = random.Random(seed)
        names = rng.sample([a.name for a in q.arrows], min(nrules, len(q.arrows)))
        phi = REndomorphism(
            q, degree, {nm: every_length_image(q, degree, nm, unit, rng) for nm in names}
        )
        x = oracles.random_element(q, degree, rng, nterms=8)
        assert oracles.element_words(phi.apply(x)) == oracles.naive_apply(phi, x)
        pot = oracles.random_potential(q, degree, rng, nterms=4)
        want = TruncatedElement(
            q, degree,
            {Path(w): c for w, c in oracles.naive_apply(phi, pot.as_element()).items()},
        )
        assert phi.apply(pot) == Potential.from_element(want)

    def test_image_outside_the_arrow_ideal_is_rejected(self):
        # l -> e_u would send l·l·l, which is zero modulo degree 2, to e_u:
        # a length-0 image is not well defined on the truncation
        q = TWO_LOOPS
        with pytest.raises(ValueError, match="arrow ideal"):
            REndomorphism(q, 2, {
                "l": TruncatedElement(q, 2, {q.lazy_path("u"): 1}),
                "m": TruncatedElement(q, 2, {Path(("m",)): 1, Path(("m", "m")): 1}),
            })

    def test_loop_potential_is_canonicalized_and_merged(self):
        # z -> z + 2·y·z on zy + zzy + zyy: every output cycle comes back
        # rotated to its minimal form (z before y), e.g. y·z·z·y as z·z·y·y,
        # and y·y·z (from zy) merges with z·y·y (from zyy) into 3·z·y·y
        q = Quiver(["u"], [("z", "u", "u"), ("y", "u", "u")])
        img = TruncatedElement(q, 6, {Path(("z",)): 1, Path(("y", "z")): 2})
        phi = REndomorphism(q, 6, {"z": img})
        pot = Potential(q, 6, {Path(("y", "z")): 1, Path(("z", "z", "y")): 1,
                               Path(("z", "y", "y")): 1})
        out = phi.apply(pot)
        assert out == Potential.from_element(phi.apply(pot.as_element()))
        assert out.terms == {
            Path(("z", "y")): 1,
            Path(("z", "y", "y")): 3,
            Path(("z", "y", "y", "y")): 2,
            Path(("z", "z", "y")): 1,
            Path(("z", "y", "z", "y")): 2,
            Path(("z", "z", "y", "y")): 2,
            Path(("z", "y", "z", "y", "y")): 4,
        }


class TestApplyOnPotentials:
    """apply() keeps the input's canonical keys and canonicalizes only rewritten words."""

    @settings(max_examples=150, deadline=None)
    @given(
        which=st.sampled_from(["fig", "torus", "two loops"]),
        seed=st.integers(0, 2**32 - 1),
        degree=st.integers(3, 10),
        nterms=st.integers(1, 6),
    )
    def test_matches_canonicalizing_every_output_word(
        self, fig_tq, torus_tq, which, seed, degree, nterms
    ):
        q = {"fig": fig_tq.quiver, "torus": torus_tq.quiver, "two loops": TWO_LOOPS}[which]
        rng = random.Random(seed)
        phi = oracles.random_unitriangular(q, degree, rng)
        pot = oracles.random_potential(q, degree, rng, nterms=nterms)
        got = phi.apply(pot)
        want = Potential(q, degree, phi.apply(pot.as_element()).terms)
        assert list(got.terms.items()) == list(want.terms.items())
        for p in got.terms:
            assert p == canonicalize_rotation(q, p)

    def test_rewritten_words_of_one_class_cancel(self):
        # x -> x + y and w -> w + z send xz to xz + yz and -wy to -wy - zy;
        # neither yz nor zy is an input key, and they cancel once rotated
        q = Quiver(["u"], [("w", "u", "u"), ("x", "u", "u"), ("y", "u", "u"),
                           ("z", "u", "u")])
        phi = REndomorphism(q, 6, {
            "x": TruncatedElement(q, 6, {Path(("x",)): 1, Path(("y",)): 1}),
            "w": TruncatedElement(q, 6, {Path(("w",)): 1, Path(("z",)): 1}),
        })
        pot = Potential(q, 6, {Path(("x", "z")): 1, Path(("w", "y")): -1})
        assert phi.apply(pot.as_element()).terms == {
            Path(("x", "z")): 1, Path(("y", "z")): 1,
            Path(("w", "y")): -1, Path(("z", "y")): -1,
        }
        out = phi.apply(pot)
        assert out.terms == {Path(("x", "z")): 1, Path(("w", "y")): -1}
        assert out == Potential(q, 6, phi.apply(pot.as_element()).terms)

    def test_potential_on_another_quiver_is_rejected(self, fig_tq, torus_tq):
        phi = REndomorphism.identity(fig_tq.quiver, 8)
        with pytest.raises(ValueError, match="different quiver"):
            phi.apply(potential_S(torus_tq, 1, 8))


class TestComposition:
    def test_compose_agrees_with_sequential_apply(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(507)
        for _ in range(40):
            f = oracles.random_unitriangular(q, 8, rng)
            g = oracles.random_unitriangular(q, 8, rng)
            x = oracles.random_element(q, 8, rng)
            assert compose(f, g).apply(x) == f.apply(g.apply(x))

    def test_compose_all_equals_left_fold(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(508)
        factors = [oracles.random_unitriangular(q, 7, rng) for _ in range(7)]
        folded = REndomorphism.identity(q, 7)
        for phi in factors:
            folded = compose(phi, folded)
        assert compose_all(factors, q, 7) == folded

    @pytest.mark.parametrize("surface", ["fig_tq", "torus_tq"])
    def test_compose_agrees_with_sequential_apply_on_potentials(self, surface, request):
        # The flip check transports its potential factor by factor and
        # reports the composite; this is the identity that makes them agree.
        q = request.getfixturevalue(surface).quiver
        rng = random.Random(509)
        for _ in range(25):
            f = oracles.random_unitriangular(q, 9, rng)
            g = oracles.random_unitriangular(q, 9, rng)
            w = oracles.random_potential(q, 9, rng, nterms=4)
            assert compose(f, g).apply(w) == f.apply(g.apply(w))

    @pytest.mark.parametrize("surface", ["fig_tq", "torus_tq"])
    def test_compose_all_of_four_equals_nested_compose(self, surface, request):
        q = request.getfixturevalue(surface).quiver
        rng = random.Random(510)
        for _ in range(5):
            f1, f2, f3, f4 = (oracles.random_unitriangular(q, 8, rng) for _ in range(4))
            nested = compose(f4, compose(f3, compose(f2, f1)))
            assert compose_all([f1, f2, f3, f4], q, 8) == nested
            w = oracles.random_potential(q, 8, rng, nterms=4)
            assert nested.apply(w) == f4.apply(f3.apply(f2.apply(f1.apply(w))))

    @settings(max_examples=60, deadline=None)
    @given(
        which=st.sampled_from(["fig", "torus"]),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 6),
        degree=st.integers(4, 10),
    )
    def test_applying_factors_in_turn_equals_their_composite(
        self, fig_tq, torus_tq, which, seed, count, degree
    ):
        # The absorption witness is applied factor by factor and reported
        # as its factor chain; this is the identity that makes the chain
        # and its composite agree, exactly modulo the truncation.
        q = {"fig": fig_tq.quiver, "torus": torus_tq.quiver}[which]
        rng = random.Random(seed)
        factors = [
            oracles.random_unitriangular(q, degree, rng, nrules=rng.randint(1, 4),
                                         max_len=rng.randint(2, degree))
            for _ in range(count)
        ]
        pot = oracles.random_potential(q, degree, rng, nterms=4)
        out = pot
        for phi in factors:
            out = phi.apply(out)
        assert out == compose_all(factors, q, degree).apply(pot)

    def test_compose_all_empty(self, torus_tq):
        q = torus_tq.quiver
        assert compose_all([], q, 9).is_identity

    def test_cross_quiver_composition_rejected(self, torus_tq, fig_tq):
        with pytest.raises(ValueError):
            compose(
                REndomorphism.identity(torus_tq.quiver, 8),
                REndomorphism.identity(fig_tq.quiver, 8),
            )


RESCALINGS = (2, -1, 3, Fraction(1, 2), Fraction(-1, 3), 0)


def random_factor(q, d, kind, rng):
    """One factor of a kind: a random unitriangular substitution, a rescaling
    of one arrow by an int or a Fraction, or a rule with no unit term."""
    if kind == "unitriangular":
        return oracles.random_unitriangular(q, d, rng)
    name = rng.choice([a.name for a in q.arrows])
    if kind == "rescaling":
        return REndomorphism(q, d, {name: arrow_el(q, d, name, rng.choice(RESCALINGS))})
    return REndomorphism(q, d, {name: every_length_image(q, d, name, 0, rng)})


def naive_chain(factors, x):
    """x pushed through the factors one at a time by the reference apply."""
    words = oracles.element_words(x)
    for f in factors:
        el = TruncatedElement(x.quiver, x.degree, {Path(w): c for w, c in words.items()})
        words = oracles.naive_apply(f, el)
    return words


class TestRightFold:
    """compose_all folds from the outermost factor; compose is its definition."""

    @settings(max_examples=60, deadline=None)
    @given(
        which=st.sampled_from(["fig", "torus"]),
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(
            st.sampled_from(["unitriangular", "rescaling", "no unit term"]),
            min_size=1, max_size=8,
        ),
        degree=st.integers(3, 7),
    )
    def test_equals_the_left_fold_and_the_reference(
        self, fig_tq, torus_tq, which, seed, kinds, degree
    ):
        q = {"fig": fig_tq.quiver, "torus": torus_tq.quiver}[which]
        rng = random.Random(seed)
        # factors may be known to a higher degree than the composite keeps
        factors = [random_factor(q, degree + rng.randint(0, 2), kind, rng) for kind in kinds]
        nested = factors[0]
        for phi in factors[1:]:
            nested = compose(phi, nested)
        psi = compose_all(factors, q, degree)
        assert psi == nested
        assert psi.degree == min(f.degree for f in factors)
        assert psi.depth() == nested.depth()
        x = oracles.random_element(q, degree, rng, nterms=5)
        assert oracles.element_words(psi.apply(x)) == naive_chain(factors, x)
        pot = oracles.random_potential(q, degree, rng, nterms=3)
        want = naive_chain(factors, pot.as_element())
        assert psi.apply(pot) == Potential(q, degree, {Path(w): c for w, c in want.items()})

    def test_untouched_images_are_reused(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(512)
        for d_outer in (8, 10):
            outer = oracles.random_unitriangular(q, d_outer, rng, nrules=5, max_len=9)
            inner = REndomorphism(q, 8, {"a1": arrow_el(q, 8, "a1", 2)})
            out = compose(outer, inner)
            # the definition: outer applied to inner's image of every arrow
            assert out == REndomorphism(q, 8, {
                a.name: outer.apply(inner.rule(a.name)) for a in q.arrows
            })
            assert out.depth() == 0
        # an outer image whose correction lies beyond the composite's degree
        # truncates to the bare arrow and is dropped
        w = max(oracles.parallel_words(q, "a1", 10), key=len)
        outer = REndomorphism(q, 10, {"a1": arrow_el(q, 10, "a1")
                                      + TruncatedElement.from_path(q, 10, Path(w), 1)})
        assert outer.depth() == len(w) - 1 > 8
        out = compose(outer, REndomorphism.identity(q, 8))
        assert out.is_identity and out.depth() == float("inf")

    def test_new_images_are_checked(self, torus_tq):
        # an inner image that is not parallel to its arrow stays an error
        # however the inner endomorphism was built: compose's images go
        # through the constructor's checks
        q = torus_tq.quiver
        outer = REndomorphism.identity(q, 8)
        inner = REndomorphism.__new__(REndomorphism)
        inner.quiver, inner.degree, inner._table = q, 8, None
        inner.rules = {"a1": arrow_el(q, 8, "b1")}
        with pytest.raises(ValueError, match="wrong endpoints"):
            compose(outer, inner)

    def test_short_terms_pass_through_scaled(self, torus_tq):
        # a1 -> 2·a1, a2 -> -1/3·a2 and b1 -> (no unit term), each plus a
        # correction of length 7 (δ = 6); at D = 9 a term of length ≥ 4 has
        # slack < 6 and comes back as itself times its arrows' unit
        # coefficients, or not at all when one of them is 0
        q = torus_tq.quiver
        d = 9
        rules = {}
        for name, unit in (("a1", 2), ("a2", Fraction(-1, 3)), ("b1", 0)):
            long = next(w for w in oracles.parallel_words(q, name, 7) if len(w) == 7)
            rules[name] = TruncatedElement(q, d, {Path((name,)): unit, Path(long): 1})
        phi = REndomorphism(q, d, rules)
        assert phi.depth() == 0
        units = {"a1": 2, "a2": Fraction(-1, 3), "b1": 0}
        rng = random.Random(513)
        seen = set()
        for _ in range(200):
            x = oracles.random_element(q, d, rng, nterms=1)
            (p, c), = x.terms.items()
            if len(p) < 4:
                continue
            want = c
            for name in p.arrows:
                want *= units.get(name, 1)
            got = phi.apply(x).terms
            assert got == ({p: want} if want else {})
            assert oracles.element_words(phi.apply(x)) == oracles.naive_apply(phi, x)
            seen.update(name for name in p.arrows if name in units)
            seen.add("drop" if not want else "keep")
        assert seen == {"a1", "a2", "b1", "drop", "keep"}


class TestReadOnlyRules:
    def test_assigning_a_rule_raises(self, torus_tq):
        q = torus_tq.quiver
        phi = REndomorphism(q, 8, {"a1": arrow_el(q, 8, "a1", 2)})
        with pytest.raises(TypeError):
            phi.rules["a2"] = arrow_el(q, 8, "a2", 3)
        with pytest.raises(TypeError):
            phi.rules["a1"] = arrow_el(q, 8, "a1")
        with pytest.raises(TypeError):
            del phi.rules["a1"]
        assert dict(phi.rules) == {"a1": arrow_el(q, 8, "a1", 2)}
        assert phi.depth() == 0

    def test_changing_the_callers_image_leaves_the_rule_alone(self, torus_tq):
        q = torus_tq.quiver
        img = arrow_el(q, 8, "a1", 2)
        phi = REndomorphism(q, 8, {"a1": img})
        img.terms[Path(("a1",))] = 5
        assert phi.rules["a1"] == arrow_el(q, 8, "a1", 2)
        x = arrow_el(q, 8, "a1")
        assert phi.apply(x) == arrow_el(q, 8, "a1", 2)

    @pytest.mark.parametrize("built", ["constructor", "compose"])
    def test_rule_image_terms_are_read_only(self, torus_tq, built):
        q = torus_tq.quiver
        phi = REndomorphism(q, 8, {"a1": arrow_el(q, 8, "a1", 2)})
        if built == "compose":
            phi = compose(phi, REndomorphism(q, 8, {"a1": arrow_el(q, 8, "a1", 3)}))
        before = dict(phi.rules["a1"].terms)
        with pytest.raises(TypeError):
            phi.rules["a1"].terms[Path(("a1",))] = 7
        assert dict(phi.rules["a1"].terms) == before
        x = arrow_el(q, 8, "a1")
        assert phi.apply(x) == arrow_el(q, 8, "a1", before[Path(("a1",))])

    def test_equality_and_json_round_trip_are_unchanged(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(514)
        for _ in range(10):
            f = oracles.random_unitriangular(q, 9, rng, nrules=4)
            g = oracles.random_unitriangular(q, 9, rng, nrules=4)
            for phi in (f, compose(f, g)):
                again = REndomorphism(q, 9, dict(phi.rules))
                assert again == phi and phi == again
                data = phi.to_json_dict()
                back = REndomorphism.from_json_dict(q, data)
                assert back == phi
                assert back.to_json_dict() == data
            assert (f == g) == (dict(f.rules) == dict(g.rules))


class TestDepthAndInversion:
    def test_depth_of_identity_is_infinite(self, torus_tq):
        assert REndomorphism.identity(torus_tq.quiver, 8).depth() == float("inf")

    def test_depth_counts_added_length(self, torus_tq):
        q = torus_tq.quiver
        extra = Path(("a1", "c1", "b1", "a1"))  # length 4, parallel to a1
        q.check_path(extra)
        img = arrow_el(q, 10, "a1") + TruncatedElement.from_path(q, 10, extra, 3)
        phi = REndomorphism(q, 10, {"a1": img})
        assert phi.depth() == 3
        assert phi.is_unitriangular()

    def test_arrow_swap_is_not_unitriangular(self, torus_tq):
        q = torus_tq.quiver
        phi = REndomorphism(
            q, 8, {"a1": arrow_el(q, 8, "a2"), "a2": arrow_el(q, 8, "a1")}
        )
        assert phi.depth() == 0
        assert not phi.is_unitriangular()
        assert phi.is_automorphism()
        with pytest.raises(ValueError):
            invert_unitriangular(phi)

    def test_collapsing_rule_is_not_an_automorphism(self, torus_tq):
        q = torus_tq.quiver
        phi = REndomorphism(q, 8, {"a1": arrow_el(q, 8, "a2")})
        assert not phi.is_automorphism()

    def test_shear_is_an_automorphism(self, torus_tq):
        q = torus_tq.quiver
        img = arrow_el(q, 8, "a1") + arrow_el(q, 8, "a2", Fraction(1, 2))
        assert REndomorphism(q, 8, {"a1": img}).is_automorphism()

    def test_inverse_round_trip(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(509)
        for _ in range(25):
            phi = oracles.random_unitriangular(q, 8, rng)
            psi = invert_unitriangular(phi)
            assert compose(phi, psi).is_identity
            assert compose(psi, phi).is_identity

    def test_inverse_round_trip_on_elements(self, torus_tq):
        q = torus_tq.quiver
        rng = random.Random(510)
        phi = oracles.random_unitriangular(q, 9, rng, nrules=5)
        psi = invert_unitriangular(phi)
        x = oracles.random_element(q, 9, rng, nterms=6)
        assert psi.apply(phi.apply(x)) == x


class TestLimitCompose:
    def test_stops_once_factors_exceed_the_degree(self, torus_tq):
        q = torus_tq.quiver
        d = 6
        tri = Path(("a1", "c1", "b1"))

        def factor(k):
            # depth grows with k: a1 -> a1 + (triangle)^k a1
            w = Path(tri.arrows * k + ("a1",))
            img = arrow_el(q, d, "a1") + TruncatedElement.from_path(q, d, w, 1)
            return REndomorphism(q, d, {"a1": img})

        consumed = []

        def stream():
            for k in itertools.count(1):
                consumed.append(k)
                yield factor(k)

        out = limit_compose(stream(), q, d)
        # factor(2) has depth 6 >= d, so the stream stops there
        assert consumed == [1, 2]
        assert out == compose(factor(2), factor(1))

    def test_stalling_stream_aborts(self, torus_tq):
        q = torus_tq.quiver
        d = 5
        w = Path(("a1", "c1", "b1", "a1"))
        img = arrow_el(q, d, "a1") + TruncatedElement.from_path(q, d, w, 1)
        phi = REndomorphism(q, d, {"a1": img})
        with pytest.raises(RuntimeError):
            limit_compose(itertools.repeat(phi), q, d)


class TestSerialization:
    def test_json_round_trip(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(511)
        phi = oracles.random_unitriangular(q, 9, rng, nrules=4)
        assert REndomorphism.from_json_dict(q, phi.to_json_dict()) == phi

    @pytest.mark.parametrize("degree", [9.0, True, "9"])
    def test_degree_must_be_an_integer(self, fig_tq, degree):
        data = REndomorphism.identity(fig_tq.quiver, 9).to_json_dict()
        data["D"] = degree
        with pytest.raises(TypeError, match="D must be an integer"):
            REndomorphism.from_json_dict(fig_tq.quiver, data)


MIXED_POOL = (1, 2, -1, Fraction(-1, 3), Fraction(3, 2), Fraction(1, 2))


def assert_exact(terms, stored=True):
    """No coefficient is a float; with ``stored``, an integral one is an int.

    ``stored`` holds for what ``_Graded.__init__`` and ``apply`` return; a
    sum from ``__add__`` may keep an integral ``Fraction``.
    """
    for c in terms.values():
        assert type(c) in (int, Fraction), repr(c)
        if stored:
            assert type(c) is int or c.denominator != 1, repr(c)


def mixed(cls, el, rng):
    """The same support with coefficients redrawn from MIXED_POOL."""
    return cls(el.quiver, el.degree, {p: rng.choice(MIXED_POOL) for p in el.terms})


def mixed_image(q, d, name, unit, rng):
    """unit·arrow plus up to three parallel words with pool coefficients."""
    words = oracles.parallel_words(q, name, d)
    terms = {Path((name,)): unit}
    for w in rng.sample(words, min(3, len(words))):
        terms[Path(w)] = rng.choice(MIXED_POOL)
    return TruncatedElement(q, d, terms)


class TestMixedCoefficients:
    """Integral coefficients are ints, the rest Fractions; divisions stay exact."""

    @settings(max_examples=100, deadline=None)
    @given(
        which=st.sampled_from(["fig", "torus", "two loops"]),
        seed=st.integers(0, 2**32 - 1),
        unit=st.sampled_from(MIXED_POOL),
        degree=st.integers(3, 8),
        nrules=st.integers(1, 4),
    )
    def test_apply_and_inverse_match_the_reference(
        self, fig_tq, torus_tq, which, seed, unit, degree, nrules
    ):
        q = {"fig": fig_tq.quiver, "torus": torus_tq.quiver, "two loops": TWO_LOOPS}[which]
        rng = random.Random(seed)
        names = rng.sample([a.name for a in q.arrows], min(nrules, len(q.arrows)))
        phi = REndomorphism(
            q, degree, {nm: mixed_image(q, degree, nm, unit, rng) for nm in names}
        )
        for img in phi.rules.values():
            assert_exact(img.terms)
        x = mixed(TruncatedElement, oracles.random_element(q, degree, rng, nterms=6), rng)
        assert_exact(x.terms)
        got = phi.apply(x)
        assert oracles.element_words(got) == oracles.naive_apply(phi, x)
        assert_exact(got.terms)
        pot = mixed(Potential, oracles.random_potential(q, degree, rng, nterms=4), rng)
        out = phi.apply(pot)
        want = oracles.naive_apply(phi, pot.as_element())
        assert out == Potential(q, degree, {Path(w): c for w, c in want.items()})
        assert_exact(out.terms)

        unitri = REndomorphism(
            q, degree, {nm: mixed_image(q, degree, nm, 1, rng) for nm in names}
        )
        psi = invert_unitriangular(unitri)
        for img in psi.rules.values():
            assert_exact(img.terms, stored=False)
        assert compose(psi, unitri).is_identity
        there = unitri.apply(x)
        assert_exact(there.terms)
        assert psi.apply(there) == x

    @settings(max_examples=40, deadline=None)
    @given(
        z=st.lists(st.sampled_from(MIXED_POOL), min_size=4, max_size=4),
        lam=st.sampled_from(MIXED_POOL),
    )
    def test_triangle_rescaling_divides_exactly(self, fig_tq, z, lam):
        q = fig_tq.quiver
        terms = {fig_tq.triangle_cycle(i): z[i] for i in range(4)}
        terms[fig_tq.puncture_cycle("p1")] = lam
        pot = Potential(q, 12, terms)
        phi, out = normalize.normalize_triangle_coefficients(fig_tq, pot)
        for img in phi.rules.values():
            assert_exact(img.terms)
        assert_exact(out.terms)
        for i in range(4):
            c = out.coefficient(fig_tq.triangle_cycle(i))
            assert type(c) is int and c == 1
        assert phi.apply(pot) == out

    @settings(max_examples=15, deadline=None)
    @given(
        xs=st.tuples(st.sampled_from(MIXED_POOL), st.sampled_from(MIXED_POOL)),
        lam=st.sampled_from(MIXED_POOL),
        mu=st.sampled_from(MIXED_POOL),
    )
    def test_absorption_divides_out_exactly(self, fig_tq, xs, lam, mu):
        q = fig_tq.quiver
        d = 20
        rim = fig_tq.puncture_cycle("p0").arrows
        hub = fig_tq.puncture_cycle("p1").arrows
        v_pot = Potential(q, d, {Path(rim * 2): lam, Path(hub * 3): mu})
        factors = normalize.absorb_g_powers(fig_tq, xs, v_pot)
        assert factors
        phi = compose_all(factors, q, d)
        for f in factors + (phi,):
            for img in f.rules.values():
                assert_exact(img.terms, stored=False)
        s_pot = potential_S(fig_tq, xs, d)
        assert_exact(s_pot.terms)
        out = s_pot + v_pot
        for f in factors:
            out = f.apply(out)
            assert_exact(out.terms)
        assert out == s_pot
        composite = phi.apply(s_pot + v_pot)
        assert_exact(composite.terms)
        assert composite == s_pot
